"""Command-line interface.

Subcommands::

    standardize  convert a raw channel JSON document to standard form
    feasible     test a power vector against the allowable power set
    region       achievable-region halfspaces (and vertices for K <= 2)
    maxsum       sum-rate-optimal power allocation
    jam          two-user cooperative jamming optimum
    sweep        CSV sweeps: per-grid-point region bounds, or the jamming
                 objective as a function of the jamming power

All JSON output is deterministic (two-space indent, insertion order) and
floats use their shortest round-trip representation.  Exit status 1 marks
invalid input, 2 an internal consistency failure (e.g. a closed form
that fails the ``--verify`` check of ``gmacwt.oracle``).

Each command runs only the modules it needs: ``standardize``, ``feasible``
and ``region`` never load ``sumrate``, ``jamming`` or ``oracle``,
``maxsum`` loads ``sumrate`` (and ``oracle`` with ``--verify``) but never
``jamming``, and ``jam`` loads ``sumrate`` only for two gains below 1.
``gmacwt.region`` is registered in ``sys.modules`` (and bound on the
package) when this module is imported, through ``importlib.util.LazyLoader``,
but ``region.py`` is compiled and run only on the first attribute access:
``feasible``, ``region``, ``sweep --kind region`` and ``--verify`` (whose
oracle imports it) run it, while ``standardize``, ``maxsum``, ``jam``,
``sweep --kind jam`` and a refused document never do.  It is registered
rather than imported inside the commands because tools that wrap the
package's entry points, such as ``perfbench/spans.py``, look it up in
``sys.modules`` right after ``import gmacwt.cli``.

``run()`` is the process entry (the ``gmacwt`` script and ``python -m
gmacwt.cli``).  ``main(argv)`` changes no environment and never exits, not
even for ``--help``: it returns the exit status, so tests and other
in-process callers can call it.

Output is written and flushed inside ``main()``: a stdout that cannot take
it (a closed pipe, a full disk, no fd 1) is refused like an ``--out`` file
that cannot be written, with one ``error:`` line and exit 1.  So is a
request that runs out of memory (``error: out of memory``): every input
the CLI takes is bounded, the channel document by
``channel.MAX_DOCUMENT_BYTES``, so a ``MemoryError`` means a memory limit
below what a valid request needs, not a fault of the program.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import importlib.util
import json
import math
import os
import sys

from .channel import (RATE_UNITS, InternalError, StandardChannel, ValidationError, _as_float,
                      _check_grid, _p2_points, channel_to_json, load_channel)


def _lazy_import(name):
    """``import name``, with the module's code run on its first attribute
    access.  The module goes into ``sys.modules`` and onto its package now,
    where the import system puts an imported module, so ``import``,
    ``from ... import`` and pickle all find it; whichever reads from it
    first runs it."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


region = _lazy_import(f"{__package__}.region")


def _fmt(value) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise InternalError(f"non-finite value {value} in the CSV output")
    return repr(value)


def _csv(header, rows) -> str:
    lines = [header]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _json_doc(doc) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or Infinity, which JSON cannot hold
        raise InternalError(f"non-finite value in the JSON output ({exc})") from None


def _region_json(rate_region) -> str:
    """``_json_doc(rate_region.to_json_dict())``, byte for byte, without the
    document: with an indent, ``json.dumps`` runs its pure-Python encoder,
    0.6-1.0 s for the 2^16 - 1 halfspaces of 16 users (2-vCPU VM, Python
    3.11), so each halfspace is filled into one template instead (0.11-0.16
    s); ``RateRegion._document`` gives the other entries."""
    if not all(map(math.isfinite, rate_region.bounds)):
        raise InternalError("non-finite value in the JSON output (a bound)")
    # the list items of every subset's text, in bitmask order
    items = region._subset_sums(
        [f",\n        {k}" for k in range(1, rate_region.num_users + 1)], "")
    halfspaces = ",\n".join(
        f'    {{\n      "subset": [{s[1:]}\n      ],\n      "bound": {b!r}\n    }}'
        for s, b in zip(items[1:], rate_region.bounds))
    rest = _json_doc(rate_region._document(None))
    return rest.replace('"halfspaces": null', f'"halfspaces": [\n{halfspaces}\n  ]', 1)


def _load(args):
    ch = load_channel(args.channel)
    if args.unit is not None and args.unit != ch.rate_unit:
        ch = StandardChannel(ch.h, ch.p_max, args.unit)
    return ch


def _cmd_standardize(args, ch):
    return _json_doc(channel_to_json(ch))


def _cmd_feasible(args, ch):
    ok, witness = region.is_feasible(args.power.split(","), ch)
    doc = {"feasible": ok, "rate_unit": ch.rate_unit}
    doc["witness"] = None if witness is None else {
        "kind": witness.kind,
        "users": [k + 1 for k in witness.users],
    }
    return _json_doc(doc)


def _cmd_region(args, ch):
    powers = ch.p_max if args.power is None else args.power.split(",")
    rate_region = region.build_region(powers, ch)
    if args.format == "json":
        return _region_json(rate_region)
    vertices = rate_region.vertices  # None above 2 users
    if vertices is None:
        raise ValidationError(
            "format: CSV vertex output is only available for 1- or 2-user "
            "channels")
    header = ",".join(f"R{k + 1}" for k in range(ch.num_users))
    return _csv(header, vertices)


def _cmd_maxsum(args, ch):
    from .sumrate import max_sum_rate
    sol = max_sum_rate(ch)
    doc = sol.to_json_dict()
    if args.verify:
        from .oracle import verify_sum_rate
        # Checked here so that a refusal names the flag's grid_steps, not
        # verify_sum_rate's steps.
        if args.grid_steps is not None:
            _check_grid("grid_steps", args.grid_steps, ch.num_users)
        doc["oracle"] = verify_sum_rate(ch, sol, args.grid_steps)
    return _json_doc(doc)


def _cmd_jam(args, ch):
    from .jamming import TwoUserChannel, solve_jamming
    two, perm = TwoUserChannel.from_standard(ch)
    sol = solve_jamming(two, ch.rate_unit)
    doc = sol.to_json_dict(permutation=perm)
    if args.verify:
        from .oracle import verify_jamming
        steps = None if args.p2_step is None else max(2, _p2_points(args.p2_step, two.p2_max))
        doc["oracle"] = verify_jamming(ch, sol, steps)
    return _json_doc(doc)


def _cmd_sweep(args, ch):
    if args.kind == "region":
        table = region._sweep_table(ch, args.grid_steps)
        # a slice at a time, so the rows are never all Python floats at once
        rows = (row for i in range(0, len(table), 4096) for row in table[i:i + 4096].tolist())
        text = _csv("P1,P2,b1,b2,b12", rows)
        about = "region sweep: bounds at every feasible grid point (union data)"
    else:
        from .jamming import TwoUserChannel, jam_objective
        two, _ = TwoUserChannel.from_standard(ch)
        p1 = two.p1_max if args.p1 is None else _as_float("p1", args.p1)
        step = args.p2_step
        count = _p2_points(step, two.p2_max)
        rows = ((p2, jam_objective(p1, p2, two, ch.rate_unit))
                for p2 in (i * step for i in range(count)))
        text = _csv("p2,objective", rows)
        about = f"jamming sweep: objective vs jamming power at p1={_fmt(p1)}"
    # only once every row is formed, so that a refusal is the one stderr line
    print(f"# {about}, rate_unit={ch.rate_unit}", file=sys.stderr)
    return text


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    parser = _ArgumentParser(
        prog="gmacwt",
        description="Secrecy rate regions, optimal power allocation, and "
                    "cooperative jamming for the Gaussian multiple-access "
                    "wiretap channel.")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # every command's arguments
    shared.add_argument("channel", help="channel JSON file")
    shared.add_argument("--unit", choices=RATE_UNITS, default=None,
                        help="override the document's rate unit")
    shared.add_argument("--out", default=None,
                        help="write output here instead of stdout")

    def command(name, run, help):
        """A command that ``main()`` runs as ``run(args, channel)``, once it has
        loaded the channel, so a refused document loads no module beyond the CLI's."""
        p = sub.add_parser(name, parents=[shared], help=help)
        p.set_defaults(run=run)
        return p

    command("standardize", _cmd_standardize, "emit the standard-form channel")

    p = command("feasible", _cmd_feasible, "test a power vector for feasibility")
    p.add_argument("--power", required=True,
                   help="comma-separated per-user powers, e.g. 10,0")

    p = command("region", _cmd_region, "achievable region at fixed powers")
    p.add_argument("--power", default=None,
                   help="comma-separated per-user powers (default: p_max)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits the vertex list (K <= 2 only)")

    p = command("maxsum", _cmd_maxsum, "sum-rate-optimal power allocation")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the grid oracle")
    p.add_argument("--grid-steps", type=int, default=None,
                   help="oracle grid steps per axis (default: 11 for K <= 3, "
                        "6 up to K = 8, fewer above)")

    p = command("jam", _cmd_jam, "two-user cooperative jamming optimum")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the grid oracle")
    p.add_argument("--p2-step", type=float, default=None,
                   help="oracle grid step on the jamming power (default 1e-3, at most 10^7 points)")

    p = command("sweep", _cmd_sweep, "CSV sweep data for plotting")
    p.add_argument("--kind", choices=("region", "jam"), required=True)
    p.add_argument("--grid-steps", type=int, default=11,
                   help="region sweep: grid steps per power axis")
    p.add_argument("--p2-step", type=float, default=0.1,
                   help="jam sweep: step on the jamming power")
    p.add_argument("--p1", default=None,
                   help="jam sweep: transmit power (default: p1_max)")

    return parser


def _emit(payload, out):
    """Write ``payload`` to ``out``, or to stdout and flush it, so that a
    write that fails (a closed pipe, a full disk, no fd 1) is a refusal."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValidationError(f"out: cannot write {out!r} ({exc.strerror})") from None
        return
    if sys.stdout is None:  # the interpreter started without fd 1
        raise ValidationError(f"stdout: cannot write ({os.strerror(errno.EBADF)})")
    try:
        sys.stdout.write(payload)
        sys.stdout.flush()
    except OSError as exc:
        raise ValidationError(f"stdout: cannot write ({exc.strerror})") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _emit(args.run(args, _load(args)), args.out)
    except SystemExit as exc:  # --help, printed by argparse
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # what the request needs passes the process's memory limit
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


def run():
    """The ``gmacwt`` process: ``main()`` on ``sys.argv`` with OpenBLAS held to one
    thread unless the caller set ``OPENBLAS_NUM_THREADS``, then the end of the
    process with ``main()``'s status.  gmacwt calls no BLAS routine, and the
    worker thread that OpenBLAS otherwise starts on load spins for about 0.1 s
    of CPU, which slows the whole process when no core is free for it.

    The end keeps what a caller can see of a normal exit: the ``atexit``
    handlers run (the first step of the interpreter's own finalization), and
    stdout and stderr are flushed.  ``os._exit`` then skips the module teardown
    and final collection, 7-25 ms that write nothing.  Under a tracer or
    profiler the end is ``sys.exit``, because those tools report after the
    code returns."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's and coverage's from 3.12
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6))))):
        sys.exit(status)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # a stdout that refused main()'s write refuses again
                pass
    os._exit(status)


if __name__ == "__main__":
    run()
