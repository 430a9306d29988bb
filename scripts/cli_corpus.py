"""Exit code, stdout and stderr of the CLI over a fixed corpus of commands.

Builds a seeded corpus of commands covering every subcommand: K = 1-4,
8, 9 and 16, raw and standard documents, bits and nats, ``--verify`` on the
default grids and on explicit coarse and fine ones, the jamming cases A,
B and degenerate in both user orders with jammer caps up to 1e300,
every class of refusal (usage, file, document, flag and grid-cap
errors) and the help screens.  Each command runs in this process through
``gmacwt.cli.main`` from a scratch directory that holds the documents
under relative paths, so that stderr compares between checkouts.  The
record of a command is its exit code, the SHA-256 digest of its stdout
(followed by the file that ``--out`` wrote, if any) and its stderr.

The corpus is fixed by ``SEED``.  Run it against any checkout by putting
that checkout's ``src`` first on the path; ``--save FILE`` writes the
records with the Python and numpy versions that made them, and ``--compare
FILE`` lists every command whose record differs from another checkout's and
exits 1 if one does.  It prints both sides' versions and warns when they
differ: the stdout of the commands that use numpy follows the bits of
numpy's ``log1p``, so such a difference need not come from the code::

    PYTHONPATH=other/src python scripts/cli_corpus.py --save other.json
    PYTHONPATH=src python scripts/cli_corpus.py --compare other.json

It takes about 20 s and 90 MB, much of it the 10^7-point jamming oracles.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import sys
import tempfile
from unittest import mock

from gmacwt import cli

SEED = 18
RANDOM_DOCS = 48

#: Two-user channels by jamming case, as (gains, caps): the paper's cases
#: A (h1 < 1 <= h2) and B (1 <= h1 < h2) and the degenerate case, at
#: jammer caps from below the default oracle spacing of 1e-3 to 1e300.
JAM_CHANNELS = [
    ((0.4, 1.4), (10, 10)), ((0.4, 1.4), (10, 0.2005)), ((0.4, 1.4), (10, 5e-4)),
    ((0.4, 1.4), (10, 0.0)), ((0.4, 1.4), (10, 3.0)), ((0.4, 1.4), (10, 9999.998)),
    ((0.4, 1.4), (10, 1.2e4)), ((0.4, 1.4), (10, 1e300)), ((0.5, 2.0), (2, 2e4)),
    ((1.5, 2.5), (4, 6)), ((1.539, 2.366), (5.26, 11.04)), ((1.5, 2.5), (4, 2e6)),
    ((1.5, 2.5), (4, 1e300)), ((0.5, 0.7), (2, 2e4)), ((0.2, 0.1), (10, 5)),
    ((1.2, 1.2), (3, 4)), ((0.5, 0.7), (2, 1e300)),
]


def _standard(h, p_max, unit=None):
    doc = {"standard": True, "users": [{"h": g, "power_max": p} for g, p in zip(h, p_max)]}
    if unit:
        doc["rate_unit"] = unit
    return doc


def _raw(gen, k, unit):
    doc = {"users": [{"gain_receiver": gen.uniform(0.05, 3.0),
                      "gain_eavesdropper": gen.uniform(0.05, 3.0),
                      "power_max": gen.choice([0.0, gen.uniform(0.0, 20.0)])}
                     for _ in range(k)],
           "noise_var_receiver": gen.uniform(0.1, 4.0),
           "noise_var_eavesdropper": gen.uniform(0.1, 4.0)}
    if unit:
        doc["rate_unit"] = unit
    return doc


def documents():
    """The channel files of the corpus, as ``(name, text)``: random K = 1-4
    raw and standard channels, the two-user channels of every jamming case
    in both user orders, K = 8, 9 and 16, and documents to be refused."""
    gen = random.Random(SEED)
    docs = []
    for i in range(RANDOM_DOCS):
        k, unit = gen.randint(1, 4), gen.choice([None, "bits", "nats"])
        if i % 2:
            doc = _raw(gen, k, unit)
        else:
            doc = _standard([gen.choice([gen.uniform(0.0, 1.0), gen.uniform(1.0, 3.0)])
                             for _ in range(k)], [gen.uniform(0.0, 20.0) for _ in range(k)], unit)
        docs.append((f"random{i}", json.dumps(doc)))
    for i, (h, p_max) in enumerate(JAM_CHANNELS):
        unit = ("bits", "nats")[i % 2]
        docs.append((f"jam{i}", json.dumps(_standard(h, p_max, unit))))
        docs.append((f"jam{i}swapped", json.dumps(_standard(h[::-1], p_max[::-1], unit))))
    for k in (8, 9, 16):
        docs.append((f"k{k}", json.dumps(_standard([0.3 + 0.1 * j for j in range(k)],
                                                    [1.0 + j for j in range(k)]))))
    bad = {
        "not_json": "{", "not_object": "[1, 2]", "no_users": "{}", "users_not_list":
        '{"users": "ab"}', "too_deep": "[" * 5000, "zero_users": '{"users": []}',
        "negative_gain": json.dumps(_standard([-0.5, 1.0], [1, 1])),
        "nan_cap": '{"standard": true, "users": [{"h": 0.5, "power_max": NaN}]}',
        "string_gain": json.dumps(_standard(["0.5"], [1])),
        "bool_cap": json.dumps(_standard([0.5], [True])),
        "bad_unit": json.dumps(_standard([0.5], [1], "furlongs")),
        "too_many_users": json.dumps(_standard([0.5] * 17, [1] * 17)),
        "overflow_totals": json.dumps(_standard([2.0, 3.0], [1e308, 1e308])),
        "zero_noise": json.dumps({**_raw(gen, 2, None), "noise_var_receiver": 0.0}),
        "missing_field": json.dumps({"standard": True, "users": [{"h": 0.5}]}),
    }
    return docs + [(f"bad_{name}", text) for name, text in bad.items()]


def _commands_for(name, k):
    """The commands run on the document ``name`` of ``k`` users."""
    doc = f"docs/{name}.json"
    cmds = [["standardize", doc], ["standardize", doc, "--unit", "nats"],
            ["feasible", doc, "--power", ",".join(["0"] * k)],
            ["feasible", doc, "--power", ",".join(["1"] * k)],
            ["region", doc], ["region", doc, "--power", ",".join(["0.5"] * k)],
            ["region", doc, "--format", "csv"],
            ["maxsum", doc], ["maxsum", doc, "--verify"]]
    if k <= 4:
        cmds += [["maxsum", doc, "--verify", "--grid-steps", "3"],
                 ["maxsum", doc, "--verify", "--grid-steps", "5", "--unit", "bits"]]
    if k == 2:
        cmds += [["jam", doc], ["jam", doc, "--verify"],
                 ["jam", doc, "--verify", "--p2-step", "0.5"],
                 ["jam", doc, "--verify", "--p2-step", "0.37"],
                 ["jam", doc, "--verify", "--p2-step", "1e-3"],
                 ["jam", doc, "--verify", "--unit", "nats"],
                 ["sweep", doc, "--kind", "region", "--grid-steps", "5"]]
    return cmds


def _refusals(jam, region):
    """Commands refused before or after the document is read: usage errors,
    bad flag values, grids past their caps, and an unwritable ``--out``."""
    return [
        [], ["frobnicate", jam], ["jam"], ["jam", jam, "--bogus"],
        ["jam", jam, "--unit", "furlongs"],
        ["jam", "docs/missing.json"], ["jam", "docs"], ["feasible", jam],
        ["feasible", jam, "--power", "1"], ["feasible", jam, "--power", "-1,0"],
        ["feasible", jam, "--power", "nan,0"], ["feasible", jam, "--power", "x,0"],
        ["feasible", jam, "--power", ""], ["region", jam, "--power", "1e400,0"],
        ["region", jam, "--power", "11,0"], ["region", jam, "--format", "xml"],
        ["maxsum", jam, "--verify", "--grid-steps", "1"],
        ["maxsum", jam, "--verify", "--grid-steps", "0"],
        ["maxsum", jam, "--verify", "--grid-steps", "99999"],
        ["maxsum", jam, "--verify", "--grid-steps", "x"],
        ["maxsum", region, "--verify", "--grid-steps", "216"],
        ["jam", region], ["jam", region, "--verify"],
        ["sweep", jam], ["sweep", jam, "--kind", "both"],
        ["sweep", region, "--kind", "region"],
        ["sweep", jam, "--kind", "region", "--grid-steps", "1"],
        ["sweep", jam, "--kind", "region", "--grid-steps", "1001"],
        ["sweep", jam, "--kind", "jam", "--p1", "-1"],
        ["sweep", jam, "--kind", "jam", "--p1", "nan"],
        ["sweep", jam, "--kind", "jam", "--p1", "y"],
        ["sweep", jam, "--kind", "jam", "--p1", "1e308"],
        ["sweep", jam, "--kind", "jam", "--p2-step", "1e-9"],
        ["sweep", jam, "--kind", "jam", "--p2-step", "z"],
        ["standardize", jam, "--out", "missing/dir/out.json"],
        ["standardize", jam, "--out", "out.json"],
        ["region", region, "--out", "region.json"],
    ]


#: The help screens: ``gmacwt`` and each command's.
HELP = [["--help"], ["-h"]] + [[cmd, "--help"] for cmd in (
    "standardize", "feasible", "region", "maxsum", "jam", "sweep")]


def corpus():
    """``(documents, commands)``, every command an argv list."""
    docs = documents()
    commands = []
    for name, text in docs:
        if name.startswith("bad_"):
            commands += [["standardize", f"docs/{name}.json"], ["jam", f"docs/{name}.json"]]
            continue
        k = len(json.loads(text)["users"])
        commands += _commands_for(name, k)
        if k == 2 and name.startswith("random"):
            commands.append(["sweep", f"docs/{name}.json", "--kind", "jam", "--p2-step", "0.5"])
    for i, (_, p_max) in enumerate(JAM_CHANNELS):
        step = repr(max(p_max[1], 1.0) / 40)  # at most 41 rows, however large the cap
        for swapped in ("", "swapped"):
            doc = f"docs/jam{i}{swapped}.json"
            commands += [["jam", doc, "--verify", "--p2-step", step]
                         for step in ("0", "-1", "nan", "inf", "z", "5e-324", "2.0", "0.03")]
            commands += [["sweep", doc, "--kind", "jam"],
                         ["sweep", doc, "--kind", "jam", "--p1", "2", "--p2-step", step]]
            commands.append(["jam", doc, "--p2-step", "0"])
    commands += _refusals("docs/jam0.json", "docs/k9.json") + HELP
    return docs, commands


def run(argv):
    """Run one command; its exit code, stdout digest and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a checkout whose main() exits after --help
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode())
    if "--out" in argv and code == 0:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            digest.update(fh.read())
    return {"code": code, "stdout_sha256": digest.hexdigest(), "stderr": err.getvalue()}


def records():
    """``{command: record}`` over the corpus, run in a scratch directory with
    ``COLUMNS=80``: argparse wraps its help text to the terminal's width."""
    docs, commands = corpus()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(scratch)
        try:
            os.mkdir("docs")
            for name, text in docs:
                with open(f"docs/{name}.json", "w", encoding="utf-8") as fh:
                    fh.write(text)
            return {" ".join(argv): run(argv) for argv in commands}
        finally:
            os.chdir(here)


def environment():
    """The Python and numpy versions this process runs the corpus with
    (numpy None where it is not installed)."""
    try:
        import numpy
    except ImportError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy and numpy.__version__}


def _versions(env):
    return "not recorded" if env is None else f"Python {env['python']}, numpy {env['numpy']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", help="write the records to this JSON file")
    parser.add_argument("--compare", help="another checkout's records, from --save")
    args = parser.parse_args(argv)
    mine = records()
    print(f"{len(mine)} commands, exit codes "
          + ", ".join(f"{c}: {sum(r['code'] == c for r in mine.values())}" for c in (0, 1, 2)))
    env = environment()
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "records": mine}, fh, indent=1)
    if not args.compare:
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        saved = json.load(fh)
    # a file saved before the versions were recorded holds the records alone
    other, other_env = saved.get("records", saved), saved.get("environment")
    print(f"this:  {_versions(env)}\nother: {_versions(other_env)}")
    if other_env != env:
        print("warning: the environments differ; the stdout of commands that use numpy "
              "follows numpy's log1p bits, so it may differ without a change to gmacwt")
    differ = [cmd for cmd in {**other, **mine} if mine.get(cmd) != other.get(cmd)]
    for cmd in differ:
        print(f"differs: gmacwt {cmd}\n  other: {other.get(cmd)}\n  this:  {mine.get(cmd)}")
    print(f"{len(differ)} of {len(mine)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
