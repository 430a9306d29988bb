"""Independent references and the output checker.

Nothing here imports gmacwt.  Every expected value is recomputed from the
generated channel documents by this module's own code:

* the sum-rate optimum by a prefix scan over gain-sorted users (the best
  full-power prefix);
* feasibility and region bounds by a numpy enumeration of all 2^K - 1
  subsets;
* the jamming optimum by a dense grid over the jamming power, refined
  around its best point.

Tolerances follow the program's own: 1e-9 for sum rates, bounds and
oracle values, 1e-5 for the jamming optimum.
"""

from __future__ import annotations

import json
import math

import numpy as np

SUM_TOL = 1e-9
JAM_TOL = 1e-5
FEAS_TOL = 1e-12


class CheckFailure(Exception):
    """An output disagrees with its reference; the message says how."""


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _close(value, ref, tol, what):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what}: not a number ({value!r})")
    _require(math.isfinite(value), f"{what}: not finite ({value!r})")
    _require(abs(value - ref) <= tol, f"{what}: {value!r} is off the reference {ref!r}")


def strict_json(text):
    """Parse JSON, rejecting NaN and Infinity."""
    def reject(name):
        raise CheckFailure(f"non-strict JSON constant {name}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


# -- rate arithmetic ------------------------------------------------------------

def capacity(snr, unit):
    nats = 0.5 * np.log1p(snr)
    return nats / math.log(2) if unit == "bits" else nats


def standard_form(doc):
    """(h, p_max, rate_unit) of a channel document."""
    users = doc["users"]
    unit = doc.get("rate_unit", "bits")
    if doc.get("standard", False):
        return (np.array([u["h"] for u in users], float),
                np.array([u["power_max"] for u in users], float), unit)
    nv_m, nv_w = doc["noise_var_receiver"], doc["noise_var_eavesdropper"]
    g_m = np.array([u["gain_receiver"] for u in users], float)
    g_w = np.array([u["gain_eavesdropper"] for u in users], float)
    p = np.array([u["power_max"] for u in users], float)
    return g_w * nv_m / (g_m * nv_w), g_m * p / nv_m, unit


_BITS = {}


def subset_bits(k):
    """0/1 matrix with one row per nonempty subset, in ascending mask order."""
    if k not in _BITS:
        masks = np.arange(1, 1 << k)
        _BITS[k] = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
    return _BITS[k]


def _subset_terms(h, powers):
    bits = subset_bits(len(h))
    powers = np.asarray(powers, float)
    s_p = bits @ powers
    s_hp = bits @ (h * powers)
    return s_p, s_hp, float(np.dot(h, powers))


def slacks(h, powers):
    s_p, s_hp, total = _subset_terms(h, powers)
    return s_p - s_hp / (1.0 + total - s_hp)


def feasible(h, p_max, powers):
    # Two correct standardizations of a raw document can differ in the
    # last bit of p_max, so the box gets a relative slack of 1e-12.
    powers = np.asarray(powers, float)
    if np.any(powers < 0) or np.any(powers > p_max * (1 + FEAS_TOL)):
        return False
    return bool(np.min(slacks(h, powers)) >= -FEAS_TOL)


def bounds(h, powers, unit):
    s_p, s_hp, total = _subset_terms(h, powers)
    return capacity(s_p, unit) - capacity(s_hp / (1.0 + total - s_hp), unit)


def sum_rate(h, powers, unit):
    powers = np.asarray(powers, float)
    return float(capacity(powers.sum(), unit) - capacity(np.dot(h, powers), unit))


def optimum_sum_rate(h, p_max, unit):
    """Best sum rate over full-power prefixes of the gain-sorted users."""
    order = np.argsort(h, kind="stable")
    p_cum = np.concatenate([[0.0], np.cumsum(p_max[order])])
    hp_cum = np.concatenate([[0.0], np.cumsum((h * p_max)[order])])
    return float(np.max(capacity(p_cum, unit) - capacity(hp_cum, unit)))


def two_user(h, p_max):
    """(h1, h2, p1_max, p2_max) relabeled so h1 <= h2, and the permutation."""
    perm = (0, 1) if h[0] <= h[1] else (1, 0)
    return (float(h[perm[0]]), float(h[perm[1]]),
            float(p_max[perm[0]]), float(p_max[perm[1]])), perm


def jam_objective(h1, h2, p1, p2, unit):
    return capacity(p1 / (1.0 + p2), unit) - capacity(h1 * p1 / (1.0 + h2 * p2), unit)


def jam_optimum(h1, h2, p1_max, p2_max, unit):
    """Dense-grid maximum of the jamming objective over the box (>= 0)."""
    lo, hi = 0.0, p2_max
    best = 0.0
    for _ in range(4):
        grid = np.linspace(lo, hi, 20_001)
        values = jam_objective(h1, h2, p1_max, grid, unit)
        i = int(np.argmax(values))
        best = max(best, float(values[i]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    return best


def jam_case(h1, h2):
    if h2 < 1.0 or (h1 >= 1.0 and h2 - h1 <= 1e-12):
        return "Degenerate"
    return "A" if h1 < 1.0 else "B"


def grid_axis(p_max, steps):
    return np.unique(np.concatenate([np.linspace(0.0, p_max, steps), [0.0, p_max]]))


def grid_sum_rate_max(h, p_max, unit, steps):
    axes = [grid_axis(p, steps) for p in p_max]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    bits = subset_bits(len(h))
    s_p = points @ bits.T
    s_hp = (points * h) @ bits.T
    total = (points * h).sum(axis=1)[:, None]
    ok = np.all(s_p - s_hp / (1.0 + total - s_hp) >= -FEAS_TOL, axis=1)
    rates = capacity(points.sum(axis=1), unit) - capacity((points * h).sum(axis=1), unit)
    return float(np.max(rates[ok]))


def grid_jam_max(h1, h2, p1_max, p2_max, unit, steps):
    values = jam_objective(h1, h2, p1_max, grid_axis(p2_max, steps), unit)
    return max(0.0, float(np.max(values)))


def polygon(b1, b2, b12):
    """Vertices of {R >= 0, R1 <= b1, R2 <= b2, R1 + R2 <= b12}; bounds
    within FEAS_TOL below zero count as zero."""
    if min(b1, b2, b12) < -FEAS_TOL:
        return []
    b1, b2, b12 = max(b1, 0.0), max(b2, 0.0), max(b12, 0.0)
    x, y = min(b1, b12), min(b2, b12)
    return [(0.0, 0.0), (x, 0.0), (x, min(y, b12 - x)), (min(x, b12 - y), y), (0.0, y)]


def sweep_rows(h, p_max, unit, steps):
    """(P1, P2, b1, b2, b12) at every feasible point of the documented
    two-user grid {0, step, ..., p_max} with step = p_max / (steps - 1)."""
    axes = [np.array(sorted({p * i / (steps - 1) for i in range(steps - 1)} | {p}))
            for p in p_max]
    p1, p2 = (m.ravel() for m in np.meshgrid(*axes, indexing="ij"))
    hp1, hp2 = h[0] * p1, h[1] * p2
    total = hp1 + hp2
    slack = np.stack([p1 - hp1 / (1 + total - hp1), p2 - hp2 / (1 + total - hp2),
                      p1 + p2 - total])
    ok = np.all(slack >= -FEAS_TOL, axis=0)
    b1 = capacity(p1, unit) - capacity(hp1 / (1 + hp2), unit)
    b2 = capacity(p2, unit) - capacity(hp2 / (1 + hp1), unit)
    b12 = capacity(p1 + p2, unit) - capacity(total, unit)
    return np.stack([p1, p2, b1, b2, b12], axis=1)[ok]


# -- the checker ----------------------------------------------------------------

def _same_points(got, ref, tol, what):
    for a in got:
        _require(any(max(abs(u - v) for u, v in zip(a, b)) <= tol for b in ref),
                 f"{what}: {list(a)} is not a reference point")
    for b in ref:
        _require(any(max(abs(u - v) for u, v in zip(a, b)) <= tol for a in got),
                 f"{what}: reference point {list(b)} is missing")


def parse_csv(text, header):
    lines = text.splitlines()
    _require(lines and lines[0] == header, f"CSV header is not {header!r}")
    rows = []
    for line in lines[1:]:
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            raise CheckFailure(f"CSV row {line!r} is not numeric") from None
        _require(all(math.isfinite(x) for x in row), f"CSV row {line!r} is not finite")
        rows.append(row)
    return rows


class Checker:
    """Checks program outputs for the tasks of one plan.

    References depend only on the task, so each is computed once and
    cached by task id.
    """

    def __init__(self, plan):
        self.docs = plan["docs"]
        self._std = {}
        self._cache = {}

    def std(self, doc_id):
        if doc_id not in self._std:
            self._std[doc_id] = standard_form(json.loads(self.docs[doc_id]))
        return self._std[doc_id]

    def _ref(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- shared checks --

    def sum_rate_solution(self, doc, powers, rate, unit_out=None):
        h, p, unit = self.std(doc)
        _require(len(powers) == len(h), "p_star has the wrong length")
        ref = self._ref(("opt", doc), lambda: optimum_sum_rate(h, p, unit))
        _close(rate, ref, SUM_TOL, "sum_rate")
        _close(sum_rate(h, powers, unit), rate, SUM_TOL, "sum rate at p_star")
        _require(feasible(h, p, powers), "p_star is not in the allowable power set")
        _require(unit_out in (None, unit), f"rate_unit {unit_out!r} is not {unit!r}")

    def feasibility(self, doc, powers, ok, witness):
        h, p, _ = self.std(doc)
        ref = self._ref(("feas", doc, tuple(powers)), lambda: feasible(h, p, powers))
        _require(ok is ref, f"feasible is {ok!r}, reference says {ref!r}")
        if ok:
            _require(witness is None, "feasible point carries a witness")
            return
        _require(isinstance(witness, dict), "infeasible point has no witness")
        users = [u - 1 for u in witness["users"]]
        if witness["kind"] == "bound":
            (u,) = users
            _require(powers[u] < 0 or powers[u] > p[u], f"bound witness {users} holds")
        else:
            _require(witness["kind"] == "subset", f"unknown witness kind {witness['kind']!r}")
            s = np.zeros(len(h))
            s[users] = 1.0
            hp = h * np.asarray(powers, float)
            slack = np.dot(s, powers) - np.dot(s, hp) / (1.0 + hp.sum() - np.dot(s, hp))
            _require(slack < 0, f"subset witness {witness['users']} is not violated")

    def region(self, doc, powers, obj):
        h, p, unit = self.std(doc)
        k = len(h)
        ref = self._ref(("bounds", doc, tuple(powers)), lambda: bounds(h, powers, unit))
        spaces = obj["halfspaces"]
        _require(len(spaces) == (1 << k) - 1, "wrong number of halfspaces")
        got = np.array([s["bound"] for s in spaces], float)
        _require(np.all(np.isfinite(got)), "a bound is not finite")
        worst = int(np.argmax(np.abs(got - ref)))
        _close(float(got[worst]), float(ref[worst]), SUM_TOL, f"bound of subset {worst + 1}")
        for mask, s in zip(range(1, 1 << k), spaces):
            if s["subset"] != [i + 1 for i in range(k) if mask >> i & 1]:
                raise CheckFailure(f"halfspace {mask} names subset {s['subset']}")
        ok = self._ref(("feas", doc, tuple(powers)), lambda: feasible(h, p, powers))
        _require(obj["feasible"] is ok, f"feasible is {obj['feasible']!r}, reference {ok!r}")
        _require(obj["rate_unit"] == unit, "wrong rate_unit")
        if k == 2:
            self.vertices(obj["vertices"], ref)
        elif k > 2:
            _require(obj["vertices"] is None, "vertices given for K > 2")

    def vertices(self, got, ref_bounds):
        ref = polygon(*(float(b) for b in ref_bounds))
        _same_points([tuple(v) for v in got], ref, SUM_TOL, "vertex")

    def jamming(self, doc, obj):
        h, p, unit = self.std(doc)
        (h1, h2, p1m, p2m), perm = two_user(h, p)
        q1, q2 = obj["powers"]
        rate = obj["secrecy_rate"]
        _require(0 <= q1 <= p1m * (1 + 1e-12) and 0 <= q2 <= p2m * (1 + 1e-12),
                 "powers outside the box")
        if h2 < 1.0:
            ref = self._ref(("opt", doc), lambda: optimum_sum_rate(h, p, unit))
            at = sum_rate(np.array([h1, h2]), [q1, q2], unit)
        else:
            ref = self._ref(("jam", doc), lambda: jam_optimum(h1, h2, p1m, p2m, unit))
            at = max(0.0, float(jam_objective(h1, h2, q1, q2, unit)))
        _close(rate, ref, JAM_TOL, "secrecy_rate")
        _close(at, rate, SUM_TOL, "secrecy rate at the returned powers")
        _require(obj["case_tag"] == jam_case(h1, h2),
                 f"case_tag {obj['case_tag']!r}, expected {jam_case(h1, h2)!r}")
        if "permutation" in obj:
            _require(obj["permutation"] == [perm[0] + 1, perm[1] + 1], "wrong permutation")

    def grid_sum_rate(self, doc, steps, powers, rate):
        h, p, unit = self.std(doc)
        ref = self._ref(("gmsr", doc, steps), lambda: grid_sum_rate_max(h, p, unit, steps))
        _close(rate, ref, SUM_TOL, "oracle sum rate")
        _close(sum_rate(h, powers, unit), rate, SUM_TOL, "oracle rate at its point")
        _require(feasible(h, p, powers), "oracle point is not feasible")

    def grid_jamming(self, doc, steps, p1, p2, rate):
        h, p, unit = self.std(doc)
        (h1, h2, p1m, p2m), _ = two_user(h, p)
        ref = self._ref(("gmj", doc, steps),
                        lambda: grid_jam_max(h1, h2, p1m, p2m, unit, steps))
        _close(rate, ref, SUM_TOL, "jamming oracle rate")
        _close(max(0.0, float(jam_objective(h1, h2, p1, p2, unit))), rate, SUM_TOL,
               "jamming oracle rate at its point")

    def sweep(self, doc, steps, rows):
        h, p, unit = self.std(doc)
        ref = self._ref(("sweep", doc, steps), lambda: sweep_rows(h, p, unit, steps))
        _require(len(rows) == len(ref), f"{len(rows)} sweep rows, reference has {len(ref)}")
        if rows:
            diff = np.abs(np.asarray(rows, float) - ref)
            _require(float(diff.max()) <= SUM_TOL, f"sweep rows off by {float(diff.max())}")

    def standard(self, doc, obj):
        h, p, unit = self.std(doc)
        _require(obj.get("standard") is True and obj.get("rate_unit") == unit,
                 "not a standard-form document in the right unit")
        got_h = np.array([u["h"] for u in obj["users"]], float)
        got_p = np.array([u["power_max"] for u in obj["users"]], float)
        _require(got_h.shape == h.shape, "wrong number of users")
        _require(np.allclose(got_h, h, rtol=1e-12, atol=0)
                 and np.allclose(got_p, p, rtol=1e-12, atol=0), "standard form is off")

    # -- in-process tasks --

    def inproc(self, task, text):
        """None if ``text`` (the worker's JSON rendering of the call's
        result) is right for ``task``, else the reason it is not."""
        try:
            self._inproc(task, strict_json(text))
        except CheckFailure as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    def _inproc(self, task, out):
        kind, doc = task["kind"], task["doc"]
        if kind == "max_sum_rate":
            self.sum_rate_solution(doc, out["p_star"], out["sum_rate"], out["rate_unit"])
        elif kind == "is_feasible":
            self.feasibility(doc, task["powers"], out["feasible"], out["witness"])
        elif kind == "build_region":
            self.region(doc, task["powers"], out)
        elif kind == "solve_jamming":
            self.jamming(doc, out)
        elif kind == "union_sweep":
            self.sweep(doc, task["steps"], out)
        elif kind == "grid_max_sum_rate":
            self.grid_sum_rate(doc, task["steps"], out["powers"], out["rate"])
        elif kind == "grid_max_jamming":
            self.grid_jamming(doc, task["steps"], out["p1"], out["p2"], out["rate"])
        elif kind == "channel_from_json":
            self.standard(doc, out)
        else:
            raise CheckFailure(f"unknown task kind {kind!r}")

    # -- CLI tasks --

    def cli(self, task, returncode, stdout, stderr):
        """None if the CLI process behaved right for ``task``, else why not."""
        if task["expect"] == "error":
            lines = stderr.splitlines()
            if returncode != 1:
                return f"exit {returncode}, expected 1"
            if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                return "expected nothing on stdout and one 'error:' line on stderr"
            return None
        if returncode != 0:
            return f"exit {returncode}: {stderr.strip().splitlines()[-1:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        try:
            self._cli(task, stdout)
        except CheckFailure as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    def _cli(self, task, stdout):
        argv, doc = task["argv"], task["doc"]
        cmd = argv[0]

        def opt(name, default=None):
            return argv[argv.index(name) + 1] if name in argv else default

        def powers():
            return [float(x) for x in opt("--power").split(",")]

        if cmd == "sweep":
            h, p, unit = self.std(doc)
            if opt("--kind") == "region":
                rows = parse_csv(stdout, "P1,P2,b1,b2,b12")
                self.sweep(doc, int(opt("--grid-steps", 11)), rows)
                return
            (h1, h2, p1m, p2m), _ = two_user(h, p)
            step = float(opt("--p2-step", 0.1))
            rows = parse_csv(stdout, "p2,objective")
            _require(rows and rows[0][0] == 0.0, "jam sweep does not start at p2 = 0")
            for i, (p2, value) in enumerate(rows):
                _close(p2, i * step, 1e-9 * max(1.0, p2), f"p2 of row {i}")
                _close(value, float(jam_objective(h1, h2, p1m, p2, unit)), SUM_TOL,
                       f"objective at p2={p2}")
            last = rows[-1][0]
            _require(last <= p2m * (1 + 1e-9) < last + step, "jam sweep range is wrong")
            return
        if cmd == "region" and opt("--format") == "csv":
            h, p, unit = self.std(doc)
            ref = self._ref(("bounds", doc, tuple(powers())),
                            lambda: bounds(h, powers(), unit))
            self.vertices([tuple(r) for r in parse_csv(stdout, "R1,R2")], ref)
            return
        out = strict_json(stdout)
        if cmd == "standardize":
            self.standard(doc, out)
        elif cmd == "feasible":
            self.feasibility(doc, powers(), out["feasible"], out["witness"])
        elif cmd == "region":
            self.region(doc, powers(), out)
        elif cmd == "maxsum":
            self.sum_rate_solution(doc, out["p_star"], out["sum_rate"], out["rate_unit"])
            if "--verify" in argv:
                k = len(self.std(doc)[0])
                oracle = out["oracle"]
                steps = int(opt("--grid-steps", 11 if k <= 3 else 6))
                self.grid_sum_rate(doc, steps, oracle["p_star"], oracle["sum_rate"])
                _close(oracle["gap"], out["sum_rate"] - oracle["sum_rate"], 1e-12, "gap")
        elif cmd == "jam":
            self.jamming(doc, out)
            if "--verify" in argv:
                oracle = out["oracle"]
                rate = oracle["rate"]
                if oracle["kind"] == "sum_rate":
                    self.grid_sum_rate(doc, 11, oracle["p_star"], rate)
                else:
                    h, p, unit = self.std(doc)
                    (h1, h2, _, _), _ = two_user(h, p)
                    q1, q2 = oracle["powers"]
                    _close(max(0.0, float(jam_objective(h1, h2, q1, q2, unit))), rate,
                           SUM_TOL, "jamming oracle rate at its point")
                _close(rate, out["secrecy_rate"], JAM_TOL, "oracle rate")
                _close(oracle["gap"], out["secrecy_rate"] - rate, 1e-12, "gap")
        else:
            raise CheckFailure(f"unknown command {cmd!r}")
