"""Seeded input generation for the three benchmark workloads.

Everything here is pure Python driven by one ``random.Random`` per
(workload, seed), so the same seed gives byte-identical channel documents
and task lists on any machine.  The program under test never sees the
seed, only the generated documents and the task arguments.

A plan is a JSON-able dict::

    {"workload", "seed",
     "docs":       {doc_id: channel document text},
     "tasks":      one cycle of the workload's closed loop,
     "warmup":     tasks run once during set-up,
     "ladder":     in-process tasks of the traced K ladder,
     "cli_ladder": CLI tasks of the traced run, one per command label}

In-process tasks name a library call (``kind``) and its arguments; CLI
tasks carry an argv whose ``{doc}`` stands for the channel file.  Each task
has a ``cls`` naming its class for failure reports.  Invalid CLI inputs
that reproduce known defects carry ``known_defect`` with the defect.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli-oneshot", "feasibility-scan", "region-oracle")

#: Known defects the invalid-input share reproduces (ROADMAP open item 4).
DEFECT_NAN = "NaN in the channel JSON is accepted and printed as NaN"
DEFECT_INF = "Infinity in the channel JSON is accepted"
DEFECT_HUGE = "power_max 1e308 overflows into a ZeroDivisionError traceback"
DEFECT_STEP0 = "jam --verify --p2-step 0 fails with a ZeroDivisionError traceback"
DEFECT_SWEEP_EDGE = ("union_sweep drops the P = p_max grid edge when p_max*i/(steps-1) "
                     "rounds above p_max")


def _subset_sums(values):
    sums = [0.0] * (1 << len(values))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + values[low.bit_length() - 1]
    return sums


def critical_scale(h, u):
    """Smallest ``t`` with ``t*u`` in the allowable set (ignoring the box).

    Subset ``S`` needs ``u_S*(1 + t*hu_Sc) >= hu_S``, so the feasible
    scales of a direction are ``[t*, inf)``; ``inf`` when no scale works.
    """
    su = _subset_sums(list(u))
    shu = _subset_sums([a * b for a, b in zip(h, u)])
    total = shu[-1]
    worst = 0.0
    for m in range(1, len(su)):
        excess = shu[m] - su[m]
        if excess > 0.0:
            rest = total - shu[m]
            if rest <= 0.0:
                return math.inf
            worst = max(worst, excess / (su[m] * rest))
    return worst


def p_hi(h1, h2, p1):
    """Positive stationary root of the jamming objective in ``p2``."""
    disc = h1 * h2 * ((h2 - 1.0) + (h2 - h1) * p1) * (h2 - 1.0)
    return (-h2 * (1.0 - h1) + math.sqrt(disc)) / (h2 * (h2 - h1))


class _Gen:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"gmacwt-perfbench/{workload}/{seed}")
        self.order_rng = random.Random(f"gmacwt-perfbench/{workload}/order")
        self.docs = {}
        self.count = 0

    # -- channel documents ---------------------------------------------------

    def _add(self, text):
        doc_id = f"d{len(self.docs):03d}"
        self.docs[doc_id] = text
        return doc_id

    def doc(self, h, p_max, raw=None, unit=None):
        """Channel document with standardized gains ``h`` and caps ``p_max``,
        written in raw form (a random equivalent channel) or standard form.
        Unless given, the form (3 in 10 raw) and the rate unit (1 in 5 in
        nats) go by the document's place in the plan, not by the seed, as
        both change a task's cost."""
        rng = self.rng
        n = len(self.docs)
        raw = n % 10 in (1, 4, 7) if raw is None else raw
        unit = ("nats" if n % 5 == 2 else "bits") if unit is None else unit
        if not raw:
            users = [{"h": a, "power_max": b} for a, b in zip(h, p_max)]
            return self._add(json.dumps(
                {"standard": True, "rate_unit": unit, "users": users}))
        nv_m = 10 ** rng.uniform(-0.3, 0.3)
        nv_w = 10 ** rng.uniform(-0.3, 0.3)
        users = []
        for a, b in zip(h, p_max):
            g_m = 10 ** rng.uniform(-1.0, 1.0)
            users.append({"gain_receiver": g_m,
                          "gain_eavesdropper": a * g_m * nv_w / nv_m,
                          "power_max": b * nv_m / g_m})
        return self._add(json.dumps(
            {"users": users, "noise_var_receiver": nv_m,
             "noise_var_eavesdropper": nv_w, "rate_unit": unit}))

    def gains(self, k):
        """Mixed gains: below 1, above 1, and within 1e-9 of 1."""
        rng = self.rng
        out = []
        for _ in range(k):
            r = rng.random()
            if r < 0.45:
                out.append(rng.uniform(0.05, 0.95))
            elif r < 0.85:
                out.append(rng.uniform(1.05, 4.0))
            else:
                out.append(1.0 + rng.uniform(-1e-9, 1e-9))
        return out

    def caps(self, k):
        return [self.rng.uniform(0.5, 20.0) for _ in range(k)]

    def probe(self, h, p_max, feasible):
        """Power vector strictly inside (or 5% outside) the allowable set."""
        rng = self.rng
        for _ in range(1000):
            u = [c * rng.uniform(0.3, 1.0) for c in p_max]
            t_star = critical_scale(h, u)
            if feasible and t_star * 1.05 < 1.0:
                t = rng.uniform(max(t_star * 1.05, 0.3), 1.0)
                return [t * x for x in u]
            if not feasible and 0.0 < t_star < math.inf:
                t = min(t_star, 1.0) * rng.uniform(0.3, 0.95)
                return [t * x for x in u]
        raise RuntimeError("no probe found; the gain mix cannot produce one")

    def lone_violation(self, k):
        """Channel and probe whose violated subsets all contain user k-2,
        which alone is the first of them in ascending mask order, so a
        first-violation scan always stops after a quarter of the masks."""
        rng = self.rng
        while True:
            h, p_max = self.gains(k - 1), self.caps(k - 1)
            h_lone, p_lone = rng.uniform(6.0, 10.0), rng.uniform(2.0, 20.0)
            u = [c * rng.uniform(0.3, 1.0) for c in p_max]
            scale = (h_lone - 1.0) * rng.uniform(0.3, 0.8) / sum(a * b for a, b in zip(h, u))
            if scale <= 1.0:
                powers = [scale * x for x in u]
                powers.insert(k - 2, p_lone * rng.uniform(0.5, 1.0))
                h.insert(k - 2, h_lone)
                p_max.insert(k - 2, p_lone)
                return h, p_max, powers

    def channel(self, k, need_both=True):
        """Gains and caps admitting both feasible and infeasible probes."""
        while True:
            h, p_max = self.gains(k), self.caps(k)
            if not need_both:
                return h, p_max
            t_star = critical_scale(h, [0.65 * c for c in p_max])
            if 0.0 < t_star < 0.5:
                return h, p_max

    def jam_channel(self, branch):
        """Two-user (h1 <= h2, p1_max, p2_max) landing on ``branch`` with a
        margin, for branches "A-NoJam", "A-InteriorRoot", "A-FullJam",
        "B-AllSilent", "B-InteriorRoot", "B-FullJam", "D-NoJam" (both
        gains below 1) and "D-AllSilent" (equal gains above 1)."""
        rng = self.rng
        while True:
            case, name = branch.split("-")
            p1 = rng.uniform(0.5, 20.0)
            if case == "D":
                if name == "NoJam":
                    h1, h2 = sorted((rng.uniform(0.1, 0.95), rng.uniform(0.1, 0.95)))
                    return h1, h2, p1, rng.uniform(0.5, 20.0)
                h = rng.uniform(1.1, 3.0)
                return h, h, p1, rng.uniform(0.5, 20.0)
            if case == "A":
                h1, h2 = rng.uniform(0.1, 0.9), rng.uniform(1.1, 5.0)
                if name == "NoJam":
                    if h1 * h2 >= 0.9:
                        continue
                    limit = (1.0 - h1 * h2) / (h1 * (h2 - 1.0))
                    return h1, h2, limit * rng.uniform(0.1, 0.8), rng.uniform(0.5, 20.0)
                root = p_hi(h1, h2, p1)
                if root < 0.05:
                    continue
            else:
                h1 = rng.uniform(1.1, 3.0)
                h2 = h1 + rng.uniform(0.5, 4.0)
                silence = (h1 - 1.0) / (h2 - h1)
                if name == "AllSilent":
                    return h1, h2, p1, silence * rng.uniform(0.1, 0.9)
                root = p_hi(h1, h2, p1)
                if name == "FullJam" and root < silence * 1.5:
                    continue
                if name == "FullJam":
                    return h1, h2, p1, rng.uniform(silence * 1.2, root * 0.9)
                return h1, h2, p1, max(root, silence) * rng.uniform(1.2, 3.0)
            if name == "InteriorRoot":
                return h1, h2, p1, root * rng.uniform(1.2, 3.0)
            return h1, h2, p1, root * rng.uniform(0.2, 0.8)

    def jam_doc(self, branch, raw=None):
        h1, h2, p1, p2 = self.jam_channel(branch)
        if self.rng.random() < 0.5:  # either user order on input
            return self.doc([h2, h1], [p2, p1], raw=raw)
        return self.doc([h1, h2], [p1, p2], raw=raw)

    # -- tasks ---------------------------------------------------------------

    def shuffle(self, tasks):
        """Shuffle a cycle into the same order of task classes for every
        seed: what runs before a task (warm or cold caches, heap layout)
        then does not change with the seed, only the task's data does."""
        self.order_rng.shuffle(tasks)

    def task(self, cls, **fields):
        self.count += 1
        return {"id": f"t{self.count:04d}", "cls": cls, **fields}


JAM_BRANCHES = ("A-NoJam", "A-InteriorRoot", "A-FullJam", "B-AllSilent",
                "B-InteriorRoot", "B-FullJam", "D-NoJam", "D-AllSilent")


def _max_sum_rate_tasks(g, k, count):
    out = []
    for _ in range(count):
        h, p = g.channel(k, need_both=False)
        out.append(g.task(f"max_sum_rate.k{k}", kind="max_sum_rate", doc=g.doc(h, p)))
    return out


def _feasible_tasks(g, k, count, feasible):
    """``is_feasible`` probes; infeasible ones are random at K < 16 and of
    the lone-violation kind at K = 16 (fixed cost, see ``lone_violation``)."""
    out = []
    for _ in range(count):
        if feasible or k < 16:
            h, p = g.channel(k)
            powers = g.probe(h, p, feasible)
        else:
            h, p, powers = g.lone_violation(k)
        out.append(g.task(f"is_feasible.k{k}", kind="is_feasible", doc=g.doc(h, p),
                          powers=powers))
    return out


def _point_feasible(h, p1, p2, margin=0.0):
    """Two-user feasibility of powers (p1, p2), each slack at least ``margin``."""
    hp1, hp2 = h[0] * p1, h[1] * p2
    return (p1 - hp1 / (1 + hp2) >= margin and p2 - hp2 / (1 + hp1) >= margin
            and p1 + p2 - hp1 - hp2 >= margin)


def _edges_rounded_up(p_max, steps):
    """Axes whose documented top grid point ``p_max`` is computed as a value
    above ``p_max`` by ``p_max*(steps-1)/(steps-1)``."""
    return [k for k, p in enumerate(p_max) if p * (steps - 1) / (steps - 1) > p]


def sweep_edge_dropped(h, p_max, steps):
    """True when a sweep at ``steps`` shows the grid-edge defect: an axis's
    top point rounds above ``p_max``, so the program drops that edge, and a
    point on the edge is clearly feasible, so the reference has a row there."""
    axes = [[p * i / (steps - 1) for i in range(steps - 1)] + [p] for p in p_max]
    for k in _edges_rounded_up(p_max, steps):
        for q in axes[1 - k]:
            p1, p2 = (p_max[0], q) if k == 0 else (q, p_max[1])
            if _point_feasible(h, p1, p2, margin=1e-9):
                return True
    return False


def _sweep_feasible_ratio(h, p_max, steps):
    axes = [[p * i / (steps - 1) for i in range(steps)] for p in p_max]
    return sum(_point_feasible(h, p1, p2) for p1 in axes[0] for p2 in axes[1]) / steps ** 2


def _sweep_channel(g, steps, edge_defect):
    """Two users whose sweep grid is 40-60% feasible, so that a sweep's cost
    (one feasibility test per point, one region per feasible point) does
    not depend on the seed, and whose sweep at ``steps`` shows the
    grid-edge defect exactly when ``edge_defect`` is true (when false, no
    edge rounds up at all).  Fixing which sweeps show the defect keeps the
    failing share of a cycle the same for every seed."""
    while True:
        h, p = [g.rng.uniform(0.1, 0.9), g.rng.uniform(1.05, 3.0)], g.caps(2)
        shows = (sweep_edge_dropped(h, p, steps) if edge_defect
                 else not _edges_rounded_up(p, steps))
        if shows and 0.4 <= _sweep_feasible_ratio(h, p, 21) <= 0.6:
            return h, p


def _sweep_task(g, steps, edge_defect=False):
    # Standard form keeps p_max exact, so the grid-edge defect occurs
    # exactly where it is tagged.
    h, p = _sweep_channel(g, steps, edge_defect)
    fields = {"kind": "union_sweep", "doc": g.doc(h, p, raw=False), "steps": steps}
    if edge_defect:
        fields["known_defect"] = DEFECT_SWEEP_EDGE
    return g.task(f"union_sweep.s{steps}", **fields)


def _jam_tasks(g, per_branch):
    return [g.task(f"solve_jamming.{b}", kind="solve_jamming", doc=g.jam_doc(b))
            for b in JAM_BRANCHES for _ in range(per_branch)]


def _region_task(g, k, feasible):
    h, p = g.channel(k)
    return g.task(f"build_region.k{k}", kind="build_region", doc=g.doc(h, p),
                  powers=g.probe(h, p, feasible=feasible))


def _gmsr_task(g, k, steps):
    h, p = g.channel(k, need_both=False)
    return g.task(f"grid_max_sum_rate.k{k}", kind="grid_max_sum_rate",
                  doc=g.doc(h, p), steps=steps)


def _gmj_task(g, steps):
    branch = g.rng.choice(("A-InteriorRoot", "A-FullJam", "B-InteriorRoot", "B-FullJam"))
    label = f"n1e{round(math.log10(steps))}"
    return g.task(f"grid_max_jamming.{label}", kind="grid_max_jamming",
                  doc=g.jam_doc(branch), steps=steps)


# The closed loops below are built in blocks of like-cost tasks so that the
# task-time median and 90th percentile fall inside one block each, whatever
# the seed: a quantile taken at a block boundary would jump between runs.


def _feasibility_scan(g):
    """80 tasks per cycle.  By cost, cheapest first: 16 ``solve_jamming`` (2 per
    branch), 8 at K = 8 and 4 infeasible probes at K = 12; the median block
    is 34 full 2^12 scans (17 ``max_sum_rate``, 17 feasible probes); then 2
    sweeps at 21 steps and 4 lone-violation probes at K = 16 (a quarter
    scan); the p90 block is 8 full 2^16 scans; slowest, 4 sweeps at 51
    steps, one of them on caps that hit the grid-edge defect.  Sweeps and
    2^16 scans take about equal shares of the time."""
    tasks = _jam_tasks(g, 2)
    tasks += _max_sum_rate_tasks(g, 8, 4) + _feasible_tasks(g, 8, 2, True)
    tasks += _feasible_tasks(g, 8, 2, False) + _feasible_tasks(g, 12, 4, False)
    tasks += _max_sum_rate_tasks(g, 12, 17) + _feasible_tasks(g, 12, 17, True)
    tasks += [_sweep_task(g, 21) for _ in range(2)] + _feasible_tasks(g, 16, 4, False)
    tasks += _max_sum_rate_tasks(g, 16, 4) + _feasible_tasks(g, 16, 4, True)
    tasks += [_sweep_task(g, 51, edge_defect=i == 0) for i in range(4)]
    warmup = (_jam_tasks(g, 1)[:4] + _max_sum_rate_tasks(g, 8, 1)
              + _feasible_tasks(g, 8, 1, True) + _feasible_tasks(g, 8, 1, False)
              + [_sweep_task(g, 5)])
    g.shuffle(tasks)
    return tasks, warmup


def _region_oracle(g):
    """40 tasks per cycle.  By cost, cheapest first: 3 ``grid_max_jamming``
    at 10^4 steps, 3 ``build_region`` at K = 8, 2 ``grid_max_sum_rate`` at
    K = 3 and 2 at K = 5 (5 steps); the median block is 21
    ``grid_max_sum_rate`` at K = 4; the p90 block is 6 ``build_region`` at
    K = 12; costliest, one ``grid_max_jamming`` at 10^6, one
    ``grid_max_sum_rate`` at K = 6 and one ``build_region`` at K = 16.
    Each quantile sits inside a block of one kind of task, so it does not
    jump between kinds when the machine's speed drifts; the p90 block is
    pure Python, which the calibration tracks more closely than the
    memory-bound numpy of the large grids.  ``build_region`` takes about
    three fifths of the time.  Region powers are feasible (a full
    feasibility scan) except for one of those at K = 8."""
    tasks = [_gmj_task(g, 10_001) for _ in range(3)]
    tasks += [_region_task(g, 8, i % 2 == 0) for i in range(3)]
    tasks += [_gmsr_task(g, 3, 11) for _ in range(2)] + [_gmsr_task(g, 5, 5) for _ in range(2)]
    tasks += [_gmsr_task(g, 4, 11) for _ in range(21)]
    tasks += [_region_task(g, 12, True) for _ in range(6)]
    tasks += [_gmj_task(g, 1_000_001), _gmsr_task(g, 6, 6)]
    tasks += [_region_task(g, 16, True)]
    warmup = [_region_task(g, 8, True), _gmsr_task(g, 3, 5), _gmj_task(g, 1_001)]
    g.shuffle(tasks)
    return tasks, warmup


def _ladder(g):
    """One traced pass over every layer at K = 2, 8, 12 and 16."""
    tasks = []
    for k, reps in ((2, 3), (8, 3), (12, 3), (16, 2)):
        h, p = g.channel(k)
        doc = g.doc(h, p)
        tasks += [g.task(f"channel_from_json.k{k}", kind="channel_from_json", doc=doc)
                  for _ in range(reps)]
        tasks += [g.task(f"max_sum_rate.k{k}", kind="max_sum_rate", doc=doc)
                  for _ in range(reps)]
        probe = g.probe(h, p, feasible=True)
        tasks += [g.task(f"is_feasible.k{k}", kind="is_feasible", doc=doc, powers=probe)
                  for _ in range(reps)]
        tasks += [g.task(f"build_region.k{k}", kind="build_region", doc=doc, powers=probe)
                  for _ in range(1 if k == 16 else reps)]
    tasks += [_sweep_task(g, 21), _sweep_task(g, 21), _sweep_task(g, 51)]
    tasks += [_gmsr_task(g, 4, 11), _gmsr_task(g, 4, 11), _gmsr_task(g, 6, 6)]
    tasks += [_gmj_task(g, 10_001) for _ in range(3)] + [_gmj_task(g, 1_000_001)]
    tasks += _jam_tasks(g, 2)
    return tasks


# -- the CLI workload ---------------------------------------------------------

def _cli(g, cls, argv, doc, expect="ok", known_defect=None):
    fields = {"argv": argv, "doc": doc, "expect": expect}
    if known_defect:
        fields["known_defect"] = known_defect
    return g.task(cls, **fields)


def _fmt_powers(powers):
    return ",".join(repr(x) for x in powers)


def _cli_cycle(g, sweep_defect=True):
    """One cycle of 40 CLI processes: 27 common commands, 6 heavier ones
    (--verify and sweeps) and 7 invalid inputs, 4 of them known defects.
    The region sweep hits the grid-edge defect when ``sweep_defect`` is
    true, so 5 of the 40 fail, for every seed."""
    rng = g.rng
    tasks = []

    def small():
        k = rng.choice((2, 3))
        return g.channel(k)

    for i in range(5):
        h, p = small()
        tasks.append(_cli(g, "standardize", ["standardize", "{doc}"],
                          g.doc(h, p, raw=i < 3)))
    for i in range(6):
        h, p = small()
        probe = g.probe(h, p, feasible=i % 2 == 0)
        tasks.append(_cli(g, "feasible", ["feasible", "{doc}", "--power", _fmt_powers(probe)],
                          g.doc(h, p)))
    for i in range(5):
        h, p = g.channel(2) if i == 0 else small()
        argv = ["region", "{doc}", "--power", _fmt_powers(g.probe(h, p, feasible=i % 2 == 0))]
        if i == 0:
            argv += ["--format", "csv"]
        tasks.append(_cli(g, "region", argv, g.doc(h, p)))
    for _ in range(6):
        h, p = g.channel(rng.choice((2, 3)), need_both=False)
        tasks.append(_cli(g, "maxsum", ["maxsum", "{doc}"], g.doc(h, p)))
    for branch in ("A-InteriorRoot", "A-FullJam", "B-AllSilent", "B-InteriorRoot", "D-NoJam"):
        tasks.append(_cli(g, "jam", ["jam", "{doc}"], g.jam_doc(branch)))

    for k in (2, 3):
        h, p = g.channel(k, need_both=False)
        tasks.append(_cli(g, "maxsum-verify", ["maxsum", "{doc}", "--verify"], g.doc(h, p)))
    for branch in ("A-InteriorRoot", "B-FullJam"):
        h1, h2, p1, p2 = g.jam_channel(branch)
        step = repr(p2 / 20_000)
        tasks.append(_cli(g, "jam-verify", ["jam", "{doc}", "--verify", "--p2-step", step],
                          g.doc([h1, h2], [p1, p2])))
    h, p = _sweep_channel(g, 21, sweep_defect)
    tasks.append(_cli(g, "sweep-region", ["sweep", "{doc}", "--kind", "region",
                                          "--grid-steps", "21"], g.doc(h, p, raw=False),
                      known_defect=DEFECT_SWEEP_EDGE if sweep_defect else None))
    h1, h2, p1, p2 = g.jam_channel("A-InteriorRoot")
    tasks.append(_cli(g, "sweep-jam", ["sweep", "{doc}", "--kind", "jam",
                                       "--p2-step", repr(p2 / 200)],
                      g.doc([h1, h2], [p1, p2])))

    nan_doc = g._add(json.dumps({"standard": True, "users": [
        {"h": math.nan, "power_max": 1.0}, {"h": 2.0, "power_max": 3.0}]}))
    inf_doc = g._add(json.dumps({"standard": True, "users": [
        {"h": 0.5, "power_max": math.inf}, {"h": 2.0, "power_max": 3.0}]}))
    huge_doc = g._add(json.dumps({"standard": True, "users": [
        {"h": 0.5, "power_max": 1e308}, {"h": 0.7, "power_max": 1e308}]}))
    tasks.append(_cli(g, "invalid.nan", ["maxsum", "{doc}"], nan_doc, "error", DEFECT_NAN))
    tasks.append(_cli(g, "invalid.infinity", ["maxsum", "{doc}"], inf_doc, "error", DEFECT_INF))
    tasks.append(_cli(g, "invalid.power_1e308", ["maxsum", "{doc}"], huge_doc, "error",
                      DEFECT_HUGE))
    h1, h2, p1, p2 = g.jam_channel("A-InteriorRoot")
    tasks.append(_cli(g, "invalid.p2_step_0", ["jam", "{doc}", "--verify", "--p2-step", "0"],
                      g.doc([h1, h2], [p1, p2]), "error", DEFECT_STEP0))
    tasks.append(_cli(g, "invalid.bad_json", ["region", "{doc}"],
                      g._add('{"standard": true, "users": ['), "error"))
    missing = json.loads(g.docs[g.doc([0.5, 2.0], [1.0, 2.0], raw=True)])
    del missing["noise_var_eavesdropper"]
    tasks.append(_cli(g, "invalid.missing_field", ["standardize", "{doc}"],
                      g._add(json.dumps(missing)), "error"))
    h, p = g.channel(2)
    tasks.append(_cli(g, "invalid.power_length",
                      ["feasible", "{doc}", "--power", _fmt_powers(p + [1.0])],
                      g.doc(h, p), "error"))
    g.shuffle(tasks)
    return tasks


def _cli_ladder(g):
    """One CLI task per traced command label, none of them failing."""
    cycle = _cli_cycle(g, sweep_defect=False)
    first = {}
    for t in cycle:
        if t["expect"] == "ok":
            first.setdefault(t["cls"].split("-")[0] if t["cls"].startswith("sweep")
                             else t["cls"], t)
    return [first[c] for c in sorted(first)]


def generate(workload, seed):
    """The plan of ``workload`` for ``seed`` (see the module docstring)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    g = _Gen(workload, seed)
    if workload == "cli-oneshot":
        tasks = _cli_cycle(g)
        warmup = list({t["cls"]: t for t in tasks if t["cls"] in (
            "standardize", "feasible", "region", "maxsum", "jam")}.values())
    elif workload == "feasibility-scan":
        tasks, warmup = _feasibility_scan(g)
    else:
        tasks, warmup = _region_oracle(g)
    return {"workload": workload, "seed": seed, "tasks": tasks, "warmup": warmup,
            "ladder": _ladder(g), "cli_ladder": _cli_ladder(g), "docs": g.docs}


def write(plan, directory):
    """Write the channel documents and ``plan.json`` under ``directory``;
    returns the path of ``plan.json``."""
    docs = directory / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    for doc_id, text in plan["docs"].items():
        (docs / f"{doc_id}.json").write_text(text + "\n", encoding="utf-8")
    path = directory / "plan.json"
    path.write_text(json.dumps(plan, sort_keys=True), encoding="utf-8")
    return path
