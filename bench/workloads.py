"""The benchmark's four workloads.

A workload is a function from a seeded `random.Random` to one *cycle*:
a fixed list of instance shapes (protocol, family, n) filled with fresh
seeded inputs.  The runner repeats whole cycles, so every run sees the
same mix of sizes and only the geometry changes with the seed.  That keeps
percentiles and throughput comparable between seeds.

An instance is one configuration simulated and verified, or one trace
audited.  `execute` is the timed work; `failure` checks its outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import swarmperm as sp

import inputs


@dataclass
class Result:
    trace: object
    verdict: object
    visits: list


@dataclass
class Simulation:
    label: str
    protocol: object
    points: list
    frames: list
    rounds: int
    spec: str
    k: int

    def execute(self) -> Result:
        trace = sp.run(self.points, self.frames, self.protocol, self.rounds)
        sp.serialize_trace(trace)
        verdict = sp.check_k_step_spec(trace, self.spec, self.k)
        visits = sp.visit_matrix(trace, self.k)
        return Result(trace, verdict, visits)

    def failure(self, res: Result) -> str | None:
        err = res.trace.records[-1].error
        if err is not None:
            return "trace:" + err.split(":", 1)[0]
        if not res.verdict.passed:
            return "verdict_failed"
        if res.verdict.provisional:
            return "verdict_provisional"
        if self.spec == sp.VISIT_ALL:
            if any(v != 1 for row in res.visits for v in row):
                return "visits_not_all_ones"
        elif any(sum(row) != self.rounds for row in res.visits):
            return "visits_off_sites"
        return None


@dataclass
class Audit:
    label: str
    k: int
    text: str
    planted_round: int | None

    def execute(self) -> Result:
        trace = sp.parse_trace(self.text)
        verdict = sp.check_k_step_spec(trace, sp.VISIT_ALL, self.k)
        visits = sp.visit_matrix(trace, self.k)
        return Result(trace, verdict, visits)

    def failure(self, res: Result) -> str | None:
        v = res.verdict
        if self.planted_round is not None:
            if v.passed:
                return "planted_violation_missed"
            if v.first_violation[0] != self.planted_round:
                return "planted_violation_wrong_round"
            return None
        if not v.passed:
            return "verdict_failed"
        if v.provisional:
            return "verdict_provisional"
        if any(c != PERIODS for row in res.visits for c in row):
            return "visits_wrong"
        return None


def committed_robot_steps(res: Result) -> int:
    """Robots times rounds that committed (an embedded error does not)."""
    recs = res.trace.records
    return len(recs[0].positions) * sum(1 for r in recs[1:] if r.error is None)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


# --- simulation workloads -------------------------------------------------

def generic_sweep(rng: random.Random, tiny: bool = False) -> list[Simulation]:
    # 25 instances per cycle, n in [3, 20].  Whole cycles are pooled, and
    # time grows with n, so p50 falls in the middle of the three n=11
    # instances and p90 in the middle of the three n=19 ones: each is the
    # median of a block of like instances rather than a point between two
    # sizes, which keeps both steady from seed to seed.
    ns = [3, 4, 5] if tiny else GENERIC_SIZES
    proto = sp.make_protocol("VisitAllChirality")
    out = []
    for n in ns:
        pts = inputs.rand_non_c_dot(rng, n)
        frames = inputs.chirality_preserving_frames(rng, n)
        out.append(Simulation(f"VisitAllChirality n={n}", proto, pts, frames, n,
                              sp.VISIT_ALL, 1))
    return out


GENERIC_SIZES = [3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 11, 11, 11,
                 12, 13, 14, 15, 16, 17, 18, 19, 19, 19, 20]


def centered_cadence(rng: random.Random, tiny: bool = False) -> list[Simulation]:
    # OneBit gets every (n, k) with n in [3, 10] and the n - 1 outer robots
    # in k-fold orbits, since k selects its reconstruct case.  Voting, which
    # has no such cases, gets all but three middle orbit counts, for 25
    # instances per cycle (see generic_sweep).  n stops at 10: one OneBit
    # instance at n=16 takes about 2 s on a 2-core Xeon, which would leave
    # too few instances per run for a p90.
    sizes = [3, 4] if tiny else range(3, 11)
    shapes = [(n, k) for n in sizes for k in range(2, n) if (n - 1) % k == 0]
    one_bit = sp.make_protocol("OneBitVisitAll")
    voting = sp.make_protocol("VotingVisitAll")
    runs = [(one_bit, n, k, 2 * n, 2) for n, k in shapes]
    runs += [(voting, n, k, n, 1) for n, k in shapes if (n, k) not in VOTING_SKIPS]
    out = []
    for proto, n, k, rounds, spec_k in runs:
        pts = inputs.rand_c_dot(rng, n, k)
        frames = sp.adversary_frames("pairwise_distinct", pts, seed=_seed(rng))
        out.append(Simulation(f"{proto.name} n={n} k={k}", proto, pts, frames,
                              rounds, sp.VISIT_ALL, spec_k))
    return out


VOTING_SKIPS = {(5, 4), (7, 3), (9, 4)}


def symmetric_large(rng: random.Random, tiny: bool = False) -> list[Simulation]:
    # n stops at 48: a 2-round MoveAllNoChirality run on a 64-point dihedral
    # set takes about 8 s on a 2-core Xeon.
    if tiny:
        dihedral, pinwheel, antipodal, empty_axis = [(2, 1, False)], [3], [2], [2]
    else:
        # 25 instances per cycle (see generic_sweep).
        dihedral = [(2, 2, True), (3, 1, False), (3, 2, False), (4, 1, True),
                    (4, 2, False), (5, 2, False), (6, 1, True), (6, 2, False)]
        pinwheel = [4, 5, 6, 8, 10, 12]
        antipodal = [4, 8, 12, 16, 20, 24]
        empty_axis = [2, 4, 5, 6, 7]
    move_all = sp.make_protocol("MoveAllNoChirality")
    visit_all = sp.make_protocol("VisitAllNoChirality")
    configs = []
    for m, rings, axis_pairs in dihedral:
        configs.append((f"dihedral m={m} rings={rings}",
                        inputs.dihedral_config(rng, m, rings, axis_pairs)))
    for k in pinwheel:
        configs.append((f"pinwheel k={k}", inputs.pinwheel_config(rng, k)))
    for p in antipodal:
        configs.append((f"antipodal pairs={p}", inputs.rand_central_symmetric(rng, p)))
    out = []
    for family, pts in configs:
        frames = sp.adversary_frames("random", pts, seed=_seed(rng))
        out.append(Simulation(f"MoveAllNoChirality {family}", move_all, pts, frames, 2,
                              sp.MOVE_ALL, 1))
    for p in empty_axis:
        pts = inputs.unique_empty_axis_config(rng, p)
        frames = sp.adversary_frames("random", pts, seed=_seed(rng))
        out.append(Simulation(f"VisitAllNoChirality empty-axis pairs={p}", visit_all, pts,
                              frames, len(pts), sp.VISIT_ALL, 1))
    return out


# --- trace audit ------------------------------------------------------------

PERIODS = 2


def _synth_trace(rng: random.Random, n: int, k: int, planted_round: int | None) -> str:
    """JSONL trace of a seeded n-cycle applied for PERIODS full periods.

    k=1: memoryless, every round is the next power of the cycle.  k=2: the
    cycle advances every second round; the rounds in between displace two
    robots slightly (a signalling step) and one robot carries a bit.  A
    planted violation displaces one robot at `planted_round`, a multiple
    of k, so the verifier must report exactly that round.
    """
    base = inputs.rand_points(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    pi = [0] * n
    for j in range(n):
        pi[order[j]] = order[(j + 1) % n]
    holder = rng.randrange(n)
    zero_bits = (0,) * n
    bits = tuple(int(i == holder) for i in range(n)) if k > 1 else zero_bits
    rounds = k * n * PERIODS
    configs = [tuple(base)]
    current = tuple(base)
    for r in range(1, rounds + 1):
        if r % k == 0:
            current = tuple(current[pi[i]] for i in range(n))
            configs.append(current)
        else:
            shifted = list(current)
            for i in rng.sample(range(n), 2):
                shifted[i] = shifted[i] + sp.Point(rng.uniform(-0.05, 0.05), 0.05)
            configs.append(tuple(shifted))
    if planted_round is not None:
        bad = list(configs[planted_round])
        i = rng.randrange(n)
        bad[i] = bad[i] + sp.Point(1e-3, -1e-3)
        configs[planted_round] = tuple(bad)
    records = [sp.RoundRecord(0, configs[0], zero_bits, (False,) * n)]
    for r in range(1, rounds + 1):
        moved = tuple(p != q for p, q in zip(configs[r - 1], configs[r]))
        records.append(sp.RoundRecord(r, configs[r], bits, moved))
    return sp.serialize_trace(sp.RunTrace(tuple(records)))


def trace_audit(rng: random.Random, tiny: bool = False) -> list[Audit]:
    # 25 traces per cycle, n in [20, 49], alternating k=1 and k=2.  Every
    # fifth carries one planted violation at a seeded round, so the mix of
    # sizes, kinds and plants is the same for every seed.
    ns = [4, 5, 6] if tiny else [20 + 30 * i // 25 for i in range(25)]
    out = []
    for idx, n in enumerate(ns):
        k = 1 + idx % 2
        plant = k * rng.randrange(1, n * PERIODS + 1) if idx % 5 == 2 else None
        text = _synth_trace(rng, n, k, plant)
        kind = "planted" if plant is not None else "clean"
        out.append(Audit(f"audit k={k} n={n} {kind}", k, text, plant))
    return out


WORKLOADS = {
    "generic_sweep": generic_sweep,
    "centered_cadence": centered_cadence,
    "symmetric_large": symmetric_large,
    "trace_audit": trace_audit,
}
