"""Trace-level contract checking.

A relocation protocol promises that after every k rounds the swarm
occupies exactly the starting locations, permuted by one fixed
permutation of the required class: fixed-point-free for total
relocation, a single n-cycle for full visiting.  These checkers recover
that permutation from a recorded trace and hold every later round to it,
without trusting the protocol that produced the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from operator import sub
from typing import Sequence

from .errors import NotAPermutation
from .geometry import DEFAULT_TOL, Point, PointIndex, Tolerance, columns, first_coincident_pair

MOVE_ALL = "MoveAll"
VISIT_ALL = "VisitAll"
SPECS = (MOVE_ALL, VISIT_ALL)


@dataclass(frozen=True)
class StepPermutation:
    """Index permutation pi with C_next[i] = C[pi[i]]."""

    pi: tuple[int, ...]
    fixed_point_free: bool
    is_n_cycle: bool


@dataclass(frozen=True)
class SpecVerdict:
    spec: str
    k: int
    passed: bool
    first_violation: tuple[int, str] | None = None
    provisional: bool = False

    def to_dict(self) -> dict:
        violation = None
        if self.first_violation is not None:
            violation = {"round": self.first_violation[0],
                         "reason": self.first_violation[1]}
        out = {"spec": self.spec, "k": self.k, "pass": self.passed,
               "violation": violation}
        if self.provisional:
            out["provisional"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _cycle_flags(pi: Sequence[int]) -> tuple[bool, bool]:
    # (fixed-point-free, one n-cycle): one cycle iff the orbit of 0 covers all
    orbit = 1
    i = pi[0]
    while i != 0:
        i = pi[i]
        orbit += 1
    return all(pi[i] != i for i in range(len(pi))), orbit == len(pi)


def _hits(x: float, y: float, xs: list[float], ys: list[float], eps: float) -> list[int]:
    """Every site l within eps of (x, y), by `PointIndex.labels`' float: a recount."""
    return [l for l, (sx, sy) in enumerate(zip(xs, ys)) if math.hypot(x - sx, y - sy) <= eps]


def _step(labels: list[int], c_a: Sequence[Point], c_b: Sequence[Point],
          eps: float) -> StepPermutation:
    """The pi that c_b's labels against c_a name; anything ambiguous or unmatched is a
    violation, named by c_b's first point without one site."""
    if len(c_a) != len(labels):
        raise NotAPermutation(f"sizes differ: {len(c_a)} vs {len(labels)}")
    if min(labels, default=0) < 0:
        qxs, qys = columns(c_b)
        r = next(r for r, site in enumerate(labels) if site < 0)
        raise NotAPermutation(f"point ({qxs[r]:.6g}, {qys[r]:.6g}) matches "
                              f"{len(_hits(qxs[r], qys[r], *columns(c_a), eps))} points")
    if len(set(labels)) != len(labels):
        raise NotAPermutation("matching is not a bijection")
    return StepPermutation(tuple(labels), *_cycle_flags(labels))


def extract_permutation(c_a: Sequence[Point], c_b: Sequence[Point],
                        tol: Tolerance = DEFAULT_TOL) -> StepPermutation:
    """The unique pi with c_b[i] = c_a[pi[i]], from one batch query."""
    return _step(PointIndex(c_a, tol).labels(*columns(c_b)), c_a, c_b, tol.eps)


class _SiteLabels(dict):
    """Round r's `PointIndex.labels` against round 0's sites at [r], taken on first
    read; `of` keeps one per trace and tolerance in `RunTrace.site_labels`."""

    def __init__(self, records, tol: Tolerance):
        self.records, self.sites = records, PointIndex(records[0].positions, tol)

    def __missing__(self, r: int) -> list[int]:
        row = self[r] = self.sites.labels(*columns(self.records[r].positions))
        return row

    @classmethod
    def of(cls, trace, tol: Tolerance) -> _SiteLabels:
        kept = trace.site_labels
        return kept[tol] if tol in kept else kept.setdefault(tol, cls(trace.records, tol))


# A shift pair (j, j + k) passes unmatched when round 0's sites lie more
# than 2 eps apart and both rounds put their robots on distinct sites, each
# within eps/2 of its own.  A robot of round j + k is then within
# eps/2 + eps/2 = eps of the robot of round j on its site, and more than
# 2 eps - eps/2 - eps/2 = eps from every other one, so `extract_permutation`
# would pass.  The factors 1 +- _MARGIN cover a few ulps of rounding for eps
# above 1e-300.
_MARGIN = 1e-9


def check_k_step_spec(trace, spec: str, k: int,
                      tol: Tolerance = DEFAULT_TOL) -> SpecVerdict:
    """Hold a trace to the k-round relocation contract.

    Checks, in order: no embedded errors; one permutation pi of the
    required class between rounds 0 and k; every round i*k equal to
    pi^i of round 0; and the restart property that each round j + k is a
    permutation of round j.  Traces with memory bits set only promise
    the restart property at multiples of k (the in-between rounds carry
    signalling displacements); all-zero-bit traces are held to it at
    every j.  A visiting verdict from fewer than k*n + 1 rounds is
    flagged provisional.  Every round is matched against round 0's sites
    once, in the labelling that `visit_matrix` reads too.
    """
    if spec not in SPECS:
        raise ValueError(f"unknown spec {spec!r}; choose from {SPECS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    records = trace.records
    last = len(records) - 1
    for rec in records:
        if rec.error is not None:
            return SpecVerdict(spec, k, False, (rec.round_index, rec.error))
    if last < k:
        return SpecVerdict(spec, k, False,
                           (last, f"trace has {last} rounds, needs at least {k}"))
    configs = [rec.positions for rec in records]
    n = len(configs[0])
    labels = _SiteLabels.of(trace, tol)
    x0, y0 = columns(configs[0])
    eps = tol.eps
    try:
        step = _step(labels[k], configs[0], configs[k], eps)
    except NotAPermutation as exc:
        return SpecVerdict(spec, k, False, (k, f"NotAPermutation: {exc}"))
    if spec == MOVE_ALL and not step.fixed_point_free:
        return SpecVerdict(spec, k, False, (k, "permutation has a fixed point"))
    if spec == VISIT_ALL and not step.is_n_cycle:
        return SpecVerdict(spec, k, False, (k, f"permutation is not a {n}-cycle"))
    power = list(range(n))
    i = 0
    while (i + 1) * k <= last:
        i += 1
        power = [step.pi[x] for x in power]
        if labels[i * k] == power:
            continue
        gx, gy = columns(configs[i * k])  # each robot against Tolerance.same_point's float
        bad = next((r for r in range(n)
                    if not math.hypot(x0[power[r]] - gx[r], y0[power[r]] - gy[r]) <= eps), None)
        if bad is not None:
            return SpecVerdict(spec, k, False,
                               (i * k, f"robot {bad} deviates from the fixed "
                                       f"permutation power at round {i * k}"))
    memoryless = all(not any(rec.bits) for rec in records)
    # the pair (0, k) is the step extracted above
    shift_js = range(1, last - k + 1) if memoryless else range(k, last - k + 1, k)
    wide, half = eps * 2.0 * (1.0 + _MARGIN), eps * 0.5 * (1.0 - _MARGIN)
    separated = (eps > 1e-300 and wide < math.inf
                 and first_coincident_pair(configs[0], Tolerance(wide)) is None)

    @cache
    def snug(r: int) -> bool:
        """Round r's labels a permutation, every robot within `half` of its own site."""
        row, (gx, gy) = labels[r], columns(configs[r])
        return (min(row) >= 0 and len(set(row)) == len(row) == n
                and max(map(math.hypot, map(sub, gx, map(x0.__getitem__, row)),
                            map(sub, gy, map(y0.__getitem__, row)))) <= half)

    for j in shift_js:
        if separated and snug(j) and snug(j + k):
            continue
        try:
            extract_permutation(configs[j], configs[j + k], tol)
        except NotAPermutation as exc:
            return SpecVerdict(spec, k, False,
                               (j + k, f"round {j + k} is not a permutation of "
                                       f"round {j}: {exc}"))
    provisional = spec == VISIT_ALL and last < k * n
    return SpecVerdict(spec, k, True, None, provisional)


def visit_matrix(trace, stride: int = 1,
                 tol: Tolerance = DEFAULT_TOL) -> list[list[int]]:
    """count[i][l] = rounds (sampled every `stride`, final round dropped
    as the cycle closer) in which robot i stands on initial location l,
    read from the labelling that `check_k_step_spec` shares."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    records = trace.records
    x0, y0 = columns(records[0].positions)
    counts = [[0] * len(x0) for _ in x0]
    labels = _SiteLabels.of(trace, tol)
    for r in range(0, max(len(records) - 1, 1), stride):
        for i, site in enumerate(labels[r]):
            if site >= 0:
                counts[i][site] += 1
            elif site == -2:  # within eps of several sites: one visit to each
                gx, gy = columns(records[r].positions)
                for l in _hits(gx[i], gy[i], x0, y0, tol.eps):
                    counts[i][l] += 1
    return counts
