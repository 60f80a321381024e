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
from itertools import chain
from typing import Sequence

from .errors import NotAPermutation
from .geometry import DEFAULT_TOL, Point, PointIndex, Tolerance, columns

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


def extract_permutation(c_a: Sequence[Point], c_b: Sequence[Point],
                        tol: Tolerance = DEFAULT_TOL) -> StepPermutation:
    """The unique pi with c_b[i] = c_a[pi[i]], from one batch query; anything ambiguous
    or unmatched is a violation, named by c_b's first point without one site."""
    if len(c_a) != len(c_b):
        raise NotAPermutation(f"sizes differ: {len(c_a)} vs {len(c_b)}")
    qxs, qys = columns(c_b)
    hits = PointIndex(c_a, tol).within(qxs, qys)
    pi = tuple(chain.from_iterable(hits))  # one site each when no list is empty
    if len(pi) != len(hits) or not all(hits):
        r = next(r for r, h in enumerate(hits) if len(h) != 1)
        raise NotAPermutation(f"point ({qxs[r]:.6g}, {qys[r]:.6g}) matches {len(hits[r])} points")
    if len(set(pi)) != len(pi):
        raise NotAPermutation("matching is not a bijection")
    fpf, single = _cycle_flags(pi)
    return StepPermutation(pi, fpf, single)


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
    flagged provisional.
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
    try:
        step = extract_permutation(configs[0], configs[k], tol)
    except NotAPermutation as exc:
        return SpecVerdict(spec, k, False, (k, f"NotAPermutation: {exc}"))
    if spec == MOVE_ALL and not step.fixed_point_free:
        return SpecVerdict(spec, k, False, (k, "permutation has a fixed point"))
    if spec == VISIT_ALL and not step.is_n_cycle:
        return SpecVerdict(spec, k, False, (k, f"permutation is not a {n}-cycle"))
    power = list(range(n))
    x0, y0 = columns(configs[0])
    eps = tol.eps
    i = 0
    while (i + 1) * k <= last:
        i += 1
        power = [step.pi[x] for x in power]
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
    for j in shift_js:
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
    as the cycle closer) in which robot i stands on initial location l:
    one batch query of each sampled round's columns against round 0's."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    records = trace.records
    base = records[0].positions
    n = len(base)
    counts = [[0] * n for _ in range(n)]
    sites = PointIndex(base, tol)
    sampled = records[:-1] if len(records) > 1 else records
    for rec in sampled[::stride]:
        for row, hits in zip(counts, sites.within(*columns(rec.positions))):
            for l in hits:
                row[l] += 1
    return counts
