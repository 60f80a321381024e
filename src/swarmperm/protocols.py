"""Robot-side decision rules.

Each protocol is a pure function from a local snapshot (plus, for the
one-bit protocol, a memory bit) to a destination expressed in the same
local coordinates.  The heavy machinery lives in the centered-symmetric
case: the central robot and the persistent leader exchange information
through carefully quantized displacements, and every robot can invert
those displacements to recover the underlying configuration, the leader,
and a pivot point that anchors a shared cyclic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    AmbiguousLayering,
    DecodeFailure,
    InvalidCaller,
    InvalidHop,
    NotCentral,
    NotOrderable,
    ReconstructFailure,
)
from .geometry import (
    CCW,
    CW,
    DEFAULT_TOL,
    Point,
    Tolerance,
    ccw_angle,
    concentric_decomposition,
    first_coincident_pair,
    smallest_enclosing_circle,
)
from .ordering import (
    agree_chirality,
    order_from_leader,
    order_with_chirality,
    order_without_chirality,
    orient_axis,
    voting_elect,
)
from .symmetry import Analysis, analyze, symmetry_report

THIRD_TURN = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class LeaderMark:
    """Result of inverting an intermediate configuration: who led, which
    pivot was signalled, and the centered configuration it came from
    (index-aligned with the input), with the analysis built to check it."""

    leader_index: int
    pivot_index: int
    reconstructed: Analysis
    case: str


def encode_hop(i: int, m: int) -> float:
    """Map hop count i in [0, m) to a value in (1/2, 1), evenly spaced so
    each codeword keeps a 1/(4(m+1)) guard band."""
    if m < 2:
        raise InvalidHop(f"need at least 2 slots, got m={m}")
    if not (0 <= i < m):
        raise InvalidHop(f"hop {i} outside [0, {m})")
    return 0.5 + (i + 1) / (2.0 * (m + 1))


def decode_hop(e: float, m: int) -> int:
    if m < 2:
        raise InvalidHop(f"need at least 2 slots, got m={m}")
    x = 2.0 * (e - 0.5) * (m + 1) - 1.0
    # nearest codeword; round() alone can tip over at an exact band edge
    i = min(max(round(x), 0), m - 1)
    best = min((j for j in (i - 1, i, i + 1) if 0 <= j < m),
               key=lambda j: abs(e - encode_hop(j, m)))
    guard = 1.0 / (4.0 * (m + 1))
    if abs(e - encode_hop(best, m)) > guard + 1e-12:
        raise DecodeFailure(f"value {e} is outside every guard band (m={m})")
    return best


def _clock(handedness: str) -> str:
    return CW if handedness == CCW else CCW


def _sweep_angle(u: Point, v: Point, direction: str, tol: Tolerance) -> float:
    """Angle swept rotating u onto v's ray in the given direction, in
    [0, 2*pi); exactly 0 for aligned rays."""
    if tol.ray_aligned(u, v):
        return 0.0
    a = ccw_angle(u, v)
    return a if direction == CCW else 2.0 * math.pi - a


def select_pivot(points: Sequence[Point], handedness: str = CCW,
                 tol: Tolerance = DEFAULT_TOL) -> int:
    """Pick one vertex of the innermost circle as the pivot.

    Among the vertices starting a lexicographically minimal clockwise
    gap-signature rotation (a frame-free filter), take the one closest in
    clockwise angle to the caller's +x axis.  The final tie-break is
    frame-dependent on purpose: symmetric candidates cannot be separated
    frame-free, and only the caller's own later encoding must agree with
    this choice.  The rule uses directions only, so it is unaffected by
    the caller's position.
    """
    a = analyze(points, tol)
    c = a.sec.center
    ring_ccw = a.inner_polygon
    ring = list(reversed(ring_ccw)) if handedness == CCW else list(ring_ccw)
    m = len(ring)
    cwd = _clock(handedness)
    us = [points[i] - c for i in ring]
    gaps = [_sweep_angle(us[t], us[(t + 1) % m], cwd, tol) for t in range(m)]

    def cmp_rot(a: int, b: int) -> int:
        for j in range(m):
            cc = tol.cmp(gaps[(a + j) % m], gaps[(b + j) % m])
            if cc != 0:
                return cc
        return 0

    best = 0
    for s in range(1, m):
        if cmp_rot(s, best) < 0:
            best = s
    candidates = [s for s in range(m) if cmp_rot(s, best) == 0]
    xaxis = Point(1.0, 0.0)

    def frame_key(s: int) -> tuple[float, float, float]:
        return (_sweep_angle(xaxis, us[s], cwd, tol), points[ring[s]].x, points[ring[s]].y)

    return ring[min(candidates, key=frame_key)]


def _hop_rank(points: Sequence[Point], p1: Sequence[int], c: Point, ray_from: Point,
              handedness: str, tol: Tolerance) -> list[int]:
    """Innermost-circle vertices ordered clockwise starting at the ray
    from c through ray_from (a vertex on the ray itself ranks first)."""
    cwd = _clock(handedness)
    u0 = ray_from - c
    return sorted(p1, key=lambda v: (_sweep_angle(u0, points[v] - c, cwd, tol),
                                     points[v].x, points[v].y))


def compute_movement_central(points: Sequence[Point], handedness: str = CCW,
                             tol: Tolerance = DEFAULT_TOL) -> tuple[Point, int]:
    """Destination of the central robot in a centered configuration, plus
    the pivot index its displacement direction encodes.

    Three robots: rise perpendicular to the line by half its length, on
    the side that puts the pivot first along the clockwise arc.  More
    robots: slide toward the pivot by one eighth of the innermost radius.
    """
    a = analyze(points, tol)
    if not a.in_c_dot:
        raise NotCentral("central movement requires a centered symmetric configuration")
    ci = a.center_index
    c = points[ci]
    n = len(points)
    pivot = select_pivot(a, handedness, tol)
    if n == 3:
        e1, e2 = [i for i in range(n) if i != ci]
        seg = points[e2] - points[e1]
        s_len = seg.norm()
        normal = seg.unit().rotated(math.pi / 2.0)
        cwd = _clock(handedness)
        for sign in (1.0, -1.0):
            apex = c + normal * (sign * s_len / 2.0)
            # all three points sit at distance s/2 from c, so c is the arc center
            first = min((e1, e2), key=lambda i: _sweep_angle(apex - c, points[i] - c, cwd, tol))
            if first == pivot:
                return apex, pivot
        raise InvalidHop("no perpendicular side makes the pivot first clockwise")
    dest = c + (points[pivot] - c) * 0.125
    return dest, pivot


def compute_movement_not_central(points: Sequence[Point], own: int,
                                 handedness: str = CCW,
                                 tol: Tolerance = DEFAULT_TOL) -> Point:
    """Destination of the non-central leader in a centered configuration.

    The leader encodes the clockwise hop count from a reference vertex to
    its pivot into its own displacement: a slide direction for n=3, a
    radial retreat fraction, an angular offset, or a boundary-pair
    stretch otherwise, depending on where the leader sits.
    """
    a = analyze(points, tol)
    if not a.in_c_dot:
        raise NotCentral("leader movement requires a centered symmetric configuration")
    ci = a.center_index
    if own == ci:
        raise InvalidCaller("the central robot must use the central movement")
    c = points[ci]
    n = len(points)
    pivot = select_pivot(a, handedness, tol)
    if n == 3:
        u = (points[own] - c).unit()
        other = next(i for i in range(n) if i not in (own, ci))
        s_len = points[own].dist(points[other])
        delta = s_len / 16.0
        # sliding away from the old midpoint drags the new midpoint toward
        # the own side; toward it points at the opposite endpoint
        return points[own] + u * (delta if pivot == own else -delta)
    deco = concentric_decomposition(points, c, tol)
    nondeg = [layer for layer in deco.layers if layer.radius > tol.eps]
    p1 = list(nondeg[0].indices)
    ranked = _hop_rank(points, p1, c, points[own], handedness, tol)
    nhop = ranked.index(pivot)
    e = encode_hop(nhop, len(p1))
    outer = nondeg[-1]
    on_outer = own in outer.indices
    if on_outer and len(outer.indices) == 2:
        rx = next(i for i in outer.indices if i != own)
        u = (points[own] - points[rx]).unit()
        return points[rx] + u * ((2.0 + e) * outer.radius)
    if on_outer and len(outer.indices) == 3:
        others = [i for i in outer.indices if i != own]
        ahead = min(others, key=lambda i: _sweep_angle(points[own] - c, points[i] - c,
                                                       handedness, tol))
        spin = -e * THIRD_TURN if handedness == CCW else e * THIRD_TURN
        return c + (points[ahead] - c).rotated(spin)
    rho = points[own].dist(c)
    below = [0.0] + [layer.radius for layer in nondeg if tol.lt(layer.radius, rho)]
    x = rho - max(below)
    return c + (points[own] - c).unit() * (rho - e * x / 2.0)


# --- reconstruction ------------------------------------------------------

def _finish_mark(points: Sequence[Point], rec: list[Point], leader: int, e: float,
                 c: Point, case: str, handedness: str, tol: Tolerance) -> LeaderMark | None:
    """Shared tail of the two-mover cases: locate and snap the displaced
    central robot, validate the restored configuration, and decode the
    pivot from the leader's encoded fraction."""
    rest = [i for i in range(len(points)) if i != leader]
    try:
        deco = concentric_decomposition([points[i] for i in rest], c, tol)
    except AmbiguousLayering:
        return None
    inner = next((layer for layer in deco.layers if layer.radius > tol.eps), None)
    if inner is None or len(inner.indices) != 1:
        return None
    qc = rest[inner.indices[0]]
    rec = list(rec)
    rec[qc] = c
    if first_coincident_pair(rec, tol) is not None:
        return None
    ra = Analysis(rec, tol)
    if not ra.in_c_dot:
        return None
    p1 = ra.inner_polygon
    r1 = rec[p1[0]].dist(c)
    if not tol.eq(points[qc].dist(c), r1 / 8.0):
        return None
    if not any(tol.ray_aligned(points[qc] - c, rec[v] - c) for v in p1):
        return None
    try:
        nhop = decode_hop(e, len(p1))
    except (DecodeFailure, InvalidHop):
        return None
    ranked = _hop_rank(rec, p1, c, rec[leader], handedness, tol)
    return LeaderMark(leader, ranked[nhop], ra, case)


def _attempts_three(points: Sequence[Point], handedness: str,
                    tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    a, b = max(pairs, key=lambda ij: points[ij[0]].dist(points[ij[1]]))
    apex = next(i for i in range(3) if i not in (a, b))
    base_dir = (points[b] - points[a]).unit()
    foot = points[a] + base_dir * base_dir.dot(points[apex] - points[a])
    h = points[apex].dist(foot)
    e_len = points[a].dist(points[b])
    cwd = _clock(handedness)
    if tol.eq(h, e_len / 2.0):
        rec = list(points)
        rec[apex] = foot
        ra = Analysis(rec, tol)
        if first_coincident_pair(rec, tol) is None and ra.in_c_dot:
            first = min((a, b), key=lambda i: _sweep_angle(points[apex] - foot,
                                                           points[i] - foot, cwd, tol))
            out.append(LeaderMark(apex, first, ra, "C1"))
    for moved, fixed in ((a, b), (b, a)):
        d_m = points[moved].dist(foot)
        d_f = points[fixed].dist(foot)
        if not tol.eq(d_f, h) or tol.eq(d_m, h):
            continue
        if not tol.eq(abs(d_m - h), h / 8.0):
            continue
        orig = foot * 2.0 - points[fixed]
        if not tol.ray_aligned(points[moved] - foot, orig - foot):
            continue
        rec = list(points)
        rec[apex] = foot
        rec[moved] = orig
        ra = Analysis(rec, tol)
        if not (first_coincident_pair(rec, tol) is None and ra.in_c_dot):
            continue
        pivot = moved if d_m > h else fixed
        out.append(LeaderMark(moved, pivot, ra, "L1"))
    return out


def _attempts_many(points: Analysis, handedness: str, tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []
    n = len(points)
    sec = points.sec
    boundary = [i for i in range(n) if tol.eq(points[i].dist(sec.center), sec.radius)]

    # stretched boundary pair
    if len(boundary) == 2 and n >= 4:
        i1, i2 = boundary
        rest = [points[i] for i in range(n) if i not in boundary]
        c2 = smallest_enclosing_circle(rest, tol).center
        d1, d2 = points[i1].dist(c2), points[i2].dist(c2)
        if not tol.eq(d1, d2):
            lead, anchor = (i1, i2) if d1 > d2 else (i2, i1)
            span = points[lead].dist(points[anchor])
            d_anchor = points[anchor].dist(c2)
            if d_anchor > tol.eps:
                e = span / d_anchor - 2.0
                if tol.ray_aligned(points[lead] - points[anchor], c2 - points[anchor]):
                    rec = list(points)
                    rec[lead] = c2 * 2.0 - points[anchor]
                    mark = _finish_mark(points, rec, lead, e, c2, "L2.3", handedness, tol)
                    if mark:
                        out.append(mark)

    try:
        layers = points.layers
    except AmbiguousLayering:
        return out
    nondeg = [layer for layer in layers if layer.radius > tol.eps]
    c = sec.center

    # outermost triple knocked out of its equal spacing
    outer = nondeg[-1]
    if len(outer.indices) == 3:
        ring = sorted(outer.indices,
                      key=lambda i: _sweep_angle(Point(1.0, 0.0), points[i] - c,
                                                 handedness, tol))
        gaps = [_sweep_angle(points[ring[t]] - c, points[ring[(t + 1) % 3]] - c,
                             handedness, tol) for t in range(3)]
        if not all(tol.eq(g, THIRD_TURN) for g in gaps):
            t_min = min(range(3), key=lambda t: gaps[t])
            others = sorted(gaps[:t_min] + gaps[t_min + 1:])
            if tol.eq(others[0], THIRD_TURN):
                lead = ring[t_min]
                ahead = ring[(t_min + 1) % 3]
                e = gaps[t_min] / THIRD_TURN
                back = -THIRD_TURN if handedness == CCW else THIRD_TURN
                rec = list(points)
                rec[lead] = c + (points[ahead] - c).rotated(back)
                mark = _finish_mark(points, rec, lead, e, c, "L2.2", handedness, tol)
                if mark:
                    out.append(mark)

    singles = [layer for layer in nondeg if len(layer.indices) == 1]

    # leader parked between two layers
    if len(singles) >= 2:
        qc_layer = singles[0]
        for ql_layer in singles[1:]:
            ql = ql_layer.indices[0]
            rho_l = points[ql].dist(c)
            skip = {ql, qc_layer.indices[0]}
            clean = [0.0] + [layer.radius for layer in nondeg
                             if not (set(layer.indices) & skip)]
            above = [r for r in clean if tol.gt(r, rho_l)]
            if not above:
                continue
            rho_above = min(above)
            rho_below = max(r for r in clean if tol.lt(r, rho_l))
            x = rho_above - rho_below
            if x <= tol.eps:
                continue
            e = 2.0 * (rho_above - rho_l) / x
            rec = list(points)
            rec[ql] = c + (points[ql] - c).unit() * rho_above
            mark = _finish_mark(points, rec, ql, e, c, "L2.1", handedness, tol)
            if mark:
                out.append(mark)

    # only the central robot moved
    if singles:
        q = singles[0].indices[0]
        rec = list(points)
        rec[q] = c
        ra = Analysis(rec, tol)
        if first_coincident_pair(rec, tol) is None and ra.in_c_dot:
            p1 = ra.inner_polygon
            r1 = rec[p1[0]].dist(c)
            if tol.eq(points[q].dist(c), r1 / 8.0):
                hits = [v for v in p1 if tol.ray_aligned(points[q] - c, rec[v] - c)]
                if len(hits) == 1:
                    out.append(LeaderMark(q, hits[0], ra, "C2"))
    return out


def reconstruct(points: Sequence[Point], handedness: str = CCW,
                tol: Tolerance = DEFAULT_TOL) -> LeaderMark:
    """Invert an intermediate configuration back to its centered original.

    Tries every movement case, keeps the interpretations that validate
    (restored configuration centered-symmetric, displacements exactly on
    protocol constants, hop fraction inside a decode guard band), and
    demands exactly one survivor.
    """
    a = analyze(points, tol)
    n = len(points)
    if n < 3:
        raise ReconstructFailure("need at least 3 points")
    if a.in_c_dot:
        raise ReconstructFailure("configuration is already centered; nothing to invert")
    marks = _attempts_three(points, handedness, tol) if n == 3 \
        else _attempts_many(a, handedness, tol)
    unique: list[LeaderMark] = []
    for mk in marks:
        dup = any(mk.leader_index == u.leader_index
                  and mk.pivot_index == u.pivot_index
                  and all(tol.same_point(p, q) for p, q in zip(mk.reconstructed, u.reconstructed))
                  for u in unique)
        if not dup:
            unique.append(mk)
    if len(unique) != 1:
        raise ReconstructFailure(
            f"{len(unique)} consistent interpretations of the intermediate configuration")
    return unique[0]


# --- per-protocol step functions -----------------------------------------
# Every step takes (a, snapshot, bit, handedness, tol): a is the Analysis
# of snapshot.local_points, the robot's memory bit (None for memoryless
# protocols), and the protocol's handedness and tolerance.

def visit_all_chirality_step(a: Analysis, snapshot, bit, handedness: str,
                             tol: Tolerance) -> Point:
    """Move to the successor of the own position under the shared sweep
    order."""
    order = order_with_chirality(a, handedness, tol)
    return a[order.successor(snapshot.own_index)]


def move_all_no_chirality_step(a: Analysis, snapshot, bit, handedness: str,
                               tol: Tolerance) -> Point:
    """One-round total relocation without a shared clockwise notion."""
    own = snapshot.own_index
    p = a[own]
    if a.in_c_dot:
        raise NotOrderable("centered rotationally-symmetric configuration")
    rep = symmetry_report(a, tol)
    c = a.centroid
    if rep.is_central_symmetric:
        return c * 2.0 - p
    if not rep.mirror_axes:
        h = agree_chirality(a, tol)
        order = order_with_chirality(a, h, tol)
        return a[order.successor(own)]
    if 1 in rep.robot_counts_on_axes:
        raise NotOrderable("a symmetry axis carries exactly one robot")
    mine = [t for t, on in enumerate(a.axis_robots) if own in on]
    if mine:
        ax = rep.mirror_axes[mine[0]]
        u = orient_axis(a, ax, tol)
        on = sorted(a.axis_robots[mine[0]], key=lambda i: u.dot(a[i] - ax.point))
        return a[on[(on.index(own) + 1) % len(on)]]
    dists = sorted((abs(ax.direction.cross(p - ax.point)), t)
                   for t, ax in enumerate(rep.mirror_axes))
    if len(dists) == 1 or tol.gt(dists[1][0], dists[0][0]):
        ax = rep.mirror_axes[dists[0][1]]
        v = p - ax.point
        d = ax.direction
        return ax.point + d * (2.0 * d.dot(v)) - v
    return c * 2.0 - p


def visit_all_no_chirality_step(a: Analysis, snapshot, bit, handedness: str,
                                tol: Tolerance) -> Point:
    order = order_without_chirality(a, tol)
    return a[order.successor(snapshot.own_index)]


def voting_visit_all_step(a: Analysis, snapshot, bit, handedness: str,
                          tol: Tolerance) -> Point:
    """Break a centered configuration by electing an inner-circle vertex
    from the visible frame directions; otherwise fall back to the plain
    shared sweep."""
    if not a.in_c_dot:
        return visit_all_chirality_step(a, snapshot, bit, handedness, tol)
    if snapshot.visible_frames is None:
        raise ValueError("voting needs the frame directions in the snapshot")
    leader = voting_elect(a, snapshot.visible_frames, tol)
    order = order_from_leader(a, leader, tol)
    return a[order.successor(snapshot.own_index)]


def one_bit_step(a: Analysis, snapshot, bit: int, handedness: str,
                 tol: Tolerance) -> tuple[Point, int]:
    """Two-round cadence: centered rounds broadcast a pivot through the
    movements of the central robot and the remembered leader; off-center
    rounds invert those movements and advance everyone one slot along the
    pivot-anchored cyclic order.  Returns (destination, new bit)."""
    own = snapshot.own_index
    centered = a.in_c_dot
    if not centered and bit == 0:
        order = order_with_chirality(a, handedness, tol)
        return a[order.successor(own)], 0
    if centered:
        if a.center_index == own:
            dest, _pivot = compute_movement_central(a, handedness, tol)
            return dest, 1
        if bit == 0:
            return a[own], 1
        return compute_movement_not_central(a, own, handedness, tol), 1
    mark = reconstruct(a, handedness, tol)
    order = order_from_leader(mark.reconstructed, mark.pivot_index, tol)
    new_b = 1 if own == mark.leader_index else 0
    return mark.reconstructed[order.successor(own)], new_b


# --- protocol registry ----------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """A named Compute rule plus the capabilities it assumes.

    `step(analysis, snapshot, bit, handedness, tol)` returns a destination
    in the snapshot's frame, or (destination, new bit) with `needs_memory`.
    """

    name: str
    step: Callable
    needs_memory: bool = False
    needs_visible_frames: bool = False
    min_robots: int = 2
    handedness: str = CCW
    tol: Tolerance = DEFAULT_TOL

    def compute(self, snapshot, bit: int | None = None):
        analysis = Analysis(snapshot.local_points, self.tol)
        return self.step(analysis, snapshot, bit, self.handedness, self.tol)


PROTOCOL_IDS = (
    "VisitAllChirality",
    "MoveAllNoChirality",
    "VisitAllNoChirality",
    "VotingVisitAll",
    "OneBitVisitAll",
)


def make_protocol(protocol_id: str, handedness: str = CCW,
                  tol: Tolerance = DEFAULT_TOL) -> Protocol:
    table = {
        "VisitAllChirality": dict(step=visit_all_chirality_step, min_robots=3),
        "MoveAllNoChirality": dict(step=move_all_no_chirality_step, min_robots=2),
        "VisitAllNoChirality": dict(step=visit_all_no_chirality_step, min_robots=3),
        "VotingVisitAll": dict(step=voting_visit_all_step, min_robots=3,
                               needs_visible_frames=True),
        "OneBitVisitAll": dict(step=one_bit_step, min_robots=3, needs_memory=True),
    }
    if protocol_id not in table:
        raise ValueError(f"unknown protocol {protocol_id!r}; choose from {PROTOCOL_IDS}")
    return Protocol(name=protocol_id, handedness=handedness, tol=tol, **table[protocol_id])
