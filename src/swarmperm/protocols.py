"""Robot-side decision rules.

Each protocol is a pure function from a local snapshot and a memory bit
to a destination in the same local coordinates and a new bit, which only
the one-bit protocol changes.  The heavy machinery lives in the
centered-symmetric case: the central robot and the persistent leader
exchange information through carefully quantized displacements, and
every robot can invert those displacements to recover the underlying
configuration, the leader, and a pivot point that anchors a shared order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import (
    AmbiguousLayering,
    DecodeFailure,
    EmptyConfiguration,
    InvalidCaller,
    InvalidFrame,
    InvalidHop,
    NotCentral,
    NotOrderable,
    ReconstructFailure,
    SwarmError,
)
from .geometry import (
    CCW,
    CW,
    DEFAULT_TOL,
    Point,
    Points,
    Tolerance,
    aligned,
    columns,
    concentric_decomposition,
    enclosing_circle_xy,
    first_coincident_pair,
    offsets,
    sweep_angle_xy,
)
from .ordering import (
    least_rotations,
    order_from_leader,
    order_with_chirality,
    order_without_chirality,
    orient_axis,
    voting_elect,
)
from .symmetry import (BLOCKING_AXES, CENTERED, ONE_ROBOT_AXIS, Analysis, Obstruction,
                       analyze, require_distinct)

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
    if not math.isfinite(x):  # round() would raise an untyped error
        raise DecodeFailure(f"value {e} is outside every guard band (m={m})")
    # nearest codeword; round() alone can tip over at an exact band edge
    i = min(max(round(x), 0), m - 1)
    best = min((j for j in (i - 1, i, i + 1) if 0 <= j < m),
               key=lambda j: abs(e - encode_hop(j, m)))
    guard = 1.0 / (4.0 * (m + 1))
    if abs(e - encode_hop(best, m)) > guard + 1e-12:
        raise DecodeFailure(f"value {e} is outside every guard band (m={m})")
    return best


def _swept_order(points: Sequence[Point], idxs: Sequence[int], c: Point,
                 start: tuple[float, float, float], handedness: str,
                 tol: Tolerance) -> list[int]:
    """idxs ordered by the angle swept about c, in the given handedness, from
    the start ray (a vector from c with its norm; +x is (1.0, 0.0, 1.0)) to
    each point, ties to (x, y): a point on the start ray comes first."""
    xs, ys = columns(points)
    vecs = dict(zip(idxs, offsets(Points([xs[v] for v in idxs], [ys[v] for v in idxs]), c)))
    keys = {v: (sweep_angle_xy(*start, *vecs[v], handedness, tol.eps), xs[v], ys[v]) for v in idxs}
    return sorted(idxs, key=keys.__getitem__)


def select_pivot(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int:
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
    ring = list(reversed(a.inner_polygon))
    us = [a.rows[i] for i in ring]
    gaps = [sweep_angle_xy(*u, *v, CW, tol.eps) for u, v in zip(us, us[1:] + us[:1])]
    candidates = [ring[s] for s in least_rotations(gaps, 1, tol)]
    return _swept_order(a, candidates, a.sec.center, (1.0, 0.0, 1.0), CW, tol)[0]


def _centered_prologue(points: Sequence[Point], tol: Tolerance,
                       own: int | None = None) -> tuple[int, Point, int]:
    """The center robot's index and position and the pivot, where both
    centered movements start; own is the leader, None for the center."""
    a = analyze(points, tol)
    if not a.in_c_dot:
        mover = "central" if own is None else "leader"
        raise NotCentral(f"{mover} movement requires a centered symmetric configuration")
    ci = a.center_index
    if own == ci:
        raise InvalidCaller("the central robot must use the central movement")
    return ci, points[ci], select_pivot(a, tol)


def compute_movement_central(points: Sequence[Point],
                             tol: Tolerance = DEFAULT_TOL) -> tuple[Point, int]:
    """Destination of the central robot in a centered configuration, plus
    the pivot index its displacement direction encodes.

    Three robots: rise perpendicular to the line by half its length, on
    the side that puts the pivot first along the clockwise arc.  More
    robots: slide toward the pivot by one eighth of the innermost radius.
    """
    ci, c, pivot = _centered_prologue(points, tol)
    n = len(points)
    if n == 3:
        e1, e2 = [i for i in range(n) if i != ci]
        seg = points[e2] - points[e1]
        s_len = seg.norm()
        normal = seg.unit().rotated(math.pi / 2.0)
        for sign in (1.0, -1.0):
            apex = c + normal * (sign * s_len / 2.0)
            [u] = offsets([apex], c)
            # all three points sit at distance s/2 from c, so c is the arc center
            if _swept_order(points, (e1, e2), c, u, CW, tol)[0] == pivot:
                return apex, pivot
        raise InvalidHop("no perpendicular side makes the pivot first clockwise")
    dest = c + (points[pivot] - c) * 0.125
    return dest, pivot


def compute_movement_not_central(points: Sequence[Point], own: int,
                                 tol: Tolerance = DEFAULT_TOL) -> Point:
    """Destination of the non-central leader in a centered configuration.

    The leader encodes the clockwise hop count from a reference vertex to
    its pivot into its own displacement: a slide direction for n=3, a
    radial retreat fraction, an angular offset, or a boundary-pair
    stretch otherwise, depending on where the leader sits.
    """
    ci, c, pivot = _centered_prologue(points, tol, own)
    n = len(points)
    if n == 3:
        u = (points[own] - c).unit()
        other = next(i for i in range(n) if i not in (own, ci))
        s_len = points[own].dist(points[other])
        delta = s_len / 16.0
        # sliding away from the old midpoint drags the new midpoint toward
        # the own side; toward it points at the opposite endpoint
        return points[own] + u * (delta if pivot == own else -delta)
    rings = concentric_decomposition(points, c, tol)
    p1 = rings[0].indices
    [u] = offsets([points[own]], c)
    e = encode_hop(_swept_order(points, p1, c, u, CW, tol).index(pivot), len(p1))
    outer = rings[-1]
    on_outer = own in outer.indices
    if on_outer and len(outer.indices) == 2:
        rx = next(i for i in outer.indices if i != own)
        u = (points[own] - points[rx]).unit()
        return points[rx] + u * ((2.0 + e) * outer.radius)
    if on_outer and len(outer.indices) == 3:
        others = [i for i in outer.indices if i != own]
        ahead = _swept_order(points, others, c, u, CCW, tol)[0]
        return c + (points[ahead] - c).rotated(-e * THIRD_TURN)
    rho = points[own].dist(c)
    below = [0.0] + [layer.radius for layer in rings if tol.lt(layer.radius, rho)]
    x = rho - max(below)
    return c + (points[own] - c).unit() * (rho - e * x / 2.0)


# --- reconstruction ------------------------------------------------------

def _restored(points: Sequence[Point], moves: dict[int, Point],
              tol: Tolerance) -> Analysis | None:
    """The analysis of a copy of the points' columns with each robot of
    moves put back, when those are distinct and centered symmetric;
    otherwise None, also when the layering behind that test is ambiguous."""
    xs, ys = map(list, columns(points))
    for i, p in moves.items():
        xs[i], ys[i] = p.x, p.y
    ra = Analysis(Points(xs, ys), tol)
    if first_coincident_pair(ra, tol) is not None:
        return None
    try:
        return ra if ra.in_c_dot else None
    except AmbiguousLayering:
        return None


def _eighth_out(points: Analysis, q: int, ra: Analysis, c: Point, tol: Tolerance) -> list[int]:
    """The vertices of ra's inner polygon on robot q's ray from c, when q
    stands an eighth of ra's innermost radius from c, where the central
    robot's slide toward the pivot puts it; otherwise none."""
    p1 = ra.inner_polygon
    (ux, uy, nu), *vecs = offsets(Points([points.xs[q], *(ra.xs[v] for v in p1)],
                                         [points.ys[q], *(ra.ys[v] for v in p1)]), c)
    if not tol.eq(nu, vecs[0][2] / 8.0):
        return []
    return [v for v, (vx, vy, nv) in zip(p1, vecs)
            if aligned(ux * vx + uy * vy, ux * vy - uy * vx, nu, nv, tol.eps)]


def _finish_mark(points: Analysis, leader: int, origin: Point, e: float,
                 c: Point, case: str, tol: Tolerance) -> LeaderMark | None:
    """Shared tail of the two-mover cases, the leader put back at origin:
    locate and snap the displaced central robot, layering the rest from
    column slices, validate the restored configuration, and decode the pivot
    from the leader's encoded fraction e.  No slot count below 2.5e11
    decodes an e outside (1/2, 1), so such an e returns None first."""
    if not 0.5 < e < 1.0:
        return None
    xs, ys = columns(points)
    try:
        rings = concentric_decomposition(
            Points(xs[:leader] + xs[leader + 1:], ys[:leader] + ys[leader + 1:]), c, tol)
    except AmbiguousLayering:
        return None
    if not rings or len(rings[0].indices) != 1:
        return None
    qc = rings[0].indices[0]
    qc += qc >= leader
    ra = _restored(points, {leader: origin, qc: c}, tol)
    if ra is None or not _eighth_out(points, qc, ra, c, tol):
        return None
    p1 = ra.inner_polygon
    try:
        nhop = decode_hop(e, len(p1))
    except (DecodeFailure, InvalidHop):
        return None
    [u] = offsets([origin], c)
    return LeaderMark(leader, _swept_order(ra, p1, c, u, CW, tol)[nhop], ra, case)


def _attempts_three(points: Sequence[Point], tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    a, b = max(pairs, key=lambda ij: points[ij[0]].dist(points[ij[1]]))
    apex = next(i for i in range(3) if i not in (a, b))
    base_dir = (points[b] - points[a]).unit()
    foot = points[a] + base_dir * base_dir.dot(points[apex] - points[a])
    h = points[apex].dist(foot)
    e_len = points[a].dist(points[b])
    if tol.eq(h, e_len / 2.0):
        ra = _restored(points, {apex: foot}, tol)
        if ra is not None:
            [u] = offsets([points[apex]], foot)
            first = _swept_order(points, (a, b), foot, u, CW, tol)[0]
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
        ra = _restored(points, {apex: foot, moved: orig}, tol)
        if ra is None:
            continue
        pivot = moved if d_m > h else fixed
        out.append(LeaderMark(moved, pivot, ra, "L1"))
    return out


def _attempts_many(points: Analysis, tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []

    def finish(leader: int, origin: Point, e: float, c: Point, case: str) -> None:
        if mark := _finish_mark(points, leader, origin, e, c, case, tol):
            out.append(mark)

    sec, rows = points.sec, points.rows
    boundary = [i for i, (_, _, d) in enumerate(rows) if tol.eq(d, sec.radius)]

    # stretched boundary pair
    if len(boundary) == 2:
        xs, ys = points.xs, points.ys
        c2 = Point(*enclosing_circle_xy(xy for i, xy in enumerate(zip(xs, ys)) if i not in boundary)[:2])
        d1, d2 = (math.hypot(xs[i] - c2.x, ys[i] - c2.y) for i in boundary)
        if not tol.eq(d1, d2):
            lead, anchor = boundary if d1 > d2 else boundary[::-1]
            d_anchor = min(d1, d2)
            ux, uy = xs[lead] - xs[anchor], ys[lead] - ys[anchor]
            vx, vy = c2.x - xs[anchor], c2.y - ys[anchor]
            span = math.hypot(ux, uy)
            if aligned(ux * vx + uy * vy, ux * vy - uy * vx, span, d_anchor, tol.eps):
                origin = c2 * 2.0 - points[anchor]
                finish(lead, origin, span / d_anchor - 2.0, c2, "L2.3")  # d_anchor > eps

    try:
        rings = points.layers
    except AmbiguousLayering:
        return out
    c = sec.center

    # outermost triple knocked out of its equal spacing
    outer = rings[-1]
    if len(outer.indices) == 3:
        ring = _swept_order(points, outer.indices, c, (1.0, 0.0, 1.0), CCW, tol)
        gaps = [sweep_angle_xy(*rows[ring[t]], *rows[ring[(t + 1) % 3]], CCW, tol.eps)
                for t in range(3)]
        if not all(tol.eq(g, THIRD_TURN) for g in gaps):
            t_min = min(range(3), key=lambda t: gaps[t])
            others = sorted(gaps[:t_min] + gaps[t_min + 1:])
            if tol.eq(others[0], THIRD_TURN):
                lead = ring[t_min]
                ahead = ring[(t_min + 1) % 3]
                e = gaps[t_min] / THIRD_TURN
                origin = c + (points[ahead] - c).rotated(-THIRD_TURN)
                finish(lead, origin, e, c, "L2.2")

    singles = [layer for layer in rings if len(layer.indices) == 1]

    # leader parked between two layers
    for ql_layer in singles[1:]:
        ql = ql_layer.indices[0]
        rho_l = rows[ql][2]
        clean = [0.0] + [layer.radius for layer in rings if layer not in (singles[0], ql_layer)]
        above = [r for r in clean if tol.gt(r, rho_l)]
        if not above:
            continue
        rho_above = min(above)
        rho_below = max(r for r in clean if tol.lt(r, rho_l))
        x = rho_above - rho_below
        if x <= tol.eps:
            continue
        e = 2.0 * (rho_above - rho_l) / x
        origin = c + (points[ql] - c).unit() * rho_above
        finish(ql, origin, e, c, "L2.1")

    # only the central robot moved
    if singles:
        q = singles[0].indices[0]
        ra = _restored(points, {q: c}, tol)
        hits = [] if ra is None else _eighth_out(points, q, ra, c, tol)
        if len(hits) == 1:
            out.append(LeaderMark(q, hits[0], ra, "C2"))
    return out


def reconstruct(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> LeaderMark:
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
    marks = _attempts_three(points, tol) if n == 3 else _attempts_many(a, tol)
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
# Every step takes (a, snapshot, bit): a is the Analysis of
# snapshot.local_points under the protocol's tolerance, which the step reads
# as a.tol, and bit is the robot's memory bit.  It returns (destination, new
# bit); memoryless steps return the bit they were given.  Clockwise is the
# snapshot's own clockwise: a swarm whose shared sense is the other one is
# the same run with every frame mirrored.

def visit_all_chirality_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    """Move to the successor of the own position under the shared sweep
    order."""
    order = order_with_chirality(a, CCW, a.tol)
    return a[order.successor(snapshot.own_index)], bit


def move_all_no_chirality_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    """One-round total relocation without a shared clockwise notion.

    After the centered guard the decision reads, in order: the duplicate
    check it shares with `symmetry_report`; central symmetry, the half turn
    about the centroid, which reflects every robot through the centroid; and
    only then the mirror axes and the robots on them, or, when there are
    none, the agreed sweep of `order_without_chirality`."""
    tol = a.tol
    own = snapshot.own_index
    p = a[own]
    CENTERED.check(a)
    require_distinct(a, tol)
    c = a.centroid
    if a.is_central_symmetric:
        return c * 2.0 - p, bit
    axes = a.mirror_axes
    if not axes:
        return a[order_without_chirality(a, tol).successor(own)], bit
    ONE_ROBOT_AXIS.check(a)
    mine = [t for t, on in enumerate(a.axis_robots) if own in on]
    if mine:
        ax = axes[mine[0]]
        u = orient_axis(a, ax, tol)
        on = sorted(a.axis_robots[mine[0]], key=lambda i: u.dot(a[i] - ax.point))
        return a[on[(on.index(own) + 1) % len(on)]], bit
    dists = sorted((abs(ax.direction.cross(p - ax.point)), t) for t, ax in enumerate(axes))
    if len(dists) == 1 or tol.gt(dists[1][0], dists[0][0]):
        ax = axes[dists[0][1]]
        v = p - ax.point
        d = ax.direction
        return ax.point + d * (2.0 * d.dot(v)) - v, bit
    return c * 2.0 - p, bit


def visit_all_no_chirality_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    order = order_without_chirality(a, a.tol)
    return a[order.successor(snapshot.own_index)], bit


def voting_visit_all_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    """Break a centered configuration by electing an inner-circle vertex
    from the visible frame directions; otherwise fall back to the plain
    shared sweep."""
    if not a.in_c_dot:
        return visit_all_chirality_step(a, snapshot, bit)
    if snapshot.visible_frames is None:
        raise InvalidFrame("voting needs the frame directions in the snapshot")
    leader = voting_elect(a, snapshot.visible_frames, a.tol)
    order = order_from_leader(a, leader, a.tol)
    return a[order.successor(snapshot.own_index)], bit


def one_bit_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    """Two-round cadence: centered rounds broadcast a pivot through the
    movements of the central robot and the remembered leader; off-center
    rounds invert those movements and advance everyone one slot along the
    pivot-anchored cyclic order."""
    tol = a.tol
    own = snapshot.own_index
    centered = a.in_c_dot
    if not centered and bit == 0:
        order = order_with_chirality(a, CCW, tol)
        return a[order.successor(own)], 0
    if centered:
        if a.center_index == own:
            dest, _pivot = compute_movement_central(a, tol)
            return dest, 1
        if bit == 0:
            return a[own], 1
        return compute_movement_not_central(a, own, tol), 1
    mark = reconstruct(a, tol)
    order = order_from_leader(mark.reconstructed, mark.pivot_index, tol)
    new_b = 1 if own == mark.leader_index else 0
    return mark.reconstructed[order.successor(own)], new_b


# --- protocol registry ----------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """A named Compute rule plus the capabilities it assumes, and its row of
    the paper's characterization: the obstructions it refuses.

    `step(analysis, snapshot, bit)` returns (destination in the snapshot's
    frame, new bit).  `tol` is the tolerance of every run of the protocol;
    the step reads it as `analysis.tol`.  The step's guards raise the
    refused obstructions; `swarmperm classify` and the demos read `refusal`.
    """

    name: str
    step: Callable
    refuses: tuple[Obstruction, ...] = ()
    needs_visible_frames: bool = False
    min_robots: int = 2
    tol: Tolerance = DEFAULT_TOL

    def compute(self, snapshot, bit: int) -> tuple[Point, int]:
        analysis = Analysis(snapshot.local_points, self.tol)
        return self.step(analysis, snapshot, bit)

    def refusal(self, a: Analysis) -> SwarmError | None:
        """The error a run of the protocol from configuration a stops with, by its row."""
        if len(a) < self.min_robots:
            return EmptyConfiguration(f"{self.name} needs at least {self.min_robots} robots")
        return next((NotOrderable(ob.message) for ob in self.refuses if ob.holds(a)), None)


_PROTOCOLS = {p.name: p for p in (
    Protocol("VisitAllChirality", visit_all_chirality_step, (CENTERED,), min_robots=3),
    Protocol("MoveAllNoChirality", move_all_no_chirality_step,
             (CENTERED, ONE_ROBOT_AXIS), min_robots=2),
    Protocol("VisitAllNoChirality", visit_all_no_chirality_step,
             (CENTERED, BLOCKING_AXES), min_robots=3),
    Protocol("VotingVisitAll", voting_visit_all_step, min_robots=3,
             needs_visible_frames=True),
    Protocol("OneBitVisitAll", one_bit_step, min_robots=3),
)}
PROTOCOL_IDS = tuple(_PROTOCOLS)


def make_protocol(protocol_id: str, tol: Tolerance = DEFAULT_TOL) -> Protocol:
    if protocol_id not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol_id!r}; choose from {PROTOCOL_IDS}")
    return replace(_PROTOCOLS[protocol_id], tol=tol)
