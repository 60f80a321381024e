"""Shared cyclic orders on configurations.

Everything here answers one question: can all robots, each seeing the
world in its own frame, deterministically agree on the same cyclic
sequence of positions?  The constructions are sweep orders around the
centroid, canonical rotations of radius/gap signatures, axis-oriented
side splits, and frame-direction voting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from operator import itemgetter
from typing import Sequence

from .errors import (
    DegenerateReference,
    InvalidLeader,
    MirrorSymmetric,
    NotOrderable,
    VoteTie,
)
from .geometry import (
    CCW,
    CW,
    DEFAULT_TOL,
    HANDEDNESSES,
    TWO_PI,
    Point,
    Tolerance,
    columns,
    norm_angle,
    offsets,
    sweep_angle_xy,
)
from .symmetry import BLOCKING_AXES, CENTERED, Analysis, Axis, analyze, require_distinct


@dataclass(frozen=True, eq=False)
class CyclicOrder:
    """A cyclic sequence of point indices.  Two orders are equal when one
    is a rotation of the other."""

    seq: tuple[int, ...]

    def __eq__(self, other):
        if not isinstance(other, CyclicOrder):
            return NotImplemented
        if len(self.seq) != len(other.seq):
            return False
        if len(self.seq) == 0:
            return True
        return self.canonical().seq == other.canonical().seq

    def __hash__(self):
        return hash(self.canonical().seq)

    def canonical(self) -> "CyclicOrder":
        if not self.seq:
            return self
        k = self.seq.index(min(self.seq))
        return CyclicOrder(self.seq[k:] + self.seq[:k])

    def successor(self, i: int) -> int:
        k = self.seq.index(i)
        return self.seq[(k + 1) % len(self.seq)]

    def __len__(self):
        return len(self.seq)


@dataclass(frozen=True)
class VoteTally:
    polygon: tuple[int, ...]  # inner-polygon vertex indices, ccw
    votes: tuple[int, ...]    # one count per polygon vertex


def _cmp_seq(a: Sequence[float], b: Sequence[float], tol: Tolerance) -> int:
    for x, y in zip(a, b):
        c = tol.cmp(x, y)
        if c != 0:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def _check_handedness(handedness: str) -> None:
    if handedness not in HANDEDNESSES:
        raise ValueError(f"handedness must be one of {HANDEDNESSES}, got {handedness!r}")


_BY_ANGLE_DIST, _BY_DIST = itemgetter(0, 1), itemgetter(1)


def _ray_groups(vecs: Sequence[tuple[float, float, float]], idxs: Sequence[int],
                handedness: str, tol: Tolerance) -> list[list[int]]:
    """Indices grouped by ray from c, groups in sweep order for the given
    handedness, each sorted by increasing distance from c, where vecs holds
    every point's `offsets` from c.  Runs with the operation order of
    `Tolerance.ray_aligned`; the heading is `norm_angle` of the atan2, and
    for CW `norm_angle` of its negation, written out without the fmod,
    which is exact and so leaves an angle within 2*pi unchanged."""
    eps = tol.eps
    atan2 = math.atan2
    cw = handedness != CCW
    rows = []
    for i in idxs:
        vx, vy, d = vecs[i]
        th = atan2(vy, vx)
        if th < 0.0:
            th += TWO_PI
            if th >= TWO_PI:  # a tiny negative angle rounds up to 2*pi
                th -= TWO_PI
        if cw:
            th = -th
            if th < 0.0:
                th += TWO_PI
                if th >= TWO_PI:
                    th -= TWO_PI
        rows.append((th, d, i, vx, vy))
    rows.sort(key=_BY_ANGLE_DIST)
    groups: list[list[tuple]] = []
    for row in rows:
        _, d, _, vx, vy = row
        if (groups and rd > eps and d > eps and rx * vx + ry * vy > 0.0
                and abs(rx * vy - ry * vx) <= eps * rd * d):
            groups[-1].append(row)
        else:
            groups.append([row])
            rd, rx, ry = d, vx, vy  # the new group's first row, read from the next row on
    if len(groups) > 1:
        _, ud, _, ux, uy = groups[0][0]
        if (ud > eps and rd > eps and ux * rx + uy * ry > 0.0
                and abs(ux * ry - uy * rx) <= eps * ud * rd):
            groups.insert(0, groups.pop() + groups.pop(0))
    return [[row[2] for row in sorted(g, key=_BY_DIST)] if len(g) > 1 else [g[0][2]]
            for g in groups]


def _signature(vecs: Sequence[tuple[float, float, float]], groups: Sequence[Sequence[int]],
               handedness: str, eps: float) -> list[float]:
    """Radius and angular gap to the next ray, swept in the given
    handedness, for each point along the cyclic sweep, laid end to end, read
    from vecs, every point's `offsets`.  A gap is `sweep_angle_xy` from a
    group's nearest robot to the next one's, so it is zero within a ray and
    between such robots aligned within eps.  The sequence determines the
    configuration up to rotation."""
    reps = [vecs[g[0]] for g in groups]
    sig: list[float] = []
    for t, g in enumerate(groups):
        for i in g:
            sig += (vecs[i][2], 0.0)
        if len(reps) == 1:
            sig[-1] = 2.0 * math.pi
        else:
            u, v = reps[t], reps[(t + 1) % len(reps)]
            if handedness != CCW:  # the CCW sweep back from v to u
                u, v = v, u
            sig[-1] = sweep_angle_xy(*u, *v, CCW, eps)
    return sig


def least_rotations(flat: Sequence[float], width: int, tol: Tolerance) -> list[int]:
    """Every start of a lexicographically least rotation, within eps, of a
    cyclic sequence of width-float records laid end to end in flat.

    Equality within eps is not transitive, so the result depends on the
    scan: it goes up from start 0, moves to a start only when its rotation
    is smaller beyond eps, and returns, in increasing order, the starts
    whose rotations tie the one it ends on.
    """
    m = len(flat) // width

    def rot(s: int) -> list[float]:
        return flat[width * s:] + flat[:width * s]

    best = 0
    for s in range(1, m):
        if _cmp_seq(rot(s), rot(best), tol) < 0:
            best = s
    return [s for s in range(m) if _cmp_seq(rot(s), rot(best), tol) == 0]


def order_with_chirality(points: Sequence[Point], handedness: str = CCW,
                         tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    """Cyclic order by sweeping a ray about the centroid in the given
    handedness, rays ordered by angle and tied by distance.

    A centroid-occupying point is inserted right before the canonical
    signature rotation start.  Identical for every observer sharing the
    handedness; independent of frame rotation and scale.
    """
    a = analyze(points, tol)
    _check_handedness(handedness)
    require_distinct(a, tol)
    CENTERED.check(a)
    c = a.centroid
    vecs = offsets(a, c)
    center_idxs = [i for i, (_, _, d) in enumerate(vecs) if d <= tol.eps]
    rest = ([i for i, (_, _, d) in enumerate(vecs) if d > tol.eps] if center_idxs
            else range(len(vecs)))
    groups = _ray_groups(vecs, rest, handedness, tol)
    flat = [i for g in groups for i in g]
    if not center_idxs or not rest:
        return CyclicOrder(tuple(flat + center_idxs))
    starts = least_rotations(_signature(vecs, groups, handedness, tol.eps), 2, tol)
    if len(starts) > 1:
        raise NotOrderable("signature is rotationally periodic, no canonical start")
    s = starts[0]
    return CyclicOrder(tuple(flat[s:] + flat[:s] + center_idxs))


# --- chirality agreement -------------------------------------------------

def agree_chirality(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> str:
    """Pick a handedness from geometry alone.

    Requires a mirror-asymmetric configuration.  The rule: key every
    off-centroid robot by its distance from the centroid and the smaller of
    its ccw and cw scans of the whole configuration, each starting at the
    robot's ray; the least key, ties going to the first robot, keeps the
    handedness of its smaller scan.  Every observer lands on the same
    answer, and a mirrored observer lands on the opposite one, which is
    exactly what a shared clockwise notion needs.  Each direction is swept
    once: a robot's scan is that sweep's signature rotated to the start of
    its ray group, the floats a sweep from the robot would give.
    """
    a = analyze(points, tol)
    if a.mirror_axes:
        raise MirrorSymmetric("a mirror-symmetric configuration has no canonical handedness")
    c = a.centroid
    vecs = offsets(a, c)
    idxs = [i for i, (_, _, d) in enumerate(vecs) if d > tol.eps]
    if not idxs:
        raise MirrorSymmetric("no off-centroid points to orient by")

    def scans(handedness: str) -> dict[int, list[float]]:
        groups = _ray_groups(vecs, idxs, handedness, tol)
        sig = _signature(vecs, groups, handedness, tol.eps)
        out: dict[int, list[float]] = {}
        s = 0
        for g in groups:
            out.update(dict.fromkeys(g, sig[s:] + sig[:s]))
            s += 2 * len(g)
        return out

    ccw, cw = scans(CCW), scans(CW)

    def key(i: int) -> tuple[float, list[float], int]:
        """Radius, the smaller of the robot's ccw and cw scans, and the
        sign of their comparison."""
        turn = _cmp_seq(ccw[i], cw[i], tol)
        return (vecs[i][2], ccw[i] if turn <= 0 else cw[i], turn)

    def cmp_keyed(a, b):
        r = tol.cmp(a[0], b[0])
        return r if r != 0 else _cmp_seq(a[1], b[1], tol)

    *_, turn = min((key(i) for i in idxs), key=cmp_to_key(cmp_keyed))
    if turn == 0:
        raise MirrorSymmetric("both scan directions read identically")
    return CCW if turn < 0 else CW


def orient_axis(points: Sequence[Point], axis: Axis, tol: Tolerance = DEFAULT_TOL) -> Point:
    """Canonical orientation for a mirror axis: of the two unit directions,
    keep the one whose sorted (along-axis, off-axis distance) profile is
    lexicographically smaller.  A tie would force a second perpendicular
    axis, which callers exclude.  Runs on raw floats with the operation
    order of `u.dot(p - c)` and `u.cross(p - c)`, each p - c taken once."""
    cx, cy = axis.point.x, axis.point.y
    vecs = [(x - cx, y - cy) for x, y in zip(*columns(points))]

    def profile(ux: float, uy: float) -> list[float]:
        rows = sorted((ux * vx + uy * vy, abs(ux * vy - uy * vx)) for vx, vy in vecs)
        return [f for row in rows for f in row]

    u = axis.direction
    cmp = _cmp_seq(profile(u.x, u.y), profile(-u.x, -u.y), tol)
    if cmp == 0:
        raise NotOrderable("axis orientation is ambiguous")
    return u if cmp < 0 else -u


def order_without_chirality(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    """Cyclic order computable without a shared clockwise notion.

    No axes: derive a handedness from the asymmetry and sweep.  Exactly
    one axis with no point on it: orient the axis, split by side, sort
    each side by (along-axis coordinate, distance from axis), concatenate.
    Anything else is the BLOCKING_AXES obstruction.  The side split and
    the sort keys run on raw floats with the operation order of
    `u.cross(p - c)` and `u.dot(p - c)`.
    """
    a = analyze(points, tol)
    require_distinct(a, tol)
    CENTERED.check(a)
    axes = a.mirror_axes
    if not axes:
        return order_with_chirality(a, agree_chirality(a, tol), tol)
    BLOCKING_AXES.check(a)
    u = orient_axis(a, axes[0], tol)
    ux, uy = u.x, u.y
    c = axes[0].point
    cx, cy = c.x, c.y
    crosses: list[float] = []
    keys: list[tuple[float, float]] = []
    for x, y in zip(a.xs, a.ys):
        vx, vy = x - cx, y - cy
        cross = ux * vy - uy * vx
        crosses.append(cross)
        keys.append((ux * vx + uy * vy, abs(cross)))
    side_a = sorted((i for i, cr in enumerate(crosses) if cr > 0.0), key=keys.__getitem__)
    side_b = sorted((i for i, cr in enumerate(crosses) if cr <= 0.0), key=keys.__getitem__)
    return CyclicOrder(tuple(side_a + side_b))


# --- voting --------------------------------------------------------------

def inner_polygon(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Indices of the innermost ring about the center of the smallest
    enclosing circle, in ccw angular order: the angle of each one's row in
    the analysis."""
    a = analyze(points, tol)
    if len(points) < 3:
        raise DegenerateReference("inner polygon needs at least 3 points")
    if not a.layers:
        raise DegenerateReference("all points coincide with the center")
    return tuple(sorted(a.layers[0].indices,
                        key=lambda i: norm_angle(math.atan2(a.rows[i][1], a.rows[i][0]))))


def vote_tally(points: Sequence[Point], x_dirs: Sequence[Point],
               tol: Tolerance = DEFAULT_TOL) -> VoteTally:
    a = analyze(points, tol)
    polygon = a.inner_polygon
    counts = {v: 0 for v in polygon}
    for v in _votes(a, polygon, x_dirs):
        counts[v] += 1
    return VoteTally(polygon=polygon, votes=tuple(counts[v] for v in polygon))


def _votes(a: Analysis, polygon: Sequence[int], x_dirs: Sequence[Point]) -> list[int]:
    """For each frame direction, the polygon vertex first met sweeping clockwise
    from it about the center: exact alignment wins, sub-eps ties go to (x, y)."""
    eps, xs, ys, rows = a.tol.eps, a.xs, a.ys, a.rows
    vecs = [(rows[v], v) for v in polygon]
    out = []
    for dx, dy in zip(*columns(x_dirs)):
        dn = math.hypot(dx, dy)
        scored = [(sweep_angle_xy(dx, dy, dn, *vec, CW, eps), v) for vec, v in vecs]
        best_a = min(s for s, _ in scored)
        cluster = [(s, v) for s, v in scored if s <= best_a + eps]
        zero = [v for s, v in cluster if s == 0.0]
        if zero:
            out.append(min(zero, key=lambda v: (xs[v], ys[v])))
        else:
            out.append(min(cluster, key=lambda sv: (xs[sv[1]], ys[sv[1]]))[1])
    return out


def voting_elect(points: Sequence[Point], x_dirs: Sequence[Point],
                 tol: Tolerance = DEFAULT_TOL) -> int:
    """Leader vertex: the inner-polygon vertex starting the clockwise
    reading of vote counts that is lexicographically maximal.  Raises
    VoteTie when the count vector is rotationally periodic."""
    tally = vote_tally(points, x_dirs, tol)
    cw = tally.polygon[::-1]
    counts = list(tally.votes[::-1])
    m = len(cw)
    readings = [tuple(counts[(s + j) % m] for j in range(m)) for s in range(m)]
    best = max(readings)
    winners = [s for s in range(m) if readings[s] == best]
    if len(winners) > 1:
        raise VoteTie(f"vote vector {counts} is rotationally periodic")
    return cw[winners[0]]


def order_from_leader(points: Sequence[Point], leader: int,
                      tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    """Cyclic order anchored at a leader point: non-center points sorted by
    (clockwise angle from the ray center->leader, then radius), with the
    center point appended last."""
    a = analyze(points, tol)
    eps = tol.eps
    vecs = a.rows
    ux, uy, un = vecs[leader]
    if un <= eps:
        raise InvalidLeader("leader must not occupy the center")
    center_idxs = [i for i, (_, _, d) in enumerate(vecs) if d <= eps]
    rest = [i for i in range(len(points)) if i not in center_idxs]
    rest.sort(key=lambda i: (sweep_angle_xy(ux, uy, un, *vecs[i], CW, eps), vecs[i][2]))
    return CyclicOrder(tuple(rest + center_idxs))
