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
from typing import Sequence

from .errors import (
    CentroidQuery,
    DegenerateReference,
    DuplicatePoints,
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
    Point,
    Tolerance,
    angle_of,
    ccw_angle,
    first_coincident_pair,
    norm_angle,
)
from .symmetry import Axis, analyze


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


def _check_distinct(points: Sequence[Point], tol: Tolerance) -> None:
    if (hit := first_coincident_pair(points, tol)) is not None:
        raise DuplicatePoints(f"points {hit[0]} and {hit[1]} coincide within eps")


def _ray_groups(points: Sequence[Point], idxs: Sequence[int], c: Point,
                handedness: str, tol: Tolerance) -> list[list[int]]:
    """Indices grouped by ray from c, groups in sweep order for the given
    handedness, each group sorted by increasing distance from c."""

    def sweep_angle(v: Point) -> float:
        th = norm_angle(angle_of(v))
        return th if handedness == CCW else norm_angle(-th)

    ordered = sorted(idxs, key=lambda i: (sweep_angle(points[i] - c), points[i].dist(c)))
    groups: list[list[int]] = []
    reps: list[Point] = []
    for i in ordered:
        v = points[i] - c
        if groups and tol.ray_aligned(reps[-1], v):
            groups[-1].append(i)
        else:
            groups.append([i])
            reps.append(v)
    if len(groups) > 1 and tol.ray_aligned(reps[0], reps[-1]):
        merged = groups.pop() + groups.pop(0)
        reps.pop()
        merged.sort(key=lambda i: points[i].dist(c))
        groups.insert(0, merged)
    else:
        for g in groups:
            g.sort(key=lambda i: points[i].dist(c))
    return groups


def _group_gaps(points: Sequence[Point], groups: Sequence[Sequence[int]], c: Point,
                handedness: str) -> list[float]:
    """Angular gap from each group's ray to the next group's ray, swept in
    the given handedness."""
    reps = [points[g[0]] - c for g in groups]
    gaps = []
    for t in range(len(reps)):
        u, v = reps[t], reps[(t + 1) % len(reps)]
        if len(reps) == 1:
            gaps.append(2.0 * math.pi)
            continue
        a = ccw_angle(u, v) if handedness == CCW else ccw_angle(v, u)
        gaps.append(a)
    return gaps


def _signature_pairs(points: Sequence[Point], groups: Sequence[Sequence[int]], c: Point,
                     handedness: str) -> list[tuple[float, float]]:
    """Per-point (radius, angular gap to the next ray) pairs along the
    cyclic sweep; gap is zero between points sharing a ray.  The sequence
    determines the configuration up to rotation."""
    gaps = _group_gaps(points, groups, c, handedness)
    sig: list[tuple[float, float]] = []
    for t, g in enumerate(groups):
        for pos, i in enumerate(g):
            gap = gaps[t] if pos == len(g) - 1 else 0.0
            sig.append((points[i].dist(c), gap))
    return sig


def _flatten(pairs: Sequence[tuple[float, float]]) -> list[float]:
    out: list[float] = []
    for d, g in pairs:
        out.append(d)
        out.append(g)
    return out


def _canonical_rotation_start(pairs: Sequence[tuple[float, float]], tol: Tolerance) -> int:
    """Start index of the unique lexicographically smallest rotation of the
    signature, or NotOrderable when several rotations tie within eps."""
    m = len(pairs)
    flat = _flatten(pairs)

    def rot(s: int) -> list[float]:
        return flat[2 * s:] + flat[:2 * s]

    best = 0
    for s in range(1, m):
        if _cmp_seq(rot(s), rot(best), tol) < 0:
            best = s
    ties = [s for s in range(m) if s != best and _cmp_seq(rot(s), rot(best), tol) == 0]
    if ties:
        raise NotOrderable("signature is rotationally periodic, no canonical start")
    return best


def next_point(points: Sequence[Point], r_idx: int, handedness: str = CCW,
               tol: Tolerance = DEFAULT_TOL) -> int:
    """Successor of points[r_idx] under the rotating-ray sweep about the
    centroid: the nearest strictly-farther point on the own ray if any,
    else the closest point on the next ray in sweep direction.

    Points at the centroid are excluded from the scan.
    """
    a = analyze(points, tol)
    _check_handedness(handedness)
    c = a.centroid
    vr = points[r_idx] - c
    dr = vr.norm()
    if dr <= tol.eps:
        raise CentroidQuery("the sweep successor is undefined for the centroid point")
    same_ray: list[int] = []
    others: list[tuple[float, float, int]] = []
    for j in range(len(points)):
        if j == r_idx:
            continue
        vj = points[j] - c
        dj = vj.norm()
        if dj <= tol.eps:
            continue
        if tol.ray_aligned(vr, vj):
            same_ray.append(j)
        else:
            theta = ccw_angle(vr, vj)
            if handedness == CW:
                theta = 2.0 * math.pi - theta
            others.append((theta, dj, j))
    farther = [j for j in same_ray if tol.gt(points[j].dist(c), dr)]
    if farther:
        return min(farther, key=lambda j: points[j].dist(c))
    if others:
        return min(others)[2]
    if same_ray:  # wrap around the full sweep back onto the own ray
        return min(same_ray, key=lambda j: points[j].dist(c))
    raise NotOrderable("no other point to sweep to")


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
    _check_distinct(points, tol)
    if a.in_c_dot:
        raise NotOrderable("centered rotationally-symmetric configuration")
    c = a.centroid
    center_idxs = [i for i, p in enumerate(points) if tol.same_point(p, c)]
    rest = [i for i in range(len(points)) if i not in center_idxs]
    groups = _ray_groups(points, rest, c, handedness, tol)
    flat = [i for g in groups for i in g]
    if not center_idxs:
        return CyclicOrder(tuple(flat))
    pairs = _signature_pairs(points, groups, c, handedness)
    s = _canonical_rotation_start(pairs, tol)
    rotated = flat[s:] + flat[:s]
    return CyclicOrder(tuple(rotated + center_idxs))


# --- chirality agreement -------------------------------------------------

def _scan_signature(points: Sequence[Point], c: Point, rep: int, handedness: str,
                    tol: Tolerance, idxs: Sequence[int]) -> list[float]:
    groups = _ray_groups(points, idxs, c, handedness, tol)
    at = next(t for t, g in enumerate(groups) if rep in g)
    groups = list(groups[at:]) + list(groups[:at])
    return _flatten(_signature_pairs(points, groups, c, handedness))


def _rotation_orbits(points: Sequence[Point], idxs: Sequence[int], c: Point, k: int,
                     tol: Tolerance) -> list[list[int]]:
    if k <= 1:
        return [[i] for i in idxs]
    step = 2.0 * math.pi / k
    imap: dict[int, int] = {}
    for i in idxs:
        image = c + (points[i] - c).rotated(step)
        j = min(idxs, key=lambda t: points[t].dist(image))
        if points[j].dist(image) > tol.eps:
            raise NotOrderable("rotational order inconsistent with point matching")
        imap[i] = j
    orbits: list[list[int]] = []
    seen: set[int] = set()
    for i in idxs:
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        j = imap[i]
        while j != i:
            orbit.append(j)
            seen.add(j)
            j = imap[j]
        orbits.append(orbit)
    return orbits


def agree_chirality(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> str:
    """Pick a handedness from geometry alone.

    Requires a mirror-asymmetric configuration.  The rule: take the
    symmetry class nearest the centroid (ties by class size, then by its
    mirror-invariant signature), scan the whole configuration from one of
    its members both ways, and keep the handedness with the smaller
    signature.  Every observer lands on the same answer, and a mirrored
    observer lands on the opposite one, which is exactly what a shared
    clockwise notion needs.
    """
    a = analyze(points, tol)
    if a.mirror_axes:
        raise MirrorSymmetric("a mirror-symmetric configuration has no canonical handedness")
    c = a.centroid
    idxs = [i for i, p in enumerate(points) if not tol.same_point(p, c)]
    if not idxs:
        raise MirrorSymmetric("no off-centroid points to orient by")
    k = a.rotational_order
    orbits = _rotation_orbits(points, idxs, c, k, tol)

    def orbit_key(orbit: list[int]) -> tuple[float, int, list[float]]:
        rep = min(orbit)
        s1 = _scan_signature(points, c, rep, CCW, tol, idxs)
        s2 = _scan_signature(points, c, rep, CW, tol, idxs)
        sig = s1 if _cmp_seq(s1, s2, tol) <= 0 else s2
        return (points[rep].dist(c), len(orbit), sig)

    def cmp_keyed(a, b):
        (ra, na, siga), _ = a
        (rb, nb, sigb), _ = b
        c = tol.cmp(ra, rb)
        if c != 0:
            return c
        if na != nb:
            return -1 if na < nb else 1
        return _cmp_seq(siga, sigb, tol)

    keyed = [(orbit_key(o), o) for o in orbits]
    best = min(keyed, key=cmp_to_key(cmp_keyed))
    rep = min(best[1])
    s_ccw = _scan_signature(points, c, rep, CCW, tol, idxs)
    s_cw = _scan_signature(points, c, rep, CW, tol, idxs)
    cmp = _cmp_seq(s_ccw, s_cw, tol)
    if cmp == 0:
        raise MirrorSymmetric("both scan directions read identically")
    return CCW if cmp < 0 else CW


def orient_axis(points: Sequence[Point], axis: Axis, tol: Tolerance = DEFAULT_TOL) -> Point:
    """Canonical orientation for a mirror axis: of the two unit directions,
    keep the one whose sorted (along-axis, off-axis distance) profile is
    lexicographically smaller.  A tie would force a second perpendicular
    axis, which callers exclude."""
    c = axis.point

    def profile(u: Point) -> list[float]:
        rows = sorted((u.dot(p - c), abs(u.cross(p - c))) for p in points)
        return _flatten(rows)

    u = axis.direction
    cmp = _cmp_seq(profile(u), profile(-u), tol)
    if cmp == 0:
        raise NotOrderable("axis orientation is ambiguous")
    return u if cmp < 0 else -u


def order_without_chirality(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    """Cyclic order computable without a shared clockwise notion.

    No axes: derive a handedness from the asymmetry and sweep.  Exactly
    one axis with no point on it: orient the axis, split by side, sort
    each side by (along-axis coordinate, distance from axis), concatenate.
    Anything else is not orderable.
    """
    a = analyze(points, tol)
    _check_distinct(points, tol)
    if a.in_c_dot:
        raise NotOrderable("centered rotationally-symmetric configuration")
    axes = a.mirror_axes
    if not axes:
        return order_with_chirality(a, agree_chirality(a, tol), tol)
    if len(axes) == 1 and not a.axis_robots[0]:
        u = orient_axis(a, axes[0], tol)
        c = axes[0].point

        def key(i: int) -> tuple[float, float]:
            v = points[i] - c
            return (u.dot(v), abs(u.cross(v)))

        side_a = sorted((i for i in range(len(points)) if u.cross(points[i] - c) > 0.0), key=key)
        side_b = sorted((i for i in range(len(points)) if u.cross(points[i] - c) <= 0.0), key=key)
        return CyclicOrder(tuple(side_a + side_b))
    on_axis = sum(1 for on in a.axis_robots if on)
    raise NotOrderable(
        f"symmetry axes block an agreed cyclic order "
        f"(axes={len(axes)}, occupied axes={on_axis})")


# --- voting --------------------------------------------------------------

def inner_polygon(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Indices of the innermost non-degenerate circle about the center of
    the smallest enclosing circle, in ccw angular order."""
    a = analyze(points, tol)
    if len(points) < 3:
        raise DegenerateReference("inner polygon needs at least 3 points")
    c = a.sec.center
    for layer in a.layers:
        if layer.radius > tol.eps:
            return tuple(sorted(
                layer.indices,
                key=lambda i: norm_angle(angle_of(points[i] - c))))
    raise DegenerateReference("all points coincide with the center")


def _cw_angle_from(u: Point, v: Point, tol: Tolerance) -> float:
    if tol.ray_aligned(u, v):
        return 0.0
    return norm_angle(-ccw_angle(u, v))


def get_vote(points: Sequence[Point], polygon: Sequence[int], x_dir: Point,
             tol: Tolerance = DEFAULT_TOL) -> int:
    """The polygon vertex first met sweeping clockwise from the frame's
    x-direction anchored at the center.  Exact alignment wins outright;
    sub-eps angular ties fall back to the canonical point sort."""
    center = analyze(points, tol).sec.center
    scored = []
    for v in polygon:
        a = _cw_angle_from(x_dir, points[v] - center, tol)
        scored.append((a, v))
    best_a = min(a for a, _ in scored)
    cluster = [(a, v) for a, v in scored if a <= best_a + tol.eps]
    zero = [v for a, v in cluster if a == 0.0]
    if zero:
        return min(zero, key=lambda v: (points[v].x, points[v].y))
    return min(cluster, key=lambda av: (points[av[1]].x, points[av[1]].y))[1]


def vote_tally(points: Sequence[Point], x_dirs: Sequence[Point],
               tol: Tolerance = DEFAULT_TOL) -> VoteTally:
    a = analyze(points, tol)
    polygon = a.inner_polygon
    counts = {v: 0 for v in polygon}
    for d in x_dirs:
        counts[get_vote(a, polygon, d, tol)] += 1
    return VoteTally(polygon=polygon, votes=tuple(counts[v] for v in polygon))


def voting_elect(points: Sequence[Point], x_dirs: Sequence[Point],
                 tol: Tolerance = DEFAULT_TOL) -> int:
    """Leader vertex: the inner-polygon vertex starting the clockwise
    reading of vote counts that is lexicographically maximal.  Raises
    VoteTie when the count vector is rotationally periodic."""
    tally = vote_tally(points, x_dirs, tol)
    cw = tuple(reversed(tally.polygon))
    by_vertex = dict(zip(tally.polygon, tally.votes))
    counts = [by_vertex[v] for v in cw]
    m = len(cw)
    readings = [tuple(counts[(s + j) % m] for j in range(m)) for s in range(m)]
    best = max(readings)
    winners = [s for s in range(m) if readings[s] == best]
    if len(winners) > 1:
        raise VoteTie(f"vote vector {counts} is rotationally periodic")
    return cw[winners[0]]


def order_from_leader(points: Sequence[Point], leader: int,
                      tol: Tolerance = DEFAULT_TOL, handedness: str = CW) -> CyclicOrder:
    """Cyclic order anchored at a leader point: non-center points sorted by
    (clockwise angle from the ray center->leader, then radius), with the
    center point appended last."""
    a = analyze(points, tol)
    _check_handedness(handedness)
    c = a.sec.center
    u = points[leader] - c
    if u.norm() <= tol.eps:
        raise InvalidLeader("leader must not occupy the center")
    center_idxs = [i for i, p in enumerate(points) if tol.same_point(p, c)]
    rest = [i for i in range(len(points)) if i not in center_idxs]

    def ang(i: int) -> float:
        v = points[i] - c
        if handedness == CW:
            return _cw_angle_from(u, v, tol)
        return 0.0 if tol.ray_aligned(u, v) else ccw_angle(u, v)

    rest.sort(key=lambda i: (ang(i), points[i].dist(c)))
    return CyclicOrder(tuple(rest + center_idxs))
