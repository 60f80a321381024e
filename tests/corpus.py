"""Shared corpus generators and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: the circle
oracle enumerates pair/triple candidate circles, the symmetry oracles
test every candidate rotation angle and reflection axis by explicit
multiset matching.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from swarmperm import (
    CCW,
    CW,
    DEFAULT_TOL,
    Frame,
    NotOrderable,
    Point,
    Tolerance,
    centroid,
    classify,
    mirror_axes,
    robots_on_axis,
    smallest_enclosing_circle,
    symmetry_report,
)
from swarmperm.geometry import sweep_angle_xy

TWO_PI = 2.0 * math.pi


def sweep(u: Point, v: Point, handedness: str, tol: Tolerance) -> float:
    """sweep_angle_xy from ray u to ray v, each norm taken by Point.norm."""
    return sweep_angle_xy(u.x, u.y, u.norm(), v.x, v.y, v.norm(), handedness, tol.eps)


# --- random configurations ------------------------------------------------

def rand_points(rng: random.Random, n: int, lo: float = -5.0, hi: float = 5.0,
                min_sep: float = 0.15) -> list[Point]:
    pts: list[Point] = []
    while len(pts) < n:
        p = Point(rng.uniform(lo, hi), rng.uniform(lo, hi))
        if all(p.dist(q) >= min_sep for q in pts):
            pts.append(p)
    return pts


def rand_non_c_dot(rng: random.Random, n: int) -> list[Point]:
    while True:
        pts = rand_points(rng, n)
        if not classify(pts).in_c_dot:
            return pts


def _ring(c: Point, r: float, base: float, k: int) -> list[Point]:
    return [c + Point(math.cos(base + TWO_PI * j / k),
                      math.sin(base + TWO_PI * j / k)) * r for j in range(k)]


def rand_c_dot(rng: random.Random, n: int, k: int | None = None) -> list[Point]:
    """Centered configuration: one robot at the center, the rest in k-fold
    rotational orbits at pairwise distinct radii.  Robot order shuffled."""
    choices = [d for d in range(2, n) if (n - 1) % d == 0]
    while True:
        kk = k if k is not None else rng.choice(choices)
        t = (n - 1) // kk
        c = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = [c]
        r = rng.uniform(0.7, 1.3)
        for _ in range(t):
            pts.extend(_ring(c, r, rng.uniform(0.0, TWO_PI), kk))
            r += rng.uniform(0.8, 1.6)
        cls = classify(pts)
        if cls.in_c_dot and cls.k_without_center == kk:
            order = list(range(n))
            rng.shuffle(order)
            return [pts[i] for i in order]


def rand_central_symmetric(rng: random.Random, pairs: int) -> list[Point]:
    """Antipodal-pair configuration: rotation by a half turn maps it to
    itself, no robot at the center, generically no mirror axis."""
    while True:
        c = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts: list[Point] = []
        ok = True
        for _ in range(pairs):
            for _attempt in range(100):
                v = Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                if v.norm() < 0.3:
                    continue
                a, b = c + v, c - v
                if all(a.dist(q) >= 0.2 and b.dist(q) >= 0.2 for q in pts):
                    pts.extend([a, b])
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        rep = symmetry_report(pts)
        if (rep.is_central_symmetric and not rep.has_central_robot
                and not classify(pts).in_c_dot
                and not classify(pts).axis_with_single_robot):
            rng.shuffle(pts)
            return pts


def dihedral_config(rng: random.Random, m: int, on_axis_pairs: bool = False) -> list[Point]:
    """Full m-fold dihedral configuration: m mirror axes, rotation order m.
    With on_axis_pairs (m even only), alternate axes carry an antipodal
    robot pair, so no axis holds exactly one robot."""
    assert not on_axis_pairs or m % 2 == 0
    while True:
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        pts: list[Point] = []
        for _ in range(rng.choice([1, 2])):
            r = rng.uniform(1.0, 4.0)
            theta = rng.uniform(0.08, math.pi / m - 0.08)
            for j in range(m):
                for s in (theta, -theta):
                    a = s + TWO_PI * j / m
                    pts.append(c + Point(math.cos(a), math.sin(a)) * r)
        if on_axis_pairs:
            r = rng.uniform(0.4, 0.9)
            pts.extend(_ring(c, r, 0.0, m))
        rep = symmetry_report(pts)
        if rep.rotational_order != m or len(rep.mirror_axes) != m:
            continue
        if any(len(robots_on_axis(pts, ax)) == 1 for ax in rep.mirror_axes):
            continue
        if classify(pts).in_c_dot:
            continue
        rng.shuffle(pts)
        return pts


def pinwheel_config(rng: random.Random, k: int, orbits: int = 2) -> list[Point]:
    """Chiral k-fold configuration: rotational order k, no mirror axis."""
    while True:
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        pts: list[Point] = []
        r = rng.uniform(0.8, 1.4)
        for _ in range(orbits):
            pts.extend(_ring(c, r, rng.uniform(0.0, TWO_PI), k))
            r += rng.uniform(0.7, 1.5)
        rep = symmetry_report(pts)
        if rep.rotational_order == k and not rep.mirror_axes \
                and not classify(pts).in_c_dot:
            rng.shuffle(pts)
            return pts


def unique_empty_axis_config(rng: random.Random, pairs: int) -> list[Point]:
    """Exactly one mirror axis, no robot on it."""
    while True:
        alpha = rng.uniform(0.0, math.pi)
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        d = Point(math.cos(alpha), math.sin(alpha))
        perp = Point(-d.y, d.x)
        pts: list[Point] = []
        for _ in range(pairs):
            u = rng.uniform(-3.0, 3.0)
            v = rng.uniform(0.3, 3.0)
            pts.append(c + d * u + perp * v)
            pts.append(c + d * u - perp * v)
        if any(pts[i].dist(pts[j]) < 0.15 for i in range(len(pts))
               for j in range(i + 1, len(pts))):
            continue
        cls = classify(pts)
        if cls.axis_count == 1 and cls.unique_axis_no_robots and not cls.in_c_dot:
            rng.shuffle(pts)
            return pts


def occupied_axis_config(rng: random.Random, pairs: int, on_axis: int) -> list[Point]:
    """One mirror axis with robots sitting on it."""
    while True:
        alpha = rng.uniform(0.0, math.pi)
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        d = Point(math.cos(alpha), math.sin(alpha))
        perp = Point(-d.y, d.x)
        pts: list[Point] = []
        for _ in range(pairs):
            u = rng.uniform(-3.0, 3.0)
            v = rng.uniform(0.3, 3.0)
            pts.append(c + d * u + perp * v)
            pts.append(c + d * u - perp * v)
        for _ in range(on_axis):
            pts.append(c + d * rng.uniform(-3.5, 3.5))
        if any(pts[i].dist(pts[j]) < 0.15 for i in range(len(pts))
               for j in range(i + 1, len(pts))):
            continue
        cls = classify(pts)
        if cls.axis_count == 1 and not cls.unique_axis_no_robots and not cls.in_c_dot:
            rng.shuffle(pts)
            return pts


def collinear_config(rng: random.Random, n: int) -> list[Point]:
    """n robots on a line, at offsets in [-4, 4] at least 0.2 apart.  Sorted
    uniforms on [-4, 4 - 0.2(n-1)] spread out by 0.2 per rank have the
    distribution of sorted uniforms on [-4, 4] conditioned on every gap
    being at least 0.2, with no redraw loop whose time depends on the seed."""
    while True:
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        alpha = rng.uniform(0.0, math.pi)
        d = Point(math.cos(alpha), math.sin(alpha))
        us = sorted(rng.uniform(-4.0, 4.0 - 0.2 * (n - 1)) for _ in range(n))
        pts = [c + d * (u + 0.2 * i) for i, u in enumerate(us)]
        if not classify(pts).in_c_dot:
            rng.shuffle(pts)
            return pts


def chirality_preserving_frames(rng: random.Random, n: int) -> list[Frame]:
    return [Frame(rng.uniform(0.0, TWO_PI), False, rng.uniform(0.5, 2.0))
            for _ in range(n)]


# --- independent oracles --------------------------------------------------

def oracle_sec(points: Sequence[Point]) -> tuple[float, float, float]:
    """Brute force smallest enclosing circle: best feasible candidate among
    all pair-diameter circles and all triple circumcircles.  Returns
    (cx, cy, r)."""
    n = len(points)
    if n == 1:
        return points[0].x, points[0].y, 0.0

    def contains(cx: float, cy: float, r: float) -> bool:
        rr = (r + 1e-12) ** 2
        return all((p.x - cx) ** 2 + (p.y - cy) ** 2 <= rr for p in points)

    cands: list[tuple[float, float, float]] = []
    for i in range(n):
        for j in range(i + 1, n):
            cx = (points[i].x + points[j].x) / 2.0
            cy = (points[i].y + points[j].y) / 2.0
            r = points[i].dist(points[j]) / 2.0
            cands.append((r, cx, cy))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = points[i], points[j], points[k]
                d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
                if abs(d) < 1e-12:
                    continue
                ux = ((a.x ** 2 + a.y ** 2) * (b.y - c.y)
                      + (b.x ** 2 + b.y ** 2) * (c.y - a.y)
                      + (c.x ** 2 + c.y ** 2) * (a.y - b.y)) / d
                uy = ((a.x ** 2 + a.y ** 2) * (c.x - b.x)
                      + (b.x ** 2 + b.y ** 2) * (a.x - c.x)
                      + (c.x ** 2 + c.y ** 2) * (b.x - a.x)) / d
                r = math.hypot(a.x - ux, a.y - uy)
                cands.append((r, ux, uy))
    best = min((c for c in cands if contains(c[1], c[2], c[0])), key=lambda t: t[0])
    return best[1], best[2], best[0]


def next_point(points: Sequence[Point], r_idx: int, handedness: str = CCW,
               tol: Tolerance = DEFAULT_TOL) -> int:
    """Successor of points[r_idx] under the rotating-ray sweep about the
    centroid, found by a naive scan: the nearest strictly-farther point on
    the own ray if any, else the closest point on the next ray in sweep
    direction.  Points at the centroid are excluded from the scan."""
    c = centroid(points)
    vr = points[r_idx] - c
    dr = vr.norm()
    if dr <= tol.eps:
        raise ValueError("the sweep successor is undefined for the centroid point")
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
            others.append((sweep(vr, vj, handedness, tol), dj, j))
    farther = [j for j in same_ray if tol.gt(points[j].dist(c), dr)]
    if farther:
        return min(farther, key=lambda j: points[j].dist(c))
    if others:
        return min(others)[2]
    if same_ray:  # wrap around the full sweep back onto the own ray
        return min(same_ray, key=lambda j: points[j].dist(c))
    raise NotOrderable("no other point to sweep to")


def get_vote(points: Sequence[Point], polygon: Sequence[int], x_dir: Point,
             tol: Tolerance = DEFAULT_TOL) -> int:
    """The polygon vertex first met sweeping clockwise from the frame's
    x-direction anchored at the enclosing circle's center, by a naive scan
    over Point arithmetic: the one-direction oracle of the vote scan.  Exact
    alignment wins outright; sub-eps angular ties fall back to the (x, y)
    point sort."""
    center = smallest_enclosing_circle(points).center
    scored = [(sweep(x_dir, points[v] - center, CW, tol), v) for v in polygon]
    best = min(a for a, _ in scored)
    cluster = [(a, v) for a, v in scored if a <= best + tol.eps]
    zero = [v for a, v in cluster if a == 0.0]
    return min(zero or [v for _, v in cluster], key=lambda v: (points[v].x, points[v].y))


def _multiset_match(points: Sequence[Point], images: Sequence[Point],
                    tol: float) -> bool:
    used = [False] * len(points)
    for q in images:
        hit = None
        for idx, p in enumerate(points):
            if not used[idx] and p.dist(q) <= tol:
                hit = idx
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def _oracle_centroid(points: Sequence[Point]) -> Point:
    return Point(sum(p.x for p in points) / len(points),
                 sum(p.y for p in points) / len(points))


def oracle_rotational_order(points: Sequence[Point], tol: float = 1e-9) -> int:
    """Count the rotation angles about the centroid mapping the set to
    itself, each candidate tested by explicit matching."""
    c = _oracle_centroid(points)
    ref = max(points, key=lambda p: p.dist(c))
    rr = ref.dist(c)
    if rr <= tol:
        return 1
    ref_ang = math.atan2(ref.y - c.y, ref.x - c.x)
    cands: list[float] = []
    for p in points:
        if abs(p.dist(c) - rr) > tol:
            continue
        theta = (math.atan2(p.y - c.y, p.x - c.x) - ref_ang) % TWO_PI
        if all(min(abs(theta - t), TWO_PI - abs(theta - t)) > 1e-7 for t in cands):
            cands.append(theta)
    count = 0
    for theta in cands:
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        images = [Point(c.x + (p.x - c.x) * cos_t - (p.y - c.y) * sin_t,
                        c.y + (p.x - c.x) * sin_t + (p.y - c.y) * cos_t)
                  for p in points]
        if _multiset_match(points, images, max(tol, 1e-7 * max(rr, 1.0))):
            count += 1
    return max(count, 1)


def oracle_mirror_axis_angles(points: Sequence[Point], tol: float = 1e-9) -> list[float]:
    """Axis angles in [0, pi) of every reflection through the centroid that
    maps the set to itself, candidates from point and pair bisector
    directions."""
    c = _oracle_centroid(points)
    scale = max((p.dist(c) for p in points), default=1.0)
    if scale <= tol:
        return []
    angs = [math.atan2(p.y - c.y, p.x - c.x) for p in points if p.dist(c) > tol]
    cands: list[float] = []
    for i in range(len(angs)):
        for j in range(i, len(angs)):
            cand = ((angs[i] + angs[j]) / 2.0) % math.pi
            for cc in (cand, (cand + math.pi / 2.0) % math.pi):
                if all(min(abs(cc - t), math.pi - abs(cc - t)) > 1e-7 for t in cands):
                    cands.append(cc)
    hits = []
    for alpha in cands:
        cos2, sin2 = math.cos(2 * alpha), math.sin(2 * alpha)
        images = [Point(c.x + (p.x - c.x) * cos2 + (p.y - c.y) * sin2,
                        c.y + (p.x - c.x) * sin2 - (p.y - c.y) * cos2)
                  for p in points]
        if _multiset_match(points, images, max(tol, 1e-7 * max(scale, 1.0))):
            hits.append(alpha)
    return sorted(hits)


# --- hand-constructed symmetry corpus ------------------------------------

def regular_polygon(k: int, r: float = 2.0, base: float = 0.3,
                    c: Point = Point(0.4, -0.2)) -> list[Point]:
    return _ring(c, r, base, k)


def hand_symmetry_corpus() -> list[tuple[list[Point], int, int]]:
    """(points, expected rotational order, expected axis count) triples,
    all with n <= 12."""
    out: list[tuple[list[Point], int, int]] = []
    for k in range(3, 13):
        out.append((regular_polygon(k), k, k))
    for k in range(3, 12):
        out.append((regular_polygon(k) + [Point(0.4, -0.2)], k, k))
    for k in (3, 4, 5, 6):  # two aligned rings keep the full symmetry
        out.append((regular_polygon(k, 1.0, 0.3) + regular_polygon(k, 2.5, 0.3), k, k))
    for k in (2, 3, 4, 5):  # offset second ring leaves only rotations
        out.append((regular_polygon(k, 1.0, 0.3) + regular_polygon(k, 2.5, 1.1), k, 0))
    out.append(([Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1)], 2, 2))
    out.append(([Point(3, 0), Point(0, 1.5), Point(-3, 0), Point(0, -1.5)], 2, 2))
    out.append(([Point(0, 2), Point(1, 0), Point(-1, 0)], 1, 1))
    out.append(([Point(0, 3), Point(2, 0), Point(-2, 0), Point(0, -1)], 1, 1))
    out.append(([Point(0, 0), Point(1, 0), Point(0.3, 1.7)], 1, 0))
    out.append(([Point(0, 0), Point(2, 0.1), Point(0.4, 1.1), Point(-1, 2)], 1, 0))
    out.append(([Point(0, 0), Point(1, 0), Point(2, 0)], 2, 2))
    out.append(([Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)], 2, 2))
    out.append(([Point(0, 0), Point(1, 0), Point(3, 0)], 1, 1))
    out.append(([Point(0, 0), Point(1, 0), Point(2, 0), Point(4.5, 0)], 1, 1))
    out.append(([Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1)], 4, 4))
    out.append(([Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1),
                 Point(0, 0)], 4, 4))
    out.append((_ring(Point(0, 0), 2.0, 0.0, 6) + _ring(Point(0, 0), 1.0, math.pi / 6, 6),
                6, 6))
    out.append(([Point(2, 0), Point(-2, 0), Point(0.5, 1), Point(-0.5, -1)], 2, 0))
    out.append(([Point(2, 0), Point(-2, 0), Point(1, 1.5), Point(-1, 1.5)], 1, 1))
    out.append(([Point(0, 2), Point(1, 0), Point(-1, 0), Point(0, -3)], 1, 1))
    out.append(([Point(3, 0), Point(-3, 0), Point(1, 1), Point(-1, 1),
                 Point(1, -1), Point(-1, -1)], 2, 2))
    out.append(([Point(1, 0), Point(-1, 0)], 2, 2))
    out.append((_ring(Point(0, 0), 1.0, 0.2, 4) + _ring(Point(0, 0), 2.0, 0.2, 4)
                + _ring(Point(0, 0), 3.0, 0.2, 4), 4, 4))
    out.append(([Point(x, 0) for x in (-2, -1, 0, 1, 2)], 2, 2))
    out.append(([Point(x, 0) for x in (-3, -1, 0, 1, 3)], 2, 2))
    out.append(([Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1),
                 Point(1, 0.5), Point(-1, 0.5), Point(-1, -0.5), Point(1, -0.5)], 2, 2))
    out.append(([Point(0, 0), Point(2, 0), Point(0, 2)], 1, 1))
    assert len(out) >= 50
    return out


# A 3-fold pinwheel at radius 2 plus three near-pairs at radius 1, spaced
# 1.05 to 1.9 eps apart: the rotation that maps the pinwheel onto itself
# takes two robots of a pair onto one, so no matching of robots realises the
# rotational order.  As [x, y] lists, for scenario files.
NEAR_PAIRS = [
    [1.9126095119260709, 0.5847434094454735], [-1.462707403238341, 1.3639967201249972],
    [-0.4499021086877305, -1.9487401295704703], [0.9999999997247068, 2.6621238233671464e-11],
    [0.9999999997247068, 1.3978947474257385e-09], [-0.49999999942430545, 0.8660254037057216],
    [-0.5000000004850977, 0.8660254030932728], [-0.4999999996222186, -0.866025404175019],
    [-0.49999999839418796, -0.8660254048840229],
]
