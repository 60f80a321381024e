"""Seeded configuration families and frame assignments for the benchmark.

Ported from the test corpus so that editing a test cannot change a
workload.  Every generator draws only from the `random.Random` it is
given, so one seed string always yields the same inputs.
"""

from __future__ import annotations

import math
import random

from swarmperm import Frame, Point, classify, robots_on_axis, symmetry_report

TWO_PI = 2.0 * math.pi


def rand_points(rng: random.Random, n: int, lo: float = -5.0, hi: float = 5.0,
                min_sep: float = 0.15) -> list[Point]:
    pts: list[Point] = []
    while len(pts) < n:
        p = Point(rng.uniform(lo, hi), rng.uniform(lo, hi))
        if all(p.dist(q) >= min_sep for q in pts):
            pts.append(p)
    return pts


def rand_non_c_dot(rng: random.Random, n: int) -> list[Point]:
    """Generic configuration: random points, resampled while centered."""
    while True:
        pts = rand_points(rng, n)
        if not classify(pts).in_c_dot:
            return pts


def _ring(c: Point, r: float, base: float, k: int) -> list[Point]:
    return [c + Point(math.cos(base + TWO_PI * j / k),
                      math.sin(base + TWO_PI * j / k)) * r for j in range(k)]


def rand_c_dot(rng: random.Random, n: int, k: int) -> list[Point]:
    """Centered configuration: one robot at the center, the rest in k-fold
    rotational orbits at pairwise distinct radii.  Robot order shuffled."""
    if k < 2 or (n - 1) % k:
        raise ValueError(f"{n - 1} robots do not split into {k}-fold orbits")
    while True:
        c = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = [c]
        r = rng.uniform(0.7, 1.3)
        for _ in range((n - 1) // k):
            pts.extend(_ring(c, r, rng.uniform(0.0, TWO_PI), k))
            r += rng.uniform(0.8, 1.6)
        cls = classify(pts)
        if cls.in_c_dot and cls.k_without_center == k:
            rng.shuffle(pts)
            return pts


def rand_central_symmetric(rng: random.Random, pairs: int) -> list[Point]:
    """Antipodal pairs: a half turn maps the set to itself, no robot at the
    center, generically no mirror axis."""
    while True:
        c = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts: list[Point] = []
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
                break
        if len(pts) != 2 * pairs:
            continue
        rep = symmetry_report(pts)
        cls = classify(pts)
        if (rep.is_central_symmetric and not rep.has_central_robot
                and not cls.in_c_dot and not cls.axis_with_single_robot):
            rng.shuffle(pts)
            return pts


def dihedral_config(rng: random.Random, m: int, rings: int,
                    on_axis_pairs: bool = False) -> list[Point]:
    """Full m-fold dihedral configuration of 2m robots per ring: m mirror
    axes, rotation order m.  With on_axis_pairs (m even only), alternate
    axes carry an antipodal robot pair, so no axis holds exactly one robot."""
    if on_axis_pairs and m % 2:
        raise ValueError("on_axis_pairs needs an even m")
    while True:
        c = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        pts: list[Point] = []
        for _ in range(rings):
            r = rng.uniform(1.0, 4.0)
            theta = rng.uniform(0.08, math.pi / m - 0.08)
            for j in range(m):
                for s in (theta, -theta):
                    a = s + TWO_PI * j / m
                    pts.append(c + Point(math.cos(a), math.sin(a)) * r)
        if on_axis_pairs:
            pts.extend(_ring(c, rng.uniform(0.4, 0.9), 0.0, m))
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


def chirality_preserving_frames(rng: random.Random, n: int) -> list[Frame]:
    """Random rotation and scale per robot, never mirrored."""
    return [Frame(rng.uniform(0.0, TWO_PI), False, rng.uniform(0.5, 2.0))
            for _ in range(n)]
