import math
import random

import pytest
from corpus import oracle_sec, rand_points

from swarmperm import (
    AmbiguousLayering,
    CCW,
    CW,
    DEFAULT_TOL,
    InvalidFrame,
    Point,
    Tolerance,
    centroid,
    concentric_decomposition,
    inverse_transform,
    smallest_enclosing_circle,
    transform,
)
from swarmperm.geometry import sweep_angle


def test_point_arithmetic():
    a = Point(1.0, 2.0)
    b = Point(-0.5, 4.0)
    assert (a + b) == Point(0.5, 6.0)
    assert (a - b) == Point(1.5, -2.0)
    assert a * 2 == Point(2.0, 4.0)
    assert a.dot(b) == pytest.approx(7.5)
    assert a.cross(b) == pytest.approx(1.0 * 4.0 - 2.0 * (-0.5))
    assert a.dist(b) == pytest.approx(math.hypot(1.5, -2.0))
    assert Point(3, 4).norm() == pytest.approx(5.0)
    u = Point(0.0, 2.0).unit()
    assert u.x == pytest.approx(0.0) and u.y == pytest.approx(1.0)


def test_rotated_and_mirrored():
    p = Point(1.0, 0.0)
    q = p.rotated(math.pi / 2)
    assert q.x == pytest.approx(0.0, abs=1e-15) and q.y == pytest.approx(1.0)
    m = Point(1.0, 2.0).mirrored()
    assert m == Point(1.0, -2.0)


def test_tolerance_predicates():
    tol = Tolerance(1e-9)
    assert tol.eq(1.0, 1.0 + 1e-10)
    assert not tol.eq(1.0, 1.0 + 1e-8)
    assert tol.lt(1.0, 1.1) and not tol.lt(1.0, 1.0 + 1e-10)
    assert tol.cmp(1.0, 1.0 + 1e-10) == 0
    assert tol.cmp(1.0, 2.0) == -1
    assert tol.same_point(Point(0, 0), Point(1e-10, -1e-10))
    assert tol.ray_aligned(Point(1, 0), Point(5, 1e-11))
    assert not tol.ray_aligned(Point(1, 0), Point(-5, 0))


def test_transform_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        rot = rng.uniform(0, 2 * math.pi)
        mirror = rng.random() < 0.5
        scale = rng.uniform(0.2, 4.0)
        t = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        g = transform(p, rot, mirror, scale, t)
        back = inverse_transform(g, rot, mirror, scale, t)
        assert back.dist(p) < 1e-12


def test_transform_rejects_bad_scale():
    with pytest.raises(InvalidFrame):
        transform(Point(1, 0), 0.0, False, 0.0, Point(0, 0))
    with pytest.raises(InvalidFrame):
        transform(Point(1, 0), 0.0, False, -1.0, Point(0, 0))


def test_mirror_flips_orientation():
    a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
    def orient(p, q, r):
        return (q - p).cross(r - p)
    la = inverse_transform(a, 0.3, True, 1.0, Point(0.2, 0.1))
    lb = inverse_transform(b, 0.3, True, 1.0, Point(0.2, 0.1))
    lc = inverse_transform(c, 0.3, True, 1.0, Point(0.2, 0.1))
    assert orient(a, b, c) > 0
    assert orient(la, lb, lc) < 0


def test_sec_simple_cases():
    two = [Point(0, 0), Point(2, 0)]
    c = smallest_enclosing_circle(two)
    assert c.center.dist(Point(1, 0)) < 1e-12 and abs(c.radius - 1.0) < 1e-12
    tri = [Point(0, 0), Point(2, 0), Point(1, 5)]
    c = smallest_enclosing_circle(tri)
    for p in tri:
        assert p.dist(c.center) <= c.radius + 1e-9


def test_sec_matches_oracle_small():
    rng = random.Random(5)
    for _ in range(150):
        pts = rand_points(rng, rng.randint(2, 12))
        got = smallest_enclosing_circle(pts)
        cx, cy, r = oracle_sec(pts)
        assert abs(got.radius - r) < 1e-9
        assert got.center.dist(Point(cx, cy)) < 1e-9


def test_sec_order_invariance():
    rng = random.Random(6)
    pts = rand_points(rng, 9)
    base = smallest_enclosing_circle(pts)
    for _ in range(10):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        c = smallest_enclosing_circle(shuffled)
        assert c.center.dist(base.center) < 1e-12
        assert abs(c.radius - base.radius) < 1e-12


def test_sweep_angle_conventions():
    u = Point(2, 0)
    assert sweep_angle(u, Point(1, 1), CCW, DEFAULT_TOL) == pytest.approx(math.pi / 4)
    assert sweep_angle(u, Point(1, 1), CW, DEFAULT_TOL) == pytest.approx(7 * math.pi / 4)
    assert sweep_angle(u, Point(0, -3), CW, DEFAULT_TOL) == pytest.approx(math.pi / 2)
    for h in (CCW, CW):
        # rays within eps of each other, at any length, sweep exactly 0
        assert sweep_angle(u, Point(5, 5e-10), h, DEFAULT_TOL) == 0.0
        assert sweep_angle(u, Point(5, -5e-10), h, DEFAULT_TOL) == 0.0
        assert sweep_angle(u, Point(-1, 0), h, DEFAULT_TOL) == pytest.approx(math.pi)
        # a unit axis is never aligned within eps = 1, but a vector exactly
        # on it still sweeps 0, not a full turn
        assert sweep_angle(Point(1, 0), Point(3, 0), h, Tolerance(1.0)) == 0.0


def test_concentric_layers():
    c = Point(0.5, -0.5)
    pts = [c,
           c + Point(1, 0), c + Point(-1, 0),
           c + Point(0, 2), c + Point(2, 0), c + Point(0, -2)]
    layers = concentric_decomposition(pts, c)
    radii = [layer.radius for layer in layers]
    assert radii[0] == pytest.approx(0.0, abs=1e-12)
    assert radii[1] == pytest.approx(1.0)
    assert radii[2] == pytest.approx(2.0)
    assert len(layers[1].indices) == 2
    assert len(layers[2].indices) == 3


def test_concentric_ambiguous_chain():
    c = Point(0, 0)
    # radii 1, 1 + eps/2, 1 + eps: chained near-ties are ambiguous
    e = DEFAULT_TOL.eps
    pts = [c + Point(1.0, 0), c + Point(0, 1.0 + 0.5 * e), c + Point(-1.0 - e, 0),
           c + Point(0, -3)]
    with pytest.raises(AmbiguousLayering):
        concentric_decomposition(pts, c)


def test_centroid():
    pts = [Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)]
    assert centroid(pts).dist(Point(1, 1)) < 1e-15
