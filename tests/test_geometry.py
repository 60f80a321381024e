import copy
import math
import pickle
import random
from collections import namedtuple
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from corpus import collinear_config, oracle_sec, rand_points, regular_polygon, sweep

from swarmperm import (
    AmbiguousLayering,
    CCW,
    CW,
    DEFAULT_TOL,
    Frame,
    InvalidFrame,
    Point,
    SwarmError,
    Tolerance,
    centroid,
    concentric_decomposition,
    smallest_enclosing_circle,
)
from swarmperm.errors import NonFinite


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
    assert Frame(mirror=True).to_global([Point(1.0, 2.0)]) == [Point(1.0, -2.0)]


def test_non_finite_coordinates_raise_a_typed_error():
    for x, y in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(NonFinite, match=r"^point coordinates must be finite, got "):
            Point(x, y)
    # engine and CLI boundaries catch it by type; older callers catch ValueError
    assert issubclass(NonFinite, SwarmError) and issubclass(NonFinite, ValueError)


def test_point_equality_hash_and_repr():
    assert Point(1, 2) == Point(1.0, 2.0) and hash(Point(1, 2)) == hash(Point(1.0, 2.0))
    assert Point(-0.0, 0.0) == Point(0.0, -0.0)
    assert Point(1.0, 2.0) != Point(1.0, 2.5) and Point(1.0, 2.0) != Point(1.5, 2.0)
    # only another Point compares equal: a tuple of the same fields does not
    assert Point(1, 2) != (1, 2) and (1, 2) != Point(1, 2)
    assert Point(1.0, 2.0).__eq__((1.0, 2.0)) is NotImplemented
    assert Point(1.0, 2.0).__eq__(None) is NotImplemented
    p = Point(x=0.5, y=-3.0)
    assert p == Point(0.5, -3.0) and (p.x, p.y) == (0.5, -3.0)
    assert hash(p) == hash((p.x, p.y)) == hash((0.5, -3.0))
    assert len({Point(1, 2), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2
    assert repr(p) == str(p) == "Point(x=0.5, y=-3.0)"
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert repr(Point(1e-300, -0.0)) == "Point(x=1e-300, y=-0.0)"
    assert repr(Point(Fraction(1, 2), 0.0)) == "Point(x=Fraction(1, 2), y=0.0)"
    match p:
        case Point(x, y):
            assert (x, y) == (0.5, -3.0)
        case _:
            pytest.fail("Point matched no positional pattern")


def test_point_is_frozen():
    p = Point(1.0, 2.0)
    for name in ("x", "y", "z"):
        with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{name}'$"):
            setattr(p, name, 3.0)
    for name in ("x", "y"):
        with pytest.raises(FrozenInstanceError, match=rf"^cannot delete field '{name}'$"):
            delattr(p, name)
    assert p == Point(1.0, 2.0)


@pytest.mark.parametrize("x, y", [(math.inf, 0.0), (-math.inf, 1.0), (math.nan, 2.0),
                                  (0.0, math.inf), (3.0, -math.inf), (-1.0, math.nan),
                                  (math.nan, math.inf)])
def test_point_refuses_non_finite_coordinates(x, y):
    with pytest.raises(NonFinite) as info:
        Point(x, y)
    assert str(info.value) == f"point coordinates must be finite, got ({x}, {y})"


def test_point_refuses_an_int_past_the_floats():
    for x, y in ((10 ** 400, 0.0), (0.0, 10 ** 400), (-(10 ** 400), 1)):
        with pytest.raises(OverflowError):
            Point(x, y)


def test_point_survives_pickle_and_copy():
    for p in (Point(0.5, -3.0), Point(1, 2), Point(-0.0, 5e-324)):
        copies = [pickle.loads(pickle.dumps(p, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(p), copy.deepcopy(p)]
        for q in copies:  # the repr also tells -0.0 from 0.0 and 1 from 1.0
            assert type(q) is Point and q == p and repr(q) == repr(p)
    nested = {"ring": [Point(1.0, 2.0), Point(3.0, 4.0)]}
    assert copy.deepcopy(nested) == nested
    assert pickle.loads(pickle.dumps(nested)) == nested


def test_point_has_no_instance_dict():
    """The slots keep a Point small and quick to build; a decorator or field
    that brings back the instance dict fails here."""
    assert not hasattr(Point(1.0, 2.0), "__dict__")


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
        f = Frame(rot, mirror, scale)
        [back] = f.to_local(f.to_global([p], t), t)
        assert back.dist(p) < 1e-12


def test_transform_rejects_bad_scale():
    for scale in (0.0, -1.0):
        with pytest.raises(InvalidFrame, match=r"^scale must be positive and parameters "
                                               r"finite, got scale="):
            Frame(0.0, False, scale)


_OVERFLOWING = [Point(0.0, 0.0), Point(1.0, 2.0), Point(-2e10, 0.0), Point(3e10, 0.0)]


@pytest.mark.parametrize("mirror, swap, got", [(False, False, "(-inf, inf)"),
                                               (False, True, "(inf, -inf)"),
                                               (True, False, "(-inf, -inf)"),
                                               (True, True, "(inf, inf)")])
def test_to_local_names_the_first_point_that_leaves_the_floats(mirror, swap, got):
    """A unit of 1e-300 takes the last two points past the floats, each to
    its own pair of infinities: the error names the first in input order."""
    pts = _OVERFLOWING[:2] + _OVERFLOWING[2:][::-1] if swap else _OVERFLOWING
    with pytest.raises(NonFinite) as info:
        Frame(0.5, mirror, 1e-300).to_local(pts, pts[0])
    assert str(info.value) == f"point coordinates must be finite, got {got}"


def test_to_local_names_a_nan_input_before_a_later_overflow():
    """A point type that holds a NaN maps to NaNs, named ahead of a later
    point that overflows."""
    xy = namedtuple("xy", "x y")
    with pytest.raises(NonFinite) as info:
        Frame(0.5).to_local([Point(1.0, 2.0), xy(math.nan, 1.0), Point(3e300, 0.0)],
                            Point(-1e300, 0.0))
    assert str(info.value) == "point coordinates must be finite, got (nan, nan)"


def test_to_local_keeps_finite_points_whose_sums_overflow():
    """Coordinates near the float limit whose column sums overflow are all
    finite: the per-point check runs and passes them through."""
    pts = [Point(1.5e308, -1.5e308), Point(1.6e308, -1.6e308), Point(-1e308, 1e308)]
    assert list(Frame().to_local(pts)) == pts


def test_mirror_flips_orientation():
    a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
    def orient(p, q, r):
        return (q - p).cross(r - p)
    la, lb, lc = Frame(0.3, True, 1.0).to_local([a, b, c], Point(0.2, 0.1))
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


def _bound_sets():
    """Criterion 01's sets at scale 1, then collinear, cocircular and
    near-duplicate sets at scales 1e-12 to 1e12, each with the oracle's
    center of its unscaled set, scaled alongside."""
    rng = random.Random(101)
    for _ in range(1000):
        pts = rand_points(rng, rng.randint(2, 12))
        yield pts, oracle_sec(pts)[:2]
    rng = random.Random(7)
    shapes = [collinear_config(rng, n) for n in (2, 3, 6, 11)]
    shapes += [regular_polygon(k, r=rng.uniform(0.5, 3.0), base=rng.uniform(0.0, 6.3))
               for k in (3, 4, 7, 12)]
    shapes += [[Point(2.0 * math.cos(t), 2.0 * math.sin(t))
                for t in sorted(rng.uniform(0.0, 6.3) for _ in range(9))]]
    for gap in (1e-15, 1e-9, 1e-6):
        base = rand_points(rng, 6)
        shapes.append(base + [Point(p.x + gap, p.y - gap) for p in base[:3]])
    for pts in shapes:
        ox, oy, _ = oracle_sec(pts)
        for e in range(-12, 13):
            s = 10.0 ** e
            yield [Point(p.x * s, p.y * s) for p in pts], (ox * s, oy * s)


def test_sec_holds_the_facts_the_centered_bound_rests_on():
    """Every point lies within the circle's own reach r(1 + 1e-14) + 1e-300
    of its center, and r is at most F(o)(1 + 1e-12), where F(o) is the
    distance from the oracle's center o to the farthest point: no circle
    centered anywhere is smaller than the enclosing one."""
    count = 0
    for pts, (ox, oy) in _bound_sets():
        got = smallest_enclosing_circle(pts)
        cx, cy, r = got.center.x, got.center.y, got.radius
        assert all(math.hypot(p.x - cx, p.y - cy) <= r * (1.0 + 1e-14) + 1e-300 for p in pts)
        assert r <= max(math.hypot(p.x - ox, p.y - oy) for p in pts) * (1.0 + 1e-12)
        count += 1
    assert count == 1000 + 12 * 25


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
    assert sweep(u, Point(1, 1), CCW, DEFAULT_TOL) == pytest.approx(math.pi / 4)
    assert sweep(u, Point(1, 1), CW, DEFAULT_TOL) == pytest.approx(7 * math.pi / 4)
    assert sweep(u, Point(0, -3), CW, DEFAULT_TOL) == pytest.approx(math.pi / 2)
    for h in (CCW, CW):
        # rays within eps of each other, at any length, sweep exactly 0
        assert sweep(u, Point(5, 5e-10), h, DEFAULT_TOL) == 0.0
        assert sweep(u, Point(5, -5e-10), h, DEFAULT_TOL) == 0.0
        assert sweep(u, Point(-1, 0), h, DEFAULT_TOL) == pytest.approx(math.pi)
        # a unit axis is never aligned within eps = 1, but a vector exactly
        # on it still sweeps 0, not a full turn
        assert sweep(Point(1, 0), Point(3, 0), h, Tolerance(1.0)) == 0.0


def test_concentric_layers():
    c = Point(0.5, -0.5)
    pts = [c,
           c + Point(1, 0), c + Point(-1, 0),
           c + Point(0, 2), c + Point(2, 0), c + Point(0, -2)]
    layers = concentric_decomposition(pts, c)
    radii = [layer.radius for layer in layers]
    assert len(layers) == 2  # the robot at the center forms no ring
    assert radii[0] == pytest.approx(1.0)
    assert radii[1] == pytest.approx(2.0)
    assert len(layers[0].indices) == 2
    assert len(layers[1].indices) == 3


def test_concentric_ambiguous_chain():
    c = Point(0, 0)
    # radii 1, 1 + eps/2, 1 + eps: chained near-ties are ambiguous
    e = DEFAULT_TOL.eps
    pts = [c + Point(1.0, 0), c + Point(0, 1.0 + 0.5 * e), c + Point(-1.0 - e, 0),
           c + Point(0, -3)]
    with pytest.raises(AmbiguousLayering):
        concentric_decomposition(pts, c)


def test_concentric_chain_from_the_center_is_ambiguous():
    c = Point(0, 0)
    # radii 0, 0.6 eps, 1.2 eps: the center's group chains past eps
    e = DEFAULT_TOL.eps
    pts = [c, c + Point(0.6 * e, 0), c + Point(0, -1.2 * e), c + Point(0, 3)]
    with pytest.raises(AmbiguousLayering):
        concentric_decomposition(pts, c)


def test_centroid():
    pts = [Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)]
    assert centroid(pts).dist(Point(1, 1)) < 1e-15
