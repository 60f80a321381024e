"""The float kernels of the smallest enclosing circle and the symmetry
candidate test against the Point-based versions they replaced, and the
shared sweep angle and least-rotation scan against the copies they
replaced.

The reference functions below are verbatim copies of those versions.
Every comparison is exact: floats are compared through float.hex, so even
the sign of a zero must agree.
"""

import math
import random

import pytest
from corpus import (
    collinear_config,
    dihedral_config,
    hand_symmetry_corpus,
    occupied_axis_config,
    pinwheel_config,
    rand_c_dot,
    rand_central_symmetric,
    rand_non_c_dot,
    rand_points,
    regular_polygon,
    unique_empty_axis_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmperm import (
    CCW,
    CW,
    DEFAULT_TOL,
    Axis,
    Circle,
    NotOrderable,
    Point,
    SwarmError,
    Tolerance,
    adversary_frames,
    analyze,
    inverse_transform,
    mirror_axes,
    rotational_order,
    smallest_enclosing_circle,
    view_classes,
)
from swarmperm.geometry import angle_of, ccw_angle, norm_angle, sweep_angle
from swarmperm.ordering import least_rotations
from swarmperm.symmetry import _PointIndex

# --- reference: the Point-based kernels ----------------------------------

_REL_EPS = 1e-14


def _enc_contains(c: Circle, p: Point) -> bool:
    return c.center.dist(p) <= c.radius * (1.0 + _REL_EPS) + 1e-300


def _circum_circle(a: Point, b: Point, c: Point) -> Circle | None:
    ox = (min(a.x, b.x, c.x) + max(a.x, b.x, c.x)) / 2.0
    oy = (min(a.y, b.y, c.y) + max(a.y, b.y, c.y)) / 2.0
    ax, ay = a.x - ox, a.y - oy
    bx, by = b.x - ox, b.y - oy
    cx, cy = c.x - ox, c.y - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    center = Point(x, y)
    r = max(center.dist(a), center.dist(b), center.dist(c))
    return Circle(center, r)


def _diameter_circle(a: Point, b: Point) -> Circle:
    center = Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    r = max(center.dist(a), center.dist(b))
    return Circle(center, r)


def _circle_two_points(points, p: Point, q: Point) -> Circle:
    circ = _diameter_circle(p, q)
    left: Circle | None = None
    right: Circle | None = None
    pq = q - p
    for r in points:
        if _enc_contains(circ, r):
            continue
        cross = pq.cross(r - p)
        c = _circum_circle(p, q, r)
        if c is None:
            continue
        cc = pq.cross(c.center - p)
        if cross > 0.0 and (left is None or cc > pq.cross(left.center - p)):
            left = c
        elif cross < 0.0 and (right is None or cc < pq.cross(right.center - p)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _circle_one_point(points, p: Point) -> Circle:
    circ = Circle(p, 0.0)
    for i, q in enumerate(points):
        if not _enc_contains(circ, q):
            if circ.radius == 0.0:
                circ = _diameter_circle(p, q)
            else:
                circ = _circle_two_points(points[: i + 1], p, q)
    return circ


def ref_smallest_enclosing_circle(points, tol=DEFAULT_TOL) -> Circle:
    pts = sorted(points, key=lambda p: (p.x, p.y))
    circ: Circle | None = None
    for i, p in enumerate(pts):
        if circ is None or not _enc_contains(circ, p):
            circ = _circle_one_point(pts[:i], p)
    assert circ is not None
    return circ


def _reflect(v: Point, axis_angle: float) -> Point:
    return v.rotated(-axis_angle).mirrored().rotated(axis_angle)


def _matches_multiset(points, images, tol: Tolerance) -> bool:
    """True when `images` is a permutation of `points` within eps."""
    used = [False] * len(points)
    for q in images:
        best, best_d = -1, math.inf
        for j, p in enumerate(points):
            if used[j]:
                continue
            d = p.dist(q)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > tol.eps:
            return False
        used[best] = True
    return True


def ref_rotational_order(points, tol=DEFAULT_TOL) -> int:
    a = analyze(points, tol)
    if len(a) <= 1:
        return 1
    c = a.centroid
    layer = a.reference_layer
    if not layer:
        return 1
    base = a[layer[0]] - c
    count = 0
    for i in layer:
        alpha = ccw_angle(base, a[i] - c)
        images = [c + (p - c).rotated(alpha) for p in a]
        if _matches_multiset(a, images, tol):
            count += 1
    return max(count, 1)


def ref_mirror_axes(points, tol=DEFAULT_TOL) -> tuple[Axis, ...]:
    a = analyze(points, tol)
    if len(a) <= 1:
        return ()
    c = a.centroid
    layer = a.reference_layer
    if not layer:
        return ()
    theta_base = angle_of(a[layer[0]] - c)
    angles: list[float] = []
    for i in layer:
        alpha = (theta_base + angle_of(a[i] - c)) / 2.0
        alpha = alpha if alpha >= 0.0 else alpha + math.pi
        alpha = math.fmod(alpha, math.pi)
        if alpha < 0.0:
            alpha += math.pi
        images = [c + _reflect(p - c, alpha) for p in a]
        if _matches_multiset(a, images, tol):
            angles.append(alpha)
    angles.sort()
    dedup: list[float] = []
    for ang in angles:
        if any(abs(ang - b) <= tol.eps or abs(abs(ang - b) - math.pi) <= tol.eps for b in dedup):
            continue
        dedup.append(ang)
    return tuple(Axis(c, Point(math.cos(ang), math.sin(ang))) for ang in dedup)


def _congruent_about_origin(va, vb, tol, allow_mirror) -> bool:
    if len(va) != len(vb):
        return False
    ra = sorted(p.norm() for p in va)
    rb = sorted(p.norm() for p in vb)
    if any(abs(a - b) > tol.eps for a, b in zip(ra, rb)):
        return False
    variants = [va]
    if allow_mirror:
        variants.append([p.mirrored() for p in va])
    anchor = max(variants[0], key=lambda p: p.norm())
    if anchor.norm() <= tol.eps:
        return True
    for cand in variants:
        a = max(cand, key=lambda p: p.norm())
        for b in vb:
            if abs(b.norm() - a.norm()) > tol.eps:
                continue
            alpha = ccw_angle(a, b)
            images = [p.rotated(alpha) for p in cand]
            if _matches_multiset(list(vb), images, tol):
                return True
    return False


def ref_view_classes(points, frames, tol=DEFAULT_TOL, chirality=True):
    views = []
    for i, p in enumerate(points):
        z = frames[i]
        views.append([
            inverse_transform(q - p, z.rotation, z.mirror, z.scale) for q in points
        ])
    classes: list[list[int]] = []
    for i in range(len(points)):
        placed = False
        for cls in classes:
            if _congruent_about_origin(views[cls[0]], views[i], tol, allow_mirror=not chirality):
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    return classes


# --- reference: the sweep-angle and least-rotation copies ----------------

def _cmp_seq(a, b, tol: Tolerance) -> int:
    for x, y in zip(a, b):
        c = tol.cmp(x, y)
        if c != 0:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def _flatten(pairs) -> list[float]:
    out: list[float] = []
    for d, g in pairs:
        out.append(d)
        out.append(g)
    return out


def _canonical_rotation_start(pairs, tol: Tolerance) -> int:
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


def _pivot_candidates(gaps, tol: Tolerance) -> list[int]:
    """The candidate scan of select_pivot."""
    m = len(gaps)

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
    return candidates


def _cw_angle_from(u: Point, v: Point, tol: Tolerance) -> float:
    if tol.ray_aligned(u, v):
        return 0.0
    return norm_angle(-ccw_angle(u, v))


def _sweep_angle(u: Point, v: Point, direction: str, tol: Tolerance) -> float:
    """Angle swept rotating u onto v's ray in the given direction, in
    [0, 2*pi); exactly 0 for aligned rays."""
    if tol.ray_aligned(u, v):
        return 0.0
    a = ccw_angle(u, v)
    return a if direction == CCW else 2.0 * math.pi - a


# --- comparison ------------------------------------------------------------

def _bits(*xs: float) -> tuple[str, ...]:
    return tuple(float.hex(x) for x in xs)


def _outcome(fn):
    try:
        return ("ok", fn())
    except (SwarmError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def _circle_bits(c: Circle):
    return _bits(c.center.x, c.center.y, c.radius)


def _axes_bits(axes):
    return tuple(_bits(ax.point.x, ax.point.y, ax.direction.x, ax.direction.y) for ax in axes)


def _assert_circle_identical(pts):
    got = _outcome(lambda: _circle_bits(smallest_enclosing_circle(list(pts))))
    want = _outcome(lambda: _circle_bits(ref_smallest_enclosing_circle(list(pts))))
    assert got == want


def _assert_symmetry_identical(pts, tol=DEFAULT_TOL):
    for got, want in ((lambda: rotational_order(list(pts), tol),
                       lambda: ref_rotational_order(list(pts), tol)),
                      (lambda: _axes_bits(mirror_axes(list(pts), tol)),
                       lambda: _axes_bits(ref_mirror_axes(list(pts), tol)))):
        assert _outcome(got) == _outcome(want)


def _corpus(rng):
    """One set from every tests/corpus.py family."""
    yield from (pts for pts, _, _ in hand_symmetry_corpus())
    for n in (2, 3, 5, 8, 12, 20):
        yield rand_points(rng, n)
        yield rand_non_c_dot(rng, max(n, 3))
        yield collinear_config(rng, max(n, 3))
    for n, k in ((3, None), (4, 3), (5, 2), (7, 3), (9, 2), (9, 4), (13, None), (17, 4)):
        yield rand_c_dot(rng, n, k)
    for pairs in (2, 3, 5, 8):
        yield rand_central_symmetric(rng, pairs)
        yield unique_empty_axis_config(rng, pairs)
        yield occupied_axis_config(rng, pairs, 2)
    for m in (3, 4, 6, 8):
        yield dihedral_config(rng, m)
        yield pinwheel_config(rng, m)
    yield dihedral_config(rng, 4, on_axis_pairs=True)


def _k_gons():
    # every k up to 24, then sizes up to 80 where the reference's cubic
    # cost allows it
    for k in (*range(3, 25), 31, 32, 47, 48, 63, 64, 79, 80):
        yield regular_polygon(k)
        yield regular_polygon(k) + [Point(0.4, -0.2)]


def test_kernels_match_reference_on_corpus():
    rng = random.Random(71)
    count = 0
    for pts in _corpus(rng):
        _assert_circle_identical(pts)
        _assert_symmetry_identical(pts)
        count += 1
    assert count > 90


def _swapped(pts):
    """The set mirrored across the diagonal, which trades x for y."""
    return [Point(p.y, p.x) for p in pts]


def test_kernels_match_reference_on_regular_polygons():
    for pts in _k_gons():
        for variant in (pts, _swapped(pts)):
            _assert_circle_identical(variant)
            _assert_symmetry_identical(variant)


@pytest.mark.parametrize("extra", [[], [Point(0.35, 0.1)]])
def test_kernels_match_reference_on_lines(extra):
    # spread along one axis only: laid along y, every point falls in each
    # image's x-window
    line = [Point(0.1 * i - 1.0, 0.3) for i in range(21)] + extra
    for variant in (line, _swapped(line)):
        _assert_symmetry_identical(variant)


def test_view_classes_match_reference():
    rng = random.Random(72)
    sets = [pts for pts in _corpus(rng) if len(pts) <= 12]
    sets += [regular_polygon(k) + [Point(0.4, -0.2)] for k in (4, 7, 12)]
    for pts in sets:
        for kind, chirality in (("pairwise_distinct", True), ("random", False),
                                ("identical", True), ("identical", False)):
            frames = adversary_frames(kind, pts, seed=len(pts))
            assert (view_classes(pts, frames, chirality=chirality)
                    == ref_view_classes(pts, frames, chirality=chirality))


@pytest.mark.parametrize("pts", [
    [Point(1e300, 1e300), Point(-1e300, -1e300), Point(1e300, -1e300)],
    [Point(0.0, 0.0), Point(1.0, 1e-300), Point(2.0, 0.0)],
    [Point(-0.0, 0.0), Point(0.0, -0.0), Point(1.0, 0.0)],
    [Point(0.5, 0.5)] * 4,
])
def test_enclosing_circle_matches_reference_at_extremes(pts):
    _assert_circle_identical(pts)


_coord = st.floats(-5.0, 5.0, allow_nan=False)
_half_lattice = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                         min_size=1, max_size=14)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=14),
                 _half_lattice.map(lambda xys: [(x / 2.0, y / 2.0) for x, y in xys])),
       st.sampled_from([1.0, 1e-6, 1e6]))
def test_enclosing_circle_matches_reference_on_generated_sets(xys, scale):
    _assert_circle_identical([Point(x * scale, y * scale) for x, y in xys])


@settings(max_examples=120, deadline=None, database=None)
@given(st.integers(3, 16), st.booleans(), st.randoms(use_true_random=False),
       st.sampled_from([1e-9, 1e-6]))
def test_symmetry_matches_reference_on_nudged_sets(k, centered, rng, eps):
    """Symmetric sets with some points nudged by 0.5 to 2 eps, where the
    greedy nearest-point rule and the eps cut decide the outcome."""
    tol = Tolerance(eps)
    pts = regular_polygon(k, r=rng.uniform(0.5, 3.0), base=rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        pts += regular_polygon(k, r=rng.uniform(3.5, 5.0), base=rng.uniform(0.0, 1.0))
    if centered:
        pts.append(Point(0.4, -0.2))
    nudged = []
    for p in pts:
        if rng.random() < 0.15:
            # mostly along the ring, which keeps the layering unambiguous
            # and leaves the decision to the matcher's eps cut
            d = rng.uniform(0.5, 2.0) * eps
            t = angle_of(p - Point(0.4, -0.2)) + math.pi / 2.0
            if rng.random() < 0.2:
                t = rng.uniform(0.0, 2.0 * math.pi)
            p = Point(p.x + d * math.cos(t), p.y + d * math.sin(t))
        nudged.append(p)
    rng.shuffle(nudged)
    _assert_symmetry_identical(nudged, tol)
    _assert_circle_identical(nudged)
    frames = adversary_frames("random", nudged[:8], seed=k)
    assert (view_classes(nudged[:8], frames, tol, chirality=False)
            == ref_view_classes(nudged[:8], frames, tol, chirality=False))


_lattice = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, database=None)
@given(_lattice, st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1))),
       st.randoms(use_true_random=False), st.sampled_from([0.5, 1.0]))
def test_matcher_matches_reference_on_lattice_ties(xys, moves, rng, eps):
    """On a half-integer lattice, distances tie exactly and land exactly on
    eps, so both the lower-index rule and the eps cut decide outcomes."""
    pts = [Point(x / 2.0, y / 2.0) for x, y in xys]
    images = list(pts)
    rng.shuffle(images)
    for i, (dx, dy) in enumerate(moves[:len(images)]):
        images[i] = Point(images[i].x + dx / 2.0, images[i].y + dy / 2.0)
    tol = Tolerance(eps)
    for ps, qs in ((pts, images), (_swapped(pts), _swapped(images))):
        assert (_PointIndex(ps, tol).matches((q.x, q.y) for q in qs)
                == _matches_multiset(ps, qs, tol))


# --- sweep angle and least rotations ----------------------------------------

def _assert_rotations_identical(values, tol):
    """least_rotations against the select_pivot scan on the values, and
    against the canonical start on the values read as (radius, gap) pairs."""
    assert least_rotations(values, 1, tol) == _pivot_candidates(values, tol)
    pairs = list(zip(values[0::2], values[1::2]))
    if not pairs:
        return
    try:
        want = [_canonical_rotation_start(pairs, tol)]
    except NotOrderable:
        want = None
    starts = least_rotations(_flatten(pairs), 2, tol)
    assert (starts if len(starts) == 1 else None) == want


@pytest.mark.parametrize("steps", [
    [0.0, 0.6, 1.2],             # 0 ties 0.6 and 0.6 ties 1.2, but 0 < 1.2
    [1.2, 0.6, 0.0],
    [0.0, 0.6, 1.2, 0.6],        # the scan's strict update decides the tie set
    [0.0, 0.0, 0.6, 1.2, 0.6],
    [0.6, 1.2, 0.0, 0.6],
    [0.0, 0.6, 1.2, 0.0, 0.6, 1.2],
    [1.2, 0.0, 1.2, 0.6, 0.0, 0.6],
    [0.0, 1.0, 0.0, 1.0],        # exactly eps apart ties
    [0.0, 1.5, 0.0, 0.5, 0.0, 1.5, 0.0, 0.5],
])
@pytest.mark.parametrize("base", [0.0, 1.0])
def test_least_rotations_match_reference_on_tie_chains(steps, base):
    tol = Tolerance(1e-3)
    _assert_rotations_identical([base + s * tol.eps for s in steps], tol)


_NUDGES = (-1.2, -0.6, -0.5, 0.0, 0.0, 0.0, 0.5, 0.6, 1.0, 1.2, 2.0)


@st.composite
def _sequences(draw):
    """Random, or periodic with each value nudged by a multiple of eps, so
    that chains of nudged values tie non-transitively."""
    eps = draw(st.sampled_from([1e-9, 0.5, 1.0]))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=12))
    else:
        block = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        values = block * draw(st.integers(1, 4))
        nudges = draw(st.lists(st.sampled_from(_NUDGES), min_size=len(values),
                               max_size=len(values)))
        values = [float(b) + n * eps for b, n in zip(values, nudges)]
    return values, Tolerance(eps)


@settings(max_examples=500, deadline=None, database=None)
@given(_sequences())
def test_least_rotations_match_reference_on_generated_sequences(seq):
    values, tol = seq
    _assert_rotations_identical(values, tol)


def _vector_pairs(rng, eps):
    """Random vectors at scales 1e-6..1e6, and vectors on an axis or turned
    off it by 0.5 to 2 eps radians either way, including nearly opposite."""
    axes = [Point(1.0, 0.0), Point(0.0, 1.0), Point(-1.0, 0.0), Point(0.0, -1.0)]
    for _ in range(400):
        u = Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi)) * 10 ** rng.uniform(-6, 6)
        v = Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi)) * 10 ** rng.uniform(-6, 6)
        yield u, v
    for u in axes + [Point(1.0, 0.0).rotated(rng.uniform(0.0, 6.3)) for _ in range(8)]:
        for scale in (1.0, 1e-6, 1e6, rng.uniform(0.5, 3.0)):
            for turn in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                for sign in (1.0, -1.0):
                    for back in (0.0, math.pi):
                        v = u.rotated(back + sign * turn * eps) * scale
                        yield u, v
                        yield u * 3.0, v
    yield Point(1.0, 0.0), Point(7.0, 0.0)
    yield Point(1.0, 0.0), Point(-7.0, 0.0)
    yield Point(0.0, 2.0), Point(0.0, -0.0)


def _assert_sweep_matches(u, v, tol) -> bool:
    """CCW is _sweep_angle bit for bit.  CW is _cw_angle_from up to the sign
    of a zero, and _sweep_angle except where rounding gave that 2*pi, for a
    vector no longer than eps, which sweeps 0.  True in that case."""
    assert _bits(sweep_angle(u, v, CCW, tol)) == _bits(_sweep_angle(u, v, CCW, tol))
    cw = sweep_angle(u, v, CW, tol)
    assert _bits(cw + 0.0) == _bits(_cw_angle_from(u, v, tol) + 0.0)
    if _sweep_angle(u, v, CW, tol) < 2.0 * math.pi:
        assert _bits(cw) == _bits(_sweep_angle(u, v, CW, tol))
        return False
    assert _bits(cw) == _bits(0.0) and min(u.norm(), v.norm()) <= tol.eps
    return True


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 1.0])
def test_sweep_angle_matches_references(eps):
    tol = Tolerance(eps)
    rng = random.Random(74)
    snapped = [_assert_sweep_matches(u, v, tol) for u, v in _vector_pairs(rng, eps)]
    assert len(snapped) > 1000
    # the zero vector, at every eps, and vectors exactly on an axis at norm
    # 1e-6, or 1 when eps = 1, are no longer than eps
    assert any(snapped)


def test_sweep_angle_matches_references_on_short_vectors():
    tol = Tolerance(1e-3)
    short = [Point(0.0, 0.0), Point(-0.0, 0.0), Point(1e-3, 0.0), Point(0.0, -5e-4)]
    long_ = [Point(1.0, 0.0), Point(0.0, -2.0), Point(-3.0, 1e-4)]
    snapped = [_assert_sweep_matches(u, v, tol) for u in short + long_ for v in short + long_]
    assert any(snapped)
