"""The float kernels of the smallest enclosing circle and the symmetry
candidate test against the Point-based versions they replaced, the shared
sweep angle and least-rotation scan against the copies they replaced, the
x-sorted point index and the float snapshot path against the scans and Point
arithmetic they replaced, and the float centered path (sweep kernel, votes,
leader order, pivot, hop rank, layering, two-point circle and the centered
test) against the Point code it replaced, the centered guard's
bounding-box bound against the centered test it short-cuts, and the
no-chirality path (the MoveAll step without its symmetry report, the axis
helpers on floats) against the versions it replaced, and chirality
agreement from one scan per direction, with its folded signature, against
the rotation-orbit version it replaced, and the one-bit codec with its
swept order, restored-configuration check and ring-only layering against
the versions that derived each of them at every use, and the sweep step's
ray grouping on local names, the centered bound with its coordinate
prefilter and the centroid over lists against the versions before them,
and the duplicate check decided by the sorted x-gaps, the sweep order that
reads each centroid offset once and the centered bound's extremes taken
from float lists against the pairwise scan and the versions before them.

The reference functions below are verbatim copies of those versions.
Every comparison is exact: floats are compared through float.hex, so even
the sign of a zero must agree.
"""

import bisect
import functools
import itertools
import math
import random
from functools import cmp_to_key
from operator import itemgetter
from typing import Sequence

import pytest
from corpus import (
    NEAR_PAIRS,
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
    sweep,
    unique_empty_axis_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmperm import (
    CCW,
    CW,
    DEFAULT_TOL,
    AmbiguousLayering,
    Analysis,
    Axis,
    Circle,
    CyclicOrder,
    DecodeFailure,
    DegenerateReference,
    DuplicatePoints,
    EmptyConfiguration,
    Frame,
    InvalidCaller,
    InvalidFrame,
    InvalidHop,
    InvalidLeader,
    Layer,
    LeaderMark,
    MOVE_ALL,
    MirrorSymmetric,
    NotAPermutation,
    NotCentral,
    NotOrderable,
    Point,
    ReconstructFailure,
    RoundRecord,
    RunTrace,
    Snapshot,
    SwarmError,
    Tolerance,
    VoteTally,
    adversary_frames,
    agree_chirality,
    check_k_step_spec,
    analyze,
    center_robot_index,
    centroid,
    compute_movement_central,
    compute_movement_not_central,
    concentric_decomposition,
    decode_hop,
    encode_hop,
    extract_permutation,
    inner_polygon,
    make_protocol,
    mirror_axes,
    order_from_leader,
    order_with_chirality,
    order_without_chirality,
    orient_axis,
    reconstruct,
    robots_on_axis,
    rotational_order,
    run,
    select_pivot,
    smallest_enclosing_circle,
    symmetry_report,
    to_local_snapshot,
    visit_matrix,
    vote_tally,
)
from swarmperm.engine import _MIN_ROTATION_GAP
from swarmperm.errors import NonFinite
from swarmperm.geometry import _circle_two_points as circle_two_points
from swarmperm.geometry import (
    ORIGIN,
    PointIndex,
    _window,
    angle_of,
    enclosing_circle_xy,
    first_coincident_pair,
    norm_angle,
    offsets,
    sweep_angle_xy,
)
from swarmperm.ordering import _ray_groups, _signature, _votes, least_rotations
from swarmperm.protocols import (
    _attempts_many,
    _attempts_three,
    _swept_order,
    move_all_no_chirality_step,
)
from swarmperm.symmetry import (
    BLOCKING_AXES,
    CENTERED,
    ONE_ROBOT_AXIS,
    _box_extremes,
    _no_center_robot,
    require_distinct,
)

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


def _x_mirrored(p: Point) -> Point:
    """Reflection across the x-axis."""
    return Point(p.x, -p.y)


def _reflect(v: Point, axis_angle: float) -> Point:
    return _x_mirrored(v.rotated(-axis_angle)).rotated(axis_angle)


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


# --- reference: the sweep-angle and least-rotation copies ----------------

def ccw_angle(u: Point, v: Point) -> float:
    """Counter-clockwise angle from ray u to ray v, in [0, 2*pi)."""
    return norm_angle(math.atan2(u.cross(v), u.dot(v)))


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


# --- reference: the pairwise scans and the Point-based snapshot path -------

def ref_first_coincident_pair(points, tol):
    """The first pair (i, j), i < j, of points within eps of each other, in
    row-major order, or None when all points are distinct."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if tol.same_point(points[i], points[j]):
                return i, j
    return None


def ref_within(p: Point, pts, tol: Tolerance) -> list[int]:
    return [j for j, q in enumerate(pts) if tol.same_point(p, q)]


def ref_match_index(p: Point, pts, tol: Tolerance) -> int:
    hits = ref_within(p, pts, tol)
    if len(hits) != 1:
        raise NotAPermutation(
            f"point ({p.x:.6g}, {p.y:.6g}) matches {len(hits)} points")
    return hits[0]


def ref_extract_pi(c_a, c_b, tol: Tolerance) -> tuple[int, ...]:
    """extract_permutation's pi, one site match per point of c_b in turn."""
    pi = tuple(ref_match_index(p, c_a, tol) for p in c_b)
    if len(set(pi)) != len(pi):
        raise NotAPermutation("matching is not a bijection")
    return pi


def ref_visit_matrix(trace, stride: int = 1, tol: Tolerance = DEFAULT_TOL):
    records = trace.records
    base = records[0].positions
    n = len(base)
    counts = [[0] * n for _ in range(n)]
    sampled = records[:-1] if len(records) > 1 else records
    for rec in sampled[::stride]:
        for i, p in enumerate(rec.positions):
            for l, q in enumerate(base):
                if tol.same_point(p, q):
                    counts[i][l] += 1
    return counts


def ref_transform(p: Point, rotation: float = 0.0, mirror: bool = False,
                  scale: float = 1.0, translation: Point = ORIGIN) -> Point:
    """Apply mirror (about x-axis), then rotation, then scale, then translation."""
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(rotation)):
        raise InvalidFrame(f"scale must be positive and parameters finite, got scale={scale}")
    q = _x_mirrored(p) if mirror else p
    q = q.rotated(rotation)
    return Point(q.x * scale + translation.x, q.y * scale + translation.y)


def ref_inverse_transform(p: Point, rotation: float = 0.0, mirror: bool = False,
                          scale: float = 1.0, translation: Point = ORIGIN) -> Point:
    """Inverse of transform with identical parameters."""
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(rotation)):
        raise InvalidFrame(f"scale must be positive and parameters finite, got scale={scale}")
    q = Point((p.x - translation.x) / scale, (p.y - translation.y) / scale)
    q = q.rotated(-rotation)
    return _x_mirrored(q) if mirror else q


def ref_to_local_snapshot(points, frames, i: int, visible: bool = False) -> Snapshot:
    if len(frames) != len(points):
        raise InvalidFrame(f"{len(frames)} frames for {len(points)} robots")
    f = frames[i]
    origin = points[i]
    local = tuple(ref_inverse_transform(p, f.rotation, f.mirror, f.scale, origin)
                  for p in points)
    dirs = None
    if visible:
        axis_dirs = []
        for g in frames:
            x_dir = Point(math.cos(g.rotation), math.sin(g.rotation))
            axis_dirs.append(ref_inverse_transform(x_dir, f.rotation, f.mirror, f.scale).unit())
        dirs = tuple(axis_dirs)
    return Snapshot(local, i, dirs)


def ref_ray_groups(points, idxs, c: Point, handedness: str, tol: Tolerance):
    """Indices grouped by ray from c, groups in sweep order for the given
    handedness, each group sorted by increasing distance from c."""

    def heading(v: Point) -> float:
        th = norm_angle(angle_of(v))
        return th if handedness == CCW else norm_angle(-th)

    ordered = sorted(idxs, key=lambda i: (heading(points[i] - c), points[i].dist(c)))
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


def by_distance(groups, points, c: Point):
    """groups with each one sorted by increasing distance from c.  The ray
    group references keep the other groups of a wrap-around merge in sweep
    order, where `_ray_groups` sorts every group."""
    return [sorted(g, key=lambda i: points[i].dist(c)) for g in groups]


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


@functools.cache
def _corpus_sets() -> tuple[list[Point], ...]:
    """One seeded draw of _corpus, shared by the corpus comparisons."""
    return tuple(_corpus(random.Random(71)))


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
        assert (PointIndex(ps, tol).matches((q.x, q.y) for q in qs)
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
    assert _bits(sweep(u, v, CCW, tol)) == _bits(_sweep_angle(u, v, CCW, tol))
    cw = sweep(u, v, CW, tol)
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


# --- the x-sorted index: coincidence, site matching and visit counts --------

def _trace_of(configs) -> RunTrace:
    n = len(configs[0])
    return RunTrace(tuple(RoundRecord(r, tuple(c), (0,) * n, (False,) * n)
                          for r, c in enumerate(configs)))


def _assert_index_identical(sites, queries, tol):
    """first_coincident_pair on both sets, the site match of every query,
    and the visit matrix of a trace that visits the queries; on the sets as
    given and mirrored across the diagonal, so sets laid along y, which put
    every site in each query's x-window, are covered too."""
    _assert_index_identical_once(sites, queries, tol)
    _assert_index_identical_once(_swapped(sites), _swapped(queries), tol)


def _assert_index_identical_once(sites, queries, tol):
    for pts in (sites, queries):
        assert first_coincident_pair(pts, tol) == ref_first_coincident_pair(pts, tol)
    index = PointIndex(sites, tol)
    hits = index.within([q.x for q in queries], [q.y for q in queries])
    assert hits == [ref_within(q, sites, tol) for q in queries]
    if len(queries) == len(sites):
        assert (_outcome(lambda: extract_permutation(sites, queries, tol).pi)
                == _outcome(lambda: ref_extract_pi(sites, queries, tol)))
        trace = _trace_of([sites, queries, queries, sites])
        for stride in (1, 2):
            assert visit_matrix(trace, stride, tol) == ref_visit_matrix(trace, stride, tol)


def _moved(rng, p: Point, eps: float) -> Point:
    d = rng.choice((0.0, 0.5, 1.0, 1.5)) * eps
    t = rng.uniform(0.0, 2.0 * math.pi)
    return Point(p.x + d * math.cos(t), p.y + d * math.sin(t))


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.5])
def test_index_matches_reference_on_corpus(eps):
    """Every corpus family, with up to three near copies inserted, against
    queries moved by 0 to 1.5 eps."""
    tol = Tolerance(eps)
    rng = random.Random(75)
    count = 0
    for pts in _corpus_sets():
        sites = list(pts)
        for _ in range(rng.randint(0, 3)):
            sites.insert(rng.randrange(len(sites) + 1), _moved(rng, rng.choice(pts), eps))
        queries = [_moved(rng, p, eps) for p in sites]
        rng.shuffle(queries)
        _assert_index_identical(sites, queries, tol)
        count += 1
    assert count > 90


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_index_matches_reference_on_window_edges(scale):
    tol = Tolerance(0.625)
    # exactly eps apart along x and along a 3-4-5 diagonal, and one ulp more
    base = Point(scale, scale)
    exact = [base, Point(scale + 0.625, scale), Point(scale + 0.375, scale + 0.5),
             Point(math.nextafter(scale + 0.625, math.inf), scale - 3.0)]
    assert ref_first_coincident_pair(exact, tol) == (0, 1)
    _assert_index_identical(exact, exact[::-1], tol)
    _assert_index_identical(exact[1:], [exact[0]] * 3, tol)
    # an x-gap that rounds down onto eps: points straddling zero, eps = scale
    half = 0.5 * scale
    straddle = [Point(half, 0.0), Point(-math.nextafter(half, math.inf), 0.0)]
    wide = Tolerance(scale)
    assert ref_first_coincident_pair(straddle, wide) == (0, 1)
    _assert_index_identical(straddle, straddle[::-1], wide)
    _assert_index_identical([straddle[0], Point(0.0, 3.0 * scale)],
                            [straddle[1], Point(0.0, 3.0 * scale)], wide)
    _assert_index_identical([straddle[1], Point(0.0, 3.0 * scale)],
                            [straddle[0], Point(0.0, 3.0 * scale)], wide)
    # gaps of whole ulps around eps = 2.5 ulps of the scale
    u = math.ulp(scale)
    fine = Tolerance(2.5 * u)
    steps = [Point(scale + k * u, scale + (k % 2) * u) for k in range(0, 12, 3)]
    steps += [Point(scale + k * u, -scale) for k in (0, 2, 5, 7)]
    _assert_index_identical(steps, steps[::-1], fine)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_index_single_candidate_ties_on_the_window_edge(scale):
    """Queries with exactly one site in their x-window, not the last in x
    order, which one hypot decides: at exactly eps (along x and along a
    3-4-5 diagonal), one ulp past it, and on the window's edge."""
    tol = Tolerance(0.625)
    w = _window(tol.eps)
    sites = [Point(scale, scale), Point(scale + 10.0, scale), Point(scale + 20.0, scale)]
    queries = [Point(scale + 0.625, scale), Point(scale + 0.375, scale + 0.5),
               Point(math.nextafter(scale + 0.625, math.inf), scale),
               Point(scale + 0.375, math.nextafter(scale + 0.5, math.inf)),
               Point(scale - 0.625, scale), Point(scale + w, scale),
               Point(scale + 10.0 - w, scale - 1e-3), Point(scale + 10.0, scale + 0.625)]
    index = PointIndex(sites, tol)
    in_window = [bisect.bisect_right(index.sorted_xs, q.x + w)
                 - bisect.bisect_left(index.sorted_xs, q.x - w) for q in queries]
    want = [ref_within(q, sites, tol) for q in queries]
    assert want[:5] + want[7:] == [[0], [0], [], [], [0], [1]]
    # the ties at exactly eps, and at scale 1 every query, take the shortcut
    assert max(in_window) == 1 and all(in_window[k] for k in (0, 1, 4, 7))
    assert scale != 1.0 or in_window == [1] * len(queries)
    _assert_index_identical(sites, queries, tol)
    # a permutation matched at exactly eps
    assert extract_permutation(sites, [sites[2], queries[7], queries[1]], tol).pi == (2, 1, 0)
    _assert_index_identical(sites, [sites[2], queries[7], queries[1]], tol)


def test_index_counts_every_site_within_eps():
    tol = Tolerance(0.5)
    sites = [Point(5.0, 5.0), Point(0.3, 0.0), Point(-0.3, 0.0), Point(0.0, 0.0)]
    queries = [Point(0.0, 0.0), Point(5.0, 5.0), Point(9.0, 9.0), Point(0.1, 0.0)]
    _assert_index_identical(sites, queries, tol)
    for s_, q_ in ((sites, queries), (_swapped(sites), _swapped(queries))):
        counts = visit_matrix(_trace_of([s_, q_, s_]), 1, tol)
        assert counts[0] == [1, 1, 1, 1] and counts[3] == [0, 2, 2, 2]


def test_first_coincident_pair_is_row_major():
    # the pair (1, 2) comes first in x, but (0, 3) comes first row by row
    pts = [Point(3.0, 0.0), Point(0.0, 0.0), Point(0.0, 1e-10), Point(3.0, 1e-10),
           Point(0.0, -1e-10)]
    for variant in (pts, _swapped(pts)):
        assert (first_coincident_pair(variant, DEFAULT_TOL)
                == ref_first_coincident_pair(variant, DEFAULT_TOL) == (0, 3))


_half_steps = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                 st.sampled_from((-1, 0, 0, 0, 1))), min_size=1, max_size=10)


def _lattice_points(xys, scale):
    """Half-integer lattice points times scale, some pushed one ulp off, so
    distances land on eps and x-gaps on the window edge."""
    out = []
    for x, y, nudge in xys:
        px = x / 2.0 * scale
        if nudge:
            px = math.nextafter(px, nudge * math.inf)
        out.append(Point(px, y / 2.0 * scale))
    return out


@settings(max_examples=400, deadline=None, database=None)
@given(_half_steps, _half_steps, st.sampled_from([0.5, 1.0]),
       st.sampled_from([1.0, 1e6, 1e12]))
def test_index_matches_reference_on_generated_sets(xys, qxys, eps, scale):
    sites = _lattice_points(xys, scale)
    queries = _lattice_points((qxys * len(xys))[:len(xys)], scale)
    _assert_index_identical(sites, queries, Tolerance(eps * scale))


# --- the duplicate check's sorted-gap decision -------------------------------

def _sweep_runs(pts, tol) -> bool:
    """Whether some x-sorted neighbours pass the sweep's window edge test,
    so that the sorted x-gaps alone do not decide."""
    w = tol.eps + 2.0 * math.ulp(tol.eps)
    xs = sorted(p.x for p in pts)
    return any(b <= a + w for a, b in zip(xs, xs[1:]))


def _assert_pair_identical(pts, tol) -> set[bool]:
    """first_coincident_pair against the pairwise scan on pts as given and
    mirrored across the diagonal; returns which of the two paths, the
    x-gaps deciding (False) or the sweep (True), the variants took."""
    paths = set()
    for variant in (pts, _swapped(pts)):
        assert first_coincident_pair(variant, tol) == ref_first_coincident_pair(variant, tol)
        paths.add(_sweep_runs(variant, tol))
    return paths


def test_first_coincident_pair_gap_decision_on_ties_zeros_and_duplicates():
    tol = DEFAULT_TOL
    column = [Point(1.0, float(k)) for k in range(5)] + [Point(-2.0, 0.5)]
    sets = [
        column,                                                      # x-tied, distinct
        column + [Point(1.0, 3.0)],                                  # a duplicate in the column
        [Point(0.0, 0.0), Point(3.0, 1.0), Point(0.0, 0.0)],         # an exact duplicate
        [Point(2.0, 0.0), Point(2.0, 5.0), Point(2.0, 0.0), Point(2.0, 5.0)],
        [Point(0.0, 0.0), Point(-0.0, 1.0), Point(-0.0, 0.0)],       # 0.0 next to -0.0
        [Point(-0.0, 0.0), Point(0.0, 2.0), Point(5e-324, -2.0)],
        [Point(-0.0, -0.0), Point(0.0, 0.0)],
        [Point(1.0, 0.0), Point(2.0, 0.0), Point(4.0, 0.0)],         # gaps alone decide
    ]
    paths = set()
    for pts in sets:
        paths |= _assert_pair_identical(pts, tol)
    assert paths == {False, True}
    assert first_coincident_pair(sets[4], tol) == (0, 2)
    assert first_coincident_pair(sets[0], tol) is None and _sweep_runs(sets[0], tol)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_first_coincident_pair_gap_decision_where_the_window_rounds_away(sign):
    """Near 1e300 one ulp is about 1.5e284, so x + window rounds to x: only
    exactly tied x pass the edge test, and the x-gaps decide the rest."""
    tol = Tolerance(1.0)
    big = sign * 1e300
    up = math.nextafter(big, math.inf)
    assert big + tol.eps + 2.0 * math.ulp(tol.eps) == big
    sets = [[Point(big, 0.0), Point(big, 0.5), Point(up, 0.0)],
            [Point(big, 0.0), Point(up, 0.25)],
            [Point(big, 0.0), Point(big, 2.0), Point(up, 1.0)],
            [Point(big, 0.0), Point(-big, 0.0), Point(0.0, big)]]
    paths = set()
    for pts in sets:
        paths |= _assert_pair_identical(pts, tol)
    assert paths == {False, True}
    assert first_coincident_pair(sets[0], tol) == (0, 1)
    assert first_coincident_pair(sets[1], tol) is None


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_first_coincident_pair_gap_decision_at_the_window_edge(scale):
    # eps 1.0: x-gaps of exactly eps, and one ulp either side, at scale
    unit = Tolerance(1.0)
    edge = [Point(scale, 0.0), Point(scale + 1.0, 0.0)]
    over = [Point(scale, 0.0), Point(math.nextafter(scale + 1.0, math.inf), 0.0)]
    under = [Point(scale, 0.0), Point(math.nextafter(scale + 1.0, -math.inf), 0.9)]
    paths = set()
    for pts in (edge, over, under, [Point(scale, 0.0), Point(scale + 3.0, 0.0)],
                [Point(scale, 0.0), Point(scale + 0.6, 0.8), Point(scale + 2.0, 0.0)]):
        paths |= _assert_pair_identical(pts, unit)
    # eps 2.5 ulps of the scale: neighbours whole ulps apart
    u = math.ulp(scale)
    fine = Tolerance(2.5 * u)
    for ks in ((0, 2, 5, 7), (0, 3, 6, 9), (0, 4, 8), (0, 1), (0, 3)):
        for dy in (0, 1, 2):
            pts = [Point(scale + k * u, scale + (t % 2) * dy * u) for t, k in enumerate(ks)]
            paths |= _assert_pair_identical(pts, fine)
    assert paths == {False, True}


@settings(max_examples=300, deadline=None, database=None)
@given(_half_steps, st.sampled_from([0.5, 1.0]), st.sampled_from([1.0, 1e6, 1e12, 1e300]))
def test_first_coincident_pair_gap_decision_on_generated_sets(xys, eps, scale):
    _assert_pair_identical(_lattice_points(xys, scale), Tolerance(eps * scale))


# --- the float snapshot path -------------------------------------------------

def _point_bits(pts):
    return tuple(_bits(p.x, p.y) for p in pts)


def _snapshot_bits(snap: Snapshot):
    dirs = None if snap.visible_frames is None else _point_bits(snap.visible_frames)
    return _point_bits(snap.local_points), snap.own_index, dirs


def _frames(rng, n):
    """Frames turned, mirrored and scaled, from 1e-6 to 1e6."""
    return [Frame(rng.uniform(-7.0, 7.0), rng.random() < 0.5,
                  rng.choice((1.0, 0.5, 2.0, 1e-6, 1e6, rng.uniform(0.1, 10.0))))
            for _ in range(n)]


def test_snapshots_match_reference_on_corpus():
    rng = random.Random(76)
    for pts in _corpus_sets():
        for scale in (1.0, 1e6, 1e12):
            big = [Point(p.x * scale, p.y * scale) for p in pts]
            frames = _frames(rng, len(big))
            for i in range(len(big)):
                for visible in (False, True):
                    assert (_snapshot_bits(to_local_snapshot(big, frames, i, visible))
                            == _snapshot_bits(ref_to_local_snapshot(big, frames, i, visible)))


_frame_params = st.tuples(st.floats(-10.0, 10.0), st.booleans(),
                          st.sampled_from([1.0, 0.5, 3.0, 1e-6, 1e6]))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8), _frame_params,
       st.tuples(_coord, _coord), st.sampled_from([1.0, 1e6, 1e12]))
def test_transforms_match_reference_on_generated_points(xys, frame, t, scale):
    rotation, mirror, unit = frame
    pts = [Point(x * scale, y * scale) for x, y in xys]
    shift = Point(t[0] * scale, t[1] * scale)
    f = Frame(rotation, mirror, unit)
    for batch, ref in ((f.to_global, ref_transform), (f.to_local, ref_inverse_transform)):
        assert (_point_bits(batch(pts, shift))
                == _point_bits([ref(p, rotation, mirror, unit, shift) for p in pts]))


@pytest.mark.parametrize("rotation, unit", [(0.0, 0.0), (0.0, -1.0), (math.inf, 1.0),
                                            (0.0, math.nan), (math.nan, 1.0)])
def test_transforms_refuse_bad_frames_like_reference(rotation, unit):
    p = Point(1.0, 2.0)
    for batch, ref in ((Frame.to_global, ref_transform), (Frame.to_local, ref_inverse_transform)):
        assert _outcome(lambda: batch(Frame(rotation, False, unit), [p])) == _outcome(
            lambda: [ref(p, rotation, False, unit)])
        assert _outcome(lambda: batch(Frame(rotation, False, unit), [p]))[1] is InvalidFrame


def _spokes(rng, k, eps):
    """Points on k rays from the origin at several radii, some turned off
    their ray by 0.5 to 2 eps radians."""
    out = []
    for t in range(k):
        th = 2.0 * math.pi * t / k
        for r in (1.0, 2.0, 3.5):
            a = th + rng.choice((0.0, 0.0, 0.5, -0.5, 1.0, -2.0)) * eps
            out.append(Point(r * math.cos(a), r * math.sin(a)))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_ray_groups_match_reference(eps):
    tol = Tolerance(eps)
    rng = random.Random(77)
    sets = list(_corpus_sets()) + [_spokes(rng, k, eps) for k in (1, 2, 3, 5, 8)]
    for pts in sets:
        for c in (centroid(pts), Point(0.0, 0.0), pts[0]):
            idxs = list(range(len(pts)))
            rng.shuffle(idxs)
            for subset in (idxs, idxs[: max(1, len(idxs) // 2)]):
                for hand in (CCW, CW):
                    got = _ray_groups(offsets(pts, c), subset, hand, tol)
                    assert got == by_distance(ref_ray_groups(pts, subset, c, hand, tol), pts, c)
                    assert got == ref_ray_groups_norm_angle(pts, subset, c, hand, tol)


# --- reference: the Point-based centered path --------------------------------

def ref_sweep_angle(u: Point, v: Point, handedness: str, tol: Tolerance) -> float:
    """Angle swept rotating ray u onto ray v in the given handedness, in
    [0, 2*pi): exactly 0 for rays aligned within eps, otherwise the ccw
    angle, or 2*pi minus it for CW.  A vector no longer than eps (a unit
    axis once eps >= 1) is never aligned, so CW also maps a 2*pi that only
    rounding produced, as for an exactly aligned such vector, to 0."""
    if tol.ray_aligned(u, v):
        return 0.0
    a = ccw_angle(u, v)
    if handedness == CCW:
        return a
    cw = 2.0 * math.pi - a
    return cw if cw < 2.0 * math.pi else 0.0


def ref_concentric_decomposition(points, center: Point, tol: Tolerance = DEFAULT_TOL):
    """Group points into circles about center by radius, innermost first;
    layer 0 may be the degenerate center."""
    if len(points) == 0:
        raise EmptyConfiguration("decomposition of an empty point set")
    order = sorted(range(len(points)), key=lambda i: (points[i].dist(center), points[i].x, points[i].y))
    layers: list[Layer] = []
    group: list[int] = []
    group_ds: list[float] = []
    for i in order:
        d = points[i].dist(center)
        if group and d - group_ds[-1] > tol.eps:
            layers.append(Layer(math.fsum(group_ds) / len(group_ds), tuple(group)))
            group, group_ds = [], []
        group.append(i)
        group_ds.append(d)
        if group_ds[-1] - group_ds[0] > tol.eps:
            raise AmbiguousLayering(
                f"radius chain spans {group_ds[-1] - group_ds[0]:.3e} > eps about {center}")
    layers.append(Layer(math.fsum(group_ds) / len(group_ds), tuple(group)))
    return tuple(layers)


def _ref_reach(r: float) -> float:
    return r * (1.0 + _REL_EPS) + 1e-300


def _ref_circum_circle(ax0, ay0, bx0, by0, cx0, cy0):
    xlo, xhi = min(ax0, bx0, cx0), max(ax0, bx0, cx0)
    ylo, yhi = min(ay0, by0, cy0), max(ay0, by0, cy0)
    ox, oy = (xlo + xhi) / 2.0, (ylo + yhi) / 2.0
    ax, ay = ax0 - ox, ay0 - oy
    bx, by = bx0 - ox, by0 - oy
    cx, cy = cx0 - ox, cy0 - oy
    k = 0
    if xhi - xlo > 2.0 ** 301 or yhi - ylo > 2.0 ** 301:
        k = math.frexp(max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy)))[1]
        ax, ay, bx, by, cx, cy = (math.ldexp(v, -k) for v in (ax, ay, bx, by, cx, cy))
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    qx = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    qy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    if k:
        qx, qy = math.ldexp(qx, k), math.ldexp(qy, k)
    x, y = ox + qx, oy + qy
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
    r = max(math.hypot(x - ax0, y - ay0), math.hypot(x - bx0, y - by0),
            math.hypot(x - cx0, y - cy0))
    return x, y, r


def _ref_diameter_circle(ax, ay, bx, by):
    x, y = (ax + bx) / 2.0, (ay + by) / 2.0
    return x, y, max(math.hypot(x - ax, y - ay), math.hypot(x - bx, y - by))


def ref_circle_two_points(xs, ys, count, px, py, qx, qy):
    """Smallest circle through p and q enclosing the first count points."""
    circ = _ref_diameter_circle(px, py, qx, qy)
    cx, cy, cr = circ
    reach = _ref_reach(cr)
    left = right = None
    left_cc = right_cc = 0.0
    pqx, pqy = qx - px, qy - py
    for i in range(count):
        rx, ry = xs[i], ys[i]
        if math.hypot(cx - rx, cy - ry) <= reach:
            continue
        cross = pqx * (ry - py) - pqy * (rx - px)
        c = _ref_circum_circle(px, py, qx, qy, rx, ry)
        if c is None:
            continue
        cc = pqx * (c[1] - py) - pqy * (c[0] - px)
        if cross > 0.0 and (left is None or cc > left_cc):
            left, left_cc = c, cc
        elif cross < 0.0 and (right is None or cc < right_cc):
            right, right_cc = c, cc
    if left is None:
        return circ if right is None else right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def ref_inner_polygon(points, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    a = analyze(points, tol)
    if len(points) < 3:
        raise DegenerateReference("inner polygon needs at least 3 points")
    c = a.sec.center
    for layer in ref_concentric_decomposition(a, c, tol):
        if layer.radius > tol.eps:
            return tuple(sorted(
                layer.indices,
                key=lambda i: norm_angle(angle_of(points[i] - c))))
    raise DegenerateReference("all points coincide with the center")


def ref_get_vote(points, polygon, x_dir: Point, tol: Tolerance = DEFAULT_TOL) -> int:
    center = analyze(points, tol).sec.center
    scored = []
    for v in polygon:
        a = ref_sweep_angle(x_dir, points[v] - center, CW, tol)
        scored.append((a, v))
    best_a = min(a for a, _ in scored)
    cluster = [(a, v) for a, v in scored if a <= best_a + tol.eps]
    zero = [v for a, v in cluster if a == 0.0]
    if zero:
        return min(zero, key=lambda v: (points[v].x, points[v].y))
    return min(cluster, key=lambda av: (points[av[1]].x, points[av[1]].y))[1]


def ref_vote_tally(points, x_dirs, tol: Tolerance = DEFAULT_TOL) -> VoteTally:
    a = analyze(points, tol)
    polygon = ref_inner_polygon(a, tol)
    counts = {v: 0 for v in polygon}
    for d in x_dirs:
        counts[ref_get_vote(a, polygon, d, tol)] += 1
    return VoteTally(polygon=polygon, votes=tuple(counts[v] for v in polygon))


def ref_order_from_leader(points, leader: int, tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    a = analyze(points, tol)
    c = a.sec.center
    u = points[leader] - c
    if u.norm() <= tol.eps:
        raise InvalidLeader("leader must not occupy the center")
    center_idxs = [i for i, p in enumerate(points) if tol.same_point(p, c)]
    rest = [i for i in range(len(points)) if i not in center_idxs]
    rest.sort(key=lambda i: (ref_sweep_angle(u, points[i] - c, CW, tol), points[i].dist(c)))
    return CyclicOrder(tuple(rest + center_idxs))


def ref_select_pivot(points, tol: Tolerance = DEFAULT_TOL) -> int:
    a = analyze(points, tol)
    c = a.sec.center
    ring = list(reversed(ref_inner_polygon(a, tol)))
    m = len(ring)
    us = [points[i] - c for i in ring]
    gaps = [ref_sweep_angle(us[t], us[(t + 1) % m], CW, tol) for t in range(m)]
    candidates = least_rotations(gaps, 1, tol)
    xaxis = Point(1.0, 0.0)

    def frame_key(s: int) -> tuple[float, float, float]:
        return (ref_sweep_angle(xaxis, us[s], CW, tol), points[ring[s]].x, points[ring[s]].y)

    return ring[min(candidates, key=frame_key)]


def ref_hop_rank(points, p1, c: Point, ray_from: Point, tol: Tolerance) -> list[int]:
    u0 = ray_from - c
    return sorted(p1, key=lambda v: (ref_sweep_angle(u0, points[v] - c, CW, tol),
                                    points[v].x, points[v].y))


def ref_in_c_dot(points, tol: Tolerance = DEFAULT_TOL) -> bool:
    """k_without_center > 1, the rest's full rotational order."""
    a = analyze(points, tol)
    rc = center_robot_index(a, tol)
    if rc is None or len(a) < 3:
        return False
    return ref_rotational_order([p for i, p in enumerate(a) if i != rc], tol) > 1


def ref_distinct_rotations(n: int, seed: int) -> list[float]:
    """The pairwise_distinct draw, each angle tested against every one so far."""
    rng = random.Random(seed)
    angles: list[float] = []
    while len(angles) < n:
        a = rng.uniform(0.0, 2.0 * math.pi)
        if all(abs(a - b) > _MIN_ROTATION_GAP for b in angles):
            angles.append(a)
    return angles


# --- the float centered path ---------------------------------------------------

@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 1.0])
def test_sweep_kernel_matches_reference(eps):
    tol = Tolerance(eps)
    rng = random.Random(78)
    count = 0
    for u, v in _vector_pairs(rng, eps):
        for hand in (CCW, CW):
            want = _bits(ref_sweep_angle(u, v, hand, tol))
            assert _bits(sweep_angle_xy(u.x, u.y, u.norm(), v.x, v.y, v.norm(), hand, eps)) == want
            count += 1
    assert count > 2000


def _layers_bits(layers):
    return tuple((_bits(layer.radius), layer.indices) for layer in layers)


def _centered_sets(rng):
    """Centered sets: regular polygons and rings about a robot at their
    center, one to three rings, and the corpus's centered family."""
    for k in (3, 4, 5, 6, 8, 12):
        c = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = regular_polygon(k, r=rng.uniform(0.5, 2.0), base=rng.uniform(0.0, 6.3), c=c)
        if k % 2 == 0:
            pts += regular_polygon(k, r=rng.uniform(2.5, 4.0), base=rng.uniform(0.0, 6.3), c=c)
        yield pts + [c]
    for n in (4, 5, 7, 9, 10, 13, 16):
        yield rand_c_dot(rng, n)


def _unit_dirs(rng, count):
    return [Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count)]


def _assert_centered_path_identical(pts, tol, x_dirs):
    """in_c_dot, layering about the circle center and the centroid, and,
    with three points or more, the vote tally and each vote, the leader
    order from every point, the pivot, and the hop rank from every point."""
    a = analyze(pts, tol)
    assert (_outcome(lambda: Analysis(pts, tol).in_c_dot)
            == _outcome(lambda: ref_in_c_dot(pts, tol)))
    c = a.sec.center
    for center in (c, a.centroid):
        assert (_outcome(lambda: _layers_bits(concentric_decomposition(pts, center, tol)))
                == _outcome(lambda: _layers_bits(
                    layer for layer in ref_concentric_decomposition(pts, center, tol)
                    if layer.radius > tol.eps)))
    if len(pts) < 3:
        return
    polygon = _outcome(lambda: inner_polygon(pts, tol))
    assert polygon == _outcome(lambda: ref_inner_polygon(pts, tol))
    assert (_outcome(lambda: vote_tally(pts, x_dirs, tol))
            == _outcome(lambda: ref_vote_tally(pts, x_dirs, tol)))
    assert _outcome(lambda: select_pivot(pts, tol)) == _outcome(lambda: ref_select_pivot(pts, tol))
    for leader in range(len(pts)):
        assert (_outcome(lambda: order_from_leader(pts, leader, tol).seq)
                == _outcome(lambda: ref_order_from_leader(pts, leader, tol).seq))
    if polygon[0] != "ok":
        return
    for d in x_dirs:
        assert (_votes(Analysis(pts, tol), polygon[1], (d,))
                == [ref_get_vote(pts, polygon[1], d, tol)])
    for p in pts:
        [u] = offsets([p], c)
        assert (_swept_order(pts, polygon[1], c, u, CW, tol)
                == ref_hop_rank(pts, polygon[1], c, p, tol))


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_centered_path_matches_reference_on_corpus(eps):
    tol = Tolerance(eps)
    rng = random.Random(79)
    sets = list(_corpus_sets()) + list(_centered_sets(random.Random(80)))
    for pts in sets:
        frames = adversary_frames("random", pts, seed=len(pts))
        x_dirs = list(to_local_snapshot(pts, frames, 0, visible=True).visible_frames)
        x_dirs += _unit_dirs(rng, 4) + [Point(1.0, 0.0), Point(0.0, -1.0)]
        _assert_centered_path_identical(pts, tol, x_dirs)
        _assert_centered_path_identical(_swapped(pts), tol, x_dirs)
    assert len(sets) > 100


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=9,
                unique=True),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6),
       st.sampled_from([1e-9, 0.5, 1.0]))
def test_centered_path_matches_reference_on_lattice_ties(xys, dirs, eps):
    """Half-integer lattice sets with a robot at the origin, where radii,
    angles and point sorts tie exactly and directions lie on vertex rays."""
    pts = [Point(0.0, 0.0)] + [Point(x / 2.0, y / 2.0) for x, y in xys if (x, y) != (0, 0)]
    x_dirs = [Point(dx / 2.0, dy / 2.0) for dx, dy in dirs if (dx, dy) != (0, 0)]
    _assert_centered_path_identical(pts, Tolerance(eps), x_dirs or [Point(1.0, 0.0)])


@pytest.mark.parametrize("eps", [1e-9, 1.0, 2.0])
@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_votes_match_reference_at_exact_alignments(k, eps):
    """Frame directions exactly on a vertex ray, at full length, at unit
    length (no longer than eps once eps >= 1), and short of it."""
    tol = Tolerance(eps)
    ring = [Point(3.0, 0.0), Point(0.0, 3.0), Point(-3.0, 0.0), Point(0.0, -3.0)]
    if k != 4:
        ring = regular_polygon(k, r=3.0, base=0.0, c=Point(0.0, 0.0))
    pts = ring + [Point(0.0, 0.0)]
    x_dirs = []
    for p in ring:
        n = p.norm()
        x_dirs += [p, Point(p.x / n, p.y / n), p * 0.125, p * (eps / n)]
    x_dirs += [Point(-p.x, -p.y) for p in x_dirs]
    _assert_centered_path_identical(pts, tol, x_dirs)
    _assert_centered_path_identical(_swapped(pts), tol, x_dirs)


@pytest.mark.parametrize("eps, base", [(1e-3, 0.75e-3), (1e-3, -0.75e-3), (0.75, 0.3),
                                       (0.75, -0.3)])
def test_pivot_matches_reference_near_the_x_axis(eps, base):
    """A vertex turned off the +x axis by less than eps, but by more than
    eps / 2, sweeps 0 from it."""
    for k in (3, 4, 6):
        pts = regular_polygon(k, base=base, c=Point(0.0, 0.0)) + [Point(0.0, 0.0)]
        _assert_centered_path_identical(pts, Tolerance(eps), [Point(1.0, 0.0)])


def test_votes_match_reference_at_the_cluster_edge():
    """A vertex exactly eps past the nearest one, clockwise, joins the
    cluster and wins it on the point sort."""
    ring = [Point(3.0, 0.0), Point(0.0, 3.0), Point(-3.0, 0.0), Point(0.0, -3.0)]
    pts = ring + [Point(0.0, 0.0)]
    d = Point(math.cos(math.radians(5.0)), math.sin(math.radians(5.0)))
    first = ref_sweep_angle(d, ring[0], CW, Tolerance(1.0))
    edge = ref_sweep_angle(d, ring[3], CW, Tolerance(1.0))
    tol = Tolerance(edge - first)
    assert first + tol.eps == edge
    assert ref_get_vote(pts, ref_inner_polygon(pts, tol), d, tol) == 3
    _assert_centered_path_identical(pts, tol, [d])


def test_circle_two_points_matches_reference():
    """Every pair of a set as p and q, over every prefix, on random and
    lattice sets, where mirror-image third points tie the two circles."""
    rng = random.Random(81)
    sets = [rand_points(rng, n) for n in (3, 5, 8, 12)]
    sets += [[Point(float(x), float(y)) for x, y in ((-1, 0), (1, 0), (0, 2), (0, -2), (0, 1))]]
    sets += [[Point(rng.randint(-4, 4) / 2.0, rng.randint(-4, 4) / 2.0) for _ in range(9)]
             for _ in range(20)]
    for pts in sets:
        for variant in (pts, _swapped(pts)):
            xs = [p.x for p in variant]
            ys = [p.y for p in variant]
            for i, p in enumerate(variant):
                for q in variant[i + 1:]:
                    for count in range(len(variant) + 1):
                        args = (xs, ys, count, p.x, p.y, q.x, q.y)
                        assert (_bits(*circle_two_points(*args))
                                == _bits(*ref_circle_two_points(*args)))


def test_in_c_dot_stops_at_second_rotation(monkeypatch):
    """in_c_dot tests two rotations of a 12-fold ring, where the full
    count, which k_without_center keeps, tests all twelve."""
    calls = []
    matches = PointIndex.matches
    monkeypatch.setattr(PointIndex, "matches",
                        lambda self, images: calls.append(1) or matches(self, images))
    pts = regular_polygon(12, c=Point(0.0, 0.0)) + [Point(0.0, 0.0)]
    assert Analysis(pts, DEFAULT_TOL).in_c_dot and len(calls) == 2
    calls.clear()
    assert Analysis(pts, DEFAULT_TOL).k_without_center == 12 and len(calls) == 12


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [3, 10, 100, 1000, 3142])
def test_pairwise_distinct_frames_match_reference_loop(n, seed):
    frames = adversary_frames("pairwise_distinct", [Point(0.0, 0.0)] * n, seed=seed)
    assert [float.hex(f.rotation) for f in frames] == [
        float.hex(a) for a in ref_distinct_rotations(n, seed)]
    assert all(not f.mirror and f.scale == 1.0 for f in frames)


# --- the centered guard's bounding-box bound --------------------------------

_SCALES = [10.0 ** e for e in range(-12, 13)]
_NEAR_CENTER = (0.0, 0.5, 0.999, 1.001, 2.0, 1e3, 1e6)


def _variants(pts, scales=_SCALES):
    """pts at each scale, with its x/y swap and its mirror image."""
    for scale in scales:
        scaled = [Point(p.x * scale, p.y * scale) for p in pts]
        yield from (scaled, _swapped(scaled), [Point(-p.x, p.y) for p in scaled])


def _assert_guard_matches_in_c_dot(pts, tol) -> bool:
    """CENTERED against in_c_dot, the predicate it guarded with before the
    bound, and the bound never deciding where a center robot stands.
    True when the bound decided."""
    a = Analysis(pts, tol)
    assert _outcome(lambda: CENTERED.holds(a)) == _outcome(lambda: Analysis(pts, tol).in_c_dot)
    decided = a.no_center_robot
    assert not (decided and center_robot_index(pts, tol) is not None)
    return decided


def _guard_sets():
    return list(_corpus_sets()) + list(_centered_sets(random.Random(80)))


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_centered_guard_matches_in_c_dot_across_scales(eps):
    tol = Tolerance(eps)
    decided = count = 0
    for pts in _guard_sets():
        for variant in _variants(pts):
            decided += _assert_guard_matches_in_c_dot(variant, tol)
            count += 1
    assert count > 8000
    # the bound decides where the scale leaves eps small against the set
    assert decided > count // 4


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_centered_guard_matches_in_c_dot_near_the_center(eps):
    """A robot added at the computed circle center plus t eps, on either
    side of the eps cut of center_robot_index and beyond it.  Every third
    scale: at the large ones, where eps is below the rounding of the
    coordinates, the slack of the bound decides."""
    tol = Tolerance(eps)
    rng = random.Random(82)
    count = 0
    for pts in _guard_sets():
        u = Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi))
        for variant in _variants(pts, _SCALES[::3]):
            c = smallest_enclosing_circle(variant).center
            for t in _NEAR_CENTER:
                _assert_guard_matches_in_c_dot(variant + [c + u * (t * eps)], tol)
                count += 1
    assert count > 20000


# --- reference: the no-chirality path before it read only what it decides on --

class RefAnalysis(Analysis):
    """An Analysis whose robots-on-axis lists and centered-guard bound come
    from the reference copies below."""

    @functools.cached_property
    def no_center_robot(self) -> bool:
        return ref_no_center_robot(self, self.tol.eps)

    @functools.cached_property
    def axis_robots(self):
        return tuple(ref_robots_on_axis(self, ax, self.tol) for ax in self.mirror_axes)


def ref_robots_on_axis(points, axis: Axis, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    out = []
    for i, p in enumerate(points):
        if abs((p - axis.point).cross(axis.direction)) <= tol.eps * max(1.0, axis.direction.norm()):
            out.append(i)
    return tuple(out)


_BOX_SLACK = 1e-6


def ref_no_center_robot(points, eps: float) -> bool:
    """True when every robot has an axis-extreme robot farther than that
    bound from it, so none is the center robot."""
    if not points:  # the circle raises EmptyConfiguration
        return False
    pts = [(p.x, p.y) for p in points]
    west, east = min(pts), max(pts)
    south, north = min(pts, key=itemgetter(1)), max(pts, key=itemgetter(1))
    # halves before the sum: the center stays finite for every finite box
    bx, by = 0.5 * west[0] + 0.5 * east[0], 0.5 * south[1] + 0.5 * north[1]
    reach = max(math.hypot(x - bx, y - by) for x, y in pts)
    bound = reach * (1.0 + _BOX_SLACK) + eps + 1e-300
    extremes = (west, east, south, north)
    for x, y in pts:
        if all(math.hypot(x - ex, y - ey) <= bound for ex, ey in extremes):
            return False
    return True


def ref_orient_axis(points, axis: Axis, tol: Tolerance = DEFAULT_TOL) -> Point:
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


def ref_order_without_chirality(points, tol: Tolerance = DEFAULT_TOL) -> CyclicOrder:
    """Cyclic order computable without a shared clockwise notion.

    No axes: derive a handedness from the asymmetry and sweep.  Exactly
    one axis with no point on it: orient the axis, split by side, sort
    each side by (along-axis coordinate, distance from axis), concatenate.
    Anything else is the BLOCKING_AXES obstruction.
    """
    a = analyze(points, tol)
    require_distinct(points, tol)
    CENTERED.check(a)
    axes = a.mirror_axes
    if not axes:
        return order_with_chirality(a, agree_chirality(a, tol), tol)
    BLOCKING_AXES.check(a)
    u = ref_orient_axis(a, axes[0], tol)
    c = axes[0].point

    def key(i: int) -> tuple[float, float]:
        v = points[i] - c
        return (u.dot(v), abs(u.cross(v)))

    side_a = sorted((i for i in range(len(points)) if u.cross(points[i] - c) > 0.0), key=key)
    side_b = sorted((i for i in range(len(points)) if u.cross(points[i] - c) <= 0.0), key=key)
    return CyclicOrder(tuple(side_a + side_b))


def ref_move_all_no_chirality_step(a: Analysis, snapshot, bit: int) -> tuple[Point, int]:
    """One-round total relocation without a shared clockwise notion."""
    tol = a.tol
    own = snapshot.own_index
    p = a[own]
    CENTERED.check(a)
    rep = symmetry_report(a, tol)
    c = a.centroid
    if rep.is_central_symmetric:
        return c * 2.0 - p, bit
    if not rep.mirror_axes:
        h = agree_chirality(a, tol)
        order = order_with_chirality(a, h, tol)
        return a[order.successor(own)], bit
    ONE_ROBOT_AXIS.check(a)
    mine = [t for t, on in enumerate(a.axis_robots) if own in on]
    if mine:
        ax = rep.mirror_axes[mine[0]]
        u = ref_orient_axis(a, ax, tol)
        on = sorted(a.axis_robots[mine[0]], key=lambda i: u.dot(a[i] - ax.point))
        return a[on[(on.index(own) + 1) % len(on)]], bit
    dists = sorted((abs(ax.direction.cross(p - ax.point)), t)
                   for t, ax in enumerate(rep.mirror_axes))
    if len(dists) == 1 or tol.gt(dists[1][0], dists[0][0]):
        ax = rep.mirror_axes[dists[0][1]]
        v = p - ax.point
        d = ax.direction
        return ax.point + d * (2.0 * d.dot(v)) - v, bit
    return c * 2.0 - p, bit


# --- the no-chirality path ---------------------------------------------------

def _no_chirality_sets(rng):
    """The families the no-chirality protocols meet: dihedral (odd and even
    m, axes occupied by pairs), pinwheel, antipodal, one empty axis, one
    occupied axis, collinear."""
    for m in (3, 4, 5, 6):
        yield dihedral_config(rng, m)
    for m in (2, 4):
        yield dihedral_config(rng, m, on_axis_pairs=True)
    for k in (3, 4, 5):
        yield pinwheel_config(rng, k)
    for pairs in (2, 4):
        yield rand_central_symmetric(rng, pairs)
    for pairs in (2, 3, 5):
        yield unique_empty_axis_config(rng, pairs)
    for pairs, on in ((2, 1), (2, 2), (3, 3)):
        yield occupied_axis_config(rng, pairs, on)
    for n in (3, 4, 5):
        yield collinear_config(rng, n)


def _mirrored(pts):
    return [Point(-p.x, p.y) for p in pts]


def _step_bits(step, a, snap):
    dest, bit = step(a, snap, 0)
    return _bits(dest.x, dest.y), bit


def _assert_no_chirality_identical(pts, tol, rng) -> set:
    """The axis helpers, the no-chirality order and the bound on pts, and
    the MoveAll step on a snapshot of every robot.  Returns the outcome
    kinds of the steps."""
    a = Analysis(pts, tol)
    axes = _outcome(lambda: a.mirror_axes)
    axes = axes[1] if axes[0] == "ok" else ()
    c = centroid(pts)
    others = [Axis(c, Point(1.0, 0.0)), Axis(pts[0], Point(0.6, 0.8) * 2.5),
              Axis(pts[-1], Point(-0.28, 0.96) * 0.3)]
    for ax in (*axes, *others):
        assert robots_on_axis(pts, ax, tol) == ref_robots_on_axis(pts, ax, tol)
        assert _outcome(lambda: _point_bits([orient_axis(pts, ax, tol)])) == _outcome(
            lambda: _point_bits([ref_orient_axis(pts, ax, tol)]))
    assert _outcome(lambda: order_without_chirality(list(pts), tol).seq) == _outcome(
        lambda: ref_order_without_chirality(list(pts), tol).seq)
    # the second bound center decides more: a decided reference stays decided
    assert _no_center_robot(pts, tol.eps) or not ref_no_center_robot(pts, tol.eps)
    assert _no_center_robot(pts, tol.eps) == ref_no_center_robot_unfiltered(pts, tol.eps)
    frames = _frames(rng, len(pts))
    kinds = set()
    for i in range(len(pts)):
        snap = to_local_snapshot(pts, frames, i)
        got = _outcome(lambda: _step_bits(move_all_no_chirality_step,
                                          Analysis(snap.local_points, tol), snap))
        want = _outcome(lambda: _step_bits(ref_move_all_no_chirality_step,
                                           RefAnalysis(snap.local_points, tol), snap))
        assert got == want
        assert (_no_center_robot(snap.local_points, tol.eps)
                or not ref_no_center_robot(snap.local_points, tol.eps))
        assert (_no_center_robot(snap.local_points, tol.eps)
                == ref_no_center_robot_unfiltered(snap.local_points, tol.eps))
        kinds.add(got[0] if got[0] == "ok" else got[1].__name__)
    return kinds


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_no_chirality_path_matches_reference(eps):
    tol = Tolerance(eps)
    rng = random.Random(83)
    kinds = set()
    count = 0
    for pts in _no_chirality_sets(rng):
        for variant in (pts, _swapped(pts), _mirrored(pts)):
            kinds |= _assert_no_chirality_identical(variant, tol, rng)
            count += 1
    assert count == 3 * 20
    assert "ok" in kinds


def _radius_chain():
    """Antipodal pairs at radii 1, 1 + 0.6 eps and 1 + 1.2 eps for eps
    1e-3: one chain longer than eps about the centroid at the origin."""
    chain = []
    for r, th in ((1.0, 0.3), (1.0006, 1.4), (1.0012, 2.2)):
        p = Point(r * math.cos(th), r * math.sin(th))
        chain += [p, -p]
    return chain


def test_move_all_step_matches_reference_on_its_errors():
    """A coincident pair in the local frame raises from both steps with the
    same message.  An ambiguous radius chain about the centroid is
    centrally symmetric, and the half turn needs no layering, so the step
    reflects every robot through the centroid instead of raising
    AmbiguousLayering from the reference layer."""
    tol = Tolerance(1e-3)
    duplicate = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.3, 1.7), Point(0.3, 1.7004)]
    for variant in (duplicate, _swapped(duplicate), _mirrored(duplicate)):
        for own in range(len(variant)):
            snap = Snapshot(tuple(variant), own)
            got = _outcome(lambda: move_all_no_chirality_step(
                Analysis(variant, tol), snap, 0))
            want = _outcome(lambda: ref_move_all_no_chirality_step(
                RefAnalysis(variant, tol), snap, 0))
            assert got == want
            assert got[1] is DuplicatePoints
    chain = _radius_chain()
    for variant in (chain, _swapped(chain), _mirrored(chain)):
        with pytest.raises(AmbiguousLayering):
            rotational_order(variant, tol)
        for own, p in enumerate(variant):
            a = Analysis(variant, tol)
            dest, bit = move_all_no_chirality_step(a, Snapshot(tuple(variant), own), 0)
            assert (dest, bit) == (a.centroid * 2.0 - p, 0)


def test_move_all_relocates_the_radius_chain_in_one_round():
    """Two rounds of MoveAllNoChirality on the radius chain hold the
    one-round MoveAll contract."""
    tol = Tolerance(1e-3)
    chain = _radius_chain()
    for kind in ("identical", "pairwise_distinct"):
        frames = adversary_frames(kind, chain, seed=7)
        trace = run(chain, frames, make_protocol("MoveAllNoChirality", tol), rounds=2)
        assert check_k_step_spec(trace, MOVE_ALL, 1).passed


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_robots_on_axis_matches_reference_at_the_eps_edge(eps):
    """Quarter-grid points and axes with exact arithmetic, so that some
    robots sit exactly eps (times the direction's norm) off the axis."""
    tol = Tolerance(eps)
    grid = [Point(0.25 * i, 0.25 * j) for i in range(-6, 7) for j in range(-6, 7)]
    dirs = [Point(1.0, 0.0), Point(0.0, 1.0), Point(0.0, -2.0), Point(1.5, 0.0)]
    on_edge = 0
    for origin in (Point(0.0, 0.0), Point(0.25, -0.5)):
        for d in dirs:
            ax = Axis(origin, d)
            got = robots_on_axis(grid, ax, tol)
            assert got == ref_robots_on_axis(grid, ax, tol)
            bound = eps * max(1.0, d.norm())
            on_edge += sum(abs((grid[i] - origin).cross(d)) == bound for i in got)
    assert on_edge > 0


def test_no_chirality_order_matches_reference_on_tied_along_axis_coordinates():
    """One mirror axis, the x-axis, with two robots on each side at the
    same x: the off-axis distance decides their order on both sides."""
    pts = [Point(0.5, 1.0), Point(0.5, 2.0), Point(0.5, -1.0), Point(0.5, -2.0),
           Point(-1.0, 1.5), Point(-1.0, -1.5)]
    for tol in (Tolerance(1e-9), Tolerance(1e-3)):
        for variant in (pts, pts[::-1]):
            assert len(mirror_axes(variant, tol)) == 1
            assert (order_without_chirality(variant, tol).seq
                    == ref_order_without_chirality(variant, tol).seq)
            _assert_no_chirality_identical(variant, tol, random.Random(84))


# --- reference: the ray grouping before one row per point --------------------

def ref_dict_ray_groups(points, idxs, c: Point, handedness: str, tol: Tolerance):
    """Indices grouped by ray from c, groups in sweep order for the given
    handedness, each group sorted by increasing distance from c.  Runs on
    raw floats with the operation order of the Point arithmetic, so the
    angles, distances and ray tests are those of `points[i] - c`,
    `Point.dist` and `Tolerance.ray_aligned`."""
    cx, cy, eps = c.x, c.y, tol.eps
    vec: dict[int, tuple[float, float]] = {}
    dist: dict[int, float] = {}
    heading: dict[int, float] = {}
    for i in idxs:
        p = points[i]
        vx, vy = p.x - cx, p.y - cy
        th = norm_angle(math.atan2(vy, vx))
        vec[i] = (vx, vy)
        dist[i] = math.hypot(vx, vy)
        heading[i] = th if handedness == CCW else norm_angle(-th)

    def aligned(u: tuple[float, float], v: tuple[float, float]) -> bool:
        nu, nv = math.hypot(*u), math.hypot(*v)
        if nu <= eps or nv <= eps:
            return False
        return (u[0] * v[0] + u[1] * v[1] > 0.0
                and abs(u[0] * v[1] - u[1] * v[0]) <= eps * nu * nv)

    ordered = sorted(idxs, key=lambda i: (heading[i], dist[i]))
    groups: list[list[int]] = []
    reps: list[tuple[float, float]] = []
    for i in ordered:
        v = vec[i]
        if groups and aligned(reps[-1], v):
            groups[-1].append(i)
        else:
            groups.append([i])
            reps.append(v)
    if len(groups) > 1 and aligned(reps[0], reps[-1]):
        merged = groups.pop() + groups.pop(0)
        merged.sort(key=dist.__getitem__)
        groups.insert(0, merged)
    else:
        for g in groups:
            g.sort(key=dist.__getitem__)
    return groups


def _assert_ray_groups_identical(pts, tol, rng):
    """_ray_groups against the dict reference on pts as given and x/y-swapped,
    about the centroid, the origin and the first point, on all indices in
    order, shuffled and halved, both handednesses."""
    for variant in (pts, _swapped(pts)):
        shuffled = list(range(len(variant)))
        rng.shuffle(shuffled)
        half = shuffled[: max(1, len(shuffled) // 2)]
        for c in (centroid(variant), Point(0.0, 0.0), variant[0]):
            for idxs in (list(range(len(variant))), shuffled, half):
                for hand in (CCW, CW):
                    assert (_ray_groups(offsets(variant, c), idxs, hand, tol)
                            == by_distance(ref_dict_ray_groups(variant, idxs, c, hand, tol),
                                           variant, c))


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_ray_groups_match_dict_reference_on_corpus(eps):
    tol = Tolerance(eps)
    rng = random.Random(85)
    sets = list(_corpus_sets()) + [_spokes(rng, k, eps) for k in (1, 2, 3, 5, 8)]
    for pts in sets:
        _assert_ray_groups_identical(pts, tol, rng)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=14),
                 _half_lattice.map(lambda xys: [(x / 2.0, y / 2.0) for x, y in xys])),
       st.sampled_from([1e-9, 1e-3, 1.0]), st.randoms(use_true_random=False))
def test_ray_groups_match_dict_reference_on_generated_sets(xys, eps, rng):
    """Random and half-integer lattice sets: the lattice puts several points
    on one ray, exactly, and some within eps of the center."""
    _assert_ray_groups_identical([Point(x, y) for x, y in xys], Tolerance(eps), rng)


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_ray_groups_match_dict_reference_on_rays_and_short_vectors(eps):
    """Collinear points on one ray; a ray just below the +x axis that wraps
    round onto the first group, beside a ray whose nearer point has the
    larger heading; vectors no longer than eps, which are never aligned (at
    eps 1 that includes the unit ones)."""
    tol = Tolerance(eps)
    rng = random.Random(86)
    below = Point(math.cos(-0.5 * eps), math.sin(-0.5 * eps))
    collinear = [Point(r, 0.0) for r in (3.0, 1.0, 2.0)] + [Point(0.0, r) for r in (2.0, 1.0)]
    past_y = Point(-math.sin(0.5 * eps), math.cos(0.5 * eps))
    wrap = [Point(2.0, 0.0), below * 3.0, Point(0.0, 2.0), below * 1.5, Point(-1.0, -1.0),
            past_y * 1.5]
    short = [Point(0.5 * eps, 0.0), Point(0.0, -eps), Point(eps, 0.0), Point(1.0, 0.0),
             Point(2.0, 0.0), Point(-3.0, 0.5)]
    for pts in (collinear, wrap, short):
        _assert_ray_groups_identical(pts, tol, rng)
    # the sweep's last ray joins its first; every group is sorted by distance
    groups = _ray_groups(offsets(wrap, ORIGIN), range(len(wrap)), CCW, tol)
    assert groups == [[3, 0, 1], [5, 2], [4]]
    # turned so that no ray straddles +x, the set keeps its groups' orders
    turned = [p.rotated(math.pi / 4.0) for p in wrap]
    assert (sorted(_ray_groups(offsets(turned, ORIGIN), range(len(turned)), CCW, tol))
            == sorted(groups))
    # a vector no longer than eps stays alone on its ray
    groups = _ray_groups(offsets(short, ORIGIN), range(len(short)), CCW, tol)
    assert [0] in groups and [2] in groups


# --- the centered guard's second bound center ---------------------------------

# A robot at the bounding-box center is within the box bound of every robot,
# so the box cannot decide this set; the circle of its axis-extreme robots can.
_BOX_UNDECIDED = [Point(0.0, 0.0), Point(-4.0, -2.0), Point(1.0, 2.0), Point(4.0, -1.0)]
# Neither the box nor the circle of the axis extremes (-5, 2), (2, 0) and
# (0, 5) decides this set; the circle that adds (1, 5), the robot farthest
# from that circle's center, does.
_FIVE_CORE = [Point(-1.0, 2.0), Point(2.0, 0.0), Point(0.0, 5.0), Point(1.0, 5.0),
              Point(-5.0, 2.0)]

_NEAR_FLOAT_LIMIT = [
    [Point(1e308, 0.0), Point(1.5e308, 0.0), Point(1e308, 1e308)],
    [Point(0.0, 0.0), Point(1e308, 0.0), Point(-1e308, 0.0)],
    [Point(1.7e308, -9e307), Point(-1e308, 9e307), Point(9e307, -9e307), Point(-1e308, 0.0)],
    # the box leaves robots, and the midpoint of the extremes' first
    # diameter overflows, so their circle's center is infinite
    [Point(1.5e308, 0.0), Point(1.7e308, 0.0), Point(1.6e308, 3e307), Point(1.6e308, 1.5e307)],
]


def _assert_bound_sound(pts, eps) -> bool:
    """The bound returns without raising, decides whenever the box-only
    reference does, and never decides where a center robot stands.  True
    when it decided."""
    decided = _no_center_robot(pts, eps)
    assert decided or not ref_no_center_robot(pts, eps)
    assert decided == ref_no_center_robot_unfiltered(pts, eps)
    if decided:  # where the circle itself leaves the finite floats, no center
        center = _outcome(lambda: center_robot_index(pts, Tolerance(eps)))
        assert center[0] == "raised" or center[1] is None
    return decided


def test_guard_bound_decides_what_the_box_leaves():
    for pts in (_BOX_UNDECIDED, _FIVE_CORE):
        assert not ref_no_center_robot(pts, 1e-9)
        assert _no_center_robot(pts, 1e-9)


@pytest.mark.parametrize("eps", [1e-9, 1.0])
def test_guard_bound_never_raises_near_the_float_limit(eps):
    undecided = 0
    for pts in _NEAR_FLOAT_LIMIT:
        for variant in (pts, _swapped(pts), [-p for p in pts]):
            undecided += not _assert_bound_sound(variant, eps)
    assert undecided >= 3
    last = _NEAR_FLOAT_LIMIT[-1]
    assert not ref_no_center_robot(last, eps) and not _no_center_robot(last, eps)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(-1.79e308, 1.79e308), st.floats(-1.79e308, 1.79e308)),
                min_size=1, max_size=8),
       st.sampled_from([1e-9, 1.0, 1e300]))
def test_guard_bound_never_raises_on_generated_sets_near_the_float_limit(xys, eps):
    _assert_bound_sound([Point(x, y) for x, y in xys], eps)


def test_guard_bound_keeps_a_robot_exactly_at_the_bound():
    """eps chosen so that the bound about the extremes' circle center is
    exactly the distance from the box-center robot to its farthest robot:
    that robot is no witness, so the robot stays; with the bound one float
    lower it is."""
    pts = [(p.x, p.y) for p in _BOX_UNDECIDED]
    bx, by, _ = enclosing_circle_xy(
        [min(pts), max(pts), min(pts, key=itemgetter(1)), max(pts, key=itemgetter(1))])
    scaled = max(math.hypot(x - bx, y - by) for x, y in pts) * (1.0 + 1e-6)
    far = max(math.hypot(x, y) for x, y in pts)  # from the robot at the origin
    eps = far - scaled
    assert (scaled + eps) + 1e-300 == far
    assert not _no_center_robot(_BOX_UNDECIDED, eps)
    assert _no_center_robot(_BOX_UNDECIDED, eps - math.ulp(far))


def test_guard_bound_stays_undecided_when_the_extremes_circle_raises(monkeypatch):
    import swarmperm.symmetry as symmetry

    def raising(xys):
        raise NonFinite("point coordinates must be finite, got (nan, nan)")

    monkeypatch.setattr(symmetry, "enclosing_circle_xy", raising)
    assert not _no_center_robot(_BOX_UNDECIDED, 1e-9)
    # the box alone still decides where it did
    assert _no_center_robot([Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 3.0)], 1e-9)


# --- reference: chirality agreement through rotation orbits -------------------

def _group_gaps(points, groups, c: Point, handedness: str) -> list[float]:
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


def _signature_pairs(points, groups, c: Point, handedness: str) -> list[tuple[float, float]]:
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


def _scan_signature(points, c: Point, rep: int, handedness: str,
                    tol: Tolerance, idxs) -> list[float]:
    groups = _ray_groups(offsets(points, c), idxs, handedness, tol)
    at = next(t for t, g in enumerate(groups) if rep in g)
    groups = list(groups[at:]) + list(groups[:at])
    return _flatten(_signature_pairs(points, groups, c, handedness))


def _rotation_orbits(points, idxs, c: Point, k: int, tol: Tolerance) -> list[list[int]]:
    if k <= 1:
        return [[i] for i in idxs]
    step = 2.0 * math.pi / k
    imap: dict[int, int] = {}
    for i in idxs:
        image = c + (points[i] - c).rotated(step)
        j = min(idxs, key=lambda t: points[t].dist(image))
        # no robot within eps, or a robot taken twice, on which the orbit walk never ends
        if points[j].dist(image) > tol.eps or j in imap.values():
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


def ref_agree_chirality(points, tol: Tolerance = DEFAULT_TOL) -> str:
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

    def orbit_key(orbit: list[int]) -> tuple[float, int, list[float], int]:
        """Radius and size of the orbit, the smaller of its representative's
        ccw and cw scans, and the sign of their comparison."""
        rep = min(orbit)
        s_ccw = _scan_signature(points, c, rep, CCW, tol, idxs)
        s_cw = _scan_signature(points, c, rep, CW, tol, idxs)
        turn = _cmp_seq(s_ccw, s_cw, tol)
        return (points[rep].dist(c), len(orbit), s_ccw if turn <= 0 else s_cw, turn)

    def cmp_keyed(a, b):
        ra, na, siga, _ = a
        rb, nb, sigb, _ = b
        c = tol.cmp(ra, rb)
        if c != 0:
            return c
        if na != nb:
            return -1 if na < nb else 1
        return _cmp_seq(siga, sigb, tol)

    *_, turn = min((orbit_key(o) for o in orbits), key=cmp_to_key(cmp_keyed))
    if turn == 0:
        raise MirrorSymmetric("both scan directions read identically")
    return CCW if turn < 0 else CW


# --- chirality agreement -------------------------------------------------------

_ORBIT_MISMATCH = "rotational order inconsistent with point matching"


def _assert_chirality_identical(pts, tol, rng) -> set:
    """agree_chirality against the orbit reference on pts and on three robots'
    views of it, and _signature against the pair signature it folds, about
    the centroid, in both handednesses.  Returns the outcomes compared."""
    seen = set()
    frames = _frames(rng, len(pts))
    views = [pts] + [to_local_snapshot(pts, frames, i).local_points
                     for i in rng.sample(range(len(pts)), min(3, len(pts)))]
    for view in views:
        want = _outcome(lambda: ref_agree_chirality(list(view), tol))
        if want[0] == "raised" and want[2] == _ORBIT_MISMATCH:
            seen.add("orbit mismatch")
            continue
        assert _outcome(lambda: agree_chirality(list(view), tol)) == want
        seen.add(want[1] if want[0] == "ok" else want[1].__name__)
        c = centroid(view)
        for hand in (CCW, CW):
            groups = _ray_groups(offsets(view, c), range(len(view)), hand, tol)
            assert (_bits(*_signature(offsets(view, c), groups, hand, tol.eps))
                    == _bits(*_flatten(_signature_pairs(view, groups, c, hand))))
    return seen


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_chirality_matches_orbit_reference_on_corpus(eps):
    tol = Tolerance(eps)
    rng = random.Random(87)
    seen = set()
    for pts in _corpus_sets():
        for variant in (pts, _mirrored(pts)):
            seen |= _assert_chirality_identical(variant, tol, rng)
    assert {CCW, CW, "MirrorSymmetric"} <= seen


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(2, 9), st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_chirality_matches_orbit_reference_on_pinwheels(k, orbits, seed, eps):
    rng = random.Random(seed)
    _assert_chirality_identical(pinwheel_config(rng, k, orbits), Tolerance(eps), rng)


def test_chirality_agrees_where_no_matching_realises_the_rotation():
    """The near-pairs set: the reference refuses it, the one-scan rule picks a
    handedness, and a mirrored observer picks the other one."""
    pts = [Point(x, y) for x, y in NEAR_PAIRS]
    assert _outcome(lambda: ref_agree_chirality(pts)) == (
        "raised", NotOrderable, _ORBIT_MISMATCH)
    hand = agree_chirality(pts)
    assert {hand, agree_chirality(_mirrored(pts))} == {CCW, CW}


# --- the one-bit codec ------------------------------------------------------
# Verbatim copies of the codec before its swept order, restored-configuration
# check and centered prologue were folded into helpers, and before the
# layering returned rings only.  They read layers from the reference
# decomposition above, which keeps the center's layer, and the inner polygon
# from its reference.

THIRD_TURN = 2.0 * math.pi / 3.0


def ref_codec_select_pivot(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int:
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
    eps = tol.eps
    ring = list(reversed(ref_inner_polygon(a, tol)))
    m = len(ring)
    us = offsets((points[i] for i in ring), c)
    gaps = [sweep_angle_xy(*us[t], *us[(t + 1) % m], CW, eps) for t in range(m)]
    candidates = least_rotations(gaps, 1, tol)

    def frame_key(s: int) -> tuple[float, float, float]:
        # the sweep from the +x axis, a unit vector of norm exactly 1
        return (sweep_angle_xy(1.0, 0.0, 1.0, *us[s], CW, eps),
                points[ring[s]].x, points[ring[s]].y)

    return ring[min(candidates, key=frame_key)]


def _hop_rank(points: Sequence[Point], p1: Sequence[int], c: Point, ray_from: Point,
              tol: Tolerance) -> list[int]:
    """Innermost-circle vertices ordered clockwise starting at the ray
    from c through ray_from (a vertex on the ray itself ranks first)."""
    [u] = offsets([ray_from], c)
    keys = {v: (sweep_angle_xy(*u, *vec, CW, tol.eps), points[v].x, points[v].y)
            for v, vec in zip(p1, offsets((points[v] for v in p1), c))}
    return sorted(p1, key=keys.__getitem__)


def ref_compute_movement_central(points: Sequence[Point],
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
    pivot = ref_codec_select_pivot(a, tol)
    if n == 3:
        e1, e2 = [i for i in range(n) if i != ci]
        seg = points[e2] - points[e1]
        s_len = seg.norm()
        normal = seg.unit().rotated(math.pi / 2.0)
        ends = dict(zip((e1, e2), offsets((points[e1], points[e2]), c)))
        for sign in (1.0, -1.0):
            apex = c + normal * (sign * s_len / 2.0)
            [u] = offsets([apex], c)
            # all three points sit at distance s/2 from c, so c is the arc center
            first = min((e1, e2), key=lambda i: sweep_angle_xy(*u, *ends[i], CW, tol.eps))
            if first == pivot:
                return apex, pivot
        raise InvalidHop("no perpendicular side makes the pivot first clockwise")
    dest = c + (points[pivot] - c) * 0.125
    return dest, pivot


def ref_compute_movement_not_central(points: Sequence[Point], own: int,
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
    pivot = ref_codec_select_pivot(a, tol)
    if n == 3:
        u = (points[own] - c).unit()
        other = next(i for i in range(n) if i not in (own, ci))
        s_len = points[own].dist(points[other])
        delta = s_len / 16.0
        # sliding away from the old midpoint drags the new midpoint toward
        # the own side; toward it points at the opposite endpoint
        return points[own] + u * (delta if pivot == own else -delta)
    layers = ref_concentric_decomposition(points, c, tol)
    nondeg = [layer for layer in layers if layer.radius > tol.eps]
    p1 = list(nondeg[0].indices)
    ranked = _hop_rank(points, p1, c, points[own], tol)
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
        [u] = offsets([points[own]], c)
        vecs = dict(zip(others, offsets((points[i] for i in others), c)))
        ahead = min(others, key=lambda i: sweep_angle_xy(*u, *vecs[i], CCW, tol.eps))
        return c + (points[ahead] - c).rotated(-e * THIRD_TURN)
    rho = points[own].dist(c)
    below = [0.0] + [layer.radius for layer in nondeg if tol.lt(layer.radius, rho)]
    x = rho - max(below)
    return c + (points[own] - c).unit() * (rho - e * x / 2.0)


def ref_finish_mark(points: Sequence[Point], rec: list[Point], leader: int, e: float,
                 c: Point, case: str, tol: Tolerance) -> LeaderMark | None:
    """Shared tail of the two-mover cases: locate and snap the displaced
    central robot, validate the restored configuration, and decode the
    pivot from the leader's encoded fraction."""
    rest = [i for i in range(len(points)) if i != leader]
    try:
        layers = ref_concentric_decomposition([points[i] for i in rest], c, tol)
    except AmbiguousLayering:
        return None
    inner = next((layer for layer in layers if layer.radius > tol.eps), None)
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
    p1 = ref_inner_polygon(ra, tol)
    r1 = rec[p1[0]].dist(c)
    if not tol.eq(points[qc].dist(c), r1 / 8.0):
        return None
    if not any(tol.ray_aligned(points[qc] - c, rec[v] - c) for v in p1):
        return None
    try:
        nhop = decode_hop(e, len(p1))
    except (DecodeFailure, InvalidHop):
        return None
    ranked = _hop_rank(rec, p1, c, rec[leader], tol)
    return LeaderMark(leader, ranked[nhop], ra, case)


def ref_attempts_three(points: Sequence[Point], tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    a, b = max(pairs, key=lambda ij: points[ij[0]].dist(points[ij[1]]))
    apex = next(i for i in range(3) if i not in (a, b))
    base_dir = (points[b] - points[a]).unit()
    foot = points[a] + base_dir * base_dir.dot(points[apex] - points[a])
    h = points[apex].dist(foot)
    e_len = points[a].dist(points[b])
    if tol.eq(h, e_len / 2.0):
        rec = list(points)
        rec[apex] = foot
        ra = Analysis(rec, tol)
        if first_coincident_pair(rec, tol) is None and ra.in_c_dot:
            [u] = offsets([points[apex]], foot)
            ends = dict(zip((a, b), offsets((points[a], points[b]), foot)))
            first = min((a, b), key=lambda i: sweep_angle_xy(*u, *ends[i], CW, tol.eps))
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


def ref_attempts_many(points: Analysis, tol: Tolerance) -> list[LeaderMark]:
    out: list[LeaderMark] = []
    n = len(points)
    sec = points.sec
    boundary = [i for i in range(n) if tol.eq(points[i].dist(sec.center), sec.radius)]

    # stretched boundary pair
    if len(boundary) == 2 and n >= 4:
        i1, i2 = boundary
        rest = [points[i] for i in range(n) if i not in boundary]
        c2 = smallest_enclosing_circle(rest).center
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
                    mark = ref_finish_mark(points, rec, lead, e, c2, "L2.3", tol)
                    if mark:
                        out.append(mark)

    try:
        layers = ref_concentric_decomposition(points, sec.center, tol)
    except AmbiguousLayering:
        return out
    nondeg = [layer for layer in layers if layer.radius > tol.eps]
    c = sec.center

    # outermost triple knocked out of its equal spacing
    outer = nondeg[-1]
    if len(outer.indices) == 3:
        vecs = dict(zip(outer.indices, offsets((points[i] for i in outer.indices), c)))
        # the sweep from the +x axis, a unit vector of norm exactly 1
        ring = sorted(outer.indices,
                      key=lambda i: sweep_angle_xy(1.0, 0.0, 1.0, *vecs[i], CCW, tol.eps))
        gaps = [sweep_angle_xy(*vecs[ring[t]], *vecs[ring[(t + 1) % 3]], CCW, tol.eps)
                for t in range(3)]
        if not all(tol.eq(g, THIRD_TURN) for g in gaps):
            t_min = min(range(3), key=lambda t: gaps[t])
            others = sorted(gaps[:t_min] + gaps[t_min + 1:])
            if tol.eq(others[0], THIRD_TURN):
                lead = ring[t_min]
                ahead = ring[(t_min + 1) % 3]
                e = gaps[t_min] / THIRD_TURN
                rec = list(points)
                rec[lead] = c + (points[ahead] - c).rotated(-THIRD_TURN)
                mark = ref_finish_mark(points, rec, lead, e, c, "L2.2", tol)
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
            mark = ref_finish_mark(points, rec, ql, e, c, "L2.1", tol)
            if mark:
                out.append(mark)

    # only the central robot moved
    if singles:
        q = singles[0].indices[0]
        rec = list(points)
        rec[q] = c
        ra = Analysis(rec, tol)
        if first_coincident_pair(rec, tol) is None and ra.in_c_dot:
            p1 = ref_inner_polygon(ra, tol)
            r1 = rec[p1[0]].dist(c)
            if tol.eq(points[q].dist(c), r1 / 8.0):
                hits = [v for v in p1 if tol.ray_aligned(points[q] - c, rec[v] - c)]
                if len(hits) == 1:
                    out.append(LeaderMark(q, hits[0], ra, "C2"))
    return out


def ref_reconstruct(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> LeaderMark:
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
    marks = ref_attempts_three(points, tol) if n == 3 else ref_attempts_many(a, tol)
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


def _mark_bits(mark: LeaderMark):
    return (mark.leader_index, mark.pivot_index, mark.case, _point_bits(mark.reconstructed))


def _codec_sets(rng):
    """The centered corpus sets of 3 to 12 robots: rand_c_dot for every n and
    rotational order it allows, and the centered path's sets of that size."""
    for n in range(3, 13):
        for k in (d for d in range(2, n) if (n - 1) % d == 0):
            yield rand_c_dot(rng, n, k)
    yield from (pts for pts in _centered_sets(rng) if len(pts) <= 12)


def _nudged(rng, pts, size):
    return [p + Point(size, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi)) for p in pts]


def _assert_reconstruct_identical(pts, tol) -> set:
    """reconstruct and the case attempts under it; the cases of the marks.
    One difference is allowed: where the reference stops with
    AmbiguousLayering, a candidate's layering was ambiguous, which
    `_restored` counts as a rejection, so no mark survives and reconstruct
    stops with ReconstructFailure."""
    a, ref_a = Analysis(pts, tol), Analysis(pts, tol)
    if len(pts) == 3:
        got = _outcome(lambda: [_mark_bits(m) for m in _attempts_three(pts, tol)])
        want = _outcome(lambda: [_mark_bits(m) for m in ref_attempts_three(pts, tol)])
    else:
        got = _outcome(lambda: [_mark_bits(m) for m in _attempts_many(a, tol)])
        want = _outcome(lambda: [_mark_bits(m) for m in ref_attempts_many(ref_a, tol)])
    rebuilt = _outcome(lambda: _mark_bits(reconstruct(pts, tol)))
    ref_rebuilt = _outcome(lambda: _mark_bits(ref_reconstruct(pts, tol)))
    if want[:2] == ("raised", AmbiguousLayering):
        assert got == ("ok", [])
        assert ref_rebuilt[:2] == ("raised", AmbiguousLayering)
        assert rebuilt == ("raised", ReconstructFailure,
                           "0 consistent interpretations of the intermediate configuration")
        return set()
    assert got == want
    assert rebuilt == ref_rebuilt
    return {m[2] for m in got[1]} if got[0] == "ok" else set()


def _hex_points(value):
    """value with every Point, also inside a tuple, as float.hex bits."""
    if isinstance(value, Point):
        return _bits(value.x, value.y)
    if isinstance(value, tuple):
        return tuple(_hex_points(v) for v in value)
    return value


def _assert_codec_identical(pts, tol, rng) -> set:
    """The pivot, the hop rank from every robot, the central movement and
    every robot's leader movement, then reconstruct on the one-mover and
    every two-mover intermediate, and on every leader that moved alone, as
    they are and with every robot nudged by 1e-12 to 1e-3.  Returns the
    cases of the marks found."""
    assert (_outcome(lambda: select_pivot(pts, tol))
            == _outcome(lambda: ref_codec_select_pivot(pts, tol)))
    central = _outcome(lambda: compute_movement_central(pts, tol))
    assert (_hex_points(central)
            == _hex_points(_outcome(lambda: ref_compute_movement_central(pts, tol))))
    leaders = {}
    for i in range(len(pts)):
        got = _outcome(lambda: compute_movement_not_central(pts, i, tol))
        want = _outcome(lambda: ref_compute_movement_not_central(pts, i, tol))
        assert _hex_points(got) == _hex_points(want)
        if got[0] == "ok":
            leaders[i] = got[1]
    ci = Analysis(pts, tol).center_index
    if ci is not None:
        c = pts[ci]
        layers = ref_concentric_decomposition(pts, c, tol)
        p1 = next((layer.indices for layer in layers if layer.radius > tol.eps), ())
        for p in pts:
            [u] = offsets([p], c)
            assert _swept_order(pts, p1, c, u, CW, tol) == _hop_rank(pts, p1, c, p, tol)
    if central[0] != "ok":
        return set()
    one = list(pts)
    one[ci] = central[1][0]
    intermediates = [one]
    for i, dest in leaders.items():
        for base in (one, pts):
            two = list(base)
            two[i] = dest
            intermediates.append(two)
    cases = set()
    for mid in intermediates:
        cases |= _assert_reconstruct_identical(mid, tol)
        for size in (1e-12, 1e-9, 1e-6, 1e-3):
            cases |= _assert_reconstruct_identical(_nudged(rng, mid, size), tol)
    return cases


# A one-bit intermediate of five robots, nudged by 1e-9: putting its center
# robot back gives a candidate whose radius chain about the centroid spans
# more than eps.
_AMBIGUOUS_CANDIDATE = [
    (-1.8337963252894938, -0.6592170403989888), (-1.5644876585785406, -1.280612486925566),
    (-2.9730294216230253, -0.9924939697263933), (-2.360704584989321, 0.5565566610823839),
    (-0.8116539545438314, -0.055768176200053)]


def test_reconstruct_rejects_a_candidate_with_an_ambiguous_layering():
    pts = [Point(x, y) for x, y in _AMBIGUOUS_CANDIDATE]
    tol = Tolerance(1e-9)
    with pytest.raises(AmbiguousLayering, match="^radius chain spans"):
        ref_reconstruct(pts, tol)
    assert _attempts_many(Analysis(pts, tol), tol) == []
    with pytest.raises(ReconstructFailure, match="^0 consistent interpretations"):
        reconstruct(pts, tol)


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_codec_matches_reference_on_centered_corpus(eps):
    tol = Tolerance(eps)
    rng = random.Random(83)
    sets = list(_codec_sets(random.Random(82)))
    cases = set()
    for pts in sets:
        cases |= _assert_codec_identical(pts, tol, rng)
    assert len(sets) > 20
    assert cases == {"C1", "C2", "L1", "L2.1", "L2.2", "L2.3"}


# --- reference: the sweep step's kernels before they ran on locals -----------

def ref_ray_groups_norm_angle(points: Sequence[Point], idxs: Sequence[int], c: Point,
                              handedness: str, tol: Tolerance) -> list[list[int]]:
    """Indices grouped by ray from c, groups in sweep order for the given
    handedness, each sorted by increasing distance from c.  Runs on raw
    floats with the operation order of `points[i] - c`, `Point.dist` and
    `Tolerance.ray_aligned`."""
    cx, cy, eps = c.x, c.y, tol.eps
    rows = []
    for i in idxs:
        p = points[i]
        vx, vy = p.x - cx, p.y - cy
        th = norm_angle(math.atan2(vy, vx))
        rows.append((th if handedness == CCW else norm_angle(-th), math.hypot(vx, vy), i, vx, vy))
    rows.sort(key=itemgetter(0, 1))
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
    return [[row[2] for row in sorted(g, key=itemgetter(1))] for g in groups]


def ref_no_center_robot_unfiltered(points: Sequence[Point], eps: float) -> bool:
    """True when every robot has a robot farther than that bound from it,
    so none is the center robot."""
    if not points:  # the circle raises EmptyConfiguration
        return False
    pts = [(p.x, p.y) for p in points]
    west, east = min(pts), max(pts)
    south, north = min(pts, key=itemgetter(1)), max(pts, key=itemgetter(1))
    # halves before the sum: the center stays finite for every finite box
    bx, by = 0.5 * west[0] + 0.5 * east[0], 0.5 * south[1] + 0.5 * north[1]
    bound = max([math.hypot(x - bx, y - by) for x, y in pts]) * (1.0 + _BOX_SLACK) + eps + 1e-300
    (wx, wy), (ex, ey), (sx, sy), (nx, ny) = west, east, south, north
    left = [(x, y) for x, y in pts
            if math.hypot(x - wx, y - wy) <= bound and math.hypot(x - ex, y - ey) <= bound
            and math.hypot(x - sx, y - sy) <= bound and math.hypot(x - nx, y - ny) <= bound]
    core = [west, east, south, north]
    while left and len(core) < 6:  # two rounds at most
        try:
            bx, by, _ = enclosing_circle_xy(core)
        except NonFinite:  # a circumcenter left the finite floats: undecided
            return False
        dists = [math.hypot(x - bx, y - by) for x, y in pts]
        reach = max(dists)
        bound = reach * (1.0 + _BOX_SLACK) + eps + 1e-300
        left = [(x, y) for x, y in left
                if not any(math.hypot(x - qx, y - qy) > bound for qx, qy in pts)]
        core.append(pts[dists.index(reach)])
    return not left


def ref_centroid(points: Sequence[Point]) -> Point:
    if len(points) == 0:
        raise EmptyConfiguration("centroid of an empty point set")
    sx = math.fsum(p.x for p in points)
    sy = math.fsum(p.y for p in points)
    n = len(points)
    return Point(sx / n, sy / n)


# Rays at the edges of the heading's normalisation about the origin: atan2
# a tiny negative, whose turn to [0, 2*pi) rounds up to 2*pi and wraps to 0,
# and a tiny positive, whose CW negation does the same; the exact +pi and
# -pi rays; the +x ray with either sign of zero; and the origin itself.
_EDGE_RAYS = [Point(1.0, -1e-300), Point(1.0, -5e-324), Point(0.5, -1e-17), Point(1.0, 1e-300),
              Point(3.0, 5e-324), Point(-1.0, 0.0), Point(-1.0, -0.0), Point(-2.0, -1e-300),
              Point(1.0, 0.0), Point(2.0, -0.0), Point(0.0, 1.0), Point(0.0, -1.0),
              Point(0.7, 0.7), Point(0.0, 0.0)]


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_ray_groups_match_parent_on_edge_rays(eps):
    assert norm_angle(math.atan2(-1e-300, 1.0)) == 0.0  # the wrap the rays exercise
    assert norm_angle(-norm_angle(math.atan2(1e-300, 1.0))) == 0.0
    tol = Tolerance(eps)
    rng = random.Random(19)
    pts = list(_EDGE_RAYS)
    for c in (ORIGIN, Point(0.0, -0.0), centroid(pts), Point(-1e-300, 0.0)):
        for _ in range(60):
            idxs = rng.sample(range(len(pts)), rng.randint(1, len(pts)))
            for hand in (CCW, CW):
                assert (_ray_groups(offsets(pts, c), idxs, hand, tol)
                        == ref_ray_groups_norm_angle(pts, idxs, c, hand, tol))


def _eps_at_bound(pts, target: float) -> list[float]:
    """Positive eps values that put the first-stage bound on pts exactly at
    the float below target, at target and at the float above it."""
    xys = [(p.x, p.y) for p in pts]
    west, east = min(xys), max(xys)
    south, north = min(xys, key=itemgetter(1)), max(xys, key=itemgetter(1))
    bx, by = 0.5 * west[0] + 0.5 * east[0], 0.5 * south[1] + 0.5 * north[1]
    scaled = max([math.hypot(x - bx, y - by) for x, y in xys]) * (1.0 + _BOX_SLACK)
    out = []
    for want in (math.nextafter(target, -math.inf), target, math.nextafter(target, math.inf)):
        eps = want - scaled
        for _ in range(64):
            got = scaled + eps + 1e-300
            if got == want:
                if eps > 0.0:
                    out.append(eps)
                break
            eps = math.nextafter(eps, math.inf if got < want else -math.inf)
    return out


def _assert_bound_matches_parent_at_edges(pts) -> int:
    """The bound against its parent copy with the first-stage bound at,
    and one float to either side of, every robot's coordinate difference
    to each axis extreme.  Returns the number of eps values tried."""
    xys = [(p.x, p.y) for p in pts]
    (wx, _), (ex, _) = min(xys), max(xys)
    sy, ny = min(y for _, y in xys), max(y for _, y in xys)
    tried = 0
    for x, y in xys:
        for d in (x - wx, ex - x, y - sy, ny - y):
            for eps in _eps_at_bound(pts, d):
                assert _no_center_robot(pts, eps) == ref_no_center_robot_unfiltered(pts, eps)
                tried += 1
    return tried


def test_no_center_robot_matches_parent_at_the_coordinate_edge():
    # In the right triangle only the robot at the right angle, (2, 0), is
    # within 2 of every extreme: its x-difference to the west robot is
    # exactly 2, and so is its hypot.  A bound of 2 keeps it, and the circle
    # stage finds no witness farther than 2; one float less drops it and
    # decides.  Turned four ways, the one robot sits at each of the four
    # coordinate tests' edge.
    right = [Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, -1.5)]
    for pts in (right, _swapped(right), [-p for p in right], _swapped([-p for p in right])):
        below, at, above = _eps_at_bound(pts, 2.0)
        assert _no_center_robot(pts, below) and ref_no_center_robot_unfiltered(pts, below)
        for eps in (at, above):
            assert not _no_center_robot(pts, eps) and not ref_no_center_robot_unfiltered(pts, eps)
    rng = random.Random(191)
    sets = [right, [Point(-1.0, 0.0), Point(1.0, 0.0)], [Point(0.0, -1.0), Point(0.0, 1.0)],
            [Point(-1.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0)],
            [Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 1.0)], _BOX_UNDECIDED, _FIVE_CORE]
    for _ in range(40):
        n = rng.randint(2, 7)
        sets.append([Point(rng.randint(-4, 4) * 0.5, rng.randint(-4, 4) * 0.5) for _ in range(n)])
        sets.append([Point(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(n)])
    assert sum(_assert_bound_matches_parent_at_edges(pts) for pts in sets) > 500


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_no_center_robot_matches_parent_on_corpus(eps):
    rng = random.Random(84)
    for pts in _corpus_sets():
        frames = _frames(rng, len(pts))
        for snap_pts in (pts, to_local_snapshot(pts, frames, 0).local_points):
            assert _no_center_robot(snap_pts, eps) == ref_no_center_robot_unfiltered(snap_pts, eps)


def test_centroid_matches_parent():
    sets = list(_corpus_sets()) + [_EDGE_RAYS, [Point(1e308, -1e308), Point(-1e308, 5e-324)],
                                   [Point(1e16, 1.0), Point(1.0, 1e-16), Point(-1e16, -1.0)]]
    for pts in sets:
        got, want = centroid(pts), ref_centroid(pts)
        assert _bits(got.x, got.y) == _bits(want.x, want.y)
    with pytest.raises(EmptyConfiguration, match="^centroid of an empty point set$"):
        centroid([])


# --- reference: the centroid split and the box extremes before they read floats

def ref_centroid_split(points: Sequence[Point], c: Point, eps: float):
    """order_with_chirality's robots at the centroid, and the rest."""
    cx, cy = c.x, c.y
    center_idxs = [i for i, p in enumerate(points) if math.hypot(p.x - cx, p.y - cy) <= eps]
    rest = [i for i in range(len(points)) if i not in center_idxs]
    return center_idxs, rest


def ref_order_with_chirality(points: Sequence[Point], handedness: str,
                             tol: Tolerance) -> CyclicOrder:
    """order_with_chirality on the split above and the parent's ray grouping."""
    a = analyze(points, tol)
    require_distinct(a, tol)
    CENTERED.check(a)
    c = a.centroid
    center_idxs, rest = ref_centroid_split(points, c, tol.eps)
    groups = ref_ray_groups_norm_angle(points, rest, c, handedness, tol)
    flat = [i for g in groups for i in g]
    if not center_idxs or not rest:
        return CyclicOrder(tuple(flat + center_idxs))
    starts = least_rotations(_signature(offsets(points, c), groups, handedness, tol.eps), 2, tol)
    if len(starts) > 1:
        raise NotOrderable("signature is rotationally periodic, no canonical start")
    s = starts[0]
    return CyclicOrder(tuple(flat[s:] + flat[:s] + center_idxs))


def ref_box_extremes(points: Sequence[Point]) -> list[tuple[float, float]]:
    """_no_center_robot's west, east, south and north robots, taken by min
    and max over fresh (x, y) tuples."""
    pts = [(p.x, p.y) for p in points]
    west, east = min(pts), max(pts)
    south, north = min(pts, key=itemgetter(1)), max(pts, key=itemgetter(1))
    return [west, east, south, north]


def _near_centroid_sets():
    """Asymmetric sets with one robot close to the centroid, at several
    scales and offsets, each with the distance d of that robot from the
    centroid."""
    outer = [Point(3.0, 0.2), Point(-1.0, 2.5), Point(-2.2, -1.7), Point(0.4, -2.9),
             Point(1.9, 1.6)]
    for scale in (1.0, 1e-6, 1e6):
        for off in (Point(1e-3, 0.0), Point(-3e-4, 4e-4), Point(0.0, -2e-3), Point(0.0, 0.0)):
            pts = [p * scale for p in outer]
            pts.insert(2, centroid(outer) * scale + off * scale)
            c = centroid(pts)
            yield pts, math.hypot(pts[2].x - c.x, pts[2].y - c.y)


def test_order_with_chirality_matches_parent_at_the_centroid_edge():
    """eps exactly the near robot's distance from the centroid, and one ulp
    either side, decides whether that robot is the centroid robot."""
    split = 0
    for pts, d in _near_centroid_sets():
        for eps in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)):
            if not eps > 0.0:
                continue
            tol = Tolerance(eps)
            c = centroid(pts)
            split += ref_centroid_split(pts, c, eps)[0] == [2]
            for variant in (pts, _swapped(pts)):
                for hand in (CCW, CW):
                    got = _outcome(lambda: order_with_chirality(variant, hand, tol).seq)
                    want = _outcome(lambda: ref_order_with_chirality(variant, hand, tol).seq)
                    assert got == want
    assert split >= 18


_TIED_EXTREMES = [
    [Point(0.0, 1.0), Point(0.0, -1.0), Point(2.0, 0.0), Point(2.0, 3.0), Point(2.0, -3.0)],
    [Point(1.0, 0.0), Point(-1.0, 0.0), Point(0.0, 2.0), Point(3.0, 2.0), Point(-2.0, 0.5)],
    [Point(0.0, 0.0), Point(-0.0, 0.0), Point(0.0, -0.0), Point(1.0, 1.0)],
    [Point(-0.0, 1.0), Point(0.0, 1.0), Point(-0.0, -0.0), Point(0.0, 0.0), Point(0.5, -0.0)],
    [Point(1.0, 1.0), Point(1.0, 1.0), Point(0.0, 0.0), Point(0.0, 0.0)],
    [Point(0.0, 0.0), Point(0.0, 1.0), Point(1.0, 1.0), Point(1.0, 0.0)],
]


def test_box_extremes_match_parent_on_tied_extremes():
    """min(pts) is lexicographic, ties to the least y, while min by y alone
    keeps the first in input order: every order of sets whose extreme x or
    y is tied, also between 0.0 and -0.0 and between duplicates."""
    count = 0
    for base in _TIED_EXTREMES:
        for pts in (base, _swapped(base), [-p for p in base]):
            for perm in itertools.permutations(range(len(pts))):
                view = [pts[i] for i in perm]
                got = _box_extremes([p.x for p in view], [p.y for p in view])
                assert [_bits(*xy) for xy in got] == [_bits(*xy) for xy in ref_box_extremes(view)]
                for eps in (1e-9, 1.0):
                    assert _no_center_robot(view, eps) == ref_no_center_robot_unfiltered(view, eps)
                count += 1
    assert count == 3 * (3 * 120 + 3 * 24)
