"""Symmetry analysis of point configurations: rotational order about the
centroid, mirror axes, symmetricity, the feasibility classification, and
the paper's obstructions that the protocols refuse.

`Analysis` caches these results for one point set.  Every public function
here that takes points also accepts an Analysis and reuses what it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import DuplicatePoints, NonFinite, NotOrderable
from .geometry import (
    DEFAULT_TOL,
    Circle,
    Layer,
    Point,
    PointIndex,
    Points,
    Tolerance,
    angle_of,
    as_points,
    centroid,
    columns,
    concentric_decomposition,
    enclosing_circle_xy,
    first_coincident_pair,
    offsets,
    rings_by_radius,
    smallest_enclosing_circle,
)


@dataclass(frozen=True)
class Axis:
    """Mirror axis: a line through `point` along unit `direction`.

    The direction is canonicalized to angle in [0, pi).
    """

    point: Point
    direction: Point

    @property
    def angle(self) -> float:
        a = angle_of(self.direction)
        if a < 0.0:
            a += math.pi
        if a >= math.pi:
            a -= math.pi
        return a


class _cached(cached_property):
    """cached_property without 3.11's first-read lock: an analysis lives in one thread."""

    def __get__(self, a, owner=None):
        return self if a is None else a.__dict__.setdefault(self.attrname, self.func(a))


class Analysis(Points):
    """A point set's columns, a `Points`, that computes what the protocols
    ask of it, each part at most once, on first use, by calling the public
    function that a standalone query calls.  There are three exceptions.
    `in_c_dot` counts the rotations of the robots other than the center
    robot in `_symmetries`, the loop behind `rotational_order` and
    `mirror_axes`, up to the second.
    `no_center_robot` bounds the enclosing radius from the bounding box and
    circles of four or five extreme robots, never the full circle.  Only
    `CENTERED` reads it: the refusing protocols use the circle for nothing
    else, while the centered steps go on to use it, and on their snapshots
    a robot sits at or near the center, so the bound never decides there.
    `is_central_symmetric` tests the half turn alone, one image test.
    `rows` holds each robot's offset from the enclosing circle's center,
    taken once for every centered reader, from `center_robot_index` and
    `layers` to OneBit's reconstruction.
    A protocol builds one per snapshot and drops it when the step returns.
    Its Points are built only when read: a step that reads the columns
    through the kernels builds only the Points it returns or keeps, such as
    the centroid.

    It is also the one report of a configuration: `classify` and
    `symmetry_report` return it, and the facts that `swarmperm classify`
    prints, from `rho` to `unique_axis_no_robots`, are attributes computed
    on first read like the rest."""

    def __init__(self, points: Iterable[Point], tol: Tolerance = DEFAULT_TOL):
        pts = as_points(points)
        super().__init__(pts.xs, pts.ys, pts._points)
        self.tol = tol

    @_cached
    def sec(self) -> Circle:
        """The smallest enclosing circle."""
        return smallest_enclosing_circle(self)

    @_cached
    def rows(self) -> list[tuple[float, float, float]]:
        """Each robot's `offsets` row, its vector and distance, from the circle's center."""
        return offsets(self, self.sec.center)

    @_cached
    def center_index(self) -> int | None:
        """The unique robot on the circle center, or None."""
        return center_robot_index(self, self.tol)

    @_cached
    def no_center_robot(self) -> bool:
        """True when a bound shows that no robot lies within eps of the
        enclosing circle's center; False decides nothing."""
        return _no_center_robot(self, self.tol.eps)

    @_cached
    def without_center(self) -> Analysis | None:
        """The robots other than the center robot; None without a center
        robot or with fewer than three robots."""
        rc = self.center_index
        if rc is None or len(self) < 3:
            return None
        xs, ys = self.xs, self.ys
        return Analysis(Points(xs[:rc] + xs[rc + 1:], ys[:rc] + ys[rc + 1:]), self.tol)

    @_cached
    def k_without_center(self) -> int:
        """Rotational order of the robots other than the center robot; 0
        without a center robot or with fewer than three robots."""
        rest = self.without_center
        return 0 if rest is None else rotational_order(rest, self.tol)

    @_cached
    def in_c_dot(self) -> bool:
        """Centered symmetric: a center robot, and the rest rotationally
        symmetric.  Needs no mirror axes, and stops counting the rest's
        rotations at the second."""
        rest = self.without_center
        return rest is not None and _rotation_count(rest, 2) > 1

    @_cached
    def centroid(self) -> Point:
        return centroid(self)

    @_cached
    def reference_layer(self) -> tuple[int, ...]:
        """Smallest ring about the centroid (ties to the innermost).  Every
        symmetry permutes it, so the maps of its first point onto its
        members are the only candidates."""
        layers = concentric_decomposition(self, self.centroid, self.tol)
        return min((layer.indices for layer in layers), key=len, default=())

    @_cached
    def point_index(self) -> PointIndex:
        """The eps index of the points, for the image tests of the symmetry queries."""
        return PointIndex(self, self.tol)

    @_cached
    def layers(self) -> tuple[Layer, ...]:
        """Concentric rings about the circle center, innermost first, from the rows' radii."""
        keys = [(d, x, y) for (_, _, d), x, y in zip(self.rows, self.xs, self.ys)]
        return rings_by_radius(keys, self.sec.center, self.tol)

    @_cached
    def inner_polygon(self) -> tuple[int, ...]:
        from . import ordering  # ordering imports this module
        return ordering.inner_polygon(self, self.tol)

    @_cached
    def rotational_order(self) -> int:
        return rotational_order(self, self.tol)

    @_cached
    def mirror_axes(self) -> tuple[Axis, ...]:
        return mirror_axes(self, self.tol)

    @_cached
    def axis_robots(self) -> tuple[tuple[int, ...], ...]:
        """The robots on each mirror axis, one tuple per axis."""
        return tuple(robots_on_axis(self, ax, self.tol) for ax in self.mirror_axes)

    @_cached
    def robot_counts_on_axes(self) -> tuple[int, ...]:
        return tuple(len(on) for on in self.axis_robots)

    @_cached
    def axis_count(self) -> int:
        return len(self.mirror_axes)

    @_cached
    def axis_with_single_robot(self) -> bool:
        return ONE_ROBOT_AXIS.holds(self)

    @_cached
    def unique_axis_no_robots(self) -> bool:
        return len(self.mirror_axes) == 1 and not self.axis_robots[0]

    @_cached
    def has_central_robot(self) -> bool:
        """A robot within eps of the centroid."""
        return any(self.tol.same_point(p, self.centroid) for p in self)

    @_cached
    def is_central_symmetric(self) -> bool:
        """The half turn about the centroid: one image test of 2c - p."""
        return len(self) > 1 and self.point_index.matches(
            (c.x + c.x - x, c.y + c.y - y) for c in [self.centroid] for x, y in zip(self.xs, self.ys))

    @_cached
    def rho(self) -> int:
        """The symmetricity: the rotational order, forced to 1 when a robot
        occupies the centroid."""
        return 1 if self.has_central_robot else self.rotational_order


def analyze(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Analysis:
    """points itself when it is an Analysis under tol, else a new one."""
    if isinstance(points, Analysis) and points.tol == tol:
        return points
    return Analysis(points, tol)


def rotational_order(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int:
    """Largest k such that rotation by 2*pi/k about the centroid maps the
    point set onto itself."""
    a = analyze(points, tol)
    return _rotation_count(a, len(a))


def _rotation_count(a: Analysis, stop: int) -> int:
    """The rotational order of a, counted up to stop, and at least 1."""
    if len(a) <= 1 or len(a.reference_layer) <= 1:  # one member leaves only the identity
        return 1
    return max(len(_symmetries(a, False, stop)), 1)


def _symmetries(a: Analysis, mirror: bool, stop: int) -> list[int]:
    """The reference-layer members, up to stop of them, onto which a
    symmetry about the centroid takes the layer's first point: a rotation,
    or a reflection when mirror is set.  With b and m the offsets of that
    point and of a member, w = m conj(b) maps each offset z to w z, and
    w = m b maps it to w conj(z) (Atallah, "On symmetry detection", 1985),
    b and m first scaled exactly by one power of two to norms near 1, and w
    then to norm 1; the map passes when `PointIndex.matches` takes the
    images onto the points.  No cos or sin is taken."""
    cx, cy = a.centroid.x, a.centroid.y
    xs, ys, layer = a.xs, a.ys, a.reference_layer
    bx, by = xs[layer[0]] - cx, ys[layer[0]] - cy
    k = -math.frexp(math.hypot(bx, by))[1]
    bx, by = math.ldexp(bx, k), math.ldexp(by if mirror else -by, k)
    zs = [(x - cx, cy - y if mirror else y - cy) for x, y in zip(xs, ys)]
    hits: list[int] = []
    for i in layer:
        mx, my = math.ldexp(xs[i] - cx, k), math.ldexp(ys[i] - cy, k)
        wx, wy = mx * bx - my * by, mx * by + my * bx
        wd = math.hypot(wx, wy)
        wx, wy = wx / wd, wy / wd
        if a.point_index.matches((cx + (wx * zx - wy * zy), cy + (wy * zx + wx * zy)) for zx, zy in zs):
            hits.append(i)
            if len(hits) == stop:
                break
    return hits


def mirror_axes(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> tuple[Axis, ...]:
    """All mirror axes of the point set.  Every axis passes through the
    centroid; results are deduplicated and sorted by angle in [0, pi)."""
    a = analyze(points, tol)
    if len(a) <= 1 or not a.reference_layer:
        return ()
    c, layer = a.centroid, a.reference_layer
    theta_base = angle_of(a[layer[0]] - c)
    halves = [(theta_base + angle_of(a[i] - c)) / 2.0 for i in _symmetries(a, True, len(layer))]
    angles = sorted(math.fmod(h if h >= 0.0 else h + math.pi, math.pi) for h in halves)
    dedup: list[float] = []
    for ang in angles:
        if any(abs(ang - b) <= tol.eps or abs(abs(ang - b) - math.pi) <= tol.eps for b in dedup):
            continue
        dedup.append(ang)
    return tuple(Axis(c, Point(math.cos(ang), math.sin(ang))) for ang in dedup)


def robots_on_axis(points: Sequence[Point], axis: Axis, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Indices of the robots within eps of the axis line (eps times the
    direction's norm when that exceeds 1).  Runs on raw floats with the
    operation order of `(p - axis.point).cross(axis.direction)`."""
    cx, cy = axis.point.x, axis.point.y
    dx, dy = axis.direction.x, axis.direction.y
    bound = tol.eps * max(1.0, math.hypot(dx, dy))
    return tuple(i for i, (x, y) in enumerate(zip(*columns(points)))
                 if abs((x - cx) * dy - (y - cy) * dx) <= bound)


def require_distinct(points: Sequence[Point], tol: Tolerance) -> None:
    """Raise DuplicatePoints naming the first pair of points within eps:
    symmetry and cyclic orders are undefined there."""
    if (hit := first_coincident_pair(points, tol)) is not None:
        raise DuplicatePoints(f"points {hit[0]} and {hit[1]} coincide within eps")


def symmetry_report(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Analysis:
    """The analysis of the points, for `swarmperm classify`, once no two of
    them coincide within eps."""
    a = analyze(points, tol)
    require_distinct(a, tol)
    return a


def center_robot_index(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int | None:
    """Index of the unique robot within eps of the circle's center, by the rows, or None."""
    a = analyze(points, tol)
    hits = [i for i, (_, _, d) in enumerate(a.rows) if d <= tol.eps]
    return hits[0] if len(hits) == 1 else None


# The circle of `smallest_enclosing_circle` holds every robot within
# r(1 + 1e-14) + 1e-300 of its center, and its radius r exceeds by at most
# a factor 1 + 1e-12 the distance R from any point b to the farthest robot
# (tests/test_geometry.py holds both facts).  So a robot within eps of the
# center is within R(1 + _BOX_SLACK) + eps + 1e-300 of every robot, the
# slack covering those factors and the rounding of R and of the test.  b is
# first the bounding-box center, witnessed by the axis-extreme robots; then
# the center of their circle, and of that circle's points plus the robot
# farthest from it, witnessed by every robot.
_BOX_SLACK = 1e-6


def _box_extremes(xs: list[float], ys: list[float]) -> list[tuple[float, float]]:
    """min and max of the (x, y) pairs, ties in x going to y, then to the
    first; and the first pair at the least and at the greatest y."""
    lo, hi = min(xs), max(xs)
    w = xs.index(lo) if xs.count(lo) == 1 else min(
        [i for i, x in enumerate(xs) if x == lo], key=ys.__getitem__)
    e = xs.index(hi) if xs.count(hi) == 1 else max(
        [i for i, x in enumerate(xs) if x == hi], key=ys.__getitem__)
    s, n = ys.index(min(ys)), ys.index(max(ys))
    return [(xs[w], ys[w]), (xs[e], ys[e]), (xs[s], ys[s]), (xs[n], ys[n])]


def _no_center_robot(points: Sequence[Point], eps: float) -> bool:
    """True when every robot has a robot farther than that bound from it,
    so none is the center robot."""
    xs, ys = columns(points)
    if not xs:  # the circle raises EmptyConfiguration
        return False
    (wx, wy), (ex, ey), (sx, sy), (nx, ny) = core = _box_extremes(xs, ys)
    # halves before the sum: the center stays finite for every finite box
    bx, by = 0.5 * wx + 0.5 * ex, 0.5 * sy + 0.5 * ny
    bound = max([math.hypot(x - bx, y - by) for x, y in zip(xs, ys)]) * (1.0 + _BOX_SLACK) + eps + 1e-300
    # a hypot is never below the magnitude of either difference, so the
    # coordinate test only skips hypots that exceed the bound
    left = [(x, y) for x, y in zip(xs, ys)
            if x - wx <= bound and ex - x <= bound and y - sy <= bound and ny - y <= bound
            and math.hypot(x - wx, y - wy) <= bound and math.hypot(x - ex, y - ey) <= bound
            and math.hypot(x - sx, y - sy) <= bound and math.hypot(x - nx, y - ny) <= bound]
    while left and len(core) < 6:  # two rounds at most
        try:
            bx, by, _ = enclosing_circle_xy(core)
        except NonFinite:  # a circumcenter left the finite floats: undecided
            return False
        dists = [math.hypot(x - bx, y - by) for x, y in zip(xs, ys)]
        reach = max(dists)
        bound = reach * (1.0 + _BOX_SLACK) + eps + 1e-300
        left = [(x, y) for x, y in left
                if not any(math.hypot(x - qx, y - qy) > bound for qx, qy in zip(xs, ys))]
        far = dists.index(reach)
        core.append((xs[far], ys[far]))
    return not left


def classify(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Analysis:
    """The analysis of the points, whose attributes hold the feasibility
    classification."""
    return analyze(points, tol)


# --- the paper's obstructions ---------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    """A class of configurations that defeats a family of protocols: a predicate
    over an Analysis, reading only what it needs, and the message it is refused with."""

    holds: Callable[[Analysis], bool]
    message: str

    def check(self, a: Analysis) -> None:
        if self.holds(a):
            raise NotOrderable(self.message)


CENTERED = Obstruction(lambda a: not a.no_center_robot and a.in_c_dot,
                       "centered symmetric class, which defeats every memoryless "
                       "one-step rule (demo thm2)")
ONE_ROBOT_AXIS = Obstruction(lambda a: any(len(on) == 1 for on in a.axis_robots),
                             "a mirror axis carries exactly one robot (demo thm5)")
BLOCKING_AXES = Obstruction(lambda a: len(a.mirror_axes) > 1 or any(a.axis_robots),
                            "two or more mirror axes, or an occupied one (demo thm9)")
