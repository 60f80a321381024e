"""Symmetry analysis of point configurations: rotational order about the
centroid, mirror axes, symmetricity, view classes, and the feasibility
classification used by the protocols.

`Analysis` caches these results for one point set.  Every public function
here that takes points also accepts an Analysis and reuses what it holds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DuplicatePoints
from .geometry import (
    DEFAULT_TOL,
    Circle,
    Layer,
    Point,
    Tolerance,
    angle_of,
    ccw_angle,
    centroid,
    concentric_decomposition,
    first_coincident_pair,
    inverse_transform,
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


@dataclass(frozen=True)
class SymmetryReport:
    rho: int
    rotational_order: int
    mirror_axes: tuple[Axis, ...]
    robot_counts_on_axes: tuple[int, ...]
    has_central_robot: bool
    is_central_symmetric: bool


@dataclass(frozen=True)
class ConfigClass:
    in_c_dot: bool
    k_without_center: int
    axis_with_single_robot: bool
    unique_axis_no_robots: bool
    axis_count: int


class Analysis(tuple):
    """A tuple of points that computes what the protocols ask of it, each
    part at most once, on first use, by calling the public function that a
    standalone query calls.  A protocol builds one per snapshot and drops
    it when the step returns."""

    def __new__(cls, points: Iterable[Point], tol: Tolerance = DEFAULT_TOL):
        self = super().__new__(cls, points)
        self.tol = tol
        return self

    @cached_property
    def sec(self) -> Circle:
        """The smallest enclosing circle."""
        return smallest_enclosing_circle(self, self.tol)

    @cached_property
    def center_index(self) -> int | None:
        """The unique robot on the circle center, or None."""
        return center_robot_index(self, self.tol)

    @cached_property
    def k_without_center(self) -> int:
        """Rotational order of the robots other than the center robot; 0
        without a center robot or with fewer than three robots."""
        rc = self.center_index
        if rc is None or len(self) < 3:
            return 0
        return rotational_order([p for i, p in enumerate(self) if i != rc], self.tol)

    @cached_property
    def in_c_dot(self) -> bool:
        """Centered symmetric: a center robot, and the rest rotationally
        symmetric.  Needs no mirror axes."""
        return self.k_without_center > 1

    @cached_property
    def centroid(self) -> Point:
        return centroid(self)

    @cached_property
    def reference_layer(self) -> tuple[int, ...]:
        """Smallest non-degenerate layer about the centroid (ties to the
        innermost).  Every symmetry permutes it, so the maps of its first
        point onto its members are the only candidates."""
        deco = concentric_decomposition(self, self.centroid, self.tol)
        best: tuple[int, ...] | None = None
        for layer in deco.layers:
            if layer.radius <= self.tol.eps:
                continue
            if best is None or len(layer.indices) < len(best):
                best = layer.indices
        return best if best is not None else ()

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """Concentric layers about the circle center, innermost first."""
        return concentric_decomposition(self, self.sec.center, self.tol).layers

    @cached_property
    def inner_polygon(self) -> tuple[int, ...]:
        from . import ordering  # ordering imports this module
        return ordering.inner_polygon(self, self.tol)

    @cached_property
    def rotational_order(self) -> int:
        return rotational_order(self, self.tol)

    @cached_property
    def mirror_axes(self) -> tuple[Axis, ...]:
        return mirror_axes(self, self.tol)

    @cached_property
    def axis_robots(self) -> tuple[tuple[int, ...], ...]:
        """The robots on each mirror axis, one tuple per axis."""
        return tuple(robots_on_axis(self, ax, self.tol) for ax in self.mirror_axes)


def analyze(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Analysis:
    """points itself when it is an Analysis under tol, else a new one."""
    if isinstance(points, Analysis) and points.tol == tol:
        return points
    return Analysis(points, tol)


class _PointIndex:
    """The points' coordinates with an x-sorted index, for matching image
    sets against the points."""

    def __init__(self, points: Sequence[Point], tol: Tolerance):
        self.xs = [p.x for p in points]
        self.ys = [p.y for p in points]
        self.order = sorted(range(len(points)), key=self.xs.__getitem__)
        self.sorted_xs = [self.xs[j] for j in self.order]
        self.eps = tol.eps
        # Every point within eps of an image lies within eps of it in x.
        # Twice eps, plus a few ulps of the largest coordinate for the
        # rounding of the window bounds, keeps all of them in the window.
        top = max(map(abs, self.xs), default=0.0)
        self.window = 2.0 * tol.eps + 4.0 * math.ulp(top)

    def matches(self, images: Iterable[tuple[float, float]]) -> bool:
        """True when `images` is a permutation of the points within eps.

        Each image in turn takes the nearest unused point, the lower index
        on equal distance, and the match fails as soon as that point is
        more than eps away.  Only points in the image's x-window are
        compared, so the first image without a match ends the test.
        """
        xs, ys, order, sorted_xs = self.xs, self.ys, self.order, self.sorted_xs
        eps, w = self.eps, self.window
        used = [False] * len(xs)
        for qx, qy in images:
            best, best_d = -1, math.inf
            for k in range(bisect_left(sorted_xs, qx - w), bisect_right(sorted_xs, qx + w)):
                j = order[k]
                if used[j]:
                    continue
                d = math.hypot(xs[j] - qx, ys[j] - qy)
                if d < best_d or (d == best_d and j < best):
                    best, best_d = j, d
            if best < 0 or best_d > eps:
                return False
            used[best] = True
        return True


def rotational_order(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int:
    """Largest k such that rotation by 2*pi/k about the centroid maps the
    point set onto itself."""
    a = analyze(points, tol)
    if len(a) <= 1:
        return 1
    c = a.centroid
    layer = a.reference_layer
    if not layer:
        return 1
    index = _PointIndex(a, tol)
    base = a[layer[0]] - c
    count = 0
    for i in layer:
        if index.matches(_rotated(a, c.x, c.y, ccw_angle(base, a[i] - c))):
            count += 1
    return max(count, 1)


def mirror_axes(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> tuple[Axis, ...]:
    """All mirror axes of the point set.  Every axis passes through the
    centroid; results are deduplicated and sorted by angle in [0, pi)."""
    a = analyze(points, tol)
    if len(a) <= 1:
        return ()
    c = a.centroid
    layer = a.reference_layer
    if not layer:
        return ()
    index = _PointIndex(a, tol)
    theta_base = angle_of(a[layer[0]] - c)
    angles: list[float] = []
    for i in layer:
        alpha = (theta_base + angle_of(a[i] - c)) / 2.0
        alpha = alpha if alpha >= 0.0 else alpha + math.pi
        alpha = math.fmod(alpha, math.pi)
        if alpha < 0.0:
            alpha += math.pi
        if index.matches(_reflected(a, c.x, c.y, alpha)):
            angles.append(alpha)
    angles.sort()
    dedup: list[float] = []
    for ang in angles:
        if any(abs(ang - b) <= tol.eps or abs(abs(ang - b) - math.pi) <= tol.eps for b in dedup):
            continue
        dedup.append(ang)
    return tuple(Axis(c, Point(math.cos(ang), math.sin(ang))) for ang in dedup)


def _rotated(points: Sequence[Point], cx: float, cy: float, alpha: float):
    """The images c + (p - c).rotated(alpha), as (x, y) floats."""
    co, s = math.cos(alpha), math.sin(alpha)
    for p in points:
        vx, vy = p.x - cx, p.y - cy
        yield cx + (co * vx - s * vy), cy + (s * vx + co * vy)


def _reflected(points: Sequence[Point], cx: float, cy: float, axis_angle: float):
    """The images of the points reflected across the line through c at
    axis_angle, as (x, y) floats: rotate p - c by -axis_angle, mirror
    across the x-axis, rotate back and add c."""
    c1, s1 = math.cos(-axis_angle), math.sin(-axis_angle)
    c2, s2 = math.cos(axis_angle), math.sin(axis_angle)
    for p in points:
        vx, vy = p.x - cx, p.y - cy
        mx, my = c1 * vx - s1 * vy, -(s1 * vx + c1 * vy)
        yield cx + (c2 * mx - s2 * my), cy + (s2 * mx + c2 * my)


def robots_on_axis(points: Sequence[Point], axis: Axis, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    out = []
    for i, p in enumerate(points):
        if abs((p - axis.point).cross(axis.direction)) <= tol.eps * max(1.0, axis.direction.norm()):
            out.append(i)
    return tuple(out)


def symmetricity_rho(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int:
    """Rotational order about the centroid, forced to 1 when a point
    occupies the centroid."""
    a = analyze(points, tol)
    if first_coincident_pair(a, tol) is not None:
        raise DuplicatePoints("symmetricity is undefined for coincident points")
    c = a.centroid
    if any(tol.same_point(p, c) for p in a):
        return 1
    return a.rotational_order


def symmetry_report(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> SymmetryReport:
    a = analyze(points, tol)
    rho = symmetricity_rho(a, tol)
    order = a.rotational_order
    return SymmetryReport(
        rho=rho,
        rotational_order=order,
        mirror_axes=a.mirror_axes,
        robot_counts_on_axes=tuple(len(on) for on in a.axis_robots),
        has_central_robot=any(tol.same_point(p, a.centroid) for p in a),
        is_central_symmetric=(order % 2 == 0),
    )


def center_robot_index(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> int | None:
    """Index of the unique robot on the center of the smallest enclosing
    circle, or None."""
    a = analyze(points, tol)
    c = a.sec.center
    hits = [i for i, p in enumerate(points) if tol.same_point(p, c)]
    return hits[0] if len(hits) == 1 else None


def classify(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> ConfigClass:
    """Feasibility-relevant classification of a configuration.  Protocol
    steps read `Analysis.in_c_dot`, which needs no mirror axes."""
    a = analyze(points, tol)
    in_c_dot = a.in_c_dot
    counts = [len(on) for on in a.axis_robots]
    return ConfigClass(
        in_c_dot=in_c_dot,
        k_without_center=a.k_without_center,
        axis_with_single_robot=any(c == 1 for c in counts),
        unique_axis_no_robots=(len(counts) == 1 and counts[0] == 0),
        axis_count=len(counts),
    )


# --- view classes --------------------------------------------------------

def _congruent_about_origin(va: Sequence[Point], vb: Sequence[Point],
                            tol: Tolerance, allow_mirror: bool) -> bool:
    """Congruence of two local views by a rotation about the origin,
    optionally composed with a reflection."""
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
        return True  # all points at the origin on both sides
    index = _PointIndex(vb, tol)
    for cand in variants:
        a = max(cand, key=lambda p: p.norm())
        for b in vb:
            if abs(b.norm() - a.norm()) > tol.eps:
                continue
            if index.matches(_rotated(cand, 0.0, 0.0, ccw_angle(a, b))):
                return True
    return False


def view_classes(points: Sequence[Point], frames: Sequence, tol: Tolerance = DEFAULT_TOL,
                 chirality: bool = True) -> list[list[int]]:
    """Partition robots by congruence of their local views.

    With chirality, views are compared up to rotation about the observer;
    without it, also up to reflection.  `frames` supplies per-robot
    rotation/mirror/scale attributes.
    """
    views: list[list[Point]] = []
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
