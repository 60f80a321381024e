"""Planar primitives: points, tolerance policy, circles, polar views,
concentric decomposition, and local-frame transforms.

All operations are pure. A single absolute epsilon (Tolerance) governs
every geometric comparison in the library; it is threaded explicitly so
callers can tighten or relax it per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AmbiguousLayering,
    DegenerateReference,
    EmptyConfiguration,
    InvalidFrame,
)

TWO_PI = 2.0 * math.pi

CCW = "ccw"
CW = "cw"
HANDEDNESSES = (CW, CCW)


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float) -> "Point":
        c, s = math.cos(angle), math.sin(angle)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)

    def mirrored(self) -> "Point":
        """Reflection across the x-axis."""
        return Point(self.x, -self.y)

    def unit(self) -> "Point":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)


ORIGIN = Point(0.0, 0.0)


@dataclass(frozen=True)
class Tolerance:
    """Absolute epsilon for distances; angular tests are scale-free.

    Angle comparisons near zero are done through cross/dot products of the
    direction vectors so that the effective angular slack is about eps
    radians regardless of coordinate magnitude.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be a positive finite real, got {self.eps}")

    def eq(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.eps

    def lt(self, a: float, b: float) -> bool:
        return a < b - self.eps

    def gt(self, a: float, b: float) -> bool:
        return a > b + self.eps

    def same_point(self, p: Point, q: Point) -> bool:
        return p.dist(q) <= self.eps

    def cmp(self, a: float, b: float) -> int:
        if self.lt(a, b):
            return -1
        if self.gt(a, b):
            return 1
        return 0

    def ray_aligned(self, u: Point, v: Point) -> bool:
        """True when u and v point along the same ray from the origin."""
        nu, nv = u.norm(), v.norm()
        if nu <= self.eps or nv <= self.eps:
            return False
        return u.dot(v) > 0.0 and abs(u.cross(v)) <= self.eps * nu * nv


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def contains(self, p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.center.dist(p) <= self.radius + tol.eps


@dataclass(frozen=True)
class PolarCoord:
    d: float
    theta: float  # in [0, 2*pi)


@dataclass(frozen=True)
class Layer:
    radius: float
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ConcentricDecomposition:
    center: Point
    layers: tuple[Layer, ...]  # innermost first; layer 0 may be the degenerate center


def angle_of(v: Point) -> float:
    return math.atan2(v.y, v.x)


def norm_angle(a: float) -> float:
    """Normalize to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod can land exactly on 2*pi after the correction
        a -= TWO_PI
    return a


def ccw_angle(u: Point, v: Point) -> float:
    """Counter-clockwise angle from ray u to ray v, in [0, 2*pi)."""
    return norm_angle(math.atan2(u.cross(v), u.dot(v)))


def first_coincident_pair(points: Sequence[Point], tol: Tolerance) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of points within eps of each other, in
    row-major order, or None when all points are distinct."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if tol.same_point(points[i], points[j]):
                return i, j
    return None


def centroid(points: Sequence[Point]) -> Point:
    if len(points) == 0:
        raise EmptyConfiguration("centroid of an empty point set")
    sx = math.fsum(p.x for p in points)
    sy = math.fsum(p.y for p in points)
    n = len(points)
    return Point(sx / n, sy / n)


# --- smallest enclosing circle ------------------------------------------
# Welzl-style incremental construction over points pre-sorted by (x, y),
# which makes the result independent of input order.  The shuffle of the
# classical analysis would restore its expected linear time, but it moves
# the last bits of the center, and OneBit's `reconstruct` writes that
# center into traces: the shuffle waits for a benchmark change that
# re-records bench/golden.json.  The helpers work on raw floats, a circle
# being an (x, y, r) tuple, and keep the operation order of the Point
# arithmetic they replaced, so every center and radius is bit-identical.

_REL_EPS = 1e-14


def _reach(r: float) -> float:
    """Distance within which a point counts as inside a circle of radius r."""
    return r * (1.0 + _REL_EPS) + 1e-300


def _circum_circle(ax0: float, ay0: float, bx0: float, by0: float,
                   cx0: float, cy0: float) -> tuple[float, float, float] | None:
    ox = (min(ax0, bx0, cx0) + max(ax0, bx0, cx0)) / 2.0
    oy = (min(ay0, by0, cy0) + max(ay0, by0, cy0)) / 2.0
    ax, ay = ax0 - ox, ay0 - oy
    bx, by = bx0 - ox, by0 - oy
    cx, cy = cx0 - ox, cy0 - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
    r = max(math.hypot(x - ax0, y - ay0), math.hypot(x - bx0, y - by0),
            math.hypot(x - cx0, y - cy0))
    return x, y, r


def _diameter_circle(ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float]:
    x, y = (ax + bx) / 2.0, (ay + by) / 2.0
    return x, y, max(math.hypot(x - ax, y - ay), math.hypot(x - bx, y - by))


def _circle_two_points(xs: list[float], ys: list[float], count: int,
                       px: float, py: float, qx: float, qy: float) -> tuple[float, float, float]:
    """Smallest circle through p and q enclosing the first count points."""
    circ = _diameter_circle(px, py, qx, qy)
    cx, cy, cr = circ
    reach = _reach(cr)
    left = right = None
    left_cc = right_cc = 0.0
    pqx, pqy = qx - px, qy - py
    for i in range(count):
        rx, ry = xs[i], ys[i]
        if math.hypot(cx - rx, cy - ry) <= reach:
            continue
        cross = pqx * (ry - py) - pqy * (rx - px)
        c = _circum_circle(px, py, qx, qy, rx, ry)
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


def _circle_one_point(xs: list[float], ys: list[float], count: int,
                      px: float, py: float) -> tuple[float, float, float]:
    """Smallest circle through p enclosing the first count points."""
    cx, cy, cr = px, py, 0.0
    reach = _reach(cr)
    for i in range(count):
        qx, qy = xs[i], ys[i]
        if math.hypot(cx - qx, cy - qy) <= reach:
            continue
        if cr == 0.0:
            cx, cy, cr = _diameter_circle(px, py, qx, qy)
        else:
            cx, cy, cr = _circle_two_points(xs, ys, i + 1, px, py, qx, qy)
        reach = _reach(cr)
    return cx, cy, cr


def smallest_enclosing_circle(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Circle:
    """Smallest circle containing every input point.

    Deterministic for a given point multiset regardless of input order.
    """
    if len(points) == 0:
        raise EmptyConfiguration("smallest enclosing circle of an empty point set")
    xys = sorted((p.x, p.y) for p in points)
    xs = [x for x, _ in xys]
    ys = [y for _, y in xys]
    cx, cy, cr = xs[0], ys[0], 0.0
    reach = _reach(cr)
    for i in range(1, len(xs)):
        if math.hypot(cx - xs[i], cy - ys[i]) > reach:
            cx, cy, cr = _circle_one_point(xs, ys, i, xs[i], ys[i])
            reach = _reach(cr)
    return Circle(Point(cx, cy), cr)


# --- polar views and layering -------------------------------------------

def polar(p: Point, ref: Point, c: Point, handedness: str = CCW,
          tol: Tolerance = DEFAULT_TOL) -> PolarCoord:
    """Polar coordinates of p about c, angle zero along ray c -> ref.

    theta grows in the given handedness and lies in [0, 2*pi).
    """
    if handedness not in HANDEDNESSES:
        raise ValueError(f"handedness must be one of {HANDEDNESSES}, got {handedness!r}")
    u = ref - c
    if u.norm() <= tol.eps:
        raise DegenerateReference("reference point coincides with the center")
    v = p - c
    d = v.norm()
    if d <= tol.eps:
        return PolarCoord(d, 0.0)
    if tol.ray_aligned(u, v):
        theta = 0.0
    else:
        theta = ccw_angle(u, v)
        if handedness == CW:
            theta = TWO_PI - theta if theta > 0.0 else 0.0
    return PolarCoord(d, theta)


def concentric_decomposition(points: Sequence[Point], center: Point,
                             tol: Tolerance = DEFAULT_TOL) -> ConcentricDecomposition:
    """Group points into circles about center by radius.

    Radii within one layer agree to eps; consecutive layers are separated
    by more than eps.  A chain of radii with pairwise gaps <= eps that
    stretches over more than eps has no well-defined layering and raises
    AmbiguousLayering.
    """
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
    return ConcentricDecomposition(center, tuple(layers))


# --- frame transform -----------------------------------------------------

def transform(p: Point, rotation: float = 0.0, mirror: bool = False,
              scale: float = 1.0, translation: Point = ORIGIN) -> Point:
    """Apply mirror (about x-axis), then rotation, then scale, then translation."""
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(rotation)):
        raise InvalidFrame(f"scale must be positive and parameters finite, got scale={scale}")
    q = p.mirrored() if mirror else p
    q = q.rotated(rotation)
    return Point(q.x * scale + translation.x, q.y * scale + translation.y)


def inverse_transform(p: Point, rotation: float = 0.0, mirror: bool = False,
                      scale: float = 1.0, translation: Point = ORIGIN) -> Point:
    """Inverse of transform with identical parameters."""
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(rotation)):
        raise InvalidFrame(f"scale must be positive and parameters finite, got scale={scale}")
    q = Point((p.x - translation.x) / scale, (p.y - translation.y) / scale)
    q = q.rotated(-rotation)
    return q.mirrored() if mirror else q

