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
# Welzl-style incremental construction.  The classical analysis randomizes
# the insertion order; determinism matters more than the expected-time
# bound at our sizes, so points are canonically pre-sorted by (x, y).

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


def _circle_two_points(points: Sequence[Point], p: Point, q: Point) -> Circle:
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


def _circle_one_point(points: Sequence[Point], p: Point) -> Circle:
    circ = Circle(p, 0.0)
    for i, q in enumerate(points):
        if not _enc_contains(circ, q):
            if circ.radius == 0.0:
                circ = _diameter_circle(p, q)
            else:
                circ = _circle_two_points(points[: i + 1], p, q)
    return circ


def smallest_enclosing_circle(points: Sequence[Point], tol: Tolerance = DEFAULT_TOL) -> Circle:
    """Smallest circle containing every input point.

    Deterministic for a given point multiset regardless of input order.
    """
    if len(points) == 0:
        raise EmptyConfiguration("smallest enclosing circle of an empty point set")
    pts = sorted(points, key=lambda p: (p.x, p.y))
    circ: Circle | None = None
    for i, p in enumerate(pts):
        if circ is None or not _enc_contains(circ, p):
            circ = _circle_one_point(pts[:i], p)
    assert circ is not None
    return circ


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

