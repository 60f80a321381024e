"""Planar primitives: points and point columns, tolerance policy, circles,
the one sweep angle, the eps point index, concentric rings, and local-frame
transforms.  The kernels read a point set's coordinate columns, which a
`Points` holds and `columns` reads from any other sequence of Points.

All operations are pure.  One epsilon (Tolerance) governs every geometric
comparison in the library, and it is threaded explicitly so callers can
tighten or relax it per run.  It is an absolute distance, as in the symmetry
image tests, and the angular slack, in radians, of the ray-alignment tests,
the sweep-angle clusters and gaps and the mirror-axis dedup, so scaling it
with the coordinates does not make a run scale-free.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    AmbiguousLayering,
    EmptyConfiguration,
    InvalidFrame,
    NonFinite,
)

TWO_PI = 2.0 * math.pi

CCW = "ccw"
CW = "cw"
HANDEDNESSES = (CW, CCW)


class Point:
    """An immutable point, or vector, checked finite when it is built: a
    slotted value class with the equality, hash, repr and FrozenInstanceError
    of a frozen dataclass, equal only to another Point."""

    __slots__ = ("x", "y")
    __match_args__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFinite(f"point coordinates must be finite, got ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # unpickling cannot set the fields through __setattr__
        return Point, (self.x, self.y)

    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"Point(x={self.x!r}, y={self.y!r})"

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

    def unit(self) -> "Point":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)


_set_x, _set_y = Point.x.__set__, Point.y.__set__
ORIGIN = Point(0.0, 0.0)


class Points:
    """A sequence of Points held as an x column and a y column, which the
    kernels read and nothing writes.  An index read builds one Point;
    iterating builds them all once and keeps them.  It equals, and hashes
    as, the tuple of its Points."""

    __slots__ = ("xs", "ys", "_points")

    def __init__(self, xs: list[float], ys: list[float], points: tuple[Point, ...] | None = None):
        self.xs, self.ys, self._points = xs, ys, points

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i):
        if self._points is not None:
            return self._points[i]
        if i.__class__ is not int:
            return self.points[i]
        return Point(self.xs[i], self.ys[i])

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple(map(Point, self.xs, self.ys))
        return self._points

    def __eq__(self, other):
        return self.points == (other.points if isinstance(other, Points) else other)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return repr(self.points)


def columns(points: Iterable[Point]) -> tuple[list[float], list[float]]:
    """The x and y coordinate lists of points: a Points' own, else read from each Point."""
    if isinstance(points, Points):
        return points.xs, points.ys
    xs, ys = [], []
    for p in points:
        xs.append(p.x)
        ys.append(p.y)
    return xs, ys


def as_points(points: Iterable[Point]) -> Points:
    """points itself when it is a Points, else a Points of its columns that keeps its Points."""
    if isinstance(points, Points):
        return points
    pts = tuple(points)
    return Points(*columns(pts), pts)


@dataclass(frozen=True)
class Tolerance:
    """One epsilon: an absolute distance, and the angular slack in radians.

    Distances and radii compare within eps, as do symmetry images and their
    points.  Ray alignment tests |u x v| <= eps |u| |v|, a slack of about
    eps radians at any vector length; angles, such as sweep gaps and axis
    directions, also compare within eps.  So eps is not scale-free: scaling
    it with the coordinates scales the angular slack too.
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
        return aligned(u.dot(v), u.cross(v), u.norm(), v.norm(), self.eps)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float


@dataclass(frozen=True)
class Layer:
    radius: float
    indices: tuple[int, ...]


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


def sweep_angle_xy(ux: float, uy: float, nu: float, vx: float, vy: float, nv: float,
                   handedness: str, eps: float) -> float:
    """Angle swept rotating ray (ux, uy) onto ray (vx, vy), of norms nu and
    nv, in the given handedness, in [0, 2*pi): exactly 0 for rays aligned
    within eps, otherwise the ccw angle, or 2*pi minus it for CW.  A vector
    no longer than eps (a unit axis once eps >= 1) is never aligned, so CW
    also maps a 2*pi that only rounding produced, as for an exactly aligned
    such vector, to 0.  The test is `aligned`; the angle is `norm_angle` of
    the atan2 of the same cross and dot products."""
    dot, cross = ux * vx + uy * vy, ux * vy - uy * vx
    if aligned(dot, cross, nu, nv, eps):
        return 0.0
    a = norm_angle(math.atan2(cross, dot))
    if handedness == CCW:
        return a
    cw = TWO_PI - a
    return cw if cw < TWO_PI else 0.0


def aligned(dot: float, cross: float, nu: float, nv: float, eps: float) -> bool:
    """The one alignment rule: rays u and v, of norms nu and nv over eps,
    lie along one ray when dot = u . v > 0 and |cross| = |u x v| <= eps nu nv."""
    return nu > eps and nv > eps and dot > 0.0 and abs(cross) <= eps * nu * nv


def offsets(points: Iterable[Point], c: Point) -> list[tuple[float, float, float]]:
    """Each point's vector from c as raw floats, with its norm, which is
    also the point's `Point.dist` to c: the vector arguments of
    sweep_angle_xy."""
    cx, cy = c.x, c.y
    xs, ys = columns(points)
    out = []
    for x, y in zip(xs, ys):
        vx, vy = x - cx, y - cy
        out.append((vx, vy, math.hypot(vx, vy)))
    return out


def _window(eps: float) -> float:
    """Half-width of an eps query's x-window: eps plus two of its ulps, half
    an ulp for the rounding of an x-gap and the rest for hypot's last bit.
    Rounding a window bound is monotone: it never drops a float the exact one holds."""
    return eps + 2.0 * math.ulp(eps)


class PointIndex:
    """The points' coordinate columns sorted by x, with each row's index
    in `order`, for the eps queries of site matching and symmetry image sets."""

    def __init__(self, points: Sequence[Point], tol: Tolerance):
        xs, ys = columns(points)
        self.order = sorted(range(len(xs)), key=xs.__getitem__)
        self.sorted_xs = [xs[j] for j in self.order]
        self.sorted_ys = [ys[j] for j in self.order]
        self.eps = tol.eps
        self.window = _window(tol.eps)

    def within(self, qxs: Sequence[float], qys: Sequence[float]) -> list[list[int]]:
        """Per query (x, y), ascending, every j with hypot(x - xs[j], y - ys[j]) <= eps: one
        hypot and no loop when a single point lies in the query's x-window."""
        sxs, sys_, order, eps, w = self.sorted_xs, self.sorted_ys, self.order, self.eps, self.window
        out, last = [], len(sxs) - 1
        for x, y in zip(qxs, qys):
            lo, top = bisect_left(sxs, x - w), x + w
            if lo < last and sxs[lo] <= top < sxs[lo + 1]:
                out.append([order[lo]] if math.hypot(x - sxs[lo], y - sys_[lo]) <= eps else [])
            else:
                out.append(sorted(order[k] for k in range(lo, bisect_right(sxs, top))
                                  if math.hypot(x - sxs[k], y - sys_[k]) <= eps))
        return out

    def matches(self, images: Iterable[tuple[float, float]]) -> bool:
        """True when `images` is a permutation of the points within eps.

        Each image in turn takes the nearest unused point, the lower index
        on equal distance, and the match fails as soon as that point is
        more than eps away.  Only points in the image's x-window are
        compared, so the first image without a match ends the test.
        """
        sxs, sys_, order, eps, w = self.sorted_xs, self.sorted_ys, self.order, self.eps, self.window
        used = [False] * len(order)
        for qx, qy in images:
            best, best_d = -1, math.inf
            for k in range(bisect_left(sxs, qx - w), bisect_right(sxs, qx + w)):
                j = order[k]
                if used[j]:
                    continue
                d = math.hypot(sxs[k] - qx, sys_[k] - qy)
                if d < best_d or (d == best_d and j < best):
                    best, best_d = j, d
            if best < 0 or best_d > eps:
                return False
            used[best] = True
        return True


def first_coincident_pair(points: Sequence[Point], tol: Tolerance) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of points within eps of each other in
    row-major order, or None: a sweep of each point's x-window, which the
    sorted x-gaps decide alone when no neighbours share one (Shamos-Hoey)."""
    eps, w = tol.eps, _window(tol.eps)
    xs, ys = columns(points)
    sorted_xs = sorted(xs)
    prev = -math.inf  # -inf + w stays -inf, which passes no finite x
    for x in sorted_xs:
        if x <= prev + w:
            break
        prev = x
    else:
        return None
    order = sorted(range(len(xs)), key=xs.__getitem__)  # sorted_xs in this order
    pairs = []
    for k, i in enumerate(order):
        for j in order[k + 1:bisect_right(sorted_xs, xs[i] + w)]:
            if math.hypot(xs[i] - xs[j], ys[i] - ys[j]) <= eps:
                pairs.append((i, j) if i < j else (j, i))
    return min(pairs, default=None)


def centroid(points: Sequence[Point]) -> Point:
    xs, ys = columns(points)
    n = len(xs)
    if n == 0:
        raise EmptyConfiguration("centroid of an empty point set")
    return Point(math.fsum(xs) / n, math.fsum(ys) / n)


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


def _circum_center(ax0: float, ay0: float, bx0: float, by0: float,
                   cx0: float, cy0: float) -> tuple[float, float] | None:
    xlo, xhi = min(ax0, bx0, cx0), max(ax0, bx0, cx0)
    ylo, yhi = min(ay0, by0, cy0), max(ay0, by0, cy0)
    ox, oy = (xlo + xhi) / 2.0, (ylo + yhi) / 2.0
    ax, ay = ax0 - ox, ay0 - oy
    bx, by = bx0 - ox, by0 - oy
    cx, cy = cx0 - ox, cy0 - oy
    # offsets past about 2^300 could overflow a product of three: scale them
    # by a power of two, which is exact, and the circumcenter back
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
        raise NonFinite(f"point coordinates must be finite, got ({x}, {y})")
    return x, y


def _diameter_circle(ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float]:
    x, y = (ax + bx) / 2.0, (ay + by) / 2.0
    return x, y, max(math.hypot(x - ax, y - ay), math.hypot(x - bx, y - by))


def _circle_two_points(xs: list[float], ys: list[float], count: int,
                       px: float, py: float, qx: float, qy: float) -> tuple[float, float, float]:
    """Smallest circle through p and q enclosing the first count points.
    Only the circles it chooses between take a radius."""
    circ = _diameter_circle(px, py, qx, qy)
    cx, cy, cr = circ
    reach = _reach(cr)
    left = right = None
    left_cc = right_cc = 0.0
    left_i = right_i = 0
    pqx, pqy = qx - px, qy - py
    for i in range(count):
        rx, ry = xs[i], ys[i]
        if math.hypot(cx - rx, cy - ry) <= reach:
            continue
        cross = pqx * (ry - py) - pqy * (rx - px)
        c = _circum_center(px, py, qx, qy, rx, ry)
        if c is None:
            continue
        cc = pqx * (c[1] - py) - pqy * (c[0] - px)
        if cross > 0.0 and (left is None or cc > left_cc):
            left, left_cc, left_i = c, cc, i
        elif cross < 0.0 and (right is None or cc < right_cc):
            right, right_cc, right_i = c, cc, i
    best = circ if left is None and right is None else None
    for c, i in ((left, left_i), (right, right_i)):  # the left one wins a tie
        if c is not None:
            x, y = c
            r = max(math.hypot(x - px, y - py), math.hypot(x - qx, y - qy),
                    math.hypot(x - xs[i], y - ys[i]))
            if best is None or r < best[2]:
                best = x, y, r
    return best


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


def smallest_enclosing_circle(points: Sequence[Point]) -> Circle:
    """Smallest circle containing every input point, the same for a given
    point multiset in any input order."""
    if len(points) == 0:
        raise EmptyConfiguration("smallest enclosing circle of an empty point set")
    cx, cy, cr = enclosing_circle_xy(zip(*columns(points)))
    return Circle(Point(cx, cy), cr)


def enclosing_circle_xy(xys: Iterable[tuple[float, float]]) -> tuple[float, float, float]:
    """smallest_enclosing_circle of non-empty (x, y) pairs, as (x, y, r), with no Point."""
    xys = sorted(xys)
    xs = [x for x, _ in xys]
    ys = [y for _, y in xys]
    cx, cy, cr = xs[0], ys[0], 0.0
    reach = _reach(cr)
    for i in range(1, len(xs)):
        if math.hypot(cx - xs[i], cy - ys[i]) > reach:
            cx, cy, cr = _circle_one_point(xs, ys, i, xs[i], ys[i])
            reach = _reach(cr)
    return cx, cy, cr


# --- layering -----------------------------------------------------------

def concentric_decomposition(points: Sequence[Point], center: Point,
                             tol: Tolerance = DEFAULT_TOL) -> tuple[Layer, ...]:
    """Group points into rings about center by radius, innermost first,
    leaving out the center's points: a layer of mean radius within eps.

    Radii within one layer agree to eps; consecutive layers are separated
    by more than eps.  A chain of radii with pairwise gaps <= eps that
    stretches over more than eps, also from the center, has no
    well-defined layering and raises AmbiguousLayering.
    """
    cx, cy = center.x, center.y
    return rings_by_radius([(math.hypot(x - cx, y - cy), x, y) for x, y in zip(*columns(points))],
                           center, tol)


def rings_by_radius(keys: list[tuple], center: Point, tol: Tolerance) -> tuple[Layer, ...]:
    """concentric_decomposition of the points keyed (distance from center, x, y)."""
    if not keys:
        raise EmptyConfiguration("decomposition of an empty point set")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ds = [keys[i][0] for i in order]
    layers: list[Layer] = []
    start = 0
    for end, d in enumerate(ds, 1):
        if d - ds[start] > tol.eps:
            raise AmbiguousLayering(f"radius chain spans {d - ds[start]:.3e} > eps about {center}")
        if end == len(ds) or ds[end] - d > tol.eps:
            radius = math.fsum(ds[start:end]) / (end - start)
            if radius > tol.eps:
                layers.append(Layer(radius, tuple(order[start:end])))
            start = end
    return tuple(layers)


# --- frames ---------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """A robot's private coordinate system: rotation of its +x axis,
    optional reflection, and unit length, all relative to the global
    frame.  Its origin is the robot's own position, which the maps take
    as `origin`."""

    rotation: float = 0.0
    mirror: bool = False
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale) and math.isfinite(self.rotation)):
            raise InvalidFrame(f"scale must be positive and parameters finite, "
                               f"got scale={self.scale}")

    @cached_property
    def x_dir(self) -> Point:
        """The unit +x direction in the global frame, taken once per frame."""
        return Point(math.cos(self.rotation), math.sin(self.rotation))

    def to_global(self, points: Iterable[Point], origin: Point = ORIGIN) -> list[Point]:
        """Every local point mirrored (about the x-axis), then rotated, scaled
        and translated by origin, with the frame's one cos and sin."""
        c, s = self.x_dir.x, self.x_dir.y
        mirror, scale = self.mirror, self.scale
        tx, ty = origin.x, origin.y
        out = []
        for p in points:
            x, y = p.x, (-p.y if mirror else p.y)
            out.append(Point((c * x - s * y) * scale + tx, (s * x + c * y) * scale + ty))
        return out

    def to_local(self, points: Iterable[Point], origin: Point = ORIGIN) -> Points:
        """The inverse of to_global with the same origin, with one cos and
        sin, on the coordinate columns: a Points, whose Points are built only
        when read.  One finiteness check of the column sums, which any inf or
        NaN leaves non-finite, and only when it fails a Point per pair, so
        NonFinite names the first point in input order."""
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        mirror, scale = self.mirror, self.scale
        tx, ty = origin.x, origin.y
        xs, ys = columns(points)
        lxs, lys = [0.0] * len(xs), [0.0] * len(xs)
        for k in range(len(xs)):
            x, y = (xs[k] - tx) / scale, (ys[k] - ty) / scale
            lxs[k] = c * x - s * y
            lys[k] = -(s * x + c * y) if mirror else s * x + c * y
        if not math.isfinite(sum(lxs) + sum(lys)):
            for x, y in zip(lxs, lys):
                Point(x, y)
        return Points(lxs, lys)
