"""An exact symmetry oracle for small integer point sets, on integers alone.

A rotation that maps a finite integer set onto itself has order 1, 2 or 4:
it maps the integer differences of the points onto each other, and a turn
of a third or a sixth would need sqrt(3) among them (the crystallographic
restriction).  So the rotations to test are the integer maps (-y, x) and
(-x, -y) about the centroid, which sits at 0 once the points are scaled by
their count and shifted by their sum.  A mirror axis through the centroid
takes a chosen point q onto a point m at the same distance, so it runs
along q + m, or along q turned a quarter when m = -q; the reflection across
an integer direction (a, b) is the integer matrix
[[a^2 - b^2, 2ab], [2ab, b^2 - a^2]] over a^2 + b^2.
"""

from __future__ import annotations

import itertools
from math import gcd


def lattice_classes(n: int, side: int = 4):
    """Every set of n points of the side x side integer grid, up to
    translation, as (x, y) integer pairs: the sets that touch both the
    x = 0 and the y = 0 line."""
    grid = [(x, y) for x in range(side) for y in range(side)]
    for xys in itertools.combinations(grid, n):
        if min(x for x, _ in xys) == 0 and min(y for _, y in xys) == 0:
            yield xys


def _centered(xys) -> list[tuple[int, int]]:
    """The points times their count, less their sum: the centroid at 0."""
    n = len(xys)
    sx, sy = sum(x for x, _ in xys), sum(y for _, y in xys)
    return [(n * x - sx, n * y - sy) for x, y in xys]


def _order(qs) -> int:
    """The rotational order about 0: 4, 2 or 1."""
    s = set(qs)
    if {(-y, x) for x, y in qs} == s:
        return 4
    return 2 if {(-x, -y) for x, y in qs} == s else 1


def _axis_count(qs) -> int:
    """The number of mirror axes through 0, each named by its primitive
    integer direction with a > 0, or a = 0 < b."""
    s = set(qs)
    qx, qy = next(q for q in qs if q != (0, 0))
    axes = set()
    for mx, my in qs:
        if mx * mx + my * my != qx * qx + qy * qy:
            continue
        a, b = (qx + mx, qy + my) if (mx, my) != (-qx, -qy) else (-qy, qx)
        g = gcd(a, b)
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        d, e, f = a * a - b * b, 2 * a * b, a * a + b * b
        images = [(d * x + e * y, e * x - d * y) for x, y in qs]
        if all(u % f == 0 and v % f == 0 for u, v in images) and \
                {(u // f, v // f) for u, v in images} == s:
            axes.add((a, b))
    return len(axes)


def exact_symmetry(xys) -> tuple[int, int, bool, bool]:
    """The rotational order, the axis count, `in_c_dot` and
    `is_central_symmetric` of at least three distinct integer points.
    `in_c_dot` holds when a point is the centroid of the others, which is
    then the centroid of all and the enclosing circle's center, and the
    others have order 2 or more."""
    qs = _centered(xys)
    k = _order(qs)
    center = [i for i, q in enumerate(qs) if q == (0, 0)]
    c_dot = bool(center) and _order(_centered([p for i, p in enumerate(xys)
                                               if i != center[0]])) > 1
    return k, _axis_count(qs), c_dot, k % 2 == 0
