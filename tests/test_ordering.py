import math
import random

import pytest
from corpus import (
    chirality_preserving_frames,
    get_vote,
    next_point,
    rand_c_dot,
    rand_non_c_dot,
    unique_empty_axis_config,
)

from swarmperm import (
    CCW,
    CW,
    DEFAULT_TOL,
    CyclicOrder,
    DegenerateReference,
    Frame,
    InvalidLeader,
    MirrorSymmetric,
    NotOrderable,
    Point,
    Tolerance,
    VoteTie,
    agree_chirality,
    inner_polygon,
    order_from_leader,
    order_with_chirality,
    order_without_chirality,
    orient_axis,
    mirror_axes,
    to_local_snapshot,
    vote_tally,
    voting_elect,
)

SQUARE = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]


def test_cyclic_order_rotation_equality():
    a = CyclicOrder((0, 1, 2, 3))
    b = CyclicOrder((2, 3, 0, 1))
    c = CyclicOrder((0, 2, 1, 3))
    assert a == b
    assert a != c
    assert hash(a) == hash(b)
    assert a.successor(3) == 0
    assert a.successor(1) == 2


def test_square_sweep_order():
    order = order_with_chirality(SQUARE)
    assert order == CyclicOrder((0, 1, 2, 3))
    cw = order_with_chirality(SQUARE, CW)
    assert cw == CyclicOrder((0, 3, 2, 1))


def test_rectangle_orderable_despite_periodic_signature():
    rect = [Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1)]
    order = order_with_chirality(rect)
    assert order == CyclicOrder((0, 1, 2, 3))


def test_centered_configuration_refused():
    pts = [Point(0, 0)] + SQUARE
    with pytest.raises(NotOrderable):
        order_with_chirality(pts)


def test_order_invariant_under_chirality_preserving_frames():
    rng = random.Random(31)
    for _ in range(30):
        pts = rand_non_c_dot(rng, rng.randint(3, 12))
        base = order_with_chirality(pts)
        for f in chirality_preserving_frames(rng, 5):
            local = [  # same frame applied to every point keeps indices aligned
                (p - pts[0]).rotated(-f.rotation) * (1.0 / f.scale) for p in pts]
            assert order_with_chirality(local) == base


def test_mirrored_world_reverses_order():
    rng = random.Random(32)
    for _ in range(20):
        pts = rand_non_c_dot(rng, rng.randint(3, 10))
        mirrored = [Point(p.x, -p.y) for p in pts]
        a = order_with_chirality(pts)
        b = order_with_chirality(mirrored, CW)
        assert a == b


def test_next_point_agrees_with_order():
    rng = random.Random(33)
    for _ in range(20):
        pts = rand_non_c_dot(rng, rng.randint(3, 10))
        order = order_with_chirality(pts)
        for i in range(len(pts)):
            assert next_point(pts, i) == order.successor(i)


def test_agree_chirality_deterministic_and_mirror_flips():
    rng = random.Random(34)
    flips = 0
    for _ in range(30):
        pts = rand_non_c_dot(rng, rng.randint(3, 10))
        if mirror_axes(pts):
            continue
        h = agree_chirality(pts)
        hm = agree_chirality([Point(p.x, -p.y) for p in pts])
        assert h in (CCW, CW)
        assert hm != h
        flips += 1
    assert flips >= 20


def test_agree_chirality_rejects_mirror_symmetric():
    rng = random.Random(35)
    pts = unique_empty_axis_config(rng, 3)
    with pytest.raises(MirrorSymmetric):
        agree_chirality(pts)


def test_orient_axis_deterministic():
    rng = random.Random(36)
    for _ in range(10):
        pts = unique_empty_axis_config(rng, rng.randint(2, 5))
        ax = mirror_axes(pts)[0]
        u = orient_axis(pts, ax)
        # shifting or relabeling the same geometry picks the same direction
        shuffled = pts[:]
        rng.shuffle(shuffled)
        v = orient_axis(shuffled, mirror_axes(shuffled)[0])
        assert u.dist(v) < 1e-9 or u.dist(Point(-v.x, -v.y)) < 1e-9
        assert abs(u.norm() - 1.0) < 1e-12
        assert u.dist(v) < 1e-9  # not just up to sign: fully agreed


def test_order_without_chirality_unique_axis():
    rng = random.Random(37)
    for _ in range(10):
        pts = unique_empty_axis_config(rng, rng.randint(2, 5))
        order = order_without_chirality(pts)
        assert len(order) == len(pts)
        assert sorted(order.seq) == list(range(len(pts)))


def test_order_without_chirality_rejects_two_axes():
    rect = [Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1)]
    with pytest.raises(NotOrderable):
        order_without_chirality(rect)


def test_order_without_chirality_rejects_occupied_axis():
    pts = [Point(2, 0), Point(-1, 1), Point(-1, -1)]
    with pytest.raises(NotOrderable):
        order_without_chirality(pts)


def test_order_without_chirality_no_axes_falls_back():
    rng = random.Random(38)
    for _ in range(10):
        pts = rand_non_c_dot(rng, rng.randint(4, 9))
        if mirror_axes(pts):
            continue
        order = order_without_chirality(pts)
        assert sorted(order.seq) == list(range(len(pts)))


def test_inner_polygon_square_center():
    pts = [Point(0, 0)] + SQUARE
    poly = inner_polygon(pts)
    assert sorted(poly) == [1, 2, 3, 4]


@pytest.mark.parametrize("pts, message", [
    ([Point(0, 0), Point(4e-10, 0), Point(0, 4e-10)], "coincide with the center"),
    ([Point(0, 0), Point(1, 0)], "at least 3 points"),
])
def test_inner_polygon_degenerate_raises_typed_error(pts, message):
    with pytest.raises(DegenerateReference, match=message):
        inner_polygon(pts)


def _vote(pts, x_dir, tol=DEFAULT_TOL) -> int:
    """The vertex the library's tally credits with one direction's vote,
    checked against the naive oracle."""
    tally = vote_tally(pts, [x_dir], tol)
    (voted,) = [v for v, n in zip(tally.polygon, tally.votes) if n]
    assert get_vote(pts, tally.polygon, x_dir, tol) == voted
    return voted


def test_get_vote_exact_alignment_and_clockwise():
    pts = [Point(0, 0)] + SQUARE
    # x axis points straight at robot 1
    assert _vote(pts, Point(1, 0)) == 1
    # slightly ccw of robot 1: clockwise sweep reaches robot 1 first
    assert _vote(pts, Point(math.cos(0.1), math.sin(0.1))) == 1
    # slightly cw of robot 1: the clockwise sweep from angle -0.1 reaches
    # robot 4 at angle -pi/2 first, robot 1 only after almost a full turn
    assert _vote(pts, Point(math.cos(-0.1), math.sin(-0.1))) == 4


def test_get_vote_exact_alignment_at_eps_one():
    # a unit frame axis is no longer than eps = 1, so it is never aligned
    # within eps; a vertex exactly on it must still be met first, not
    # after a full clockwise turn
    tol = Tolerance(1.0)
    pts = [Point(0, 0)] + [p * 3.0 for p in SQUARE]
    assert _vote(pts, Point(1, 0), tol) == 1
    assert voting_elect(pts, [Point(1, 0)] * len(pts), tol) == 1
    assert order_from_leader(pts, 1, tol) == CyclicOrder((1, 4, 3, 2, 0))

def test_vote_tally_counts():
    pts = [Point(0, 0)] + SQUARE
    dirs = [Point(1, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(-1, 0)]
    tally = vote_tally(pts, dirs)
    by_vertex = dict(zip(tally.polygon, tally.votes))
    assert by_vertex[1] == 2 and by_vertex[2] == 1 and by_vertex[3] == 2
    assert by_vertex[4] == 0


def test_voting_elect_deterministic_and_relabel_invariant():
    rng = random.Random(39)
    for _ in range(15):
        pts = rand_c_dot(rng, rng.choice([5, 7, 9]))
        dirs = [Point(math.cos(a), math.sin(a))
                for a in (rng.uniform(0, 2 * math.pi) for _ in pts)]
        leader = voting_elect(pts, dirs)
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        pts2 = [pts[perm[i]] for i in range(len(pts))]
        dirs2 = [dirs[perm[i]] for i in range(len(pts))]
        leader2 = voting_elect(pts2, dirs2)
        assert pts2[leader2].dist(pts[leader]) < 1e-12


def test_voting_tie_detected():
    # six inner vertices with only 2-fold symmetry; direction votes chosen
    # to make the clockwise count vector periodic
    angs = [0.3, 1.1, 2.0, 0.3 + math.pi, 1.1 + math.pi, 2.0 + math.pi]
    ring = [Point(2 * math.cos(a), 2 * math.sin(a)) for a in angs]
    pts = [Point(0, 0)] + ring
    poly = inner_polygon(pts)
    assert len(poly) == 6
    votes = [poly[0], poly[0], poly[1], poly[2], poly[2], poly[3], poly[4],
             poly[4], poly[5]]
    dirs = [Point(pts[v].x, pts[v].y).unit() for v in votes]
    with pytest.raises(VoteTie):
        voting_elect(pts, dirs)


def test_order_from_leader():
    pts = [Point(0, 0)] + SQUARE
    order = order_from_leader(pts, 1)
    # clockwise from robot 1: 1, 4, 3, 2, then the center
    assert order == CyclicOrder((1, 4, 3, 2, 0))
    assert order.successor(0) == 1
    with pytest.raises(InvalidLeader):
        order_from_leader(pts, 0)
