import math
import random
import re

import pytest
from corpus import rand_c_dot
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import swarmperm.protocols as protocols
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


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, 1e308])
def test_decode_hop_rejects_a_value_round_cannot_take_with_a_typed_error(e):
    """nan, the infinities, and a finite e whose slot position overflows."""
    with pytest.raises(DecodeFailure, match=re.escape(f"value {e} is outside every guard band")):
        decode_hop(e, 4)


# Just inside (1/2, 1): decode_hop still refuses them, since its lowest band
# starts at 1/2 + 1/(4(m+1)) - 1e-12 and its highest ends 1e-12 past
# 1 - 1/(4(m+1)).
INSIDE_EDGES = [math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 64), st.one_of(st.floats(max_value=0.5), st.floats(min_value=1.0),
                                     st.sampled_from(INSIDE_EDGES)))
@example(2, 0.5)
@example(2, 1.0)
@example(64, 0.5)
@example(64, 1.0)
@example(2, INSIDE_EDGES[0])
@example(2, INSIDE_EDGES[1])
@example(64, INSIDE_EDGES[0])
@example(64, INSIDE_EDGES[1])
def test_decode_hop_refuses_every_fraction_outside_the_open_interval(m, e):
    """The premise of `_finish_mark`'s early return: no slot count decodes
    an e at or beyond 1/2 or 1, nor the floats next to them inside."""
    with pytest.raises(DecodeFailure):
        decode_hop(e, m)


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


def test_finish_mark_rejects_an_out_of_band_fraction_before_any_analysis(monkeypatch):
    """A real L2.1 candidate decodes with its own e; with an e outside
    (1/2, 1) the same call returns None without layering the rest or
    building a candidate Analysis."""
    rng = random.Random(50)
    pts = rand_c_dot(rng, 9, k=2)
    ci = center_robot_index(pts)
    sec = smallest_enclosing_circle(pts)
    outer_r = max(p.dist(sec.center) for p in pts)
    own = next(i for i, p in enumerate(pts) if i != ci and p.dist(sec.center) < outer_r - 1e-9)
    moved, pivot = _apply_both(pts, own)
    finish = protocols._finish_mark
    calls = []
    monkeypatch.setattr(protocols, "_finish_mark", lambda *args: calls.append(args) or finish(*args))
    assert reconstruct(moved).case == "L2.1"
    [args] = [args for args in calls if args[5] == "L2.1" and finish(*args) is not None]
    assert finish(*args).pivot_index == pivot

    built, layered = [], []
    init = Analysis.__init__
    monkeypatch.setattr(Analysis, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    layer = protocols.concentric_decomposition
    monkeypatch.setattr(protocols, "concentric_decomposition",
                        lambda *a: layered.append(a) or layer(*a))
    for e in [0.5, 1.0, 0.25, 1.5, -math.inf, math.inf, math.nan]:
        assert finish(*args[:3], e, *args[4:]) is None
    assert built == [] and layered == []
    assert finish(*args) is not None and len(built) == 2 and len(layered) == 1


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
