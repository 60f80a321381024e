import json
import math
import random

import pytest
from corpus import chirality_preserving_frames, rand_non_c_dot

from swarmperm import (
    ADVERSARY_KINDS,
    CollisionDetected,
    Configuration,
    DuplicatePoints,
    EmptyConfiguration,
    Frame,
    IDENTITY_FRAME,
    InvalidFrame,
    MirrorSymmetric,
    NotCentral,
    Point,
    adversary_frames,
    fsync_round,
    make_protocol,
    parse_trace,
    run,
    serialize_trace,
    to_local_snapshot,
)

SQUARE = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]


def _ident(n):
    return [IDENTITY_FRAME] * n


# --- frames and snapshots -------------------------------------------------

def test_frame_validation():
    with pytest.raises(InvalidFrame):
        Frame(scale=0.0)
    with pytest.raises(InvalidFrame):
        Frame(scale=-1.0)
    with pytest.raises(InvalidFrame):
        Frame(rotation=math.nan)
    assert Frame().scale == 1.0


def test_configuration_validation():
    with pytest.raises(EmptyConfiguration):
        Configuration((Point(0, 0),))
    with pytest.raises(DuplicatePoints):
        Configuration((Point(0, 0), Point(0, 0), Point(1, 1))).validate_distinct()


def test_snapshot_identity_frame_translates_to_origin():
    snap = to_local_snapshot(SQUARE, _ident(4), 2)
    assert snap.local_points[2] == Point(0, 0)
    assert snap.local_points[0].dist(Point(-2, -2)) < 1e-12


def test_snapshot_rotated_frame():
    # observer frame rotated by pi/2: the global offset (1, 0) reads as
    # (0, -1) in local coordinates
    pts = [Point(0, 0), Point(1, 0), Point(0, 3)]
    frames = [Frame(rotation=math.pi / 2), IDENTITY_FRAME, IDENTITY_FRAME]
    snap = to_local_snapshot(pts, frames, 0)
    assert snap.local_points[1].dist(Point(0, -1)) < 1e-12


def test_snapshot_mirror_flips_orientation():
    pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
    plain = to_local_snapshot(pts, _ident(3), 0)
    flipped = to_local_snapshot(pts, [Frame(mirror=True)] + _ident(2), 0)
    a, b = plain.local_points[1], plain.local_points[2]
    fa, fb = flipped.local_points[1], flipped.local_points[2]
    assert a.cross(b) * fa.cross(fb) < 0


def test_snapshot_scale_shrinks_everything():
    pts = [Point(0, 0), Point(3, 0), Point(0, 4)]
    snap = to_local_snapshot(pts, [Frame(scale=2.0)] + _ident(2), 0)
    assert snap.local_points[1].dist(Point(1.5, 0)) < 1e-12
    assert snap.local_points[2].dist(Point(0, 2)) < 1e-12


def test_snapshot_visible_frames():
    snap = to_local_snapshot(SQUARE, _ident(4), 0, visible=True)
    assert snap.visible_frames is not None
    assert len(snap.visible_frames) == 4
    assert snap.visible_frames[0].dist(Point(1, 0)) < 1e-12


# --- rounds ---------------------------------------------------------------

def test_square_round_is_a_shift():
    proto = make_protocol("VisitAllChirality")
    out, bits, moved = fsync_round(SQUARE, _ident(4), proto, [0] * 4)
    assert all(moved)
    # counterclockwise square: robot i lands on robot i+1's old spot
    for i in range(4):
        assert out[i].dist(SQUARE[(i + 1) % 4]) < 1e-9


def test_central_symmetric_involution():
    pts = [Point(1, 0.2), Point(-1, -0.2), Point(0.3, 1.4), Point(-0.3, -1.4)]
    proto = make_protocol("MoveAllNoChirality")
    out, bits, moved = fsync_round(pts, _ident(4), proto, [0] * 4)
    out2, _, _ = fsync_round(out, _ident(4), proto, [0] * 4)
    for p, q in zip(out2, pts):
        assert p.dist(q) < 1e-9


def test_run_embeds_protocol_error_and_stops():
    pts = [Point(0, 0), Point(1, 0), Point(-1, 0)]  # centered, order refused
    proto = make_protocol("VisitAllChirality")
    trace = run(pts, _ident(3), proto, rounds=5)
    assert trace.failed
    last = trace.records[-1]
    assert last.error is not None and last.error.startswith("NotOrderable")
    assert "(robot" in last.error
    assert len(trace.records) < 6 + 1


def test_run_is_deterministic():
    rng = random.Random(7)
    pts = rand_non_c_dot(rng, 6)
    proto = make_protocol("VisitAllChirality")
    frames = chirality_preserving_frames(rng, 6)
    t1 = run(pts, frames, proto, rounds=6)
    t2 = run(pts, frames, proto, rounds=6)
    assert serialize_trace(t1) == serialize_trace(t2)


def test_frame_choice_does_not_change_trajectories():
    rng = random.Random(8)
    pts = rand_non_c_dot(rng, 7)
    proto = make_protocol("VisitAllChirality")
    base = run(pts, _ident(7), proto, rounds=7)
    for _ in range(4):
        frames = chirality_preserving_frames(rng, 7)
        other = run(pts, frames, proto, rounds=7)
        for ra, rb in zip(base.records, other.records):
            for p, q in zip(ra.positions, rb.positions):
                assert p.dist(q) < 1e-7


def test_oblivious_restart_matches_suffix():
    # a memoryless protocol cannot distinguish round j from a fresh start
    rng = random.Random(9)
    pts = rand_non_c_dot(rng, 5)
    proto = make_protocol("VisitAllChirality")
    full = run(pts, _ident(5), proto, rounds=5)
    mid = full.records[2].positions
    rerun = run(mid, _ident(5), proto, rounds=3)
    for ra, rb in zip(full.records[2:], rerun.records):
        for p, q in zip(ra.positions, rb.positions):
            assert p.dist(q) < 1e-9


def test_collision_reported_with_pair():
    # both outer robots of a 3-chain target the middle point
    pts = [Point(-1, 0), Point(0, 0), Point(1, 0)]

    def grab_middle(analysis, snapshot, bit, handedness, tol):
        loc = snapshot.local_points
        mid = min(loc, key=lambda q: sum(q.dist(r) for r in loc))
        return mid

    proto = make_protocol("VisitAllChirality")
    proto = type(proto)(name="GrabMiddle", step=grab_middle, min_robots=2)
    with pytest.raises(CollisionDetected) as exc:
        fsync_round(pts, _ident(3), proto, [0] * 3)
    # the middle robot stays put, so the first clashing pair is (0, 1)
    assert exc.value.indices == (0, 1)


def test_run_records_collision_without_advancing():
    pts = [Point(-1, 0), Point(0, 0), Point(1, 0)]

    def grab_middle(analysis, snapshot, bit, handedness, tol):
        loc = snapshot.local_points
        return min(loc, key=lambda q: sum(q.dist(r) for r in loc))

    proto = make_protocol("VisitAllChirality")
    proto = type(proto)(name="GrabMiddle", step=grab_middle, min_robots=2)
    trace = run(pts, _ident(3), proto, rounds=4)
    assert trace.failed
    last = trace.records[-1]
    assert last.error.startswith("CollisionDetected")
    for p, q in zip(last.positions, pts):
        assert p.dist(q) < 1e-12  # nobody advanced on the failed round


# --- adversary frame factories -------------------------------------------

def test_adversary_kinds_cover_registry():
    assert set(ADVERSARY_KINDS) == {
        "identical", "rotated_quarter", "pairwise_distinct",
        "mirrored_pairs", "random"}


def test_adversary_identical():
    frames = adversary_frames("identical", SQUARE, angle=0.4)
    assert all(f.rotation == 0.4 and not f.mirror for f in frames)


def test_adversary_rotated_quarter_needs_center():
    with pytest.raises(NotCentral):
        adversary_frames("rotated_quarter", SQUARE)
    pts = [Point(0, 0), Point(1, 0), Point(-1, 0)]
    frames = adversary_frames("rotated_quarter", pts)
    assert frames[1].rotation == pytest.approx(math.pi / 2)
    assert frames[2].rotation == pytest.approx(math.pi / 2)


def test_adversary_pairwise_distinct_seeded():
    f1 = adversary_frames("pairwise_distinct", SQUARE, seed=3)
    f2 = adversary_frames("pairwise_distinct", SQUARE, seed=3)
    f3 = adversary_frames("pairwise_distinct", SQUARE, seed=4)
    assert f1 == f2
    assert f1 != f3
    angles = [f.rotation for f in f1]
    for i in range(4):
        for j in range(i + 1, 4):
            d = abs(angles[i] - angles[j]) % (2 * math.pi)
            assert min(d, 2 * math.pi - d) > 1e-3


def test_adversary_mirrored_pairs():
    # vertical-axis symmetric: off-axis robots mirrored, on-axis not
    pts = [Point(0, 2), Point(1, 0), Point(-1, 0), Point(0, -1)]
    frames = adversary_frames("mirrored_pairs", pts)
    mirrored = [f.mirror for f in frames]
    assert sum(mirrored) == 1
    assert mirrored[1]  # the robot on the negative side of the axis
    with pytest.raises(MirrorSymmetric):
        adversary_frames("mirrored_pairs", [Point(0, 0), Point(1, 0.3), Point(-0.4, 1)])


def test_adversary_random_scales_bounded():
    frames = adversary_frames("random", SQUARE, seed=11)
    assert adversary_frames("random", SQUARE, seed=11) == frames
    for f in frames:
        assert 0.5 <= f.scale <= 2.0


def test_adversary_unknown_kind():
    with pytest.raises(ValueError):
        adversary_frames("nope", SQUARE)


# --- trace serialization --------------------------------------------------

def test_trace_jsonl_roundtrip_byte_identical():
    rng = random.Random(12)
    pts = rand_non_c_dot(rng, 6)
    proto = make_protocol("VisitAllChirality")
    trace = run(pts, _ident(6), proto, rounds=6)
    text = serialize_trace(trace)
    back = parse_trace(text)
    assert serialize_trace(back) == text
    for ra, rb in zip(trace.records, back.records):
        assert ra.round_index == rb.round_index
        assert ra.bits == rb.bits and ra.moved == rb.moved
        for p, q in zip(ra.positions, rb.positions):
            assert p.x == q.x and p.y == q.y  # bit-exact through .17g


def test_trace_lines_are_json_objects():
    proto = make_protocol("VisitAllChirality")
    trace = run(SQUARE, _ident(4), proto, rounds=2)
    for line in serialize_trace(trace).splitlines():
        rec = json.loads(line)
        assert set(rec) <= {"round", "positions", "bits", "moved", "error"}
        assert len(rec["positions"]) == 4


def test_parse_trace_rejects_malformed():
    with pytest.raises(ValueError, match="line 1"):
        parse_trace("not json\n")
    with pytest.raises(ValueError, match="robot counts"):
        parse_trace('{"round":0,"positions":[[0,0],[1,1]],"bits":[0,0],"moved":[false,false]}\n'
                    '{"round":1,"positions":[[0,0]],"bits":[0],"moved":[false]}\n')
    with pytest.raises(ValueError):
        parse_trace("")
    with pytest.raises(ValueError, match="line 1"):
        parse_trace('{"round":0,"positions":[[0,0],[1,1]],"bits":[0],"moved":[false,false]}\n')


def test_error_round_preserved_in_jsonl():
    pts = [Point(0, 0), Point(1, 0), Point(-1, 0)]
    proto = make_protocol("VisitAllChirality")
    trace = run(pts, _ident(3), proto, rounds=2)
    text = serialize_trace(trace)
    back = parse_trace(text)
    assert back.failed
    assert back.records[-1].error == trace.records[-1].error
