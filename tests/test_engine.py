import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from corpus import chirality_preserving_frames, rand_non_c_dot

import swarmperm.errors as errors
from swarmperm import (
    ADVERSARY_KINDS,
    CollisionDetected,
    DuplicatePoints,
    EmptyConfiguration,
    Frame,
    IDENTITY_FRAME,
    InvalidFrame,
    MirrorSymmetric,
    NotCentral,
    PROTOCOL_IDS,
    Point,
    Protocol,
    RoundRecord,
    RunTrace,
    SwarmError,
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
    proto = make_protocol("MoveAllNoChirality")
    with pytest.raises(EmptyConfiguration):
        run((Point(0, 0),), _ident(1), proto, rounds=1)
    with pytest.raises(DuplicatePoints):
        run((Point(0, 0), Point(0, 0), Point(1, 1)), _ident(3), proto, rounds=1)
    with pytest.raises(ValueError, match=r"^rounds must be >= 1$"):
        run(SQUARE, _ident(4), proto, rounds=0)
    with pytest.raises(InvalidFrame, match=r"^3 frames for 4 robots$"):
        run(SQUARE, _ident(3), proto, rounds=1)


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

    def grab_middle(analysis, snapshot, bit):
        loc = snapshot.local_points
        mid = min(loc, key=lambda q: sum(q.dist(r) for r in loc))
        return mid, bit

    proto = make_protocol("VisitAllChirality")
    proto = type(proto)(name="GrabMiddle", step=grab_middle, min_robots=2)
    with pytest.raises(CollisionDetected) as exc:
        fsync_round(pts, _ident(3), proto, [0] * 3)
    # the middle robot stays put, so the first clashing pair is (0, 1)
    assert exc.value.indices == (0, 1)


def test_run_records_collision_without_advancing():
    pts = [Point(-1, 0), Point(0, 0), Point(1, 0)]

    def grab_middle(analysis, snapshot, bit):
        loc = snapshot.local_points
        return min(loc, key=lambda q: sum(q.dist(r) for r in loc)), bit

    proto = make_protocol("VisitAllChirality")
    proto = type(proto)(name="GrabMiddle", step=grab_middle, min_robots=2)
    trace = run(pts, _ident(3), proto, rounds=4)
    assert trace.failed
    last = trace.records[-1]
    assert last.error.startswith("CollisionDetected")
    for p, q in zip(last.positions, pts):
        assert p.dist(q) < 1e-12  # nobody advanced on the failed round


# the README's 5-point set, and a center plus two squares (demos/one_bit_cadence.py)
_README_FIVE = [Point(0, 0), Point(3, 0), Point(1, 2), Point(-2, 1), Point(-1, -2)]
_INNER = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
_CENTER_TWO_SQUARES = ([Point(0, 0)] + _INNER
                       + [Point(p.x * 2.4, p.y * 2.4).rotated(0.6) for p in _INNER])


@pytest.mark.parametrize("e", [-12, -6, 0, 6, 12, 17, 100, 150])
def test_only_swarm_errors_leave_run(e):
    s = 10.0 ** e
    for base in (_README_FIVE, _CENTER_TWO_SQUARES):
        pts = [Point(p.x * s, p.y * s) for p in base]
        for pid in PROTOCOL_IDS:
            for frames in (adversary_frames("identical", pts),
                           adversary_frames("pairwise_distinct", pts, seed=0),
                           # a subnormal unit length: most snapshots overflow
                           [Frame(scale=1e-310)] * len(pts)):
                try:
                    trace = run(pts, frames, make_protocol(pid), rounds=2 * len(pts))
                except SwarmError:
                    continue  # the start configuration was refused
                err = trace.records[-1].error
                if err is not None:
                    cls = getattr(errors, err.split(":", 1)[0], None)
                    assert isinstance(cls, type) and issubclass(cls, SwarmError), err


def test_frame_that_cannot_hold_the_floats_is_invalid():
    # a subnormal unit length: the snapshot overflows
    tiny = [Frame(scale=1e-310)] * len(SQUARE)
    trace = run(SQUARE, tiny, make_protocol("VisitAllChirality"), 1)
    assert trace.records[-1].error.startswith("InvalidFrame: robot 0's frame")

    def far(analysis, snapshot, bit):
        return Point(1e300, 0.0), bit

    # the destination is finite locally but overflows in the global frame
    trace = run(SQUARE, [Frame(scale=1e10)] * len(SQUARE), Protocol("Far", far), 1)
    assert trace.records[-1].error.startswith(
        "InvalidFrame: a destination does not map back to the global frame")


def test_frame_that_cannot_hold_the_floats_names_robot_and_point():
    """Robot 1's unit of 1e-300 takes the two far robots past the floats:
    the trace names the robot, its scale and the first of them."""
    pts = [Point(0.0, 0.0), Point(1.0, 2.0), Point(-2e10, 0.0), Point(3e10, 0.0)]
    frames = [Frame(), Frame(0.5, False, 1e-300), Frame(), Frame()]
    for protocol_id in ("VisitAllChirality", "VotingVisitAll"):
        trace = run(pts, frames, make_protocol(protocol_id), 1)
        assert trace.records[-1].error == (
            "InvalidFrame: robot 1's frame (scale 1e-300) cannot hold the configuration: "
            "point coordinates must be finite, got (-inf, inf)")


def test_compute_that_leaves_the_finite_floats_is_invalid():
    # one robot's local enclosing circle overflows: the run records it
    pts = [Point(1e308, 0.0), Point(1.5e308, 0.0), Point(1e308, 1e308)]
    trace = run(pts, _ident(3), make_protocol("OneBitVisitAll"), 3)
    err = trace.records[-1].error
    assert trace.failed and len(trace.records) == 2
    assert err.startswith("InvalidFrame: robot 2's compute left the finite floats: "
                          "point coordinates must be finite")

    def overflow(analysis, snapshot, bit):
        raise OverflowError("intermediate overflow in fsum")

    with pytest.raises(InvalidFrame, match=r"^robot 0's compute left the finite floats: "
                                           r"intermediate overflow in fsum$"):
        fsync_round(SQUARE, _ident(4), Protocol("Overflow", overflow), [0] * 4)


def test_compute_value_errors_about_other_things_escape():
    def broken(analysis, snapshot, bit):
        raise ValueError("not about floats")

    with pytest.raises(ValueError, match="not about floats"):
        run(SQUARE, _ident(4), Protocol("Broken", broken), 1)


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
    with pytest.raises(ValueError, match="line 1: round 1 where round 0 is due"):
        parse_trace('{"round":1,"positions":[[0,0]],"bits":[0],"moved":[false]}\n')
    # blank lines are skipped, but they count in a bad record's line number
    line = '{"round":0,"positions":[[0,0],[1,1]],"bits":[0,0],"moved":[false,false]}'
    assert parse_trace(f"\n{line}\n  \n") == parse_trace(line)
    for positions in ('[["x",0]]', '[[NaN,0]]'):
        bad = f'{{"round":0,"positions":{positions},"bits":[0],"moved":[false]}}'
        with pytest.raises(ValueError, match=r"^trace line 2: bad record \("):
            parse_trace(f"\n{bad}\n")


_RECORD = '{{"round":{round},"positions":{positions},"bits":{bits},"moved":{moved}{error}}}'


def _record(**fields) -> str:
    """One record line with two robots, any field replaced as given text."""
    base = {"round": "0", "positions": "[[0,0],[1,1]]", "bits": "[0,1]",
            "moved": "[false,true]", "error": ""}
    return _RECORD.format(**{**base, **fields})


def _bad_record(text: str) -> str:
    with pytest.raises(ValueError, match=r"^trace line 1: bad record \(") as info:
        parse_trace(text)
    return str(info.value)


@pytest.mark.parametrize("positions, message", [
    # the per-pair messages the parser has always given, which the first bad
    # pair in input order still decides
    ('[[NaN,0],["x",0]]', "point coordinates must be finite, got (nan, 0.0)"),
    ('[[0,Infinity],["x",0]]', "point coordinates must be finite, got (0.0, inf)"),
    ("[[0,0],[1,1e999]]", "point coordinates must be finite, got (1.0, inf)"),
    ("[[0,0],[1]]", "not enough values to unpack (expected 2, got 1)"),
    ("[[0,0],[1,2,3]]", "too many values to unpack (expected 2)"),
    ("[[0,0],null]", "cannot unpack non-iterable NoneType object"),
    ("5", "'int' object is not iterable"),
    # pairs that were coerced into points
    ('[["x",0],[NaN,0]]', "coordinate 'x' is not a JSON number"),
    ('[[0,0],["1.5",0]]', "coordinate '1.5' is not a JSON number"),
    ("[[true,2],[0,0]]", "coordinate True is not a JSON number"),
    ("[[0,0],[1,null]]", "coordinate None is not a JSON number"),
    ('["12","34"]', "coordinate '1' is not a JSON number"),
    (f"[[0,0],[1,{'9' * 400}]]", "int too large to convert to float"),
])
def test_parse_trace_names_the_first_bad_pair(positions, message):
    assert _bad_record(_record(positions=positions)) == f"trace line 1: bad record ({message})"


@pytest.mark.parametrize("field, text, message", [
    ("moved", '["false","no"]', "moved flag 'false' is not a boolean"),
    ("moved", "[0,1]", "moved flag 0 is not a boolean"),
    ("moved", '"tf"', "moved flag 't' is not a boolean"),
    ("bits", '["1",true]', "bit '1' is not 0 or 1"),
    ("bits", "[0,true]", "bit True is not 0 or 1"),
    ("bits", "[1.0,0]", "bit 1.0 is not 0 or 1"),
    ("bits", "[0,2]", "bit 2 is not 0 or 1"),
    ("round", "0.5", "round 0.5 is not an integer"),
    ("round", "false", "round False is not an integer"),
    ("round", '"0"', "round '0' is not an integer"),
    ("error", ',"error":5', "error 5 is not a string"),
    ("error", ',"error":["x"]', "error ['x'] is not a string"),
])
def test_parse_trace_accepts_only_what_the_writer_writes(field, text, message):
    assert _bad_record(_record(**{field: text})) == f"trace line 1: bad record ({message})"
    # a bad pair comes first, whatever else is wrong
    assert _bad_record(_record(positions='[[0,0],["x",0]]', **{field: text})).endswith(
        "(coordinate 'x' is not a JSON number)")


def test_parse_trace_reads_what_the_writer_writes():
    trace = parse_trace(_record(error=',"error":null') + "\n"
                        + _record(round="1", positions="[[0.5,-0],[1e300,-2.5e-8]]",
                                  error=',"error":"NotOrderable: x"'))
    first, second = trace.records
    assert first == RoundRecord(0, (Point(0.0, 0.0), Point(1.0, 1.0)), (0, 1), (False, True))
    assert second.error == "NotOrderable: x"
    assert [float.hex(v) for v in second.positions.xs + second.positions.ys] == [
        float.hex(v) for v in (0.5, 1e300, -0.0, -2.5e-8)]


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   1.0, -3.0, 2.0 ** 53, 1e16, -123456789.0, 0.1)
_coordinates = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _traces(draw) -> RunTrace:
    n = draw(st.integers(1, 5))
    records = []
    for r in range(draw(st.integers(1, 4))):
        pts = tuple(Point(draw(_coordinates), draw(_coordinates)) for _ in range(n))
        records.append(RoundRecord(r, pts, tuple(draw(st.lists(st.sampled_from((0, 1)),
                                                                min_size=n, max_size=n))),
                                   tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))))
    error = draw(st.none() | st.text())
    records[-1] = RoundRecord(records[-1].round_index, records[-1].positions, records[-1].bits,
                              records[-1].moved, error)
    return RunTrace(tuple(records))


@settings(max_examples=300, deadline=None, database=None)
@given(_traces())
def test_parse_trace_roundtrip_is_bit_exact(trace):
    """Every float comes back with its bits, -0.0, subnormals, the largest
    finite floats and integral values written as JSON ints included."""
    text = serialize_trace(trace)
    back = parse_trace(text)
    assert back.records == trace.records
    for ra, rb in zip(trace.records, back.records):
        assert [(float.hex(p.x), float.hex(p.y)) for p in ra.positions] == [
            (float.hex(x), float.hex(y)) for x, y in zip(rb.positions.xs, rb.positions.ys)]
    assert serialize_trace(back) == text


def test_error_round_preserved_in_jsonl():
    pts = [Point(0, 0), Point(1, 0), Point(-1, 0)]
    proto = make_protocol("VisitAllChirality")
    trace = run(pts, _ident(3), proto, rounds=2)
    text = serialize_trace(trace)
    back = parse_trace(text)
    assert back.failed
    assert back.records[-1].error == trace.records[-1].error
