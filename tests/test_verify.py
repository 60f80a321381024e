import itertools
import math
import random

import pytest
from corpus import rand_non_c_dot

from swarmperm import (
    IDENTITY_FRAME,
    MOVE_ALL,
    NotAPermutation,
    Point,
    SpecVerdict,
    VISIT_ALL,
    check_k_step_spec,
    extract_permutation,
    make_protocol,
    run,
    visit_matrix,
)
from swarmperm.verify import _cycle_flags

SQUARE = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]


def _shift(points, s):
    n = len(points)
    return [points[(i + s) % n] for i in range(n)]


# --- permutation extraction ----------------------------------------------

def test_identity_is_not_fixed_point_free():
    sp = extract_permutation(SQUARE, SQUARE)
    assert sp.pi == (0, 1, 2, 3)
    assert not sp.fixed_point_free
    assert not sp.is_n_cycle


def test_square_shift_is_an_n_cycle():
    sp = extract_permutation(SQUARE, _shift(SQUARE, 1))
    assert sp.fixed_point_free and sp.is_n_cycle


def test_double_shift_is_fpf_but_not_n_cycle():
    sp = extract_permutation(SQUARE, _shift(SQUARE, 2))
    assert sp.fixed_point_free and not sp.is_n_cycle


def test_extract_matches_random_permutations():
    rng = random.Random(21)
    for _ in range(60):
        pts = rand_non_c_dot(rng, rng.randint(3, 10))
        n = len(pts)
        perm = list(range(n))
        rng.shuffle(perm)
        after = [pts[perm[i]] for i in range(n)]
        sp = extract_permutation(pts, after)
        assert list(sp.pi) == perm
        for i, q in enumerate(after):  # c_b[i] == c_a[pi[i]]
            assert pts[sp.pi[i]].dist(q) < 1e-12


def ref_cycle_flags(pi):
    """_cycle_flags as it was, with its cycle-length loop and two checks."""
    n = len(pi)
    fpf = all(pi[i] != i for i in range(n))
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = pi[i]
            length += 1
        lengths.append(length)
    single = len(lengths) == 1 and lengths[0] == n
    if sum(lengths) != n:
        raise NotAPermutation(f"cycle lengths sum to {sum(lengths)}, not {n}")
    # independent check: one cycle iff the orbit of 0 covers everything
    orbit = 1
    i = pi[0]
    while i != 0:
        i = pi[i]
        orbit += 1
    if single != (orbit == n):
        raise NotAPermutation("cycle structure disagrees with orbit size")
    return fpf, single


def test_cycle_flags_match_reference_on_every_small_permutation():
    count = 0
    for n in range(1, 8):
        for pi in itertools.permutations(range(n)):
            assert _cycle_flags(pi) == ref_cycle_flags(pi)
            count += 1
    assert count == sum(math.factorial(n) for n in range(1, 8))


def test_extract_rejects_non_permutations():
    with pytest.raises(NotAPermutation):
        extract_permutation(SQUARE, [Point(9, 9)] * 4)  # no match at all
    with pytest.raises(NotAPermutation):
        # two robots land on the same source point: not a bijection
        extract_permutation(SQUARE, [SQUARE[0], SQUARE[0], SQUARE[2], SQUARE[3]])


# --- k-step checks --------------------------------------------------------

def _trace(protocol_id, pts, rounds):
    proto = make_protocol(protocol_id)
    return run(pts, [IDENTITY_FRAME] * len(pts), proto, rounds=rounds)


def test_visit_all_pass_on_square():
    trace = _trace("VisitAllChirality", SQUARE, 4)
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    assert v.passed and v.first_violation is None
    assert not v.provisional


def test_move_all_accepts_what_visit_all_accepts():
    rng = random.Random(22)
    for _ in range(10):
        pts = rand_non_c_dot(rng, rng.randint(4, 8))
        trace = _trace("VisitAllChirality", pts, len(pts))
        assert check_k_step_spec(trace, VISIT_ALL, k=1).passed
        assert check_k_step_spec(trace, MOVE_ALL, k=1).passed


def test_fixed_point_fails_move_all():
    records = [
        (0, SQUARE),
        (1, [SQUARE[0]] + _shift(SQUARE[1:], 1)),  # robot 0 stays put
    ]
    trace = _fake_trace(records)
    v = check_k_step_spec(trace, MOVE_ALL, k=1)
    assert not v.passed
    assert v.first_violation[0] == 1
    assert "fixed" in v.first_violation[1]


def _fake_trace(rounds_points, bit_rounds=()):
    from swarmperm.engine import RoundRecord, RunTrace
    recs = []
    for idx, pts in rounds_points:
        n = len(pts)
        bits = tuple(1 if idx in bit_rounds else 0 for _ in range(n))
        recs.append(RoundRecord(idx, tuple(pts), bits, (idx > 0,) * n))
    return RunTrace(tuple(recs))


def test_non_cycle_fails_visit_all():
    trace = _fake_trace([(0, SQUARE), (1, _shift(SQUARE, 2))])
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    assert not v.passed
    assert "cycle" in v.first_violation[1]
    # the same trace is a fine one-round relocation
    assert check_k_step_spec(trace, MOVE_ALL, k=1).passed


def test_short_visit_all_trace_is_provisional():
    # 4 robots but only 2 rounds: the n-cycle cannot have closed yet
    trace = _trace("VisitAllChirality", SQUARE, 2)
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    assert v.passed and v.provisional
    assert v.to_dict() == {"spec": VISIT_ALL, "k": 1, "pass": True, "violation": None,
                           "provisional": True}
    assert v.to_json() == ('{"spec":"VisitAll","k":1,"pass":true,"violation":null,'
                           '"provisional":true}')


def test_round_k_not_a_permutation_of_round_0_fails_at_k():
    moved = [Point(0.5, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    trace = _fake_trace([(0, SQUARE), (1, SQUARE), (2, moved)])
    v = check_k_step_spec(trace, MOVE_ALL, k=2)
    assert not v.passed
    assert v.first_violation == (2, "NotAPermutation: point (0.5, 0) matches 0 points")


def test_embedded_error_fails_first():
    pts = [Point(0, 0), Point(1, 0), Point(-1, 0)]
    trace = _trace("VisitAllChirality", pts, 3)
    assert trace.failed
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    assert not v.passed
    assert "NotOrderable" in v.first_violation[1]


def test_trace_shorter_than_k_fails():
    trace = _fake_trace([(0, SQUARE)])
    v = check_k_step_spec(trace, VISIT_ALL, k=2)
    assert not v.passed


def test_power_check_catches_drift():
    # rounds 0..2 where the second step uses a different shift
    trace = _fake_trace([(0, SQUARE), (1, _shift(SQUARE, 1)), (2, SQUARE)])
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    assert not v.passed
    assert v.first_violation[0] == 2


def test_two_step_spec_with_intermediate():
    # signalling rounds between permutation rounds are tolerated only
    # when the trace carries memory bits; a memoryless trace must be a
    # permutation across every window
    inter1 = [Point(0.3, 0.1), Point(2.4, -0.2), Point(1.9, 2.2), Point(-0.4, 1.7)]
    inter2 = [Point(0.1, 0.5), Point(2.2, 0.3), Point(1.6, 2.4), Point(-0.2, 1.3)]
    rounds = [(0, SQUARE), (1, inter1), (2, _shift(SQUARE, 1)),
              (3, inter2), (4, _shift(SQUARE, 2))]
    with_bits = _fake_trace(rounds, bit_rounds=(1, 2, 3, 4))
    v = check_k_step_spec(with_bits, VISIT_ALL, k=2)
    assert v.passed
    zero_bits = _fake_trace(rounds)
    v = check_k_step_spec(zero_bits, VISIT_ALL, k=2)
    assert not v.passed
    assert v.first_violation[0] == 3  # round 3 vs round 1 comparison fires


def test_verdict_json_shape():
    trace = _trace("VisitAllChirality", SQUARE, 4)
    v = check_k_step_spec(trace, VISIT_ALL, k=1)
    d = v.to_dict()
    assert d["spec"] == VISIT_ALL and d["k"] == 1 and d["pass"] is True
    assert d["violation"] is None
    assert "provisional" not in d
    j = v.to_json()
    assert '"pass":true' in j


# --- visit matrix ---------------------------------------------------------

def test_visit_matrix_square_cycle():
    trace = _trace("VisitAllChirality", SQUARE, 4)
    mat = visit_matrix(trace)
    assert all(all(row) for row in mat)


def test_visit_matrix_identity_diagonal():
    trace = _fake_trace([(0, SQUARE), (1, SQUARE)])
    mat = visit_matrix(trace)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == (i == j)


def test_visit_matrix_stride_skips_intermediates():
    inter = [Point(0.3, 0.1), Point(2.4, -0.2), Point(1.9, 2.2), Point(-0.4, 1.7)]
    rounds = [(0, SQUARE)]
    cur = SQUARE
    for t in range(1, 9):
        if t % 2 == 1:
            rounds.append((t, inter))
        else:
            cur = _shift(SQUARE, t // 2)
            rounds.append((t, cur))
    trace = _fake_trace(rounds)
    mat = visit_matrix(trace, stride=2)
    assert all(v == 1 for row in mat for v in row)  # each site hit exactly once


@pytest.mark.parametrize("stride", [0, -1, -2])
def test_visit_matrix_refuses_a_stride_below_one(stride):
    # a negative stride would sample the rounds backwards
    trace = _trace("VisitAllChirality", SQUARE[:3], 3)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        visit_matrix(trace, stride=stride)
