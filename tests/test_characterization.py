"""The characterization table agrees with what the protocols do.

For every corpus family and the near-pairs set, protocol and applicable
adversary kind, a row that `Protocol.refusal` calls feasible runs clean
and passes its contract, and an infeasible row stops in round 1 with
exactly the row's error.  The protocols that assume a shared clockwise
sense also run with every frame mirrored: a swarm whose shared sense is
the other one.  Small lattice sets hold the exact ties that random
families rarely draw, so every one of them runs too.
"""

import random
import re
import time

import pytest
from corpus import (
    NEAR_PAIRS,
    collinear_config,
    dihedral_config,
    occupied_axis_config,
    pinwheel_config,
    rand_c_dot,
    rand_central_symmetric,
    rand_points,
    unique_empty_axis_config,
)
from lattice_oracle import lattice_classes

from swarmperm import (
    MOVE_ALL,
    Frame,
    PROTOCOL_IDS,
    VISIT_ALL,
    MirrorSymmetric,
    NotCentral,
    Point,
    adversary_frames,
    analyze,
    check_k_step_spec,
    make_protocol,
    run,
)

FAMILIES = {
    "rand_points": lambda rng: rand_points(rng, rng.randint(3, 9)),
    "rand_c_dot": lambda rng: rand_c_dot(rng, rng.randint(3, 9)),
    "central_symmetric": lambda rng: rand_central_symmetric(rng, rng.randint(2, 4)),
    "dihedral": lambda rng: dihedral_config(rng, rng.choice([2, 3, 4])),
    "dihedral_axis_pairs": lambda rng: dihedral_config(rng, rng.choice([2, 4]), True),
    "pinwheel": lambda rng: pinwheel_config(rng, rng.randint(2, 4)),
    "unique_empty_axis": lambda rng: unique_empty_axis_config(rng, rng.randint(2, 4)),
    "axis_one_robot": lambda rng: occupied_axis_config(rng, rng.randint(2, 3), 1),
    "axis_two_robots": lambda rng: occupied_axis_config(rng, rng.randint(2, 3), 2),
    "collinear": lambda rng: collinear_config(rng, rng.randint(3, 8)),
    "near_pairs": lambda rng: [Point(x, y) for x, y in NEAR_PAIRS],
}
SETS_PER_FAMILY = 12
# Frames that keep a shared clockwise sense, for the protocols that assume one.
CHIRAL_KINDS = ("identical", "rotated_quarter", "pairwise_distinct")
ALL_KINDS = ("identical", "rotated_quarter", "pairwise_distinct", "mirrored_pairs", "random")
KINDS = {
    "VisitAllChirality": CHIRAL_KINDS,
    "MoveAllNoChirality": ALL_KINDS,
    "VisitAllNoChirality": ALL_KINDS,
    "VotingVisitAll": CHIRAL_KINDS,
    "OneBitVisitAll": CHIRAL_KINDS,
}
# Under random frames (scale 0.5 to 2) the near-pairs fall within eps of
# each other in some robots' frames, so that set runs only unscaled.
FAMILY_KINDS = {"near_pairs": ("identical", "pairwise_distinct")}


def test_every_protocol_has_a_row():
    assert tuple(KINDS) == PROTOCOL_IDS


def _frame_sets(kind, pts, seed, pid):
    """The kind's frames, and for a chirality protocol the same frames all
    mirrored, which flips the swarm's shared clockwise sense."""
    frames = adversary_frames(kind, pts, seed=seed)
    yield kind, frames
    if KINDS[pid] is CHIRAL_KINDS:
        yield f"{kind}, mirrored", [Frame(f.rotation, not f.mirror, f.scale) for f in frames]


def _outcome(pts, frames, pid):
    """None when the run agrees with the protocol's row, else what differs;
    also whether the row is feasible."""
    a = analyze(pts)
    protocol = make_protocol(pid)
    err = protocol.refusal(a)
    k = 2 if pid == "OneBitVisitAll" and a.in_c_dot else 1
    spec = MOVE_ALL if pid == "MoveAllNoChirality" else VISIT_ALL
    # two relocation steps: the step permutation, its square, the restart
    trace = run(pts, frames, protocol, 2 * k)
    got = trace.records[-1].error
    if err is None:
        if got is not None:
            return f"feasible row, run stopped: {got}", True
        verdict = check_k_step_spec(trace, spec, k)
        return (None if verdict.passed else f"feasible row, {verdict.to_json()}"), True
    want = f"{type(err).__name__}: {err}"
    if got is None or trace.records[-1].round_index != 1 \
            or not re.fullmatch(re.escape(want) + r" \(robot \d+\)", got):
        return f"row refuses with {want!r}, run recorded {got!r}", False
    return None, False


@pytest.mark.parametrize("family", list(FAMILIES))
def test_rows_agree_with_runs(family):
    rng = random.Random(f"characterization-{family}")
    misses = []
    feasible = infeasible = 0
    t0 = time.perf_counter()
    for s in range(SETS_PER_FAMILY):
        pts = FAMILIES[family](rng)
        for pid in PROTOCOL_IDS:
            for kind in KINDS[pid]:
                if kind not in FAMILY_KINDS.get(family, ALL_KINDS):
                    continue
                try:
                    frame_sets = list(_frame_sets(kind, pts, s, pid))
                except (MirrorSymmetric, NotCentral):
                    continue  # mirrored_pairs needs an axis, rotated_quarter a center
                for label, frames in frame_sets:
                    miss, ok = _outcome(pts, frames, pid)
                    feasible += ok
                    infeasible += not ok
                    if miss is not None:
                        misses.append((s, pid, label, miss))
    assert misses == []
    assert feasible + infeasible > 0
    print(f"{family}: {feasible} feasible and {infeasible} infeasible runs agree "
          f"with their rows in {time.perf_counter() - t0:.2f} s")


@pytest.mark.parametrize("n, kinds, classes", [(3, ALL_KINDS, 204), (4, ("identical",), 956)],
                         ids=["3-every-kind", "4-identical"])
def test_rows_agree_with_runs_on_lattice_sets(n, kinds, classes):
    misses = []
    runs = 0
    t0 = time.perf_counter()
    sets = [[Point(x, y) for x, y in xys] for xys in lattice_classes(n)]
    for s, pts in enumerate(sets):
        for pid in PROTOCOL_IDS:
            for kind in (k for k in KINDS[pid] if k in kinds):
                try:
                    frame_sets = list(_frame_sets(kind, pts, s, pid))
                except (MirrorSymmetric, NotCentral):
                    continue
                for label, frames in frame_sets:
                    miss, _ = _outcome(pts, frames, pid)
                    runs += 1
                    if miss is not None:
                        misses.append((pts, pid, label, miss))
    assert misses == []
    assert len(sets) == classes
    print(f"{classes} lattice classes of {n}: {runs} runs agree with their rows "
          f"in {time.perf_counter() - t0:.2f} s")
