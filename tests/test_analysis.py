"""The per-snapshot Analysis against the standalone functions it replaces,
and the calls one protocol step makes into the expensive layers and the
enclosing circle."""

import random
import sys

from corpus import (
    collinear_config,
    dihedral_config,
    hand_symmetry_corpus,
    occupied_axis_config,
    pinwheel_config,
    rand_c_dot,
    rand_central_symmetric,
    rand_non_c_dot,
    rand_points,
    unique_empty_axis_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmperm import (
    DEFAULT_TOL,
    Analysis,
    VISIT_ALL,
    Point,
    Protocol,
    RoundRecord,
    RunTrace,
    SwarmError,
    Tolerance,
    adversary_frames,
    analyze,
    center_robot_index,
    centroid,
    check_k_step_spec,
    classify,
    concentric_decomposition,
    fsync_round,
    inner_polygon,
    make_protocol,
    mirror_axes,
    parse_trace,
    robots_on_axis,
    rotational_order,
    serialize_trace,
    smallest_enclosing_circle,
    to_local_snapshot,
    visit_matrix,
)
from swarmperm.errors import NonFinite


def _outcome(fn):
    try:
        return ("ok", fn())
    except (SwarmError, ValueError) as exc:
        return ("raised", type(exc))


def _standalone(pts, tol):
    """Each Analysis field, computed by a standalone call on a raw list."""
    raw = lambda: list(pts)  # noqa: E731  (a fresh list: nothing cached)

    def axis_robots():
        return tuple(robots_on_axis(raw(), ax, tol) for ax in mirror_axes(raw(), tol))

    def k_without_center():
        # classify as it was before in_c_dot was split from the mirror axes
        rc = center_robot_index(raw(), tol)
        if rc is None or len(pts) < 3:
            return 0
        return rotational_order([p for i, p in enumerate(pts) if i != rc], tol)

    return {
        "sec": lambda: smallest_enclosing_circle(raw()),
        "center_index": lambda: center_robot_index(raw(), tol),
        "k_without_center": k_without_center,
        "in_c_dot": lambda: k_without_center() > 1,
        "centroid": lambda: centroid(raw()),
        "layers": lambda: concentric_decomposition(
            raw(), smallest_enclosing_circle(raw()).center, tol),
        "inner_polygon": lambda: inner_polygon(raw(), tol),
        "rotational_order": lambda: rotational_order(raw(), tol),
        "mirror_axes": lambda: mirror_axes(raw(), tol),
        "axis_robots": axis_robots,
    }


def _assert_equivalent(pts, rng, tol=DEFAULT_TOL):
    expected = {name: _outcome(fn) for name, fn in _standalone(pts, tol).items()}
    a = Analysis(pts, tol)
    names = list(expected)
    rng.shuffle(names)  # the order fields are first asked in must not matter
    for name in names:
        assert _outcome(lambda: getattr(a, name)) == expected[name], name
    if expected["in_c_dot"][0] == "ok":
        assert classify(list(pts), tol).in_c_dot == expected["in_c_dot"][1]
        assert classify(a, tol).in_c_dot == a.in_c_dot


def _corpus(rng):
    yield from (pts for pts, _, _ in hand_symmetry_corpus())
    for n in (2, 3, 5, 8, 12):
        yield rand_points(rng, n)
        yield rand_non_c_dot(rng, max(n, 3))
        yield collinear_config(rng, max(n, 3))
    for n, k in ((3, None), (4, 3), (5, 2), (7, 3), (9, 2), (9, 4), (13, None)):
        yield rand_c_dot(rng, n, k)
    for pairs in (2, 3, 5):
        yield rand_central_symmetric(rng, pairs)
        yield unique_empty_axis_config(rng, pairs)
        yield occupied_axis_config(rng, pairs, 2)
    for m in (3, 4, 6):
        yield dihedral_config(rng, m)
        yield pinwheel_config(rng, m)
    yield dihedral_config(rng, 4, on_axis_pairs=True)


def test_analysis_fields_match_standalone_functions_on_corpus():
    rng = random.Random(61)
    count = 0
    for pts in _corpus(rng):
        _assert_equivalent(pts, rng)
        count += 1
    assert count > 80


_grid = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                 min_size=1, max_size=9, unique=True)
_float = st.floats(-5.0, 5.0, allow_nan=False)
_scattered = st.lists(st.tuples(_float, _float), min_size=1, max_size=9)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(_grid, _scattered), st.sampled_from([0.5, 1.0, 1e-3, 1e3]),
       st.randoms(use_true_random=False))
def test_analysis_fields_match_standalone_functions_on_generated_sets(xys, scale, rng):
    # grid sets are rich in symmetry, centered ones included
    _assert_equivalent([Point(x * scale, y * scale) for x, y in xys], rng)


def test_analyze_reuses_a_matching_analysis():
    pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
    a = Analysis(pts)
    assert analyze(a) is a
    other = analyze(a, Tolerance(1e-6))
    assert other is not a and other == a and other.tol.eps == 1e-6
    assert analyze(pts) is not analyze(pts)


# --- calls per compute -----------------------------------------------------

def _count_calls(monkeypatch, name, home, log):
    """Rebind `name` in every swarmperm module that binds it, logging the
    point set of each call."""
    orig = getattr(home, name)

    def counted(points, *args, **kwargs):
        log.append((name, tuple(points)))
        return orig(points, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("swarmperm") and mod.__dict__.get(name) is orig:
            monkeypatch.setattr(mod, name, counted)


def test_one_bit_compute_skips_mirror_axes_and_repeats_no_circle(monkeypatch):
    import swarmperm.geometry as geometry
    import swarmperm.symmetry as symmetry

    log: list = []
    for name, home in (("mirror_axes", symmetry), ("classify", symmetry),
                       ("smallest_enclosing_circle", geometry)):
        _count_calls(monkeypatch, name, home, log)
    per_compute: list[list] = []
    compute = Protocol.compute

    def tracked(self, snapshot, bit=None):
        start = len(log)
        out = compute(self, snapshot, bit)
        per_compute.append(log[start:])
        return out

    monkeypatch.setattr(Protocol, "compute", tracked)

    rng = random.Random(62)
    proto = make_protocol("OneBitVisitAll")
    # centered rounds alternate with the off-center rounds reconstruct inverts
    for n, k in ((5, 2), (7, 3), (9, 2), (3, 2)):
        pts = rand_c_dot(rng, n, k)
        frames = adversary_frames("pairwise_distinct", pts, seed=n)
        bits = [0] * n
        for _ in range(4):
            pts, bits, _moved = fsync_round(pts, frames, proto, bits)
    assert len(per_compute) == 4 * (5 + 7 + 9 + 3)
    most = 0
    for calls in per_compute:
        assert not [c for c in calls if c[0] in ("mirror_axes", "classify")]
        circles = [pts for name, pts in calls if name == "smallest_enclosing_circle"]
        assert len(circles) == len(set(circles))
        most = max(most, len(circles))
    assert most > 1  # reconstruct ran and analysed candidate configurations


# --- the centered guard's bound ----------------------------------------------

def _snapshots(pts, kind):
    frames = adversary_frames(kind, pts, seed=len(pts))
    return [to_local_snapshot(pts, frames, i, visible=True) for i in range(len(pts))]


def test_refusing_steps_build_no_circle_where_the_bound_decides():
    """The three protocols that refuse the centered class, on snapshots
    where the bound rules out a center robot, which certifies them
    generic: their steps then never build the enclosing circle."""
    rng = random.Random(63)
    generic = [rand_non_c_dot(rng, n) for n in (3, 5, 8, 12, 20)]
    cases = {
        "VisitAllChirality": ("pairwise_distinct", generic),
        "MoveAllNoChirality": ("random", generic + [
            rand_central_symmetric(rng, 4), pinwheel_config(rng, 5),
            dihedral_config(rng, 4, on_axis_pairs=True)]),
        "VisitAllNoChirality": ("random", generic + [unique_empty_axis_config(rng, 4)]),
    }
    for protocol_id, (kind, sets) in cases.items():
        proto = make_protocol(protocol_id)
        certified = total = 0
        for pts in sets:
            for snap in _snapshots(pts, kind):
                total += 1
                if not Analysis(snap.local_points, proto.tol).no_center_robot:
                    continue
                certified += 1
                a = Analysis(snap.local_points, proto.tol)
                proto.step(a, snap, 0)
                assert "sec" not in vars(a), protocol_id
        assert certified >= 0.75 * total, protocol_id


def test_second_bound_center_skips_the_circle_the_box_leaves(monkeypatch):
    """Robot 0 sits at the bounding-box center, within the box bound of
    every robot, in every robot's snapshot under identical frames (integer
    coordinates, so exactly).  The circle of the axis-extreme robots
    decides instead, and no VisitAllChirality compute builds the enclosing
    circle; with that circle failing, each compute builds it once."""
    import swarmperm.geometry as geometry
    import swarmperm.symmetry as symmetry

    log: list = []
    _count_calls(monkeypatch, "smallest_enclosing_circle", geometry, log)
    pts = [Point(0.0, 0.0), Point(-4.0, -2.0), Point(1.0, 2.0), Point(4.0, -1.0)]
    snaps = _snapshots(pts, "identical")
    proto = make_protocol("VisitAllChirality")
    for snap in snaps:
        xs = [p.x for p in snap.local_points]
        ys = [p.y for p in snap.local_points]
        assert snap.local_points[0] == Point((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
        proto.compute(snap, 0)
    assert log == []

    def raising(xys):
        raise NonFinite("point coordinates must be finite, got (nan, nan)")

    monkeypatch.setattr(symmetry, "enclosing_circle_xy", raising)
    for snap in snaps:
        proto.compute(snap, 0)
    assert len(log) == len(snaps)


def test_centered_steps_still_build_the_circle():
    """OneBit and Voting read the centered test on every snapshot and go on
    to use the circle, so they build it and never ask the bound."""
    rng = random.Random(64)
    sets = [rand_c_dot(rng, n, k) for n, k in ((3, 2), (4, 3), (5, 2), (7, 3), (9, 4))]
    for protocol_id in ("OneBitVisitAll", "VotingVisitAll"):
        proto = make_protocol(protocol_id)
        for pts in sets:
            for snap in _snapshots(pts, "pairwise_distinct"):
                for bit in (0, 1):
                    a = Analysis(snap.local_points, proto.tol)
                    proto.step(a, snap, bit)
                    assert "sec" in vars(a) and "no_center_robot" not in vars(a)


# --- what the no-chirality MoveAll step reads ---------------------------------

def _move_all_cases():
    rng = random.Random(65)
    return [(rand_central_symmetric(rng, 4), False), (dihedral_config(rng, 4), False),
            (dihedral_config(rng, 4, on_axis_pairs=True), False),
            (dihedral_config(rng, 3), True), (dihedral_config(rng, 5), True)]


def test_move_all_reads_mirror_axes_only_without_central_symmetry(monkeypatch):
    """A centrally symmetric snapshot is reflected through the centroid
    without its mirror axes, the robots on them, a rotation count or a
    concentric layering; an odd-m dihedral one reads the axes and the
    robots on them, and counts no rotation either."""
    import swarmperm.geometry as geometry
    import swarmperm.symmetry as symmetry

    cases = _move_all_cases()
    log: list = []
    for name, home in (("mirror_axes", symmetry), ("robots_on_axis", symmetry),
                       ("_rotation_count", symmetry), ("concentric_decomposition", geometry)):
        _count_calls(monkeypatch, name, home, log)
    proto = make_protocol("MoveAllNoChirality")
    for pts, reads_axes in cases:
        for snap in _snapshots(pts, "random"):
            start = len(log)
            proto.compute(snap, 0)
            names = {name for name, _ in log[start:]}
            assert names == ({"mirror_axes", "robots_on_axis", "concentric_decomposition"}
                             if reads_axes else set())


def _count_point_indexes(monkeypatch) -> list:
    """The point sets of every PointIndex built from now on, in order."""
    import swarmperm.geometry as geometry

    built: list = []
    init = geometry.PointIndex.__init__

    def counted_init(self, points, tol):
        built.append(tuple(points))
        init(self, points, tol)

    monkeypatch.setattr(geometry.PointIndex, "__init__", counted_init)
    return built


def test_move_all_compute_builds_one_point_index(monkeypatch):
    """The duplicate check reads the coordinates without a point index,
    and the half-turn image test and any mirror-axis ones share one, so
    one compute builds exactly one."""
    cases = _move_all_cases()
    built = _count_point_indexes(monkeypatch)
    proto = make_protocol("MoveAllNoChirality")
    for pts, _ in cases:
        for snap in _snapshots(pts, "random"):
            start = len(built)
            proto.compute(snap, 0)
            assert built[start:] == [snap.local_points]


def test_visit_all_chirality_compute_builds_no_point_index(monkeypatch):
    """Without a center robot the step asks no image test, and the
    duplicate check builds no index, also where x-tied robots make it
    sweep, so a compute on generic snapshots builds none."""
    rng = random.Random(66)
    sets = [rand_non_c_dot(rng, n) for n in (3, 5, 8, 12, 20)]
    column = [Point(0.0, 0.0), Point(0.0, 3.0), Point(2.0, 1.0), Point(-1.5, 2.5)]
    built = _count_point_indexes(monkeypatch)
    proto = make_protocol("VisitAllChirality")
    computes = 0
    for pts, kind in [(pts, "pairwise_distinct") for pts in sets] + [(column, "identical")]:
        for snap in _snapshots(pts, kind):
            assert Analysis(snap.local_points, proto.tol).center_index is None
            proto.compute(snap, 0)
            computes += 1
    assert computes == 52 and built == []
    tied = _snapshots(column, "identical")[0].local_points
    assert tied[0].x == tied[1].x  # the sweep runs on this set


def _count_points(monkeypatch) -> list:
    """A one-item list counting every Point built from now on."""
    import swarmperm.geometry as geometry

    built = [0]
    init = geometry.Point.__init__

    def counted_init(self, x, y):
        built[0] += 1
        init(self, x, y)

    monkeypatch.setattr(geometry.Point, "__init__", counted_init)
    return built


def test_visit_all_chirality_builds_o_n_points_per_round(monkeypatch):
    """A snapshot holds coordinate columns and builds no Point.  On generic
    snapshots, where the bound settles the centered guard, a compute reads
    the columns through the kernels and builds two Points, the centroid and
    the destination, and a round adds one per robot for its destination in
    the global frame: 3n Points a round, not n^2.  (A frame's first round
    also builds its +x direction, once.)"""
    rng = random.Random(67)
    proto = make_protocol("VisitAllChirality")
    built = _count_points(monkeypatch)
    for n in (3, 5, 8, 12, 20):
        pts = rand_non_c_dot(rng, n)
        frames = adversary_frames("pairwise_distinct", pts, seed=n)
        for i in range(n):
            start = built[0]
            snap = to_local_snapshot(pts, frames, i)
            assert built[0] == start
            assert Analysis(snap.local_points, proto.tol).no_center_robot
            start = built[0]
            proto.compute(snap, 0)
            assert built[0] - start == 2
        fsync_round(pts, frames, proto, [0] * n)
        start = built[0]
        fsync_round(pts, frames, proto, [0] * n)
        assert built[0] - start == 3 * n


def test_trace_audit_builds_no_point(monkeypatch):
    """Reading a trace and verifying it run on coordinate columns: parsing
    a 30-robot, 60-round trace, checking it against the k-step contract and
    counting its visits build 0 Points, and so do a violation's verdict and
    message (the Point-per-robot-round reader built 3,060 here)."""
    rng = random.Random(68)
    n, rounds = 30, 60
    base = rand_points(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    pi = [0] * n
    for j in range(n):
        pi[order[j]] = order[(j + 1) % n]
    configs = [tuple(base)]
    for _ in range(rounds):
        configs.append(tuple(configs[-1][pi[i]] for i in range(n)))
    records = [RoundRecord(r, c, (0,) * n, (r > 0,) * n) for r, c in enumerate(configs)]
    text = serialize_trace(RunTrace(tuple(records)))
    drifted = configs[:40] + [configs[40][:-1] + (configs[40][-1] + Point(1e-3, 0.0),)]
    bad_text = serialize_trace(RunTrace(tuple(
        RoundRecord(r, c, (0,) * n, (r > 0,) * n) for r, c in enumerate(drifted))))
    built = _count_points(monkeypatch)
    trace = parse_trace(text)
    verdict = check_k_step_spec(trace, VISIT_ALL, 1)
    visits = visit_matrix(trace)
    bad = check_k_step_spec(parse_trace(bad_text), VISIT_ALL, 1)
    assert built[0] == 0
    assert verdict.passed and not verdict.provisional
    assert all(c == 2 for row in visits for c in row)
    assert bad.first_violation == (40, f"robot {n - 1} deviates from the fixed permutation "
                                       f"power at round 40")


def _record_offsets(monkeypatch) -> list:
    """The (points, center) of every `offsets` call from now on, in every
    module that calls it."""
    import swarmperm.geometry as geometry
    import swarmperm.ordering as ordering
    import swarmperm.protocols as protocols
    import swarmperm.symmetry as symmetry

    calls: list = []
    real = geometry.offsets

    def recorded(points, c):
        calls.append((points, c))
        return real(points, c)

    for module in (geometry, symmetry, ordering, protocols):
        monkeypatch.setattr(module, "offsets", recorded)
    return calls


def test_centered_steps_take_one_row_set_per_analysis(monkeypatch):
    """OneBit's centered and off-center steps and Voting's elections read
    each analysis's offsets from its own enclosing circle's center from one
    cached row set: at most one such `offsets` call per Analysis built.  And
    a reconstruction reads the robots through columns and rows, so the
    Points it builds do not grow with n: each candidate analysis builds at
    most 2 (its circle's center and the centroid of its robots but the
    center one), and an origin at most 5, so no reconstruct on these sets
    builds more than 15, from n = 4 to 16 (reading by index, the columnar
    code before the row cache built 18 to 71)."""
    import swarmperm.protocols as protocols

    calls = _record_offsets(monkeypatch)
    built = _count_points(monkeypatch)
    analyses: list = []
    init = Analysis.__init__
    monkeypatch.setattr(Analysis, "__init__",
                        lambda self, *args: analyses.append(self) or init(self, *args))
    rebuilds: list = []
    real = protocols.reconstruct

    def counted_reconstruct(points, tol):
        start = built[0]
        mark = real(points, tol)
        rebuilds.append((len(points), built[0] - start))
        return mark

    monkeypatch.setattr(protocols, "reconstruct", counted_reconstruct)
    steps = {"one-bit centered": 0, "one-bit off-center": 0, "voting": 0}
    rng = random.Random(69)
    for name in ("OneBitVisitAll", "VotingVisitAll"):
        proto = make_protocol(name)
        for n in (4, 5, 7, 9, 10, 13, 16):
            pts = rand_c_dot(rng, n)
            frames = adversary_frames("pairwise_distinct", pts, seed=n)
            bits = (0,) * n
            for _ in range(4):
                for i in range(n):
                    snap = to_local_snapshot(pts, frames, i, proto.needs_visible_frames)
                    first, start = len(analyses), len(calls)
                    proto.compute(snap, bits[i])
                    own = [id(p) for p, c in calls[start:] if isinstance(p, Analysis)
                           and "sec" in p.__dict__ and c == p.sec.center]
                    assert len(own) == len(set(own)) <= len(analyses) - first
                    if name == "VotingVisitAll":
                        steps["voting"] += analyses[first].in_c_dot
                    elif analyses[first].in_c_dot:
                        steps["one-bit centered"] += 1
                    else:
                        steps["one-bit off-center"] += bits[i]
                pts, bits, _ = fsync_round(pts, frames, proto, bits)
    assert min(steps.values()) > 0
    assert {n for n, _ in rebuilds} == {4, 5, 7, 9, 10, 13, 16}
    assert max(count for _, count in rebuilds) <= 15
