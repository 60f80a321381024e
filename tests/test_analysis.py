"""The per-snapshot Analysis against the standalone functions it replaces,
and the calls one protocol step makes into the expensive layers."""

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
    Point,
    Protocol,
    SwarmError,
    Tolerance,
    adversary_frames,
    analyze,
    center_robot_index,
    centroid,
    classify,
    concentric_decomposition,
    fsync_round,
    inner_polygon,
    make_protocol,
    mirror_axes,
    robots_on_axis,
    rotational_order,
    smallest_enclosing_circle,
)


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
        "sec": lambda: smallest_enclosing_circle(raw(), tol),
        "center_index": lambda: center_robot_index(raw(), tol),
        "k_without_center": k_without_center,
        "in_c_dot": lambda: k_without_center() > 1,
        "centroid": lambda: centroid(raw()),
        "layers": lambda: concentric_decomposition(
            raw(), smallest_enclosing_circle(raw(), tol).center, tol).layers,
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
