import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from corpus import NEAR_PAIRS

from swarmperm import PROTOCOL_IDS, Frame, Point, make_protocol, run, serialize_trace
from swarmperm.cli import (
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PROTOCOL_ERROR,
    EXIT_SPEC_FAIL,
    ScenarioError,
    load_scenario,
    main,
    scenario_frames,
)
from swarmperm.engine import to_local_snapshot


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


SQUARE_SCN = {
    "points": [[0, 0], [2, 0], [2, 2], [0, 2]],
    "protocol": "VisitAllChirality",
    "rounds": 4,
}


# --- scenario loading -----------------------------------------------------

def test_scenario_missing_points(tmp_path):
    path = _write(tmp_path, "s.json", {"protocol": "VisitAllChirality"})
    with pytest.raises(ScenarioError, match="points"):
        load_scenario(path)


def test_scenario_bad_point_entry(tmp_path):
    path = _write(tmp_path, "s.json", {"points": [[0, 0], [1, "x"]]})
    with pytest.raises(ScenarioError, match=r"points\[1\]"):
        load_scenario(path)


def test_scenario_bad_json_position(tmp_path):
    path = _write(tmp_path, "s.json", '{\n  "points": [[0, 0],]\n}\n')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


def test_scenario_unknown_protocol(tmp_path):
    path = _write(tmp_path, "s.json",
                  {"points": [[0, 0], [1, 0]], "protocol": "Nope"})
    with pytest.raises(ScenarioError, match="protocol"):
        load_scenario(path)


def test_scenario_frames_length_mismatch(tmp_path):
    path = _write(tmp_path, "s.json",
                  {"points": [[0, 0], [1, 0]], "frames": [{"rotation": 0.0}]})
    with pytest.raises(ScenarioError, match="frames"):
        load_scenario(path)


def test_scenario_unknown_frame_key(tmp_path):
    path = _write(tmp_path, "s.json",
                  {"points": [[0, 0], [1, 0]],
                   "frames": [{"rotation": 0.0}, {"tilt": 1.0}]})
    with pytest.raises(ScenarioError, match="tilt"):
        load_scenario(path)


_TRIANGLE = '"points": [[0, 0], [1, 0], [0, 1]], "protocol": "VisitAllChirality"'
# the README's scenario: no mirror axis and no robot at the circle center
_FIVE = ('"points": [[0, 0], [3, 0], [1, 2], [-2, 1], [-1, -2]], '
         '"protocol": "VisitAllChirality"')
# one robot more than pairwise_distinct can keep 1e-3 apart in rotation
_OVER_DISTINCT = ('"points": [%s], "protocol": "VisitAllChirality"'
                  % ", ".join(f"[{i}, 0]" for i in range(3143)))


@pytest.mark.parametrize("scenario, argv, message", [
    ('{%s, "tolerance": NaN}' % _TRIANGLE, [], "tolerance"),
    ('{"points": [[0, 0], [1e400, 0], [0, 1]], "protocol": "VisitAllChirality"}', [],
     r"points\[1\]"),
    ('{%s, "frames": {"kind": "bogus"}}' % _TRIANGLE, [], "kind"),
    ('{%s, "frames": {"kind": "random", "seed": "x"}}' % _TRIANGLE, [], "seed"),
    ('{%s, "frames": [{"rotation": "x"}, {}, {}]}' % _TRIANGLE, [], "rotation"),
    ('{%s, "frames": [{}, {"scale": 0}, {}]}' % _TRIANGLE, [], "scale"),
    ('{%s, "frames": [{}, {}, {"scale": -2}]}' % _TRIANGLE, [], "scale"),
    ('{%s, "colour": "red"}' % _TRIANGLE, [], "colour"),
    ('{%s}' % _TRIANGLE, ["--rounds", "0"], "rounds"),
    ('{%s, "rounds": true}' % _TRIANGLE, [], "rounds"),
    ('{%s}' % _TRIANGLE, ["verify", "--k", "0"], "--k"),
    ('{%s, "frames": {"kind": "mirrored_pairs"}}' % _FIVE, ["--seed", "0"], "MirrorSymmetric"),
    ('{%s, "frames": {"kind": "rotated_quarter"}}' % _FIVE, ["--seed", "0"], "NotCentral"),
    ('{"points": [[0, 0], [1, 0]], "protocol": "VisitAllChirality"}', ["--seed", "0"],
     "needs at least 3"),
    ('{%s, "handedness": "cw"}' % _TRIANGLE, [], r"unknown keys \['handedness'\]"),
    pytest.param('{%s, "frames": {"kind": "pairwise_distinct"}}' % _OVER_DISTINCT,
                 ["--seed", "0"], "InvalidFrame: pairwise_distinct keeps at most 3142",
                 id="pairwise_distinct-3143-robots"),
])
def test_bad_input_exits_malformed(tmp_path, capsys, scenario, argv, message):
    path = _write(tmp_path, "s.json", scenario)
    if argv[:1] == ["verify"]:
        trace = str(tmp_path / "t.jsonl")
        assert main(["simulate", "--scenario", path, "--trace", trace]) == EXIT_OK
        capsys.readouterr()
        argv = ["verify", "--trace", trace, "--spec", "visit-all", *argv[1:]]
    else:
        if not argv:
            with pytest.raises(ScenarioError, match=message):
                load_scenario(path)
        argv = ["simulate", "--scenario", path, *argv]
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("error:") and message.replace("\\", "") in err
    assert "Traceback" not in err


def test_scenario_defaults(tmp_path):
    path = _write(tmp_path, "s.json", {"points": [[0, 0], [1, 0]]})
    scn = load_scenario(path)
    assert scn.rounds == 1
    assert scn.tolerance == 1e-9
    assert scn.protocol is None


def test_missing_scenario_file_is_malformed(capsys):
    assert main(["classify", "--scenario", "/nonexistent/s.json"]) == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err


# --- classify -------------------------------------------------------------

CENTERED_SQUARE = [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
RECTANGLE = [[2, 1], [-2, 1], [-2, -1], [2, -1]]
UNIQUE_EMPTY_AXIS = [[1, 1], [-1, 1], [2.5, 0.3], [-2.5, 0.3], [0.7, -1.9], [-0.7, -1.9]]


def test_classify_centered_square(tmp_path, capsys):
    path = _write(tmp_path, "s.json", {"points": CENTERED_SQUARE})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n=5" in out
    assert "central_robot=yes" in out
    assert "centered_symmetric_class=yes (residual order k=4)" in out
    assert "VisitAllChirality: infeasible" in out
    assert "OneBitVisitAll: feasible" in out


def test_classify_rectangle(tmp_path, capsys):
    path = _write(tmp_path, "s.json", {"points": RECTANGLE})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mirror_axes=2" in out
    assert "VisitAllNoChirality: infeasible" in out
    assert "MoveAllNoChirality: feasible" in out


def test_classify_tells_the_half_turn_from_the_rotational_order(tmp_path, capsys):
    """A 5-fold pinwheel maps onto itself by 144 degrees but not by the half
    turn; a non-square rectangle has the half turn and no other rotation."""
    angles = [(r, 2.0 * math.pi * j / 5 + turn) for r, turn in ((1.0, 0.0), (2.0, 0.4))
              for j in range(5)]
    pinwheel = [[r * math.cos(t), r * math.sin(t)] for r, t in angles]
    for pts, want in (
            (pinwheel, ["rotational_order=5", "mirror_axes=0", "centrally_symmetric=no"]),
            (RECTANGLE, ["rotational_order=2", "centrally_symmetric=yes"])):
        path = _write(tmp_path, "s.json", {"points": pts})
        assert main(["classify", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line in want] == want


def test_classify_unique_empty_axis(tmp_path, capsys):
    path = _write(tmp_path, "s.json", {"points": UNIQUE_EMPTY_AXIS})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mirror_axes=1" in out
    assert "unique_empty_axis=yes" in out
    assert "VisitAllNoChirality: feasible" in out


@pytest.mark.parametrize("pts, infeasible", [
    (CENTERED_SQUARE, 3), (RECTANGLE, 1), (UNIQUE_EMPTY_AXIS, 0)])
def test_classify_rows_match_simulate_errors(tmp_path, capsys, pts, infeasible):
    path = _write(tmp_path, "s.json", {"points": pts})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    rows = re.findall(r"^  (\w+): infeasible - (.*)$", capsys.readouterr().out, re.M)
    assert len(rows) == infeasible
    for pid, reason in rows:
        scn = _write(tmp_path, "s.json", {"points": pts, "protocol": pid})
        trace = str(tmp_path / "t.jsonl")
        assert main(["simulate", "--scenario", scn, "--trace", trace]) == EXIT_PROTOCOL_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(r"run stopped at round 1: (.*) \(robot \d+\)\n", err).group(1) == reason


def test_too_few_robots_rows_match_simulate_errors(tmp_path, capsys):
    """The protocol record's robot count agrees with run's admission check."""
    pts = [[0, 0], [1, 0]]
    path = _write(tmp_path, "s.json", {"points": pts})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    rows = re.findall(r"^  (\w+): infeasible - (.*)$", out, re.M)
    assert rows == [(pid, f"EmptyConfiguration: {pid} needs at least 3 robots")
                    for pid in PROTOCOL_IDS if pid != "MoveAllNoChirality"]
    assert "  MoveAllNoChirality: feasible\n" in out
    for pid, reason in rows:
        scn = _write(tmp_path, "s.json", {"points": pts, "protocol": pid})
        assert main(["simulate", "--scenario", scn]) == EXIT_MALFORMED
        assert capsys.readouterr().err == f"error: {reason}\n"


def test_huge_coordinates_classify_and_simulate(tmp_path, capsys):
    # the README set at 1e103: the enclosing circle's circumcenter, a
    # product of three coordinates, once overflowed to nan here
    pts = [[x * 1e103, y * 1e103] for x, y in ((0, 0), (3, 0), (1, 2), (-2, 1), (-1, -2))]
    path = _write(tmp_path, "s.json", {"points": pts, "protocol": "VisitAllChirality"})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    assert main(["simulate", "--scenario", path, "--trace", str(tmp_path / "t.jsonl")]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("pts", [
    [[0, 0], [1e308, 0], [-1e308, 0]],  # fsum of the radii overflows
    [[1e308, 0], [1.5e308, 0], [1e308, 1e308]],  # fsum of the xs overflows
    [[1.7e308, -9e307], [-1e308, 9e307], [9e307, -9e307], [-1e308, 0]],  # a non-finite Point
])
def test_classify_near_the_float_limit_exits_malformed(tmp_path, capsys, pts):
    path = _write(tmp_path, "s.json", {"points": pts})
    assert main(["classify", "--scenario", path]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: an intermediate of the analysis left the finite floats "
                        r"\((OverflowError|ValueError): [^\n]+\)\n", err)


def test_classify_lets_other_value_errors_through(tmp_path, monkeypatch):
    def broken(a, tol):
        raise ValueError("not about floats")
    monkeypatch.setattr("swarmperm.cli.symmetry_report", broken)
    path = _write(tmp_path, "s.json", {"points": [[0, 0], [1, 0], [0, 2]]})
    with pytest.raises(ValueError, match="not about floats"):
        main(["classify", "--scenario", path])


# --- simulate -------------------------------------------------------------

def test_simulate_near_the_float_limit_stops_without_traceback(tmp_path, capsys):
    path = _write(tmp_path, "s.json", {"points": [[1e308, 0], [1.5e308, 0], [1e308, 1e308]],
                                       "protocol": "OneBitVisitAll", "rounds": 3})
    assert main(["simulate", "--scenario", path]) == EXIT_PROTOCOL_ERROR
    err = capsys.readouterr().err
    assert re.fullmatch(r"run stopped at round 1: InvalidFrame: robot 2's compute left the "
                        r"finite floats: point coordinates must be finite, got [^\n]+\n", err)


def test_frames_that_leave_the_finite_floats_exit_malformed(tmp_path, capsys):
    # rotated_quarter looks for the center robot, and the enclosing circle's
    # circumcenter of these points leaves the finite floats: NonFinite is a
    # SwarmError, so the scenario is refused instead of escaping as a traceback
    pts = [[1.7e308, -9e307], [-1e308, 9e307], [9e307, -9e307], [-1e308, 0]]
    path = _write(tmp_path, "s.json", {"points": pts, "frames": {"kind": "rotated_quarter"},
                                       "protocol": "VotingVisitAll"})
    assert main(["simulate", "--scenario", path]) == EXIT_MALFORMED
    assert re.fullmatch(r"error: NonFinite: point coordinates must be finite, got [^\n]+\n",
                        capsys.readouterr().err)


def test_simulate_writes_trace(tmp_path, capsys):
    scn = _write(tmp_path, "s.json", SQUARE_SCN)
    out_path = tmp_path / "t.jsonl"
    assert main(["simulate", "--scenario", scn, "--trace", str(out_path)]) == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert len(lines) == 5  # round 0 plus 4 rounds
    assert json.loads(lines[0])["round"] == 0


def test_simulate_stdout_default(tmp_path, capsys):
    scn = _write(tmp_path, "s.json", SQUARE_SCN)
    assert main(["simulate", "--scenario", scn, "--rounds", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2


def test_simulate_failure_exits_2(tmp_path, capsys):
    scn = _write(tmp_path, "s.json",
                 {"points": [[0, 0], [1, 0], [-1, 0]],
                  "protocol": "VisitAllChirality", "rounds": 3})
    out_path = tmp_path / "t.jsonl"
    assert main(["simulate", "--scenario", scn,
                 "--trace", str(out_path)]) == EXIT_PROTOCOL_ERROR
    err = capsys.readouterr().err
    assert "NotOrderable" in err
    assert out_path.exists()  # the partial trace is still written


def test_simulate_explicit_frame_list(tmp_path, capsys):
    """A scenario's list of frames runs as the same frames built directly."""
    pts = [Point(0, 0), Point(3, 0), Point(1, 2)]
    scn = _write(tmp_path, "s.json", {
        "points": [[p.x, p.y] for p in pts], "protocol": "VisitAllNoChirality", "rounds": 3,
        "frames": [{}, {"rotation": 1.0, "mirror": True}, {"scale": 2}]})
    frames = [Frame(), Frame(1.0, True), Frame(scale=2.0)]
    assert scenario_frames(load_scenario(scn)) == frames
    assert main(["simulate", "--scenario", scn]) == EXIT_OK
    expected = run(pts, frames, make_protocol("VisitAllNoChirality"), 3)
    assert capsys.readouterr().out == serialize_trace(expected)


def test_simulate_requires_protocol(tmp_path, capsys):
    scn = _write(tmp_path, "s.json", {"points": [[0, 0], [1, 0], [0, 1]]})
    assert main(["simulate", "--scenario", scn]) == EXIT_MALFORMED


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """swarmperm in a child process, so a step that never ends fails the
    test on the timeout instead of hanging the suite."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "swarmperm.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("protocol, spec, rounds", [
    ("MoveAllNoChirality", "move-all", 4), ("VisitAllNoChirality", "visit-all", 18)])
def test_simulate_near_pairs_runs_as_classify_predicts(tmp_path, protocol, spec, rounds):
    """The rotation that maps the near-pairs set onto itself within eps takes
    two robots of a pair onto one; chirality agreement matches no robots, so
    the run goes as classify says."""
    path = _write(tmp_path, "s.json", {"points": NEAR_PAIRS, "protocol": protocol,
                                       "rounds": rounds})
    out = _cli("classify", "--scenario", path).stdout
    assert "  MoveAllNoChirality: feasible\n" in out
    assert "  VisitAllNoChirality: feasible\n" in out
    trace = str(tmp_path / "t.jsonl")
    proc = _cli("simulate", "--scenario", path, "--trace", trace)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    proc = _cli("verify", "--trace", trace, "--spec", spec, "--k", "1")
    assert proc.returncode == EXIT_OK
    verdict = json.loads(proc.stdout)
    assert (verdict["k"], verdict["pass"]) == (1, True)
    assert len(Path(trace).read_text().splitlines()) == rounds + 1


# --- verify ---------------------------------------------------------------

def _simulated(tmp_path, capsys, scn_obj, rounds=None):
    scn = _write(tmp_path, "s.json", scn_obj)
    out_path = tmp_path / "t.jsonl"
    argv = ["simulate", "--scenario", scn, "--trace", str(out_path)]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    code = main(argv)
    capsys.readouterr()
    return str(out_path), code


def test_verify_pass_and_fail(tmp_path, capsys):
    trace_path, code = _simulated(tmp_path, capsys, SQUARE_SCN)
    assert code == EXIT_OK
    assert main(["verify", "--trace", trace_path, "--spec", "visit-all"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True

    assert main(["verify", "--trace", trace_path, "--spec", "visit-all",
                 "--k", "2"]) == EXIT_SPEC_FAIL
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is False


def test_verify_prints_a_provisional_verdict(tmp_path, capsys):
    # 4 robots, 2 rounds: too short for the visiting cycle to close
    trace_path, code = _simulated(tmp_path, capsys, SQUARE_SCN, rounds=2)
    assert code == EXIT_OK
    assert main(["verify", "--trace", trace_path, "--spec", "visit-all"]) == EXIT_OK
    assert capsys.readouterr().out == ('{"spec":"VisitAll","k":1,"pass":true,'
                                       '"violation":null,"provisional":true}\n')


def test_verify_missing_trace(capsys):
    assert main(["verify", "--trace", "/nonexistent/t.jsonl",
                 "--spec", "move-all"]) == EXIT_MALFORMED


def test_verify_garbage_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("definitely not json\n")
    assert main(["verify", "--trace", str(path), "--spec", "move-all"]) == EXIT_MALFORMED


def _drop_round_2(lines):
    del lines[2]


def _relabel_round_3(lines):
    lines[3] = lines[3].replace('"round":3,', '"round":7,')


@pytest.mark.parametrize("edit, message", [
    (_drop_round_2, "trace line 3: round 3 where round 2 is due"),
    (_relabel_round_3, "trace line 4: round 7 where round 3 is due"),
])
def test_verify_rejects_rounds_out_of_sequence(tmp_path, capsys, edit, message):
    # a 5-round trace of the README scenario, one round dropped or relabelled
    trace_path, code = _simulated(tmp_path, capsys, json.loads("{%s}" % _FIVE), rounds=5)
    assert code == EXIT_OK
    lines = Path(trace_path).read_text().splitlines(keepends=True)
    edit(lines)
    Path(trace_path).write_text("".join(lines))
    assert main(["verify", "--trace", trace_path, "--spec", "visit-all"]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read trace {trace_path}: {message}")


@pytest.mark.parametrize("command", ["verify", "render"])
def test_trace_with_no_robots_exits_malformed(tmp_path, capsys, command):
    path = tmp_path / "t.jsonl"
    path.write_text('{"round":0,"positions":[],"bits":[],"moved":[]}\n'
                    '{"round":1,"positions":[],"bits":[],"moved":[]}\n')
    extra = ["--spec", "move-all"] if command == "verify" else ["--svg", str(tmp_path / "t.svg")]
    assert main([command, "--trace", str(path), *extra]) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"error: cannot read trace {path}: trace has no robots\n"


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- render ---------------------------------------------------------------

def test_render_produces_svg(tmp_path, capsys):
    trace_path, code = _simulated(tmp_path, capsys, SQUARE_SCN)
    svg_path = tmp_path / "out.svg"
    assert main(["render", "--trace", trace_path, "--svg", str(svg_path)]) == EXIT_OK
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("polyline") == 4  # one trajectory per robot
    assert tags.count("circle") >= 4


def _svg_numbers(root):
    """Every number in the SVG's attributes, by attribute name."""
    out = {}
    for el in root.iter():
        for name, value in el.attrib.items():
            if name in ("width", "height", "cx", "cy", "r"):
                out.setdefault(name, []).append(float(value))
            elif name in ("viewBox", "points"):
                out.setdefault(name, []).extend(float(v) for v in re.split(r"[ ,]", value))
    return out


def _rendered_numbers(tmp_path, trace_path):
    svg_path = tmp_path / "out.svg"
    assert main(["render", "--trace", trace_path, "--svg", str(svg_path)]) == EXIT_OK
    numbers = _svg_numbers(ET.fromstring(svg_path.read_text()))
    assert all(math.isfinite(v) for values in numbers.values() for v in values)
    return numbers


def test_render_stays_finite_near_the_float_limit(tmp_path, capsys):
    # the run stops at round 1, but the extent of its trace overflowed
    trace_path, code = _simulated(tmp_path, capsys, {
        "points": [[1e308, 0], [-1e308, 0], [0, 1e308]], "protocol": "VisitAllChirality"})
    assert code == EXIT_PROTOCOL_ERROR
    _rendered_numbers(tmp_path, trace_path)


def test_render_fills_the_width_with_tiny_coordinates(tmp_path, capsys):
    record = {"round": 0, "positions": [[1e-12, 0], [-1e-12, 0], [0, 1e-12]],
              "bits": [0, 0, 0], "moved": [False, False, False]}
    numbers = _rendered_numbers(tmp_path, _write(tmp_path, "t.jsonl", json.dumps(record)))
    assert max(numbers["cx"]) - min(numbers["cx"]) > 0.8 * numbers["width"][0]


# --- demos ----------------------------------------------------------------

DEMO_EXPECT = {
    ("thm2", False): "NotOrderable",
    ("thm2", True): "CollisionDetected",
    ("thm3", False): "restart violation",
    ("thm3", True): "restart violation",
    ("thm5", False): "NotOrderable",
    ("thm5", True): "CollisionDetected",
    ("thm9", False): "NotOrderable",
    ("thm9", True): "CollisionDetected",
}


@pytest.mark.parametrize("name,force", sorted(DEMO_EXPECT))
def test_demo_predicted_obstruction(name, force, capsys):
    argv = ["demo", name] + (["--force"] if force else [])
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "as predicted" in out
    assert DEMO_EXPECT[(name, force)] in out


@pytest.mark.parametrize("force", [False, True])
def test_demo_thm2_checks_the_views(force, capsys):
    assert main(["demo", "thm2"] + (["--force"] if force else [])) == EXIT_OK
    out = capsys.readouterr().out
    assert "every corner's view relabels corner 1's within eps: yes\n" in out
    assert "the center's view relabels it: no\n" in out


@pytest.mark.parametrize("force", [False, True])
def test_demo_thm2_fails_when_a_corner_view_differs(force, capsys, monkeypatch):
    def shifted(points, frames, i, visible=False):
        snap = to_local_snapshot(points, frames, i, visible)
        if i != 2:
            return snap
        return type(snap)(tuple(p * 1.5 for p in snap.local_points), i)

    monkeypatch.setattr("swarmperm.cli.to_local_snapshot", shifted)
    assert main(["demo", "thm2"] + (["--force"] if force else [])) == EXIT_SPEC_FAIL
    out = capsys.readouterr().out
    assert "every corner's view relabels corner 1's within eps: no\n" in out
    assert "as predicted" not in out


@pytest.mark.parametrize("name", ["thm2", "thm3", "thm5", "thm9"])
def test_demo_deterministic(name, capsys):
    main(["demo", name])
    first = capsys.readouterr().out
    main(["demo", name])
    assert capsys.readouterr().out == first
