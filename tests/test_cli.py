import json
import xml.etree.ElementTree as ET

import pytest

from swarmperm.cli import (
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PROTOCOL_ERROR,
    EXIT_SPEC_FAIL,
    ScenarioError,
    load_scenario,
    main,
)


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
    ('{%s}' % _TRIANGLE, ["verify", "--k", "0"], "--k"),
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
    assert scn.handedness == "ccw"
    assert scn.protocol is None


def test_missing_scenario_file_is_malformed(capsys):
    assert main(["classify", "--scenario", "/nonexistent/s.json"]) == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err


# --- classify -------------------------------------------------------------

def test_classify_centered_square(tmp_path, capsys):
    path = _write(tmp_path, "s.json",
                  {"points": [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n=5" in out
    assert "central_robot=yes" in out
    assert "centered_symmetric_class=yes (residual order k=4)" in out
    assert "VisitAllChirality: infeasible" in out
    assert "OneBitVisitAll: feasible" in out


def test_classify_rectangle(tmp_path, capsys):
    path = _write(tmp_path, "s.json",
                  {"points": [[2, 1], [-2, 1], [-2, -1], [2, -1]]})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mirror_axes=2" in out
    assert "VisitAllNoChirality: infeasible" in out
    assert "MoveAllNoChirality: feasible" in out


def test_classify_unique_empty_axis(tmp_path, capsys):
    pts = [[1, 1], [-1, 1], [2.5, 0.3], [-2.5, 0.3], [0.7, -1.9], [-0.7, -1.9]]
    path = _write(tmp_path, "s.json", {"points": pts})
    assert main(["classify", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mirror_axes=1" in out
    assert "unique_empty_axis=yes" in out
    assert "VisitAllNoChirality: feasible" in out


# --- simulate -------------------------------------------------------------

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


def test_simulate_requires_protocol(tmp_path, capsys):
    scn = _write(tmp_path, "s.json", {"points": [[0, 0], [1, 0], [0, 1]]})
    assert main(["simulate", "--scenario", scn]) == EXIT_MALFORMED


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


def test_verify_missing_trace(capsys):
    assert main(["verify", "--trace", "/nonexistent/t.jsonl",
                 "--spec", "move-all"]) == EXIT_MALFORMED


def test_verify_garbage_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("definitely not json\n")
    assert main(["verify", "--trace", str(path), "--spec", "move-all"]) == EXIT_MALFORMED


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


@pytest.mark.parametrize("name", ["thm2", "thm3", "thm5", "thm9"])
def test_demo_deterministic(name, capsys):
    main(["demo", name])
    first = capsys.readouterr().out
    main(["demo", name])
    assert capsys.readouterr().out == first
