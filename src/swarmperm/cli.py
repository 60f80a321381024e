"""Batch command-line front-end.

Subcommands: classify a configuration and report per-protocol
feasibility, simulate a scenario to a JSONL trace, verify a trace
against the k-round relocation contract, render a trace to SVG, and run
the built-in counterexample demos.  Exit codes: 0 pass, 1 contract
fail, 2 protocol error, 3 malformed input.
"""

from __future__ import annotations

import argparse
import colorsys
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .engine import (
    ADVERSARY_KINDS,
    RunTrace,
    adversary_frames,
    parse_trace,
    run,
    serialize_trace,
    to_local_snapshot,
)
from .errors import NonFinite, SwarmError
from .geometry import DEFAULT_TOL, Frame, Point, PointIndex, Tolerance, columns
from .protocols import (
    PROTOCOL_IDS,
    Protocol,
    make_protocol,
    one_bit_step,
)
from .symmetry import analyze, symmetry_report
from .verify import MOVE_ALL, VISIT_ALL, check_k_step_spec

EXIT_OK = 0
EXIT_SPEC_FAIL = 1
EXIT_PROTOCOL_ERROR = 2
EXIT_MALFORMED = 3
SVG_WIDTH = 640  # pixels; `render` scales the trace's extent to it


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    points: tuple[Point, ...]
    frames_spec: object
    protocol: str | None
    rounds: int
    tolerance: float


SCENARIO_KEYS = ("points", "protocol", "rounds", "tolerance", "frames")
FRAME_KEYS = ("rotation", "mirror", "scale")
ADVERSARY_KEYS = ("kind", "seed", "angle")


def _finite(v) -> float | None:
    """v as a finite float, or None when v is not a finite JSON number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        f = float(v)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


def _unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    extra = set(obj) - set(known)
    if extra:
        raise ScenarioError(f"{where}: unknown keys {sorted(extra)}")


def load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    _unknown_keys(obj, SCENARIO_KEYS, path)
    if "points" not in obj:
        raise ScenarioError("missing required field 'points'")
    raw_points = obj["points"]
    if not isinstance(raw_points, list) or len(raw_points) < 2:
        raise ScenarioError("field 'points': need a list of at least 2 [x, y] pairs")
    points = []
    for i, xy in enumerate(raw_points):
        if (not isinstance(xy, list) or len(xy) != 2
                or any(_finite(v) is None for v in xy)):
            raise ScenarioError(f"field 'points[{i}]': expected [x, y] finite numbers")
        points.append(Point(_finite(xy[0]), _finite(xy[1])))
    protocol = obj.get("protocol")
    if protocol is not None and protocol not in PROTOCOL_IDS:
        raise ScenarioError(
            f"field 'protocol': unknown id {protocol!r}, choose from {PROTOCOL_IDS}")
    rounds = obj.get("rounds", 1)
    if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
        raise ScenarioError("field 'rounds': need an integer >= 1")
    tolerance = _finite(obj.get("tolerance", 1e-9))
    if tolerance is None or tolerance <= 0:
        raise ScenarioError("field 'tolerance': need a positive finite number")
    frames_spec = obj.get("frames", {"kind": "identical", "seed": 0})
    if isinstance(frames_spec, dict):
        _unknown_keys(frames_spec, ADVERSARY_KEYS, "field 'frames'")
        if frames_spec.get("kind") not in ADVERSARY_KINDS:
            raise ScenarioError(
                f"field 'frames': adversary 'kind' must be one of {ADVERSARY_KINDS}")
        seed = frames_spec.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioError("field 'frames': 'seed' must be an integer")
        if _finite(frames_spec.get("angle", 0.0)) is None:
            raise ScenarioError("field 'frames': 'angle' must be a finite number")
    elif isinstance(frames_spec, list):
        if len(frames_spec) != len(points):
            raise ScenarioError(
                f"field 'frames': {len(frames_spec)} frames for {len(points)} points")
        for i, f in enumerate(frames_spec):
            if not isinstance(f, dict):
                raise ScenarioError(f"field 'frames[{i}]': expected an object")
            _unknown_keys(f, FRAME_KEYS, f"field 'frames[{i}]'")
            if _finite(f.get("rotation", 0.0)) is None:
                raise ScenarioError(f"field 'frames[{i}]': 'rotation' must be a finite number")
            scale = _finite(f.get("scale", 1.0))
            if scale is None or scale <= 0:
                raise ScenarioError(
                    f"field 'frames[{i}]': 'scale' must be a positive finite number")
            if not isinstance(f.get("mirror", False), bool):
                raise ScenarioError(f"field 'frames[{i}]': 'mirror' must be true or false")
    else:
        raise ScenarioError("field 'frames': expected an adversary object or a list")
    return Scenario(tuple(points), frames_spec, protocol, rounds, tolerance)


def scenario_frames(scn: Scenario, seed_override: int | None = None) -> list[Frame]:
    spec = scn.frames_spec
    if isinstance(spec, list):
        return [Frame(float(f.get("rotation", 0.0)), bool(f.get("mirror", False)),
                      float(f.get("scale", 1.0))) for f in spec]
    seed = seed_override if seed_override is not None else int(spec.get("seed", 0))
    return adversary_frames(spec["kind"], scn.points, seed,
                            float(spec.get("angle", 0.0)), Tolerance(scn.tolerance))


# --- classify -------------------------------------------------------------

def cmd_classify(args) -> int:
    scn = load_scenario(args.scenario)
    tol = Tolerance(scn.tolerance)
    try:
        a = symmetry_report(scn.points, tol)
        lines = [
            f"n={len(scn.points)}",
            f"symmetricity rho={a.rho}",
            f"rotational_order={a.rotational_order}",
            f"mirror_axes={len(a.mirror_axes)}",
            f"robots_on_each_axis={list(a.robot_counts_on_axes)}",
            f"central_robot={'yes' if a.has_central_robot else 'no'}",
            f"centrally_symmetric={'yes' if a.is_central_symmetric else 'no'}",
            f"centered_symmetric_class={'yes' if a.in_c_dot else 'no'}"
            + (f" (residual order k={a.k_without_center})" if a.in_c_dot else ""),
            f"axis_with_single_robot={'yes' if a.axis_with_single_robot else 'no'}",
            f"unique_empty_axis={'yes' if a.unique_axis_no_robots else 'no'}",
            "feasibility:",
        ]
        for pid in PROTOCOL_IDS:
            err = make_protocol(pid).refusal(a)
            lines.append(f"  {pid}: " + ("feasible" if err is None
                                         else f"infeasible - {type(err).__name__}: {err}"))
    except (OverflowError, NonFinite) as exc:
        kind = "OverflowError" if isinstance(exc, OverflowError) else "ValueError"
        raise ScenarioError(f"an intermediate of the analysis left the finite floats "
                            f"({kind}: {exc})") from exc
    except SwarmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print("\n".join(lines))
    return EXIT_OK


# --- simulate / verify / render ------------------------------------------

def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.protocol is None:
        raise ScenarioError("field 'protocol' is required to simulate")
    protocol = make_protocol(scn.protocol, Tolerance(scn.tolerance))
    rounds = args.rounds if args.rounds is not None else scn.rounds
    if rounds < 1:
        raise ScenarioError("--rounds must be >= 1")
    try:
        frames = scenario_frames(scn, args.seed)
        trace = run(scn.points, frames, protocol, rounds)
    except SwarmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    text = serialize_trace(trace)
    if args.trace:
        Path(args.trace).write_text(text)
    else:
        sys.stdout.write(text)
    if trace.failed:
        rec = trace.records[-1]
        print(f"run stopped at round {rec.round_index}: {rec.error}", file=sys.stderr)
        return EXIT_PROTOCOL_ERROR
    return EXIT_OK


def _load_trace(path: str) -> RunTrace:
    try:
        return parse_trace(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read trace {path}: {exc}") from exc


def cmd_verify(args) -> int:
    if args.k < 1:
        raise ScenarioError("--k must be >= 1")
    trace = _load_trace(args.trace)
    spec = MOVE_ALL if args.spec == "move-all" else VISIT_ALL
    verdict = check_k_step_spec(trace, spec, args.k, DEFAULT_TOL)
    print(verdict.to_json())
    return EXIT_OK if verdict.passed else EXIT_SPEC_FAIL


def render_svg(trace: RunTrace) -> str:
    configs = [columns(rec.positions) for rec in trace.records]
    # the viewport in units of a power of two near the largest |coordinate|:
    # that scaling is exact, and the extent cannot overflow at any scale
    k = math.frexp(max(abs(v) for cx, cy in configs for v in cx + cy))[1]
    xs = [math.ldexp(x, -k) for cx, _ in configs for x in cx]
    ys = [math.ldexp(y, -k) for _, cy in configs for y in cy]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny) or 1.0
    pad = 0.08 * span
    minx, maxx = minx - pad, maxx + pad
    miny, maxy = miny - pad, maxy + pad
    scale = SVG_WIDTH / (maxx - minx)
    height = (maxy - miny) * scale

    def sx(x: float) -> float:
        return (math.ldexp(x, -k) - minx) * scale

    def sy(y: float) -> float:
        return (maxy - math.ldexp(y, -k)) * scale

    n = len(configs[0][0])
    colors = []
    for i in range(n):
        r, g, b = colorsys.hsv_to_rgb(i / max(n, 1), 0.72, 0.82)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {SVG_WIDTH:.0f} {height:.0f}">',
           f'<rect width="{SVG_WIDTH:.0f}" height="{height:.0f}" fill="white"/>']
    marker = max(2.0, 0.006 * SVG_WIDTH)
    for i in range(n):
        path = " ".join(f"{sx(cx[i]):.2f},{sy(cy[i]):.2f}" for cx, cy in configs)
        out.append(f'<polyline points="{path}" fill="none" stroke="{colors[i]}" '
                   f'stroke-width="1.5"/>')
        for cx, cy in configs[1:]:
            out.append(f'<circle cx="{sx(cx[i]):.2f}" cy="{sy(cy[i]):.2f}" '
                       f'r="{marker:.2f}" fill="{colors[i]}"/>')
    for i, (x, y) in enumerate(zip(*configs[0])):
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
                   f'r="{2 * marker:.2f}" fill="{colors[i]}" stroke="black" '
                   f'stroke-width="1"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_render(args) -> int:
    trace = _load_trace(args.trace)
    Path(args.svg).write_text(render_svg(trace))
    print(f"wrote {args.svg}")
    return EXIT_OK


# --- demos ----------------------------------------------------------------

def _report(trace: RunTrace, predicted: str) -> int:
    """Print the run's last error; exit 0 when it starts with the predicted one."""
    rec = trace.records[-1]
    if rec.error is None:
        print("observed: clean run - NOT the predicted obstruction")
        return EXIT_SPEC_FAIL
    print(f"round {rec.round_index}: {rec.error}")
    name = rec.error.split(":", 1)[0]
    if rec.error.startswith(predicted):
        print(f"observed: {name} - as predicted")
        return EXIT_OK
    print(f"observed: {name} - NOT the predicted obstruction")
    return EXIT_SPEC_FAIL


def _refused(pts: list[Point], frames: list[Frame], protocol_id: str) -> int:
    """Run the protocol one round and check it refuses as its row predicts."""
    protocol = make_protocol(protocol_id)
    err = protocol.refusal(analyze(pts))
    predicted = "no refusal" if err is None else f"{type(err).__name__}: {err}"
    print(f"predicted obstruction ({protocol_id} row): {predicted}")
    return _report(run(pts, frames, protocol, 1), predicted)


def _demo_thm2(force: bool) -> int:
    pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
    frames = [Frame(0.0)] + [Frame(math.atan2(p.y, p.x)) for p in pts[1:]]
    print("demo thm2: occupied center of a square, each corner's frame rotated")
    print("so that the four corners see one local view, up to relabelling")
    views = [to_local_snapshot(pts, frames, i).local_points for i in range(len(pts))]
    index = PointIndex(views[1], DEFAULT_TOL)
    center, *corners = [index.matches((p.x, p.y) for p in view) for view in views]
    print(f"every corner's view relabels corner 1's within eps: {'yes' if all(corners) else 'no'}")
    print(f"the center's view relabels it: {'yes' if center else 'no'}")
    if center or not all(corners):
        print("observed: the views break the symmetry argument")
        return EXIT_SPEC_FAIL
    if not force:
        return _refused(pts, frames, "VisitAllChirality")
    print("guard disabled: every robot walks to the occupied center it sees")
    print("predicted obstruction: CollisionDetected (symmetric views, same target)")

    def claim_center(a, snap, bit):
        if a.in_c_dot:
            return a[a.center_index], bit
        return a[snap.own_index], bit

    trace = run(pts, frames, Protocol(name="claim-center", step=claim_center,
                                      min_robots=3), 1)
    return _report(trace, "CollisionDetected")


def _demo_thm3(force: bool) -> int:
    pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
    frames = adversary_frames("rotated_quarter", pts)
    print("demo thm3: square plus occupied center, every non-central frame")
    print("rotated a quarter turn; a memoryless two-round rule cannot tell")
    print("which round it is in, so successive centered rounds pick different")
    print("pivots and the restart property between rounds 1 and 3 breaks")
    if force:
        print("(--force has no effect: the memoryless attempt is already forced)")

    # the one-bit step with the bit guessed from the snapshot alone
    def bitless(a, snap, bit):
        return one_bit_step(a, snap, 0 if a.in_c_dot else 1)[0], bit

    print("predicted obstruction: round 3 is not a permutation of round 1")
    trace = run(pts, frames, Protocol(name="two-step-no-memory", step=bitless,
                                      min_robots=3), 3)
    if trace.failed:
        print(f"unexpected run failure: {trace.records[-1].error}")
        return EXIT_SPEC_FAIL
    verdict = check_k_step_spec(trace, VISIT_ALL, 2)
    print(verdict.to_json())
    if (not verdict.passed and verdict.first_violation is not None
            and verdict.first_violation[0] == 3
            and "not a permutation" in verdict.first_violation[1]):
        print("observed: restart violation at round 3 - as predicted")
        return EXIT_OK
    print("observed: verdict differs from the prediction")
    return EXIT_SPEC_FAIL


# Mirror-symmetric sets and the protocol whose row refuses each.  Forced, the
# chirality-based sweep under mirrored_pairs frames sends mirror twins to one target.
_MIRROR_DEMOS = {
    "thm5": ("seven robots on a circle, mirror-symmetric about the x axis,\n"
             "with exactly one robot on the axis",
             [Point(2 * math.cos(math.radians(d)), 2 * math.sin(math.radians(d)))
              for d in (0, 10, -10, 60, -60, 120, -120)],
             "MoveAllNoChirality"),
    "thm9": ("a rectangle, two symmetry axes, no robot on either",
             [Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1)],
             "VisitAllNoChirality"),
}


def _demo_mirror(name: str, force: bool) -> int:
    about, pts, protocol_id = _MIRROR_DEMOS[name]
    print(f"demo {name}: {about}")
    if not force:
        return _refused(pts, [Frame()] * len(pts), protocol_id)
    print("guard disabled: chirality-based sweep under mirrored frames")
    print("predicted obstruction: CollisionDetected (mirror twins, same target)")
    frames = adversary_frames("mirrored_pairs", pts)
    trace = run(pts, frames, make_protocol("VisitAllChirality"), 1)
    return _report(trace, "CollisionDetected")


DEMOS = {"thm2": _demo_thm2, "thm3": _demo_thm3,
         **{name: functools.partial(_demo_mirror, name) for name in _MIRROR_DEMOS}}


def cmd_demo(args) -> int:
    return DEMOS[args.name](args.force)


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmperm",
        description="simulate and verify permutation protocols for oblivious "
                    "robot swarms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symmetry and feasibility report")
    p.add_argument("--scenario", required=True, metavar="PATH")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("simulate", help="run a scenario to a JSONL trace")
    p.add_argument("--scenario", required=True, metavar="PATH")
    p.add_argument("--trace", metavar="PATH", help="output path (default stdout)")
    p.add_argument("--rounds", type=int, help="override the scenario round count")
    p.add_argument("--seed", type=int, help="override the adversary seed")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="check a trace against a relocation contract")
    p.add_argument("--trace", required=True, metavar="PATH")
    p.add_argument("--spec", required=True, choices=["move-all", "visit-all"])
    p.add_argument("--k", type=int, default=1, help="rounds per relocation step")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw trajectories to an SVG file")
    p.add_argument("--trace", required=True, metavar="PATH")
    p.add_argument("--svg", required=True, metavar="PATH")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("demo", help="run a built-in counterexample construction")
    p.add_argument("name", choices=sorted(DEMOS))
    p.add_argument("--force", action="store_true",
                   help="disable the feasibility guard and show the failure")
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
