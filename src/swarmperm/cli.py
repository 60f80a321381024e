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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .engine import (
    ADVERSARY_KINDS,
    Frame,
    RunTrace,
    adversary_frames,
    parse_trace,
    run,
    serialize_trace,
)
from .errors import SwarmError
from .geometry import CCW, CW, DEFAULT_TOL, Point, Tolerance
from .ordering import order_from_leader
from .protocols import (
    PROTOCOL_IDS,
    Protocol,
    compute_movement_central,
    make_protocol,
    reconstruct,
)
from .symmetry import classify, symmetry_report
from .verify import MOVE_ALL, VISIT_ALL, check_k_step_spec

EXIT_OK = 0
EXIT_SPEC_FAIL = 1
EXIT_PROTOCOL_ERROR = 2
EXIT_MALFORMED = 3


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    points: tuple[Point, ...]
    frames_spec: object
    protocol: str | None
    rounds: int
    tolerance: float
    handedness: str


SCENARIO_KEYS = ("points", "protocol", "rounds", "tolerance", "handedness", "frames")
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


def _field(obj: dict, name: str, default=None, required: bool = False):
    if name not in obj:
        if required:
            raise ScenarioError(f"missing required field {name!r}")
        return default
    return obj[name]


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
    raw_points = _field(obj, "points", required=True)
    if not isinstance(raw_points, list) or len(raw_points) < 2:
        raise ScenarioError("field 'points': need a list of at least 2 [x, y] pairs")
    points = []
    for i, xy in enumerate(raw_points):
        if (not isinstance(xy, list) or len(xy) != 2
                or any(_finite(v) is None for v in xy)):
            raise ScenarioError(f"field 'points[{i}]': expected [x, y] finite numbers")
        points.append(Point(_finite(xy[0]), _finite(xy[1])))
    protocol = _field(obj, "protocol")
    if protocol is not None and protocol not in PROTOCOL_IDS:
        raise ScenarioError(
            f"field 'protocol': unknown id {protocol!r}, choose from {PROTOCOL_IDS}")
    rounds = _field(obj, "rounds", 1)
    if not isinstance(rounds, int) or rounds < 1:
        raise ScenarioError("field 'rounds': need an integer >= 1")
    tolerance = _finite(_field(obj, "tolerance", 1e-9))
    if tolerance is None or tolerance <= 0:
        raise ScenarioError("field 'tolerance': need a positive finite number")
    handedness = _field(obj, "handedness", CCW)
    if handedness not in (CCW, CW):
        raise ScenarioError(f"field 'handedness': must be 'ccw' or 'cw', got {handedness!r}")
    frames_spec = _field(obj, "frames", {"kind": "identical", "seed": 0})
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
    return Scenario(tuple(points), frames_spec, protocol, rounds, tolerance, handedness)


def scenario_frames(scn: Scenario, seed_override: int | None = None) -> list[Frame]:
    spec = scn.frames_spec
    if isinstance(spec, list):
        return [Frame(float(f.get("rotation", 0.0)), bool(f.get("mirror", False)),
                      float(f.get("scale", 1.0))) for f in spec]
    seed = seed_override if seed_override is not None else int(spec.get("seed", 0))
    return adversary_frames(spec["kind"], scn.points, seed,
                            float(spec.get("angle", 0.0)), Tolerance(scn.tolerance))


# --- classify -------------------------------------------------------------

def feasibility_table(points: Sequence[Point], tol: Tolerance) -> list[tuple[str, bool, str]]:
    cls = classify(points, tol)
    n = len(points)
    blocked_centered = ("the centered symmetric class defeats every memoryless "
                        "one-shot rule (demo thm2)")
    out = []
    if n < 3:
        out.append(("VisitAllChirality", False, "needs at least 3 robots"))
    elif cls.in_c_dot:
        out.append(("VisitAllChirality", False, blocked_centered))
    else:
        out.append(("VisitAllChirality", True, "shared sweep order exists"))
    if cls.in_c_dot:
        out.append(("MoveAllNoChirality", False, blocked_centered))
    elif cls.axis_with_single_robot:
        out.append(("MoveAllNoChirality", False,
                    "a symmetry axis carries exactly one robot (demo thm5)"))
    else:
        out.append(("MoveAllNoChirality", True, "relocation rule exists"))
    if n < 3:
        out.append(("VisitAllNoChirality", False, "needs at least 3 robots"))
    elif cls.in_c_dot:
        out.append(("VisitAllNoChirality", False, blocked_centered))
    elif cls.axis_count == 0 or cls.unique_axis_no_robots:
        out.append(("VisitAllNoChirality", True,
                    "no axis, or a unique empty axis, leaves an agreed order"))
    else:
        out.append(("VisitAllNoChirality", False,
                    "multiple symmetry axes or an occupied unique axis (demo thm9)"))
    for name, why in (("VotingVisitAll", "frame-direction voting breaks any symmetry"),
                      ("OneBitVisitAll", "one bit of memory spans the two-round cadence")):
        if n < 3:
            out.append((name, False, "needs at least 3 robots"))
        else:
            out.append((name, True, why))
    return out


def cmd_classify(args) -> int:
    scn = load_scenario(args.scenario)
    tol = Tolerance(scn.tolerance)
    try:
        rep = symmetry_report(scn.points, tol)
        cls = classify(scn.points, tol)
    except SwarmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(f"n={len(scn.points)}")
    print(f"symmetricity rho={rep.rho}")
    print(f"rotational_order={rep.rotational_order}")
    print(f"mirror_axes={len(rep.mirror_axes)}")
    print(f"robots_on_each_axis={list(rep.robot_counts_on_axes)}")
    print(f"central_robot={'yes' if rep.has_central_robot else 'no'}")
    print(f"centrally_symmetric={'yes' if rep.is_central_symmetric else 'no'}")
    print(f"centered_symmetric_class={'yes' if cls.in_c_dot else 'no'}"
          + (f" (residual order k={cls.k_without_center})" if cls.in_c_dot else ""))
    print(f"axis_with_single_robot={'yes' if cls.axis_with_single_robot else 'no'}")
    print(f"unique_empty_axis={'yes' if cls.unique_axis_no_robots else 'no'}")
    print("feasibility:")
    for name, ok, why in feasibility_table(scn.points, tol):
        verdict = "feasible" if ok else "infeasible"
        print(f"  {name}: {verdict} - {why}")
    return EXIT_OK


# --- simulate / verify / render ------------------------------------------

def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.protocol is None:
        raise ScenarioError("field 'protocol' is required to simulate")
    tol = Tolerance(scn.tolerance)
    protocol = make_protocol(scn.protocol, scn.handedness, tol)
    frames = scenario_frames(scn, args.seed)
    rounds = args.rounds if args.rounds is not None else scn.rounds
    if rounds < 1:
        raise ScenarioError("--rounds must be >= 1")
    try:
        trace = run(scn.points, frames, protocol, rounds, tol)
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read trace {path}: {exc}") from exc
    return parse_trace(text)


def cmd_verify(args) -> int:
    try:
        trace = _load_trace(args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return EXIT_MALFORMED
    spec = MOVE_ALL if args.spec == "move-all" else VISIT_ALL
    verdict = check_k_step_spec(trace, spec, args.k, DEFAULT_TOL)
    print(verdict.to_json())
    return EXIT_OK if verdict.passed else EXIT_SPEC_FAIL


def render_svg(trace: RunTrace, width: int = 640) -> str:
    configs = trace.configurations()
    xs = [p.x for c in configs for p in c]
    ys = [p.y for c in configs for p in c]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-9)
    pad = 0.08 * span
    minx, maxx = minx - pad, maxx + pad
    miny, maxy = miny - pad, maxy + pad
    scale = width / (maxx - minx)
    height = (maxy - miny) * scale

    def sx(x: float) -> float:
        return (x - minx) * scale

    def sy(y: float) -> float:
        return (maxy - y) * scale

    n = len(configs[0])
    colors = []
    for i in range(n):
        r, g, b = colorsys.hsv_to_rgb(i / max(n, 1), 0.72, 0.82)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
           f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>']
    marker = max(2.0, 0.006 * width)
    for i in range(n):
        path = " ".join(f"{sx(c[i].x):.2f},{sy(c[i].y):.2f}" for c in configs)
        out.append(f'<polyline points="{path}" fill="none" stroke="{colors[i]}" '
                   f'stroke-width="1.5"/>')
        for c in configs[1:]:
            out.append(f'<circle cx="{sx(c[i].x):.2f}" cy="{sy(c[i].y):.2f}" '
                       f'r="{marker:.2f}" fill="{colors[i]}"/>')
    for i, p in enumerate(configs[0]):
        out.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" '
                   f'r="{2 * marker:.2f}" fill="{colors[i]}" stroke="black" '
                   f'stroke-width="1"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_render(args) -> int:
    try:
        trace = _load_trace(args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    Path(args.svg).write_text(render_svg(trace))
    print(f"wrote {args.svg}")
    return EXIT_OK


# --- demos ----------------------------------------------------------------

def _report(trace: RunTrace, predicted: str) -> int:
    rec = trace.records[-1]
    if rec.error is None:
        print("observed: clean run - NOT the predicted obstruction")
        return EXIT_SPEC_FAIL
    print(f"round {rec.round_index}: {rec.error}")
    name = rec.error.split(":", 1)[0]
    if name == predicted:
        print(f"observed: {name} - as predicted")
        return EXIT_OK
    print(f"observed: {name} - NOT the predicted obstruction")
    return EXIT_SPEC_FAIL


def _demo_thm2(force: bool) -> int:
    pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
    frames = [Frame(0.0)] + [Frame(math.atan2(p.y, p.x)) for p in pts[1:]]
    print("demo thm2: occupied center of a square, each corner's frame rotated")
    print("so that all four corners have byte-identical local views")
    if not force:
        print("predicted obstruction: NotOrderable (the shared-order guard refuses)")
        trace = run(pts, frames, make_protocol("VisitAllChirality"), 1)
        return _report(trace, "NotOrderable")
    print("guard disabled: every robot walks to the occupied center it sees")
    print("predicted obstruction: CollisionDetected (symmetric views, same target)")

    def claim_center(a, snap, bit, handedness, tol):
        if a.in_c_dot:
            return a[a.center_index]
        return a[snap.own_index]

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

    def bitless(a, snap, bit, handedness, tol):
        if a.in_c_dot:
            if snap.own_index == a.center_index:
                dest, _ = compute_movement_central(a, handedness, tol)
                return dest
            return a[snap.own_index]
        mark = reconstruct(a, handedness, tol)
        order = order_from_leader(mark.reconstructed, mark.pivot_index, tol)
        return mark.reconstructed[order.successor(snap.own_index)]

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


def _demo_thm5(force: bool) -> int:
    degs = (0, 10, -10, 60, -60, 120, -120)
    pts = [Point(2 * math.cos(math.radians(d)), 2 * math.sin(math.radians(d)))
           for d in degs]
    print("demo thm5: seven robots on a circle, mirror-symmetric about the")
    print("x axis, with exactly one robot on the axis")
    if not force:
        print("predicted obstruction: NotOrderable (single-robot axis refused)")
        trace = run(pts, [Frame()] * len(pts), make_protocol("MoveAllNoChirality"), 1)
        return _report(trace, "NotOrderable")
    print("guard disabled: chirality-based sweep under mirrored frames")
    print("predicted obstruction: CollisionDetected (mirror twins, same target)")
    frames = adversary_frames("mirrored_pairs", pts)
    trace = run(pts, frames, make_protocol("VisitAllChirality"), 1)
    return _report(trace, "CollisionDetected")


def _demo_thm9(force: bool) -> int:
    pts = [Point(2, 1), Point(-2, 1), Point(-2, -1), Point(2, -1)]
    print("demo thm9: a rectangle, two symmetry axes, no robot on either")
    if not force:
        print("predicted obstruction: NotOrderable (two axes leave no agreed order)")
        trace = run(pts, [Frame()] * 4, make_protocol("VisitAllNoChirality"), 1)
        return _report(trace, "NotOrderable")
    print("guard disabled: chirality-based sweep under mirrored frames")
    print("predicted obstruction: CollisionDetected (mirror twins, same target)")
    frames = adversary_frames("mirrored_pairs", pts)
    trace = run(pts, frames, make_protocol("VisitAllChirality"), 1)
    return _report(trace, "CollisionDetected")


DEMOS = {"thm2": _demo_thm2, "thm3": _demo_thm3, "thm5": _demo_thm5,
         "thm9": _demo_thm9}


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
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
