"""Fully-synchronous scheduler.

Every round, each robot receives a snapshot of all positions expressed in
its own coordinate frame, computes a destination, and all destinations
are applied at once.  Frames are fixed for the whole run; the adversary
chooses them up front.  Traces record the configuration after every
round and serialize to JSONL with enough digits for bit-exact replay.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CollisionDetected,
    DuplicatePoints,
    EmptyConfiguration,
    InvalidFrame,
    MirrorSymmetric,
    NotCentral,
    SwarmError,
)
from .geometry import (DEFAULT_TOL, Point, Tolerance, first_coincident_pair,
                       inverse_transform, transform)
from .protocols import Protocol
from .symmetry import center_robot_index, mirror_axes


@dataclass(frozen=True)
class Frame:
    """A robot's private coordinate system: rotation of its +x axis,
    optional reflection, and unit length, all relative to the global
    frame.  The origin is always the robot's own position."""

    rotation: float = 0.0
    mirror: bool = False
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rotation) and math.isfinite(self.scale)):
            raise InvalidFrame("frame parameters must be finite")
        if self.scale <= 0:
            raise InvalidFrame(f"frame scale must be positive, got {self.scale}")


IDENTITY_FRAME = Frame()


@dataclass(frozen=True)
class Configuration:
    points: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise EmptyConfiguration("a configuration needs at least 2 robots")

    def __len__(self) -> int:
        return len(self.points)

    def validate_distinct(self, tol: Tolerance = DEFAULT_TOL) -> None:
        if (hit := first_coincident_pair(self.points, tol)) is not None:
            raise DuplicatePoints(f"robots {hit[0]} and {hit[1]} share a position")


@dataclass(frozen=True)
class Snapshot:
    """What one robot sees: every position in its own frame (itself at
    the origin), and optionally every robot's +x direction."""

    local_points: tuple[Point, ...]
    own_index: int
    visible_frames: tuple[Point, ...] | None = None


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    positions: tuple[Point, ...]
    bits: tuple[int, ...]
    moved: tuple[bool, ...]
    error: str | None = None


@dataclass(frozen=True)
class RunTrace:
    records: tuple[RoundRecord, ...]

    @property
    def n(self) -> int:
        return len(self.records[0].positions)

    @property
    def failed(self) -> bool:
        return self.records[-1].error is not None

    def configurations(self) -> list[tuple[Point, ...]]:
        return [rec.positions for rec in self.records]


def to_local_snapshot(points: Sequence[Point], frames: Sequence[Frame], i: int,
                      visible: bool = False) -> Snapshot:
    if len(frames) != len(points):
        raise InvalidFrame(f"{len(frames)} frames for {len(points)} robots")
    f = frames[i]
    origin = points[i]
    local = tuple(inverse_transform(p, f.rotation, f.mirror, f.scale, origin)
                  for p in points)
    dirs = None
    if visible:
        axis_dirs = []
        for g in frames:
            tip = origin + Point(math.cos(g.rotation), math.sin(g.rotation))
            axis_dirs.append(inverse_transform(tip, f.rotation, f.mirror, f.scale,
                                               origin).unit())
        dirs = tuple(axis_dirs)
    return Snapshot(local, i, dirs)


def fsync_round(points: Sequence[Point], frames: Sequence[Frame], protocol: Protocol,
                bits: Sequence[int], tol: Tolerance = DEFAULT_TOL):
    """One synchronous cycle.  All destinations are computed from the
    round-start snapshots, then applied together; a shared destination is
    a collision and the round does not commit."""
    n = len(points)
    new_bits = list(bits)
    dests_local: list[Point] = []
    for i in range(n):
        snap = to_local_snapshot(points, frames, i, protocol.needs_visible_frames)
        try:
            if protocol.needs_memory:
                dest, nb = protocol.compute(snap, bits[i])
                new_bits[i] = int(nb)
            else:
                dest = protocol.compute(snap)
        except SwarmError as exc:
            raise type(exc)(f"{exc} (robot {i})") from exc
        dests_local.append(dest)
    new_points = tuple(
        transform(d, frames[i].rotation, frames[i].mirror, frames[i].scale, points[i])
        for i, d in enumerate(dests_local))
    if (hit := first_coincident_pair(new_points, tol)) is not None:
        i, j = hit
        raise CollisionDetected(f"robots {i} and {j} share the destination "
                                f"({new_points[i].x:.6g}, {new_points[i].y:.6g})", hit)
    moved = tuple(not tol.same_point(p, q) for p, q in zip(points, new_points))
    return new_points, tuple(new_bits), moved


def run(c0, frames: Sequence[Frame], protocol: Protocol, rounds: int,
        tol: Tolerance = DEFAULT_TOL) -> RunTrace:
    """Iterate fsync_round.  A failing round embeds its error in the
    trace (positions unchanged) and stops; nothing escapes."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    config = c0 if isinstance(c0, Configuration) else Configuration(tuple(c0))
    config.validate_distinct(tol)
    points = config.points
    n = len(points)
    if len(frames) != n:
        raise InvalidFrame(f"{len(frames)} frames for {n} robots")
    if n < protocol.min_robots:
        raise ValueError(f"{protocol.name} needs at least {protocol.min_robots} robots")
    bits = tuple(0 for _ in range(n))
    quiet = tuple(False for _ in range(n))
    records = [RoundRecord(0, points, bits, quiet, None)]
    for r in range(1, rounds + 1):
        try:
            points_next, bits_next, moved = fsync_round(points, frames, protocol,
                                                        bits, tol)
        except SwarmError as exc:
            records.append(RoundRecord(r, points, bits, quiet,
                                       f"{type(exc).__name__}: {exc}"))
            break
        points, bits = points_next, bits_next
        records.append(RoundRecord(r, points, bits, moved, None))
    return RunTrace(tuple(records))


# --- adversarial frame generation ----------------------------------------

ADVERSARY_KINDS = ("identical", "rotated_quarter", "pairwise_distinct",
                   "mirrored_pairs", "random")


def adversary_frames(kind: str, points: Sequence[Point], seed: int = 0,
                     angle: float = 0.0,
                     tol: Tolerance = DEFAULT_TOL) -> list[Frame]:
    """Deterministic frame assignments used to attack protocols.

    identical: one shared frame.  rotated_quarter: every non-central
    robot turned a quarter turn past the central one.  pairwise_distinct:
    seeded, all rotations different.  mirrored_pairs: robots reflected
    across a mirror axis of the configuration get reflected frames, so
    twins see mirror-image worlds.  random: seeded free-for-all.
    """
    n = len(points)
    if kind == "identical":
        return [Frame(angle, False, 1.0) for _ in range(n)]
    if kind == "rotated_quarter":
        ci = center_robot_index(points, tol)
        if ci is None:
            raise NotCentral("rotated_quarter needs a robot at the circle center")
        return [Frame(angle, False, 1.0) if i == ci
                else Frame(angle + math.pi / 2.0, False, 1.0) for i in range(n)]
    if kind == "pairwise_distinct":
        rng = random.Random(seed)
        angles: list[float] = []
        while len(angles) < n:
            a = rng.uniform(0.0, 2.0 * math.pi)
            if all(abs(a - b) > 1e-3 for b in angles):
                angles.append(a)
        return [Frame(a, False, 1.0) for a in angles]
    if kind == "mirrored_pairs":
        axes = mirror_axes(points, tol)
        if not axes:
            raise MirrorSymmetric("mirrored_pairs needs a configuration with a mirror axis")
        ax = axes[0]
        alpha = ax.angle
        d = ax.direction
        frames = []
        for p in points:
            side = d.cross(p - ax.point)
            frames.append(Frame(alpha, side < -tol.eps, 1.0))
        return frames
    if kind == "random":
        rng = random.Random(seed)
        return [Frame(rng.uniform(0.0, 2.0 * math.pi), rng.random() < 0.5,
                      rng.uniform(0.5, 2.0)) for _ in range(n)]
    raise ValueError(f"unknown adversary kind {kind!r}; choose from {ADVERSARY_KINDS}")


# --- trace serialization --------------------------------------------------

def _g17(v: float) -> str:
    return format(v, ".17g")


def record_to_json(rec: RoundRecord) -> str:
    pos = "[" + ",".join(f"[{_g17(p.x)},{_g17(p.y)}]" for p in rec.positions) + "]"
    bits = "[" + ",".join(str(int(b)) for b in rec.bits) + "]"
    moved = "[" + ",".join("true" if m else "false" for m in rec.moved) + "]"
    line = (f'{{"round":{rec.round_index},"positions":{pos},'
            f'"bits":{bits},"moved":{moved}')
    if rec.error is not None:
        line += f',"error":{json.dumps(rec.error)}'
    return line + "}"


def serialize_trace(trace: RunTrace) -> str:
    return "".join(record_to_json(rec) + "\n" for rec in trace.records)


def parse_trace(text: str) -> RunTrace:
    records = []
    for lineno, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno + 1}: invalid JSON ({exc})") from exc
        try:
            positions = tuple(Point(float(x), float(y)) for x, y in obj["positions"])
            rec = RoundRecord(int(obj["round"]), positions,
                              tuple(int(b) for b in obj["bits"]),
                              tuple(bool(m) for m in obj["moved"]),
                              obj.get("error"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"trace line {lineno + 1}: bad record ({exc})") from exc
        if not (len(rec.positions) == len(rec.bits) == len(rec.moved)):
            raise ValueError(f"trace line {lineno + 1}: mismatched lengths")
        records.append(rec)
    if not records:
        raise ValueError("trace is empty")
    sizes = {len(r.positions) for r in records}
    if len(sizes) != 1:
        raise ValueError("trace mixes robot counts")
    return RunTrace(tuple(records))
