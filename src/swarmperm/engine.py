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
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CollisionDetected,
    DuplicatePoints,
    EmptyConfiguration,
    InvalidFrame,
    MirrorSymmetric,
    NonFinite,
    NotCentral,
    SwarmError,
)
from .geometry import (DEFAULT_TOL, Frame, Point, Points, Tolerance, as_points, columns,
                       first_coincident_pair)
from .protocols import Protocol
from .symmetry import center_robot_index, mirror_axes


IDENTITY_FRAME = Frame()


@dataclass(frozen=True)
class Snapshot:
    """What one robot sees: every position in its own frame (itself at
    the origin), and optionally every robot's +x direction.  From
    `to_local_snapshot` the positions are a `Points`, whose coordinate
    columns the protocols read, any sequence of Points otherwise."""

    local_points: Sequence[Point]
    own_index: int
    visible_frames: tuple[Point, ...] | None = None


@dataclass(frozen=True)
class RoundRecord:
    """One round.  `run` and `parse_trace` give `positions` as a `Points`,
    whose columns the serializer and verifier read, as from any Points."""

    round_index: int
    positions: Sequence[Point]
    bits: tuple[int, ...]
    moved: tuple[bool, ...]
    error: str | None = None


@dataclass(frozen=True)
class RunTrace:
    records: tuple[RoundRecord, ...]

    @property
    def failed(self) -> bool:
        return self.records[-1].error is not None


def to_local_snapshot(points: Sequence[Point], frames: Sequence[Frame], i: int,
                      visible: bool = False) -> Snapshot:
    if len(frames) != len(points):
        raise InvalidFrame(f"{len(frames)} frames for {len(points)} robots")
    f = frames[i]
    try:
        local = f.to_local(points, points[i])
        dirs = None
        if visible:
            # each robot's unit x-direction, turned into this robot's frame
            dirs = tuple(d.unit() for d in f.to_local([g.x_dir for g in frames]))
    except NonFinite as exc:
        raise InvalidFrame(f"robot {i}'s frame (scale {f.scale:g}) cannot hold the "
                           f"configuration: {exc}") from exc
    return Snapshot(local, i, dirs)


def fsync_round(points: Sequence[Point], frames: Sequence[Frame], protocol: Protocol,
                bits: Sequence[int]):
    """One synchronous cycle.  All destinations are computed from the
    round-start snapshots, then applied together; a shared destination is
    a collision and the round does not commit."""
    tol = protocol.tol
    points = as_points(points)  # the round's coordinates, read once for every snapshot
    new_bits: list[int] = []
    dests_local: list[Point] = []
    for i in range(len(points)):
        snap = to_local_snapshot(points, frames, i, protocol.needs_visible_frames)
        try:
            dest, bit = protocol.compute(snap, bits[i])
        except (OverflowError, NonFinite) as exc:
            raise InvalidFrame(f"robot {i}'s compute left the finite floats: {exc}") from exc
        except SwarmError as exc:
            raise type(exc)(f"{exc} (robot {i})") from exc
        dests_local.append(dest)
        new_bits.append(int(bit))
    try:
        new = as_points(f.to_global((d,), p)[0] for d, f, p in zip(dests_local, frames, points))
    except NonFinite as exc:
        raise InvalidFrame(f"a destination does not map back to the global frame: "
                           f"{exc}") from exc
    if (hit := first_coincident_pair(new, tol)) is not None:
        i, j = hit
        raise CollisionDetected(f"robots {i} and {j} share the destination "
                                f"({new.xs[i]:.6g}, {new.ys[i]:.6g})", hit)
    eps = tol.eps
    moved = tuple(math.hypot(x - u, y - v) > eps
                  for x, y, u, v in zip(points.xs, points.ys, new.xs, new.ys))
    return new, tuple(new_bits), moved


def run(c0: Sequence[Point], frames: Sequence[Frame], protocol: Protocol,
        rounds: int) -> RunTrace:
    """Iterate fsync_round.  A failing round embeds its error in the
    trace (positions unchanged) and stops; nothing escapes."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    points = as_points(c0)
    n = len(points)
    if n < 2:
        raise EmptyConfiguration("a configuration needs at least 2 robots")
    if (hit := first_coincident_pair(points, protocol.tol)) is not None:
        raise DuplicatePoints(f"robots {hit[0]} and {hit[1]} share a position")
    if len(frames) != n:
        raise InvalidFrame(f"{len(frames)} frames for {n} robots")
    if n < protocol.min_robots:
        raise EmptyConfiguration(f"{protocol.name} needs at least {protocol.min_robots} robots")
    bits = tuple(0 for _ in range(n))
    quiet = tuple(False for _ in range(n))
    records = [RoundRecord(0, points, bits, quiet, None)]
    for r in range(1, rounds + 1):
        try:
            points_next, bits_next, moved = fsync_round(points, frames, protocol, bits)
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
# pairwise_distinct draws rotations in [0, 2*pi) until it has n that are
# more than _MIN_ROTATION_GAP apart.  The draw stalls only when no gap, the
# two ends included, has room left, and by then it holds at least
# pi / _MIN_ROTATION_GAP rotations; so it always ends for up to
# _MAX_DISTINCT_FRAMES robots.
_MIN_ROTATION_GAP = 1e-3
_MAX_DISTINCT_FRAMES = int(math.pi / _MIN_ROTATION_GAP) + 1


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
        if n > _MAX_DISTINCT_FRAMES:
            raise InvalidFrame(f"pairwise_distinct keeps at most {_MAX_DISTINCT_FRAMES} "
                               f"rotations {_MIN_ROTATION_GAP} apart, got {n} robots")
        rng = random.Random(seed)
        angles: list[float] = []
        ranked: list[float] = []  # the accepted angles, sorted
        while len(angles) < n:
            a = rng.uniform(0.0, 2.0 * math.pi)
            # rounding a difference is monotone, so the nearest accepted
            # angles on either side are the only ones that can be too close
            k = bisect_left(ranked, a)
            if all(abs(a - b) > _MIN_ROTATION_GAP for b in ranked[max(k - 1, 0):k + 1]):
                ranked.insert(k, a)
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
    pos = "[" + ",".join(f"[{_g17(x)},{_g17(y)}]" for x, y in zip(*columns(rec.positions))) + "]"
    bits = "[" + ",".join(str(int(b)) for b in rec.bits) + "]"
    moved = "[" + ",".join("true" if m else "false" for m in rec.moved) + "]"
    line = (f'{{"round":{rec.round_index},"positions":{pos},'
            f'"bits":{bits},"moved":{moved}')
    if rec.error is not None:
        line += f',"error":{json.dumps(rec.error)}'
    return line + "}"


def serialize_trace(trace: RunTrace) -> str:
    return "".join(record_to_json(rec) + "\n" for rec in trace.records)


_NUMBERS = {int, float}
_NEGATIVE_ZERO = re.compile(r"-0(?![\d.eE])")  # the number -0, which json reads as the int 0


def _pair_columns(pairs) -> tuple[list[float], list[float]]:
    """The columns of pairs of finite JSON numbers: one type test per column and one
    finiteness check of their sums, and only if either fails, or a pair is not
    two values, a check of each pair in turn, which names the first bad one."""
    try:
        xs, ys = zip(*pairs, strict=True)
        if set(map(type, xs)) | set(map(type, ys)) <= _NUMBERS:
            xs, ys = list(map(float, xs)), list(map(float, ys))
            if math.isfinite(sum(xs) + sum(ys)):
                return xs, ys
    except (TypeError, ValueError, OverflowError):
        pass
    for x, y in pairs:
        if bad := [v for v in (x, y) if type(v) not in _NUMBERS]:
            raise TypeError(f"coordinate {bad[0]!r} is not a JSON number")
        Point(float(x), float(y))
    return [float(x) for x, _ in pairs], [float(y) for _, y in pairs]


def parse_trace(text: str) -> RunTrace:
    """A trace as `serialize_trace` writes it, each round's positions a
    `Points`.  A record holds an integer round, pairs of JSON numbers (not
    booleans), bits 0 or 1, boolean moved flags and a string error or none."""
    records = []
    for lineno, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno + 1}: invalid JSON ({exc})") from exc
        try:
            xs, ys = _pair_columns(obj["positions"])
            if (0.0 in xs or 0.0 in ys) and _NEGATIVE_ZERO.search(line):
                xs, ys = _pair_columns(json.loads(line, parse_int=float)["positions"])
            positions = Points(xs, ys)
            round_index, bits, moved = obj["round"], tuple(obj["bits"]), tuple(obj["moved"])
            error = obj.get("error")
            if type(round_index) is not int:
                raise TypeError(f"round {round_index!r} is not an integer")
            if not (set(map(type, bits)) <= {int} and set(bits) <= {0, 1}):
                bad = next(b for b in bits if type(b) is not int or b not in (0, 1))
                raise TypeError(f"bit {bad!r} is not 0 or 1")
            if not set(map(type, moved)) <= {bool}:
                bad = next(m for m in moved if type(m) is not bool)
                raise TypeError(f"moved flag {bad!r} is not a boolean")
            if not (error is None or type(error) is str):
                raise TypeError(f"error {error!r} is not a string")
            rec = RoundRecord(round_index, positions, bits, moved, error)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"trace line {lineno + 1}: bad record ({exc})") from exc
        if not (len(rec.positions) == len(rec.bits) == len(rec.moved)):
            raise ValueError(f"trace line {lineno + 1}: mismatched lengths")
        if rec.round_index != len(records):
            raise ValueError(f"trace line {lineno + 1}: round {rec.round_index} where "
                             f"round {len(records)} is due")
        records.append(rec)
    if not records:
        raise ValueError("trace is empty")
    sizes = {len(r.positions) for r in records}
    if len(sizes) != 1:
        raise ValueError("trace mixes robot counts")
    if sizes == {0}:
        raise ValueError("trace has no robots")
    return RunTrace(tuple(records))
