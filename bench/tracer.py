"""Span tracing for the traced benchmark run.

`Tracer.install` rebinds each public function listed in LAYERS, in every
`swarmperm.*` module namespace that binds it, and `Protocol.compute` on its
class, to a wrapper that records a span: name, start, end, parent span and
instance id.  Nothing under `src/` changes.  Spans stay in memory in flat
arrays until `write` saves them; `metrics` turns them into the per-layer
figures.  The runner installs the wrappers only around traced instances,
so untraced timings run the original functions.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

LAYERS = {
    "geometry": ("smallest_enclosing_circle", "concentric_decomposition"),
    "symmetry": ("classify", "symmetry_report", "rotational_order", "mirror_axes",
                 "center_robot_index", "robots_on_axis"),
    "ordering": ("order_with_chirality", "order_without_chirality", "agree_chirality",
                 "inner_polygon", "voting_elect", "order_from_leader"),
    "protocols": ("Protocol.compute", "select_pivot", "reconstruct",
                  "compute_movement_central", "compute_movement_not_central",
                  "decode_hop"),
    "engine": ("run", "fsync_round", "to_local_snapshot", "serialize_trace",
               "parse_trace"),
    "verify": ("check_k_step_spec", "extract_permutation", "visit_matrix"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
STATS = ("calls_per_step", "ms_per_call", "self_frac")

COMPUTE = "protocols.Protocol.compute"
# Waste ratios: calls whose input repeats an earlier one in the same compute.
REPEAT_TRACKED = ("symmetry.classify", "symmetry.rotational_order",
                  "symmetry.mirror_axes", "geometry.smallest_enclosing_circle")
# Fitted log(ms per call) against log(n).
GROWTH_TRACKED = ("symmetry.classify", "symmetry.symmetry_report")
INSTANCE = "instance"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{fn}.{stat}" for fn in FUNCTIONS for stat in STATS]
    names += [f"{layer}.{stat}" for layer in LAYERS for stat in ("self_frac", "errors")]
    names += [f"{fn}.repeat_frac" for fn in REPEAT_TRACKED]
    names += [f"{fn}.growth_exponent" for fn in GROWTH_TRACKED]
    return names


class Tracer:
    def __init__(self):
        self.names = [INSTANCE, *FUNCTIONS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.instance = array("l")
        self.size = array("l")  # len(points) for GROWTH_TRACKED spans, else -1
        self._stack: list[int] = []
        self._seen: list[dict] = []  # one input set per open compute span
        self._instance_id = -1
        self.errors: dict[str, int] = defaultdict(int)
        self._last_error: BaseException | None = None
        self.repeat_calls: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name_id: int, size: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.instance.append(self._instance_id)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _note_input(self, qualname: str, args: tuple, kwargs: dict) -> None:
        if not self._seen:
            return
        key = (tuple(args[0]), args[1:], tuple(sorted(kwargs.items())))
        seen = self._seen[-1].setdefault(qualname, set())
        self.repeat_calls[qualname] += 1
        if key in seen:
            self.repeats[qualname] += 1
        else:
            seen.add(key)

    def _wrap(self, qualname: str, fn):
        name_id = self.names.index(qualname)
        module = qualname.split(".", 1)[0]
        repeat = qualname in REPEAT_TRACKED
        sized = qualname in GROWTH_TRACKED
        compute = qualname == COMPUTE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if repeat:
                tracer._note_input(qualname, args, kwargs)
            if compute:
                tracer._seen.append({})
            idx = tracer._open(name_id, len(args[0]) if sized else -1)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not tracer._last_error:  # count where it was raised
                    tracer._last_error = exc
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._close(idx)
                if compute:
                    tracer._seen.pop()

        return traced

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        """Find every binding to wrap.  Call once, after importing swarmperm."""
        modules = [m for name, m in sys.modules.items()
                   if name == "swarmperm" or name.startswith("swarmperm.")]
        for qualname in FUNCTIONS:
            layer, fn_name = qualname.split(".", 1)
            home = sys.modules[f"swarmperm.{layer}"]
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig, self._wrap(qualname, orig)))
                continue
            orig = getattr(home, fn_name)
            wrapped = self._wrap(qualname, orig)
            for m in modules:
                if m.__dict__.get(fn_name) is orig:
                    self._patches.append((m, fn_name, orig, wrapped))

    def _bind(self, traced: bool) -> None:
        for owner, attr, orig, wrapped in self._patches:
            setattr(owner, attr, wrapped if traced else orig)

    def traced_call(self, instance_id: int, fn):
        """Run fn() with the wrappers bound, inside one instance span.
        Returns (result, seconds)."""
        self._instance_id = instance_id
        self._bind(True)
        idx = self._open(0, -1)
        try:
            result = fn()
        finally:
            self._close(idx)
            self._bind(False)
        return result, self.end[idx] - self.start[idx]

    # --- reporting ---------------------------------------------------------

    def metrics(self, robot_steps: int, families: dict[int, str]) -> dict[str, float]:
        """Per-layer metrics.  `families` maps each instance id to the family
        of its input, so that growth in n is fitted within a family."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        sized: dict[int, dict[tuple, list[float]]] = defaultdict(lambda: defaultdict(list))
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            incl[nid] += dur[i]
            own[nid] += dur[i] - child[i]
            if self.size[i] >= 0:
                key = (families[self.instance[i]], self.size[i])
                sized[nid][key].append(dur[i] * 1e3)
        traced_s = incl[0]
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for qualname in FUNCTIONS:
            nid = self.names.index(qualname)
            layer_self[qualname.split(".", 1)[0]] += own[nid]
            out[f"{qualname}.calls_per_step"] = calls[nid] / robot_steps if robot_steps else 0.0
            out[f"{qualname}.ms_per_call"] = incl[nid] * 1e3 / calls[nid] if calls[nid] else 0.0
            out[f"{qualname}.self_frac"] = own[nid] / traced_s if traced_s else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = layer_self[layer] / traced_s if traced_s else 0.0
            out[f"{layer}.errors"] = self.errors[layer]
        for qualname in REPEAT_TRACKED:
            tried = self.repeat_calls[qualname]
            out[f"{qualname}.repeat_frac"] = self.repeats[qualname] / tried if tried else 0.0
        for qualname in GROWTH_TRACKED:
            by_size = sized[self.names.index(qualname)]
            out[f"{qualname}.growth_exponent"] = _loglog_slope(
                {key: statistics.median(ms) for key, ms in by_size.items()})
        return out

    def write(self, path_stem: str) -> None:
        """Save the spans: `<stem>.json` describes `<stem>.bin`, which holds
        the arrays one after another, each `count` items long."""
        fields = ("start", "end", "parent", "name", "instance", "size")
        header = {"count": len(self.start), "names": self.names,
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path_stem + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh)


def _loglog_slope(points: dict[tuple[str, int], float]) -> float:
    """Least-squares slope of log(y) against log(n) with one intercept per
    family: each family's points are centred on their own means first.
    0 when no family has two sizes."""
    by_family: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for (family, n), y in points.items():
        by_family[family].append((math.log(n), math.log(y)))
    sxx = sxy = 0.0
    for pts in by_family.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0
