"""swarmperm benchmark runner.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A closed loop with one client, in one process: each instance starts after
the previous one has finished.  The runner imports swarmperm from `src/`
of the checkout that holds this file, builds seeded inputs, repeats whole
workload cycles until S seconds have passed, checks every output, and
prints the metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every instance
twice, once plain and once with span tracing, and reports the per-layer
metrics of the traced copies plus the tracing overhead.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3
GOLDEN_SEED = 0

# On a shared host the speed of a process drifts with other tenants' load
# (by about 20 % over tens of seconds on a shared 2-core Xeon VM), and no
# averaging inside one run removes that.  So every end-to-end time is taken
# at a fixed reference speed: a pure-Python loop that touches no swarmperm
# code runs right before and after each timed interval, and the interval is
# scaled by REF_NOMINAL_S over the mean of those two loop times.  A change
# to swarmperm leaves the loop alone, so the scaling removes only host speed.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.002  # the loop's time on an idle 2-core Xeon at 2.0 GHz


def import_swarmperm() -> float:
    """Import swarmperm from this checkout's src/; returns the seconds it
    took, at reference speed."""
    sys.path.insert(0, SRC)
    ref = reference_seconds()
    t0 = time.perf_counter()
    try:
        import swarmperm
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import swarmperm from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(swarmperm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: swarmperm came from {swarmperm.__file__}, not {SRC}")
    return at_reference_speed(elapsed, ref, reference_seconds())


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERATIONS):
        acc += math.hypot(i * 1e-3, 1.0)
    return time.perf_counter() - t0


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"cpu={cpu}")


def digest(res) -> str:
    import swarmperm as sp
    return hashlib.sha256(sp.serialize_trace(res.trace).encode()).hexdigest()


def golden_digests(workload: str) -> list[dict]:
    """Digest of every trace in the tiny cycle of GOLDEN_SEED."""
    from workloads import WORKLOADS
    cycle = WORKLOADS[workload](cycle_rng(workload, GOLDEN_SEED, 0), tiny=True)
    out = []
    for inst in cycle:
        try:
            sha = digest(inst.execute())
        except Exception as exc:  # a mismatch like any other, not the run's end
            sha = f"raised {type(exc).__name__}"
        out.append({"label": inst.label, "sha256": sha})
    return out


def digest_mismatches(workload: str) -> tuple[int, int]:
    """(instances whose trace bytes differ from golden.json, instances checked)."""
    with open(GOLDEN) as fh:
        want = json.load(fh)[workload]
    got = golden_digests(workload)
    bad = sum(1 for w, g in zip(want, got) if w != g) + abs(len(want) - len(got))
    return bad, len(want)


class Failures:
    """Failed instances by kind; keeps the first detail of each kind."""

    def __init__(self):
        self.by_kind: dict[str, int] = {}
        self.first: dict[str, str] = {}

    def add(self, kind: str, detail: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.first.setdefault(kind, detail)

    @property
    def count(self) -> int:
        return sum(self.by_kind.values())


def plain_call(fn):
    t0 = time.perf_counter()
    res = fn()
    return res, time.perf_counter() - t0


def attempt(inst, timed_call):
    """Run one instance through timed_call, which returns (result, seconds).
    Returns (result, seconds, failure kind, detail).  Anything escaping the
    program fails this instance, not the run."""
    try:
        res, secs = timed_call(inst.execute)
    except Exception as exc:
        return None, None, type(exc).__name__, traceback.format_exc()
    return res, secs, inst.failure(res), inst.label


def traced_pair(inst, tracer, instance_id: int):
    """attempt() results of a plain and a traced copy of one instance.  The
    copy that runs first alternates, so neither always finds warm caches."""
    calls = [plain_call, lambda fn: tracer.traced_call(instance_id, fn)]
    step = -1 if instance_id % 2 else 1
    outs = [attempt(inst, call) for call in calls[::step]]
    return outs[::step]


def at_reference_speed(secs: float, ref_before: float, ref_after: float) -> float:
    return secs * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def measure(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
            tiny: bool = False) -> dict:
    from workloads import WORKLOADS, committed_robot_steps
    make_cycle = WORKLOADS[workload]

    setups = []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cycle = make_cycle(cycle_rng(workload, seed, 0), tiny)
        attempt(cycle[0], plain_call)  # warm-up
        secs = time.perf_counter() - t0
        ref_after = reference_seconds()
        setups.append(at_reference_speed(secs, ref, ref_after))
        ref = ref_after

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    failures = Failures()
    wall: list[float] = []  # plain copies only
    scaled: list[float] = []  # the same at reference speed (untraced runs)
    paired: list[tuple[float, float]] = []  # (plain, traced) wall seconds
    families: dict[int, str] = {}  # instance id -> label without its sizes
    robot_steps = 0
    attempted = 0
    cycles = 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for inst in cycle:
            attempted += 1
            if tracer is None:
                res, secs, kind, detail = attempt(inst, plain_call)
                steps_from = res
                ref_after = reference_seconds()
                if secs is not None:
                    scaled.append(at_reference_speed(secs, ref, ref_after))
                ref = ref_after
            else:
                families[attempted] = " ".join(w for w in inst.label.split() if "=" not in w)
                (res, secs, kind, detail), (tres, tsecs, tkind, tdetail) = \
                    traced_pair(inst, tracer, attempted)
                steps_from = tres
                if kind is None:
                    kind, detail = tkind, tdetail
                if kind is None and digest(res) != digest(tres):
                    kind, detail = "tracing_changed_output", inst.label
                if secs is not None and tsecs is not None:
                    paired.append((secs, tsecs))
            if steps_from is not None:
                robot_steps += committed_robot_steps(steps_from)
            if kind is not None:
                failures.add(kind, detail)
            if secs is not None:
                wall.append(secs)
        cycles += 1
        now = time.perf_counter()
        # Stop at the cycle boundary nearest to the deadline.
        if now - t_start + (now - t_cycle) / 2 >= seconds:
            break
        cycle = make_cycle(cycle_rng(workload, seed, cycles), tiny)

    mismatch, golden_n = digest_mismatches(workload)
    failed = failures.count
    out = {"correct": failed == 0 and mismatch == 0, "attempted": attempted,
           "failed": failed, "cycles": cycles, "failed_frac": failed / attempted,
           "trace_digest_mismatch": mismatch, "golden_instances": golden_n,
           "failures": failures}
    if tracer is not None:
        metrics = tracer.metrics(robot_steps, families)
        plain_s = sum(p for p, _ in paired)
        metrics["trace.overhead_frac"] = (sum(t for _, t in paired) / plain_s - 1
                                          if plain_s else 0.0)
        metrics["failed_frac"] = out["failed_frac"]
        metrics["engine.trace_digest_mismatch"] = mismatch
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload}"))
        out["metrics"] = metrics
        return out
    out["wall"] = _timings(robot_steps, wall)
    out["metrics"] = {
        **_timings(robot_steps, scaled),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return out


def _timings(robot_steps: int, times: list[float]) -> dict[str, float]:
    times = times or [0.0, 0.0]  # every instance raised; `correct` is false
    return {
        "robot_steps_per_s": robot_steps / sum(times) if sum(times) else 0.0,
        "instance_ms.p50": statistics.median(times) * 1e3,
        "instance_ms.p90": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def report(workload: str, seed: int, seconds: float, trace: bool, out: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"{machine()}")
    print(f"# instances={out['attempted']} cycles={out['cycles']} "
          f"failed={out['failed']} failed_frac={out['failed_frac']:.4g} "
          f"engine.trace_digest_mismatch={out['trace_digest_mismatch']} "
          f"(of {out['golden_instances']} golden traces)")
    if "wall" in out:
        print("# unscaled wall time: " + " ".join(
            f"{k}={v:.6g}" for k, v in out["wall"].items()))
    for kind, count in sorted(out["failures"].by_kind.items()):
        print(f"# failure {kind}: {count}")
        print("#   first: " + out["failures"].first[kind].strip().replace("\n", "\n#   "))
    for name, value in out["metrics"].items():
        print(f"{name:56s} {value:.6g} {unit_of(name)}")


UNITS = {
    "robot_steps_per_s": "1/s", "p50": "ms", "p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "calls_per_step": "calls/step", "ms_per_call": "ms",
    "self_frac": "frac", "errors": "count", "repeat_frac": "frac",
    "growth_exponent": "exponent", "overhead_frac": "frac", "failed_frac": "frac",
    "trace_digest_mismatch": "count",
}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current code and exit")
    args = parser.parse_args(argv)

    import_s = import_swarmperm()
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    if args.record_golden:
        golden = {name: golden_digests(name) for name in WORKLOADS}
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1)
            fh.write("\n")
        return 0
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")

    results = {}
    for name in names:
        out = measure(name, args.seed, args.seconds, bool(args.trace), import_s)
        report(name, args.seed, args.seconds, bool(args.trace), out)
        results[name] = out
    if len(names) == 1:
        metrics = {k: v for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{k}": v for w, out in results.items()
                   for k, v in out["metrics"].items()}
    final = {
        "correct": all(out["correct"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k.split("/")[-1])}
                    for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
