"""sha256 digests of the full-size benchmark instances, for checking that
a change leaves every trace, verdict and visit matrix byte-identical.

    python3 tools/trace_digest.py

For each of the seeds 9101-9103 and each simulation workload
(generic_sweep, symmetric_large, centered_cadence) it builds the first
cycle of 25 instances exactly as `bench/run.py` does, runs each, and
hashes its label, `serialize_trace`, the verdict, the visit matrix and the
failure kind (or the exception that escaped): 225 instances.  It prints
one sha256 per workload, then the one over all of them, then one over
the 75 trace_audit instances of the same seeds, which hold the verifier's
verdicts and visit matrices and stay out of that total, and last one over
180 seeded margin traces (`margin_trace`), which hold the verifier at the
eps margins of its site matching.  Run it in the
checkout under test and in its parent: equal digests mean equal outputs,
and a workload whose digest differs holds the instance that changed.  It
imports swarmperm from this checkout's `src/` and reads the workloads
from `bench/` without changing them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import swarmperm as sp  # noqa: E402
from run import cycle_rng  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIMULATIONS = ("generic_sweep", "symmetric_large", "centered_cadence")
AUDIT = "trace_audit"
SEEDS = (9101, 9102, 9103)
MARGINS = (0.3, 0.49, 0.5, 0.51, 0.9, 1.0, 1.1, 2.5)  # a robot's distance off its site, in eps
GAPS = (1.5, 1.99, 2.0, 2.01, 3.0)  # the near pair of sites, in eps


def instance_bytes(inst) -> bytes:
    """Everything the instance produces, as bytes."""
    try:
        res = inst.execute()
    except (sp.SwarmError, ValueError) as exc:
        return f"{inst.label}\nraised {type(exc).__name__}: {exc}\n".encode()
    parts = [inst.label, sp.serialize_trace(res.trace), json.dumps(res.verdict.to_dict()),
             json.dumps(res.visits), str(inst.failure(res))]
    return "\n".join(parts).encode()


def margin_trace(rng: random.Random) -> tuple[int, float, sp.RunTrace]:
    """(k, eps, trace): a seeded n-cycle of sites advanced every k rounds for
    about one period.  Sites 0 and 1 lie a gap times eps apart, the rest on
    a 10-eps lattice.  In each round after 0 up to two robots stand a margin
    times eps off their site, along x or at a seeded angle, so some stand
    within eps of both near sites; the in-between rounds of k = 2 repeat
    the last configuration; one trace in four moves one robot 3 eps at a
    seeded round; and half the traces carry a memory bit."""
    n, k = rng.randint(3, 8), rng.choice((1, 2))
    eps, gap = rng.choice((1e-9, 1e-3, 1.0)), rng.choice(GAPS)
    ox, oy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    sites = [(ox, oy), (ox + gap * eps, oy)]
    sites += [(ox + 10.0 * eps * (i % 3), oy + 10.0 * eps * (1 + i // 3)) for i in range(n - 2)]
    order = rng.sample(range(n), n)
    pi = [0] * n
    for j in range(n):
        pi[order[j]] = order[(j + 1) % n]
    rounds = k * n + rng.choice((-k, 0, 1, k))
    planted = rng.randrange(1, rounds + 1) if rng.random() < 0.25 else None
    bits = (0,) * n if rng.random() < 0.5 else tuple(int(i == 0) for i in range(n))
    power = list(range(n))
    records = [sp.RoundRecord(0, tuple(sp.Point(x, y) for x, y in sites), (0,) * n, (False,) * n)]
    for r in range(1, rounds + 1):
        if r % k == 0:
            power = [pi[x] for x in power]
        config = [sites[s] for s in power]
        for i in rng.sample(range(n), rng.choice((0, 0, 1, 2))):
            m = rng.choice(MARGINS) * eps
            t = rng.choice((0.0, math.pi, rng.uniform(0.0, 2.0 * math.pi)))
            config[i] = (config[i][0] + m * math.cos(t), config[i][1] + m * math.sin(t))
        if r == planted:
            i = rng.randrange(n)
            config[i] = (config[i][0] + 3.0 * eps, config[i][1])
        records.append(sp.RoundRecord(r, tuple(sp.Point(x, y) for x, y in config), bits,
                                      (True,) * n))
    return k, eps, sp.RunTrace(tuple(records))


def margin_bytes(k: int, eps: float, trace: sp.RunTrace) -> bytes:
    """The trace, both specs' verdicts and the stride-k visit matrix, as bytes."""
    tol = sp.Tolerance(eps)
    parts = [sp.serialize_trace(trace), json.dumps(sp.visit_matrix(trace, k, tol))]
    parts += [sp.check_k_step_spec(trace, spec, k, tol).to_json() for spec in sp.SPECS]
    return "\n".join(parts).encode()


def main() -> int:
    total = hashlib.sha256()
    per_workload = {name: hashlib.sha256() for name in (*SIMULATIONS, AUDIT)}
    count = 0
    for seed in SEEDS:
        for name in (*SIMULATIONS, AUDIT):
            for inst in WORKLOADS[name](cycle_rng(name, seed, 0)):
                digest = hashlib.sha256(instance_bytes(inst)).digest()
                per_workload[name].update(digest)
                if name != AUDIT:
                    total.update(digest)
                    count += 1
    for name in SIMULATIONS:
        print(f"{name} sha256={per_workload[name].hexdigest()}")
    print(f"{count} instances sha256={total.hexdigest()}")
    print(f"{AUDIT} sha256={per_workload[AUDIT].hexdigest()}")
    margin = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(f"margin {seed}")
        for _ in range(60):
            margin.update(hashlib.sha256(margin_bytes(*margin_trace(rng))).digest())
    print(f"margin sha256={margin.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
