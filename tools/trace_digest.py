"""sha256 digests of the full-size benchmark instances, for checking that
a change leaves every trace, verdict and visit matrix byte-identical.

    python3 tools/trace_digest.py

For each of the seeds 9101-9103 and each simulation workload
(generic_sweep, symmetric_large, centered_cadence) it builds the first
cycle of 25 instances exactly as `bench/run.py` does, runs each, and
hashes its label, `serialize_trace`, the verdict, the visit matrix and the
failure kind (or the exception that escaped): 225 instances.  It prints
one sha256 per workload, then the one over all of them, and last one over
the 75 trace_audit instances of the same seeds, which hold the verifier's
verdicts and visit matrices and stay out of that total.  Run it in the
checkout under test and in its parent: equal digests mean equal outputs,
and a workload whose digest differs holds the instance that changed.  It
imports swarmperm from this checkout's `src/` and reads the workloads
from `bench/` without changing them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import swarmperm as sp  # noqa: E402
from run import cycle_rng  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIMULATIONS = ("generic_sweep", "symmetric_large", "centered_cadence")
AUDIT = "trace_audit"
SEEDS = (9101, 9102, 9103)


def instance_bytes(inst) -> bytes:
    """Everything the instance produces, as bytes."""
    try:
        res = inst.execute()
    except (sp.SwarmError, ValueError) as exc:
        return f"{inst.label}\nraised {type(exc).__name__}: {exc}\n".encode()
    parts = [inst.label, sp.serialize_trace(res.trace), json.dumps(res.verdict.to_dict()),
             json.dumps(res.visits), str(inst.failure(res))]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
