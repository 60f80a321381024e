"""Smoke run of the benchmark at tiny sizes.  It sets no timing bound.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_swarmperm()

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    out = run.measure(workload, seed=1, seconds=0, trace=trace, import_s=0.0, tiny=True)
    assert out["failures"].by_kind == {}
    assert out["trace_digest_mismatch"] == 0
    assert out["correct"] and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    assert all(run.unit_of(m["name"]) == m["unit"] for m in declared)


def test_only_centered_cadence_reaches_protocol_helpers():
    # Protocol.compute is the dispatcher every simulation calls once per
    # robot-step; the helpers behind it serve only the centered protocols.
    for workload in WORKLOADS:
        out = run.measure(workload, seed=2, seconds=0, trace=True, import_s=0.0, tiny=True)
        m = out["metrics"]
        helpers = sum(v for k, v in m.items() if k.startswith("protocols.")
                      and k.endswith(".calls_per_step") and ".Protocol." not in k)
        assert (helpers > 0) == (workload == "centered_cadence"), workload
        assert m["protocols.Protocol.compute.calls_per_step"] == (
            0.0 if workload == "trace_audit" else 1.0)


def test_last_line_is_the_result_object(capsys):
    assert run.main(["--workload", "trace_audit", "--seconds", "0", "--seed", "3"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())
