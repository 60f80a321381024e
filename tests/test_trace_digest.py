"""tools/trace_digest.py runs to the end and prints every digest line."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"


def test_trace_digest_prints_four_workloads_and_the_total():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [re.fullmatch(r"(\w+) sha256=[0-9a-f]{64}", line) for line in lines]
    assert [m and m[1] for m in names] == ["generic_sweep", "symmetric_large",
                                           "centered_cadence", None, "trace_audit"]
    assert re.fullmatch(r"225 instances sha256=[0-9a-f]{64}", lines[3])
