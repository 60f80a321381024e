"""tools/trace_digest.py runs to the end and prints the recorded digests:
a change that moves one bit of any benchmark trace, verdict or visit
matrix fails here."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"

RECORDED = [
    "generic_sweep sha256=635d7bb7346953a69d411c2cf7a155c92e0f77a82df87a8e6d6b6d55cca2aa60",
    "symmetric_large sha256=12eb33ee57ba05f02715a9cd212dc6d120834f66fc1610246a0aeeaa5afc6be2",
    "centered_cadence sha256=50bfc9319d192eed3f449d8bc8eb00059083eef4c19dc8ecb5203b76eed99891",
    "225 instances sha256=2e501f76ced804fd670a96f58b7f6912b7eecdba2633e22f7826e14dc1ab0d99",
    "trace_audit sha256=7de638e425c8e93e582654480ec00f27272f4a020e6ce40ff78451d4b90ce1f0",
    "margin sha256=3c9d8847ff77f77f91f73411e0aa7ac1e4f71d82d07fe8f5afeed99f4738c33e",
]


def test_trace_digest_prints_the_recorded_digests():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == RECORDED
