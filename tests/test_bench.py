"""The traced benchmark as a test: `bench/run.py --trace 1` replays its
workload through the library in-process (`bench/layers.py`), including the
bare record lists and `SimConfig(isa=...)` that only it passes, and checks
every output against its golden digest."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fit3k_rr_is_correct():
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit3k-rr",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
