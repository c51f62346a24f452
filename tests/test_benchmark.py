"""The benchmark script runs end to end against this checkout's sources."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# long_reply fills the channel to capacity, so the producer blocks on put.
@pytest.mark.parametrize("workload", ["paper_default", "long_reply"])
def test_traced_benchmark_run_is_correct(workload):
    # Exit 3 would mean a run reported less time than the schedule oracle
    # allows, for example an epoch stamped after the generator's anchor.
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
