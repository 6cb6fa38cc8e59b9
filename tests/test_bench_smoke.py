"""A one-second run of the benchmark's control workload.

``bench/run.py`` checks every output it produces: the golden digests of
the corpus problems it runs, ``certify``, the oracles and free against
free2.  A short ``mixed-batch`` run therefore checks all of these through
the benchmark's own calls, and that it still reports every end-to-end
metric that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_mixed_batch_benchmark_runs_correct():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["value"], metric["name"]
