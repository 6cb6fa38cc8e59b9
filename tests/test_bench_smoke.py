"""One-second runs of the benchmark's control workload.

``bench/run.py`` checks every output it produces: the golden digests of
the corpus problems it runs, ``certify``, the oracles and free against
free2.  A short ``mixed-batch`` run therefore checks all of these through
the benchmark's own calls, and that it still reports every end-to-end
metric that BENCHMARK.json declares.  The traced run (``--trace 1``)
wraps engine and letterplace functions by name, so it also catches a
rename that would leave a per-layer metric unreported.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_mixed_batch(trace: str) -> dict:
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed-batch",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_mixed_batch_benchmark_runs_correct():
    metrics = run_mixed_batch("0")
    for metric in DECLARED["end_to_end"]:
        assert metrics[metric["name"]]["value"], metric["name"]


def test_traced_mixed_batch_reports_every_layer():
    metrics = run_mixed_batch("1")
    missing = [m["name"] for m in DECLARED["per_layer"]
               if m["name"] not in metrics]
    assert not missing, missing
