"""skewgb benchmark: what a user of ``skewgb problem.txt --certify`` (and
``--oracle``) waits for, measured in process through the calls the CLI makes.

    python3 bench/run.py --workload c41-q --seed 1 --seconds 36 --trace 0

The script finds the checkout it lives in and imports skewgb from its
``src/``.  Load: one single-threaded process, a closed loop with one client.
Work is done in rounds (one corpus problem, or ``MIXED_ROUND`` generated
problems) until the next round would end past ``--seconds``; timings are
medians over rounds.  Every output is checked: CLI output bytes against
recorded SHA-256 digests, ``certify``, the oracles and ``free`` against
``free2``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` one fixed unit of work runs untraced and then traced,
whatever ``--seconds`` says, so that counts repeat exactly; the metrics are
the per-layer ones (see bench/layers.py and bench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import gen
import problems
from problems import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
MIXED_ROUND = 100
# Generated problems in the traced unit of mixed-batch.
MIXED_TRACE_COUNT = 500
# Single-problem workloads cross-check the free oracle through this degree:
# the full window (4 on c41-d4) takes 37 s over Z/32003 alone.
CORPUS_ORACLE_BOUND = 3
SETUP_REPEATS = 15
MAX_FAILURES_SHOWN = 10


@dataclass(frozen=True)
class Spec:
    """One problem to process and the checks that apply to it."""

    label: str
    text: str
    golden: str | None  # key into golden.json, or None for generated input
    oracle: object  # None, "cli" (the --oracle check), or a compare bound
    cross: bool = False  # also solve with the other free backend


@dataclass
class Timing:
    latency: float
    solve: float
    certify: float
    oracle: float


def cli_output(lines, stats) -> str:
    """Standard output of ``skewgb problem.txt --stats``."""
    return "".join(f"{line}\n" for line in lines) + f"# {stats.as_text()}\n"


class Problem:
    """A parsed problem and the results of its latest solve."""

    def __init__(self, spec: Spec, pf, cfg, gens):
        self.spec = spec
        self.pf = pf
        self.cfg = cfg
        self.gens = gens
        self.basis = None


class Runner:
    """Processes problems through the CLI's calls and counts the checks.

    Each phase checks its own output; a check costs microseconds, next to
    the milliseconds to seconds of the phase it follows."""

    def __init__(self, cli, letterplace, golden: dict):
        self.cli = cli
        self.letterplace = letterplace
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.pair_stats: list = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def parse(self, spec: Spec) -> Problem:
        cli = self.cli
        pf = cli.parse_problem(spec.text)
        cfg = cli._config(pf, False)
        return Problem(spec, pf, cfg, cli._parse_generators(pf, cfg))

    def solve(self, p: Problem):
        cli, spec = self.cli, p.spec
        lines, stats, _, p.basis = cli._run_problem(p.pf, p.cfg, p.gens)
        self.pair_stats.append(stats)
        if spec.golden is not None:
            digest = hashlib.sha256(cli_output(lines, stats).encode()).hexdigest()
            self.check(digest == self.golden[spec.golden],
                       f"{spec.label}: output differs from recorded digest")
        if spec.cross:
            other = "free2" if p.pf.mode == "free" else "free"
            other_lines, other_stats, _, _ = cli._run_problem(
                replace(p.pf, mode=other), replace(p.cfg, mode=other), p.gens
            )
            self.pair_stats.append(other_stats)
            self.check(other_lines == lines, f"{spec.label}: free != free2")

    def certify(self, p: Problem):
        ok, _ = self.cli._certify(p.pf, p.cfg, p.basis)
        self.check(ok, f"{p.spec.label}: certify failed")

    def oracle(self, p: Problem):
        bound = p.spec.oracle
        if bound is None:
            return
        if bound == "cli":
            ok = self.cli._oracle_check(p.pf, p.cfg, p.gens, p.basis)
        else:
            ok = self.letterplace.free_oracle_match(
                p.basis, p.gens, p.cfg, compare_bound=bound
            )
        self.check(ok, f"{p.spec.label}: oracle lm-ideals differ")

    def run(self, spec: Spec) -> tuple[Problem, Timing]:
        """Parse, solve, certify and cross-check one problem."""
        t0 = time.perf_counter()
        p = self.parse(spec)
        t1 = time.perf_counter()
        self.solve(p)
        t2 = time.perf_counter()
        self.certify(p)
        t3 = time.perf_counter()
        self.oracle(p)
        t4 = time.perf_counter()
        return p, Timing(t4 - t0, t2 - t1, t3 - t2, t4 - t3)


def rounds(workload: str, seed: int):
    """Endless rounds of problems for one workload."""
    if workload in problems.SINGLE:
        label = problems.SINGLE[workload]
        spec = Spec(label, problems.corpus_text(label), label,
                    CORPUS_ORACLE_BOUND)
        while True:
            yield [spec]
    first = [Spec(label, problems.corpus_text(label), label, None)
             for label in problems.MIXED_CORPUS]
    generated = (
        Spec(f"seed{seed}/item{i}/{mode}", text, None,
             None if mode == "left" else "cli",
             cross=mode in ("free", "free2"))
        for i, (mode, text) in enumerate(gen.stream(seed))
    )
    while True:
        yield first + list(itertools.islice(generated, MIXED_ROUND))
        first = []


def measure_setup(workload: str, seed: int) -> float:
    """Median cold set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def extra_samples(runner: Runner, problem: Problem, samples: dict,
                  deadline: float):
    """Repeat single phases of a solved problem until ``deadline``, taking
    the phase with the fewest samples (the longer one on a tie) of those
    that fit."""
    repeat = {"solve": runner.solve, "certify": runner.certify,
              "oracle": runner.oracle}
    while True:
        now = time.perf_counter()
        fitting = [phase for phase in repeat
                   if now + statistics.median(samples[phase]) <= deadline]
        if not fitting:
            return
        phase = min(fitting, key=lambda ph: (len(samples[ph]),
                                             -statistics.median(samples[ph])))
        t0 = time.perf_counter()
        repeat[phase](problem)
        samples[phase].append(time.perf_counter() - t0)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int):
    setup_s = measure_setup(workload, seed)
    med = statistics.median
    walls, counts, latencies = [], [], []
    samples = {"solve": [], "certify": [], "oracle": []}
    spare = None
    start = time.perf_counter()
    for specs in rounds(workload, seed):
        r0 = time.perf_counter()
        done = [runner.run(spec) for spec in specs]
        walls.append(time.perf_counter() - r0)
        counts.append(len(specs))
        for phase in samples:
            samples[phase].append(sum(getattr(t, phase) for _, t in done))
        latencies.extend(t.latency for _, t in done)
        if workload in problems.SINGLE:
            # A single-problem run has a few long passes, and the host's
            # speed drifts over seconds.  The time no further whole pass
            # would use is split evenly between the passes and spent on more
            # samples of the phases that fit, so that no phase takes its
            # samples from one stretch at the end of the run.
            if spare is None:
                passes = max(1, int(seconds // walls[0]))
                spare = (seconds - passes * walls[0]) / passes
            deadline = min(time.perf_counter() + spare, start + seconds)
            extra_samples(runner, done[0][0], samples, deadline)
        if time.perf_counter() - start + med(walls) > seconds:
            break
    elapsed = time.perf_counter() - start
    latencies.sort()
    print(f"{workload}: {len(walls)} rounds, {len(latencies)} problems in "
          f"{elapsed:.1f} s (latency percentiles over {len(latencies)} "
          "samples); phase samples: "
          + ", ".join(f"{k} {len(v)}" for k, v in samples.items()))
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (med(samples["solve"]), "s"),
        "certify_s": (med(samples["certify"]), "s"),
        "oracle_s": (med(samples["oracle"]), "s"),
        "instances_per_s": (med(n / w for n, w in zip(counts, walls)), "1/s"),
        "instance_p50_ms": (1e3 * med(latencies), "ms"),
        "instance_p99_ms": (1e3 * nearest_rank(latencies, 0.99), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(runner: Runner, modules: dict, workload: str, seed: int):
    from layers import Tracer

    if workload in problems.SINGLE:
        unit = next(rounds(workload, seed))
    else:
        stream = rounds(workload, seed)
        unit = list(itertools.chain.from_iterable(
            itertools.islice(stream, MIXED_TRACE_COUNT // MIXED_ROUND)
        ))
    t0 = time.perf_counter()
    for spec in unit:
        runner.run(spec)
    untraced = time.perf_counter() - t0

    runner.pair_stats = []
    tracer = Tracer(modules, ROOT / "src")
    with tracer:
        t0 = time.perf_counter()
        for spec in unit:
            tracer.run_id = spec.label
            runner.run(spec)
        traced = time.perf_counter() - t0
    tracer.write_spans(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl")

    ps = runner.pair_stats
    considered = sum(s.considered for s in ps)
    product = sum(s.product_skipped for s in ps)
    chain = sum(s.chain_skipped for s in ps)
    zero = sum(s.reduced_to_zero for s in ps)
    reduced = considered - product - chain
    values = {
        "engine.pairs_considered": considered,
        "engine.pairs_product": product,
        "engine.pairs_chain": chain,
        "engine.pairs_zero": zero,
        "engine.basis_added": sum(s.added for s in ps),
        "engine.criteria_hit_ratio": (product + chain) / considered
        if considered else 0.0,
        "engine.zero_reduction_ratio": zero / reduced if reduced else 0.0,
    }
    values.update(tracer.layer_metrics())
    values.update(tracer.span_metrics())
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    print(f"{workload}: traced unit of {len(unit)} problems, "
          f"{untraced:.2f} s untraced, {traced:.2f} s traced")
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    missing = [p for p in [src / "skewgb" / "__init__.py"] + [
        ROOT / "corpus" / f"{label}.txt" for label in problems.CORPUS
    ] if not p.is_file()]
    if missing:
        print(f"error: not a skewgb checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from skewgb import cli, engine, letterplace, textio

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported skewgb from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    golden = json.loads((BENCH / "golden.json").read_text())
    runner = Runner(cli, letterplace, golden)
    if args.trace:
        modules = {"cli": cli, "engine": engine, "letterplace": letterplace,
                   "textio": textio}
        metrics = per_layer(runner, modules, args.workload, args.seed)
    else:
        metrics = end_to_end(runner, args.workload, args.seed, args.seconds)

    for what in runner.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {what}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
