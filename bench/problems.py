"""Problem texts for each workload; imports nothing from skewgb.

Shared by the benchmark and its set-up probe, so both parse the same input.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent

CORPUS = ("c41-d4", "c41w-d6", "difference-d6", "serf-g2")
# The one corpus problem each single-problem workload runs.
SINGLE = {"c41-q": "c41-d4", "c41w-cert": "c41w-d6"}
WORKLOADS = ("c41-q", "c41w-cert", "mixed-batch")
# Corpus problems mixed-batch runs once per run, solve and certify only:
# difference-d6 has a documented oracle difference, and serf-g2's oracle
# runs past 100 s.
MIXED_CORPUS = ("difference-d6", "serf-g2")
# Generated problems the set-up probe parses for mixed-batch.
MIXED_SETUP_COUNT = 100


def corpus_text(label: str) -> str:
    return (ROOT / "corpus" / f"{label}.txt").read_text(encoding="utf-8")


def setup_texts(workload: str, seed: int) -> list[str]:
    """What the workload parses before its first solve."""
    if workload in SINGLE:
        return [corpus_text(SINGLE[workload])]
    stream = gen.stream(seed)
    return [corpus_text(label) for label in MIXED_CORPUS] + [
        text for _, text in itertools.islice(stream, MIXED_SETUP_COUNT)
    ]
