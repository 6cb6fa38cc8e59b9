"""Pinned ``skewgb problem --stats --trace`` output.

The trace lists every critical pair the completion takes, with its
outcome, so these digests pin the pair order, the criteria, which pairs
reduce to zero and which add an element, besides the basis and the stats
line.  The free2 and generator pins were recorded before the completion
began to keep its entries tail-reduced, which may change the tails the
reductions see but none of the above; the free-mode and Z/p pins before
the engine kept its entries and S-polynomials in int form.

The inputs: the two free corpus problems as checked in (sigma backend)
and as free2 variants (skew backend), c41-d4 over Z/32003, the first 200
problems of the benchmark's seeded generator, and the first 60 skew and
left problems of another seed, each over Z/101 and under the power map
x -> x**2 (the only traffic of the divisor index's scan over every
shift).  The problems are read from ``bench/gen.py`` without changing it.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from itertools import islice
from pathlib import Path

import pytest

from skewgb import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PINS = json.loads((Path(__file__).with_name("trace_pin.json")).read_text())

_spec = importlib.util.spec_from_file_location("bench_gen",
                                               ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def traced_stdout(text, tmp_path):
    """Standard output of ``skewgb problem --stats --trace``, in process."""
    path = tmp_path / "problem.txt"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(path), "--stats", "--trace"])
    assert code == 0, text
    return out.getvalue()


def corpus_free2(name):
    text = (CORPUS / f"{name}.txt").read_text()
    assert "mode: free\n" in text
    return text.replace("mode: free\n", "mode: free2\n", 1)


def corpus_prime_field(name, p):
    text = (CORPUS / f"{name}.txt").read_text()
    assert "field: Q\n" in text
    return text.replace("field: Q\n", f"field: {p}\n", 1)


def digest(texts, tmp_path):
    h = hashlib.sha256()
    for text in texts:
        h.update(traced_stdout(text, tmp_path).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["c41-d4", "c41w-d6"])
def test_free2_corpus_trace_is_pinned(name, tmp_path):
    assert digest([corpus_free2(name)], tmp_path) == PINS[f"{name}-free2"]


@pytest.mark.parametrize("name", ["c41-d4", "c41w-d6"])
def test_free_corpus_trace_is_pinned(name, tmp_path):
    text = (CORPUS / f"{name}.txt").read_text()
    assert digest([text], tmp_path) == PINS[f"{name}-free"]


def test_prime_field_corpus_trace_is_pinned(tmp_path):
    text = corpus_prime_field("c41-d4", 32003)
    assert digest([text], tmp_path) == PINS["c41-d4-gf32003"]


def test_generated_problem_traces_are_pinned(tmp_path):
    texts = [text for _, text in islice(gen.stream(1), 200)]
    assert digest(texts, tmp_path) == PINS["gen-seed1-200"]


@pytest.mark.parametrize("header, key", [("field: 101", "gf101"),
                                         ("endo: power 2", "power2")])
def test_generated_skew_left_variant_traces_are_pinned(header, key, tmp_path):
    texts = [text.replace("\n\n", f"\n{header}\n\n", 1)
             for mode, text in islice(gen.stream(7), 150)
             if mode in ("skew", "left")][:60]
    assert len(texts) == 60
    assert digest(texts, tmp_path) == PINS[f"gen-seed7-skew-left-60-{key}"]
