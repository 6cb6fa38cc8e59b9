"""Pinned ``skewgb problem --stats --trace`` output.

The trace lists every critical pair the completion takes, with its
outcome, so these digests pin the pair order, the criteria, which pairs
reduce to zero and which add an element, besides the basis and the stats
line.  They were recorded before the completion began to keep its entries
tail-reduced, which may change the tails the reductions see but none of
the above.

Two sets of inputs: the free2 variants of two corpus problems, and the
first 200 problems of the benchmark's seeded generator, read from
``bench/gen.py`` without changing it.
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


def digest(texts, tmp_path):
    h = hashlib.sha256()
    for text in texts:
        h.update(traced_stdout(text, tmp_path).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["c41-d4", "c41w-d6"])
def test_free2_corpus_trace_is_pinned(name, tmp_path):
    assert digest([corpus_free2(name)], tmp_path) == PINS[f"{name}-free2"]


def test_generated_problem_traces_are_pinned(tmp_path):
    texts = [text for _, text in islice(gen.stream(1), 200)]
    assert digest(texts, tmp_path) == PINS["gen-seed1-200"]
