"""``certify`` through the completion's criteria, checked against the
exhaustive run.

``certify`` skips the pairs that the product and strict chain criteria
settle, and on any failure reruns with both criteria off.  The reference
here is that rerun itself: ``certify`` under a config with both toggles
off reduces every in-window pair.  The problems come from the benchmark's
seeded generator, read from ``bench/gen.py`` without changing it.
"""

import contextlib
import importlib.util
import io
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from skewgb import cli, engine
from test_cli import PINNED

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

_spec = importlib.util.spec_from_file_location("bench_gen",
                                               ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def load(text):
    pf = cli.parse_problem(text)
    cfg = cli._config(pf, False)
    return pf, cfg, cli._parse_generators(pf, cfg)


def test_criteria_agree_with_exhaustive_certify():
    # Each problem is certified three ways: its basis, the basis with each
    # element dropped in turn, and the bare generators.  Skew problems are
    # also run in left mode, whose generator shape they share.
    cases, failing = Counter(), Counter()
    for mode, text in islice(gen.stream(2), 600):
        texts = [text]
        if mode == "skew":
            texts.append(text.replace("mode: skew", "mode: left"))
        for text in texts:
            pf, cfg, gens = load(text)
            basis = cli._run_problem(pf, cfg, gens)[3]
            dropped = [basis[:k] + basis[k + 1:] for k in range(len(basis))]
            exhaustive = replace(cfg, product_criterion=False,
                                 chain_criterion=False)
            for G in [basis, gens, *dropped]:
                want = cli._certify(pf, exhaustive, G)
                assert cli._certify(pf, cfg, G) == want, text
                cases[pf.mode] += 1
                failing[pf.mode] += not want[0]
    assert sum(cases.values()) >= 1000
    assert sum(failing.values()) >= 200
    assert all(failing[m] >= 10 for m in gen.MODES), failing


def certified_spolys(monkeypatch, text):
    """The number of S-polynomials (``_Entry.spoly``, which left entries
    inherit) that ``cli._certify`` forms on the computed basis of the
    problem, which must certify."""
    pf, cfg, gens = load(text)
    basis = cli._run_problem(pf, cfg, gens)[3]
    reduced = 0
    sp = engine._Entry.spoly

    def spoly(*args):
        nonlocal reduced
        reduced += 1
        return sp(*args)

    monkeypatch.setattr(engine._Entry, "spoly", spoly)
    assert cli._certify(pf, cfg, basis) == (True, [])
    return reduced


def test_certify_on_serf_g2_skips_settled_pairs(monkeypatch):
    # The exhaustive check reduces 488 S-polynomials on this basis; the
    # criteria leave 51.
    text = (CORPUS / "serf-g2.txt").read_text()
    assert 0 < certified_spolys(monkeypatch, text) <= 60


def test_certify_reduces_left_pairs_through_spoly(monkeypatch):
    # The pinned left problem: of its three in-window pairs the chain
    # criterion settles one, and the two others reach ``spoly``.
    assert certified_spolys(monkeypatch, PINNED["left"][0]) == 2


RUN_PROBLEM = cli._run_problem


def run_dropped(monkeypatch, text, k, tmp_path):
    """``skewgb problem --certify`` in process, with element k of the
    computed basis left out of what is printed and certified."""
    def drop(pf, cfg, gens):
        lines, stats, trace, basis = RUN_PROBLEM(pf, cfg, gens)
        return (lines[:k] + lines[k + 1:], stats, trace,
                basis[:k] + basis[k + 1:])

    monkeypatch.setattr(cli, "_run_problem", drop)
    path = tmp_path / "problem.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path), "--certify"])
    return code, out.getvalue(), err.getvalue()


DIFFERENCE_WITHOUT_G4 = """\
x(2)*x(0) - x(1)
x(3)^2*x(0) - x(3)
x(4)*x(1) - x(3)*x(0)
x(5) - x(4)*x(0)
# FAILED pair (g1, sigma^2.g2) does not reduce to zero
# FAILED pair (g3, sigma^1.g2) does not reduce to zero
# FAILED pair (g4, sigma^3.g1) does not reduce to zero
# FAILED pair (g4, sigma^4.g1) does not reduce to zero
# FAILED pair (g4, sigma^1.g2) does not reduce to zero
# FAILED pair (g4, sigma^2.g2) does not reduce to zero
# certification failed
"""


@pytest.mark.parametrize("name, k", [("difference-d6", 3), ("serf-g2", 0)])
def test_failed_listing_matches_exhaustive_run(monkeypatch, tmp_path, name, k):
    text = (CORPUS / f"{name}.txt").read_text()
    got = run_dropped(monkeypatch, text, k, tmp_path)
    none = text.replace("\n\n", "\ncriteria: none\n\n", 1)
    assert got == run_dropped(monkeypatch, none, k, tmp_path)
    code, out, err = got
    assert code == 3 and err == ""
    assert out.count("# FAILED") >= 6
    if name == "difference-d6":
        assert out == DIFFERENCE_WITHOUT_G4
