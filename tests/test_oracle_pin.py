"""Pinned oracle bases and ``--oracle`` verdicts.

For each generated problem the digests cover the oracle's basis
(``engine.oracle_gbasis_truncated``, level by level, the repr of each
element's terms) and the verdict of the CLI's ``--oracle`` check
(``cli._oracle_check``).  The free modes' oracle is the one
``letterplace.free_oracle_match`` runs: on the generators' images in P, at
the degree bound, with the pairs capped at that degree.

The inputs: the first 300 problems of the benchmark's seeded generator,
left mode skipped (it has no oracle), over Q and over Z/101, and the skew
problems among them also under the power map x -> x**2.  The problems are
read from ``bench/gen.py`` without changing it.
"""

import hashlib
import importlib.util
import warnings
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from skewgb import cli, engine
from skewgb.letterplace import iota_prime

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_gen",
                                               ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

PINS = {
    "Q": ("9a81aec68637f19eb54b0ed9a0403d9a3f45438715cf9edb8177e411e373ee26",
          "5adb6be8abd0245c0c311e0e561efdffcffba43feac9a01c032ef42aebdf1716"),
    "gf101": (
        "f9919c67962b50a2e29ff9855cc4bf97e700aa10f037a37f9a6b89039bafb8af",
        "5adb6be8abd0245c0c311e0e561efdffcffba43feac9a01c032ef42aebdf1716"),
    "power2": (
        "39deceebb43a1d9416ba30ebb158ed8d619425498885b91a76c5dbc4d21e2d9b",
        "70d36dedb311176c76ecd7f78d72340dbbaa364d23923239c8fda5b8c6ead201"),
}
VARIANTS = {"Q": (None, ("sigma", "skew", "free", "free2")),
            "gf101": ("field: 101", ("sigma", "skew", "free", "free2")),
            "power2": ("endo: power 2", ("skew",))}


def oracle_basis(pf, cfg, gens):
    """The oracle's basis for the problem, as ``--oracle`` computes it."""
    if pf.mode in ("free", "free2"):
        ecfg = replace(cfg, mode="sigma")
        return engine.oracle_gbasis_truncated(
            [iota_prime(h, cfg.ordering) for h in gens], ecfg,
            degree_cap=cfg.degree_bound).basis
    return engine.oracle_gbasis_truncated(gens, cfg).basis


def digests(texts):
    """(digest of the oracle bases, digest of the verdicts, checks)."""
    bases, verdicts, checks = hashlib.sha256(), hashlib.sha256(), 0
    for text in texts:
        pf = cli.parse_problem(text)
        cfg = cli._config(pf, False)
        gens = cli._parse_generators(pf, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            basis = cli._run_problem(pf, cfg, gens)[3]
        for g in oracle_basis(pf, cfg, gens):
            bases.update(f"{g.terms!r}\n".encode())
        bases.update(b"--\n")
        verdicts.update(b"1" if cli._oracle_check(pf, cfg, gens, basis)
                        else b"0")
        checks += 1
    return bases.hexdigest(), verdicts.hexdigest(), checks


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_oracle_bases_and_verdicts_are_pinned(variant):
    header, modes = VARIANTS[variant]
    texts = [text if header is None
             else text.replace("\n\n", f"\n{header}\n\n", 1)
             for mode, text in islice(gen.stream(1), 300) if mode in modes]
    bases, verdicts, checks = digests(texts)
    assert checks == len(texts) and checks >= 60
    assert (bases, verdicts) == PINS[variant]
