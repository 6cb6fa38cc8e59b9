"""Acceptance gate: one timed test per shipping criterion."""

import random
import time
from dataclasses import replace
from functools import lru_cache

from randgen import (
    random_free_homogeneous,
    random_skew_homogeneous,
    random_weighted_poly,
)
from skewgb.endo import ShiftEndo
from skewgb.engine import (
    GBConfig,
    certify,
    interreduce,
    lm_window_match,
    normal_form,
    sigma_gbasis,
    skew_gbasis,
    spoly_poly,
)
from skewgb.letterplace import (
    certify_free,
    free_gbasis,
    free_gbasis2,
    free_oracle_match,
    pi,
)
from skewgb.poly import DEGLEX, LEX
from skewgb.skew import SkewElement
from skewgb.textio import parse_free, parse_poly

SHIFT = ShiftEndo()
G1 = parse_poly("x(2)*x(0) - x(1)")
FIVE = [
    parse_poly("x(2)*x(0) - x(1)"),
    parse_poly("x(3)^2*x(0) - x(3)"),
    parse_poly("x(4)*x(1) - x(3)*x(0)"),
    parse_poly("x(4)*x(3)*x(0) - x(4)"),
    parse_poly("x(5) - x(4)*x(0)"),
]

C41W_NAMES = ("x1", "x2", "x3", "x4")
C41W = [
    "x1*x2 + x2*x1 + x3*x4 + x4*x3",
    "x1*x3 + x3*x1 + x2*x4 + x4*x2",
    "x1*x4 + x4*x1 + x2*x3 + x3*x2",
    "x1^2 + x2^2 + x3^2 + x4^2",
    "x1^2 + x2*x1 + x3*x1 + x4*x1",
    "x1*x2 + x2^2 + x3*x2 + x4*x2",
]


@lru_cache(maxsize=None)
def _criterion1():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    t0 = time.perf_counter()
    res = sigma_gbasis([G1], cfg)
    cert = certify(res.basis, cfg)
    return res, cert, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _criterion3():
    cfg = GBConfig(mode="skew", degree_bound=6)
    t0 = time.perf_counter()
    res = skew_gbasis([SkewElement.of_poly(G1, 2)], cfg)
    cert = certify(res.basis, cfg)
    projected = interreduce(
        [pi(a) for a in res.basis], GBConfig(mode="sigma", degree_bound=6)
    )
    return projected, cert, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _criterion4():
    """60 random instances per mode; returns per-mode certificates."""
    rng = random.Random(777)
    certs = []
    free_instances = []
    t0 = time.perf_counter()

    for _ in range(60):
        n = rng.randint(1, 2)
        d = rng.randint(3, 5)
        ordering = rng.choice((LEX, DEGLEX))
        fixed = rng.randint(1, 2) if ordering is LEX else None
        gens = [
            random_weighted_poly(
                rng, letters=rng.randint(1, 3), max_weight=3, max_deg=2,
                terms=2, ordering=ordering, fixed_degree=fixed,
            )
            for _ in range(n)
        ]
        cfg = GBConfig(mode="sigma", degree_bound=d, ordering=ordering)
        res = sigma_gbasis(gens, cfg)
        assert lm_window_match(res.basis, gens, cfg)
        certs.append(("sigma", certify(res.basis, cfg)))

    for _ in range(60):
        n = rng.randint(1, 2)
        d = rng.randint(3, 4)
        ordering = rng.choice((LEX, DEGLEX))
        fixed = rng.randint(1, 2) if ordering is LEX else None
        gens = [
            random_skew_homogeneous(
                rng, letters=rng.randint(1, 3), max_place=2, max_deg=2,
                terms=2, max_sdeg=2, ordering=ordering, fixed_degree=fixed,
            )
            for _ in range(n)
        ]
        cfg = GBConfig(mode="skew", degree_bound=d, ordering=ordering)
        res = skew_gbasis(gens, cfg)
        assert lm_window_match(res.basis, gens, cfg)
        certs.append(("skew", certify(res.basis, cfg)))

    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(3, 5)
        letters = rng.randint(2, 3)
        gens = [
            random_free_homogeneous(rng, letters, max_deg=3, terms=3)
            for _ in range(n)
        ]
        cfg = GBConfig(mode="free", degree_bound=d)
        basis = free_gbasis(gens, cfg)
        assert free_oracle_match(basis, gens, cfg)
        certs.append(("free", certify_free(basis, cfg)))
        free_instances.append((gens, cfg, basis))

    return certs, free_instances, time.perf_counter() - t0


def test_criterion_1_difference_basis_d6():
    res, _, dt = _criterion1()
    assert res.basis == FIVE
    assert {f.lc() for f in res.basis} == {FIVE[0].lc()}
    assert dt < 1.0
    print(f"ACCEPT 1: PASS ({dt:.3f}s; exact 5-element basis)")


def test_criterion_2_first_consequence():
    t0 = time.perf_counter()
    sp = spoly_poly(G1, SHIFT.poly(G1, 2))
    nf = normal_form(sp, [G1], GBConfig(mode="sigma", degree_bound=6))
    dt = time.perf_counter() - t0
    assert nf.monic() == FIVE[2]
    assert dt < 0.1
    print(f"ACCEPT 2: PASS ({dt:.3f}s; reduction lands on the g2 relation)")


def test_criterion_3_skew_route_same_ideal():
    projected, _, dt = _criterion3()
    assert projected == FIVE
    assert dt < 2.0
    print(f"ACCEPT 3: PASS ({dt:.3f}s; projection interreduces to the same set)")


def test_criterion_4_oracle_equivalence_random():
    certs, _, dt = _criterion4()
    assert len(certs) == 180
    assert dt < 60.0
    print(f"ACCEPT 4: PASS ({dt:.3f}s; 60 instances per mode match the oracle)")


def test_criterion_5_posthoc_certification():
    labels = []
    _, (ok1, fails1), _ = _criterion1()
    labels.append(("sigma d6", ok1, fails1))
    _, (ok3, fails3), _ = _criterion3()
    labels.append(("skew d6", ok3, fails3))
    certs, _, _ = _criterion4()
    for mode, (ok, fails) in certs:
        labels.append((mode, ok, fails))
    bad = [(name, fails) for name, ok, fails in labels if not ok]
    assert bad == []
    print(f"ACCEPT 5: PASS ({len(labels)} bases certified pair-exhaustively)")


def test_criterion_6_free_backends_agree():
    _, free_instances, _ = _criterion4()
    for gens, cfg, basis in free_instances:
        assert free_gbasis2(gens, replace(cfg, mode="free2")) == basis
    comm = [parse_free("y*x - x*y")]
    cfg = GBConfig(mode="free", degree_bound=4)
    normalized = [parse_free("x*y - y*x")]  # monic under the word order
    assert free_gbasis(comm, cfg) == normalized
    assert free_gbasis2(comm, replace(cfg, mode="free2")) == normalized
    print(f"ACCEPT 6: PASS ({len(free_instances)} instances + commutator)")


def test_criterion_7_benchmark_scale():
    gens = [parse_free(t, names=C41W_NAMES) for t in C41W]
    cfg = GBConfig(mode="free", degree_bound=6, ordering=DEGLEX)
    t0 = time.perf_counter()
    basis = free_gbasis(gens, cfg)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    assert free_oracle_match(basis, gens, cfg, compare_bound=4)
    print(
        f"ACCEPT 7: PASS ({dt:.3f}s; {len(basis)} elements, lm-ideal matches "
        "the oracle through degree 4; the reference count 35 is informational)"
    )


def test_criterion_8_invariant_suites():
    from test_properties import SUITES, run_once

    dt = sum(run_once(suite) for suite in SUITES)
    assert dt < 30.0
    print(f"ACCEPT 8: PASS ({dt:.3f}s; {len(SUITES)} suites)")
