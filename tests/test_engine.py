"""Tests for the completion engine: S-polynomials, normal forms, bases."""

import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from randgen import (
    random_free_homogeneous,
    random_skew_homogeneous,
    random_weighted_poly,
    skew_of_parts,
)
from skewgb import cli, engine, letterplace
from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.engine import (
    EndomorphismRejected,
    GBConfig,
    WindowExceeded,
    certify,
    interreduce,
    left_gbasis,
    lm_window_match,
    member,
    normal_form,
    oracle_gbasis_truncated,
    sigma_gbasis,
    skew_gbasis,
    spoly,
    spoly_poly,
)
from skewgb.field import QQ
from skewgb.poly import DEGLEX, LEX, MONO_ONE, Polynomial, mono, mono_lcm
from skewgb.skew import SkewElement, skew_mul
from skewgb.textio import parse_poly, parse_skew

SHIFT = ShiftEndo()

G1 = parse_poly("x(2)*x(0) - x(1)")
# The five basis elements the difference ideal of G1 settles into by d = 5.
FIVE = [
    parse_poly("x(2)*x(0) - x(1)"),
    parse_poly("x(3)^2*x(0) - x(3)"),
    parse_poly("x(4)*x(1) - x(3)*x(0)"),
    parse_poly("x(4)*x(3)*x(0) - x(4)"),
    parse_poly("x(5) - x(4)*x(0)"),
]


def test_spoly_poly_cancels_leading_terms():
    f = parse_poly("x(2)*x(0) - x(1)")
    g = parse_poly("x(2)*x(1) - x(0)")
    s = spoly_poly(f, g)
    assert s == parse_poly("x(0)^2 - x(1)^2")
    # lcm leading monomials cancel: the result is below the lcm.
    l = mono_lcm(f.lm(), g.lm())
    assert s.ordering.key(s.lm()) < s.ordering.key(l)
    # Both sides go through monic, so int coefficients stay exact, and so
    # does the S-polynomial in S.
    x1, x0 = mono((0, 1, 1)), mono((0, 0, 1))
    f = Polynomial([(x1, 2), (x0, 3)], LEX)
    g = Polynomial([(x1, 4), (MONO_ONE, 1)], LEX)
    for s in (spoly_poly(f, g),
              spoly(SkewElement.of_poly(f, 1), SkewElement.of_poly(g, 1))):
        assert [c for _, c in s.terms] == [Fraction(3, 2), Fraction(-1, 4)]
        assert all(type(c) is Fraction for _, c in s.terms)


def test_spoly_of_shifted_pair():
    # The classic first consequence of the difference relation.
    s = spoly_poly(G1, SHIFT.poly(G1, 2))
    assert s == parse_poly("-x(4)*x(1) + x(3)*x(0)")
    nf = normal_form(s, [G1], GBConfig(mode="sigma", degree_bound=6))
    assert nf == s  # irreducible against G1 alone
    assert nf.monic() == parse_poly("x(4)*x(1) - x(3)*x(0)")


def test_spoly_zero_raises():
    with pytest.raises(ValueError):
        spoly_poly(Polynomial.zero(LEX), G1)
    a = SkewElement.of_poly(G1, 1)
    b = SkewElement.of_poly(G1, 2)
    with pytest.raises(ValueError):
        spoly(a, b)  # leading s-degrees differ


def test_spoly_skew_random_cancellation():
    rng = random.Random(13)
    for _ in range(100):
        terms = [
            (mono((0, rng.randrange(3), 1), (0, rng.randrange(3), 1)),
             QQ.of(rng.randint(1, 4)))
            for _ in range(2)
        ]
        f = SkewElement.of_poly(Polynomial(terms, LEX), 1)
        g = SkewElement.of_poly(
            Polynomial([(mono((0, rng.randrange(3), 2)), QQ.of(3))], LEX), 1
        )
        s = spoly(f, g)
        if s.is_zero():
            continue
        l = mono_lcm(f.lm().mono, g.lm().mono)
        assert s.lm().sdeg == 1
        assert LEX.key(s.lm().mono) < LEX.key(l)


def test_sigma_basis_small_bounds():
    for d in (1, 2, 3):
        res = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=d))
        assert res.basis == [G1]


def test_sigma_basis_d4():
    res = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=4))
    assert res.basis == [FIVE[0], FIVE[1], FIVE[2], FIVE[3]]


def test_sigma_basis_saturates_at_d5():
    r5 = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=5))
    r6 = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6))
    assert r5.basis == FIVE
    assert r6.basis == FIVE
    assert r6.stats.considered > 0
    assert r6.stats.added >= 5


def test_sigma_basis_deterministic():
    a = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6))
    b = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6))
    assert a.basis == b.basis
    assert a.stats.as_text() == b.stats.as_text()


def test_criteria_do_not_change_the_basis():
    base = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6))
    for kw in (
        {"product_criterion": False},
        {"chain_criterion": False},
        {"product_criterion": False, "chain_criterion": False},
    ):
        r = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6, **kw))
        assert r.basis == base.basis
    bare = sigma_gbasis(
        [G1],
        GBConfig(
            mode="sigma",
            degree_bound=6,
            product_criterion=False,
            chain_criterion=False,
        ),
    )
    assert bare.stats.product_skipped == 0
    assert bare.stats.chain_skipped == 0


def test_unit_ideal_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = sigma_gbasis(
            [parse_poly("3")], GBConfig(mode="sigma", degree_bound=3)
        )
    assert len(r.basis) == 1
    assert r.basis[0] == Polynomial.constant(QQ.one, LEX)
    assert any("unit ideal" in str(w.message) for w in caught)


def test_empty_and_zero_input():
    cfg = GBConfig(mode="sigma", degree_bound=3)
    assert sigma_gbasis([], cfg).basis == []
    assert sigma_gbasis([Polynomial.zero(LEX)], cfg).basis == []


def test_duplicate_generators_collapse():
    cfg = GBConfig(mode="sigma", degree_bound=3)
    r = sigma_gbasis([G1, G1, G1.scale(QQ.of(7))], cfg)
    assert r.basis == [G1]


def test_normal_form_record_reconstructs():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    G = FIVE
    f = parse_poly("x(4)*x(2)*x(0) + x(3)*x(1)")
    record = []
    nf = normal_form(f, G, cfg, record=record)
    # f = sum of c * q * sigma^u(g_i) + nf, exactly.
    acc = nf
    for c, q, u, idx in record:
        acc = acc + SHIFT.poly(G[idx].monic(), u).mul_mono(q).scale(c)
    assert acc == f
    # The remainder has no term divisible by any shifted leading monomial.
    from skewgb.poly import mono_divides

    for m in nf.monomials():
        for g in G:
            lm = g.lm()
            for u in range(0, 7):
                if mono_divides(SHIFT.mono(lm, u), m):
                    raise AssertionError("reducible remainder")


def test_normal_form_idempotent():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    rng = random.Random(4)
    for _ in range(50):
        terms = [
            (mono((0, rng.randrange(6), 1), (0, rng.randrange(6), 1)),
             QQ.of(rng.randint(-3, 3)))
            for _ in range(3)
        ]
        f = Polynomial(terms, LEX)
        nf = normal_form(f, FIVE, cfg)
        assert normal_form(nf, FIVE, cfg) == nf


def test_member_inside_window():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    assert member(parse_poly("x(4)*x(1) - x(3)*x(0)"), FIVE, cfg)
    assert member(SHIFT.poly(G1, 3), FIVE, cfg)
    assert member(Polynomial.zero(LEX), FIVE, cfg)
    assert not member(parse_poly("x(1)"), FIVE, cfg)
    assert not member(parse_poly("x(3)*x(0)"), FIVE, cfg)
    with pytest.raises(WindowExceeded):
        member(parse_poly("x(7)"), FIVE, cfg)


def test_member_of_constants_in_sigma_mode():
    # A constant has no place, so it lies inside every weight window.
    cfg = GBConfig(mode="sigma", degree_bound=1)
    assert not member(parse_poly("3"), FIVE, cfg)
    assert not member(parse_poly("x(1) + 2"), FIVE, cfg)
    unit = [parse_poly("1")]
    assert member(parse_poly("3"), unit, cfg)
    assert member(parse_poly("x(1)*x(0) - 1"), unit, cfg)
    with pytest.raises(WindowExceeded):
        member(parse_poly("x(2) + 1"), FIVE, cfg)


def test_interreduce_is_idempotent_and_monic():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    raw = sigma_gbasis(
        [G1], GBConfig(mode="sigma", degree_bound=6, interreduce=False)
    ).basis
    red = interreduce(raw, cfg)
    assert red == FIVE
    assert interreduce(red, cfg) == red
    assert all(g.lc() == QQ.one for g in red)


def completed_tails(monkeypatch, solve, gens, cfg):
    """``unreduced_tail_terms`` of the entries of the one ``_complete`` run
    inside solve(gens, cfg) as that run returns them, with the config and
    packing that run saw (the embedded config in the free modes)."""
    runs = []
    complete = engine._complete

    def spy(seeds, ecfg, P, pair_filter=None):
        out = complete(seeds, ecfg, P, pair_filter)
        runs.append(unreduced_tail_terms(out[0], ecfg, P))
        return out

    monkeypatch.setattr(engine, "_complete", spy)
    solve(gens, cfg)
    monkeypatch.undo()
    (run,) = runs
    return run


def unreduced_tail_terms(entries, cfg, P):
    """(tail terms that the one-entry search of some entry finds, tail
    terms checked); each tail term is searched on its own s-degree, which
    the packed term carries (0 in sigma mode)."""
    finders = [engine._Divisors([other], cfg, P).smallest
               for other in entries]
    found = checked = 0
    for ent in entries:
        for m in ent.monos[1:]:
            found += any(hits(m) for hits in finders)
            checked += 1
    return found, checked


def random_problem(rng, mode):
    """Generators and config in the shapes of acceptance criterion 4."""
    n = rng.randint(1, 3)
    ordering = rng.choice((LEX, DEGLEX))
    fixed = rng.randint(1, 2) if ordering is LEX else None
    letters = rng.randint(1, 3)
    if mode == "sigma":
        gens = [random_weighted_poly(rng, letters, max_weight=3, max_deg=2,
                                     terms=3, ordering=ordering,
                                     fixed_degree=fixed) for _ in range(n)]
        return gens, GBConfig(mode, rng.randint(3, 5), ordering)
    if mode in ("skew", "left"):
        gens = [random_skew_homogeneous(rng, letters, max_place=2, max_deg=2,
                                        terms=3, max_sdeg=2, ordering=ordering,
                                        fixed_degree=fixed) for _ in range(n)]
        return gens, GBConfig(mode, rng.randint(3, 4), ordering)
    gens = [random_free_homogeneous(rng, max(letters, 2), max_deg=3, terms=4)
            for _ in range(n)]
    return gens, GBConfig(mode, rng.randint(3, 4), ordering)


SOLVERS = {"sigma": sigma_gbasis, "skew": skew_gbasis, "left": left_gbasis,
           "free": letterplace.free_gbasis, "free2": letterplace.free_gbasis2}


@pytest.mark.parametrize("mode", sorted(SOLVERS))
def test_completion_keeps_every_tail_reduced(monkeypatch, mode):
    rng = random.Random(31337)
    checked = 0
    for _ in range(40):
        gens, cfg = random_problem(rng, mode)
        found, n = completed_tails(monkeypatch, SOLVERS[mode], gens, cfg)
        assert found == 0, (gens, cfg)
        checked += n
    assert checked >= 50


def test_completion_keeps_c41w_tails_reduced(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "corpus" / "c41w-d6.txt"
    pf = cli.parse_problem(path.read_text())
    cfg = cli._config(pf, False)
    found, checked = completed_tails(monkeypatch, letterplace.free_gbasis,
                                     cli._parse_generators(pf, cfg), cfg)
    assert found == 0 and checked >= 100


def test_interreduce_constant_dominates_in_sigma_mode():
    cfg = GBConfig(mode="sigma", degree_bound=3)
    one = [parse_poly("1")]
    for texts in (["2", "x(1)*x(0) - 1"], ["x(1)*x(0) - 1", "x(3) + 2", "-3"]):
        assert interreduce([parse_poly(t) for t in texts], cfg) == one


def test_certify_accepts_and_rejects():
    cfg = GBConfig(mode="sigma", degree_bound=6)
    ok, failures = certify(FIVE, cfg)
    assert ok and failures == []
    broken = [FIVE[0], FIVE[1]]  # drop the rest: pairs no longer close
    ok, failures = certify(broken, cfg)
    assert not ok
    assert failures
    assert all("does not reduce to zero" in f for f in failures)
    # Left mode: spoly(g2, g1) = -x(0)^2 lies in s-degree 0, where no
    # leading monomial of the basis sits, so it is its own normal form.
    left = [parse_skew("x(1)*s + x(0)"), parse_skew("x(0)*x(1)*s")]
    ok, failures = certify(left, GBConfig(mode="left", degree_bound=3))
    assert not ok
    assert failures == ["pair (g2, s^0.g1) does not reduce to zero"]


def test_sigma_oracle_matches_on_weight_graded_input():
    # Every monomial of each generator carries the same weight, so the
    # expanded window ideal is shift-stable and the oracle must agree.
    gens = [
        parse_poly("x(2)*x(0) - x(2)"),
        parse_poly("x(1)^2 + x(1)*x(0)"),
    ]
    for d in (3, 4, 5):
        cfg = GBConfig(mode="sigma", degree_bound=d)
        res = sigma_gbasis(gens, cfg)
        assert lm_window_match(res.basis, gens, cfg)
        assert certify(res.basis, cfg)[0]


def test_sigma_oracle_gap_without_weight_grading():
    # The difference relation mixes weights 2 and 1.  The truncated basis
    # legitimately claims shift images the plain expansion ideal cannot
    # derive inside the window, so the two sides differ here -- the basis
    # itself still certifies.
    cfg = GBConfig(mode="sigma", degree_bound=6)
    res = sigma_gbasis([G1], cfg)
    assert not lm_window_match(res.basis, [G1], cfg)
    assert certify(res.basis, cfg)[0]


def test_sigma_oracle_maps_basis_lms_from_their_top_place():
    # Under deglex an element's lm can sit inside the weight window while
    # the element does not: x(0)^2 + x(3) at d = 2.  The comparison maps the
    # lm itself through the window, so such an element is never dropped.
    cfg = GBConfig(mode="sigma", degree_bound=2, ordering=DEGLEX)
    g = parse_poly("x(1) - x(0)", ordering=DEGLEX)
    res = sigma_gbasis([g], cfg)
    assert lm_window_match(res.basis, [g], cfg)
    spurious = parse_poly("x(0)^2 + x(3)", ordering=DEGLEX)
    assert not lm_window_match(res.basis + [spurious], [g], cfg)
    # The same rule counts x(2)^2, the lm of sigma^2 of x(0)^2 + x(1), on
    # the main side only, so that problem reads "differ" at d = 2 and 3.
    g = parse_poly("x(0)^2 + x(1)", ordering=DEGLEX)
    for d in (2, 3):
        cfg = GBConfig(mode="sigma", degree_bound=d, ordering=DEGLEX)
        res = sigma_gbasis([g], cfg)
        assert not lm_window_match(res.basis, [g], cfg)


def test_skew_route_reaches_the_same_ideal():
    h = parse_skew("(x(2)*x(0) - x(1))*s^2")
    cfg = GBConfig(mode="skew", degree_bound=6)
    res = skew_gbasis([h], cfg)
    assert len(res.basis) == 8
    levels = sorted(g.sdeg() for g in res.basis)
    assert levels == [2, 4, 4, 5, 5, 5, 6, 6]
    assert certify(res.basis, cfg)[0]
    # The two-sided expansion semantics is exactly the oracle's.
    assert lm_window_match(res.basis, [h], cfg)
    # The comparison rejects too: at d = 4, dropping any one of the three
    # basis elements, or adding x(0)*s^3, changes the lm-ideal.
    cfg4 = GBConfig(mode="skew", degree_bound=4)
    basis = skew_gbasis([h], cfg4).basis
    assert len(basis) == 3 and lm_window_match(basis, [h], cfg4)
    wrong = [basis[:i] + basis[i + 1:] for i in range(3)]
    wrong.append(basis + [parse_skew("x(0)*s^3")])
    for b in wrong:
        assert not lm_window_match(b, [h], cfg4)
    # Stripping the s-decorations and interreducing recovers the sigma basis.
    from skewgb.letterplace import pi

    proj = [pi(a) for a in res.basis]
    scfg = GBConfig(mode="sigma", degree_bound=6)
    assert interreduce(proj, scfg) == FIVE


def test_skew_rejects_s_inhomogeneous():
    bad = skew_of_parts({0: G1, 1: G1})
    with pytest.raises(ValueError):
        skew_gbasis([bad], GBConfig(mode="skew", degree_bound=3))


def test_skew_refuses_inhomogeneous_reducers_everywhere():
    # interreduce used to cut this down to x(1)*s^2, dropping a component
    # and changing the ideal, and certify passed it; normal_form refused it.
    bad = parse_skew("x(1)*s^2 + x(0)*s")
    cfg = GBConfig(mode="skew", degree_bound=3)
    with pytest.raises(ValueError, match="s-homogeneous"):
        interreduce([bad], cfg)
    with pytest.raises(ValueError, match="s-homogeneous"):
        certify([bad], cfg)
    with pytest.raises(ValueError, match="s-homogeneous"):
        normal_form(parse_skew("x(1)*s^2"), [bad], cfg)


def test_skew_constant_s_power_generator():
    # 2 s^2 is not a unit; everything at levels >= 2 collapses onto it.
    g1 = parse_skew("-x(2)^2 - 4", ordering=DEGLEX)
    g2 = parse_skew("2*s^2", ordering=DEGLEX)
    cfg = GBConfig(mode="skew", degree_bound=3, ordering=DEGLEX)
    res = skew_gbasis([g1, g2], cfg)
    assert res.basis == [
        SkewElement.of_poly(parse_poly("x(2)^2 + 4", ordering=DEGLEX), 0),
        SkewElement.of_poly(
            Polynomial.constant(QQ.one, DEGLEX), 2
        ),
    ]
    assert certify(res.basis, cfg)[0]
    assert lm_window_match(res.basis, [g1, g2], cfg)


def test_left_module_basis():
    f1 = parse_skew("x(1)*s - x(0)")
    f2 = parse_skew("x(2)*s^2 - x(0)")  # equals s*f1 + f1
    assert skew_mul(
        SkewElement.of_poly(Polynomial.constant(QQ.one, LEX), 1), f1, SHIFT
    ) + f1 == f2
    cfg = GBConfig(mode="left", degree_bound=4)
    res = left_gbasis([f1, f2], cfg)
    assert res.basis == [f1]
    assert member(f2, res.basis, cfg)
    assert not member(parse_skew("x(0)"), res.basis, cfg)
    assert certify(res.basis, cfg)[0]


def test_left_mode_mixed_layers():
    # Left mode needs no s-homogeneity.
    f = parse_skew("x(0)*s + x(1)")
    g = parse_skew("x(1)*s^2")
    cfg = GBConfig(mode="left", degree_bound=3)
    res = left_gbasis([f, g], cfg)
    assert certify(res.basis, cfg)[0]
    for h in (f, g):
        assert member(h, res.basis, cfg)


def test_left_mode_lifts_reducers_past_the_window():
    # Left mode reduces a term of s-degree e by s**u * g for u the s-degree
    # e less g's, which the window d does not bound.  Lifted to s**10, x(0)
    # is x(10)*s**10, which does not divide x(1)*s**10; lifted to s**5 it
    # does not divide x(0)*s**5, and it does divide x(5)*x(3)*s**5.
    cfg = GBConfig(mode="left", degree_bound=1)
    g, h = parse_skew("x(0)"), parse_skew("x(1)*s^10")
    assert interreduce([h, g], cfg) == [g, h]
    assert left_gbasis([g, h], cfg).basis == [g, h]
    record = []
    f = parse_skew("x(0)*s^5")
    assert normal_form(f, [g], cfg, record) == f
    assert record == []
    f = parse_skew("x(5)*x(3)*s^5 + x(1)")
    assert normal_form(f, [g], cfg, record) == parse_skew("x(1)")
    assert record == [(1, mono((0, 3, 1)), 5, 0)]


def test_overflow_error_of_a_pair_filter_propagates():
    # Only a monomial that outgrows its packing restarts a run.
    def veto(lcm, level):
        raise OverflowError("from the filter")

    cfg = GBConfig(mode="sigma", degree_bound=3)
    for run in (sigma_gbasis, certify):
        with pytest.raises(OverflowError, match="from the filter"):
            run([G1], cfg, veto)


def test_trace_lines():
    r = sigma_gbasis(
        [G1], GBConfig(mode="sigma", degree_bound=3, trace=True)
    )
    assert r.trace == ["(g1, sigma^1.g1)@3 skip:product"]
    r6 = sigma_gbasis(
        [G1], GBConfig(mode="sigma", degree_bound=6, trace=True)
    )
    assert any("-> g" in line for line in r6.trace)
    assert any("-> 0" in line for line in r6.trace)
    quiet = sigma_gbasis([G1], GBConfig(mode="sigma", degree_bound=6))
    assert quiet.trace is None


def test_mode_validation():
    with pytest.raises(ValueError):
        sigma_gbasis([G1], GBConfig(mode="skew", degree_bound=3))
    with pytest.raises(ValueError):
        skew_gbasis([], GBConfig(mode="sigma", degree_bound=3))
    with pytest.raises(ValueError):
        left_gbasis([], GBConfig(mode="sigma", degree_bound=3))
    with pytest.raises(ValueError):
        GBConfig(mode="nonsense", degree_bound=3)
    with pytest.raises(ValueError):
        GBConfig(mode="sigma", degree_bound=0)


def test_weight_truncation_refuses_non_shift():
    cfg = GBConfig(mode="sigma", degree_bound=4, sigma=PowerEndo(2))
    with pytest.raises(EndomorphismRejected):
        sigma_gbasis([G1], cfg)
    # The level-truncated modes accept any divisibility-compatible map.
    h = SkewElement.of_poly(parse_poly("x(0)^2 - x(1)"), 1)
    kcfg = GBConfig(mode="skew", degree_bound=3, sigma=PowerEndo(2))
    res = skew_gbasis([h], kcfg)
    assert certify(res.basis, kcfg)[0]


def test_oracle_left_mode_unsupported():
    with pytest.raises(ValueError):
        oracle_gbasis_truncated([], GBConfig(mode="left", degree_bound=3))


def test_product_criterion_only_in_weight_mode():
    assert GBConfig(mode="sigma", degree_bound=3).product_enabled()
    assert not GBConfig(mode="skew", degree_bound=3).product_enabled()
    assert not GBConfig(mode="left", degree_bound=3).product_enabled()
    off = GBConfig(mode="sigma", degree_bound=3, product_criterion=False)
    assert not off.product_enabled()
    run = skew_gbasis(
        [parse_skew("(x(2)*x(0) - x(1))*s^2")],
        GBConfig(mode="skew", degree_bound=5),
    )
    assert run.stats.product_skipped == 0
