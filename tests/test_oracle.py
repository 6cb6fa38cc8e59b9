"""The oracle Buchberger against a field-arithmetic reference.

``_oracle_buchberger`` and ``_oracle_nf`` run in integer form with a heap,
on packed monomials, in P.  The reference below is the textbook module
version over S in field arithmetic and tuple monomials that they replaced:
monic generators, ``spoly``, and the largest pending term taken by a scan.
Run on generators of several levels in any interleaving, the reference's
generators of each level must be those of the oracle's run on that level,
element by element and in order, and the runs together must reduce the
same pairs.  The oracle's window, whose images it shifts packed, is checked
against the same images shifted on tuple monomials."""

import random
from fractions import Fraction

import pytest

from randgen import (
    random_free_homogeneous,
    random_mono,
    random_skew_homogeneous,
    random_weighted_poly,
)
from skewgb import engine
from skewgb.engine import (
    GBConfig,
    expand_window,
    oracle_gbasis_truncated,
    spoly,
)
from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.field import GF, common_denominator
from skewgb.letterplace import iota_prime
from skewgb.poly import (
    DEGLEX,
    LEX,
    MonoPacking,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from skewgb.skew import SkewElement, SkewMonomial
from skewgb.textio import parse_poly, parse_skew


def reference_nf(f: SkewElement, gens: list[SkewElement]):
    """Plain module normal form: first listed generator whose lm divides."""
    okey = f.ordering.key
    work = dict(f.terms)
    out = []
    while work:
        t = max(work, key=okey)
        c = work.pop(t)
        m, e = t
        red = None
        for g in gens:
            v = g.lm()
            if v.sdeg == e and mono_divides(v.mono, m):
                red = g
                break
        if red is None:
            out.append((t, c))
            continue
        q = mono_div(m, red.lm().mono)
        for (mm, i), cc in red.terms[1:]:
            t = SkewMonomial(mono_mul(q, mm), i)
            prev = work.get(t)
            if prev is None:
                work[t] = -c * cc
            else:
                s2 = prev - c * cc
                if s2:
                    work[t] = s2
                else:
                    del work[t]
    return SkewElement(out, f.ordering)


def reference_buchberger(gens: list[SkewElement], degree_cap=None):
    """Textbook module Buchberger in field arithmetic: no shifts, no
    criteria, FIFO pairs.  Returns (generators, number of reduced pairs)."""
    G: list[SkewElement] = []
    seen = set()
    for g in gens:
        if g.is_zero():
            continue
        g = g.monic()
        if g not in seen:
            seen.add(g)
            G.append(g)
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    k = reduced = 0
    while k < len(pairs):
        i, j = pairs[k]
        k += 1
        vi, vj = G[i].lm(), G[j].lm()
        if vi.sdeg != vj.sdeg:
            continue
        if degree_cap is not None:
            l = mono_lcm(vi.mono, vj.mono)
            if sum(e for _, e in l) > degree_cap:
                continue
        s = spoly(G[i], G[j])
        if s.is_zero():
            continue
        reduced += 1
        nf = reference_nf(s, G)
        if nf.is_zero():
            continue
        G.append(nf.monic())
        t = len(G) - 1
        pairs.extend((i2, t) for i2 in range(t))
    return G, reduced


def lifted(polys, level=0):
    """Polynomials of P as elements of S on one level."""
    return [SkewElement.of_poly(f, level) for f in polys]


def interleaved(rng, levels: dict):
    """The polynomials of ``levels``, {level: [polynomial]}, as elements of
    S on their levels, merged at random with each level's order kept."""
    queues = [lifted(fs, lvl) for lvl, fs in levels.items()]
    out = []
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return out


def oracle_buchberger(gens: list, cap=None):
    """The oracle's run on the polynomials gens of P, on one level with no
    shift, as monic polynomials: the distinct nonzero inputs first."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    P, runs = engine._oracle_runs([(g, ((0, (0,)),)) for g in gens],
                                  gens[0].ordering, None, cap)
    return engine._oracle_polys(P, runs[0], gens[0].lc())


def oracle_by_level(gens: list, cap=None):
    """``oracle_buchberger`` on each level of the nonzero elements of S
    gens, lifted back onto their levels, lowest level first."""
    levels = {}
    for g in gens:
        for lvl, f in g.parts:  # one part: the generators are on one level
            levels.setdefault(lvl, []).append(f)
    return [h for lvl in sorted(levels)
            for h in lifted(oracle_buchberger(levels[lvl], cap), lvl)]


def window(H, cfg):
    """The oracle's generators by level, {level: [polynomial of P]}: the
    images of ``expand_window``'s rows, shifted on tuple monomials."""
    levels = {}
    for p, slots in expand_window(H, cfg):
        for i, lvls in slots:
            for lvl in lvls:
                levels.setdefault(lvl, []).append(cfg.sigma.poly(p, i))
    return levels


def recoef(f, rng, field):
    """f with each coefficient c replaced: over Q by c times a random
    fraction (so leading coefficients are non-units and tails fractional),
    over Z/7 by its integer numerator mod 7."""
    if field == "Q":
        terms = [(m, c * Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                 for m, c in f.terms]
    else:
        terms = [(m, GF(7).of(c.numerator)) for m, c in f.terms]
    return type(f)(terms, f.ordering)


def random_input(rng, kind, field):
    """Window-expanded generators of a random problem as elements of S,
    their levels interleaved, and its degree cap; a scaled copy of the
    first one checks deduplication on scalar classes."""
    ordering = rng.choice((LEX, DEGLEX))
    fixed = rng.randint(1, 2) if ordering is LEX else None
    n = rng.randint(1, 2)
    cap = None
    if kind == "sigma":
        cfg = GBConfig(mode="sigma", degree_bound=3, ordering=ordering)
        H = [random_weighted_poly(rng, letters=2, max_weight=2, max_deg=2,
                                  terms=3, ordering=ordering,
                                  fixed_degree=fixed) for _ in range(n)]
    elif kind == "skew":
        cfg = GBConfig(mode="skew", degree_bound=3, ordering=ordering)
        H = [random_skew_homogeneous(rng, letters=2, max_place=1, max_deg=2,
                                     terms=2, max_sdeg=1, ordering=ordering,
                                     fixed_degree=fixed) for _ in range(n)]
    else:
        cap = 3
        cfg = GBConfig(mode="sigma", degree_bound=cap, ordering=ordering)
        H = [iota_prime(random_free_homogeneous(rng, 2, max_deg=2, terms=3),
                        ordering) for _ in range(n)]
    gens = interleaved(rng, window(H, cfg))
    gens = [recoef(g, rng, field) for g in gens]
    gens.append(gens[0].scale(GF(7).of(3) if field == "Z/7" else
                              Fraction(-5, 3)))
    return gens, cap


def reduced_pairs(monkeypatch):
    """Counts the calls of ``engine._oracle_nf``."""
    calls = []
    nf = engine._oracle_nf

    def counted(*args):
        calls.append(1)
        return nf(*args)

    monkeypatch.setattr(engine, "_oracle_nf", counted)
    return calls


@pytest.mark.parametrize("field", ["Q", "Z/7"])
@pytest.mark.parametrize("kind", ["sigma", "skew", "free"])
def test_oracle_matches_field_reference(kind, field, monkeypatch):
    rng = random.Random(f"{kind}-{field}")
    calls = reduced_pairs(monkeypatch)
    grew = 0
    for _ in range(40):
        gens, cap = random_input(rng, kind, field)
        ref, reduced = reference_buchberger(gens, cap)
        calls.clear()
        got = oracle_by_level(gens, cap)
        # A stable sort keeps each level's subsequence in order.
        want = sorted(ref, key=lambda g: g.lm().sdeg)
        assert repr([g.terms for g in got]) == repr([g.terms for g in want])
        assert len(calls) == reduced
        grew += len(ref) > len(gens) - 1
    assert grew >= 5  # the S-polynomials added generators


def oracle_by_window(H, cfg):
    """``oracle_buchberger`` on each level of the tuple-shifted window of
    H, lowest level first, in skew mode lifted onto the levels."""
    levels = window(H, cfg)
    return {lvl: [g if cfg.mode == "sigma" else SkewElement.of_poly(g, lvl)
                  for g in oracle_buchberger(levels[lvl])]
            for lvl in sorted(levels)}


@pytest.mark.parametrize("kind", ["sigma", "skew", "skew-power"])
def test_window_runs_share_one_packing(kind):
    # The oracle packs each input once, shifts it packed and runs every
    # level under one packing.  Its bases must be those of the same runs on
    # the tuple-shifted window, one level and one packing at a time, and
    # the lms that the checks read must be theirs.
    rng = random.Random(kind)
    sigma = PowerEndo(2) if kind == "skew-power" else ShiftEndo()
    for _ in range(40):
        ordering = rng.choice((LEX, DEGLEX))
        fixed = rng.randint(1, 2) if ordering is LEX else None
        n = rng.randint(1, 2)
        if kind == "sigma":
            cfg = GBConfig(mode="sigma", degree_bound=rng.randint(2, 4),
                           ordering=ordering)
            H = [random_weighted_poly(rng, letters=2, max_weight=2, max_deg=2,
                                      terms=3, ordering=ordering,
                                      fixed_degree=fixed) for _ in range(n)]
        else:
            cfg = GBConfig(mode="skew", degree_bound=3, ordering=ordering,
                           sigma=sigma)
            H = [random_skew_homogeneous(rng, letters=2, max_place=1,
                                         max_deg=2, terms=2, max_sdeg=1,
                                         ordering=ordering,
                                         fixed_degree=fixed)
                 for _ in range(n)]
        want = oracle_by_window(H, cfg)
        got = oracle_gbasis_truncated(H, cfg).basis
        assert repr([g.terms for g in got]) == \
            repr([g.terms for run in want.values() for g in run])
        lms = {lvl: [g.lm() if cfg.mode == "sigma" else g.lm().mono
                     for g in run] for lvl, run in want.items()}
        assert engine._oracle_lms(H, cfg) == lms


def test_an_image_past_the_first_width_widens_every_level():
    # Under x -> x**2 the image sigma**4(x(0)^9) = x(0)^144 outgrows the
    # first width; every level runs again under the wider packing.
    cfg = GBConfig(mode="skew", degree_bound=5, sigma=PowerEndo(2))
    H = [parse_skew("(x(1)^9 - 2*x(0)^9)*s"), parse_skew("x(1)*x(0)*s^2")]
    want = oracle_by_window(H, cfg)
    assert sorted(want) == [1, 2, 3, 4, 5]
    got = oracle_gbasis_truncated(H, cfg).basis
    assert repr([g.terms for g in got]) == \
        repr([g.terms for run in want.values() for g in run])
    assert max(v.mono[0][1] for g in got for v, _ in g.terms) >= 144


def test_oracle_scales_terms_that_left_before_a_non_unit_step():
    # The S-polynomial of a = 2*x(1)^2 + x(0)^2 and b = 2*x(2)*x(1) + x(1)^3
    # is x(2)*x(0)^2 - x(1)^4.  Its lead x(2)*x(0)^2 is irreducible and
    # leaves first; then x(1)^4 is reduced twice by a, whose leading
    # coefficient 2 is prime to the pending coefficients, so the term that
    # left must be scaled with the rest: the normal form is
    # x(2)*x(0)^2 - 1/4*x(0)^4.
    gens = [parse_poly(t)
            for t in ("2*x(1)^2 + x(0)^2", "2*x(2)*x(1) + x(1)^3")]
    got = oracle_buchberger(gens)
    assert got[2] == parse_poly("x(2)*x(0)^2 - 1/4*x(0)^4")
    assert lifted(got) == reference_buchberger(lifted(gens))[0]


@pytest.mark.parametrize("texts, aborted, reduced", [
    # x(0)^150 does not fit a field of the first width: packing the input
    # fails, and the whole run is made at the second width.
    (("x(1)^2 - x(0)^150", "x(1)*x(0) + 3*x(0)^2"), 0, 3),
    # The input fits, and the first reduced pair adds x(0)^101 - 9*x(0)^3.
    # The S-polynomial of x(1)^2 - x(0)^100 and that generator holds
    # x(0)^201, which the second call pops: the run starts over.
    (("x(1)^2 - x(0)^100", "x(1)*x(0) + 3*x(0)^2"), 2, 3),
    # Reducing x(2)*x(0)^100 by the second generator makes x(1)*x(0)^160,
    # whose field overflows; sums stay exact, so it cancels against the
    # same product of the next step and nothing starts over.
    (("x(1) - x(0)^100", "x(2) + x(1)*x(0)^60"), 0, 1),
])
def test_oracle_starts_over_when_an_overflowed_term_is_popped(
        texts, aborted, reduced, monkeypatch):
    gens = [parse_poly(t) for t in texts]
    calls = reduced_pairs(monkeypatch)
    got = lifted(oracle_buchberger(gens))
    ref = reference_buchberger(lifted(gens))
    assert repr([g.terms for g in got]) == repr([g.terms for g in ref[0]])
    assert ref[1] == reduced
    # The calls of the run that overflowed count too.
    assert len(calls) == aborted + reduced


def oracle_form(P, f: SkewElement):
    """f over the packing P as an oracle generator (``_oracle_form``)."""
    nums = common_denominator([c for _, c in f.terms])[1]
    return engine._oracle_form([(P.pack(v.mono), c)
                                for (v, _), c in zip(f.terms, nums)])


def first_divisor_case(texts):
    """Packing, elements and oracle forms of the polynomials ``texts`` on
    level 0, over letter x at places 0..2."""
    elements = [SkewElement.of_poly(parse_poly(t)) for t in texts]
    P = MonoPacking(1, 3, LEX, 8)
    return P, elements, [oracle_form(P, f) for f in elements]


def oracle_nf(P, f: SkewElement, gens: list, seen: dict):
    """``_oracle_nf`` of f against the oracle forms gens, through the
    first-divisor memo seen."""
    lm, a, tail = oracle_form(P, f)
    return engine._oracle_nf(dict(((lm, a),) + tail), gens, seen, P.guards)


def test_memo_resumes_at_a_generator_appended_later():
    # x(1)*x(0) is irreducible by x(2)^2, and the memo records that one
    # generator was scanned.  Once x(1) - x(0) is appended, the scan
    # resumes there and reduces the term to x(0)^2.
    P, (g1, g2), (f1, f2) = first_divisor_case(("x(2)^2 - x(0)^2",
                                                 "x(1) - x(0)"))
    t = SkewElement.of_poly(parse_poly("x(1)*x(0)"))
    gens, seen = [f1], {}
    assert oracle_nf(P, t, gens, seen) == oracle_form(P, t)
    assert seen == {P.pack(t.lm().mono): 1}
    gens.append(f2)
    got = oracle_nf(P, t, gens, seen)
    assert got == oracle_form(P, reference_nf(t, [g1, g2]))
    assert got == oracle_form(P, SkewElement.of_poly(parse_poly("x(0)^2")))
    assert seen[P.pack(t.lm().mono)] == 1


def test_memo_keeps_the_first_listed_divisor():
    # Both x(2) - x(0) and x(2)*x(1) - x(1)^2 divide x(2)*x(1), and their
    # reductions differ.  The first listed one reduces, also when the memo
    # has seen the term while neither was listed yet.
    P, elements, forms = first_divisor_case(("x(1)^3 - x(0)^3",
                                             "x(2) - x(0)",
                                             "x(2)*x(1) - x(1)^2"))
    t = SkewElement.of_poly(parse_poly("x(2)*x(1) + x(1)*x(0)"))
    seen = {}
    assert oracle_nf(P, t, forms[:1], seen) == oracle_form(P, t)
    want = oracle_form(P, SkewElement.of_poly(parse_poly("2*x(1)*x(0)")))
    for k in (2, 3, 3):
        got = oracle_nf(P, t, forms[:k], seen)
        assert got == oracle_form(P, reference_nf(t, elements[:k])) == want
    assert seen[P.pack(t.lm().mono)] == 1  # where the scan stopped


def test_memo_starts_empty_after_a_restart(monkeypatch):
    # The second reduced pair pops x(0)^201, past the first width: the run
    # starts over wider, and the memo starts over with it.
    gens = [parse_poly(t)
            for t in ("x(1)^2 - x(0)^100", "x(1)*x(0) + 3*x(0)^2")]
    calls = []
    nf = engine._oracle_nf

    def recorded(work, oracle_gens, seen, guards):
        calls.append((guards, dict(seen)))
        return nf(work, oracle_gens, seen, guards)

    monkeypatch.setattr(engine, "_oracle_nf", recorded)
    got = oracle_buchberger(gens)
    assert lifted(got) == reference_buchberger(lifted(gens))[0]
    widths = [guards for guards, _ in calls]
    restart = widths.index(widths[-1])
    assert 0 < restart < len(calls)
    assert calls[0][1] == {} and calls[restart][1] == {}
    assert calls[restart - 1][1]  # the dropped memo held entries


def reference_mutually_divisible(A, B):
    """The all-pairs comparison that the level index replaced."""
    return all(
        any(x.sdeg == y.sdeg and mono_divides(x.mono, y.mono) for x in X)
        for X, Y in ((B, A), (A, B)) for y in Y
    )


def test_leveled_divisibility_matches_all_pairs():
    rng = random.Random(85)

    def side():
        return {SkewMonomial(random_mono(rng, 2, 2, 2), rng.randrange(3))
                for _ in range(rng.randint(0, 5))}

    verdicts = []
    for _ in range(1500):
        A, B = side(), side()
        if rng.random() < 0.3 and A:
            B |= set(rng.sample(sorted(A), rng.randint(1, len(A))))
        got = engine._mutually_divisible_leveled(A, B)
        assert got == reference_mutually_divisible(A, B), (A, B)
        verdicts.append(got)
    assert 100 < sum(verdicts) < len(verdicts) - 100
    # The same monomial on another level is no divisor, either way round.
    m = parse_poly("x(1)*x(0)").lm()
    for A, B in (({SkewMonomial(m, 0)}, {SkewMonomial(m, 1)}),
                 ({SkewMonomial(m, 0), SkewMonomial(m, 1)},
                  {SkewMonomial(m, 1)})):
        assert not engine._mutually_divisible_leveled(A, B)
        assert not engine._mutually_divisible_leveled(B, A)
        assert not reference_mutually_divisible(A, B)
    assert engine._mutually_divisible_leveled(
        {SkewMonomial(m, 2)}, {SkewMonomial(m, 2)})
