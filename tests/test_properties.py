"""Bulk randomized invariant suites: 10^4 cases per algebraic law, and a
few hundred solved inputs for the graded correspondence.

The suites are plain functions listed in ``SUITES``. Each ``test_``
function and acceptance criterion 8 run them through ``run_once``, so a
suite that already passed in this process is not run a second time, and
criterion 8 bounds the summed run time of the suites.
"""

import random
import time
import warnings
from dataclasses import replace

from randgen import random_weighted_poly, skew_of_parts
from skewgb.endo import ShiftEndo
from skewgb.engine import (
    GBConfig,
    interreduce,
    lm_window_match,
    sigma_gbasis,
    skew_gbasis,
    spoly,
    spoly_poly,
)
from skewgb.field import QQ
from skewgb.letterplace import (
    FreePolynomial,
    iota,
    iota_inv,
    iota_prime,
    iota_prime_inv,
    iota_word,
    pi,
    word_of_mono,
)
from skewgb.poly import (
    DEGLEX,
    LEX,
    MONO_ONE,
    Polynomial,
    mono,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_mul,
    top_place,
)
from skewgb.skew import SkewElement, SkewMonomial, shift_left, skew_mul

N = 10_000
SIGMA = ShiftEndo()


def rand_mono(rng):
    k = rng.randint(0, 3)
    return mono(
        *((rng.randrange(3), rng.randrange(3), rng.randint(1, 2))
          for _ in range(k))
    )


def rand_poly(rng, ordering, terms=2):
    f = Polynomial(
        [(rand_mono(rng), QQ.of(rng.randint(-3, 3)))
         for _ in range(rng.randint(1, terms))],
        ordering,
    )
    return f


def rand_skew(rng, ordering):
    parts = {}
    for _ in range(rng.randint(1, 2)):
        f = rand_poly(rng, ordering)
        if not f.is_zero():
            parts[rng.randint(0, 2)] = f
    return skew_of_parts(parts, ordering)


def ordering_axioms_bulk():
    rng = random.Random(81)
    for i in range(N):
        ordering = LEX if i % 2 else DEGLEX
        a, b, c = rand_mono(rng), rand_mono(rng), rand_mono(rng)
        ka, kb = ordering.key(a), ordering.key(b)
        assert (ka < kb) + (ka > kb) + (a == b) == 1
        assert ordering.key(MONO_ONE) <= ka
        if ka < kb:
            assert ordering.key(mono_mul(a, c)) < ordering.key(mono_mul(b, c))
        assert ka <= ordering.key(mono_mul(a, c))


def gcd_lcm_shift_compat_bulk():
    rng = random.Random(82)
    for _ in range(N):
        m, n = rand_mono(rng), rand_mono(rng)
        k = rng.randint(0, 3)
        g, l = mono_gcd(m, n), mono_lcm(m, n)
        assert mono_mul(g, l) == mono_mul(m, n)
        assert mono_divides(g, m) and mono_divides(g, n)
        assert mono_divides(m, l) and mono_divides(n, l)
        assert mono_gcd(SIGMA.mono(m, k), SIGMA.mono(n, k)) == SIGMA.mono(g, k)
        assert mono_lcm(SIGMA.mono(m, k), SIGMA.mono(n, k)) == SIGMA.mono(l, k)
        assert SIGMA.mono(mono_mul(m, n), k) == mono_mul(
            SIGMA.mono(m, k), SIGMA.mono(n, k)
        )
        assert mono_divides(m, n) == mono_divides(
            SIGMA.mono(m, k), SIGMA.mono(n, k)
        )
        if mono_divides(m, n):
            assert mono_mul(m, mono_div(n, m)) == n


def skew_mul_associativity_and_lm_bulk():
    rng = random.Random(83)
    for i in range(N):
        ordering = LEX if i % 2 else DEGLEX
        a = rand_skew(rng, ordering)
        b = rand_skew(rng, ordering)
        c = rand_skew(rng, ordering)
        ab = skew_mul(a, b, SIGMA)
        assert skew_mul(ab, c, SIGMA) == skew_mul(a, skew_mul(b, c, SIGMA), SIGMA)
        if not (a.is_zero() or b.is_zero()):
            va, vb = a.lm(), b.lm()
            vab = ab.lm()
            assert vab.sdeg == va.sdeg + vb.sdeg
            assert vab.mono == mono_mul(va.mono, SIGMA.mono(vb.mono, va.sdeg))
            assert ab.lc() == a.lc() * b.lc()


def spoly_identities_bulk():
    rng = random.Random(84)
    for i in range(N):
        ordering = LEX if i % 2 else DEGLEX
        f = rand_poly(rng, ordering, terms=3)
        g = rand_poly(rng, ordering, terms=3)
        if f.is_zero() or g.is_zero():
            continue
        sp = spoly_poly(f, g)
        l = mono_lcm(f.lm(), g.lm())
        if not sp.is_zero():
            assert ordering.key(sp.lm()) < ordering.key(l)
        assert SIGMA.poly(sp, 2) == spoly_poly(SIGMA.poly(f, 2), SIGMA.poly(g, 2))
        assert spoly_poly(f, f).is_zero()
        k = rng.randint(0, 2)
        sf = SkewElement.of_poly(f, k)
        sg = SkewElement.of_poly(g, k)
        ssp = spoly(sf, sg)
        assert shift_left(1, ssp, SIGMA) == spoly(
            shift_left(1, sf, SIGMA), shift_left(1, sg, SIGMA)
        )
        if not ssp.is_zero():
            v = ssp.lm()
            assert (v.sdeg, ordering.key(v.mono)) < (k, ordering.key(l))


def iota_homomorphism_bulk():
    rng = random.Random(85)
    for _ in range(N):
        u = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        iu, iv = iota_word(u), iota_word(v)
        assert iota_word(u + v) == SkewMonomial(
            mono_mul(iu.mono, SIGMA.mono(iv.mono, iu.sdeg)), iu.sdeg + iv.sdeg
        )
        assert iu.sdeg == len(u)
        if u:
            assert word_of_mono(iu.mono) == u
        f = FreePolynomial(
            [(u, QQ.of(rng.randint(-3, 3))), (v, QQ.of(rng.randint(-3, 3)))]
        )
        assert iota_inv(iota(f)) == f
        assert iota_prime_inv(iota_prime(f)) == f
        if not f.is_zero():
            assert iota(f).lm() == iota_word(f.lm())


def below_zero(w):
    """A weight, with None (the monomial 1, a constant) mapped below 0."""
    return -1 if w is None else w


def weight_lemmas_bulk():
    rng = random.Random(86)
    assert top_place(MONO_ONE) is None
    for i in range(N):
        ordering = LEX if i % 2 else DEGLEX
        m, n = rand_mono(rng), rand_mono(rng)
        k = rng.randint(0, 3)
        wm, wn = below_zero(top_place(m)), below_zero(top_place(n))
        assert below_zero(top_place(mono_mul(m, n))) == max(wm, wn)
        if m != MONO_ONE:
            assert top_place(SIGMA.mono(m, k)) == k + top_place(m)
        assert wm < 10**9
        f = rand_poly(rng, ordering)
        g = rand_poly(rng, ordering)
        if not (f.is_zero() or g.is_zero()):
            wf, wg = below_zero(f.weight()), below_zero(g.weight())
            assert below_zero((f * g).weight()) == max(wf, wg)


def graded_correspondence_bulk():
    """The paper's correspondence between graded difference ideals of P and
    two-sided ideals of S: a weight-homogeneous h lifts to h * s**w, w its
    weight, and the truncated two-sided basis of the lifts, projected by
    ``pi`` and interreduced, is the difference ideal's truncated basis.

    The two routes share the kernel and ``_window_pairs``, but not the
    entries' window weights (lm top place against s-degree), the reducer
    searches or the criteria.  On graded input the two weights agree, so a
    change that moves both routes' window alike cannot show in their
    comparison: the sigma basis is also checked against the oracle, which
    shares no window code, and its weights against d.

    The paper covers only graded ideals, so inhomogeneous inputs are left
    out.  Lifted the same way, some of them give two different bases, and
    which route is right there is not settled: at d = 2 under lex, sigma
    mode reaches the unit ideal from 2*x(2)*x(0) + 3, 3*x(1)^2 - 2, where
    the skew route gives x(0)^2 - 27/8, x(2) + 4/9*x(0); and from
    x(2)*y(0) + 4*x(2), x(2)*x(1) + 5*x(1)*x(0) sigma mode holds 5
    elements, among them y(1)*x(1)*x(0) + 4*x(1)*x(0), and the skew route
    3."""
    rng = random.Random(87)
    several = 0
    for i in range(200):
        ordering = LEX if i % 2 else DEGLEX
        cfg = GBConfig(mode="sigma", degree_bound=rng.randint(2, 4),
                       ordering=ordering)
        H = [random_weighted_poly(rng, letters=rng.randint(1, 2),
                                  max_weight=2, max_deg=2, ordering=ordering)
             for _ in range(rng.randint(1, 2))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a unit ideal warns on its way
            res = sigma_gbasis(H, cfg)
            lifted = skew_gbasis([SkewElement.of_poly(h, h.weight())
                                  for h in H], replace(cfg, mode="skew"))
            got = interreduce([pi(a) for a in lifted.basis], cfg)
        assert got == res.basis, (H, cfg.degree_bound, ordering.kind)
        assert lm_window_match(res.basis, H, cfg)
        assert all(below_zero(g.weight()) <= cfg.degree_bound
                   for g in res.basis)
        several += len(res.basis) > 1
    assert several > 50


SUITES = [
    ordering_axioms_bulk,
    gcd_lcm_shift_compat_bulk,
    skew_mul_associativity_and_lm_bulk,
    spoly_identities_bulk,
    iota_homomorphism_bulk,
    weight_lemmas_bulk,
    graded_correspondence_bulk,
]

_SECONDS = {}


def run_once(suite):
    """Run ``suite`` unless it already passed in this process; return its run time."""
    if suite not in _SECONDS:
        t0 = time.perf_counter()
        suite()
        _SECONDS[suite] = time.perf_counter() - t0
    return _SECONDS[suite]


def test_ordering_axioms_bulk():
    run_once(ordering_axioms_bulk)


def test_gcd_lcm_shift_compat_bulk():
    run_once(gcd_lcm_shift_compat_bulk)


def test_skew_mul_associativity_and_lm_bulk():
    run_once(skew_mul_associativity_and_lm_bulk)


def test_spoly_identities_bulk():
    run_once(spoly_identities_bulk)


def test_iota_homomorphism_bulk():
    run_once(iota_homomorphism_bulk)


def test_weight_lemmas_bulk():
    run_once(weight_lemmas_bulk)


def test_graded_correspondence_bulk():
    run_once(graded_correspondence_bulk)
