"""Tests for skew elements of S = P[s; sigma] and their arithmetic."""

import random

import pytest

from randgen import skew_of_parts
from skewgb.endo import ShiftEndo
from skewgb.engine import GBConfig, normal_form
from skewgb.field import QQ
from skewgb.poly import (
    DEGLEX,
    LEX,
    MONO_ONE,
    Polynomial,
    mono,
    mono_from_pairs,
    mono_mul,
    var_code,
)
from skewgb.skew import SkewElement, SkewMonomial, shift_left, skew_mul
from skewgb.textio import parse_free, parse_skew

SHIFT = ShiftEndo()


def p(terms, ordering=LEX):
    return Polynomial([(m, QQ.of(c)) for m, c in terms], ordering)


def monomial(v: SkewMonomial) -> SkewElement:
    """The one-term element of S with monomial v and coefficient 1."""
    return SkewElement.of_poly(p([(v.mono, 1)]), v.sdeg)


def rand_poly(rng, ordering=LEX, letters=2, max_place=2, max_len=3, terms=3):
    tt = []
    for _ in range(rng.randint(0, terms)):
        pairs = [
            (var_code(rng.randrange(letters), rng.randrange(max_place + 1)), 1)
            for _ in range(rng.randint(0, max_len))
        ]
        tt.append((mono_from_pairs(pairs), QQ.of(rng.randint(-3, 3))))
    return Polynomial(tt, ordering)


def rand_skew(rng, ordering=LEX, max_sdeg=2):
    parts = {}
    for i in range(rng.randint(0, max_sdeg) + 1):
        f = rand_poly(rng, ordering)
        if f:
            parts[i] = f
    return skew_of_parts(parts, ordering)


def test_construction_normalizes():
    f = p([(mono((0, 1, 1)), 1)])
    a = skew_of_parts({0: f, 2: f, 1: Polynomial.zero(LEX)})
    assert [i for i, _ in a.parts] == [2, 0]  # descending, zeros dropped
    b = skew_of_parts([(2, f), (0, f)])
    assert a == b
    assert skew_of_parts({}).is_zero()
    assert SkewElement.zero() == skew_of_parts({})
    assert not SkewElement.zero()


def test_of_poly():
    f = p([(mono((0, 1, 1)), 2)])
    a = SkewElement.of_poly(f, 3)
    assert a.parts == ((3, f),)
    assert a.sdeg() == 3
    assert a.is_s_homogeneous()
    assert SkewElement.of_poly(Polynomial.zero(LEX), 5).is_zero()


def test_s_homogeneity():
    f = p([(mono((0, 1, 1)), 1)])
    assert skew_of_parts({1: f}).is_s_homogeneous()
    assert not skew_of_parts({0: f, 1: f}).is_s_homogeneous()
    assert SkewElement.zero().is_s_homogeneous()


def test_leading_data_is_sdeg_major():
    low = p([(mono((0, 3, 1), (0, 0, 2)), 5)])   # big in P
    high = p([(mono((0, 0, 1)), -2)])            # small in P
    a = skew_of_parts({0: low, 1: high})
    assert a.lm() == SkewMonomial(mono((0, 0, 1)), 1)
    assert a.lc() == -2
    assert a.lt() == skew_of_parts({1: p([(mono((0, 0, 1)), -2)])})
    assert a.sdeg() == 1
    with pytest.raises(ValueError):
        SkewElement.zero().lm()


def test_component():
    f = p([(mono((0, 1, 1)), 1)])
    g = p([(mono((0, 0, 1)), 1)])
    a = skew_of_parts({0: f, 2: g})
    assert a.component(0) == f
    assert a.component(2) == g
    assert a.component(1) is None


def test_addition_by_layer():
    f = p([(mono((0, 1, 1)), 1)])
    g = p([(mono((0, 0, 1)), 1)])
    a = skew_of_parts({0: f, 1: g})
    b = skew_of_parts({1: -g, 2: f})
    c = a + b
    assert c == skew_of_parts({0: f, 2: f})
    assert a - a == SkewElement.zero()
    assert -a + a == SkewElement.zero()
    assert a.scale(QQ.of(3)) == skew_of_parts({0: f.scale(QQ.of(3)),
                                             1: g.scale(QQ.of(3))})
    assert a.scale(QQ.zero).is_zero()


def test_s_times_poly_twists():
    # s * f = sigma(f) * s, checked through the product.
    f = p([(mono((0, 0, 1)), 1)])  # x(0)
    s = SkewElement.of_poly(p([(MONO_ONE, 1)]), 1)
    sf = skew_mul(s, SkewElement.of_poly(f), SHIFT)
    assert sf == SkewElement.of_poly(p([(mono((0, 1, 1)), 1)]), 1)
    fs = skew_mul(SkewElement.of_poly(f), s, SHIFT)
    assert fs == SkewElement.of_poly(f, 1)
    assert sf != fs


def test_skew_mono_mul():
    # (m s^i)(n s^j) = m sigma^i(n) s^(i+j), on one-term elements.
    v = SkewMonomial(mono((0, 1, 1)), 2)
    w = SkewMonomial(mono((0, 0, 1)), 1)
    vw = skew_mul(monomial(v), monomial(w), SHIFT)
    assert vw == monomial(SkewMonomial(mono((0, 2, 1), (0, 1, 1)), 3))
    wv = skew_mul(monomial(w), monomial(v), SHIFT)
    assert wv == monomial(SkewMonomial(mono((0, 2, 1), (0, 0, 1)), 3))


def test_shift_left_right():
    f = p([(mono((0, 1, 1)), 1), (MONO_ONE, 4)])
    a = SkewElement.of_poly(f, 1)
    la = shift_left(2, a, SHIFT)
    assert la == SkewElement.of_poly(p([(mono((0, 3, 1)), 1), (MONO_ONE, 4)]), 3)
    assert shift_left(0, a, SHIFT) == a
    with pytest.raises(ValueError):
        shift_left(-1, a, SHIFT)
    # s^k a equals the product with the bare power of s; a s^k only raises
    # the s-degree.
    sk = SkewElement.of_poly(p([(MONO_ONE, 1)]), 2)
    assert skew_mul(sk, a, SHIFT) == shift_left(2, a, SHIFT)
    assert skew_mul(a, sk, SHIFT) == SkewElement.of_poly(f, 3)


def test_skew_mul_associative_random():
    rng = random.Random(31)
    for _ in range(150):
        a = rand_skew(rng)
        b = rand_skew(rng)
        c = rand_skew(rng)
        left = skew_mul(skew_mul(a, b, SHIFT), c, SHIFT)
        right = skew_mul(a, skew_mul(b, c, SHIFT), SHIFT)
        assert left == right
        assert skew_mul(a, b + c, SHIFT) == (
            skew_mul(a, b, SHIFT) + skew_mul(a, c, SHIFT)
        )


def test_skew_mul_lm_multiplicative():
    rng = random.Random(57)
    for ordering in (LEX, DEGLEX):
        for _ in range(150):
            a = rand_skew(rng, ordering)
            b = rand_skew(rng, ordering)
            if a.is_zero() or b.is_zero():
                continue
            ab = skew_mul(a, b, SHIFT)
            assert not ab.is_zero()
            va, vb = a.lm(), b.lm()
            assert ab.lm() == SkewMonomial(
                mono_mul(va.mono, SHIFT.mono(vb.mono, va.sdeg)),
                va.sdeg + vb.sdeg,
            )
            assert ab.lc() == a.lc() * b.lc()


def test_monic():
    f = p([(mono((0, 1, 1)), -2), (MONO_ONE, 6)])
    a = skew_of_parts({1: f, 0: p([(MONO_ONE, 8)])})
    m = a.monic()
    assert m.lc() == 1
    assert m == skew_of_parts({1: p([(mono((0, 1, 1)), 1), (MONO_ONE, -3)]),
                             0: p([(MONO_ONE, -4)])})


def test_left_divides():
    # x(0) s divides x(2)x(1) s^2 on the left: (x(2) s)(x(0) s) = w.  The
    # left-mode reducer search finds it; the converse and a miss fail.
    v = SkewMonomial(mono((0, 0, 1)), 1)
    w = SkewMonomial(mono((0, 2, 1), (0, 1, 1)), 2)
    q = SkewMonomial(mono((0, 2, 1)), 1)
    assert skew_mul(monomial(q), monomial(v), SHIFT) == monomial(w)
    cfg = GBConfig(mode="left", degree_bound=2)
    assert not normal_form(monomial(w), [monomial(v)], cfg)
    assert normal_form(monomial(v), [monomial(w)], cfg) == monomial(v)
    miss = SkewMonomial(mono((1, 0, 1)), 1)
    assert normal_form(monomial(w), [monomial(miss)], cfg) == monomial(w)


def test_two_sided_divides():
    # x(2)x(0) s^3 = x(0) s (x(1) s) s: the two-sided reducer search finds
    # the witness with left shift 1 and cofactor x(0).
    v = SkewMonomial(mono((0, 1, 1)), 1)      # x(1) s
    w = SkewMonomial(mono((0, 2, 1), (0, 0, 1)), 3)  # x(2)x(0) s^3
    cfg = GBConfig(mode="skew", degree_bound=3)
    record = []
    assert not normal_form(monomial(w), [monomial(v)], cfg, record=record)
    assert record == [(1, mono((0, 0, 1)), 1, 0)]
    s = monomial(SkewMonomial(MONO_ONE, 1))
    qsi = monomial(SkewMonomial(mono((0, 0, 1)), 1))
    assert skew_mul(skew_mul(qsi, monomial(v), SHIFT), s, SHIFT) == monomial(w)
    assert normal_form(monomial(v), [monomial(w)], cfg) == monomial(v)
    # x(5) s^2 is not reachable from x(1) s by shifts 0..1.
    far = monomial(SkewMonomial(mono((0, 5, 1)), 2))
    assert normal_form(far, [monomial(v)], cfg) == far


def test_two_sided_prefers_smallest_left_shift():
    # x(1) divides x(2)x(1) s^2 at left shift 0 (cofactor x(2)) and at
    # left shift 1 (cofactor x(1)); the search takes shift 0.
    v = SkewMonomial(mono((0, 1, 1)), 0)
    w = SkewMonomial(mono((0, 2, 1), (0, 1, 1)), 2)
    record = []
    cfg = GBConfig(mode="skew", degree_bound=2)
    assert not normal_form(monomial(w), [monomial(v)], cfg, record=record)
    assert record == [(1, mono((0, 2, 1)), 0, 0)]


def test_hash_and_repr():
    f = p([(mono((0, 1, 1)), 1)])
    a = skew_of_parts({1: f})
    b = skew_of_parts([(1, f)])
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert "s" in repr(a)


def test_term_lists_keep_only_their_rings_methods():
    # S and the free algebra share P's term arithmetic, not its monomials:
    # words have no places, and S has no product without an endomorphism.
    w = parse_free("x*y + y")
    assert not isinstance(w, Polynomial)
    assert not hasattr(w, "weight") and not hasattr(w, "mul_mono")
    a = parse_skew("x(1)*s + x(0)")
    b = parse_skew("x(0)*s^2")
    assert not isinstance(a, Polynomial)
    for name in ("weight", "degree", "constant"):
        assert not hasattr(a, name)
    with pytest.raises(TypeError):
        a * b
