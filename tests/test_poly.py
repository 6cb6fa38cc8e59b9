"""Tests for monomials, orderings, weights, and polynomials."""

import random
from fractions import Fraction

import pytest

from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.field import GF, QQ
from skewgb.poly import (
    DEGLEX,
    LEX,
    MONO_ONE,
    ORDERINGS,
    LETTER_BITS,
    PLACE_STEP,
    MonoPacking,
    Polynomial,
    mono,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_from_pairs,
    mono_gcd,
    mono_lcm,
    mono_mul,
    mono_pow,
    top_place,
    var_code,
)

sys_rng = random.Random(20240811)


def weight(m):
    """The weight of a monomial, with the monomial 1 mapped below 0."""
    w = top_place(m)
    return -1 if w is None else w


def compare(m, n, ordering):
    """Three-way comparison through the ordering's sort key."""
    km, kn = ordering.key(m), ordering.key(n)
    return (km > kn) - (km < kn)


def rand_mono(rng, letters=3, max_place=4, max_len=4):
    pairs = []
    for _ in range(rng.randint(0, max_len)):
        pairs.append((var_code(rng.randrange(letters),
                               rng.randrange(max_place + 1)), 1))
    return mono_from_pairs(pairs)


def test_var_code_round_trip():
    for letter in (0, 1, 2, 500):
        for place in (0, 1, 7, 100):
            c = var_code(letter, place)
            assert c & (PLACE_STEP - 1) == letter
            assert c >> LETTER_BITS == place


def test_codes_sort_place_major():
    # Any place difference dominates any letter difference.
    assert var_code(500, 1) < var_code(0, 2)
    assert var_code(0, 1) < var_code(1, 1)
    assert var_code(1, 0) < var_code(0, 1)
    assert var_code(0, 3) - var_code(0, 2) == PLACE_STEP


def test_mono_is_sorted_descending():
    m = mono((0, 0, 1), (0, 2, 1), (1, 1, 2))
    codes = [c for c, _ in m]
    assert codes == sorted(codes, reverse=True)
    assert m[0][0] == var_code(0, 2)
    assert mono() == MONO_ONE


def test_mono_merges_exponents():
    m = mono((0, 1, 1), (0, 1, 2))
    assert m == mono((0, 1, 3))
    assert mono_degree(m) == 3


def test_mono_mul_div():
    x20 = mono((0, 2, 1), (0, 0, 1))  # x(2)*x(0)
    x1 = mono((0, 1, 1))
    p = mono_mul(x20, x1)
    assert p == mono((0, 2, 1), (0, 1, 1), (0, 0, 1))
    assert mono_divides(x1, p)
    assert not mono_divides(p, x1)
    assert mono_div(p, x1) == x20
    assert mono_div(p, p) == MONO_ONE
    assert mono_mul(p, MONO_ONE) == p
    with pytest.raises(ValueError):
        mono_div(x1, x20)


def test_mono_gcd_lcm_concrete():
    a = mono((0, 2, 2), (1, 1, 1))  # x(2)^2 y(1)
    b = mono((0, 2, 1), (1, 0, 3))  # x(2) y(0)^3
    assert mono_gcd(a, b) == mono((0, 2, 1))
    assert mono_lcm(a, b) == mono((0, 2, 2), (1, 1, 1), (1, 0, 3))
    assert mono_coprime(mono((0, 1, 1)), mono((1, 0, 2)))
    assert not mono_coprime(a, b)


def test_mono_pow():
    m = mono((0, 1, 2), (1, 0, 1))
    assert mono_pow(m, 0) == MONO_ONE
    assert mono_pow(m, 1) == m
    assert mono_pow(m, 3) == mono((0, 1, 6), (1, 0, 3))


def test_mono_gcd_lcm_properties():
    rng = random.Random(42)
    for _ in range(300):
        a = rand_mono(rng)
        b = rand_mono(rng)
        g = mono_gcd(a, b)
        l = mono_lcm(a, b)
        assert mono_divides(g, a) and mono_divides(g, b)
        assert mono_divides(a, l) and mono_divides(b, l)
        assert mono_mul(g, l) == mono_mul(a, b)
        assert mono_coprime(a, b) == (g == MONO_ONE)


def test_weight_bottom():
    # The monomial 1 has no place at all, which is not place 0.
    assert top_place(MONO_ONE) is None
    assert top_place(mono((1, 0, 2))) == 0
    assert weight(MONO_ONE) < weight(mono((1, 0, 2)))


def test_weight_of_products():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_mono(rng)
        b = rand_mono(rng)
        assert weight(mono_mul(a, b)) == max(weight(a), weight(b))
    assert weight(mono((2, 5, 1))) == 5
    assert top_place(mono((0, 3, 1), (0, 0, 4))) == 3


def test_lex_is_place_major():
    # The highest-place variable decides before anything else.
    a = mono((0, 2, 1))           # x(2)
    b = mono((0, 1, 3), (1, 0, 2))  # x(1)^3 y(0)^2, much bigger degree
    assert compare(a, b, LEX) > 0
    assert compare(b, a, LEX) < 0
    assert compare(a, a, LEX) == 0
    # Same top place: letter decides.
    assert compare(mono((1, 1, 1)), mono((0, 1, 1)), LEX) > 0
    # Same variable: exponent decides.
    assert compare(mono((0, 1, 2)), mono((0, 1, 1)), LEX) > 0


def test_deglex_is_degree_major():
    a = mono((0, 2, 1))
    b = mono((0, 1, 1), (1, 0, 1))
    assert compare(a, b, DEGLEX) < 0  # degree 1 < 2
    assert compare(a, b, LEX) > 0
    c = mono((0, 2, 1), (0, 0, 1))
    assert compare(c, b, DEGLEX) > 0  # ties on degree, lex breaks


def test_ordering_axioms_small():
    rng = random.Random(11)
    for ordering in (LEX, DEGLEX):
        for _ in range(300):
            a = rand_mono(rng)
            b = rand_mono(rng)
            c = rand_mono(rng)
            # 1 is minimal and multiplication is strictly compatible.
            if a != MONO_ONE:
                assert compare(MONO_ONE, a, ordering) < 0
            if compare(a, b, ordering) < 0:
                assert compare(mono_mul(a, c), mono_mul(b, c), ordering) < 0
            # Total: exactly one of <, =, > holds.
            assert (compare(a, b, ordering) == 0) == (a == b)


def test_orderings_registry():
    assert ORDERINGS["lex"] is LEX
    assert ORDERINGS["deglex"] is DEGLEX
    assert LEX != DEGLEX
    assert LEX == ORDERINGS["lex"]


def poly_of(terms, ordering=LEX, field=QQ):
    return Polynomial([(m, field.of(c)) for m, c in terms], ordering)


def test_polynomial_construction_merges():
    x1 = mono((0, 1, 1))
    f = poly_of([(x1, 1), (x1, 2), (MONO_ONE, 1)])
    assert f.coeff(x1) == 3
    assert f.coeff(MONO_ONE) == 1
    assert f.coeff(mono((0, 2, 1))) is None
    g = poly_of([(x1, 1), (x1, -1)])
    assert g.is_zero()
    assert not g
    assert g == Polynomial.zero(LEX)


def test_polynomial_terms_descend():
    f = poly_of([(MONO_ONE, 1), (mono((0, 2, 1)), 1), (mono((0, 1, 1)), 1)])
    ms = f.monomials()
    for i in range(len(ms) - 1):
        assert compare(ms[i], ms[i + 1], LEX) > 0
    assert f.lm() == mono((0, 2, 1))
    assert f.lc() == 1
    assert f.leading() == (1, mono((0, 2, 1)))


def test_polynomial_leading_of_zero():
    z = Polynomial.zero(LEX)
    with pytest.raises(ValueError):
        z.lm()
    with pytest.raises(ValueError):
        z.lc()
    assert z.degree() == -1
    assert z.weight() is None


def test_polynomial_arithmetic():
    x20 = mono((0, 2, 1), (0, 0, 1))
    x1 = mono((0, 1, 1))
    f = poly_of([(x20, 1), (x1, -1)])  # x(2)x(0) - x(1)
    g = poly_of([(x1, 1)])
    assert f + g == poly_of([(x20, 1)])
    assert f - f == Polynomial.zero(LEX)
    assert -f == poly_of([(x20, -1), (x1, 1)])
    assert f.scale(QQ.of(2)) == poly_of([(x20, 2), (x1, -2)])
    assert f.scale(QQ.zero).is_zero()
    assert f.tail() == poly_of([(x1, -1)])
    h = f.mul_mono(x1)
    assert h == poly_of([(mono_mul(x20, x1), 1), (mono_pow(x1, 2), -1)])


def test_polynomial_product():
    x0 = mono((0, 0, 1))
    x1 = mono((0, 1, 1))
    f = poly_of([(x1, 1), (x0, 1)])
    g = poly_of([(x1, 1), (x0, -1)])
    assert f * g == poly_of([(mono_pow(x1, 2), 1), (mono_pow(x0, 2), -1)])
    z = Polynomial.zero(LEX)
    assert (f * z).is_zero()


def test_polynomial_monic():
    x1 = mono((0, 1, 1))
    f = poly_of([(x1, -2), (MONO_ONE, 4)])
    m = f.monic()
    assert m.lc() == 1
    assert m == poly_of([(x1, 1), (MONO_ONE, -2)])
    F = GF(5)
    g = Polynomial([(x1, F.of(3)), (MONO_ONE, F.of(1))], LEX)
    assert g.monic().lc() == F.one
    assert g.monic() == Polynomial([(x1, F.of(1)), (MONO_ONE, F.of(2))], LEX)
    # int coefficients are exact rationals: monic gives Fractions, no floats
    x0 = mono((0, 0, 1))
    h = Polynomial([(x1, 2), (x0, 3)], LEX).monic()
    assert h.terms == ((x1, 1), (x0, Fraction(3, 2)))
    assert all(type(c) is Fraction for _, c in h.terms)


def test_polynomial_degree_weight():
    f = poly_of([(mono((0, 3, 1), (0, 0, 2)), 1), (mono((0, 1, 1)), 5)])
    assert f.degree() == 3
    assert f.weight() == 3
    assert poly_of([(MONO_ONE, 2)]).weight() is None
    # A constant term lies below every place.
    assert poly_of([(mono((0, 0, 1)), 1), (MONO_ONE, 2)]).weight() == 0


def test_polynomial_ordering_mismatch():
    f = poly_of([(mono((0, 1, 1)), 1)], LEX)
    g = poly_of([(mono((0, 1, 1)), 1)], DEGLEX)
    with pytest.raises(ValueError):
        f + g


def test_polynomial_constant():
    c = Polynomial.constant(QQ.of(3), LEX)
    assert c.lm() == MONO_ONE
    assert c.lc() == 3
    assert Polynomial.constant(QQ.zero, LEX).is_zero()


def test_polynomial_hash_eq():
    x1 = mono((0, 1, 1))
    a = poly_of([(x1, 1), (MONO_ONE, -1)])
    b = poly_of([(MONO_ONE, -1), (x1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != poly_of([(x1, 1)])


def test_polynomial_add_random():
    rng = random.Random(99)
    for ordering in (LEX, DEGLEX):
        for _ in range(100):
            f = poly_of(
                [(rand_mono(rng), rng.randint(-4, 4)) for _ in range(3)],
                ordering,
            )
            g = poly_of(
                [(rand_mono(rng), rng.randint(-4, 4)) for _ in range(3)],
                ordering,
            )
            assert f + g == g + f
            assert (f + g) - g == f
            assert f + Polynomial.zero(ordering) == f
            if f and g:
                fg = f * g
                if fg:
                    assert fg.lm() == mono_mul(f.lm(), g.lm())


def rand_exp_mono(rng, letters=3, max_place=5, max_exp=3):
    """A random monomial with up to four variables of exponent <= max_exp."""
    return mono_from_pairs(
        (var_code(rng.randrange(letters), rng.randrange(max_place + 1)),
         rng.randint(1, max_exp)) for _ in range(rng.randint(0, 4)))


@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_packing_round_trips_and_realizes_the_ordering(ordering):
    rng = random.Random(f"pack-{ordering}")
    P = MonoPacking(3, 6, ordering, 8)
    monos = [rand_exp_mono(rng) for _ in range(400)]
    for m in monos:
        assert P.unpack(P.pack(m)) == m
        assert P.degree(P.pack(m)) == mono_degree(m)
    for _ in range(3000):
        m, n = rng.choice(monos), rng.choice(monos)
        pm, pn = P.pack(m), P.pack(n)
        assert (pm > pn) - (pm < pn) == compare(m, n, ordering)


@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_packed_arithmetic_matches_the_tuple_monomials(ordering):
    rng = random.Random(f"packops-{ordering}")
    P = MonoPacking(3, 6, ordering, 8)
    G = P.guards
    divisible = 0
    for _ in range(2000):
        m, n = rand_exp_mono(rng), rand_exp_mono(rng)
        if rng.random() < 0.3:
            n = mono_mul(m, n)
        pm, pn = P.pack(m), P.pack(n)
        assert pm + pn == P.pack(mono_mul(m, n))
        assert P.lcm(pm, pn) == P.pack(mono_lcm(m, n))
        divides = ((pn | G) - pm) & G == G
        assert divides == mono_divides(m, n)
        if divides:
            divisible += 1
            assert pn - pm == P.pack(mono_div(n, m))
    assert divisible > 400


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_a_field_that_outgrows_its_width_sets_its_guard(width, ordering):
    x, y = var_code(0, 0), var_code(1, 2)
    P = MonoPacking(2, 3, ordering, width)
    top = (1 << (width - 1)) - 1
    full = P.pack(((x, top),))
    assert full & P.guards == 0
    assert P.unpack(full) == ((x, top),)
    assert (full + P.pack(((x, 1),))) >> (P.base_shift + width - 1) & 1
    with pytest.raises(OverflowError):
        P.pack(((x, top + 1),))
    with pytest.raises(OverflowError):  # each field fits, the degree not
        P.lcm(full, P.pack(((y, 1),)))


@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_packed_monomials_agree_with_the_tuple_functions(ordering):
    # The engine's packing (spare places, a term's s-degree on top) against
    # the tuple functions: the order, the product, divisibility, lcm,
    # coprimality (the lcm is the product), the round trip.
    rng = random.Random(f"packprops-{ordering}")
    P = MonoPacking(3, 6, ordering, 8, spare=6, skew=True)
    G = P.guards
    for _ in range(3000):
        m, n = rand_exp_mono(rng), rand_exp_mono(rng)
        if rng.random() < 0.3:
            n = mono_mul(m, n)
        pm, pn = P.pack(m), P.pack(n)
        assert P.unpack(pm) == m and pm & P.over == 0
        assert (pm > pn) - (pm < pn) == compare(m, n, ordering)
        assert P.unpack(pm + pn) == mono_mul(m, n)
        assert P.degree(pm + pn) == mono_degree(m) + mono_degree(n)
        l = P.lcm(pm, pn)
        assert P.unpack(l) == mono_lcm(m, n)
        assert P.degree(l) == mono_degree(mono_lcm(m, n))
        assert (l == pm + pn) == mono_coprime(m, n)
        assert (((pn | G) - pm) & G == G) == mono_divides(m, n)
        # A term of S compares s-degree first and keeps its s-degree.
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        tm, tn = pm | i << P.sdeg_shift, pn | j << P.sdeg_shift
        assert (tm > tn) - (tm < tn) == ((i, pm) > (j, pn)) - ((i, pm) < (j, pn))
        assert P.unpack(tm) == m and tm & P.over == 0


@pytest.mark.parametrize("sigma", [ShiftEndo(), PowerEndo(2), PowerEndo(3)],
                         ids=repr)
@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_packed_sigma_agrees_with_sigma_mono(sigma, ordering):
    # sigma**u on packed monomials is sigma.mono; an image past the places
    # in range lands in the spare places, where the mask test sees it and
    # no divisibility test passes; a power image whose degree outgrows the
    # field raises instead of carrying into the next field.
    rng = random.Random(f"packsigma-{sigma}-{ordering}")
    P = MonoPacking(3, 6, ordering, 8, spare=6, sigma=sigma, skew=True)
    G = P.guards
    outside = overflowed = 0
    for _ in range(2000):
        m, u = rand_exp_mono(rng), rng.randint(0, 3)
        img, pm = sigma.mono(m, u), P.pack(m)
        if mono_degree(img) > 127:
            with pytest.raises(OverflowError):
                P.sigma(pm, u)
            overflowed += 1
            continue
        pi = P.sigma(pm, u)
        assert P.unpack(pi) == img and P.degree(pi) == mono_degree(img)
        assert P.sigma(pm | 2 << P.sdeg_shift, u) == pi | 2 << P.sdeg_shift
        if img and img[0][0] >> LETTER_BITS >= 6:
            assert pi & P.over
            n = P.pack(rand_exp_mono(rng))
            assert ((n | G) - pi) & G != G
            outside += 1
        else:
            assert pi == P.pack(img)
    if isinstance(sigma, ShiftEndo):
        assert outside > 100
    elif sigma.e == 3:
        assert overflowed > 10


@pytest.mark.parametrize("ordering", [LEX, DEGLEX])
def test_an_outgrown_exponent_and_an_outside_place_are_detected(ordering):
    # One mask test, ``over``, catches both on a product or a shift.
    P = MonoPacking(2, 3, ordering, 8, spare=3, sigma=ShiftEndo())
    x0, x2, y2 = var_code(0, 0), var_code(0, 2), var_code(1, 2)
    big = P.pack(((x0, 100),))
    assert big & P.over == 0
    assert (big + P.pack(((x0, 27),))) & P.over == 0
    assert (big + P.pack(((x0, 28),))) & P.over  # the field's guard
    assert (big + P.pack(((x2, 28),))) & P.over  # the degree's guard
    top = P.pack(((y2, 1),))
    assert P.sigma(top, 0) & P.over == 0
    assert P.sigma(top, 1) & P.over  # place 3 is outside
    for bad in (((var_code(0, 3), 1),), ((var_code(2, 0), 1),),
                ((x0, 128),), ((x0, 64), (x2, 64))):
        with pytest.raises(OverflowError):
            P.pack(bad)
