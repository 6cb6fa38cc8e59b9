"""Tests for monomial endomorphisms and their compatibility properties."""

import random

import pytest

from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.field import QQ
from skewgb.poly import (
    DEGLEX,
    LEX,
    MONO_ONE,
    Polynomial,
    mono,
    mono_divides,
    mono_from_pairs,
    mono_gcd,
    mono_lcm,
    mono_mul,
    top_place,
    var_code,
)

SHIFT = ShiftEndo()


def rand_mono(rng, letters=3, max_place=3, max_len=4):
    pairs = [
        (var_code(rng.randrange(letters), rng.randrange(max_place + 1)), 1)
        for _ in range(rng.randint(0, max_len))
    ]
    return mono_from_pairs(pairs)


def test_shift_on_variables():
    assert SHIFT.image(var_code(0, 0)) == mono((0, 1, 1))
    assert SHIFT.image(var_code(2, 5)) == mono((2, 6, 1))
    m = mono((0, 2, 1), (1, 0, 3))
    assert SHIFT.mono(m) == mono((0, 3, 1), (1, 1, 3))
    assert SHIFT.mono(m, 4) == mono((0, 6, 1), (1, 4, 3))
    assert SHIFT.mono(m, 0) == m
    assert SHIFT.mono(MONO_ONE, 3) == MONO_ONE


def test_shift_raises_weight_by_one():
    rng = random.Random(3)
    for _ in range(200):
        m = rand_mono(rng)
        if m == MONO_ONE:
            assert SHIFT.mono(m).__eq__(MONO_ONE)
            assert top_place(SHIFT.mono(m)) is None
        else:
            assert top_place(SHIFT.mono(m)) == top_place(m) + 1
            assert top_place(SHIFT.mono(m, 3)) == top_place(m) + 3


def test_shift_on_polynomials():
    f = Polynomial(
        [(mono((0, 2, 1), (0, 0, 1)), QQ.of(1)), (mono((0, 1, 1)), QQ.of(-1))],
        LEX,
    )
    sf = SHIFT.poly(f)
    assert sf == Polynomial(
        [(mono((0, 3, 1), (0, 1, 1)), QQ.of(1)), (mono((0, 2, 1)), QQ.of(-1))],
        LEX,
    )
    assert SHIFT.poly(f, 0) == f
    # Shifting is a ring homomorphism.
    g = Polynomial([(mono((0, 0, 2)), QQ.of(2))], LEX)
    assert SHIFT.poly(f * g, 2) == SHIFT.poly(f, 2) * SHIFT.poly(g, 2)
    assert SHIFT.poly(f + g, 2) == SHIFT.poly(f, 2) + SHIFT.poly(g, 2)


def test_shift_is_injective_on_samples():
    rng = random.Random(8)
    seen = {}
    for _ in range(300):
        m = rand_mono(rng)
        img = SHIFT.mono(m, 2)
        assert seen.setdefault(img, m) == m


def test_power_endo():
    sq = PowerEndo(2)
    assert sq.image(var_code(0, 1)) == ((var_code(0, 1), 2),)
    m = mono((0, 1, 1), (1, 0, 3))
    assert sq.mono(m) == mono((0, 1, 2), (1, 0, 6))
    assert sq.mono(m, 3) == mono((0, 1, 8), (1, 0, 24))
    assert sq.mono(MONO_ONE, 2) == MONO_ONE
    cube = PowerEndo(3)
    assert cube.mono(m) == mono((0, 1, 3), (1, 0, 9))
    with pytest.raises(ValueError):
        PowerEndo(1)
    with pytest.raises(ValueError):
        sq.mono(m, -1)


def test_div_compat_shift_power():
    assert SHIFT.div_compatible
    assert PowerEndo(2).div_compatible
    rng = random.Random(17)
    for sigma in (SHIFT, PowerEndo(2)):
        for _ in range(200):
            a = rand_mono(rng)
            b = rand_mono(rng)
            if mono_divides(a, b):
                assert mono_divides(sigma.mono(a), sigma.mono(b))
            assert sigma.mono(mono_gcd(a, b)) == mono_gcd(
                sigma.mono(a), sigma.mono(b)
            )
            assert sigma.mono(mono_lcm(a, b)) == mono_lcm(
                sigma.mono(a), sigma.mono(b)
            )
            assert sigma.mono(mono_mul(a, b)) == mono_mul(
                sigma.mono(a), sigma.mono(b)
            )


def test_order_compat_shift_power():
    rng = random.Random(23)
    for sigma in (SHIFT, PowerEndo(3)):
        for ordering in (LEX, DEGLEX):
            key = ordering.key
            for _ in range(200):
                a = rand_mono(rng)
                b = rand_mono(rng)
                ka, kb = key(a), key(b)
                sa, sb = key(sigma.mono(a)), key(sigma.mono(b))
                assert (ka < kb) == (sa < sb) and (ka > kb) == (sa > sb)
                # Expansivity: m <= sigma(m).
                assert ka <= sa


def test_endo_equality():
    assert ShiftEndo() == ShiftEndo()
    assert PowerEndo(2) == PowerEndo(2)
    assert PowerEndo(2) != PowerEndo(3)
    assert ShiftEndo() != PowerEndo(2)
    assert len({ShiftEndo(), ShiftEndo(), PowerEndo(2)}) == 2
