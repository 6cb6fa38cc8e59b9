"""Tests for the coefficient fields."""

import random
from fractions import Fraction

import pytest

from skewgb.field import GF, QQ, ModInt, PrimeField, Rationals, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert is_prime(104729)
    assert not is_prime(104729 * 104729)
    # Carmichael numbers fool the Fermat test but not this one.
    assert not is_prime(561)
    assert not is_prime(41041)


def test_is_prime_needs_base_41():
    # The smallest strong pseudoprime to every prime base up to 37.
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


def test_prime_field_refuses_moduli_past_the_exact_bound():
    # A strong pseudoprime to all 13 bases: is_prime is not exact from here.
    n = 1287836182261 * 2575672364521
    assert n == 3317044064679887385961981
    with pytest.raises(ValueError, match="too large"):
        PrimeField(n)
    with pytest.raises(ValueError, match="not prime"):
        GF(318665857834031151167461)


def test_rationals_basic():
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.of(3) == Fraction(3)
    assert QQ.of("2/7") == Fraction(2, 7)
    assert QQ.of(Fraction(-5, 3)) == Fraction(-5, 3)
    assert QQ == Rationals()
    with pytest.raises(TypeError):
        QQ.of(1.5)


def test_modint_arithmetic():
    F = GF(7)
    a = F.of(3)
    b = F.of(5)
    assert a + b == F.of(1)
    assert a - b == F.of(5)
    assert a * b == F.of(1)
    assert -a == F.of(4)
    assert a / b == a * b.inverse()
    assert b.inverse() == F.of(3)
    assert 2 - a == F.of(6)
    assert 1 / b == F.of(3)
    assert bool(a)
    assert not bool(F.zero)
    assert str(a) == "3"


def test_modint_inverse_randomized():
    rng = random.Random(5)
    for p in (2, 3, 101, 997):
        F = GF(p)
        for _ in range(50):
            a = F.of(rng.randrange(1, p))
            assert a * a.inverse() == F.one
            assert (F.one / a) * a == F.one


def test_modint_zero_division():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_modint_modulus_mismatch():
    a = ModInt(1, 5)
    b = ModInt(1, 7)
    with pytest.raises(TypeError):
        a + b


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        PrimeField(91)


def test_prime_field_of():
    F = GF(11)
    assert F.of(-1) == F.of(10)
    assert F.of("13") == F.of(2)
    assert F.of(F.of(4)) == F.of(4)
    with pytest.raises(TypeError):
        F.of(GF(5).of(1))
    assert F == GF(11)
    assert F != GF(13)
    assert F != QQ


def test_field_elements_hashable():
    F = GF(3)
    assert len({F.of(0), F.of(1), F.of(3), F.of(4)}) == 2
    assert len({QQ.of(1), QQ.of("2/2")}) == 1
