"""Exact coefficient arithmetic: rationals and prime fields Z/p.

Rational coefficients are plain ``fractions.Fraction`` values (always in
lowest terms with a positive denominator); a plain ``int`` coefficient
counts as the rational it equals.  Prime-field coefficients are ``ModInt``
values normalized to the least nonnegative representative.  No floating
point is used anywhere: ``inverse`` gives 1 / c in the field of c.

Rationals need not stay ``Fraction`` values while they are worked on.  In
int form a vector of coefficients is int numerators over one int
denominator, Z/p elements over 1.  ``common_denominator``, ``primitive``
and ``fraction`` define that form for the engine, which keeps its basis
entries, S-polynomials and normal forms in it and never tests a type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["ModInt", "Rationals", "PrimeField", "QQ", "GF", "is_prime",
           "inverse", "common_denominator", "primitive", "fraction"]

# Miller-Rabin with the first 13 primes as witnesses is exact below _MR_LIMIT,
# the smallest strong pseudoprime to all of them (without 41, only below
# 318665857834031151167461 = 399165290221 * 798330580441).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, exact for every n below ``_MR_LIMIT``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModInt:
    """An element of Z/p, stored as the least nonnegative representative.

    Arithmetic with plain ints lifts them into the same field; mixing two
    different moduli, or mixing with rationals, raises TypeError.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise TypeError(
                    f"mixed moduli: {self.modulus} and {other.modulus}"
                )
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        raise TypeError(f"cannot mix ModInt with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return ModInt(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return ModInt(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return ModInt(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in Z/{self.modulus}")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise ZeroDivisionError(f"0 is not invertible in Z/{self.modulus}")
        return ModInt(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"

    def __str__(self):
        return str(self.value)


def inverse(c):
    """1 / c for a nonzero coefficient c: a ``ModInt`` in Z/p, else an
    exact ``Fraction`` (also when c is an int)."""
    if isinstance(c, ModInt):
        return c.inverse()
    return Fraction(1, c)


def fraction(c, den: int):
    """The field element c / den of an int form (c itself over Z/p)."""
    return c if isinstance(c, ModInt) else Fraction(c, den)


def primitive(a, nums: list) -> tuple:
    """(a, nums), an int-form vector with leading coefficient a, made
    primitive: over Q with a > 0 and content 1, over Z/p with a the int 1.
    All nonzero scalar multiples of a vector give the same result."""
    if a == 1:
        return 1, nums
    if isinstance(a, ModInt):
        inv = a.inverse()
        return 1, [c * inv for c in nums]
    g = gcd(a, *nums)
    if a < 0:
        g = -g
    if g != 1:
        a //= g
        nums = [c // g for c in nums]
    return a, nums


def common_denominator(coeffs: list) -> tuple[int, list]:
    """The coefficients as (M, numerators), each equal to numerator / M.

    For rationals M is their least common denominator and the numerators
    are ints; elements of Z/p need no denominator and come back unchanged
    over M = 1.
    """
    if coeffs and isinstance(coeffs[0], ModInt):
        return 1, coeffs
    M = lcm(*(c.denominator for c in coeffs))
    return M, [c.numerator * (M // c.denominator) for c in coeffs]


class Rationals:
    """The field Q with Fraction elements."""

    name = "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of(self, value) -> Fraction:
        """Build a field element from an int, Fraction, or decimal string."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot make a rational from {type(value).__name__}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field Z/p for a prime p."""

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise ValueError(f"{p} is too large for an exact primality test")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Z/{p}"

    @property
    def zero(self) -> ModInt:
        return ModInt(0, self.p)

    @property
    def one(self) -> ModInt:
        return ModInt(1, self.p)

    def of(self, value) -> ModInt:
        if isinstance(value, ModInt):
            if value.modulus != self.p:
                raise TypeError(f"element of Z/{value.modulus} is not in Z/{self.p}")
            return value
        if isinstance(value, (int, str)):
            return ModInt(int(value), self.p)
        raise TypeError(f"cannot make a Z/{self.p} element from {type(value).__name__}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Zp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    """Return the prime field Z/p."""
    return PrimeField(p)
