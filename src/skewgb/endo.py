"""Monomial endomorphisms of the base polynomial ring.

An endomorphism sigma maps every variable to a monomial and extends
multiplicatively.  Two families are provided:

* ``ShiftEndo`` — x_i(j) -> x_i(j+1), the difference-operator action;
* ``PowerEndo(e)`` — x -> x**e for a fixed e >= 2.

Two compatibility properties gate the engine.  sigma is divisibility
compatible when images of distinct variables are pairwise coprime (then
sigma respects divisibility, gcd and lcm), and order compatible with a
monomial ordering when it is strictly monotone (then every monomial sits
below its image).  Both families have both properties under lex and
deglex, as a theorem; ``div_compatible`` records the first, and the engine
refuses an endomorphism without it.
"""

from __future__ import annotations

from .poly import (
    LETTER_BITS,
    Monomial,
    MonoPacking,
    Outgrown,
    PLACE_STEP,
    Polynomial,
    mono_pow,
)

__all__ = [
    "MonomialEndomorphism",
    "ShiftEndo",
    "PowerEndo",
]


class MonomialEndomorphism:
    """Base class: the image of one variable, and sigma**k applied to a
    monomial and (coefficient-wise) to a polynomial."""

    #: True when images of distinct variables are pairwise coprime.
    div_compatible: bool = False

    def image(self, code: int) -> Monomial:
        raise NotImplementedError

    def mono(self, m: Monomial, k: int = 1) -> Monomial:
        raise NotImplementedError

    def packed(self, P: MonoPacking):
        """sigma**u on P's monomials: a function (m, u) -> image."""
        raise NotImplementedError

    def poly(self, f: Polynomial, k: int = 1) -> Polynomial:
        # sigma is strictly monotone for lex and deglex, so the stored term
        # order survives.
        if k == 0:
            return f
        return Polynomial(
            tuple((self.mono(m, k), c) for m, c in f.terms), f.ordering, _sorted=True
        )


class ShiftEndo(MonomialEndomorphism):
    """The place shift x_i(j) -> x_i(j+1)."""

    div_compatible = True

    def image(self, code: int) -> Monomial:
        return ((code + PLACE_STEP, 1),)

    def mono(self, m: Monomial, k: int = 1) -> Monomial:
        if k < 0:
            raise ValueError("negative power of an endomorphism")
        if k == 0 or not m:
            return m
        step = k << LETTER_BITS
        return tuple((c + step, e) for c, e in m)

    def packed(self, P: MonoPacking):
        """Move the variable fields up u places, the degree staying; what
        leaves the range lands in P's spare places and divides nothing."""
        exps, step = P.exps, P.step

        def sigma(m: int, u: int) -> int:
            v = m & exps
            return v << u * step | m ^ v

        return sigma

    def __eq__(self, other):
        return isinstance(other, ShiftEndo)

    def __hash__(self):
        return hash("shift")

    def __repr__(self):
        return "shift"


class PowerEndo(MonomialEndomorphism):
    """The Frobenius-style power map x -> x**e, e >= 2."""

    div_compatible = True

    def __init__(self, e: int):
        if e < 2:
            raise ValueError("power endomorphism needs exponent >= 2")
        self.e = e

    def image(self, code: int) -> Monomial:
        return ((code, self.e),)

    def mono(self, m: Monomial, k: int = 1) -> Monomial:
        if k < 0:
            raise ValueError("negative power of an endomorphism")
        if k == 0 or not m:
            return m
        return mono_pow(m, self.e**k)

    def packed(self, P: MonoPacking):
        """Multiply the fields and the degree by e**u.  The degree bounds
        every exponent, so an image whose degree outgrows its field raises
        ``poly.Outgrown`` before a field could carry into the next."""
        e = self.e

        def sigma(m: int, u: int) -> int:
            k, b = e**u, m & P.base
            if P.degree(b) * k >> (P.width - 1):
                raise Outgrown("image outgrows its packing")
            return b * k | m ^ b

        return sigma

    def __eq__(self, other):
        return isinstance(other, PowerEndo) and other.e == self.e

    def __hash__(self):
        return hash(("power", self.e))

    def __repr__(self):
        return f"power({self.e})"
