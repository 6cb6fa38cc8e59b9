"""The skew polynomial ring S = P[s; sigma].

S is the direct sum of the layers S_i = P s**i, so an element of S is a
linear combination of monomials m * s**i of S, just as a polynomial of P
combines monomials of P.  Multiplication twists scalars past s by the
endomorphism: s * f = sigma(f) * s.  Elements are graded by s-degree, and
an element concentrated in one s-degree is s-homogeneous.

Monomials of S are compared s-degree first and by the base ordering on
ties (``SkewOrdering``), which makes the leading monomial of an
s-homogeneous element the decorated leading monomial of its base part.
Sums, scaling and ``monic`` are the shared term arithmetic of
``poly.Terms``; the product of S is ``skew_mul``.  Divisibility of
monomials of S (left or two-sided) is decided by the engine's reducer
searches, not here.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .endo import MonomialEndomorphism
from .poly import LEX, Monomial, MonomialOrdering, Polynomial, Terms, mono_mul

__all__ = [
    "SkewMonomial",
    "SkewOrdering",
    "SkewElement",
    "skew_mul",
    "shift_left",
]


class SkewMonomial(NamedTuple):
    """A monomial m * s**sdeg of S."""

    mono: Monomial
    sdeg: int


class SkewOrdering:
    """The s-degree-major ordering of monomials of S over a base ordering."""

    __slots__ = ("base",)

    def __init__(self, base: MonomialOrdering):
        self.base = base

    def key(self, v: SkewMonomial):
        return v[1], self.base.key(v[0])

    def __eq__(self, other):
        return isinstance(other, SkewOrdering) and other.base == self.base


class SkewElement(Terms):
    """An element of S: terms over monomials ``SkewMonomial(m, i)``,
    descending under a ``SkewOrdering``.  There is no ``*``: the product
    needs the endomorphism, so it is ``skew_mul``."""

    __slots__ = ()

    @classmethod
    def zero(cls, ordering: MonomialOrdering = LEX) -> "SkewElement":
        return cls((), SkewOrdering(ordering), _sorted=True)

    @classmethod
    def of_poly(cls, f: Polynomial, sdeg: int = 0) -> "SkewElement":
        """The element f * s**sdeg."""
        if sdeg < 0:
            raise ValueError("negative s-degree")
        return cls(
            tuple((SkewMonomial(m, sdeg), c) for m, c in f.terms),
            SkewOrdering(f.ordering),
            _sorted=True,
        )

    @property
    def parts(self) -> tuple:
        """The nonzero layers as (s-degree, polynomial) pairs, s-degree
        descending."""
        base = self.ordering.base
        return tuple(
            (i, Polynomial(tuple((v[0], c) for v, c in layer), base, _sorted=True))
            for i, layer in groupby(self.terms, key=lambda t: t[0][1])
        )

    def is_s_homogeneous(self) -> bool:
        # Terms are s-degree-major, so the first and last bound the rest.
        return not self.terms or self.terms[0][0][1] == self.terms[-1][0][1]

    def component(self, sdeg: int) -> Polynomial | None:
        for i, f in self.parts:
            if i == sdeg:
                return f
        return None

    def sdeg(self) -> int:
        """The s-degree of the element (maximal component index)."""
        if not self.terms:
            raise ValueError("zero element has no s-degree")
        return self.terms[0][0][1]

    def lt(self) -> "SkewElement":
        return type(self)(self.terms[:1], self.ordering, _sorted=True)

    def mul_mono(self, q: Monomial) -> "SkewElement":
        """Left-multiply by a base-ring monomial; term order is preserved."""
        if not q:
            return self
        return type(self)(
            tuple((SkewMonomial(mono_mul(q, m), i), c) for (m, i), c in self.terms),
            self.ordering,
            _sorted=True,
        )

    def __repr__(self):
        from .textio import format_skew

        return f"<{format_skew(self)}>"


def skew_mul(a: SkewElement, b: SkewElement, sigma: MonomialEndomorphism) -> SkewElement:
    """Product in S: (m s**i)(n s**j) = m sigma**i(n) s**(i + j)."""
    a._check(b)
    return SkewElement(
        (
            (SkewMonomial(mono_mul(m, sigma.mono(n, i)), i + j), c * d)
            for (m, i), c in a.terms
            for (n, j), d in b.terms
        ),
        a.ordering,
    )


def shift_left(k: int, a: SkewElement, sigma: MonomialEndomorphism) -> SkewElement:
    """s**k * a."""
    if k < 0:
        raise ValueError("negative s-power")
    if k == 0:
        return a
    # sigma is strictly monotone under lex and deglex, so the stored term
    # order survives.
    return SkewElement(
        tuple((SkewMonomial(sigma.mono(m, k), i + k), c) for (m, i), c in a.terms),
        a.ordering,
        _sorted=True,
    )
