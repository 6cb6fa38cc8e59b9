"""The skew polynomial ring S = P[s; sigma].

An element of S is a finite sum of components f_i * s**i with f_i in the
base ring P; multiplication twists scalars past s by the endomorphism:
s * f = sigma(f) * s.  Elements are graded by s-degree, and an element
concentrated in one s-degree is s-homogeneous.

Monomials of S are pairs m * s**i.  They are compared s-degree first and
by the base ordering on ties, which makes the leading monomial of an
s-homogeneous element the decorated leading monomial of its base part.
Divisibility of monomials of S (left or two-sided) is decided by the
engine's reducer searches, not here.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .endo import MonomialEndomorphism
from .poly import Monomial, MonomialOrdering, Polynomial

__all__ = [
    "SkewMonomial",
    "SkewElement",
    "skew_mul",
    "shift_left",
]


class SkewMonomial(NamedTuple):
    """A monomial m * s**sdeg of S."""

    mono: Monomial
    sdeg: int


class SkewElement:
    """An element of S stored as nonzero components, s-degree descending."""

    __slots__ = ("parts",)

    def __init__(self, parts, _sorted: bool = False):
        if _sorted:
            self.parts = tuple(parts)
            return
        if isinstance(parts, dict):
            items: Iterable = parts.items()
        else:
            items = parts
        acc: dict[int, Polynomial] = {}
        for sdeg, f in items:
            if sdeg < 0:
                raise ValueError("negative s-degree")
            if sdeg in acc:
                acc[sdeg] = acc[sdeg] + f
            else:
                acc[sdeg] = f
        self.parts = tuple(
            sorted(((i, f) for i, f in acc.items() if f), reverse=True)
        )

    @classmethod
    def zero(cls) -> "SkewElement":
        return cls((), _sorted=True)

    @classmethod
    def of_poly(cls, f: Polynomial, sdeg: int = 0) -> "SkewElement":
        """The element f * s**sdeg."""
        if sdeg < 0:
            raise ValueError("negative s-degree")
        if f.is_zero():
            return cls.zero()
        return cls(((sdeg, f),), _sorted=True)

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self) -> bool:
        return bool(self.parts)

    def is_s_homogeneous(self) -> bool:
        return len(self.parts) <= 1

    def component(self, sdeg: int) -> Polynomial | None:
        for i, f in self.parts:
            if i == sdeg:
                return f
        return None

    def sdeg(self) -> int:
        """The s-degree of the element (maximal component index)."""
        if not self.parts:
            raise ValueError("zero element has no s-degree")
        return self.parts[0][0]

    def ordering(self) -> MonomialOrdering:
        if not self.parts:
            raise ValueError("zero element carries no ordering")
        return self.parts[0][1].ordering

    def lm(self) -> SkewMonomial:
        """Leading monomial under the s-degree-major ordering."""
        if not self.parts:
            raise ValueError("zero element has no leading monomial")
        i, f = self.parts[0]
        return SkewMonomial(f.lm(), i)

    def lc(self):
        if not self.parts:
            raise ValueError("zero element has no leading coefficient")
        return self.parts[0][1].lc()

    def lt(self) -> "SkewElement":
        c, m = self.parts[0][1].leading()
        return SkewElement.of_poly(
            Polynomial(((m, c),), self.parts[0][1].ordering, _sorted=True),
            self.parts[0][0],
        )

    def __add__(self, other: "SkewElement") -> "SkewElement":
        acc = dict(self.parts)
        for i, f in other.parts:
            if i in acc:
                acc[i] = acc[i] + f
            else:
                acc[i] = f
        return SkewElement(
            sorted(((i, f) for i, f in acc.items() if f), reverse=True),
            _sorted=True,
        )

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (-other)

    def __neg__(self) -> "SkewElement":
        return SkewElement(
            tuple((i, -f) for i, f in self.parts), _sorted=True
        )

    def scale(self, c) -> "SkewElement":
        if not c:
            return SkewElement.zero()
        return SkewElement(
            tuple((i, f.scale(c)) for i, f in self.parts), _sorted=True
        )

    def mul_mono(self, q: Monomial) -> "SkewElement":
        """Left-multiply by a base-ring monomial."""
        if not q:
            return self
        return SkewElement(
            tuple((i, f.mul_mono(q)) for i, f in self.parts), _sorted=True
        )

    def monic(self) -> "SkewElement":
        if not self.parts:
            return self
        lc = self.lc()
        one = lc / lc
        if lc == one:
            return self
        return self.scale(one / lc)

    def __eq__(self, other):
        if isinstance(other, SkewElement):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        from .textio import format_skew

        return f"<{format_skew(self)}>"


def skew_mul(a: SkewElement, b: SkewElement, sigma: MonomialEndomorphism) -> SkewElement:
    """Product in S, twisting b's scalars past each power of s."""
    acc: dict[int, Polynomial] = {}
    for i, f in a.parts:
        for j, g in b.parts:
            h = f * sigma.poly(g, i)
            k = i + j
            if k in acc:
                acc[k] = acc[k] + h
            else:
                acc[k] = h
    return SkewElement(acc)


def shift_left(k: int, a: SkewElement, sigma: MonomialEndomorphism) -> SkewElement:
    """s**k * a."""
    if k < 0:
        raise ValueError("negative s-power")
    if k == 0:
        return a
    return SkewElement(
        tuple((i + k, sigma.poly(f, k)) for i, f in a.parts), _sorted=True
    )
