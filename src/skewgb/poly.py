"""Monomials and polynomials in doubly indexed variables x_letter(place).

A variable is identified by a packed integer code ``place << 20 | letter``,
so that comparing codes compares (place, letter) pairs: the precedence is
place-major and letter-minor, ascending.  A monomial is a tuple of
(code, exponent) pairs sorted by code descending; with that layout native
tuple comparison of two monomials is exactly the lex comparison, and the
variable of largest place sits in front.

Two monomial orderings are provided, lex and deglex, both well-orderings
compatible with the place-shift endomorphism.  The weight of a monomial is
its largest place, ``top_place``, and ``None`` for the monomial 1, which
lies below every place; it bounds how far a shifted divisor can sit inside
a multiple and drives all truncation windows downstream.

``MonoPacking`` packs monomials into ints, one field per (place, letter),
place-major, as in Monagan and Pearce, "Sparse polynomial division using a
heap" (JSC 46, 2011): int comparison is the ordering, a product is an
addition, a divisibility test one mask test and the place shift a bit
shift.  The engine and the oracle compute on packed monomials; the tuple
monomials of this module are their input and output.

``Terms`` is the term arithmetic shared by the three rings (sums, scaling,
``monic``, leading data); ``Polynomial`` adds the commutative product of P.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable

from .field import inverse

__all__ = [
    "LETTER_BITS",
    "PLACE_STEP",
    "LETTER_MASK",
    "Monomial",
    "MONO_ONE",
    "var_code",
    "mono",
    "mono_from_pairs",
    "mono_mul",
    "mono_pow",
    "mono_divides",
    "mono_div",
    "mono_gcd",
    "mono_lcm",
    "mono_coprime",
    "mono_degree",
    "top_place",
    "MonomialOrdering",
    "LEX",
    "DEGLEX",
    "ORDERINGS",
    "MonoPacking",
    "Terms",
    "Polynomial",
]

LETTER_BITS = 20
PLACE_STEP = 1 << LETTER_BITS
LETTER_MASK = PLACE_STEP - 1  # code & LETTER_MASK is the letter

# A monomial is a tuple of (code, exponent) pairs, codes strictly descending,
# exponents positive.  The empty tuple is the monomial 1.
Monomial = tuple
MONO_ONE: Monomial = ()


def var_code(letter: int, place: int) -> int:
    """Pack a (letter, place) pair into a single comparable code."""
    if letter < 0 or letter >= PLACE_STEP:
        raise ValueError(f"letter index {letter} out of range")
    if place < 0:
        raise ValueError(f"place {place} must be nonnegative")
    return (place << LETTER_BITS) | letter


def mono(*pairs: tuple[int, int, int]) -> Monomial:
    """Build a monomial from (letter, place, exponent) triples."""
    return mono_from_pairs((var_code(l, p), e) for l, p, e in pairs)


def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """Normalize (code, exponent) pairs: merge duplicates, drop zeros, sort."""
    acc: dict[int, int] = {}
    for code, exp in pairs:
        if exp < 0:
            raise ValueError("negative exponent")
        if exp:
            acc[code] = acc.get(code, 0) + exp
    return tuple(sorted(acc.items(), reverse=True))


def _combine(m: Monomial, n: Monomial, op) -> Monomial:
    """op over the exponents of each variable of m or n (a missing one
    counts 0), as a monomial: zeros dropped, codes descending."""
    dm, dn = dict(m), dict(n)
    return tuple(sorted(((c, e) for c in dm.keys() | dn.keys()
                         if (e := op(dm.get(c, 0), dn.get(c, 0)))),
                        reverse=True))


def mono_mul(m: Monomial, n: Monomial) -> Monomial:
    """Product of two monomials."""
    # Most products the parser forms have a factor 1: skip _combine's dicts.
    return _combine(m, n, add) if m and n else m or n


def mono_pow(m: Monomial, k: int) -> Monomial:
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return MONO_ONE
    return tuple((c, e * k) for c, e in m)


def mono_divides(m: Monomial, n: Monomial) -> bool:
    """True iff m divides n."""
    i = 0
    ln = len(n)
    for cm, em in m:
        while i < ln and n[i][0] > cm:
            i += 1
        if i == ln or n[i][0] != cm or n[i][1] < em:
            return False
        i += 1
    return True


def mono_div(m: Monomial, n: Monomial) -> Monomial:
    """Exact quotient m / n; raises ValueError if n does not divide m."""
    if not mono_divides(n, m):
        raise ValueError("not divisible")
    return _combine(m, n, sub)


def mono_gcd(m: Monomial, n: Monomial) -> Monomial:
    return _combine(m, n, min)


def mono_lcm(m: Monomial, n: Monomial) -> Monomial:
    return _combine(m, n, max)


def mono_coprime(m: Monomial, n: Monomial) -> bool:
    """True iff gcd(m, n) = 1."""
    return not mono_gcd(m, n)


def mono_degree(m: Monomial) -> int:
    """Total degree."""
    return sum(e for _, e in m)


def top_place(m: Monomial) -> int | None:
    """Largest place occurring in m; None for the monomial 1."""
    return m[0][0] >> LETTER_BITS if m else None


class MonomialOrdering:
    """lex or deglex with place-major, letter-minor variable precedence."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("lex", "deglex"):
            raise ValueError(f"unknown ordering {kind!r}")
        self.kind = kind

    def key(self, m: Monomial):
        """A key whose native comparison realizes the ordering."""
        if self.kind == "lex":
            return m
        return (sum(e for _, e in m), m)

    def __eq__(self, other):
        return isinstance(other, MonomialOrdering) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


LEX = MonomialOrdering("lex")
DEGLEX = MonomialOrdering("deglex")
ORDERINGS = {"lex": LEX, "deglex": DEGLEX}


class Outgrown(OverflowError):
    """A monomial outgrew its packing, so its run starts over wider; no
    other ``OverflowError`` (a caller's pair filter's, say) restarts one."""


class MonoPacking:
    """Monomials packed into ints, one W-bit field per variable.

    Letter i at place p has field p * letters + i (place-major), so the
    fields ascend with the variable codes and the place shift moves them up
    ``step`` bits a place.  ``places`` places are in range; ``spare`` more
    above take what a shift carries out, short of the degree field, which
    lies at the bottom under lex and on top under deglex: int comparison is
    the ordering.  With ``skew`` a term of S carries its s-degree above
    everything, at ``sdeg_shift``, and compares s-degree first.

    The top bit of each field is a guard, clear in a packed monomial: the
    product is ``m + n``, exact, and sets a guard bit where a field outgrows
    its width; the quotient is ``m - n``; m divides n iff ``((n | guards) -
    m) & guards == guards``.  A monomial is valid when it has no bit of
    ``over`` (a guard, a spare place, a degree from 2**(W - 1) up); as the
    degree bounds every exponent, the fields of a valid monomial and of a
    sum of two are exact.  ``pack`` and ``lcm`` raise ``Outgrown`` for
    what is not valid.  ``sigma`` is an endomorphism's ``packed`` action.

    ``word_length`` tells the placings x_a(1) x_b(2) ... x_c(k) of words
    (the letterplace image V) from the other monomials, by masks built
    once per packing: a monomial is one iff each exponent is at most 1,
    place 0 is empty, and its k variables lie on k distinct places, none
    above place k.
    """

    __slots__ = ("width", "step", "base_shift", "deg_shift", "sdeg_shift",
                 "exps", "guards", "over", "base", "codes", "offsets",
                 "ordering", "sigma", "skew", "word_length")

    def __init__(self, letters: int, places: int, ordering: MonomialOrdering,
                 width: int, spare: int = 0, sigma=None, skew: bool = False):
        lex = ordering.kind == "lex"
        self.width, self.ordering, self.skew = width, ordering, skew
        self.step = letters * width
        self.codes = [p << LETTER_BITS | i  # the code of each field
                      for p in range(places + spare) for i in range(letters)]
        bits = len(self.codes) * width  # the variable fields
        self.base_shift = width if lex else 0  # the bit of field 0
        self.offsets = {c: self.base_shift + k * width  # the places in range
                        for k, c in enumerate(self.codes[:places * letters])}
        self.deg_shift = 0 if lex else bits
        self.sdeg_shift = top = bits + width
        self.base = (1 << top) - 1
        self.exps = ((1 << bits) - 1) << self.base_shift
        self.guards = ((1 << top) - 1) // ((1 << width) - 1) << (width - 1)
        beyond = (1 << top) - (1 << self.base_shift + places * self.step)
        self.over = self.guards | (  # all but the degree's value bits
            beyond & ~(((1 << (width - 1)) - 1) << self.deg_shift))
        self.sigma = None if sigma is None else sigma.packed(self)
        self.word_length = self._words(bits)

    def _words(self, bits: int):
        """The packing's ``word_length(m)``, over the ``bits`` of the
        variable fields: k when the packed m is the placing of a word of
        length k (0 for 1), else -1."""
        exps, b, step = self.exps, self.base_shift, self.step
        ones = self.guards >> self.width - 1 & exps  # bit 0 of each field
        # An exponent above 1, or a variable on place 0.
        bad = exps ^ ones | ((1 << step) - 1) << b
        # Per place, all but the top bit of its block, and that top bit (a
        # guard, clear): their sum sets it iff the place holds a variable.
        blocks = ((1 << bits) - 1) // ((1 << step) - 1) << b
        low, high = blocks * ((1 << step - 1) - 1), blocks << step - 1

        def word_length(m: int) -> int:
            v = m & exps
            if v & bad:
                return -1
            k = v.bit_count()  # the degree
            if v >> b + (k + 1) * step or ((v + low) & high).bit_count() != k:
                return -1  # a place above k, or a place with two variables
            return k

        return word_length

    @staticmethod
    def extent(monomials) -> tuple[int, int]:
        """The (letters, places) that the given monomials occupy."""
        codes = {c for m in monomials for c, _ in m}
        return (max((c & LETTER_MASK for c in codes), default=0) + 1,
                max((c >> LETTER_BITS for c in codes), default=0) + 1)

    def pack(self, m: Monomial) -> int:
        offsets, p, deg = self.offsets, 0, 0
        try:
            for c, e in m:
                p += e << offsets[c]
                deg += e
        except KeyError:  # a letter or a place out of range
            raise Outgrown("monomial outgrows its packing") from None
        if deg >> (self.width - 1):  # every exponent is at most the degree
            raise Outgrown("monomial outgrows its packing")
        return p | deg << self.deg_shift

    def unpack(self, p: int) -> Monomial:
        w, shift, codes = self.width, self.base_shift, self.codes
        p, out = p & self.exps, []
        while p:  # the top field left is the largest code left
            k = (p.bit_length() - 1 - shift) // w
            e = p >> (o := shift + k * w)
            p ^= e << o
            out.append((codes[k], e))
        return tuple(out)

    def top(self, p: int):
        """The (code, exponent) of the largest variable of p, as the first
        pair of ``unpack(p)``; None for 1."""
        v = p & self.exps
        if not v:
            return None
        k = (v.bit_length() - 1 - self.base_shift) // self.width
        return self.codes[k], v >> self.base_shift + k * self.width

    def degree(self, p: int) -> int:
        return p >> self.deg_shift & ((1 << self.width) - 1)

    def lcm(self, m: int, n: int) -> int:
        g = self.guards
        ge = ((m | g) - n) & g  # the guards of the fields where m >= n
        x = (n ^ ((m ^ n) & (ge - (ge >> (self.width - 1))))) & self.exps
        # 2**width is 1 modulo 2**width - 1, and both degrees are below
        # 2**(width - 1), so this is the degree of x.
        x |= x % ((1 << self.width) - 1) << self.deg_shift
        if x & self.over:
            raise Outgrown("monomial outgrows its packing")
        return x


class Terms:
    """A linear combination of monomials, stored strictly descending under
    its ordering.

    Terms are (monomial, coefficient) pairs with nonzero coefficients; zero
    has no terms.  The ordering only has to provide ``key`` (a sort key
    realizing it), so the same term arithmetic serves the polynomials of P
    (monomial orderings), the elements of S (s-degree-major orderings) and
    the free algebra (the word ordering).  All operands of a binary
    operation must share the same ordering, and results are built through
    ``type(self)``.  The constructor is the one place that merges like
    terms, drops zeros and sorts: sums and the subclasses' products hand it
    their raw (monomial, coefficient) pairs.
    """

    __slots__ = ("terms", "ordering")

    def __init__(self, terms, ordering, _sorted: bool = False):
        if _sorted:
            self.terms = tuple(terms)
        else:
            acc: dict = {}
            for m, c in terms:
                if m in acc:
                    acc[m] = acc[m] + c
                else:
                    acc[m] = c
            key = ordering.key
            self.terms = tuple(
                sorted(((m, c) for m, c in acc.items() if c), key=lambda t: key(t[0]), reverse=True)
            )
        self.ordering = ordering

    @classmethod
    def zero(cls, ordering) -> "Terms":
        return cls((), ordering, _sorted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading(self):
        """The (coefficient, monomial) pair of the leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m, c = self.terms[0]
        return c, m

    def lm(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def tail(self) -> "Terms":
        return type(self)(self.terms[1:], self.ordering, _sorted=True)

    def _check(self, other: "Terms"):
        if self.ordering != other.ordering:
            raise ValueError("mixed monomial orderings")

    def __add__(self, other: "Terms") -> "Terms":
        self._check(other)
        return type(self)(self.terms + other.terms, self.ordering)

    def __sub__(self, other: "Terms") -> "Terms":
        return self + (-other)

    def __neg__(self) -> "Terms":
        return type(self)(
            tuple((m, -c) for m, c in self.terms), self.ordering, _sorted=True
        )

    def scale(self, c) -> "Terms":
        """Multiply by a nonzero scalar (returns zero if c is zero)."""
        if not c:
            return type(self)((), self.ordering, _sorted=True)
        return type(self)(
            tuple((m, coef * c) for m, coef in self.terms), self.ordering, _sorted=True
        )

    def monic(self) -> "Terms":
        """Scale by the exact inverse of the leading coefficient
        (``field.inverse``): int coefficients count as rationals, so the
        result never holds a float."""
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self.scale(inverse(lc))

    def monomials(self) -> list:
        return [m for m, _ in self.terms]

    def coeff(self, m):
        """Coefficient of the monomial m, or None if absent."""
        for mm, c in self.terms:
            if mm == m:
                return c
        return None

    def __eq__(self, other):
        if isinstance(other, Terms):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)


class Polynomial(Terms):
    """A polynomial of P: terms over placed monomials under a monomial
    ordering, with the commutative product."""

    __slots__ = ()

    @classmethod
    def constant(cls, c, ordering: MonomialOrdering) -> "Polynomial":
        return cls(((MONO_ONE, c),) if c else (), ordering, _sorted=True)

    def mul_mono(self, q: Monomial) -> "Polynomial":
        """Multiply by a monomial; term order is preserved."""
        if not q:
            return self
        return type(self)(
            tuple((mono_mul(q, m), c) for m, c in self.terms),
            self.ordering,
            _sorted=True,
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return type(self)(
            ((mono_mul(m, n), c * d) for m, c in self.terms for n, d in other.terms),
            self.ordering,
        )

    def degree(self) -> int:
        """Maximal total degree of a monomial (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def weight(self) -> int | None:
        """Largest place over the monomials; None for zero and constants."""
        return max((top_place(m) for m, _ in self.terms if m), default=None)

    def __repr__(self):
        from .textio import format_poly

        return f"<{format_poly(self)}>"
