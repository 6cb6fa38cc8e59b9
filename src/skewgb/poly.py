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

``MonoPacking`` packs monomials into ints for the oracle, as in Monagan and
Pearce, "Sparse polynomial division using a heap" (JSC 46, 2011): a product
is an addition and a divisibility test one mask test.

``Terms`` is the term arithmetic shared by the three rings (sums, scaling,
``monic``, leading data); ``Polynomial`` adds the commutative product of P.
"""

from __future__ import annotations

from itertools import chain
from operator import neg
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


def mono_mul(m: Monomial, n: Monomial) -> Monomial:
    """Product of two monomials (merge of sorted exponent vectors)."""
    if not m:
        return n
    if not n:
        return m
    out = []
    i = j = 0
    lm, ln = len(m), len(n)
    while i < lm and j < ln:
        cm, em = m[i]
        cn, en = n[j]
        if cm > cn:
            out.append(m[i])
            i += 1
        elif cm < cn:
            out.append(n[j])
            j += 1
        else:
            out.append((cm, em + en))
            i += 1
            j += 1
    out.extend(m[i:])
    out.extend(n[j:])
    return tuple(out)


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
    out = []
    j = 0
    lm = len(m)
    for cn, en in n:
        while j < lm and m[j][0] > cn:
            out.append(m[j])
            j += 1
        if j == lm or m[j][0] != cn or m[j][1] < en:
            raise ValueError("not divisible")
        if m[j][1] > en:
            out.append((cn, m[j][1] - en))
        j += 1
    out.extend(m[j:])
    return tuple(out)


def mono_gcd(m: Monomial, n: Monomial) -> Monomial:
    out = []
    i = j = 0
    lm, ln = len(m), len(n)
    while i < lm and j < ln:
        cm, em = m[i]
        cn, en = n[j]
        if cm > cn:
            i += 1
        elif cm < cn:
            j += 1
        else:
            out.append((cm, em if em < en else en))
            i += 1
            j += 1
    return tuple(out)


def mono_lcm(m: Monomial, n: Monomial) -> Monomial:
    if not m:
        return n
    if not n:
        return m
    out = []
    i = j = 0
    lm, ln = len(m), len(n)
    while i < lm and j < ln:
        cm, em = m[i]
        cn, en = n[j]
        if cm > cn:
            out.append(m[i])
            i += 1
        elif cm < cn:
            out.append(n[j])
            j += 1
        else:
            out.append((cm, em if em > en else en))
            i += 1
            j += 1
    out.extend(m[i:])
    out.extend(n[j:])
    return tuple(out)


def mono_coprime(m: Monomial, n: Monomial) -> bool:
    """True iff gcd(m, n) = 1, without building the gcd."""
    i = j = 0
    lm, ln = len(m), len(n)
    while i < lm and j < ln:
        cm = m[i][0]
        cn = n[j][0]
        if cm > cn:
            i += 1
        elif cm < cn:
            j += 1
        else:
            return False
    return True


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

    def heap_key(self, m: Monomial):
        """A key whose native comparison realizes the reverse ordering.

        ``heapq`` pops the smallest key first, so a heap under this key pops
        the largest monomial first.  The exponent vector is flattened (which
        keeps lex: a pair compares by code, then exponent) and negated; the
        trailing 1 lies above every negated entry, so a monomial still sorts
        after each of its proper extensions, which lex places above it.
        """
        flat = (*map(neg, chain.from_iterable(m)), 1)
        if self.kind == "lex":
            return flat
        return (sum(flat[1:-1:2]), flat)

    def __eq__(self, other):
        return isinstance(other, MonomialOrdering) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


LEX = MonomialOrdering("lex")
DEGLEX = MonomialOrdering("deglex")
ORDERINGS = {"lex": LEX, "deglex": DEGLEX}


class MonoPacking:
    """Monomials over a fixed set of variable codes, packed into ints.

    Each code has a field of ``width`` bits, ascending with the code, and
    one more field holds the degree: on top under deglex, at the bottom
    under lex, so int comparison is the ordering.  The top bit of a field is
    a guard, clear in a packed monomial: the product is ``m + n``, exact,
    and sets a guard bit where a field outgrows its width; the quotient is
    ``m - n``; m divides n iff ``((n | guards) - m) & guards == guards``.
    ``pack`` and ``lcm`` raise ``OverflowError`` for an outgrown field.
    """

    __slots__ = ("width", "guards", "exps", "shifts", "deg_shift", "codes")

    def __init__(self, codes, ordering: MonomialOrdering, width: int):
        low = ordering.kind == "lex"
        self.codes = [None] * low + sorted(set(codes))  # the code of a field
        n = len(self.codes) - low
        self.width = width
        self.shifts = {c: k * width for k, c in enumerate(self.codes)}
        self.deg_shift = 0 if low else n * width
        self.guards = sum(1 << (k * width + width - 1) for k in range(n + 1))
        field = (1 << width) - 1
        self.exps = ((1 << (n + 1) * width) - 1) ^ (field << self.deg_shift)

    def pack(self, m: Monomial) -> int:
        deg = sum(e for _, e in m)
        if deg >> (self.width - 1):  # every exponent is at most the degree
            raise OverflowError("monomial outgrows its packing")
        return sum(e << self.shifts[c] for c, e in m) + (deg << self.deg_shift)

    def unpack(self, p: int) -> Monomial:
        w, out = self.width, []
        p &= self.exps
        while p:  # the top field left is the largest code left
            k = (p.bit_length() - 1) // w
            out.append((self.codes[k], p >> k * w))
            p &= (1 << k * w) - 1
        return tuple(out)

    def degree(self, p: int) -> int:
        return p >> self.deg_shift & ((1 << self.width) - 1)

    def lcm(self, m: int, n: int) -> int:
        g = self.guards
        ge = ((m | g) - n) & g  # the guards of the fields where m >= n
        x = (n ^ ((m ^ n) & (ge - (ge >> (self.width - 1))))) & self.exps
        deg = x % ((1 << self.width) - 1)  # 2**width is 1 modulo that
        if deg >> (self.width - 1):
            raise OverflowError("monomial outgrows its packing")
        return x | deg << self.deg_shift


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
