"""Plain-text rendering and parsing for the three polynomial flavours.

The grammar is the same everywhere: ``+ - * ^`` with integer (or ``a/b``
rational) coefficient literals and parenthesized subexpressions.  Placed
variables are written ``x(3)``; in the skew ring the extra symbol ``s``
(optionally ``s^k``) multiplies on the right; free-algebra variables take
no place argument and multiply noncommutatively.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby

from .endo import MonomialEndomorphism, ShiftEndo
from .field import QQ
from .letterplace import FreePolynomial
from .poly import LETTER_BITS, LETTER_MASK, LEX, MonomialOrdering, Polynomial, mono
from .skew import SkewElement, skew_mul

__all__ = [
    "ParseError",
    "DEFAULT_NAMES",
    "format_poly",
    "format_skew",
    "format_free",
    "parse_poly",
    "parse_skew",
    "parse_free",
    "is_name",
]

DEFAULT_NAMES = ("x", "y", "z", "w")


class ParseError(ValueError):
    """Raised on malformed input, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Rendering


def _name(letter: int, names) -> str:
    if names is not None and letter < len(names):
        return names[letter]
    return f"x{letter + 1}"


def _is_negative(c) -> bool:
    return isinstance(c, (Fraction, int)) and c < 0


def _format_mono(m, names) -> str:
    if not m:
        return "1"
    parts = []
    for code, e in m:
        t = f"{_name(code & LETTER_MASK, names)}({code >> LETTER_BITS})"
        if e != 1:
            t += f"^{e}"
        parts.append(t)
    return "*".join(parts)


def _format_terms(pairs, names, format_mono) -> str:
    """Signed terms; ``format_mono`` renders a monomial or a word."""
    out = []
    for i, (m, c) in enumerate(pairs):
        neg = _is_negative(c)
        mag = str(-c if neg else c)
        body = format_mono(m, names)
        if body == "1":
            body = mag
        elif mag != "1":
            body = f"{mag}*{body}"
        if i == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def format_poly(f: Polynomial, names=None) -> str:
    if f.is_zero():
        return "0"
    return _format_terms(f.terms, names, _format_mono)


def format_skew(a: SkewElement, names=None) -> str:
    if a.is_zero():
        return "0"
    chunks = []
    for i, f in a.parts:
        body = format_poly(f, names)
        if i > 0:
            s = "s" if i == 1 else f"s^{i}"
            if len(f.terms) > 1:
                body = f"({body})*{s}"
            elif body == "1":
                body = s
            elif body == "-1":
                body = f"-{s}"
            else:
                body = f"{body}*{s}"
        chunks.append(body)
    out = chunks[0]
    for c in chunks[1:]:
        if c.startswith("-"):
            out += " - " + c[1:]
        else:
            out += " + " + c
    return out


def _format_word(w, names) -> str:
    if not w:
        return "1"
    parts = [(x, len(list(run))) for x, run in groupby(w)]
    return "*".join(
        _name(x, names) + (f"^{k}" if k > 1 else "") for x, k in parts
    )


def format_free(f, names=None) -> str:
    if f.is_zero():
        return "0"
    return _format_terms(f.terms, names, _format_word)


# ---------------------------------------------------------------------------
# Parsing

# The search skips whitespace (str.isspace), which no alternative matches;
# \w is str.isalnum or "_", and digits are ASCII only.
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<name>\w+)|[-+*/^(),]|(?P<bad>\S)")


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        kind, tok, i = m.lastgroup or m[0], m[0], m.start()
        if kind == "bad" or kind == "name" and not (
                tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", i)
        toks.append((kind, tok, i))
    toks.append(("end", "", len(text)))
    return toks


def is_name(text: str) -> bool:
    """True when the parser reads ``text`` as exactly one variable name."""
    try:
        return [kind for kind, _, _ in _tokenize(text)] == ["name", "end"]
    except ParseError:
        return False


class _Parser:
    """Recursive descent over one of the three coefficient algebras."""

    def __init__(self, text: str, algebra):
        self.toks = _tokenize(text)
        self.pos = 0
        self.alg = algebra

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        try:
            v = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deep",
                             self.toks[self.pos][2]) from None
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return v

    def expr(self):
        if self.peek()[0] == "-":
            self.take()
            acc = -self.term()
        else:
            if self.peek()[0] == "+":
                self.take()
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = self.alg.mul(acc, self.factor())
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        # Square and multiply from the top bit; powers of base commute.
        acc = self.alg.one()
        for bit in bin(int(self.take("num")[1]))[2:]:
            acc = self.alg.mul(acc, acc)
            if bit == "1":
                acc = self.alg.mul(acc, base)
        return acc

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.take()
                den = self.take("num")
                try:
                    return self.alg.const(num, int(den[1]))
                except ZeroDivisionError:
                    raise ParseError("zero denominator", den[2]) from None
            return self.alg.const(num)
        if tok[0] == "name":
            self.take()
            return self.alg.symbol(tok[1], tok[2], self)
        if tok[0] == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return v
        raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])


class _BaseAlgebra:
    def __init__(self, field, names):
        self.field = field
        self.names = list(names)

    def letter(self, text: str, pos: int) -> int:
        try:
            return self.names.index(text)
        except ValueError:
            raise ParseError(f"unknown variable {text!r}", pos) from None

    def const(self, num: int, den: int | None = None):
        c = self.field.of(num)
        if den is not None:
            c = c / self.field.of(den)
        return self.wrap_coeff(c)

    def one(self):
        return self.wrap_coeff(self.field.one)

    def mul(self, a, b):
        return a * b


class _PolyAlgebra(_BaseAlgebra):
    def __init__(self, field, names, ordering: MonomialOrdering):
        super().__init__(field, names)
        self.ordering = ordering

    def wrap_coeff(self, c):
        return Polynomial.constant(c, self.ordering)

    def symbol(self, text, pos, parser: _Parser):
        letter = self.letter(text, pos)
        parser.take("(")
        place = int(parser.take("num")[1])
        parser.take(")")
        return Polynomial(
            ((mono((letter, place, 1)), self.field.one),), self.ordering
        )


class _SkewAlgebra(_BaseAlgebra):
    def __init__(self, field, names, ordering, sigma: MonomialEndomorphism):
        super().__init__(field, names)
        self.inner = _PolyAlgebra(field, names, ordering)
        self.sigma = sigma

    def wrap_coeff(self, c):
        return SkewElement.of_poly(self.inner.wrap_coeff(c))

    def mul(self, a, b):
        return skew_mul(a, b, self.sigma)

    def symbol(self, text, pos, parser: _Parser):
        if text == "s":
            return SkewElement.of_poly(self.inner.one(), 1)
        return SkewElement.of_poly(self.inner.symbol(text, pos, parser))


class _FreeAlgebra(_BaseAlgebra):
    def wrap_coeff(self, c):
        return FreePolynomial((((), c),))

    def symbol(self, text, pos, parser: _Parser):
        letter = self.letter(text, pos)
        if parser.peek()[0] == "(":
            raise ParseError("free-algebra variables take no place", pos)
        return FreePolynomial(
            (((letter,), self.field.one),), _sorted=True
        )


def parse_poly(
    text: str,
    field=QQ,
    names=DEFAULT_NAMES,
    ordering: MonomialOrdering = LEX,
) -> Polynomial:
    return _Parser(text, _PolyAlgebra(field, names, ordering)).parse()


def parse_skew(
    text: str,
    field=QQ,
    names=DEFAULT_NAMES,
    ordering: MonomialOrdering = LEX,
    sigma: MonomialEndomorphism | None = None,
) -> SkewElement:
    alg = _SkewAlgebra(field, names, ordering, sigma or ShiftEndo())
    return _Parser(text, alg).parse()


def parse_free(text: str, field=QQ, names=DEFAULT_NAMES):
    return _Parser(text, _FreeAlgebra(field, names)).parse()
