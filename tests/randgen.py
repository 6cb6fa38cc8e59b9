"""Seeded random generators shared by the property and oracle tests."""

import random
from fractions import Fraction

from skewgb.letterplace import FreePolynomial
from skewgb.poly import LEX, Polynomial, mono_from_pairs, var_code
from skewgb.skew import SkewElement, SkewMonomial, SkewOrdering


def random_mono(rng: random.Random, letters=3, max_place=3, max_deg=3,
                exact=False):
    """A random monomial: up to max_deg variable picks with repetition."""
    deg = max_deg if exact else rng.randint(0, max_deg)
    pairs = []
    for _ in range(deg):
        code = var_code(rng.randrange(letters), rng.randrange(max_place + 1))
        pairs.append((code, 1))
    return mono_from_pairs(pairs)


def random_mono_of_weight(rng: random.Random, w, letters=3, max_deg=3,
                          exact=False):
    """A random monomial of weight exactly w (some variable at place w)."""
    deg = max_deg if exact else rng.randint(1, max_deg)
    pairs = [(var_code(rng.randrange(letters), w), 1)]
    for _ in range(deg - 1):
        code = var_code(rng.randrange(letters), rng.randrange(w + 1))
        pairs.append((code, 1))
    return mono_from_pairs(pairs)


def random_coeff(rng: random.Random):
    c = 0
    while not c:
        c = rng.randint(-5, 5)
    return Fraction(c)


def random_poly(rng, letters=3, max_place=3, max_deg=3, terms=3, ordering=LEX,
                fixed_degree=None):
    """A random nonzero polynomial (resamples until nonzero).

    With fixed_degree all monomials get that exact total degree, which keeps
    lex reductions degree-bounded.
    """
    while True:
        tt = []
        for _ in range(rng.randint(1, terms)):
            if fixed_degree is None:
                m = random_mono(rng, letters, max_place, max_deg)
            else:
                m = random_mono(rng, letters, max_place, fixed_degree,
                                exact=True)
            tt.append((m, random_coeff(rng)))
        f = Polynomial(tt, ordering)
        if f:
            return f


def random_weighted_poly(rng, letters=3, max_weight=3, max_deg=3, terms=3,
                         ordering=LEX, fixed_degree=None):
    """A random nonzero polynomial whose monomials all share one weight.

    With fixed_degree the total degree is also constant across monomials,
    which keeps lex reductions degree-bounded.
    """
    w = rng.randint(0, max_weight)
    while True:
        tt = []
        for _ in range(rng.randint(1, terms)):
            if fixed_degree is None:
                m = random_mono_of_weight(rng, w, letters, max_deg)
            else:
                m = random_mono_of_weight(
                    rng, w, letters, fixed_degree, exact=True
                )
            tt.append((m, random_coeff(rng)))
        f = Polynomial(tt, ordering)
        if f:
            return f


def skew_of_parts(parts, ordering=LEX):
    """The element of S with the given (s-degree, polynomial) components.

    ``parts`` is a dict or a list of pairs; components of one s-degree are
    summed and zero components dropped.  ``ordering`` is the base ordering.
    """
    items = parts.items() if isinstance(parts, dict) else parts
    return SkewElement(
        [(SkewMonomial(m, i), c) for i, f in items for m, c in f.terms],
        SkewOrdering(ordering),
    )


def random_skew_homogeneous(rng, letters=3, max_place=3, max_deg=3, terms=3,
                            max_sdeg=2, ordering=LEX, fixed_degree=None):
    """A random nonzero s-homogeneous skew element."""
    f = random_poly(rng, letters, max_place, max_deg, terms, ordering,
                    fixed_degree)
    return SkewElement.of_poly(f, rng.randint(0, max_sdeg))


def random_word(rng, letters=2, length=3):
    return tuple(rng.randrange(letters) for _ in range(length))


def random_free_homogeneous(rng, letters=2, max_deg=3, terms=3):
    """A random nonzero homogeneous free polynomial."""
    d = rng.randint(1, max_deg)
    while True:
        tt = [
            (random_word(rng, letters, d), random_coeff(rng))
            for _ in range(rng.randint(1, terms))
        ]
        f = FreePolynomial(tt)
        if f:
            return f


def random_free(rng, letters=2, max_deg=3, terms=3):
    """A random nonzero free polynomial, not necessarily homogeneous."""
    while True:
        tt = [
            (random_word(rng, letters, rng.randint(0, max_deg)),
             random_coeff(rng))
            for _ in range(rng.randint(1, terms))
        ]
        f = FreePolynomial(tt)
        if f:
            return f
