"""Free-algebra front end via the letterplace embedding.

A word in letters x_1..x_n of length d embeds into the skew ring as

    iota(x_{i_1} ... x_{i_d}) = x_{i_1}(1) x_{i_2}(2) ... x_{i_d}(d) s^d,

an injective algebra homomorphism onto the subalgebra R of S; composing
with the s-erasing projection pi gives the linear embedding iota' into P
whose image V consists of the "one variable per place 1..d" monomials.
Noncommutative Gröbner bases of homogeneous two-sided ideals are computed
by running the difference-ideal (or two-sided skew) completion on the
embedded generators while discarding every critical pair whose lcm falls
outside V (resp. R): the surviving pairs are exactly the alignments of
shifted copies that correspond to genuine word overlaps, so no separate
overlap enumeration is needed.

Words are compared length first, then letter by letter from the last
place backwards — the order induced by restricting the skew-monomial
ordering to R.  Both lex and deglex on P induce this same word order.
"""

from __future__ import annotations

from dataclasses import replace

from . import engine
from .poly import (
    LETTER_BITS,
    LETTER_MASK,
    Monomial,
    MonomialOrdering,
    LEX,
    Polynomial,
    Terms,
    top_place,
)
from .skew import SkewElement, SkewMonomial, SkewOrdering

__all__ = [
    "Word",
    "word_key",
    "FreePolynomial",
    "iota_word",
    "iota",
    "iota_inv",
    "iota_prime_word",
    "iota_prime",
    "iota_prime_inv",
    "word_of_mono",
    "pi",
    "xi",
    "in_V",
    "in_R",
    "free_gbasis",
    "free_gbasis2",
    "certify_free",
    "free_oracle_match",
]

Word = tuple

def word_key(w: Word):
    """Sort key realizing the induced word ordering."""
    return (len(w), tuple(reversed(w)))


class _WordOrdering:
    """The word ordering, in the role of a term list's monomial ordering."""

    key = staticmethod(word_key)


_WORD_ORDERING = _WordOrdering()


class FreePolynomial(Terms):
    """A noncommutative polynomial: terms over words, descending under the
    word ordering.  Sums, scaling and ``monic`` are the shared term
    arithmetic of ``poly.Terms``; the product concatenates words."""

    __slots__ = ()

    def __init__(self, terms, ordering=_WORD_ORDERING, _sorted: bool = False):
        super().__init__(terms, ordering, _sorted)

    @classmethod
    def zero(cls) -> "FreePolynomial":
        return cls((), _sorted=True)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = len(self.terms[0][0])
        return all(len(w) == d for w, _ in self.terms)

    def __mul__(self, other: "FreePolynomial") -> "FreePolynomial":
        return type(self)(
            (u + v, c * d) for u, c in self.terms for v, d in other.terms
        )

    def letters(self) -> set:
        return {x for w, _ in self.terms for x in w}

    def __repr__(self):
        from .textio import format_free

        return f"<{format_free(self)}>"


# ---------------------------------------------------------------------------
# The embeddings


def iota_word(w: Word) -> SkewMonomial:
    """x_{i_1}...x_{i_d} -> x_{i_1}(1)...x_{i_d}(d) s^d."""
    d = len(w)
    mono = tuple(
        ((p << LETTER_BITS) | w[p - 1], 1) for p in range(d, 0, -1)
    )
    return SkewMonomial(mono, d)


def iota_prime_word(w: Word) -> Monomial:
    """The same placing without the s-power."""
    return iota_word(w).mono


def iota(f: FreePolynomial, ordering: MonomialOrdering = LEX) -> SkewElement:
    """Linear extension of the embedding into S."""
    return SkewElement(
        ((iota_word(w), c) for w, c in f.terms), SkewOrdering(ordering)
    )


def iota_prime(f: FreePolynomial, ordering: MonomialOrdering = LEX) -> Polynomial:
    """pi after iota: the embedding into P."""
    return Polynomial(
        ((iota_prime_word(w), c) for w, c in f.terms), ordering
    )


def word_of_mono(m: Monomial) -> Word | None:
    """Decode a monomial of V back to its word, or None."""
    k = len(m)
    letters = [0] * k
    expect = k
    for c, e in m:
        if e != 1 or (c >> LETTER_BITS) != expect:
            return None
        letters[expect - 1] = c & LETTER_MASK
        expect -= 1
    return tuple(letters)


def iota_prime_inv(f: Polynomial) -> FreePolynomial:
    """Inverse of iota_prime; every monomial must lie in V."""
    terms = []
    for m, c in f.terms:
        w = word_of_mono(m)
        if w is None:
            raise ValueError(f"monomial outside V: multidegree is not 1^d")
        terms.append((w, c))
    return FreePolynomial(terms)


def iota_inv(a: SkewElement) -> FreePolynomial:
    """Inverse of iota; every component must lie in R."""
    terms = []
    for (m, k), c in a.terms:
        w = word_of_mono(m)
        if w is None or len(w) != k:
            raise ValueError("element outside R")
        terms.append((w, c))
    return FreePolynomial(terms)


def pi(a: SkewElement) -> Polynomial:
    """Erase the s-powers, summing the components in P."""
    return Polynomial(((m, c) for (m, _), c in a.terms), a.ordering.base)


def xi(f: Polynomial) -> SkewElement:
    """Decorate each weight-homogeneous piece f_i with s^i.

    Defined for polynomials whose pieces all have weight >= 1; a nonzero
    constant part (weight None) or a weight-0 piece is rejected.
    """
    terms = []
    for m, c in f.terms:
        w = top_place(m)
        if w is None:
            raise ValueError("xi: input has a nonzero constant part")
        if w < 1:
            raise ValueError("xi: input has a weight-0 piece")
        terms.append((SkewMonomial(m, w), c))
    return SkewElement(terms, SkewOrdering(f.ordering))


def in_V(f: Polynomial) -> bool:
    """True iff every monomial has multidegree 1^d for its degree d."""
    return all(_v_filter(m, 0) for m, _ in f.terms)


def in_R(a: SkewElement) -> bool:
    """True iff every s-degree-i component is multi-homogeneous of type 1^i."""
    return all(_r_filter(m, i) for (m, i), _ in a.terms)


# ---------------------------------------------------------------------------
# Noncommutative Gröbner bases


def _validate_input(H):
    """The nonzero generators, homogeneous of degree >= 1; the completion
    normalizes and deduplicates their images, which keep lc and lm."""
    gens = []
    for h in H:
        if h.is_zero():
            continue
        if not h.is_homogeneous():
            raise engine.InputRejected(
                "free-algebra mode needs homogeneous generators; "
                "homogenize before calling"
            )
        if h.degree() < 1:
            raise engine.InputRejected(
                "constant generator: the ideal is the whole algebra")
        gens.append(h)
    return gens


def _v_filter(l: Monomial, stratum: int) -> bool:
    return word_of_mono(l) is not None


def _r_filter(l: Monomial, level: int) -> bool:
    w = word_of_mono(l)
    return w is not None and len(w) == level


def _normalize_output(out: list) -> list:
    out = sorted(out, key=lambda f: word_key(f.lm()), reverse=True)
    out.sort(key=lambda f: f.degree())
    return out


def _embedding(cfg: engine.GBConfig):
    """The embedding a free mode runs through, its inverse, the engine's
    config and the pair filter: iota into S under the R filter in free2
    mode, iota' into P under the V filter otherwise."""
    if cfg.mode == "free2":
        return iota, iota_inv, replace(cfg, mode="skew"), _r_filter
    return iota_prime, iota_prime_inv, replace(cfg, mode="sigma"), _v_filter


def _free_run(H, cfg: engine.GBConfig):
    """Completion of the embedded generators under the mode's pair filter,
    as a ``GBResult`` whose basis is mapped back to the free algebra."""
    cfg.check_sigma()
    embed, inverse, ecfg, pair_filter = _embedding(cfg)
    gens = [embed(h, cfg.ordering) for h in _validate_input(H)]
    solve = engine.skew_gbasis if ecfg.mode == "skew" else engine.sigma_gbasis
    res = solve(gens, ecfg, pair_filter=pair_filter)
    out = _normalize_output([inverse(p) for p in res.basis])
    return replace(res, basis=out, mode=cfg.mode)


_free2_run = _free_run  # named apart for the CLI and the benchmark's spans


def free_gbasis(H, cfg: engine.GBConfig) -> list:
    """d-truncated homogeneous Gröbner basis of the two-sided ideal <H>."""
    if cfg.mode != "free":
        raise ValueError("config mode must be 'free'")
    return _free_run(H, cfg).basis


def free_gbasis2(H, cfg: engine.GBConfig) -> list:
    """Same contract as free_gbasis, computed inside S on iota(H)."""
    if cfg.mode != "free2":
        raise ValueError("config mode must be 'free2'")
    return _free2_run(H, cfg).basis


def certify_free(G, cfg: engine.GBConfig):
    """``engine.certify`` of a free basis through its embedding: in S with
    the R filter in free2 mode, in P with the V filter otherwise."""
    embed, _, ecfg, pair_filter = _embedding(cfg)
    basis = [embed(g, cfg.ordering) for g in G]
    return engine.certify(basis, ecfg, pair_filter=pair_filter)


def free_oracle_match(
    G, H, cfg: engine.GBConfig, compare_bound: int | None = None
) -> bool:
    """Compare the word lm-ideal of G with the commutative oracle's.

    The oracle expands iota'(H) through the in-window shifts and runs the
    bare commutative Buchberger; a word of length <= d is covered by G iff
    some leading word is a contiguous subword, and covered by the oracle
    iff some oracle leading monomial divides the word's placing.

    The words are walked depth first, each with its placing as an int of
    one bit per (place, letter).  A word is covered iff its prefix one
    letter shorter is, or a new suffix is a leading word, or an oracle lm
    whose top place is the word's length divides the placing.  An lm that
    can divide no placing (an exponent above 1, two letters on one place,
    a place-0 variable, a letter outside the alphabet) is dropped.  Every
    extension of a word that both sides cover is covered by both, so the
    walk does not descend below it.
    """
    d = cfg.degree_bound if compare_bound is None else compare_bound
    letters = set()
    for f in list(G) + list(H):
        letters |= f.letters()
    n = max(letters) + 1 if letters else 1
    ecfg = engine.GBConfig(
        mode="sigma", degree_bound=d, ordering=cfg.ordering, sigma=cfg.sigma
    )
    # The generators are homogeneous, so capping the oracle's pairs at the
    # window degree is exact for the compared part of the lm-ideal.
    oracle = engine.oracle_gbasis_truncated(
        [iota_prime(h, cfg.ordering) for h in H], ecfg, degree_cap=d
    )
    masks = {}  # top place (0 for the lm 1) -> the lms' placing bits
    for lm in (b.lm() for b in oracle.basis if b):
        places = {c >> LETTER_BITS for c, _ in lm}
        if len(places) == len(lm) and 0 not in places and all(
            e == 1 and c & LETTER_MASK < n for c, e in lm
        ):
            masks.setdefault(top_place(lm) or 0, []).append(sum(
                1 << (c >> LETTER_BITS) * n + (c & LETTER_MASK) for c, _ in lm
            ))
    lead = {g.lm() for g in G}
    stack = [((), 0, () in lead, 0 in masks)] if d > 0 else []
    while stack:
        w, placing, main, orc = stack.pop()
        k = len(w) + 1
        new = masks.get(k, ())
        for a in range(n):
            u, p = w + (a,), placing | 1 << k * n + a
            main_hit = main or any(u[i:] in lead for i in range(k))
            if main_hit != (orc or any(p & m == m for m in new)):
                return False
            if not main_hit and k < d:
                stack.append((u, p, False, False))
    return True
