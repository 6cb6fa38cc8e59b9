"""Truncated Buchberger machinery for skew polynomial rings.

Three computations run on one completion loop and an oracle checks them:

* ``sigma_gbasis`` — Gröbner bases of difference ideals of P closed under the
  shift, truncated by weight;
* ``skew_gbasis``  — two-sided bases of s-homogeneous ideals of S, truncated
  by s-degree;
* ``left_gbasis``  — left-module bases in S, no homogeneity assumption;
* ``oracle_gbasis_truncated`` — a commutative Buchberger run in P, once per
  level of S, on the fully expanded, finite window of shifted generators, to
  cross-check the main algorithms' leading-monomial ideals inside the window;
  ``lm_window_match`` maps the main basis's lms through the same rule.  Its
  algorithm stays deliberately naive: no shifts, no criteria, FIFO pairs and
  the first listed generator whose lm divides.  Only its arithmetic is
  tuned: generators in integer form (primitive over Q, monic over Z/p) on
  packed monomials (``poly.MonoPacking``), integer S-polynomials, and a
  pseudo-reducing normal form that pops terms from a heap.  It shares the
  coefficient and monomial layers with the main algorithms, and none of
  their pair enumeration, criteria, reducer search, kernel or completion.

Critical pairs carry a shift decoration: the pair (a, b, k) stands for
spoly(a, sigma**k . b) with the appropriate s-power bookkeeping in skew
modes.  One pair per decoration class suffices: shifting a pair shifts its
whole reduction trace, so only shift-minimal representatives are enumerated.
Truncation is mandatory; the undecorated enumerations do not terminate.

The weight window of sigma mode and the s-degree window of skew mode are one
rule (the letterplace correspondence maps weight onto s-degree), so a single
enumerator, ``_window_pairs``, feeds both the completion and ``certify``;
left mode has its own, ``_left_pairs``.  ``_family`` makes the choice
between left mode and the two-sided modes once, for the completion, the
reduction and ``certify``.  Every mode reduces through one front end,
``_search``, which pairs the reducer search of the mode family (closure
sigma**i(g) * s**j, or s**u * g in left mode) with the one kernel
``_nf_terms`` and answers each term's query once per basis state.  The
completion ``_complete`` keeps its entries tail-reduced.

From one kernel call to the next, coefficients stay in the int form of
``field`` (int numerators over one denominator, Z/p elements over 1): in
the basis entries (``_Entry``), in the S-polynomials they form
(``_Entry.spoly``) and in the kernel's results.  ``field.fraction`` makes
field elements only where a polynomial leaves the engine: ``_Entry.poly``,
``normal_form`` and its record and the oracle's returned basis.

Terms are ints packed by ``poly.MonoPacking`` (``_packed``), a term of S
with its s-degree on top, from the entries and the kernel's heap to the
reducer search, the pairs and the criteria; sigma**u is the endomorphism's
``packed`` action.  ``_Entry.of`` packs; ``_Entry.poly``, ``normal_form``
and its record unpack, and a pair filter sees the lcm unpacked.

Criteria: one ``_Divisors.criterion`` serves the completion and
``certify``.  The product criterion holds only in ideal modes (difference
ideals and the letterplace image of free ideals), where coprime leading
monomials force a trivial syzygy; it is unsound for modules and stays off
in skew modes.
The chain criterion is applied everywhere, but only when both sub-pairs
have strictly smaller lcm, which keeps it sound without treated-pair
bookkeeping or an order of treatment.  ``_complete`` takes pairs stratum
by stratum and, within a stratum, lcm degree first: the ordering alone
blows up under lex.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from math import gcd, lcm

from .endo import MonomialEndomorphism, ShiftEndo
from .field import common_denominator, fraction, inverse, primitive
from .poly import (
    LETTER_BITS,
    LETTER_MASK,
    MONO_ONE,
    Monomial,
    MonomialOrdering,
    LEX,
    MonoPacking,
    Outgrown,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    top_place,
)
from .skew import SkewElement, SkewMonomial, SkewOrdering

__all__ = [
    "EndomorphismRejected",
    "InputRejected",
    "WindowExceeded",
    "GBConfig",
    "GBResult",
    "PairStats",
    "spoly_poly",
    "spoly",
    "normal_form",
    "sigma_gbasis",
    "skew_gbasis",
    "left_gbasis",
    "interreduce",
    "member",
    "certify",
    "oracle_gbasis_truncated",
    "lm_window_match",
]

MODES = ("free", "free2", "sigma", "skew", "left")


class EndomorphismRejected(ValueError):
    """The engine refuses to run with an unsuitable endomorphism."""


class InputRejected(ValueError):
    """Generators outside what a mode accepts: inhomogeneous ones in skew
    or free mode, or a constant in free mode."""


class WindowExceeded(ValueError):
    """The query lies above the truncation window of the given basis."""


@dataclass
class PairStats:
    """Counters for one completion run."""

    considered: int = 0
    product_skipped: int = 0
    chain_skipped: int = 0
    reduced_to_zero: int = 0
    added: int = 0

    def as_text(self) -> str:
        return (
            f"pairs={self.considered} product={self.product_skipped} "
            f"chain={self.chain_skipped} zero={self.reduced_to_zero} "
            f"added={self.added}"
        )


@dataclass(frozen=True)
class GBConfig:
    """Mode, truncation bound, ordering, endomorphism and criteria toggles."""

    mode: str
    degree_bound: int
    ordering: MonomialOrdering = LEX
    sigma: MonomialEndomorphism = dc_field(default_factory=ShiftEndo)
    product_criterion: bool = True  # takes effect in sigma mode only
    chain_criterion: bool = True
    interreduce: bool = True
    trace: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.degree_bound < 1:
            raise ValueError("truncation bound must be at least 1")

    def product_enabled(self) -> bool:
        return self.product_criterion and self.mode == "sigma"

    def check_sigma(self):
        if not self.sigma.div_compatible:
            raise EndomorphismRejected(
                "endomorphism is not divisibility compatible; "
                "shift-decorated criteria would be unsound"
            )
        if self.mode in ("sigma", "free", "free2") and not isinstance(
            self.sigma, ShiftEndo
        ):
            raise EndomorphismRejected(
                "this mode truncates by weight, which measures powers of "
                "the shift; use the shift endomorphism"
            )


@dataclass
class GBResult:
    """A computed basis with its truncation bound and run statistics."""

    basis: list
    mode: str
    degree_bound: int
    stats: PairStats
    trace: list[str] | None = None


# ---------------------------------------------------------------------------
# S-polynomials


def _cancel_leading(f, g, mf: Monomial, mg: Monomial):
    """Lift monic f and g to lcm(mf, mg), where mf and mg are the
    P-monomials of their leading terms, and subtract."""
    l = mono_lcm(mf, mg)
    return f.monic().mul_mono(mono_div(l, mf)) - g.monic().mul_mono(mono_div(l, mg))


def spoly_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial in P: cancel the leading terms over lcm(lm f, lm g)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("spoly of a zero polynomial")
    return _cancel_leading(f, g, f.lm(), g.lm())


def spoly(f: SkewElement, g: SkewElement) -> SkewElement:
    """S-polynomial in S of elements with equal leading s-degree."""
    if f.is_zero() or g.is_zero():
        raise ValueError("spoly of a zero element")
    vf, vg = f.lm(), g.lm()
    if vf.sdeg != vg.sdeg:
        raise ValueError(
            f"leading s-degrees differ: {vf.sdeg} vs {vg.sdeg}"
        )
    return _cancel_leading(f, g, vf.mono, vg.mono)


# ---------------------------------------------------------------------------
# Basis entries and reduction


class _Entry:
    """A monic basis element in int form over packed monomials.

    ``monos`` are its terms packed by ``packing`` (``poly.MonoPacking``),
    leading one first: monomials of P in sigma mode, of S with their
    s-degree in skew and left mode (``_pack``), and ``den`` and ``nums``
    its tail coefficients over one denominator: the element is lc *
    monos[0] + sum(nums[i] / den * monos[i + 1]), so den * element has the
    positive int leading coefficient den and the int tail coefficients
    nums, and ``take_tail`` keeps that form primitive.  Over Z/p, den is 1
    and nums are the tail coefficients.  ``lc`` is the field's 1, ``lm``
    the packed P-monomial of the leading term, ``sdeg`` its s-degree,
    ``top`` the (place, letter, exponent) of the lm's largest variable
    (None for 1) and ``w`` its window weight: the s-degree when the
    packing holds terms of S, else the top's place (-1 for 1).

    A shift moves monomials only and keeps their order and s-degrees, so
    the same numbers serve every shifted image: ``images(u)`` gives its
    tail terms.  ``poly`` unpacks the element on first read, for output.
    ``take_tail`` changes ``monos``, ``den``, ``nums`` and ``poly``;
    ``lm``, ``sdeg``, ``top``, ``w`` and ``index`` never change.
    """

    __slots__ = ("monos", "lc", "den", "nums", "packing", "sdeg", "lm", "top",
                 "w", "index", "_poly")

    def __init__(self, terms, packing: MonoPacking, index: int):
        """The entry of the nonzero element with descending (term,
        numerator) pairs ``terms`` over one denominator, made monic."""
        (lead, c), tail = terms[0], terms[1:]
        self.lc = c * inverse(c)
        self.packing, self.index = packing, index
        self.lm, self.sdeg = lead & packing.base, lead >> packing.sdeg_shift
        self.top = next(((v >> LETTER_BITS, v & LETTER_MASK, e) for v, e
                         in packing.unpack(self.lm)), None)  # the largest
        self.w = self.sdeg if packing.skew else self.top[0] if self.top else -1
        self.monos = (lead,)
        self.take_tail(c, tail)

    @classmethod
    def of(cls, poly, index: int, packing: MonoPacking):
        """The entry of the nonzero element ``poly``."""
        _, nums = common_denominator([c for _, c in poly.terms])
        return cls([(_pack(packing, t), c) for t, c in
                    zip(poly.monomials(), nums)], packing, index)

    def take_tail(self, den, tail):
        """Make ``tail``, descending (packed term, numerator) pairs over
        ``den``, the tail: the one place that sets ``monos``, ``den``,
        ``nums`` and ``poly``.  ``field.primitive`` makes (den, nums)
        primitive: den > 0 over Q, den = 1 over Z/p."""
        den, nums = primitive(den, [c for _, c in tail])
        self.monos = self.monos[:1] + tuple([m for m, _ in tail])
        self.den, self.nums = den, nums
        self._poly = None

    def tail(self) -> dict:
        """The tail as a {term: numerator} dict over ``den``, for the
        kernel."""
        return dict(zip(self.monos[1:], self.nums))

    @property
    def poly(self):
        """The element with tuple monomials and field coefficients."""
        p = self._poly
        if p is None:
            P, den = self.packing, self.den
            terms = ((_unpack(P, self.monos[0]), self.lc),) + tuple(
                (_unpack(P, m), fraction(c, den))
                for m, c in zip(self.monos[1:], self.nums))
            p = self._poly = (
                SkewElement(terms, SkewOrdering(P.ordering), _sorted=True)
                if P.skew else Polynomial(terms, P.ordering, _sorted=True))
        return p

    def images(self, u: int) -> list:
        """The tail terms of sigma**u . element, each on its own s-degree."""
        sigma = self.packing.sigma
        return [sigma(t, u) for t in self.monos[1:]]

    def spoly(self, other: "_Entry", sh: int, l: int):
        """The S-polynomial of this entry and the sh-th shift of ``other``,
        whose lms have lcm ``l``, for the kernel: (D, {term: numerator})
        over the denominator D, the value of ``spoly_poly`` or ``spoly`` on
        the two elements.  Where terms carry s-degrees, l is lifted to the
        pair's, which also makes left mode's shift s**sh * other."""
        P, da, db = self.packing, self.den, other.den
        D = lcm(da, db)
        if P.skew:
            l |= max(self.sdeg, other.sdeg + sh) << P.sdeg_shift
        qa = l - self.monos[0]
        qb = l - P.sigma(other.monos[0], sh)
        # A factor of 1 (always, over Z/p) leaves the numerators as they are.
        fa, fb = D // da, D // db
        na = self.nums if fa == 1 else [n * fa for n in self.nums]
        nb = other.nums if fb == 1 else [n * fb for n in other.nums]
        work = {qa + t: n for t, n in zip(self.monos[1:], na)}
        for t, n in zip(other.images(sh), nb):
            t += qb
            s = work.get(t, 0) - n
            if s:
                work[t] = s
            else:
                del work[t]
        return D, work


def _pack(P: MonoPacking, t) -> int:
    """A monomial of P, or of S with its s-degree on top, packed by P."""
    return (P.pack(t.mono) | t.sdeg << P.sdeg_shift
            if isinstance(t, SkewMonomial) else P.pack(t))


def _unpack(P: MonoPacking, t: int):
    """The monomial of P, or of S when P packs those, that P packed as t."""
    return SkewMonomial(P.unpack(t), t >> P.sdeg_shift) if P.skew \
        else P.unpack(t)


def _split(g, cfg: GBConfig):
    """A nonzero basis element, made monic; in skew mode one spread over
    several s-degrees is refused rather than cut down to its leading
    component."""
    if cfg.mode == "skew" and not g.is_s_homogeneous():
        raise InputRejected("two-sided mode needs s-homogeneous generators")
    return g.monic()


def _packed(cfg: GBConfig, elements, run):
    """``run(P)`` under a packing P of the elements' terms: their letters,
    their places plus the reach of a shift, as many spare places, fields 8
    bits wide, and the s-degree of a term of S.  The reach is the window d
    or an element's larger s-degree (left mode lifts a reducer to a term's
    s-degree), so sigma**u of a monomial in range stays short of the spare
    places' end, where a term's mask test sees it.  ``Outgrown`` starts the
    run over with twice the width and the places; the run is
    deterministic, so its result does not depend on P."""
    terms = [v for g in elements for v, _ in g.terms]
    skew = bool(terms) and isinstance(terms[0], SkewMonomial)
    letters, places = MonoPacking.extent(
        [v.mono for v in terms] if skew else terms)
    reach = max(v.sdeg for v in terms) if skew else 0
    places, width = places + max(cfg.degree_bound, reach), 8
    while True:
        P = _packing(letters, places, cfg.ordering, width, places, cfg.sigma,
                     skew)
        try:
            return run(P)
        except Outgrown:
            width, places = 2 * width, 2 * places


# One packing per shape: small problems and the oracle pay its set-up once.
_packing = lru_cache(maxsize=64)(MonoPacking)


class _Divisors:
    """The images of the lms of a growing list of entries that divide a
    monomial, for the reducer search (``smallest``) and the criteria
    (``criterion``): ``dividing(n, level)`` yields (entry, u) for each
    sigma**u(lm) that divides the packed n, with u at most ``level`` less
    the entry's window weight (``_Entry.w``), or in left mode exactly that;
    a level of None sets no bound.

    Under the place shift sigma**u(lm) can divide n only where it puts the
    top variable of the lm on a variable of n with the same letter and at
    least the exponent: ``columns[letter][place]`` keeps (exponent, variable
    fields of the lm, entry) by that variable, ``ones`` the entries whose
    lm is 1, and only those shifts get a mask test, of n's variable fields
    shifted down u places.  Left mode (one shift an entry) and the other
    endomorphisms try every shift.
    """

    __slots__ = ("entries", "seen", "columns", "ones", "packing", "left",
                 "product", "chain")

    def __init__(self, entries: list, cfg: GBConfig, P: MonoPacking):
        self.entries, self.seen, self.packing, self.ones = entries, 0, P, []
        self.left = cfg.mode == "left"
        self.product, self.chain = cfg.product_enabled(), cfg.chain_criterion
        self.columns = None if self.left or cfg.sigma != ShiftEndo() else {}

    def dividing(self, n: int, level):
        P, entries, guards = self.packing, self.entries, self.packing.guards
        if self.columns is None:  # left or skew mode, by check_sigma
            ng, sigma, left = n | guards, P.sigma, self.left
            for ent in entries:
                hi = level - ent.sdeg
                for u in range(hi if left and hi >= 0 else 0, hi + 1):
                    if (ng - sigma(ent.lm, u)) & guards == guards:
                        yield ent, u
            return
        columns = self.columns
        for ent in entries[self.seen:]:  # those appended since the last call
            if ent.top:
                p0, a, e0 = ent.top
                columns.setdefault(a, {}).setdefault(p0, []).append(
                    (e0, ent.lm & P.exps, ent))
            else:
                self.ones.append(ent)
        self.seen = len(entries)
        for ent in self.ones:  # every image of 1 is 1
            if level is None or level >= ent.w:
                yield ent, 0
        nv = n & P.exps
        for code, e in P.unpack(n):  # each variable of n, the largest first
            place = code >> LETTER_BITS
            for p0, bucket in columns.get(code & LETTER_MASK, {}).items():
                u = place - p0
                if u < 0:
                    continue
                su = nv >> u * P.step | guards
                for e0, lmv, ent in bucket:
                    if e0 > e or (su - lmv) & guards != guards:
                        continue
                    if level is None or u <= level - ent.w:
                        yield ent, u

    def smallest(self, m: int):
        """The reducer search for ``_search``: (entry, shift, shifted lm)
        with the smallest (shifted lm, entry index, shift) among the images
        that divide the term m, or None.  Every shift counts in sigma mode;
        in skew mode the shift may not push the reducer past m's s-degree;
        in left mode the image is the s-power multiple on m's s-degree."""
        P, best = self.packing, None
        level = m >> P.sdeg_shift if P.skew else None
        for ent, u in self.dividing(m, level):
            img = P.sigma(ent.lm, u)
            if best is None or img < best[2] or img == best[2] and (
                    ent.index, u) < (best[0].index, best[1]):
                best = ent, u, img
        return best

    def criterion(self, a: int, b: int, sh: int, l: int, level: int):
        """The criterion that settles the pair (a, b, sh) with lcm l at
        ``level`` (its stratum, or its s-degree in left mode): "product",
        "chain" or None, under the toggles of the config.  The lms are
        coprime iff their packed product is their lcm.  The chain criterion
        (Gebauer–Möller) asks for an image of an entry's lm that divides l
        with both its lcms below l; the images are sigma**u for u up to the
        level less the entry's window weight, or in left mode the one
        s-power multiple on that level."""
        P, entries = self.packing, self.entries
        alm, blm = entries[a].lm, P.sigma(entries[b].lm, sh)
        if self.product and l == alm + blm:
            return "product"
        if self.chain:
            for ent, u in self.dividing(l, level):
                img = P.sigma(ent.lm, u)
                if P.lcm(alm, img) < l and P.lcm(img, blm) < l:
                    return "chain"
        return None


def _nf_terms(M, work, find, over, record=None):
    """Full normal form of the terms ``work``, a {packed term: numerator}
    dict over the denominator M that the kernel consumes, against a finder.

    Returns (M, out): the irreducible terms in descending order as (term,
    numerator) pairs over one final denominator M.  ``find(term)`` gives
    None for an irreducible term, else (cofactor, products, shift, entry):
    ``products`` are the entry's shifted tail terms times the cofactor, on
    the term's s-degree, paired in order with the tail numerators
    ``ent.nums``.  When ``record`` is a list, every reduction step appends
    (coeff, cofactor, shift, entry index), reconstructing the subtracted
    combination exactly; its coefficients are field elements
    (``field.fraction(c, M)``) and its cofactors packed.

    Rationals are reduced fraction-free: a term's value is c / M.  A step by
    an entry whose int-primitive form has leading coefficient a
    (``_Entry.den``) and tail numerators b takes g = gcd(a, c) and subtracts
    (c // g) * b from the tail terms over M * (a // g), all in int
    arithmetic.  When a // g is not 1, that step rescales: the pending terms
    are not touched, but start an older generation over the old M, with the
    factor a // g that brings them over the new one, and the new terms go
    into a fresh dict.  A term of an older generation is brought over the
    current M, one multiplication, only when a step updates it or when it
    is popped and reduced; an irreducible term keeps its generation's
    denominator, and at the end every output numerator is brought over the
    lcm of those denominators.  M only grows; with gcd(a, c) taken at each
    step, it peaks at 3 629 bits over the solve and certify of c41-d4.  A
    call that never rescales, which is every call over Z/p, where a and M
    are 1 and the same loop runs on the field elements, keeps one dict.

    Pending coefficients live in the term -> numerator dicts, and each term
    also sits in a heap of negated terms, so the largest pops first.  A step
    only adds terms strictly below the term it reduces, so the top of the
    heap is always the largest pending term.  A term that cancels leaves
    its dict only; its stale heap entry is skipped when popped (lazy
    deletion), and a term that enters again is pushed again.  Every term
    that does not cancel is popped, and one that has a bit of ``over`` (it
    outgrew the packing) raises ``poly.Outgrown``.
    """
    heap = [-t for t in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out = []
    gens = []  # older generations with pending terms: [dict, factor, out]
    outs = []  # every older generation: (its out, its M)
    while heap:
        t = -pop(heap)
        c = work.pop(t, None)
        gen = None
        if c is None:
            for gen in gens:
                c = gen[0].pop(t, None)
                if c is not None:
                    break
            else:
                continue
        if t & over:
            raise Outgrown("monomial outgrows its packing")
        hit = find(t)
        if hit is None:
            (out if gen is None else gen[2]).append((t, c))
            continue
        if gen is not None:
            c *= gen[1]
        q, products, u, ent = hit
        if record is not None:
            record.append((fraction(c, M), q, u, ent.index))
        a = ent.den
        if a != 1:
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                gens = [gen for gen in gens if gen[0]]
                for gen in gens:
                    gen[1] *= a
                if work or out:
                    gens.append([work, a, out])
                    outs.append((out, M))
                    work, out = {}, []
                M *= a
        for t2, b in zip(products, ent.nums):
            prev = work.get(t2)
            if prev is None:
                for gen in gens:
                    prev = gen[0].pop(t2, None)
                    if prev is not None:
                        prev *= gen[1]
                        break
                else:
                    work[t2] = -c * b
                    push(heap, -t2)
                    continue
            s = prev - c * b
            if s:
                work[t2] = s
            else:
                work.pop(t2, None)
    if outs:
        outs = [(o, d) for o, d in (*outs, (out, M)) if o]
        if outs:
            M = lcm(*[d for _, d in outs])
        out = []
        for o, d in outs:
            f = M // d
            out += [(t, c * f) for t, c in o]
        out.sort(reverse=True)  # terms are distinct: numerators never compare
    return M, out


# ---------------------------------------------------------------------------
# The completion core (all modes)


def _family(cfg: GBConfig):
    """What differs between left mode and sigma/skew mode beyond the
    packing: the pair enumerator, and the shift's name in trace lines and
    certify failures."""
    return (_left_pairs, "s") if cfg.mode == "left" else (_window_pairs,
                                                           "sigma")


def _window_pairs(entries: list[_Entry], t: int, cfg: GBConfig,
                  P: MonoPacking, pair_filter):
    """The in-window critical pairs of entry t against entries 0..t.

    Yields (a, b, shift, stratum, lcm) for spoly(a, sigma**shift . b): for
    each j < t first (j, t) from shift 0, then (t, j) from shift 1, and last
    (t, t) from shift 1.  Over t = 0, 1, ... this is every ordered pair once
    up to sign: shift 0 of (a, b) equals that of (b, a), and of (a, a) it is
    zero.  With w the entries' window weight (``_Entry.w``: the s-degree in
    skew mode, the weight of the leading monomial in sigma mode), a pair
    lies in stratum max(w(a), w(b) + shift), and the shifts run exactly up
    to stratum d.  That is one rule for both modes, because the letterplace
    correspondence maps the weight of an ideal of P onto the s-degree of its
    image in S.  ``pair_filter(lcm, stratum)``, when given, vetoes pairs the
    caller knows to be irrelevant; it sees the lcm unpacked.
    """
    sigma, plcm = P.sigma, P.lcm
    d = cfg.degree_bound
    for j in range(t + 1):
        for a, b, sh0 in ((t, t, 1),) if j == t else ((j, t, 0), (t, j, 1)):
            ea, eb = entries[a], entries[b]
            wa, wb = ea.w, eb.w
            if wa > d:
                continue
            for sh in range(sh0, d - wb + 1):
                l = plcm(ea.lm, sigma(eb.lm, sh))
                stratum = max(wa, wb + sh)
                if pair_filter is None or pair_filter(P.unpack(l), stratum):
                    yield a, b, sh, stratum, l


def _complete(seeds, cfg: GBConfig, P: MonoPacking, pair_filter=None):
    """Run pair completion in any mode on monic seeds, through the parts of
    the mode family (``_family``), over the packing P.

    A pair's S-polynomial lies on its stratum in skew and left mode
    (``_Entry.spoly``), on s-degree 0 in sigma mode.  ``pair_filter(lcm,
    level)`` may veto structurally irrelevant pairs (the letterplace
    membership filters).  Returns (entries, stats, trace); the trace is a
    list of lines when ``cfg.trace`` is set, else None.
    """
    pairs, shift = _family(cfg)

    entries: list[_Entry] = []
    stats = PairStats()
    trace = [] if cfg.trace else None
    heap: list = []
    _, reduce = _search(entries, cfg, P)
    criterion = _Divisors(entries, cfg, P).criterion

    def note(a, b, sh, stratum, outcome):
        if trace is not None:
            trace.append(f"(g{a + 1}, {shift}^{sh}.g{b + 1})@{stratum} {outcome}")

    def add_element(ent):
        entries.append(ent)
        stats.added += 1
        for a, b, sh, stratum, l in pairs(entries, ent.index, cfg, P,
                                          pair_filter):
            # The running count breaks ties in the order of enumeration.
            heapq.heappush(heap, (stratum, P.degree(l), l, stats.considered,
                                  a, b, sh))
            stats.considered += 1
        # Reduce again each older tail that an image of the new lm divides.
        # Such an image lies on the new s-degree or above, and no term it
        # divides is below the new leading term, so a tail below either is
        # not searched.
        hits = _Divisors([ent], cfg, P).smallest
        lead = ent.monos[0]
        for old in entries[:-1]:
            if old.sdeg < ent.sdeg or len(old.monos) == 1 or old.monos[1] < lead:
                continue
            if any(hits(m) for m in old.monos[1:]):
                old.take_tail(*reduce(old.den, old.tail()))
        return ent

    for g in seeds:  # unlike a normal form, a seed's tail may reduce
        ent = add_element(_Entry.of(g, len(entries), P))
        ent.take_tail(*reduce(ent.den, ent.tail()))

    while heap:
        stratum, _, l, _, a, b, sh = heapq.heappop(heap)
        crit = criterion(a, b, sh, l, stratum)
        if crit:
            if crit == "product":
                stats.product_skipped += 1
            else:
                stats.chain_skipped += 1
            note(a, b, sh, stratum, f"skip:{crit}")
            continue
        _, nf = reduce(*entries[a].spoly(entries[b], sh, l))
        if not nf:
            stats.reduced_to_zero += 1
            note(a, b, sh, stratum, "-> 0")
            continue
        lead = nf[0][0]
        if cfg.mode == "sigma" and lead == 0:
            note(a, b, sh, stratum, "-> 1")
            warnings.warn("basis contains a constant: unit ideal")
            return [_Entry(nf, P, 0)], stats, trace
        ent = add_element(_Entry(nf, P, len(entries)))
        note(a, b, sh, stratum, f"-> g{ent.index + 1}")

    return entries, stats, trace


def _solve(H, cfg: GBConfig, mode: str, pair_filter=None) -> GBResult:
    """The solvers' one body: complete from the distinct ``_split`` seeds of
    the nonzero elements of H, then interreduce unless the config says
    otherwise.  In sigma mode a constant generator gives the unit ideal."""
    if cfg.mode != mode:
        raise ValueError(f"config mode must be {mode!r}")
    cfg.check_sigma()
    seeds = {}
    for h in H:
        if h:
            g = _split(h, cfg)
            if mode == "sigma" and g.lm() == MONO_ONE:
                warnings.warn("constant generator: unit ideal")
                return GBResult([g], mode, cfg.degree_bound, PairStats(),
                                None)
            seeds[g] = None  # an ordered set: a repeat is dropped

    def run(P):
        entries, stats, trace = _complete(seeds, cfg, P, pair_filter)
        if cfg.interreduce:
            entries = _interreduce(entries, cfg, P)
        return [e.poly for e in entries], stats, trace

    basis, stats, trace = _packed(cfg, list(seeds), run)
    return GBResult(basis, mode, cfg.degree_bound, stats, trace)


def sigma_gbasis(H, cfg: GBConfig, pair_filter=None) -> GBResult:
    """d-truncated Gröbner basis of the difference ideal generated by H.

    H is a set of polynomials of P; the ideal is closed under the shift, and
    every S-polynomial spoly(f, sigma**k . g) whose lcm has weight <= d
    reduces to zero modulo the shifted basis closure.  ``pair_filter`` is
    passed to the completion (the letterplace V filter).
    """
    return _solve(H, cfg, "sigma", pair_filter)


def skew_gbasis(H, cfg: GBConfig, pair_filter=None) -> GBResult:
    """d-truncated two-sided Gröbner basis for s-homogeneous generators;
    ``pair_filter`` is passed to the completion (the letterplace R filter)."""
    return _solve(H, cfg, "skew", pair_filter)


# ---------------------------------------------------------------------------
# Left module mode


def _left_pairs(entries: list[_Entry], t: int, cfg: GBConfig,
                P: MonoPacking, pair_filter):
    """The in-window left critical pairs of entry t against entries 0..t-1.

    Yields (a, b, shift, s-degree, lcm) for spoly(a, s**shift . b): the
    entry of larger leading s-degree comes first and the other is lifted to
    meet it; on equal s-degree (shift 0) entry t comes first.  Pairs above
    s-degree d are dropped, as are those that ``pair_filter(lcm, s-degree)``
    vetoes, when given; it sees the lcm unpacked.
    """
    for j in range(t):
        da, db = entries[t].sdeg, entries[j].sdeg
        a, b, sh = (t, j, da - db) if da >= db else (j, t, db - da)
        e = max(da, db)
        if e <= cfg.degree_bound:
            l = P.lcm(entries[a].lm, P.sigma(entries[b].lm, sh))
            if pair_filter is None or pair_filter(P.unpack(l), e):
                yield a, b, sh, e, l


def left_gbasis(H, cfg: GBConfig) -> GBResult:
    """d-truncated left Gröbner basis; no homogeneity assumption."""
    return _solve(H, cfg, "left")


# ---------------------------------------------------------------------------
# Normal form, interreduction, membership


def _entries(G, cfg: GBConfig, P: MonoPacking):
    """Entries over P for the nonzero elements of G (``_split``), indexed by
    their position in G."""
    return [_Entry.of(_split(g, cfg), i, P) for i, g in enumerate(G) if g]


def _search(entries, cfg: GBConfig, P: MonoPacking):
    """The reducer search of the mode family over ``entries``, and the
    reduction through it; both see entries appended later.

    Returns (find, reduce).  ``find(m)`` gives the ``_nf_terms`` hit,
    (cofactor, products, shift, entry), or None.  The search is a pure
    function of the term m, whose s-degree is its level, and the entries'
    lms, which only grow by append, so a memo keyed by m keeps each answer
    with its products and is cleared whenever the number of entries has
    changed since it was filled; a hit is also cleared when its entry takes
    a new tail (``take_tail``), and rebuilt from that tail.  ``reduce(M,
    work, record=None)`` gives the ``_nf_terms`` normal form, in int form,
    of the {term: numerator} dict ``work`` over M against the family's
    closure.  The cofactor is the term less the image of the entry's
    leading term, s-degree included, and the products are the entry's
    ``images`` plus the cofactor, the product ``_Entry.spoly`` uses too.
    """
    search = _Divisors(entries, cfg, P).smallest
    sigma, over = P.sigma, P.over
    memo = {}
    filled = 0

    def find(m):
        nonlocal filled
        if len(entries) != filled:
            memo.clear()
            filled = len(entries)
        hit, nums = memo.get(m, (memo, None))  # memo: a new query
        if hit is memo:
            hit = search(m)
            if hit is not None:
                ent, u, _ = hit
                hit = m - sigma(ent.monos[0], u), None, u, ent
        elif hit is None or hit[3].nums is nums:
            return hit
        if hit is not None:  # new, or stale: its entry took a new tail since
            q, _, u, ent = hit
            hit, nums = (q, tuple([q + t for t in ent.images(u)]), u,
                         ent), ent.nums
        memo[m] = hit, nums
        return hit

    def reduce(M, work, record=None):
        return _nf_terms(M, work, find, over, record)

    return find, reduce


def normal_form(f, G, cfg: GBConfig, record=None):
    """Normal form of f against the lazily shifted closure of G.

    In sigma mode f and G are polynomials of P and the closure is all
    sigma-power images; in skew/left modes they are skew elements and the
    closure carries the matching s-power decorations.  When ``record`` is a
    list, it receives the division steps (see ``_nf_terms``) in every mode,
    with tuple cofactors of P.
    """
    cfg.check_sigma()
    G = list(G)

    def run(P):
        steps = None if record is None else []
        _, reduce = _search(_entries(G, cfg, P), cfg, P)
        M, nums = common_denominator([c for _, c in f.terms])
        M, out = reduce(M, {_pack(P, t): c for t, c in
                            zip(f.monomials(), nums)}, steps)
        nf = [(_unpack(P, t), fraction(c, M)) for t, c in out]
        return nf, steps and [(c, P.unpack(q), u, i) for c, q, u, i in steps]

    nf, steps = _packed(cfg, [*G, f], run)
    if record is not None:
        record.extend(steps)
    if cfg.mode == "sigma":
        return Polynomial(nf, cfg.ordering, _sorted=True)
    return SkewElement(nf, SkewOrdering(cfg.ordering), _sorted=True)


def _interreduce(entries, cfg: GBConfig, P: MonoPacking):
    """The entries that ``interreduce`` keeps, their tails reduced."""
    kept: list = []
    find, reduce = _search(kept, cfg, P)
    for ent in sorted(entries, key=lambda e: e.monos[0]):
        if find(ent.monos[0]) is None:
            ent.index = len(kept)
            kept.append(ent)
    # Every tail reduces against the kept elements as given, before any
    # of them takes its new tail.
    tails = [reduce(ent.den, ent.tail()) for ent in kept]
    for ent, tail in zip(kept, tails):
        ent.take_tail(*tail)
    return kept


def interreduce(basis, cfg: GBConfig):
    """Minimalize lm-redundant elements, reduce all tails, sort canonically.

    Elements are taken smallest first, and one is kept when the reducer
    search over those kept so far finds no divisor of its leading monomial;
    the same search then reduces every tail.  On ``_complete``'s output,
    already tail-reduced, it only drops lm-redundant elements and sorts.
    """
    cfg.check_sigma()
    basis = list(basis)
    return _packed(cfg, basis, lambda P: [
        e.poly for e in _interreduce(_entries(basis, cfg, P), cfg, P)])


def member(f, basis, cfg: GBConfig) -> bool:
    """Ideal membership of f against a d-truncated basis.

    Only decidable inside the window: in sigma mode every monomial of f must
    have weight <= d, in skew/left modes s-degree <= d.
    """
    if f.is_zero():
        return True
    if isinstance(f, Polynomial):
        w = f.weight()  # None for a constant, which lies in every window
        if cfg.mode == "sigma" and w is not None and w > cfg.degree_bound:
            raise WindowExceeded(
                f"weight of query exceeds truncation bound {cfg.degree_bound}"
            )
    elif f.sdeg() > cfg.degree_bound:
        raise WindowExceeded(
            f"s-degree of query exceeds truncation bound {cfg.degree_bound}"
        )
    return not normal_form(f, basis, cfg)


# ---------------------------------------------------------------------------
# Post-hoc certification


def certify(basis, cfg: GBConfig, pair_filter=None):
    """Check that every in-window critical pair reduces to zero, skipping
    those that ``_Divisors.criterion`` settles as the completion would.
    Returns (ok, failures).

    The pairs come from the completion's own enumerators, so the two see the
    same window.  The criteria are sound for a check as well: a chain's two
    sub-pairs have strictly smaller lcms inside the window, so induction on
    the lcm covers them whatever the order.  On a failure the check runs
    again with both criteria off, which reduces every pair and lists the
    failures in enumeration order; ``criteria: none`` asks for that run."""
    cfg.check_sigma()
    basis = list(basis)
    pairs, shift = _family(cfg)

    def run(P):
        failures: list[str] = []
        entries = _entries(basis, cfg, P)
        _, reduce = _search(entries, cfg, P)
        criterion = _Divisors(entries, cfg, P).criterion
        for t in range(len(entries)):
            for a, b, sh, level, l in pairs(entries, t, cfg, P, pair_filter):
                if criterion(a, b, sh, l, level):
                    continue
                if reduce(*entries[a].spoly(entries[b], sh, l))[1]:
                    if cfg.product_enabled() or cfg.chain_criterion:
                        return certify(basis, replace(
                            cfg, product_criterion=False, chain_criterion=False
                        ), pair_filter)
                    failures.append(f"pair (g{a + 1}, {shift}^{sh}.g{b + 1}) "
                                    f"does not reduce to zero")
        return not failures, failures

    return _packed(cfg, basis, run)


# ---------------------------------------------------------------------------
# The independent oracle


def _oracle_form(terms):
    """Nonzero descending (packed monomial, coefficient) pairs as an oracle
    generator (lm, a, tail pairs), made primitive (``field.primitive``):
    over Q with the positive int leading coefficient a, over Z/p monic,
    a = 1.  The form is unique for each class of nonzero scalar multiples."""
    a, nums = primitive(terms[0][1], [c for _, c in terms[1:]])
    return terms[0][0], a, tuple(zip([t for t, _ in terms[1:]], nums))


def _oracle_nf(work: dict, gens: list, seen: dict, guards: int):
    """Plain normal form of the {packed monomial: numerator} dict ``work``
    against ``gens``, the oracle generators: the first listed whose lm
    divides reduces, by the mask test over the packing's ``guards``.
    ``seen`` is the run's first-divisor memo: i at a monomial means none of
    the first i generators divides it, so the scan resumes there and stores
    where it stopped; the list only grows by append, so the first listed
    divisor stays the one found.  Returns the nonzero result as an oracle
    generator (``_oracle_form``), or None.

    Over Q this is pseudo-reduction in int arithmetic: a term c reduced by a
    generator with leading coefficient a takes k = gcd(a, c), scales every
    pending and every output numerator by a // k and subtracts c // k times
    the cofactor times the tail, so the result is a nonzero multiple of the
    normal form.  Over Z/p every a is 1 and the same loop runs on the field
    elements.  Terms are popped from a heap of negated monomials, largest
    first; a step only adds terms below the one it reduces, and a term that
    cancels leaves its heap entry behind, skipped when popped.  A product
    that outgrew a field sets a guard bit and raises ``poly.Outgrown``."""
    heap = [-t for t in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out = []
    while heap:
        t = -pop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        if t & guards:
            raise Outgrown("monomial outgrows its packing")
        tg = t | guards
        i = seen.get(t, 0)
        for i in range(i, len(gens)):
            v, a, tail = gens[i]
            if (tg - v) & guards == guards:
                break
        else:
            seen[t] = len(gens)
            out.append((t, c))
            continue
        seen[t] = i
        if a != 1:
            k = gcd(a, c)
            a //= k
            c //= k
            if a != 1:
                work = {tt: cc * a for tt, cc in work.items()}
                out = [(tt, cc * a) for tt, cc in out]
        q = t - v
        for mm, b in tail:
            t2 = q + mm
            prev = work.get(t2)
            if prev is None:
                work[t2] = -c * b
                push(heap, -t2)
            else:
                s = prev - c * b
                if s:
                    work[t2] = s
                else:
                    del work[t2]
    return _oracle_form(out) if out else None


def _oracle_buchberger(gens: list[Polynomial], degree_cap=None):
    """Textbook Buchberger in P: no shifts, no criteria, FIFO pairs.

    degree_cap skips pairs whose lcm exceeds that total degree, which is
    exact for the capped part of the lm-ideal when the input is homogeneous.

    It runs in integer form (``_oracle_form``: primitive over Q, monic over
    Z/p) on packed monomials: the S-polynomial of generators with leading
    coefficients a_i, a_j is (a_j / g) q_i f_i - (a_i / g) q_j f_j for g =
    gcd(a_i, a_j), and ``_oracle_nf`` pseudo-reduces it through one
    first-divisor memo.  Each result is a scalar multiple of the one field
    arithmetic gives, so the same pairs reduce to zero.  A field that
    overflows starts the run over at twice the width, with a new memo.
    Generators become monic only on return.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    lc, ordering = gens[0].lc(), gens[0].ordering
    one = lc * inverse(lc)  # the field's 1
    rows = [(g.monomials(), common_denominator([c for _, c in g.terms])[1])
            for g in gens]
    letters, places = MonoPacking.extent(m for ms, _ in rows for m in ms)
    width = 8  # exponents and degrees up to 127
    while True:
        P = _packing(letters, places, ordering, width)
        try:
            G = list(dict.fromkeys(  # the forms in listed order, no repeats
                _oracle_form(list(zip(map(P.pack, ms), nums)))
                for ms, nums in rows))
            seen = {}  # the first-divisor memo
            # A new generator's pairs queue behind all others, so the FIFO
            # order is (i, j) by j, then i, over the growing G: no pair list.
            j = 1
            while j < len(G):
                vj, aj, tj = G[j]
                for i in range(j):
                    vi, ai, ti = G[i]
                    l = P.lcm(vi, vj)
                    if degree_cap is not None and P.degree(l) > degree_cap:
                        continue
                    qi, qj = l - vi, l - vj
                    g = gcd(ai, aj)
                    fi, fj = aj // g, ai // g
                    work = {qi + mm: b * fi if fi != 1 else b for mm, b in ti}
                    for mm, b in tj:
                        t = qj + mm
                        s = work.get(t, 0) - (b * fj if fj != 1 else b)
                        if s:
                            work[t] = s
                        else:
                            del work[t]
                    if not work:
                        continue
                    nf = _oracle_nf(work, G, seen, P.guards)
                    if nf is not None:
                        G.append(nf)
                j += 1
            break
        except Outgrown:
            width *= 2
    un = P.unpack
    return [Polynomial(((un(v), one),) + tuple(
        (un(t), fraction(b, a)) for t, b in tail
    ), ordering, _sorted=True) for v, a, tail in G]


def _window_slots(w, cfg: GBConfig):
    """The window rule: each shift i, with the levels of S its sigma**i
    image sits on, for what has weight (sigma mode) or s-degree (skew mode)
    w.  A constant (w None) has its one image."""
    d = cfg.degree_bound
    if cfg.mode == "sigma":
        return [(i, (0,)) for i in range(1 if w is None else d - w + 1)]
    if cfg.mode == "skew":
        return [(i, range(w + i, d + 1)) for i in range(d - w + 1)]
    raise ValueError("lm window comparison supports sigma and skew modes")


def expand_window(H, cfg: GBConfig) -> dict:
    """The oracle's generators by level of S, {level: [polynomial of P]},
    each level's in the order listed: under ``_window_slots``, the shift
    images of weight within d of each nonzero h of H, all on level 0 (sigma
    mode), or the images sigma**i(h) that stand for s**i . h . s**j, of
    total s-degree within d, on their levels, where h is s-homogeneous
    (skew mode, ``_split``)."""
    out = {}
    for h in H:
        if h:
            w, poly = ((h.weight(), h) if cfg.mode == "sigma"
                       else _split(h, cfg).parts[0])
            for i, levels in _window_slots(w, cfg):
                img = cfg.sigma.poly(poly, i)
                for lvl in levels:
                    out.setdefault(lvl, []).append(img)
    return out


def oracle_gbasis_truncated(H, cfg: GBConfig, degree_cap=None) -> GBResult:
    """Independent cross-check: expand the shifted generators inside the
    window and run a bare commutative Buchberger in P on each level of S
    (``_oracle_buchberger``).  A graded ideal of S meets each level s**i in
    an ideal of P times s**i, so the levels are independent.  In skew mode
    the basis holds elements of S grouped by level, lowest first, each
    level's in the order of its run."""
    cfg.check_sigma()
    if cfg.mode not in ("sigma", "skew"):
        raise ValueError("oracle supports sigma and skew modes")
    G = [g if cfg.mode == "sigma" else SkewElement.of_poly(g, lvl)
         for lvl, gens in sorted(expand_window(H, cfg).items())
         for g in _oracle_buchberger(gens, degree_cap)]  # nonzero, monic
    return GBResult(G, cfg.mode, cfg.degree_bound, PairStats(), None)


def lm_window_match(main: GBResult, oracle: GBResult, cfg: GBConfig) -> bool:
    """Window-restricted equality of leading-monomial ideals.

    Each lm of the main basis is mapped through the window rule that expands
    the oracle's generators, from its s-degree or, in sigma mode, its top
    place.  The two sides generate the same truncated lm-ideal iff each
    side's generators are divisible by the other's.
    """
    def lm(g):
        return SkewMonomial(g.lm(), 0) if cfg.mode == "sigma" else g.lm()

    A = set()
    for v in (lm(g) for g in main.basis if g):
        w = top_place(v.mono) if cfg.mode == "sigma" else v.sdeg
        for i, levels in _window_slots(w, cfg):
            m = cfg.sigma.mono(v.mono, i)
            A.update(SkewMonomial(m, lvl) for lvl in levels)
    return _mutually_divisible_leveled(A, {lm(b) for b in oracle.basis if b})


def _mutually_divisible_leveled(A: set, B: set) -> bool:
    """Each monomial of S in A is divided by one of B on its level, and
    the other way round; sigma-mode monomials all sit on level 0.  Each
    side is grouped by level once, and a monomial that the other side holds
    as it is needs no scan."""
    for X, Y in ((B, A), (A, B)):
        levels = {}
        for x in X:
            levels.setdefault(x.sdeg, []).append(x.mono)
        if not all(y in X or any(mono_divides(m, y.mono)
                                 for m in levels.get(y.sdeg, ()))
                   for y in Y):
            return False
    return True
