"""Truncated Buchberger machinery for skew polynomial rings.

Three computations run on one completion loop and an oracle checks them:

* ``sigma_gbasis`` — Gröbner bases of difference ideals of P closed under the
  shift, truncated by weight;
* ``skew_gbasis``  — two-sided bases of s-homogeneous ideals of S, truncated
  by s-degree;
* ``left_gbasis``  — left-module bases in S, no homogeneity assumption;
* ``oracle_gbasis_truncated`` — a commutative (module) Buchberger run on the
  fully expanded, finite window of shifted generators, to cross-check the
  main algorithms' leading-monomial ideals inside the window;
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
``_nf_terms`` and answers each (monomial, level) query once per basis
state.  The completion ``_complete`` keeps its entries tail-reduced.

From one kernel call to the next, coefficients stay in the int form of
``field`` (int numerators over one denominator, Z/p elements over 1): in
the basis entries (``_Entry``), in the S-polynomials they form
(``_Entry.spoly``) and in the kernel's results.  ``field.fraction`` makes
field elements only where a polynomial leaves the engine: ``_Entry.poly``,
``normal_form`` and its record and the oracle's returned basis.

Criteria: one ``_criterion`` serves the completion and ``certify``.  The
product criterion holds only in ideal modes (difference ideals and the
letterplace image of free ideals), where coprime leading monomials force a
trivial syzygy; it is unsound for modules and stays off in skew modes.
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
from math import gcd, lcm
from typing import NamedTuple

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
    Polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    top_place,
)
from .skew import SkewElement, SkewMonomial, SkewOrdering

__all__ = [
    "EndomorphismRejected",
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
    """A monic basis element in int form, with cached shifted images.

    ``monos`` are its monomials, leading one first, and ``den`` and
    ``nums`` its tail coefficients over one denominator: the element is
    lc * monos[0] + sum(nums[i] / den * monos[i + 1]), so den * element has
    the positive int leading coefficient den and the int tail coefficients
    nums, and ``take_tail`` keeps that form primitive.  Over Z/p, den is 1
    and nums are the tail coefficients.  ``lc`` is the field's 1, ``lm`` the
    P-monomial of the leading term, ``sdeg`` that term's s-degree and
    ``rest`` the leading monomial without the top variable.

    A shift moves monomials only and keeps their order, so the same numbers
    serve every shifted image, and an image is a tuple of monomials:
    ``shifted_lm`` and ``shifted_tail`` give those of sigma**u . element.
    ``poly`` builds the element with field coefficients on first read, for
    output.  ``take_tail`` changes ``monos``, ``den``, ``nums``, the tail
    images and ``poly``; ``lm``, ``sdeg``, ``rest``, ``lmw``, ``index`` and
    the shifted lms never change.
    """

    __slots__ = ("monos", "lc", "den", "nums", "ordering", "sdeg", "lm",
                 "rest", "lmw", "index", "_poly", "_tails", "_shifted_lm")

    ring = Polynomial
    mul = staticmethod(mono_mul)  # cofactor times a monomial of the ring

    def __init__(self, terms, ordering, sdeg: int, index: int):
        """The entry of the nonzero element with the descending (monomial,
        numerator) pairs ``terms`` over any one denominator, made monic."""
        (lead, c), tail = terms[0], terms[1:]
        self.lc = c * inverse(c)
        self.ordering, self.sdeg, self.index = ordering, sdeg, index
        self.lm = lead.mono if isinstance(lead, SkewMonomial) else lead
        self.rest = self.lm[1:]
        self.lmw = top_place(self.lm) if self.lm else -1
        self._shifted_lm = {0: self.lm}
        self.monos = (lead,)
        self.take_tail(c, tail)

    @classmethod
    def of(cls, poly, sdeg: int, index: int):
        """The entry of the nonzero element ``poly``."""
        _, nums = common_denominator([c for _, c in poly.terms])
        return cls(list(zip(poly.monomials(), nums)), poly.ordering, sdeg,
                   index)

    def take_tail(self, den, tail):
        """Make ``tail``, descending (monomial, numerator) pairs over
        ``den``, the tail: the one place that sets ``monos``, ``den``,
        ``nums``, the tail images and ``poly``.  ``field.primitive`` makes
        (den, nums) primitive: den > 0 over Q, den = 1 over Z/p."""
        den, nums = primitive(den, [c for _, c in tail])
        self.monos = self.monos[:1] + tuple([m for m, _ in tail])
        self.den, self.nums = den, nums
        self._tails = {0: self.monos[1:]}
        self._poly = None

    def tail(self) -> dict:
        """The tail as a {monomial: numerator} dict over ``den``, for the
        kernel."""
        return dict(zip(self.monos[1:], self.nums))

    @property
    def poly(self):
        """The element with field coefficients (``Fraction`` over Q)."""
        p = self._poly
        if p is None:
            den = self.den
            p = self._poly = self.ring(((self.monos[0], self.lc),) + tuple(
                (m, fraction(c, den)) for m, c in zip(self.monos[1:], self.nums)
            ), self.ordering, _sorted=True)
        return p

    @staticmethod
    def shift(sigma: MonomialEndomorphism, m, u: int):
        """The image of a monomial of the element under its u-th shift."""
        return sigma.mono(m, u)

    def shifted_tail(self, sigma: MonomialEndomorphism, u: int) -> tuple:
        t = self._tails.get(u)
        if t is None:
            shift = self.shift
            t = self._tails[u] = tuple([shift(sigma, m, u)
                                        for m in self.monos[1:]])
        return t

    def shifted_lm(self, sigma: MonomialEndomorphism, u: int) -> Monomial:
        m = self._shifted_lm.get(u)
        if m is None:
            m = sigma.mono(self.lm, u)
            self._shifted_lm[u] = m
        return m

    def spoly(self, other: "_Entry", sh: int, l: Monomial,
              sigma: MonomialEndomorphism):
        """The S-polynomial of this entry and the sh-th shift of ``other``,
        whose leading monomials have lcm ``l``, for the kernel: (D, {term:
        numerator}) over the denominator D, the value of ``spoly_poly`` or
        ``spoly`` on the two elements."""
        mul = self.mul
        da, db = self.den, other.den
        D = lcm(da, db)
        qa = mono_div(l, self.lm)
        qb = mono_div(l, other.shifted_lm(sigma, sh))
        # A factor of 1 (always, over Z/p) leaves the numerators as they are.
        fa, fb = D // da, D // db
        na = self.nums if fa == 1 else [n * fa for n in self.nums]
        nb = other.nums if fb == 1 else [n * fb for n in other.nums]
        work = {mul(qa, t): n for t, n in zip(self.monos[1:], na)}
        for t, n in zip(other.shifted_tail(sigma, sh), nb):
            t = mul(qb, t)
            s = work.get(t, 0) - n
            if s:
                work[t] = s
            else:
                del work[t]
        return D, work


def _split(g, cfg: GBConfig):
    """A nonzero basis element as (monic element, s-degree): an element of
    S in left mode, a polynomial of P in sigma/skew mode.

    Two-sided reduction works one s-degree at a time, so in skew mode an
    element spread over several s-degrees is refused rather than cut down
    to its leading component.
    """
    if cfg.mode == "left":
        return g.monic(), g.sdeg()
    if cfg.mode != "skew":
        return g.monic(), 0
    if not g.is_s_homogeneous():
        raise ValueError("two-sided mode needs s-homogeneous generators")
    sdeg, poly = g.parts[0]
    return poly.monic(), sdeg


def _make_finder(entries: list[_Entry], cfg: GBConfig):
    """Reducer search over the lazily shifted basis closure.

    Returns search(m, level) -> (entry, shift, shifted lm) or None, for
    ``_search``.  Among all entries and shifts whose image divides m it
    picks the smallest (okey(shifted lm), entry index, shift).  Shifting
    strictly raises a monomial under lex and deglex, so the smallest
    dividing shift of an entry gives that entry's smallest image, and the
    search may stop at it.  In skew mode the shift may not push the
    reducer past the working s-degree.

    For the place shift only the shifts u that carry the top variable of an
    entry's lm onto a variable of m with the same letter can divide, so each
    call maps the letters of m to their codes, ascending, and walks the list
    of the entry's top letter.  A constant lm divides at u = 0.  Any other
    endomorphism comes only in skew mode (``check_sigma`` refuses it where
    the window is a weight), so its shifts are tried up to the s-degree cap.
    """
    sigma = cfg.sigma
    okey = cfg.ordering.key
    level_capped = cfg.mode == "skew"
    is_shift = isinstance(sigma, ShiftEndo)

    def search(m: Monomial, level: int):
        md = dict(m)
        if is_shift:
            by_letter: dict[int, list] = {}
            for c, e in reversed(m):
                by_letter.setdefault(c & LETTER_MASK, []).append((c, e))
        best_sel = None
        best = None
        for ent in entries:
            if level_capped:
                ucap = level - ent.sdeg
                if ucap < 0:
                    continue
            if is_shift:
                u = 0
                if ent.lm:
                    u = None
                    c0, e0 = ent.lm[0]
                    for c, e in by_letter.get(c0 & LETTER_MASK, ()):
                        step = c - c0
                        if step < 0 or e < e0:
                            continue
                        if level_capped and step >> LETTER_BITS > ucap:
                            break
                        for cc, k in ent.rest:
                            if md.get(cc + step, 0) < k:
                                break
                        else:
                            u = step >> LETTER_BITS
                            break
                    if u is None:
                        continue
                img = ent.shifted_lm(sigma, u)
                sel = (okey(img), ent.index, u)
                if best_sel is None or sel < best_sel:
                    best_sel, best = sel, (ent, u, img)
                continue
            for u in range(ucap + 1):
                img = ent.shifted_lm(sigma, u)
                for c, e in img:
                    if md.get(c, 0) < e:
                        break
                else:
                    sel = (okey(img), ent.index, u)
                    if best_sel is None or sel < best_sel:
                        best_sel, best = sel, (ent, u, img)
                    break
        return best

    return search


def _nf_terms(M, work, level, find, hkey, record=None):
    """Full normal form of the terms ``work``, a {term: numerator} dict over
    the denominator M that the kernel consumes, against a finder.

    Returns (M, out): the irreducible terms in descending order as (term,
    numerator) pairs over one final denominator M.  ``find(term, level)``
    gives None for an irreducible term, else (cofactor, products, shift,
    entry): ``products`` are the entry's shifted tail monomials times the
    cofactor, paired in order with the tail numerators ``ent.nums``.  When
    ``record`` is a list, every reduction step appends (coeff, cofactor,
    shift, entry index), reconstructing the subtracted combination exactly;
    its coefficients are field elements (``field.fraction(c, M)``).

    Rationals are reduced fraction-free: a term's value is c / M.  A step by
    an entry whose int-primitive form has leading coefficient a
    (``_Entry.den``) and tail numerators b takes g = gcd(a, c), scales every
    pending numerator and M by a // g, and subtracts (c // g) * b from the
    tail terms, all in int arithmetic.  Whenever M grows, the content shared
    by M, c and the pending numerators is divided out.  A term leaves the
    working set over the M of that moment, which later steps may change, so
    at the end the output numerators are brought over the lcm of those
    denominators, one multiplication per term whose denominator differs.
    Over Z/p, a and M are 1 and the same loop runs on the field elements.

    Pending coefficients live in the term -> numerator dict, and each term
    also sits in a heap under ``hkey`` (a descending key, computed once when
    the term enters the dict).  A step only adds terms strictly below the
    term it reduces, so the top of the heap is always the largest pending
    term.  A term that cancels leaves the dict only; its stale heap entry
    is skipped when popped (lazy deletion), and a term that enters again
    is pushed again.
    """
    heap = [(hkey(t), t) for t in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out = []
    dens = []  # (end, M): out[previous end:end] is over M
    while heap:
        t = pop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        hit = find(t, level)
        if hit is None:
            out.append((t, c))
            continue
        q, products, u, ent = hit
        if record is not None:
            record.append((fraction(c, M), q, u, ent.index))
        a = ent.den
        if a != 1:
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                # Scale to M * a and divide out the content k of the scaled
                # working set; gcd(a, c) = 1 makes k the gcd of c, M and the
                # unscaled numerators.  Without k, M piles up powers of the
                # same primes: on c41-d4 it reaches ~40 000 bits while the
                # true denominators stay under ~1 800.
                k = gcd(c, M, *work.values())
                if len(out) > (dens[-1][0] if dens else 0):
                    dens.append((len(out), M))
                M = M // k * a
                c //= k
                work = {tt: cc // k * a for tt, cc in work.items()}
        for t2, b in zip(products, ent.nums):
            prev = work.get(t2)
            if prev is None:
                work[t2] = -c * b
                push(heap, (hkey(t2), t2))
            else:
                s = prev - c * b
                if s:
                    work[t2] = s
                else:
                    del work[t2]
    if dens:
        dens.append((len(out), M))
        M = lcm(*[d for _, d in dens])
        start = 0
        for end, d in dens:
            f = M // d
            if f != 1:
                out[start:end] = [(t, c * f) for t, c in out[start:end]]
            start = end
    return M, out


# ---------------------------------------------------------------------------
# The completion core (all modes)


class _Family(NamedTuple):
    """The parts that differ between left mode and sigma/skew mode."""

    entry: type  # _LeftEntry or _Entry
    pairs: object  # _left_pairs or _window_pairs
    finder: object  # _left_finder or _make_finder
    shift: str  # the shift's name in trace lines and certify failures


def _family(cfg: GBConfig) -> _Family:
    """The parts of the mode family of ``cfg``, read at call time."""
    if cfg.mode == "left":
        return _Family(_LeftEntry, _left_pairs, _left_finder, "s")
    return _Family(_Entry, _window_pairs, _make_finder, "sigma")


def _window_pairs(entries: list[_Entry], t: int, cfg: GBConfig, pair_filter):
    """The in-window critical pairs of entry t against entries 0..t.

    Yields (a, b, shift, stratum, lcm) for spoly(a, sigma**shift . b): for
    each j < t first (j, t) from shift 0, then (t, j) from shift 1, and last
    (t, t) from shift 1.  Over t = 0, 1, ... this is every ordered pair once
    up to sign: shift 0 of (a, b) equals that of (b, a), and of (a, a) it is
    zero.  With w the s-degree in skew mode and the weight of the leading
    monomial in sigma mode, a pair lies in stratum max(w(a), w(b) + shift),
    and the shifts run exactly up to stratum d.  That is one rule for both
    modes, because the letterplace correspondence maps the weight of an
    ideal of P onto the s-degree of its image in S.  ``pair_filter(lcm,
    stratum)``, when given, vetoes pairs the caller knows to be irrelevant.
    """
    skew_mode = cfg.mode == "skew"
    sigma = cfg.sigma
    d = cfg.degree_bound
    for j in range(t + 1):
        for a, b, sh0 in ((t, t, 1),) if j == t else ((j, t, 0), (t, j, 1)):
            ea, eb = entries[a], entries[b]
            wa, wb = (ea.sdeg, eb.sdeg) if skew_mode else (ea.lmw, eb.lmw)
            if wa > d:
                continue
            for sh in range(sh0, d - wb + 1):
                l = mono_lcm(ea.lm, eb.shifted_lm(sigma, sh))
                stratum = max(wa, wb + sh)
                if pair_filter is None or pair_filter(l, stratum):
                    yield a, b, sh, stratum, l


def _criterion(entries, a, b, sh, l, level, cfg: GBConfig):
    """The criterion that settles the pair (a, b, sh) with lcm l at
    ``level`` (its stratum, or its s-degree in left mode): "product",
    "chain" or None, under the toggles of ``cfg``.  The chain criterion
    (Gebauer–Möller) asks for an image of an entry's lm that divides l with
    both its lcms below l; the images are sigma**u for u up to the level
    less the entry's s-degree (weight in sigma mode), or in left mode the
    one s-power multiple on that level."""
    sigma = cfg.sigma
    alm = entries[a].lm
    blm = entries[b].shifted_lm(sigma, sh)
    if cfg.product_enabled() and mono_coprime(alm, blm):
        return "product"
    if not cfg.chain_criterion:
        return None
    okey = cfg.ordering.key
    lkey = okey(l)
    left, by_sdeg = cfg.mode == "left", cfg.mode != "sigma"
    for ent in entries:
        top = level - (ent.sdeg if by_sdeg else ent.lmw)
        if top < 0:
            continue
        for u in range(top if left else 0, top + 1):
            img = ent.shifted_lm(sigma, u)
            if (mono_divides(img, l) and okey(mono_lcm(alm, img)) < lkey
                    and okey(mono_lcm(img, blm)) < lkey):
                return "chain"
    return None


def _complete(seeds, cfg: GBConfig, pair_filter=None):
    """Run pair completion in any mode on monic (element, s-degree) seeds,
    through the parts of the mode family (``_family``).

    A pair reduces at its stratum in skew and left mode, at 0 in sigma mode
    (where every s-degree is 0).  ``pair_filter(lcm, level)`` may veto
    structurally irrelevant pairs (the letterplace membership filters).
    Returns (entries, stats, trace); the trace is a list of lines when
    ``cfg.trace`` is set, else None.
    """
    Entry, pairs, finder, shift = _family(cfg)
    left, by_sdeg = cfg.mode == "left", cfg.mode != "sigma"
    okey = cfg.ordering.key
    ordering = SkewOrdering(cfg.ordering) if left else cfg.ordering
    key = ordering.key

    entries: list[_Entry] = []
    stats = PairStats()
    trace = [] if cfg.trace else None
    heap: list = []
    _, reduce = _search(entries, cfg)

    def note(a, b, sh, stratum, outcome):
        if trace is not None:
            trace.append(f"(g{a + 1}, {shift}^{sh}.g{b + 1})@{stratum} {outcome}")

    def add_element(ent):
        entries.append(ent)
        stats.added += 1
        for a, b, sh, stratum, l in pairs(entries, ent.index, cfg, pair_filter):
            # The running count breaks ties in the order of enumeration.
            heapq.heappush(heap, (stratum, mono_degree(l), okey(l),
                                  stats.considered, a, b, sh, l))
            stats.considered += 1
        # Reduce again each older tail that an image of the new lm divides.
        # Such an image lies on the new s-degree or above, and no term it
        # divides is below the new lm (with its s-degree in left mode), so
        # a tail below either is not searched.
        hits = finder([ent], cfg)
        lead = key(ent.monos[0])
        for old in entries[:-1]:
            if (old.sdeg < ent.sdeg or len(old.monos) == 1
                    or key(old.monos[1]) < lead):
                continue
            if any(hits(m, old.sdeg) for m in old.monos[1:]):
                old.take_tail(*reduce(old.den, old.tail(), old.sdeg))
        return ent

    for poly, sdeg in seeds:  # unlike a normal form, a seed's tail may reduce
        ent = add_element(Entry.of(poly, sdeg, len(entries)))
        ent.take_tail(*reduce(ent.den, ent.tail(), sdeg))

    while heap:
        stratum, _, _, _, a, b, sh, l = heapq.heappop(heap)
        crit = _criterion(entries, a, b, sh, l, stratum, cfg)
        if crit:
            if crit == "product":
                stats.product_skipped += 1
            else:
                stats.chain_skipped += 1
            note(a, b, sh, stratum, f"skip:{crit}")
            continue
        level = stratum if by_sdeg else 0
        _, nf = reduce(*entries[a].spoly(entries[b], sh, l, cfg.sigma), level)
        if not nf:
            stats.reduced_to_zero += 1
            note(a, b, sh, stratum, "-> 0")
            continue
        lead = nf[0][0]
        if cfg.mode == "sigma" and lead == MONO_ONE:
            note(a, b, sh, stratum, "-> 1")
            warnings.warn("basis contains a constant: unit ideal")
            return [Entry(nf, ordering, 0, 0)], stats, trace
        # a left element may lead below the pair's s-degree
        ent = add_element(Entry(nf, ordering, lead.sdeg if left else level,
                                len(entries)))
        note(a, b, sh, stratum, f"-> g{ent.index + 1}")

    return entries, stats, trace


def _element(ent: _Entry, cfg: GBConfig):
    """The basis element of an entry, shaped like the mode's input: a
    polynomial of P in sigma mode, an element of S otherwise."""
    g = ent.poly
    return SkewElement.of_poly(g, ent.sdeg) if cfg.mode == "skew" else g


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
            poly, sdeg = _split(h, cfg)
            if mode == "sigma" and poly.lm() == MONO_ONE:
                warnings.warn("constant generator: unit ideal")
                return GBResult([poly], mode, cfg.degree_bound, PairStats(),
                                None)
            seeds[poly, sdeg] = None  # an ordered set: a repeat is dropped
    entries, stats, trace = _complete(seeds, cfg, pair_filter)
    basis = [_element(e, cfg) for e in entries]
    if cfg.interreduce:
        basis = interreduce(basis, cfg)
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


class _LeftEntry(_Entry):
    """A monic element of S for left reduction, over monomials
    ``SkewMonomial(m, e)``; its shifted images are the left s-power
    multiples s**u * element, whose monomials are (sigma**u(m), e + u).
    ``shift_left`` keeps coefficients and term order, so ``den`` and
    ``nums`` serve every multiple, and the leading monomial of s**u *
    element is the sigma**u image of ``lm`` at s-degree ``sdeg + u``."""

    __slots__ = ()

    ring = SkewElement

    @staticmethod
    def mul(q: Monomial, t: SkewMonomial) -> SkewMonomial:
        return SkewMonomial(mono_mul(q, t[0]), t[1])

    @staticmethod
    def shift(sigma: MonomialEndomorphism, t: SkewMonomial, u: int):
        return SkewMonomial(sigma.mono(t[0], u), t[1] + u)


def _left_finder(entries: list[_LeftEntry], cfg: GBConfig):
    """Left reducer search: search(monomial of S, level) returns the s-power
    multiple of an entry whose lm divides the term, as (entry, shift,
    shifted lm) for ``_search``, or None.  The entry with the smallest
    (okey(shifted lm), index) wins."""
    sigma = cfg.sigma
    okey = cfg.ordering.key

    def search(t, level):
        m, e = t
        best_sel = None
        best = None
        for ent in entries:
            u = e - ent.sdeg
            if u < 0:
                continue
            img = ent.shifted_lm(sigma, u)
            if mono_divides(img, m):
                sel = (okey(img), ent.index)
                if best_sel is None or sel < best_sel:
                    best_sel, best = sel, (ent, u, img)
        return best

    return search


def _left_pairs(entries: list[_LeftEntry], t: int, cfg: GBConfig, pair_filter):
    """The in-window left critical pairs of entry t against entries 0..t-1.

    Yields (a, b, shift, s-degree, lcm) for spoly(a, s**shift . b): the
    entry of larger leading s-degree comes first and the other is lifted to
    meet it; on equal s-degree (shift 0) entry t comes first.  Pairs above
    s-degree d are dropped, as are those that ``pair_filter(lcm, s-degree)``
    vetoes, when given.
    """
    sigma = cfg.sigma
    for j in range(t):
        da, db = entries[t].sdeg, entries[j].sdeg
        a, b, sh = (t, j, da - db) if da >= db else (j, t, db - da)
        e = max(da, db)
        if e <= cfg.degree_bound:
            l = mono_lcm(entries[a].lm, entries[b].shifted_lm(sigma, sh))
            if pair_filter is None or pair_filter(l, e):
                yield a, b, sh, e, l


def left_gbasis(H, cfg: GBConfig) -> GBResult:
    """d-truncated left Gröbner basis; no homogeneity assumption."""
    return _solve(H, cfg, "left")


# ---------------------------------------------------------------------------
# Normal form, interreduction, membership


def _entries(G, cfg: GBConfig):
    """Entries for the nonzero elements of G (``_split``), indexed by their
    position in G."""
    Entry = _family(cfg).entry
    return [Entry.of(*_split(g, cfg), i) for i, g in enumerate(G) if g]


def _search(entries, cfg: GBConfig):
    """The reducer search of the mode family over ``entries``, and the
    reduction through it; both see entries appended later.

    Returns (find, reduce).  ``find(m, level)`` gives the ``_nf_terms``
    hit, (cofactor, products, shift, entry), or None.  The search is a pure
    function of (m, level) and the entries' lms, which only grow by append,
    so a memo keyed by (m, level) keeps each answer with its products and is
    cleared whenever the number of entries has changed since it was filled;
    a hit is also cleared when its entry takes a new tail (``take_tail``),
    and rebuilt from that tail.  ``reduce(M, work, level, record=None)``
    gives the ``_nf_terms`` normal form, in int form, of the {term:
    numerator} dict ``work`` over M against the family's closure: terms of
    P at one level in sigma/skew mode, terms of S in left mode, whose search
    reads the level off each term.  The products are the entry's
    ``shifted_tail`` times the cofactor under the family's ``mul``, the
    product ``_Entry.spoly`` uses too.
    """
    left = cfg.mode == "left"
    family = _family(cfg)
    search = family.finder(entries, cfg)
    mul = family.entry.mul
    hkey = (SkewOrdering(cfg.ordering) if left else cfg.ordering).heap_key
    memo = {}
    filled = 0

    def find(m, level):
        nonlocal filled
        if len(entries) != filled:
            memo.clear()
            filled = len(entries)
        hit, nums = memo.get((m, level), (memo, None))  # memo: a new query
        if hit is memo:
            hit = search(m, level)
            if hit is not None:
                ent, u, img = hit
                hit = mono_div(m.mono if left else m, img), None, u, ent
        elif hit is None or hit[3].nums is nums:
            return hit
        if hit is not None:  # new, or stale: its entry took a new tail since
            q, _, u, ent = hit
            tail = ent.shifted_tail(cfg.sigma, u)
            hit, nums = (q, tuple([mul(q, t) for t in tail]), u, ent), ent.nums
        memo[m, level] = hit, nums
        return hit

    def reduce(M, work, level, record=None):
        return _nf_terms(M, work, level, find, hkey, record)

    return find, reduce


def normal_form(f, G, cfg: GBConfig, record=None):
    """Normal form of f against the lazily shifted closure of G.

    In sigma mode f and G are polynomials of P and the closure is all
    sigma-power images; in skew/left modes they are skew elements and the
    closure carries the matching s-power decorations.  When ``record`` is a
    list, it receives the division steps (see ``_nf_terms``) in every mode.
    """
    cfg.check_sigma()
    _, reduce = _search(_entries(G, cfg), cfg)

    def nf_of(terms, level):
        M, nums = common_denominator([c for _, c in terms])
        M, out = reduce(M, dict(zip([t for t, _ in terms], nums)), level,
                        record)
        return [(t, fraction(c, M)) for t, c in out]

    if cfg.mode == "skew":
        # two-sided: reduce each s-homogeneous layer at its own level
        nf = [(SkewMonomial(m, level), c) for level, poly in f.parts
              for m, c in nf_of(poly.terms, level)]
    else:
        nf = nf_of(f.terms, 0)
    if cfg.mode == "sigma":
        return Polynomial(nf, cfg.ordering, _sorted=True)
    return SkewElement(nf, SkewOrdering(cfg.ordering), _sorted=True)


def interreduce(basis, cfg: GBConfig):
    """Minimalize lm-redundant elements, reduce all tails, sort canonically.

    Elements are taken smallest first, and one is kept when the reducer
    search over those kept so far finds no divisor of its leading monomial;
    the same search then reduces every tail.  On ``_complete``'s output,
    already tail-reduced, it only drops lm-redundant elements and sorts.
    """
    cfg.check_sigma()
    okey = cfg.ordering.key
    kept: list = []
    find, reduce = _search(kept, cfg)
    for ent in sorted(_entries(basis, cfg), key=lambda e: (e.sdeg, okey(e.lm))):
        if find(ent.monos[0], ent.sdeg) is None:
            ent.index = len(kept)
            kept.append(ent)
    # Every tail reduces against the kept elements as given, before any
    # of them takes its new tail.
    tails = [reduce(ent.den, ent.tail(), ent.sdeg) for ent in kept]
    out = []
    for ent, tail in zip(kept, tails):
        ent.take_tail(*tail)
        out.append(_element(ent, cfg))
    return out


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
    those that ``_criterion`` settles as the completion would.  Returns (ok,
    failures).

    The pairs come from the completion's own enumerators, so the two see the
    same window.  The criteria are sound for a check as well: a chain's two
    sub-pairs have strictly smaller lcms inside the window, so induction on
    the lcm covers them whatever the order.  On a failure the check runs
    again with both criteria off, which reduces every pair and lists the
    failures in enumeration order; ``criteria: none`` asks for that run."""
    cfg.check_sigma()
    sigma = cfg.sigma
    failures: list[str] = []
    entries = _entries(basis, cfg)
    _, reduce = _search(entries, cfg)
    _, pairs, _, shift = _family(cfg)
    for t in range(len(entries)):
        for a, b, sh, level, l in pairs(entries, t, cfg, pair_filter):
            if _criterion(entries, a, b, sh, l, level, cfg):
                continue
            if reduce(*entries[a].spoly(entries[b], sh, l, sigma), level)[1]:
                if cfg.product_enabled() or cfg.chain_criterion:
                    return certify(basis, replace(
                        cfg, product_criterion=False, chain_criterion=False
                    ), pair_filter)
                failures.append(f"pair (g{a + 1}, {shift}^{sh}.g{b + 1}) "
                                f"does not reduce to zero")
    return not failures, failures


# ---------------------------------------------------------------------------
# The independent oracle


def _oracle_form(terms):
    """Nonzero descending (packed monomial, coefficient) pairs as an oracle
    generator (lm, a, tail pairs), made primitive (``field.primitive``):
    over Q with the positive int leading coefficient a, over Z/p monic,
    a = 1.  The form is unique for each class of nonzero scalar multiples."""
    a, nums = primitive(terms[0][1], [c for _, c in terms[1:]])
    return terms[0][0], a, tuple(zip([t for t, _ in terms[1:]], nums))


def _oracle_nf(work: dict, gens: list, guards: int):
    """Plain module normal form of the {packed monomial: numerator} dict
    ``work`` on one level against ``gens``, that level's oracle generators:
    the first listed whose lm divides reduces, by the mask test over the
    packing's ``guards``.  Returns the nonzero result as an oracle generator
    (``_oracle_form``), or None.

    Over Q this is pseudo-reduction in int arithmetic: a term c reduced by a
    generator with leading coefficient a takes k = gcd(a, c), scales every
    pending and every output numerator by a // k and subtracts c // k times
    the cofactor times the tail, so the result is a nonzero multiple of the
    normal form.  Over Z/p every a is 1 and the same loop runs on the field
    elements.  Terms are popped from a heap of negated monomials, largest
    first; a step only adds terms below the one it reduces, and a term that
    cancels leaves its heap entry behind, skipped when popped.  A product
    that outgrew a field sets a guard bit and raises ``OverflowError``."""
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
            raise OverflowError("monomial outgrows its packing")
        tg = t | guards
        for v, a, tail in gens:
            if (tg - v) & guards == guards:
                break
        else:
            out.append((t, c))
            continue
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


def _oracle_buchberger(gens: list[SkewElement], degree_cap=None):
    """Textbook module Buchberger: no shifts, no criteria, FIFO pairs.

    degree_cap skips pairs whose lcm exceeds that total degree, which is
    exact for the capped part of the lm-ideal when the input is homogeneous.

    It runs in integer form (``_oracle_form``: primitive over Q, monic over
    Z/p): the S-polynomial of generators with leading coefficients a_i, a_j
    is (a_j / g) q_i f_i - (a_i / g) q_j f_j for g = gcd(a_i, a_j), and
    ``_oracle_nf`` pseudo-reduces it.  Each result is a scalar multiple of
    the one field arithmetic gives, so the same pairs reduce to zero.  A
    generator is kept as its level of S, where its pairs and reducers lie,
    and its form over packed monomials; a field that overflows starts the
    run over at twice the width.  Generators become monic only on return.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    lc, ordering = gens[0].lc(), gens[0].ordering
    one = lc * inverse(lc)  # the field's 1
    rows = [(g.terms[0][0].sdeg, [v.mono for v, _ in g.terms],
             common_denominator([c for _, c in g.terms])[1]) for g in gens]
    width = 8  # exponents and degrees up to 127
    while True:
        P = MonoPacking((c for _, ms, _ in rows for m in ms for c, _ in m),
                        ordering.base, width)
        levels: dict = {}  # level -> its forms, in listed order
        try:
            # (level, oracle form) in listed order, without repeats
            G = list(dict.fromkeys(
                (lvl, _oracle_form(list(zip(map(P.pack, ms), nums))))
                for lvl, ms, nums in rows))
            for lvl, f in G:
                levels.setdefault(lvl, []).append(f)
            # A new generator's pairs queue behind all others, so the FIFO
            # order is (i, j) by j, then i, over the growing G: no pair list.
            j = 1
            while j < len(G):
                lj, (vj, aj, tj) = G[j]
                for i in range(j):
                    li, (vi, ai, ti) = G[i]
                    if li != lj:
                        continue
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
                    nf = _oracle_nf(work, levels[lj], P.guards)
                    if nf is not None:
                        G.append((lj, nf))
                        levels[lj].append(nf)
                j += 1
            break
        except OverflowError:
            width *= 2
    un = P.unpack
    return [SkewElement(((SkewMonomial(un(v), lvl), one),) + tuple(
        (SkewMonomial(un(t), lvl), fraction(b, a)) for t, b in tail
    ), ordering, _sorted=True) for lvl, (v, a, tail) in G]


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


def expand_window(H, cfg: GBConfig):
    """The oracle's generators, as elements of S: under ``_window_slots``,
    the shift images of weight within d of each nonzero h of H on level 0
    (sigma mode), or its s**i . h . s**j images of total s-degree within d,
    where h is s-homogeneous (skew mode, ``_split``)."""
    out = []
    for h in H:
        if h:
            poly, w = (h, h.weight()) if cfg.mode == "sigma" else _split(h, cfg)
            for i, levels in _window_slots(w, cfg):
                img = cfg.sigma.poly(poly, i)
                out.extend(SkewElement.of_poly(img, lvl) for lvl in levels)
    return out


def oracle_gbasis_truncated(H, cfg: GBConfig, degree_cap=None) -> GBResult:
    """Independent cross-check: expand the shifted generators inside the
    window and run a bare commutative (module) Buchberger over them."""
    cfg.check_sigma()
    if cfg.mode not in ("sigma", "skew"):
        raise ValueError("oracle supports sigma and skew modes")
    G = _oracle_buchberger(expand_window(H, cfg), degree_cap)  # nonzero, monic
    if cfg.mode == "sigma":
        G = [g.parts[0][1] for g in G]
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
    the other way round; sigma-mode monomials all sit on level 0."""
    return all(
        any(x.sdeg == y.sdeg and mono_divides(x.mono, y.mono) for x in X)
        for X, Y in ((B, A), (A, B)) for y in Y
    )
