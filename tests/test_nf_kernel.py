"""Differential test of the normal-form kernel against a brute-force reference.

The reference takes the next term with a ``max()`` scan over the whole
working set and tries every (entry, shift) pair, picking the smallest
(key of the shifted leading monomial, entry index, shift).  That selection
rule is what keeps bases, traces and pair counts byte-identical, so the
kernel must reproduce both the remainder and every recorded step.
"""

import random

from randgen import random_coeff, random_mono, random_poly
from skewgb.endo import ShiftEndo
from skewgb.engine import GBConfig, normal_form
from skewgb.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    mono_div,
    mono_divides,
    mono_mul,
    top_place,
)
from skewgb.textio import parse_poly

SHIFT = ShiftEndo()


def reference_nf(f, G, ordering):
    """Returns (remainder, record, number of terms that cancelled and later
    entered the working set again)."""
    key = ordering.key
    gens = {i: g.monic() for i, g in enumerate(G) if g}
    work = dict(f.terms)
    out, record = [], []
    cancelled, reentered = set(), 0
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        wm = top_place(m) if m else -1
        hits = [
            (key(SHIFT.mono(g.lm(), u)), i, u)
            for i, g in gens.items()
            for u in range(wm + 2)
            if mono_divides(SHIFT.mono(g.lm(), u), m)
        ]
        if not hits:
            out.append((m, c))
            continue
        _, i, u = min(hits)
        g = SHIFT.poly(gens[i], u)
        q = mono_div(m, g.lm())
        record.append((c, q, u, i))
        for mm, cc in g.terms[1:]:
            t = mono_mul(q, mm)
            if t in cancelled and t not in work:
                reentered += 1
            s = work.get(t, 0) - c * cc
            if s:
                work[t] = s
            else:
                del work[t]
                cancelled.add(t)
    return Polynomial(out, ordering, _sorted=True), record, reentered


def random_case(rng, ordering):
    """Generators (sometimes a constant or a zero among them) and a target
    built from shifted multiples of them plus noise, so that reductions
    overlap and cancel."""
    G = [
        random_poly(rng, letters=2, max_place=2, max_deg=2, terms=3,
                    ordering=ordering)
        for _ in range(rng.randint(1, 3))
    ]
    roll = rng.random()
    if roll < 0.1:
        G.insert(rng.randrange(len(G) + 1),
                 Polynomial.constant(random_coeff(rng), ordering))
    elif roll < 0.2:
        G.insert(rng.randrange(len(G) + 1), Polynomial.zero(ordering))
    f = random_poly(rng, letters=2, max_place=3, max_deg=3, terms=3,
                    ordering=ordering)
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(G)
        if not g:
            continue
        q = random_mono(rng, letters=2, max_place=2, max_deg=2)
        f = f + SHIFT.poly(g, rng.randint(0, 2)).mul_mono(q).scale(
            random_coeff(rng)
        )
    return f, G


def test_kernel_matches_brute_force_reference():
    rng = random.Random(20240)
    steps = reentered = constants = 0
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        f, G = random_case(rng, ordering)
        cfg = GBConfig(mode="sigma", degree_bound=4, ordering=ordering)
        record = []
        nf = normal_form(f, G, cfg, record=record)
        want, want_record, again = reference_nf(f, G, ordering)
        assert nf == want
        assert record == want_record
        steps += len(record)
        reentered += again
        constants += any(g and not g.lm() for g in G)
    # The suite must exercise what the selection rule is about.
    assert steps > 1000 and reentered > 0 and constants > 0


def test_cancelled_term_reenters():
    # Reducing x(2) cancels x(0); reducing the x(1) it left behind brings
    # x(0) back.  g2 also reaches x(2) at shift 1; the tie goes to g1.
    G = [parse_poly("x(2) + x(0) - x(1)"), parse_poly("x(1) - x(0)")]
    f = parse_poly("x(2) + x(0)")
    record = []
    nf = normal_form(f, G, GBConfig(mode="sigma", degree_bound=3),
                     record=record)
    want, want_record, again = reference_nf(f, G, LEX)
    assert again == 1
    assert nf == want == parse_poly("x(0)")
    assert record == want_record
    assert [(u, i) for _, _, u, i in record] == [(0, 0), (0, 1)]
