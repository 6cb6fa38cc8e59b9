"""The engine's one window and one reducer search, checked from outside.

Completion and ``certify`` draw their sigma/skew pairs from one enumerator,
and interreduction decides domination and reduces tails through the same
reducer search as normal forms.  The first test pins that completion and
``certify`` see the same pairs; the second compares interreduction with a
brute-force reference written out here.
"""

import random
import re
from collections import Counter

from randgen import random_poly, random_skew_homogeneous, random_weighted_poly
from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.engine import (
    GBConfig,
    certify,
    interreduce,
    sigma_gbasis,
    skew_gbasis,
)
from skewgb.field import QQ
from skewgb.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    mono_div,
    mono_divides,
    mono_mul,
    top_place,
)
from skewgb.skew import SkewElement

STRATUM = re.compile(r"@(\d+) ")


def test_completion_and_certify_see_one_window():
    # With no criteria every considered pair is traced, and certify on the
    # uninterreduced basis must see the same pairs, stratum by stratum.
    rng = random.Random(4242)
    checked = 0
    for n in range(40):
        ordering = (LEX, DEGLEX)[n % 2]
        fixed = 1 if ordering == LEX else None
        if n % 4 < 2:
            cfg = GBConfig(mode="sigma", degree_bound=3, ordering=ordering,
                           product_criterion=False, chain_criterion=False,
                           interreduce=False, trace=True)
            H = [random_weighted_poly(rng, letters=2, max_weight=2,
                                      max_deg=2, terms=2, ordering=ordering,
                                      fixed_degree=fixed)
                 for _ in range(rng.randint(1, 2))]
            res = sigma_gbasis(H, cfg)
            if any(not g.lm() for g in res.basis):
                continue  # unit ideal: the basis is replaced by [1]
        else:
            cfg = GBConfig(mode="skew", degree_bound=3, ordering=ordering,
                           product_criterion=False, chain_criterion=False,
                           interreduce=False, trace=True)
            H = [random_skew_homogeneous(rng, letters=2, max_place=1,
                                         max_deg=2, terms=2, max_sdeg=1,
                                         ordering=ordering,
                                         fixed_degree=fixed)
                 for _ in range(rng.randint(1, 2))]
            res = skew_gbasis(H, cfg)
        seen = []
        ok, failures = certify(
            res.basis, cfg,
            pair_filter=lambda l, stratum: seen.append(stratum) or True,
        )
        assert ok, failures
        assert res.stats.considered == len(seen) == len(res.trace)
        traced = Counter(int(STRATUM.search(t).group(1)) for t in res.trace)
        assert traced == Counter(seen)
        checked += 1
    assert checked >= 30


def reference_interreduce(basis, cfg):
    """Brute-force interreduction: every shift within the window is tried
    with ``mono_divides``, and the reducer with the smallest (key of the
    shifted leading monomial, position, shift) wins, as in normal forms."""
    sigma, key = cfg.sigma, cfg.ordering.key
    skew = cfg.mode == "skew"
    items = sorted(
        (
            (g.parts[0][1].monic(), g.parts[0][0]) if skew else (g.monic(), 0)
            for g in basis
            if g
        ),
        key=lambda t: (t[1], key(t[0].lm())),
    )

    def hits(kept, m, level):
        wm = top_place(m) if m else -1
        for i, (p, sd) in enumerate(kept):
            shifts = range(level - sd + 1) if skew else range(wm + 2)
            for u in shifts:
                img = sigma.mono(p.lm(), u)
                if mono_divides(img, m):
                    yield key(img), i, u

    kept = []
    for poly, sdeg in items:
        if not any(hits(kept, poly.lm(), sdeg)):
            kept.append((poly, sdeg))
    out = []
    for poly, sdeg in kept:
        work = dict(poly.terms[1:])
        tail = []
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            found = list(hits(kept, m, sdeg))
            if not found:
                tail.append((m, c))
                continue
            _, i, u = min(found)
            g = sigma.poly(kept[i][0], u)
            q = mono_div(m, g.lm())
            for mm, cc in g.terms[1:]:
                t = mono_mul(q, mm)
                s = work.get(t, 0) - c * cc
                if s:
                    work[t] = s
                else:
                    work.pop(t, None)
        reduced = Polynomial([poly.terms[0]] + tail, cfg.ordering)
        out.append(SkewElement.of_poly(reduced, sdeg) if skew else reduced)
    return out


def random_interreduce_case(rng, cfg):
    """Random elements plus shifted multiples of them (so that some are
    dominated) and, now and then, a constant."""
    skew = cfg.mode == "skew"
    ordering = cfg.ordering
    if skew:
        gens = [random_skew_homogeneous(rng, letters=2, max_place=2,
                                        max_deg=2, terms=3, max_sdeg=2,
                                        ordering=ordering)
                for _ in range(rng.randint(1, 3))]
    else:
        gens = [random_poly(rng, letters=2, max_place=2, max_deg=2,
                            terms=3, ordering=ordering)
                for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        g = rng.choice(gens)
        q = random_poly(rng, letters=2, max_place=2, max_deg=1, terms=1,
                        ordering=ordering).terms[0][0]
        u = rng.randint(0, 1)
        if skew:
            sdeg, poly = g.parts[0]
            img = cfg.sigma.poly(poly, u).mul_mono(q)
            gens.append(SkewElement.of_poly(img, sdeg + u + rng.randint(0, 1)))
        else:
            gens.append(cfg.sigma.poly(g, u).mul_mono(q))
    if rng.random() < 0.15:
        one = Polynomial.constant(QQ.of(rng.randint(2, 5)), ordering)
        gens.insert(rng.randrange(len(gens) + 1),
                    SkewElement.of_poly(one, rng.randint(0, 2)) if skew else one)
    return gens


def test_interreduce_matches_brute_force_reference():
    rng = random.Random(777)
    dropped = constants = 0
    modes = [("sigma", ShiftEndo()), ("skew", ShiftEndo()),
             ("skew", PowerEndo(2)), ("skew", PowerEndo(3))]
    for n in range(240):
        mode, sigma = modes[n % 4]
        cfg = GBConfig(mode=mode, degree_bound=3, sigma=sigma,
                       ordering=(LEX, DEGLEX)[(n // 4) % 2])
        gens = random_interreduce_case(rng, cfg)
        got = interreduce(gens, cfg)
        assert got == reference_interreduce(gens, cfg), (mode, sigma, gens)
        dropped += len(gens) - len(got)
        constants += any(not (g.parts[0][1] if mode == "skew" else g).lm()
                         for g in gens)
    # The suite must exercise domination and constants.
    assert dropped > 100 and constants > 10
