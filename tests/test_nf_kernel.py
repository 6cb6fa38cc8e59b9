"""Differential test of the normal-form kernel against a brute-force reference.

The reference takes the next term with a ``max()`` scan over the whole
working set and tries every (entry, shift) pair, picking the smallest
(key of the shifted leading monomial, entry index, shift).  That selection
rule is what keeps bases, traces and pair counts byte-identical, so the
kernel must reproduce both the remainder and every recorded step.  The
same holds in the skew ring: two-sided normal forms of elements on one
s-degree or spread over several, checked layer by layer (shifts capped by
the layer's s-degree), and left normal forms of elements spread over
several s-degrees (one shift per entry and term).

The kernel reduces rationals fraction-free, over one running denominator,
and Z/p elements as they are; the reference works on the coefficients
directly.  So the sigma and left differentials also run with large,
distinct denominators and over Z/p, and both check that the record
rebuilds f - nf.  All three also run with denominators of about 300 bits
built from a few large primes, so that most steps rescale the kernel's
denominator and pending terms are updated across several rescales.
"""

import random
from fractions import Fraction
from math import gcd, prod

from randgen import random_coeff, random_mono, random_poly
from skewgb.endo import PowerEndo, ShiftEndo
from skewgb.engine import (
    GBConfig,
    _Entry,
    _pack,
    _packed,
    _unpack,
    _search,
    normal_form,
    spoly,
    spoly_poly,
)
from skewgb.field import GF, ModInt, common_denominator, is_prime
from skewgb.skew import SkewElement, SkewMonomial, shift_left
from skewgb.poly import (
    DEGLEX,
    LEX,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    top_place,
)
from skewgb.textio import parse_poly

SHIFT = ShiftEndo()


def sigma_shifts(i, m):
    """Every shift of any entry that can divide m: up to one past its
    weight (a constant entry divides at shift 0)."""
    return range((top_place(m) if m else -1) + 2)


def reference_nf(f, G, ordering, shifts=sigma_shifts):
    """Returns (remainder, record, number of terms that cancelled and later
    entered the working set again).  ``shifts(i, m)`` are the shifts of
    entry i tried on the monomial m."""
    key = ordering.key
    gens = {i: g.monic() for i, g in enumerate(G) if g}
    work = dict(f.terms)
    out, record = [], []
    cancelled, reentered = set(), 0
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hits = [
            (key(SHIFT.mono(g.lm(), u)), i, u)
            for i, g in gens.items()
            for u in shifts(i, m)
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


def small_ints(rng, c):
    return c


def large_denominators(rng, c):
    """c times a random fraction with numerator and denominator below
    10**12, so denominators are large and nearly always distinct."""
    return c * Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**12))


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# Eight primes of about 75 bits (``is_prime`` is exact below 2**81).
LARGE_PRIMES = [_next_prime(random.Random(i).getrandbits(75) | 1 << 74)
                for i in range(8)]


def large_prime_products(rng, c):
    """c times a fraction whose numerator and denominator are each the
    product of four primes drawn from ``LARGE_PRIMES``: denominators of
    about 300 bits that share some factors, so a kernel step by such an
    entry nearly always rescales and sometimes finds a common factor."""
    return c * Fraction(prod(rng.choices(LARGE_PRIMES, k=4)),
                        prod(rng.choices(LARGE_PRIMES, k=4)))


def mod_7(rng, c):
    """c in Z/7, where the kernel's products wrap and cancel often."""
    return GF(7).of(int(c))


def lifted(f, rng, lift):
    """f with each coefficient c replaced by lift(rng, c); terms that
    become zero (a sum of like terms, mod 7) drop out."""
    return type(f)([(m, lift(rng, c)) for m, c in f.terms], f.ordering)


def random_case(rng, ordering, lift=small_ints):
    """Generators (sometimes a constant or a zero among them) and a target
    built from shifted multiples of them plus noise, so that reductions
    overlap and cancel.  ``lift(rng, c)`` maps each drawn coefficient into
    the coefficient domain of the case."""
    G = [
        lifted(random_poly(rng, letters=2, max_place=2, max_deg=2, terms=3,
                           ordering=ordering), rng, lift)
        for _ in range(rng.randint(1, 3))
    ]
    roll = rng.random()
    if roll < 0.1:
        G.insert(rng.randrange(len(G) + 1),
                 Polynomial.constant(lift(rng, random_coeff(rng)), ordering))
    elif roll < 0.2:
        G.insert(rng.randrange(len(G) + 1), Polynomial.zero(ordering))
    f = lifted(random_poly(rng, letters=2, max_place=3, max_deg=3, terms=3,
                           ordering=ordering), rng, lift)
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(G)
        if not g:
            continue
        q = random_mono(rng, letters=2, max_place=2, max_deg=2)
        f = f + SHIFT.poly(g, rng.randint(0, 2)).mul_mono(q).scale(
            lift(rng, random_coeff(rng))
        )
    return f, G


def rebuilt(record, G, ordering):
    """The combination sum(c * q * sigma**u(monic G[i])) that ``record``
    says the reduction subtracted."""
    acc = Polynomial.zero(ordering)
    for c, q, u, i in record:
        acc = acc + SHIFT.poly(G[i].monic(), u).mul_mono(q).scale(c)
    return acc


def check_sigma_kernel(seed, lift, coeff_type):
    """300 seeded sigma-mode normal forms against the reference: remainder,
    record, the record's rebuild of f - nf, and the coefficient type.
    Returns (steps, cancelled terms that entered again, cases with a
    constant generator, the coefficients of all records)."""
    rng = random.Random(seed)
    steps = reentered = constants = 0
    recorded = []
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        f, G = random_case(rng, ordering, lift)
        cfg = GBConfig(mode="sigma", degree_bound=4, ordering=ordering)
        record = []
        nf = normal_form(f, G, cfg, record=record)
        want, want_record, again = reference_nf(f, G, ordering)
        assert nf == want
        assert record == want_record
        assert nf + rebuilt(record, G, ordering) == f
        assert all(type(c) is coeff_type for _, c in nf.terms)
        assert all(type(c) is coeff_type for c, _, _, _ in record)
        steps += len(record)
        reentered += again
        constants += any(g and not g.lm() for g in G)
        recorded.extend(c for c, _, _, _ in record)
    return steps, reentered, constants, recorded


def test_kernel_matches_brute_force_reference():
    steps, reentered, constants, _ = check_sigma_kernel(
        20240, small_ints, Fraction)
    # The suite must exercise what the selection rule is about.
    assert steps > 1000 and reentered > 0 and constants > 0


def test_kernel_matches_reference_with_large_denominators():
    steps, reentered, constants, recorded = check_sigma_kernel(
        20243, large_denominators, Fraction)
    assert steps > 1000 and reentered > 0 and constants > 0
    # Denominators far past one machine word, nearly all of them distinct.
    dens = {c.denominator for c in recorded}
    assert max(dens).bit_length() > 300 and len(dens) > 1000


def test_kernel_matches_reference_across_rescales():
    steps, reentered, constants, recorded = check_sigma_kernel(
        20251, large_prime_products, Fraction)
    assert steps > 1000 and reentered > 0 and constants > 0
    # A recorded coefficient over a product of several entries' 300-bit
    # denominators: M grew through several rescales in one call.
    assert max(c.denominator for c in recorded).bit_length() > 900


def test_kernel_matches_reference_over_prime_field():
    steps, reentered, constants, _ = check_sigma_kernel(20244, mod_7, ModInt)
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


# ---------------------------------------------------------------------------
# The skew ring: two-sided and left normal forms


def layers(a):
    """The terms of an element of S as {(s-degree, monomial): coefficient}."""
    return {(i, m): c for i, f in a.parts for m, c in f.terms}


def element(terms, ordering):
    """The element of S with terms {(s-degree, monomial): coefficient}."""
    by_sdeg = {}
    for (i, m), c in terms.items():
        by_sdeg.setdefault(i, []).append((m, c))
    out = SkewElement.of_poly(Polynomial.zero(ordering))
    for i, ts in by_sdeg.items():
        out = out + SkewElement.of_poly(Polynomial(ts, ordering), i)
    return out


def sdeg_major(ordering):
    """Sort key of (s-degree, monomial) pairs: s-degree first."""
    return lambda t: (t[0], ordering.key(t[1]))


def with_extras(rng, G, ordering, spread):
    """G, sometimes with a constant times a power of s or a zero, and
    sometimes with a copy of one element that keeps its leading term and
    gets new lower terms, so that two entries tie on every image.  The new
    terms lie on s-degrees up to the leading one when ``spread``, else on
    the leading one."""
    G = list(G)
    roll = rng.random()
    if roll < 0.1:
        G.append(SkewElement.of_poly(
            Polynomial.constant(random_coeff(rng), ordering), rng.randint(0, 3)))
    elif roll < 0.2:
        G.append(SkewElement.of_poly(Polynomial.zero(ordering)))
    nonzero = [g for g in G if g]
    if not nonzero or rng.random() < 0.4:
        return G
    g = rng.choice(nonzero)
    (top,) = layers(g.lt())
    skey = sdeg_major(ordering)
    noise = element({
        (i, m): random_coeff(rng)
        for m in (random_mono(rng, letters=2, max_place=2, max_deg=2)
                  for _ in range(3))
        for i in (rng.randint(0, top[0]) if spread else top[0],)
        if skey((i, m)) < skey(top)
    }, ordering)
    G.insert(rng.randrange(len(G) + 1), g.lt() + noise)
    return G


def random_skew_gens(rng, ordering):
    """s-homogeneous generators at s-degrees 0 to 2, with extras."""
    return with_extras(rng, [
        SkewElement.of_poly(
            random_poly(rng, letters=2, max_place=2, max_deg=2, terms=3,
                        ordering=ordering),
            rng.randint(0, 2),
        )
        for _ in range(rng.randint(1, 3))
    ], ordering, spread=False)


def random_layer(rng, G, level, ordering):
    """An s-homogeneous target at ``level``, built from two-sided multiples
    q s^u g s^v of G (u + v = level - sdeg g) plus noise."""
    f = random_poly(rng, letters=2, max_place=3, max_deg=3, terms=3,
                    ordering=ordering)
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(G)
        if not g or g.sdeg() > level:
            continue
        q = random_mono(rng, letters=2, max_place=2, max_deg=2)
        u = rng.randint(0, level - g.sdeg())
        f = f + SHIFT.poly(g.parts[0][1], u).mul_mono(q).scale(
            random_coeff(rng))
    return SkewElement.of_poly(f, level)


def two_sided_reference(f, G, ordering):
    """The two-sided normal form of f and its record by ``reference_nf``,
    one layer of f at a time, each against the shifts that keep a reducer
    within the layer's s-degree, concatenated in descending s-degree.
    Returns (remainder, record, number of layers with a step)."""
    polys = [g.parts[0][1] if g else Polynomial.zero(ordering) for g in G]
    sdegs = [g.sdeg() if g else 0 for g in G]
    nf, record, reduced = SkewElement.zero(ordering), [], 0
    for level, poly in f.parts:
        want, want_record, _ = reference_nf(
            poly, polys, ordering,
            shifts=lambda i, m: range(level - sdegs[i] + 1),
        )
        nf = nf + SkewElement.of_poly(want, level)
        record += want_record
        reduced += bool(want_record)
    return nf, record, reduced


def check_two_sided_kernel(seed, lift, spread=False):
    """300 seeded two-sided normal forms against the layer-by-layer
    reference, with every coefficient of the case passed through lift(rng,
    c) afterwards: the remainder and the record.  A target lies on one
    s-degree from 0 to 3, or with ``spread`` on two or three of them.
    Returns (steps, steps with a shift above 0, targets with steps on more
    than one s-degree, the coefficients of all records)."""
    rng = random.Random(seed)
    steps = reduced_above = multilayer = 0
    recorded = []
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        G = random_skew_gens(rng, ordering)
        levels = (rng.sample(range(4), rng.randint(2, 3)) if spread
                  else [rng.randint(0, 3)])
        f = SkewElement.zero(ordering)
        for level in levels:
            f = f + random_layer(rng, G, level, ordering)
        f, G = lifted(f, rng, lift), [lifted(g, rng, lift) for g in G]
        if not f:
            continue
        cfg = GBConfig(mode="skew", degree_bound=4, ordering=ordering)
        record = []
        nf = normal_form(f, G, cfg, record=record)
        want, want_record, reduced = two_sided_reference(f, G, ordering)
        assert nf == want
        assert record == want_record
        steps += len(record)
        reduced_above += any(u for _, _, u, _ in record)
        multilayer += reduced > 1
        recorded.extend(c for c, _, _, _ in record)
    return steps, reduced_above, multilayer, recorded


def test_two_sided_kernel_matches_brute_force_reference():
    steps, reduced_above, _, _ = check_two_sided_kernel(20241, small_ints)
    assert steps > 500 and reduced_above > 0


def test_two_sided_kernel_matches_reference_across_rescales():
    steps, reduced_above, _, recorded = check_two_sided_kernel(
        20252, large_prime_products)
    assert steps > 500 and reduced_above > 0
    assert max(c.denominator for c in recorded).bit_length() > 900


def test_two_sided_kernel_matches_reference_over_several_s_degrees():
    # One kernel call reduces every s-degree of the target; its record
    # must run layer by layer, s-degree descending.
    for seed, lift in ((20254, small_ints), (20255, large_prime_products)):
        steps, reduced_above, multilayer, recorded = check_two_sided_kernel(
            seed, lift, spread=True)
        assert steps > 1500 and reduced_above > 0 and multilayer > 150
    assert max(c.denominator for c in recorded).bit_length() > 900


def reference_left_nf(f, G, ordering):
    """Left normal form by brute force: the largest term (s-degree first)
    is reduced by s^u g with u its s-degree minus that of lm g, taking the
    smallest (key of the shifted lm, index).  Returns (remainder, steps)."""
    skey = sdeg_major(ordering)
    gens = []
    for i, g in enumerate(G):
        if g:
            terms = layers(g.monic())
            gens.append((i, max(terms, key=skey), terms))
    work = layers(f)
    out, steps = {}, 0
    while work:
        e, m = max(work, key=skey)
        c = work.pop((e, m))
        hits = [
            (ordering.key(SHIFT.mono(lm, e - le)), i, e - le, lm, terms)
            for i, (le, lm), terms in gens
            if e >= le and mono_divides(SHIFT.mono(lm, e - le), m)
        ]
        if not hits:
            out[(e, m)] = c
            continue
        _, _, u, lm, terms = min(hits, key=lambda h: h[:2])
        q = mono_div(m, SHIFT.mono(lm, u))
        steps += 1
        for (ee, mm), cc in terms.items():
            if mm == lm and ee == e - u:
                continue
            t = (ee + u, mono_mul(q, SHIFT.mono(mm, u)))
            s = work.get(t, 0) - c * cc
            if s:
                work[t] = s
            else:
                del work[t]
    return element(out, ordering), steps


def random_left_element(rng, ordering):
    out = SkewElement.of_poly(Polynomial.zero(ordering))
    for _ in range(rng.randint(1, 2)):
        out = out + SkewElement.of_poly(
            random_poly(rng, letters=2, max_place=2, max_deg=2, terms=2,
                        ordering=ordering),
            rng.randint(0, 2),
        )
    return out


def random_left_case(rng, ordering):
    """Generators spread over one or two s-degrees (with extras) and a
    target over s-degrees 0 to 3, built from left multiples q s^u g of them
    plus noise."""
    G = with_extras(rng, [random_left_element(rng, ordering)
                          for _ in range(rng.randint(1, 3))],
                    ordering, spread=True)
    f = random_left_element(rng, ordering)
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(G)
        if not g or g.sdeg() > 3:
            continue
        q = random_mono(rng, letters=2, max_place=2, max_deg=2)
        u = rng.randint(0, 3 - g.sdeg())
        f = f + shift_left(u, g, SHIFT).mul_mono(q).scale(random_coeff(rng))
    return f, G


def rebuilt_left(record, G, ordering):
    """The combination sum(c * q * s**u * monic G[i]) that ``record`` says
    a left reduction subtracted."""
    acc = SkewElement.zero(ordering)
    for c, q, u, i in record:
        acc = acc + shift_left(u, G[i].monic(), SHIFT).mul_mono(q).scale(c)
    return acc


def check_left_kernel(seed, lift):
    """300 seeded left normal forms against the reference, with every
    coefficient of the case passed through lift(rng, c) afterwards: the
    remainder, the number of recorded steps and the record's rebuild of
    f - nf.  Returns (steps, inhomogeneous targets, the coefficients of all
    records)."""
    rng = random.Random(seed)
    steps = inhomogeneous = 0
    recorded = []
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        f, G = random_left_case(rng, ordering)
        f, G = lifted(f, rng, lift), [lifted(g, rng, lift) for g in G]
        cfg = GBConfig(mode="left", degree_bound=4, ordering=ordering)
        want, k = reference_left_nf(f, G, ordering)
        record = []
        nf = normal_form(f, G, cfg, record=record)
        assert nf == want
        assert len(record) == k
        assert nf + rebuilt_left(record, G, ordering) == f
        steps += k
        inhomogeneous += not f.is_s_homogeneous()
        recorded.extend(c for c, _, _, _ in record)
    return steps, inhomogeneous, recorded


def test_left_kernel_matches_brute_force_reference():
    steps, inhomogeneous, _ = check_left_kernel(20242, small_ints)
    assert steps > 500 and inhomogeneous > 50


def test_left_kernel_with_large_denominators_and_over_prime_field():
    for seed, lift in ((20245, large_denominators), (20246, mod_7)):
        steps, inhomogeneous, _ = check_left_kernel(seed, lift)
        assert steps > 500 and inhomogeneous > 50


def test_left_kernel_matches_reference_across_rescales():
    steps, inhomogeneous, recorded = check_left_kernel(
        20253, large_prime_products)
    assert steps > 500 and inhomogeneous > 50
    assert max(c.denominator for c in recorded).bit_length() > 900


# ---------------------------------------------------------------------------
# The reducer memo of the reduction front end


def memo_cases(mode, entry, term):
    """The two ways a stale memo could answer wrongly, in one mode: a miss
    that an appended entry turns into a hit, and a hit that an appended
    entry with a smaller image supersedes.  ``entry(text, index)`` builds
    the mode's basis entry and ``term(m)`` its term for the monomial m of P
    at s-degree 0.  The packing is made from an element of the mode, as
    every entry point makes it: a term of S carries its s-degree in left
    mode."""
    cfg = GBConfig(mode=mode, degree_bound=3)
    x2 = parse_poly("x(2)")
    P = _packed(cfg, [SkewElement.of_poly(x2) if mode == "left" else x2],
                lambda P: P)

    def lm(text):
        return P.pack(parse_poly(text).lm())

    def packed_term(text):
        return _pack(P, term(parse_poly(text).lm()))

    entries = []
    find, _ = _search(entries, cfg, P)
    query = packed_term("x(2)*x(0)")
    assert find(query) is None
    entries.append(entry("x(2) - x(1)", 0, P))
    assert find(query) == (
        lm("x(0)"), (packed_term("x(1)*x(0)"),), 0, entries[0])
    # x(0) < x(2) under lex, so the new entry reduces the query from now on.
    entries.append(entry("x(0) + 1", 1, P))
    assert find(query) == (lm("x(2)"), (packed_term("x(2)"),), 0,
                              entries[1])


def test_memo_sees_appended_entries_in_sigma_mode():
    memo_cases("sigma", lambda text, i, P: _Entry.of(parse_poly(text), i,
                                                     P), lambda m: m)


def test_memo_sees_appended_entries_in_left_mode():
    memo_cases("left", lambda text, i, P: _Entry.of(
        SkewElement.of_poly(parse_poly(text)), i, P),
        lambda m: SkewMonomial(m, 0))


# Two letters at places 0..3: room for every random monomial of these tests.
WIDE = parse_poly("y(3)")


def int_form(terms, P=None):
    """(term, coefficient) pairs as the kernel's (M, {term: numerator}),
    the terms packed by P when given."""
    M, nums = common_denominator([c for _, c in terms])
    return M, dict(zip([t if P is None else P.pack(t) for t, _ in terms],
                       nums))


def reduced(reduce, f, record, P):
    """The sigma-mode normal form of f through a ``_search`` reduce over the
    packing P, with tuple monomials, field coefficients and a record of
    tuple cofactors."""
    steps = []
    M, out = reduce(*int_form(f.terms, P), steps)
    record.extend((c, P.unpack(q), u, i) for c, q, u, i in steps)
    return Polynomial([(P.unpack(m), Fraction(c, M)) for m, c in out],
                      f.ordering, _sorted=True)


def test_memo_follows_a_changed_tail():
    # The completion gives an entry a new tail while the search's memo still
    # holds products of the old one.  A reduction after the change must
    # pair the new tail's monomials with the new numerators.
    rng = random.Random(20247)
    stale = 0
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        f, G = random_case(rng, ordering, large_denominators)
        cfg = GBConfig(mode="sigma", degree_bound=4, ordering=ordering)
        P = _packed(cfg, [f, *G, WIDE], lambda P: P)
        entries = [_Entry.of(g.monic(), i, P) for i, g in enumerate(G)
                   if g]
        _, reduce = _search(entries, cfg, P)
        first = []
        reduced(reduce, f, first, P)
        ent = rng.choice(entries)
        noise = lifted(random_poly(rng, letters=2, max_place=2, max_deg=2,
                                   terms=4, ordering=ordering),
                       rng, large_denominators)
        tail = [(m, c) for m, c in noise.terms if P.pack(m) < ent.lm]
        den, nums = int_form(tail, P)
        ent.take_tail(den, list(nums.items()))
        G = list(G)
        G[ent.index] = ent.poly
        record = []
        nf = reduced(reduce, f, record, P)
        want, want_record, _ = reference_nf(f, G, ordering)
        assert nf == want
        assert record == want_record
        stale += any(i == ent.index for _, _, _, i in first)
    assert stale > 100


# ---------------------------------------------------------------------------
# The int form: kernel output, S-polynomials and entries


def test_term_that_leaves_before_a_rescale_keeps_its_value():
    # y(0) is irreducible and leaves over M = 2; the step on x(0) by
    # x(0) + 1/3 (den 3) then rescales M to 3 and divides out the content
    # 2, so the kernel must bring y(0) over a common final denominator.
    G = [parse_poly("x(0) + 1/3")]
    f = parse_poly("1/2*y(0) + x(0)")
    cfg = GBConfig(mode="sigma", degree_bound=2)
    P = _packed(cfg, [f, *G], lambda P: P)
    entries = [_Entry.of(G[0], 0, P)]
    assert entries[0].den == 3
    _, reduce = _search(entries, cfg, P)
    M, out = reduce(*int_form(f.terms, P))
    assert M == 6 and [c for _, c in out] == [3, -2]
    want, _, _ = reference_nf(f, G, LEX)
    assert want == parse_poly("1/2*y(0) - 1/3")
    assert Polynomial([(P.unpack(m), Fraction(c, M)) for m, c in out], LEX,
                      _sorted=True) == want
    assert normal_form(f, G, cfg) == want


def test_output_spans_several_denominators():
    # y(1) is irreducible and leaves over M = 2.  The step on x(1)
    # (numerator 4) by x(1) + 1/3*x(0) rescales M to 6: the pending y(0)
    # (2) stays in the older generation over 2 and, irreducible, leaves
    # over 2, while x(0) enters at -4 over 6.  The step on x(0) by
    # x(0) + 1/5 rescales M to 30, over which 1 leaves with 4: the output
    # spans the denominators 2 and 30, and is brought over their lcm.
    G = [parse_poly("x(1) + 1/3*x(0)"), parse_poly("x(0) + 1/5")]
    f = parse_poly("1/2*y(1) + 2*x(1) + y(0)")
    cfg = GBConfig(mode="sigma", degree_bound=2)
    P = _packed(cfg, [f, *G], lambda P: P)
    _, reduce = _search([_Entry.of(g, i, P) for i, g in enumerate(G)],
                        cfg, P)
    M, out = reduce(*int_form(f.terms, P))
    assert M == 30 and [c for _, c in out] == [15, 30, 4]
    want, want_record, _ = reference_nf(f, G, LEX)
    assert want == parse_poly("1/2*y(1) + y(0) + 2/15")
    assert Polynomial([(P.unpack(m), Fraction(c, M)) for m, c in out], LEX,
                      _sorted=True) == want
    # The same reduction in each mode family, against its reference.
    record = []
    assert normal_form(f, G, cfg, record=record) == want
    assert record == want_record
    record = []
    skew = [SkewElement.of_poly(g) for g in G]
    nf = normal_form(SkewElement.of_poly(f), skew,
                     GBConfig(mode="skew", degree_bound=2), record=record)
    assert nf == SkewElement.of_poly(want)
    assert record == reference_nf(f, G, LEX, shifts=lambda i, m: range(1))[1]
    record = []
    nf = normal_form(SkewElement.of_poly(f), skew,
                     GBConfig(mode="left", degree_bound=2), record=record)
    assert (nf, len(record)) == reference_left_nf(SkewElement.of_poly(f),
                                                  skew, LEX)
    assert nf + rebuilt_left(record, skew, LEX) == SkewElement.of_poly(f)


def random_entry_pair(rng, ordering, lift, family):
    """Two random monic elements of the family ("sigma", "skew" or "left")
    with coefficients through lift(rng, c), as (element, element)."""
    while True:
        if family == "left":
            g = [lifted(random_left_element(rng, ordering), rng, lift)
                 for _ in range(2)]
        else:
            g = [lifted(random_poly(rng, letters=2, max_place=2, max_deg=2,
                                    terms=4, ordering=ordering), rng, lift)
                 for _ in range(2)]
        if all(g):
            return [h.monic() for h in g]


def check_int_spolys(seed, lift, coeff_type):
    """``_Entry.spoly`` on random pairs of entries against ``spoly_poly``
    (sigma and skew, under the shift and a power map) and ``spoly`` (left,
    the higher entry first and the other lifted by s**shift)."""
    rng = random.Random(seed)
    nonzero = 0
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        family = ("sigma", "skew", "left")[n % 3]
        sigma = PowerEndo(2) if family == "skew" and n % 2 else SHIFT
        f, g = random_entry_pair(rng, ordering, lift, family)
        cfg = GBConfig(mode=family, degree_bound=2, ordering=ordering,
                       sigma=sigma)
        P = _packed(cfg, [f, g], lambda P: P)
        if family == "left":
            (a, fa), (b, gb) = sorted(
                [(_Entry.of(h, i, P), h)
                 for i, h in enumerate((f, g))],
                key=lambda e: -e[0].sdeg)
            sh = a.sdeg - b.sdeg
            want = spoly(fa, shift_left(sh, gb, sigma))
            ring = SkewElement
        else:
            a, b = _Entry.of(f, 0, P), _Entry.of(g, 1, P)
            sh = rng.randint(0, 2)
            want = spoly_poly(f, sigma.poly(g, sh))
            ring = Polynomial
        l = P.lcm(a.lm, P.sigma(b.lm, sh))
        assert P.unpack(l) == mono_lcm(a.poly.lm()[0] if family == "left"
                                       else a.poly.lm(),
                                       sigma.mono(P.unpack(b.lm), sh))
        D, work = a.spoly(b, sh, l)
        got = ring([(_unpack(P, t), Fraction(c, D) if coeff_type is Fraction
                     else c) for t, c in work.items()], want.ordering)
        assert got == want
        assert all(type(c) is coeff_type for _, c in got.terms)
        nonzero += bool(want)
    assert nonzero > 200


def test_int_spoly_matches_fraction_spoly():
    check_int_spolys(20248, large_denominators, Fraction)


def test_int_spoly_matches_fraction_spoly_over_prime_field():
    check_int_spolys(20249, mod_7, ModInt)


def test_entry_poly_rebuilt_from_ints():
    # An entry keeps ints only; ``poly`` rebuilds the Fraction (or Z/p)
    # form, after construction, after ``take_tail`` from a numerator list
    # over a scaled, signed denominator, and for a kernel output made monic.
    rng = random.Random(20250)
    for n in range(300):
        ordering = (LEX, DEGLEX)[n % 2]
        lift = (large_denominators, mod_7)[n % 3 == 0]
        g = lifted(random_poly(rng, letters=2, max_place=2, max_deg=3,
                               terms=5, ordering=ordering), rng, lift)
        if not g:
            continue
        g = g.monic()
        cfg = GBConfig(mode="sigma", degree_bound=2, ordering=ordering)
        P = _packed(cfg, [g, WIDE], lambda P: P)
        ent = _Entry.of(g, 0, P)
        assert ent.poly == g and ent.poly.terms == g.terms
        tail = [(m, lift(rng, random_coeff(rng)))
                for m in {random_mono(rng, letters=2, max_place=2, max_deg=3)
                          for _ in range(4)}
                if P.pack(m) < ent.lm]
        tail = [(m, c) for m, c in sorted(
            tail, key=lambda t: ordering.key(t[0]), reverse=True) if c]
        den, nums = int_form(tail, P)
        k = rng.choice((1, -1, 6, -35)) if lift is large_denominators else 1
        ent.take_tail(den * k, [(m, c * k) for m, c in nums.items()])
        want = Polynomial(g.terms[:1] + tuple(tail), ordering, _sorted=True)
        assert ent.poly == want
        assert all(type(c) is type(g.lc()) for _, c in ent.poly.terms)
        if ent.nums and type(ent.nums[0]) is int:
            assert ent.den > 0 and gcd(ent.den, *ent.nums) == 1
        h = lifted(random_poly(rng, letters=2, max_place=2, max_deg=3,
                               terms=5, ordering=ordering), rng, lift)
        if h:
            _, work = int_form(h.terms, P)
            made = _Entry(list(work.items()), P, 0)
            assert made.poly == h.monic()
            assert type(made.poly.lc()) is type(h.monic().lc())
