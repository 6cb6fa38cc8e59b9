"""Tests for the free algebra, its embeddings, and free-mode bases."""

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from randgen import random_free_homogeneous
from skewgb import engine
from skewgb.endo import ShiftEndo
from skewgb.engine import GBConfig
from skewgb.field import QQ
from skewgb.letterplace import (
    FreePolynomial,
    _r_filter,
    _v_filter,
    certify_free,
    free_gbasis,
    free_gbasis2,
    free_oracle_match,
    in_R,
    in_V,
    iota,
    iota_inv,
    iota_prime,
    iota_prime_inv,
    iota_prime_word,
    iota_word,
    pi,
    word_key,
    word_of_mono,
    xi,
)
from skewgb.poly import (
    DEGLEX,
    LETTER_BITS,
    LETTER_MASK,
    LEX,
    MonoPacking,
    mono,
    mono_divides,
    mono_from_pairs,
    var_code,
)
from skewgb.skew import SkewMonomial, skew_mul
from skewgb.textio import parse_free, parse_poly, parse_skew

SHIFT = ShiftEndo()


def fp(terms):
    return FreePolynomial([(w, QQ.of(c)) for w, c in terms])


def rand_free(rng, letters=2, max_deg=3, terms=3, homogeneous=False):
    d = rng.randint(1, max_deg)
    tt = []
    for _ in range(rng.randint(1, terms)):
        length = d if homogeneous else rng.randint(0, max_deg)
        w = tuple(rng.randrange(letters) for _ in range(length))
        tt.append((w, QQ.of(rng.randint(-3, 3))))
    return FreePolynomial(tt)


def test_word_key_orders_by_length_then_right_end():
    assert word_key((0, 1)) > word_key((1,))       # longer wins
    assert word_key((0, 1)) > word_key((1, 0))     # rightmost letter first
    assert word_key((1, 0)) > word_key((0, 0))
    assert word_key(()) < word_key((0,))
    # Multiplicative on both sides.
    rng = random.Random(6)
    for _ in range(300):
        u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        if word_key(u) < word_key(v):
            assert word_key(w + u) < word_key(w + v)
            assert word_key(u + w) < word_key(v + w)


def test_free_polynomial_basics():
    f = fp([((0, 1), 1), ((1, 0), -1)])
    assert f.lm() == (0, 1)
    assert f.lc() == 1
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert f.letters() == {0, 1}
    g = fp([((0,), 1), ((), 2)])
    assert not g.is_homogeneous()
    assert g.degree() == 1
    assert FreePolynomial.zero().degree() == -1
    assert FreePolynomial.zero().is_homogeneous()


def test_free_polynomial_merge_and_cancel():
    f = fp([((0, 1), 1), ((0, 1), 2)])
    assert f.terms == (((0, 1), QQ.of(3)),)
    assert fp([((0,), 1), ((0,), -1)]).is_zero()


def test_free_product_concatenates():
    x = fp([((0,), 1)])
    y = fp([((1,), 1)])
    assert x * y == fp([((0, 1), 1)])
    assert y * x == fp([((1, 0), 1)])
    assert x * y != y * x
    f = x + y
    assert f * f == fp([((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)])
    one = fp([((), 1)])
    assert one * f == f
    assert f * one == f


def test_free_monic():
    f = fp([((0, 1), -2), ((1, 0), 4)])
    m = f.monic()
    assert m.lc() == 1
    assert m == fp([((0, 1), 1), ((1, 0), -2)])


def test_free_arithmetic_stays_free():
    f = fp([((0, 1), 2), ((1, 1), -1)])
    g = fp([((1, 1), 1), ((0,), 1)])
    results = (f + g, f - g, -f, f * g, f.scale(QQ.of(3)), f.monic(),
               f - f, f.scale(QQ.zero))
    for h in results:
        assert type(h) is FreePolynomial
    assert f + g == fp([((0, 1), 2), ((0,), 1)])
    assert f.monic() == fp([((1, 1), 1), ((0, 1), -2)])
    assert (f - f) == FreePolynomial.zero()
    # Words and placed monomials never mix.
    with pytest.raises(ValueError):
        f + iota_prime(f)


def test_iota_word_places_letters():
    v = iota_word((0, 1, 0))
    assert v.sdeg == 3
    assert v.mono == mono((0, 3, 1), (1, 2, 1), (0, 1, 1))
    assert iota_prime_word((0, 1, 0)) == v.mono
    assert iota_word(()) == SkewMonomial(mono(), 0)


def test_iota_is_graded():
    f = parse_free("x*y*x + 2*x")
    a = iota(f)
    assert [i for i, _ in a.parts] == [3, 1]
    assert a.component(3) == parse_poly("x(3)*y(2)*x(1)")
    assert a.component(1) == parse_poly("2*x(1)")
    assert pi(a) == parse_poly("x(3)*y(2)*x(1) + 2*x(1)")
    assert iota(FreePolynomial.zero()).is_zero()


def test_iota_multiplicative():
    rng = random.Random(77)
    for _ in range(150):
        f = rand_free(rng)
        g = rand_free(rng)
        assert iota(f * g) == skew_mul(iota(f), iota(g), SHIFT)
        assert iota(f + g) == iota(f) + iota(g)


def test_iota_injective_round_trip():
    rng = random.Random(78)
    for _ in range(150):
        f = rand_free(rng)
        assert iota_inv(iota(f)) == f
        if f.is_homogeneous() and not f.is_zero():
            assert iota_prime_inv(iota_prime(f)) == f


def test_iota_preserves_leading_data():
    rng = random.Random(79)
    for _ in range(200):
        f = rand_free(rng, homogeneous=True)
        if f.is_zero():
            continue
        a = iota(f)
        assert a.lm() == iota_word(f.lm())
        assert a.lc() == f.lc()


def test_word_of_mono():
    assert word_of_mono(mono((0, 3, 1), (1, 2, 1), (0, 1, 1))) == (0, 1, 0)
    assert word_of_mono(mono()) == ()
    assert word_of_mono(mono((0, 2, 1))) is None          # gap at place 1
    assert word_of_mono(mono((0, 1, 2))) is None          # square
    assert word_of_mono(mono((0, 1, 1), (1, 1, 1))) is None
    assert word_of_mono(mono((0, 0, 1))) is None          # place 0


def near_word(rng, letters, places):
    """A random monomial on places 0..places - 1, most of them a word's
    placing or one edit away from one: an exponent of 2, a second letter
    on a place, a variable on place 0, a gap."""
    k = rng.randrange(places)
    pairs = [(var_code(rng.randrange(letters), p), 1) for p in range(1, k + 1)]
    edit = rng.randrange(6)
    if edit == 0 and pairs:
        i = rng.randrange(k)
        pairs[i] = (pairs[i][0], 2)
    elif edit == 1:
        pairs.append((var_code(rng.randrange(letters),
                               rng.randrange(places)), 1))
    elif edit == 2:
        pairs.append((var_code(rng.randrange(letters), 0), 1))
    elif edit == 3 and pairs:
        del pairs[rng.randrange(k)]
    elif edit == 4:
        pairs = [(var_code(rng.randrange(letters), rng.randrange(places)),
                  rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    return mono_from_pairs(pairs)


def test_packed_pair_filters_agree_with_the_tuple_filters():
    # The packed forms the engine calls, against the tuple filters on the
    # same monomials, which decode through word_of_mono.
    rng = random.Random(2711)
    edges = [mono(), mono((0, 1, 2)), mono((0, 1, 1), (1, 1, 1)),
             mono((0, 0, 1)), mono((0, 0, 1), (1, 1, 1)), mono((0, 2, 1)),
             mono((1, 3, 1), (0, 1, 1)), mono((0, 2, 1), (1, 1, 1))]
    passed = Counter()
    for letters, places, width in product((1, 2, 3, 5), (3, 6), (8, 16)):
        for ordering in (LEX, DEGLEX):
            P = MonoPacking(letters, places, ordering, width, places)
            monos = [m for m in edges if all(
                c & LETTER_MASK < letters and c >> LETTER_BITS < places
                for c, _ in m)]
            monos += [near_word(rng, letters, places) for _ in range(400)]
            for m, level in product(monos, range(places + 1)):
                for filt in (_v_filter, _r_filter):
                    want = filt(m, level)
                    assert filt.packed(P)(P.pack(m), level) is want, (m, level)
                    passed[filt is _v_filter, want] += 1
    # Both verdicts of both filters are reached, and R's length check
    # refuses words that V passes.
    assert min(passed.values()) > 1000
    assert passed[False, True] < passed[True, True]
    assert _r_filter(mono((0, 1, 1)), 2) is False
    assert _v_filter(mono((0, 1, 1)), 2) is True


class PackedOnly:
    """A pair filter with a packed form whose tuple form must not run."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, l, level):
        raise AssertionError("a filter with a packed form got a tuple")

    def packed(self, P):
        test = self.inner.packed(P)

        def counted(l, level):
            assert isinstance(l, int)
            self.calls += 1
            return test(l, level)

        return counted


def test_a_filter_with_a_packed_form_is_never_called_on_tuples():
    H = [parse_free("x*y - y*x"), parse_free("x*x*y - y*y*x")]
    for mode, inner, solve in (("sigma", _v_filter, engine.sigma_gbasis),
                               ("skew", _r_filter, engine.skew_gbasis)):
        embed = iota_prime if mode == "sigma" else iota
        cfg = GBConfig(mode=mode, degree_bound=5)
        gens = [embed(h) for h in H]
        filt = PackedOnly(inner)
        res = solve(gens, cfg, pair_filter=filt)
        want = solve(gens, cfg, pair_filter=inner)
        assert res.basis == want.basis and res.stats == want.stats
        # Every enumerated pair was asked, and some were vetoed.
        assert filt.calls > res.stats.considered > 0
        calls = filt.calls
        assert engine.certify(res.basis, cfg, pair_filter=filt)[0]
        assert filt.calls > calls


def test_in_V_in_R():
    assert in_V(parse_poly("x(2)*y(1) - y(2)*x(1)"))
    # Mixed word lengths still live in V; V is not graded by degree.
    assert in_V(parse_poly("x(2)*y(1) - x(1)"))
    assert not in_V(parse_poly("x(2)"))
    assert not in_V(parse_poly("x(1)^2"))
    a = parse_skew("(x(2)*y(1))*s^2 + x(1)*s")
    assert in_R(a)
    assert not in_R(parse_skew("x(2)*s"))
    assert not in_R(parse_skew("x(1)*s^2"))


def test_products_of_embedded_elements_stay_embedded():
    rng = random.Random(80)
    for _ in range(100):
        f = rand_free(rng)
        g = rand_free(rng)
        assert in_R(skew_mul(iota(f), iota(g), SHIFT))


def test_iota_inv_rejects_outside():
    with pytest.raises(ValueError):
        iota_inv(parse_skew("x(2)*s"))
    with pytest.raises(ValueError):
        iota_prime_inv(parse_poly("x(2)"))


def test_xi_inverts_iota_prime_on_graded_parts():
    rng = random.Random(81)
    for _ in range(100):
        f = rand_free(rng, homogeneous=True)
        if f.is_zero():
            continue
        assert xi(iota_prime(f)) == iota(f)
    with pytest.raises(ValueError):
        xi(parse_poly("3"))
    with pytest.raises(ValueError):
        xi(parse_poly("x(0)"))


def test_commutator_is_its_own_basis():
    f = parse_free("y*x - x*y")
    G = free_gbasis([f], GBConfig(mode="free", degree_bound=4))
    assert G == [fp([((0, 1), 1), ((1, 0), -1)])]


def test_single_square():
    G = free_gbasis([parse_free("x^2")], GBConfig(mode="free", degree_bound=5))
    assert G == [fp([((0, 0), 1)])]


def test_two_generator_completion():
    H = [parse_free("x*y - y^2"), parse_free("x^2")]
    cfg = GBConfig(mode="free", degree_bound=4)
    G = free_gbasis(H, cfg)
    assert G == [
        fp([((1, 1), 1), ((0, 1), -1)]),   # y^2 - x y
        fp([((0, 0), 1)]),                 # x^2
        fp([((1, 0, 1), 1)]),              # y x y
    ]
    assert free_oracle_match(G, H, cfg)
    assert certify_free(G, cfg)[0]
    assert certify_free(G, replace(cfg, mode="free2"))[0]


def test_oracle_comparison_rejects_a_wrong_basis():
    H = [parse_free("x*y - y^2"), parse_free("x^2")]
    cfg = GBConfig(mode="free", degree_bound=4)
    G = free_gbasis(H, cfg)
    # Without y x y, the words of length 3 and 4 that hold it are covered
    # by the oracle alone.
    assert not free_oracle_match(G[:2], H, cfg)
    # A spurious shorter leading word covers y, which the oracle does not.
    assert not free_oracle_match(G + [fp([((1,), 1)])], H, cfg)
    assert not free_oracle_match([], H, cfg)
    # Below the degree of the dropped element the two sides still agree.
    assert free_oracle_match(G[:2], H, cfg, compare_bound=2)
    assert not free_oracle_match(G[:2], H, cfg, compare_bound=3)


def reference_oracle_match(G, H, cfg, compare_bound=None, B=None):
    """The exhaustive comparison that ``free_oracle_match`` replaced: every
    word up to the bound, tested against every leading word as a contiguous
    subword and against every oracle lm as a divisor of its placing.  The
    oracle lms are B, or else those of ``oracle_gbasis_truncated``'s
    basis."""
    d = cfg.degree_bound if compare_bound is None else compare_bound
    letters = set()
    for f in list(G) + list(H):
        letters |= f.letters()
    n = max(letters) + 1 if letters else 1
    if B is None:
        ecfg = GBConfig(mode="sigma", degree_bound=d, ordering=cfg.ordering,
                        sigma=cfg.sigma)
        oracle = engine.oracle_gbasis_truncated(
            [iota_prime(h, cfg.ordering) for h in H], ecfg, degree_cap=d
        )
        B = [b.lm() for b in oracle.basis if b]
    lms = [g.lm() for g in G]
    for length in range(1, d + 1):
        for w in product(range(n), repeat=length):
            main_hit = any(
                w[i:i + len(u)] == u for u in lms
                for i in range(length - len(u) + 1)
            )
            placed = iota_prime_word(w)
            if main_hit != any(mono_divides(b, placed) for b in B):
                return False
    return True


def perturbed_bases(G, H):
    """The basis, no basis, the basis with one element dropped, each
    element alone, and the basis with a generator appended."""
    out = [G, []]
    for i in range(len(G)):
        out += [G[:i] + G[i + 1:], [G[i]]]
    return out + [G + [h] for h in H]


def test_oracle_comparison_matches_the_exhaustive_loop():
    rng = random.Random(84)
    checks = false = 0
    for _ in range(25):
        H = [random_free_homogeneous(rng, letters=rng.randint(1, 3))
             for _ in range(rng.randint(1, 2))]
        d = rng.randint(2, 4)
        cfg = GBConfig(mode="free", degree_bound=d)
        G = free_gbasis(H, cfg)
        for basis in perturbed_bases(G, H):
            for bound in range(1, d + 1):
                got = free_oracle_match(basis, H, cfg, compare_bound=bound)
                assert got == reference_oracle_match(basis, H, cfg, bound)
                checks += 1
                false += not got
    assert checks > 300 and false > checks // 4


def test_oracle_comparison_matches_the_exhaustive_loop_on_odd_lms(
    monkeypatch
):
    # The oracle's lms come from V-monomials, but the comparison must not
    # lean on that: an lm with an exponent 2, two letters on one place, a
    # place-0 variable or a letter outside the words' alphabet divides no
    # placing, and the lm 1 divides every one.
    H = [parse_free("x*y - y^2")]
    cfg = GBConfig(mode="free", degree_bound=3)
    G = free_gbasis(H, cfg)
    odd = [mono((0, 1, 2)), mono((0, 1, 1), (1, 1, 1)), mono((1, 0, 1)),
           mono((2, 1, 1)), mono((2, 1, 1), (0, 2, 1)), mono((0, 2, 2)),
           mono()]

    def oracle_of(lms):
        def fake(H, cfg, degree_cap=None):
            return {0: list(lms)}
        return fake

    empty_word = fp([((), 1)])
    lms_sets = [[m] for m in odd] + [odd[:-1], [mono((0, 1, 1))] + odd[:-1]]
    for lms in lms_sets:
        monkeypatch.setattr(engine, "_oracle_lms", oracle_of(lms))
        for basis in ([], G, [empty_word], G + [empty_word]):
            for bound in (1, 2, 3):
                assert free_oracle_match(basis, H, cfg, bound) == \
                    reference_oracle_match(basis, H, cfg, bound, lms), \
                    (lms, basis, bound)
    # The empty word covers every word, as the lm 1 does.
    monkeypatch.setattr(engine, "_oracle_lms", oracle_of([mono()]))
    assert free_oracle_match([empty_word], H, cfg)
    assert not free_oracle_match(G, H, cfg)
    # A letter past the alphabet must not alias the next place's letter 0.
    monkeypatch.setattr(engine, "_oracle_lms", oracle_of([mono((2, 1, 1))]))
    assert free_oracle_match([], H, cfg)


def test_oracle_comparison_refuses_a_bound_outside_the_window():
    # Past the degree bound the basis was never computed: solved at
    # degree_bound 2, this basis lacks y x y, so at bound 3 it would read
    # "differ" although it is the 2-truncated basis.
    H = [parse_free("x*y - y^2"), parse_free("x^2")]
    cfg = GBConfig(mode="free", degree_bound=2)
    G = free_gbasis(H, cfg)
    assert free_oracle_match(G, H, cfg, compare_bound=2)
    assert free_oracle_match(G, H, cfg, compare_bound=1)
    for bound in (0, -1, 3, 7):
        with pytest.raises(ValueError, match=f"compare bound {bound} "):
            free_oracle_match(G, H, cfg, compare_bound=bound)


def test_both_routes_agree():
    rng = random.Random(82)
    for _ in range(40):
        H = [rand_free(rng, homogeneous=True) for _ in range(rng.randint(1, 2))]
        H = [h for h in H if h]
        if not H:
            continue
        d = rng.randint(3, 4)
        G = free_gbasis(H, GBConfig(mode="free", degree_bound=d))
        G2 = free_gbasis2(H, GBConfig(mode="free2", degree_bound=d))
        assert G == G2


def test_output_is_sorted_and_monic():
    H = [parse_free("x*y - y^2"), parse_free("x^2")]
    G = free_gbasis(H, GBConfig(mode="free", degree_bound=4))
    assert all(g.lc() == QQ.one for g in G)
    degs = [g.degree() for g in G]
    assert degs == sorted(degs)


def test_free_mode_validation():
    cfg = GBConfig(mode="free", degree_bound=3)
    with pytest.raises(ValueError):
        free_gbasis([parse_free("x + x*y")], cfg)  # inhomogeneous
    with pytest.raises(ValueError):
        free_gbasis([parse_free("2")], cfg)        # constant: whole algebra
    with pytest.raises(ValueError):
        free_gbasis([], GBConfig(mode="free2", degree_bound=3))
    with pytest.raises(ValueError):
        free_gbasis2([], GBConfig(mode="free", degree_bound=3))


def test_zero_generators_dropped():
    G = free_gbasis(
        [FreePolynomial.zero(), parse_free("x^2")],
        GBConfig(mode="free", degree_bound=4),
    )
    assert G == [fp([((0, 0), 1)])]
    assert free_gbasis([], GBConfig(mode="free", degree_bound=3)) == []
