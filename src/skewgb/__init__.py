"""Truncated Gröbner bases for difference ideals, the skew polynomial
ring K[X x N][s] with an induced endomorphism, and — through the
letterplace embedding — finitely generated free algebras."""

from .field import GF, QQ, ModInt, PrimeField, Rationals, is_prime
from .poly import (
    DEGLEX,
    LEX,
    ORDERINGS,
    MonomialOrdering,
    Polynomial,
    mono,
    mono_divides,
    mono_gcd,
    mono_lcm,
    top_place,
)
from .endo import MonomialEndomorphism, PowerEndo, ShiftEndo
from .skew import SkewElement, SkewMonomial, shift_left, skew_mul
from .engine import (
    EndomorphismRejected,
    GBConfig,
    GBResult,
    PairStats,
    WindowExceeded,
    certify,
    interreduce,
    left_gbasis,
    lm_window_match,
    member,
    normal_form,
    oracle_gbasis_truncated,
    sigma_gbasis,
    skew_gbasis,
    spoly,
)
from .letterplace import (
    FreePolynomial,
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
    pi,
    word_key,
    xi,
)
from .textio import (
    ParseError,
    format_free,
    format_poly,
    format_skew,
    parse_free,
    parse_poly,
    parse_skew,
)

__version__ = "0.1.0"
