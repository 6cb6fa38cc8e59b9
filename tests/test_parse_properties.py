"""Property tests of the parse phase (hypothesis).

Whatever text reaches the front end, it fails only in the way it reports:
a problem file through ``cli.parse_problem`` and the generator parser
raises ``UsageError``, and a string through the three ``textio.parse_*``
raises ``ParseError``, both of which ``cli.main`` turns into exit 1.
Printing and parsing are inverse on polynomials, skew elements and free
polynomials, over Q and Z/7.

The runs are derandomized and keep no example database, so each run draws
the same examples.  The ``@example`` inputs once escaped as
ZeroDivisionError, ValueError or RecursionError.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from randgen import skew_of_parts
from skewgb import cli
from skewgb.field import GF, QQ
from skewgb.letterplace import FreePolynomial
from skewgb.poly import DEGLEX, LEX, Polynomial, mono
from skewgb.textio import (
    DEFAULT_NAMES,
    ParseError,
    format_free,
    format_poly,
    format_skew,
    parse_free,
    parse_poly,
    parse_skew,
)

F7 = GF(7)
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)
NESTED = "(" * 300 + "1" + ")" * 300

# Generator text: grammar tokens, a few names that are not variables, and
# characters the tokenizer must refuse (non-ASCII digits among them).  The
# alphabets are fixed: hypothesis's full Unicode strategy costs seconds to
# set up.
TOKENS = ["x", "y", "s", "a", "x(0)", "y(1)", "(", ")", "0", "1", "2", "7",
          "+", "-", "*", "/", "^", " ", ",", "_", "²", "٣", "é",
          "$", "#", "\t"]
generator_text = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)
raw_text = st.text(alphabet="xys01279()+-*/^ ,_:#\t\n²٣é\x00\u2028",
                   max_size=40)

HEADER_LINES = [
    "mode: sigma", "mode: skew", "mode: left", "mode: free", "mode: free2",
    "mode: ring", "degree_bound: 3", "degree_bound: 0", "degree_bound: two",
    "field: 7", "field: Q", "field: 6", "field: p", "letters: x,y",
    "letters: x,s", "letters: a", "letters: x,,y", "ordering: deglex",
    "ordering: revlex", "endo: power 2", "endo: shift", "endo: power",
    "criteria: chain", "criteria: none", "criteria: magic",
    "interreduce: false", "trace: true", "trace: maybe", "color: red",
    "no colon here", "# a comment",
]
problem_text = st.builds(
    lambda head, body: "\n".join(head) + "\n\n" + "\n".join(body),
    st.lists(st.sampled_from(HEADER_LINES), max_size=6),
    st.lists(generator_text, max_size=3),
)


def parse_generators(text):
    pf = cli.parse_problem(text)
    return cli._parse_generators(pf, cli._config(pf, False))


@SETTINGS
@given(st.one_of(problem_text, raw_text))
@example("mode: sigma\ndegree_bound: 4\n\n3/0*x(0)\n")
@example("mode: sigma\ndegree_bound: 4\nfield: 7\n\n1/7*x(0)\n")
@example("mode: sigma\ndegree_bound: 4\n\nx(0)^²\n")
@example("mode: sigma\ndegree_bound: 4\n\nx(²)\n")
@example("mode: skew\ndegree_bound: 4\n\n" + NESTED + "\n")
def test_problem_text_raises_only_usage_errors(text):
    try:
        parse_generators(text)
    except cli.UsageError:
        pass


@SETTINGS
@given(st.one_of(generator_text, raw_text),
       st.sampled_from([QQ, F7]))
@example("3/0", QQ)
@example("1/7", F7)
@example("x(0)^²", QQ)
@example("x(²)", QQ)
@example(NESTED, QQ)
def test_parsers_raise_only_parse_errors(text, field):
    for parse in (parse_poly, parse_skew, parse_free):
        try:
            parse(text, field)
        except ParseError:
            pass


NAMES = st.sampled_from([DEFAULT_NAMES, ("a", "b"), ("u_1", "v2")])
ORDERINGS = st.sampled_from([LEX, DEGLEX])


def coefficients(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    return st.integers(0, 6).map(field.of)


@st.composite
def printed_cases(draw):
    """(field, names, ordering, poly, skew element, free polynomial)."""
    field = draw(st.sampled_from([QQ, F7]))
    names = draw(NAMES)
    ordering = draw(ORDERINGS)
    letter = st.integers(0, len(names) - 1)
    coeff = coefficients(field)
    monos = st.lists(st.tuples(letter, st.integers(0, 3), st.integers(1, 3)),
                     max_size=3).map(lambda vs: mono(*vs))

    def poly():
        return Polynomial(draw(st.lists(st.tuples(monos, coeff), max_size=4)),
                          ordering)

    skew = skew_of_parts([(draw(st.integers(0, 2)), poly())
                          for _ in range(draw(st.integers(1, 3)))], ordering)
    words = st.lists(letter, max_size=3).map(tuple)
    free = FreePolynomial(draw(st.lists(st.tuples(words, coeff), max_size=4)))
    return field, names, ordering, poly(), skew, free


@SETTINGS
@given(printed_cases())
def test_parse_inverts_format(case):
    field, names, ordering, f, a, w = case
    g = parse_poly(format_poly(f, names), field, names, ordering)
    assert g == f and g.ordering == f.ordering
    b = parse_skew(format_skew(a, names), field, names, ordering)
    assert b == a and b.ordering == a.ordering
    assert parse_free(format_free(w, names), field, names) == w
