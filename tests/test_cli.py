"""End-to-end tests of the batch front end via subprocess."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from randgen import (
    random_free_homogeneous,
    random_skew_homogeneous,
    random_weighted_poly,
)
from skewgb import cli, engine, textio
from skewgb.poly import ORDERINGS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

DIFFERENCE_BASIS = """\
x(2)*x(0) - x(1)
x(3)^2*x(0) - x(3)
x(4)*x(1) - x(3)*x(0)
x(4)*x(3)*x(0) - x(4)
x(5) - x(4)*x(0)
"""

TRACE_HEAD = [
    "# (g1, sigma^1.g1)@3 skip:product",
    "# (g1, sigma^2.g1)@4 -> g2",
    "# (g2, sigma^2.g1)@4 -> 0",
    "# (g2, sigma^1.g1)@4 -> g3",
    "# (g3, sigma^1.g1)@3 -> 0",
    "# (g1, sigma^0.g3)@3 -> 0",
    "# (g2, sigma^1.g3)@4 -> g4",
    "# (g1, sigma^0.g2)@4 skip:product",
]


def run_cli(*args):
    # The child imports skewgb from this checkout, as the test process does.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "skewgb.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_difference_corpus_golden():
    p = run_cli(CORPUS / "difference-d6.txt")
    assert p.returncode == 0
    assert p.stdout == DIFFERENCE_BASIS
    assert p.stderr == ""


def test_stats_line():
    p = run_cli(CORPUS / "difference-d6.txt", "--stats")
    assert p.returncode == 0
    assert p.stdout.splitlines()[-1] == (
        "# pairs=93 product=53 chain=9 zero=26 added=6"
    )


def test_certify_line():
    p = run_cli(CORPUS / "difference-d6.txt", "--certify")
    assert p.returncode == 0
    assert p.stdout.splitlines()[-1] == (
        "# certified: all in-window critical pairs reduce to zero"
    )


def test_trace_lines():
    p = run_cli(CORPUS / "difference-d6.txt", "--trace")
    assert p.returncode == 0
    assert p.stdout.splitlines()[:8] == TRACE_HEAD


@pytest.mark.parametrize("label", ["c41-d4", "c41w-d6", "serf-g2"])
def test_stats_output_matches_recorded_digest(label):
    # The benchmark's recorded SHA-256 digests of `skewgb <problem> --stats`.
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    p = run_cli(CORPUS / f"{label}.txt", "--stats")
    assert p.returncode == 0
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == golden[label]


def test_byte_determinism():
    args = (CORPUS / "difference-d6.txt", "--stats", "--trace", "--certify")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_free_corpus_runs_and_certifies():
    p = run_cli(CORPUS / "c41-d4.txt", "--certify")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[-1] == "# certified: all in-window critical pairs reduce to zero"
    assert len(lines) == 47
    assert lines[0].startswith("x4^2 ")


def test_free_oracle_and_certify(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text(
        "mode: free\ndegree_bound: 4\nletters: x,y\n\nx*y - y^2\nx^2\n"
    )
    p = run_cli(path, "--certify", "--oracle")
    assert p.returncode == 0
    assert p.stdout.splitlines() == [
        "y^2 - x*y",
        "x^2",
        "y*x*y",
        "# certified: all in-window critical pairs reduce to zero",
        "oracle lm-ideals match",
    ]


def test_free2_same_basis(tmp_path):
    body = "degree_bound: 4\nletters: x,y\n\nx*y - y^2\nx^2\n"
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    one.write_text("mode: free\n" + body)
    two.write_text("mode: free2\n" + body)
    assert run_cli(one).stdout == run_cli(two).stdout


def test_sigma_oracle_match_on_weighted_homogeneous(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text(
        "mode: sigma\ndegree_bound: 4\nletters: x\nordering: deglex\n\n"
        "x(2)*x(0) - x(2)\nx(1)^2 + x(1)*x(0)\n"
    )
    p = run_cli(path, "--oracle")
    assert p.returncode == 0
    assert p.stdout.splitlines()[-1] == "oracle lm-ideals match"


def test_oracle_difference_exits_three():
    # The shift-closure of this ideal is strictly larger than what plain
    # expansion of the original generator sees, so the check must report
    # a difference rather than silently agree.
    p = run_cli(CORPUS / "difference-d6.txt", "--oracle")
    assert p.returncode == 3
    assert p.stdout.splitlines()[-1] == "oracle lm-ideals differ"


def test_skew_mode_run(tmp_path):
    path = tmp_path / "skew.txt"
    path.write_text(
        "mode: skew\ndegree_bound: 6\nletters: x\n\n(x(2)*x(0) - x(1))*s^2\n"
    )
    p = run_cli(path)
    assert p.returncode == 0
    assert p.stdout.splitlines() == [
        "(x(2)*x(0) - x(1))*s^2",
        "(x(3)^2*x(0) - x(3))*s^4",
        "(x(4)*x(1) - x(3)*x(0))*s^4",
        "(x(4)*x(3)*x(0) - x(4))*s^5",
        "(x(5)*x(1) - x(3)*x(0)^2)*s^5",
        "(x(5)*x(4) - x(4)^2*x(0))*s^5",
        "(x(5) - x(4)*x(0))*s^6",
        "(x(6)*x(1) - x(1)*x(0))*s^6",
    ]


# Problem text and full ``--stats --trace --certify`` output for one problem
# per skew-ring route: left mode over mixed s-layers, two-sided skew mode,
# and the free algebra computed inside S.  One more left problem prints the
# completion's own entries, whose tails the completion keeps reduced.
PINNED = {
    "left": (
        """\
mode: left
degree_bound: 3
letters: x

x(0)*s + x(1)
x(1)*s^2
""",
        """\
# (g2, s^1.g1)@2 -> g3
# (g3, s^0.g1)@1 -> g4
# (g3, s^1.g4)@1 -> 0
# (g1, s^1.g4)@1 skip:chain
# (g2, s^1.g3)@2 -> 0
# (g2, s^2.g4)@2 skip:chain
x(2)*x(1)
x(0)*s + x(1)
x(2)*s
# pairs=6 product=0 chain=2 zero=2 added=4
# certified: all in-window critical pairs reduce to zero
""",
    ),
    "left-unreduced": (
        """\
mode: left
degree_bound: 3
letters: x
interreduce: false

s
x(1)*s + x(0)
""",
        """\
# (g2, s^0.g1)@1 -> g3
# (g1, s^1.g3)@1 -> 0
# (g2, s^1.g3)@1 -> 0
s
x(1)*s
x(0)
# pairs=3 product=0 chain=0 zero=2 added=3
# certified: all in-window critical pairs reduce to zero
""",
    ),
    # Left mode lifts x(0) to s**10 to test x(1)*s**10, far past the window.
    "left-above-window": (
        """\
mode: left
degree_bound: 1
letters: x

x(0)
x(1)*s^10
""",
        """\
x(0)
x(1)*s^10
# pairs=0 product=0 chain=0 zero=0 added=2
# certified: all in-window critical pairs reduce to zero
""",
    ),
    "skew": (
        """\
mode: skew
degree_bound: 4
letters: x

(x(2)*x(0) - x(1))*s^2
""",
        """\
# (g1, sigma^1.g1)@3 -> 0
# (g1, sigma^2.g1)@4 -> g2
# (g2, sigma^2.g1)@4 -> 0
# (g2, sigma^1.g1)@4 -> g3
# (g3, sigma^1.g1)@4 -> 0
# (g1, sigma^0.g3)@4 -> 0
# (g1, sigma^0.g2)@4 skip:chain
# (g2, sigma^0.g3)@4 skip:chain
# (g3, sigma^2.g1)@4 skip:chain
(x(2)*x(0) - x(1))*s^2
(x(3)^2*x(0) - x(3))*s^4
(x(4)*x(1) - x(3)*x(0))*s^4
# pairs=9 product=0 chain=3 zero=4 added=3
# certified: all in-window critical pairs reduce to zero
""",
    ),
    "free2": (
        """\
mode: free2
degree_bound: 4
letters: x,y

x*y - y^2
x^2
""",
        """\
# (g2, sigma^1.g2)@3 -> 0
# (g1, sigma^1.g1)@3 -> g3
# (g2, sigma^2.g2)@4 skip:chain
# (g1, sigma^2.g2)@4 -> 0
# (g1, sigma^1.g3)@4 -> 0
# (g2, sigma^2.g1)@4 -> 0
# (g3, sigma^2.g1)@4 -> 0
# (g1, sigma^2.g1)@4 skip:chain
y^2 - x*y
x^2
y*x*y
# pairs=8 product=0 chain=2 zero=5 added=3
# certified: all in-window critical pairs reduce to zero
""",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stats_trace_certify_output_is_pinned(tmp_path, name):
    problem, output = PINNED[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(problem)
    p = run_cli(path, "--stats", "--trace", "--certify")
    assert p.returncode == 0
    assert p.stderr == ""
    assert p.stdout == output


def test_unit_ideal_output_is_pinned(tmp_path):
    # The S-polynomial of the two generators is the constant 1: its trace
    # line names the pair, and the warning is one line free of source paths.
    path = tmp_path / "unit.txt"
    path.write_text("mode: sigma\ndegree_bound: 3\n\nx(0) - 1\nx(0) - 2\n")
    p = run_cli(path, "--trace", "--stats")
    assert p.returncode == 0
    assert p.stdout == (
        "# (g1, sigma^0.g2)@0 -> 1\n"
        "1\n"
        "# pairs=13 product=0 chain=0 zero=0 added=2\n"
    )
    assert p.stderr == "warning: basis contains a constant: unit ideal\n"


def test_lex_skew_quadrics_take_pairs_degree_first(tmp_path):
    # Two lex quadrics in the skew ring (bench/README.md, Known gaps).  Taken
    # by the ordering alone within a stratum, the pairs numbered 73 899 and
    # the loop added 357 elements on its way to this 31-element basis.
    path = tmp_path / "quadrics.txt"
    path.write_text(
        "mode: skew\ndegree_bound: 3\nordering: lex\nletters: x,y\n\n"
        "(2*y(1)*x(1) + 4*y(0)*y(0))*s^2\n"
        "-5*y(1)*y(0) + 3*x(0)*x(0)\n"
    )
    p = run_cli(path, "--stats", "--certify", "--oracle")
    assert p.returncode == 0
    assert p.stderr == ""
    lines = p.stdout.splitlines()
    assert len(lines) == 31 + 3
    assert lines[31:] == [
        "# pairs=899 product=0 chain=640 zero=230 added=31",
        "# certified: all in-window critical pairs reduce to zero",
        "oracle lm-ideals match",
    ]


def test_left_mode_refuses_oracle(tmp_path):
    path = tmp_path / "left.txt"
    path.write_text("mode: left\ndegree_bound: 4\nletters: x\n\nx(1)*s - x(0)\n")
    ok = run_cli(path)
    assert ok.returncode == 0
    assert ok.stdout == "x(1)*s - x(0)\n"
    p = run_cli(path, "--oracle")
    assert p.returncode == 1
    assert p.stdout == ""
    assert "not available in left mode" in p.stderr


def test_refusal_exit_code(tmp_path):
    path = tmp_path / "power.txt"
    path.write_text(
        "mode: sigma\ndegree_bound: 4\nendo: power 2\nletters: x\n\n"
        "x(1) - x(0)\n"
    )
    p = run_cli(path)
    assert p.returncode == 2
    assert p.stderr.startswith("refused: ")


def test_usage_errors(tmp_path):
    cases = [
        ("degree_bound: 4\n\nx(0)\n",
         "mode must be one of free/free2/sigma/skew/left, got None"),
        ("mode: sigma\n\nx(0)\n", "degree_bound is required"),
        ("mode: sigma\ndegree_bound: 0\n\nx(0)\n", "must be >= 1"),
        ("mode: sigma\nmode: skew\ndegree_bound: 4\n\nx(0)\n", "duplicate key"),
        ("mode: sigma\ndegree_bound: 4\ncolor: red\n\nx(0)\n", "unknown header"),
        ("mode: sigma\ndegree_bound: 4\n\nq(1)\n", "bad generator"),
        ("mode: sigma\ndegree_bound: 4\nfield: 6\n\nx(0)\n", "6"),
        ("mode: sigma\ndegree_bound: 4\nfield: 318665857834031151167461\n\n"
         "x(0)\n", "318665857834031151167461 is not prime"),
        ("mode: sigma\ndegree_bound: 4\nordering: degrevlex\n\nx(0)\n",
         "unknown ordering"),
        ("mode: skew\ndegree_bound: 4\nletters: x,s\n\nx(0)*s\n", "reserved"),
        # Letters that no generator can name are refused on the header.
        ("mode: free\ndegree_bound: 2\nletters: x y,z\n\nz\n",
         "letter 'x y' is not one distinct name"),
        ("mode: free\ndegree_bound: 2\nletters: 1a,z\n\nz\n",
         "letter '1a' is not one distinct name"),
        ("mode: sigma\ndegree_bound: 2\nletters: x(,z\n\nz(0)\n",
         "letter 'x(' is not one distinct name"),
        ("mode: sigma\ndegree_bound: 2\nletters: x,x\n\nx(0)\n",
         "letter 'x' is not one distinct name"),
        ("mode: skew\ndegree_bound: 4\n\nx(0)*s + x(1)\n",
         "error: two-sided mode needs s-homogeneous generators"),
        ("mode: sigma\ndegree_bound: 4\ncriteria: magic\n\nx(0)\n",
         "unknown criteria"),
        ("mode: sigma\ndegree_bound: 4\ntrace: maybe\n\nx(0)\n",
         "must be true or false"),
        # Each of these crashed with a traceback once.
        ("mode: sigma\ndegree_bound: 4\n\n3/0*x(0)\n", "bad generator"),
        ("mode: sigma\ndegree_bound: 4\nfield: 7\n\n1/7*x(0)\n",
         "bad generator"),
        ("mode: sigma\ndegree_bound: 4\n\nx(0)^\u00b2\n", "bad generator"),
        ("mode: sigma\ndegree_bound: 4\n\nx(\u00b2)\n", "bad generator"),
        ("mode: sigma\ndegree_bound: 4\n\n" + "(" * 300 + "x(0)" + ")" * 300
         + "\n", "bad generator"),
    ]
    for i, (text, fragment) in enumerate(cases):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(text, encoding="utf-8")
        p = run_cli(path)
        assert p.returncode == 1, text
        assert fragment in p.stderr, text


def test_internal_error_exits_four_with_a_traceback(tmp_path, monkeypatch,
                                                    capsys):
    # A ValueError from inside the run is a fault of the program, not of the
    # input: it must not pass for a usage error (exit 1).
    def broken(*args, **kwargs):
        raise ValueError("not divisible")

    monkeypatch.setattr(engine, "_complete", broken)
    path = tmp_path / "sigma.txt"
    path.write_text("mode: sigma\ndegree_bound: 3\n\nx(1) - x(0)\n")
    assert cli.main([str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: not divisible")


# Header values a mutation draws from: valid ones, refused ones and odd
# spellings that still parse (a Unicode digit, a plus sign, padding).
MUTATIONS = {
    "mode": ("sigma", "skew", "left", "free", "free2", "Sigma", "", "skeww"),
    "field": ("Q", "QQ", "q", "2", "3", "7", "101", "32003", "2147483647",
              "0", "1", "4", "-7", "F", "1e3", "\u0667"),
    "degree_bound": ("1", "2", "3", "4", " 2 ", "+2", "\u0663", "0", "-1",
                     "x", "2.5", ""),
    "endo": ("shift", "power 2", "power 3", "power 1", "power 0",
             "power x", "twist"),
    "letters": ("x,y", "y,x", "x", "a,b", "x,s", "x,x", "x y"),
    "criteria": ("all", "none", "product", "chain", "bogus"),
    "interreduce": ("true", "false", "maybe"),
    "trace": ("true", "1"),
    "colour": ("red",),
}
# Generator lines swapped in: zero, constants, overflowing exponents and
# places, s in every mode, and lines that do not parse.
ODD_GENERATORS = ("0", "1", "3/4", "x(0) - x(0)", "x(0)^200", "x(200)",
                  "y(1)^130*x(0)", "2/3*x(1)", "1/0", "s", "x(0)*s^2",
                  "x(1)*s - s*x(0)", "x", "x*y", "x(0", "x(-1)", "x(1)^-1")


def mutated_problem(rng):
    """A small random problem file (``randgen``, as the property tests draw
    them) with up to two header keys mutated, added or dropped and maybe one
    generator line swapped, and a random choice of the check flags."""
    mode = rng.choice(engine.MODES)
    ordering_name = rng.choice(sorted(ORDERINGS))
    ordering = ORDERINGS[ordering_name]
    # Lex skew quadrics can run for minutes (ROADMAP, known gap 2).
    fixed = 1 if ordering_name == "lex" else None
    gens = []
    for _ in range(rng.randint(1, 2)):
        if mode == "sigma":
            f = random_weighted_poly(rng, 2, 2, 2, 2, ordering, fixed)
            gens.append(textio.format_poly(f, textio.DEFAULT_NAMES))
        elif mode in ("skew", "left"):
            f = random_skew_homogeneous(rng, 2, 1, 2, 2, 1, ordering, fixed)
            gens.append(textio.format_skew(f, textio.DEFAULT_NAMES))
        else:
            f = random_free_homogeneous(rng, 2, 2, 2)
            gens.append(textio.format_free(f, textio.DEFAULT_NAMES))
    header = {"mode": mode, "degree_bound": str(rng.randint(1, 3)),
              "ordering": ordering_name}
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(sorted(MUTATIONS) + ["drop"])
        if key == "drop":
            header.pop(rng.choice(sorted(header)), None)
        else:
            header[key] = rng.choice(MUTATIONS[key])
    if rng.random() < 0.3:
        gens[rng.randrange(len(gens))] = rng.choice(ODD_GENERATORS)
    flags = [f for f in ("--stats", "--trace", "--certify", "--oracle")
             if rng.random() < 0.4]
    text = "".join(f"{k}: {v}\n" for k, v in header.items())
    return text + "\n" + "\n".join(gens) + "\n", flags


def test_exit_codes_past_parsing(tmp_path, capsys):
    # Solving, refusals and the checks keep the exit-code contract: each
    # run ends in 0, 1, 2 or 3 (3: a check failed, as on the oracle's
    # known window mismatch), never in an internal error (4) or a
    # traceback.
    rng = random.Random(23)
    path = tmp_path / "problem.txt"
    seen = set()
    for _ in range(500):
        text, flags = mutated_problem(rng)
        path.write_text(text, encoding="utf-8")
        code = cli.main([str(path), *flags])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (text, flags, err)
        assert "Traceback" not in out + err, (text, flags)
        seen.add(code)
    assert seen >= {0, 1, 2}


def test_missing_file():
    p = run_cli("/no/such/file.txt")
    assert p.returncode == 1
    assert "error:" in p.stderr


def test_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"mode: sigma\ndegree_bound: 4\n\nx(0) # \xe9\n")
    p = run_cli(path)
    assert p.returncode == 1
    assert p.stderr.startswith("error:")
    assert "Traceback" not in p.stderr


def test_criteria_toggle_preserves_basis(tmp_path):
    path = tmp_path / "none.txt"
    path.write_text(
        "mode: sigma\ndegree_bound: 6\nletters: x\ncriteria: none\n\n"
        "x(2)*x(0) - x(1)\n"
    )
    p = run_cli(path, "--stats")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert "\n".join(lines[:-1]) + "\n" == DIFFERENCE_BASIS
    assert " product=0 " in lines[-1]
    assert " chain=0 " in lines[-1]


def test_help_exits_zero():
    p = run_cli("--help")
    assert p.returncode == 0
    assert "problem file" in p.stdout


# Outputs that depend on how monomials are stored: a lex skew solve that is
# dominated by divisibility scans, a power endomorphism whose images grow as
# e**u, a lex normal form whose exponents pass 127, and a known deglex
# certification failure that must stay exactly as it is (its basis holds
# leading monomials above the weight window).
GAP2 = """\
mode: skew
degree_bound: 3
ordering: lex
letters: x,y

2*y(0)*y(0) - 2*x(1)*x(0)
4*y(1)*y(0) + 2*x(1)*x(1)
"""

POWER2 = """\
mode: skew
degree_bound: 4
letters: x,y
endo: power 2

x(1)^9*y(0) - x(0)^11
(y(1)^2*x(0) - x(1)^3)*s
(x(1)*y(1) - y(0)^2)*s^2
"""

LEX_EXPONENTS = """\
mode: sigma
degree_bound: 1
ordering: lex
letters: x

x(1) - x(0)^70
x(1)^2 - x(0)
"""

DEGLEX_D5 = """\
mode: sigma
degree_bound: 5
ordering: deglex
letters: x

x(2)*x(0) - x(1)
"""


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_text(tmp_path, text, *flags):
    path = tmp_path / "problem.txt"
    path.write_text(text)
    return run_cli(path, *flags)


def test_lex_skew_quadrics_gap_output_is_pinned(tmp_path):
    p = run_text(tmp_path, GAP2, "--stats")
    assert p.returncode == 0
    assert p.stderr == ""
    assert p.stdout.splitlines()[-1] == (
        "# pairs=39849 product=0 chain=36380 zero=3249 added=222")
    assert sha256(p.stdout) == (
        "3093441f7dce100ac7be7a7563e7bd4ec58aaded7f6c6b7c7ec9e2420077c2e1")


def test_power_endomorphism_output_is_pinned(tmp_path):
    # sigma**4 of x(1)^9*y(0) is x(1)^144*y(0)^16: the images outgrow
    # seven-bit exponents.
    p = run_text(tmp_path, POWER2, "--stats", "--trace", "--certify")
    assert p.returncode == 0
    assert p.stderr == ""
    assert p.stdout.splitlines()[-2:] == [
        "# pairs=1265 product=0 chain=951 zero=295 added=22",
        "# certified: all in-window critical pairs reduce to zero",
    ]
    assert sha256(p.stdout) == (
        "fa4d4eba8f9fa83af60a1908726975ce534b8f7acf1c6faa59287a6d8e2146ef")


def test_lex_exponents_past_127_are_pinned(tmp_path):
    p = run_text(tmp_path, LEX_EXPONENTS, "--stats", "--trace", "--certify")
    assert p.returncode == 0
    assert p.stderr == ""
    assert p.stdout.splitlines()[-4:] == [
        "x(0)^140 - x(0)",
        "x(1) - x(0)^70",
        "# pairs=6 product=3 chain=0 zero=2 added=3",
        "# certified: all in-window critical pairs reduce to zero",
    ]
    assert sha256(p.stdout) == (
        "6fdd52eea1b14727873fd5b39d542c980f799c56a6136f908fd5d87380b584aa")


def test_known_deglex_certify_failure_is_pinned(tmp_path):
    p = run_text(tmp_path, DEGLEX_D5, "--certify")
    assert p.returncode == 3
    assert p.stderr == ""
    assert p.stdout == """\
x(2)*x(0) - x(1)
x(4)*x(0) - x(5)
x(4)*x(1) - x(3)*x(0)
x(6)*x(1) - x(1)*x(0)
x(6)*x(5) - x(5)*x(0)
x(3)*x(0)^2 - x(6)
x(3)^2*x(0) - x(3)
# FAILED pair (g1, sigma^0.g6) does not reduce to zero
# FAILED pair (g1, sigma^1.g6) does not reduce to zero
# FAILED pair (g1, sigma^2.g6) does not reduce to zero
# FAILED pair (g2, sigma^1.g6) does not reduce to zero
# FAILED pair (g6, sigma^1.g2) does not reduce to zero
# FAILED pair (g3, sigma^1.g6) does not reduce to zero
# FAILED pair (g6, sigma^1.g6) does not reduce to zero
# FAILED pair (g6, sigma^2.g6) does not reduce to zero
# certification failed
"""
