"""Batch front end: read a problem file, print the basis deterministically.

A problem file is a plain-text ``key: value`` header, a blank line, then
one generator per line.  ``#`` starts a comment.  Recognized header keys:

    mode          free | free2 | sigma | skew | left      (required)
    degree_bound  truncation bound, >= 1                  (required)
    field         Q (default) or a prime p for Z/p
    letters       comma-separated variable names (default x,y,z,w)
    ordering      lex (default) | deglex
    endo          shift (default) | power <e>
    criteria      all (default) | none | product | chain | product,chain
    interreduce   true (default) | false
    trace         false (default) | true

Exit codes: 0 success, 1 usage, parse or input error (``UsageError``,
``engine.InputRejected``), 2 mathematical refusal (for example an
endomorphism the engine cannot certify), 3 certification or oracle failure,
4 an internal error, printed with its traceback.  A unit ideal exits 0
with the basis ``1`` and one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, field as dc_field

from . import engine, letterplace, textio
from .endo import PowerEndo, ShiftEndo
from .field import GF, QQ
from .poly import ORDERINGS
from .textio import ParseError


class UsageError(ValueError):
    """Problem-file or configuration error; maps to exit code 1."""


@dataclass
class ProblemFile:
    mode: str
    degree_bound: int
    field: object = QQ
    names: tuple = textio.DEFAULT_NAMES
    ordering_name: str = "lex"
    sigma: object = dc_field(default_factory=ShiftEndo)
    product_criterion: bool = True
    chain_criterion: bool = True
    interreduce: bool = True
    trace: bool = False
    generators: list = dc_field(default_factory=list)


_BOOLS = {"true": True, "yes": True, "on": True,
          "false": False, "no": False, "off": False}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOLS[value.strip().lower()]
    except KeyError:
        raise UsageError(f"{key} must be true or false, not {value!r}") from None


def _parse_field(value: str):
    v = value.strip()
    if v.upper() in ("Q", "QQ"):
        return QQ
    try:
        p = int(v)
    except ValueError:
        raise UsageError(f"unknown field {value!r}") from None
    try:
        return GF(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_endo(value: str):
    words = value.split()
    if words == ["shift"]:
        return ShiftEndo()
    if len(words) == 2 and words[0] == "power":
        try:
            return PowerEndo(int(words[1]))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(f"unknown endomorphism {value!r}")


def _parse_criteria(value: str):
    v = value.strip().lower()
    if v == "all":
        return True, True
    if v == "none":
        return False, False
    chosen = {w.strip() for w in v.split(",")}
    bad = chosen - {"product", "chain"}
    if bad or not chosen:
        raise UsageError(f"unknown criteria {value!r}")
    return "product" in chosen, "chain" in chosen


def parse_problem(text: str) -> ProblemFile:
    lines = text.splitlines()
    header: dict[str, str] = {}
    body_start = len(lines)
    for i, raw in enumerate(lines):
        if raw.strip().startswith("#"):
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            body_start = i + 1
            break
        if ":" not in line:
            raise UsageError(f"line {i + 1}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in header:
            raise UsageError(f"line {i + 1}: duplicate key {key!r}")
        header[key] = value.strip()

    known = {
        "mode", "field", "letters", "ordering", "endo",
        "degree_bound", "criteria", "interreduce", "trace",
    }
    for key in header:
        if key not in known:
            raise UsageError(f"unknown header key {key!r}")

    mode = header.get("mode")
    if mode not in engine.MODES:
        raise UsageError(f"mode must be one of {'/'.join(engine.MODES)}, "
                         f"got {mode!r}")
    if "degree_bound" not in header:
        raise UsageError("degree_bound is required")
    try:
        bound = int(header["degree_bound"])
    except ValueError:
        raise UsageError("degree_bound must be an integer") from None
    if bound < 1:
        raise UsageError("degree_bound must be >= 1")

    pf = ProblemFile(mode=mode, degree_bound=bound)
    if "field" in header:
        pf.field = _parse_field(header["field"])
    if "letters" in header:
        names = tuple(w.strip() for w in header["letters"].split(","))
        for name in names:  # each must read as one name in a generator
            if not textio.is_name(name) or names.count(name) > 1:
                raise UsageError(f"letter {name!r} is not one distinct name")
        if mode not in ("free", "free2") and "s" in names:
            raise UsageError("'s' is reserved for the skew variable")
        pf.names = names
    if "ordering" in header:
        o = header["ordering"].strip().lower()
        if o not in ORDERINGS:
            raise UsageError(f"unknown ordering {o!r}")
        pf.ordering_name = o
    if "endo" in header:
        pf.sigma = _parse_endo(header["endo"])
    if "criteria" in header:
        pf.product_criterion, pf.chain_criterion = _parse_criteria(
            header["criteria"]
        )
    if "interreduce" in header:
        pf.interreduce = _parse_bool(header["interreduce"], "interreduce")
    if "trace" in header:
        pf.trace = _parse_bool(header["trace"], "trace")

    for i in range(body_start, len(lines)):
        line = lines[i].split("#", 1)[0].strip()
        if line:
            pf.generators.append(line)
    return pf


def _config(pf: ProblemFile, trace: bool) -> engine.GBConfig:
    return engine.GBConfig(
        mode=pf.mode,
        degree_bound=pf.degree_bound,
        ordering=ORDERINGS[pf.ordering_name],
        sigma=pf.sigma,
        product_criterion=pf.product_criterion,
        chain_criterion=pf.chain_criterion,
        interreduce=pf.interreduce,
        trace=pf.trace or trace,
    )


def _parse_generators(pf: ProblemFile, cfg: engine.GBConfig):
    out = []
    for line in pf.generators:
        try:
            if pf.mode in ("free", "free2"):
                out.append(textio.parse_free(line, pf.field, pf.names))
            elif pf.mode == "sigma":
                out.append(
                    textio.parse_poly(line, pf.field, pf.names, cfg.ordering)
                )
            else:
                out.append(
                    textio.parse_skew(
                        line, pf.field, pf.names, cfg.ordering, pf.sigma
                    )
                )
        except ParseError as exc:
            raise UsageError(f"bad generator {line!r}: {exc}") from None
    return out


def _run_problem(pf: ProblemFile, cfg: engine.GBConfig, gens):
    """Returns (formatted basis lines, stats, trace, artifacts for checks)."""
    solve, fmt = {
        "sigma": (engine.sigma_gbasis, textio.format_poly),
        "skew": (engine.skew_gbasis, textio.format_skew),
        "left": (engine.left_gbasis, textio.format_skew),
        "free": (letterplace._free_run, textio.format_free),
        "free2": (letterplace._free2_run, textio.format_free),
    }[pf.mode]
    res = solve(gens, cfg)
    return [fmt(f, pf.names) for f in res.basis], res.stats, res.trace, res.basis


def _certify(pf: ProblemFile, cfg: engine.GBConfig, basis):
    if pf.mode in ("free", "free2"):
        return letterplace.certify_free(basis, cfg)
    return engine.certify(basis, cfg)


def _oracle_check(pf: ProblemFile, cfg: engine.GBConfig, gens, basis) -> bool:
    if pf.mode in ("free", "free2"):
        return letterplace.free_oracle_match(basis, gens, cfg)
    oracle = engine.oracle_gbasis_truncated(gens, cfg)
    main = engine.GBResult(
        basis, cfg.mode, cfg.degree_bound, engine.PairStats(), None
    )
    return engine.lm_window_match(main, oracle, cfg)


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewgb",
        description="Truncated Gröbner bases for difference ideals, the "
        "skew ring K[x][s], and free algebras via letterplace.",
        epilog="exit codes: 0 success, 1 usage, parse or input error, "
        "2 mathematical refusal, 3 a requested check failed, "
        "4 internal error (printed with its traceback)",
    )
    ap.add_argument("path", help="problem file")
    ap.add_argument("--certify", action="store_true",
                    help="re-check every in-window critical pair afterwards")
    ap.add_argument("--oracle", action="store_true",
                    help="compare leading-monomial ideals with a bare "
                    "Buchberger run on the expanded window")
    ap.add_argument("--trace", action="store_true",
                    help="print one line per critical pair")
    ap.add_argument("--stats", action="store_true",
                    help="print pair statistics")
    return ap


def main(argv=None) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        pf = parse_problem(text)
        cfg = _config(pf, args.trace)
        if args.oracle and pf.mode == "left":
            raise UsageError("--oracle is not available in left mode")
        gens = _parse_generators(pf, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return _run(args, pf, cfg, gens)
    except engine.EndomorphismRejected as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (UsageError, engine.InputRejected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a fault of the program, not of the input
        sys.excepthook(*sys.exc_info())  # the traceback
        return 4


def _run(args, pf: ProblemFile, cfg: engine.GBConfig, gens) -> int:
    """Solve, print and check a parsed problem; returns the exit status."""
    # The engine's warnings (a unit ideal) are reported as one plain line,
    # not through the warnings module, whose text names the source file.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        lines, stats, trace, basis = _run_problem(pf, cfg, gens)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    if trace:
        for line in trace:
            print(f"# {line}")
    for line in lines:
        print(line)
    if args.stats:
        print(f"# {stats.as_text()}")

    status = 0
    if args.certify:
        ok, failures = _certify(pf, cfg, basis)
        if ok:
            print("# certified: all in-window critical pairs reduce to zero")
        else:
            for f in failures:
                print(f"# FAILED {f}")
            print("# certification failed")
            status = 3
    if args.oracle:
        if _oracle_check(pf, cfg, gens, basis):
            print("oracle lm-ideals match")
        else:
            print("oracle lm-ideals differ")
            status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
