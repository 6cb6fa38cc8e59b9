"""The public surface: every exported name must exist, and so must every
name the benchmark in ``bench/`` reaches into (read here, never edited)."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import skewgb
from skewgb import cli, engine, letterplace, textio

MODULES = sorted(m.name for m in pkgutil.iter_modules(skewgb.__path__))
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_listed_export_exists():
    with_all = 0
    for name in MODULES:
        module = importlib.import_module(f"skewgb.{name}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        with_all += 1
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"skewgb.{name}.__all__ lists {missing}"
    assert with_all >= 7


def load_bench_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", BENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_benchmark_wraps_exists():
    layers = load_bench_layers()
    modules = {"cli": cli, "engine": engine, "letterplace": letterplace,
               "textio": textio}
    missing = [f"{mod}.{attr}" for mod, attrs in layers.SPAN_POINTS.items()
               for attr in attrs if not hasattr(modules[mod], attr)]
    assert not missing, f"bench/layers.py wraps missing {missing}"
    # Entering the tracer installs every wrapper, the pair-filter counters
    # included, and fails on a missing name; leaving puts the originals back.
    originals = {name: getattr(letterplace, name)
                 for name in ("_v_filter", "_r_filter", "_free_run")}
    tracer = layers.Tracer(modules, Path(skewgb.__file__).parent.parent)
    try:
        tracer.__enter__()
    finally:
        tracer.__exit__(None, None, None)
    for name, fn in originals.items():
        assert getattr(letterplace, name) is fn
    # certify's S-polynomials are counted by the name of the function.
    assert engine._Entry.spoly.__name__ == "spoly"


def attributes_read_off(path: Path, holder: str) -> set:
    """Names a file reads as ``holder.name`` or ``<expr>.holder.name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            v = node.value
            if (isinstance(v, ast.Name) and v.id == holder) or (
                isinstance(v, ast.Attribute) and v.attr == holder
            ):
                names.add(node.attr)
    return names


def test_every_call_the_benchmark_makes_exists():
    for path in (BENCH / "run.py", BENCH / "setup_probe.py"):
        for holder, module in (("cli", cli), ("letterplace", letterplace)):
            names = attributes_read_off(path, holder)
            missing = sorted(n for n in names if not hasattr(module, n))
            assert not missing, f"{path.name} calls {holder}.{missing}"
    assert "_run_problem" in attributes_read_off(BENCH / "run.py", "cli")
    # The cross-check solves with the other free backend through replace().
    for cls in (cli.ProblemFile, engine.GBConfig):
        assert "mode" in {f.name for f in dataclasses.fields(cls)}
    assert callable(engine.PairStats().as_text)
