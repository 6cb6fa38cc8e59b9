"""The public surface: every exported name must exist."""

import importlib
import pkgutil

import skewgb

MODULES = sorted(m.name for m in pkgutil.iter_modules(skewgb.__path__))


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
