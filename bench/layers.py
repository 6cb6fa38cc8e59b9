"""Per-layer measurement for the traced benchmark run.

Two sources, both started from the benchmark's own files; ``src/`` is not
instrumented:

* spans: wrappers installed on public entry points of skewgb's modules
  record ``<layer>.<function>`` spans with a parent id and a run id (one run
  id per processed problem), kept in memory and written out at the end;
* the stdlib profiler (``cProfile``, builtins off, so C-level work such as
  ``math.gcd`` or ``max`` is charged to the Python function that called it)
  gives exact call counts and per-module self time for the hot leaf layers.

Layers are skewgb's module names.  ``fractions.py`` belongs to ``field``
because rational coefficients are plain ``Fraction`` values.
"""

from __future__ import annotations

import cProfile
import functools
import json
import time
from pathlib import Path

# (module attribute holder name, attribute) pairs wrapped with spans.
SPAN_POINTS = {
    "cli": ("parse_problem",),
    "textio": ("parse_poly", "parse_skew", "parse_free",
               "format_poly", "format_skew", "format_free"),
    "engine": ("sigma_gbasis", "skew_gbasis", "left_gbasis", "_complete",
               "interreduce", "certify", "oracle_gbasis_truncated",
               "lm_window_match"),
    "letterplace": ("_free_run", "_free2_run", "certify_free",
                    "free_oracle_match", "iota", "iota_prime", "iota_inv",
                    "iota_prime_inv"),
}
EMBED = {"letterplace.iota", "letterplace.iota_prime", "letterplace.iota_inv",
         "letterplace.iota_prime_inv"}

# engine.py functions grouped by the sub-layer their self time belongs to;
# everything else in engine.py (pair enumeration, criteria, S-polynomials,
# interreduce bookkeeping) is "rest".
ENGINE_PARTS = {
    "find": "find",
    "_nf_terms": "nf",
    "_nf_left": "nf",
    "certify": "certify",
    "_oracle_nf": "oracle",
    "_oracle_buchberger": "oracle",
    "expand_window_sigma": "oracle",
    "expand_window_skew": "oracle",
    "oracle_gbasis_truncated": "oracle",
    "lm_window_match": "oracle",
    "_mutually_divisible": "oracle",
    "_mutually_divisible_leveled": "oracle",
}
FIELD_OPS = {
    "fractions": {"forward", "reverse", "__neg__"},
    "field": {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
              "__rtruediv__", "__neg__"},
}
MONO_OPS = {"mono_mul", "mono_div", "mono_lcm", "mono_divides", "mono_coprime"}
ENDO_IMAGES = {"mono", "poly"}
SKEW_OPS = {"__add__", "__sub__", "__neg__", "scale", "mul_mono", "monic",
            "skew_mul", "shift_left"}
ANONYMOUS = ("<genexpr>", "<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>")


class Tracer:
    """Spans, filter counters and a profiler around one unit of work."""

    def __init__(self, modules: dict, src_dir: Path):
        self.modules = modules
        self.src_dir = str(src_dir)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.filter_calls = 0
        self.filter_passes = 0
        self._next_id = 0
        self._undo: list[tuple] = []
        self.profile = cProfile.Profile(builtins=False)

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, tracer.run_id, name, t0, t1))

        return wrapper

    def _counting_filter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(l, level):
            ok = fn(l, level)
            tracer.filter_calls += 1
            tracer.filter_passes += bool(ok)
            return ok

        return wrapper

    def _patch(self, module, attr, new):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def __enter__(self):
        for mod_name, attrs in SPAN_POINTS.items():
            module = self.modules[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr.lstrip('_')}"
                self._patch(module, attr, self._span(name, getattr(module, attr)))
        lp = self.modules["letterplace"]
        for attr in ("_v_filter", "_r_filter"):
            self._patch(lp, attr, self._counting_filter(getattr(lp, attr)))
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()
        return False

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, run, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")

    # -- aggregation --------------------------------------------------------

    def _layer(self, key, stats, memo) -> str:
        """Layer of a profiler entry; closures and comprehensions inherit
        the layer of the function that called them."""
        if key in memo:
            return memo[key]
        memo[key] = "other"  # guards against cycles while resolving
        filename, _, func = key
        path = Path(filename)
        if filename.startswith(self.src_dir):
            layer = path.stem
            if layer == "engine":
                if func in ANONYMOUS:
                    callers = stats[key][4]
                    parent = max(callers, key=lambda c: callers[c][0],
                                 default=None)
                    layer = (self._layer(parent, stats, memo)
                             if parent and parent[0] == filename
                             else "engine.rest")
                else:
                    layer = "engine." + ENGINE_PARTS.get(func, "rest")
        elif path.name == "fractions.py":
            layer = "field"
        else:
            layer = "other"
        memo[key] = layer
        return layer

    def layer_metrics(self) -> dict:
        self.profile.create_stats()
        stats = self.profile.stats
        memo: dict = {}
        self_s: dict[str, float] = {}
        calls: dict[tuple, int] = {}
        outside_calls: dict[tuple, int] = {}
        for key, (_, nc, tt, _, callers) in stats.items():
            layer = self._layer(key, stats, memo)
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[key] = nc
            top = layer.split(".")[0]
            outside_calls[key] = sum(
                edge[0] for caller, edge in callers.items()
                if self._layer(caller, stats, memo).split(".")[0] != top
            )

        def count(layer, names, table):
            total = 0
            for key, n in table.items():
                if key[2] in names and self._layer(key, stats, memo) == layer:
                    total += n
            return total

        field_ops = 0
        for key, n in outside_calls.items():
            mod = Path(key[0]).stem
            if mod in FIELD_OPS and key[2] in FIELD_OPS[mod] \
                    and memo.get(key) == "field":
                field_ops += n
        certify_pairs = sum(
            edge[0]
            for key, (_, _, _, _, callers) in stats.items()
            if key[2] in ("spoly_poly", "spoly") and memo[key] == "engine.rest"
            for caller, edge in callers.items()
            if memo.get(caller) == "engine.certify"
        )
        return {
            "field.ops": field_ops,
            "field.self_s": self_s.get("field", 0.0),
            "poly.key_calls": count("poly", {"key"}, calls),
            "poly.mono_ops": count("poly", MONO_OPS, calls),
            "poly.self_s": self_s.get("poly", 0.0),
            "endo.image_calls": count("endo", ENDO_IMAGES, outside_calls),
            "endo.self_s": self_s.get("endo", 0.0),
            "skew.ops": count("skew", SKEW_OPS, outside_calls),
            "skew.self_s": self_s.get("skew", 0.0),
            "engine.find_calls": count("engine.find", {"find"}, calls),
            "engine.find_self_s": self_s.get("engine.find", 0.0),
            "engine.nf_self_s": self_s.get("engine.nf", 0.0),
            "engine.rest_self_s": self_s.get("engine.rest", 0.0),
            "engine.certify_pairs": certify_pairs,
            "engine.certify_self_s": self_s.get("engine.certify", 0.0),
            "engine.oracle_pairs": count("engine.oracle", {"_oracle_nf"}, calls),
            "engine.oracle_self_s": self_s.get("engine.oracle", 0.0),
            "letterplace.self_s": self_s.get("letterplace", 0.0),
            "textio.self_s": self_s.get("textio", 0.0),
        }

    def span_metrics(self) -> dict:
        """Span durations, and self time of free_oracle_match's spans."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

        def total(pred):
            """Summed duration of matching spans not nested in another
            matching span."""
            out = 0.0
            for sid, parent, _, name, t0, t1 in self.spans:
                if not pred(name):
                    continue
                p = parent
                while p and not pred(by_id[p][3]):
                    p = by_id[p][1]
                if not p:
                    out += t1 - t0
            return out

        match_self = sum(
            (t1 - t0) - child_time.get(sid, 0.0)
            for sid, _, _, name, t0, t1 in self.spans
            if name == "letterplace.free_oracle_match"
        )
        return {
            "engine.complete_s": total(lambda n: n == "engine.complete"),
            "engine.interreduce_s": total(lambda n: n == "engine.interreduce"),
            "letterplace.filter_calls": self.filter_calls,
            "letterplace.filter_pass_ratio": (
                self.filter_passes / self.filter_calls
                if self.filter_calls else 0.0
            ),
            "letterplace.embed_s": total(lambda n: n in EMBED),
            "letterplace.oracle_match_s": match_self,
            "textio.parse_s": total(lambda n: n.startswith("textio.parse")),
            "textio.format_s": total(lambda n: n.startswith("textio.format")),
        }
