"""Spans around the calls into each entronet layer, recorded from outside.

``Tracer.install`` replaces each traced function in every ``entronet`` module
namespace that binds it (a name copied by ``from .jspace import symbol`` is a
separate binding), and each traced ``__init__`` on its class.  ``uninstall``
puts the originals back, so untraced passes run the program unchanged.

A span is (name, start, end, parent span, operation id, size); spans stay in
memory until ``write`` saves them at the end of a run.  Per-layer metrics are
derived from them: self time is a span's duration minus its child spans'.
A function that no longer exists is skipped, and its metrics are absent.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
from time import perf_counter


def _len_first(args, result):
    return len(args[0])


def _source_width(args, result):
    return len(args[0].source)


def _gap(args, result):
    return args[1]


def _bits(args, result):
    return args[0].bit_length()


def _support(args, result):
    return len(result.items())


def _result_len(args, result):
    return len(result)


def _matrix_shape(args, result):
    mat = args[0]
    return (len(mat), len(mat[0]) if len(mat) else 0)


# module (under entronet) -> layer name -> [(function, size of one call)]
TARGETS = {
    "sampling": ("sampling", [
        ("random_diagram", None), ("random_rule_site", None), ("random_source", None),
        ("random_closed_gdiagram", None), ("random_gmodule", None),
        ("random_normalized_cocycle", None),
    ]),
    "affine": ("affine", [
        ("apply_layer", _len_first), ("winding_product", _gap), ("validate", None),
        ("j_invariant", _source_width), ("dot_contribution", None), ("jstar", None),
        ("chain_rule_check", None),
    ]),
    "rewrite": ("rewrite", [
        ("normalize", _source_width), ("apply", None), ("applicable_sites", None),
    ]),
    "scalars": ("scalars", [("factor_int", _bits), ("prime_table", None)]),
    "jspace": ("jspace", [("symbol", _support), ("beta_to_j", None), ("entropy_render", None)]),
    "dsl": ("dsl", [("parse", _len_first), ("resolve", None), ("print_source", None)]),
    "render": ("render", [("to_svg", _result_len)]),
    "groupnet.cohomology": ("groupnet", [
        ("h_solver", None), ("smith_normal_form", _matrix_shape),
        ("verify_cocycle2", None), ("is_coboundary2", None), ("central_extension", None),
        ("h_exhaustive", None),
    ]),
    "groupnet.diagrams": ("groupnet", [("eval_alpha_c", None)]),
}
CLASS_INITS = {"groupnet.groups": ("groupnet", ["Group", "GModule"])}


class Tracer:
    """Installs and removes the span wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.found: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.cache_info = None
        self.cache_clear = None

    # -- installing ---------------------------------------------------------

    def _wrap(self, name: str, fn, sizer):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                size = sizer(args, result) if sizer is not None and result is not None else None
                spans[idx] = (name, t0, t1, parent, self.op, size)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "entronet" or k.startswith("entronet.")]
        for modname, (layer, fns) in TARGETS.items():
            home = sys.modules.get(f"entronet.{modname}")
            if home is None:
                continue
            for fname, sizer in fns:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                span_name = f"{layer}.{fname}"
                self.found.add(span_name)
                wrapper = self._wrap(span_name, orig, sizer)
                if fname == "factor_int" and hasattr(orig, "cache_info"):
                    self.cache_info, self.cache_clear = orig.cache_info, orig.cache_clear
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for modname, (layer, classes) in CLASS_INITS.items():
            home = sys.modules.get(f"entronet.{modname}")
            for cname in classes:
                cls = getattr(home, cname, None) if home is not None else None
                if cls is None or "__init__" not in vars(cls):
                    continue
                span_name = f"{layer}.{cname}.init"
                self.found.add(span_name)
                orig = vars(cls)["__init__"]
                self._patches.append((cls, "__init__", orig))
                setattr(cls, "__init__", self._wrap(span_name, orig, None))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        out = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: name,start_s,end_s,parent,op,size."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("name,start_s,end_s,parent,op,size\n")
            for name, t0, t1, parent, op, size in self.spans:
                if isinstance(size, tuple):
                    size = "x".join(map(str, size))
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op},{'' if size is None else size}\n")


def _self_s(span):
    return (f"{span}.self_s", "s", "lower")


def _calls(span):
    return (f"{span}.calls", "count", "lower")


WIDTHS = (250, 500, 1000, 2000)  # the wide workload's widths
SYMBOL_BITS = (8, 12, 16, 20, 24)  # the exact-arith workload's bit classes

# Every per-layer metric, as (name, unit, better); BENCHMARK.json lists the same.
PER_LAYER = [
    *(_self_s(f"sampling.{f}") for f in (
        "random_diagram", "random_rule_site", "random_source", "random_closed_gdiagram",
        "random_gmodule", "random_normalized_cocycle")),
    _calls("affine.apply_layer"), _self_s("affine.apply_layer"),
    ("affine.apply_layer.strands", "count", "lower"),
    _calls("affine.winding_product"), _self_s("affine.winding_product"),
    ("affine.winding_product.points_scanned", "count", "lower"),
    *(_self_s(f"affine.{f}") for f in (
        "validate", "j_invariant", "dot_contribution", "jstar", "chain_rule_check")),
    *((f"affine.j_invariant.w{w}_ms", "ms", "lower") for w in WIDTHS),
    _calls("rewrite.normalize"), _self_s("rewrite.normalize"),
    ("rewrite.normalize.w250_ms", "ms", "lower"), ("rewrite.normalize.w2000_ms", "ms", "lower"),
    _calls("rewrite.apply"), _self_s("rewrite.apply"), _self_s("rewrite.applicable_sites"),
    _calls("scalars.factor_int"), _self_s("scalars.factor_int"),
    ("scalars.factor_int.cache_hits", "count", "higher"),
    ("scalars.factor_int.cache_misses", "count", "lower"),
    ("scalars.factor_int.max_bits", "bits", "lower"),
    _self_s("scalars.prime_table"),
    _calls("jspace.symbol"), _self_s("jspace.symbol"), ("jspace.symbol.support", "count", "lower"),
    *((f"jspace.symbol.b{b}_us", "us", "lower") for b in SYMBOL_BITS),
    _self_s("jspace.beta_to_j"), _self_s("jspace.entropy_render"),
    _self_s("dsl.parse"), ("dsl.parse.bytes_per_s", "B/s", "higher"),
    _self_s("dsl.resolve"), _self_s("dsl.print_source"),
    _self_s("render.to_svg"), ("render.to_svg.bytes", "B", "lower"),
    _calls("groupnet.h_solver"), _self_s("groupnet.h_solver"),
    *((f"groupnet.h_solver.order{n}_ms", "ms", "lower") for n in (4, 6, 8)),
    _calls("groupnet.smith_normal_form"), _self_s("groupnet.smith_normal_form"),
    ("groupnet.smith_normal_form.entries", "count", "lower"),
    ("groupnet.smith_normal_form.max_rows", "count", "lower"),
    ("groupnet.smith_normal_form.max_cols", "count", "lower"),
    _calls("groupnet.eval_alpha_c"), _self_s("groupnet.eval_alpha_c"),
    *(_self_s(f"groupnet.{f}") for f in (
        "verify_cocycle2", "is_coboundary2", "central_extension", "h_exhaustive")),
    ("groupnet.GModule.init_s", "s", "lower"), ("groupnet.Group.init_s", "s", "lower"),
    ("import.entronet_s", "s", "lower"), ("import.numpy_s", "s", "lower"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
]


def _median(durations, scale: float) -> float:
    return statistics.median(durations) * scale if durations else 0.0


def per_layer_metrics(tracer: Tracer, ops_meta: dict[int, dict], cache_delta) -> dict[str, float]:
    """Per-layer metrics from the spans: {metric: value} over the names in PER_LAYER.

    ``ops_meta`` maps an operation id to its attributes (``bits``, ``order``);
    widths are those of the diagrams ``j_invariant`` and ``normalize`` receive.
    Metrics of functions that were not found are left out; a layer the
    workload never calls reads 0.  The import and overhead metrics are the
    caller's.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, list] = {}
    by_meta: dict[tuple[str, str, int], list[float]] = {}
    for (name, t0, t1, parent, op, size), st in zip(tracer.spans, tracer.self_times()):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        if size is not None:
            sizes.setdefault(name, []).append(size)
            if name in ("affine.j_invariant", "rewrite.normalize"):
                by_meta.setdefault((name, "width", size), []).append(t1 - t0)
        for key, value in ops_meta.get(op, {}).items():
            if key != "width":
                by_meta.setdefault((name, key, value), []).append(t1 - t0)

    values: dict[str, float] = {}
    for span in tracer.found:
        values[f"{span}.self_s"] = self_s.get(span, 0.0)
        values[f"{span}.calls"] = calls.get(span, 0)
    for span in ("groupnet.Group.init", "groupnet.GModule.init"):
        values[f"{span}_s"] = self_s.get(span, 0.0)
    values["affine.apply_layer.strands"] = sum(sizes.get("affine.apply_layer", []))
    values["affine.winding_product.points_scanned"] = sum(sizes.get("affine.winding_product", []))
    for w in WIDTHS:
        for fn in ("affine.j_invariant", "rewrite.normalize"):
            values[f"{fn}.w{w}_ms"] = _median(by_meta.get((fn, "width", w), []), 1e3)
    values["scalars.factor_int.max_bits"] = max(sizes.get("scalars.factor_int", []), default=0)
    if cache_delta is not None:
        values["scalars.factor_int.cache_hits"], values["scalars.factor_int.cache_misses"] = cache_delta
    values["jspace.symbol.support"] = sum(sizes.get("jspace.symbol", []))
    for b in SYMBOL_BITS:
        values[f"jspace.symbol.b{b}_us"] = _median(by_meta.get(("jspace.symbol", "bits", b), []), 1e6)
    parse_s = self_s.get("dsl.parse", 0.0)
    values["dsl.parse.bytes_per_s"] = sum(sizes.get("dsl.parse", [])) / parse_s if parse_s else 0.0
    values["render.to_svg.bytes"] = sum(sizes.get("render.to_svg", []))
    for n in (4, 6, 8):
        values[f"groupnet.h_solver.order{n}_ms"] = _median(
            by_meta.get(("groupnet.h_solver", "order", n), []), 1e3)
    shapes = sizes.get("groupnet.smith_normal_form", [])
    values["groupnet.smith_normal_form.entries"] = sum(r * c for r, c in shapes)
    values["groupnet.smith_normal_form.max_rows"] = max((r for r, _ in shapes), default=0)
    values["groupnet.smith_normal_form.max_cols"] = max((c for _, c in shapes), default=0)

    out = {}
    for metric, _, _ in PER_LAYER:
        span = metric.rsplit(".", 1)[0] if not metric.endswith("init_s") else metric[:-2]
        if span in tracer.found and metric in values:
            out[metric] = values[metric]
    return out
