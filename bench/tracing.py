"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the package, every call one magset module
makes into a function of another magset module (the names a module
imported from its siblings), plus ``search.conflict_graph`` so that graph
building shows as its own span.  The benchmark's own calls into the
library go through wrapped functions too.  Each call becomes a span
``[name, layer, start, end, parent, info]`` kept in memory; a layer's
self time is its spans' durations minus the time their child spans
cover.  Nothing is patched unless :meth:`Tracer.patched` is active, so
the untraced run measures the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

LAYERS = ("numtheory", "residues", "verifier", "search", "constructions",
          "codec", "cli")

NAME, LAYER, START, END, PARENT, INFO = range(6)


def _length(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _pieces(report):
    while report is not None:
        yield from report.pieces
        report = report.base


# Per-function counters, taken from the call's arguments and result.
# Only small values are kept: results such as codewords or reports are
# not held past the call.
_INFO = {
    "is_b1_set": lambda a, k, r: {
        "products": _length(a[0]) * _arg(a, k, 2, "lam", 4),
        "rejected": not r.valid},
    "build_syndrome_table": lambda a, k, r: {
        "products": _length(a[0]) * _arg(a, k, 2, "lam", 4)},
    "exact_max": lambda a, k, r: {
        "q": a[0], "lam": _arg(a, k, 1, "lam", 4),
        "budget": _arg(a, k, 2, "budget"),
        "unit_split": k.get("unit_split", True),
        "nodes": r.nodes_expanded, "exact": r.exact},
    "exact_max_in_subset": lambda a, k, r: {
        "nodes": r.nodes_expanded, "exact": r.exact},
    "conflict_graph": lambda a, k, r: {
        "vertices": len(r.vertices),
        "edges": sum(map(len, r.neighbors.values())) // 2},
    "divisor_class": lambda a, k, r: {"scanned": a[0].q},
    "construct": lambda a, k, r: {
        "q": a[0],
        "pieces": sum(1 for _ in _pieces(r)),
        "certified": sum(p.certified for p in _pieces(r))},
    "encode": lambda a, k, r: {"symbols": len(r)},
}


class Tracer:
    """In-memory span recorder for one traced benchmark pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, fn, layer: str):
        """Return ``fn`` recording one span per call in ``layer``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = f"{layer}.{fn.__name__}"
        info = _INFO.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the benchmark's own code."""
        span = [name, layer, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Wrap every cross-module function name in ``modules`` meanwhile.

        ``modules`` maps a layer name to its imported module.  A name is
        wrapped when it is bound in one magset module to a function that
        another magset module defines; the span's layer is the defining
        module.  ``search.conflict_graph`` is wrapped as well.
        """
        saved = []
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (isinstance(obj, type) or not callable(obj)
                        or not owner.startswith("magset.")
                        or owner == module.__name__):
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj, owner.split(".")[1]))
        graph = modules["search"].conflict_graph
        saved.append((modules["search"], "conflict_graph", graph))
        modules["search"].conflict_graph = self.wrap(graph, "search")
        try:
            yield
        finally:
            for module, attr, obj in reversed(saved):
                setattr(module, attr, obj)


def _sum_info(spans, fn_name: str, key: str):
    return sum(s[INFO][key] for s in spans
               if s[NAME].endswith("." + fn_name) and s[INFO] is not None)


def _durations(spans, fn_name: str) -> float:
    return sum(s[END] - s[START] for s in spans
               if s[NAME].endswith("." + fn_name))


def pass_metrics(spans: list, root: int, excluded_s: float,
                 cache_hits: int, cache_misses: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``root`` is the index of the pass span; ``excluded_s`` is the time the
    benchmark spent checking outputs inside the pass, which is neither
    program time nor part of the traced wall time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[LAYER]] += s[END] - s[START] - child_time[i]
    self_s["bench"] -= excluded_s
    wall = spans[root][END] - spans[root][START] - excluded_s

    calls = defaultdict(int)
    for s in spans:
        calls[s[LAYER]] += 1

    def named(fn_name):
        return [s for s in spans if s[NAME].endswith("." + fn_name)]

    def self_of(fn_name):
        return sum(s[END] - s[START] - child_time[i]
                   for i, s in enumerate(spans)
                   if s[NAME].endswith("." + fn_name))

    # Route times: outermost construct calls, grouped by the 2-adic
    # valuation of q (nested calls belong to the eightfold recursion).
    route = {"k1": 0.0, "k2": 0.0, "k3plus": 0.0}
    for s in named("construct"):
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is not None and parent[NAME].endswith(".construct"):
            continue
        q = s[INFO]["q"] if s[INFO] else 0
        k = (q & -q).bit_length() - 1
        if k == 1:
            route["k1"] += s[END] - s[START]
        elif k == 2:
            route["k2"] += s[END] - s[START]
        elif k >= 3:
            route["k3plus"] += s[END] - s[START]

    searches = named("exact_max") + named("exact_max_in_subset")
    pieces = _sum_info(spans, "construct", "pieces")
    products = (_sum_info(spans, "is_b1_set", "products")
                + _sum_info(spans, "build_syndrome_table", "products"))
    symbols = _sum_info(spans, "encode", "symbols")
    encode_self = self_of("encode")
    lookups = cache_hits + cache_misses
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "bench.self_s": self_s["bench"],
        "trace.wall_s": wall,
        "verifier.calls": calls["verifier"],
        "verifier.products": products,
        "verifier.products_per_s": (products / self_s["verifier"]
                                    if self_s["verifier"] > 0 else 0.0),
        "verifier.rejections": sum(1 for s in named("is_b1_set")
                                   if s[INFO] and s[INFO]["rejected"]),
        "verifier.syndrome_table_s": _durations(spans, "build_syndrome_table"),
        "numtheory.calls": calls["numtheory"],
        "numtheory.cache_hits": cache_hits,
        "numtheory.cache_misses": cache_misses,
        "numtheory.cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "residues.calls": calls["residues"],
        "residues.scanned": _sum_info(spans, "divisor_class", "scanned"),
        "constructions.route_k1_s": route["k1"],
        "constructions.route_k2_s": route["k2"],
        "constructions.route_k3plus_s": route["k3plus"],
        "constructions.pieces": pieces,
        "constructions.certified_ratio": (
            _sum_info(spans, "construct", "certified") / pieces
            if pieces else 0.0),
        "constructions.refine_searches": len(named("exact_max_in_subset")),
        "search.proof_nodes": _sum_info(spans, "exact_max", "nodes"),
        "search.full_s": _durations(spans, "exact_max"),
        "search.graph_s": _durations(spans, "conflict_graph"),
        "search.graph_vertices": _sum_info(spans, "conflict_graph", "vertices"),
        "search.graph_edges": _sum_info(spans, "conflict_graph", "edges"),
        "search.exact_ratio": (sum(1 for s in searches if s[INFO]["exact"])
                               / len(searches) if searches else 0.0),
        "search.in_class_calls": len(named("exact_max_in_subset")),
        "search.in_class_s": _durations(spans, "exact_max_in_subset"),
        "search.in_class_nodes": _sum_info(spans, "exact_max_in_subset", "nodes"),
        "codec.make_code_s": _durations(spans, "make_code"),
        "codec.encode_self_s": encode_self,
        "codec.symbols_per_s": symbols / encode_self if encode_self > 0 else 0.0,
        "codec.decode_self_s": self_of("decode"),
        "codec.simulate_s": _durations(spans, "simulate_channel"),
    })
    return out


def search_calls(spans: list) -> list[dict]:
    """Arguments of every exact_max span, for the proof-only companions."""
    return [s[INFO] for s in spans
            if s[NAME].endswith(".exact_max") and s[INFO] is not None]
