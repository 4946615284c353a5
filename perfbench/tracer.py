"""Spans around chromfield's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (layer, start, end, parent, info) in memory.  Module-level
names that other chromfield modules bound at import (``identities`` binds
``z_poly``, ``zero_field_poly`` and ``subgraph_counts``; ``cli`` binds most
of ``partition``) are replaced wherever they appear, so every call path is
seen.  ``layer_metrics`` turns the spans into the per-layer figures.

A layer's busy time is the time its outermost spans cover, children
included; its self time excludes the time its child spans cover.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (layer, module or class path, attribute names)
LAYERS = [
    ("partition.walk", "chromfield.partition", ["subgraph_counts"]),
    ("partition.assembly", "chromfield.partition",
     ["z_poly", "zero_field_poly", "chromatic_poly", "tutte_poly"]),
    ("partition.oracle", "chromfield.partition",
     ["oracle_count_table", "oracle_z", "oracle_ph"]),
    ("identities", "chromfield.identities", ["identity_suite"]),
    ("poly.substitute", "chromfield.poly.MultiPoly", ["substitute"]),
    ("poly.arith", "chromfield.poly.MultiPoly",
     ["__mul__", "__rmul__", "__add__", "__radd__", "__pow__"]),
    ("poly.division", "chromfield.poly.MultiPoly", ["div_linear", "shift_down"]),
    ("poly.division", "chromfield.poly", ["exact_div"]),
    ("poly.evaluate", "chromfield.poly.MultiPoly", ["evaluate"]),
    ("zeros", "chromfield.zeros", ["zeros_in"]),
    ("graphs", "chromfield.graphs.Graph", ["make", "delete_edge", "contract_edge"]),
]


def _walk_info(args, kwargs, out):
    g = args[0]
    return [1 << g.e, len(out), [g.n, [list(e) for e in g.edges]]]


def _oracle_info(args, kwargs, out):
    g, q = args[0], args[1]
    return q ** g.n


_INFO = {"subgraph_counts": _walk_info, "oracle_count_table": _oracle_info}


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise ImportError(path)


class Tracer:
    """Spans as lists [layer, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original value)

    def _wrap(self, layer: str, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; chromfield must be imported."""
        import chromfield.cli  # noqa: F401  (binds the names to replace)
        import chromfield.identities  # noqa: F401
        import chromfield.zeros  # noqa: F401
        mods = [m for name, m in list(sys.modules.items())
                if name == "chromfield" or name.startswith("chromfield.")]
        for layer, path, names in LAYERS:
            owner = _resolve(path)
            for name in names:
                raw = owner.__dict__[name]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(layer, fn, _INFO.get(name))
                self._patch(owner, name, staticmethod(wrapped) if is_static else wrapped)
                if isinstance(owner, type):
                    continue
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every original function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_lists(self) -> list[list[list]]:
        return [self.spans]


def layer_metrics(span_lists: list[list[list]], passes: int) -> dict[str, float]:
    """Per-pass layer figures from span lists (one list per process)."""
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    leaves = keys = colorings = suite_walks = 0
    walked = set()
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, info) in enumerate(spans):
            dur = end - start
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if layer not in ancestors:
                busy[layer] = busy.get(layer, 0.0) + dur
                calls[layer] = calls.get(layer, 0) + 1
            if layer == "partition.walk":
                leaves += info[0]
                keys += info[1]
                walked.add(repr(info[2]))
                suite_walks += "identities" in ancestors
            elif info is not None and layer == "partition.oracle":
                colorings += info
    walks = calls.get("partition.walk", 0)
    walk_s = busy.get("partition.walk", 0.0)
    suites = calls.get("identities", 0)
    oracle_s = busy.get("partition.oracle", 0.0)
    per = 1.0 / passes
    return {
        "partition.walk.calls": walks * per,
        "partition.walk.leaves": leaves * per,
        "partition.walk.keys": keys * per,
        "partition.walk.busy_s": walk_s * per,
        "partition.walk.leaves_per_s": leaves / walk_s if walk_s else 0.0,
        "partition.walk.distinct_ratio": len(walked) / walks if walks else 0.0,
        "partition.assembly.busy_s": self_s.get("partition.assembly", 0.0) * per,
        "identities.walks_per_suite": suite_walks / suites if suites else 0.0,
        "identities.self_s": self_s.get("identities", 0.0) * per,
        "poly.substitute.calls": calls.get("poly.substitute", 0) * per,
        "poly.substitute.busy_s": busy.get("poly.substitute", 0.0) * per,
        "poly.arith.busy_s": busy.get("poly.arith", 0.0) * per,
        "poly.division.busy_s": busy.get("poly.division", 0.0) * per,
        "poly.evaluate.busy_s": busy.get("poly.evaluate", 0.0) * per,
        "partition.oracle.busy_s": oracle_s * per,
        "partition.oracle.colorings_per_s": colorings / oracle_s if oracle_s else 0.0,
        "zeros.calls": calls.get("zeros", 0) * per,
        "zeros.busy_s": busy.get("zeros", 0.0) * per,
        "graphs.busy_s": busy.get("graphs", 0.0) * per,
    }
