"""Layer spans for the traced run.

``Tracer.install()`` replaces public functions at the package's layer
boundaries with wrappers that record a span per call: layer, function,
parent span, start and end.  Patching touches module and class
attributes (and every alias another ``cypair`` module imported), so it
only ever happens inside the traced worker process, and ``uninstall()``
puts the originals back.  Spans are kept in flat arrays, which holds a
pass of several hundred thousand calls in a few tens of megabytes, and
written out once at the end.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans.  Every wrapped call is a
span, so a wrapped function calling another one of the same layer (such
as ``is_calabi_yau`` calling ``validate_cy``) counts as two calls.
"""

from __future__ import annotations

import sys
import time
from array import array

from cypair import boundary_graph as bg
from cypair import cli
from cypair import fiber_criteria as fc
from cypair import fixtures
from cypair import gdp_atlas as atlas
from cypair import lattice_fan as lf
from cypair import rationals

OP = "bench.op"  # the benchmark's own span around each operation

_BG_LAYERS = {
    "boundary_graph.build": ["BoundaryGraph.build"],
    "boundary_graph.surgery": ["blowup_corner", "blowup_interior", "blowdown"],
    "boundary_graph.invariant": [
        "validate_cy", "is_calabi_yau", "coregularity", "contract_minus2_chains",
        "weighted_isomorphic", "complexity", "index_integral",
    ],
    "boundary_graph.lookup": [
        "BoundaryGraph.vertex", "BoundaryGraph.has_vertex", "BoundaryGraph.edge_between",
        "BoundaryGraph.edges_at", "BoundaryGraph.intersection",
    ],
}


def _public_functions(module) -> list[str]:
    return sorted(
        name for name, obj in vars(module).items()
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    )


def layer_table() -> dict[str, list[tuple[object, str]]]:
    """Layer name -> (owner, attribute path) of every wrapped function."""
    table = {name: [(bg, f) for f in fs] for name, fs in _BG_LAYERS.items()}
    table["fiber_criteria.search"] = [(fc, "prop51_witness_search")]
    table["cli"] = [(cli, "run")]
    for name, mod in (("rationals", rationals), ("fixtures", fixtures),
                      ("gdp_atlas", atlas), ("lattice_fan", lf)):
        table[name] = [(mod, f) for f in _public_functions(mod)]
    return table


class Tracer:
    def __init__(self):
        self.layers = [OP, *layer_table()]
        self.funcs: list[str] = []
        self.layer = array("b")
        self.func = array("h")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.cli_exits = {0: 0, 1: 0, 2: 0, 3: 0}
        self.searches = 0
        self.found = 0
        self._patches = []
        self._op = self.span(OP, OP, lambda fn: fn())

    # -- recording ---------------------------------------------------------

    def span(self, layer: str, func: str, fn, on_result=None):
        layer_id = self.layers.index(layer)
        func_id = len(self.funcs)
        self.funcs.append(func)
        la, fa, pa, sa, ea, stack = self.layer, self.func, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(sa)
            la.append(layer_id)
            fa.append(func_id)
            pa.append(stack[-1])
            ea.append(0)
            stack.append(idx)
            sa.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ea[idx] = clock()
                stack.pop()
                if on_result is not None:
                    on_result(None, True)
                raise
            ea[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result, False)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_cli(self, rc, raised):
        self.cli_exits[1 if raised else rc] = self.cli_exits.get(1 if raised else rc, 0) + 1

    def _on_search(self, w, raised):
        if not raised:
            self.searches += 1
            self.found += w is not None

    # -- patching ----------------------------------------------------------

    def install(self):
        hooks = {"prop51_witness_search": self._on_search, "run": self._on_cli}
        replaced = {}
        for layer, entries in layer_table().items():
            for owner, path in entries:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.span(layer, path, raw.__func__))
                    else:
                        new = self.span(layer, path, raw)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, new)
                else:
                    raw = getattr(owner, path)
                    new = self.span(layer, f"{owner.__name__.split('.')[-1]}.{path}", raw, hooks.get(path))
                    replaced[id(raw)] = (raw, new)
        # rebind the function in its own module and under every alias that
        # another cypair module imported with ``from ... import``
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("cypair"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)][1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def op(self, fn):
        """Run one benchmark operation inside an ``OP`` root span."""
        return self._op(fn)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        """Per-layer (calls, self nanoseconds), indexed like ``self.layers``."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_ns[lid] += end[i] - start[i] - child[i]
        return calls, self_ns

    def calls_under(self, func: str, ancestor: str) -> int:
        """Calls of ``func`` made, at any depth, inside a span of layer ``ancestor``."""
        target = self.funcs.index(func)
        anc = self.layers.index(ancestor)
        inside = array("b", bytes(len(self.start)))
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and (inside[p] or self.layer[p] == anc):
                inside[i] = 1
                if self.func[i] == target:
                    count += 1
        return count

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, layer, function, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tfunction\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.layers[self.layer[i]]}\t"
                    f"{self.funcs[self.func[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
