"""Per-layer tracing from outside the library.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span, and rebinds every name a caller resolves to that
function: module globals, names taken by `from ... import` in other modules,
and values of module-level dicts (such as `cli._COMPONENT_KINDS`).  Spans
nest, so a span's self time excludes the time of the spans it encloses.
Spans are aggregated as they close, per name, into (calls, self seconds);
keeping millions of single spans would distort the memory the run measures.
`uninstall` restores every binding it changed.

`SignedGraph` construction (through `__post_init__`), its `adjacency`
property and its subgraph methods are traced as `core.SignedGraph...` spans,
so their calls count graph rebuilds.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable

LAYERS = (
    "core",
    "balance",
    "sign_connectivity",
    "matroid",
    "structure",
    "_cycles",
    "oracle",
    "sweep",
    "io",
    "cli",
)

_GRAPH_METHODS = ("__post_init__", "subgraph_of_edges", "delete_edges", "delete_vertex")


PACKAGE = "signedconn"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self s]
        self.counters: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable, on_exit=None) -> Callable:
        """`fn` wrapped so that each call records a span called `name`.

        `on_exit(args, kwargs, result, exc)` may update counters.
        """
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                took = clock() - start
                stack.pop()
                entry = stats[name]
                entry[0] += 1
                entry[1] += took - children[0]
                if stack:
                    stack[-1][0] += took
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if isinstance(mod, ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                on_exit = self._count_cycles if attr == "elementary_cycles" else None
                wrapped[id(obj)] = self.span(f"{layer}.{attr}", obj, on_exit)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._rebind(mod.__dict__, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._rebind(obj, key, wrapped[id(value)])
        self._trace_graph_class(modules[f"{PACKAGE}.core"].SignedGraph)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, namespace: dict, key, value) -> None:
        old = namespace[key]
        namespace[key] = value
        self._undo.append(functools.partial(namespace.__setitem__, key, old))

    def _set_class_attr(self, cls: type, attr: str, value) -> None:
        old = cls.__dict__[attr]
        setattr(cls, attr, value)
        self._undo.append(functools.partial(setattr, cls, attr, old))

    def _trace_graph_class(self, cls: type) -> None:
        for attr in _GRAPH_METHODS:
            if attr in cls.__dict__:
                name = "core.SignedGraph" if attr == "__post_init__" else f"core.SignedGraph.{attr}"
                self._set_class_attr(cls, attr, self.span(name, cls.__dict__[attr]))
        prop = cls.__dict__.get("adjacency")
        if isinstance(prop, functools.cached_property):
            traced = functools.cached_property(self.span("core.SignedGraph.adjacency", prop.func))
            traced.__set_name__(cls, "adjacency")
            self._set_class_attr(cls, "adjacency", traced)

    def _count_cycles(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.counters["_cycles.cycles_enumerated"] += len(result)
        elif type(exc).__name__ == "CycleBudgetExceeded":
            # the enumeration stopped one cycle past its budget
            fn = sys.modules[f"{PACKAGE}._cycles"].elementary_cycles
            bound = inspect.signature(inspect.unwrap(fn)).bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters["_cycles.cycles_enumerated"] += bound.arguments["max_cycles"] + 1
            self.counters["_cycles.budget_exceeded"] += 1

    # -- results ----------------------------------------------------------------

    def self_seconds(self, prefix: str) -> float:
        """Total self time of the spans whose name starts with `prefix`."""
        return sum(s for name, (_, s) in self.stats.items() if name.startswith(prefix))
