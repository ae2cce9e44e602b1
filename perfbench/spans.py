"""Outside-in spans around qdlattice's layers, for the benchmark's traced run.

A layer is one module of the package. `Recorder.install` wraps every public
module-level function of each layer, plus a few class methods, from outside:
the package itself is not edited. A function imported by name into another
module is a second binding of the same object, so every qdlattice module's
globals (and module-level dicts such as the experiment table) are scanned
and each binding is replaced; a binding left unwrapped would silently drop
spans.

The `groups` layer is not wrapped: its calls number about 1e5 per cell, too
fine for spans taken from outside, so its time shows in its callers' self
time. `Lattice` methods are left out for the same reason.

Spans stay in memory and are written once, at the end of the cell. The span
stack is process-wide: wrapped code runs on one thread at a time, since the
benchmark leaves `QDL_THREADS` unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = (
    "lattice",
    "states",
    "operators",
    "groundstate",
    "deform",
    "duality",
    "sectors",
    "experiments",
    "reports",
)
METHODS = {
    "states": {"SparseState": ("from_terms",)},
    "operators": {"AffineMap": ("eval", "compose"), "OpSum": ("apply",)},
}
# Spans that also record the rise of the child's peak RSS.
RSS_SPANS = frozenset({"groundstate.flat_connections", "duality.cone_subspace"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _from_terms(args, kwargs, out):
    amps = _arg(args, kwargs, 1, "amps")
    return {"rows_in": int(getattr(amps, "size", None) or len(amps)), "rows_out": out.n_terms}


def _eval(args, kwargs, out):
    return {"rows": int(out[0].shape[0]), "alive": int(out[0].sum())}


# Counters read from a wrapped call's arguments and result.
COUNTERS = {
    "states.from_terms": _from_terms,
    "operators.eval": _eval,
    "operators.support_matrix": lambda a, kw, out: {"rows": int(out.shape[0])},
    "groundstate.flat_connections": lambda a, kw, out: {"rows": int(out.shape[0])},
    "duality.cone_subspace": lambda a, kw, out: {"dim": int(out.dim)},
}
# Generators: (argument position, name) of the requested item count.
REQUESTED = {"deform.sample_ribbon_pairs": (3, "count")}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Span store of one cell: name, layer, start, end, parent index, error
    flag, whether the span opens a call, and the call's counters."""

    def __init__(self, cell: str):
        self.cell = cell
        self.spans: list = []
        self.stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, layer, t0, error, call, counters):
        self.stack.pop()
        self.spans[idx] = (name, layer, t0, time.perf_counter(), parent, error, call, counters)

    def wrap(self, name: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)
        counters_of = COUNTERS.get(name)
        track_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            rss0 = _maxrss_mb() if track_rss else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, parent, name, layer, t0, True, True, None)
                raise
            counters = counters_of(args, kwargs, out) if counters_of else None
            if track_rss:
                counters = dict(counters or (), rss_growth_mb=_maxrss_mb() - rss0)
            self._close(idx, parent, name, layer, t0, False, True, counters)
            return out

        return wrapper

    def _wrap_generator(self, name: str, layer: str, fn):
        """Each resumption is a span; the first one counts as the call."""
        requested = REQUESTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                idx, parent = self._open()
                counters = {"produced": 0}
                if first and requested:
                    counters["requested"] = int(_arg(args, kwargs, *requested))
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx, parent, name, layer, t0, False, first, counters)
                    return
                except BaseException:
                    self._close(idx, parent, name, layer, t0, True, first, counters)
                    raise
                counters["produced"] = 1
                self._close(idx, parent, name, layer, t0, False, first, counters)
                first = False
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods, and
        rebind each name that refers to an original anywhere in the package."""
        modules = [importlib.import_module(f"qdlattice.{layer}") for layer in LAYERS]
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper); keeps originals alive
        seen: set[str] = set()
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self.wrap(name, layer, fn))
                    seen.add(name)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{meth}"
                    if name in seen:
                        raise RuntimeError(f"span name {name} is used twice")
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self.wrap(name, layer, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, layer, raw))
                    seen.add(name)
        package = [m for n, m in sys.modules.items() if n == "qdlattice" or n.startswith("qdlattice.")]
        tables = [t for mod in package for t in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]]
        for table in tables:
            for key, value in table.items():
                entry = wrapped.get(id(value))
                if entry is not None:
                    table[key] = entry[1]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, t0, t1, parent, error, call, counters in self.spans:
                record = {
                    "cell": self.cell,
                    "name": name,
                    "layer": layer,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "error": error,
                    "call": call,
                }
                if counters:
                    record["counters"] = counters
                fh.write(json.dumps(record) + "\n")


def summarize(span_files) -> dict:
    """Per-function and per-layer totals over the spans of one pass:
    `calls`, inclusive `incl_s`, `self_s` (inclusive time minus the time of
    direct child spans), `errors`, and the counters, summed except for
    `rss_growth_mb`, which keeps its largest value."""
    totals: dict[str, dict] = {}
    for path in span_files:
        with open(path) as fh:
            spans = [json.loads(line) for line in fh]
        child_s = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] >= 0:
                child_s[sp["parent"]] += sp["end"] - sp["start"]
        for sp, covered in zip(spans, child_s):
            dur = sp["end"] - sp["start"]
            for key in (sp["name"], sp["layer"]):
                t = totals.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0})
                t["calls"] += sp["call"]
                t["self_s"] += dur - covered
                t["errors"] += sp["error"]
                if key == sp["name"]:
                    t["incl_s"] += dur
                    for c, v in sp.get("counters", {}).items():
                        if c == "rss_growth_mb":
                            t[c] = max(t.get(c, 0.0), v)
                        else:
                            t[c] = t.get(c, 0) + v
    return totals
