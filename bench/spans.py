"""Span recording around the public functions of every splicelab layer.

``install`` wraps each public function and public method of the layer
modules, and rebinds the wrapper under every name a caller looks up: the
defining module, each module that imported the function (for example
``splicelab.decider.dfa_union`` as well as ``splicelab.automata.dfa_union``)
and the package namespace.  Methods and properties are wrapped on their
class, so ``SplicingSystem.initial_contains`` is seen from every caller.

Spans live in flat arrays in memory (name, start, end, parent, query id,
and an optional size probe of the result) until ``write`` dumps them.
Self time is a span's duration minus the time covered by its children.
A generator function's span covers only the call that creates the
generator; the time spent iterating it counts towards the consumer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

LAYERS = ("core", "closure", "automata", "decider", "grammar", "synthesis", "transform", "fileformat")
NAN = float("nan")


class Recorder:
    """In-memory span store; ``query`` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query_of = array("i")
        self.value = array("d")
        self.stack = [-1]
        self.query = -1

    def __len__(self) -> int:
        return len(self.start)


def _probe(layer: str):
    """A function giving the size of a layer's result (NaN when the
    result has no size the metrics use)."""
    from splicelab.automata import Dfa
    from splicelab.core import SplicingSystem
    from splicelab.grammar import Cfg

    def size(result):
        if isinstance(result, Dfa):  # not n_states: that property is wrapped too
            return len(result.transitions)
        if isinstance(result, Cfg):
            return len(result.productions)
        if isinstance(result, SplicingSystem):
            return len(result.rules)
        if layer == "closure" and isinstance(result, list):
            return len(result)
        return NAN

    return size


def _wrap(fn, nid: int, rec: Recorder, size):
    def traced(*args, **kwargs):
        idx = len(rec.start)
        rec.name_of.append(nid)
        rec.parent.append(rec.stack[-1])
        rec.query_of.append(rec.query)
        rec.value.append(NAN)
        rec.end.append(0.0)
        rec.stack.append(idx)
        rec.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end[idx] = perf_counter()
            rec.stack.pop()
        rec.value[idx] = size(result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _public_callables(module):
    """(span name, owner, attribute, original) for the module's public
    functions and the public methods/properties of its public classes."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod)):
                    yield f"{layer}.{attr}", obj, attr, member


def install(rec: Recorder):
    """Wrap every layer's public callables; returns a function that puts
    the originals back."""
    modules = [importlib.import_module(f"splicelab.{layer}") for layer in LAYERS]
    namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "splicelab"]
    undo = []
    wrapped_functions = {}
    for module in modules:
        size = _probe(module.__name__.rsplit(".", 1)[1])
        for span_name, owner, attr, original in _public_callables(module):
            nid = len(rec.names)
            rec.names.append(span_name)
            if isinstance(original, property):
                new = property(_wrap(original.fget, nid, rec, size), original.fset, original.fdel,
                               original.__doc__)
            elif isinstance(original, (classmethod, staticmethod)):
                new = type(original)(_wrap(original.__func__, nid, rec, size))
            else:
                new = _wrap(original, nid, rec, size)
            if owner is module:
                wrapped_functions[id(original)] = (original, new)
            else:
                undo.append((owner, attr, original))
                setattr(owner, attr, new)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrapped_functions.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((ns, attr, obj))
                setattr(ns, attr, hit[1])

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(rec: Recorder) -> list[float]:
    n = len(rec)
    covered = [0.0] * n
    start, end, parent = rec.start, rec.end, rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def per_name(rec: Recorder, keep=None) -> dict[str, dict[str, float]]:
    """calls, self_s, value sum and value max per span name, over the spans
    whose index passes ``keep``."""
    own = self_times(rec)
    out: dict[str, dict[str, float]] = {}
    for i in range(len(rec)):
        if keep is not None and not keep(i):
            continue
        row = out.setdefault(rec.names[rec.name_of[i]], {"calls": 0, "self_s": 0.0, "sum": 0, "max": 0})
        row["calls"] += 1
        row["self_s"] += own[i]
        v = rec.value[i]
        if not math.isnan(v):
            row["sum"] += int(v)
            row["max"] = max(row["max"], int(v))
    return out


def write(rec: Recorder, path) -> None:
    """All spans as gzip'd tab-separated lines: name, start, end, parent
    index, query id (-1 for set-up), result size."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("name\tstart\tend\tparent\tquery\tsize\n")
        base = rec.start[0] if len(rec) else 0.0
        for i in range(len(rec)):
            v = rec.value[i]
            out.write(
                f"{rec.names[rec.name_of[i]]}\t{rec.start[i] - base:.7f}\t{rec.end[i] - base:.7f}\t"
                f"{rec.parent[i]}\t{rec.query_of[i]}\t{'' if math.isnan(v) else int(v)}\n"
            )
