"""In-memory spans around calls into adesystole, and the self times they give.

A span is (name, start, end, parent).  `instrument` replaces every public
function and every public method of a public class of the given modules by
a wrapper that opens a span named `<layer>.<name>`, in every module
namespace that refers to it, so calls made inside the library are seen as
well as the benchmark's own.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over the
spans whose name starts with the layer.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans in flat arrays; the innermost open span is the parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }


def _traceable(obj, module_name: str) -> bool:
    return (inspect.isfunction(obj) or hasattr(obj, "cache_clear")) and (
        getattr(obj, "__module__", None) == module_name
    )


@contextmanager
def instrument(tracer: Tracer, modules, namespaces):
    """Wrap the public callables of `modules` while the block runs.

    Functions are rebound in every namespace of `namespaces` that holds
    them; methods are replaced on their class.  Everything is restored on
    exit.
    """
    saved = []
    wrappers = {}
    try:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj, mod.__name__):
                    wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            saved.append((obj, meth_name, meth))
                            setattr(obj, meth_name, tracer.wrap(f"{layer}.{attr}.{meth_name}", meth))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    saved.append((ns, attr, obj))
                    setattr(ns, attr, entry[1])
        yield
    finally:
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)


class SpanTable:
    """Durations and self times of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = data["name_id"]
        self.parent = data["parent"]
        self.duration = data["end"] - data["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        self.self_time = self.duration - child

    def _mask(self, name: str) -> np.ndarray:
        try:
            return self.name_id == self.names.index(name)
        except ValueError:
            return np.zeros(len(self.name_id), dtype=bool)

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        mask = self._mask(name)
        if parent is not None:
            parents = self.parent[mask]
            ok = parents >= 0
            wanted = np.zeros(len(parents), dtype=bool)
            wanted[ok] = self._mask(parent)[parents[ok]]
            return self.duration[mask][wanted]
        return self.duration[mask]

    def total(self, name: str, parent: str | None = None) -> float:
        return float(self.durations(name, parent).sum())

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        ids = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())
