"""In-memory call tracing of the fundiv layers, installed from outside.

Every public module-level function of a layer module is wrapped, and the
wrapper is installed at every ``fundiv`` module binding of that function, so
calls between layers (``injections.psi`` -> ``params.validate``) are seen as
well as calls from the benchmark.  Each call records a span: name id, start
and end in ``perf_counter_ns``, parent span and run id (the benchmark
operation it belongs to).  Spans live in flat arrays until the run ends and
are written out then.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so the children
never overlap.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

#: Layers in the order they are reported; ``errors`` does no work.
LAYERS = ("params", "closed_form", "injections", "verify", "simulate", "cli")

#: Name of the root span the benchmark opens around each of its operations.
OP_PREFIX = "bench."


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself (not re-exports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Span recorder plus the wrappers it installs; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.run_id = -1
        self.active = False
        self._run_counters: dict[int, Counter] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        """Close the root span ``idx`` of an operation.

        An operation interrupted by its time limit can leave a wrapper half
        way through recording: one span missing some fields, spans without
        an end, stale stack entries.  Only the last span started can be
        partial, so the columns are cut to a common length, open spans end
        with the root, and the stack is cut back to the root's parent.
        """
        now = perf_counter_ns()
        if failed:
            n = min(len(self.name_id), len(self.parent), len(self.run), len(self.end), len(self.start))
            for column in (self.name_id, self.parent, self.run, self.end, self.start):
                del column[n:]
            for i in range(idx, n):
                if self.end[i] == 0:
                    self.end[i] = now
            del self._stack[self._stack.index(idx):]
        else:
            self.end[idx] = now
            self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        """Add to a work counter, attributed to the current run id."""
        self._run_counters.setdefault(self.run_id, Counter())[key] += amount

    def on_return(self, qualname: str, hook) -> None:
        """Call ``hook(tracer, args, kwargs, result)`` after each traced call of ``qualname``."""
        self._hooks[qualname] = hook

    def _wrap(self, qualname: str, fn):
        tracer = self
        nid = self._id(qualname)
        hook = self._hooks.get(qualname)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # open() and close() inlined: this runs on every traced call.
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(tracer.run_id)
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function at every fundiv module binding."""
        import fundiv

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"fundiv.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [fundiv] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("fundiv.") and m is not None
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64, count=n).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "run_id": np.frombuffer(self.run, dtype=np.int32, count=n).copy(),
        }

    def summary(self, runs: set[int]) -> "SpanSummary":
        """Per-name call counts, durations and self times over the spans of some run ids."""
        return SpanSummary(self.names, self.arrays(), runs)

    def run_counters(self, runs: set[int]) -> Counter:
        total: Counter = Counter()
        for run_id in runs:
            total.update(self._run_counters.get(run_id, Counter()))
        return total

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Aggregates of a span table by function name and by layer."""

    def __init__(self, names: list[str], a: dict[str, np.ndarray], runs: set[int]) -> None:
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        selected = np.isin(a["run_id"], np.fromiter(runs, dtype=np.int32, count=len(runs)))
        self.names = names
        self._name_id = a["name_id"][selected]
        self._dur = dur[selected]
        self._self = (dur - child)[selected]
        self._parent_name = np.where(
            a["parent"] >= 0, a["name_id"][np.maximum(a["parent"], 0)], -1
        )[selected]
        self.n_spans = int(selected.sum())

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self._name_id.size, dtype=bool)
        return self._name_id == self.names.index(name)

    def calls(self, name: str, parent: str | None = None) -> int:
        mask = self._mask(name)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self._parent_name == pid
        return int(mask.sum())

    def total_s(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum()) * 1e-9

    def self_s(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum()) * 1e-9

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self._self[np.isin(self._name_id, ids)].sum()) * 1e-9
