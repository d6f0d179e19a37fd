"""Outside-in tracer: times calls into a program's functions without
touching the program's source.

Each target function is replaced, for the duration of a ``with`` block, by
a wrapper that records one span (name, start, end, parent) per call.  A
module that did ``from .chainalg import mat_mul`` holds its own alias of
the function, so every alias in every namespace of the package is rebound;
methods are rebound on their class.  Installing asserts that no reference
to an original is left where the wrapper cannot reach it, and leaving the
block restores every original.

Spans stay in memory, in flat arrays; self time is derived from them after
the run as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "spantrace.finspan"
    qualname: str  # "fiber_product" or "OverMap.fiber"
    metric: str  # metric prefix, e.g. "finspan.fiber_product"
    counter: Callable | None = None  # (counts, args, result, seconds) -> None


class Tracer:
    def __init__(self, targets: list[Target], package: str, extra_namespaces=()):
        self.targets = targets
        self.package = package
        self.extra_namespaces = tuple(extra_namespaces)
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.incl = [0.0] * len(targets)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack = [-1]
        self._active = [0] * len(targets)
        self._sites: list[tuple[object, str, object]] = []

    # -- installing and restoring ------------------------------------------

    def _namespaces(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]
        mods += [sys.modules[n] for n in self.extra_namespaces if n in sys.modules]
        classes = {id(c): c for m in mods for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith(self.package)}
        return mods, list(classes.values())

    def __enter__(self) -> "Tracer":
        mods, classes = self._namespaces()
        wrappers = set()
        try:
            for nid, t in enumerate(self.targets):
                owner = importlib.import_module(t.module)
                *path, attr = t.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapper = self._wrap(nid, orig, t.counter)
                wrappers.add(id(wrapper))
                sites = [(ns, k) for ns in mods + classes for k, v in vars(ns).items() if v is orig]
                for ns, k in sites:
                    setattr(ns, k, wrapper)
                    self._sites.append((ns, k, orig))
                if (owner, attr) not in sites:
                    raise RuntimeError(f"{t.qualname} not found on {owner!r}")
            originals = {id(orig) for _, _, orig in self._sites}
            left = [where for where, v in _references(mods, classes, wrappers)
                    if id(v) in originals]
            if left:
                raise RuntimeError(f"alias sites the tracer cannot rebind: {left}")
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for ns, k, orig in reversed(self._sites):
            setattr(ns, k, orig)
        self._sites.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn, counter):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, active, incl, counts = self._stack, self._active, self.incl, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
                if not active[nid]:  # outermost call of this name
                    incl[nid] += t1 - t0
            if counter is not None:
                counter(counts, args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- deriving ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per target: calls, self and inclusive seconds; plus the counters."""
        n = len(self.names)
        child = array("d", bytes(8 * n))
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        out = dict(self.counts)
        for k, t in enumerate(self.targets):
            out[f"{t.metric}.calls"] = calls[k]
            out[f"{t.metric}.self_s"] = self_s[k]
            out[f"{t.metric}.incl_s"] = self.incl[k]
        out["trace.spans"] = n
        return out


def _references(mods, classes, skip):
    """Every reference to an object that a rebinding of names cannot reach:
    inside module-level containers, default arguments and closures."""
    def values(x):
        if isinstance(x, dict):
            return list(x.values()) + list(x.keys())
        if isinstance(x, (list, tuple, set, frozenset)):
            return list(x)
        return []

    for ns in mods + classes:
        for k, v in vars(ns).items():
            for item in values(v):
                yield f"{getattr(ns, '__name__', ns)}.{k}[...]", item
            fn = getattr(v, "__func__", v)
            if inspect.isfunction(fn) and id(fn) not in skip:
                for d in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                    yield f"{fn.__qualname__} default", d
                for cell in fn.__closure__ or ():
                    try:
                        yield f"{fn.__qualname__} closure", cell.cell_contents
                    except ValueError:  # empty cell
                        pass
