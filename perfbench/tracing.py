"""In-memory span tracing of plexmesh calls, installed from outside the package.

Every public plexmesh function is replaced, in every plexmesh module namespace
that holds it, by a wrapper that records a span (name, start, end, parent).
``Plex.__init__``, ``Plex.closure`` and ``Plex.star`` are wrapped on the
class; ``cone`` and ``support`` are not, because they run once per point
inside a closure and a span there would cost more than the call it measures.
Span names are ``<module>.<function>``, so the layer is the part before the
first dot.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans while enabled; a disabled tracer adds one branch per call."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.points_built = 0
        self._closure_keys: set[tuple[int, int]] = set()
        self._closure_repeats = 0
        # Plexes whose closures were keyed by id(); holding them keeps those
        # ids from being reused by a new Plex within one collection window.
        self._plexes: dict[int, object] = {}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def recording(self, root: str):
        """Enable tracing for the block, under a root span of the benchmark's own."""
        self.enabled = True
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx)
            self.enabled = False

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording one span per call of fn while enabled.

        after(args, result) runs outside the span, to update counters.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_plex_init(self, args, _result) -> None:
        self.points_built += args[0].chart_size

    def _after_closure(self, args, _result) -> None:
        plex, p = args[0], int(args[1])
        self._plexes[id(plex)] = plex
        key = (id(plex), p)
        if key in self._closure_keys:
            self._closure_repeats += 1
        else:
            self._closure_keys.add(key)

    def collect(self) -> dict:
        """Aggregate the recorded spans, then reset.

        Returns, per span name, the summed self time, the summed duration
        and the call count (root spans included: a root's self time is the
        benchmark's own code between calls), and the plex counters.  Self
        time is a span's duration minus the time its children cover; calls
        are strictly nested in one thread, so that coverage is the sum of
        the child durations.
        """
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered

        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, s, d in zip(self.names, self_time.tolist(), dur.tolist()):
            self_s[name] += s
            total_s[name] += d
            calls[name] += 1
        closure_calls = calls.get("plex.Plex.closure", 0)
        out = {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "points_built": self.points_built,
            "closure_reuse": (self._closure_repeats / closure_calls
                              if closure_calls else 0.0),
        }
        self.reset()
        return out


def _plexmesh_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "plexmesh" or name.startswith("plexmesh."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on plexmesh for the duration of the block.

    Each public function gets one wrapper, bound into every plexmesh module
    namespace that imported it (``plexmesh.build_from_cells``,
    ``plexmesh.gmsh_io.build_from_cells``, ...), so calls between modules are
    traced too.  Everything is restored on exit.
    """
    from plexmesh.plex import Plex

    saved: list[tuple[object, str, object]] = []
    wrappers: dict[object, object] = {}
    for mod in _plexmesh_modules():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("plexmesh.")):
                continue
            if obj not in wrappers:
                layer = obj.__module__.rsplit(".", 1)[-1]
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{obj.__name__}")
            saved.append((mod, attr, obj))
            setattr(mod, attr, wrappers[obj])
    hooks = {"__init__": tracer._after_plex_init,
             "closure": tracer._after_closure,
             "star": None}
    for attr, after in hooks.items():
        original = Plex.__dict__[attr]
        saved.append((Plex, attr, original))
        setattr(Plex, attr, tracer.wrap(original, f"plex.Plex.{attr}", after))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
