"""Outside-in layer tracing: wrap public ``repro`` functions, restore them.

Each layer is a ``repro`` module; :data:`LAYERS` names the functions
whose calls are charged to it.  :class:`LayerTracer` replaces every
listed function with a timing wrapper, aggregates ``(calls, total,
child)`` per layer in memory, and puts the originals back on
:meth:`LayerTracer.uninstall`.  A layer's *self* time is its total
minus the time spent in wrapped calls it made (its children), so the
self times of all layers never double-count.

Nothing under ``src/`` changes: the wrappers are installed on the
classes and module namespaces from here.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "sim.engine": [("repro.sim.engine", "Engine.run"),
                   ("repro.sim.overcommit", "OvercommitEngine.run")],
    "machine": [("repro.machine.chip", "Chip.access")],
    "caches": [("repro.caches.hierarchy", f"{cls}.{name}")
               for cls, names in (
                   ("CoreCacheStack",
                    ("probe", "fill", "mark_dirty", "invalidate")),
                   ("L2Domain", ("lookup", "fill", "invalidate")))
               for name in names],
    "interconnect": [("repro.interconnect.analytical",
                      "AnalyticalMesh.traverse")],
    "sim.server": [("repro.sim.server", "FifoServer.request")],
    "coherence": [("repro.coherence.protocol", f"CoherenceController.{name}")
                  for name in ("fetch", "upgrade", "domain_evicted")],
    "memory": [("repro.memory.controller", "MemoryController.access"),
               ("repro.memory.controller", "MemoryController.writeback")],
    "workloads": [("repro.workloads.generator", "ThreadTrace.__next__"),
                  ("repro.workloads.generator", "ThreadTrace.take_batch")],
    "sim.batched": [("repro.sim.batched", "BatchedEngine.run")],
    "sim._batchfold": [("repro.sim._batchfold", "fold_private")],
    "sched": [("repro.sched.hook", "SchedHook.on_step")],
    "qos": [("repro.qos.hook", "QosHook.on_step")],
    "scenarios": [("repro.scenarios.hook", "ScenarioHook.on_step")],
}
"""Layer name -> ``(module, attribute path)`` of every wrapped function."""


class _Stats:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, original)`` for a dotted attribute."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, owner.__dict__[name]


class LayerTracer:
    """Install timing wrappers over :data:`LAYERS`; restore on exit.

    ``observers`` maps ``(module, path)`` to a callable that receives
    each wrapped call's return value (for counts the return carries,
    e.g. the wait cycles :meth:`FifoServer.request` returns).
    """

    def __init__(self,
                 observers: Optional[Dict[Tuple[str, str], Callable]] = None):
        self.observers = dict(observers or {})
        self.stats: Dict[str, _Stats] = {name: _Stats() for name in LAYERS}
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / uninstall -----------------------------------------

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner, name, original = _resolve(module_name, path)
                wrapper = self._wrap(layer, original,
                                     self.observers.get((module_name, path)))
                self._patch(owner, name, wrapper)
                if isinstance(owner, type):
                    continue
                # a module-level function is also bound by name in every
                # module that imported it; rebind those too
                for module in list(sys.modules.values()):
                    if module is owner or module is None:
                        continue
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    if module.__dict__.get(name) is original:
                        self._patch(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- the wrapper ---------------------------------------------------

    def _wrap(self, layer: str, fn, observe):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total += elapsed
                stats.child += stack.pop()
                stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[int, float, float]]:
        """``layer -> (calls, total seconds, self seconds)``."""
        return {name: (s.calls, s.total, s.self_time)
                for name, s in self.stats.items()}
