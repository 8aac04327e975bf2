"""Unified engine construction: one registry, one entry point.

Every run declares what it *needs* from an engine as a set of
capability names (:data:`CAPABILITIES`), computed once from the
resolved spec by :func:`repro.core.experiment.engine_needs` and carried
on the :class:`EngineRequest`.  Every engine mode declares what it
*supports*:

``"reference"``
    The event-driven :class:`~repro.sim.engine.Engine` — every
    capability, on every run shape.
``"batched"``
    The epoch-folded :class:`~repro.sim.batched.BatchedEngine` — none
    of them: single-slot, statically bound, homogeneous runs only.
``"auto"``
    The first registered mode that covers the needs (``"batched"``,
    then ``"reference"``); the batched kernel is only picked when numpy
    is available.

Explicitly requesting a mode that lacks a needed capability raises a
:class:`~repro.errors.ConfigurationError` naming what is missing.

Stability note: :func:`make_engine`, :class:`EngineRequest`, and the
mode names above are public API — downstream code may rely on them;
changes go through a deprecation cycle.  :func:`register_engine` is
public but experimental: third-party engines must accept an
:class:`EngineRequest` and return an object with ``run()`` and a
settable ``probe`` attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from ..errors import ConfigurationError
from ._batchfold import HAVE_NUMPY
from .batched import DEFAULT_EPOCH_REFS, BatchedEngine
from .engine import Engine

__all__ = [
    "CAPABILITIES",
    "EngineRequest",
    "make_engine",
    "register_engine",
    "resolve_mode",
    "engine_modes",
]

CAPABILITIES: Dict[str, str] = {
    "overcommit": "more threads than cores: slots_per_core > 1",
    "migration": "threads changing cores mid-run: any sched_policy",
    "scenario": "time-varying scenario control",
    "heterogeneous": "core speed classes or asymmetric L2 domains",
    "churn": "VM arrivals and departures: a vm_schedule",
}
"""Capability name -> what a run needing it does."""


@dataclass
class EngineRequest:
    """Everything an engine builder may need.

    Attributes
    ----------
    machine:
        The chip (or a machine-model stand-in for tests).
    threads:
        Thread contexts to run.
    control:
        Optional epoch hook; the reference builder wires it into the
        engine and binds the engine's actuators back onto it.
    probe:
        Optional epoch probe.
    slots_per_core:
        Run-queue capacity of each core (>1 over-commits).
    needs:
        Capability names (keys of :data:`CAPABILITIES`) the run
        requires of its engine.
    epoch_refs:
        Folding epoch of the batched engine.
    """

    machine: object
    threads: Sequence = field(default_factory=list)
    control: Optional[object] = None
    probe: Optional[object] = None
    slots_per_core: int = 1
    needs: FrozenSet[str] = frozenset()
    epoch_refs: int = DEFAULT_EPOCH_REFS


def _build_reference(request: EngineRequest):
    engine = Engine(
        request.machine,
        request.threads,
        probe=request.probe,
        control=request.control,
        slots_per_core=request.slots_per_core,
    )
    bind = getattr(request.control, "bind_actuator", None)
    if bind is not None:
        bind(engine)
    return engine


def _build_batched(request: EngineRequest):
    return BatchedEngine(
        request.machine,
        request.threads,
        probe=request.probe,
        control=request.control,
        epoch_refs=request.epoch_refs,
    )


@dataclass(frozen=True)
class _Mode:
    builder: Callable[[EngineRequest], object]
    supports: FrozenSet[str]


_REGISTRY: Dict[str, _Mode] = {
    "batched": _Mode(_build_batched, frozenset()),
    "reference": _Mode(_build_reference, frozenset(CAPABILITIES)),
}


def register_engine(mode: str, builder: Callable[[EngineRequest], object],
                    supports: FrozenSet[str] = frozenset()) -> None:
    """Register (or override) an engine mode. Experimental API."""
    if not mode or mode == "auto":
        raise ConfigurationError(f"invalid engine mode name {mode!r}")
    unknown = set(supports) - set(CAPABILITIES)
    if unknown:
        raise ConfigurationError(
            f"unknown capabilities {sorted(unknown)}; "
            f"choose from {', '.join(CAPABILITIES)}")
    _REGISTRY[mode] = _Mode(builder, frozenset(supports))


def engine_modes() -> list:
    """Selectable modes, ``"auto"`` first."""
    return ["auto"] + sorted(_REGISTRY)


def resolve_mode(mode: str, needs: FrozenSet[str] = frozenset()) -> str:
    """Resolve ``"auto"`` to a concrete registry mode for ``needs``.

    ``"auto"`` picks the first registered mode whose supported
    capabilities cover ``needs`` — never the batched kernel without
    numpy: its pure-Python fallback exists for constrained
    environments, but ``auto`` should never silently choose the slow
    path.  Concrete modes pass through (an unsupported need raises at
    build time, in :func:`make_engine`).
    """
    mode = (mode or "auto").strip().lower()
    if mode == "auto":
        for name, entry in _REGISTRY.items():
            if needs <= entry.supports and (name != "batched" or HAVE_NUMPY):
                return name
        raise ConfigurationError(
            f"no engine supports {', '.join(sorted(needs))}")
    if mode not in _REGISTRY:
        raise ConfigurationError(
            f"unknown engine mode {mode!r}; "
            f"choose one of {', '.join(engine_modes())}"
        )
    return mode


def make_engine(request: EngineRequest, mode: str = "auto"):
    """Build an engine for ``request`` in the given mode.

    The single construction path for every simulation engine: the
    experiment runner, tests, and benches all come through here.
    """
    concrete = resolve_mode(mode, request.needs)
    entry = _REGISTRY[concrete]
    missing = sorted(request.needs - entry.supports)
    if missing:
        raise ConfigurationError(
            f"the {concrete} engine lacks "
            + ", ".join(f"{name!r} ({CAPABILITIES.get(name, name)})"
                        for name in missing)
            + "; use engine_mode='reference' or 'auto'"
        )
    return entry.builder(request)
