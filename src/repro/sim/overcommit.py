"""The reference engine under its over-commit name.

:class:`~repro.sim.engine.Engine` runs every shape, over-committed run
queues included; this subclass only defaults to over-commit so older
callers keep working.
"""

from __future__ import annotations

from .engine import Engine

__all__ = ["OvercommitEngine"]


class OvercommitEngine(Engine):
    """:class:`Engine` whose cores may queue any number of threads."""

    def __init__(self, machine, threads, quantum_refs: int = 64,
                 switch_penalty: int = 200, max_steps=None, control=None):
        super().__init__(machine, threads, max_steps=max_steps,
                         control=control, slots_per_core=max(2, len(threads)),
                         quantum_refs=quantum_refs,
                         switch_penalty=switch_penalty)

    # An entry in this class's own dict, not an alias: layer tracers
    # look ``run`` up in each class's dict and wrap ``Engine.run`` and
    # ``OvercommitEngine.run`` separately.  ``OvercommitEngine = Engine``
    # would wrap one function twice and count every run double.
    run = Engine.run
