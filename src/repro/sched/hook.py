"""Epoch-boundary scheduler actuation inside the simulation engines.

A :class:`SchedHook` drives one :class:`~repro.sched.policies.Scheduler`
with the engines' epoch-gated control cadence (the same ``next_due`` /
``on_step`` protocol as :class:`~repro.qos.hook.QosHook`): every
``epoch`` simulated cycles it closes a sensing window through its
:class:`~repro.sched.signals.SchedSensor`, asks the policy for a
:class:`~repro.sched.policies.SchedDecision`, and actuates it:

* on a single-slot run, through
  :meth:`~repro.sim.engine.Engine.apply_migrations` — an atomic
  permutation rebind that charges each moved thread the
  ``migration_penalty``;
* on an over-committed run, through
  :meth:`~repro.sim.engine.Engine.rebind_thread` — the same run-queue
  actuator the QoS layer uses, which charges the engine's
  context-switch penalty when a migrated thread wakes an idle core.

The engine's shape (``overcommitted``) picks the actuator.

Either way the hypervisor's binding bookkeeping
(:meth:`~repro.vm.hypervisor.Hypervisor.rebind_thread`) keeps VM/core
attribution consistent.  Counters (``sched.control_epochs``,
``sched.migrations``, ``sched.proposed``, ``sched.refused``) and a
``sched.migrate`` instant event per actuated epoch land in the run's
telemetry hub, so migrations show up in distributed traces; with the
default null hub they cost nothing.

Because a scheduler can rebind threads, any spec naming one needs the
``migration`` engine capability, which only the reference engine
provides — the batched kernel folds per thread and cannot re-home
threads mid-run.  :class:`CompositeControl`
lets a :class:`SchedHook` and a :class:`~repro.qos.hook.QosHook` share
an engine's single control slot, each keeping its own epoch.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigurationError
from ..obs.trace import TraceEvent
from .policies import Scheduler, SchedView
from .signals import SchedSensor

__all__ = ["SchedHook", "CompositeControl"]


class SchedHook:
    """Drives one scheduling policy at a fixed control epoch.

    Parameters
    ----------
    chip:
        The machine; contention signals are read from its inspection
        methods and the core->domain map is taken once at attach.
    threads:
        The engine's thread contexts (sensing is read-only; actuation
        goes through the engine and hypervisor).
    policy:
        An *attached-by-us* scheduler: the hook builds the
        :class:`~repro.sched.policies.SchedView` and calls
        ``policy.attach`` itself.
    epoch:
        Control period in simulated cycles.
    hypervisor:
        Needed for binding bookkeeping whenever migrations may happen.
    migration_penalty:
        Cycles charged to each thread moved on the single-slot engine
        (the over-commit engine charges its own switch penalty).
    slots_per_core, rng:
        Forwarded into the policy's view.
    """

    def __init__(self, chip, threads, policy: Scheduler, epoch: int,
                 telemetry=None, hypervisor=None,
                 migration_penalty: int = 1_000,
                 slots_per_core: int = 1, rng=None):
        if epoch <= 0:
            raise ConfigurationError("sched epoch must be positive")
        if migration_penalty < 0:
            raise ConfigurationError(
                "migration penalty must be non-negative")
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.chip = chip
        self.threads = list(threads)
        self.policy = policy
        self.epoch = epoch
        self.telemetry = telemetry
        # register outcome counters up front so even a run that never
        # migrates exports them at zero
        for name in ("sched.control_epochs", "sched.proposed",
                     "sched.migrations", "sched.refused"):
            telemetry.counter(name)
        self.hypervisor = hypervisor
        self.migration_penalty = migration_penalty
        self.next_due = epoch
        self.control_epochs = 0
        self.migrations = 0
        self.proposed = 0
        self.refused = 0
        self._actuator = None

        self.sensor = SchedSensor(chip, self.threads)
        config = getattr(chip, "config", None)
        num_cores = (config.num_cores if config is not None
                     else 1 + max(t.core_id for t in self.threads))
        inverse = getattr(chip, "inverse_core_speeds", None)
        policy.attach(SchedView(
            num_cores=num_cores,
            slots_per_core=slots_per_core,
            domain_of_core=self.sensor.domain_of_core,
            inverse_speeds=inverse,
            rng=rng,
        ))

    # -- wiring ---------------------------------------------------------

    def bind_actuator(self, engine) -> None:
        """Give the hook the engine's migration actuators and its
        ``run_queues()`` for sensing."""
        self._actuator = engine

    # -- engine hooks ---------------------------------------------------

    def on_step(self, now: int) -> None:
        """Called once per engine step with the current issue time."""
        if now >= self.next_due:
            self.control(now)
            # re-arm relative to the actual control instant (see the
            # QosHook for why snapping back to the grid would bias the
            # sensing windows)
            self.next_due = now + self.epoch

    def finish(self, final_time: int) -> None:
        self.telemetry.gauge("sched.control_epochs").set(
            float(self.control_epochs))
        self.telemetry.gauge("sched.migrations").set(float(self.migrations))

    # -- the control loop -----------------------------------------------

    def control(self, now: int) -> None:
        """Run one sense → decide → actuate cycle."""
        self.control_epochs += 1
        telemetry = self.telemetry
        telemetry.counter("sched.control_epochs").inc()
        queues = None
        if self._actuator is not None:
            queues = self._actuator.run_queues()
        window = self.sensor.window(now, queues=queues)
        decision = self.policy.decide(window)
        if not decision.migrations or self._actuator is None:
            return

        self.proposed += len(decision.migrations)
        telemetry.counter("sched.proposed").inc(len(decision.migrations))
        applied = self._actuate(decision.migrations, now)
        if applied:
            self.migrations += applied
            telemetry.counter("sched.migrations").inc(applied)
            if telemetry.enabled:
                telemetry.series_for("sched.migrations").append(
                    now, float(self.migrations))
                telemetry.emit(TraceEvent(
                    name="sched.migrate", cat="sched", ph="i", ts=now,
                    args={"policy": self.policy.name, "moves": applied},
                ))

    def _actuate(self, moves: Dict[int, int], now: int) -> int:
        actuator = self._actuator
        if actuator.overcommitted:
            return self._actuate_overcommit(actuator, moves, now)
        return self._actuate_single_slot(actuator, moves, now)

    def _actuate_single_slot(self, engine, moves: Dict[int, int],
                             now: int) -> int:
        previous = {
            tid: thread.core_id
            for tid, thread in ((t.thread_id, t) for t in self.threads)
            if tid in moves
        }
        applied = engine.apply_migrations(
            moves, now, penalty=self.migration_penalty)
        if not applied:
            self.refused += len(moves)
            self.telemetry.counter("sched.refused").inc(len(moves))
            return 0
        if self.hypervisor is not None:
            for tid in sorted(moves):
                thread = self._thread_by_id(tid)
                if thread is None or thread.core_id == previous.get(tid):
                    continue  # skipped by the engine (no-op move)
                self.hypervisor.rebind_thread(
                    thread, thread.core_id,
                    previous=previous.get(tid, -1), bind_core=True)
        return applied

    def _actuate_overcommit(self, engine, moves: Dict[int, int],
                            now: int) -> int:
        applied = 0
        for tid in sorted(moves):
            core = moves[tid]
            thread = self._thread_by_id(tid)
            if thread is None:
                continue
            previous = thread.core_id
            became_head = engine.rebind_thread(tid, core, now)
            if became_head is None:
                # refused: unknown, a no-op, or currently running
                self.refused += 1
                self.telemetry.counter("sched.refused").inc()
                continue
            if self.hypervisor is not None:
                self.hypervisor.rebind_thread(
                    thread, core, previous=previous,
                    bind_core=became_head)
            applied += 1
        return applied

    def _thread_by_id(self, tid: int):
        for thread in self.threads:
            if thread.thread_id == tid:
                return thread
        return None

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly account of what the scheduler did."""
        return {
            "policy": self.policy.name,
            "epoch": self.epoch,
            "control_epochs": self.control_epochs,
            "migrations": self.migrations,
            "proposed": self.proposed,
            "refused": self.refused,
            "final_binding": {
                str(t.thread_id): t.core_id
                for t in sorted(self.threads, key=lambda t: t.thread_id)
            },
        }


class CompositeControl:
    """Multiplexes several epoch hooks onto an engine's control slot.

    The engines drive exactly one control object through the
    ``next_due`` / ``on_step(now)`` / ``finish`` protocol; this
    adapter fans that out to children with independent epochs.
    ``next_due`` is always the earliest child deadline, and
    :meth:`on_step` dispatches only to children that are actually due
    — each keeps its own sensing cadence.  Children are dispatched in
    construction order, so placing a :class:`~repro.qos.hook.QosHook`
    before a :class:`SchedHook` lets quota decisions land before the
    same epoch's migrations.
    """

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ConfigurationError(
                "CompositeControl needs at least one child hook")

    @property
    def next_due(self) -> int:
        return min(child.next_due for child in self.children)

    def on_step(self, now: int) -> None:
        for child in self.children:
            if now >= child.next_due:
                child.on_step(now)

    def bind_actuator(self, engine) -> None:
        for child in self.children:
            bind = getattr(child, "bind_actuator", None)
            if bind is not None:
                bind(engine)

    def finish(self, final_time: int) -> None:
        for child in self.children:
            child.finish(final_time)
