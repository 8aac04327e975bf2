"""Global-time event loop driving the trace simulation.

The engine owns one run queue per core and a priority queue of ready
times.  Each step pops the earliest entry, pulls the next memory
reference from the thread at the head of that run queue, sends it
through the machine model, and re-inserts the queue at the reference's
completion time.  Because references are processed in non-decreasing
global time, the FIFO resource servers in :mod:`repro.sim.server`
observe monotone arrivals and model contention exactly.

One loop serves every run shape:

* **single-slot** (``slots_per_core=1``, the paper's methodology):
  every queue holds exactly one thread, so no quantum rotation or
  switch penalty ever applies.  Threads move between cores only
  through :meth:`Engine.apply_migrations`, an atomic permutation.
* **over-committed** (``slots_per_core>1``, Section VII future work):
  a core time-multiplexes its queue with a reference quantum and a
  context-switch penalty; control hooks move *waiting* threads
  between queues through :meth:`Engine.rebind_thread`.

Core speed classes, VM churn (``stop_time``), the epoch probe and the
control slot work on both shapes.

Measurement methodology mirrors Section IV of the paper:

* each thread issues a fixed number of *measured* references (its
  "transactions"), preceded by a warm-up phase excluded from statistics;
* a virtual machine *completes* when all of its threads have issued
  their measured references; the per-VM cycle count is that completion
  time (the paper's normalized runtime metric);
* threads of completed VMs keep running (the workload is "restarted")
  so the machine stays filled to capacity until every VM completes,
  keeping the system in steady state.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Protocol, Tuple

from ..errors import SimulationError
from .records import AccessResult, HitLevel, LatencyBreakdown, MemoryReference

__all__ = ["MachineModel", "ThreadContext", "ThreadStats", "Engine", "EngineResult"]


class MachineModel(Protocol):
    """Timing interface the engine drives.

    Implemented by :class:`repro.machine.chip.Chip`; the engine itself
    only needs this one method, which keeps the engine unit-testable
    against trivial fake machines.
    """

    def access(self, core_id: int, block: int, is_write: bool, now: int) -> AccessResult:
        """Perform one reference and return its timing outcome."""
        ...


@dataclass
class ThreadStats:
    """Counters accumulated over a thread's *measured* references."""

    refs: int = 0
    reads: int = 0
    writes: int = 0
    think_cycles: int = 0
    latency_cycles: int = 0
    miss_latency_cycles: int = 0
    cache_cycles: int = 0
    network_cycles: int = 0
    directory_cycles: int = 0
    memory_cycles: int = 0
    level_counts: Dict[HitLevel, int] = field(
        default_factory=lambda: {level: 0 for level in HitLevel}
    )

    @property
    def cycles(self) -> int:
        """Busy cycles: one per instruction plus memory stall cycles."""
        return self.refs + self.think_cycles + self.latency_cycles

    @property
    def l1_misses(self) -> int:
        return sum(
            count for level, count in self.level_counts.items() if level.is_l1_miss
        )

    @property
    def l2_misses(self) -> int:
        """Misses seen by the VM: references not satisfied on the local L2."""
        return sum(
            count for level, count in self.level_counts.items() if level.is_l2_miss
        )

    @property
    def c2c_transfers(self) -> int:
        return (
            self.level_counts[HitLevel.C2C_CLEAN]
            + self.level_counts[HitLevel.C2C_DIRTY]
        )

    @property
    def mean_miss_latency(self) -> float:
        """Average latency of L1 misses, the paper's miss-latency metric."""
        misses = self.l1_misses
        return self.miss_latency_cycles / misses if misses else 0.0

    @property
    def breakdown(self) -> LatencyBreakdown:
        return LatencyBreakdown(
            cache=self.cache_cycles,
            network=self.network_cycles,
            directory=self.directory_cycles,
            memory=self.memory_cycles,
        )

    def record(self, access: int, think: int, result: AccessResult) -> None:
        self.refs += 1
        if access:
            self.writes += 1
        else:
            self.reads += 1
        self.think_cycles += think
        self.latency_cycles += result.latency
        self.level_counts[result.level] += 1
        if result.level >= HitLevel.L2:  # inline of level.is_l1_miss
            self.miss_latency_cycles += result.latency
        self.cache_cycles += result.cache_cycles
        self.network_cycles += result.network_cycles
        self.directory_cycles += result.directory_cycles
        self.memory_cycles += result.memory_cycles


class ThreadContext:
    """One workload thread bound to a physical core.

    Parameters
    ----------
    thread_id:
        Globally unique thread index.
    vm_id:
        Virtual machine the thread belongs to.
    core_id:
        Physical core the hypervisor bound this thread to (static
        binding, per the paper's methodology; migrations rewrite it).
    references:
        Iterator of :class:`MemoryReference`.  Must be effectively
        infinite (workload generators restart transparently); the engine
        decides when to stop consuming.
    measured_refs:
        Number of references that constitute the thread's measured run.
    warmup_refs:
        References consumed before measurement starts.
    start_time:
        Cycle at which the thread issues its first reference.  The
        paper flags workload start times as a methodological variable
        worth exploring (Section VIII); staggered starts let the
        start-time ablation do exactly that.
    stop_time:
        Cycle at which the thread *departs* (VM churn): at its first
        issue at or past this cycle the thread retires instead of
        issuing, freeing its core for the rest of the run.  ``None``
        (the default) keeps the paper's semantics — threads run until
        every VM completes.
    """

    def __init__(
        self,
        thread_id: int,
        vm_id: int,
        core_id: int,
        references: Iterator[MemoryReference],
        measured_refs: int,
        warmup_refs: int = 0,
        start_time: int = 0,
        stop_time: Optional[int] = None,
    ):
        if measured_refs <= 0:
            raise ValueError("measured_refs must be positive")
        if warmup_refs < 0:
            raise ValueError("warmup_refs must be non-negative")
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if stop_time is not None and stop_time <= start_time:
            raise ValueError("stop_time must be after start_time")
        self.thread_id = thread_id
        self.vm_id = vm_id
        self.core_id = core_id
        self.references = references
        self.measured_refs = measured_refs
        self.warmup_refs = warmup_refs
        self.start_time = start_time
        self.stop_time = stop_time
        self.issued = 0
        self.stats = ThreadStats()
        self.completion_time: Optional[int] = None

    @property
    def measured_done(self) -> bool:
        return self.issued >= self.warmup_refs + self.measured_refs

    @property
    def in_warmup(self) -> bool:
        return self.issued < self.warmup_refs


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    final_time: int
    vm_completion_times: Dict[int, int]
    thread_stats: Dict[int, ThreadStats]
    total_refs_processed: int
    #: run-queue rotations and hand-overs; always 0 on single-slot runs
    context_switches: int = 0

    def vm_threads(self, vm_id: int) -> List[ThreadStats]:
        """Stats of every thread belonging to ``vm_id``."""
        return [
            stats
            for tid, stats in sorted(self.thread_stats.items())
            if self._vm_of[tid] == vm_id
        ]

    # filled by the engine after construction
    _vm_of: Dict[int, int] = field(default_factory=dict)


class Engine:
    """Drives per-core run queues through a machine model until every
    VM completes.

    Parameters
    ----------
    machine:
        Timing model implementing :class:`MachineModel`.  If it exposes
        ``bind_core_to_vm``, the core->VM attribution follows the
        thread at the head of each queue.
    threads:
        All thread contexts; at most ``slots_per_core`` per core.
    max_steps:
        Safety valve against runaway simulations; exceeded only on a
        simulator bug, in which case :class:`SimulationError` is raised.
    probe:
        Optional :class:`~repro.obs.probes.EpochProbe` sampling per-VM
        time series as simulated time advances.  Probes are strictly
        read-only: a run with a probe is bit-identical to one without
        (the probe costs one ``is not None`` test per step when absent).
    control:
        Optional epoch hook (:class:`~repro.qos.hook.QosHook`,
        :class:`~repro.sched.hook.SchedHook`, ...) driven through its
        ``next_due`` / ``on_step`` / ``finish`` protocol.  Unlike
        probes, a control hook *may* change machine state and move
        threads — that is its purpose.
    slots_per_core:
        Thread contexts a core's run queue may hold.  1 reproduces the
        paper, which never over-commits the machine.
    quantum_refs:
        References a thread issues before its core switches to the
        next queued thread (only when others are waiting).
    switch_penalty:
        Cycles charged on every context switch (pipeline refill, state
        swap); misses caused by the evicted thread's cooled-down cache
        footprint emerge from the cache model itself.
    """

    def __init__(
        self,
        machine: MachineModel,
        threads: List[ThreadContext],
        max_steps: Optional[int] = None,
        probe=None,
        control=None,
        slots_per_core: int = 1,
        quantum_refs: int = 64,
        switch_penalty: int = 200,
    ):
        if not threads:
            raise SimulationError("engine needs at least one thread")
        if slots_per_core <= 0:
            raise SimulationError("slots_per_core must be positive")
        if quantum_refs <= 0:
            raise SimulationError("quantum_refs must be positive")
        if switch_penalty < 0:
            raise SimulationError("switch_penalty must be non-negative")
        by_core: Dict[int, Deque[int]] = {}
        for thread in threads:
            queue = by_core.setdefault(thread.core_id, deque())
            queue.append(thread.thread_id)
            if len(queue) > slots_per_core:
                raise SimulationError(
                    f"core {thread.core_id} bound to {len(queue)} threads "
                    f"with {slots_per_core} slot(s) per core; the "
                    "consolidation methodology over-commits cores only "
                    "when slots_per_core > 1"
                )
        self.machine = machine
        self.threads = {t.thread_id: t for t in threads}
        self.probe = probe
        self.control = control
        self.overcommitted = slots_per_core > 1
        self.quantum_refs = quantum_refs
        self.switch_penalty = switch_penalty
        demand = sum(t.warmup_refs + t.measured_refs for t in threads)
        # Completed VMs keep running while others finish; 64x the
        # measured demand is far beyond any legitimate imbalance.
        self.max_steps = max_steps if max_steps is not None else 64 * demand
        # The heap key of a queue breaks ties between equal issue
        # times, and outputs depend on it: a single-slot queue is keyed
        # by its thread (the queue moves with the thread on a
        # permutation migration), an over-committed queue by its core.
        if self.overcommitted:
            self._queues: Dict[int, Deque[int]] = by_core
        else:
            self._queues = {tid: deque((tid,)) for tid in sorted(self.threads)}
        # heterogeneous cores: per-core think-cycle multipliers, or
        # None on a homogeneous machine (exact legacy arithmetic)
        self._inv_speeds = getattr(machine, "inverse_core_speeds", None)
        # one-shot issue delays charged by permutation migrations
        self._delays: Dict[int, int] = {}
        self._has_stops = any(t.stop_time is not None for t in threads)
        # threads that departed via stop_time (VM churn)
        self._retired: set = set()
        # run state shared with rebind_thread (filled in by run)
        self._pending: Dict[int, tuple] = {}
        self._heap: List[Tuple[int, int]] = []
        self._quantum_left: Dict[int, int] = {}
        self._bind = None
        self.qos_rebinds = 0

    def _think(self, core: int, think: int) -> int:
        """Think cycles as spent on ``core`` (scaled when heterogeneous)."""
        inv = self._inv_speeds
        return think if inv is None else int(think * inv[core])

    # ------------------------------------------------------------------
    # actuators for epoch control hooks (repro.sched / repro.qos)
    # ------------------------------------------------------------------

    def run_queues(self) -> Dict[int, List[int]]:
        """Snapshot of each busy core's run queue (head = running).

        On a single-slot run every queue holds its one thread.  Queues
        drained by departed (churned) threads are omitted: those cores
        are idle.
        """
        threads = self.threads
        return {threads[queue[0]].core_id: list(queue)
                for queue in self._queues.values() if queue}

    def apply_migrations(
        self, moves: Dict[int, int], now: int, penalty: int = 0
    ) -> int:
        """Atomically rebind threads to new cores (single-slot runs).

        ``moves`` maps thread id to destination core.  The post-move
        binding must still place at most one thread per core (swaps
        are expressed by moving both parties), otherwise
        :class:`SimulationError` — schedulers are expected to propose
        valid permutations.  Each moved thread is charged ``penalty``
        cycles before its next issue, modelling the cold-cache /
        context-transfer cost of the migration.  Returns the number of
        threads actually moved (no-op moves are skipped).
        """
        if self.overcommitted:
            raise SimulationError(
                "apply_migrations permutes single-slot bindings; an "
                "over-committed run moves waiting threads with "
                "rebind_thread"
            )
        real = {
            tid: core
            for tid, core in moves.items()
            if tid in self.threads
            and tid not in self._retired
            and self.threads[tid].core_id != core
        }
        if not real:
            return 0
        new_core = {
            t.thread_id: t.core_id
            for t in self.threads.values()
            if t.thread_id not in self._retired
        }
        new_core.update(real)
        if len(set(new_core.values())) != len(new_core):
            raise SimulationError(
                "conflicting migration would bind two threads to one "
                f"core; proposed moves: {sorted(real.items())}"
            )
        for tid, core in real.items():
            self.threads[tid].core_id = core
            if penalty:
                self._delays[tid] = self._delays.get(tid, 0) + penalty
        return len(real)

    def rebind_thread(self, tid: int, core: int, now: int):
        """Move a *waiting* thread to another core's run queue.

        Returns ``None`` when the move is refused (unknown thread, a
        no-op move, or the thread is at the head of its queue — i.e.
        running; every thread of a single-slot run is), ``True`` when
        the thread became the head of a previously idle core (which
        gets a fresh heap entry, a switch penalty and the VM binding),
        and ``False`` when it joined the tail of a busy queue and will
        run at a future rotation.
        """
        thread = self.threads.get(tid)
        if thread is None or core == thread.core_id or not self.overcommitted:
            return None
        source = self._queues.get(thread.core_id)
        if not source or source[0] == tid or tid not in source:
            return None
        source.remove(tid)
        target = self._queues.setdefault(core, deque())
        became_head = not target
        target.append(tid)
        thread.core_id = core
        self.qos_rebinds += 1
        if became_head:
            self._quantum_left[core] = self.quantum_refs
            heapq.heappush(
                self._heap,
                (now + self.switch_penalty
                 + self._think(core, self._pending[tid][2]), core),
            )
            if self._bind is not None:
                self._bind(core, thread.vm_id)
        return became_head

    # ------------------------------------------------------------------

    def run(self) -> EngineResult:
        """Execute until every VM has completed its measured references.

        The heap is keyed on each queue's next *issue* time (its ready
        time plus the pending reference's think time), so references
        hit shared resources in globally non-decreasing time order —
        the property the FIFO contention servers rely on.
        """
        threads = self.threads
        queues = self._queues
        inv = self._inv_speeds
        pending = self._pending
        for tid in sorted(threads):
            ref = next(threads[tid].references, None)
            if ref is None:
                raise SimulationError(
                    f"thread {tid} reference stream ended; workload "
                    "generators must be infinite (restart on completion)"
                )
            pending[tid] = ref

        heap = self._heap
        quantum_left = self._quantum_left
        quantum = self.quantum_refs
        penalty = self.switch_penalty
        # keep the machine's core->VM attribution in step with the
        # running thread so occupancy snapshots stay meaningful
        bind = self._bind = getattr(self.machine, "bind_core_to_vm", None)
        for key, queue in queues.items():
            head = threads[queue[0]]
            if bind is not None:
                bind(head.core_id, head.vm_id)
            heap.append((head.start_time + self._think(
                head.core_id, pending[head.thread_id][2]), key))
            quantum_left[key] = quantum
        heapq.heapify(heap)

        vm_pending: Dict[int, int] = {}
        for thread in threads.values():
            vm_pending[thread.vm_id] = vm_pending.get(thread.vm_id, 0) + 1
        vm_completion: Dict[int, int] = {}
        pending_vms = len(vm_pending)

        probe = self.probe
        control = self.control
        # the hook only acts at control-epoch boundaries, so the hot
        # loop gates on its published next-due cycle: an int compare
        # per step instead of a Python call into an early-returning
        # on_step
        control_due = control.next_due if control is not None else None
        rotating = self.overcommitted
        delays = self._delays
        has_stops = self._has_stops
        steps = 0
        context_switches = 0
        while pending_vms > 0:
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"engine exceeded {self.max_steps} steps without all "
                    f"VMs completing; {pending_vms} VM(s) still pending"
                )
            issue_time, key = heapq.heappop(heap)
            if probe is not None:
                probe.on_step(issue_time)
            if control_due is not None and issue_time >= control_due:
                # the hook may migrate threads; on an over-committed
                # run it never moves a queue's running head
                control.on_step(issue_time)
                control_due = control.next_due
            queue = queues[key]
            tid = queue[0]
            if delays:
                # a permutation migration charged this thread a
                # one-shot cost: push its issue out and retry
                extra = delays.pop(tid, 0)
                if extra:
                    heapq.heappush(heap, (issue_time + extra, key))
                    continue
            thread = threads[tid]
            core = thread.core_id
            if has_stops and thread.stop_time is not None \
                    and issue_time >= thread.stop_time:
                # VM churn: the thread departs at its first issue past
                # stop_time.  A truncated measured window completes at
                # departure.  The next queued thread takes the core
                # (one switch penalty); a drained queue idles the core
                # until a scheduler migrates a thread onto it.
                queue.popleft()
                self._retired.add(tid)
                if thread.completion_time is None:
                    thread.completion_time = issue_time
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = issue_time
                        pending_vms -= 1
                        if probe is not None:
                            probe.on_vm_complete(vm, issue_time)
                if queue:
                    next_thread = threads[queue[0]]
                    quantum_left[key] = quantum
                    context_switches += 1
                    if bind is not None and next_thread.vm_id != thread.vm_id:
                        bind(core, next_thread.vm_id)
                    heapq.heappush(heap, (
                        issue_time + penalty + self._think(
                            core, pending[next_thread.thread_id][2]),
                        key))
                continue
            block, access, think = pending[tid]
            result = self.machine.access(core, block, bool(access), issue_time)
            finish = issue_time + result.latency + 1  # +1: the access itself

            index = thread.issued
            thread.issued += 1
            window_start = thread.warmup_refs
            window_end = window_start + thread.measured_refs
            if window_start <= index < window_end:
                if inv is not None:
                    # charge the think cycles the thread actually spent
                    # on its (possibly slow) core
                    think = int(think * inv[core])
                thread.stats.record(access, think, result)
                if thread.issued == window_end:
                    thread.completion_time = finish
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = finish
                        pending_vms -= 1
                        if probe is not None:
                            probe.on_vm_complete(vm, finish)
            next_ref = next(thread.references, None)
            if next_ref is None:
                raise SimulationError(
                    f"thread {tid} reference stream ended; workload "
                    "generators must be infinite (restart on completion)"
                )
            pending[tid] = next_ref
            if rotating:
                left = quantum_left[key] - 1
                if left <= 0:
                    left = quantum
                    if len(queue) > 1:
                        queue.rotate(-1)
                        finish += penalty
                        context_switches += 1
                        next_ref = pending[queue[0]]
                        next_vm = threads[queue[0]].vm_id
                        if bind is not None and next_vm != thread.vm_id:
                            bind(core, next_vm)
                quantum_left[key] = left
            next_think = next_ref[2]
            if inv is not None:
                next_think = int(next_think * inv[core])
            heapq.heappush(heap, (finish + next_think, key))

        # The run "finishes" when the last VM completes: the maximum
        # completion time.  (The last *popped* issue_time undercounts
        # the completing access's latency and is not necessarily the
        # largest completion across VMs.)
        final_time = max(vm_completion.values())
        if probe is not None:
            probe.finish(final_time)
        if control is not None:
            control.finish(final_time)
        result = EngineResult(
            final_time=final_time,
            vm_completion_times=vm_completion,
            thread_stats={tid: t.stats for tid, t in threads.items()},
            total_refs_processed=steps,
            context_switches=context_switches,
        )
        result._vm_of = {tid: t.vm_id for tid, t in threads.items()}
        return result
