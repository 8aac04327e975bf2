"""Tests for over-committed (time-multiplexed) run queues."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine, ThreadContext
from repro.sim.overcommit import OvercommitEngine
from repro.sim.records import AccessResult, HitLevel


class RecordingMachine:
    def __init__(self, latency=4):
        self.latency = latency
        self.calls = []
        self.bindings = []

    def access(self, core_id, block, is_write, now):
        self.calls.append((core_id, block, now))
        return AccessResult(HitLevel.L0, self.latency, self.latency, 0, 0, 0)

    def bind_core_to_vm(self, core, vm):
        self.bindings.append((core, vm))


def refs(seq):
    return itertools.cycle(seq)


def thread(tid, vm=0, core=0, measured=20, block=1, start=0, stop=None):
    return ThreadContext(tid, vm, core, refs([(block, 0, 0)]),
                         measured_refs=measured, start_time=start,
                         stop_time=stop)


def overcommitted(machine, threads, **kwargs):
    return Engine(machine, threads, slots_per_core=2, **kwargs)


class TestTimeMultiplexing:
    def test_two_threads_share_one_core(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, block=1),
                   thread(1, vm=1, core=0, block=2)]
        result = overcommitted(machine, threads, quantum_refs=5,
                               switch_penalty=10).run()
        assert result.thread_stats[0].refs == 20
        assert result.thread_stats[1].refs == 20
        assert result.context_switches >= 7

    def test_interleaving_respects_quantum(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, block=1, measured=10),
                   thread(1, vm=1, core=0, block=2, measured=10)]
        overcommitted(machine, threads, quantum_refs=5,
                      switch_penalty=0).run()
        blocks = [c[1] for c in machine.calls[:20]]
        assert blocks[:5] == [1] * 5
        assert blocks[5:10] == [2] * 5

    def test_switch_penalty_slows_completion(self):
        def completion(penalty):
            machine = RecordingMachine()
            threads = [thread(0, vm=0, core=0, measured=40),
                       thread(1, vm=1, core=0, measured=40)]
            result = overcommitted(machine, threads, quantum_refs=4,
                                   switch_penalty=penalty).run()
            return max(result.vm_completion_times.values())

        assert completion(500) > completion(0)

    def test_sole_thread_never_switches(self):
        machine = RecordingMachine()
        result = overcommitted(machine, [thread(0, measured=30)],
                               quantum_refs=5).run()
        assert result.context_switches == 0

    def test_vm_binding_follows_active_thread(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=10),
                   thread(1, vm=1, core=0, measured=10)]
        overcommitted(machine, threads, quantum_refs=5,
                      switch_penalty=0).run()
        assert (0, 0) in machine.bindings
        assert (0, 1) in machine.bindings

    def test_vm_completion_times_recorded(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=10),
                   thread(1, vm=1, core=1, measured=10)]
        result = overcommitted(machine, threads).run()
        assert set(result.vm_completion_times) == {0, 1}

    def test_start_times_honored(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=5, start=1000)]
        overcommitted(machine, threads).run()
        assert machine.calls[0][2] >= 1000


class TestChurnRetirement:
    """stop_time retires the queue head mid-run (scenario VM churn)."""

    def test_departing_thread_stops_issuing_at_stop_time(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=1000, stop=200),
                   thread(1, vm=1, core=0, block=2, measured=50)]
        result = overcommitted(machine, threads, quantum_refs=5,
                               switch_penalty=0).run()
        assert result.thread_stats[0].refs < 1000
        assert result.thread_stats[1].refs == 50
        departed_issues = [c for c in machine.calls
                           if c[1] == 1 and c[2] >= 200]
        assert not departed_issues

    def test_departure_counts_as_vm_completion(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=1000, stop=200),
                   thread(1, vm=1, core=0, block=2, measured=50)]
        result = overcommitted(machine, threads, quantum_refs=5,
                               switch_penalty=0).run()
        assert result.vm_completion_times[0] >= 200
        assert result.vm_completion_times[0] <= \
            result.vm_completion_times[1]

    def test_next_queued_thread_takes_the_core(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=1000, stop=50),
                   thread(1, vm=1, core=0, block=2, measured=30)]
        engine = overcommitted(machine, threads, quantum_refs=1000,
                               switch_penalty=0)
        result = engine.run()
        # with a quantum longer than the run, the only switch is the
        # handover at retirement
        assert result.context_switches == 1
        assert (0, 1) in machine.bindings
        assert result.thread_stats[1].refs == 30

    def test_drained_queue_idles_its_core(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=1000, stop=50),
                   thread(1, vm=1, core=1, block=2, measured=40)]
        engine = overcommitted(machine, threads, quantum_refs=5,
                               switch_penalty=0)
        result = engine.run()
        assert result.thread_stats[1].refs == 40
        assert 0 not in engine.run_queues()
        assert engine.run_queues()[1] == [1]

    def test_no_stop_times_is_the_fast_path(self):
        machine = RecordingMachine()
        threads = [thread(0, vm=0, core=0, measured=10),
                   thread(1, vm=1, core=0, block=2, measured=10)]
        engine = overcommitted(machine, threads, quantum_refs=5,
                               switch_penalty=0)
        assert not engine._has_stops
        result = engine.run()
        assert result.thread_stats[0].refs == 10
        assert result.thread_stats[1].refs == 10


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            overcommitted(RecordingMachine(), [])

    def test_bad_quantum(self):
        with pytest.raises(SimulationError):
            overcommitted(RecordingMachine(), [thread(0)], quantum_refs=0)

    def test_bad_penalty(self):
        with pytest.raises(SimulationError):
            overcommitted(RecordingMachine(), [thread(0)],
                          switch_penalty=-1)

    def test_max_steps_guard(self):
        engine = overcommitted(RecordingMachine(),
                               [thread(0, measured=100)], max_steps=3)
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run()


class TestOvercommitSubclass:
    def test_subclass_runs_the_same_loop(self):
        def outcome(factory):
            machine = RecordingMachine()
            threads = [thread(0, vm=0, core=0, measured=30),
                       thread(1, vm=1, core=0, block=2, measured=30),
                       thread(2, vm=1, core=0, block=3, measured=30)]
            result = factory(machine, threads, quantum_refs=4,
                             switch_penalty=7).run()
            return machine.calls, result.final_time, result.context_switches

        assert outcome(OvercommitEngine) == outcome(
            lambda m, t, **kw: Engine(m, t, slots_per_core=3, **kw))
        # its own class-dict entry: tracers wrap it apart from Engine.run
        assert "run" in OvercommitEngine.__dict__
