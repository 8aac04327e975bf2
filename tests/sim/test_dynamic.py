"""Tests for dynamic thread rebinding (migration) on the reference engine.

Permutation migrations go through :meth:`Engine.apply_migrations`; the
Section VII churn and affinity-healing studies are the ``churn`` and
``heal`` scheduling policies driven by a :class:`SchedHook`.
"""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sched import AffinityHealing, RandomChurn, SchedHook, SchedView
from repro.sched.policies import SchedDecision, Scheduler
from repro.sched.signals import SchedWindow, ThreadDelta
from repro.sim.engine import Engine, ThreadContext
from repro.sim.records import AccessResult, HitLevel
from repro.sim.rng import RngFactory


class RecordingMachine:
    def __init__(self, latency=9):
        self.latency = latency
        self.calls = []
        self.bindings = []

    def access(self, core_id, block, is_write, now):
        self.calls.append((core_id, now))
        return AccessResult(HitLevel.L0, self.latency, self.latency, 0, 0, 0)

    def bind_core_to_vm(self, core, vm):
        self.bindings.append((core, vm))


class RecordingHypervisor:
    def __init__(self, machine):
        self.machine = machine

    def rebind_thread(self, context, core, previous=-1, bind_core=True):
        context.core_id = core
        if bind_core:
            self.machine.bind_core_to_vm(core, context.vm_id)


def refs():
    return itertools.cycle([(1, 0, 0)])


def thread(tid, vm=0, core=0, measured=500):
    return ThreadContext(tid, vm, core, refs(), measured_refs=measured)


class FixedMove(Scheduler):
    """Moves thread 0 to a given core once, then does nothing."""

    name = "fixed"

    def __init__(self, target_core):
        super().__init__()
        self.target_core = target_core
        self.fired = False

    def decide(self, window):
        if self.fired:
            return SchedDecision()
        self.fired = True
        return SchedDecision({0: self.target_core})


def run_with_hook(machine, threads, policy, epoch=500, penalty=1_000,
                  hypervisor=None):
    hook = SchedHook(machine, threads, policy, epoch=epoch,
                     migration_penalty=penalty, hypervisor=hypervisor)
    engine = Engine(machine, threads, control=hook)
    hook.bind_actuator(engine)
    return hook, engine.run()


class TestMigratingEngine:
    def test_migration_changes_issuing_core(self):
        machine = RecordingMachine()
        hook, _ = run_with_hook(machine, [thread(0, core=0, measured=400)],
                                FixedMove(7), penalty=0)
        cores = {c for c, _t in machine.calls}
        assert cores == {0, 7}
        assert hook.migrations == 1

    def test_migration_penalty_delays_next_issue(self):
        def final_time(penalty):
            machine = RecordingMachine()
            _, result = run_with_hook(machine, [thread(0, measured=400)],
                                      FixedMove(7), penalty=penalty)
            return result.final_time

        assert final_time(50_000) > final_time(0)

    def test_vm_binding_updated_on_migration(self):
        machine = RecordingMachine()
        run_with_hook(machine, [thread(0, vm=3, measured=400)],
                      FixedMove(7), hypervisor=RecordingHypervisor(machine))
        assert (7, 3) in machine.bindings

    def test_conflicting_rebind_rejected(self):
        engine = Engine(RecordingMachine(),
                        [thread(0, core=0), thread(1, core=1)])
        with pytest.raises(SimulationError, match="conflict"):
            engine.apply_migrations({0: 5, 1: 5}, now=0)

    def test_stats_complete_despite_migration(self):
        machine = RecordingMachine()
        _, result = run_with_hook(machine, [thread(0, measured=400)],
                                  FixedMove(3), epoch=300)
        assert result.thread_stats[0].refs == 400

    def test_validation(self):
        with pytest.raises(SimulationError):
            Engine(RecordingMachine(), [])
        with pytest.raises(SimulationError):
            Engine(RecordingMachine(), [thread(0, core=2), thread(1, core=2)])
        overcommitted = Engine(RecordingMachine(),
                               [thread(0, core=2), thread(1, core=2)],
                               slots_per_core=2)
        with pytest.raises(SimulationError, match="rebind_thread"):
            overcommitted.apply_migrations({1: 3}, now=0)


def _window(threads, domain_of_core=None):
    return SchedWindow(
        now=0,
        threads={t.thread_id: ThreadDelta(t.thread_id, t.vm_id, t.core_id,
                                           0, 0, 0, 0, 0, 0)
                 for t in threads},
        vms={}, domain_queues=None, queues=None,
        domain_of_core=domain_of_core,
    )


def _churn(num_cores=16, slots_per_core=1):
    policy = RandomChurn()
    policy.attach(SchedView(num_cores=num_cores,
                            slots_per_core=slots_per_core,
                            rng=RngFactory(1).stream("r")))
    return policy


class TestRandomRebinder:
    """The ``churn`` policy: a random re-deal every epoch."""

    def test_permutation_is_conflict_free(self):
        threads = [thread(i, core=i) for i in range(10)]
        moves = _churn().decide(_window(threads)).migrations
        new_cores = [moves.get(t.thread_id, t.core_id) for t in threads]
        assert len(set(new_cores)) == len(new_cores)

    def test_deterministic_per_stream(self):
        a = _churn().decide(_window([thread(i, core=i) for i in range(8)]))
        b = _churn().decide(_window([thread(i, core=i) for i in range(8)]))
        assert a.migrations == b.migrations

    def test_needs_a_seeded_stream(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="sched"):
            RandomChurn().attach(SchedView(num_cores=4))


class TestAffinityRebinder:
    """The ``heal`` policy: pack each VM into its dominant domain."""

    # 4 domains of 4 cores (0-3, 4-7, 8-11, 12-15)
    DOMAIN_OF = [i // 4 for i in range(16)]

    def test_consolidates_scattered_vm(self):
        # VM 0 scattered across all domains
        threads = [thread(i, vm=0, core=i * 4) for i in range(4)]
        moves = AffinityHealing().decide(
            _window(threads, self.DOMAIN_OF)).migrations
        new_cores = [moves.get(t.thread_id, t.core_id) for t in threads]
        domains = {self.DOMAIN_OF[c] for c in new_cores}
        assert len(domains) == 1

    def test_already_affine_vm_untouched(self):
        threads = [thread(i, vm=0, core=i) for i in range(4)]
        moves = AffinityHealing().decide(
            _window(threads, self.DOMAIN_OF)).migrations
        # threads may be shuffled within the domain but never leave it
        for tid, core in moves.items():
            assert self.DOMAIN_OF[core] == 0


class TestSpecIntegration:
    def test_rebind_through_spec(self):
        from repro.core.experiment import ExperimentSpec, run_experiment

        result = run_experiment(ExperimentSpec(
            mix="iso-tpch", sched_policy="churn", sched_epoch=30_000,
            seed=1, measured_refs=1200, warmup_refs=300), use_cache=False)
        assert result.vm_metrics[0].refs == 4800
        assert result.sched["migrations"] > 0

    def test_churn_composes_with_overcommit(self):
        from repro.core.experiment import ExperimentSpec, run_experiment

        result = run_experiment(ExperimentSpec(
            mix="mixC", sched_policy="churn", sched_epoch=5_000,
            slots_per_core=2, policy="affinity", seed=1,
            measured_refs=400, warmup_refs=100), use_cache=False)
        assert result.sched["control_epochs"] > 0
        assert [vm.refs for vm in result.vm_metrics] == [1600] * 4

    def test_churn_honours_core_speeds(self):
        from repro.core.experiment import ExperimentSpec, run_experiment

        def final_time(core_speeds):
            return run_experiment(ExperimentSpec(
                mix="mixC", policy="random", sched_policy="churn",
                sched_epoch=20_000, core_speeds=core_speeds, seed=1,
                measured_refs=400, warmup_refs=100),
                use_cache=False).final_time

        assert final_time("1.0x8,0.25x8") != final_time("")
