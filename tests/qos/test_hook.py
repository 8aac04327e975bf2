"""Tests for the epoch-boundary QoS hook and its actuation paths."""

import itertools

import pytest

from repro.caches.partitioning import WayQuota
from repro.obs.telemetry import Telemetry
from repro.qos.controllers import QosController, QosDecision, StaticEqual
from repro.qos.hook import QosHook
from repro.sim.engine import Engine, ThreadContext
from repro.sim.records import AccessResult, HitLevel
from repro.vm.hypervisor import Hypervisor


class FakeDomain:
    def __init__(self):
        self.quota = None

    def set_quota(self, quota):
        self.quota = quota


class FakeConfig:
    l2_assoc = 4
    num_cores = 4

    @staticmethod
    def l2_geometry():
        from repro.caches.geometry import CacheGeometry
        return CacheGeometry(size_bytes=4 * 64 * 8, assoc=4, latency=1)


class FakeChip:
    """Two L2 domains, cores striped across them (core % 2)."""

    def __init__(self):
        self.config = FakeConfig()
        self.domains = {0: FakeDomain(), 1: FakeDomain()}
        self.tap = None
        self.bindings = []

    def domain_of_core(self, core):
        return core % 2

    def set_l2_tap(self, tap):
        self.tap = tap

    def bind_core_to_vm(self, core, vm):
        self.bindings.append((core, vm))


class ScriptedController(QosController):
    """Replays a fixed list of decisions, then holds."""

    name = "scripted"

    def __init__(self, decisions):
        super().__init__()
        self.decisions = list(decisions)
        self.windows = []

    def decide(self, window):
        self.windows.append(window)
        if self.decisions:
            return self.decisions.pop(0)
        return QosDecision()


def contexts(spec=((0, 0), (1, 2))):
    """Thread contexts: one thread per (vm, core) pair."""
    return [
        ThreadContext(tid, vm, core, itertools.cycle([(tid, 0, 0)]),
                      measured_refs=10)
        for tid, (vm, core) in enumerate(spec)
    ]


def hook(controller=None, chip=None, threads=None,
         assignments=((0, 1), (2, 3)), epoch=100, **kw):
    # assignments (0,1)/(2,3) with core%2 domains put both VMs in both
    # domains, so every domain gets partitioned
    chip = chip or FakeChip()
    return QosHook(chip, threads or contexts(), controller or StaticEqual(),
                   [list(a) for a in assignments], epoch=epoch, **kw)


class TestConstruction:
    def test_rejects_non_positive_epoch(self):
        with pytest.raises(ValueError):
            hook(epoch=0)

    def test_installs_equal_quotas_on_shared_domains(self):
        chip = FakeChip()
        h = hook(chip=chip)
        assert set(h.quotas) == {0, 1}
        for domain_id, quota in h.quotas.items():
            assert isinstance(quota, WayQuota)
            assert quota.quotas == {0: 2, 1: 2}
            assert chip.domains[domain_id].quota is quota

    def test_single_vm_domains_stay_unpartitioned(self):
        chip = FakeChip()
        # vm0 on even cores, vm1 on odd cores: one VM per domain
        h = hook(chip=chip, assignments=((0, 2), (1, 3)))
        assert h.quotas == {}
        assert chip.domains[0].quota is None

    def test_plain_controllers_leave_the_tap_alone(self):
        chip = FakeChip()
        hook(chip=chip)
        assert chip.tap is None


class TestEpochCadence:
    def test_fires_on_epoch_boundaries_only(self):
        controller = ScriptedController([])
        h = hook(controller=controller, epoch=100)
        h.on_step(50)
        assert controller.windows == []
        h.on_step(100)
        assert len(controller.windows) == 1
        h.on_step(150)
        assert len(controller.windows) == 1
        assert h.next_due == 200

    def test_realigns_after_a_long_stall(self):
        controller = ScriptedController([])
        h = hook(controller=controller, epoch=100)
        h.on_step(350)  # one control cycle, not three
        assert len(controller.windows) == 1
        assert h.next_due == 450  # relative to the actual control instant
        assert h.control_epochs == 1

    def test_off_grid_control_never_yields_sub_epoch_window(self):
        # Regression: snapping next_due back to the epoch grid after an
        # off-grid control cycle (350 → next_due 400) produced a 50-cycle
        # sensing window.  Consecutive control instants must always be at
        # least one full epoch apart.
        controller = ScriptedController([])
        h = hook(controller=controller, epoch=100)
        fired = []
        for now in (350, 380, 400, 449, 450, 551):
            before = h.control_epochs
            h.on_step(now)
            if h.control_epochs > before:
                fired.append(now)
        assert fired == [350, 450, 551]
        assert all(b - a >= 100 for a, b in zip(fired, fired[1:]))


class TestQuotaActuation:
    def test_applies_decided_quotas_to_live_partitions(self):
        controller = ScriptedController(
            [QosDecision(quotas={0: {0: 3, 1: 1}})])
        h = hook(controller=controller)
        h.on_step(100)
        assert h.quotas[0].quotas == {0: 3, 1: 1}
        assert h.quotas[1].quotas == {0: 2, 1: 2}  # untouched domain
        assert h.adjustments == 2

    def test_noop_rewrites_are_not_adjustments(self):
        controller = ScriptedController(
            [QosDecision(quotas={0: {0: 2, 1: 2}})])
        h = hook(controller=controller)
        h.on_step(100)
        assert h.adjustments == 0

    def test_unknown_domains_in_a_decision_are_ignored(self):
        controller = ScriptedController(
            [QosDecision(quotas={9: {0: 3, 1: 1}})])
        h = hook(controller=controller)
        h.on_step(100)
        assert h.adjustments == 0

    def test_static_equal_changes_nothing_over_many_epochs(self):
        h = hook(controller=StaticEqual())
        for now in range(100, 1000, 100):
            h.on_step(now)
        assert h.adjustments == 0
        assert h.control_epochs == 9


class TestTelemetryAndSummary:
    def test_counters_and_series_reach_the_hub(self):
        hub = Telemetry()
        controller = ScriptedController(
            [QosDecision(quotas={0: {0: 3, 1: 1}})])
        h = hook(controller=controller, telemetry=hub)
        h.on_step(100)
        h.on_step(200)
        h.finish(250)
        assert hub.counter("qos.control_epochs").value == 2
        assert hub.counter("qos.adjustments").value == 2
        # per-VM allocated-ways series recorded at every control epoch
        assert len(hub.series_for("qos.vm0.ways").times) == 2
        assert hub.series_for("qos.vm0.ways").values[-1] == 5.0  # 3 + 2

    def test_finish_detaches_the_tap(self):
        from repro.qos.controllers import UcpLookahead

        chip = FakeChip()
        h = hook(controller=UcpLookahead(), chip=chip)
        assert chip.tap is not None
        h.finish(1000)
        assert chip.tap is None

    def test_summary_shape(self):
        h = hook(controller=ScriptedController(
            [QosDecision(quotas={0: {0: 3, 1: 1}})]))
        h.on_step(100)
        summary = h.summary()
        assert summary["policy"] == "scripted"
        assert summary["epoch"] == 100
        assert summary["control_epochs"] == 1
        assert summary["quota_adjustments"] == 2
        assert summary["rebinds"] == 0
        # JSON-friendly: string keys throughout
        assert summary["final_quotas"]["0"] == {"0": 3, "1": 1}


class RecordingMachine:
    def __init__(self, latency=4):
        self.latency = latency
        self.bindings = []

    def access(self, core_id, block, is_write, now):
        return AccessResult(HitLevel.L0, self.latency, self.latency, 0, 0, 0)

    def bind_core_to_vm(self, core, vm):
        self.bindings.append((core, vm))


class TestOvercommitRebind:
    def run_engine(self, decisions, thread_spec=((0, 0), (0, 0), (1, 0)),
                   epoch=10):
        machine = RecordingMachine()
        threads = [
            ThreadContext(tid, vm, core, itertools.cycle([(tid, 0, 0)]),
                          measured_refs=40)
            for tid, (vm, core) in enumerate(thread_spec)
        ]
        controller = ScriptedController(decisions)
        # all threads start on domain-0 cores; chip partitioning is not
        # under test here, only the run-queue actuation.  epoch=10 fires
        # the first control cycle inside thread 0's first quantum, while
        # threads 1 and 2 are still waiting in the queue.
        h = QosHook(FakeChip(), threads, controller, [[0], [0]], epoch=epoch)
        engine = Engine(machine, threads, slots_per_core=3, quantum_refs=5,
                        switch_penalty=10, control=h)
        h.bind_actuator(engine)
        result = engine.run()
        return h, engine, threads, result

    def test_waiting_thread_migrates_to_an_idle_core(self):
        h, engine, threads, result = self.run_engine(
            [QosDecision(rebinds={1: 1})])
        assert threads[1].core_id == 1
        assert h.rebinds == 1
        assert engine.qos_rebinds == 1
        # the migrated thread still finishes its measured window
        assert result.thread_stats[1].refs == 40

    def test_active_thread_is_never_moved(self):
        # thread 0 heads core 0's queue when the first epoch fires
        h, engine, threads, result = self.run_engine(
            [QosDecision(rebinds={0: 1})])
        assert threads[0].core_id == 0
        assert h.rebinds == 0
        assert engine.qos_rebinds == 0

    def test_unknown_thread_refused(self):
        h, engine, threads, result = self.run_engine(
            [QosDecision(rebinds={42: 1})])
        assert h.rebinds == 0

    def test_controller_sees_run_queues(self):
        h, engine, threads, result = self.run_engine([])
        controller = h.controller
        assert controller.windows, "control epochs fired"
        queues = controller.windows[0].queues
        assert queues is not None and 0 in queues
        assert set(queues[0]) <= {0, 1, 2}


class FakeVm:
    def __init__(self, vm_id, cores):
        self.vm_id = vm_id
        self.cores = list(cores)


class TestHypervisorRebind:
    def hypervisor(self):
        hv = Hypervisor.__new__(Hypervisor)
        hv.chip = FakeChip()
        hv.vms = [FakeVm(0, [0, 2])]
        return hv

    def thread(self, core=2):
        return ThreadContext(0, 0, core, itertools.cycle([(0, 0, 0)]),
                             measured_refs=1)

    def test_moves_the_binding_and_core_list(self):
        hv = self.hypervisor()
        ctx = self.thread(core=2)
        hv.rebind_thread(ctx, 3)
        assert ctx.core_id == 3
        assert hv.vms[0].cores == [0, 3]
        assert hv.chip.bindings == [(3, 0)]

    def test_explicit_previous_core_wins(self):
        # the engine already rewrote context.core_id; the caller passes
        # the pre-move core so the VM's core list stays consistent
        hv = self.hypervisor()
        ctx = self.thread(core=3)  # already moved by the engine
        hv.rebind_thread(ctx, 3, previous=2)
        assert hv.vms[0].cores == [0, 3]

    def test_bind_core_false_skips_chip_attribution(self):
        hv = self.hypervisor()
        ctx = self.thread(core=2)
        hv.rebind_thread(ctx, 3, bind_core=False)
        assert hv.chip.bindings == []

    def test_out_of_range_core_rejected(self):
        from repro.errors import SchedulingError

        hv = self.hypervisor()
        with pytest.raises(SchedulingError):
            hv.rebind_thread(self.thread(), 99)
