"""Tests for the unified engine factory and its capability gating."""

import pytest

from repro.core.experiment import ExperimentSpec, engine_needs, resolve_defaults
from repro.core.store import result_from_dict, result_to_dict
from repro.errors import ConfigurationError
from repro.sim import (
    CAPABILITIES,
    Engine,
    EngineRequest,
    engine_modes,
    make_engine,
    register_engine,
    resolve_mode,
)
from repro.sim.factory import _REGISTRY

OVERCOMMIT = frozenset({"overcommit"})
MIGRATION = frozenset({"migration"})


class _FakeMachine:
    """Just enough machine for reference-engine construction."""

    def access(self, *a, **k):  # pragma: no cover - never driven
        raise AssertionError("not simulated in factory tests")


def _threads(count=1):
    from itertools import count as _count

    from repro.sim import MemoryReference, ThreadContext

    def stream():
        for block in _count():
            yield MemoryReference(block, 0, 0)

    return [
        ThreadContext(thread_id=i, vm_id=0, core_id=i,
                      references=stream(), measured_refs=10,
                      warmup_refs=0)
        for i in range(count)
    ]


class TestResolveMode:
    def test_unknown_mode_raises_and_names_choices(self):
        with pytest.raises(ConfigurationError, match="unknown engine mode"):
            resolve_mode("warp-speed")
        with pytest.raises(ConfigurationError, match="batched"):
            resolve_mode("warp-speed")

    def test_auto_prefers_batched_for_plain_shape(self):
        # numpy is importable in the test environment
        assert resolve_mode("auto") == "batched"

    def test_auto_falls_back_for_overcommit(self):
        assert resolve_mode("auto", OVERCOMMIT) == "reference"

    def test_auto_falls_back_for_rebind(self):
        assert resolve_mode("auto", MIGRATION) == "reference"

    @pytest.mark.parametrize("need", sorted(CAPABILITIES))
    def test_auto_picks_reference_for_every_capability(self, need):
        assert resolve_mode("auto", frozenset({need})) == "reference"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.sim.factory.HAVE_NUMPY", False)
        assert resolve_mode("auto") == "reference"

    def test_explicit_batched_honoured_without_numpy(self, monkeypatch):
        # the pure-Python fallback exists; only *auto* avoids it
        monkeypatch.setattr("repro.sim.factory.HAVE_NUMPY", False)
        assert resolve_mode("batched") == "batched"

    def test_concrete_modes_pass_through(self):
        assert resolve_mode("reference") == "reference"
        assert resolve_mode("batched") == "batched"

    def test_modes_listing_leads_with_auto(self):
        modes = engine_modes()
        assert modes[0] == "auto"
        assert "reference" in modes and "batched" in modes


class TestMakeEngine:
    def test_reference_plain_shape_builds_engine(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads()),
            mode="reference")
        assert isinstance(engine, Engine)

    def test_reference_overcommit_builds_overcommit(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          slots_per_core=2, needs=OVERCOMMIT),
            mode="reference")
        assert isinstance(engine, Engine)
        assert engine.overcommitted

    def test_reference_rebinder_builds_migrating(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          needs=MIGRATION),
            mode="reference")
        assert isinstance(engine, Engine)
        assert not engine.overcommitted
        assert engine.apply_migrations({0: 1}, now=0) == 1

    def test_batched_rejects_overcommit(self):
        with pytest.raises(ConfigurationError, match="'overcommit'"):
            make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads(),
                              slots_per_core=2, needs=OVERCOMMIT),
                mode="batched")

    def test_batched_rejects_rebinder(self):
        with pytest.raises(ConfigurationError, match="'migration'"):
            make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads(),
                              needs=MIGRATION),
                mode="batched")

    def test_batched_error_names_every_missing_capability(self):
        with pytest.raises(ConfigurationError,
                           match="'churn'.*'heterogeneous'"):
            make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads(),
                              needs=frozenset({"heterogeneous", "churn"})),
                mode="batched")

    def test_auto_with_overcommit_resolves_to_reference(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          slots_per_core=2, needs=OVERCOMMIT),
            mode="auto")
        assert isinstance(engine, Engine)
        assert engine.overcommitted


class TestEngineNeeds:
    @pytest.mark.parametrize("overrides,needs", [
        (dict(), set()),
        (dict(slots_per_core=2), {"overcommit"}),
        (dict(sched_policy="static"), {"migration"}),
        (dict(mix="scn-diurnal-web", scenario="diurnal-web"), {"scenario"}),
        (dict(core_speeds="1.0x8,0.5x8"), {"heterogeneous"}),
        (dict(l2_asym="16x2,8x2"), {"heterogeneous"}),
        (dict(vm_schedule="0,0:9000,0,0"), {"churn"}),
        (dict(qos_policy="ucp"), set()),
    ])
    def test_needs_follow_the_spec(self, overrides, needs):
        spec = ExperimentSpec(**{"mix": "mix1", **overrides})
        assert engine_needs(spec) == needs
        assert set(engine_needs(spec)) <= set(CAPABILITIES)


class TestRegisterEngine:
    def test_unknown_capability_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown capabilities"):
            register_engine("custom-test", lambda request: None,
                            supports=frozenset({"teleport"}))

    def test_custom_mode_round_trips(self):
        sentinel = object()
        register_engine("custom-test", lambda request: sentinel)
        try:
            engine = make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads()),
                mode="custom-test")
            assert engine is sentinel
            assert "custom-test" in engine_modes()
        finally:
            _REGISTRY.pop("custom-test", None)

    def test_auto_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine("auto", lambda request: None)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine("", lambda request: None)


class TestSpecRoundTrip:
    def test_engine_mode_survives_store_codec(self):
        spec = ExperimentSpec(mix="mixA", measured_refs=200, seed=1,
                              engine_mode="batched")
        from repro.core.experiment import run_experiment

        result = run_experiment(spec, use_cache=False)
        revived = result_from_dict(result_to_dict(result))
        assert revived.spec.engine_mode == "batched"
        assert revived.spec == resolve_defaults(spec)

    def test_auto_resolves_before_hashing(self):
        # the store must never key on the ambiguous "auto"
        resolved = resolve_defaults(
            ExperimentSpec(mix="mixA", measured_refs=200, seed=1,
                           engine_mode="auto"))
        assert resolved.engine_mode != "auto"
