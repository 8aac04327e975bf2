"""The zero-perturbation guarantee, enforced.

A run instrumented with a live telemetry hub and epoch probe must
produce *bit-identical* simulation results to the same run under the
default null hub — telemetry only ever reads simulator state.  The
comparison goes through :func:`repro.analysis.persist.result_to_dict`,
the exact byte layout persisted by the result store, so any drift in
any serialized field fails here.
"""

import json

import pytest

from repro.analysis.persist import result_to_dict
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import spec_key
from repro.obs.telemetry import Telemetry

SPEC = ExperimentSpec(mix="mix5", measured_refs=400, warmup_refs=100, seed=7)


def canonical(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestDeterminismGuard:
    def test_telemetry_run_bit_identical_to_null_run(self):
        plain = run_experiment(SPEC, use_cache=False)
        hub = Telemetry()
        probed = run_experiment(SPEC, use_cache=False, telemetry=hub,
                                epoch=500)
        # the probe actually sampled something...
        assert probed.series
        assert any(name.startswith("vm0.") for name in probed.series)
        # ...and the serialized result is byte-for-byte the same
        assert canonical(plain) == canonical(probed)

    def test_series_excluded_from_result_codec(self):
        hub = Telemetry()
        probed = run_experiment(SPEC, use_cache=False, telemetry=hub,
                                epoch=500)
        assert probed.series is not None
        assert "series" not in result_to_dict(probed)

    def test_telemetry_does_not_change_store_keys(self):
        # keys are derived from the spec alone; telemetry flags are
        # runtime options, not spec fields
        assert spec_key(SPEC) == spec_key(
            ExperimentSpec(mix="mix5", measured_refs=400, warmup_refs=100,
                           seed=7))

    def test_telemetry_without_epoch_is_also_identical(self):
        plain = run_experiment(SPEC, use_cache=False)
        traced = run_experiment(SPEC, use_cache=False, telemetry=Telemetry())
        assert traced.series is None
        assert canonical(plain) == canonical(traced)

    def test_distributed_tracing_is_also_zero_perturbation(self, tmp_path):
        # the executor under a live Tracer (spans + durable log) must
        # produce the same bytes as a bare run of the same specs
        from repro.core.executor import SweepExecutor
        from repro.core.store import ResultStore
        from repro.obs.tracing import Tracer

        cells = [(("cell",), SPEC)]
        plain_store = ResultStore()
        SweepExecutor(jobs=1, store=plain_store).run(cells)

        traced_store = ResultStore()
        tracer = Tracer("det-test", log_dir=tmp_path)
        SweepExecutor(jobs=1, store=traced_store,
                      tracer=tracer).run(cells)

        assert tracer.spans(), "tracer recorded nothing"
        assert canonical(plain_store.get(SPEC)) == \
            canonical(traced_store.get(SPEC))


_SHAPES = {
    "single-slot": dict(mix="mix1"),
    "overcommit": dict(mix="mix1", slots_per_core=2),
    "single-slot-sched": dict(mix="mix1", sched_policy="contention"),
    "overcommit-sched-scenario": dict(
        mix="scn-diurnal-web", scenario="diurnal-web", slots_per_core=2,
        sched_policy="adaptive"),
    "batched": dict(mix="mix1", engine_mode="batched"),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_every_engine_shape_returns_epoch_series(shape):
    spec = ExperimentSpec(measured_refs=300, warmup_refs=100, seed=1,
                          **_SHAPES[shape])
    probed = run_experiment(spec, use_cache=False, telemetry=Telemetry(),
                            epoch=2000)
    assert probed.series
    assert any(points for points in probed.series.values())
    # the probe stays read-only on every shape
    assert canonical(probed) == canonical(run_experiment(spec,
                                                         use_cache=False))
