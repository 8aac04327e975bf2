"""Byte pins for the reference engine across run shapes.

The determinism guards elsewhere compare two runs of the same code, so
they cannot see a change that moves both runs alike.  These pins are
digests recorded once and compared forever: every Table IV mix under
four run shapes of the reference engine —

* ``static``: single-slot, statically bound (the paper's methodology);
* ``overcommit``: two slots per core (run-queue rotation);
* ``sched``: single-slot with the ``contention`` scheduler migrating
  threads at its control epoch;
* ``churn``: a ``vm_schedule`` with staggered arrivals and departures.

The extra cells add heterogeneous chips, scenario and QoS control, and
the cache and coherence paths the default ``shared-4`` sharing never
reaches: FIFO and random L2 replacement, directory-cache evictions,
``private`` and fully ``shared`` L2s, way-quota victims, and random
thread placement (cross-domain transfers and invalidation fan-out).
Cells that need L2 evictions shrink the caches with ``scale``.

A digest covers ``final_time``, each VM's cycles, references, L1 and
L2 misses, and the chip summary.  A pin that moves means simulated
behaviour changed; re-record only for an intended behaviour change
(``python tests/sim/test_engine_pins.py`` prints the current table)
and say why in the change log.

Every pinned cell also asserts the accounting laws the reference engine
keeps (:func:`check_accounting`): per thread, latency is the sum of its
cache, network, directory and memory cycles, and ``refs = reads +
writes = sum of level counts``; the run's ``final_time`` is the latest
VM completion time.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

import repro.core.experiment as experiment_mod
from repro.core.experiment import ExperimentSpec, run_experiment

MIXES = ("mix1", "mix2", "mix3", "mix4", "mix5", "mix6", "mix7", "mix8",
         "mix9", "mixA", "mixB", "mixC", "mixD")

SHAPES = {
    "static": dict(),
    "overcommit": dict(slots_per_core=2),
    "sched": dict(sched_policy="contention", sched_epoch=5_000),
    "churn": dict(vm_schedule="0,0:20000,4000,8000:40000"),
}

#: cells beyond the four shapes: heterogeneous chips, scenario control
#: and QoS composed with a scheduler, each on single-slot and over-committed machines
EXTRA_CELLS = {
    "hetero": dict(mix="mix4", core_speeds="1.0x8,0.5x8",
                   sched_policy="hetero", sched_epoch=5_000),
    "hetero-overcommit": dict(mix="mix4", core_speeds="1.0x8,0.5x8",
                              slots_per_core=2, sched_policy="adaptive",
                              sched_epoch=5_000),
    "qos-sched-overcommit": dict(mix="mix1", sharing="shared",
                                 policy="random", slots_per_core=2,
                                 qos_policy="ucp", qos_epoch=5_000,
                                 sched_policy="adaptive",
                                 sched_epoch=5_000),
    "scenario-arrivals": dict(mix="scn-churn-storm", scenario="churn-storm",
                              sched_policy="adaptive"),
    "scenario-overcommit": dict(mix="scn-diurnal-web",
                                scenario="diurnal-web", slots_per_core=2,
                                sched_policy="adaptive"),
    "l2-fifo": dict(mix="mix1", l2_replacement="fifo", scale=1 / 512),
    "l2-random": dict(mix="mix1", l2_replacement="random", scale=1 / 512),
    "dir-cache-small": dict(mix="mix5", dir_cache_entries=64),
    "private": dict(mix="mix2", sharing="private", scale=1 / 128),
    "shared": dict(mix="mix3", sharing="shared", scale=1 / 512),
    "vm-quota": dict(mix="mix7", sharing="shared", l2_vm_quota=True,
                     scale=1 / 512),
    "random-placement": dict(mix="mix1", policy="random", scale=1 / 128),
}

_RUN = dict(measured_refs=200, warmup_refs=100, seed=1)

PINS = {
    "mix1/churn": "7573ef5ea4829be5",
    "mix1/overcommit": "1cedfbed9fd6b5f3",
    "mix1/sched": "5ffe848f3f9448e1",
    "mix1/static": "7f828f74eb232228",
    "mix2/churn": "ea48ec7f557aa192",
    "mix2/overcommit": "21d38a96da1a7cb4",
    "mix2/sched": "26ec3b84d189b035",
    "mix2/static": "a4d4284b3b815314",
    "mix3/churn": "f54ae576812177df",
    "mix3/overcommit": "171ce4f2b00831a6",
    "mix3/sched": "f0e5a526f5aa39a2",
    "mix3/static": "5f33eb8b9c9113ad",
    "mix4/churn": "33a1f593876292e3",
    "mix4/overcommit": "6372f30653506349",
    "mix4/sched": "02041f458ca393ca",
    "mix4/static": "a4d1f148070010de",
    "mix5/churn": "9f92bda07dbff72b",
    "mix5/overcommit": "6c45e8c5567ab429",
    "mix5/sched": "b50a028d00252649",
    "mix5/static": "5ce39b643770be0a",
    "mix6/churn": "e3762f339c68ca06",
    "mix6/overcommit": "badf7f6049ec110b",
    "mix6/sched": "fb56f14ddef5da8f",
    "mix6/static": "42f6b61fa6be8da8",
    "mix7/churn": "c2951c3ef4af27d4",
    "mix7/overcommit": "d8331fc5bc1d2103",
    "mix7/sched": "0b251636ba2189ad",
    "mix7/static": "44d527fa576a123d",
    "mix8/churn": "6f0bef064e0fdf47",
    "mix8/overcommit": "bff8b40bb52c3a4d",
    "mix8/sched": "2bd2f9af80185b14",
    "mix8/static": "d8b60bb785f02151",
    "mix9/churn": "b13f26e8c7296c8a",
    "mix9/overcommit": "61028965770dcac2",
    "mix9/sched": "c2e4e80a6a127d7e",
    "mix9/static": "559139e241b38f0e",
    "mixA/churn": "37c0d61164e3132f",
    "mixA/overcommit": "8e067500f11acad5",
    "mixA/sched": "7a7691539a4c4077",
    "mixA/static": "defa5a6c60139856",
    "mixB/churn": "febfb74f4c7330ac",
    "mixB/overcommit": "55d54a448577b2a6",
    "mixB/sched": "8ca4922979900f32",
    "mixB/static": "fa40d22327c8ff96",
    "mixC/churn": "3b5c6b8631d34066",
    "mixC/overcommit": "4a4063036f8a3a98",
    "mixC/sched": "4a53421627998a0f",
    "mixC/static": "93cf89d07e3370ed",
    "mixD/churn": "e1d133d607733170",
    "mixD/overcommit": "5cd676988a3e8386",
    "mixD/sched": "f2c72348bcf46c08",
    "mixD/static": "6a6c53cea1db4884",
    "hetero": "876a504d5c8f36a1",
    "hetero-overcommit": "06b452525ef6baeb",
    "qos-sched-overcommit": "4933b78e5a4721eb",
    "scenario-arrivals": "4f59e1ea6dfd64e7",
    "scenario-overcommit": "6bf15bab5f0f5239",
    "l2-fifo": "6feb4066c7dd29cd",
    "l2-random": "2aabad8f52a958b2",
    "dir-cache-small": "fd2c9d48b1f18abb",
    "private": "a3ab799d24f4fc4e",
    "shared": "c00ffe5bf4e20aa8",
    "vm-quota": "e027b1e6a5d40f02",
    "random-placement": "1a1a5c7dd14c2d71",
}


def digest(result) -> str:
    payload = {
        "final_time": result.final_time,
        "vms": [[vm.cycles, vm.refs, vm.l1_misses, vm.l2_misses]
                for vm in result.vm_metrics],
        "chip": asdict(result.chip_summary),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_accounting(result, engine_result) -> None:
    """Assert the reference engine's accounting laws on one run."""
    for tid, stats in engine_result.thread_stats.items():
        parts = (stats.cache_cycles + stats.network_cycles
                 + stats.directory_cycles + stats.memory_cycles)
        assert stats.latency_cycles == parts, f"thread {tid} latency"
        assert stats.refs == stats.reads + stats.writes, f"thread {tid}"
        assert stats.refs == sum(stats.level_counts.values()), \
            f"thread {tid} level counts"
    completion = max(engine_result.vm_completion_times.values())
    assert engine_result.final_time == completion
    assert result.final_time == completion


def run_checked(spec: ExperimentSpec):
    """Run ``spec`` uncached and check its accounting laws."""
    engine_results = []
    make_engine = experiment_mod.make_engine

    def recording_make_engine(request, mode):
        engine = make_engine(request, mode=mode)
        run = engine.run

        def recorded_run():
            engine_results.append(run())
            return engine_results[-1]

        engine.run = recorded_run
        return engine

    experiment_mod.make_engine = recording_make_engine
    try:
        result = run_experiment(spec, use_cache=False)
    finally:
        experiment_mod.make_engine = make_engine
    assert len(engine_results) == 1
    check_accounting(result, engine_results[0])
    return result


def run_pinned(mix: str, shape: str):
    return run_checked(ExperimentSpec(mix=mix, engine_mode="reference",
                                      **_RUN, **SHAPES[shape]))


def run_extra(cell: str):
    return run_checked(ExperimentSpec(engine_mode="reference", **_RUN,
                                      **EXTRA_CELLS[cell]))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("mix", MIXES)
def test_reference_output_is_pinned(mix, shape):
    assert digest(run_pinned(mix, shape)) == PINS[f"{mix}/{shape}"]


@pytest.mark.parametrize("cell", sorted(EXTRA_CELLS))
def test_extension_cell_is_pinned(cell):
    assert digest(run_extra(cell)) == PINS[cell]


if __name__ == "__main__":
    for mix in MIXES:
        for shape in sorted(SHAPES):
            print(f'    "{mix}/{shape}": '
                  f'"{digest(run_pinned(mix, shape))}",')
    for cell in sorted(EXTRA_CELLS):
        print(f'    "{cell}": "{digest(run_extra(cell))}",')
