"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
from common import spec_seed, tail_percentile  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from service import make_schedule  # noqa: E402
from specs import KIND_BLOCK, sim_cells  # noqa: E402


def _bindings():
    """Every place a wrapped function is reachable, with its object."""
    found = {}
    for targets in LAYERS.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            found[(id(owner), name)] = (owner, name, owner.__dict__[name])
    batched = importlib.import_module("repro.sim.batched")
    found[(id(batched), "fold_private")] = (
        batched, "fold_private", batched.__dict__["fold_private"])
    return found


def test_install_then_uninstall_restores_every_function():
    before = _bindings()
    tracer = LayerTracer().install()
    try:
        for owner, name, original in before.values():
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in before.values():
        assert owner.__dict__[name] is original, (owner, name)


def test_traced_cell_matches_untraced_and_counts_layers():
    from repro.core.experiment import ExperimentSpec, run_experiment

    _name, fields = sim_cells("ref-static", 1, refs=60)[0]
    spec = ExperimentSpec(**fields)
    plain = run_experiment(spec, use_cache=False)
    with LayerTracer() as tracer:
        traced = run_experiment(spec, use_cache=False)
    assert traced.final_time == plain.final_time
    assert traced.vm_metrics == plain.vm_metrics
    calls = {layer: stats[0] for layer, stats in tracer.snapshot().items()}
    assert calls["machine"] > 0 and calls["sim.engine"] == 1
    assert calls["sim._batchfold"] == 0 and calls["sched"] == 0


def test_same_seed_gives_same_schedule():
    first = make_schedule(7, spec_seed(7), 25.0)
    again = make_schedule(7, spec_seed(7), 25.0)
    other = make_schedule(8, spec_seed(8), 25.0)
    assert first == again
    assert [a.due_s for a in first] != [a.due_s for a in other]
    dues = [a.due_s for a in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 25.0
    block = len(KIND_BLOCK)
    for start in range(0, len(first) - block + 1, block):
        kinds = sorted(a.kind for a in first[start:start + block])
        assert kinds == sorted(KIND_BLOCK)


def _payload_of(record: dict) -> dict:
    """A ``result_to_dict``-shaped payload carrying a digest's fields."""
    return {
        "final_time": record["final_time"],
        "vm_metrics": [dict(zip(golden._VM_FIELDS, vm)) for vm in record["vms"]],
        "chip_summary": dict(record["chip"]),
    }


def test_perturbed_result_fails_the_gate():
    records = golden.records_for(golden.load(), 1)
    want = records["cells"]["ref-static/mix1-shared4"]
    payload = _payload_of(want)
    assert golden.exact_mismatch(golden.digest(payload), want) is None
    bumped = copy.deepcopy(payload)
    bumped["vm_metrics"][0]["l2_misses"] += 1
    assert golden.exact_mismatch(golden.digest(bumped), want) is not None

    reference = records["reference"]["batched-static/mix1-shared4"]
    near = _payload_of(reference)
    assert golden.tolerance_check(golden.digest(near), reference)[0] is None
    far = copy.deepcopy(near)
    far["vm_metrics"][1]["cycles"] = int(far["vm_metrics"][1]["cycles"] * 1.2)
    reason, cycles_err, _ = golden.tolerance_check(golden.digest(far),
                                                   reference)
    assert reason is not None and cycles_err > golden.CYCLES_REL_TOL

    name, hashed = next(iter(records["service"].items()))
    assert golden.hash_mismatch(hashed, bumped) is not None


def test_batched_cells_fail_exact_and_contract_checks_separately():
    from simworker import Gate

    gate = Gate("batched-static", 1)
    assert gate.checks("mix1-shared4") == 2
    exact = gate.exact["batched-static/mix1-shared4"]
    assert gate.check("mix1-shared4", exact) == []
    nudged = copy.deepcopy(exact)
    nudged["vms"][0][0] += 1  # one cycle: inside the contract, not exact
    reasons = gate.check("mix1-shared4", nudged)
    assert len(reasons) == 1 and "vms differs" in reasons[0]
    far = copy.deepcopy(exact)
    far["vms"][0][0] = int(far["vms"][0][0] * 1.5)
    assert len(gate.check("mix1-shared4", far)) == 2

    # private L2 lies outside the contract: exact check only, deviation kept
    assert gate.checks("mixC-private") == 1
    private = gate.exact["batched-static/mixC-private"]
    assert gate.check("mixC-private", private) == []
    assert "mixC-private" in gate.deviations
    far = copy.deepcopy(private)
    far["vms"][0][0] += 1
    reasons = gate.check("mixC-private", far)
    assert len(reasons) == 1 and "vms differs" in reasons[0]


def test_simulated_cell_passes_the_gate():
    from repro.core.experiment import ExperimentSpec, run_experiment

    name, fields = sim_cells("ref-static", 2)[1]
    result = run_experiment(ExperimentSpec(**fields), use_cache=False)
    payload = {
        "final_time": result.final_time,
        "vm_metrics": [dataclasses.asdict(vm) for vm in result.vm_metrics],
        "chip_summary": dataclasses.asdict(result.chip_summary),
    }
    want = golden.records_for(golden.load(), 2)["cells"][f"ref-static/{name}"]
    assert golden.exact_mismatch(golden.digest(payload), want) is None


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(count, expected):
    values = list(range(count))
    got = tail_percentile(values)
    if expected is None:
        assert got is None
        return
    pct, value = got
    assert pct == expected
    assert sum(1 for v in values if v > value) >= 10


def test_kernel_pass_leaves_the_collector_as_it_was():
    import gc

    from hostspeed import kernel_seconds

    enabled = gc.isenabled()
    try:
        gc.disable()
        assert kernel_seconds() > 0 and not gc.isenabled()
        gc.enable()
        assert kernel_seconds() > 0 and gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_benchmark_json_names_every_metric_the_runner_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

