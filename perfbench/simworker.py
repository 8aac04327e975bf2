"""One simulator-workload process: set up, signal ready, run timed cells.

Launched in a fresh interpreter by ``run.py``.  It imports ``repro``,
runs one small untimed cell per shape (so lazy imports land in set-up),
prints ``READY``, times one host-speed kernel pass and prints ``KERNEL
<seconds>``, and then, unless ``--setup-only``, runs the workload's
cold cells for ``--seconds`` and prints one JSON line of raw samples.

With ``--trace 1`` every cell runs twice, untraced and then under the
layer wrappers; the two simulated outputs must be identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import hostspeed  # noqa: E402
from specs import (CONTRACT_SHARING, SETUP_REFS,  # noqa: E402
                   TOLERANCE_WORKLOADS, sim_cells)


def _payload(result) -> dict:
    """The ``result_to_dict`` fields the golden digest reads."""
    return {
        "final_time": result.final_time,
        "vm_metrics": [dataclasses.asdict(vm) for vm in result.vm_metrics],
        "chip_summary": dataclasses.asdict(result.chip_summary),
    }


def _nominal_refs(result) -> int:
    spec = result.spec
    threads = sum(p.threads for p in result.mix.profiles())
    return threads * (spec.warmup_refs + spec.measured_refs)


class Gate:
    """Golden checks for one workload's cells.

    Every cell must match the record of its own engine exactly.  A cell
    of a :data:`TOLERANCE_WORKLOADS` workload is also compared with the
    reference-engine record of the same spec.  At
    :data:`CONTRACT_SHARING` that comparison is a second check, held to
    the batched tolerance contract and failing on its own; at another
    sharing, which the contract does not cover, its deviation is kept
    in :attr:`deviations` and in the error maxima, not gated.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        records = golden.records_for(golden.load(), seed)
        self.exact = records["cells"]
        self.reference = (records["reference"]
                          if workload in TOLERANCE_WORKLOADS else None)
        self.contract = ({name for name, fields in sim_cells(workload, seed)
                          if fields["sharing"] == CONTRACT_SHARING}
                         if self.reference is not None else set())
        self.deviations: Dict[str, str] = {}
        self.cycles_err = 0.0
        self.miss_rate_err = 0.0

    def checks(self, name: str) -> int:
        """The gated checks of one run of cell ``name``."""
        return 2 if name in self.contract else 1

    def check(self, name: str, got: dict) -> List[str]:
        """The reasons the digest ``got`` fails, one per failed check."""
        key = f"{self.workload}/{name}"
        reasons = []
        reason = golden.exact_mismatch(got, self.exact.get(key))
        if reason:
            reasons.append(f"{name}: {reason}")
        if self.reference is not None:
            reason, cycles_err, rate_err = golden.tolerance_check(
                got, self.reference.get(key))
            self.cycles_err = max(self.cycles_err, cycles_err)
            self.miss_rate_err = max(self.miss_rate_err, rate_err)
            if reason and name in self.contract:
                reasons.append(f"{name}: {reason}")
            elif reason:
                self.deviations[name] = reason
        return reasons


def _run_cell(fields: dict):
    from repro.core.experiment import ExperimentSpec, run_experiment

    spec = ExperimentSpec(**fields)
    # collect the previous cell's garbage outside the timed region, so
    # peak memory and timing do not depend on when the collector last ran
    gc.collect()
    start = time.perf_counter()
    result = run_experiment(spec, use_cache=False)
    return result, time.perf_counter() - start


def timed(args, cells, gate: Gate, before: float) -> dict:
    """Run rounds of every cell until the next would overrun.

    A host-speed kernel pass runs after every cell; ``before`` is the
    pass before the first.  Each sample is ``[cell name, host seconds,
    nominal references, kernel seconds]``, the last the mean of the
    passes on either side of the cell.
    """
    samples, failures = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for name, fields in cells:
            result, seconds = _run_cell(fields)
            after = _kernel_pass()
            samples.append([name, seconds, _nominal_refs(result),
                            (before + after) / 2.0])
            before = after
            failures += gate.check(name, golden.digest(_payload(result)))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    return {"samples": samples, "rounds": rounds, "elapsed": elapsed,
            "failures": failures, "deviations": gate.deviations,
            "attempted": sum(gate.checks(name) for name, *_ in samples)}


def _kernel_pass() -> float:
    # the kernel must time the host, not threads the program left running
    if threading.active_count() != 1:
        raise RuntimeError("the program left threads running between cells")
    return hostspeed.kernel_seconds()


def traced(args, cells, gate: Gate) -> dict:
    """Rounds of untraced-then-traced cells; per-layer aggregates."""
    from layers import LayerTracer

    waits = [0]
    steps = [0]

    def add_wait(wait):
        waits[0] += wait

    def add_steps(result):
        steps[0] += result.total_refs_processed

    tracer = LayerTracer(observers={
        ("repro.sim.server", "FifoServer.request"): add_wait,
        ("repro.sim.engine", "Engine.run"): add_steps,
        ("repro.sim.overcommit", "OvercommitEngine.run"): add_steps,
    })
    failures = []
    untraced_s = traced_s = setup_s = 0.0
    sums = dict(l1_misses=0, l2_misses=0, c2c=0, memory_reads=0,
                migrations=0, queueing=0.0, dir_hit=0.0, cells=0)
    rounds = 0
    start = time.perf_counter()
    while True:
        for name, fields in cells:
            plain, plain_s = _run_cell(fields)
            engine_before = (tracer.stats["sim.engine"].total
                             + tracer.stats["sim.batched"].total)
            with tracer:
                result, seconds = _run_cell(fields)
            engine_s = (tracer.stats["sim.engine"].total
                        + tracer.stats["sim.batched"].total - engine_before)
            untraced_s += plain_s
            traced_s += seconds
            setup_s += seconds - engine_s
            got = golden.digest(_payload(plain))
            if golden.digest(_payload(result)) != got:
                failures.append(f"{name}: traced output differs from untraced")
            failures += gate.check(name, got)
            summary = result.chip_summary
            for vm in result.vm_metrics:
                sums["l1_misses"] += vm.l1_misses
                sums["l2_misses"] += vm.l2_misses
            sums["c2c"] += summary.c2c_clean + summary.c2c_dirty
            sums["memory_reads"] += summary.memory_reads
            sums["queueing"] += summary.mesh_mean_queueing
            sums["dir_hit"] += summary.directory_cache_hit_rate
            sums["cells"] += 1
            if result.sched is not None:
                sums["migrations"] += result.sched["migrations"]
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    return {
        "rounds": rounds, "layers": tracer.snapshot(),
        "untraced_s": untraced_s, "traced_s": traced_s,
        "setup_s": setup_s, "waits": waits[0], "steps": steps[0],
        "sums": sums, "cycles_err": gate.cycles_err,
        "miss_rate_err": gate.miss_rate_err, "failures": failures,
        "deviations": gate.deviations,
        "attempted": rounds * sum(gate.checks(name) + 1
                                  for name, _fields in cells),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    for _name, fields in sim_cells(args.workload, args.spec_seed,
                                   refs=SETUP_REFS):
        _run_cell(fields)
    print("READY", flush=True)
    # the host speed this process saw at the end of its set-up
    kernel_s = _kernel_pass()
    print(f"KERNEL {kernel_s!r}", flush=True)
    if args.setup_only:
        return 0
    cells = sim_cells(args.workload, args.spec_seed)
    gate = Gate(args.workload, args.spec_seed)
    if args.trace:
        body = traced(args, cells, gate)
    else:
        body = timed(args, cells, gate, kernel_s)
    print(json.dumps(body), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
