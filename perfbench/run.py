"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload ref-static --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every simulated output is checked against the golden records
in ``golden.json``; a mismatch counts as a failed operation.  A
batched cell's deviation from the reference engine outside the
tolerance contract's regime is reported under ``deviations``.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; a
human-readable account with the provenance stamp goes to stderr and to
``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (HERE, ROOT, BenchError, emit, median,  # noqa: E402
                    metric, peak_child_rss_mb, percentile, program_env,
                    provenance, require_program, spec_seed,
                    tail_percentile)
from hostspeed import at_nominal  # noqa: E402
from layers import LAYERS  # noqa: E402
from specs import (MAX_SECONDS, SIM_WORKLOADS, WORKLOADS,  # noqa: E402
                   describe)

OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_REPEATS = 6
"""Set-up-only launches per run, half before and half after the timed
window; with the launch that goes on to the timed work, set-up time is
the median of seven samples spread over the run."""

END_TO_END = {
    "sim_refs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
}
"""End-to-end metrics, every workload.  The service's job latencies are
per-layer metrics, not bounded: on the shared host they follow its
speed, which no calibration tracked for a server spread over both
vCPUs (see README, "Steadiness")."""

PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s",
                      f"{_layer}.share": "ratio"})
PER_LAYER.update({
    "sim.engine.steps": "count",
    "caches.l2_hit_ratio": "ratio",
    "interconnect.queueing_cycles": "cycles",
    "sim.server.wait_cycles": "cycles",
    "coherence.c2c_transfers": "count",
    "coherence.dir_cache_hit_rate": "ratio",
    "memory.reads": "count",
    "sim.batched.cycles_err_max": "ratio",
    "sim.batched.miss_rate_err_max": "ratio",
    "sched.migrations": "count",
    "core.experiment.setup_s": "s",
    "service.route_s": "s",
    "service.queue_s": "s",
    "service.sim_s": "s",
    "service.store_s": "s",
    "service.warm_sim_share": "ratio",
    "service.dedup_hits": "count",
    "service.coalesced": "count",
    "service.rejected_backpressure": "count",
    "executor.simulated": "count",
    "executor.cache_hits": "count",
    "loadgen.lag_ms_p90": "ms",
    "loadgen.job_p50_ms": "ms",
    "loadgen.job_p90_ms": "ms",
    "loadgen.warm_job_p50_ms": "ms",
    "loadgen.cold_job_p50_ms": "ms",
    "loadgen.grid_job_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
})


# -- simulator workloads ----------------------------------------------------

def _launch_worker(args, deadline: float, setup_only: bool):
    """Run ``simworker.py``; ``([seconds to READY, the worker's kernel
    seconds], parsed body or None)``."""
    cmd = [sys.executable, str(HERE / "simworker.py"),
           "--workload", args.workload, "--spec-seed", str(spec_seed(args.seed)),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                            proc.kill)
    timer.start()
    ready, kernel_s, lines = None, None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif kernel_s is None and line.startswith("KERNEL "):
                kernel_s = float(line.split()[1])
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or kernel_s is None:
        raise BenchError(f"simulator worker exited with code {code}")
    if setup_only:
        return [ready, kernel_s], None
    if not lines:
        raise BenchError("simulator worker printed no result")
    return [ready, kernel_s], json.loads(lines[-1])


def nominal_pass(samples: List[list]) -> Tuple[float, int, int]:
    """``(seconds, nominal references, cells)`` of one pass over the
    workload's shapes, each shape at the median of its cell times at
    the nominal host speed.

    ``samples`` are the worker's ``[cell name, seconds, references,
    kernel seconds]``.
    """
    times: Dict[str, List[float]] = {}
    refs: Dict[str, int] = {}
    for name, seconds, nominal, kernel_s in samples:
        times.setdefault(name, []).append(at_nominal(seconds, kernel_s))
        refs[name] = nominal
    seconds = sum(median(values) for values in times.values())
    return seconds, sum(refs.values()), len(times)


def run_sim(args, deadline: float) -> Tuple[dict, int, List[str], dict]:
    setups = [_launch_worker(args, deadline, True)[0]
              for _ in range(SETUP_REPEATS // 2)]
    ready, body = _launch_worker(args, deadline, False)
    setups.append(ready)
    setups += [_launch_worker(args, deadline, True)[0]
               for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    failures = body["failures"]
    extra = {"setup_samples": setups, "deviations": body["deviations"]}
    if args.trace:
        return (sim_layer_metrics(body), body["attempted"], failures,
                dict(extra, rounds=body["rounds"]))
    samples = body["samples"]
    pass_s, pass_refs, shapes = nominal_pass(samples)
    latencies_ms = [seconds * 1000.0 for _name, seconds, _refs, _k in samples]
    metrics = {
        "sim_refs_per_s": metric(pass_refs / pass_s, "1/s"),
        "setup_s": metric(median([at_nominal(seconds, kernel_s)
                                  for seconds, kernel_s in setups]), "s"),
        "peak_rss_mb": metric(peak_child_rss_mb(), "MB"),
        "jobs_per_s": metric(shapes / pass_s, "1/s"),
    }
    extra.update(rounds=body["rounds"], cells=samples,
                 raw_job_p50_ms=median(latencies_ms),
                 raw_job_p90_ms=percentile(latencies_ms, 90.0),
                 raw_tail=tail_percentile(latencies_ms),
                 raw_cells_per_s=len(samples) / body["elapsed"])
    return metrics, body["attempted"], failures, extra


def sim_layer_metrics(body: dict) -> dict:
    rounds = body["rounds"]
    traced_s = body["traced_s"]
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer, (calls, _total, self_s) in body["layers"].items():
        values[f"{layer}.calls"] = calls / rounds
        values[f"{layer}.self_s"] = self_s / rounds
        values[f"{layer}.share"] = self_s / traced_s
    sums = body["sums"]
    cells = sums["cells"]
    values.update({
        "sim.engine.steps": body["steps"] / rounds,
        "caches.l2_hit_ratio": (1.0 - sums["l2_misses"] / sums["l1_misses"]
                                if sums["l1_misses"] else 0.0),
        "interconnect.queueing_cycles": sums["queueing"] / cells,
        "sim.server.wait_cycles": body["waits"] / rounds,
        "coherence.c2c_transfers": sums["c2c"] / rounds,
        "coherence.dir_cache_hit_rate": sums["dir_hit"] / cells,
        "memory.reads": sums["memory_reads"] / rounds,
        "sim.batched.cycles_err_max": body["cycles_err"],
        "sim.batched.miss_rate_err_max": body["miss_rate_err"],
        "sched.migrations": sums["migrations"] / rounds,
        "core.experiment.setup_s": body["setup_s"] / rounds,
        "trace.overhead_ratio": traced_s / body["untraced_s"],
    })
    return {name: metric(values[name], PER_LAYER[name]) for name in PER_LAYER}


# -- entry point -------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS}]: the golden "
                     "records cover runs up to that length")
    require_program()
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.workload in SIM_WORKLOADS:
            metrics, attempted, failures, extra = run_sim(args, deadline)
        else:
            import service

            metrics, attempted, failures, extra = service.run(
                args, OUT_DIR / "service", SETUP_REPEATS, PER_LAYER)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    record = {
        "provenance": provenance(args.workload, args.seed,
                                 describe(args.workload)),
        "trace": args.trace, "seconds": args.seconds,
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "deviations": extra.pop("deviations", {}),
        "metrics": metrics, "samples": extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.stderr.write(json.dumps(
        {k: record[k] for k in ("provenance", "attempted", "failed",
                                "error_rate", "failures", "deviations")},
        sort_keys=True)
        + "\n")
    emit({"correct": not failures and attempted > 0,
          "attempted": max(1, attempted), "failed": len(failures),
          "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
