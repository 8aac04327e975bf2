"""The ``service-mixed`` workload: an open-loop client of ``repro serve``.

The server runs in its own process (``repro serve --jobs 2
--concurrency 2``).  This module launches it, fills the warm pool,
then sends a seeded schedule of jobs with at most ``nproc`` HTTP
connections open at once.  Each job is timed from its *due* time, not
from when it was sent, so a generator stall shows up as latency of the
jobs it delayed; how late the generator ran is reported separately.

Arrivals are Poisson conditioned on their count: the due times are the
sorted order statistics of uniform draws over the run, so every seed
offers the same number of jobs.  Job kinds come in shuffled blocks of
twenty (eight warm, eleven cold, one grid; see ``specs.KIND_BLOCK``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import golden
from common import (ROOT, BenchError, median, metric, peak_child_rss_mb,
                    percentile, program_env, spec_seed, tail_percentile)
from hostspeed import at_nominal, kernel_seconds
from specs import (KIND_BLOCK, RATE_PER_S, WARM_POOL, cold_cell,
                   grid_cells, warm_cells)

JOB_TIMEOUT_S = 60.0
POLL_MIN_S = 0.005
POLL_FRACTION = 0.04
"""A running job is polled every ``max(POLL_MIN_S, POLL_FRACTION x
age)``: its completion is seen at most 5 ms or 4% of its latency late,
whichever is larger.  Warm jobs complete in the submit response."""

SERVER_ARGS = ("--jobs", "2", "--concurrency", "2")
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


# -- the schedule -------------------------------------------------------

@dataclass(frozen=True)
class Arrival:
    due_s: float
    kind: str
    cells: Tuple[Tuple[str, dict], ...]


def make_schedule(seed: int, spec_seed: int, seconds: float
                  ) -> List[Arrival]:
    """The seeded arrival schedule: the same seed gives the same jobs."""
    rng = random.Random(seed)
    count = max(1, round(RATE_PER_S * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds: List[str] = []
    while len(kinds) < count:
        block = list(KIND_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    warm = warm_cells(spec_seed)
    made = {"warm": 0, "cold": 0, "grid": 0}
    out = []
    for due, kind in zip(dues, kinds):
        if kind == "warm":
            cells = (warm[rng.randrange(WARM_POOL)],)
        elif kind == "cold":
            cells = (cold_cell(spec_seed, made["cold"]),)
        else:
            cells = tuple(grid_cells(spec_seed, made["grid"]))
        made[kind] += 1
        out.append(Arrival(due, kind, cells))
    return out


# -- HTTP --------------------------------------------------------------

async def http(port: int, method: str, path: str, body=None,
               timeout: float = 30.0):
    """One ``Connection: close`` request; ``(status, decoded JSON)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), timeout)
    try:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, (json.loads(payload) if payload else None)


def _job_body(cells) -> dict:
    return {"specs": [dict(fields, key=[name]) for name, fields in cells]}


# -- the server process --------------------------------------------------

class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, workdir: Path, trace: bool = False):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.trace_dir = workdir / "trace" if trace else None
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--store", str(workdir / "store"),
               "--journal", str(workdir / "journal.jsonl"), *SERVER_ARGS]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        self._port: Optional[int] = None
        self._port_seen = threading.Event()
        self._stderr: List[str] = []
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)
            match = _LISTENING.search(line)
            if match and self._port is None:
                self._port = int(match.group(1))
                self._port_seen.set()
        self._port_seen.set()

    @property
    def port(self) -> int:
        if self._port is None:
            raise BenchError("server port unknown")
        return self._port

    def wait_ready(self, timeout: float = 30.0) -> float:
        """Seconds from launch to the first good ``/healthz``."""
        deadline = time.perf_counter() + timeout
        if not self._port_seen.wait(timeout) or self._port is None:
            raise BenchError("server never listened: "
                               + "".join(self._stderr[-5:]))

        async def probe() -> float:
            while time.perf_counter() < deadline:
                try:
                    status, payload = await http(self.port, "GET", "/healthz",
                                                 timeout=2.0)
                except OSError:
                    status, payload = 0, None
                if status == 200 and payload and payload.get("status") == "ok":
                    return time.perf_counter() - self.launched
                await asyncio.sleep(0.005)
            raise BenchError("server never became healthy")

        return asyncio.run(probe())

    def stop(self, timeout: float = 30.0) -> None:
        """Drain with SIGTERM; kill if the drain overruns."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def measure_setup(workdir: Path) -> List[float]:
    """Launch a server, time it to a good ``/healthz``, stop it:
    ``[seconds, kernel seconds timed just before the launch]``."""
    kernel_s = kernel_seconds()
    server = Server(workdir)
    try:
        return [server.wait_ready(), kernel_s]
    finally:
        server.stop()


# -- driving jobs ----------------------------------------------------------

@dataclass
class JobOutcome:
    kind: str
    due_s: float
    cells: Tuple[Tuple[str, dict], ...]
    sent_s: float = 0.0
    done_s: float = 0.0
    status: str = "pending"
    job_id: str = ""
    result_keys: List[str] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        return self.done_s - self.due_s

    @property
    def lag_s(self) -> float:
        return self.sent_s - self.due_s


async def _run_job(port: int, arrival: Arrival, origin: float,
                   connections: asyncio.Semaphore) -> JobOutcome:
    outcome = JobOutcome(arrival.kind, arrival.due_s, arrival.cells)
    try:
        await _follow_job(port, arrival, origin, connections, outcome)
    except (OSError, asyncio.TimeoutError) as exc:
        outcome.status = f"connection error: {exc!r}"
    if not outcome.done_s:
        outcome.done_s = time.perf_counter() - origin
    return outcome


async def _follow_job(port: int, arrival: Arrival, origin: float,
                      connections: asyncio.Semaphore,
                      outcome: JobOutcome) -> None:
    """Send one job when it is due and poll it to a terminal state."""
    clock = time.perf_counter
    due = origin + arrival.due_s
    await asyncio.sleep(max(0.0, due - clock()))
    async with connections:
        outcome.sent_s = clock() - origin
        status, payload = await http(port, "POST", "/jobs",
                                     _job_body(arrival.cells))
    if status != 202:
        outcome.status = "shed" if status in (429, 503) else f"http {status}"
        return
    job = payload["job"]
    outcome.job_id = job["job_id"]
    while job["state"] not in ("done", "quarantined"):
        age = clock() - due
        if age > JOB_TIMEOUT_S:
            outcome.status = "timeout"
            return
        await asyncio.sleep(max(POLL_MIN_S, POLL_FRACTION * age))
        async with connections:
            status, payload = await http(port, "GET",
                                         f"/jobs/{outcome.job_id}")
        if status != 200:
            outcome.status = f"http {status}"
            return
        job = payload["job"]
    outcome.done_s = clock() - origin
    outcome.status = "ok" if job["state"] == "done" else "quarantined"
    outcome.result_keys = list(job["result_keys"])


def drive(port: int, schedule: List[Arrival],
          connections: int) -> Tuple[List[JobOutcome], float]:
    """Send every arrival on schedule; ``(outcomes, wall seconds)``."""

    async def run():
        gate = asyncio.Semaphore(connections)
        origin = time.perf_counter()
        tasks = [asyncio.create_task(_run_job(port, arrival, origin, gate))
                 for arrival in schedule]
        outcomes = await asyncio.gather(*tasks)
        return list(outcomes), time.perf_counter() - origin

    return asyncio.run(run())


def submit_and_wait(port: int, cells, timeout: float = 120.0) -> JobOutcome:
    """One job outside the schedule (the warm-pool fill)."""
    arrival = Arrival(0.0, "fill", tuple(cells))

    async def run():
        return await _run_job(port, arrival, time.perf_counter(),
                              asyncio.Semaphore(1))

    outcome = asyncio.run(asyncio.wait_for(run(), timeout))
    if outcome.status != "ok":
        raise BenchError(f"warm-pool fill failed: {outcome.status}")
    return outcome


def fetch_results(port: int, keys: List[str]) -> Dict[str, dict]:
    """``/results/<key>`` payloads for ``keys`` (two connections)."""

    async def run():
        gate = asyncio.Semaphore(2)

        async def one(key):
            async with gate:
                status, payload = await http(port, "GET", f"/results/{key}")
            return key, (payload["result"] if status == 200 else None)

        return dict(await asyncio.gather(*(one(key) for key in keys)))

    return asyncio.run(run())


def fetch_metrics(port: int) -> dict:
    status, payload = asyncio.run(http(port, "GET", "/metrics"))
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    return payload


# -- one server run and the workload ------------------------------------------

@dataclass
class ServerRun:
    """One server from launch to drain: its set-up sample, the
    schedule's outcomes, the golden-check failures, and what the server
    reported."""

    setup: List[float]
    outcomes: List[JobOutcome]
    wall_s: float
    failures: List[str]
    counters: Dict[str, float]
    nominal_refs: Dict[int, int]
    spans: list


def _verify(port: int, outcomes: List[JobOutcome], records: Dict[str, str]
            ) -> Tuple[List[str], Dict[int, int]]:
    """Check every completed job's results against the golden hashes.

    Returns the failures and, per job index, the nominal simulated
    references (threads x (warmup + measured)) of its cells.
    """
    keys = sorted({key for o in outcomes for key in o.result_keys})
    payloads = fetch_results(port, keys)
    failures, nominal = [], {}
    for index, outcome in enumerate(outcomes):
        if outcome.status != "ok":
            failures.append(f"job {index} ({outcome.kind}): {outcome.status}")
            continue
        refs, reasons = 0, []
        for (name, _fields), key in zip(outcome.cells, outcome.result_keys):
            payload = payloads.get(key)
            if payload is None:
                reasons.append(f"{name}: result {key} missing")
                continue
            spec = payload["spec"]
            threads = sum(len(cores) for cores in payload["assignments"])
            refs += threads * (spec["warmup_refs"] + spec["measured_refs"])
            if name not in records:
                reasons.append(f"{name}: no golden record")
                continue
            reason = golden.hash_mismatch(records[name], payload)
            if reason:
                reasons.append(f"{name}: {reason}")
        if len(outcome.result_keys) != len(outcome.cells):
            reasons.append("result keys do not match the cells")
        if reasons:
            failures.append(f"job {index} ({outcome.kind}): "
                            + "; ".join(reasons))
        nominal[index] = refs
    return failures, nominal


def _server_run(workdir: Path, schedule: List[Arrival], spec_seed: int,
                records: Dict[str, str], trace: bool) -> ServerRun:
    kernel_s = kernel_seconds()
    server = Server(workdir, trace=trace)
    try:
        setup = [server.wait_ready(), kernel_s]
        submit_and_wait(server.port, warm_cells(spec_seed))
        outcomes, wall_s = drive(server.port, schedule, os.cpu_count() or 1)
        failures, nominal = _verify(server.port, outcomes, records)
        counters = fetch_metrics(server.port).get("counters", {})
    finally:
        server.stop()
    spans = []
    if trace:
        _ensure_program_importable()
        from repro.obs.tracing import collect_spans

        spans, _torn = collect_spans(server.trace_dir)
    return ServerRun(setup, outcomes, wall_s, failures, counters, nominal,
                     spans)


def _ensure_program_importable() -> None:
    from common import SRC

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _kind_p50(served: ServerRun, kind: str) -> float:
    values = [o.latency_s * 1000.0 for o in served.outcomes
              if o.status == "ok" and o.kind == kind]
    return median(values) if values else 0.0


def end_to_end(served: ServerRun, setups: List[List[float]]) -> dict:
    ok = [o for o in served.outcomes if o.status == "ok"]
    if not ok:
        raise BenchError("no job completed")
    # open loop: the simulated references served per second of the
    # window, a guard (like jobs_per_s) that drops once the service
    # falls behind; per-job speed shows in the per-layer
    # loadgen.*job_p50_ms
    simulated = sum(served.nominal_refs.get(i, 0)
                    for i, o in enumerate(served.outcomes)
                    if o.status == "ok" and o.kind != "warm")
    return {
        "sim_refs_per_s": metric(simulated / served.wall_s, "1/s"),
        "setup_s": metric(median([at_nominal(seconds, kernel_s)
                                  for seconds, kernel_s in setups]), "s"),
        "peak_rss_mb": metric(peak_child_rss_mb(), "MB"),
        "jobs_per_s": metric(len(ok) / served.wall_s, "1/s"),
    }


def critical_path_medians(served: ServerRun) -> Dict[str, float]:
    """Per-job medians (seconds) of each critical-path segment, and the
    median share of simulation in warm-job latency."""
    from repro.obs.tracing import critical_path

    kind_of = {o.job_id: o.kind for o in served.outcomes if o.job_id}
    by_trace: Dict[str, list] = {}
    for span in served.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    segments: Dict[str, List[float]] = {}
    warm_sim_share: List[float] = []
    for spans in by_trace.values():
        job_ids = {s.attrs.get("job_id") for s in spans} & set(kind_of)
        if len(job_ids) != 1:
            continue
        path = critical_path(spans)
        for category, micros in path.segments.items():
            segments.setdefault(category, []).append(micros / 1e6)
        if kind_of[job_ids.pop()] == "warm" and path.total_us:
            warm_sim_share.append(path.segments.get("sim", 0) / path.total_us)
    out = {f"service.{name}_s": (median(segments[name])
                                 if segments.get(name) else 0.0)
           for name in ("route", "queue", "sim", "store")}
    out["service.warm_sim_share"] = (median(warm_sim_share)
                                     if warm_sim_share else 0.0)
    return out


def layer_metrics(plain: ServerRun, traced: ServerRun, units: Dict[str, str]
                  ) -> dict:
    values: Dict[str, float] = {name: 0.0 for name in units}
    values.update(critical_path_medians(traced))
    for name in ("service.dedup_hits", "service.coalesced",
                 "service.rejected_backpressure", "executor.simulated",
                 "executor.cache_hits"):
        values[name] = float(plain.counters.get(name, 0))
    lags = [o.lag_s * 1000.0 for o in plain.outcomes if o.sent_s]
    values["loadgen.lag_ms_p90"] = percentile(lags, 90.0) if lags else 0.0
    latencies = [o.latency_s * 1000.0 for o in plain.outcomes
                 if o.status == "ok"]
    if latencies:
        values["loadgen.job_p50_ms"] = median(latencies)
        values["loadgen.job_p90_ms"] = percentile(latencies, 90.0)
    for kind in ("warm", "cold", "grid"):
        values[f"loadgen.{kind}_job_p50_ms"] = _kind_p50(plain, kind)
    plain_total = sum(o.latency_s for o in plain.outcomes if o.status == "ok")
    traced_total = sum(o.latency_s for o in traced.outcomes
                       if o.status == "ok")
    values["trace.overhead_ratio"] = (traced_total / plain_total
                                      if plain_total else 0.0)
    return {name: metric(values[name], units[name]) for name in units}


def run(args, work: Path, setup_repeats: int, per_layer: Dict[str, str]):
    """The whole workload: ``(metrics, attempted, failures, samples)``."""
    seed = spec_seed(args.seed)
    records = golden.records_for(golden.load(), seed)["service"]
    setups = [measure_setup(work / f"setup{i}") for i in range(setup_repeats)]
    if args.trace:
        # the same schedule twice, untraced then traced: the trace costs
        # compare like for like
        schedule = make_schedule(args.seed, seed, args.seconds / 2)
        plain = _server_run(work / "plain", schedule, seed, records, False)
        traced = _server_run(work / "traced", schedule, seed, records, True)
        failures = plain.failures + traced.failures
        metrics = layer_metrics(plain, traced, per_layer)
        attempted = len(plain.outcomes) + len(traced.outcomes)
        main = plain
    else:
        schedule = make_schedule(args.seed, seed, args.seconds)
        main = _server_run(work / "main", schedule, seed, records, False)
        setups.append(main.setup)
        failures = main.failures
        metrics = end_to_end(main, setups)
        attempted = len(main.outcomes)
    lags = [o.lag_s * 1000.0 for o in main.outcomes if o.sent_s]
    latencies = [o.latency_s * 1000.0 for o in main.outcomes
                 if o.status == "ok"]
    samples = {
        "setup_samples": setups, "jobs": len(main.outcomes),
        "completed": len(latencies), "wall_s": main.wall_s,
        "job_p50_ms": median(latencies) if latencies else None,
        "job_p90_ms": percentile(latencies, 90.0) if latencies else None,
        "tail": tail_percentile(latencies),
        "lag_ms_p90": percentile(lags, 90.0) if lags else None,
        "kind_p50_ms": {kind: _kind_p50(main, kind)
                        for kind in ("warm", "cold", "grid")},
        "counters": main.counters,
        "jobs_detail": [[o.kind, o.status, round(o.latency_s * 1000.0, 3),
                         round(o.lag_s * 1000.0, 3)]
                        for o in main.outcomes],
    }
    return metrics, attempted, failures, samples
