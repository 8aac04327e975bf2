"""Shared helpers of the benchmark: statistics, provenance, paths.

This module imports nothing from ``repro`` so the orchestrator can run
(and fail cleanly) in a checkout that lacks the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GOLDEN_SEED_POOL = 8
"""Spec seeds with golden records: benchmark seed ``n`` simulates with
spec seed ``(n - 1) % 8 + 1``, so every run is gated exactly."""

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed operation)."""


def spec_seed(bench_seed: int) -> int:
    """Map a benchmark seed onto the golden-record seed pool."""
    return (bench_seed - 1) % GOLDEN_SEED_POOL + 1


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[_rank(pct, len(values)) - 1])


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float]]:
    """The highest of :data:`TAIL_PERCENTILES` that has at least ten
    samples strictly beyond its nearest rank.

    Returns ``(pct, value)``, or ``None`` when even the median lacks
    ten samples above it.
    """
    count = len(values)
    best = None
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= 10:
            best = (pct, percentile(values, pct))
    return best


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def provenance(workload: str, bench_seed: int, params: dict) -> dict:
    """The stamp every result carries."""
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "seed": bench_seed,
        "spec_seed": spec_seed(bench_seed),
        "workload": workload,
        "params": params,
    }


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_REFS", None)
    env.pop("REPRO_SEED", None)
    return env


def require_program() -> None:
    """Exit with an error when the checkout holds no ``repro`` sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro package under {SRC}\n")
        raise SystemExit(2)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(payload: dict) -> None:
    """Print ``payload`` as the one-line JSON result (last stdout line)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_child_rss_mb() -> float:
    """Largest peak resident set of any waited-for child process, MB."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0
