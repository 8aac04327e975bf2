"""Regenerate ``golden.json`` from the current program.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_golden.py

Golden records are the simulated statistics the benchmark gates on.
They change only when a change alters simulated output on purpose, and
then in a benchmark change of their own.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
from common import GOLDEN_SEED_POOL  # noqa: E402
from specs import (COLD_POOL, GRID_POOL, SIM_WORKLOADS,  # noqa: E402
                   TOLERANCE_WORKLOADS, cold_cell, grid_cells, sim_cells,
                   warm_cells)


def _simulate(fields: dict) -> dict:
    from repro.core.experiment import ExperimentSpec, run_experiment
    from repro.core.store import result_to_dict

    result = run_experiment(ExperimentSpec(**fields), use_cache=False)
    return golden.digest(result_to_dict(result))


def _seed_records(seed: int) -> dict:
    """Every record of one spec seed."""
    cells, reference = {}, {}
    for workload in SIM_WORKLOADS:
        for name, fields in sim_cells(workload, seed):
            cells[f"{workload}/{name}"] = _simulate(fields)
            if workload in TOLERANCE_WORKLOADS:
                reference[f"{workload}/{name}"] = _simulate(
                    dict(fields, engine_mode="reference"))
    return {"cells": cells, "reference": reference,
            "service": _service_part(seed)}


def _service_part(seed: int) -> dict:
    cells = list(warm_cells(seed))
    cells += [cold_cell(seed, index) for index in range(COLD_POOL)]
    for index in range(GRID_POOL):
        cells += grid_cells(seed, index)
    return {name: golden.digest_hash(_simulate(fields))
            for name, fields in cells}


def main() -> int:
    seeds = list(range(1, GOLDEN_SEED_POOL + 1))
    out = {"format": 2, "seeds": {}}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(),
                             mp_context=context) as pool:
        for seed, records in zip(seeds, pool.map(_seed_records, seeds)):
            out["seeds"][str(seed)] = records
            print(f"seed {seed}: " + ", ".join(
                f"{len(part)} {key}" for key, part in records.items()),
                file=sys.stderr)
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
