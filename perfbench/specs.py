"""Workload definitions: the experiment specs each workload runs.

Specs are plain keyword dicts for ``repro.ExperimentSpec`` so this
module (and the orchestrator) never imports the program.  Everything
here is a pure function of the workload name and the spec seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

Cell = Tuple[str, dict]

SIM_WORKLOADS = ("ref-static", "batched-static", "hook-overcommit")
SERVICE_WORKLOAD = "service-mixed"
WORKLOADS = SIM_WORKLOADS + (SERVICE_WORKLOAD,)

REF_REFS = 500
"""Measured references per thread of a reference-engine cell: about
half a second, so a 25 s run times each shape about 25 times."""

BATCHED_REFS = 2000
"""Measured references per thread of a batched-engine cell (a longer
run: the batched kernel is several times faster), about a quarter of
a second."""

HOOK_REFS = 300
"""Measured references per thread of a ``hook-overcommit`` cell: its
cells cost more per reference and it has three shapes, so shorter cells
keep the samples per shape near those of ``ref-static``."""

SETUP_REFS = 100
"""Measured references of the untimed per-shape cell run in set-up."""

_STATIC = (
    # TPC-H-heavy footprint on 4-way shared L2 (the cell-cold spec)
    ("mix1-shared4", dict(mix="mix1", sharing="shared-4", policy="affinity")),
    # SPECjbb sharing across private L2s
    ("mixC-private", dict(mix="mixC", sharing="private", policy="affinity")),
)

_HOOKS = (
    ("diurnal-adaptive-oc2", dict(
        mix="scn-diurnal-web", scenario="diurnal-web", sharing="shared-4",
        policy="affinity", sched_policy="adaptive", slots_per_core=2)),
    ("mix4-hetero-adaptive-oc2", dict(
        mix="mix4", sharing="shared-4", policy="affinity",
        core_speeds="1.0x8,0.5x8", sched_policy="adaptive",
        slots_per_core=2)),
    ("mix1-shared-ucp", dict(
        mix="mix1", sharing="shared", policy="affinity", qos_policy="ucp")),
)


def _sized(fields: dict, refs: int, seed: int, engine: str) -> dict:
    return dict(fields, measured_refs=refs, warmup_refs=refs // 2,
                seed=seed, engine_mode=engine)


def sim_cells(workload: str, seed: int, refs: int = 0) -> List[Cell]:
    """The timed cells of a simulator workload, in run order.

    ``refs`` overrides the run length (set-up uses small cells of the
    same shapes).
    """
    if workload == "ref-static":
        shapes, engine, default = _STATIC, "reference", REF_REFS
    elif workload == "batched-static":
        shapes, engine, default = _STATIC, "batched", BATCHED_REFS
    elif workload == "hook-overcommit":
        shapes, engine, default = _HOOKS, "reference", HOOK_REFS
    else:
        raise ValueError(f"not a simulator workload: {workload!r}")
    return [(name, _sized(fields, refs or default, seed, engine))
            for name, fields in shapes]


TOLERANCE_WORKLOADS = ("batched-static",)
"""Workloads whose cells are also compared with the reference-engine
record of the same spec."""

CONTRACT_SHARING = "shared-4"
"""The L2 sharing at which the batched tolerance contract is
cross-validated: ``tests/sim/test_equivalence.py`` runs every Table IV
mix at the default spec, which is shared-4.  A cell of a
:data:`TOLERANCE_WORKLOADS` workload at this sharing fails when it
breaks the contract; a cell at another sharing has its deviation from
the reference reported, not gated (see README, "Seeds and golden
records")."""


# -- service-mixed ----------------------------------------------------

RATE_PER_S = 4.0
"""Offered jobs per second: about half the capacity measured for this
mix on a 2-core host (see README)."""

MAX_SECONDS = 60
"""The longest run the golden records cover."""

SERVICE_KINDS = ("warm", "cold", "grid")
KIND_BLOCK = ("warm",) * 8 + ("cold",) * 11 + ("grid",) * 1
"""Job kinds per block of twenty arrivals (shuffled per block).  Both
the median (18% into the cold jobs) and the 90th percentile (91% into
them) lie inside the cold jobs, away from a boundary between kinds,
so neither flips between kinds from one seed to the next."""

WARM_POOL = 4
COLD_REFS = 300
GRID_REFS = 400

_BLOCKS = math.ceil(RATE_PER_S * MAX_SECONDS / len(KIND_BLOCK))
COLD_POOL = _BLOCKS * KIND_BLOCK.count("cold")
"""Cold single-cell jobs with golden records per seed: every cold job
of a run of up to :data:`MAX_SECONDS`."""
GRID_POOL = _BLOCKS * KIND_BLOCK.count("grid")
"""Cold grid jobs with golden records per seed."""

_WARM_SHAPES = (
    dict(mix="mix1", sharing="shared-4", policy="affinity"),
    dict(mix="mixC", sharing="private", policy="affinity"),
    dict(mix="mix4", sharing="shared-2", policy="rr"),
    dict(mix="mix5", sharing="shared", policy="affinity"),
)
_COLD_SHAPES = (
    dict(mix="mix1", sharing="shared-4", policy="affinity"),
    dict(mix="mixC", sharing="private", policy="affinity"),
    dict(mix="mix4", sharing="shared-2", policy="affinity"),
)
_GRID_SHARINGS = ("private", "shared-2", "shared-4", "shared")


def warm_cells(seed: int) -> List[Cell]:
    return [(f"warm/{i}", _sized(shape, 600, seed, "batched"))
            for i, shape in enumerate(_WARM_SHAPES[:WARM_POOL])]


def cold_cell(seed: int, index: int) -> Cell:
    """The ``index``-th cold single-cell job: a unique spec per index."""
    shape = _COLD_SHAPES[index % len(_COLD_SHAPES)]
    return (f"cold/{index}",
            _sized(shape, COLD_REFS, seed * 1000 + index, "batched"))


def grid_cells(seed: int, index: int) -> List[Cell]:
    """The ``index``-th cold grid job: one mix across four sharings."""
    mix = ("mix1", "mixC")[index % 2]
    return [(f"grid/{index}/{sharing}",
             _sized(dict(mix=mix, sharing=sharing, policy="affinity"),
                    GRID_REFS, seed * 1000 + 500 + index, "batched"))
            for sharing in _GRID_SHARINGS]


def describe(workload: str) -> Dict[str, object]:
    """Workload parameters for the provenance stamp."""
    if workload in SIM_WORKLOADS:
        return {"cells": [name for name, _ in sim_cells(workload, 1)],
                "measured_refs": sim_cells(workload, 1)[0][1]["measured_refs"]}
    return {"kinds_per_block": {k: KIND_BLOCK.count(k)
                                for k in SERVICE_KINDS},
            "warm_pool": WARM_POOL, "cold_refs": COLD_REFS,
            "grid_refs": GRID_REFS, "grid_cells": len(_GRID_SHARINGS)}
