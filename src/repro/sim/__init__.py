"""Simulation substrate: RNG streams, records, engines, engine factory."""

from ._batchfold import HAVE_NUMPY, PrivateState, fold_private
from .batched import BatchedEngine
from .engine import Engine, EngineResult, MachineModel, ThreadContext, ThreadStats
from .factory import (
    CAPABILITIES,
    EngineRequest,
    engine_modes,
    make_engine,
    register_engine,
    resolve_mode,
)
from .overcommit import OvercommitEngine
from .records import (
    BLOCK_BYTES,
    BLOCK_SHIFT,
    AccessResult,
    AccessType,
    HitLevel,
    LatencyBreakdown,
    MemoryReference,
)
from .rng import RngFactory, derive_seed, stream
from .server import FifoServer, ServerStats

__all__ = [
    "HAVE_NUMPY",
    "PrivateState",
    "fold_private",
    "BatchedEngine",
    "CAPABILITIES",
    "EngineRequest",
    "engine_modes",
    "make_engine",
    "register_engine",
    "resolve_mode",
    "Engine",
    "EngineResult",
    "MachineModel",
    "ThreadContext",
    "ThreadStats",
    "OvercommitEngine",
    "BLOCK_BYTES",
    "BLOCK_SHIFT",
    "AccessResult",
    "AccessType",
    "HitLevel",
    "LatencyBreakdown",
    "MemoryReference",
    "RngFactory",
    "derive_seed",
    "stream",
    "FifoServer",
    "ServerStats",
]
