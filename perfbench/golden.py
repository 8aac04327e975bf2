"""Golden simulated statistics and the correctness gate.

A *digest* is the part of a result the gate compares: ``final_time``,
per-VM ``[cycles, refs, l1_misses, l2_misses, miss_latency_cycles]``
and the chip summary.  It is built from the JSON form of a result
(``repro.core.store.result_to_dict``), so results read back from the
service's ``/results/<key>`` and results produced in process are
digested identically.

Every simulator-workload cell must match the record of its own engine
exactly.  A batched cell is also held to the documented tolerance
contract (``docs/engines.md``) against the reference-engine record of
the same spec.  Service cells are checked exactly through a short hash
of the digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

MISS_RATE_ABS_TOL = 0.06
MISS_LATENCY_REL_TOL = 0.10
CYCLES_REL_TOL = 0.12

_VM_FIELDS = ("cycles", "refs", "l1_misses", "l2_misses",
              "miss_latency_cycles")


def digest(payload: dict) -> dict:
    """The gated statistics of one result (``result_to_dict`` form)."""
    return {
        "final_time": payload["final_time"],
        "vms": [[vm[name] for name in _VM_FIELDS]
                for vm in payload["vm_metrics"]],
        "chip": dict(sorted(payload["chip_summary"].items())),
    }


def digest_hash(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:20]


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def records_for(golden: dict, seed: int) -> dict:
    entry = golden["seeds"].get(str(seed))
    if entry is None:
        raise KeyError(f"no golden records for spec seed {seed}")
    return entry


def exact_mismatch(got: dict, want: Optional[dict]) -> Optional[str]:
    """``None`` when ``got`` equals the record, else a reason."""
    if want is None:
        return "no golden record"
    if got == want:
        return None
    for key in ("final_time", "vms", "chip"):
        if got.get(key) != want.get(key):
            return f"{key} differs: got {got.get(key)!r}, want {want.get(key)!r}"
    return "digest differs"


def _vm_view(record: dict) -> List[Tuple[int, float, float]]:
    """Per VM ``(cycles, miss_rate, mean_miss_latency)``."""
    out = []
    for cycles, _refs, l1_misses, l2_misses, miss_cycles in record["vms"]:
        rate = l2_misses / l1_misses if l1_misses else 0.0
        latency = miss_cycles / l1_misses if l1_misses else 0.0
        out.append((cycles, rate, latency))
    return out


def tolerance_check(got: dict, reference: Optional[dict]
                    ) -> Tuple[Optional[str], float, float]:
    """Hold a batched digest to the contract against a reference digest.

    Returns ``(reason or None, max relative cycles error, max absolute
    miss-rate error)`` over the VMs.
    """
    if reference is None:
        return "no golden record", 0.0, 0.0
    ours, theirs = _vm_view(got), _vm_view(reference)
    if len(ours) != len(theirs):
        return f"{len(ours)} VMs against {len(theirs)}", 0.0, 0.0
    cycles_err = rate_err = 0.0
    reason = None
    for vm, ((c, r, lat), (c0, r0, lat0)) in enumerate(zip(ours, theirs)):
        c_err = abs(c - c0) / c0 if c0 else 0.0
        r_err = abs(r - r0)
        l_err = abs(lat - lat0) / lat0 if lat0 else 0.0
        cycles_err = max(cycles_err, c_err)
        rate_err = max(rate_err, r_err)
        if reason is None and (c_err > CYCLES_REL_TOL
                               or r_err > MISS_RATE_ABS_TOL
                               or l_err > MISS_LATENCY_REL_TOL):
            reason = (f"VM {vm} outside the tolerance contract: cycles "
                      f"{c_err:.3f}, miss rate {r_err:.3f}, miss latency "
                      f"{l_err:.3f}")
    return reason, cycles_err, rate_err


def hash_mismatch(want: str, payload: dict) -> Optional[str]:
    """``None`` when a service result matches its hashed record."""
    got = digest_hash(digest(payload))
    return None if got == want else f"digest {got} != {want}"
