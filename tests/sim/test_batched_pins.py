"""Byte pins for the batched kernel.

The sibling :mod:`tests.sim.test_engine_pins` pins the reference
engine; this file pins the batched kernel the same way: every Table IV
mix at ``shared-4`` and at ``private`` L2 sharing, plus

* ``ucp``: a UCP QoS cell (live way quotas rewritten at control
  epochs, and the chip's L2 tap feeding the utility monitors);
* ``random``: ``mix1`` at ``shared-4`` with random thread placement,
  so VMs span domains (cross-domain transfers and invalidations,
  which affinity placement at ``shared-4`` never produces);
* ``ucp-random``: the two together (way-quota victims in domains that
  also lose lines to other domains' writes);
* ``no-numpy``: the pure-Python fold (``use_numpy=False``) on
  ``mix5/shared-4``, which must give the numpy path's bytes (its pin
  equals that cell's).

Each cell runs three folding epochs per thread, so the L2, directory
and coherence state carry across epoch boundaries.  A pin that moves
means the kernel's output changed; re-record only for an intended
behaviour change (``python -m tests.sim.test_batched_pins`` prints the
current table) and say why in the change log.
"""

import pytest

import repro.sim.batched as batched_mod
from repro.core.experiment import ExperimentSpec, run_experiment

from .test_engine_pins import MIXES, digest

SHARINGS = ("shared-4", "private")

EXTRA_CELLS = {
    "ucp": dict(mix="mix1", sharing="shared", qos_policy="ucp",
                qos_epoch=5_000),
    "no-numpy": dict(mix="mix5", sharing="shared-4"),
    "random": dict(mix="mix1", sharing="shared-4", policy="random"),
    "ucp-random": dict(mix="mix7", sharing="shared-4", policy="random",
                       qos_policy="ucp", qos_epoch=5_000),
}

_RUN = dict(measured_refs=2000, warmup_refs=1000, seed=1,
            engine_mode="batched")

PINS = {
    "mix1/shared-4": "0a3ae529dbe032a6",
    "mix1/private": "fea831f8cfe24b41",
    "mix2/shared-4": "e5a2e53590f85c42",
    "mix2/private": "0eeb5e9128216480",
    "mix3/shared-4": "feb7b4d73363166f",
    "mix3/private": "d50fac158b70565b",
    "mix4/shared-4": "19ac923e2319c741",
    "mix4/private": "f1b0eb685ac30f1b",
    "mix5/shared-4": "79bbcf948a11b3ff",
    "mix5/private": "7af0013400ee3027",
    "mix6/shared-4": "b2b1102a794ef650",
    "mix6/private": "1c457fdb7303bec7",
    "mix7/shared-4": "d31de67dcee3a78b",
    "mix7/private": "0c7efaac606b3f0e",
    "mix8/shared-4": "2cbf781cbaf501f5",
    "mix8/private": "7422f7e0928c83b1",
    "mix9/shared-4": "e4ba4bb136f31226",
    "mix9/private": "3f69340bfdb920f2",
    "mixA/shared-4": "e4ac76d5535d8342",
    "mixA/private": "37eddc2c97c27659",
    "mixB/shared-4": "c51970d6ee9d779b",
    "mixB/private": "cf732beaafee8b33",
    "mixC/shared-4": "3b484f60d132d87a",
    "mixC/private": "90b69b31a7d73948",
    "mixD/shared-4": "e2752cd98c774537",
    "mixD/private": "3208070a1e831e54",
    "no-numpy": "79bbcf948a11b3ff",
    "random": "f0df36fca12e2c55",
    "ucp": "a43d0fd7a317aba6",
    "ucp-random": "b182adf61c71f338",
}


def run_pinned(mix: str, sharing: str):
    spec = ExperimentSpec(mix=mix, sharing=sharing, **_RUN)
    return run_experiment(spec, use_cache=False)


def run_extra(cell: str):
    spec = ExperimentSpec(**_RUN, **EXTRA_CELLS[cell])
    if cell != "no-numpy":
        return run_experiment(spec, use_cache=False)
    saved = batched_mod.HAVE_NUMPY
    batched_mod.HAVE_NUMPY = False
    try:
        result = run_experiment(spec, use_cache=False)
    finally:
        batched_mod.HAVE_NUMPY = saved
    return result


@pytest.mark.parametrize("sharing", SHARINGS)
@pytest.mark.parametrize("mix", MIXES)
def test_batched_output_is_pinned(mix, sharing):
    assert digest(run_pinned(mix, sharing)) == PINS[f"{mix}/{sharing}"]


@pytest.mark.parametrize("cell", sorted(EXTRA_CELLS))
def test_batched_extra_cell_is_pinned(cell):
    assert digest(run_extra(cell)) == PINS[cell]


if __name__ == "__main__":
    for mix in MIXES:
        for sharing in SHARINGS:
            print(f'    "{mix}/{sharing}": '
                  f'"{digest(run_pinned(mix, sharing))}",')
    for cell in sorted(EXTRA_CELLS):
        print(f'    "{cell}": "{digest(run_extra(cell))}",')
