"""Thread-to-core scheduling policies (Section III-D).

The hypervisor must map each workload's virtual processors onto
physical cores; whenever cores share an L2, that mapping also decides
which threads share a cache.  The paper studies four policies:

* **round robin** — each thread of a workload goes to a *different*
  shared cache, balancing load and maximizing the cache capacity
  visible to the workload (at the cost of replicating its read-shared
  data in every cache it touches);
* **affinity** — all threads of a workload are packed into as few
  caches as possible, maximizing sharing and minimizing replication
  (at the cost of capacity and possible hotspots);
* **round-robin-affinity hybrid** — round robin over caches but with
  at least two threads of the same workload per cache;
* **random** — the assignment an over-committed virtualized system
  drifts into after enough context switches.

A policy converts ``(workloads, placement)`` into per-VM core lists;
it is purely combinatorial and independent of the timing model, which
is what the unit tests exploit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SchedulingError
from ..machine.placement import DomainPlacement

__all__ = [
    "SchedulingPolicy",
    "RoundRobinScheduler",
    "AffinityScheduler",
    "RrAffinityScheduler",
    "RandomScheduler",
    "make_scheduler",
    "assign_overcommitted",
    "SCHEDULER_NAMES",
]


class SchedulingPolicy:
    """Base class: assign workload threads to physical cores."""

    #: canonical short name, e.g. ``"rr"``
    name: str = ""

    def assign(
        self,
        thread_counts: Sequence[int],
        placement: DomainPlacement,
        rng: Optional[np.random.Generator] = None,
    ) -> List[List[int]]:
        """Produce ``cores[vm][thread] -> core_id``.

        Parameters
        ----------
        thread_counts:
            Threads per workload instance, in VM order.
        placement:
            Domain layout of the target chip.
        rng:
            Random stream; only the random policy uses it.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------

    @staticmethod
    def _check_capacity(thread_counts: Sequence[int], placement: DomainPlacement) -> None:
        total = sum(thread_counts)
        cores = sum(len(d) for d in placement.domains)
        if total > cores:
            raise SchedulingError(
                f"{total} threads do not fit on {cores} cores"
            )
        if any(count <= 0 for count in thread_counts):
            raise SchedulingError("every instance needs at least one thread")

    @staticmethod
    def _free_lists(placement: DomainPlacement) -> List[List[int]]:
        """Mutable per-domain free-core lists, in core-id order."""
        return [sorted(domain) for domain in placement.domains]


class RoundRobinScheduler(SchedulingPolicy):
    """Spread every workload's threads across distinct caches.

    Threads are dealt to domains cyclically; each successive thread of
    a workload lands in the next domain with a free core, so with four
    4-thread workloads on four shared-4-way caches every cache ends up
    with one thread of each workload (Figure 1, left)."""

    name = "rr"

    def assign(self, thread_counts, placement, rng=None):
        self._check_capacity(thread_counts, placement)
        free = self._free_lists(placement)
        num_domains = len(free)
        cursor = 0
        result: List[List[int]] = []
        for count in thread_counts:
            cores: List[int] = []
            for _ in range(count):
                for probe in range(num_domains):
                    domain = (cursor + probe) % num_domains
                    if free[domain]:
                        cores.append(free[domain].pop(0))
                        cursor = domain + 1
                        break
                else:
                    raise SchedulingError("ran out of cores mid-assignment")
            result.append(cores)
        return result


class AffinityScheduler(SchedulingPolicy):
    """Pack each workload into as few caches as possible.

    Domains are consumed in id order, so with four 4-thread workloads
    on shared-4-way caches each workload owns one cache outright
    (Figure 1, right)."""

    name = "affinity"

    def assign(self, thread_counts, placement, rng=None):
        self._check_capacity(thread_counts, placement)
        free = self._free_lists(placement)
        result: List[List[int]] = []
        for count in thread_counts:
            cores: List[int] = []
            remaining = count
            # prefer the domain with the most free cores (fullest fit),
            # breaking ties toward lower ids for determinism
            while remaining > 0:
                best = max(
                    range(len(free)),
                    key=lambda d: (min(len(free[d]), remaining), -d),
                )
                if not free[best]:
                    raise SchedulingError("ran out of cores mid-assignment")
                take = min(remaining, len(free[best]))
                for _ in range(take):
                    cores.append(free[best].pop(0))
                remaining -= take
            result.append(cores)
        return result


class RrAffinityScheduler(SchedulingPolicy):
    """Hybrid: round robin over caches, two threads at a time.

    Each workload's threads are grouped in pairs and the pairs dealt
    round-robin, so at least two threads of the workload share each
    cache they use (Section III-D)."""

    name = "rr-aff"

    #: threads placed together per step
    group = 2

    def assign(self, thread_counts, placement, rng=None):
        self._check_capacity(thread_counts, placement)
        free = self._free_lists(placement)
        num_domains = len(free)
        cursor = 0
        result: List[List[int]] = []
        for count in thread_counts:
            cores: List[int] = []
            remaining = count
            while remaining > 0:
                take = min(self.group, remaining)
                placed = False
                for probe in range(num_domains):
                    domain = (cursor + probe) % num_domains
                    if len(free[domain]) >= take:
                        for _ in range(take):
                            cores.append(free[domain].pop(0))
                        cursor = domain + 1
                        placed = True
                        break
                if not placed:
                    # no domain can take the whole group; fall back to
                    # single placement to finish the assignment
                    for probe in range(num_domains):
                        domain = (cursor + probe) % num_domains
                        if free[domain]:
                            cores.append(free[domain].pop(0))
                            cursor = domain + 1
                            placed = True
                            take = 1
                            break
                if not placed:
                    raise SchedulingError("ran out of cores mid-assignment")
                remaining -= take
            result.append(cores)
        return result


class RandomScheduler(SchedulingPolicy):
    """Uniform random placement (the over-committed-VM drift)."""

    name = "random"

    def assign(self, thread_counts, placement, rng=None):
        self._check_capacity(thread_counts, placement)
        if rng is None:
            raise SchedulingError("the random policy needs an rng")
        all_cores = sorted(
            core for domain in placement.domains for core in domain
        )
        order = list(rng.permutation(len(all_cores)))
        result: List[List[int]] = []
        next_slot = 0
        for count in thread_counts:
            cores = [all_cores[order[next_slot + i]] for i in range(count)]
            next_slot += count
            result.append(cores)
        return result


_SCHEDULERS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        RoundRobinScheduler,
        AffinityScheduler,
        RrAffinityScheduler,
        RandomScheduler,
    )
}

#: aliases accepted by :func:`make_scheduler`
_ALIASES = {
    "round-robin": "rr",
    "roundrobin": "rr",
    "aff": "affinity",
    "aff-rr": "rr-aff",
    "rr-affinity": "rr-aff",
    "hybrid": "rr-aff",
    "rand": "random",
}

SCHEDULER_NAMES = tuple(sorted(_SCHEDULERS))
"""Canonical policy names: ``('affinity', 'random', 'rr', 'rr-aff')``."""


def make_scheduler(name: str) -> SchedulingPolicy:
    """Construct a policy by (possibly aliased) name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _SCHEDULERS[key]()
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {name!r}; "
            f"choose from {sorted(_SCHEDULERS) + sorted(_ALIASES)}"
        ) from None


class _ExpandedPlacement:
    """Duck-typed placement whose cores have multiple thread slots.

    Used for over-committed assignment (Section VII): each physical
    core appears ``slots_per_core`` times, so any policy can place more
    threads than cores while keeping its cache-locality logic intact.
    """

    def __init__(self, placement: DomainPlacement, slots_per_core: int):
        self.domains = [
            sorted(domain * slots_per_core) for domain in placement.domains
        ]
        self.domain_of = placement.domain_of


def assign_overcommitted(
    policy: str,
    thread_counts: Sequence[int],
    placement: DomainPlacement,
    slots_per_core: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> List[List[int]]:
    """Assign threads with ``slots_per_core`` thread contexts per core.

    Returns per-VM core lists in which cores may repeat (up to the slot
    limit); pair with an :class:`repro.sim.engine.Engine` built with
    the same ``slots_per_core``.
    """
    if slots_per_core <= 0:
        raise SchedulingError("slots_per_core must be positive")
    expanded = _ExpandedPlacement(placement, slots_per_core)
    return make_scheduler(policy).assign(thread_counts, expanded, rng=rng)
