"""Fast contention-aware mesh latency model.

This is the interconnect model on the simulator's hot path.  Each
unidirectional mesh link is a FIFO queue with a one-cycle-per-flit
service time; a message's head flit pays the 3-stage router pipeline
plus one link-traversal cycle per hop, queueing behind earlier traffic
on every link it crosses, and the tail adds ``flits - 1`` serialization
cycles at the destination.

The queues are flat per-link lists of busy-until and last-arrival
times, and every (src, dst) route is a precomputed tuple of link ids.
A traversal only counts messages and flits per route (plus the latency
and queueing totals); hop counts, tile traffic and link utilizations
are derived from those counts when read.

The model reproduces the congestion phenomena the paper attributes to
scheduling policy — affinity concentrating a workload's coherence
traffic on a few links (hotspots) versus round robin spreading it — at
a tiny fraction of the cost of flit-level simulation.  The flit-level
model in :mod:`repro.interconnect.network` is used to calibrate the
per-hop constants (see ``benchmarks/test_noc_calibration.py``).
"""

from __future__ import annotations

from typing import Dict, List

from .topology import MeshTopology

__all__ = ["AnalyticalMesh"]

#: head-flit latency per hop: 3 router pipeline stages + 1 link cycle.
#: The paper's routers are 3-stage with speculative VC/switch allocation,
#: so under low load a hop costs the full pipeline plus the link.
HOP_CYCLES = 4


class AnalyticalMesh:
    """Per-link FIFO queueing model over a :class:`MeshTopology`.

    Parameters
    ----------
    topology:
        The mesh.
    hop_cycles:
        Head latency per hop (router pipeline + link).
    """

    def __init__(self, topology: MeshTopology, hop_cycles: int = HOP_CYCLES):
        self.topology = topology
        self.hop_cycles = hop_cycles
        tiles = topology.num_tiles
        self._tiles = tiles
        # DOR routes are static: link-id tuples indexed src * tiles + dst
        self._routes = [
            tuple(topology.route_links(src, dst))
            for src in range(tiles)
            for dst in range(tiles)
        ]
        self.reset()

    def reset(self) -> None:
        """Empty every link queue and clear the statistics."""
        links = self.topology.num_links
        self._busy_until = [0] * links
        self._last_arrival = [0] * links
        self._route_messages = [0] * len(self._routes)
        self._route_flits = [0] * len(self._routes)
        self.total_latency = 0
        self.total_queueing = 0

    def traverse(self, src: int, dst: int, flits: int, now: int) -> int:
        """Send a ``flits``-flit message from ``src`` to ``dst`` at ``now``.

        Returns the traversal latency including queueing.  ``src == dst``
        costs nothing (same-tile communication stays inside the tile).

        A link serves in arrival order: a head reaching it earlier than
        the link's last arrival queues as if it arrived then, but the
        head itself advances only by its wait plus ``hop_cycles``.
        """
        if src == dst:
            return 0
        route = src * self._tiles + dst
        busy_until = self._busy_until
        last_arrival = self._last_arrival
        hop_cycles = self.hop_cycles
        head_time = now
        queueing = 0
        for link in self._routes[route]:
            arrival = last_arrival[link]
            if head_time > arrival:
                arrival = head_time
                last_arrival[link] = arrival
            wait = busy_until[link] - arrival
            if wait > 0:
                queueing += wait
                busy_until[link] += flits
                head_time += wait + hop_cycles
            else:
                busy_until[link] = arrival + flits
                head_time += hop_cycles
        latency = head_time - now + flits - 1
        self._route_messages[route] += 1
        self._route_flits[route] += flits
        self.total_latency += latency
        self.total_queueing += queueing
        return latency

    def zero_load_latency(self, src: int, dst: int, flits: int) -> int:
        """Latency with no contention (for tests and calibration)."""
        if src == dst:
            return 0
        return self.topology.hops(src, dst) * self.hop_cycles + (flits - 1)

    # ------------------------------------------------------------------
    # statistics (derived from the per-route counts)
    # ------------------------------------------------------------------

    @property
    def messages(self) -> int:
        return sum(self._route_messages)

    @property
    def total_hops(self) -> int:
        return sum(count * len(links) for count, links
                   in zip(self._route_messages, self._routes))

    @property
    def tile_traffic(self) -> Dict[int, int]:
        """Flits sent or received per tile (tiles with traffic only)."""
        traffic: Dict[int, int] = {}
        tiles = self._tiles
        for route, flits in enumerate(self._route_flits):
            if flits:
                src, dst = divmod(route, tiles)
                traffic[src] = traffic.get(src, 0) + flits
                traffic[dst] = traffic.get(dst, 0) + flits
        return traffic

    @property
    def mean_latency(self) -> float:
        messages = self.messages
        return self.total_latency / messages if messages else 0.0

    @property
    def mean_queueing(self) -> float:
        messages = self.messages
        return self.total_queueing / messages if messages else 0.0

    @property
    def mean_hops(self) -> float:
        messages = self.messages
        return self.total_hops / messages if messages else 0.0

    def link_utilizations(self, horizon: int) -> List[float]:
        """Per-link busy fraction over ``horizon`` cycles."""
        busy = [0] * len(self._busy_until)
        for flits, links in zip(self._route_flits, self._routes):
            if flits:
                for link in links:
                    busy[link] += flits
        if horizon <= 0:
            return [0.0] * len(busy)
        return [min(1.0, cycles / horizon) for cycles in busy]

    def link_queue_depths(self, now: int) -> List[float]:
        """Per-link backlog at ``now`` in flits (telemetry)."""
        return [float(until - now) if until > now else 0.0
                for until in self._busy_until]

    def mean_link_queue_depth(self, now: int) -> float:
        """Mean link backlog at ``now`` across every mesh link."""
        depths = self.link_queue_depths(now)
        return sum(depths) / len(depths) if depths else 0.0

    def hottest_links(self, horizon: int, top: int = 5) -> List[tuple]:
        """The ``top`` busiest links as ``((src, dst), utilization)``."""
        pairs = list(self.topology.links())
        utils = self.link_utilizations(horizon)
        ranked = sorted(zip(pairs, utils), key=lambda item: -item[1])
        return ranked[:top]
