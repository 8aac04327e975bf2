"""The flat-array mesh against the per-link FIFO-server design it replaced.

:class:`OracleMesh` is that design, rebuilt here from
:class:`repro.sim.server.FifoServer`: one server per link with a
one-cycle service time, each hop a ``request(head_time,
service_time=flits)``, statistics counted eagerly per message.  Random
message streams — equal-``now`` bursts, arrivals out of time order,
multi-hop routes whose later hops reach a link behind an earlier
message's head — must give exactly the same latencies, totals, tile
traffic, link utilizations, queue depths and hotspot ranking.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.interconnect.analytical import HOP_CYCLES, AnalyticalMesh
from repro.interconnect.topology import MeshTopology
from repro.sim.server import FifoServer


class OracleMesh:
    """One :class:`FifoServer` per link, statistics counted per message."""

    def __init__(self, topology: MeshTopology, hop_cycles: int = HOP_CYCLES):
        self.topology = topology
        self.hop_cycles = hop_cycles
        self.links = [FifoServer(name=f"link/{src}->{dst}", service_time=1)
                      for src, dst in topology.links()]
        self.reset()

    def reset(self):
        for link in self.links:
            link.reset()
        self.messages = 0
        self.total_latency = 0
        self.total_queueing = 0
        self.total_hops = 0
        self.tile_traffic = {}
        self.clamps = 0

    def traverse(self, src, dst, flits, now):
        if src == dst:
            return 0
        route = self.topology.route_links(src, dst)
        head_time = now
        queueing = 0
        for link_id in route:
            server = self.links[link_id]
            if head_time < server.stats.last_arrival:
                self.clamps += 1
            wait = server.request(head_time, service_time=flits)
            queueing += wait
            head_time += wait + self.hop_cycles
        latency = head_time - now + flits - 1
        self.messages += 1
        self.total_latency += latency
        self.total_queueing += queueing
        self.total_hops += len(route)
        for tile in (src, dst):
            self.tile_traffic[tile] = self.tile_traffic.get(tile, 0) + flits
        return latency

    def link_utilizations(self, horizon):
        return [link.stats.utilization(horizon) for link in self.links]

    def link_queue_depths(self, now):
        return [link.queue_depth(now) for link in self.links]

    def hottest_links(self, horizon, top=5):
        pairs = list(self.topology.links())
        ranked = sorted(zip(pairs, self.link_utilizations(horizon)),
                        key=lambda item: -item[1])
        return ranked[:top]


def assert_agree(flat, oracle, instants):
    assert flat.messages == oracle.messages
    assert flat.total_hops == oracle.total_hops
    assert flat.total_latency == oracle.total_latency
    assert flat.total_queueing == oracle.total_queueing
    expected_hops = (oracle.total_hops / oracle.messages
                     if oracle.messages else 0.0)
    assert flat.mean_hops == expected_hops
    assert flat.tile_traffic == oracle.tile_traffic
    for t in instants:
        assert flat.link_utilizations(t) == oracle.link_utilizations(t)
        assert flat.link_queue_depths(t) == oracle.link_queue_depths(t)
        assert flat.hottest_links(t) == oracle.hottest_links(t)
        assert flat.hottest_links(t, top=48) == oracle.hottest_links(t, top=48)


def drive(messages, side=4):
    """Send ``messages`` through both meshes; per-message latencies must
    match.  Returns the meshes and the instants worth inspecting."""
    topology = MeshTopology(side, side)
    flat, oracle = AnalyticalMesh(topology), OracleMesh(topology)
    instants = {-1, 0}
    for src, dst, flits, now in messages:
        got = flat.traverse(src, dst, flits, now)
        assert got == oracle.traverse(src, dst, flits, now)
        instants.update((now, now + got, now + 3))
    return flat, oracle, sorted(instants)


def stream(tiles):
    """Messages with non-decreasing-ish issue times: a zero step makes an
    equal-``now`` burst, a negative step issues behind earlier traffic
    (as the chip does when a later leg of one access is sent at a time
    past the next access's start)."""
    message = st.tuples(
        st.integers(0, tiles - 1),
        st.integers(0, tiles - 1),
        st.sampled_from((1, 5)),
        st.one_of(st.just(0), st.integers(-40, 40), st.integers(0, 400)),
    )

    def timed(steps):
        now, out = 0, []
        for src, dst, flits, step in steps:
            now = max(0, now + step)
            out.append((src, dst, flits, now))
        return out

    return st.lists(message, min_size=1, max_size=120).map(timed)


class TestAgainstOracle:
    @given(stream(16))
    @settings(max_examples=150, deadline=None)
    def test_random_streams_agree(self, messages):
        flat, oracle, instants = drive(messages)
        assert_agree(flat, oracle, instants)

    @given(stream(16), stream(16))
    @settings(max_examples=40, deadline=None)
    def test_state_after_reset_agrees(self, before, after):
        topology = MeshTopology(4, 4)
        flat, oracle = AnalyticalMesh(topology), OracleMesh(topology)
        for src, dst, flits, now in before:
            flat.traverse(src, dst, flits, now)
            oracle.traverse(src, dst, flits, now)
        flat.reset()
        oracle.reset()
        assert_agree(flat, oracle, [0, 100])
        instants = set()
        for src, dst, flits, now in after:
            got = flat.traverse(src, dst, flits, now)
            assert got == oracle.traverse(src, dst, flits, now)
            instants.add(now)
        assert_agree(flat, oracle, sorted(instants))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                              st.sampled_from((1, 5))),
                    min_size=1, max_size=60),
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_equal_now_bursts(self, burst, now):
        flat, oracle, instants = drive(
            [(src, dst, flits, now) for src, dst, flits in burst], side=3)
        assert_agree(flat, oracle, instants)

    def test_long_seeded_stream_exercises_the_clamp(self):
        rng = random.Random(2007)
        now, messages = 0, []
        for _ in range(3000):
            now = max(0, now + rng.choice((0, 0, rng.randint(-30, 30),
                                           rng.randint(0, 60))))
            messages.append((rng.randrange(16), rng.randrange(16),
                             rng.choice((1, 5)), now))
        flat, oracle, instants = drive(messages)
        assert oracle.clamps > 100
        assert_agree(flat, oracle, instants[::50] + instants[-3:])


class TestLastArrivalClamp:
    def test_later_hop_behind_an_earlier_head(self):
        """A head reaching a link before that link's last arrival queues
        from the last arrival, while the head advances only by its wait
        plus the hop time."""
        topology = MeshTopology(4, 4)
        flat, oracle = AnalyticalMesh(topology), OracleMesh(topology)
        link = topology.link_id(1, 2)
        # 0 -> 3 reaches link 1->2 at 10 + 4 = 14 and holds it to 19
        assert flat.traverse(0, 3, 5, now=10) == oracle.traverse(0, 3, 5, 10)
        assert flat.link_queue_depths(14)[link] == 5.0
        # 1 -> 2 issued at 12 is clamped to arrive at 14: it waits 5
        # cycles and its head advances 5 + 4 from 12
        before = flat.total_queueing
        assert flat.traverse(1, 2, 1, now=12) == 5 + HOP_CYCLES
        assert oracle.traverse(1, 2, 1, now=12) == 5 + HOP_CYCLES
        assert flat.total_queueing - before == 5
        assert oracle.clamps == 1
        assert_agree(flat, oracle, [0, 12, 14, 19, 20])
