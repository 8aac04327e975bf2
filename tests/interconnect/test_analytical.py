"""Tests for the analytical (queueing) mesh model."""

from repro.interconnect.analytical import AnalyticalMesh
from repro.interconnect.topology import MeshTopology


def mesh():
    return AnalyticalMesh(MeshTopology(4, 4))


def queueing_of(m, src, dst, flits, now):
    """``(latency, queueing)`` of one traversal, queueing read as the
    ``total_queueing`` delta."""
    before = m.total_queueing
    latency = m.traverse(src, dst, flits, now)
    return latency, m.total_queueing - before


class TestZeroLoad:
    def test_local_traversal_free(self):
        m = mesh()
        assert m.traverse(3, 3, flits=5, now=0) == 0
        assert m.messages == 0 and m.total_hops == 0

    def test_single_hop_control(self):
        m = mesh()
        latency, queueing = queueing_of(m, 0, 1, flits=1, now=0)
        assert latency == m.hop_cycles  # 1 hop, 1 flit
        assert queueing == 0

    def test_serialization_added_once(self):
        m = mesh()
        assert m.traverse(0, 1, flits=5, now=0) == m.hop_cycles + 4

    def test_matches_zero_load_formula(self):
        m = mesh()
        for src, dst, flits in ((0, 15, 5), (2, 9, 1), (7, 8, 5)):
            latency = m.traverse(src, dst, flits, now=10_000_000 * (src + 1))
            assert latency == m.zero_load_latency(src, dst, flits)


class TestContention:
    def test_back_to_back_on_same_link_queues(self):
        m = mesh()
        first = m.traverse(0, 1, flits=5, now=0)
        second, queueing = queueing_of(m, 0, 1, flits=5, now=0)
        assert queueing > 0
        assert second > first

    def test_disjoint_paths_do_not_interfere(self):
        m = mesh()
        m.traverse(0, 1, flits=5, now=0)
        _, queueing = queueing_of(m, 14, 15, flits=5, now=0)
        assert queueing == 0

    def test_hotspot_detection(self):
        m = mesh()
        for i in range(50):
            m.traverse(0, 3, flits=5, now=i)
        hot = m.hottest_links(horizon=300, top=1)
        (src, dst), util = hot[0]
        assert util > 0.5
        # hottest link must lie on the 0 -> 3 row
        assert src in (0, 1, 2) and dst == src + 1


class TestStatistics:
    def test_means(self):
        m = mesh()
        m.traverse(0, 1, flits=1, now=0)
        m.traverse(0, 2, flits=1, now=100)
        assert m.messages == 2
        assert m.mean_hops == 1.5
        assert m.mean_latency > 0

    def test_tile_traffic_tracking(self):
        m = mesh()
        m.traverse(0, 5, flits=5, now=0)
        assert m.tile_traffic[0] == 5
        assert m.tile_traffic[5] == 5

    def test_reset(self):
        m = mesh()
        m.traverse(0, 1, flits=5, now=0)
        m.reset()
        assert m.messages == 0
        assert m.total_queueing == 0
        assert queueing_of(m, 0, 1, flits=5, now=0)[1] == 0

    def test_route_cache_consistency(self):
        """Cached routes give identical results to fresh computation."""
        m = mesh()
        a = m.zero_load_latency(2, 13, 5)
        m.traverse(2, 13, 5, now=0)
        assert m.traverse(2, 13, 5, now=10_000) == a
