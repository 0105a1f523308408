"""Key-management scaling: handshake counts vs enumeration, cycle times."""

import itertools

import pytest

from pqnetsim import ParameterError, full_mesh_handshakes, hierarchical_handshakes, rekey_cycle_time


def enumerate_full_mesh(n: int) -> int:
    """Oracle: literally count unordered node pairs."""
    return sum(1 for _ in itertools.combinations(range(n), 2))


def enumerate_hierarchy(n: int, cluster_size: int) -> int:
    """Oracle: lay out clusters explicitly and count edges.

    Nodes are chunked into ceil(n / c) clusters; the first node of each chunk
    is its head.  Members link to their head, heads form a full mesh.
    """
    nodes = list(range(n))
    clusters = [nodes[i : i + cluster_size] for i in range(0, n, cluster_size)]
    heads = [cluster[0] for cluster in clusters]
    edges = set()
    for cluster in clusters:
        head = cluster[0]
        for member in cluster[1:]:
            edges.add(frozenset((member, head)))
    for a, b in itertools.combinations(heads, 2):
        edges.add(frozenset((a, b)))
    return len(edges)


def schedule_oracle(handshakes: int, per_handshake: float, t_auth: float, lanes: int) -> float:
    """Oracle: greedily assign handshakes to lanes and report the makespan."""
    lane_counts = [0] * lanes
    for i in range(handshakes):
        lane_counts[i % lanes] += 1
    return max(lane_counts, default=0) * (per_handshake + t_auth)


class TestFullMesh:
    def test_two_nodes(self):
        assert full_mesh_handshakes(2) == 1

    def test_four_nodes(self):
        assert full_mesh_handshakes(4) == 6

    def test_hundred_nodes_and_quadratic_ratio(self):
        assert full_mesh_handshakes(100) == 4950
        ratios = [full_mesh_handshakes(n) / n**2 for n in (100, 1000, 10000)]
        assert ratios == sorted(ratios)
        assert abs(ratios[-1] - 0.5) < 1e-3

    def test_matches_pair_enumeration(self):
        for n in range(2, 201):
            assert full_mesh_handshakes(n) == enumerate_full_mesh(n)


class TestHierarchy:
    def test_single_cluster_is_a_star(self):
        assert hierarchical_handshakes(4, 4) == 3

    def test_two_clusters_of_two(self):
        assert hierarchical_handshakes(4, 2) == 3

    def test_large_network(self):
        assert hierarchical_handshakes(1000, 10) == 5850
        assert hierarchical_handshakes(1000, 10) < full_mesh_handshakes(1000)

    def test_matches_layout_enumeration(self):
        for n in range(2, 121):
            for c in (2, 3, 5, 10, n):
                if c <= n:
                    assert hierarchical_handshakes(n, c) == enumerate_hierarchy(n, c)

    def test_never_exceeds_full_mesh(self):
        for n in range(2, 200, 7):
            for c in range(2, n + 1, 5):
                assert hierarchical_handshakes(n, c) <= full_mesh_handshakes(n)

    def test_scaling_regimes_for_fixed_cluster_size(self):
        # While the head mesh is subdominant (n <= c^2) the count stays
        # near-linear: count/n = (1 - H/n) + H(H-1)/(2n) <= 1.5.  Beyond that
        # the head mesh takes over and the ratio grows without bound.
        c = 10
        for n in range(c, c * c + 1):
            assert hierarchical_handshakes(n, c) / n <= 1.5
        ratios = [hierarchical_handshakes(n, c) / n for n in (10**3, 10**4, 10**5)]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 100  # head mesh dominance, ~n / (2 c^2)

    def test_cluster_larger_than_network_rejected(self):
        with pytest.raises(ParameterError, match="cluster_size must be <= n, got 5 > 4"):
            hierarchical_handshakes(4, 5)


class TestRekeyCycle:
    def test_empty_cycle(self):
        assert rekey_cycle_time(0, 0.002, 0.0, 4) == 0.0

    def test_serial_sum(self):
        assert rekey_cycle_time(6, 0.002, 0.0, 1) == pytest.approx(0.012)

    def test_parallel_batches(self):
        assert rekey_cycle_time(6, 0.002, 0.0, 4) == pytest.approx(0.004)

    def test_matches_scheduling_oracle(self):
        for handshakes in range(0, 40):
            for lanes in (1, 2, 3, 4, 7, 16):
                got = rekey_cycle_time(handshakes, 0.003, 0.0005, lanes)
                assert got == pytest.approx(schedule_oracle(handshakes, 0.003, 0.0005, lanes))

    def test_non_increasing_in_parallelism(self):
        values = [rekey_cycle_time(37, 0.002, 0.0001, p) for p in range(1, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_exact_inverse_when_parallelism_divides(self):
        serial = rekey_cycle_time(24, 0.002, 0.0, 1)
        for p in (2, 3, 4, 6, 8, 12, 24):
            assert rekey_cycle_time(24, 0.002, 0.0, p) == pytest.approx(serial / p)

    def test_auth_overhead_counts_per_handshake(self):
        assert rekey_cycle_time(4, 0.002, 0.001, 2) == pytest.approx(2 * 0.003)
