import math

import numpy as np
import pytest

from pggsim.network import (
    Graph,
    GraphParams,
    degree_sum,
    density_factor,
    edge_list_text,
    generate_er,
    is_connected,
)

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestGenerateEr:
    def test_p_zero_is_empty(self):
        assert generate_er(GraphParams(n=50, p=0.0, seed=1)).edge_count == 0

    def test_p_one_is_complete(self):
        g = generate_er(GraphParams(n=50, p=1.0, seed=1))
        assert g.edge_count == 50 * 49 // 2

    def test_deterministic_per_seed(self):
        a = generate_er(GraphParams(n=60, p=0.2, seed=9))
        b = generate_er(GraphParams(n=60, p=0.2, seed=9))
        assert a.edges == b.edges
        c = generate_er(GraphParams(n=60, p=0.2, seed=10))
        assert a.edges != c.edges

    def test_edge_count_statistics(self):
        # binomial over 4950 pairs: mean 495, sd sqrt(4950*0.1*0.9) ~ 21.1
        counts = [generate_er(GraphParams(n=100, p=0.1, seed=s)).edge_count for s in range(200)]
        sigma = math.sqrt(4950 * 0.1 * 0.9)
        standard_error = sigma / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 495.0) <= 3 * standard_error

    def test_edges_ascending_and_in_range(self):
        g = generate_er(GraphParams(n=30, p=0.3, seed=2))
        assert g.edges == tuple(sorted(g.edges))
        assert all(0 <= i < j < 30 for i, j in g.edges)

    def test_mean_density_tracks_p(self):
        densities = [
            density_factor(generate_er(GraphParams(n=40, p=0.25, seed=s)))
            for s in range(150)
        ]
        sigma_one = math.sqrt(0.25 * 0.75 / (40 * 39 / 2))
        assert abs(np.mean(densities) - 0.25) <= 3 * sigma_one / math.sqrt(len(densities))


class TestDegreeSum:
    def test_triangle(self):
        assert degree_sum(TRIANGLE) == 6

    def test_empty(self):
        assert degree_sum(Graph.from_edges(4, [])) == 0

    def test_handshake_on_generated_graphs(self):
        for seed in range(50):
            g = generate_er(GraphParams(n=40, p=0.15, seed=seed))
            assert degree_sum(g) == 2 * g.edge_count


class TestIsConnected:
    def test_single_node(self):
        assert is_connected(Graph.from_edges(1, []))

    def test_two_isolated_nodes(self):
        assert not is_connected(Graph.from_edges(2, []))

    def test_path(self):
        assert is_connected(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_two_components(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestDensityFactor:
    def test_complete_graph_standard(self):
        g = generate_er(GraphParams(n=5, p=1.0, seed=0))
        assert density_factor(g) == 1.0

    def test_empty_graph(self):
        assert density_factor(Graph.from_edges(6, [])) == 0.0

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError, match="two nodes"):
            density_factor(Graph.from_edges(1, []))

    def test_standard_always_in_unit_interval(self):
        for seed in range(30):
            g = generate_er(GraphParams(n=12, p=0.5, seed=seed))
            assert 0.0 <= density_factor(g) <= 1.0


class TestGraphStructure:
    def test_adjacency_matches_edges(self):
        g = generate_er(GraphParams(n=25, p=0.3, seed=3))
        rebuilt = Graph.from_edges(g.n, g.edges)
        assert rebuilt.adjacency == g.adjacency

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_mismatched_adjacency(self):
        with pytest.raises(ValueError, match="adjacency"):
            Graph(n=2, edges=((0, 1),), adjacency=((), ()))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="p must"):
            GraphParams(n=5, p=1.5)
        with pytest.raises(ValueError, match="n must"):
            GraphParams(n=0, p=0.5)


class TestEdgeListText:
    def test_format(self):
        text = edge_list_text(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert text == "3 2\n0 1\n1 2\n"
