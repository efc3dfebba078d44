import math
import tracemalloc

import numpy as np
import pytest

from pggsim.network import Graph, GraphParams, edge_list_text, generate_er


def one_draw_per_pair(n, p, seed):
    """G(n, p)'s edges from one uniform per pair, all pairs drawn at once in ascending order."""
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < p
    return tuple(zip(rows[mask].tolist(), cols[mask].tolist()))


class TestGenerateEr:
    @pytest.mark.parametrize("n, p, seed", [
        (1, 0.5, 0), (2, 0.5, 0), (2, 1.0, 3), (60, 0.5, 9), (100, 0.1, 5), (800, 0.01, 5),
    ])
    def test_rows_draw_the_uniforms_of_all_pairs(self, n, p, seed):
        assert generate_er(GraphParams(n=n, p=p, seed=seed)).edges == one_draw_per_pair(n, p, seed)

    def test_memory_grows_with_nodes_not_pairs(self):
        tracemalloc.start()
        try:
            generate_er(GraphParams(n=2000, p=0.001, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one uniform per pair at once takes 16 MB here, and its pair indices 32 MB
        assert peak < 4 << 20

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
        pairs = 40 * 39 / 2
        densities = [
            generate_er(GraphParams(n=40, p=0.25, seed=s)).edge_count / pairs
            for s in range(150)
        ]
        sigma_one = math.sqrt(0.25 * 0.75 / pairs)
        assert abs(np.mean(densities) - 0.25) <= 3 * sigma_one / math.sqrt(len(densities))


class TestGraphStructure:
    def test_adjacency_matches_edges(self):
        g = generate_er(GraphParams(n=25, p=0.3, seed=3))
        rebuilt = [set() for _ in range(g.n)]
        for i, j in g.edges:
            rebuilt[i].add(j)
            rebuilt[j].add(i)
        assert g.adjacency == tuple(tuple(sorted(nb)) for nb in rebuilt)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="p must"):
            GraphParams(n=5, p=1.5, seed=0)
        with pytest.raises(ValueError, match="n must"):
            GraphParams(n=0, p=0.5, seed=0)


class TestEdgeListText:
    def test_format(self):
        g = Graph(n=3, edges=((0, 1), (1, 2)), adjacency=((1,), (0, 2), (1,)))
        text = edge_list_text(g)
        assert text == "3 2\n0 1\n1 2\n"
