"""Erdős–Rényi random graphs.

Graphs are undirected, stored as both an edge list and an adjacency list.
The social-tie density that rescales the exploration term of the
network-scaled dynamics enters as the `density` config key; the expected
density of G(n, p) is p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected graph: node count, edge list with i < j, and adjacency lists."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphParams:
    """Generator inputs: node count, independent edge probability, RNG seed."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")


def generate_er(gp: GraphParams) -> Graph:
    """G(n, p): every unordered pair is an edge independently with probability p.

    Pairs are visited in ascending (i, j) order with one uniform draw each, so
    a fixed seed always yields the same graph. The draws come one row i at a
    time, so memory grows with n and the edges, not with the n^2 pairs. That
    order also leaves each adjacency list ascending.
    """
    rng = np.random.default_rng(gp.seed)
    edges = tuple((i, j) for i in range(gp.n - 1)
                  for j in (np.flatnonzero(rng.random(gp.n - 1 - i) < gp.p) + i + 1).tolist())
    neighbors: list[list[int]] = [[] for _ in range(gp.n)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    return Graph(n=gp.n, edges=edges, adjacency=tuple(map(tuple, neighbors)))


def edge_list_text(g: Graph) -> str:
    """Serialize as 'n m' followed by one ascending 'i j' line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"
