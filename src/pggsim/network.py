"""Erdős–Rényi random graphs and the social-tie density factor.

Graphs are undirected, stored as both an edge list and an adjacency list.
The density factor maps a concrete graph to the scalar that rescales the
exploration term of the network-scaled dynamics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected graph: node count, edge list with i < j, and adjacency lists."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range or not ascending")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if self.adjacency != _adjacency_from_edges(self.n, self.edges):
            raise ValueError("adjacency list does not match the edge list")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        norm = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
        return cls(n=n, edges=norm, adjacency=_adjacency_from_edges(n, norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _adjacency_from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        neighbors[i].append(j)
        neighbors[j].append(i)
    return tuple(tuple(sorted(nb)) for nb in neighbors)


@dataclass(frozen=True)
class GraphParams:
    """Generator inputs: node count, independent edge probability, RNG seed."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")


def generate_er(gp: GraphParams) -> Graph:
    """G(n, p): every unordered pair is an edge independently with probability p.

    Pairs are visited in ascending (i, j) order with one uniform draw each, so
    a fixed seed always yields the same graph.
    """
    rng = np.random.default_rng(gp.seed)
    rows, cols = np.triu_indices(gp.n, k=1)
    mask = rng.random(len(rows)) < gp.p
    edges = tuple(zip(rows[mask].tolist(), cols[mask].tolist()))
    return Graph(n=gp.n, edges=edges, adjacency=_adjacency_from_edges(gp.n, edges))


def degree_sum(g: Graph) -> int:
    """Sum of all vertex degrees; equals twice the edge count."""
    return sum(len(nb) for nb in g.adjacency)


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one node")
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                queue.append(w)
    return count == g.n


def density_factor(g: Graph) -> float:
    """Plain graph density 2|E| / (n(n-1)), always in [0, 1]."""
    if g.n < 2:
        raise ValueError("density requires at least two nodes")
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def edge_list_text(g: Graph) -> str:
    """Serialize as 'n m' followed by one ascending 'i j' line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"
