"""Small undirected graphs on vertices 1..n, edge sets as sorted pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .perms import Pair, Permutation, inversion_set, pair_masks


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are pairs (u, v) with u < v."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        edges = frozenset(tuple(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.n < 1:
            raise ValueError("n must be positive")
        for u, v in edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"invalid edge {(u, v)} for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing each edge to (min, max)."""
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            normalized.add((min(u, v), max(u, v)))
        return cls(n, frozenset(normalized))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "Graph":
        universe = {
            (u, v) for u in range(1, self.n) for v in range(u + 1, self.n + 1)
        }
        return Graph(self.n, frozenset(universe - self.edges))

    def adjacency_masks(self) -> list[int]:
        """masks[v - 1] has bit (w - 1) set when v and w are adjacent."""
        out, inn = pair_masks(self.n, self.edges)
        return [o | i for o, i in zip(out, inn)]


def components_within(mask: int, adjacency: list[int]) -> list[int]:
    """Connected components of the subgraph induced on the bitmask ``mask``.

    Vertices are 0-based bit positions; adjacency[v] is v's neighbor mask.
    Components come back as bitmasks sorted by lowest vertex.
    """
    remaining = mask
    comps = []
    while remaining:
        seed = remaining & -remaining
        comp = 0
        frontier = seed
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= adjacency[v] & mask
            frontier = nxt & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def inversion_graph(p: Permutation) -> Graph:
    """The undirected graph with an edge for every inversion of p."""
    return Graph(p.n, inversion_set(p).pairs)


def complete_graph(n: int) -> Graph:
    return Graph(
        n, frozenset((u, v) for u in range(1, n) for v in range(u + 1, n + 1))
    )


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = {(k, k + 1) for k in range(1, n)} | {(1, n)}
    return Graph(n, frozenset(edges))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((k, k + 1) for k in range(1, n)))
