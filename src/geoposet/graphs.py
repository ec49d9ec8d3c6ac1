"""Small undirected graphs on vertices 1..n, edge sets as sorted pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .perms import Pair, PairSet, Permutation, _check_pairs, _check_size, inversion_set, pair_masks


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are pairs (u, v) with u < v."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        edges = frozenset(tuple(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        _check_pairs(self.n, edges, "edge")

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
        return Graph(self.n, PairSet.universe(self.n).pairs - self.edges)

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
        comp = frontier = remaining & -remaining
        while frontier:
            frontier = successors(adjacency, frontier) & mask & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def successors(rows: Sequence[int], mask: int) -> int:
    """The union of the out-masks of the vertices in ``mask``."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= rows[low.bit_length() - 1]
        mask ^= low
    return reach


def is_closed(rows: Sequence[int]) -> bool:
    """Transitivity on out-masks: whatever u reaches in two steps, u reaches
    in one."""
    return all(not successors(rows, m) & ~m for m in rows)


def inversion_graph(p: Permutation) -> Graph:
    """The undirected graph with an edge for every inversion of p."""
    return Graph(p.n, inversion_set(p).pairs)


def complete_graph(n: int) -> Graph:
    return Graph(n, PairSet.universe(n).pairs)


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def cycle_graph(n: int) -> Graph:
    _check_size(n)
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = {(k, k + 1) for k in range(1, n)} | {(1, n)}
    return Graph(n, frozenset(edges))


def path_graph(n: int) -> Graph:
    _check_size(n)
    return Graph(n, frozenset((k, k + 1) for k in range(1, n)))
