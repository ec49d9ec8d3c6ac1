"""Modular decomposition trees and what they say about orientation counts.

A module is a vertex set whose members look identical from outside: every
other vertex is adjacent to all of it or none of it.  Recursively splitting
a graph along its strong modules yields the modular decomposition tree,
whose internal nodes fall into three kinds:

* degenerate 0-node: the induced subgraph is disconnected (split into
  connected components);
* degenerate 1-node: the induced subgraph is connected but its complement
  is not (split into complement components);
* prime node: both are connected (split into maximal proper modules, which
  are then pairwise disjoint).

The number of transitive orientations of a transitively orientable graph is
the product of k! over degenerate 1-nodes with k children and 2 per prime
node.  For cographs (no prime nodes anywhere) the tree also determines how
many permutations a given orientation represents, hence the exact size of a
geo-equivalence class without enumerating S_n.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .digraphs import enumerate_transitive_orientations
from .geoequiv import _word_key
from .graphs import Graph, bits, components_within, inversion_graph
from .perms import Permutation, inverse_word
# Not called here; perfbench/spans.py wraps these two names on this module.
from .digraphs import canonical_key, from_perm  # noqa: F401


class NodeKind(enum.Enum):
    LEAF = "leaf"
    DEGENERATE_0 = "degenerate0"
    DEGENERATE_1 = "degenerate1"
    PRIME = "prime"


@dataclass(frozen=True)
class MDNode:
    vertices: frozenset[int]
    kind: NodeKind
    children: tuple["MDNode", ...] = ()

    def walk(self) -> Iterator["MDNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class MDTree:
    graph: Graph
    root: MDNode

    def internal_nodes(self) -> Iterator[MDNode]:
        return (node for node in self.root.walk() if node.kind is not NodeKind.LEAF)

    def has_prime_node(self) -> bool:
        return any(node.kind is NodeKind.PRIME for node in self.internal_nodes())

    def to_json_obj(self) -> dict:
        def encode(node: MDNode) -> dict:
            return {
                "kind": node.kind.value,
                "vertices": sorted(node.vertices),
                "children": [encode(c) for c in node.children],
            }

        return encode(self.root)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_dot(self) -> str:
        lines = ["digraph mdtree {", "  node [shape=box];"]
        ids = {}

        for idx, node in enumerate(self.root.walk()):
            ids[id(node)] = f"n{idx}"
            verts = ",".join(str(v) for v in sorted(node.vertices))
            lines.append(f'  n{idx} [label="{node.kind.value}\\n{{{verts}}}"];')
        for node in self.root.walk():
            for child in node.children:
                lines.append(f"  {ids[id(node)]} -> {ids[id(child)]};")
        lines.append("}")
        return "\n".join(lines)


def is_module(g: Graph, vertices: frozenset[int] | set[int]) -> bool:
    """Outside vertices must see all of the set or none of it."""
    m = set(vertices)
    if not m:
        raise ValueError("modules are nonempty")
    if not m <= set(range(1, g.n + 1)):
        raise ValueError("module contains out-of-range vertices")
    adjacency = g.adjacency_masks()
    mask = 0
    for v in m:
        mask |= 1 << (v - 1)
    for w in range(g.n):
        if mask >> w & 1:
            continue
        seen = adjacency[w] & mask
        if seen and seen != mask:
            return False
    return True


def _module_closure(u: int, v: int, mset: int, adjacency: list[int]) -> int:
    """Smallest module of the induced subgraph on mset containing u and v.

    Any vertex adjacent to part but not all of the current set belongs to
    every module containing it, so splitters are absorbed until none exist.
    """
    s = (1 << u) | (1 << v)
    while True:
        grew = False
        for w in bits(mset & ~s):
            nb = adjacency[w] & s
            if nb and nb != s:
                s |= 1 << w
                grew = True
        if not grew:
            return s


def _prime_children(mset: int, adjacency: list[int]) -> list[int]:
    """Maximal proper modules of a connected, co-connected induced subgraph.

    These are pairwise disjoint; each is the union of the overlapping
    pair closures through any one of its vertices.
    """
    closures = set()
    verts = list(bits(mset))
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            c = _module_closure(verts[a], verts[b], mset, adjacency)
            if c != mset:
                closures.add(c)
    children = []
    assigned = 0
    for v in verts:
        if assigned >> v & 1:
            continue
        s = 1 << v
        grew = True
        while grew:
            grew = False
            for c in closures:
                if c & s and c & ~s:
                    s |= c
                    grew = True
        assert s != mset, "maximal proper modules must stay proper under a prime node"
        children.append(s)
        assigned |= s
    assert assigned == mset
    return children


def decompose(g: Graph) -> MDTree:
    """The modular decomposition tree of g."""
    adjacency = g.adjacency_masks()
    full = (1 << g.n) - 1
    co_adjacency = [~adjacency[v] & full & ~(1 << v) for v in range(g.n)]

    def build(mset: int) -> MDNode:
        vertices = frozenset(v + 1 for v in bits(mset))
        if len(vertices) == 1:
            return MDNode(vertices, NodeKind.LEAF)
        comps = components_within(mset, adjacency)
        if len(comps) > 1:
            return MDNode(vertices, NodeKind.DEGENERATE_0, tuple(build(c) for c in comps))
        co_comps = components_within(mset, co_adjacency)
        if len(co_comps) > 1:
            return MDNode(
                vertices, NodeKind.DEGENERATE_1, tuple(build(c) for c in co_comps)
            )
        parts = _prime_children(mset, adjacency)
        parts.sort()
        return MDNode(vertices, NodeKind.PRIME, tuple(build(p) for p in parts))

    return MDTree(g, build(full))


def quotient_graph(g: Graph, node: MDNode) -> Graph:
    """The graph on the children of a node; representatives decide adjacency."""
    children = sorted(node.children, key=lambda c: min(c.vertices))
    reps = [min(c.vertices) for c in children]
    k = len(children)
    edges = set()
    for a in range(k):
        for b in range(a + 1, k):
            if g.has_edge(reps[a], reps[b]):
                edges.add((a + 1, b + 1))
    return Graph(k, frozenset(edges))


def count_transitive_orientations(g: Graph) -> int:
    """Count transitive orientations via the decomposition tree.

    Degenerate 1-nodes with k children contribute k! (their quotient is a
    complete graph), prime nodes contribute 2 when their quotient is
    orientable at all, and a single non-orientable prime quotient makes the
    whole count 0.
    """
    tree = decompose(g)
    total = 1
    for node in tree.internal_nodes():
        if node.kind is NodeKind.DEGENERATE_1:
            total *= math.factorial(len(node.children))
        elif node.kind is NodeKind.PRIME:
            orientations = enumerate_transitive_orientations(quotient_graph(g, node))
            if not orientations:
                return 0
            assert len(orientations) == 2, "orientable prime quotients orient uniquely"
            total *= 2
    return total


def is_cograph(g: Graph) -> bool:
    """No prime node anywhere in the decomposition tree."""
    return not decompose(g).has_prime_node()


def prime_unique_orientability_check(g: Graph) -> bool:
    """Every prime quotient admits 0 or exactly 2 transitive orientations.

    A test oracle for the uniqueness property; vacuously true without prime
    nodes.
    """
    tree = decompose(g)
    for node in tree.internal_nodes():
        if node.kind is NodeKind.PRIME:
            count = len(enumerate_transitive_orientations(quotient_graph(g, node)))
            if count not in (0, 2):
                return False
    return True


@dataclass(frozen=True)
class ClassSizeReport:
    """Closed-form size of a geo-equivalence class read off the tree."""

    n_d: int  # permutations represented by D(pi)
    self_related: bool  # D isomorphic to its own reversal
    class_size: int

    def __post_init__(self) -> None:
        expected = self.n_d if self.self_related else 2 * self.n_d
        if self.class_size != expected:
            raise ValueError("class_size inconsistent with n_d and self_related")


def cograph_class_size(p: Permutation) -> ClassSizeReport:
    """Size of the class of p when its inversion graph is a cograph.

    At each degenerate 0-node, permuting children that induce isomorphic
    sub-digraphs of D(p) never changes the represented permutation, so the
    node contributes k! divided by the factorials of the isomorphism-type
    multiplicities.  The sub-digraph on a child's values is the digraph of
    the pattern of p on them: the subsequence of those values, standardized.
    The class holds the represented permutations of both D(p) and its
    reversal, which coincide exactly when D(p) and D(p inverse) are
    isomorphic.
    """
    g = inversion_graph(p)
    tree = decompose(g)
    if tree.has_prime_node():
        raise ValueError(
            "inversion graph has a prime node; class size needs enumeration"
        )
    w = p.word
    n_d = 1
    for node in tree.internal_nodes():
        if node.kind is not NodeKind.DEGENERATE_0:
            continue
        types = Counter()
        for child in node.children:
            rank = {v: k for k, v in enumerate(sorted(child.vertices), start=1)}
            types[_word_key(tuple(rank[v] for v in w if v in rank))] += 1
        factor = math.factorial(len(node.children))
        for multiplicity in types.values():
            factor //= math.factorial(multiplicity)
        n_d *= factor
    self_related = _word_key(w) == _word_key(inverse_word(w))
    return ClassSizeReport(
        n_d=n_d,
        self_related=self_related,
        class_size=n_d if self_related else 2 * n_d,
    )
