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

One seeded closure, ``_module_closure``, is the only splitter test: it
absorbs every vertex that sees part but not all of a seed set.
``is_module`` asks whether a set is its own closure, and a prime node's
children are unions of the proper closures of vertex pairs.

The number of transitive orientations of a transitively orientable graph is
the product of k! over degenerate 1-nodes with k children and 2 per prime
node.  ``count_transitive_orientations`` and
``prime_unique_orientability_check`` both read one walk of the tree
(``_node_factors``), which rebuilds each prime quotient and decides it by
Gallai forcing from one edge.

For cograph words (no prime nodes anywhere) the tree also determines how
many permutations a given orientation represents, hence the exact size of a
geo-equivalence class without enumerating S_n.  ``cograph_class_size``
reads it off the word's substitution tree, the one the class key walks,
with no graph decomposition: a ⊕ node (a degenerate 0-node) with k
children contributes k! over the factorials of the multiplicities of its
child codes, and a ⊖ node (a degenerate 1-node) contributes 1.
``geoposet classify`` takes its "cograph" line from that walk too, so the
graph decomposition here (``decompose`` and what calls it) serves the
``verify`` suites and the public API only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .geoequiv import _separable_count, _tree_codes
from .graphs import Graph, bits, components_within, is_closed
from .perms import Permutation
# Not called here; perfbench/spans.py wraps these three names on this module.
from .digraphs import canonical_key, from_perm  # noqa: F401
from .graphs import inversion_graph  # noqa: F401


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
        return _node_json(self.root)

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


def _node_json(node: MDNode) -> dict:
    return {
        "kind": node.kind.value,
        "vertices": sorted(node.vertices),
        "children": [_node_json(c) for c in node.children],
    }


def is_module(g: Graph, vertices: frozenset[int] | set[int]) -> bool:
    """Outside vertices must see all of the set or none of it: the set is
    its own module closure (``_module_closure``) in the whole graph.
    Refuses an empty set and any vertex that is not an int in 1..n."""
    m = set(vertices)
    if not m:
        raise ValueError("modules are nonempty")
    if any(type(v) is not int or not 1 <= v <= g.n for v in m):
        raise ValueError("module contains out-of-range vertices")
    mask = sum(1 << (v - 1) for v in m)
    return _module_closure(mask, (1 << g.n) - 1, g.adjacency_masks()) == mask


def _module_closure(s: int, mset: int, adjacency: list[int]) -> int:
    """Smallest module of the induced subgraph on mset containing the seed s.

    Any vertex adjacent to part but not all of the current set belongs to
    every module containing it, so splitters are absorbed until none exist.
    This is the module's one splitter test: ``is_module`` asks whether a set
    is its own closure, and ``_prime_children`` closes pairs.
    """
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

    Under a prime node the maximal strong modules partition the vertices,
    and the only module meeting two of them is the whole set (Gallai 1967).
    So the closure of a pair is proper exactly when both vertices share a
    child, and the child of v is the union of v's proper pair closures.
    """
    children = []
    unassigned = mset
    while unassigned:
        v = (unassigned & -unassigned).bit_length() - 1
        child = 1 << v
        for w in bits(unassigned):
            if not child >> w & 1:
                closure = _module_closure(1 << v | 1 << w, mset, adjacency)
                if closure != mset:
                    child |= closure
        assert child != mset, "maximal proper modules must stay proper under a prime node"
        children.append(child)
        unassigned &= ~child
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
        parts = sorted(_prime_children(mset, adjacency))
        return MDNode(vertices, NodeKind.PRIME, tuple(build(p) for p in parts))

    root = build(full)
    del build  # the closure refers to itself: break the cycle
    return MDTree(g, root)


def quotient_graph(g: Graph, node: MDNode) -> Graph:
    """The graph on the children of a node; representatives decide adjacency."""
    reps = sorted(min(c.vertices) for c in node.children)
    k = len(reps)
    edges = set()
    for a in range(k):
        for b in range(a + 1, k):
            if g.has_edge(reps[a], reps[b]):
                edges.add((a + 1, b + 1))
    return Graph(k, frozenset(edges))


def _node_factors(g: Graph) -> Iterator[Optional[int]]:
    """Each internal node's factor of the orientation count of g.

    A degenerate 1-node with k children gives k! (its quotient is a
    complete graph), a degenerate 0-node nothing, and a prime node 2 or 0 by
    Gallai forcing from one edge of its quotient: if the forced arcs
    conflict, no orientation holds that edge either way, so there are 0;
    if they orient the whole quotient transitively, that orientation and
    its reverse are the only 2.  A prime node whose forced arcs do neither
    gives None, which Gallai (1967) rules out.
    """
    for node in decompose(g).internal_nodes():
        if node.kind is NodeKind.DEGENERATE_1:
            yield math.factorial(len(node.children))
        elif node.kind is NodeKind.PRIME:
            q = quotient_graph(g, node)
            out = _forced_arcs(q)
            if out is None:
                yield 0
            elif sum(o.bit_count() for o in out) == len(q.edges) and is_closed(out):
                yield 2
            else:
                yield None


def count_transitive_orientations(g: Graph) -> int:
    """Count transitive orientations via the decomposition tree: the
    product of k! over degenerate 1-nodes with k children and of 2 or 0
    over prime nodes (``_node_factors``).  Asserts that the forced arcs of
    every orientable prime quotient orient it.

    >>> from geoposet.graphs import complete_graph, cycle_graph, path_graph
    >>> count_transitive_orientations(cycle_graph(5))
    0
    >>> count_transitive_orientations(path_graph(4))
    2
    >>> count_transitive_orientations(complete_graph(4))
    24
    """
    factors = list(_node_factors(g))
    assert None not in factors, "conflict-free forcing orients a prime graph transitively"
    return math.prod(factors)


def _forced_arcs(q: Graph) -> Optional[list[int]]:
    """The arcs forced by orienting the first edge of q, as out-masks
    (0-based), or None when they force both directions of some edge.

    Gallai forcing: an arc x -> y forces x -> z for each z adjacent to x but
    not to y, and z -> y for each z adjacent to y but not to x.  Every
    transitive orientation holding the first arc holds all the forced arcs.
    """
    adjacency = q.adjacency_masks()
    out = [0] * q.n
    u, v = min(q.edges)
    stack = [(u - 1, v - 1)]
    while stack:
        x, y = stack.pop()
        if out[y] >> x & 1:
            return None
        if out[x] >> y & 1:
            continue
        out[x] |= 1 << y
        stack.extend((x, z) for z in bits(adjacency[x] & ~adjacency[y] & ~(1 << y)))
        stack.extend((z, y) for z in bits(adjacency[y] & ~adjacency[x] & ~(1 << x)))
    return out


def is_cograph(g: Graph) -> bool:
    """No prime node anywhere in the decomposition tree."""
    return not decompose(g).has_prime_node()


def prime_unique_orientability_check(g: Graph) -> bool:
    """Every prime quotient admits 0 or exactly 2 transitive orientations,
    decided by Gallai forcing from one edge, at any size
    (``_node_factors``).  Vacuously true without prime nodes.
    """
    return None not in _node_factors(g)


@dataclass(frozen=True)
class ClassSizeReport:
    """Closed-form size of a geo-equivalence class read off the tree."""

    n_d: int  # permutations represented by D(pi)
    self_related: bool  # D isomorphic to its own reversal

    @property
    def class_size(self) -> int:
        """n_d, doubled unless D(pi) is isomorphic to its reversal.

        >>> cograph_class_size(Permutation((1, 3, 2, 5, 4))).class_size
        3
        >>> cograph_class_size(Permutation((1, 2, 4, 5, 3))).class_size
        6
        """
        return self.n_d if self.self_related else 2 * self.n_d


def cograph_class_size(p: Permutation) -> ClassSizeReport:
    """Size of the class of p when its inversion graph is a cograph.

    Read off the class key's substitution tree (``geoequiv._tree_codes``),
    with no graph decomposition: the inversion graph is a cograph exactly
    when the word's tree has no prime node, and then its ⊕ nodes are the
    degenerate 0-nodes and its ⊖ nodes the degenerate 1-nodes.  Permuting
    ⊕ children that induce isomorphic sub-digraphs of D(p) never changes
    the represented permutation, so a ⊕ node with k children contributes
    k! over the factorials of the multiplicities of its child codes, and a
    ⊖ node, whose children keep their order, contributes 1
    (``geoequiv._separable_count``).  The class holds the represented
    permutations of both D(p) and its reversal, which coincide exactly when
    D(p) and D(p inverse) are isomorphic, that is when the two codes of
    the walk are equal.  Raises ValueError past n = 16, where words get no
    code, and on a prime node.
    """
    code, inverse_code = _tree_codes(bytes(p.word), {})
    n_d = _separable_count(code)[0]
    if not n_d:
        raise ValueError("inversion graph has a prime node; class size needs enumeration")
    return ClassSizeReport(n_d=n_d, self_related=code == inverse_code)
