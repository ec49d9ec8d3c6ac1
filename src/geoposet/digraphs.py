"""Permutation digraphs, exact isomorphism, embeddings, and orientations.

D(pi) is the digraph on vertices 1..n whose arcs are the inversions of pi.
Isomorphism testing goes through an exact canonical key: the key is the
lexicographically least adjacency encoding over vertex orderings compatible
with a color refinement, so equal keys hold exactly for isomorphic
digraphs.  The refinement starts from the ranked (out-degree, in-degree)
pairs and splits cells by how many out- and in-neighbours each vertex has
in every cell, counted on bitmasks, until the partition is equitable or
discrete (McKay & Piperno, "Practical graph isomorphism II", 2014).
Interchangeable vertices (transposition automorphisms) are collapsed during
the search, which keeps highly symmetric inputs such as arcless digraphs
cheap.

The module also hosts the brute-force transitive-orientation enumerator and
the construction that reads a permutation off a pair of transitive
orientations of complementary graphs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Optional

from .graphs import Graph, bits, is_closed
from .perms import Pair, Permutation, inversion_set, pair_masks, word_from_masks
from .perms import _check_same_n, _check_size
# Not called here; perfbench/spans.py wraps this name on this module.
from .perms import perm_from_inversion_set  # noqa: F401

CanonicalKey = bytes
KEY_MAX_N = 16  # the largest digraph, or word, that gets a canonical key
KEY_MAX_NODES = 100_000  # the most vertex placements one canonical key may try


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..n without self-loops."""

    n: int
    arcs: frozenset[Pair]

    def __post_init__(self) -> None:
        arcs = frozenset(tuple(a) for a in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        _check_size(self.n)
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (type(u) is type(v) is int and 1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"invalid arc {(u, v)} for n={self.n}")

    def sorted_arcs(self) -> list[Pair]:
        return sorted(self.arcs)

    def masks(self) -> tuple[list[int], list[int]]:
        """Out- and in-masks: bit v-1 of out[u-1] and bit u-1 of in[v-1]
        are set for each arc (u, v)."""
        return pair_masks(self.n, self.arcs)

    def underlying_graph(self) -> Graph:
        return Graph.from_edges(self.n, self.arcs)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "arcs": [[u, v] for u, v in self.sorted_arcs()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Digraph":
        """The digraph ``to_json_obj`` wrote.  n is taken as it is, so
        ``__post_init__`` refuses floats, strings and bools; ValueError on
        any other shape of object, or an arc that is not a list of two ints."""
        if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("arcs"), list)):
            raise ValueError("a digraph is an object with 'n' and an 'arcs' list")
        arcs = obj["arcs"]
        if not all(
            isinstance(a, list) and len(a) == 2 and all(type(x) is int for x in a) for a in arcs
        ):
            raise ValueError("every arc must be a list of two int vertices")
        return cls(obj["n"], frozenset(map(tuple, arcs)))


def from_perm(p: Permutation) -> Digraph:
    """The permutation digraph D(p): arcs are exactly the inversions."""
    return Digraph(p.n, inversion_set(p).pairs)


def reverse(d: Digraph) -> Digraph:
    """Flip every arc.  For permutation digraphs -D(p) is isomorphic to
    D(p inverse)."""
    return Digraph(d.n, frozenset((v, u) for u, v in d.arcs))


# ---------------------------------------------------------------------------
# canonical labeling


def _rank(sigs: list) -> tuple[list[int], int]:
    """Each signature's rank among the distinct ones, and how many there are."""
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [ranking[s] for s in sigs], len(ranking)


def _refine_colors(n: int, out: list[int], inn: list[int]) -> list[int]:
    """Iterated color refinement to an equitable partition.

    Colors start as the ranks of the (out-degree, in-degree) pairs.  Each
    round, a vertex's signature is its color followed by how many of its
    out- and in-neighbours lie in each cell, read as ``bit_count`` of the
    adjacency mask against the cell mask; the new colors are the ranks of
    those signatures.  Refinement stops when a round splits no cell or
    every cell is a single vertex.  Signatures are label-invariant, so the
    color ids order the cells canonically.
    """
    colors, ncolors = _rank([(o.bit_count(), i.bit_count()) for o, i in zip(out, inn)])
    while ncolors < n:
        cells = [0] * ncolors
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        sigs = []
        for v, c in enumerate(colors):
            if cells[c] & (cells[c] - 1):
                o, i = out[v], inn[v]
                sigs.append(
                    (
                        c,
                        *[(o & m).bit_count() for m in cells],
                        *[(i & m).bit_count() for m in cells],
                    )
                )
            else:
                sigs.append((c,))  # a single vertex's cell cannot split
        colors, count = _rank(sigs)
        if count == ncolors:
            break
        ncolors = count
    return colors


def _twin_predecessors(n: int, out: list[int], inn: list[int]) -> list[Optional[int]]:
    """prev[v] = largest u < v whose transposition with v is an automorphism.

    Constraining search orders to place u before v never loses the minimum,
    because applying the automorphism re-sorts twins without changing the
    adjacency encoding.
    """
    prev: list[Optional[int]] = [None] * n
    for v in range(n):
        for u in range(v - 1, -1, -1):
            strip = ~((1 << u) | (1 << v))
            if (
                out[u] & strip == out[v] & strip
                and inn[u] & strip == inn[v] & strip
                and (out[u] >> v) & 1 == (out[v] >> u) & 1
            ):
                prev[v] = u
                break
    return prev


def _min_label_chunks(n: int, out: list[int], inn: list[int]) -> list[int]:
    """Minimal adjacency encoding over admissible vertex orderings.

    Orderings list all vertices of the first refinement cell, then the
    second, and so on.  Placing the vertex at position k determines 2k new
    adjacency bits against the already placed vertices; those bits form
    chunk k, and the search keeps the lexicographically least chunk stream,
    pruning any branch that exceeds the best known prefix.  When refinement
    splits nothing the search is exponential, so it raises ValueError past
    ``KEY_MAX_NODES`` placements.
    """
    colors = _refine_colors(n, out, inn)
    prev_twin = _twin_predecessors(n, out, inn)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_list = [sorted(cells[c]) for c in sorted(cells)]
    cell_at_depth = []
    for idx, cell in enumerate(cell_list):
        cell_at_depth.extend([idx] * len(cell))

    best: list[int] = []
    placed: list[int] = []
    placed_mask = 0
    budget = KEY_MAX_NODES

    def extend(depth: int) -> None:
        nonlocal placed_mask, budget
        if depth == n:
            return
        for v in cell_list[cell_at_depth[depth]]:
            if placed_mask >> v & 1:
                continue
            pt = prev_twin[v]
            if pt is not None and not placed_mask >> pt & 1:
                continue
            ov = out[v]
            chunk = 0
            for u in placed:
                chunk = (chunk << 2) | (((out[u] >> v) & 1) << 1) | ((ov >> u) & 1)
            if depth < len(best):
                if chunk > best[depth]:
                    continue
                if chunk < best[depth]:
                    del best[depth:]
                    best.append(chunk)
            else:
                best.append(chunk)
            budget -= 1
            if budget < 0:
                raise ValueError(f"canonical key search passed {KEY_MAX_NODES} placements")
            placed.append(v)
            placed_mask |= 1 << v
            extend(depth + 1)
            placed.pop()
            placed_mask &= ~(1 << v)

    try:
        extend(0)
    finally:
        del extend  # the closure refers to itself: break the cycle
    assert len(best) == n
    return best


def _key_from_masks(n: int, out: list[int], inn: list[int]) -> CanonicalKey:
    chunks = _min_label_chunks(n, out, inn)
    acc = 0
    for k, c in enumerate(chunks):
        acc = (acc << (2 * k)) | c
    nbytes = (n * (n - 1) + 7) // 8
    return bytes([n]) + acc.to_bytes(nbytes, "big")


def canonical_key(d: Digraph) -> CanonicalKey:
    """A byte string equal for two digraphs exactly when they are isomorphic.

    The leading byte is the vertex count, so digraphs of different sizes
    never collide.  Intended for n <= ``KEY_MAX_N``.  Raises ValueError when
    the search passes ``KEY_MAX_NODES`` placements, as on a regular
    tournament on 13 vertices, which refinement does not split.  Inside
    ``KEY_MAX_N`` it refuses the perfect matching 21⊕…⊕21 on 16 vertices
    (14 are keyed): twin collapsing removes only transposition
    automorphisms, and swapping two arcs of the matching is a product of
    two transpositions.  ``geoequiv.class_key`` keys such words.
    """
    if d.n > KEY_MAX_N:
        raise ValueError(f"canonical keys are supported for n <= {KEY_MAX_N}")
    return _key_from_masks(d.n, *d.masks())


def canonical_key_hex(d: Digraph) -> str:
    return canonical_key(d).hex()


def is_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return canonical_key(d1) == canonical_key(d2)


def related(d1: Digraph, d2: Digraph) -> bool:
    """Isomorphic directly or after reversing all arcs of one of them."""
    return is_isomorphic(d1, d2) or is_isomorphic(d1, reverse(d2))


# ---------------------------------------------------------------------------
# spanning embeddings


class MaskDigraph(NamedTuple):
    """A digraph on vertices 0..n-1 as out/in adjacency masks, with the
    degree data the embedding search reads, computed once."""

    out: tuple[int, ...]
    inn: tuple[int, ...]
    odeg: tuple[int, ...]
    ideg: tuple[int, ...]
    # (out-degree, in-degree) of every vertex, descending: the matching test
    pairs: tuple[tuple[int, int], ...]
    order: tuple[int, ...]  # search order: decreasing total degree, then index

    @classmethod
    def from_masks(cls, out: list[int], inn: list[int]) -> "MaskDigraph":
        odeg = tuple(map(int.bit_count, out))
        ideg = tuple(map(int.bit_count, inn))
        total = list(map(add, odeg, ideg))
        # stable, so ties stay in ascending index even in reverse
        order = sorted(range(len(out)), key=total.__getitem__, reverse=True)
        return cls(
            tuple(out),
            tuple(inn),
            odeg,
            ideg,
            tuple(sorted(zip(odeg, ideg), reverse=True)),
            tuple(order),
        )

    def flipped(self) -> "MaskDigraph":
        """Every arc reversed; total degrees, hence the search order, stay."""
        pairs = tuple(sorted(zip(self.ideg, self.odeg), reverse=True))
        return MaskDigraph(self.inn, self.out, self.ideg, self.odeg, pairs, self.order)


def degrees_dominate(small: MaskDigraph, big: MaskDigraph) -> bool:
    """Necessary condition for a spanning embedding of small into big.

    An embedding sends each vertex to a distinct one with at least its out-
    and in-degree; this decides exactly whether such a degree matching
    exists (a bipartite matching, Hall 1935).  Small's pairs are taken in
    descending order.  Before each, every vertex of big whose out-degree
    reaches the current out-demand joins a pool; out-demands only fall, so
    a vertex once admitted stays admissible for every later demand.  The
    demand then takes the pooled vertex with the least sufficient in-degree:
    any later demand that one serves, a larger in-degree serves too, so the
    greedy choice never loses a matching.
    """
    targets = big.pairs
    pool: list[int] = []
    k = 0
    for out_need, in_need in small.pairs:
        while k < len(targets) and targets[k][0] >= out_need:
            insort(pool, targets[k][1])
            k += 1
        at = bisect_left(pool, in_need)
        if at == len(pool):
            return False
        del pool[at]
    return True


def mask_embedding(small: MaskDigraph, big: MaskDigraph) -> Optional[list[int]]:
    """The spanning embedding search: a vertex bijection (image of v at
    index v) mapping every arc of small onto an arc of big, or None.

    The degree matching test rejects before any search (``degrees_dominate``);
    only a pair that passes it reaches ``_embedding_search``, so a rejected
    pair builds no search state at all.  The search leaves no reference
    cycle behind either: reference counting frees it on return, and the
    cyclic collector never sees it.
    """
    if not degrees_dominate(small, big):
        return None
    return _embedding_search(small, big)


def _embedding_search(small: MaskDigraph, big: MaskDigraph) -> Optional[list[int]]:
    """Backtracking over the vertices of small in ``small.order``; each tries,
    in ascending order, the free vertices of big that have arcs to and from
    the images of its already placed neighbours (one mask intersection per
    neighbour), skipping a target with less out- or in-degree than v.
    """
    n = len(small.out)
    s_out, s_in, s_odeg, s_ideg, order = small.out, small.inn, small.odeg, small.ideg, small.order
    b_out, b_in, b_odeg, b_ideg = big.out, big.inn, big.odeg, big.ideg
    mapping = [0] * n

    def place(idx: int, unused: int, placed: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        free = unused
        m = s_out[v] & placed
        while m:
            low = m & -m
            free &= b_in[mapping[low.bit_length() - 1]]
            m ^= low
        m = s_in[v] & placed
        while m:
            low = m & -m
            free &= b_out[mapping[low.bit_length() - 1]]
            m ^= low
        odeg, ideg = s_odeg[v], s_ideg[v]
        while free:
            low = free & -free
            free ^= low
            w = low.bit_length() - 1
            if b_odeg[w] >= odeg and b_ideg[w] >= ideg:
                mapping[v] = w
                if place(idx + 1, unused ^ low, placed | 1 << v):
                    return True
        return False

    found = place(0, (1 << n) - 1, 0)
    del place  # the closure refers to itself: break the cycle
    return mapping if found else None


def spanning_embeds(dsmall: Digraph, dbig: Digraph) -> Optional[dict[int, int]]:
    """A vertex bijection mapping every arc of dsmall onto an arc of dbig.

    Returns the mapping (1-based) or None; ``mask_embedding`` does the
    search.
    """
    _check_same_n(dsmall.n, dbig.n)
    mapping = mask_embedding(
        MaskDigraph.from_masks(*dsmall.masks()), MaskDigraph.from_masks(*dbig.masks())
    )
    if mapping is None:
        return None
    return {v + 1: w + 1 for v, w in enumerate(mapping)}


# ---------------------------------------------------------------------------
# transitive orientations


def is_transitive(d: Digraph) -> bool:
    """(u, v) and (v, w) present forces (u, w) present.

    A two-step walk back to u itself would demand a self-loop, so digraphs
    containing a 2-cycle are never transitive.
    """
    return is_closed(d.masks()[0])


def enumerate_transitive_orientations(g: Graph) -> list[Digraph]:
    """All transitive orientations of g by direct search over edge
    directions, with early transitivity cuts.

    A brute-force oracle, deliberately independent of the counting formula
    derived from the modular decomposition; bounded to n <= 10.
    """
    if g.n > 10:
        raise ValueError("orientation enumeration is a small-graph oracle (n <= 10)")
    n = g.n
    edges = sorted(g.edges)
    adjacency = g.adjacency_masks()
    out = [0] * n
    inn = [0] * n
    results: list[Digraph] = []

    def consistent(u: int, v: int) -> bool:
        # adding arc u -> v (0-based); every 2-path through the new arc must
        # close with a correctly oriented existing edge
        for x in bits(inn[u]):
            if x == v:
                continue
            if not adjacency[x] >> v & 1:
                return False
            if out[v] >> x & 1:
                return False
        for y in bits(out[v]):
            if y == u:
                continue
            if not adjacency[u] >> y & 1:
                return False
            if out[y] >> u & 1:
                return False
        return True

    def assign(i: int) -> None:
        if i == len(edges):
            arcs = frozenset(
                (u + 1, v + 1) for u in range(n) for v in bits(out[u])
            )
            results.append(Digraph(n, arcs))
            return
        a, b = edges[i][0] - 1, edges[i][1] - 1
        for u, v in ((a, b), (b, a)):
            if consistent(u, v):
                out[u] |= 1 << v
                inn[v] |= 1 << u
                assign(i + 1)
                out[u] &= ~(1 << v)
                inn[v] &= ~(1 << u)

    assign(0)
    del assign  # the closure refers to itself: break the cycle
    return results


def induced_permutation(f: Digraph, f1: Digraph) -> Permutation:
    """Read a permutation off transitive orientations of complementary graphs.

    The union of the two orientations must be a transitive tournament: at
    each vertex, the out- and in-neighbours of both digraphs are disjoint
    and cover every other vertex.  Its unique rank labeling (sources first)
    sends the arcs of ``f`` to the inversion set of the returned
    permutation; that set is one because ``f`` and ``f1`` stay transitive
    under the labeling and split every pair between them.
    """
    _check_same_n(f.n, f1.n)
    n = f.n
    out, inn = f.masks()
    out1, inn1 = f1.masks()
    if not is_closed(out) or not is_closed(out1):
        raise ValueError("both orientations must be transitive")
    for v in range(n):
        around = (out[v], out1[v], inn[v], inn1[v])
        reached = out[v] | out1[v] | inn[v] | inn1[v]
        if reached.bit_count() != n - 1 or sum(m.bit_count() for m in around) != n - 1:
            raise ValueError("orientations do not assemble into a tournament")
    union = [a | b for a, b in zip(out, out1)]
    if not is_closed(union):
        raise ValueError("assembled tournament is not transitive")
    rank = [n - m.bit_count() for m in union]  # 1 for the source
    ranked = pair_masks(n, ((rank[u - 1], rank[v - 1]) for u, v in f.arcs))
    return Permutation(word_from_masks(*ranked))
