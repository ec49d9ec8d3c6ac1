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

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphs import Graph, bits
from .perms import Pair, Permutation, inversion_set, pair_masks, word_from_masks
# Not called here; perfbench/spans.py wraps this name on this module.
from .perms import perm_from_inversion_set  # noqa: F401

CanonicalKey = bytes


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..n without self-loops."""

    n: int
    arcs: frozenset[Pair]

    def __post_init__(self) -> None:
        arcs = frozenset(tuple(a) for a in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        if self.n < 1:
            raise ValueError("n must be positive")
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"arc {(u, v)} out of range for n={self.n}")

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
        return cls(int(obj["n"]), frozenset((int(u), int(v)) for u, v in obj["arcs"]))


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
    pruning any branch that exceeds the best known prefix.
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

    def extend(depth: int) -> None:
        nonlocal placed_mask
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
            placed.append(v)
            placed_mask |= 1 << v
            extend(depth + 1)
            placed.pop()
            placed_mask &= ~(1 << v)

    extend(0)
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
    never collide.  Intended for n <= 16.
    """
    if d.n > 16:
        raise ValueError("canonical keys are supported for n <= 16")
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
    odesc: tuple[int, ...]  # out-degrees, descending
    idesc: tuple[int, ...]  # in-degrees, descending
    order: tuple[int, ...]  # search order: decreasing total degree, then index
    # at_least[a * n + b]: the vertices with out-degree >= a and in-degree >= b
    at_least: tuple[int, ...]

    @classmethod
    def from_masks(cls, out: list[int], inn: list[int]) -> "MaskDigraph":
        odeg = tuple(m.bit_count() for m in out)
        ideg = tuple(m.bit_count() for m in inn)
        n = len(out)
        order = sorted(range(n), key=lambda v: (-(odeg[v] + ideg[v]), v))
        at_least = [0] * (n * n)
        for v in range(n):
            for a in range(odeg[v] + 1):
                for b in range(ideg[v] + 1):
                    at_least[a * n + b] |= 1 << v
        return cls(
            tuple(out),
            tuple(inn),
            odeg,
            ideg,
            tuple(sorted(odeg, reverse=True)),
            tuple(sorted(ideg, reverse=True)),
            tuple(order),
            tuple(at_least),
        )

    def flipped(self) -> "MaskDigraph":
        """Every arc reversed; total degrees, hence the search order, stay."""
        n = len(self.out)
        return self._replace(
            out=self.inn,
            inn=self.out,
            odeg=self.ideg,
            ideg=self.odeg,
            odesc=self.idesc,
            idesc=self.odesc,
            at_least=tuple(self.at_least[b * n + a] for a in range(n) for b in range(n)),
        )


def degrees_dominate(small: MaskDigraph, big: MaskDigraph) -> bool:
    """Necessary condition for a spanning embedding of small into big.

    An embedding sends each vertex to a distinct one with at least its out-
    and in-degree, so the k-th largest out-degree (and in-degree) of big
    must be at least that of small, for every k.
    """
    return all(map(int.__ge__, big.odesc, small.odesc)) and all(
        map(int.__ge__, big.idesc, small.idesc)
    )


def mask_embedding(small: MaskDigraph, big: MaskDigraph) -> Optional[list[int]]:
    """The spanning embedding search: a vertex bijection (image of v at
    index v) mapping every arc of small onto an arc of big, or None.

    Backtracking over the vertices of small in ``small.order``; each goes to
    the least free vertex of big that has at least its out- and in-degree
    and has arcs to and from the images of its already placed neighbours.
    The degree-dominance test rejects before any search.
    """
    if not degrees_dominate(small, big):
        return None
    n = len(small.out)
    s_out, s_in, s_odeg, s_ideg, order = small.out, small.inn, small.odeg, small.ideg, small.order
    b_out, b_in, at_least = big.out, big.inn, big.at_least
    mapping = [0] * n

    def place(idx: int, used: int, placed: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        need_out = need_in = 0
        m = s_out[v] & placed
        while m:
            low = m & -m
            need_out |= 1 << mapping[low.bit_length() - 1]
            m ^= low
        m = s_in[v] & placed
        while m:
            low = m & -m
            need_in |= 1 << mapping[low.bit_length() - 1]
            m ^= low
        free = at_least[s_odeg[v] * n + s_ideg[v]] & ~used
        while free:
            low = free & -free
            free ^= low
            w = low.bit_length() - 1
            if b_out[w] & need_out == need_out and b_in[w] & need_in == need_in:
                mapping[v] = w
                if place(idx + 1, used | low, placed | 1 << v):
                    return True
        return False

    return mapping if place(0, 0, 0) else None


def spanning_embeds(dsmall: Digraph, dbig: Digraph) -> Optional[dict[int, int]]:
    """A vertex bijection mapping every arc of dsmall onto an arc of dbig.

    Returns the mapping (1-based) or None; ``mask_embedding`` does the
    search.
    """
    if dsmall.n != dbig.n:
        raise ValueError("spanning embeddings need equal vertex counts")
    mapping = mask_embedding(
        MaskDigraph.from_masks(*dsmall.masks()), MaskDigraph.from_masks(*dbig.masks())
    )
    if mapping is None:
        return None
    return {v + 1: w + 1 for v, w in enumerate(mapping)}


# ---------------------------------------------------------------------------
# transitive orientations


def _closed(out: list[int]) -> bool:
    """Transitivity on out-masks: whatever u reaches in two steps, u reaches
    in one."""
    for m in out:
        reach = 0
        for v in bits(m):
            reach |= out[v]
        if reach & ~m:
            return False
    return True


def is_transitive(d: Digraph) -> bool:
    """(u, v) and (v, w) present forces (u, w) present.

    A two-step walk back to u itself would demand a self-loop, so digraphs
    containing a 2-cycle are never transitive.
    """
    return _closed(d.masks()[0])


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
    if f.n != f1.n:
        raise ValueError("orientations live on different vertex counts")
    n = f.n
    out, inn = f.masks()
    out1, inn1 = f1.masks()
    if not _closed(out) or not _closed(out1):
        raise ValueError("both orientations must be transitive")
    for v in range(n):
        around = (out[v], out1[v], inn[v], inn1[v])
        reached = out[v] | out1[v] | inn[v] | inn1[v]
        if reached.bit_count() != n - 1 or sum(m.bit_count() for m in around) != n - 1:
            raise ValueError("orientations do not assemble into a tournament")
    union = [a | b for a, b in zip(out, out1)]
    if not _closed(union):
        raise ValueError("assembled tournament is not transitive")
    rank = [n - 1 - m.bit_count() for m in union]
    ranked_out = [0] * n
    ranked_in = [0] * n
    for u in range(n):
        for v in bits(out[u]):
            ranked_out[rank[u]] |= 1 << rank[v]
            ranked_in[rank[v]] |= 1 << rank[u]
    return Permutation(word_from_masks(ranked_out, ranked_in))
