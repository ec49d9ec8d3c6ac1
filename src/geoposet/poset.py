"""The order on geo-equivalence classes, Hasse diagrams, and Bruhat covers.

One class strictly precedes another when the crossing pattern of the first
embeds into that of the second: the digraph of any representative must map,
arcs onto arcs, into the digraph of the target representative or of its
inverse.  A proper embedding forces strictly fewer inversions, so classes
with equal counts are never comparable, which is also what makes the
relation antisymmetric.

``build_poset`` fills one bitmask row per class.  Each representative's
digraph is built once, as adjacency masks straight from the word, together
with its arc reversal (isomorphic to the inverse's digraph).  Rows are filled
from the highest inversion count down, so the rows of every possible target
are finished first.  Within a row, targets are visited in ascending
inversion count: a target already in the row is implied by transitivity and
skipped, and a successful embedding ORs in the target's whole row, since
embeddings compose.  ``mask_embedding`` rejects a pair whose sorted degree
sequences are not dominated pointwise before it searches at all.

The weak Bruhat orders (containment of inversion sets, either of the word
or of its inverse) induce a suborder: every Bruhat containment yields
precedence, but not conversely.  ``bruhat_extension_check`` verifies the
containment direction for small n on the cover steps of both weak orders,
which their closures and the transitivity of precedence make enough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import Literal, Optional

from .digraphs import MaskDigraph, mask_embedding
from .geoequiv import ClassTable, GeoClass, enumerate_classes
from .graphs import bits
from .perms import Permutation, all_permutations, inverse, inverse_word, word_masks
# Not called here; perfbench/spans.py wraps these names on this module.
from .digraphs import from_perm, spanning_embeds  # noqa: F401
from .perms import inversion_set  # noqa: F401

# The largest n the ``poset`` command builds the order for.
POSET_MAX_N = 7


def _shapes(p: Permutation) -> tuple[MaskDigraph, MaskDigraph]:
    """D(p) as a ``MaskDigraph``, and D(p) with its arcs reversed, which is
    isomorphic to the inverse's digraph."""
    shape = MaskDigraph.from_masks(*word_masks(p.word))
    return shape, shape.flipped()


def precedes(c_sigma: GeoClass, c_pi: GeoClass) -> bool:
    """Non-strict order on classes: equal, or properly embeddable.

    Representatives decide; the outcome is independent of the choice of
    members.  Classes with the same inversion count but different keys are
    incomparable, since a proper sub-digraph has strictly fewer arcs.
    """
    if c_sigma.key == c_pi.key:
        return True
    if c_sigma.inversions >= c_pi.inversions:
        return False
    source = _shapes(c_sigma.representative)[0]
    target, flipped = _shapes(c_pi.representative)
    return (
        mask_embedding(source, target) is not None
        or mask_embedding(source, flipped) is not None
    )


@dataclass(frozen=True)
class Poset:
    """The full order relation over a class table.

    ``leq`` holds one bitmask per class index: bit j of row i says class i
    precedes class j.
    """

    table: ClassTable
    leq: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def size(self) -> int:
        return self.table.count

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Sorted (lower, upper) index pairs of the transitive reduction."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.leq)]
        edges = []
        for i, row in enumerate(strict):
            above = 0
            for k in bits(row):
                above |= strict[k]
            edges.extend((i, j) for j in bits(row & ~above))
        return tuple(edges)

    def bounds(self) -> tuple[Optional[GeoClass], Optional[GeoClass]]:
        """The first and last elements, when they exist."""
        size = self.size
        full = (1 << size) - 1
        least = [i for i in range(size) if self.leq[i] == full]
        greatest = list(bits(reduce(and_, self.leq)))
        first = self.table.classes[least[0]] if len(least) == 1 else None
        last = self.table.classes[greatest[0]] if len(greatest) == 1 else None
        return first, last

    def is_bounded(self) -> bool:
        first, last = self.bounds()
        return first is not None and last is not None

    def to_json_obj(self) -> dict:
        size = self.size
        return {
            "schema_version": 1,
            "n": self.n,
            "labels": list(self.table.labels),
            "leq": [
                [1 if self.leq[i] >> j & 1 else 0 for j in range(size)]
                for i in range(size)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def build_poset(source: "int | ClassTable", workers: int = 1) -> Poset:
    """Assemble the order over all classes of S_n.

    Accepts either n or a prebuilt class table.  Rows are filled one
    inversion level at a time, top down; with ``workers`` > 1 each level is
    spread over a process pool, and the result never depends on the worker
    count.  Transitivity and antisymmetry of the computed relation are
    verified before returning.
    """
    table = enumerate_classes(source) if isinstance(source, int) else source
    classes = table.classes
    size = len(classes)
    shapes = [_shapes(c.representative) for c in classes]
    starts = [
        k for k in range(size) if k == 0 or classes[k].inversions != classes[k - 1].inversions
    ]
    levels = list(zip(starts, starts[1:] + [size]))[::-1]
    rows = [0] * size
    if workers > 1 and size >= 16:
        import multiprocessing as mp

        with mp.Pool(workers, initializer=_init_worker, initargs=(shapes,)) as pool:
            for start, stop in levels:
                stride = min(stop - start, 4 * workers)
                tasks = [(range(start + t, stop, stride), stop, rows) for t in range(stride)]
                for t, part in enumerate(pool.map(_worker_rows, tasks)):
                    rows[start + t : stop : stride] = part
    else:
        for start, stop in levels:
            rows[start:stop] = _rows(range(start, stop), stop, shapes, rows)
    leq = tuple(rows)

    for i in range(size):
        above = leq[i] & ~(1 << i)
        while above:
            low = above & -above
            if leq[low.bit_length() - 1] >> i & 1:
                raise AssertionError("relation is not antisymmetric")
            above ^= low
    for i in range(size):
        reach = leq[i]
        combined = reach
        j = reach
        while j:
            low = j & -j
            combined |= leq[low.bit_length() - 1]
            j ^= low
        if combined != reach:
            raise AssertionError("relation is not transitive")
    return Poset(table, leq)


def _rows(
    indices: range,
    first_above: int,
    shapes: list[tuple[MaskDigraph, MaskDigraph]],
    rows: list[int],
) -> list[int]:
    """The rows of one inversion level, given the finished rows above it.

    Targets are visited in ascending inversion count; one already in the
    row is implied by transitivity and skipped, and a hit ORs in the whole
    row of the target, since embeddings compose.
    """
    done = []
    for i in indices:
        source = shapes[i][0]
        row = 1 << i
        for j in range(first_above, len(shapes)):
            if row >> j & 1:
                continue
            target, flipped = shapes[j]
            if (
                mask_embedding(source, target) is not None
                or mask_embedding(source, flipped) is not None
            ):
                row |= rows[j]
        done.append(row)
    return done


_WORKER_SHAPES: list[tuple[MaskDigraph, MaskDigraph]] = []


def _init_worker(shapes: list[tuple[MaskDigraph, MaskDigraph]]) -> None:
    global _WORKER_SHAPES
    _WORKER_SHAPES = shapes


def _worker_rows(task: tuple[range, int, list[int]]) -> list[int]:
    indices, first_above, rows = task
    return _rows(indices, first_above, _WORKER_SHAPES, rows)


@dataclass(frozen=True)
class HasseDiagram:
    """Cover edges of a poset: the transitive reduction of the strict order."""

    labels: tuple[str, ...]
    representatives: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # (lower index, upper index)

    def to_json_obj(self) -> dict:
        return {
            "schema_version": 1,
            "nodes": list(self.labels),
            "edges": [[self.labels[i], self.labels[j]] for i, j in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
        for k, label in enumerate(self.labels):
            lines.append(f'  "{label}" [label="{label} ({self.representatives[k]})"];')
        for i, j in self.edges:
            lines.append(f'  "{self.labels[i]}" -> "{self.labels[j]}";')
        lines.append("}")
        return "\n".join(lines)


def hasse(poset: Poset) -> HasseDiagram:
    """Transitive reduction with deterministic edge order."""
    return HasseDiagram(
        labels=poset.table.labels,
        representatives=tuple(str(c.representative) for c in poset.table.classes),
        edges=poset.covers,
    )


def is_graded(poset: Poset) -> tuple[bool, tuple[tuple[str, str, int, int], ...]]:
    """Do all cover edges raise the inversion count by exactly one?

    Returns the verdict and the offending covers as
    (lower label, upper label, lower count, upper count).
    """
    witnesses = []
    classes = poset.table.classes
    for i, j in poset.covers:
        lo, hi = classes[i], classes[j]
        if hi.inversions != lo.inversions + 1:
            witnesses.append((lo.label, hi.label, lo.inversions, hi.inversions))
    return not witnesses, tuple(witnesses)


# ---------------------------------------------------------------------------
# weak Bruhat orders

Side = Literal["left", "right"]


def bruhat_covers(p: Permutation, side: Side) -> tuple[Permutation, ...]:
    """Covers of p in the chosen weak Bruhat order.

    Left covers swap an ascending adjacent pair of positions (one new
    inversion appears in E); right covers swap the values i, i+1 when i
    sits before i+1 (one new inversion appears in E of the inverse), which
    are the left covers of the inverse, inverted.
    """
    if side == "right":
        return tuple(inverse(q) for q in bruhat_covers(inverse(p), "left"))
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    word = p.word
    return tuple(
        Permutation(word[:i] + (word[i + 1], word[i]) + word[i + 2 :])
        for i in range(p.n - 1)
        if word[i] < word[i + 1]
    )


def _inversions_within(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """E(a) within E(b), compared as out-masks."""
    return all(x & ~y == 0 for x, y in zip(word_masks(a)[0], word_masks(b)[0]))


def bruhat_below(sigma: Permutation, pi: Permutation) -> bool:
    """Containment in either weak order: E(sigma) within E(pi), or the same
    for the inverses."""
    return _inversions_within(sigma.word, pi.word) or _inversions_within(
        inverse_word(sigma.word), inverse_word(pi.word)
    )


def bruhat_extension_check(
    n: int, poset: Optional[Poset] = None
) -> tuple[bool, tuple[tuple[str, str], ...]]:
    """Precedence must extend the order the weak Bruhat containments induce.

    Each weak order is the reflexive-transitive closure of its cover steps,
    so on a transitive relation (``build_poset`` checks that precedence is)
    every containment E(sigma) within E(pi), or of the inverses, yields
    precedence exactly when every cover step of either order does.  Returns
    the verdict and each failing step once, as a word pair; bounded to
    n <= 6.
    """
    if n > 6:
        raise ValueError("the exhaustive Bruhat comparison is bounded to n <= 6")
    poset = poset if poset is not None else build_poset(n)
    index = {m: k for k, c in enumerate(poset.table.classes) for m in c.members}
    failures = []
    for p in all_permutations(n):
        for q in dict.fromkeys(bruhat_covers(p, "left") + bruhat_covers(p, "right")):
            if not poset.is_leq(index[p], index[q]):
                failures.append((str(p), str(q)))
    return not failures, tuple(failures)
