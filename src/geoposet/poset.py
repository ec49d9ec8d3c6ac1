"""The order on geo-equivalence classes, Hasse diagrams, and Bruhat covers.

One class strictly precedes another when the crossing pattern of the first
embeds into that of the second: the digraph of any representative must map,
arcs onto arcs, into the digraph of the target representative or of its
inverse.  A proper embedding forces strictly fewer inversions, so classes
with equal counts are never comparable, which is also what makes the
relation antisymmetric.

``build_poset`` fills one bitmask row per class, bottom-up on the weak-order
floor.  The dense relations (the rows, the floor and a row's unknowns) are
bitmasks.  The sparse per-class sets (the weak covers, a row's hits and its
covers) are ascending lists of class indices: at n = 9 a mask costs about 8 KB
whatever it holds, and these hold about 8 of 66 302 classes.  A left
weak-order cover of a word adds one inversion and keeps the others, so the
identity map embeds the word's digraph into the cover's: the cover's class
lies above the word's.  Mapping the left covers of the members to class
indices gives each class's weak covers, and their closure is the floor, a part
of the order that costs no search.  The right covers add nothing: they are the
left covers of the inverses, inverted, and a word shares its class with its
inverse.  Half the members are walked: every class is closed under
reverse-complement, an automorphism of the left weak order, so a member and
its image reach the same classes (``_weak_covers``).  Each row starts as its
floor row, and only the classes the floor leaves open are decided by an
embedding search (see ``build_poset``).  Each decision settles others through
the floor: a hit brings in the target's floor row, and a miss rules out every
class the floor puts below the target (the miss cascade).  A representative's
digraph is built the first time a decision reads it, as adjacency masks
straight from the word; at n = 6 that is 145 of the 182 classes.  A pair is
decided by a search into the target's digraph and, when that misses and
neither class is self-related (its digraph is isomorphic to its reversal), by
a second search into the target's arc reversal, which is isomorphic to the
inverse's digraph.  The reversal is built for that search alone and dropped
after it: 86 times at n = 6.  ``mask_embedding`` rejects a pair before it
searches at all when no bijection gives every source vertex a target with at
least its out- and in-degree.

Classes are indexed in ascending inversion count, and row i holds only
classes of higher levels besides i, so every row is upper-triangular: it
has bit i set and no bit below i.  That one invariant gives reflexivity and
antisymmetry.  ``checked_poset`` checks it, and checks transitivity and the
covers on the covers alone, before the order is returned.

The weak Bruhat orders (containment of inversion sets, either of the word
or of its inverse) induce a suborder, the floor: every Bruhat containment
yields precedence, but not conversely.  ``bruhat_extension_check`` verifies
the containment direction for small n on the left cover steps, which the
closures, the transitivity of precedence and inversion make enough.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import and_, gt
from typing import Iterator, Literal, Optional, Sequence

from .digraphs import MaskDigraph, mask_embedding
from .geoequiv import ClassTable, GeoClass, enumerate_classes
from .graphs import bits
from .perms import Permutation, format_word, inverse, inverse_word, word_masks
# Not called here; perfbench/spans.py wraps these names on this module.
from .digraphs import from_perm, spanning_embeds  # noqa: F401
from .perms import inversion_set  # noqa: F401

# From this n on, ``Poset.to_json_obj`` writes the covers, not the dense
# matrix (57.8 M cells at n = 8).
COMPACT_JSON_MIN_N = 8


def _shapes(word: Sequence[int]) -> MaskDigraph:
    """D(w) of the word w as a ``MaskDigraph``."""
    return MaskDigraph.from_masks(*word_masks(word))


def _embeds(source: MaskDigraph, target: MaskDigraph, one_way: bool) -> bool:
    """Does ``source`` embed into ``target`` or, unless ``one_way``, into
    ``target`` reversed?  The reversal is built only when the search into
    ``target`` has missed.  Pass ``one_way`` when either class is
    self-related: D(i) embeds into D(j) reversed exactly when D(i) reversed
    embeds into D(j); that is D(i) again, up to isomorphism, when i's class
    is self-related, and D(j) reversed is D(j) when j's is."""
    if mask_embedding(source, target) is not None:
        return True
    return not one_way and mask_embedding(source, target.flipped()) is not None


def precedes(c_sigma: GeoClass, c_pi: GeoClass) -> bool:
    """Non-strict order on classes: equal, or properly embeddable.

    Representatives decide; the outcome is independent of the choice of
    members.  Classes with the same inversion count but different keys are
    incomparable, since a proper sub-digraph has strictly fewer arcs.
    Classes of different n raise ValueError.
    """
    if len(c_sigma.word) != len(c_pi.word):
        raise ValueError("precedence compares classes of the same n")
    if c_sigma.key == c_pi.key:
        return True
    if c_sigma.inversions >= c_pi.inversions:
        return False
    return _embeds(
        _shapes(c_sigma.word),
        _shapes(c_pi.word),
        c_sigma.self_related or c_pi.self_related,
    )


@dataclass(frozen=True)
class Poset:
    """The full order relation over a class table.

    ``leq`` holds one bitmask per class index: bit j of row i says class i
    precedes class j.  ``covers`` holds the sorted (lower, upper) index
    pairs of the transitive reduction.
    """

    table: ClassTable
    leq: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def size(self) -> int:
        return self.table.count

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def bounds(self) -> tuple[Optional[GeoClass], Optional[GeoClass]]:
        """The first and last elements, when they exist."""
        size = self.size
        full = (1 << size) - 1
        least = [i for i in range(size) if self.leq[i] == full]
        greatest = list(bits(reduce(and_, self.leq, full)))
        first = self.table.classes[least[0]] if len(least) == 1 else None
        last = self.table.classes[greatest[0]] if len(greatest) == 1 else None
        return first, last

    def is_bounded(self) -> bool:
        first, last = self.bounds()
        return first is not None and last is not None

    def to_json_obj(self) -> dict:
        """Labels plus the dense 0/1 ``leq`` matrix; from n =
        ``COMPACT_JSON_MIN_N`` on, ``"form": "covers"`` and the (lower,
        upper) index pairs of the covers instead, whose reflexive-transitive
        closure is the order."""
        obj = {"schema_version": 1, "n": self.n, "labels": list(self.table.labels)}
        if self.n >= COMPACT_JSON_MIN_N:
            obj["form"] = "covers"
            obj["covers"] = [list(pair) for pair in self.covers]
        else:
            size = self.size
            obj["leq"] = [
                [1 if self.leq[i] >> j & 1 else 0 for j in range(size)]
                for i in range(size)
            ]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def build_poset(source: "int | ClassTable") -> Poset:
    """Assemble the order over all classes of S_n.

    Accepts either n or a prebuilt class table.

    Sets.  The dense relations are bitmasks, one int per class: the floor
    rows, the floor's columns, the rows and each row's unknowns.  The
    sparse per-class sets are ascending lists of class indices: ``up``,
    ``below``, each row's hits and its covers.  A mask costs one bit per
    class whatever it holds, about 8 KB at n = 9 for sets of about 8 of
    66 302 classes, and a lowest-bit walk over it does that much work for
    every bit it visits.

    Floor.  ``up[i]`` lists the classes of the left weak-order covers of
    the members of class i, and ``below`` is its reverse (``_weak_covers``
    walks half the members and gives the pairs of ``_left_cover_steps``).
    Closing ``up`` from the last row down gives ``floor[i]``, which lies
    within the true row i: inversion-set containment is the identity
    embedding.  Closing ``below`` from the first row up gives the floor's
    columns: ``col[j]`` holds the classes whose floor row holds j.

    Fill.  Rows are filled in ascending index, each seeded with its floor
    row.  A class j above i is also above every class k below i, and every
    k in ``below[i]`` has a smaller index, so its row is finished.  The
    candidates are therefore the classes of higher inversion count that lie
    in ``rows[k]`` for every such k.  Those the floor row leaves open are
    the row's unknowns, and each decision settles a cascade of them, since
    embeddings compose.  A hit (i embeds into j) puts the floor row of j
    in the row and clears it from the unknowns.  A miss clears the floor's
    column of j: the classes the floor puts below j, none of which lies
    above i either.  The next unknown is taken alternately from the low end
    and the high end of the mask, starting low in each row, so that both
    cascades bite: hits low down and misses high up clear the most.  A hit
    clears only classes above i and a miss only classes that are not, so
    every candidate ends up in the row exactly when it lies above i: the
    row is exact, in any order of decisions.  A decision (``_embeds``)
    searches D(i) into D(j) and, on a miss, into D(j) reversed, unless
    class i or class j is self-related.  At n = 5/6/7 that cuts the
    ``mask_embedding`` calls from 87/570/3 742 to 51/387/3 150; each call
    skipped followed a miss and would have missed too.  A class's digraph
    (``_shapes``) is built the first time a decision reads it, as source
    or target: 30/145/887 of 39/182/1 033 classes at n = 5/6/7.  The
    others are settled by the floor and the cascades alone.  The digraphs
    are kept in a per-class list.  A reversal is built for each second
    search and dropped after it: 7/86/1 003, one per miss into D(j) with
    neither class self-related.  No later row reads ``floor[i]``,
    ``col[i]`` or the digraph of class i, since every later decision is on
    a class above that row, so they are dropped once row i is filled.  The
    classes must come in ascending inversion count, which the bisection
    for the higher levels assumes; a table that does not raises
    ValueError.

    Covers.  Let the candidates of i now be ``up[i]`` and the hits of row
    i.  Every class j in row i other than i lies in the floor row of one
    of them, and so in its finished row.  If j covers i, that candidate can
    only be j itself, and j lies in no other candidate's row.  Conversely,
    if a candidate c does not cover i, some k lies strictly between i and
    c; k lies in the row of a candidate c' with c' <= k < c, so c lies in
    the row of c' != c.  So the covers of i are the candidates that no
    other candidate's finished row contains, whatever order the unknowns
    were decided in.  A row holds no class below its own index, so only
    the rows of smaller candidates can contain c: the candidates are
    walked in ascending order, each tested against the union of the rows
    walked before it.  The rows and covers go to ``checked_poset``.
    """
    table = source if isinstance(source, ClassTable) else enumerate_classes(source)
    classes = table.classes
    counts = [c.inversions for c in classes]
    if any(map(gt, counts, counts[1:])):
        raise ValueError("the classes must be listed in ascending inversion count")
    size = len(classes)
    up, below = _weak_covers(table)
    floor = [0] * size
    for i in reversed(range(size)):
        row = 1 << i
        for k in up[i]:
            row |= floor[k]
        floor[i] = row
    col = [0] * size
    for j in range(size):
        column = 1 << j
        for k in below[j]:
            column |= col[k]
        col[j] = column

    related = [c.self_related for c in classes]
    shapes: list[Optional[MaskDigraph]] = [None] * size
    rows = [0] * size
    hits = []
    everything = (1 << size) - 1
    for i in range(size):
        row = floor[i]
        first = bisect_right(counts, counts[i])
        unknown = everything >> first << first
        for k in below[i]:
            unknown &= rows[k]
        unknown &= ~row
        found = []
        high = False
        while unknown:
            j = unknown.bit_length() - 1 if high else (unknown & -unknown).bit_length() - 1
            high = not high
            if shapes[j] is None:
                shapes[j] = _shapes(classes[j].word)
            if shapes[i] is None:
                shapes[i] = _shapes(classes[i].word)
            if _embeds(shapes[i], shapes[j], related[i] or related[j]):
                row |= floor[j]
                found.append(j)
                unknown &= ~floor[j]
            else:
                unknown &= ~col[j]
        rows[i] = row
        hits.append(found)
        floor[i] = col[i] = 0
        shapes[i] = None
    del floor, col, below, shapes
    covers = []
    for i, found in enumerate(hits):
        above = 0
        kept = []
        for c in sorted(up[i] + found):
            if not above >> c & 1:
                kept.append(c)
            above |= rows[c]
        covers.append(kept)
    del up, hits
    return checked_poset(table, rows, covers)


def _weak_covers(table: ClassTable) -> tuple[list[list[int]], list[list[int]]]:
    """The classes of the left weak-order covers of the members of each
    class, as ascending lists of class indices: j is in ``up[i]`` when a
    member of class j covers a member of class i, and ``below`` is the
    reverse.  The pairs are those of ``_left_cover_steps``.  Lists, not
    masks: each holds a handful of classes, and a mask would cost one bit
    per class of the table, about 8 KB at n = 9.

    Only the members w with w[0] + w[-1] <= n + 1 are walked.  Every class
    is closed under w -> w^-1 and w -> rc(w^-1), where rc(w) = w0 w w0 is
    the reverse-complement, so under rc.  rc is an automorphism of the left
    weak order, so the left covers of rc(w) are the rc images of the left
    covers of w, and they lie in the same classes.  When w[0] + w[-1] >
    n + 1, rc(w) has rc(w)[0] + rc(w)[-1] < n + 1 and is walked, so w would
    reach no class that rc(w) does not.  That skips 288 of 720, 2 160 of
    5 040 and 17 280 of 40 320 members at n = 6, 7 and 8.  On a table that
    is not closed under rc the lists only lose pairs: the floor gets
    smaller, and ``build_poset`` stays exact by searching more pairs.  A
    cover swaps two adjacent values a < b, and a word's values are
    distinct, so its word is w with the values a and b exchanged: one
    ``bytes.translate`` by ``swap[a][b]``.
    """
    index = table.index
    top = table.n + 1
    steps = range(table.n - 1)
    swap = [
        [bytes.maketrans(bytes((a, b)), bytes((b, a))) for b in range(top)] for a in range(top)
    ]
    up = []
    below: list[list[int]] = [[] for _ in range(table.count)]
    for i, c in enumerate(table.classes):
        reached = set()
        for w in c.words:
            if w[0] + w[-1] > top:
                continue
            for k in steps:  # the words of ``_left_steps(w)``
                a, b = w[k], w[k + 1]
                if a < b:
                    reached.add(index[w.translate(swap[a][b])])
        above = sorted(reached)
        for j in above:
            below[j].append(i)
        up.append(above)
    return up, below


def checked_poset(table: ClassTable, rows: list[int], covers: list[list[int]]) -> Poset:
    """The order with rows ``rows`` and covers ``covers`` (for each row,
    the ascending list of the indices of its covers), once both are
    checked; raises AssertionError otherwise.

    For each row i: (a) the row is upper-triangular with its diagonal bit,
    and every cover of i lies strictly above i; (b) the row is i together
    with the rows of its covers; (c) no cover of i lies in the row of
    another cover of i.  By (a), (b) and induction from the last row up,
    every row is closed: a class k in row i is i itself or lies in the row
    of a cover c > i, which is closed, so row k lies within row c, within
    row i.  The covers are then exactly the transitive reduction.  By (b),
    any other class j > i in row i lies in the row of a cover, so j is no
    reduction edge.  Say a cover c lies in the row of some k in row i,
    with k neither i nor c.  By (b), k lies in the row of a cover c', and
    so does c.  Then c' = c by (c), and c and k lie in each other's rows,
    which (a) rules out.  By (a), only the row of a smaller cover can hold
    c, so (c) tests each cover against the union of the rows of the covers
    before it, which (b) builds anyway; a list out of ascending order is
    refused.  The cost is a few big-int operations per cover, not per pair.
    """
    pairs = []
    for i, (row, up) in enumerate(zip(rows, covers)):
        if row & ((2 << i) - 1) != 1 << i:
            raise AssertionError("relation is not reflexive and upper-triangular")
        closure = 1 << i
        last = i
        for c in up:
            if c <= last:
                raise AssertionError("covers are not ascending and above their row")
            if closure >> c & 1:
                raise AssertionError("covers are not the transitive reduction")
            closure |= rows[c]
            pairs.append((i, c))
            last = c
        if row != closure:
            raise AssertionError("relation is not the closure of its covers")
    return Poset(table, tuple(rows), tuple(pairs))


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
        representatives=tuple(format_word(c.word) for c in poset.table.classes),
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
    return tuple(Permutation(w) for w in _left_steps(p.word))


def _left_steps(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The words of the left covers: each ascending adjacent pair swapped."""
    return [
        word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
        for i in range(len(word) - 1)
        if word[i] < word[i + 1]
    ]


def _left_cover_steps(
    table: ClassTable,
) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """Every left weak-order cover w of every member word m of the table, as
    (class index of m, class index of w, m, w)."""
    index = table.index
    for i, c in enumerate(table.classes):
        for m in map(tuple, c.words):
            for w in _left_steps(m):
                yield i, index[bytes(w)], m, w


def _inversions_within(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """E(a) within E(b), compared as out-masks."""
    return all(x & ~y == 0 for x, y in zip(word_masks(a)[0], word_masks(b)[0]))


def bruhat_below(sigma: Permutation, pi: Permutation) -> bool:
    """Containment in either weak order: E(sigma) within E(pi), or the same
    for the inverses."""
    if sigma.n != pi.n:
        raise ValueError("size mismatch")
    return _inversions_within(sigma.word, pi.word) or _inversions_within(
        inverse_word(sigma.word), inverse_word(pi.word)
    )


def bruhat_extension_check(
    n: int, poset: Optional[Poset] = None
) -> tuple[bool, tuple[tuple[str, str], ...]]:
    """Precedence must extend the order the weak Bruhat containments induce.

    ``build_poset`` seeds every row with its floor row, the closure of these
    very steps, so on its output this holds by construction: the check
    verifies the floor.  Each weak order is the reflexive-transitive
    closure of its cover steps, so on a transitive relation
    (``build_poset`` checks that precedence is) every containment E(sigma)
    within E(pi), or of the inverses, yields precedence exactly when every
    cover step of either order does.  The left steps suffice: a right cover
    p -> q is the left cover p⁻¹ -> q⁻¹ inverted, and a word shares its
    class with its inverse.  The steps are ``_left_cover_steps``, whose
    class pairs are the weak covers ``build_poset`` takes from
    ``_weak_covers``.  Returns the verdict and each failing left step, as a
    word pair; bounded to n <= 6, and a given poset must be the order of
    S_n.
    """
    if n > 6:
        raise ValueError("the exhaustive Bruhat comparison is bounded to n <= 6")
    if poset is not None and poset.n != n:
        raise ValueError(f"the poset is the order of S_{poset.n}, not of S_{n}")
    poset = poset if poset is not None else build_poset(n)
    failures = tuple(
        (str(Permutation(m)), str(Permutation(w)))
        for i, j, m, w in _left_cover_steps(poset.table)
        if not poset.is_leq(i, j)
    )
    return not failures, failures
