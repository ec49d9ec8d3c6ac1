"""Geo-equivalence of permutations: tests, classes, and full enumerations.

Two permutations are geo-equivalent when the straight-line drawings of
K_{2,n} they induce have the same crossing pattern up to relabeling.  Two
independent decision procedures are provided:

* ``equivalent_bruteforce`` searches for a witness rho whose action carries
  E(sigma) onto E(pi) while acting uniformly (all order-preserving or all
  order-reversing);
* ``equivalent_fast`` compares the permutation digraphs D(sigma) and D(pi)
  up to isomorphism, allowing a global arc reversal.

``enumerate_classes`` partitions all of S_n by a canonical class key; the
resulting tables are deterministic regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Optional

from .digraphs import CanonicalKey, _key_from_masks
from .graphs import bits
from .perms import (
    OrientationClass,
    Permutation,
    inverse,
    inverse_word,
    inversion_count,
    inversion_set,
    reverse,
    word_from_masks,
    word_masks,
)
# Not called here; perfbench/spans.py wraps these two names on this module.
from .perms import is_inversion_set, perm_from_inversion_set  # noqa: F401

ENUMERATION_MAX_N = 9


def equivalent_bruteforce(
    sigma: Permutation, pi: Permutation
) -> Optional[tuple[Permutation, OrientationClass]]:
    """Search S_n for a uniform witness carrying E(sigma) onto E(pi).

    Candidates are tried in lexicographic order, so the witness is
    deterministic.  An empty inversion set is vacuously order-preserving.
    Practical for n <= 7.
    """
    if sigma.n != pi.n:
        raise ValueError("size mismatch")
    n = sigma.n
    source = [(i - 1, j - 1) for i, j in inversion_set(sigma).sorted_pairs()]
    target = {(i - 1, j - 1) for i, j in inversion_set(pi).pairs}
    if not source:
        if target:
            return None
        return Permutation(tuple(range(1, n + 1))), OrientationClass.ALL_PRESERVING
    for rho in itertools.permutations(range(n)):
        direction = 0  # +1 preserving, -1 reversing
        for i, j in source:
            a, b = rho[i], rho[j]
            if a < b:
                if direction < 0 or (a, b) not in target:
                    break
                direction = 1
            else:
                if direction > 0 or (b, a) not in target:
                    break
                direction = -1
        else:
            if len(source) == len(target):
                kind = (
                    OrientationClass.ALL_PRESERVING
                    if direction > 0
                    else OrientationClass.ALL_REVERSING
                )
                return Permutation(tuple(v + 1 for v in rho)), kind
    return None


def equivalent_fast(sigma: Permutation, pi: Permutation) -> bool:
    """Digraph route: related permutation digraphs."""
    if sigma.n != pi.n:
        raise ValueError("size mismatch")
    return class_key(sigma) == class_key(pi)


def _word_key(word: tuple[int, ...]) -> CanonicalKey:
    """Canonical key of the permutation digraph, straight from the word."""
    return _key_from_masks(len(word), *word_masks(word))


def class_key(p: Permutation) -> CanonicalKey:
    """Key shared by exactly the geo-equivalence class of p.

    The smaller of the canonical keys of D(p) and of D(p) with all arcs
    reversed; reversal is what identifies a drawing with its apex swap.
    Reversing the arcs swaps the out- and in-masks, so one mask pair serves
    both keys.
    """
    out, inn = word_masks(p.word)
    return min(_key_from_masks(p.n, out, inn), _key_from_masks(p.n, inn, out))


def four_family(p: Permutation) -> tuple[Permutation, Permutation, Permutation, Permutation]:
    """The four algebraically related members of p's class.

    p, its inverse, the reverse-inverse-reverse, and that one's inverse are
    always geo-equivalent; the multiset may contain 4, 2 or 1 distinct
    words.
    """
    q = reverse(inverse(reverse(p)))
    return (p, inverse(p), q, inverse(q))


def class_members(p: Permutation) -> tuple[Permutation, ...]:
    """Every permutation geo-equivalent to p, in lexicographic order.

    One scan of the vertex bijections g of D(p).  When g makes every arc
    increasing, the image of D(p) is a candidate; when g makes every arc
    decreasing, the image of D(p) reversed is, since that digraph is
    isomorphic to D(p inverse), and reversal swaps the out- and in-masks.
    A bijection that mixes the two directions gives neither.
    ``word_from_masks`` keeps the candidates that are the digraph of some
    word.  The identity has no arcs and is alone in its class.  The
    scan stays usable through n = 9 without enumerating the class table.
    """
    if p.n > ENUMERATION_MAX_N:
        raise ValueError(f"class membership scans are bounded to n <= {ENUMERATION_MAX_N}")
    n = p.n
    arcs = [(u, v) for u, m in enumerate(word_masks(p.word)[0]) for v in bits(m)]
    if not arcs:
        return (p,)  # only the identity has no inversions
    u0, v0 = arcs[0]
    words = set()
    for g in itertools.permutations(range(n)):
        rising = g[u0] < g[v0]
        for u, v in arcs:
            if (g[u] < g[v]) is not rising:
                break
        else:
            out = [0] * n
            inn = [0] * n
            for u, v in arcs:
                out[g[u]] |= 1 << g[v]
                inn[g[v]] |= 1 << g[u]
            word = word_from_masks(out, inn) if rising else word_from_masks(inn, out)
            if word is not None:
                words.add(word)
    return tuple(Permutation(w) for w in sorted(words))


# ---------------------------------------------------------------------------
# class tables


@dataclass(frozen=True)
class GeoClass:
    """One geo-equivalence class of S_n."""

    label: str
    inversions: int
    representative: Permutation
    members: tuple[Permutation, ...]
    key: CanonicalKey

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassTable:
    """All geo-equivalence classes of S_n, deterministically ordered.

    Classes are sorted by (inversion count, lexicographically least member)
    and labeled "k.m" with m counting within inversion count k.  Published
    tables use the same shape but may number classes differently, so
    comparisons go through member sets, never labels.
    """

    n: int
    classes: tuple[GeoClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)

    @cached_property
    def _class_index(self) -> dict[Permutation, GeoClass]:
        return {m: c for c in self.classes for m in c.members}

    def class_of(self, p: Permutation) -> GeoClass:
        try:
            return self._class_index[p]
        except KeyError:
            raise KeyError(f"{p} is not a member of any class (n mismatch?)") from None

    def to_json_obj(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "count": self.count,
            "classes": [
                {
                    "label": c.label,
                    "inversions": c.inversions,
                    "representative": str(c.representative),
                    "members": [str(m) for m in c.members],
                }
                for c in self.classes
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ClassTable":
        from .perms import parse

        classes = []
        for item in obj["classes"]:
            members = tuple(parse(w) for w in item["members"])
            rep = parse(item["representative"])
            classes.append(
                GeoClass(
                    label=item["label"],
                    inversions=int(item["inversions"]),
                    representative=rep,
                    members=members,
                    key=class_key(rep),
                )
            )
        return cls(int(obj["n"]), tuple(classes))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "inversions", "size", "representative", "members"])
        for c in self.classes:
            writer.writerow(
                [c.label, c.inversions, c.size, str(c.representative), " ".join(str(m) for m in c.members)]
            )
        return buf.getvalue()


def _rc_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """rc(w⁻¹), the word of k ↦ n+1−w⁻¹(n+1−k): the reverse-complement of
    the inverse."""
    n = len(w)
    word = [0] * n
    for k, v in enumerate(w):
        word[n - v] = n - k
    return tuple(word)


def enumerate_classes(n: int, workers: int = 1) -> ClassTable:
    """Partition all of S_n into geo-equivalence classes.

    One key serves each orbit {w, rc(w⁻¹)}, rc being reverse-complement:
    inverting a word reverses every arc of its digraph, and so does rc, so
    the relabelling i ↦ n+1−i carries D(w) onto D(rc(w⁻¹)).  Only the
    lexicographically smaller word of each orbit is keyed, and its key is
    stored under both words; at n = 8 that is 20 542 keys for 40 320 words.

    ``workers`` > 1 spreads the keys over processes, in chunks of orbit
    representatives; the output is byte-identical for any worker count.
    Refuses n outside 1..9: the scan is exact and the factorial growth makes
    larger n a different project.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(
            f"class enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; got n={n}"
        )
    words = list(itertools.permutations(range(1, n + 1)))
    total = len(words)
    reps = [w for w in words if w <= _rc_inverse(w)]
    if workers <= 1 or total < 600:
        keys = [_word_key(w) for w in reps]
    else:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            keys = pool.map(_word_key, reps, chunksize=math.ceil(len(reps) / (4 * workers)))

    key_of = dict(zip(reps, keys))
    for w in words:
        if w not in key_of:
            key_of[w] = key_of[_rc_inverse(w)]

    groups: dict[CanonicalKey, list[tuple[int, ...]]] = {}
    for w in words:
        ck = min(key_of[w], key_of[inverse_word(w)])
        groups.setdefault(ck, []).append(w)

    raw = []
    for ck, members in groups.items():
        members.sort()
        rep = Permutation(members[0])
        raw.append((inversion_count(rep), rep, members, ck))
    raw.sort(key=lambda item: (item[0], item[1]))

    classes = []
    within = 0
    last_inv = None
    for inv, rep, members, ck in raw:
        within = within + 1 if inv == last_inv else 1
        last_inv = inv
        classes.append(
            GeoClass(
                label=f"{inv}.{within}",
                inversions=inv,
                representative=rep,
                members=tuple(Permutation(w) for w in members),
                key=ck,
            )
        )
    table = ClassTable(n, tuple(classes))
    assert sum(c.size for c in table.classes) == total
    return table


# ---------------------------------------------------------------------------
# comparison against the published S_5 partition


@dataclass(frozen=True)
class ReferenceComparison:
    n: int
    exact_matches: int
    explained: tuple[tuple[str, str, str], ...]  # (ref label, spurious word, actual word)
    unexplained: tuple[str, ...]  # ref labels that could not be reconciled
    duplicate_word: str
    duplicate_home: str  # our label for the class genuinely holding the word

    @property
    def ok(self) -> bool:
        return not self.unexplained

    def describe(self) -> str:
        lines = [
            f"reference classes matched exactly: {self.exact_matches}",
        ]
        for label, spurious, actual in self.explained:
            lines.append(
                f"reference class {label}: listed word {spurious} belongs elsewhere; "
                f"enumeration puts {actual} in this class"
            )
        if self.duplicate_word:
            lines.append(
                f"duplicated word {self.duplicate_word} enumerates into our class "
                f"{self.duplicate_home}"
            )
        for label in self.unexplained:
            lines.append(f"reference class {label}: UNEXPLAINED mismatch")
        return "\n".join(lines)


def load_s5_reference() -> dict:
    with resources.files("geoposet.data").joinpath("s5_classes.json").open() as fh:
        return json.load(fh)


def compare_with_reference(table: ClassTable, reference: dict) -> ReferenceComparison:
    """Compare an enumerated table against a published partition.

    Comparison is by member sets; labels never participate.  A reference
    class that differs from the best-overlapping enumerated class by
    exactly one word, where that word is the annotated duplicate, counts as
    explained rather than a failure.
    """
    if table.n != reference["n"]:
        raise ValueError("reference table is for a different n")
    ours = {frozenset(str(m) for m in c.members): c for c in table.classes}
    dup = reference.get("known_issues", {}).get("duplicated_member", "")
    dup_home = ""
    if dup:
        home = table.class_of(Permutation(tuple(int(ch) for ch in dup)))
        dup_home = home.label
    exact = 0
    explained = []
    unexplained = []
    for ref_class in reference["classes"]:
        ref_set = frozenset(ref_class["members"])
        if ref_set in ours:
            exact += 1
            continue
        best = max(ours, key=lambda s: len(s & ref_set))
        missing = ref_set - best
        extra = best - ref_set
        if missing == {dup} and len(extra) == 1:
            explained.append((ref_class["label"], dup, next(iter(extra))))
        else:
            unexplained.append(ref_class["label"])
    return ReferenceComparison(
        n=table.n,
        exact_matches=exact,
        explained=tuple(explained),
        unexplained=tuple(unexplained),
        duplicate_word=dup,
        duplicate_home=dup_home,
    )
