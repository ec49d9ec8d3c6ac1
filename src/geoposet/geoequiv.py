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
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .digraphs import CanonicalKey, _key_from_masks
from .graphs import bits
from .perms import (
    OrientationClass,
    Permutation,
    inverse,
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
    """
    return min(_word_key(p.word), _word_key(inverse(p).word))


def four_family(p: Permutation) -> tuple[Permutation, Permutation, Permutation, Permutation]:
    """The four algebraically related members of p's class.

    p, its inverse, the reverse-inverse-reverse, and that one's inverse are
    always geo-equivalent; the multiset may contain 4, 2 or 1 distinct
    words.
    """
    q = reverse(inverse(reverse(p)))
    return (p, inverse(p), q, inverse(q))


def _represented_words(p: Permutation) -> set[tuple[int, ...]]:
    """Words sigma with D(sigma) isomorphic to D(p).

    Scans vertex bijections that keep every arc increasing; ``word_from_masks``
    keeps the image masks that are those of some word.
    """
    n = p.n
    arcs = [(u, v) for u, m in enumerate(word_masks(p.word)[0]) for v in bits(m)]
    found = set()
    for g in itertools.permutations(range(n)):
        out = [0] * n
        inn = [0] * n
        for u, v in arcs:
            a, b = g[u], g[v]
            if a > b:
                break
            out[a] |= 1 << b
            inn[b] |= 1 << a
        else:
            word = word_from_masks(out, inn)
            if word is not None:
                found.add(word)
    return found


def class_members(p: Permutation) -> tuple[Permutation, ...]:
    """Every permutation geo-equivalent to p, in lexicographic order.

    Costs one scan of S_n for D(p) and one for D(p inverse), so it stays
    usable through n = 9 without enumerating the whole class table.
    """
    if p.n > ENUMERATION_MAX_N:
        raise ValueError(f"class membership scans are bounded to n <= {ENUMERATION_MAX_N}")
    words = _represented_words(p) | _represented_words(inverse(p))
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

    def class_of(self, p: Permutation) -> GeoClass:
        for c in self.classes:
            if p in c.members:
                return c
        raise KeyError(f"{p} is not a member of any class (n mismatch?)")

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


def _keys_for_range(args: tuple[int, int, int]) -> list[CanonicalKey]:
    """Worker: canonical keys for a lexicographic slice of S_n."""
    n, start, stop = args
    words = itertools.islice(itertools.permutations(range(1, n + 1)), start, stop)
    return [_word_key(w) for w in words]


def enumerate_classes(n: int, workers: int = 1) -> ClassTable:
    """Partition all of S_n into geo-equivalence classes.

    ``workers`` > 1 spreads key computation over processes; the output is
    byte-identical for any worker count.  Refuses n outside 1..9: the scan
    is exact and the factorial growth makes larger n a different project.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(
            f"class enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; got n={n}"
        )
    words = list(itertools.permutations(range(1, n + 1)))
    total = len(words)
    if workers <= 1 or total < 600:
        keys = [_word_key(w) for w in words]
    else:
        import multiprocessing as mp

        chunk = (total + workers * 4 - 1) // (workers * 4)
        ranges = [(n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_keys_for_range, ranges)
        keys = [k for part in parts for k in part]

    key_of = dict(zip(words, keys))

    def inverse_word(w: tuple[int, ...]) -> tuple[int, ...]:
        iw = [0] * n
        for k, v in enumerate(w):
            iw[v - 1] = k + 1
        return tuple(iw)

    groups: dict[CanonicalKey, list[tuple[int, ...]]] = {}
    for w in words:
        ck = min(key_of[w], key_of[inverse_word(w)])
        groups.setdefault(ck, []).append(w)

    raw = []
    for ck, members in groups.items():
        members.sort()
        rep = members[0]
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if rep[a] > rep[b])
        raw.append((inv, rep, members, ck))
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
                representative=Permutation(rep),
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
