"""The four benchmark workloads: what one op is, and how its output is checked.

Each workload builds its inputs in ``setup`` (from the seed where inputs
vary), runs one op per call of ``run`` and reduces the op's output with
``summarize``.  ``check`` runs after the timed phase, when no wrapper is
installed, and returns a failure reason or None.  Ops call the library
through module attributes (``geoequiv.enumerate_classes``, not a name bound
at import), so the traced run sees them through its wrappers.

Expected results are pinned from the code the benchmark was written
against; ``smoke`` selects sizes n <= 5 for the benchmark's own test.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass

from geoposet import cli, geoequiv, geometry, graphs, moddecomp, perms, poset

# n -> (class count, sha256 of ClassTable.to_json())
TABLE_PINS = {
    5: (39, "cf3efb081dfc66b9b79e327c9a094caf700d9782e330608ceb3d71d083b57519"),
    8: (7605, "58fd27b9ef2a97ae6e715a51f3c837cbdf3f0a4a000e4796d2208bfcceff7148"),
}
# n -> (class count, Hasse cover count, graded by inversion count)
POSET_PINS = {5: (39, 87, True), 6: (182, 621, True)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Enumerate:
    """``enumerate_classes(n)`` over all n! words."""

    unit = "words keyed"

    def __init__(self, smoke: bool) -> None:
        self.n = 5 if smoke else 8

    def setup(self, seed: int) -> None:
        pass

    def items(self) -> list:
        return [self.n]

    def units(self, item) -> int:
        return math.factorial(item)

    def run(self, n):
        return geoequiv.enumerate_classes(n)

    def summarize(self, n, table) -> tuple:
        return table.count, sum(c.size for c in table.classes), _digest(table.to_json())

    def check(self, n, summary) -> "str | None":
        count, total, digest = summary
        want_count, want_digest = TABLE_PINS[n]
        if count != want_count:
            return f"{count} classes, expected {want_count}"
        if total != math.factorial(n):
            return f"class sizes sum to {total}, expected {math.factorial(n)}"
        if digest != want_digest:
            return f"to_json() digest {digest[:12]} differs from the pinned one"
        return None


class Poset:
    """``build_poset`` on a prebuilt table, then ``hasse`` and ``is_graded``."""

    unit = "class pairs decided"

    def __init__(self, smoke: bool) -> None:
        self.n = 5 if smoke else 6

    def setup(self, seed: int) -> None:
        self.table = geoequiv.enumerate_classes(self.n)

    def items(self) -> list:
        return [self.table]

    def units(self, table) -> int:
        return table.count**2

    def run(self, table):
        order = poset.build_poset(table)
        covers = poset.hasse(order)
        graded, _ = poset.is_graded(order)
        return order.size, len(covers.edges), graded

    def summarize(self, table, result) -> tuple:
        return result

    def check(self, table, summary) -> "str | None":
        want = POSET_PINS[self.n]
        if summary != want:
            return f"(classes, covers, graded) = {summary}, expected {want}"
        return None


@dataclass(frozen=True)
class Classified:
    members: tuple[tuple[int, ...], ...]
    cograph: bool
    closed_form: "int | None"
    recovered: tuple[int, ...]
    crossings: frozenset


class Classify:
    """One word through ``geoposet classify`` and the template round trip.

    The word list is one word per inversion count at each size, so every
    pass holds the same cost strata whatever the seed; the seed picks the
    word within each stratum and the order of the pass.  Both ends of the
    range are included: at n = 8 the 0-inversion stratum is the identity,
    the costliest word.
    """

    unit = "words"

    def __init__(self, smoke: bool) -> None:
        self.sizes = (4, 5) if smoke else (7, 8)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        words = []
        for n in self.sizes:
            by_count: dict[int, list] = {}
            for w in itertools.permutations(range(1, n + 1)):
                k = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
                by_count.setdefault(k, []).append(w)
            words.extend(perms.Permutation(rng.choice(by_count[k])) for k in sorted(by_count))
        # Spread the cheap words, whose latencies set op_p50_ms, over the
        # whole pass, so the median does not sample one short stretch of time.
        rng.shuffle(words)
        self.words = words

    def items(self) -> list:
        return self.words

    def units(self, p) -> int:
        return 1

    def run(self, p):
        members = geoequiv.class_members(p)
        perms.inversion_count(p)
        cograph = moddecomp.is_cograph(graphs.inversion_graph(p))
        closed_form = moddecomp.cograph_class_size(p).class_size if cograph else None
        drawing = geometry.build_realization(p)
        crossed = geometry.crossings(drawing)
        recovered = geometry.recover_permutation(drawing)
        return members, cograph, closed_form, crossed, recovered

    def summarize(self, p, result) -> Classified:
        members, cograph, closed_form, crossed, recovered = result
        return Classified(
            members=tuple(m.word for m in members),
            cograph=cograph,
            closed_form=closed_form,
            recovered=recovered.word,
            crossings=crossed.pairs,
        )

    def check(self, p, s: Classified) -> "str | None":
        key = geoequiv.class_key(p)
        if p.word not in s.members:
            return f"{p}: not among its own class members"
        for w in s.members:
            if geoequiv.class_key(perms.Permutation(w)) != key:
                return f"{p}: member {perms.Permutation(w)} has another class key"
        if s.cograph and s.closed_form != len(s.members):
            return f"{p}: closed-form size {s.closed_form} != {len(s.members)} members"
        if s.recovered != p.word:
            return f"{p}: template round trip gave {perms.Permutation(s.recovered)}"
        if s.crossings != perms.inversion_set(p).pairs:
            return f"{p}: template crossings differ from the inversion set"
        return None


class Cache:
    """``save_cached_table`` then ``load_cached_table`` for a prebuilt table."""

    unit = "classes loaded"

    def __init__(self, smoke: bool) -> None:
        self.n = 5 if smoke else 8
        self._expected = None

    def setup(self, seed: int) -> None:
        self.table = geoequiv.enumerate_classes(self.n)

    def items(self) -> list:
        return [self.table]

    def units(self, table) -> int:
        return table.count

    def run(self, table):
        start = time.perf_counter()
        cli.save_cached_table(table)
        saved = time.perf_counter()
        loaded = cli.load_cached_table(table.n)
        return loaded, saved - start, time.perf_counter() - saved

    def summarize(self, table, result) -> dict:
        loaded, save_s, load_s = result
        return {
            "save_s": save_s,
            "load_s": load_s,
            "cache_bytes": cli._cache_path(table.n).stat().st_size,
            "json": None if loaded is None else _digest(loaded.to_json()),
            "keys": None if loaded is None else tuple(c.key for c in loaded.classes),
        }

    def check(self, table, summary) -> "str | None":
        if self._expected is None:
            self._expected = (_digest(table.to_json()), tuple(c.key for c in table.classes))
        if summary["json"] is None:
            return "load_cached_table missed the table just saved"
        if summary["json"] != self._expected[0]:
            return "loaded to_json() differs from the saved table's"
        if summary["keys"] != self._expected[1]:
            return "loaded class keys differ from the saved table's"
        return None


WORKLOADS = {"enumerate": Enumerate, "poset": Poset, "classify": Classify, "cache": Cache}
