"""The classes of S_n are the posets of dimension at most 2 on n points, up
to isomorphism and duality.

D(w) is transitive, so it is a strict partial order, and the posets of
dimension <= 2 are exactly these orders (Dushnik & Miller 1941); a class
is "D isomorphic, or isomorphic after reversal".  The oracle here builds
every unlabeled poset with no permutation in it: it adds a maximal point
above each down-set of each poset on one point fewer and deduplicates by
``canonical_key``.  A poset has dimension <= 2 exactly when its
incomparability graph has a transitive orientation.  Neither ``class_key``
nor the substitution tree's ``_tree_codes`` takes part."""

import pytest

from geoposet import Digraph, canonical_key, count_transitive_orientations, enumerate_classes
from geoposet import geoequiv, moddecomp
from geoposet.digraphs import from_perm, reverse
from geoposet.graphs import bits

POSETS = [1, 2, 5, 16, 63, 318, 2045, 16999]  # OEIS A000112, n = 1..8


def grow(posets: list[Digraph], n: int) -> list[Digraph]:
    """The posets on n points, one per isomorphism type, from those on
    n - 1: an arc (u, v) reads u < v, and point n goes above a down-set."""
    seen = {}
    for p in posets:
        below = [0] * (n - 1)
        for u, v in p.arcs:
            below[v - 1] |= 1 << (u - 1)
        for down in range(1 << (n - 1)):
            if all(below[v] & ~down == 0 for v in bits(down)):
                d = Digraph(n, p.arcs | {(u + 1, n) for u in bits(down)})
                seen.setdefault(canonical_key(d), d)
    return list(seen.values())


def dual_key(d: Digraph) -> bytes:
    return min(canonical_key(d), canonical_key(reverse(d)))


def two_dimensional_up_to(top: int, monkeypatch) -> list[set[bytes]]:
    """For n = 1..top, the dual keys of the posets of dimension <= 2, built
    with every route to a class key made to fail."""

    def forbidden(*args):
        raise AssertionError("the poset oracle reads no class key")

    found = []
    with monkeypatch.context() as m:
        for module in (geoequiv, moddecomp):
            m.setattr(module, "_tree_codes", forbidden)
        m.setattr(geoequiv, "class_key", forbidden)
        posets = [Digraph(1, frozenset())]
        for n in range(1, top + 1):
            if n > 1:
                posets = grow(posets, n)
            assert len(posets) == POSETS[n - 1], n
            found.append(
                {
                    dual_key(d)
                    for d in posets
                    if count_transitive_orientations(d.underlying_graph().complement()) > 0
                }
            )
    return found


def agree_up_to(top: int, monkeypatch) -> None:
    for n, two_dim in enumerate(two_dimensional_up_to(top, monkeypatch), 1):
        classes = {dual_key(from_perm(c.representative)) for c in enumerate_classes(n).classes}
        assert two_dim == classes, n


def test_classes_are_the_2_dimensional_posets_up_to_duality(monkeypatch):
    agree_up_to(7, monkeypatch)


@pytest.mark.long
def test_classes_are_the_2_dimensional_posets_up_to_duality_n8(monkeypatch):
    agree_up_to(8, monkeypatch)
