"""The class order against the paper's own definition, on drawings.

A drawing of K_{2,n} lies below another when some automorphism of K_{2,n}
carries every crossing of the first onto a crossing of the second.  The
automorphisms permute the n spokes and either keep or swap the two apexes.
This oracle lays each class representative out with ``build_realization``,
reads its crossings with ``crossing_pairs`` and tries all 2·n! of them.  It
shares no code with ``digraphs`` or ``poset``: only the relation it is
compared with comes from ``build_poset``.

The automorphisms are the bijective reading of the paper's
geo-homomorphisms.  Read over every vertex map of K_{2,n} that keeps
adjacency and crossings, spokes may merge, and the relation is no longer
antisymmetric on classes (``test_vertex_maps_give_no_partial_order``).
"""

import itertools
import os

import pytest

from geoposet.geometry import build_realization, crossing_pairs
from geoposet.poset import build_poset


def crossing_mask(pairs, n):
    """The crossings (b-edge i, a-edge j) as bits (i - 1) * n + (j - 1)."""
    return sum(1 << (i - 1) * n + j - 1 for i, j in pairs)


def automorphic_images(pairs, n):
    """Every image of a crossing set under a spoke permutation σ, with the
    apexes kept, (i, j) -> (σ(i), σ(j)), or swapped, (i, j) -> (σ(j), σ(i)):
    after the swap the edge b-i is an a-edge."""
    images = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        images.add(crossing_mask([(sigma[i - 1], sigma[j - 1]) for i, j in pairs], n))
        images.add(crossing_mask([(sigma[j - 1], sigma[i - 1]) for i, j in pairs], n))
    return images


def geometric_rows(table):
    """Row i has bit j set when the drawing of class i's representative lies
    below that of class j's."""
    n = table.n
    crossings = [
        crossing_pairs(build_realization(c.representative)) for c in table.classes
    ]
    targets = [crossing_mask(pairs, n) for pairs in crossings]
    rows = []
    for pairs in crossings:
        images = automorphic_images(pairs, n)
        rows.append(
            sum(
                1 << j
                for j, target in enumerate(targets)
                if len(pairs) <= target.bit_count()
                and any(not image & ~target for image in images)
            )
        )
    return rows


@pytest.mark.parametrize(
    "n, pairs",
    [
        (1, 1),
        (2, 3),
        (3, 10),
        (4, 67),
        (5, 571),
        pytest.param(
            6,
            9545,
            marks=pytest.mark.skipif(
                os.environ.get("GEOPOSET_ACCEPT_LONG") != "1",
                reason="the n = 6 oracle takes about 4 s; set GEOPOSET_ACCEPT_LONG=1",
            ),
        ),
    ],
)
def test_order_is_the_geometric_order_on_drawings(n, pairs):
    poset = build_poset(n)
    rows = geometric_rows(poset.table)
    for i, row in enumerate(rows):
        for j in range(poset.size):
            assert poset.is_leq(i, j) == bool(row >> j & 1), (i, j)
    assert sum(row.bit_count() for row in rows) == pairs


def crossing_edges(pairs):
    """The crossings (b-edge i, a-edge j) as pairs of edges (apex, spoke) of
    K_{2,n}: vertex 0 is the apex a, 1 is b and 1 + i is spoke i."""
    return [((1, i + 1), (0, j + 1)) for i, j in pairs]


def vertex_map_exists(source, target, n):
    """Is there a map f of the vertices of K_{2,n} that sends every edge to
    an edge and every crossing of ``source`` to a crossing of ``target``
    (a set of frozenset edge pairs)?  The apexes are placed first: a spoke
    must go to a vertex adjacent to both their images, so to a spoke when
    both are apexes, to an apex when both are spokes, and nowhere else."""
    for fa, fb in itertools.product(range(n + 2), repeat=2):
        if fa < 2 and fb < 2:
            choices = range(2, n + 2)
        elif fa >= 2 and fb >= 2:
            choices = (0, 1)
        else:
            continue
        for spokes in itertools.product(choices, repeat=n):
            f = (fa, fb, *spokes)
            if all(
                frozenset({tuple(sorted((f[u], f[v]))), tuple(sorted((f[x], f[y])))}) in target
                for (u, v), (x, y) in source
            ):
                return True
    return False


@pytest.mark.parametrize("n, extra", [(2, 0), (3, 1), (4, 32)])
def test_vertex_maps_give_no_partial_order(n, extra):
    """Through every vertex map that keeps adjacency and crossings, not only
    the bijections, classes 1.1 and 2.1 lie below each other from n = 3 on:
    merging spokes 2 and 3 sends both crossings of 231 onto the one of 132.
    That relation contains the class order and exceeds it in ``extra``
    ordered pairs, so the order reads the homomorphisms as bijections."""
    poset = build_poset(n)
    classes = poset.table.classes
    sources = [
        crossing_edges(crossing_pairs(build_realization(c.representative))) for c in classes
    ]
    targets = [{frozenset(cross) for cross in source} for source in sources]
    wider = [
        [vertex_map_exists(source, target, n) for target in targets] for source in sources
    ]
    for i, row in enumerate(wider):
        for j, related in enumerate(row):
            assert related or not poset.is_leq(i, j), (i, j)
    assert sum(map(sum, wider)) - sum(row.bit_count() for row in poset.leq) == extra
    if n >= 3:
        low, high = poset.table.labels.index("1.1"), poset.table.labels.index("2.1")
        assert wider[low][high] and wider[high][low]
        assert poset.is_leq(low, high) and not poset.is_leq(high, low)
