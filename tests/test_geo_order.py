"""The class order against the paper's own definition, on drawings.

A drawing of K_{2,n} lies below another when some automorphism of K_{2,n}
carries every crossing of the first onto a crossing of the second.  The
automorphisms permute the n spokes and either keep or swap the two apexes.
This oracle lays each class representative out with ``build_realization``,
reads its crossings with ``crossing_pairs`` and tries all 2·n! of them.  It
shares no code with ``digraphs`` or ``poset``: only the relation it is
compared with comes from ``build_poset``.
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
