"""The library leaves no cyclic garbage: reference counting frees all it makes.

Each entry point is warmed up once (so caches and lazily built module state
are in place), then called again with the cyclic collector off; a
``gc.collect()`` afterwards must find nothing to free.  A recursive closure
that still refers to itself after its search is the usual way to fail.
"""

import gc

import pytest

from geoposet import geometry
from geoposet.digraphs import (
    Digraph,
    canonical_key,
    degrees_dominate,
    enumerate_transitive_orientations,
    from_perm,
    mask_embedding,
)
from geoposet.geoequiv import class_members, enumerate_classes
from geoposet.graphs import inversion_graph
from geoposet.moddecomp import cograph_class_size, decompose
from geoposet.perms import parse
from geoposet.poset import _shapes, build_poset

PRIME = parse("361524")  # a prime inversion graph on 6 vertices


def cyclic_garbage(call) -> int:
    """Objects the cyclic collector frees after a second ``call()``."""
    call()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def embedding_pair(small: str, big: str):
    return _shapes(parse(small).word), _shapes(parse(big).word)


def refused_key():
    """A key search stopped by its budget: the regular tournament on 13
    vertices, which refinement does not split."""
    try:
        canonical_key(TOURNAMENT)
    except ValueError:
        return
    raise AssertionError("the key search stayed within its budget")


def round_trip():
    drawing = geometry.build_realization(PRIME)
    return geometry.crossings(drawing), geometry.recover_permutation(drawing)


TABLE6 = enumerate_classes(6)
HIT = embedding_pair("213456", "231456")
MISS = embedding_pair("214365", "231645")  # passes the degree test, then misses
TOURNAMENT = Digraph(13, frozenset((u + 1, (u + d) % 13 + 1) for u in range(13) for d in range(1, 7)))
GRAPH = inversion_graph(PRIME)
TREE = decompose(GRAPH)

ENTRY_POINTS = {
    "build_poset": lambda: build_poset(TABLE6),
    "mask_embedding_hit": lambda: mask_embedding(*HIT),
    "mask_embedding_miss": lambda: mask_embedding(*MISS),
    "decompose": lambda: decompose(GRAPH),
    "canonical_key": lambda: canonical_key(from_perm(PRIME)),
    "canonical_key_over_budget": refused_key,
    "transitive_orientations": lambda: enumerate_transitive_orientations(GRAPH),
    "mdtree_to_json_obj": TREE.to_json_obj,
    "enumerate_classes": lambda: enumerate_classes(6),
    "class_members": lambda: class_members(PRIME),
    "cograph_class_size": lambda: cograph_class_size(parse("132546")),
    "geometry_round_trip": round_trip,
}


def test_embedding_pairs_take_the_search():
    assert mask_embedding(*HIT) is not None
    assert degrees_dominate(*MISS) and mask_embedding(*MISS) is None


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_no_cyclic_garbage(name):
    assert cyclic_garbage(ENTRY_POINTS[name]) == 0

