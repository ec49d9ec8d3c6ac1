import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet.digraphs import (
    Digraph,
    MaskDigraph,
    canonical_key,
    canonical_key_hex,
    degrees_dominate,
    enumerate_transitive_orientations,
    from_perm,
    induced_permutation,
    is_isomorphic,
    is_transitive,
    mask_embedding,
    related,
    reverse,
    spanning_embeds,
)
from geoposet.geoequiv import enumerate_classes
from geoposet.graphs import Graph, complete_graph, cycle_graph, empty_graph
from geoposet.perms import all_permutations, identity, inverse, inversion_set, parse, word_masks
from geoposet.perms import reverse as word_reverse


def brute_embeds(dsmall: Digraph, dbig: Digraph) -> bool:
    """Independent oracle: try every vertex bijection."""
    verts = range(1, dsmall.n + 1)
    for img in itertools.permutations(verts):
        f = dict(zip(verts, img))
        if all((f[u], f[v]) in dbig.arcs for u, v in dsmall.arcs):
            return True
    return False


def brute_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return brute_embeds(d1, d2)


def random_digraph(rng, n, p=0.4):
    arcs = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < p:
                arcs.add((u, v))
    return Digraph(n, frozenset(arcs))


def relabel(d: Digraph, img) -> Digraph:
    f = dict(zip(range(1, d.n + 1), img))
    return Digraph(d.n, frozenset((f[u], f[v]) for u, v in d.arcs))


# ---------------------------------------------------------------------------
# construction


def test_from_perm_arcs_are_inversions():
    d = from_perm(parse("4231"))
    assert d.arcs == {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
    assert len(d.arcs) == 5


def test_from_perm_identity_arcless():
    assert from_perm(identity(5)).arcs == frozenset()


def test_from_perm_2431():
    assert len(from_perm(parse("2431")).arcs) == 4


def test_reverse_flips_arcs():
    d = Digraph(3, frozenset({(1, 2), (3, 1)}))
    assert reverse(d).arcs == {(2, 1), (1, 3)}
    assert reverse(from_perm(identity(4))).arcs == frozenset()


# ---------------------------------------------------------------------------
# canonical keys


def test_key_separates_unrelated_five_inversion_digraphs():
    assert canonical_key(from_perm(parse("4231"))) != canonical_key(
        from_perm(parse("3421"))
    )


def test_key_of_arcless_depends_only_on_n():
    for n in (1, 2, 5, 9):
        k1 = canonical_key(Digraph(n, frozenset()))
        k2 = canonical_key(from_perm(identity(n)))
        assert k1 == k2
        assert k1[0] == n


def test_key_invariant_under_self_inverse_reversal():
    d = from_perm(parse("4231"))  # 4231 is its own inverse
    assert canonical_key(d) == canonical_key(reverse(d))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_reverse_digraph_is_inverse_digraph(n):
    assert is_isomorphic(reverse(from_perm(parse("3421"))), from_perm(parse("4312")))
    for p in all_permutations(n):
        assert canonical_key(reverse(from_perm(p))) == canonical_key(
            from_perm(inverse(p))
        )


def test_key_relabeling_invariance_sampled():
    rng = random.Random(20240331)
    words = [tuple(rng.sample(range(1, 7), 6)) for _ in range(20)]
    for word in words:
        d = from_perm(parse(",".join(map(str, word))))
        base = canonical_key(d)
        for _ in range(10):
            img = rng.sample(range(1, 7), 6)
            assert canonical_key(relabel(d, img)) == base


@st.composite
def relabelled_permutation_digraph(draw):
    n = draw(st.integers(10, 16))
    word = draw(st.permutations(range(1, n + 1)))
    img = draw(st.permutations(range(1, n + 1)))
    d = from_perm(parse(",".join(map(str, word))))
    return d, relabel(d, img)


@settings(max_examples=200, deadline=None)
@given(relabelled_permutation_digraph())
def test_key_relabeling_invariance_large_n(pair):
    d, relabelled = pair
    assert canonical_key(relabelled) == canonical_key(d)


def test_key_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6):
        pool = [random_digraph(rng, n, p) for p in (0.2, 0.4, 0.7) for _ in range(6)]
        # relabelled copies give isomorphic pairs; at n >= 5 random pairs
        # almost never are.  p = 0.4 and 0.7 draw 2-cycles freely.
        pool += [relabel(d, rng.sample(range(1, n + 1), n)) for d in pool]
        assert any((v, u) in d.arcs for d in pool for u, v in d.arcs)
        for d1, d2 in itertools.combinations(pool, 2):
            expected = brute_isomorphic(d1, d2)
            got = canonical_key(d1) == canonical_key(d2)
            assert got == expected, (d1, d2)


def test_key_handles_two_cycles():
    d1 = Digraph(3, frozenset({(1, 2), (2, 1)}))
    d2 = Digraph(3, frozenset({(2, 3), (3, 2)}))
    d3 = Digraph(3, frozenset({(1, 2), (2, 3)}))
    assert canonical_key(d1) == canonical_key(d2)
    assert canonical_key(d1) != canonical_key(d3)


def test_key_hex_is_lowercase_hex():
    h = canonical_key_hex(from_perm(parse("2431")))
    assert h == h.lower() and int(h, 16) >= 0


def test_related():
    assert related(from_perm(parse("3421")), from_perm(parse("4312")))
    assert not related(from_perm(parse("3421")), from_perm(parse("4231")))
    d = from_perm(parse("2431"))
    assert related(d, d)


# ---------------------------------------------------------------------------
# spanning embeddings


def check_embedding(dsmall, dbig, f):
    assert sorted(f) == list(range(1, dsmall.n + 1))
    assert sorted(f.values()) == list(range(1, dbig.n + 1))
    for u, v in dsmall.arcs:
        assert (f[u], f[v]) in dbig.arcs


def test_embed_arcless_always():
    f = spanning_embeds(from_perm(identity(4)), from_perm(parse("4231")))
    assert f is not None
    check_embedding(from_perm(identity(4)), from_perm(parse("4231")), f)


def test_embed_proper_subset_of_35142():
    small = Digraph(5, frozenset({(2, 3), (2, 4), (2, 5), (4, 5), (1, 5)}))
    big = from_perm(parse("35142"))
    assert small.arcs < big.arcs
    f = spanning_embeds(small, big)
    assert f is not None
    check_embedding(small, big, f)


def test_embed_fails_between_unrelated_equal_size():
    assert spanning_embeds(from_perm(parse("4231")), from_perm(parse("3421"))) is None


def test_embed_respects_found_mapping_randomized():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 6)
        big = random_digraph(rng, n, 0.5)
        arcs = sorted(big.arcs)
        small = Digraph(n, frozenset(a for a in arcs if rng.random() < 0.5))
        f = spanning_embeds(small, big)
        if f is not None:
            check_embedding(small, big, f)
    # an identity-relabelable sub-digraph always embeds
    big = from_perm(parse("35142"))
    small = Digraph(5, frozenset(list(sorted(big.arcs))[:3]))
    assert spanning_embeds(small, big) is not None


def test_mask_embedding_matches_bruteforce_on_s5_classes():
    reps = [c.representative for c in enumerate_classes(5).classes]
    shapes = [MaskDigraph.from_masks(*word_masks(p.word)) for p in reps]
    filtered = 0
    for p, small in zip(reps, shapes):
        for q in reps:
            for target in (q, inverse(q)):
                big = MaskDigraph.from_masks(*word_masks(target.word))
                expected = brute_embeds(from_perm(p), from_perm(target))
                if not degrees_dominate(small, big):
                    assert not expected, (p, target)
                    filtered += 1
                mapping = mask_embedding(small, big)
                assert (mapping is not None) == expected, (p, target)
                if mapping is not None:
                    f = {v + 1: w + 1 for v, w in enumerate(mapping)}
                    check_embedding(from_perm(p), from_perm(target), f)
    assert filtered > 0


# ---------------------------------------------------------------------------
# transitive orientations


def test_c5_has_no_transitive_orientation():
    assert enumerate_transitive_orientations(cycle_graph(5)) == []


def test_k3_has_six():
    orientations = enumerate_transitive_orientations(complete_graph(3))
    assert len(orientations) == 6
    assert all(is_transitive(o) for o in orientations)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complete_graph_has_factorial_many(n):
    import math

    assert len(enumerate_transitive_orientations(complete_graph(n))) == math.factorial(n)


def test_edgeless_graph_single_empty_orientation():
    orientations = enumerate_transitive_orientations(empty_graph(4))
    assert len(orientations) == 1
    assert orientations[0].arcs == frozenset()


def test_enumerated_orientations_are_orientations_of_g():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    for o in enumerate_transitive_orientations(g):
        assert o.underlying_graph() == g
        assert is_transitive(o)


# ---------------------------------------------------------------------------
# reading permutations off orientation pairs


def test_induced_identity_from_arcless():
    n = 4
    f = Digraph(n, frozenset())
    # any transitive orientation of the complete complement works
    f1 = from_perm(word_reverse(identity(n)))  # full tournament 1 -> 2 -> ...
    assert len(f1.arcs) == n * (n - 1) // 2
    assert induced_permutation(f, f1) == identity(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_induced_round_trip_and_sign_flips(n):
    for p in all_permutations(n):
        f = from_perm(p)
        f1 = from_perm(word_reverse(p))  # arcs of the complement pattern
        assert induced_permutation(f, f1) == p
        assert induced_permutation(reverse(f), f1) == inverse(p)
        four = {
            str(induced_permutation(f, f1)),
            str(induced_permutation(reverse(f), f1)),
            str(induced_permutation(f, reverse(f1))),
            str(induced_permutation(reverse(f), reverse(f1))),
        }
        q = word_reverse(inverse(word_reverse(p)))
        assert four == {str(p), str(inverse(p)), str(q), str(inverse(q))}


def test_induced_rejects_non_tournament():
    f = Digraph(3, frozenset({(1, 2)}))
    f1 = Digraph(3, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        induced_permutation(f, f1)


def test_induced_rejects_shared_arc():
    # the union is a transitive tournament, but (1, 2) lies in both
    f = Digraph(3, frozenset({(1, 2)}))
    f1 = Digraph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    with pytest.raises(ValueError):
        induced_permutation(f, f1)


def test_induced_rejects_cyclic_tournament():
    f = Digraph(3, frozenset({(1, 2)}))
    f1 = Digraph(3, frozenset({(2, 3), (3, 1)}))
    with pytest.raises(ValueError):
        induced_permutation(f, f1)


def test_json_round_trip():
    d = from_perm(parse("2431"))
    assert Digraph.from_json_obj(d.to_json_obj()) == d
