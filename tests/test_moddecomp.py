import itertools
import math
import random

import pytest

from geoposet.digraphs import (
    Digraph,
    canonical_key,
    enumerate_transitive_orientations,
    from_perm,
    induced_permutation,
    is_isomorphic,
    reverse,
)
from geoposet.geoequiv import class_members, enumerate_classes
from geoposet.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    inversion_graph,
    path_graph,
)
from geoposet.moddecomp import (
    MDTree,
    NodeKind,
    ClassSizeReport,
    cograph_class_size,
    count_transitive_orientations,
    decompose,
    is_cograph,
    is_module,
    prime_unique_orientability_check,
    quotient_graph,
)
from geoposet.perms import all_permutations, identity, parse

# graphs shaped like the two worked decomposition examples: a pair of
# disjoint edges plus an isolated vertex, and a star with a pendant pair
G_TWO_EDGES = inversion_graph(parse("13254"))  # edges {2,3}, {4,5}
G_STAR_PAIR = inversion_graph(parse("12453"))  # edges {3,4}, {3,5}


def random_graph(rng, n, p=0.5):
    edges = {
        (u, v)
        for u in range(1, n)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    }
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# modules


def test_trivial_modules():
    g = G_TWO_EDGES
    assert is_module(g, set(range(1, 6)))
    for v in range(1, 6):
        assert is_module(g, {v})


def test_module_examples():
    assert is_module(G_TWO_EDGES, {2, 3})
    assert is_module(G_TWO_EDGES, {4, 5})
    assert not is_module(G_STAR_PAIR, {3, 4})
    assert is_module(G_STAR_PAIR, {4, 5})


def test_modules_of_graph_and_complement_coincide():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        gc = g.complement()
        for size in range(1, n + 1):
            for sub in itertools.combinations(range(1, n + 1), size):
                assert is_module(g, set(sub)) == is_module(gc, set(sub))


def test_is_module_rejects_empty():
    with pytest.raises(ValueError):
        is_module(G_TWO_EDGES, set())


# ---------------------------------------------------------------------------
# decomposition shapes


def test_arcless_graph_decomposes_to_parallel_leaves():
    tree = decompose(empty_graph(5))
    assert tree.root.kind is NodeKind.DEGENERATE_0
    assert len(tree.root.children) == 5
    assert all(c.kind is NodeKind.LEAF for c in tree.root.children)


def test_complete_graph_decomposes_to_series_leaves():
    tree = decompose(complete_graph(4))
    assert tree.root.kind is NodeKind.DEGENERATE_1
    assert len(tree.root.children) == 4
    assert all(c.kind is NodeKind.LEAF for c in tree.root.children)


def test_single_vertex_is_leaf():
    tree = decompose(empty_graph(1))
    assert tree.root.kind is NodeKind.LEAF


def test_star_pair_complement_shape():
    # complement view: series root with children {1}, {2}, {3,4,5};
    # inside, {3,4,5} splits as parallel with {3} and the series pair {4,5}
    tree = decompose(G_STAR_PAIR.complement())
    root = tree.root
    assert root.kind is NodeKind.DEGENERATE_1
    child_sets = {c.vertices for c in root.children}
    assert child_sets == {frozenset({1}), frozenset({2}), frozenset({3, 4, 5})}
    inner = next(c for c in root.children if c.vertices == {3, 4, 5})
    assert inner.kind is NodeKind.DEGENERATE_0
    pair = next(c for c in inner.children if c.vertices == {4, 5})
    assert pair.kind is NodeKind.DEGENERATE_1
    assert len(pair.children) == 2


def test_p4_is_prime():
    tree = decompose(path_graph(4))
    assert tree.root.kind is NodeKind.PRIME
    assert all(c.kind is NodeKind.LEAF for c in tree.root.children)
    assert tree.has_prime_node()


def test_children_are_strong_modules():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 7))
        tree = decompose(g)
        for node in tree.internal_nodes():
            union = set()
            for child in node.children:
                assert is_module(g, child.vertices)
                assert not union & child.vertices
                union |= child.vertices
            assert union == node.vertices


def test_tree_serialization():
    tree = decompose(G_TWO_EDGES)
    obj = tree.to_json_obj()
    assert obj["kind"] == "degenerate0"
    assert obj["vertices"] == [1, 2, 3, 4, 5]
    dot = tree.to_dot()
    assert dot.startswith("digraph mdtree {") and "leaf" in dot


# ---------------------------------------------------------------------------
# counting transitive orientations


def test_count_example_shapes():
    assert count_transitive_orientations(G_TWO_EDGES.complement()) == 6
    assert count_transitive_orientations(G_STAR_PAIR.complement()) == 12


def test_count_c5_is_zero():
    assert count_transitive_orientations(cycle_graph(5)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_count_complete(n):
    assert count_transitive_orientations(complete_graph(n)) == math.factorial(n)


def test_count_matches_enumeration_on_s5_graphs():
    for p in all_permutations(5):
        g = inversion_graph(p)
        assert count_transitive_orientations(g) == len(
            enumerate_transitive_orientations(g)
        )


def test_count_matches_enumeration_on_random_graphs():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
        assert count_transitive_orientations(g) == len(
            enumerate_transitive_orientations(g)
        )


def test_prime_unique_orientability():
    assert prime_unique_orientability_check(complete_graph(5))
    assert prime_unique_orientability_check(cycle_graph(5))
    assert prime_unique_orientability_check(path_graph(4))
    for p in all_permutations(5):
        assert prime_unique_orientability_check(inversion_graph(p))


def test_five_vertex_permutation_graph_census():
    # 33 permutation graphs on five vertices; 27 orient uniquely up to
    # relatedness and 6 carry two unrelated orientations, totalling 39
    # classes
    def graph_key(g):
        sym = Digraph(g.n, frozenset((u, v) for u, v in g.edges) | frozenset((v, u) for u, v in g.edges))
        return canonical_key(sym)

    table = enumerate_classes(5)
    orientations_per_graph = {}
    for c in table.classes:
        gk = graph_key(inversion_graph(c.representative))
        orientations_per_graph.setdefault(gk, set()).add(c.key)
    counts = sorted(len(v) for v in orientations_per_graph.values())
    assert len(orientations_per_graph) == 33
    assert counts.count(1) == 27
    assert counts.count(2) == 6
    assert sum(counts) == 39


# ---------------------------------------------------------------------------
# cographs and class sizes


def test_p4_not_cograph():
    assert not is_cograph(path_graph(4))


def test_small_graphs_are_cographs():
    rng = random.Random(3)
    for _ in range(10):
        assert is_cograph(random_graph(rng, rng.randint(1, 3)))


def test_inversion_graph_2431_is_cograph():
    assert is_cograph(inversion_graph(parse("2431")))


def test_class_size_identity():
    report = cograph_class_size(identity(5))
    assert report == ClassSizeReport(n_d=1, self_related=True, class_size=1)


def test_class_size_two_disjoint_edges():
    # three children at the parallel root, two inducing isomorphic single
    # arcs, so 3!/2! = 3 represented permutations; the reversal is
    # isomorphic, leaving a class of 3
    report = cograph_class_size(parse("13254"))
    assert report.n_d == 3
    assert report.self_related
    assert report.class_size == 3


def test_class_size_out_star():
    # same 3 representatives, but the reversal is a different digraph
    report = cograph_class_size(parse("12453"))
    assert report.n_d == 3
    assert not report.self_related
    assert report.class_size == 6


def test_class_size_rejects_prime():
    with pytest.raises(ValueError):
        cograph_class_size(parse("2413"))  # inversion graph is a path on 4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_size_formula_matches_enumeration(n):
    table = enumerate_classes(n)
    for p in all_permutations(n):
        if is_cograph(inversion_graph(p)):
            report = cograph_class_size(p)
            assert report.class_size == table.class_of(p).size, str(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_size_fields_match_digraph_route(n):
    for p in all_permutations(n):
        if not is_cograph(inversion_graph(p)):
            continue
        report = cograph_class_size(p)
        d = from_perm(p)
        key = canonical_key(d)
        n_d = sum(1 for m in class_members(p) if canonical_key(from_perm(m)) == key)
        assert report.n_d == n_d, str(p)
        assert report.self_related == is_isomorphic(d, reverse(d)), str(p)


def test_schroeder_counts_small():
    expected = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90, 6: 394}
    for n, want in expected.items():
        count = sum(1 for p in all_permutations(n) if is_cograph(inversion_graph(p)))
        assert count == want


def test_swapping_isomorphic_children_fixes_induced_permutation():
    # orientations of the complement differing only by interchanging the
    # two isomorphic modules induce the same permutation, so six
    # orientations yield exactly three distinct permutations
    d = from_perm(parse("13254"))
    induced = {
        str(induced_permutation(d, o))
        for o in enumerate_transitive_orientations(G_TWO_EDGES.complement())
    }
    assert induced == {"13254", "21354", "21435"}


def test_quotient_of_series_node_is_complete():
    tree = decompose(complete_graph(4))
    q = quotient_graph(complete_graph(4), tree.root)
    assert q == complete_graph(4)
