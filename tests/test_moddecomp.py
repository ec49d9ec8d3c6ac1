import itertools
import math
from collections import Counter
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet.digraphs import (
    Digraph,
    canonical_key,
    enumerate_transitive_orientations,
    from_perm,
    induced_permutation,
    is_isomorphic,
    reverse,
)
from geoposet.geoequiv import _word_key, class_members, enumerate_classes
from geoposet.graphs import (
    Graph,
    bits,
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
    _module_closure,
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


def test_is_module_follows_its_definition_on_every_graph_up_to_5_vertices():
    # the definition, stated here: every vertex outside the set is adjacent
    # to all of it or to none of it
    for n in range(1, 6):
        slots = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(slots)):
            edges = frozenset(e for e, keep in zip(slots, chosen) if keep)
            g = Graph(n, edges)
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(1, n + 1), size):
                    expected = all(
                        len({(min(v, w), max(v, w)) in edges for w in sub}) == 1
                        for v in range(1, n + 1)
                        if v not in sub
                    )
                    assert is_module(g, set(sub)) == expected, (n, sorted(edges), sub)


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


def closure_growth_children(mset, adjacency):
    """The prime split by its definition: every proper pair closure, grown
    by overlap into the maximal proper modules."""
    closures = set()
    verts = list(bits(mset))
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            c = _module_closure(1 << verts[a] | 1 << verts[b], mset, adjacency)
            if c != mset:
                closures.add(c)
    children = []
    assigned = 0
    for v in verts:
        if assigned >> v & 1:
            continue
        s = 1 << v
        grew = True
        while grew:
            grew = False
            for c in closures:
                if c & s and c & ~s:
                    s |= c
                    grew = True
        assert s != mset
        children.append(s)
        assigned |= s
    assert assigned == mset
    return children


def assert_same_tree_as_closure_growth(g):
    tree = decompose(g).to_json_obj()
    with mock.patch("geoposet.moddecomp._prime_children", closure_growth_children):
        assert tree == decompose(g).to_json_obj()


def test_prime_split_matches_closure_growth_on_inversion_graphs():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert_same_tree_as_closure_growth(inversion_graph(p))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_prime_split_matches_closure_growth_on_random_graphs(g):
    assert_same_tree_as_closure_growth(g)


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


def test_count_matches_enumeration_on_every_graph_through_five_vertices():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(e for k, e in enumerate(pairs) if mask >> k & 1))
            assert count_transitive_orientations(g) == len(
                enumerate_transitive_orientations(g)
            ), sorted(g.edges)


@pytest.mark.parametrize(
    "g, count",
    [
        (path_graph(11), 2),
        (cycle_graph(11), 0),
        (inversion_graph(parse("2,4,1,6,3,8,5,10,7,11,9")), 2),
    ],
)
def test_count_past_the_enumeration_bound(g, count):
    # enumerate_transitive_orientations refuses n > 10; the count does not
    assert count_transitive_orientations(g) == count


def test_prime_unique_orientability():
    assert prime_unique_orientability_check(complete_graph(5))
    assert prime_unique_orientability_check(cycle_graph(5))
    assert prime_unique_orientability_check(path_graph(4))
    for p in all_permutations(5):
        assert prime_unique_orientability_check(inversion_graph(p))


def enumerated_uniqueness_check(g):
    """The oracle for ``prime_unique_orientability_check``: enumerate the
    transitive orientations of every prime quotient (n <= 10)."""
    return all(
        len(enumerate_transitive_orientations(quotient_graph(g, node))) in (0, 2)
        for node in decompose(g).internal_nodes()
        if node.kind is NodeKind.PRIME
    )


def test_prime_unique_orientability_matches_enumeration():
    graphs = [cycle_graph(5), complete_graph(5), path_graph(4)]
    graphs += [inversion_graph(p) for n in range(1, 7) for p in all_permutations(n)]
    rng = random.Random(17)
    graphs += [random_graph(rng, rng.randint(1, 7), 0.5) for _ in range(40)]
    for g in graphs:
        assert prime_unique_orientability_check(g) == enumerated_uniqueness_check(g)


@pytest.mark.parametrize("n", [11, 14])
def test_prime_unique_orientability_past_the_enumeration_bound(n):
    assert decompose(path_graph(n)).root.kind is NodeKind.PRIME
    assert prime_unique_orientability_check(path_graph(n))


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
    assert report == ClassSizeReport(n_d=1, self_related=True)


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


@pytest.mark.parametrize("n", [6, 7])
def test_class_size_matches_graph_decomposition_and_backtracking_key(n):
    # an oracle that shares no code with the tree route: the graph
    # decomposition says which words are cographs, one Counter of
    # backtracking keys over S_n counts the words of each digraph
    words = list(all_permutations(n))
    keys = [canonical_key(from_perm(p)) for p in words]
    words_of = Counter(keys)
    for p, key in zip(words, keys):
        if not is_cograph(inversion_graph(p)):
            with pytest.raises(ValueError, match="prime node"):
                cograph_class_size(p)
            continue
        report = cograph_class_size(p)
        d = from_perm(p)
        assert report.n_d == words_of[key], str(p)
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


# ---------------------------------------------------------------------------
# the class key's substitution tree against the modular decomposition tree

# a code's header byte is kind << 5 | child count: ⊕, ⊖ and prime, and the
# byte 0 for a leaf
CODE_KINDS = {0: "leaf", 1: "degenerate0", 2: "degenerate1", 3: "prime"}


def read_code(code, i=0):
    """The (kind, sorted child shapes) of the node whose code starts at
    code[i], and where its code ends; a prime node's σ, in nibbles, is
    skipped."""
    kind, k = code[i] >> 5, code[i] & 31
    i += 1 + ((k + 1) // 2 if CODE_KINDS[kind] == "prime" else 0)
    children = []
    for _ in range(k):
        child, i = read_code(code, i)
        children.append(child)
    return (CODE_KINDS[kind], tuple(sorted(children))), i


def split_word(word):
    """The substitution tree of a word of consecutive values, as (kind,
    values, sorted children): ⊕ cuts where a prefix holds the least values,
    ⊖ cuts where it holds the greatest, else the maximal proper intervals,
    taken from the left."""
    m, lo, hi = len(word), min(word), max(word)
    values = tuple(sorted(word))
    if m == 1:
        return ("leaf", values, ())
    plus = [k for k in range(1, m + 1) if max(word[:k]) == lo + k - 1]
    minus = [k for k in range(1, m + 1) if min(word[:k]) == hi - k + 1]
    if len(plus) > 1 or len(minus) > 1:
        kind, cuts = ("degenerate0", plus) if len(plus) > 1 else ("degenerate1", minus)
        blocks = [word[a:b] for a, b in zip([0, *cuts], cuts)]
    else:
        kind, blocks, a = "prime", [], 0
        while a < m:
            b = max(
                b
                for b in range(a + 1, m + (a > 0))
                if max(word[a:b]) - min(word[a:b]) == b - a - 1
            )
            blocks.append(word[a:b])
            a = b
    return (kind, values, tuple(sorted(map(split_word, blocks))))


def md_tree(node):
    return (
        node.kind.value,
        tuple(sorted(node.vertices)),
        tuple(sorted(map(md_tree, node.children))),
    )


def shape(tree):
    kind, _, children = tree
    return (kind, tuple(sorted(map(shape, children))))


def has_prime(tree):
    kind, _, children = tree
    return kind == "prime" or any(map(has_prime, children))


@pytest.mark.parametrize(
    "n, prime_words",
    [
        (1, 0),
        (2, 0),
        (3, 0),
        (4, 2),
        (5, 30),
        (6, 326),
        (7, 3234),
        pytest.param(8, 31762, marks=pytest.mark.long),
    ],
)
def test_class_key_tree_is_the_modular_decomposition_tree(n, prime_words):
    # ⊕ nodes are degenerate0 (no inversion joins two blocks), ⊖ nodes are
    # degenerate1 (every pair across blocks is one), and prime nodes are
    # prime, with the same children as vertex sets: the values of each block
    with_prime = 0
    for p in all_permutations(n):
        tree = split_word(p.word)
        assert md_tree(decompose(inversion_graph(p)).root) == tree, str(p)
        code = _word_key(p.word)
        shape_of_code, end = read_code(code)
        assert end == len(code) and shape_of_code == shape(tree), str(p)
        with_prime += has_prime(tree)
    assert with_prime == prime_words
