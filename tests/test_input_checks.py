"""The argument checks of the public functions: each refusal, and the cheap
False answers that skip the real work, on the smallest input that reaches it."""

import copy

import pytest

from geoposet import (
    Digraph,
    Graph,
    PairSet,
    Realization,
    act,
    build_realization,
    canonical_key,
    compare_with_reference,
    compose,
    cycle_graph,
    empty_graph,
    enumerate_classes,
    enumerate_transitive_orientations,
    equivalent_bruteforce,
    equivalent_fast,
    induced_permutation,
    inversion_set,
    is_isomorphic,
    is_module,
    load_s5_reference,
    parse,
    path_graph,
    spanning_embeds,
)
from geoposet.geometry import relabeled


def no_arcs(n):
    return Digraph(n, frozenset())


def doctored_s5_report():
    """The S_5 comparison against the published partition with one word
    dropped from class 1.1: no duplicate explains that, so the class is
    reported as unexplained."""
    reference = copy.deepcopy(load_s5_reference())
    assert reference["classes"][1]["label"] == "1.1"
    reference["classes"][1]["members"].pop()
    report = compare_with_reference(enumerate_classes(5), reference)
    return not report.ok and "reference class 1.1: UNEXPLAINED mismatch" in report.describe()


CASES = {
    "Digraph self-loop": (lambda: Digraph(2, frozenset({(1, 1)})), ValueError),
    "canonical_key n = 17": (lambda: canonical_key(no_arcs(17)), ValueError),
    "is_isomorphic other n": (lambda: is_isomorphic(no_arcs(2), no_arcs(3)), False),
    "is_isomorphic other arc count": (
        lambda: is_isomorphic(Digraph(2, frozenset({(1, 2)})), no_arcs(2)),
        False,
    ),
    "spanning_embeds other n": (lambda: spanning_embeds(no_arcs(2), no_arcs(3)), ValueError),
    "induced_permutation other n": (
        lambda: induced_permutation(no_arcs(2), no_arcs(3)),
        ValueError,
    ),
    "equivalent_bruteforce other n": (
        lambda: equivalent_bruteforce(parse("21"), parse("321")),
        ValueError,
    ),
    "equivalent_fast other n": (lambda: equivalent_fast(parse("21"), parse("321")), ValueError),
    "compose other n": (lambda: compose(parse("21"), parse("321")), ValueError),
    "act other n": (lambda: act(parse("21"), inversion_set(parse("321"))), ValueError),
    "enumerate_transitive_orientations n = 11": (
        lambda: enumerate_transitive_orientations(empty_graph(11)),
        ValueError,
    ),
    "Graph.from_edges self-loop": (lambda: Graph.from_edges(3, [(2, 2)]), ValueError),
    "cycle_graph(2)": (lambda: cycle_graph(2), ValueError),
    "is_module out-of-range vertex": (lambda: is_module(path_graph(3), {4}), ValueError),
    "Realization without a spoke": (lambda: Realization((0, 0), (1, 0), ()), ValueError),
    "relabeled non-bijection": (
        lambda: relabeled(build_realization(parse("21")), {1: 1, 2: 1}),
        ValueError,
    ),
    "compare_with_reference other n": (
        lambda: compare_with_reference(enumerate_classes(4), load_s5_reference()),
        ValueError,
    ),
    "compare_with_reference doctored class": (doctored_s5_report, True),
    "(1, 2) in PairSet": (lambda: (1, 2) in PairSet(2, frozenset({(1, 2)})), True),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=list(CASES))
def test_input_checks(call, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert call() is expected
