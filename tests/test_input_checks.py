"""The argument checks of the public functions: each refusal, and the cheap
False answers that skip the real work, on the smallest input that reaches it.
Every two-operand function refuses operands of different n with the one
message ``size mismatch: a vs b``, and every function of a size n refuses
an n that is not a positive int (a bool or a float too) with the one
message of ``perms._check_size``."""

import copy
import re

import pytest

from geoposet import (
    Digraph,
    Graph,
    PairSet,
    Realization,
    act,
    all_permutations,
    bruhat_below,
    bruhat_extension_check,
    build_poset,
    build_realization,
    canonical_key,
    compare_with_reference,
    compose,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_classes,
    enumerate_transitive_orientations,
    equivalent_bruteforce,
    equivalent_fast,
    identity,
    induced_permutation,
    inversion_set,
    is_isomorphic,
    is_module,
    load_s5_reference,
    parse,
    path_graph,
    precedes,
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
    "spanning_embeds other n": (
        lambda: spanning_embeds(no_arcs(2), no_arcs(3)),
        "size mismatch: 2 vs 3",
    ),
    "induced_permutation other n": (
        lambda: induced_permutation(no_arcs(2), no_arcs(3)),
        "size mismatch: 2 vs 3",
    ),
    "equivalent_bruteforce other n": (
        lambda: equivalent_bruteforce(parse("21"), parse("321")),
        "size mismatch: 2 vs 3",
    ),
    "equivalent_fast other n": (
        lambda: equivalent_fast(parse("21"), parse("321")),
        "size mismatch: 2 vs 3",
    ),
    "compose other n": (lambda: compose(parse("21"), parse("321")), "size mismatch: 2 vs 3"),
    "act other n": (
        lambda: act(parse("21"), inversion_set(parse("321"))),
        "size mismatch: 2 vs 3",
    ),
    "precedes other n": (
        lambda: precedes(enumerate_classes(2).classes[0], enumerate_classes(3).classes[0]),
        "size mismatch: 2 vs 3",
    ),
    "bruhat_below other n": (
        lambda: bruhat_below(parse("21"), parse("321")),
        "size mismatch: 2 vs 3",
    ),
    "bruhat_extension_check poset of other n": (
        lambda: bruhat_extension_check(2, build_poset(3)),
        "size mismatch: 2 vs 3",
    ),
    "enumerate_transitive_orientations n = 11": (
        lambda: enumerate_transitive_orientations(empty_graph(11)),
        ValueError,
    ),
    "Graph.from_edges self-loop": (lambda: Graph.from_edges(3, [(2, 2)]), ValueError),
    "identity(0)": (lambda: identity(0), "n must be a positive int; got n=0"),
    "identity(True)": (lambda: identity(True), "n must be a positive int; got n=True"),
    "identity(2.5)": (lambda: identity(2.5), "n must be a positive int; got n=2.5"),
    "all_permutations(2.5)": (
        lambda: list(all_permutations(2.5)),
        "n must be a positive int; got n=2.5",
    ),
    "PairSet.universe(2.5)": (lambda: PairSet.universe(2.5), "n must be a positive int; got n=2.5"),
    "complete_graph(2.5)": (lambda: complete_graph(2.5), "n must be a positive int; got n=2.5"),
    "path_graph(2.5)": (lambda: path_graph(2.5), "n must be a positive int; got n=2.5"),
    "cycle_graph(3.0)": (lambda: cycle_graph(3.0), "n must be a positive int; got n=3.0"),
    "cycle_graph(2)": (lambda: cycle_graph(2), "cycles need at least 3 vertices"),
    "is_module out-of-range vertex": (
        lambda: is_module(path_graph(3), {4}),
        "module contains out-of-range vertices",
    ),
    "is_module bool vertex": (
        lambda: is_module(path_graph(3), {True}),
        "module contains out-of-range vertices",
    ),
    "is_module float vertex": (
        lambda: is_module(path_graph(3), {1.0}),
        "module contains out-of-range vertices",
    ),
    "Realization without a spoke": (lambda: Realization((0, 0), (1, 0), ()), ValueError),
    "relabeled non-bijection": (
        lambda: relabeled(build_realization(parse("21")), {1: 1, 2: 1}),
        ValueError,
    ),
    "compare_with_reference other n": (
        lambda: compare_with_reference(enumerate_classes(4), load_s5_reference()),
        "size mismatch: 4 vs 5",
    ),
    "compare_with_reference doctored class": (doctored_s5_report, True),
    "(1, 2) in PairSet": (lambda: (1, 2) in PairSet(2, frozenset({(1, 2)})), True),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=list(CASES))
def test_input_checks(call, expected):
    """A ValueError is expected for ``ValueError`` and, with exactly that
    message, for a string; any other value is the answer."""
    if expected is ValueError or isinstance(expected, str):
        message = None if expected is ValueError else f"^{re.escape(expected)}$"
        with pytest.raises(ValueError, match=message):
            call()
    else:
        assert call() is expected
