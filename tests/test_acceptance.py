"""Acceptance suite: one test per stated criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
long n = 9 enumeration is opt-in via GEOPOSET_ACCEPT_LONG=1 (mirroring the
CLI's --allow-long gate).
"""

import hashlib
import os
import random
import time

import pytest

from geoposet.digraphs import enumerate_transitive_orientations
from geoposet.geoequiv import (
    class_key,
    class_members,
    compare_with_reference,
    enumerate_classes,
    equivalent_bruteforce,
    equivalent_fast,
    four_family,
    load_s5_reference,
)
from geoposet.geometry import build_realization, crossings
from geoposet.graphs import complete_graph, cycle_graph, inversion_graph
from geoposet.moddecomp import cograph_class_size, count_transitive_orientations, is_cograph
from geoposet.perms import Permutation, all_permutations, inversion_set, parse
from geoposet.poset import (
    bruhat_below,
    build_poset,
    hasse,
    is_graded,
)
from geoposet.verify import CLASS_COUNTS, SCHROEDER

EXPECTED_CLASS_COUNTS = {n: CLASS_COUNTS[n] for n in range(1, 8)}
SCHROEDER_PREFIX = [SCHROEDER[n] for n in range(1, 8)]  # A006318, offset 0
N9_TABLE_SHA256 = "4a3077a358dcef554e0143d2b054838d10b64c731eed64e47619927994cf6032"


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_class_count_sequence():
    t0 = time.time()
    got = {n: enumerate_classes(n).count for n in range(1, 8)}
    elapsed = time.time() - t0
    assert got == EXPECTED_CLASS_COUNTS, got
    assert elapsed < 60, f"n <= 7 enumeration took {elapsed:.1f} s"
    got[8] = enumerate_classes(8).count
    assert got[8] == CLASS_COUNTS[8]
    detail = f"counts {list(got.values())} for n=1..8 in {elapsed:.1f}+ s"
    if os.environ.get("GEOPOSET_ACCEPT_LONG") == "1":
        t1 = time.time()
        table = enumerate_classes(9)
        got[9] = table.count
        assert got[9] == CLASS_COUNTS[9]
        # the digest of the table that the backtracking canonical_key gives
        assert hashlib.sha256(table.to_json().encode()).hexdigest() == N9_TABLE_SHA256
        detail += f"; n=9 -> {got[9]} in {time.time() - t1:.0f} s"
    else:
        detail += "; n=9 skipped (set GEOPOSET_ACCEPT_LONG=1)"
    report(1, detail)


def test_criterion_2_reference_table_fidelity():
    t0 = time.time()
    table = enumerate_classes(5)
    comparison = compare_with_reference(table, load_s5_reference())
    elapsed = time.time() - t0
    assert elapsed < 5, f"comparison took {elapsed:.1f} s"
    assert comparison.ok
    assert comparison.exact_matches == 38
    assert comparison.explained == (("4.2", "15234", "15243"),)
    home = table.class_of(parse("15234"))
    assert {str(m) for m in home.members} == {"13452", "23415", "15234", "41235"}
    report(
        2,
        "38/39 reference classes exact; duplicated word 15234 enumerates with "
        f"{{13452,23415,15234,41235}} (transcribed 3.1) and the 4.2 slot holds 15243; "
        f"{elapsed:.2f} s",
    )


def test_criterion_3_s4_spot_checks():
    table = enumerate_classes(4)
    assert table.count == 12
    assert {str(m) for m in table.class_of(parse("3421")).members} == {"3421", "4312"}
    assert {str(m) for m in table.class_of(parse("4231")).members} == {"4231"}
    report(3, "12 classes; [3421] = {3421, 4312}; [4231] = {4231}")


def test_criterion_4_oracle_equivalence():
    perms4 = list(all_permutations(4))
    ordered_pairs = 0
    for sigma in perms4:
        for pi in perms4:
            assert equivalent_fast(sigma, pi) == (
                equivalent_bruteforce(sigma, pi) is not None
            ), (sigma, pi)
            ordered_pairs += 1
    rng = random.Random(20250810)
    words6 = [p.word for p in all_permutations(6)]
    for _ in range(10000):
        sigma = Permutation(rng.choice(words6))
        pi = Permutation(rng.choice(words6))
        assert equivalent_fast(sigma, pi) == (
            equivalent_bruteforce(sigma, pi) is not None
        ), (sigma, pi)
    report(
        4,
        f"zero disagreements on all {ordered_pairs} ordered pairs of S_4 x S_4 "
        "and 10000 fixed-seed pairs from S_6",
    )


def test_criterion_5_geometry_cross_validation():
    t0 = time.time()
    checked = 0
    for p in all_permutations(5):
        assert crossings(build_realization(p)).pairs == inversion_set(p).pairs, str(p)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10, f"geometry check took {elapsed:.1f} s"
    report(5, f"exact rational crossings equal inversion sets for {checked} words in {elapsed:.1f} s")


def test_criterion_6_orientation_counting():
    for p in all_permutations(5):
        g = inversion_graph(p)
        assert count_transitive_orientations(g) == len(
            enumerate_transitive_orientations(g)
        ), str(p)
    assert count_transitive_orientations(complete_graph(5)) == 120
    assert count_transitive_orientations(cycle_graph(5)) == 0
    two_edges = inversion_graph(parse("13254"))  # disjoint-edges shape
    star_pair = inversion_graph(parse("12453"))  # star with pendant pair shape
    assert count_transitive_orientations(two_edges.complement()) == 6
    assert count_transitive_orientations(star_pair.complement()) == 12
    report(
        6,
        "decomposition count equals brute-force enumeration on all S_5 graphs, "
        "K_5 (120), C_5 (0), and the worked shapes (6 and 12)",
    )


def test_criterion_7_cograph_class_size_formula():
    checked = 0
    for n in range(1, 7):
        table = enumerate_classes(n)
        for p in all_permutations(n):
            if is_cograph(inversion_graph(p)):
                assert cograph_class_size(p).class_size == table.class_of(p).size, str(p)
                checked += 1
    report(7, f"closed-form class size equals enumerated size for {checked} cograph words, n <= 6")


def test_criterion_8_schroeder_check():
    counts = [
        sum(1 for p in all_permutations(n) if is_cograph(inversion_graph(p)))
        for n in range(1, 8)
    ]
    assert counts == SCHROEDER_PREFIX, counts
    report(
        8,
        f"cograph-word counts {counts} equal the large Schroeder numbers "
        "A006318 shifted by one (count(n) = r(n-1), r(0) = 1)",
    )


def test_criterion_9_poset_structure():
    poset3 = build_poset(3)
    reps = [str(c.representative) for c in poset3.table.classes]
    assert reps == ["123", "132", "231", "321"]
    assert all(
        poset3.is_leq(i, j) == (i <= j) for i in range(4) for j in range(4)
    ), "the classes of S_3 do not form the expected chain"

    poset4 = build_poset(4)
    assert poset4.is_bounded()
    graded4, _ = is_graded(poset4)
    assert graded4

    poset5 = build_poset(5)
    assert poset5.is_bounded()
    graded5, _ = is_graded(poset5)
    assert graded5

    table = poset5.table
    idx = {c.label: k for k, c in enumerate(table.classes)}
    low = table.class_of(parse("25314"))
    highs = {
        "6.3": table.class_of(parse("25413")),
        "6.5": table.class_of(parse("35142")),
        "6.7": table.class_of(parse("25341")),
    }
    cover_targets = {
        j for i, j in hasse(poset5).edges if i == idx[low.label]
    }
    for name, high in highs.items():
        assert poset5.is_leq(idx[low.label], idx[high.label]), name
        assert idx[high.label] in cover_targets, name
    # the jump into the class of 35142 has no weak-Bruhat containment witness
    for sigma in low.members:
        for pi in highs["6.5"].members:
            assert not bruhat_below(sigma, pi)
    report(
        9,
        "S_3 chain; S_4 and S_5 bounded and graded; the class of 25314 is covered by "
        "the classes of 25413, 35142 and 25341, and the 35142 jump has no Bruhat witness",
    )


def test_criterion_10_four_family_and_involutions():
    family = {str(q) for q in four_family(parse("2431"))}
    # the published example lists 3142 here, but 3142 has three inversions
    # against four for 2431, so it cannot share the class; the algebra
    # (inverse of the reversed-inverse-reversed word) gives 4132, and every
    # member below is verified to share the class key
    assert family == {"2431", "4132", "3241", "4213"}
    key = class_key(parse("2431"))
    for word in family:
        assert class_key(parse(word)) == key
    assert class_key(parse("3142")) != key

    assert class_key(parse("465132")) == class_key(parse("465213"))
    witness = equivalent_bruteforce(parse("465213"), parse("465132"))
    assert witness is not None

    assert [str(m) for m in class_members(parse("351624"))] == ["351624"]
    report(
        10,
        "four-family of 2431 is {2431, 4132, 3241, 4213} (4132 corrects the "
        "published 3142, which has only three inversions); "
        "class_key(465132) = class_key(465213); [351624] is a singleton",
    )
