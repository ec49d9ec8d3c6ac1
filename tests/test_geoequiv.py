import itertools
import json
import random

import pytest

from geoposet.geoequiv import (
    ClassTable,
    class_key,
    class_members,
    compare_with_reference,
    enumerate_classes,
    equivalent_bruteforce,
    equivalent_fast,
    four_family,
    load_s5_reference,
)
from geoposet.perms import (
    OrientationClass,
    Permutation,
    act,
    all_permutations,
    identity,
    inverse,
    inversion_set,
    parse,
)


# ---------------------------------------------------------------------------
# witness search


def test_bruteforce_finds_uniform_witness():
    result = equivalent_bruteforce(parse("3214"), parse("1432"))
    assert result is not None
    rho, kind = result
    image, observed = act(rho, inversion_set(parse("3214")))
    assert image.pairs == inversion_set(parse("1432")).pairs
    assert observed in (OrientationClass.ALL_PRESERVING, OrientationClass.ALL_REVERSING)
    # the witness named alongside the worked example also passes
    image2, kind2 = act(parse("2341"), inversion_set(parse("3214")))
    assert image2.pairs == inversion_set(parse("1432")).pairs
    assert kind2 is OrientationClass.ALL_PRESERVING


def test_bruteforce_rejects_4312_vs_4231():
    # a rho with the right image exists but always mixes directions
    assert equivalent_bruteforce(parse("4312"), parse("4231")) is None


def test_bruteforce_identity_is_vacuous_witness():
    result = equivalent_bruteforce(identity(4), identity(4))
    assert result == (identity(4), OrientationClass.ALL_PRESERVING)


def test_fast_matches_known_pairs():
    assert equivalent_fast(parse("465132"), parse("465213"))
    assert not equivalent_fast(parse("4312"), parse("4231"))
    assert equivalent_fast(parse("3421"), parse("4312"))


def test_fast_agrees_with_bruteforce_on_all_of_s4():
    perms = list(all_permutations(4))
    for sigma in perms:
        for pi in perms:
            fast = equivalent_fast(sigma, pi)
            brute = equivalent_bruteforce(sigma, pi)
            assert fast == (brute is not None), (sigma, pi)


def test_fast_agrees_with_bruteforce_sampled_s5():
    rng = random.Random(555)
    perms = list(all_permutations(5))
    for _ in range(200):
        sigma, pi = rng.choice(perms), rng.choice(perms)
        assert equivalent_fast(sigma, pi) == (
            equivalent_bruteforce(sigma, pi) is not None
        )


# ---------------------------------------------------------------------------
# class keys and the four-member family


def test_class_key_identities():
    assert class_key(parse("3421")) == class_key(parse("4312"))
    assert class_key(parse("4231")) != class_key(parse("3421"))
    for p in all_permutations(4):
        assert class_key(p) == class_key(inverse(p))


def test_four_family_members_share_class():
    for word in ("2431", "3142", "25314", "35142"):
        p = parse(word)
        for member in four_family(p):
            assert class_key(member) == class_key(p)


def test_four_family_of_2431():
    family = {str(q) for q in four_family(parse("2431"))}
    assert family == {"2431", "4132", "3241", "4213"}


def test_four_family_collapses():
    assert {str(q) for q in four_family(parse("3412"))} == {"3412"}
    assert {str(q) for q in four_family(parse("351624"))} == {"351624"}


def test_class_members_singletons_and_pairs():
    assert [str(p) for p in class_members(parse("4231"))] == ["4231"]
    assert [str(p) for p in class_members(parse("3421"))] == ["3421", "4312"]
    assert [str(p) for p in class_members(parse("351624"))] == ["351624"]


def test_class_members_of_involution_counterexample():
    members = {str(p) for p in class_members(parse("465132"))}
    assert "465213" in members


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_members_match_enumeration(n):
    home = {m: c for c in enumerate_classes(n).classes for m in c.members}
    for p in all_permutations(n):
        assert class_members(p) == home[p].members, str(p)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_s3():
    table = enumerate_classes(3)
    assert table.count == 4
    by_members = {frozenset(str(m) for m in c.members) for c in table.classes}
    assert by_members == {
        frozenset({"123"}),
        frozenset({"213", "132"}),
        frozenset({"231", "312"}),
        frozenset({"321"}),
    }


def test_enumerate_counts_small():
    assert enumerate_classes(1).count == 1
    assert enumerate_classes(2).count == 2
    assert enumerate_classes(4).count == 12


def test_enumerate_s4_spot_checks():
    table = enumerate_classes(4)
    c = table.class_of(parse("3421"))
    assert {str(m) for m in c.members} == {"3421", "4312"}
    c = table.class_of(parse("4231"))
    assert {str(m) for m in c.members} == {"4231"}


def test_enumerate_partitions_and_labels_unique():
    table = enumerate_classes(5)
    assert table.count == 39
    assert sum(c.size for c in table.classes) == 120
    assert len(set(table.labels)) == 39
    # members of one class agree on inversion count, and the class key
    for c in table.classes:
        assert all(
            len(inversion_set(m)) == c.inversions for m in c.members
        )
        assert all(class_key(m) == c.key for m in c.members)
        assert c.representative == min(c.members)


def test_enumerate_s5_profile_by_inversions():
    table = enumerate_classes(5)
    per_inv = {}
    for c in table.classes:
        per_inv[c.inversions] = per_inv.get(c.inversions, 0) + 1
    assert [per_inv.get(k, 0) for k in range(11)] == [1, 1, 2, 4, 6, 6, 7, 5, 4, 2, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerate_agrees_with_bruteforce_grouping(n):
    # independent route: group S_n by pairwise uniform-witness testing
    classes = []
    for p in all_permutations(n):
        for group in classes:
            if equivalent_bruteforce(group[0], p) is not None:
                group.append(p)
                break
        else:
            classes.append([p])
    ours = {frozenset(str(m) for m in c.members) for c in enumerate_classes(n).classes}
    theirs = {frozenset(str(p) for p in group) for group in classes}
    assert ours == theirs


def test_enumerate_rejects_out_of_envelope():
    with pytest.raises(ValueError):
        enumerate_classes(0)
    with pytest.raises(ValueError):
        enumerate_classes(10)


def test_enumerate_worker_count_does_not_change_output():
    # n = 6 is above the parallel threshold, so the pool really runs
    serial = enumerate_classes(6, workers=1).to_json()
    parallel = enumerate_classes(6, workers=2).to_json()
    assert serial == parallel


def test_table_json_round_trip():
    table = enumerate_classes(4)
    obj = json.loads(table.to_json())
    assert obj["schema_version"] == 1
    assert obj["count"] == 12
    again = ClassTable.from_json_obj(obj)
    assert again.to_json() == table.to_json()


def test_table_csv_shape():
    table = enumerate_classes(3)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "label,inversions,size,representative,members"
    assert len(lines) == 1 + 4


# ---------------------------------------------------------------------------
# published S_5 partition


def test_reference_comparison_explains_duplicate():
    table = enumerate_classes(5)
    report = compare_with_reference(table, load_s5_reference())
    assert report.ok
    assert report.exact_matches == 38
    assert len(report.explained) == 1
    label, spurious, actual = report.explained[0]
    assert label == "4.2"
    assert spurious == "15234"
    assert actual == "15243"  # inverse of 13542, worked out by hand
    # the duplicated word sits in the class transcribed as 3.1
    home = table.class_of(parse("15234"))
    assert {str(m) for m in home.members} == {"13452", "23415", "15234", "41235"}
