import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoposet
from geoposet.digraphs import from_perm, reverse, spanning_embeds
from geoposet.geoequiv import enumerate_classes
from geoposet.perms import all_permutations, inverse, inversion_set, parse
from geoposet.poset import (
    Poset,
    bruhat_below,
    bruhat_covers,
    bruhat_extension_check,
    build_poset,
    hasse,
    is_graded,
    precedes,
)


def class_by_member(table, word):
    return table.class_of(parse(word))


# ---------------------------------------------------------------------------
# precedence


def test_minimum_class_precedes_everything():
    table = enumerate_classes(3)
    bottom = class_by_member(table, "123")
    for c in table.classes:
        assert precedes(bottom, c)


def test_paper_example_5_3_below_6_5():
    table = enumerate_classes(5)
    low = class_by_member(table, "25314")
    high = class_by_member(table, "35142")
    assert precedes(low, high)
    assert not precedes(high, low)


def test_equal_count_distinct_classes_incomparable():
    table = enumerate_classes(4)
    c1 = class_by_member(table, "4231")
    c2 = class_by_member(table, "3421")
    assert not precedes(c1, c2)
    assert not precedes(c2, c1)


def test_precedes_independent_of_representative():
    table = enumerate_classes(4)
    from geoposet.geoequiv import GeoClass, class_key

    for c_low in table.classes:
        for c_high in table.classes:
            expected = precedes(c_low, c_high)
            for alt in c_low.members:
                stand_in = GeoClass(
                    label=c_low.label,
                    inversions=c_low.inversions,
                    representative=alt,
                    members=c_low.members,
                    key=c_low.key,
                )
                assert precedes(stand_in, c_high) == expected


# ---------------------------------------------------------------------------
# poset assembly


def test_s3_is_a_chain():
    poset = build_poset(3)
    labels_in_order = [c.label for c in poset.table.classes]
    assert poset.size == 4
    for i in range(4):
        for j in range(4):
            assert poset.is_leq(i, j) == (i <= j)
    diagram = hasse(poset)
    assert len(diagram.edges) == 3
    reps = [str(c.representative) for c in poset.table.classes]
    assert reps == ["123", "132", "231", "321"]
    assert labels_in_order == ["0.1", "1.1", "2.1", "3.1"]


def test_s4_bounded_twelve_elements():
    poset = build_poset(4)
    assert poset.size == 12
    first, last = poset.bounds()
    assert first is not None and str(first.representative) == "1234"
    assert last is not None and str(last.representative) == "4321"
    assert poset.is_bounded()


def test_s4_and_s5_graded():
    for n in (4, 5):
        ok, witnesses = is_graded(build_poset(n))
        assert ok, witnesses


def test_s5_suprema_are_not_unique():
    # two 8-inversion classes share both 9-inversion classes as minimal
    # upper bounds, so the order is not a lattice
    poset = build_poset(5)
    table = poset.table
    idx = {c.label: k for k, c in enumerate(table.classes)}
    a = idx[class_by_member(table, "35421").label]
    b = idx[class_by_member(table, "45231").label]
    tops = {
        idx[class_by_member(table, "45321").label],
        idx[class_by_member(table, "53421").label],
    }
    uppers = {
        j
        for j in range(poset.size)
        if poset.is_leq(a, j) and poset.is_leq(b, j)
    }
    minimal_uppers = {
        j
        for j in uppers
        if not any(poset.is_leq(k, j) and k != j for k in uppers)
    }
    assert minimal_uppers == tops


def test_hasse_covers_from_5_3():
    poset = build_poset(5)
    table = poset.table
    low = class_by_member(table, "25314")
    i = list(table.classes).index(low)
    covers = {table.classes[j] for a, j in hasse(poset).edges if a == i}
    cover_members = {frozenset(str(m) for m in c.members) for c in covers}
    assert frozenset({"25413", "43152", "41532", "35214"}) in cover_members  # 6.3
    assert frozenset({"35142", "42513"}) in cover_members  # 6.5
    assert frozenset({"25341", "42351", "51342", "52314"}) in cover_members  # 6.7


def test_hasse_connected_with_unique_source_and_sink():
    poset = build_poset(4)
    diagram = hasse(poset)
    size = poset.size
    neighbors = {k: set() for k in range(size)}
    sources = set(range(size))
    sinks = set(range(size))
    for i, j in diagram.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
        sinks.discard(i)
        sources.discard(j)
    seen = {0}
    stack = [0]
    while stack:
        for w in neighbors[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(size))
    assert len(sources) == 1 and len(sinks) == 1


def test_hasse_json_and_dot():
    poset = build_poset(3)
    diagram = hasse(poset)
    obj = diagram.to_json_obj()
    assert obj["schema_version"] == 1
    assert obj["edges"] == [["0.1", "1.1"], ["1.1", "2.1"], ["2.1", "3.1"]]
    dot = diagram.to_dot()
    assert dot.startswith("digraph hasse {")
    assert '"0.1" -> "1.1";' in dot
    assert "(123)" in dot


def test_poset_json_matrix():
    poset = build_poset(3)
    obj = poset.to_json_obj()
    assert obj["leq"][0] == [1, 1, 1, 1]
    assert obj["leq"][3] == [0, 0, 0, 1]


def test_poset_worker_count_invariance():
    import json

    table = enumerate_classes(6)
    serial = build_poset(table, workers=1).to_json()
    parallel = build_poset(table, workers=2).to_json()
    assert serial == parallel
    assert json.loads(serial)["n"] == 6


SPAWNED_POOLS = """
import multiprocessing as mp
import multiprocessing.popen_fork

from geoposet.geoequiv import enumerate_classes
from geoposet.poset import build_poset


def no_fork(self, process_obj):
    raise RuntimeError("a worker pool forked")


if __name__ == "__main__":
    mp.set_start_method("spawn")
    # the spawn Popen overrides _launch; only a forking pool reaches this
    multiprocessing.popen_fork.Popen._launch = no_fork
    table = enumerate_classes(6, workers=1)
    assert enumerate_classes(6, workers=2).to_json() == table.to_json()
    assert build_poset(table, workers=2).to_json() == build_poset(table, workers=1).to_json()
    print(mp.get_start_method())
"""


def test_worker_pools_run_under_spawn(tmp_path):
    script = tmp_path / "spawned_pools.py"
    script.write_text(SPAWNED_POOLS)
    src = str(Path(geoposet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "spawn\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_poset_equals_all_pairs_precedes(n):
    poset = build_poset(n)
    classes = poset.table.classes
    for i, low in enumerate(classes):
        row = sum(1 << j for j, high in enumerate(classes) if precedes(low, high))
        assert poset.leq[i] == row, low.label


def test_precedes_matches_digraph_route():
    # the Digraph route: equal keys, or a spanning embedding into D(target)
    # or into D(target) reversed
    classes = enumerate_classes(5).classes
    assert len(classes) == 39
    for low in classes:
        d_low = from_perm(low.representative)
        for high in classes:
            d_high = from_perm(high.representative)
            expected = (
                low.key == high.key
                or spanning_embeds(d_low, d_high) is not None
                or spanning_embeds(d_low, reverse(d_high)) is not None
            )
            assert precedes(low, high) == expected, (low.label, high.label)


def test_n7_order_is_bounded_and_not_graded():
    poset = build_poset(7)
    table = poset.table
    assert poset.size == 1033
    assert poset.is_bounded()
    assert len(hasse(poset).edges) == 5118
    graded, witnesses = is_graded(poset)
    assert not graded
    assert len(witnesses) == 42
    assert min(lo_inv for _, _, lo_inv, _ in witnesses) == 6
    lo, hi, lo_inv, hi_inv = witnesses[0]
    assert (lo_inv, hi_inv) == (6, 8)
    assert lo == class_by_member(table, "1356274").label
    assert hi == class_by_member(table, "2561374").label


# ---------------------------------------------------------------------------
# weak Bruhat machinery


def test_left_covers_of_25314():
    covers = {str(q) for q in bruhat_covers(parse("25314"), "left")}
    assert covers == {"52314", "25341"}


def test_right_covers_of_25314():
    covers = {str(q) for q in bruhat_covers(parse("25314"), "right")}
    assert covers == {"35214", "25413"}


def test_top_word_has_no_covers():
    top = parse("54321")
    assert bruhat_covers(top, "left") == ()
    assert bruhat_covers(top, "right") == ()


def test_covers_add_exactly_one_inversion():
    for p in all_permutations(4):
        base = len(inversion_set(p))
        for side in ("left", "right"):
            for q in bruhat_covers(p, side):
                assert len(inversion_set(q)) == base + 1


def test_left_covers_grow_inversion_set():
    for p in all_permutations(4):
        for q in bruhat_covers(p, "left"):
            assert inversion_set(p).pairs < inversion_set(q).pairs
        for q in bruhat_covers(p, "right"):
            assert inversion_set(inverse(p)).pairs < inversion_set(inverse(q)).pairs


def test_bruhat_covers_rejects_bad_side():
    with pytest.raises(ValueError):
        bruhat_covers(parse("21"), "up")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extension_check_small(n):
    ok, failures = bruhat_extension_check(n)
    assert ok, failures


def test_extension_is_proper_at_n5():
    # the 5.3 -> 6.5 precedence has no Bruhat containment witness in
    # either direction between any pair of members
    poset = build_poset(5)
    ok, _ = bruhat_extension_check(5, poset)
    assert ok
    table = poset.table
    low = class_by_member(table, "25314")
    high = class_by_member(table, "35142")
    idx = {c.label: k for k, c in enumerate(table.classes)}
    assert poset.is_leq(idx[low.label], idx[high.label])
    for sigma in low.members:
        for pi in high.members:
            assert not bruhat_below(sigma, pi)


def test_extension_check_rejects_large_n():
    with pytest.raises(ValueError):
        bruhat_extension_check(7)


def containment_scan(n, poset):
    """The exhaustive oracle: every ordered pair of words with E(sigma)
    within E(pi), or the same for the inverses, must compare."""
    index = {m: k for k, c in enumerate(poset.table.classes) for m in c.members}
    words = list(all_permutations(n))
    left = {p: inversion_set(p).pairs for p in words}
    right = {p: inversion_set(inverse(p)).pairs for p in words}
    return all(
        poset.is_leq(index[sigma], index[pi])
        for sigma in words
        for pi in words
        if left[sigma] <= left[pi] or right[sigma] <= right[pi]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("side", ["left", "right"])
def test_cover_closure_is_containment(n, side):
    def inversions(p):
        return inversion_set(p if side == "left" else inverse(p)).pairs

    words = sorted(all_permutations(n), key=lambda p: -len(inversion_set(p)))
    up = {}
    for p in words:  # every cover has one more inversion, so it comes first
        up[p] = {p}.union(*(up[q] for q in bruhat_covers(p, side)))
    for p in words:
        assert up[p] == {q for q in words if inversions(p) <= inversions(q)}, p


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extension_check_agrees_with_containment_scan(n):
    poset = build_poset(n)
    assert bruhat_extension_check(n, poset) == (True, ())
    assert containment_scan(n, poset)


def test_extension_check_catches_a_cleared_cover():
    poset = build_poset(4)
    assert poset.table.labels[:2] == ("0.1", "1.1")
    leq = list(poset.leq)
    leq[0] &= ~(1 << 1)
    broken = Poset(poset.table, tuple(leq))
    for row in leq:  # 0.1 -> 1.1 is a cover, so the rest stays transitive
        closure = row
        for k in range(len(leq)):
            if row >> k & 1:
                closure |= leq[k]
        assert closure == row
    ok, failures = bruhat_extension_check(4, broken)
    assert not ok and not containment_scan(4, broken)
    assert ("1234", "2134") in failures
    assert len(set(failures)) == len(failures)


def test_bruhat_below_is_containment_on_s4():
    words = list(all_permutations(4))
    for sigma in words:
        for pi in words:
            left = inversion_set(sigma).pairs <= inversion_set(pi).pairs
            right = inversion_set(inverse(sigma)).pairs <= inversion_set(inverse(pi)).pairs
            assert bruhat_below(sigma, pi) == (left or right), (sigma, pi)
