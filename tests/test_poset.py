import dataclasses
import functools
import hashlib
import json
import os
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet.digraphs import MaskDigraph, from_perm, mask_embedding, reverse, spanning_embeds
from geoposet.geoequiv import ClassTable, enumerate_classes
from geoposet.graphs import bits, is_closed, successors
from geoposet.perms import all_permutations, inverse, inversion_set, parse
from geoposet.poset import (
    _embeds,
    _left_cover_steps,
    _shapes,
    _weak_covers,
    bruhat_below,
    bruhat_covers,
    bruhat_extension_check,
    build_poset,
    checked_poset,
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


def test_precedes_refuses_classes_of_different_n():
    # 1.1 of S_4 (1243) against 3.2 of S_5 (13452) used to answer True
    low = class_by_member(enumerate_classes(4), "1243")
    high = class_by_member(enumerate_classes(5), "13452")
    with pytest.raises(ValueError):
        precedes(low, high)
    with pytest.raises(ValueError):
        precedes(high, low)


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
                    word=alt.word,
                    words=c_low.words,
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


def test_poset_json_covers_rebuild_the_rows(monkeypatch):
    poset = build_poset(5)
    assert "form" not in poset.to_json_obj()
    monkeypatch.setattr("geoposet.poset.COMPACT_JSON_MIN_N", 5)
    obj = json.loads(poset.to_json())
    assert obj["form"] == "covers" and "leq" not in obj
    assert obj["labels"] == list(poset.table.labels)
    up = cover_masks(obj["covers"], len(obj["labels"]))
    rows = [0] * len(up)
    for i in reversed(range(len(up))):
        rows[i] = 1 << i | successors(rows, up[i])
    assert tuple(rows) == poset.leq


def walk_covers(rows):
    """The oracle for the covers the fill records: walk every pair of the
    strict relation and keep those no other successor explains."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    return tuple(
        (i, j) for i, row in enumerate(strict) for j in bits(row & ~successors(strict, row))
    )


def cover_masks(pairs, size):
    masks = [0] * size
    for i, j in pairs:
        masks[i] |= 1 << j
    return masks


def index_lists(masks):
    """Each mask as the ascending list of its bits: the form of the sparse
    per-class sets of ``build_poset`` and of the covers ``checked_poset``
    takes."""
    return [list(bits(mask)) for mask in masks]


def is_order_with_covers(rows, covers):
    """The oracle for ``checked_poset``: a triangular, closed relation whose
    transitive reduction is ``covers``."""
    triangular = all(row & ((2 << i) - 1) == 1 << i for i, row in enumerate(rows))
    return triangular and is_closed(rows) and walk_covers(rows) == tuple(
        (i, j) for i, mask in enumerate(covers) for j in bits(mask)
    )


def test_checked_poset_raises_exactly_on_a_wrong_bit():
    table = enumerate_classes(4)
    poset = build_poset(table)
    rows = list(poset.leq)
    covers = cover_masks(poset.covers, poset.size)
    assert checked_poset(table, rows, index_lists(covers)) == poset
    for masks in (rows, covers):
        for i in range(poset.size):
            for j in range(poset.size):
                masks[i] ^= 1 << j
                try:
                    checked_poset(table, rows, index_lists(covers))
                    raised = False
                except AssertionError:
                    raised = True
                assert raised != is_order_with_covers(rows, covers), (masks is rows, i, j)
                masks[i] ^= 1 << j


def test_checked_poset_refuses_covers_out_of_ascending_order():
    # by triangularity only a smaller cover's row can hold a cover, so the
    # check walks each list in ascending order and must refuse any other
    table = enumerate_classes(4)
    poset = build_poset(table)
    covers = index_lists(cover_masks(poset.covers, poset.size))
    i = next(k for k, up in enumerate(covers) if len(up) > 1)
    for wrong in (covers[i][::-1], covers[i] + covers[i][-1:]):
        with pytest.raises(AssertionError):
            checked_poset(table, list(poset.leq), covers[:i] + [wrong] + covers[i + 1 :])


def corrupted_rows(table, fault):
    rows = list(build_poset(table).leq)
    if fault == "bit below the diagonal":
        # two classes of one level made to precede each other, then closed
        counts = [c.inversions for c in table.classes]
        i = next(k for k in range(len(counts)) if counts[k] == counts[k + 1])
        pair = (1 << i) | (1 << i + 1)
        both = rows[i] | rows[i + 1]
        rows = [r | both if r & pair else r for r in rows]
    elif fault == "no diagonal bit":
        rows[0] &= ~1
    else:
        rows[0] &= ~(1 << (len(rows) - 1))
    return rows


@pytest.mark.parametrize(
    "fault", ["bit below the diagonal", "no diagonal bit", "missing transitive bit"]
)
def test_build_poset_self_checks_fire(fault):
    table = enumerate_classes(4)
    rows = corrupted_rows(table, fault)
    # each fault breaks exactly one of triangularity and closure
    assert is_closed(rows) == (fault != "missing transitive bit")
    covers = cover_masks(build_poset(table).covers, len(rows))
    with pytest.raises(AssertionError):
        checked_poset(table, rows, index_lists(covers))


def test_no_pool_below_the_thresholds(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    table = enumerate_classes(6)
    # build_poset starts no pool at any size
    assert build_poset(table).size == 182


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_poset_equals_all_pairs_precedes(n):
    poset = build_poset(n)
    classes = poset.table.classes
    for i, low in enumerate(classes):
        row = sum(1 << j for j, high in enumerate(classes) if precedes(low, high))
        assert poset.leq[i] == row, low.label
    assert poset.covers == walk_covers(poset.leq)


def both_shapes(table):
    """D(p) for every class representative p.  The oracles pass
    ``one_way=False`` to ``_embeds``, so they search D(p) reversed too,
    whether or not a class is self-related."""
    return [_shapes(c.word) for c in table.classes]


def ascending_scan(table):
    """The oracle for ``build_poset``'s fill: rows from the last class up,
    every class of a higher level visited in ascending index, a hit ORs in
    the target's finished row.  A target already in the row is skipped, so
    the hits are exactly the covers.  Returns the rows and the cover masks."""
    counts = [c.inversions for c in table.classes]
    shapes = both_shapes(table)
    size = len(shapes)
    rows = [0] * size
    covers = [0] * size
    for i in reversed(range(size)):
        row = 1 << i
        for j in range(bisect_right(counts, counts[i]), size):
            if not row >> j & 1 and _embeds(shapes[i], shapes[j], False):
                row |= rows[j]
                covers[i] |= 1 << j
        rows[i] = row
    return rows, covers


@functools.cache
def cached_poset(n):
    return build_poset(n)


LONG = pytest.mark.skipif(
    os.environ.get("GEOPOSET_ACCEPT_LONG") != "1",
    reason="the n = 8 order takes about 3 s; set GEOPOSET_ACCEPT_LONG=1",
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_fill_equals_the_ascending_scan(n):
    poset = cached_poset(n)
    rows, covers = ascending_scan(poset.table)
    assert poset.leq == tuple(rows)
    assert poset.covers == tuple((i, j) for i, mask in enumerate(covers) for j in bits(mask))


def reverse_complement(w):
    n = len(w)
    return tuple(n + 1 - x for x in reversed(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_classes_are_closed_under_reverse_complement(n):
    # the premise of the half walk in ``_weak_covers``
    for c in cached_poset(n).table.classes:
        words = {m.word for m in c.members}
        assert {reverse_complement(w) for w in words} == words, c.label


def left_step_masks(table):
    """The oracle for ``_weak_covers``: every member's left covers walked,
    as (up, below) class masks."""
    up = [0] * table.count
    below = [0] * table.count
    for i, j, _, _ in _left_cover_steps(table):
        up[i] |= 1 << j
        below[j] |= 1 << i
    return up, below


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_half_walk_gives_the_left_cover_steps(n):
    table = cached_poset(n).table
    up, below = left_step_masks(table)
    assert _weak_covers(table) == (index_lists(up), index_lists(below))


@pytest.mark.parametrize(
    "n, outside", [(4, 0), (5, 1), (6, 17), (7, 264), pytest.param(8, 4009, marks=LONG)]
)
def test_covers_outside_the_weak_order_floor(n, outside):
    # experimental: the covers (i, j) whose j is not reached from i by left
    # weak-order steps, the ones the fill finds by search alone
    poset = cached_poset(n)
    up, _ = _weak_covers(poset.table)
    assert all(i < j for i, above in enumerate(up) for j in above)
    floor = [0] * poset.size
    for i in reversed(range(poset.size)):
        floor[i] = 1 << i
        for j in up[i]:
            floor[i] |= floor[j]
    assert sum(not floor[i] >> j & 1 for i, j in poset.covers) == outside


@pytest.mark.parametrize("n, built", [(5, 30), (6, 145), (7, 887)])
def test_shapes_are_built_on_first_use_only(monkeypatch, n, built):
    # exact work counts: a class's digraphs are built the first time a
    # decision reads them, and only once
    table = cached_poset(n).table
    words = []
    shapes = _shapes

    def counted(word):
        words.append(word)
        return shapes(word)

    monkeypatch.setattr("geoposet.poset._shapes", counted)
    assert build_poset(table) == cached_poset(n)
    assert len(words) == len(set(words)) == built < table.count


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=40), st.integers(0, 2**40))
def test_successors_is_the_union_of_the_selected_rows(rows, mask):
    mask &= (1 << len(rows)) - 1
    union = 0
    for v in range(len(rows)):
        if mask >> v & 1:
            union |= rows[v]
    assert successors(rows, mask) == union


def random_pick_fill(table, rng):
    """``build_poset``'s fill with its hit and miss cascades, but each next
    unknown drawn at random.  Any order of decisions gives the exact rows,
    so this tests the cascades apart from the pick rule.  Returns the rows
    and the cover masks."""
    counts = [c.inversions for c in table.classes]
    shapes = both_shapes(table)
    size = len(shapes)
    up, below = left_step_masks(table)
    floor = [0] * size
    for i in reversed(range(size)):
        floor[i] = 1 << i | successors(floor, up[i])
    col = [0] * size
    for j in range(size):
        col[j] = 1 << j | successors(col, below[j])
    rows = [0] * size
    hits = [0] * size
    for i in range(size):
        row = floor[i]
        unknown = sum(1 << j for j in range(bisect_right(counts, counts[i]), size))
        for k in bits(below[i]):
            unknown &= rows[k]
        unknown &= ~row
        while unknown:
            j = rng.choice(list(bits(unknown)))
            if _embeds(shapes[i], shapes[j], False):
                row |= floor[j]
                hits[i] |= 1 << j
                unknown &= ~floor[j]
            else:
                unknown &= ~col[j]
        rows[i] = row
    covers = []
    for i in range(size):
        candidates = up[i] | hits[i]
        above = 0
        for c in bits(candidates):
            above |= rows[c] & ~(1 << c)
        covers.append(candidates & ~above)
    return rows, covers


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fill_is_exact_in_any_pick_order(rng):
    poset = cached_poset(6)
    rows, covers = random_pick_fill(poset.table, rng)
    assert tuple(rows) == poset.leq
    assert checked_poset(poset.table, rows, index_lists(covers)).covers == poset.covers


@pytest.mark.parametrize("n, decisions, before", [(5, 44, 70), (6, 301, 1049), (7, 2147, 12730)])
def test_fill_decision_counts(monkeypatch, n, decisions, before):
    # exact work counts: the pair decisions the alternating fill makes,
    # against those of the ascending fill without the miss cascade
    calls = []
    embeds = _embeds

    def counted(*args):
        calls.append(None)
        return embeds(*args)

    monkeypatch.setattr("geoposet.poset._embeds", counted)
    build_poset(n)
    assert len(calls) == decisions < before


@pytest.mark.parametrize("n, searches, before", [(5, 51, 87), (6, 387, 570), (7, 3150, 3742)])
def test_fill_embedding_search_counts(monkeypatch, n, searches, before):
    # exact work counts: a pair with a self-related class is decided by one
    # search, into D(target) only; before, every pair searched the reversal
    # too on a miss
    calls = []

    def counted(small, big):
        calls.append(None)
        return mask_embedding(small, big)

    monkeypatch.setattr("geoposet.poset.mask_embedding", counted)
    build_poset(n)
    assert len(calls) == searches < before


def count_reversals(monkeypatch):
    """A list that gains one entry per ``MaskDigraph.flipped`` call."""
    calls = []
    flipped = MaskDigraph.flipped

    def counted(shape):
        calls.append(None)
        return flipped(shape)

    monkeypatch.setattr(MaskDigraph, "flipped", counted)
    return calls


@pytest.mark.parametrize("n, reversals", [(5, 7), (6, 86), (7, 1003)])
def test_fill_reversal_counts(monkeypatch, n, reversals):
    # exact work counts: D(j) reversed is built for each second search,
    # one per decision that missed D(j) with neither class self-related,
    # so the reversals are the searches less the decisions of the two
    # tests above (51 - 44, 387 - 301, 3 150 - 2 147)
    table = cached_poset(n).table
    calls = count_reversals(monkeypatch)
    assert build_poset(table) == cached_poset(n)
    assert len(calls) == reversals


def test_precedes_reverses_only_when_neither_class_is_self_related(monkeypatch):
    classes = enumerate_classes(5).classes
    calls = count_reversals(monkeypatch)
    reversed_pairs = 0
    for low in classes:
        for high in classes:
            before = len(calls)
            precedes(low, high)
            built = len(calls) - before
            if low.self_related or high.self_related:
                assert built == 0, (low.label, high.label)
            else:
                assert built <= 1
                reversed_pairs += built
    assert reversed_pairs > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fill_without_self_related_classes_searches_more(monkeypatch, n):
    # differential test of the one-search rule: with every class marked
    # "not known to be self-related", every pair that misses D(target) is
    # searched into the reversal too, and the order is the same
    table = cached_poset(n).table
    cleared = ClassTable(
        n, tuple(dataclasses.replace(c, self_related=False) for c in table.classes)
    )
    searches = []

    def counted(small, big):
        searches.append(None)
        return mask_embedding(small, big)

    monkeypatch.setattr("geoposet.poset.mask_embedding", counted)
    real = build_poset(table)
    real_searches = len(searches)
    plain = build_poset(cleared)
    plain_searches = len(searches) - real_searches
    assert (plain.leq, plain.covers) == (real.leq, real.covers)
    if n >= 4:
        assert plain_searches > real_searches
    else:  # the floor decides every pair of S_1..S_3
        assert plain_searches == real_searches == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1032), st.integers(0, 1032))
def test_fill_agrees_with_precedes_at_n7(i, j):
    poset = cached_poset(7)
    classes = poset.table.classes
    assert poset.is_leq(i, j) == precedes(classes[i], classes[j])


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
    assert poset.covers == walk_covers(poset.leq)
    graded, witnesses = is_graded(poset)
    assert not graded
    assert len(witnesses) == 42
    assert min(lo_inv for _, _, lo_inv, _ in witnesses) == 6
    lo, hi, lo_inv, hi_inv = witnesses[0]
    assert (lo_inv, hi_inv) == (6, 8)
    assert lo == class_by_member(table, "1356274").label
    assert hi == class_by_member(table, "2561374").label


def row_digest(poset):
    """The first 16 hex digits of one sha256 over every row's little-endian
    bytes, in order.  Unlike ``repr(poset.leq)`` it runs at n = 9, whose
    66 302-bit rows have more digits than Python 3.11 converts to str."""
    width = (poset.size + 7) // 8
    digest = hashlib.sha256()
    for row in poset.leq:
        digest.update(row.to_bytes(width, "little"))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "n, digest", [(5, "250bcf7784f2f6f0"), (6, "e333719062ea968d"), (7, "27c55e845355d6e1")]
)
def test_row_digests(n, digest):
    assert row_digest(cached_poset(n)) == digest


@LONG
def test_n8_order_is_bounded_and_not_graded():
    poset = cached_poset(8)
    table = poset.table
    assert poset.size == 7605
    assert poset.is_bounded()
    assert len(poset.covers) == 49475
    assert hashlib.sha256(repr(poset.leq).encode()).hexdigest()[:16] == "6d5ded158c27d474"
    assert row_digest(poset) == "8c2fc41e67a95093"
    graded, witnesses = is_graded(poset)
    assert not graded
    assert len(witnesses) == 1464
    assert min(lo_inv for _, _, lo_inv, _ in witnesses) == 6
    lo, hi, lo_inv, hi_inv = witnesses[0]
    assert (lo_inv, hi_inv) == (6, 8)
    assert lo == class_by_member(table, "12467385").label
    assert hi == class_by_member(table, "13672485").label


@pytest.mark.skipif(
    os.environ.get("GEOPOSET_ACCEPT_N9") != "1",
    reason="the n = 9 order takes about 90 s and 1.2 GB; set GEOPOSET_ACCEPT_N9=1",
)
def test_n9_order_is_bounded_and_not_graded():
    poset = build_poset(9)
    table = poset.table
    assert poset.size == 66302
    assert poset.is_bounded()
    assert len(poset.covers) == 536318
    assert row_digest(poset) == "92aa8669326e62a1"
    graded, witnesses = is_graded(poset)
    assert not graded
    assert len(witnesses) == 31949
    assert min(lo_inv for _, _, lo_inv, _ in witnesses) == 6
    lo, hi, lo_inv, hi_inv = witnesses[0]
    assert (lo_inv, hi_inv) == (6, 8)
    assert lo == class_by_member(table, "123578496").label
    assert hi == class_by_member(table, "124783596").label


def point_sums(word):
    """σ⊕1, 1⊕σ, σ⊖1 and 1⊖σ for a word σ of S_m, as words of S_{m+1}: the
    direct sums put a new largest value last or a new smallest value first,
    the skew sums a new smallest value last or a new largest value first."""
    m = len(word)
    shifted = tuple(v + 1 for v in word)
    return word + (m + 1,), (1,) + shifted, shifted + (1,), (m + 1,) + word


@pytest.mark.parametrize(
    "n, pairs, plain_skew_misses",
    [
        (4, 10, 0),
        (5, 67, 0),
        (6, 571, 24),
        (7, 9545, 804),
        pytest.param(8, 239186, 39139, marks=LONG),
    ],
)
def test_order_lifts_through_sums_with_a_point(n, pairs, plain_skew_misses):
    # a second route to the order at n: an embedding of D(σ) into D(π)
    # extends by the new point, so every pair of the order at n - 1 lifts.
    # A witness into D(π) reversed, which is D(π⁻¹) up to isomorphism, lifts
    # a direct sum into the class of π⊕1, since (π⊕1)⁻¹ = π⁻¹⊕1; but
    # (π⊖1)⁻¹ = 1⊖π⁻¹, so a skew sum lifts to π⁻¹⊖1 or 1⊖π⁻¹, which need not
    # share the class of π⊖1 or 1⊖π: the plain skew form misses on 24
    # (pair, form) cases at n = 6, 804 at n = 7 and 39 139 at n = 8
    low, high = cached_poset(n - 1), cached_poset(n)
    index = high.table.index
    classes = low.table.classes
    lifts = [[index[bytes(w)] for w in point_sums(c.representative.word)] for c in classes]
    inverse_skews = [
        [index[bytes(w)] for w in point_sums(inverse(c.representative).word)[2:]] for c in classes
    ]
    checked = misses = 0
    for i, row in enumerate(low.leq):
        for j in bits(row):
            plus, one_plus, minus, one_minus = map(high.is_leq, lifts[i], lifts[j])
            swapped = list(map(high.is_leq, lifts[i][2:], inverse_skews[j]))
            pair = (classes[i].label, classes[j].label)
            assert plus and one_plus, pair
            assert (minus or swapped[0]) and (one_minus or swapped[1]), pair
            checked += 1
            misses += (not minus) + (not one_minus)
    assert checked == pairs
    assert misses == plain_skew_misses


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


def test_enumerate_and_build_poset_refuse_n_that_is_not_an_int():
    # True used to run as n = 1; 8.0 and "8" failed with TypeError or AttributeError
    for bad in (True, 8.0, "8"):
        with pytest.raises(ValueError, match="class enumeration supports"):
            enumerate_classes(bad)
        with pytest.raises(ValueError, match="class enumeration supports"):
            build_poset(bad)


def test_build_poset_refuses_classes_out_of_inversion_order(monkeypatch):
    # the fill finds each row's higher levels by bisecting the counts; with
    # classes 1 and 5 of S_4 swapped it used to fail only in checked_poset,
    # as "relation is not reflexive and upper-triangular"
    table = enumerate_classes(4)
    classes = list(table.classes)
    classes[1], classes[5] = classes[5], classes[1]

    def no_walk(table):
        raise AssertionError("the cover walk ran")

    monkeypatch.setattr("geoposet.poset._weak_covers", no_walk)
    with pytest.raises(ValueError, match="ascending inversion count"):
        build_poset(ClassTable(4, tuple(classes)))


def test_extension_check_rejects_large_n():
    with pytest.raises(ValueError):
        bruhat_extension_check(7)


def test_extension_check_rejects_a_poset_of_another_n():
    # a given poset used to be checked whatever its n: the n = 7 order
    # passed as (True, ()) under n = 2, past the n <= 6 bound
    with pytest.raises(ValueError, match="not of S_4"):
        bruhat_extension_check(4, build_poset(3))


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
    broken = checked_poset(poset.table, leq, index_lists(cover_masks(walk_covers(leq), len(leq))))
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


def test_bruhat_below_refuses_a_size_mismatch():
    # the masks used to be zipped to the shorter word: both answered True
    for sigma in ("12", "21"):
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_below(parse(sigma), parse("213"))
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_below(parse("213"), parse(sigma))


def test_bruhat_below_is_containment_on_s4():
    words = list(all_permutations(4))
    for sigma in words:
        for pi in words:
            left = inversion_set(sigma).pairs <= inversion_set(pi).pairs
            right = inversion_set(inverse(sigma)).pairs <= inversion_set(inverse(pi)).pairs
            assert bruhat_below(sigma, pi) == (left or right), (sigma, pi)
