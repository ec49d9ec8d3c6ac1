import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet import geoequiv
from geoposet.digraphs import canonical_key, from_perm, is_isomorphic, reverse
from geoposet.geoequiv import (
    ClassTable,
    GeoClass,
    class_key,
    class_members,
    compare_with_reference,
    enumerate_classes,
    equivalent_bruteforce,
    equivalent_fast,
    four_family,
    load_s5_reference,
)
from geoposet.graphs import inversion_graph
from geoposet.moddecomp import cograph_class_size, is_cograph
from geoposet.perms import (
    OrientationClass,
    Permutation,
    act,
    all_permutations,
    identity,
    inverse,
    inverse_word,
    inversion_count,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_class_members_match_enumeration(n):
    """Every word up to n = 6.  At n = 7, where all 5 040 words would add
    about 8 s to the suite, and at n = 8, one seeded word per inversion
    count plus both extremes; the sample holds words whose digraph is
    isomorphic to its own reversal and words whose digraph is not."""
    table = enumerate_classes(n)
    words = list(all_permutations(n))
    if n >= 7:
        rng = random.Random(7)
        by_count = {}
        for p in words:
            by_count.setdefault(inversion_count(p), []).append(p)
        words = [rng.choice(by_count[k]) for k in sorted(by_count)]
        words += [identity(n), Permutation(tuple(range(n, 0, -1)))]
        self_reverse = {
            canonical_key(from_perm(p)) == canonical_key(reverse(from_perm(p))) for p in words
        }
        assert self_reverse == {True, False}
    for p in words:
        assert class_members(p) == table.class_of(p).members, str(p)


def _module_moves(w: tuple[int, ...]):
    """The words one move away from w, each with D isomorphic to D(w) or to
    its reversal: (a) w⁻¹, whose digraph is D(w) reversed; (b) a block
    w[a:b], the positions holding the consecutive values lo..hi, replaced by
    rc of the inverse of its pattern, since D(rc(x⁻¹)) ≅ D(x) and a block is
    a module of D(w); (c) the adjacent blocks A = w[a:c] and B = w[c:b] of a
    block w[a:b] with A below B swapped, B shifted down by |A| and A up by
    |B|, since the digraph of A ⊕ B is the disjoint union of D(A) and D(B)."""
    n = len(w)
    yield inverse_word(w)
    for a in range(n):
        lo = hi = w[a]
        for b in range(a + 1, n + 1):
            lo, hi = min(lo, w[b - 1]), max(hi, w[b - 1])
            if hi - lo != b - 1 - a:
                continue
            pattern = _rc_inverse(tuple(v - lo + 1 for v in w[a:b]))
            yield w[:a] + tuple(v + lo - 1 for v in pattern) + w[b:]
            for c in range(a + 1, b):
                if max(w[a:c]) == lo + c - a - 1:
                    low = tuple(v + b - c for v in w[a:c])
                    yield w[:a] + tuple(v - (c - a) for v in w[c:b]) + low + w[b:]


def _move_closure(w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every word reached from w by ``_module_moves``, in ascending order."""
    seen = {w}
    todo = [w]
    while todo:
        for x in _module_moves(todo.pop()):
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return tuple(sorted(seen))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.long)])
def test_class_members_are_the_closure_of_three_moves(n):
    # an oracle that shares no code with the bijection scan or the keys:
    # each class is the closure of its representative under the moves
    table = enumerate_classes(n)
    for c in table.classes:
        members = table.class_of(c.representative).members
        assert _move_closure(c.representative.word) == tuple(m.word for m in members), c.label


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


def test_members_are_untracked_word_tuples():
    """A table keeps its members as ``bytes``, one byte per value, which the
    cyclic collector never tracks, not as ``Permutation`` objects it keeps
    scanning."""
    table = enumerate_classes(7)
    gc.collect()
    for c in table.classes:
        assert type(c.words) is tuple and not gc.is_tracked(c.words), c.label
        assert all(type(w) is bytes and not gc.is_tracked(w) for w in c.words), c.label
        assert c.word is c.words[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_members_and_representative_are_the_sorted_permutations(n):
    by_key = {}
    for p in all_permutations(n):
        by_key.setdefault(class_key(p), []).append(p)
    table = enumerate_classes(n)
    assert table.count == len(by_key)
    for c in table.classes:
        members = c.members
        assert all(type(m) is Permutation for m in members + (c.representative,))
        assert members == tuple(by_key[c.key])  # lexicographic, as S_n is listed
        assert c.representative == members[0]
        assert tuple(bytes(m.word) for m in members) == c.words


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


@pytest.mark.parametrize("n", range(1, 8))
def test_word_key_shared_by_rc_inverse(n):
    # D(rc(w^-1)) is D(w) relabelled by i -> n+1-i; enumerate_classes walks
    # one word per {w, w^-1, rc(w), rc(w^-1)} orbit on the strength of it
    for p in all_permutations(n):
        rc_inv = tuple(n + 1 - v for v in reversed(inverse(p).word))
        assert _rc_inverse(p.word) == rc_inv
        assert geoequiv._word_key(p.word) == geoequiv._word_key(rc_inv), str(p)


def _rc_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """rc(w⁻¹), the word of k ↦ n+1−w⁻¹(n+1−k): the reverse-complement of
    the inverse.  The reference form of the orbit images that
    ``enumerate_classes`` takes with one ``map`` each."""
    n = len(w)
    word = [0] * n
    for k, v in enumerate(w):
        word[n - v] = n - k
    return tuple(word)


def _four_orbit(w) -> frozenset:
    """{w, w^-1, rc(w), rc(w^-1)}, rc being reverse-complement."""
    n = len(w)
    inv = inverse(Permutation(w)).word
    return frozenset({w, inv, *(tuple(n + 1 - v for v in reversed(x)) for x in (w, inv))})


def test_enumerate_keys_one_word_per_orbit(monkeypatch):
    # a walk of the whole word happens once per 4-orbit, on one of its words;
    # the walks' blocks are shorter than n
    tree_codes = geoequiv._tree_codes
    walked = []

    def counting(w, memo):
        walked.append(w)
        return tree_codes(w, memo)

    monkeypatch.setattr(geoequiv, "_tree_codes", counting)
    for n, orbit_count in ((5, 45), (6, 230), (7, 1388), (8, 10558)):
        walked.clear()
        enumerate_classes(n)
        top = [tuple(w) for w in walked if len(w) == n]  # the walk is given bytes
        orbits = {_four_orbit(w) for w in itertools.permutations(range(1, n + 1))}
        assert len(top) == len({_four_orbit(w) for w in top}) == len(orbits) == orbit_count


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_codes_second_code_is_the_inverse_key(n):
    for w in itertools.permutations(range(1, n + 1)):
        code, inverse_code = geoequiv._tree_codes(bytes(w), {})
        assert code == geoequiv._word_key(w)
        assert inverse_code == geoequiv._word_key(inverse(Permutation(w)).word), w


def test_shared_memo_gives_fresh_codes():
    memo = {}
    for w in map(bytes, itertools.permutations(range(1, 8))):
        assert geoequiv._tree_codes(w, memo) == geoequiv._tree_codes(w, {}), w
    blocks, quotients = _walk_state(memo)
    assert blocks and max(map(len, blocks)) < 7
    # a quotient key maps to a recipe; a block key is a word of the values
    # 1..m, normalised, and maps to the pair a fresh walk of it gives
    for key in quotients:
        (prefix, _, _), (inverse_prefix, _, _) = geoequiv._quotient(list(key))
        assert (memo[key][0][0], memo[key][1][0]) == (prefix, inverse_prefix), key
    for key in blocks:
        assert sorted(key) == list(range(1, len(key) + 1)), key
        assert memo[key] == geoequiv._tree_codes(key, {}), key


def _walk_state(memo) -> tuple[list, list]:
    """The memo's block keys (no 0 byte) and prime-quotient keys
    (``bytes(σ⁻¹)``, from 0, so with a 0 byte)."""
    blocks = [key for key in memo if 0 not in key]
    quotients = [key for key in memo if 0 in key]
    assert all(type(key) is bytes for key in memo)
    return blocks, quotients


def _is_simple(sigma) -> bool:
    """No proper interval of 2..k−1 positions holds consecutive values."""
    k = len(sigma)
    return not any(
        max(sigma[a:b]) - min(sigma[a:b]) == b - a - 1
        for a in range(k)
        for b in range(a + 2, min(a + k, k + 1))
    )


@pytest.mark.parametrize("n, entries", [(4, 2), (5, 8), (6, 54), (7, 392), (8, 3318)])
def test_quotient_table_holds_the_simple_permutations(n, entries):
    # every prime quotient is simple, and S_n meets every simple permutation
    # of length 4..n; their counts are 2, 6, 46, 338, 2 926 (OEIS A111111)
    memo = {}
    for w in itertools.permutations(range(1, n + 1)):
        geoequiv._tree_codes(bytes(w), memo)
    _, quotients = _walk_state(memo)
    assert len(quotients) == entries
    for by_value in quotients:
        assert _is_simple(inverse_word(tuple(i + 1 for i in by_value))), by_value


def test_shared_quotient_table_gives_fresh_codes():
    memo = {}
    for w in map(bytes, itertools.permutations(range(1, 8))):
        assert geoequiv._tree_codes(w, memo) == geoequiv._tree_codes(w, {}), w
    blocks, quotients = _walk_state(memo)
    assert max(map(len, blocks)) < 7 and len(quotients) == 392


def _sha256_of_codes(codes) -> str:
    """sha256 over the codes, each prefixed by its length as one byte."""
    digest = hashlib.sha256()
    for code in codes:
        digest.update(bytes([len(code)]) + code)
    return digest.hexdigest()


def test_key_bytes_are_pinned():
    # poset compares class keys, so a changed key byte could alter the order
    # while every enumerate output stays the same
    pairs = (geoequiv._tree_codes(bytes(w), {}) for w in itertools.permutations(range(1, 8)))
    assert _sha256_of_codes(code for pair in pairs for code in pair) == (
        "3c4e7644bc9e6e098ebadcb9ba71805a91019a9bd889a77b1f5101fa56057d68"
    )
    assert _sha256_of_codes(c.key for c in enumerate_classes(7).classes) == (
        "a79c942212d425cb3fba6c56439a5d1db7d0276f4ae631ac7282b8f2c1bd3303"
    )


def test_class_key_is_the_smaller_word_key():
    for n in range(1, 8):
        for p in all_permutations(n):
            expected = min(geoequiv._word_key(p.word), geoequiv._word_key(inverse(p).word))
            assert class_key(p) == expected, str(p)


def test_enumerated_members_are_permutations():
    # members skip re-validation; they must still equal, hash and order like
    # validated ones, and the public constructor still validates
    for c in enumerate_classes(5).classes:
        for m in c.members:
            p = Permutation(m.word)
            assert type(m) is Permutation and m == p and hash(m) == hash(p)
            assert not m < p and str(m) == str(p)
    for bad in [(1, 1), (), (2, 3)]:
        with pytest.raises(ValueError):
            Permutation(bad)


# ---------------------------------------------------------------------------
# class keys from the substitution decomposition, against backtracking


def _partition(words, key) -> set:
    groups = {}
    for w in words:
        groups.setdefault(key(w), set()).add(w)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("n", range(1, 8))
def test_word_key_partition_is_backtracking_isomorphism(n):
    words = list(itertools.permutations(range(1, n + 1)))
    tree = _partition(words, geoequiv._word_key)
    assert tree == _partition(words, lambda w: canonical_key(from_perm(Permutation(w))))


@pytest.mark.parametrize("n", range(1, 9))
def test_class_key_partition_is_the_enumeration(n):
    words = list(itertools.permutations(range(1, n + 1)))
    classes = {frozenset(m.word for m in c.members) for c in enumerate_classes(n).classes}
    assert _partition(words, lambda w: class_key(Permutation(w))) == classes


@pytest.mark.parametrize("n", range(1, 8))
def test_self_related_is_isomorphism_to_the_reversal(n):
    # the oracle is the backtracking key, which shares no code with the walk
    for c in enumerate_classes(n).classes:
        d = from_perm(c.representative)
        assert c.self_related == is_isomorphic(d, reverse(d)), c.label


@pytest.mark.parametrize("n", range(1, 8))
def test_self_related_agrees_with_the_cograph_class_size(n):
    cographs = 0
    for c in enumerate_classes(n).classes:
        if is_cograph(inversion_graph(c.representative)):
            cographs += 1
            assert c.self_related == cograph_class_size(c.representative).self_related
    assert cographs


@pytest.mark.parametrize("n, related, classes", [(5, 15, 39), (6, 49, 182), (7, 110, 1033)])
def test_self_related_counts(n, related, classes):
    table = enumerate_classes(n)
    assert (sum(c.self_related for c in table.classes), table.count) == (related, classes)


def test_class_key_refuses_17_letters():
    with pytest.raises(ValueError):
        class_key(Permutation(tuple(range(17, 0, -1))))
    with pytest.raises(ValueError):
        geoequiv._word_key(tuple(range(1, 18)))
    # prime at the root: 2, 4, ..., 16, 1, 3, ..., 17, and its reverse
    prime = tuple(range(2, 17, 2)) + tuple(range(1, 18, 2))
    for w in (prime, tuple(reversed(prime))):
        with pytest.raises(ValueError):
            class_key(Permutation(w))
        with pytest.raises(ValueError):
            geoequiv._tree_codes(bytes(w), {})


def _inflate(sigma, children) -> tuple[int, ...]:
    """sigma with the block at position i replaced by ``children[i]``."""
    sizes = [len(c) for c in children]
    base = [0] * len(sigma)
    total = 0
    for i in sorted(range(len(sigma)), key=sigma.__getitem__):
        base[i] = total
        total += sizes[i]
    return tuple(base[i] + v for i, c in enumerate(children) for v in c)


def _backtracking_says_isomorphic(w1, w2) -> bool:
    return canonical_key(from_perm(Permutation(w1))) == canonical_key(from_perm(Permutation(w2)))


@st.composite
def _blocks(draw) -> list[tuple[int, ...]]:
    """Random words of lengths 1..6, totalling a length in 10..16."""
    n = draw(st.integers(10, 16))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(6, n - sum(sizes)))))
    return [tuple(draw(st.permutations(range(1, s + 1)))) for s in sizes]


@st.composite
def _isomorphic_pair(draw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two words of one length in 10..16 whose digraphs are isomorphic."""
    pieces = draw(_blocks())
    how = draw(st.sampled_from(["rc-inverse", "shuffle sum", "prime flip"]))
    k = len(pieces)
    if how == "shuffle sum":
        # D(α ⊕ β) is the disjoint union of D(α) and D(β)
        order = draw(st.permutations(range(k)))
        return _inflate(tuple(range(1, k + 1)), pieces), _inflate(
            tuple(range(1, k + 1)), [pieces[i] for i in order]
        )
    sigma = tuple(draw(st.permutations(range(1, k + 1))))
    w = _inflate(sigma, pieces)
    if how == "rc-inverse":
        return w, _rc_inverse(w)
    # rc(σ⁻¹) lists by value the blocks of σ in reversed position order
    tau = _rc_inverse(sigma)
    return w, _inflate(tau, [pieces[k - t] for t in tau])


@settings(max_examples=150, deadline=None)
@given(_isomorphic_pair())
def test_word_key_agrees_with_backtracking_on_isomorphic_pairs(pair):
    w1, w2 = pair
    assert sorted(w1) == sorted(w2) == list(range(1, len(w1) + 1))
    assert _backtracking_says_isomorphic(w1, w2)
    assert geoequiv._word_key(w1) == geoequiv._word_key(w2)


@settings(max_examples=150, deadline=None)
@given(st.integers(10, 16).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))
))
def test_word_key_agrees_with_backtracking_on_random_pairs(pair):
    w1, w2 = map(tuple, pair)
    same = geoequiv._word_key(w1) == geoequiv._word_key(w2)
    assert same == _backtracking_says_isomorphic(w1, w2)


@st.composite
def _inflated_word(draw) -> tuple[int, ...]:
    """A word of length 10..16: a random σ with a random block at each position."""
    pieces = draw(_blocks())
    return _inflate(tuple(draw(st.permutations(range(1, len(pieces) + 1)))), pieces)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_inflated_word(), st.integers(10, 16).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)))
def test_tree_codes_second_code_is_the_inverse_key_at_10_to_16(w):
    code, inverse_code = geoequiv._tree_codes(bytes(w), {})
    assert inverse_code == geoequiv._word_key(inverse(Permutation(w)).word)
    assert (code == inverse_code) == _backtracking_says_isomorphic(w, inverse(Permutation(w)).word)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_index_holds_every_word_once(n):
    table = enumerate_classes(n)
    words = list(map(bytes, itertools.permutations(range(1, n + 1))))
    assert sorted(table.index) == words
    for w, k in table.index.items():
        assert table.class_of(Permutation(w)) is table.classes[k]


def test_class_of_rejects_non_members():
    table = enumerate_classes(4)
    with pytest.raises(KeyError) as excinfo:
        table.class_of(parse("12345"))
    assert excinfo.value.args[0] == "12345 is not a member of any class (n mismatch?)"


@pytest.mark.parametrize("other_n", [1, 3, 5, 9, 255, 256, 300])
def test_class_of_raises_key_error_for_another_n(other_n):
    # the index is keyed by bytes, and bytes() refuses values past 255:
    # that too is a word of no class
    table = enumerate_classes(4)
    p = Permutation(tuple(range(other_n, 0, -1)))
    with pytest.raises(KeyError, match="is not a member of any class"):
        table.class_of(p)


def test_no_pool_on_one_usable_cpu(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    # the host has more CPUs than this process may run on
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert enumerate_classes(5).count == 39


def test_table_json_round_trip():
    table = enumerate_classes(4)
    obj = json.loads(table.to_json())
    assert obj["schema_version"] == 1
    assert obj["count"] == 12
    again = ClassTable.from_json_obj(obj)
    assert again.to_json() == table.to_json()


def _hand_built_tables():
    one = (1, 2, 3)
    yield "no classes", ClassTable(3, ())
    yield "a class with no members", ClassTable(3, (GeoClass("0.1", 0, one, (), b""),))
    for label in ['"', "\\", "é", "a\nb"]:
        yield f"label {label!r}", ClassTable(3, (GeoClass(label, 0, one, (one,), b""),))


@pytest.mark.parametrize(
    "table",
    [pytest.param(enumerate_classes(n), id=f"S_{n}") for n in range(1, 9)]
    + [pytest.param(table, id=name) for name, table in _hand_built_tables()],
)
def test_to_json_is_the_generic_encoding(table):
    """``to_json`` writes the indent=2 layout itself; it must stay the
    generic encoder's text of ``to_json_obj``, byte for byte."""
    assert table.to_json() == json.dumps(table.to_json_obj(), indent=2)


def test_to_json_holds_less_than_four_times_its_text():
    table = enumerate_classes(7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = table.to_json()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), (peak, len(text))


@pytest.mark.parametrize("obj", [{"n": "5"}, {"n": 5.0}, {"n": True}, {}], ids=repr)
def test_table_from_json_obj_refuses_an_n_that_is_not_an_int(obj):
    with pytest.raises(ValueError, match="n is not an int"):
        ClassTable.from_json_obj(obj)


@pytest.mark.parametrize("obj", [[], 5, None, "x"], ids=repr)
def test_table_from_json_obj_refuses_an_entry_that_is_not_an_object(obj):
    with pytest.raises(ValueError, match="not an object"):
        ClassTable.from_json_obj(obj)


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
