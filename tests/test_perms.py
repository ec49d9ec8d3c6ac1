import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet.perms import (
    OrientationClass,
    PairSet,
    Permutation,
    act,
    all_permutations,
    check_symmetric_difference,
    compose,
    identity,
    inverse,
    inversion_count,
    inversion_set,
    is_inversion_set,
    parse,
    perm_from_inversion_set,
    reverse,
    word_from_masks,
    word_masks,
)


def naive_inversions(word):
    """Independent oracle: scan the word for out-of-order value pairs."""
    n = len(word)
    out = set()
    for a in range(n):
        for b in range(a + 1, n):
            if word[a] > word[b]:
                out.add((word[b], word[a]))
    return out


# ---------------------------------------------------------------------------
# parsing and word algebra


def test_parse_digits():
    assert parse("2431").word == (2, 4, 3, 1)


def test_parse_single():
    assert parse("1") == identity(1)


def test_parse_commas_large_n():
    p = parse("10,3,1,2,4,5,6,7,8,9")
    assert p.n == 10 and p.word[0] == 10


@pytest.mark.parametrize("bad", ["", "122", "13", "0", "2431x", "1,2,2", "1,0"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_inverse_paper_example():
    assert inverse(parse("3142")) == parse("2413")


def test_inverse_identity():
    assert inverse(identity(6)) == identity(6)


def test_inverse_larger_word():
    # positional inversion worked out by hand: value v sits at position k
    # in the inverse exactly when k sits at position v in the original
    assert inverse(parse("51284367")) == parse("23651784")


def test_compose_inverse_is_identity():
    for p in all_permutations(4):
        assert compose(p, inverse(p)) == identity(4)
        assert compose(inverse(p), p) == identity(4)


def test_reverse_word():
    assert reverse(parse("12345")) == parse("54321")
    assert reverse(parse("3142")) == parse("2413")


def test_reverse_complements_inversions():
    for p in all_permutations(4):
        assert inversion_set(reverse(p)).pairs == inversion_set(p).complement().pairs


# ---------------------------------------------------------------------------
# inversion sets


def test_inversion_set_2431():
    assert inversion_set(parse("2431")).pairs == {(1, 2), (1, 3), (1, 4), (3, 4)}


def test_inversion_set_identity_empty():
    assert len(inversion_set(identity(5))) == 0


def test_inversion_set_full_reversal():
    assert inversion_set(parse("54321")).pairs == PairSet.universe(5).pairs
    assert len(inversion_set(parse("54321"))) == 10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_set_matches_naive_oracle(n):
    for word in itertools.permutations(range(1, n + 1)):
        assert inversion_set(Permutation(word)).pairs == naive_inversions(word)


def test_is_inversion_set_counterexample():
    # order-preserving image of E(2413) under 1324; its complement contains
    # (1,2) and (2,3) but not (1,3)
    a = PairSet(4, frozenset({(1, 3), (1, 4), (2, 4)}))
    assert not is_inversion_set(a)


def test_is_inversion_set_empty_and_tiny():
    assert is_inversion_set(PairSet(4, frozenset()))
    # a lone pair (i, j) forces every value between i and j to sit on both
    # sides of the gap, so only adjacent-value singletons survive
    for i, j in PairSet.universe(4):
        assert is_inversion_set(PairSet(4, frozenset({(i, j)}))) == (j == i + 1)


def test_act_image_can_fail_closure():
    image, kind = act(parse("1324"), inversion_set(parse("2413")))
    assert kind is OrientationClass.ALL_PRESERVING
    assert image.pairs == {(1, 3), (1, 4), (2, 4)}
    assert not is_inversion_set(image)


def test_perm_from_inversion_set_examples():
    assert perm_from_inversion_set(
        PairSet(4, frozenset({(1, 2), (1, 3), (1, 4), (3, 4)}))
    ) == parse("2431")
    assert perm_from_inversion_set(PairSet(5, frozenset())) == identity(5)


def test_perm_from_inversion_set_rejects_non_inversion_sets():
    with pytest.raises(ValueError):
        perm_from_inversion_set(PairSet(4, frozenset({(1, 3), (1, 4), (2, 4)})))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_set_round_trip_exhaustive(n):
    for p in all_permutations(n):
        assert perm_from_inversion_set(inversion_set(p)) == p


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_perm_from_inversion_set_agrees_with_closure_oracle(n):
    # every subset of the pairs: 1, 2, 8, 64, 1024 sets for n = 1..5
    universe = PairSet.universe(n).sorted_pairs()
    for chosen in itertools.product((False, True), repeat=len(universe)):
        ps = PairSet(n, frozenset(pair for pair, keep in zip(universe, chosen) if keep))
        if is_inversion_set(ps):
            assert inversion_set(perm_from_inversion_set(ps)).pairs == ps.pairs
        else:
            with pytest.raises(ValueError):
                perm_from_inversion_set(ps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_word_from_masks_round_trip_and_rejections(n):
    for word in itertools.permutations(range(1, n + 1)):
        out, inn = word_masks(word)
        assert word_from_masks(out, inn) == word
        if any(inn):
            # out alone is consistent with the word; inn must match too
            assert word_from_masks(out, [0] * n) is None
    # a bit beyond the last vertex
    assert word_from_masks([1 << n] + [0] * (n - 1), [0] * n) is None


def test_word_from_masks_rejects_masks_that_disagree():
    # out says (1, 3), in says (1, 2): the placement is the word 213, whose
    # masks are neither, so only the final equality check rejects it
    assert word_from_masks([0b100, 0, 0], [0, 0b001, 0]) is None


def test_inverse_pair_relation():
    # (i, j) in E(p)  <=>  (p^-1(j), p^-1(i)) in E(p^-1)
    for p in all_permutations(4):
        pinv = inverse(p)
        pos = p.positions()
        expected = {(pos[j - 1], pos[i - 1]) for i, j in inversion_set(p).pairs}
        assert inversion_set(pinv).pairs == expected


# ---------------------------------------------------------------------------
# the action


def test_act_order_preserving_example():
    image, kind = act(parse("2341"), inversion_set(parse("3214")))
    assert image.pairs == inversion_set(parse("1432")).pairs
    assert kind is OrientationClass.ALL_PRESERVING


def test_act_mixed_example():
    image, kind = act(parse("2341"), inversion_set(parse("4312")))
    assert image.pairs == inversion_set(parse("4231")).pairs
    assert kind is OrientationClass.MIXED


def test_act_identity_is_vacuous_or_preserving():
    ident = identity(4)
    empty, kind = act(ident, PairSet(4, frozenset()))
    assert kind is OrientationClass.VACUOUS and len(empty) == 0
    full, kind = act(ident, PairSet.universe(4))
    assert kind is OrientationClass.ALL_PRESERVING
    assert full.pairs == PairSet.universe(4).pairs


def test_symmetric_difference_exhaustive_s4():
    for rho in all_permutations(4):
        for sigma in all_permutations(4):
            assert check_symmetric_difference(rho, sigma)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1))
        )
    )
)
def test_symmetric_difference_randomized(words):
    rho, sigma = (Permutation(tuple(w)) for w in words)
    assert check_symmetric_difference(rho, sigma)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    )
)
def test_round_trip_randomized(word):
    p = Permutation(tuple(word))
    assert perm_from_inversion_set(inversion_set(p)) == p
    assert inversion_count(p) == len(inversion_set(p))


def test_pair_set_serialization_sorted():
    ps = PairSet(4, frozenset({(3, 4), (1, 2)}))
    assert ps.to_json_obj() == [[1, 2], [3, 4]]
