import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoposet import geometry
from geoposet.geoequiv import class_key
from geoposet.geometry import (
    GeneralPositionError,
    Realization,
    _signs,
    build_realization,
    crossing_pairs,
    crossings,
    orient,
    recover_permutation,
    recover_with_relabeling,
    relabeled,
    render_svg,
    transformed,
    validate_general_position,
)
from geoposet.perms import all_permutations, identity, inversion_set, parse

# rational points on the unit circle, for exact rigid motions
PYTHAGOREAN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(-8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(-21, 29)),
]


# ---------------------------------------------------------------------------
# template construction


def test_template_crossings_match_inversions_2431():
    r = build_realization(parse("2431"))
    assert crossings(r).pairs == {(1, 2), (1, 3), (1, 4), (3, 4)}


def test_template_identity_has_no_crossings():
    assert len(crossings(build_realization(identity(5)))) == 0


def test_template_full_reversal_crosses_everywhere():
    assert len(crossings(build_realization(parse("54321")))) == 10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_template_crossings_equal_inversion_sets(n):
    for p in all_permutations(n):
        r = build_realization(p)
        assert crossings(r).pairs == inversion_set(p).pairs, str(p)


def test_template_crossings_only_low_b_high_a():
    for p in all_permutations(4):
        for i, j in crossing_pairs(build_realization(p)):
            assert i < j


def fan_realization(p):
    """The template as two fans of rays: b-ray i with cotangent 7/(4i+1)
    meets the a-ray of rank m with cotangent -9/(5m+2) at height
    100/(cb - ca)."""
    pos = p.positions()
    spokes = []
    for i in range(1, p.n + 1):
        cb = Fraction(7, 4 * i + 1)
        ca = -Fraction(9, 5 * pos[i - 1] + 2)
        y = 100 / (cb - ca)
        spokes.append((y * cb, y))
    return Realization(a=(100, 0), b=(0, 0), spokes=tuple(spokes))


LONG = pytest.mark.skipif(
    os.environ.get("GEOPOSET_ACCEPT_LONG") != "1",
    reason="the n = 8 fans take a few seconds; set GEOPOSET_ACCEPT_LONG=1",
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=LONG)])
def test_template_is_the_fan_construction(n):
    for p in all_permutations(n):
        r, fan = build_realization(p), fan_realization(p)
        assert r == fan, str(p)
        assert r.to_json() == fan.to_json(), str(p)


def test_template_general_position_holds():
    for p in all_permutations(5):
        validate_general_position(build_realization(p))


def test_template_no_spoke_triples_collinear():
    for p in all_permutations(5):
        r = build_realization(p)
        for t in combinations(range(1, r.n + 1), 3):
            assert orient(r.spoke(t[0]), r.spoke(t[1]), r.spoke(t[2])) != 0


# ---------------------------------------------------------------------------
# recovery protocol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_recover_inverts_template(n):
    for p in all_permutations(n):
        assert recover_permutation(build_realization(p)) == p


def test_recover_after_rigid_motion_keeps_class():
    rng = random.Random(2718)
    words = ["2431", "54231867", "35142", "4231", "25314"]
    for word in words:
        p = parse(word)
        r = build_realization(p)
        for _ in range(4):
            cos, sin = rng.choice(PYTHAGOREAN)
            moved = transformed(
                r, cos, sin, Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50))
            )
            for side in (True, False):
                q = recover_permutation(moved, positive_side_first=side)
                assert class_key(q) == class_key(p), (word, cos, sin, side)


def test_recover_relabeling_validates_crossings():
    # after relabeling, the crossing set is the inversion set of the
    # recovered word even when the drawing was moved around
    p = parse("54231867")
    moved = transformed(build_realization(p), Fraction(3, 5), Fraction(4, 5), 7, -3)
    q, relab = recover_with_relabeling(moved)
    fixed = relabeled(moved, relab)
    assert crossings(fixed).pairs == inversion_set(q).pairs
    assert class_key(q) == class_key(p)


def test_recover_flipped_drawing_uses_other_side():
    # reflect through the x axis: all spokes move to the negative side
    p = parse("2431")
    r = build_realization(p)
    flipped = Realization(
        a=r.a, b=r.b, spokes=tuple((x, -y) for x, y in r.spokes)
    )
    assert recover_permutation(flipped, positive_side_first=False) == p
    # choosing the empty positive side first simply starts labels on the
    # populated side
    assert recover_permutation(flipped, positive_side_first=True) == p


def test_two_sided_realization_has_no_cross_side_crossings():
    # spokes of 231 upstairs and 21 downstairs; blocks stay independent
    up = build_realization(parse("231"))
    down = build_realization(parse("21"))
    spokes = list(up.spokes) + [(x, -y) for x, y in down.spokes]
    r = Realization(a=up.a, b=up.b, spokes=tuple(spokes))
    q, relab = recover_with_relabeling(r, positive_side_first=True)
    assert q.word[:3] == (2, 3, 1)
    assert q.word[3:] == (5, 4)
    fixed = relabeled(r, relab)
    assert crossings(fixed).pairs == inversion_set(q).pairs


# ---------------------------------------------------------------------------
# differential tests against the literal segment test


def segments_cross(p1, p2, q1, q2):
    """Strict open-segment intersection from four orientations; a zero
    orientation is a degeneracy."""
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if 0 in (o1, o2, o3, o4):
        raise GeneralPositionError("collinear segment endpoints in crossing test")
    return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)


def oracle_crossing_pairs(r):
    """Every (i, j), i != j, with b-i crossing a-j, one segment test a pair.

    With two or more spokes the segment tests meet every degeneracy the
    general-position check rejects; the line check covers a single spoke.
    """
    if any(orient(r.b, r.a, s) == 0 for s in r.spokes):
        raise GeneralPositionError("a spoke on the line through the apexes")
    return [
        (i, j)
        for i in range(1, r.n + 1)
        for j in range(1, r.n + 1)
        if i != j and segments_cross(r.b, r.spoke(i), r.a, r.spoke(j))
    ]


@st.composite
def small_realizations(draw):
    """Rational point sets on a grid: the narrow spreads make coinciding
    points and collinear triples common, the wide ones general position.
    The large denominators put coordinates of very different sizes, with
    co-prime denominators, into one drawing."""
    spread = draw(st.sampled_from([2, 4, 20, 200]))
    coord = st.builds(
        Fraction,
        st.integers(-spread, spread),
        st.sampled_from([1, 2, 3, 7, 10**6 + 3, 10**30 + 57]),
    )
    point = st.tuples(coord, coord)
    n = draw(st.integers(1, 7))
    return Realization(
        a=draw(point), b=draw(point), spokes=tuple(draw(point) for _ in range(n))
    )


@settings(max_examples=400, deadline=None)
@given(small_realizations())
def test_crossing_pairs_match_the_segment_test(r):
    try:
        expected = oracle_crossing_pairs(r)
    except GeneralPositionError:
        with pytest.raises(GeneralPositionError):
            crossing_pairs(r)
    else:
        assert crossing_pairs(r) == expected


@settings(max_examples=300, deadline=None)
@given(small_realizations(), st.booleans())
def test_recovered_word_spells_the_relabeled_crossings(r, side):
    try:
        oracle_crossing_pairs(r)
    except GeneralPositionError:
        with pytest.raises(GeneralPositionError):
            recover_with_relabeling(r, side)
        return
    q, relab = recover_with_relabeling(r, side)
    assert set(oracle_crossing_pairs(relabeled(r, relab))) == inversion_set(q).pairs


def sign(q):
    return (q > 0) - (q < 0)


def test_signs_match_orient_on_100_digit_coprime_denominators():
    # 36 coordinates over pairwise co-prime 100-digit denominators: a
    # common denominator would have 3 600 digits, while each vector of
    # _signs is scaled by the product of its own four
    rng = random.Random(100)
    small_primes = math.prod(p for p in range(2, 1000) if all(p % q for q in range(2, p)))
    dens = []
    while len(dens) < 36:
        d = rng.randrange(10**99, 10**100)
        if math.gcd(d, small_primes) == 1 and all(math.gcd(d, e) == 1 for e in dens):
            dens.append(d)
    coords = [Fraction(rng.randrange(-(10**100), 10**100), d) for d in dens]
    points = list(zip(coords[::2], coords[1::2]))
    r = Realization(a=points[0], b=points[1], spokes=tuple(points[2:]))
    assert r.n == 16
    assert _signs(r) == (
        [sign(orient(r.b, r.a, s)) for s in r.spokes],
        [[sign(orient(r.b, s, t)) for t in r.spokes] for s in r.spokes],
        [[sign(orient(r.a, s, t)) for t in r.spokes] for s in r.spokes],
    )


def test_one_sign_table_per_drawing(monkeypatch):
    # _signs makes two _vectors calls (out of b, out of a) per table
    calls = []
    vectors = geometry._vectors

    def counted(*args):
        calls.append(args)
        return vectors(*args)

    monkeypatch.setattr(geometry, "_vectors", counted)
    r = build_realization(parse("35124"))
    crossing_pairs(r)
    crossings(r)
    recover_permutation(r)
    validate_general_position(r)
    assert len(calls) == 2
    # the kept table is no field: equality and hash read the points only
    fresh = build_realization(parse("35124"))
    assert r == fresh and hash(r) == hash(fresh)


# ---------------------------------------------------------------------------
# degeneracies


@pytest.mark.parametrize(
    "a, b, spokes, message",
    [
        # the first case of each message also holds every degeneracy checked
        # after it, and each collinear case holds the pairs (1, j) and
        # (2, 3), j > 3, of which the row-by-row scan reports (1, j)
        ((0, 0), (0, 0), ((1, 1), (1, 1), (5, 0), (2, 2)), "apexes coincide"),
        ((10, 0), (0, 0), ((5, 0), (1, 1), (1, 1), (2, 2)), "coincident points"),
        ((10, 0), (0, 0), ((1, 1), (0, 0)), "coincident points"),
        ((10, 0), (0, 0), ((10, 0), (5, 0)), "coincident points"),
        (
            (10, 0),
            (0, 0),
            ((1, 1), (3, 0), (2, 2), (-4, 0), (9, 1), (8, 2)),
            "spoke 2 lies on the line through the apexes",
        ),
        (
            (10, 0),
            (0, 0),
            ((1, 1), (1, 3), (2, 6), (9, 1), (3, 3), (7, 3)),
            "spokes 1 and 5 are collinear with apex b",
        ),
        (
            (10, 0),
            (0, 0),
            ((9, 1), (8, 1), (4, 3), (6, 4)),
            "spokes 1 and 4 are collinear with apex a",
        ),
    ],
)
def test_general_position_errors_and_their_order(a, b, spokes, message):
    r = Realization(a=a, b=b, spokes=spokes)
    for check in (validate_general_position, crossing_pairs, recover_permutation):
        with pytest.raises(GeneralPositionError) as caught:
            check(r)
        assert str(caught.value) == message


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_realization_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValueError):
        Realization(a=(bad, 0), b=(0, 0), spokes=((1, 1),))
    with pytest.raises(ValueError):
        Realization(a=(10, 0), b=(0, 0), spokes=((1, bad),))


def test_validate_rejects_spoke_on_apex_line():
    r = Realization(a=(Fraction(10), Fraction(0)), b=(0, 0), spokes=((5, 0), (1, 1)))
    with pytest.raises(GeneralPositionError):
        validate_general_position(r)


def test_validate_rejects_collinear_spokes_at_apex():
    r = Realization(a=(10, 0), b=(0, 0), spokes=((1, 1), (2, 2), (3, 1)))
    with pytest.raises(GeneralPositionError):
        validate_general_position(r)


def test_validate_rejects_coincident_apexes():
    r = Realization(a=(0, 0), b=(0, 0), spokes=((1, 1),))
    with pytest.raises(GeneralPositionError):
        validate_general_position(r)


def test_crossings_reject_non_angular_labels():
    p = parse("2431")
    r = build_realization(p)
    # swap labels 1 and 4: now some b-i crosses a-j with i > j
    swapped = relabeled(r, {1: 4, 4: 1, 2: 2, 3: 3})
    with pytest.raises(ValueError):
        crossings(swapped)


def test_transform_rejects_inexact_rotation():
    with pytest.raises(ValueError):
        transformed(build_realization(parse("21")), Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# serialization and rendering


def test_json_round_trip():
    r = build_realization(parse("2431"))
    again = Realization.from_json(r.to_json())
    assert again == r
    obj = r.to_json_obj()
    assert set(obj) == {"a", "b", "vertices"}
    assert all("/" in coord for coord in obj["a"] + obj["b"])


def test_json_rejects_bad_labels():
    obj = build_realization(parse("21")).to_json_obj()
    one, two = obj["vertices"]["1"], obj["vertices"]["2"]
    for vertices in ({"1": one, "3": two}, {"01": one, "2": two}):
        obj["vertices"] = vertices
        with pytest.raises(ValueError):
            Realization.from_json_obj(obj)


def with_vertices(vertices):
    obj = build_realization(parse("21")).to_json_obj()
    obj["vertices"] = vertices
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        with_vertices(["1"]),
        with_vertices([["0", "1"]]),
        with_vertices(5),
        [["0", "1"]],
        5,
        {"vertices": {"1": ["0", "1"]}},  # no "a"
        dict(with_vertices({"1": ["0", "1"]}), a=5),
        with_vertices({"1": 5, "2": ["1", "1"]}),
        dict(with_vertices({"1": ["0", "1"]}), a=["1/0", "0"]),  # zero denominator
        with_vertices({"1": ["0", "1/0"]}),
        with_vertices({"1": ["1e5", "1"]}),  # exponent notation
        with_vertices({"1": ["0", "1e-100"]}),
    ],
)
def test_json_rejects_malformed_objects(obj):
    with pytest.raises(ValueError):
        Realization.from_json_obj(obj)


def test_svg_renders_with_crossing_markers():
    svg = render_svg(build_realization(parse("2431")))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") >= 4 + 2 + 4  # crossings + apexes + spokes
