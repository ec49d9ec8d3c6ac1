"""Exact geometric oracle for straight-line drawings of K_{2,n}.

A realization places the two apexes a and b and one spoke vertex per label
1..n, all with rational coordinates.  Crossing detection runs entirely on
exact orientation predicates, so the combinatorial statements the library
is built on are checked with no floating-point slack.

Each drawing has one table of orientation signs, computed on first use
and kept on the ``Realization``, not one per call: the side of the line ab
that each spoke s_i lies on, and for each apex the sign of
orient(apex, s_i, s_j) for every pair of spokes.  Every sign is that of an
integer cross product: each vector out of b or an apex is cleared of
denominators by a positive factor of its own, which keeps the sign, so no
``Fraction`` arithmetic runs (``orient`` is the ``Fraction`` reference).
The general-position check, the crossings and the recovery order all read
that table.  The edge b-i crosses the edge a-j exactly when s_i comes
before s_j around b and after it around a, so crossings are inversions.

``build_realization`` lays a permutation out on a template: both apexes sit
on the x-axis and each sends a fan of rays into the upper half-plane, the
b-fan right-leaning and the a-fan left-leaning so that every b-ray meets
every a-ray.  Vertex i goes at the intersection of the i-th b-ray with the
a-ray whose rank is the position of i in the word, a point written in
closed form.  Crossings of such a drawing are exactly the inversions.

``recover_permutation`` inverts the construction for an arbitrary
realization: spokes are relabeled by increasing angle at b (one chosen side
of the line ab first), and the induced angular order at a spells out the
word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Iterable

from .perms import Pair, PairSet, Permutation

Point = tuple[Fraction, Fraction]
Ints = tuple[int, int, int, int]


class GeneralPositionError(ValueError):
    """A degeneracy that the crossing predicates cannot tolerate."""


@dataclass(frozen=True)
class Realization:
    """Apexes a, b and spoke vertices labeled 1..n."""

    a: Point
    b: Point
    spokes: tuple[Point, ...]
    # ``_signs`` of this drawing, computed on first use and kept; readers
    # share its lists and never change them.  Not a field, so == and hash
    # ignore it; a GeneralPositionError is raised again on every use.
    _sign_table = cached_property(lambda self: _signs(self))

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_point(self.a))
        object.__setattr__(self, "b", _as_point(self.b))
        object.__setattr__(self, "spokes", tuple(_as_point(p) for p in self.spokes))
        if not self.spokes:
            raise ValueError("a realization needs at least one spoke vertex")

    @property
    def n(self) -> int:
        return len(self.spokes)

    def spoke(self, label: int) -> Point:
        return self.spokes[label - 1]

    def to_json_obj(self) -> dict:
        return {
            "a": [_fmt(self.a[0]), _fmt(self.a[1])],
            "b": [_fmt(self.b[0]), _fmt(self.b[1])],
            "vertices": {
                str(i + 1): [_fmt(p[0]), _fmt(p[1])]
                for i, p in enumerate(self.spokes)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Realization":
        vertices = obj.get("vertices") if isinstance(obj, dict) else None
        if not isinstance(vertices, dict):
            raise ValueError("a realization is an object with a 'vertices' object")
        labels = [str(i) for i in range(1, len(vertices) + 1)]
        if set(vertices) != set(labels):
            raise ValueError("vertex labels must be 1..n")
        points = [obj.get("a"), obj.get("b")] + [vertices[label] for label in labels]
        if not all(isinstance(p, list) and len(p) == 2 for p in points):
            raise ValueError("'a', 'b' and every vertex must be lists of two coordinates")
        a, b, *spokes = [tuple(_parse_fraction(c) for c in p) for p in points]
        return cls(a=a, b=b, spokes=tuple(spokes))

    @classmethod
    def from_json(cls, text: str) -> "Realization":
        return cls.from_json_obj(json.loads(text))


def _as_point(p: Iterable) -> Point:
    x, y = p
    try:
        return (Fraction(x), Fraction(y))
    except OverflowError:
        raise ValueError(f"a coordinate of {p!r} is not finite") from None


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_fraction(text: str) -> Fraction:
    """The fraction ``text`` spells; ValueError on any malformed one, a zero
    denominator and exponent notation included.  ``Fraction`` would expand
    an exponent, so an 11-character "1e-10000000" would cost seconds and
    megabytes; ``_fmt`` only ever writes p/q."""
    text = str(text)
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def orient(p: Point, q: Point, r: Point) -> Fraction:
    """Twice the signed area of the triangle p, q, r (exact).

    The ``Fraction`` reference for the signs ``_signs`` computes in integers;
    the tests compare the two.
    """
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _vectors(base: Ints, points: Iterable[Ints]) -> list[tuple[int, int]]:
    """Each point minus ``base``, as an int pair scaled by a positive factor.

    Points come as (x.num, x.den, y.num, y.den).  For s = (x, y) and base
    (x0, y0) both coordinates of s - base are multiplied by
    x.den * x0.den * y.den * y0.den, which clears every denominator.  The
    factor is positive and differs from vector to vector, so the sign of a
    cross product of two of them is that of the exact one.  A common
    denominator over all points would cost more on co-prime ones.
    """
    xn0, xd0, yn0, yd0 = base
    return [
        ((xn * xd0 - xn0 * xd) * yd * yd0, (yn * yd0 - yn0 * yd) * xd * xd0)
        for xn, xd, yn, yd in points
    ]


def _signs(r: Realization) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The orientation signs every predicate of this module reads.

    Returns ``side`` and the tables ``at_b`` and ``at_a``, all 0-based:
    ``side[i]`` is the sign of orient(b, a, s_i), and ``at_apex[i][j]`` the
    sign of orient(apex, s_i, s_j), antisymmetric with a zero diagonal.
    Each sign is that of an integer cross product of two ``_vectors`` out of
    b or the apex, and points are compared by their numerators and
    denominators (a ``Fraction`` is in lowest terms), so no ``Fraction``
    arithmetic runs.  Raises ``GeneralPositionError`` at the first zero
    among them, after rejecting coinciding apexes or points (see
    ``validate_general_position``).
    """
    a, b, *spokes = pts = [
        (x.numerator, x.denominator, y.numerator, y.denominator) for x, y in (r.a, r.b, *r.spokes)
    ]
    if a == b:
        raise GeneralPositionError("apexes coincide")
    if len(set(pts)) != len(pts):
        raise GeneralPositionError("coincident points")
    (ax, ay), *from_b = _vectors(b, [a, *spokes])
    side = [(o > 0) - (o < 0) for o in (ax * y - ay * x for x, y in from_b)]
    if 0 in side:
        raise GeneralPositionError(f"spoke {side.index(0) + 1} lies on the line through the apexes")
    tables = []
    for apex_name, vs in (("b", from_b), ("a", _vectors(a, spokes))):
        t = [[0] * r.n for _ in range(r.n)]
        for i, (xi, yi) in enumerate(vs):
            for j, (xj, yj) in enumerate(vs[i + 1 :], start=i + 1):
                o = xi * yj - yi * xj
                if o == 0:
                    raise GeneralPositionError(
                        f"spokes {i + 1} and {j + 1} are collinear with apex {apex_name}"
                    )
                t[i][j] = 1 if o > 0 else -1
                t[j][i] = -t[i][j]
        tables.append(t)
    return side, tables[0], tables[1]


def validate_general_position(r: Realization) -> None:
    """Reject configurations that break the angular protocol or predicates.

    Checks: distinct apexes, distinct points, no spoke on the line ab, and
    no two spokes collinear with either apex.  Collinear triples made of
    spokes alone never affect K_{2,n} edges (spokes are never adjacent), so
    they are not rejected.
    """
    r._sign_table


# ---------------------------------------------------------------------------
# the template


def build_realization(p: Permutation) -> Realization:
    """The template drawing of K_{2,n} for the word p.

    b sits at the origin and a at (100, 0).  The b-ray of label i leaves b
    with cotangent 7/(4i+1): positive and strictly decreasing in i, so the
    angle grows with the label.  The a-ray of rank m leaves a with cotangent
    -9/(5m+2): negative and strictly increasing in m, so every b-ray meets
    every a-ray above the axis.  Vertex i is placed where b-ray i meets the
    a-ray whose rank m is the position of i in the word, making the crossing
    set of the drawing equal the inversion set of p.  Solving the two rays,
    with u = 4i+1, v = 5m+2 and D = 7v + 9u, that point is
    (700v/D, 100uv/D).

    The two fans are deliberately not mirror images; a symmetric choice
    puts every fixed point of the word at the same x coordinate and lines
    up spoke triples.  With these denominators no three spokes are
    collinear in any template through n = 7 (checked exhaustively).
    """
    spokes = []
    for i, m in enumerate(p.positions(), start=1):
        u, v = 4 * i + 1, 5 * m + 2
        d = 7 * v + 9 * u
        spokes.append((Fraction(700 * v, d), Fraction(100 * u * v, d)))
    return Realization(a=(100, 0), b=(0, 0), spokes=tuple(spokes))


# ---------------------------------------------------------------------------
# crossings


def crossing_pairs(r: Realization) -> list[Pair]:
    """All (i, j) with the edge b-i crossing the edge a-j, any label order.

    The four orientations of the segment test are, up to sign, side[i],
    at_b[i][j], side[j] and at_a[i][j]: b-i crosses a-j exactly when s_i
    comes before s_j around b and after it around a.  The zero diagonal
    never matches a side, so i = j drops out.
    """
    side, at_b, at_a = r._sign_table
    return [
        (i + 1, j + 1)
        for i in range(r.n)
        for j in range(r.n)
        if at_b[i][j] == side[i] and at_a[i][j] == side[j]
    ]


def crossings(r: Realization) -> PairSet:
    """Crossing pairs (i, j), i < j, of b-edge i with a-edge j.

    With labels in the angular order used by the construction and the
    recovery protocol, every crossing has i < j; a crossing the other way
    means the labels do not follow that order, which is reported loudly
    instead of being silently dropped.
    """
    pairs = crossing_pairs(r)
    bad = [(i, j) for i, j in pairs if i > j]
    if bad:
        raise ValueError(
            f"edge b-{bad[0][0]} crosses a-{bad[0][1]}: labels are not in angular "
            "order; relabel via recover_permutation first"
        )
    return PairSet(r.n, frozenset(pairs))


# ---------------------------------------------------------------------------
# recovery


def recover_with_relabeling(
    r: Realization, positive_side_first: bool = True
) -> tuple[Permutation, dict[int, int]]:
    """Run the relabeling protocol and read off the induced permutation.

    Spokes on the chosen side of the line ab get labels 1..t by increasing
    angle at b, the rest t+1..n likewise; the word lists, block by block,
    the new labels in increasing order of angle at a.  Returns the
    permutation together with the old-label -> new-label map.

    On side s of ab, s_i comes before s_j around b when at_b[i][j] == s and
    around a when at_a[i][j] == -s (the angle at a turns the other way).
    """
    side, at_b, at_a = r._sign_table
    first = 1 if positive_side_first else -1
    relabel: dict[int, int] = {}
    word: list[int] = []
    for s in (first, -first):
        block = [i for i in range(r.n) if side[i] == s]
        for old in sorted(block, key=cmp_to_key(lambda i, j: -s * at_b[i][j])):
            relabel[old + 1] = len(relabel) + 1
        by_a = sorted(block, key=cmp_to_key(lambda i, j: s * at_a[i][j]))
        word.extend(relabel[old + 1] for old in by_a)
    return Permutation(tuple(word)), relabel


def recover_permutation(r: Realization, positive_side_first: bool = True) -> Permutation:
    return recover_with_relabeling(r, positive_side_first)[0]


def relabeled(r: Realization, relabel: dict[int, int]) -> Realization:
    """The same drawing with spoke labels renamed by a full bijection."""
    if sorted(relabel) != list(range(1, r.n + 1)) or sorted(
        relabel.values()
    ) != list(range(1, r.n + 1)):
        raise ValueError("relabeling must be a bijection on 1..n")
    spokes = [r.spokes[0]] * r.n
    for old, new in relabel.items():
        spokes[new - 1] = r.spoke(old)
    return Realization(a=r.a, b=r.b, spokes=tuple(spokes))


def transformed(
    r: Realization, cos: Fraction, sin: Fraction, dx: Fraction = Fraction(0), dy: Fraction = Fraction(0)
) -> Realization:
    """Rotate by a rational point on the unit circle, then translate."""
    cos, sin, dx, dy = Fraction(cos), Fraction(sin), Fraction(dx), Fraction(dy)
    if cos * cos + sin * sin != 1:
        raise ValueError("cos^2 + sin^2 must equal 1 for an exact rotation")

    def move(p: Point) -> Point:
        return (cos * p[0] - sin * p[1] + dx, sin * p[0] + cos * p[1] + dy)

    return Realization(
        a=move(r.a), b=move(r.b), spokes=tuple(move(p) for p in r.spokes)
    )


# ---------------------------------------------------------------------------
# rendering


def render_svg(r: Realization, width: int = 640, height: int = 480) -> str:
    """A plain SVG picture of the drawing with crossings marked."""
    pts = [r.a, r.b, *r.spokes]
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    margin = 30.0

    def sx(q) -> float:
        return margin + (float(q) - x0) / span_x * (width - 2 * margin)

    def sy(q) -> float:
        return height - margin - (float(q) - y0) / span_y * (height - 2 * margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for apex, color in ((r.a, "#1f77b4"), (r.b, "#d62728")):
        for p in r.spokes:
            lines.append(
                f'<line x1="{sx(apex[0]):.2f}" y1="{sy(apex[1]):.2f}" '
                f'x2="{sx(p[0]):.2f}" y2="{sy(p[1]):.2f}" stroke="{color}" stroke-width="1"/>'
            )
    for i, j in crossing_pairs(r):
        # intersection point of segment b-i with segment a-j
        x = _intersection(r.b, r.spoke(i), r.a, r.spoke(j))
        lines.append(
            f'<circle cx="{sx(x[0]):.2f}" cy="{sy(x[1]):.2f}" r="4" '
            'fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    for label, p in enumerate(r.spokes, start=1):
        lines.append(
            f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" fill="#333"/>'
        )
        lines.append(
            f'<text x="{sx(p[0]) + 5:.2f}" y="{sy(p[1]) - 5:.2f}" font-size="11">{label}</text>'
        )
    for name, p in (("a", r.a), ("b", r.b)):
        lines.append(
            f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4" fill="#000"/>'
        )
        lines.append(
            f'<text x="{sx(p[0]) + 6:.2f}" y="{sy(p[1]) + 12:.2f}" font-size="13">{name}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    dp = (p2[0] - p1[0], p2[1] - p1[1])
    dq = (q2[0] - q1[0], q2[1] - q1[1])
    denom = dp[0] * dq[1] - dp[1] * dq[0]
    t = ((q1[0] - p1[0]) * dq[1] - (q1[1] - p1[1]) * dq[0]) / denom
    return (p1[0] + t * dp[0], p1[1] + t * dp[1])
