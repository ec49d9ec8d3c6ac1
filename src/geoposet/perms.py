"""Permutations in one-line word form, inversion sets, and the pair action.

A permutation of {1..n} is stored by its word: ``word[k - 1]`` is the image
of position ``k``.  The inversion set E(pi) collects the pairs (i, j) with
i < j such that i appears *after* j in the word.  A subset A of the pairs
over {1..n} is an inversion set of some permutation exactly when both A and
its complement are transitively closed, and the permutation is then unique.

Internally an inversion set is the out- and in-masks of the permutation
digraph.  ``word_masks`` and ``word_from_masks`` are the one round trip
between words and masks, and the only check that masks belong to a word;
``is_inversion_set`` keeps the closure conditions as an independent oracle.

Permutations also act on pair sets: rho sends (i, j) to the sorted pair on
{rho(i), rho(j)}, either *order-preserving* (rho(i) < rho(j)) or
*order-reversing*.  Whether a witness acts uniformly on a whole inversion
set is what distinguishes digraph-level equivalence from plain graph
isomorphism, so the action reports a classification alongside the image.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

Pair = tuple[int, int]


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {1..n} in one-line word form.

    >>> Permutation((2, 4, 3, 1))(2)
    4
    >>> str(Permutation((2, 4, 3, 1)))
    '2431'
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValueError("empty permutation word")
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, k: int) -> int:
        """Image of position k (1-based)."""
        return self.word[k - 1]

    def positions(self) -> tuple[int, ...]:
        """positions()[v - 1] is the position at which value v sits."""
        return inverse_word(self.word)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def parse(text: str) -> Permutation:
    """Parse a permutation word.

    Two formats are accepted: a contiguous digit string for n <= 9 (the way
    small words are usually written, e.g. ``"2431"``), and comma-separated
    integers for any n.  Raises ValueError on anything that is not a word
    of some S_n.

    >>> parse("2431").word
    (2, 4, 3, 1)
    >>> parse("10,3,1,2,4,5,6,7,8,9").n
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed permutation text: {text!r}") from None
    else:
        if not text.isdigit():
            raise ValueError(f"malformed permutation text: {text!r}")
        values = tuple(int(ch) for ch in text)
    return Permutation(values)


def inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """The word of the inverse: entry v - 1 is the position of value v."""
    inv = [0] * len(word)
    for k, v in enumerate(word, start=1):
        inv[v - 1] = k
    return tuple(inv)


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation: inverse(p)(p(k)) = k.

    >>> str(inverse(parse("3142")))
    '2413'
    """
    return Permutation(p.positions())


def reverse(p: Permutation) -> Permutation:
    """The reverse word: reverse(p)(k) = p(n + 1 - k).

    The inversion set of the reverse is the complement of E(p) within the
    set of all pairs.
    """
    return Permutation(tuple(reversed(p.word)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Function composition (p * q)(k) = p(q(k))."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.word[v - 1] for v in q.word))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


@dataclass(frozen=True)
class PairSet:
    """A set of pairs (i, j) with 1 <= i < j <= n."""

    n: int
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        pairs = frozenset(tuple(p) for p in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if self.n < 1:
            raise ValueError("n must be positive")
        for i, j in pairs:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"invalid pair {(i, j)} for n={self.n}")

    @classmethod
    def universe(cls, n: int) -> "PairSet":
        """All pairs (i, j) with 1 <= i < j <= n."""
        return cls(n, frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))

    def complement(self) -> "PairSet":
        return PairSet(self.n, PairSet.universe(self.n).pairs - self.pairs)

    def sorted_pairs(self) -> list[Pair]:
        return sorted(self.pairs)

    def to_json_obj(self) -> list[list[int]]:
        return [[i, j] for i, j in self.sorted_pairs()]

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.sorted_pairs())


def inversion_set(p: Permutation) -> PairSet:
    """All pairs (i, j), i < j, with i appearing after j in the word.

    >>> sorted(inversion_set(parse("2431")).pairs)
    [(1, 2), (1, 3), (1, 4), (3, 4)]
    """
    pos = p.positions()
    pairs = frozenset(
        (i, j)
        for i in range(1, p.n)
        for j in range(i + 1, p.n + 1)
        if pos[i - 1] > pos[j - 1]
    )
    return PairSet(p.n, pairs)


def inversion_count(p: Permutation) -> int:
    word = p.word
    n = len(word)
    return sum(1 for a in range(n) for b in range(a + 1, n) if word[a] > word[b])


def is_inversion_set(ps: PairSet) -> bool:
    """Check the two closure conditions characterizing inversion sets.

    (1) (i, j) and (j, k) present forces (i, k) present;
    (2) (i, j) and (j, k) absent forces (i, k) absent.
    """
    pairs = ps.pairs
    n = ps.n
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            ij = (i, j) in pairs
            for k in range(j + 1, n + 1):
                jk = (j, k) in pairs
                if ij and jk and (i, k) not in pairs:
                    return False
                if not ij and not jk and (i, k) in pairs:
                    return False
    return True


def word_masks(word: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Out- and in-masks of the permutation digraph, straight from the word:
    bit j-1 of out[i-1] (and bit i-1 of in[j-1]) is set when (i, j) is an
    inversion."""
    n = len(word)
    pos = inverse_word(word)
    out = [0] * n
    inn = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if pos[i] > pos[j]:
                out[i] |= 1 << j
                inn[j] |= 1 << i
    return out, inn


def pair_masks(n: int, pairs: Iterable[Pair]) -> tuple[list[int], list[int]]:
    """Out- and in-masks of the arcs (i, j) on vertices 1..n."""
    out = [0] * n
    inn = [0] * n
    for i, j in pairs:
        out[i - 1] |= 1 << (j - 1)
        inn[j - 1] |= 1 << (i - 1)
    return out, inn


def word_from_masks(out: list[int], inn: list[int]) -> "tuple[int, ...] | None":
    """The word whose ``word_masks`` are (out, inn), or None if there is none.

    Value v goes to position v - |inn[v]| + |out[v]| (the smaller values it
    is not inverted with, and the larger ones it is, come before it).  The
    masks are accepted exactly when that places a permutation whose own
    masks equal them.
    """
    n = len(out)
    word = [0] * n
    for v in range(n):
        k = v - inn[v].bit_count() + out[v].bit_count()
        if not 0 <= k < n or word[k]:
            return None
        word[k] = v + 1
    result = tuple(word)
    return result if word_masks(result) == (list(out), list(inn)) else None


def perm_from_inversion_set(ps: PairSet) -> Permutation:
    """Rebuild the unique permutation whose inversion set is ``ps``.

    Raises ValueError if ``ps`` fails the closure conditions.
    """
    word = word_from_masks(*pair_masks(ps.n, ps.pairs))
    if word is None:
        raise ValueError("not an inversion set")
    return Permutation(word)


class OrientationClass(enum.Enum):
    """How a permutation acts on the pairs of a set: uniformly or not."""

    ALL_PRESERVING = "all-preserving"
    ALL_REVERSING = "all-reversing"
    MIXED = "mixed"
    VACUOUS = "vacuous"


def act(rho: Permutation, ps: PairSet) -> tuple[PairSet, OrientationClass]:
    """Apply rho to every pair and classify the action.

    Each (i, j) maps to (rho(i), rho(j)) sorted increasingly; the action is
    order-preserving on the pair when no swap was needed.  The returned
    classification is VACUOUS for an empty set, MIXED when both behaviours
    occur, and ALL_PRESERVING / ALL_REVERSING otherwise.
    """
    if rho.n != ps.n:
        raise ValueError(f"size mismatch: {rho.n} vs {ps.n}")
    word = rho.word
    preserved = reversed_ = False
    image = set()
    for i, j in ps.pairs:
        a, b = word[i - 1], word[j - 1]
        if a < b:
            preserved = True
            image.add((a, b))
        else:
            reversed_ = True
            image.add((b, a))
    if not image:
        kind = OrientationClass.VACUOUS
    elif preserved and reversed_:
        kind = OrientationClass.MIXED
    elif preserved:
        kind = OrientationClass.ALL_PRESERVING
    else:
        kind = OrientationClass.ALL_REVERSING
    return PairSet(ps.n, frozenset(image)), kind


def check_symmetric_difference(rho: Permutation, sigma: Permutation) -> bool:
    """Test the identity rho * E(sigma) = E(rho sigma) XOR E(rho).

    The image of an inversion set under the action is always the symmetric
    difference of the inversion sets of the product and of the actor.  This
    is exposed as an oracle for the property suite; it returns True on every
    input when the action is implemented correctly.
    """
    image, _ = act(rho, inversion_set(sigma))
    expected = inversion_set(compose(rho, sigma)).pairs ^ inversion_set(rho).pairs
    return image.pairs == expected
