"""Permutations in one-line word form, inversion sets, and the pair action.

A permutation of {1..n} is stored by its word: ``word[k - 1]`` is the image
of position ``k``.  The inversion set E(pi) collects the pairs (i, j) with
i < j such that i appears *after* j in the word.  A subset A of the pairs
over {1..n} is an inversion set of some permutation exactly when both A and
its complement are transitively closed, and the permutation is then unique.

Internally an inversion set is the out- and in-masks of the permutation
digraph.  ``word_masks`` and ``word_from_masks`` are the one round trip
between words and masks, and the only check that masks belong to a word;
``inversion_set`` reads its pairs off ``word_masks`` as well;
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
from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]
# Maps the bytes 0..9 to their ASCII digits, for ``format_word``.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


@dataclass(frozen=True, order=True, slots=True)
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
        n = len(word)
        if list(map(type, word)).count(int) != n or sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")

    @classmethod
    def _unchecked(cls, word: tuple[int, ...]) -> "Permutation":
        """The permutation of ``word``, a tuple already known to hold 1..n
        once each, built without ``__post_init__``'s check."""
        p = object.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

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
        return format_word(self.word)


def format_word(word: tuple[int, ...]) -> str:
    """The text of a word: its digits for n <= 9, else its values joined by
    commas, as ``parse`` reads them.

    >>> format_word((2, 4, 3, 1))
    '2431'
    """
    if len(word) <= 9:
        return bytes(word).translate(_DIGITS).decode()
    return ",".join(map(str, word))


def identity(n: int) -> Permutation:
    _check_size(n)
    return Permutation(tuple(range(1, n + 1)))


def parse(text: str) -> Permutation:
    """Parse a permutation word.

    Two formats are accepted: a contiguous digit string for n <= 9 (the way
    small words are usually written, e.g. ``"2431"``), and comma-separated
    integers for any n, with optional whitespace around each.  Digits are
    ASCII 0-9 only.  Raises ValueError on anything that is not a word of
    some S_n.

    >>> parse("2431").word
    (2, 4, 3, 1)
    >>> parse("10,3,1,2,4,5,6,7,8,9").n
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    comma = "," in text
    parts = [part.strip() for part in text.split(",")] if comma else [text]
    # ASCII 0-9 only: int() would also take other Unicode digits, signs and "_".
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"malformed permutation text: {text!r}")
    return Permutation(tuple(map(int, parts if comma else text)))


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
    _check_same_n(p.n, q.n)
    return Permutation(tuple(p.word[v - 1] for v in q.word))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order."""
    _check_size(n)
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def _check_size(n: int) -> None:
    """Refuse an n that is not an int of at least 1: bools and floats too."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int; got n={n!r}")


def _check_same_n(a: int, b: int) -> None:
    """Refuse the two operands of a function when their n differ: the one
    size-mismatch rule of every two-operand function."""
    if a != b:
        raise ValueError(f"size mismatch: {a} vs {b}")


def _check_pairs(n: int, pairs: Iterable[Pair], name: str) -> None:
    """Refuse a bad n (``_check_size``) or any pair that is not two ints
    with 1 <= i < j <= n; ``name`` is what the error calls a pair."""
    _check_size(n)
    for i, j in pairs:
        if not (type(i) is type(j) is int and 1 <= i < j <= n):
            raise ValueError(f"invalid {name} {(i, j)} for n={n}")


@dataclass(frozen=True)
class PairSet:
    """A set of pairs (i, j) with 1 <= i < j <= n."""

    n: int
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        pairs = frozenset(tuple(p) for p in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        _check_pairs(self.n, pairs, "pair")

    @classmethod
    def universe(cls, n: int) -> "PairSet":
        """All pairs (i, j) with 1 <= i < j <= n."""
        _check_size(n)
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
    """All pairs (i, j), i < j, with i appearing after j in the word, read
    off the out-masks of ``word_masks``.

    >>> sorted(inversion_set(parse("2431")).pairs)
    [(1, 2), (1, 3), (1, 4), (3, 4)]
    """
    out, _ = word_masks(p.word)
    pairs = frozenset(
        (i + 1, j + 1) for i, o in enumerate(out) for j in range(i + 1, p.n) if o >> j & 1
    )
    return PairSet(p.n, pairs)


def inversion_count(p: Permutation) -> int:
    """The number of pairs of positions whose values are out of order."""
    return word_inversion_count(p.word)


def word_inversion_count(word: Sequence[int]) -> int:
    """``inversion_count`` of the permutation with this word, a tuple or
    ``bytes``: each value adds the count of greater values before it, read
    off a bit set of the values seen."""
    count = seen = 0
    for v in word:
        count += (seen >> v).bit_count()
        seen |= 1 << v
    return count


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
    inversion.  One scan: ``seen`` holds the values already placed, so
    out[v-1] is the larger values before v and in[v-1] the smaller values
    after it."""
    n = len(word)
    out = [0] * n
    inn = [0] * n
    seen = 0
    for v in word:
        out[v - 1] = seen >> v << v
        inn[v - 1] = ~seen & ((1 << v - 1) - 1)
        seen |= 1 << v - 1
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
    _check_same_n(rho.n, ps.n)
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
