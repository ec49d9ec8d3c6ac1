"""Geo-equivalence of permutations: tests, classes, and full enumerations.

Two permutations are geo-equivalent when the straight-line drawings of
K_{2,n} they induce have the same crossing pattern up to relabeling.  Two
independent decision procedures are provided:

* ``equivalent_bruteforce`` searches for a witness rho whose action carries
  E(sigma) onto E(pi) while acting uniformly (all order-preserving or all
  order-reversing);
* ``equivalent_fast`` compares the permutation digraphs D(sigma) and D(pi)
  up to isomorphism, allowing a global arc reversal.

``enumerate_classes`` partitions all of S_n by a canonical class key read
off each word's substitution decomposition (``class_key``); the
backtracking ``digraphs.canonical_key`` stays the key for general digraphs
and the oracle of this one.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .digraphs import KEY_MAX_N, CanonicalKey
# Not called here; perfbench/spans.py wraps this name on this module.
from .digraphs import _key_from_masks  # noqa: F401
from .graphs import bits
from .perms import (
    OrientationClass,
    Permutation,
    format_word,
    inverse,
    inverse_word,
    inversion_set,
    reverse,
    word_from_masks,
    word_inversion_count,
    word_masks,
)
# Not called here; perfbench/spans.py wraps these two names on this module.
from .perms import is_inversion_set, perm_from_inversion_set  # noqa: F401

ENUMERATION_MAX_N = 9


def equivalent_bruteforce(
    sigma: Permutation, pi: Permutation
) -> Optional[tuple[Permutation, OrientationClass]]:
    """Search S_n for a uniform witness carrying E(sigma) onto E(pi).

    Candidates are tried in lexicographic order, so the witness is
    deterministic.  A witness maps E(sigma) into E(pi) injectively, so it
    is onto exactly when the two sets have one size, which is checked once,
    before the search.  An empty inversion set is vacuously
    order-preserving: the identity, the first candidate, is its witness.
    Practical for n <= 7.
    """
    if sigma.n != pi.n:
        raise ValueError("size mismatch")
    n = sigma.n
    source = [(i - 1, j - 1) for i, j in inversion_set(sigma).sorted_pairs()]
    target = {(i - 1, j - 1) for i, j in inversion_set(pi).pairs}
    if len(source) != len(target):
        return None
    for rho in itertools.permutations(range(n)):
        direction = 0  # +1 preserving, -1 reversing
        for i, j in source:
            a, b = rho[i], rho[j]
            if a < b:
                if direction < 0 or (a, b) not in target:
                    break
                direction = 1
            else:
                if direction > 0 or (b, a) not in target:
                    break
                direction = -1
        else:
            kind = (
                OrientationClass.ALL_PRESERVING
                if direction >= 0
                else OrientationClass.ALL_REVERSING
            )
            return Permutation(tuple(v + 1 for v in rho)), kind
    return None


def equivalent_fast(sigma: Permutation, pi: Permutation) -> bool:
    """Digraph route: related permutation digraphs."""
    if sigma.n != pi.n:
        raise ValueError("size mismatch")
    return class_key(sigma) == class_key(pi)


_SUM, _SKEW, _PRIME = 1 << 5, 2 << 5, 3 << 5  # a node's header is kind | child count
_LEAVES = (b"\x00",) * 2  # the code pair of the word 1, its own inverse
_NIBBLE = "-0123456789abcdef"  # _NIBBLE[v]: the value v of 1..16 as a hex digit
# The sums of the k least and of the k greatest of the values 1..m: a word's
# prefix sum meets them exactly where it has a ⊕ or a ⊖ cut.
_LEAST = tuple(itertools.accumulate(range(1, KEY_MAX_N + 1)))
_GREATEST = [()] + [
    tuple(itertools.accumulate(range(m, 0, -1))) for m in range(1, KEY_MAX_N + 1)
]


def _nibbles(word: Iterable[int]) -> bytes:
    """The values 1..16 of ``word`` as 0..15, two to a byte, zero-padded."""
    digits = "".join(map(_NIBBLE.__getitem__, word))
    return bytes.fromhex(digits + "0" * (len(digits) & 1))


def _block_codes(w: Sequence[int], a: int, b: int, least: int, memo: dict) -> tuple[bytes, bytes]:
    """The code pair of the block w[a:b] whose least value is ``least``,
    normalised to the values 1..b−a, through ``memo``.  The block's key is
    a tuple whether w is bytes or a tuple."""
    if b - a == 1:
        return _LEAVES
    block = tuple([v - least + 1 for v in w[a:b]]) if least > 1 else tuple(w[a:b])
    pair = memo.get(block)
    if pair is None:
        pair = memo[block] = _tree_codes(block, memo)
    return pair


def _smaller(prefix: bytes, order, other_prefix: bytes, other_order) -> tuple:
    """How to build the smaller of two encodings of one prime node: each is
    a prefix of one length followed by the child codes picked in its order.
    Unequal prefixes decide alone; equal ones leave both orders to try."""
    if prefix == other_prefix:
        return prefix, operator.itemgetter(*order), operator.itemgetter(*other_order)
    if other_prefix < prefix:
        prefix, order = other_prefix, other_order
    return prefix, operator.itemgetter(*order), None


def _quotient(by_value: list[int]) -> tuple[tuple, tuple]:
    """A prime node's recipe for its code and its inverse code, given the
    positions of its quotient σ's values 1..k (σ⁻¹, from 0): which prefix
    of header and nibbles wins each ``min`` of ``_tree_codes``, and in what
    order the children's codes follow it."""
    k = len(by_value)
    sigma = [0] * k
    for rank, i in enumerate(by_value, 1):
        sigma[i] = rank
    head = bytes([_PRIME | k])
    return (
        # σ with the children by value; rc(σ⁻¹) with them in reversed position order
        _smaller(
            head + _nibbles(sigma),
            by_value,
            head + _nibbles([k - i for i in reversed(by_value)]),
            range(k - 1, -1, -1),
        ),
        # σ⁻¹ with the inverse codes by position; rc(σ) with them by value, reversed
        _smaller(
            head + _nibbles([i + 1 for i in by_value]),
            range(k),
            head + _nibbles([k + 1 - s for s in reversed(sigma)]),
            by_value[::-1],
        ),
    )


def _tree_codes(w: Sequence[int], memo: dict) -> tuple[bytes, bytes]:
    """The codes of D(w) and of D(w⁻¹) for a word w of the values 1..m,
    bytes or a tuple, from one walk of w's substitution tree: equal codes
    hold exactly for isomorphic digraphs.  ``memo`` holds all the walks
    learn: it maps normalised blocks of w, as tuples, to their code pairs
    (w itself is not stored), and each prime quotient σ met, as
    ``bytes(σ⁻¹)`` from 0, to its ``_quotient`` recipe.  A tuple key never
    equals a bytes key.  Every prime quotient is a simple permutation, and
    S₈ has only 3 318 of them.  See ``_word_key``."""
    m = len(w)
    if m == 1:
        return _LEAVES
    if m > KEY_MAX_N:
        raise ValueError(f"class keys are supported for n <= {KEY_MAX_N}")
    sums = list(itertools.accumulate(w))
    gaps = list(map(operator.sub, sums, _LEAST))
    if gaps.count(0) > 1:  # ⊕ blocks: no arcs between them
        cuts = [k for k, gap in enumerate(gaps, 1) if not gap]
        codes, inverse_codes = zip(
            *[_block_codes(w, a, b, a + 1, memo) for a, b in zip([0, *cuts], cuts)]
        )
        head = bytes([_SUM | len(cuts)])
        return head + b"".join(sorted(codes)), head + b"".join(sorted(inverse_codes))
    gaps = list(map(operator.sub, _GREATEST[m], sums))
    if gaps.count(0) > 1:  # ⊖ blocks: every arc joins an earlier block to a later one
        cuts = [k for k, gap in enumerate(gaps, 1) if not gap]
        codes, inverse_codes = zip(
            *[_block_codes(w, a, b, m - b + 1, memo) for a, b in zip([0, *cuts], cuts)]
        )
        head = bytes([_SKEW | len(cuts)])
        return head + b"".join(codes), head + b"".join(reversed(inverse_codes))
    # Prime: the children are the maximal proper intervals, left to right.
    pairs, mins = [], []
    a = 0
    while a < m:
        lo = hi = least = w[a]
        b = a + 1
        for j in range(a + 1, m if a else m - 1):
            v = w[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - a:
                b, least = j + 1, lo
        pairs.append(_block_codes(w, a, b, least, memo))
        mins.append(least)
        a = b
    by_value = sorted(range(len(mins)), key=mins.__getitem__)  # σ⁻¹, from 0
    key = bytes(by_value)
    recipe = memo.get(key)
    if recipe is None:
        recipe = memo[key] = _quotient(by_value)
    (prefix, pick, tie), (inverse_prefix, inverse_pick, inverse_tie) = recipe
    codes, inverse_codes = zip(*pairs)
    code = prefix + b"".join(pick(codes))
    if tie:
        code = min(code, prefix + b"".join(tie(codes)))
    inverse_code = inverse_prefix + b"".join(inverse_pick(inverse_codes))
    if inverse_tie:
        inverse_code = min(inverse_code, inverse_prefix + b"".join(inverse_tie(inverse_codes)))
    return code, inverse_code


def _separable_count(code: bytes, i: int = 0) -> tuple[int, int]:
    """How many words have a digraph with the code that starts at
    ``code[i]``, and where that code ends.  A count of 0 says the code has
    a prime node, which this reader leaves to enumeration; the reading
    stops at its header.

    A leaf counts 1.  A ⊖ node's blocks keep their order, so it counts the
    product of its children's counts.  A ⊕ node's blocks may come in any
    order, but swapping two blocks of one code gives the same word, so it
    counts k! over the factorials of the multiplicities of its child
    codes, times their product; its child codes are sorted, so equal ones
    are adjacent.  For 13254, the ⊕ of 1, 21 and 21, that is 3!/2! = 3:

    >>> _separable_count(_word_key((1, 3, 2, 5, 4)))[0]
    3
    """
    kind, k = code[i] & ~31, code[i] & 31  # a leaf, the byte 0, has no children
    if kind == _PRIME:
        return 0, i + 1
    count, children, i = 1, [], i + 1
    for _ in range(k):
        child, end = _separable_count(code, i)
        if not child:
            return 0, end
        count *= child
        children.append(code[i:end])
        i = end
    if kind == _SUM:
        count *= math.factorial(k)
        for _, run in itertools.groupby(children):
            count //= math.factorial(len(list(run)))
    return count, i


def _word_key(word: tuple[int, ...]) -> CanonicalKey:
    """Canonical key of the permutation digraph D(w), read off the
    substitution decomposition of the word (Albert & Atkinson, "Simple
    permutations and pattern restricted permutations", 2005).

    The word splits into ⊕ blocks where its prefix maximum equals the
    prefix length (where the prefix sum is the least possible); D has no
    arcs between them, so the blocks' codes are sorted.  Otherwise it splits
    into ⊖ blocks where the first k values are the k greatest; D is then
    the ordinal sum of the blocks, so their codes stay in position order.
    Otherwise the node is prime: its k ≥ 4 children are the maximal proper
    intervals, taken greedily from the left, and every other proper
    interval lies inside one of them because the quotient σ (the ranks of
    the blocks' minima) is simple.  D is D(σ) with the vertex of each value
    rank replaced by its block's digraph.  D(σ) and its incomparability
    graph are prime, so each has only two transitive orientations, and the
    only words whose digraph is isomorphic to D(σ) are σ and rc(σ⁻¹); the
    isomorphism v ↦ k+1−pos(v) gives rc(σ⁻¹) the block at position i of σ
    as its block of value rank k+1−i.  So the node's code is the smaller of
    σ followed by the child codes by value, and rc(σ⁻¹) followed by them in
    reversed position order.

    The same walk codes D(w⁻¹) (``_tree_codes``).  Inverting a ⊕ node
    inverts its blocks in place, and inverting a ⊖ node reverses their
    order.  A prime node σ[α₁..α_k] inverts to σ⁻¹ with the block of value
    rank j of w, inverted, at position j: w⁻¹'s children by position are
    w's children by value, and by value they are w's children by position.
    So the inverse code is the smaller of σ⁻¹ followed by the children's
    inverse codes in w's position order, and rc(σ) followed by them in w's
    value order, reversed.  For 35124, which is 2413 inflated by 12 at its
    value 1:

    >>> code, inverse_code = _tree_codes((3, 5, 1, 2, 4), {})
    >>> inverse_code == _word_key(inverse_word((3, 5, 1, 2, 4)))
    True
    >>> inverse_code == code
    False

    A leaf is the byte 0; a node is a header byte ``kind << 5 | child
    count``, then for a prime node σ in nibbles, then the child codes.  The
    code is prefix-free and fixes n, so it carries no length; at n = 8 it
    is at most 15 bytes.  Words longer than ``KEY_MAX_N`` are refused.
    """
    return _tree_codes(word, {})[0]


def class_key(p: Permutation) -> CanonicalKey:
    """Key shared by exactly the geo-equivalence class of p.

    The smaller of the keys of D(p) and of D(p) with all arcs reversed;
    reversal is what identifies a drawing with its apex swap, and D(p)
    reversed is isomorphic to D(p⁻¹).  One walk of p's substitution tree
    gives both keys; no masks are built and no search runs: see
    ``_word_key``.
    """
    return min(_tree_codes(p.word, {}))


def four_family(p: Permutation) -> tuple[Permutation, Permutation, Permutation, Permutation]:
    """The four algebraically related members of p's class.

    p, its inverse, the reverse-inverse-reverse, and that one's inverse are
    always geo-equivalent; the multiset may contain 4, 2 or 1 distinct
    words.
    """
    q = reverse(inverse(reverse(p)))
    return (p, inverse(p), q, inverse(q))


def class_members(p: Permutation) -> tuple[Permutation, ...]:
    """Every permutation geo-equivalent to p, in lexicographic order.

    The class is every w with D(w) isomorphic to D(p) or to D(p) reversed.
    One scan of the vertex bijections g of D(p) keeps those under which
    every arc rises, and ``word_from_masks`` keeps the images that are the
    digraph of some word.  This finds every w with D(w) ≅ D(p): an
    isomorphism onto D(w) sends arcs to arcs of D(w), and those all rise.
    The rest of the class is their inverses: D(x⁻¹) is isomorphic to D(x)
    reversed, so D(x) ≅ D(p) reversed exactly when D(x⁻¹) ≅ D(p), and
    inversion is a bijection of S_n.  The identity has no arcs, so every
    bijection would rise; it is alone in its class.  The scan stays usable
    through n = 9 without enumerating the class table.
    """
    if p.n > ENUMERATION_MAX_N:
        raise ValueError(f"class membership scans are bounded to n <= {ENUMERATION_MAX_N}")
    n = p.n
    arcs = [(u, v) for u, m in enumerate(word_masks(p.word)[0]) for v in bits(m)]
    if not arcs:
        return (p,)  # only the identity has no inversions
    words = set()
    for g in itertools.permutations(range(n)):
        for u, v in arcs:
            if g[u] > g[v]:
                break
        else:
            out = [0] * n
            inn = [0] * n
            for u, v in arcs:
                out[g[u]] |= 1 << g[v]
                inn[g[v]] |= 1 << g[u]
            word = word_from_masks(out, inn)
            if word is not None:
                words.add(word)
    words |= {inverse_word(w) for w in words}
    return tuple(Permutation(w) for w in sorted(words))


# ---------------------------------------------------------------------------
# class tables


@dataclass(frozen=True, slots=True)
class GeoClass:
    """One geo-equivalence class of S_n.

    The class keeps words, not ``Permutation``s, each as ``bytes``, one
    byte per value: ``word`` is the representative's (in a table, the least
    member's) and ``words`` the members', in ascending order.
    ``representative`` and ``members`` build the ``Permutation``s on
    demand, through ``tuple(w)``.
    """

    label: str
    inversions: int
    word: bytes
    words: tuple[bytes, ...]
    key: CanonicalKey
    # D(representative) is isomorphic to its own arc reversal.  False only
    # means "not known" on a class built by hand: ``poset`` then makes one
    # search more, never a wrong decision.  Not serialized.
    self_related: bool = False

    @property
    def representative(self) -> Permutation:
        return Permutation._unchecked(tuple(self.word))

    @property
    def members(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._unchecked, map(tuple, self.words)))

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class ClassTable:
    """All geo-equivalence classes of S_n, deterministically ordered.

    Classes are sorted by (inversion count, lexicographically least member)
    and labeled "k.m" with m counting within inversion count k.  Published
    tables use the same shape but may number classes differently, so
    comparisons go through member sets, never labels.  ``index`` maps
    every member word to its class's index, and ``class_of`` reads it.
    """

    n: int
    classes: tuple[GeoClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)

    @cached_property
    def index(self) -> dict[bytes, int]:
        """The index of the class of every member, keyed by its word as
        ``bytes``."""
        return {w: k for k, c in enumerate(self.classes) for w in c.words}

    def class_of(self, p: Permutation) -> GeoClass:
        try:
            # bytes() refuses a value past 255: no class holds that word
            return self.classes[self.index[bytes(p.word)]]
        except (KeyError, ValueError):
            raise KeyError(f"{p} is not a member of any class (n mismatch?)") from None

    def to_json_obj(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "count": self.count,
            "classes": [
                {
                    "label": c.label,
                    "inversions": c.inversions,
                    "representative": format_word(c.word),
                    "members": list(map(format_word, c.words)),
                }
                for c in self.classes
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ClassTable":
        """The table ``to_json_obj`` wrote, recomputed from ``obj["n"]``.

        Only n is read: ``enumerate_classes(n)`` builds the table, and
        ``obj`` must equal exactly what ``to_json_obj`` writes for it.  To
        check a stored grouping takes a key per orbit of words, which is the
        enumeration itself, so no other field is trusted.  Raises ValueError
        when ``obj`` is not a dict, when n is not an int in
        1..``ENUMERATION_MAX_N`` or when ``obj`` differs from the table in
        any field.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"the entry is not an object: {obj!r}")
        n = obj.get("n")
        if type(n) is not int:
            raise ValueError(f"the entry's n is not an int: {n!r}")
        table = enumerate_classes(n)
        if table.to_json_obj() != obj:
            raise ValueError(f"the entry is not the table of S_{n}")
        return table

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)``, byte for byte
        (``test_to_json_is_the_generic_encoding`` holds it so), written
        from the classes without the object or the generic encoder: see
        ``_json_pieces``."""
        return "".join(self._json_pieces())

    def _json_pieces(self) -> Iterator[str]:
        """The text of ``to_json``: the head, one string per class, then
        the tail.  The indent=2 layout is written here, and every label is
        quoted by ``encode_basestring_ascii``, as ``json.dumps`` quotes it
        with its default ``ensure_ascii``; a word's text is digits and
        commas, which need no escape.  The generic encoder would hold about
        9 times the text in chunks."""
        quote = json.encoder.encode_basestring_ascii
        yield f'{{\n  "schema_version": 1,\n  "n": {self.n},\n  "count": {self.count},\n  "classes": ['
        sep = "\n    "
        for c in self.classes:
            members = '",\n        "'.join(map(format_word, c.words))
            members = f'[\n        "{members}"\n      ]' if c.words else "[]"
            yield (
                f'{sep}{{\n      "label": {quote(c.label)},\n      "inversions": {c.inversions},\n'
                f'      "representative": "{format_word(c.word)}",\n      "members": {members}\n    }}'
            )
            sep = ",\n    "
        yield "\n  ]\n}" if self.classes else "]\n}"

    def _heads(self) -> Iterator[tuple[str, ...]]:
        """The first four columns of ``_rows``, without the members."""
        yield ("label", "inversions", "size", "representative")
        for c in self.classes:
            yield (c.label, str(c.inversions), str(c.size), format_word(c.word))

    def _rows(self) -> Iterator[tuple[str, ...]]:
        """The header, then one row per class: the columns of the CSV and of
        the CLI's text table, made one at a time."""
        heads = self._heads()
        yield (*next(heads), "members")
        for head, c in zip(heads, self.classes):
            yield (*head, " ".join(map(format_word, c.words)))

    def _write_csv(self, fh: TextIO) -> None:
        """Write the CSV to ``fh`` row by row."""
        csv.writer(fh, lineterminator="\n").writerows(self._rows())

    def to_csv(self) -> str:
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()


def enumerate_classes(n: int) -> ClassTable:
    """Partition all of S_n into geo-equivalence classes.

    One walk serves each orbit {w, w⁻¹, rc(w), rc(w⁻¹)}, rc being
    reverse-complement: inverting a word reverses every arc of its digraph,
    and so does rc, so the relabelling v ↦ n+1−pos(v) carries D(w) onto
    D(rc(w⁻¹)) and D(w⁻¹) onto D(rc(w)).  The walk gives the keys of D(w)
    and D(w⁻¹), and the smaller is the class key of all four words; at
    n = 8 that is 10 558 walks for 40 320 words.  The class is
    self-related (D(w) isomorphic to its reversal) when the two are equal,
    which any orbit of the class shows alike.  The walks share one memo,
    of their blocks' codes and their prime quotients' recipes.  The words
    are ``bytes``, one byte per value, and each orbit image is one
    ``bytes.translate``: w⁻¹ is the identity word translated by the table
    that sends w's values to their positions, and rc(x) is x reversed with
    every value v translated to n+1−v.  The words themselves are grouped
    and kept as the members: no ``Permutation`` is built.  The dict over
    all n! words goes before the groups are sorted, and the groups before
    the classes are built, so neither is held with the table.  Refuses any
    n that is not an int in 1..9: the scan is exact and the factorial
    growth makes larger n a different project.
    """
    if type(n) is not int or not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(
            f"class enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; got n={n!r}"
        )
    # Lexicographic order, kept by the dict: the first word of each orbit
    # met is the one walked, and each group below is built in order.
    ident = bytes(range(1, n + 1))
    key_of = dict.fromkeys(map(bytes, itertools.permutations(ident)))
    flip = bytes.maketrans(ident, ident[::-1])  # v ↦ n+1−v
    memo: dict = {}
    self_related = set()
    for w, ck in key_of.items():
        if ck is None:
            inv = ident.translate(bytes.maketrans(w, ident))
            code, inverse_code = _tree_codes(w, memo)
            if code == inverse_code:
                self_related.add(code)
            ck = min(code, inverse_code)
            key_of[w] = key_of[inv] = ck
            key_of[w[::-1].translate(flip)] = key_of[inv[::-1].translate(flip)] = ck
    del memo

    groups: dict[CanonicalKey, list[bytes]] = {}
    for w, ck in key_of.items():
        groups.setdefault(ck, []).append(w)
    del key_of
    # Sorted by (inversion count, least member) and labeled "k.m"; least
    # members are distinct, so the sort never compares past the word.
    ordered = sorted(
        (word_inversion_count(ws[0]), ws[0], tuple(ws), ck) for ck, ws in groups.items()
    )
    del groups
    classes = []
    for inv, run in itertools.groupby(ordered, key=lambda item: item[0]):
        for within, (_, least, words, ck) in enumerate(run, start=1):
            classes.append(GeoClass(f"{inv}.{within}", inv, least, words, ck, ck in self_related))
    assert sum(c.size for c in classes) == math.factorial(n)
    return ClassTable(n, tuple(classes))


# ---------------------------------------------------------------------------
# comparison against the published S_5 partition


@dataclass(frozen=True)
class ReferenceComparison:
    n: int
    exact_matches: int
    explained: tuple[tuple[str, str, str], ...]  # (ref label, spurious word, actual word)
    unexplained: tuple[str, ...]  # ref labels that could not be reconciled
    duplicate_word: str
    duplicate_home: str  # our label for the class genuinely holding the word

    @property
    def ok(self) -> bool:
        return not self.unexplained

    def describe(self) -> str:
        lines = [
            f"reference classes matched exactly: {self.exact_matches}",
        ]
        for label, spurious, actual in self.explained:
            lines.append(
                f"reference class {label}: listed word {spurious} belongs elsewhere; "
                f"enumeration puts {actual} in this class"
            )
        if self.duplicate_word:
            lines.append(
                f"duplicated word {self.duplicate_word} enumerates into our class "
                f"{self.duplicate_home}"
            )
        for label in self.unexplained:
            lines.append(f"reference class {label}: UNEXPLAINED mismatch")
        return "\n".join(lines)


def load_s5_reference() -> dict:
    with resources.files("geoposet.data").joinpath("s5_classes.json").open() as fh:
        return json.load(fh)


def compare_with_reference(table: ClassTable, reference: dict) -> ReferenceComparison:
    """Compare an enumerated table against a published partition.

    Comparison is by member sets; labels never participate.  A reference
    class that differs from the best-overlapping enumerated class by
    exactly one word, where that word is the annotated duplicate, counts as
    explained rather than a failure.
    """
    if table.n != reference["n"]:
        raise ValueError("reference table is for a different n")
    ours = {frozenset(map(format_word, c.words)): c for c in table.classes}
    dup = reference.get("known_issues", {}).get("duplicated_member", "")
    dup_home = ""
    if dup:
        home = table.class_of(Permutation(tuple(int(ch) for ch in dup)))
        dup_home = home.label
    exact = 0
    explained = []
    unexplained = []
    for ref_class in reference["classes"]:
        ref_set = frozenset(ref_class["members"])
        if ref_set in ours:
            exact += 1
            continue
        best = max(ours, key=lambda s: len(s & ref_set))
        missing = ref_set - best
        extra = best - ref_set
        if missing == {dup} and len(extra) == 1:
            explained.append((ref_class["label"], dup, next(iter(extra))))
        else:
            unexplained.append(ref_class["label"])
    return ReferenceComparison(
        n=table.n,
        exact_matches=exact,
        explained=tuple(explained),
        unexplained=tuple(unexplained),
        duplicate_word=dup,
        duplicate_home=dup_home,
    )
