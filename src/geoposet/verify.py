"""Cross-module property suites behind the ``verify`` command.

Each suite checks one identity that ties at least two independent code
paths together, exhaustively up to the requested size and by fixed-seed
sampling above it.  The summary is machine-readable; any failed suite makes
the command exit nonzero.
"""

from __future__ import annotations

import random
from typing import Callable

from .digraphs import (
    Digraph,
    canonical_key,
    enumerate_transitive_orientations,
    from_perm,
    reverse as arc_reverse,
)
from .geoequiv import (
    class_key,
    compare_with_reference,
    enumerate_classes,
    equivalent_bruteforce,
    equivalent_fast,
    four_family,
    load_s5_reference,
)
from .geometry import build_realization, crossings
from .graphs import complete_graph, cycle_graph, inversion_graph
from .moddecomp import (
    cograph_class_size,
    count_transitive_orientations,
    is_cograph,
    prime_unique_orientability_check,
)
from .perms import (
    Permutation,
    all_permutations,
    check_symmetric_difference,
    inverse,
    inversion_set,
    perm_from_inversion_set,
)
from .poset import bruhat_extension_check, build_poset, is_graded

# The largest N_MAX the ``verify`` command accepts.
VERIFY_MAX_N = 6

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 39, 6: 182, 7: 1033, 8: 7605, 9: 66302}
SCHROEDER = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90, 6: 394, 7: 1806}


def _random_word(rng: random.Random, n: int) -> Permutation:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Permutation(tuple(word))


def _suite_inversion_round_trip(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 5)
    count = 0
    for n in range(1, top + 1):
        for p in all_permutations(n):
            if perm_from_inversion_set(inversion_set(p)) != p:
                return False, f"round trip failed at {p}"
            count += 1
    return True, f"rebuilt {count} words from their inversion sets (n <= {top})"


def _suite_symmetric_difference(n_max: int, workers: int, rng: random.Random):
    checked = 0
    for n in range(1, min(n_max, 4) + 1):
        for rho in all_permutations(n):
            for sigma in all_permutations(n):
                if not check_symmetric_difference(rho, sigma):
                    return False, f"identity failed at rho={rho} sigma={sigma}"
                checked += 1
    for n in range(5, 10):
        for _ in range(60):
            rho, sigma = _random_word(rng, n), _random_word(rng, n)
            if not check_symmetric_difference(rho, sigma):
                return False, f"identity failed at rho={rho} sigma={sigma}"
            checked += 1
    return True, f"action equals symmetric difference on {checked} pairs"


def _suite_inverse_relation(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 5)
    for n in range(1, top + 1):
        for p in all_permutations(n):
            pos = p.positions()
            expected = {(pos[j - 1], pos[i - 1]) for i, j in inversion_set(p).pairs}
            if inversion_set(inverse(p)).pairs != expected:
                return False, f"inverse relation failed at {p}"
    return True, f"inverse pair relation holds exhaustively (n <= {top})"


def _suite_reverse_digraph(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 5)
    for n in range(1, top + 1):
        for p in all_permutations(n):
            if canonical_key(arc_reverse(from_perm(p))) != canonical_key(
                from_perm(inverse(p))
            ):
                return False, f"reversal/inverse mismatch at {p}"
    return True, f"arc reversal matches the inverse digraph (n <= {top})"


def _suite_key_relabeling(n_max: int, workers: int, rng: random.Random):
    for _ in range(25):
        n = rng.randint(2, 6)
        p = _random_word(rng, n)
        d = from_perm(p)
        base = canonical_key(d)
        image = rng.sample(range(1, n + 1), n)
        relabel = dict(zip(range(1, n + 1), image))
        moved = Digraph(n, frozenset((relabel[u], relabel[v]) for u, v in d.arcs))
        if canonical_key(moved) != base:
            return False, f"key changed under relabeling of {p}"
    return True, "canonical keys are relabeling-invariant on 25 samples"


def _suite_fast_vs_bruteforce(n_max: int, workers: int, rng: random.Random):
    checked = 0
    for n in range(1, min(n_max, 4) + 1):
        perms = list(all_permutations(n))
        for sigma in perms:
            for pi in perms:
                if equivalent_fast(sigma, pi) != (
                    equivalent_bruteforce(sigma, pi) is not None
                ):
                    return False, f"oracles disagree on ({sigma}, {pi})"
                checked += 1
    for n in (5, 6):
        if n > n_max:
            break
        for _ in range(150):
            sigma, pi = _random_word(rng, n), _random_word(rng, n)
            if equivalent_fast(sigma, pi) != (
                equivalent_bruteforce(sigma, pi) is not None
            ):
                return False, f"oracles disagree on ({sigma}, {pi})"
            checked += 1
    return True, f"digraph and witness-search oracles agree on {checked} pairs"


def _suite_geometry(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 5)
    count = 0
    for n in range(1, top + 1):
        for p in all_permutations(n):
            if crossings(build_realization(p)).pairs != inversion_set(p).pairs:
                return False, f"crossing set mismatch at {p}"
            count += 1
    return True, f"template crossings equal inversion sets for {count} words"


def _suite_orientation_count(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 5)
    for p in all_permutations(top):
        g = inversion_graph(p)
        if count_transitive_orientations(g) != len(
            enumerate_transitive_orientations(g)
        ):
            return False, f"count mismatch on the inversion graph of {p}"
        if not prime_unique_orientability_check(g):
            return False, f"prime quotient not uniquely orientable for {p}"
    if count_transitive_orientations(complete_graph(5)) != 120:
        return False, "complete graph count wrong"
    if count_transitive_orientations(cycle_graph(5)) != 0:
        return False, "five-cycle should not be orientable"
    return True, f"decomposition count matches enumeration on all of S_{top}"


def _suite_cograph_sizes(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 6)
    checked = 0
    for n in range(1, top + 1):
        table = enumerate_classes(n, workers=workers)
        for p in all_permutations(n):
            if is_cograph(inversion_graph(p)):
                if cograph_class_size(p).class_size != table.class_of(p).size:
                    return False, f"class size formula wrong at {p}"
                checked += 1
    return True, f"closed-form class sizes match enumeration for {checked} cograph words"


def _suite_schroeder(n_max: int, workers: int, rng: random.Random):
    top = min(n_max, 6)
    got = []
    for n in range(1, top + 1):
        got.append(
            sum(1 for p in all_permutations(n) if is_cograph(inversion_graph(p)))
        )
    want = [SCHROEDER[n] for n in range(1, top + 1)]
    if got != want:
        return False, f"cograph counts {got} != Schroeder prefix {want}"
    return True, f"cograph counts follow the large Schroeder numbers: {got}"


def _suite_class_counts(n_max: int, workers: int, rng: random.Random):
    got = {}
    for n in range(1, n_max + 1):
        got[n] = enumerate_classes(n, workers=workers).count
        if got[n] != CLASS_COUNTS[n]:
            return False, f"class count at n={n}: {got[n]} != {CLASS_COUNTS[n]}"
    return True, f"class counts match the known sequence: {list(got.values())}"


def _suite_reference_table(n_max: int, workers: int, rng: random.Random):
    if n_max < 5:
        return True, "skipped (needs n_max >= 5)"
    report = compare_with_reference(
        enumerate_classes(5, workers=workers), load_s5_reference()
    )
    if not report.ok:
        return False, report.describe()
    return True, report.describe().replace("\n", "; ")


def _suite_poset(n_max: int, workers: int, rng: random.Random):
    poset3 = build_poset(3)
    chain = all(
        poset3.is_leq(i, j) == (i <= j) for i in range(4) for j in range(4)
    )
    if not chain:
        return False, "the order on the classes of S_3 is not the expected chain"
    details = ["S_3 is a 4-chain"]
    for n in range(4, min(n_max, 5) + 1):
        poset = build_poset(n, workers=workers)
        if not poset.is_bounded():
            return False, f"poset for n={n} is not bounded"
        graded, witnesses = is_graded(poset)
        if not graded:
            return False, f"poset for n={n} not graded: {witnesses[:3]}"
        ok, failures = bruhat_extension_check(n, poset)
        if not ok:
            return False, f"Bruhat containment not honored at n={n}: {failures[:3]}"
        details.append(f"n={n} bounded, graded, extends Bruhat")
    return True, "; ".join(details)


def _suite_four_family(n_max: int, workers: int, rng: random.Random):
    for _ in range(40):
        n = rng.randint(1, 7)
        p = _random_word(rng, n)
        base = class_key(p)
        for member in four_family(p):
            if class_key(member) != base:
                return False, f"family member {member} escapes the class of {p}"
    return True, "four-member families stay inside their class on 40 samples"


_SUITES: list[tuple[str, Callable]] = [
    ("inversion-round-trip", _suite_inversion_round_trip),
    ("symmetric-difference", _suite_symmetric_difference),
    ("inverse-pair-relation", _suite_inverse_relation),
    ("reverse-digraph", _suite_reverse_digraph),
    ("key-relabeling", _suite_key_relabeling),
    ("fast-vs-bruteforce", _suite_fast_vs_bruteforce),
    ("geometry-crossings", _suite_geometry),
    ("orientation-count", _suite_orientation_count),
    ("cograph-class-sizes", _suite_cograph_sizes),
    ("schroeder-count", _suite_schroeder),
    ("class-counts", _suite_class_counts),
    ("reference-table", _suite_reference_table),
    ("poset-structure", _suite_poset),
    ("four-family", _suite_four_family),
]


def run_verification(n_max: int, workers: int = 1) -> dict:
    results = []
    ok = True
    for name, fn in _SUITES:
        rng = random.Random(f"geoposet:{name}:{n_max}")
        passed, detail = fn(n_max, workers, rng)
        ok &= passed
        results.append({"name": name, "ok": passed, "detail": detail})
    return {"schema_version": 1, "n_max": n_max, "ok": ok, "suites": results}
