"""The package's public surface: the names ``geoposet/__init__.py`` imports,
and the examples in its docstrings."""

import doctest
import importlib
import pkgutil

import geoposet

PUBLIC_NAMES = """
CanonicalKey ClassSizeReport ClassTable Digraph GeneralPositionError GeoClass
Graph HasseDiagram MDNode MDTree NodeKind OrientationClass PairSet Permutation
Poset Realization act all_permutations bruhat_below bruhat_covers
bruhat_extension_check build_poset build_realization canonical_key
canonical_key_hex check_symmetric_difference class_key class_members
cograph_class_size compare_with_reference complete_graph compose
count_transitive_orientations crossing_pairs crossings cycle_graph decompose
empty_graph enumerate_classes enumerate_transitive_orientations
equivalent_bruteforce equivalent_fast four_family hasse identity
induced_permutation inverse inversion_count inversion_graph inversion_set
is_cograph is_graded is_inversion_set is_isomorphic is_module is_transitive
load_s5_reference parse path_graph perm_from_inversion_set precedes
prime_unique_orientability_check recover_permutation recover_with_relabeling
related render_svg reverse spanning_embeds validate_general_position
""".split()


def test_public_names_resolve():
    assert len(PUBLIC_NAMES) == 69
    assert [name for name in PUBLIC_NAMES if not hasattr(geoposet, name)] == []


def test_docstring_examples_pass():
    modules = [geoposet] + [
        importlib.import_module(f"geoposet.{info.name}")
        for info in pkgutil.iter_modules(geoposet.__path__)
    ]
    results = {module.__name__: doctest.testmod(module) for module in modules}
    assert [name for name, result in results.items() if result.failed] == []
    assert sum(result.attempted for result in results.values()) >= 6
