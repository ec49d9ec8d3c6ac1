"""Geo-equivalence classes of permutations and the homomorphism poset of
straight-line drawings of K_{2,n}.

Crossings in a drawing correspond to inversions of a permutation word, so
classifying drawings up to crossing-preserving isomorphism reduces to
grouping S_n by their permutation digraphs modulo relabeling and arc
reversal.  The package builds those classes, sizes them through modular
decomposition, orders them by crossing-pattern embedding, and backs the
whole chain with an exact rational geometry oracle.

The submodules and the names imported here are the public API.
"""

from .digraphs import (
    CanonicalKey,
    Digraph,
    canonical_key,
    canonical_key_hex,
    enumerate_transitive_orientations,
    induced_permutation,
    is_isomorphic,
    is_transitive,
    related,
    spanning_embeds,
)
from .geoequiv import (
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
from .geometry import (
    GeneralPositionError,
    Realization,
    build_realization,
    crossing_pairs,
    crossings,
    recover_permutation,
    recover_with_relabeling,
    render_svg,
    validate_general_position,
)
from .graphs import Graph, complete_graph, cycle_graph, empty_graph, inversion_graph, path_graph
from .moddecomp import (
    ClassSizeReport,
    MDNode,
    MDTree,
    NodeKind,
    cograph_class_size,
    count_transitive_orientations,
    decompose,
    is_cograph,
    is_module,
    prime_unique_orientability_check,
)
from .perms import (
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
)
from .poset import (
    HasseDiagram,
    Poset,
    bruhat_below,
    bruhat_covers,
    bruhat_extension_check,
    build_poset,
    hasse,
    is_graded,
    precedes,
)

__version__ = "0.1.0"

