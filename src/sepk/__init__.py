"""Exact K-theory workbench for separated graph algebras.

A separated graph is a finite directed graph with a chosen partition of each
incoming-edge set.  This package computes the K-groups of the associated
graph algebra and of its tame quotient exactly: integer Smith/Hermite normal
forms drive the group computations, graph rewrites (multiresolution, the
canonical bipartite sequence, the bipartite companion) supply the tame
corrections, and a small symbolic calculus builds and verifies the explicit
partial-unitary generators of K_1.
"""

from .exact_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    in_lattice_span,
    kernel_basis,
    smith_normal_form,
)
from .formal_star import (
    FormalExpr,
    FormalMatrix,
    GeneratorMatrices,
    StarContext,
    build_generator_matrices,
    verify_partial_unitary,
)
from .graph_model import (
    Edge,
    GraphFormatError,
    GroupKey,
    ParameterRangeError,
    SeparatedGraph,
    ValidationReport,
    builtin,
    builtin_from_spec,
    group_label,
    parse,
    serialize,
    validate,
)
from .ktheory import (
    CharacterAssignment,
    IncidencePair,
    KGroups,
    NotInKernelError,
    TameK0Result,
    connecting_map_image,
    extend_character,
    incidence,
    k0_tame,
    k1_tame,
    k_groups_full,
    monoid_universal_group,
    phi_transport,
)
from .transform import (
    BudgetExceededError,
    CanonicalSequence,
    PreconditionError,
    ValidationError,
    bipartite_companion,
    canonical_sequence,
    canonical_step,
    multiresolution_at,
    root_of,
    w_count_formula,
)

__all__ = [
    "AbelianGroupInvariants",
    "BudgetExceededError",
    "CanonicalSequence",
    "CharacterAssignment",
    "Edge",
    "FormalExpr",
    "FormalMatrix",
    "GeneratorMatrices",
    "GraphFormatError",
    "GroupKey",
    "IncidencePair",
    "IntMatrix",
    "KGroups",
    "NotInKernelError",
    "ParameterRangeError",
    "PreconditionError",
    "SeparatedGraph",
    "StarContext",
    "TameK0Result",
    "ValidationError",
    "ValidationReport",
    "bipartite_companion",
    "build_generator_matrices",
    "builtin",
    "builtin_from_spec",
    "canonical_sequence",
    "canonical_step",
    "cokernel_invariants",
    "connecting_map_image",
    "extend_character",
    "group_label",
    "in_lattice_span",
    "incidence",
    "k0_tame",
    "k1_tame",
    "k_groups_full",
    "kernel_basis",
    "monoid_universal_group",
    "multiresolution_at",
    "parse",
    "phi_transport",
    "root_of",
    "serialize",
    "smith_normal_form",
    "validate",
    "verify_partial_unitary",
    "w_count_formula",
]
