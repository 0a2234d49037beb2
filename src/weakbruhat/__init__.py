"""Exact arithmetic for rank generating functions of weak-order
intervals in the symmetric group, with closed formulas on separable
permutations and exhaustive verification tooling."""

from .bijection import build_pair_table, check_bijection, invert_phi, phi, phi_inverter
from .errors import (
    CheckpointError,
    GuardExceeded,
    IncomparableEndpoints,
    InternalInversionFailure,
    NonzeroRemainder,
    Not231Avoiding,
    NotSeparable,
)
from .perm import (
    Permutation,
    all_permutations,
    compose,
    identity,
    leq_weak,
    longest_element,
    parse_permutation,
)
from .poset import (
    Poset,
    descent_gf,
    disjoint_union,
    inversion_poset,
    le_gf,
    linear_extensions,
    order_polynomial_values,
    ordinal_sum,
)
from .qpoly import (
    IntPoly,
    cyclotomic,
    is_cyclotomic_product,
    q_binomial,
    q_factorial,
    q_int,
)
from .separable import (
    gf_above_closed,
    gf_above_from_complement,
    gf_above_recursive,
    gf_below_231,
    gf_below_closed,
    gf_below_recursive,
    is_separable,
    separating_tree,
)
from .survey import SurveyRecord, SurveyReport, iter_records, scan, schroder
from .weak_order import (
    Interval,
    all_saturated_chains,
    interval,
    rank_gf,
    reduced_words,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "GuardExceeded",
    "IncomparableEndpoints",
    "InternalInversionFailure",
    "IntPoly",
    "Interval",
    "NonzeroRemainder",
    "Not231Avoiding",
    "NotSeparable",
    "Permutation",
    "Poset",
    "SurveyRecord",
    "SurveyReport",
    "all_permutations",
    "all_saturated_chains",
    "build_pair_table",
    "check_bijection",
    "compose",
    "cyclotomic",
    "descent_gf",
    "disjoint_union",
    "gf_above_closed",
    "gf_above_from_complement",
    "gf_above_recursive",
    "gf_below_231",
    "gf_below_closed",
    "gf_below_recursive",
    "identity",
    "interval",
    "inversion_poset",
    "invert_phi",
    "is_cyclotomic_product",
    "is_separable",
    "iter_records",
    "le_gf",
    "leq_weak",
    "linear_extensions",
    "longest_element",
    "order_polynomial_values",
    "ordinal_sum",
    "parse_permutation",
    "phi",
    "phi_inverter",
    "q_binomial",
    "q_factorial",
    "q_int",
    "rank_gf",
    "reduced_words",
    "scan",
    "schroder",
    "separating_tree",
]
