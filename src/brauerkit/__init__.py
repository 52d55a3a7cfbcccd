"""Exact arithmetic for alternating forms on (Z/r)^(2g).

The package computes, over the homocyclic group (Z/r)^(2g) with its
standard symplectic pairing, the submodule of alternating forms that
vanish on all isotropic pairs, the intersection of restriction kernels
over families of rank-two subgroups, and the component counts of the
attached unramified cyclic covers.  Everything is integer arithmetic;
no floats, no approximation.
"""

from .brauer import (
    MODE_ALL_PAIRS,
    MODE_PRIMITIVE_PAIRS,
    BicyclicFamily,
    FormSubmodule,
    InclusionReport,
    all_bicyclics,
    bogomolov_intersection,
    compute_G,
    isotropic_bicyclics,
    restriction_kernel,
    verify_main_inclusions,
)
from .covers import (
    BadModelError,
    CoverModel,
    fixed_locus_count_r2,
    picard_quotient_order,
    prym_component_count,
    quotient_component_count,
    twisted_norm_exponent,
)
from .finab import (
    CapExceededError,
    FinAbGroup,
    GroupElement,
    NonHomocyclicError,
    Subgroup,
    TableTooLargeError,
    cartier_dual,
    count_solutions,
    element_order,
    is_bicyclic_rr,
    is_primitive,
    subgroup_from_generators,
)
from .sympl import (
    AltForm,
    SymplecticSpace,
    eval_form,
    form_space,
    radical,
    weil_form,
)
from .zmodlinalg import (
    DimensionMismatchError,
    ModulusTooLargeError,
    det_int,
    howell_form,
    smith_normal_form,
    solve_mod,
)

__version__ = "0.1.0"

__all__ = [
    "AltForm",
    "BadModelError",
    "BicyclicFamily",
    "CapExceededError",
    "CoverModel",
    "DimensionMismatchError",
    "FinAbGroup",
    "FormSubmodule",
    "GroupElement",
    "InclusionReport",
    "MODE_ALL_PAIRS",
    "MODE_PRIMITIVE_PAIRS",
    "ModulusTooLargeError",
    "NonHomocyclicError",
    "Subgroup",
    "SymplecticSpace",
    "TableTooLargeError",
    "all_bicyclics",
    "bogomolov_intersection",
    "cartier_dual",
    "compute_G",
    "count_solutions",
    "det_int",
    "element_order",
    "eval_form",
    "fixed_locus_count_r2",
    "form_space",
    "howell_form",
    "is_bicyclic_rr",
    "is_primitive",
    "isotropic_bicyclics",
    "picard_quotient_order",
    "prym_component_count",
    "quotient_component_count",
    "radical",
    "restriction_kernel",
    "smith_normal_form",
    "solve_mod",
    "subgroup_from_generators",
    "twisted_norm_exponent",
    "verify_main_inclusions",
    "weil_form",
]
