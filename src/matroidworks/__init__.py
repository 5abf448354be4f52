"""matroidworks: exact matroid computations.

Realization spaces over prescribed characteristic, Groebner-based
realizability decisions, Tutte/characteristic invariants, and Chow rings
with the Kahler-package checks, all in exact arithmetic.
"""

from .catalog import catalog, catalog_names, fano, graphic_k4, moebius_kantor, non_fano, pappus, uniform, vamos
from .chow import (
    ChowElement,
    ChowRing,
    PairingReport,
    alpha_element,
    beta_element,
    chow_ring,
    is_lefschetz_element,
    kahler_report,
    reduced_char_coefficients_via_volumes,
    truncation_volume_check,
    volume_map,
)
from .corpus import (
    CorpusEntry,
    CorpusSummary,
    EntryResult,
    is_simple,
    load_corpus,
    parse_corpus,
    run_corpus,
)
from .errors import (
    Budget,
    BudgetError,
    DegreeBudgetExceeded,
    EmptyFamily,
    ExchangeAxiomViolation,
    InputError,
    LoopPresent,
    MatroidworksError,
    NonPrimeCharacteristic,
    NonzeroRemainder,
    NotSymmetric,
    PreconditionError,
    RingMismatch,
    SearchBudgetExceeded,
    UnequalBasisSizes,
    WrongDegree,
    budget,
    current_budget,
)
from .fields import (
    extension_field,
    field_of_characteristic,
    field_of_order,
    prime_field,
    rationals,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    Substitution,
    buchberger,
    eliminate_linear_variables,
    normal_form,
    s_polynomial,
    saturate,
)
from .invariants import (
    BiPoly,
    UniPoly,
    characteristic_polynomial,
    chromatic_polynomial,
    ingleton_violation,
    is_log_concave,
    reduced_characteristic_polynomial,
    tutte_polynomial,
)
from .linalg import ExactMatrix, MinorOracle
from .matroid import (
    Matroid,
    SubsetFamily,
    mask_elements,
    mask_of,
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_json_dict,
    matroid_from_matrix,
    matroid_to_json_dict,
)
from .polynomials import (
    DEGREVLEX,
    ELIMINATE_FIRST,
    MonomialOrder,
    Poly,
    PolynomialRing,
    poly_str,
)
from .realization import (
    UNDECIDED,
    RealizationMatrix,
    RealizationSpace,
    SpaceVerdict,
    choose_basis,
    find_realization,
    is_realizable,
    is_realizable_over_q,
    realizability_table,
    realization_space,
)
from .symmetry import Permutation, PermutationGroup, automorphism_group, is_isomorphic

__version__ = "0.1.0"
