"""Exact construction and verification of Krall dual Hahn families.

Orthogonal polynomials for Geronimus-transformed dual Hahn measures with
continuous parameters, their Christoffel transforms, three determinantal
representations, and exact certificates (orthogonality, moment
identities, deformation limits, bispectrality) over the rationals.
"""

from .exact import (
    IndexSet,
    InexactDivisionError,
    PoleAtZeroError,
    Polynomial,
    Rational,
    RationalFunction,
    det_exact,
    involution,
    limit_at_zero,
    pochhammer,
    residue_inv,
    vandermonde,
)
from .classical import (
    DifferenceOperator2,
    apply_operator,
    aux_operator,
    aux_operator_mirror,
    dual_hahn_poly,
    gamma_hahn_operator,
    hahn_poly,
    lambda_map,
    phi_pair,
)
from .measures import (
    DiscreteMeasure,
    MeasureUndefinedError,
    NuParams,
    christoffel_measure,
    dual_hahn_measure,
    dual_hahn_norm,
    geronimus_factor,
    inner_product,
    nu_basic,
    nu_u_transform,
    rho_transformed,
    translate_measure,
)
from .wpoly import (
    PsiContext,
    WFamily,
    w_family,
    w_poly,
)
from .constructors import (
    AltParams,
    Family,
    FamilyExistenceError,
    alt_params,
    construct_basic,
    construct_dropped_rows,
    construct_mirror,
    construct_shifted,
    determinant_sizes,
    recurrence_coeffs,
)
from .verify import (
    GramReport,
    IdentityContext,
    IdentityReport,
    LatticeOperator,
    operator_search,
    orthogonality_report,
    triangular_product_report,
    verify_limits,
    verify_moment_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
