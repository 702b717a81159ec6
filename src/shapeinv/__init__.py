"""Shape-invariant superpotential families from translation invariants.

The construction: a superpotential k(x) = sum_j I_j v_j(x) + M G(x) built
from invariant couplings I_j of an n-dimensional parameter vector, with
G' + G^2 = alpha and v_j' + v_j G = beta_j, is shape invariant under a unit
translation of every parameter.  The package assembles the thirteen closed
families this produces, their spectra and normalized bound states, the
rational one-step extensions of those bases, and independent numerical
checks for all of it.
"""

from .errors import (
    ShapeInvError,
    ValidationError,
    ExpressionError,
    RangeViolation,
    UnverifiedInvariant,
    InadmissibleState,
    NumericalError,
    EvalDomainError,
    GammaPole,
    DenominatorZero,
    NonConvergence,
)
from .invariants import (
    ParamVector,
    InvariantExpr,
    InvarianceResult,
    parse_invariant,
    verify_invariant,
    check_invariance,
    eval_invariant,
)
from .families import (
    Domain,
    Coupling,
    ConstructionData,
    FamilySpec,
    StateForm,
    FamilyParams,
    FAMILY_IDS,
    family_ids,
    get_spec,
    build_family,
    translate_family,
    superpotential,
    partner_potentials,
    riccati_g,
    coupling_v,
    remainder,
    construction_remainder,
    classic_reconstruction,
)
from .spectra import (
    AdmissibleRange,
    Wavefunction,
    EigenState,
    admissible_range,
    eigenenergy,
    norm_coefficient,
    state_constant,
    wavefunction,
    eigenstate,
)
from .extensions import (
    CaseSpec,
    ExtensionSpec,
    ExtendedSuperpotential,
    EXTENSION_IDS,
    extension_ids,
    build_extension,
    extended_superpotential,
    w1_branch,
    w1_difference,
    base_remainder,
    extension_grid,
    check_cond1,
    check_cond2,
    extended_si_check,
)
from .verify import (
    GridReport,
    LadderReport,
    GramReport,
    OracleSpec,
    default_grid,
    si_residual,
    quadrature,
    fd_spectrum,
    reference_oracle,
    ladder_check,
    schrodinger_residual,
    orthonormality,
    report_json,
)

__version__ = "0.1.0"

__all__ = [
    "ShapeInvError", "ValidationError", "ExpressionError", "RangeViolation",
    "UnverifiedInvariant", "InadmissibleState", "NumericalError",
    "EvalDomainError", "GammaPole", "DenominatorZero", "NonConvergence",
    "ParamVector", "InvariantExpr", "InvarianceResult", "parse_invariant",
    "verify_invariant", "check_invariance", "eval_invariant",
    "Domain", "Coupling", "ConstructionData", "FamilySpec", "StateForm", "FamilyParams",
    "FAMILY_IDS", "family_ids", "get_spec", "build_family", "translate_family",
    "superpotential", "partner_potentials", "riccati_g", "coupling_v",
    "remainder", "construction_remainder", "classic_reconstruction",
    "AdmissibleRange", "Wavefunction", "EigenState", "admissible_range",
    "eigenenergy", "norm_coefficient", "state_constant", "wavefunction", "eigenstate",
    "CaseSpec", "ExtensionSpec", "ExtendedSuperpotential", "EXTENSION_IDS",
    "extension_ids", "build_extension", "extended_superpotential",
    "w1_branch", "w1_difference", "base_remainder", "extension_grid",
    "check_cond1", "check_cond2", "extended_si_check",
    "GridReport", "LadderReport", "GramReport", "OracleSpec", "default_grid",
    "si_residual", "quadrature", "fd_spectrum", "reference_oracle",
    "ladder_check", "schrodinger_residual", "orthonormality", "report_json",
    "__version__",
]
