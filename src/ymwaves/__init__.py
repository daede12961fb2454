"""Exact SU(2) Yang-Mills plane waves: construction, residuals, verification."""

from .su2 import LieElement
from .fields import (
    AnsatzParams,
    ColorVector,
    SpacetimePoint,
    electric_field_analytic,
    field_coefficient_groups,
    field_strength,
    field_strength_norm,
    magnetic_field_analytic,
)
from .residuals import (
    ResidualSample,
    ampere_commutator_term,
    ampere_residual,
    bianchi_residual,
    gauss_commutator_term,
    gauss_residual,
    grid_points,
    max_residual_norm,
    residual_sample,
)
from .constraints import (
    ClassificationError,
    ConstraintVector,
    FamilySolution,
    NotASolution,
    PlaneSolution,
    RefineResult,
    ScanRow,
    TrivialZeroField,
    branch_projection,
    build_family_i,
    build_family_ii,
    build_family_iii,
    classify,
    constraint_scales,
    nine_constraints,
    normalized_constraints,
    oracle_constraints,
    refine_alphas,
    scan_families,
)
from .observables import (
    energy_closed_form,
    energy_density,
    mean_energy_closed_form,
    node_locations,
    point_at_phase,
)

__version__ = "0.1.0"

__all__ = [
    "LieElement",
    "AnsatzParams", "ColorVector", "SpacetimePoint",
    "electric_field_analytic", "magnetic_field_analytic", "field_coefficient_groups",
    "field_strength", "field_strength_norm",
    "ResidualSample", "gauss_residual", "ampere_residual", "bianchi_residual",
    "gauss_commutator_term", "ampere_commutator_term",
    "residual_sample", "grid_points", "max_residual_norm",
    "ConstraintVector", "nine_constraints", "constraint_scales", "normalized_constraints",
    "FamilySolution", "PlaneSolution", "NotASolution", "TrivialZeroField", "ClassificationError",
    "build_family_i", "build_family_ii", "build_family_iii",
    "branch_projection", "classify", "oracle_constraints",
    "RefineResult", "refine_alphas", "ScanRow", "scan_families",
    "energy_density", "energy_closed_form", "mean_energy_closed_form", "node_locations",
    "point_at_phase",
    "__version__",
]
