"""Exact SU(2) Yang-Mills plane waves: construction, residuals, verification."""

# each module's __all__, republished; __all__ below lists every name once
from .su2 import *
from .fields import *
from .residuals import *
from .constraints import *
from .observables import *

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
