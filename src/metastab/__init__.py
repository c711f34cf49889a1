"""Metastable gradient systems: simulation and transition-time prediction.

Simulates overdamped Langevin diffusions and the stochastic Allen-Cahn
equation on 1D/2D tori (spectral Galerkin, Wick-renormalized in d=2), and
predicts mean transition times independently via Arrhenius/Eyring-Kramers
laws whose prefactors come from Hessian determinant ratios, 1D potential
theory, and Fredholm / Carleman-Fredholm spectral determinants.
"""

from .allen_cahn import (
    allen_cahn_energy,
    allen_cahn_gradient,
    galerkin_critical_points_1d,
    galerkin_potential_1d,
    gateaux_derivative,
    renormalized_energy_gap,
)
from .determinants import (
    DeterminantResult,
    carleman_det_2d,
    counterterm_trace,
    fredholm_closed_form,
    fredholm_det_1d,
    resolvent_trace,
)
from .fields import (
    SpectralField,
    constant_field,
    field_from_function,
    field_from_grid,
    grid_values,
    hs_distance_to_constant,
    hs_norm,
    linf_distance_to_constant,
    random_field,
)
from .kramers import (
    RatePrediction,
    compensation_residual,
    ek_allen_cahn_1d,
    ek_allen_cahn_2d,
    ek_finite,
)
from .potential_theory import (
    Grid1D,
    capacity_dirichlet,
    committor_weighted_integral,
    magic_identity_residual,
    solve_committor,
    solve_poisson,
)
from .potentials import (
    CriticalPoint,
    Potential,
    double_well_2d,
    find_critical_point,
    quadratic_well,
    quartic_double_well,
)
from .randomwalk import WalkPath, diffusive_rescale, ensemble_rescaled, walk
from .rate_functional import (
    DiscretePath,
    FieldPath,
    rate_functional_ac_1d,
    rate_functional_sde,
)
from .sde import (
    HittingTimeBatch,
    SdeRun,
    detailed_balance_residual,
    ou_density,
    ou_fokker_planck_residual,
    sample_endpoints,
    sample_hitting_times,
)
from .spde import (
    NoiseCheckReport,
    SpdeRun,
    noise_coefficient_check,
    sample_spde_hitting_times,
)

__version__ = "0.1.0"
