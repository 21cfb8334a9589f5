"""Distributions of hard-, soft-, and scad-thresholding estimators.

Exact finite-sample laws of the scaled estimation error in the Gaussian
location model, their moving-parameter limits, model-selection
probabilities, seeded Monte Carlo oracles, and the two-point lower bounds
showing those laws cannot be estimated uniformly.
"""

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan, estimate, penalized_objective
from .finite_dist import (
    Atom,
    GaussPiece,
    MixtureDistribution,
    ModelPoint,
    atom_weight,
    finite_sample_dist,
    rescaled_dist,
    scaled_risk,
)
from .limits import (
    canonical_scenarios,
    conservative_limit,
    consistent_limit,
    convergence_mode,
    rescaled_limit,
    weak_convergence_check,
)
from .montecarlo import EmpiricalCdf, SimConfig, ks_distance, simulate_estimates, uniform_rate_experiment
from .normal_kernel import gaussian_tv, norm_cdf, norm_pdf
from .report import ExperimentReport
from .selection import (
    PowerTuningPath,
    RegimeError,
    RegimeSpec,
    ThetaRule,
    derive_regime,
    limit_selection_probability,
    selection_convergence_table,
)

__version__ = "0.1.0"
