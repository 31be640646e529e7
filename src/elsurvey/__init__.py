"""Constrained empirical-likelihood estimation for informatively sampled surveys.

The package fits regression parameters from samples whose inclusion
probabilities depend on the data, combining design weights or conditional
visibilities with population-level moment constraints:

* ``fit_pl``  - design-weighted fit (no constraints);
* ``fit_cs``  - two-step fit with design-weighted EL under constraints;
* ``fit_ce``  - two-step fit maximizing the composite criterion under an
  estimated (or known) conditional visibility;
* ``profile_fit_joint`` - joint maximization of the composite criterion.

``FitProblem`` prepares one sample and fits any of them by name.

Standard errors come from analytic plug-in sandwich estimators, and a
Monte Carlo harness (``simulate``) checks the asymptotics at desk scale.
"""

__version__ = "0.1.0"

from .data import (ConstraintEntry, ConstraintMatrix, ConstraintSpec, Dataset,
                   build_constraint_matrix, decluster, load_dataset, make_dataset,
                   normalize_design_weights)
from .elcore import ELSolution, solve_el, solve_weighted_el
from .errors import ConfigError, ConvergenceError, DataError, InfeasibleError
from .estimators import (ESTIMATORS, EstimateResult, FitProblem, fit_ce, fit_cs, fit_pl,
                         newton_solve_score, profile_fit_joint)
from .glm import ModelSpec, design_matrix, irls_fit, score, score_jacobian
from .simulate import (CovariateSpec, DesignSpec, MCSummary, draw_sample, gen_population,
                       population_constraint_spec, run_monte_carlo)
from .variance import (CovarianceComponents, EfficiencyGap, assemble_covariance,
                       covariance_components, efficiency_gap)
from .visibility import VisibilityModel, estimate_visibility, visibility_from_pi

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "DataError", "InfeasibleError",
    "Dataset", "ConstraintEntry", "ConstraintSpec", "ConstraintMatrix",
    "load_dataset", "make_dataset", "normalize_design_weights", "decluster",
    "build_constraint_matrix",
    "ModelSpec", "design_matrix", "score", "score_jacobian", "irls_fit",
    "ELSolution", "solve_el", "solve_weighted_el",
    "VisibilityModel", "estimate_visibility", "visibility_from_pi",
    "ESTIMATORS", "FitProblem", "EstimateResult", "fit_pl", "fit_cs", "fit_ce", "profile_fit_joint",
    "newton_solve_score",
    "CovarianceComponents", "EfficiencyGap", "covariance_components",
    "assemble_covariance", "efficiency_gap",
    "CovariateSpec", "DesignSpec", "MCSummary", "gen_population", "draw_sample",
    "population_constraint_spec", "run_monte_carlo",
]
