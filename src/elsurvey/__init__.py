"""Constrained empirical-likelihood estimation for informatively sampled surveys.

The package fits regression parameters from samples whose inclusion
probabilities depend on the data, combining design weights or conditional
visibilities with population-level moment constraints.  ``FitProblem``
prepares one sample and fits any estimator of ``ESTIMATORS`` by name:

* ``pl``  - design-weighted fit (no constraints);
* ``cs``  - two-step fit with design-weighted EL under constraints;
* ``ce``  - two-step fit maximizing the composite criterion under an
  estimated (or known) conditional visibility;
* ``ce-joint`` - joint maximization of the composite criterion, whose
  maximizer is the ``ce`` root, so its fit is ``ce``'s.

Each rule has one public entry: a ``Dataset`` derives its design weights
``d``, ``variance.components_from_arrays`` forms the sandwich's sums, and
``np.linalg.eigvalsh`` of two fits' ``V_cs - V_ce`` is the efficiency gap.
``fit_pl``, ``fit_cs``, ``fit_ce`` and ``profile_fit_joint`` (each one
``FitProblem(...).fit(name)``), ``score`` and ``score_jacobian`` stay while
``perfbench`` traces them.

Standard errors come from analytic plug-in sandwich estimators, and a
Monte Carlo harness (``simulate``) checks the asymptotics at desk scale.
"""

__version__ = "0.1.0"

import numpy as _np

from .data import (ConstraintEntry, ConstraintMatrix, ConstraintSpec, Dataset,
                   build_constraint_matrix, decluster, load_dataset, make_dataset)
from .elcore import ELSolution, solve_el, solve_weighted_el
from .errors import ConfigError, ConvergenceError, DataError, InfeasibleError
from .estimators import ESTIMATORS, EstimateResult, FitProblem, fit_ce, fit_cs, fit_pl, profile_fit_joint
from .glm import ModelSpec, design_matrix, irls_fit, score, score_jacobian
from .simulate import (CovariateSpec, DesignSpec, MCSummary, draw_sample, gen_population,
                       population_constraint_spec, run_monte_carlo)
from .variance import CovarianceComponents, assemble_covariance
from .visibility import VisibilityModel, estimate_visibility, visibility_from_pi

# glibc's malloc maps each request of 128 KiB or more on its own and trims its heap top whenever 128 KiB of it
# is free, until the process frees a larger mapped block, whose size then becomes the first limit and twice it
# the second, up to a mapped block of 32 MiB with its header.  A fit would otherwise map its n-sized arrays and
# its QR workspace anew and fault them back in, each time.  Freeing one 31 MiB block raises the limits to 31 and
# 62 MiB, which covers the per-fit arrays up to about 1e6 rows.
_np.empty(31 << 17)

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "DataError", "InfeasibleError",
    "Dataset", "ConstraintEntry", "ConstraintSpec", "ConstraintMatrix",
    "load_dataset", "make_dataset", "decluster",
    "build_constraint_matrix",
    "ModelSpec", "design_matrix", "score", "score_jacobian", "irls_fit",
    "ELSolution", "solve_el", "solve_weighted_el",
    "VisibilityModel", "estimate_visibility", "visibility_from_pi",
    "ESTIMATORS", "FitProblem", "EstimateResult", "fit_pl", "fit_cs", "fit_ce", "profile_fit_joint",
    "CovarianceComponents", "assemble_covariance",
    "CovariateSpec", "DesignSpec", "MCSummary", "gen_population", "draw_sample",
    "population_constraint_spec", "run_monte_carlo",
]
