"""Point estimators: design-weighted, constrained two-step, and composite.

Every estimator solves the weighted score equation ``sum_i w_i psi_i(theta) = 0``
for some weight vector ``w``:

* ``pl``       - ``w = d`` (normalized design weights, no constraints);
* ``cs``       - ``w`` from design-weighted EL under the population
  constraints, then the score equation (two steps);
* ``ce``       - ``w`` maximizes the composite criterion
  ``sum_i log w_i - n log(sum_i bp_i w_i)`` under the constraints, computed
  through the transformed standard-EL problem with columns ``h_i / bp_i``;
* ``ce-joint`` - maximizes the composite criterion jointly in
  ``(w, theta)``.  Its profile over theta is at most the weight-step optimum
  under ``H`` alone, and meets it where the ``ce`` weights solve the score
  equation, so the fit is the ``ce`` fit, whose score residual certifies it.

``FitProblem(...).fit(name)`` fits any of :data:`ESTIMATORS`, building the
design and constraint matrices and the design-weighted start once for all of
them; ``fit_pl``, ``fit_cs``, ``fit_ce`` and ``profile_fit_joint`` use a fresh one.

The estimators differ only in step 1, the weights.  One tail runs step 2 from
the design-weighted estimate (for ``pl`` that estimate is step 2), the sandwich
and every failure flag.  A fit raises only :class:`DataError`; a failed fit is
flagged (``converged`` False, ``failure`` in its diagnostics) with NaN theta,
SE and covariance, and keeps the step-1 weights, NaN when step 1 raised.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import ConstraintMatrix, ConstraintSpec, Dataset, as_number, build_constraint_matrix
from .elcore import solve_el, solve_weighted_el
from .errors import ConvergenceError, DataError, InfeasibleError
from .glm import ModelSpec, _score_newton, design_matrix, irls_fit
from .variance import assemble_covariance, components_from_arrays
from .visibility import VisibilityModel, VisibilitySpec

ESTIMATORS = ("pl", "cs", "ce", "ce-joint")
NEEDS_VISIBILITY = ("ce", "ce-joint")  # the estimators that resolve FitProblem.vis


@dataclass(frozen=True)
class EstimateResult:
    """A fitted estimator: parameters, covariance, weights, diagnostics.

    ``theta``, ``se`` and the covariance are NaN when the fit failed
    (``diagnostics["converged"]`` is False).  ``multiplier`` holds the EL
    dual vector of the weight step (empty for ``pl``), ``Bp_hat`` the
    estimated normalizing constant of the composite criterion (None for
    ``pl``/``cs``), and ``logEL`` the weight-step objective at the solution.
    ``fit.json`` holds each fit's fields in this order, except ``weights``,
    which ``fit_weights.npz`` holds.
    """

    estimator: str
    theta: np.ndarray
    se: np.ndarray
    covariance: np.ndarray
    weights: np.ndarray
    multiplier: np.ndarray
    Bp_hat: float | None
    logEL: float
    diagnostics: dict


@dataclass(eq=False)
class FitProblem:
    """One sample prepared for fitting any estimator of :data:`ESTIMATORS`.

    The design matrix :attr:`A`, the constraint matrix :attr:`cm` (not
    needed by ``pl``; a matrix rejected with :class:`DataError` is kept as
    that error), the design-weighted start :attr:`start` and every fit,
    failed or not, are built on first use and kept; ``ce-joint`` is a copy
    of the ``ce`` fit.
    ``vis`` is the visibility source, a :class:`VisibilitySpec` or a
    :class:`VisibilityModel`; only :data:`NEEDS_VISIBILITY` resolve it.
    Its solver settings are checked when it is built: the tolerances are
    positive numbers, the iteration caps integers of at least 0.
    """

    data: Dataset
    model: ModelSpec
    constraints: ConstraintSpec = ConstraintSpec()
    vis: VisibilitySpec | VisibilityModel | None = None
    el_tol: float = 1e-10
    el_max_iter: int = 200
    newton_tol: float = 1e-10
    newton_max_iter: int = 100
    _fits: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("el_tol", "newton_tol"):
            tol = as_number(getattr(self, name), f"FitProblem: {name}")
            if not tol > 0.0:
                raise DataError(f"FitProblem: {name} must be positive, got {tol!r}")
            setattr(self, name, tol)
        for name in ("el_max_iter", "newton_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise DataError(f"FitProblem: {name} must be an integer of at least 0, got {value!r}")

    @cached_property
    def cm(self) -> ConstraintMatrix:
        if "_cm_error" not in vars(self):
            try:
                return build_constraint_matrix(self.data, self.constraints)
            except DataError as exc:
                self._cm_error = exc  # kept: every estimator fitted on this problem gets it without a rebuild
        raise self._cm_error

    @cached_property
    def A(self) -> np.ndarray:
        """The design matrix of the start, every score solve and every sandwich; the start checks the response."""
        return design_matrix(self.model, self.data)

    @cached_property
    def start(self):
        """``(theta, iterations, residual, reason)`` of the design-weighted fit; an empty reason means converged."""
        try:
            theta0 = irls_fit(self.model.family, self.data.y, self.A, case_weights=self.data.d)
        except ConvergenceError as exc:
            return None, 0, np.nan, str(exc)
        return self._newton(self.data.d, theta0)

    def _newton(self, w, theta):
        """The score Newton under weights ``w`` from ``theta``, which it returns itself if it takes no step."""
        return _score_newton(self.model.family, self.A, self.data.y, w, theta, self.newton_tol, self.newton_max_iter)

    def fit(self, name: str) -> EstimateResult:
        """Fit estimator ``name`` once per problem: ``ce-joint`` copies the ``ce`` fit, the others run :meth:`_fit`."""
        if name not in ESTIMATORS:
            raise DataError(f"FitProblem.fit: unknown estimator {name!r}; expected one of {ESTIMATORS}")
        if name not in self._fits:
            if name in NEEDS_VISIBILITY and self.vis is None:
                raise DataError(f"FitProblem.fit({name!r}): no visibility source was given (vis is None)")
            if name in NEEDS_VISIBILITY and isinstance(self.vis, VisibilityModel) and self.vis.bp.size != self.data.n:
                raise DataError(f"FitProblem.fit({name!r}): the visibility holds {self.vis.bp.size} values, "
                                f"expected one for each of the {self.data.n} rows")
            self._fits[name] = self._ce_joint() if name == "ce-joint" else self._fit(name)
        return self._fits[name]

    def _fit(self, name: str) -> EstimateResult:
        """The weight step ``_<name>``, then step 2 and the sandwich: the one place a fit is flagged failed.

        The weight step fills in the step-1 fields and returns its diagnostics, the sandwich's constraint
        columns (:attr:`ConstraintMatrix.live`: a vacuous one keeps multiplier 0) and ``bp``; it
        raises only before it fills any, so its InfeasibleError or ConvergenceError leaves NaN weights.
        Step 2 is the start itself for ``pl``, else the score Newton from it under the step-1 weights.
        """
        p = self.model.p
        step1 = {"weights": np.full(self.data.n, np.nan), "multiplier": np.full(self.constraints.q, np.nan),
                 "Bp_hat": None, "logEL": np.nan}
        theta, V, step2, failure = np.full(p, np.nan), np.full((p, p), np.nan), {}, ""
        try:
            diagnostics, H, bp = getattr(self, "_" + name)(step1)
        except (InfeasibleError, ConvergenceError) as exc:
            diagnostics, failure = {}, f"{type(exc).__name__}: {exc}"
        else:
            root, iters, resid, reason = self.start
            if reason:
                failure = f"design-weighted start failed: {reason}"
            elif name != "pl":
                root, iters, resid, failure = self._newton(step1["weights"], root)
            if name == "pl" or not reason:
                step2 = {"newton_iterations": iters, "score_residual": resid}
            if not failure:
                try:
                    V = assemble_covariance(components_from_arrays(root, step1["weights"], self.data, self.model,
                                                                   H, bp=bp, A=self.A))
                    theta = root.copy()  # a Newton that takes no step returns the start's own theta
                except np.linalg.LinAlgError as exc:
                    failure = f"singular sandwich covariance: {exc}"
        diagnostics.update(coef_names=list(self.model.coef_names), converged=not failure, **step2)
        if failure:
            diagnostics["failure"] = failure
        return EstimateResult(estimator=name, theta=theta, se=np.sqrt(np.diag(V)), covariance=V,
                              diagnostics=diagnostics, **step1)

    def _pl(self, step1: dict):
        d = self.data.d
        step1.update(weights=d.copy(), multiplier=np.zeros(0), logEL=float(d @ np.log(d)))
        return {}, np.empty((self.data.n, 0)), None

    def _cs(self, step1: dict):
        cm = self.cm
        sol = solve_weighted_el(cm.H, self.data.d, tol=self.el_tol, max_iter=self.el_max_iter)
        step1.update(weights=sol.w, multiplier=sol.multiplier, logEL=sol.logEL)
        return ({"el_iterations": sol.iterations, "el_residual": sol.residual,
                 "constraint_labels": list(cm.labels), "constraint_residual": sol.residual,
                 "vacuous_constraints": list(cm.vacuous)}, cm.live, None)

    def _ce(self, step1: dict):
        """Step 1 solves standard EL on the columns ``h_i / bp_i`` for ``w*``; the composite weights are
        ``(w*_i / bp_i) / sum_j (w*_j / bp_j)`` and ``Bp_hat = 1 / sum_j (w*_j / bp_j)``."""
        vis = self.vis.resolve(self.data)
        bp, cm = vis.bp, self.cm
        sol = solve_el((cm.H.T / bp).T, tol=self.el_tol, max_iter=self.el_max_iter)
        w = sol.w / bp
        S = w.sum()
        w /= S  # in place: no second n-vector stays alive through step 2
        Bp_hat = 1.0 / S
        step1.update(weights=w, multiplier=sol.multiplier, Bp_hat=Bp_hat,
                     logEL=float(np.sum(np.log(w)) - bp.size * np.log(w @ bp)))
        # n * (bp_i + kappa'h_i) = bp_i / w*_i, which the unit-weight restriction bounds below by Bp_hat.
        return ({"el_iterations": sol.iterations, "el_residual": sol.residual,
                 "restriction_active": bool(np.min(bp / sol.w) - Bp_hat <= 1e-9 * Bp_hat),
                 "constraint_labels": list(cm.labels), "vacuous_constraints": list(cm.vacuous),
                 "constraint_residual": float(np.abs(w @ cm.H).max(initial=0.0)),
                 "visibility_mode": vis.mode}, cm.live, bp)

    def _ce_joint(self) -> EstimateResult:
        """The ``ce`` fit under the name ``ce-joint`` (see :func:`profile_fit_joint`), sharing no
        mutable object with it; a failed ``ce`` fit is a failed ``ce-joint`` fit."""
        joint = replace(deepcopy(self.fit("ce")), estimator="ce-joint")
        if not joint.diagnostics["converged"]:
            joint.diagnostics["failure"] = f"ce fit failed: {joint.diagnostics['failure']}"
        return joint


def fit_pl(data: Dataset, model: ModelSpec, **solver) -> EstimateResult:
    """Design-weighted (pseudo-maximum-likelihood) fit, no constraints; ``solver`` holds FitProblem's settings."""
    return FitProblem(data, model, **solver).fit("pl")


def fit_cs(data: Dataset, model: ModelSpec, constraints: ConstraintSpec, **solver) -> EstimateResult:
    """Two-step constrained fit with design-weighted EL weights; ``solver`` as in :func:`fit_pl`.

    Step 1 maximizes ``sum_i d_i log w_i`` under the population constraints;
    step 2 solves the score equation under the step-1 weights, starting from
    the design-weighted estimate.  With no constraints this reproduces
    :func:`fit_pl` exactly (same solver path).
    """
    return FitProblem(data, model, constraints, **solver).fit("cs")


def fit_ce(data: Dataset, model: ModelSpec, constraints: ConstraintSpec, vis: VisibilitySpec | VisibilityModel,
           **solver) -> EstimateResult:
    """Two-step composite fit under estimated (or given) visibility; ``solver`` as in :func:`fit_pl`.

    Step 1 maximizes the composite criterion under the constraints; with no
    constraints the weights are exactly ``(1/bp_i) / sum_j (1/bp_j)``.
    Step 2 solves the score equation under the step-1 weights.
    """
    return FitProblem(data, model, constraints, vis, **solver).fit("ce")


def profile_fit_joint(data: Dataset, model: ModelSpec, constraints: ConstraintSpec,
                      vis: VisibilitySpec | VisibilityModel, **solver) -> EstimateResult:
    """Joint composite fit: maximize the profiled composite criterion over theta; ``solver`` as in :func:`fit_pl`.

    The profile at ``theta`` maximizes the composite criterion under the score
    constraint ``sum_i w_i psi_i(theta) = 0`` stacked with the population ones.
    Dropping the score constraint can only raise it, and it reaches that
    ``H``-only optimum exactly where the ``ce`` weights solve the score
    equation, so the ``ce`` root is the maximizer (Qin and Lawless, 1994).  The
    fit is therefore :func:`fit_ce`'s, under the name ``ce-joint``; its
    ``diagnostics["score_residual"]`` is the certificate.
    """
    return FitProblem(data, model, constraints, vis, **solver).fit("ce-joint")
