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
  ``(w, theta)`` by profiling out the inner weights.

``FitProblem(...).fit(name)`` fits any of :data:`ESTIMATORS`, building the
constraint matrix and the design-weighted start once for all of them;
``fit_pl``, ``fit_cs``, ``fit_ce`` and ``profile_fit_joint`` use a fresh one.

Step 2 always starts from the design-weighted estimate.  When step 2 fails
to converge, or the sandwich covariance is singular, the result keeps the
step-1 weights, sets the convergence flag, and reports no parameter value
rather than fabricating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize

from .data import ConstraintMatrix, ConstraintSpec, Dataset, build_constraint_matrix
from .elcore import _check_matrix, _stacked_el, solve_el, solve_weighted_el
from .errors import ConvergenceError, DataError, InfeasibleError
from .glm import ModelSpec, _jacobian, _score_parts, design_matrix, irls_fit
from .variance import assemble_covariance, components_from_arrays
from .visibility import VisibilityModel

ESTIMATORS = ("pl", "cs", "ce", "ce-joint")
PENALTY = 1e10


@dataclass(frozen=True)
class EstimateResult:
    """A fitted estimator: parameters, covariance, weights, diagnostics.

    ``theta`` and the covariance are NaN when the fit did not converge
    (``diagnostics["converged"]`` is False).  ``multiplier`` holds the EL
    dual vector of the weight step (empty for ``pl``), ``Bp_hat`` the
    estimated normalizing constant of the composite criterion (None for
    ``pl``/``cs``), and ``logEL`` the weight-step objective at the solution.
    """

    estimator: str
    theta: np.ndarray
    covariance: np.ndarray
    se: np.ndarray
    weights: np.ndarray
    multiplier: np.ndarray
    Bp_hat: float | None
    logEL: float
    diagnostics: dict


def _newton(weights, model, data, theta0, tol, max_iter):
    """Damped Newton on the weighted score equation.

    Returns ``(theta, iterations, residual, converged, reason)``; never
    raises for non-convergence (callers decide whether to flag or raise).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    try:
        A, psi, curv = _score_parts(model, theta, data)
    except ConvergenceError as exc:
        return theta, 0, np.inf, False, f"invalid start: {exc}"
    svec = psi.T @ weights
    resid = float(np.max(np.abs(svec)))
    for it in range(1, max_iter + 1):
        if resid < tol:
            return theta, it - 1, resid, True, ""
        J = _jacobian(A, weights, curv)
        try:
            step = np.linalg.solve(J, -svec)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -svec, rcond=None)[0]
        t = 1.0
        while True:
            theta_new = theta + t * step
            try:
                _, psi_new, curv_new = _score_parts(model, theta_new, data, A)
                svec_new = psi_new.T @ weights
                resid_new = float(np.max(np.abs(svec_new)))
                if resid_new <= (1.0 - 1e-4 * t) * resid:
                    break
            except ConvergenceError:
                pass  # candidate outside the score's domain; shorten the step
            t *= 0.5
            if t < 1e-14:
                return theta, it, resid, False, "line search failed on the weighted score equation"
        theta, svec, curv, resid = theta_new, svec_new, curv_new, resid_new
        if np.max(np.abs(theta)) > 1e3:
            return theta, it, resid, False, "parameter norm exceeded 1e3 (separation or divergence)"
    return theta, max_iter, resid, False, f"no convergence in {max_iter} iterations (score max-norm {resid:.3e})"


def newton_solve_score(weights, model: ModelSpec, data: Dataset, theta0=None,
                       tol: float = 1e-10, max_iter: int = 100) -> np.ndarray:
    """Solve ``sum_i weights_i psi_i(theta) = 0`` by damped Newton.

    ``theta0`` defaults to the design-weighted (IRLS) estimate, which is
    always feasible for the score's domain.  Raises
    :class:`ConvergenceError` when the iteration fails.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.n,) or np.any(weights <= 0.0):
        raise DataError("newton_solve_score: weights must be strictly positive, length n")
    if theta0 is None:
        theta0 = irls_fit(model.family, data.y, design_matrix(model, data), case_weights=data.d)
    theta, _, _, converged, reason = _newton(weights, model, data, theta0, tol, max_iter)
    if not converged:
        raise ConvergenceError(f"newton_solve_score: {reason}")
    return theta


def _failed(estimator, p, weights, multiplier, Bp_hat, logEL, diagnostics) -> EstimateResult:
    nan_vec = np.full(p, np.nan)
    return EstimateResult(estimator=estimator, theta=nan_vec, covariance=np.full((p, p), np.nan),
                          se=nan_vec.copy(), weights=weights, multiplier=multiplier,
                          Bp_hat=Bp_hat, logEL=logEL, diagnostics=diagnostics)


def _composite(C, bp, el_tol, el_max_iter):
    """Composite-criterion ``(w, sol, Bp_hat, logEL)`` via the transformed standard-EL problem.

    ``C`` is the constraint matrix ``H`` (``ce``) or ``[psi(theta), H]``
    (``ce-joint``).  Solving standard EL on columns ``c_i / bp_i`` gives
    ``w*``; the composite weights are ``(w*_i / bp_i) / sum_j (w*_j / bp_j)``
    and the normalizing constant is ``Bp_hat = 1 / sum_j (w*_j / bp_j)``.
    """
    sol = solve_el(C / bp[:, None], tol=el_tol, max_iter=el_max_iter)
    ratio = sol.w / bp
    S = ratio.sum()
    w = ratio / S
    logEL = float(np.sum(np.log(w)) - bp.size * np.log(w @ bp))
    return w, sol, 1.0 / S, logEL


@dataclass(eq=False)
class FitProblem:
    """One sample prepared for fitting any estimator of :data:`ESTIMATORS`.

    The constraint matrix :attr:`cm` (not needed by ``pl``), the
    design-weighted start :attr:`start` and the ``ce`` fit (the ``ce-joint``
    start) are built on first use and shared by every later fit.  ``vis`` is
    needed by ``ce`` and ``ce-joint`` only, and must be set before either is fitted.
    """

    data: Dataset
    model: ModelSpec
    constraints: ConstraintSpec = ConstraintSpec()
    vis: VisibilityModel | None = None
    el_tol: float = 1e-10
    el_max_iter: int = 200
    newton_tol: float = 1e-10
    newton_max_iter: int = 100

    @cached_property
    def cm(self) -> ConstraintMatrix:
        return build_constraint_matrix(self.data, self.constraints)

    @cached_property
    def start(self):
        """``(theta, iterations, residual, converged, reason)`` of the design-weighted fit."""
        data, model = self.data, self.model
        theta0 = irls_fit(model.family, data.y, design_matrix(model, data), case_weights=data.d)
        return _newton(data.d, model, data, theta0, self.newton_tol, self.newton_max_iter)

    def fit(self, name: str, seed: int = 0) -> EstimateResult:
        """Fit estimator ``name``; ``seed`` draws the ``ce-joint`` restarts."""
        if name not in ESTIMATORS:
            raise DataError(f"FitProblem.fit: unknown estimator {name!r}; expected one of {ESTIMATORS}")
        if name == "ce":
            return self._ce
        return self._joint(seed) if name == "ce-joint" else getattr(self, f"_{name}")()

    def _bp(self, caller: str) -> np.ndarray:
        if self.vis is None or self.vis.bp.shape != (self.data.n,):
            raise DataError(f"{caller}: visibility must hold one value for each of the {self.data.n} rows")
        return self.vis.bp

    def _result(self, name, theta, w, multiplier, Bp_hat, logEL, diagnostics, H, bp) -> EstimateResult:
        """The fit with its sandwich covariance, or flagged failed if the sandwich is singular."""
        try:
            comps = components_from_arrays(name, theta, w, self.data, self.model, H, bp=bp)
            V = assemble_covariance(comps, "ce" if name.startswith("ce") else name, self.data.n)
        except np.linalg.LinAlgError as exc:
            diagnostics.update(converged=False, failure=f"singular sandwich covariance: {exc}")
            return _failed(name, self.model.p, w, multiplier, Bp_hat, logEL, diagnostics)
        return EstimateResult(estimator=name, theta=theta, covariance=V, se=np.sqrt(np.diag(V)),
                              weights=w, multiplier=multiplier, Bp_hat=Bp_hat, logEL=logEL,
                              diagnostics=diagnostics)

    def _two_step(self, name, w, multiplier, Bp_hat, logEL, diagnostics, bp) -> EstimateResult:
        """Step 2: the score equation under the step-1 weights ``w``, from the design-weighted start."""
        start, _, _, converged, reason = self.start
        if not converged:
            diagnostics.update(converged=False, failure=f"design-weighted start failed: {reason}")
        else:
            theta, iters, resid, converged, reason = _newton(w, self.model, self.data, start,
                                                             self.newton_tol, self.newton_max_iter)
            diagnostics.update(converged=bool(converged), newton_iterations=iters, score_residual=resid)
            if converged:
                return self._result(name, theta, w, multiplier, Bp_hat, logEL, diagnostics, self.cm.H, bp)
            diagnostics["failure"] = reason
        return _failed(name, self.model.p, w, multiplier, Bp_hat, logEL, diagnostics)

    def _pl(self) -> EstimateResult:
        theta, iters, resid, converged, reason = self.start
        if not converged:
            raise ConvergenceError(f"fit_pl: {reason}")
        d = self.data.d
        diagnostics = {"converged": True, "newton_iterations": iters, "score_residual": resid,
                       "coef_names": list(self.model.coef_names)}
        return self._result("pl", theta.copy(), d.copy(), np.zeros(0), None, float(d @ np.log(d)),
                            diagnostics, np.empty((self.data.n, 0)), None)

    def _cs(self) -> EstimateResult:
        cm = self.cm
        sol = solve_weighted_el(cm.H, self.data.d, tol=self.el_tol, max_iter=self.el_max_iter)
        diagnostics = {"el_iterations": sol.iterations, "el_residual": sol.residual,
                       "el_converged": sol.converged, "constraint_labels": list(cm.labels),
                       "constraint_residual": float(np.max(np.abs(sol.w @ cm.H))) if cm.q else 0.0,
                       "vacuous_constraints": list(cm.vacuous), "coef_names": list(self.model.coef_names)}
        return self._two_step("cs", sol.w, sol.multiplier, None, sol.logEL, diagnostics, None)

    @cached_property
    def _ce(self) -> EstimateResult:
        bp = self._bp("fit_ce")
        cm = self.cm
        w, sol, Bp_hat, logEL = _composite(cm.H, bp, self.el_tol, self.el_max_iter)
        # n * (bp_i + kappa'h_i) = bp_i / w*_i, which the unit-weight restriction bounds below by Bp_hat.
        diagnostics = {"el_iterations": sol.iterations, "el_residual": sol.residual,
                       "el_converged": sol.converged,
                       "restriction_active": bool(np.min(bp / sol.w) - Bp_hat <= 1e-9 * Bp_hat),
                       "constraint_labels": list(cm.labels), "vacuous_constraints": list(cm.vacuous),
                       "constraint_residual": float(np.max(np.abs(w @ cm.H))) if cm.q else 0.0,
                       "visibility_mode": self.vis.mode, "coef_names": list(self.model.coef_names)}
        return self._two_step("ce", w, sol.multiplier, Bp_hat, logEL, diagnostics, bp)

    def _profile_objective(self, bp: np.ndarray):
        """``(A, neg_profile)``: the design matrix, and minus the profiled composite criterion with its
        gradient; the theta-free work (``A`` and the checked ``H / bp``) is done here, once."""
        data, p, A = self.data, self.model.p, design_matrix(self.model, self.data)
        try:
            solve = _stacked_el(_check_matrix(self.cm.H / bp[:, None], "solve_el", p), p, self.el_tol,
                                self.el_max_iter, "solve_el")
        except InfeasibleError:  # zero is outside the hull for every theta
            return A, lambda theta: (PENALTY, np.zeros(p))

        def neg_profile(theta):
            # The profile differs from the transformed standard-EL logEL by the
            # theta-free constant sum(log bp); by the envelope identity its
            # gradient is -n * (sum_i w*_i psi'_i / bp_i) @ xi_psi.
            if np.max(np.abs(theta)) > 1e3:
                return PENALTY, np.zeros(p)
            try:
                _, psi, curv = _score_parts(self.model, theta, data, A)
                w, lam, _, _ = solve(psi / bp[:, None])
            except (ConvergenceError, InfeasibleError):
                return PENALTY, np.zeros(p)
            return -float(np.sum(np.log(w))), data.n * (_jacobian(A, w / bp, curv) @ lam[:p])

        return A, neg_profile

    def _joint(self, seed: int = 0, theta0=None, multistart: int = 3) -> EstimateResult:
        bp, cm, data, model = self._bp("profile_fit_joint"), self.cm, self.data, self.model
        el_tol, el_max_iter, n, p = self.el_tol, self.el_max_iter, data.n, model.p
        if theta0 is None:
            start_fit = self._ce
            if start_fit.diagnostics["converged"]:
                theta0 = start_fit.theta
            else:
                theta0, _, _, start_ok, start_reason = self.start
                if not start_ok:
                    raise ConvergenceError(f"profile_fit_joint: no usable starting value: {start_reason}")
        theta0 = np.asarray(theta0, dtype=float)
        A, neg_profile = self._profile_objective(bp)

        rng = np.random.default_rng(seed)
        starts = [theta0]
        scale = np.maximum(0.05, 0.05 * np.abs(theta0))
        for _ in range(max(0, multistart - 1)):
            starts.append(theta0 + scale * rng.standard_normal(p))
        best = None
        optima = []
        # Inner solves leave O(n * el_tol) noise in the outer gradient.
        gtol = max(1e-8, 100.0 * n * el_tol)
        for s in starts:
            opt = scipy.optimize.minimize(neg_profile, s, method="BFGS", jac=True,
                                          options={"gtol": gtol, "maxiter": 500})
            if opt.fun < PENALTY:
                optima.append(opt)
                if best is None or opt.fun < best.fun:
                    best = opt
        diagnostics = {"constraint_labels": list(cm.labels), "vacuous_constraints": list(cm.vacuous),
                       "visibility_mode": self.vis.mode, "coef_names": list(model.coef_names),
                       "multistart_count": len(starts)}
        if len(optima) >= 2:
            spread = max(float(np.max(np.abs(a.x - b.x)))
                         for i, a in enumerate(optima) for b in optima[i + 1:])
        else:
            spread = 0.0 if optima else float("nan")
        diagnostics["multistart_spread"] = spread
        if best is None:
            diagnostics.update(converged=False, failure="all outer starts landed in the infeasible region")
            return _failed("ce-joint", p, np.full(n, np.nan), np.full(p + cm.q, np.nan), None,
                           float("nan"), diagnostics)

        theta = np.asarray(best.x, dtype=float)
        psi = _score_parts(model, theta, data, A)[1]
        w, sol, Bp_hat, logEL = _composite(np.column_stack([psi, cm.H]), bp, el_tol, el_max_iter)
        converged = bool(best.success and sol.converged)
        diagnostics.update(converged=converged, outer_iterations=int(best.nit),
                           el_iterations=sol.iterations, el_residual=sol.residual,
                           constraint_residual=float(np.max(np.abs(w @ cm.H))) if cm.q else 0.0,
                           score_residual=float(np.max(np.abs(w @ psi))),
                           score_multiplier_norm=float(np.max(np.abs(sol.multiplier[:p]))) if p else 0.0)
        if not converged:
            diagnostics["failure"] = f"outer optimizer reported: {best.message}"
            return _failed("ce-joint", p, w, sol.multiplier[p:], Bp_hat, logEL, diagnostics)
        return self._result("ce-joint", theta, w, sol.multiplier[p:], Bp_hat, logEL, diagnostics, cm.H, bp)


def fit_pl(data: Dataset, model: ModelSpec, newton_tol: float = 1e-10,
           newton_max_iter: int = 100) -> EstimateResult:
    """Design-weighted (pseudo-maximum-likelihood) fit, no constraints."""
    return FitProblem(data, model, newton_tol=newton_tol, newton_max_iter=newton_max_iter).fit("pl")


def fit_cs(data: Dataset, model: ModelSpec, constraints: ConstraintSpec,
           el_tol: float = 1e-10, el_max_iter: int = 200,
           newton_tol: float = 1e-10, newton_max_iter: int = 100) -> EstimateResult:
    """Two-step constrained fit with design-weighted EL weights.

    Step 1 maximizes ``sum_i d_i log w_i`` under the population constraints;
    step 2 solves the score equation under the step-1 weights, starting from
    the design-weighted estimate.  With no constraints this reproduces
    :func:`fit_pl` exactly (same solver path).
    """
    return FitProblem(data, model, constraints, None, el_tol, el_max_iter, newton_tol, newton_max_iter).fit("cs")


def fit_ce(data: Dataset, model: ModelSpec, constraints: ConstraintSpec, vis: VisibilityModel,
           el_tol: float = 1e-10, el_max_iter: int = 200,
           newton_tol: float = 1e-10, newton_max_iter: int = 100) -> EstimateResult:
    """Two-step composite fit under estimated (or given) visibility.

    Step 1 maximizes the composite criterion under the constraints; with no
    constraints the weights are exactly ``(1/bp_i) / sum_j (1/bp_j)``.
    Step 2 solves the score equation under the step-1 weights.
    """
    return FitProblem(data, model, constraints, vis, el_tol, el_max_iter, newton_tol, newton_max_iter).fit("ce")


def profile_fit_joint(data: Dataset, model: ModelSpec, constraints: ConstraintSpec, vis: VisibilityModel,
                      theta0=None, multistart: int = 3, seed: int = 0,
                      el_tol: float = 1e-10, el_max_iter: int = 200) -> EstimateResult:
    """Joint composite fit: maximize the profiled composite criterion over theta.

    For each candidate ``theta`` the inner weights maximize the composite
    criterion under the score constraint ``sum_i w_i psi_i(theta) = 0``
    stacked with the population constraints (solved through the transformed
    standard-EL problem).  The outer maximization runs BFGS from the two-step
    estimate plus jittered restarts; the spread of the restart optima is
    reported in ``diagnostics["multistart_spread"]``.
    """
    return FitProblem(data, model, constraints, vis, el_tol, el_max_iter)._joint(seed, theta0, multistart)
