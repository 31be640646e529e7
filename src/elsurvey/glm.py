"""Outcome models: score functions, Jacobians, and their damped Newton solves.

Three exponential-family regressions with canonical links are supported:

* ``bernoulli-logit``: mean ``expit(a'theta)``, score ``(y - mu) a``
* ``gaussian-identity``: mean ``a'theta``, score ``(y - mu) a``
* ``gamma-inverse``: mean ``1 / (a'theta)``, score ``(mu - y) a``
  (dispersion cancels from the estimating equation); the linear predictor
  must stay strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_bool, as_names
from .elcore import damped_newton, r_factor, row_sum
from .errors import ConvergenceError, DataError

FAMILIES = ("bernoulli-logit", "gamma-inverse", "gaussian-identity")
IRLS_TOL, IRLS_MAX_ITER = 1e-10, 100  # irls_fit's step stop rule and iteration cap


@dataclass(frozen=True)
class ModelSpec:
    """Outcome model: family, covariate columns (a list, not a string), and intercept flag."""

    family: str
    terms: tuple[str, ...] = ()
    intercept: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"ModelSpec: unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "terms", as_names(self.terms, "ModelSpec: terms"))
        object.__setattr__(self, "intercept", as_bool(self.intercept, "ModelSpec: intercept"))
        if not self.intercept and not self.terms:
            raise DataError("ModelSpec: model has no intercept and no terms")

    @property
    def p(self) -> int:
        return len(self.terms) + (1 if self.intercept else 0)

    @property
    def coef_names(self) -> tuple[str, ...]:
        return (("intercept",) if self.intercept else ()) + self.terms


def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``, the formula of scipy's ``expit``, in one new array.

    Takes a number or an array and leaves it unchanged; a 0-d result is returned as a numpy scalar.
    """
    with np.errstate(over="ignore"):  # exp(-x) is inf below x = -709.78, and 1 / inf is 0
        out = np.negative(x, out=np.empty(np.shape(x)), dtype=float)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)[()]


def design_matrix(model: ModelSpec, data) -> np.ndarray:
    """Stack the model's covariate columns, intercept first, column-major (each column contiguous); each
    term must be a column of the data with finite values."""
    cols = [data.column(name, "design_matrix: model term") for name in model.terms]
    return np.stack([np.ones(data.n)] + cols if model.intercept else cols).T


def _check_theta(model: ModelSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise DataError(f"theta has shape {theta.shape}, expected ({model.p},)")
    if not np.all(np.isfinite(theta)):
        raise DataError("theta contains non-finite values")
    return theta


def _check_response(family: str, y: np.ndarray) -> None:
    if family == "bernoulli-logit" and not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("bernoulli-logit: response must be 0/1")
    if family == "gamma-inverse" and np.any(y <= 0.0):
        raise DataError("gamma-inverse: response must be strictly positive")


def _resid_curv(family: str, eta: np.ndarray, y: np.ndarray, name: str, curv=None):
    """``(r, c)`` with ``psi_i = r_i a_i`` and ``d psi_i / d theta = -c_i a_i a_i'``, from one ``eta``; ``c`` is
    written into ``curv`` when it is given."""
    curv = np.empty_like(eta) if curv is None else curv
    if family == "bernoulli-logit":
        mu = expit(eta)
        return y - mu, np.multiply(mu, 1.0 - mu, out=curv)
    if family == "gaussian-identity":
        curv.fill(1.0)
        return y - eta, curv
    if np.any(eta <= 0.0):
        raise ConvergenceError(f"gamma-inverse {name}: nonpositive linear predictor")
    return 1.0 / eta - y, np.divide(1.0, eta**2, out=curv)


def _jacobian(A: np.ndarray, weights: np.ndarray, curv: np.ndarray) -> np.ndarray:
    return -((A.T * (weights * curv)) @ A)


def _score_parts(model: ModelSpec, theta, data):
    """``(A, psi, curv)`` at ``theta``, checked as :func:`score` checks them."""
    theta = _check_theta(model, theta)
    A = design_matrix(model, data)
    _check_response(model.family, data.y)
    resid, curv = _resid_curv(model.family, A @ theta, data.y, "score")
    return A, (A.T * resid).T, curv


def score(model: ModelSpec, theta, data) -> np.ndarray:
    """Per-observation estimating functions, shape ``(n, p)``."""
    return _score_parts(model, theta, data)[1]


def score_jacobian(model: ModelSpec, theta, data, weights) -> np.ndarray:
    """Weighted sum of per-observation score derivatives, shape ``(p, p)``.

    Returns ``sum_i weights_i * d psi_i / d theta``, which is symmetric
    negative semidefinite for all three families.
    """
    theta = _check_theta(model, theta)
    weights = np.asarray(weights, dtype=float)
    A = design_matrix(model, data)
    if weights.shape != (A.shape[0],):
        raise DataError(f"score_jacobian: weights have shape {weights.shape}, expected ({A.shape[0]},)")
    return _jacobian(A, weights, _resid_curv(model.family, A @ theta, data.y, "score_jacobian")[1])


def _score_newton(family: str, A: np.ndarray, y: np.ndarray, weights: np.ndarray, theta: np.ndarray,
                  tol: float, max_iter: int, stop_on_step: bool = False):
    """:func:`damped_newton` on the weighted score sum ``A'(weights * r)``, a :func:`row_sum` that never
    forms the ``(n, p)`` score matrix; a candidate outside the score's domain in any block shortens the step.
    ``weights`` is an n-vector or one number for all rows.  Each evaluation refills the solve's one n-vector
    of curvatures, which the Jacobian, formed only for a step, reads (see :func:`damped_newton`).

    Returns ``(theta, iterations, residual, reason)``, with ``reason`` empty
    on success; never raises for non-convergence.
    """
    curv = np.empty(len(y))

    def evaluate(theta):
        def block(A, y, weights, curv):
            r = _resid_curv(family, A @ theta, y, "score", curv)[0]
            return A.T @ (weights * r)

        try:
            g = row_sum(block, A, y, weights, curv)
        except ConvergenceError:
            return None
        return g, lambda: row_sum(_jacobian, A, weights, curv)

    theta, iters, resid, failure = damped_newton(evaluate, theta, tol, max_iter, 1e3, stop_on_step)
    if not failure:
        return theta, iters, resid, ""
    reason = {"start": f"invalid start: {family} score: nonpositive linear predictor",
              "line search": "line search failed on the weighted score equation",
              "bound": "parameter norm exceeded 1e3 (separation or divergence)",
              "max_iter": f"no convergence in {max_iter} iterations (score max-norm {resid:.3e})"}[failure]
    return theta, iters, resid, reason


def _check_unsaturated(family: str, eta: np.ndarray, caller: str) -> None:
    """Raise :class:`ConvergenceError` if a logit fit puts some row at probability exactly 0 or 1.

    Such a row adds nothing to the score or its Jacobian, so both a step and a score near 0 can
    stop a Newton on separated data while the likelihood still rises.  ``expit`` is monotone: the
    extreme rows tell.
    """
    if family == "bernoulli-logit" and (expit(eta.min()) == 0.0 or expit(eta.max()) == 1.0):
        raise ConvergenceError(f"{caller}: fitted probabilities of exactly 0 or 1 (separation suspected)")


def _wls(X: np.ndarray, y: np.ndarray, c, gamma: bool = False) -> np.ndarray:
    """The WLS fit of ``y`` under weights ``c``, or with ``gamma`` of ``1 / y`` under ``c y^2``, from row sums."""
    def block(X, y, c):
        z, W = (1.0 / y, c * y * y) if gamma else (y, c)
        XtW = X.T * W
        return XtW @ X, XtW @ z

    return np.linalg.solve(*row_sum(block, X, y, c))


def irls_fit(family: str, y, X, case_weights=None) -> np.ndarray:
    """Maximum-likelihood fit of one of the supported families, with optional case weights.

    Without case weights each row weighs the number 1.0, and only the gamma
    start's reciprocal mean below forms a vector of ones.
    ``gaussian-identity`` is one weighted least-squares (WLS) solve, summed
    over blocks of rows as the score is.  The others run :func:`damped_newton`
    on the case-weighted score, whose Newton step is the IRLS update, from
    zeros (logit) or from the WLS fit of ``1 / y`` (gamma; the reciprocal mean
    if that leaves the domain).  As in IRLS it stops, taking the step, once the
    full step's max-norm is below :data:`IRLS_TOL`, within
    :data:`IRLS_MAX_ITER` iterations: on separated logit data the score
    vanishes as the coefficients grow, the step does not.  Raises
    :class:`ConvergenceError` on divergence (including suspected separation)
    and :class:`DataError` for non-finite input or rank deficiency.
    """
    if family not in FAMILIES:
        raise DataError(f"irls_fit: unknown family {family!r}; expected one of {FAMILIES}")
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError(f"irls_fit: X has shape {X.shape}, incompatible with y of length {y.shape[0]}")
    n, p = X.shape
    if n <= p:
        raise DataError(f"irls_fit: need more observations than parameters (n={n}, p={p})")
    for name, values in (("y", y), ("X", X)):
        if not np.all(np.isfinite(values)):
            raise DataError(f"irls_fit: {name} has non-finite values")
    _check_response(family, y)
    c = 1.0 if case_weights is None else np.asarray(case_weights, dtype=float)
    if case_weights is not None and (c.shape != (n,) or np.any(c <= 0.0) or not np.all(np.isfinite(c))):
        raise DataError("irls_fit: case weights must be strictly positive, finite, length n")
    s = np.linalg.svd(r_factor(X, None if case_weights is None else c), compute_uv=False)
    if s[-1] <= s[0] * max(n, p) * np.finfo(float).eps:  # np.linalg.matrix_rank's threshold
        raise DataError("irls_fit: design matrix is rank deficient")

    if family == "gaussian-identity":
        return _wls(X, y, c)
    if family == "bernoulli-logit":
        beta = np.zeros(p)
    else:
        beta = _wls(X, y, c, gamma=True)
        if np.any(X @ beta <= 0.0):
            if not np.all(X[:, 0] == 1.0):
                raise ConvergenceError("irls_fit: no feasible starting point for gamma-inverse")
            c = np.ones(n) if case_weights is None else c
            beta = np.zeros(p)
            beta[0] = 1.0 / (c @ y / c.sum())
    beta, _, _, reason = _score_newton(family, X, y, c, beta, IRLS_TOL, IRLS_MAX_ITER, stop_on_step=True)
    if reason:
        raise ConvergenceError(f"irls_fit: {reason}")
    _check_unsaturated(family, X @ beta, "irls_fit")
    return beta
