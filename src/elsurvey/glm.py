"""Outcome models: score functions, Jacobians, and IRLS fitting.

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
from scipy.special import expit

from .data import as_names
from .errors import ConvergenceError, DataError

FAMILIES = ("bernoulli-logit", "gamma-inverse", "gaussian-identity")


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
        if not self.intercept and not self.terms:
            raise DataError("ModelSpec: model has no intercept and no terms")

    @property
    def p(self) -> int:
        return len(self.terms) + (1 if self.intercept else 0)

    @property
    def coef_names(self) -> tuple[str, ...]:
        return (("intercept",) if self.intercept else ()) + self.terms


def design_matrix(model: ModelSpec, data) -> np.ndarray:
    """Stack the model's covariate columns, intercept first, column-major (each column contiguous)."""
    cols = []
    if model.intercept:
        cols.append(np.ones(data.n))
    for name in model.terms:
        if name not in data.columns:
            raise DataError(f"design_matrix: model term {name!r} is not a column of the data")
        cols.append(data.columns[name])
    return np.stack(cols).T


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


def _resid_curv(family: str, eta: np.ndarray, y: np.ndarray, name: str):
    """``(r, c)`` with ``psi_i = r_i a_i`` and ``d psi_i / d theta = -c_i a_i a_i'``, from one ``eta``."""
    if family == "bernoulli-logit":
        mu = expit(eta)
        return y - mu, mu * (1.0 - mu)
    if family == "gaussian-identity":
        return y - eta, np.ones_like(eta)
    if np.any(eta <= 0.0):
        raise ConvergenceError(f"gamma-inverse {name}: nonpositive linear predictor")
    return 1.0 / eta - y, 1.0 / eta**2


def _jacobian(A: np.ndarray, weights: np.ndarray, curv: np.ndarray) -> np.ndarray:
    return -(A.T * (weights * curv)) @ A


def _score_parts(model: ModelSpec, theta, data, A=None):
    """``(A, psi, curv)`` at ``theta``, checked as :func:`score` checks them; ``A`` is built unless given."""
    theta = _check_theta(model, theta)
    A = design_matrix(model, data) if A is None else A
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


def _wls(X: np.ndarray, z: np.ndarray, W: np.ndarray) -> np.ndarray:
    XtW = X.T * W
    return np.linalg.solve(XtW @ X, XtW @ z)


def irls_fit(family: str, y, X, case_weights=None, tol: float = 1e-10, max_iter: int = 100) -> np.ndarray:
    """Iteratively reweighted least squares for one of the supported families.

    Convergence is declared when the max-norm coefficient change drops below
    ``tol``.  For ``gamma-inverse`` each update is halved toward the previous
    iterate (at most 50 times) until the linear predictor is positive
    everywhere.  Raises :class:`ConvergenceError` on divergence (including
    suspected separation for the logit) and :class:`DataError` for rank
    deficiency.
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
    _check_response(family, y)
    c = np.ones(n) if case_weights is None else np.asarray(case_weights, dtype=float)
    if c.shape != (n,) or np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise DataError("irls_fit: case weights must be strictly positive, finite, length n")
    if np.linalg.matrix_rank(X * np.sqrt(c)[:, None]) < p:
        raise DataError("irls_fit: design matrix is rank deficient")

    if family == "gaussian-identity":
        return _wls(X, y, c)

    if family == "bernoulli-logit":
        beta = np.zeros(p)
        for _ in range(max_iter):
            eta = X @ beta
            mu = expit(eta)
            s = np.clip(mu * (1.0 - mu), 1e-12, None)
            z = eta + (y - mu) / s
            beta_new = _wls(X, z, c * s)
            if np.max(np.abs(beta_new)) > 1e3:
                raise ConvergenceError("irls_fit: coefficients diverging (separation suspected)")
            delta = np.max(np.abs(beta_new - beta))
            beta = beta_new
            if delta < tol:
                return beta
        raise ConvergenceError(f"irls_fit: no convergence in {max_iter} iterations")

    # gamma-inverse: keep eta = X @ beta strictly positive throughout.
    beta = _wls(X, 1.0 / y, c * y * y)
    if np.any(X @ beta <= 0.0):
        if np.all(X[:, 0] == 1.0):
            beta = np.zeros(p)
            beta[0] = 1.0 / (c @ y / c.sum())
        else:
            raise ConvergenceError("irls_fit: no feasible starting point for gamma-inverse")
    for _ in range(max_iter):
        eta = X @ beta
        mu = 1.0 / eta
        z = eta - (y - mu) / mu**2
        beta_prop = _wls(X, z, c * mu**2)
        halvings = 0
        while np.any(X @ beta_prop <= 0.0):
            beta_prop = 0.5 * (beta_prop + beta)
            halvings += 1
            if halvings > 50:
                raise ConvergenceError("irls_fit: gamma-inverse step halving failed to restore positivity")
        if np.max(np.abs(beta_prop)) > 1e3:
            raise ConvergenceError("irls_fit: coefficients diverging")
        delta = np.max(np.abs(beta_prop - beta))
        beta = beta_prop
        if delta < tol:
            return beta
    raise ConvergenceError(f"irls_fit: no convergence in {max_iter} iterations")
