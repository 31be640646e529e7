"""Empirical-likelihood inner solvers.

Both entry points reduce to minimizing a smooth convex dual by damped
Newton with an Armijo backtracking line search, restricted to the domain on
which the logarithms are defined.  There is no smoothing or extension of the
log outside its domain: when zero is not an interior point of the convex hull
of the constraint rows the solvers raise :class:`InfeasibleError` instead of
returning a fabricated answer.

* :func:`solve_el` - standard EL: maximize ``sum_i log w_i`` over the simplex
  subject to ``sum_i w_i U_i = 0``.
* :func:`solve_weighted_el` - design-weighted EL: maximize
  ``sum_i d_i log w_i`` under the same constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, InfeasibleError

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-14
MAX_MULTIPLIER = 1e8


@dataclass(frozen=True)
class ELSolution:
    """Solution of an inner EL problem.

    ``w`` is the weight vector (sums to one, strictly positive),
    ``multiplier`` the dual vector, ``logEL`` the value of the entry point's
    own objective at the solution, and ``residual`` the max-norm of the
    weighted constraint sums.
    """

    w: np.ndarray
    multiplier: np.ndarray
    logEL: float
    iterations: int
    converged: bool
    residual: float


def _check_matrix(U, name: str) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise DataError(f"{name}: constraint matrix must be 2-d, got ndim={U.ndim}")
    if not np.all(np.isfinite(U)):
        raise DataError(f"{name}: constraint matrix has non-finite entries")
    n, q = U.shape
    if n <= q:
        raise DataError(f"{name}: need more rows than constraints (n={n}, q={q})")
    return U


def _sign_precheck(U: np.ndarray, name: str) -> None:
    # Necessary condition per column: sum_i w_i U_ik = 0 with w > 0 forces
    # every non-vacuous column to take both signs.
    for k in range(U.shape[1]):
        col = U[:, k]
        if np.all(col == 0.0):
            continue
        if col.min() >= 0.0 or col.max() <= 0.0:
            raise InfeasibleError(
                f"{name}: constraint column {k} never changes sign; "
                "zero is outside the convex hull of the constraint rows"
            )


def _dual_newton(U: np.ndarray, d: np.ndarray, guard: np.ndarray, tol: float, max_iter: int, name: str):
    """Minimize ``phi(lam) = -sum_i d_i log(1 + lam'U_i)`` over ``1 + lam'U_i > guard_i``.

    Newton steps are backtracked on the gradient max-norm: for a strictly
    convex dual the Newton direction always decreases it, and unlike an
    objective-based test this cannot stall once improvements in ``phi`` fall
    below double-precision resolution.  Returns
    ``(lam, iterations, converged, grad_norm)``.
    """
    n, q = U.shape
    active = [k for k in range(q) if not np.all(U[:, k] == 0.0)]
    lam_full = np.zeros(q)
    if not active:
        return lam_full, 0, True, 0.0
    Ua = U[:, active]
    lam = np.zeros(len(active))
    s = np.ones(n)
    grad = -Ua.T @ (d / s)
    for it in range(1, max_iter + 1):
        gnorm = np.max(np.abs(grad))
        if gnorm < tol:
            lam_full[active] = lam
            return lam_full, it - 1, True, gnorm
        r = d / s
        hess = (Ua * (r / s)[:, None]).T @ Ua
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        t = 1.0
        while True:
            lam_new = lam + t * step
            s_new = 1.0 + Ua @ lam_new
            if np.all(s_new > guard):
                grad_new = -Ua.T @ (d / s_new)
                if np.max(np.abs(grad_new)) <= (1.0 - ARMIJO_C1 * t) * gnorm:
                    break
            t *= 0.5
            if t < MIN_STEP:
                raise InfeasibleError(
                    f"{name}: line search collapsed at the domain boundary "
                    f"(gradient max-norm {gnorm:.3e}); the constraints appear infeasible"
                )
        lam, s, grad = lam_new, s_new, grad_new
        if np.max(np.abs(lam)) > MAX_MULTIPLIER:
            raise InfeasibleError(f"{name}: multiplier norm exceeded {MAX_MULTIPLIER:.0e}; constraints appear infeasible")
    gnorm = float(np.max(np.abs(grad)))
    raise ConvergenceError(f"{name}: no convergence in {max_iter} iterations (gradient max-norm {gnorm:.3e})")


def solve_weighted_el(U, d, tol: float = 1e-10, max_iter: int = 200) -> ELSolution:
    """Design-weighted EL: maximize ``sum_i d_i log w_i`` s.t. ``sum_i w_i U_i = 0``.

    The solution has ``w_i = d_i / (1 + lam'U_i)`` with the dual ``lam``
    chosen so the constraints hold; the domain keeps every ``w_i`` in (0, 1).
    With no constraints the weights are exactly ``d``.
    """
    U = _check_matrix(U, "solve_weighted_el")
    n, q = U.shape
    d = np.asarray(d, dtype=float)
    if d.shape != (n,) or np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise DataError("solve_weighted_el: d must be strictly positive, finite, length n")
    if abs(d.sum() - 1.0) > 1e-8:
        raise DataError(f"solve_weighted_el: d sums to {d.sum()!r}, expected 1")
    if q == 0:
        return ELSolution(w=d.copy(), multiplier=np.zeros(0), logEL=float(d @ np.log(d)),
                          iterations=0, converged=True, residual=0.0)
    _sign_precheck(U, "solve_weighted_el")
    lam, iters, converged, _ = _dual_newton(U, d, guard=d, tol=tol, max_iter=max_iter, name="solve_weighted_el")
    w = d / (1.0 + U @ lam)
    residual = float(np.max(np.abs(w @ U)))
    return ELSolution(w=w, multiplier=lam, logEL=float(d @ np.log(w)),
                      iterations=iters, converged=converged, residual=residual)


def solve_el(U, tol: float = 1e-10, max_iter: int = 200) -> ELSolution:
    """Standard EL: maximize ``sum_i log w_i`` s.t. simplex and ``sum_i w_i U_i = 0``.

    The solution has ``w_i = 1 / (n (1 + lam'U_i))``; the constraint sums at
    the dual optimum automatically give ``sum_i w_i = 1``.
    """
    U = _check_matrix(U, "solve_el")
    n, q = U.shape
    if q == 0:
        w = np.full(n, 1.0 / n)
        return ELSolution(w=w, multiplier=np.zeros(0), logEL=float(-n * np.log(n)),
                          iterations=0, converged=True, residual=0.0)
    _sign_precheck(U, "solve_el")
    d = np.full(n, 1.0 / n)
    lam, iters, converged, _ = _dual_newton(U, d, guard=d, tol=tol, max_iter=max_iter, name="solve_el")
    w = 1.0 / (n * (1.0 + U @ lam))
    residual = float(np.max(np.abs(w @ U)))
    return ELSolution(w=w, multiplier=lam, logEL=float(np.sum(np.log(w))),
                      iterations=iters, converged=converged, residual=residual)
