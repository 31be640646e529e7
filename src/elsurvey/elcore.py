"""Empirical-likelihood inner solvers.

Both entry points reduce to minimizing a smooth convex dual by
:func:`damped_newton`, the package's one Newton loop (the score solves of
:mod:`elsurvey.glm` use it too), restricted to the domain on which the
logarithms are defined.  There is no smoothing or extension of the
log outside its domain: when zero is not an interior point of the convex hull
of the constraint rows the solvers raise :class:`InfeasibleError` instead of
returning a fabricated answer.

* :func:`solve_el` - standard EL: maximize ``sum_i log w_i`` over the simplex
  subject to ``sum_i w_i U_i = 0``.
* :func:`solve_weighted_el` - design-weighted EL: maximize
  ``sum_i d_i log w_i`` under the same constraints.

Every sum over the ``n`` rows of the numeric core (the dual here, the score
Newton of :mod:`elsurvey.glm` and the sandwich of :mod:`elsurvey.variance`) is
:func:`row_sum`: the sum of one whole-array computation applied to consecutive
blocks of :data:`ROWS` rows, so that its temporaries stay in the core's cache.
With at most ``ROWS`` rows it is that computation itself, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, InfeasibleError

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-14
MAX_MULTIPLIER = 1e8
# Rows per block of a row sum.  One logit score evaluation with its Jacobian, and one dual evaluation with its
# Hessian (q = 2), at 256,000 rows and one BLAS thread took 4.25 and 2.57 ms over whole arrays, and 2.87 and
# 1.60, 2.83 and 1.41, 2.74 and 1.43, and 2.82 and 1.46 ms in blocks of 8,192, 16,384, 24,576 and 32,768 rows.
# Where the whole arrays fit in a core's 2 MiB cache, a block adds a fixed cost: at 20,000 rows 0.167 and
# 0.093 ms became 0.211 and 0.107 ms in blocks of 16,384.  With at most ROWS rows a sum is one block.
ROWS = 16384


def row_sum(f, *rows):
    """The sum of ``f(*blocks)`` over the consecutive blocks of ``ROWS`` rows of ``rows``, arrays that share their
    first axis or numbers that hold for every row, or ``f(*rows)`` itself when one block covers them.  ``f`` returns
    an array, a tuple of arrays (summed term by term) or None, which marks the rows off a domain and makes the sum
    None without evaluating the blocks after it."""
    n = len(rows[0])
    if n <= ROWS:
        return f(*rows)
    total = None
    for start in range(0, n, ROWS):
        part = f(*(a[start:start + ROWS] if isinstance(a, np.ndarray) else a for a in rows))
        if part is None:
            return None
        total = part if total is None else tuple(map(np.add, total, part)) if isinstance(part, tuple) else total + part
    return total


@dataclass(frozen=True)
class ELSolution:
    """Solution of an inner EL problem.

    ``w`` is the weight vector (sums to one, strictly positive),
    ``multiplier`` the dual vector, ``logEL`` the value of the entry point's
    own objective at the solution, and ``residual`` the max-norm of the
    weighted constraint sums.  ``converged`` is always true: a failed solve
    raises :class:`InfeasibleError` or :class:`ConvergenceError`.
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


def _sign_precheck(U: np.ndarray, name: str) -> list[int]:
    # The non-vacuous (not all-zero) columns of the finite `U`.  Necessary condition per column:
    # sum_i w_i U_ik = 0 with w > 0 forces every non-vacuous column to take both signs.
    active = []
    for k in range(U.shape[1]):
        lo, hi = U[:, k].min(), U[:, k].max()
        if lo == hi == 0.0:
            continue
        if lo >= 0.0 or hi <= 0.0:
            raise InfeasibleError(
                f"{name}: constraint column {k} never changes sign; "
                "zero is outside the convex hull of the constraint rows"
            )
        active.append(k)
    return active


def damped_newton(evaluate, x, tol: float, max_iter: int, bound: float, stop_on_step: bool = False):
    """Damped Newton for a root of ``g``, with ``evaluate(x) -> (g(x), jac)``, or None off ``g``'s domain.

    Each step is halved until the candidate is in the domain and the max-norm
    ``|g|`` falls by the Armijo factor ``1 - ARMIJO_C1 * t``; for a convex
    dual or a concave log-likelihood the Newton direction always decreases it,
    and unlike a test on the objective this cannot stall at double-precision
    resolution.  ``jac()`` gives the Jacobian at ``x``; it is formed only for
    a step.  Stops when ``|g| < tol``, at the start or after any step up to
    the ``max_iter``-th, or, with ``stop_on_step``, when the full step's
    max-norm is below ``tol``, taking that step.  Returns ``(x,
    iterations, |g|, failure)``, ``failure`` one of ``""`` (converged),
    ``"start"`` (``x`` off the domain), ``"line search"``, ``"bound"`` (``|x|``
    exceeded ``bound``) and ``"max_iter"``.
    """
    ev = evaluate(x)
    if ev is None:
        return x, 0, np.inf, "start"
    g, jac = ev
    gnorm = float(np.abs(g).max())
    for it in range(1, max_iter + 2):  # the last pass only tests the iterate of the last allowed step
        if gnorm < tol and not stop_on_step:
            return x, it - 1, gnorm, ""
        if it > max_iter:
            break
        J = jac()
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -g, rcond=None)[0]
        if stop_on_step and np.abs(step).max() < tol:
            return x + step, it, gnorm, ""
        t = 1.0
        while True:
            x_new = x + t * step
            ev = evaluate(x_new)
            if ev is not None:
                gnorm_new = float(np.abs(ev[0]).max())
                if gnorm_new <= (1.0 - ARMIJO_C1 * t) * gnorm:  # false for a NaN residual
                    break
            t *= 0.5
            if t < MIN_STEP:
                return x, it, gnorm, "line search"
        x, (g, jac), gnorm = x_new, ev, gnorm_new
        if np.abs(x).max() > bound:
            return x, it, gnorm, "bound"
    return x, max_iter, gnorm, "max_iter"


def _dual_newton(U: np.ndarray, d: np.ndarray | float, tol: float, max_iter: int, name: str):
    """Minimize ``phi(lam) = -sum_i d_i log(1 + lam'U_i)`` over ``1 + lam'U_i > d_i``.

    ``d`` is a length-n array or one number for all rows.  Vacuous columns
    keep a zero multiplier; the rest form the C-contiguous ``(k, n)``
    transpose ``Ut`` (``U.T`` itself for a column-major ``U`` with none), so
    the Hessian ``(Ut * v) @ Ut.T`` scales and sums contiguous rows.  Each
    evaluation fills one n-vector of its weights ``v = d / (1 + lam'U_i)^2``
    block by block; the Hessian, formed only for a step, reads it in a second pass.
    Returns ``(lam, iterations)``; raises when no solution is found.
    """
    active, lam = _sign_precheck(U, name), np.zeros(U.shape[1])
    if not active:
        return lam, 0
    Ut = np.ascontiguousarray(U.T if len(active) == U.shape[1] else U.T[active])

    def evaluate(v):
        def block(U, d, curv):  # rows of Ut.T
            s = v @ U.T
            s += 1.0
            if not (s > d).all():
                return None
            r = d / s
            np.divide(r, s, out=curv)
            return -(U.T @ r)

        curv = np.empty(Ut.shape[1])
        g = row_sum(block, Ut.T, d, curv)
        return None if g is None else (g, lambda: row_sum(lambda U, curv: (U.T * curv) @ U, Ut.T, curv))

    lam[active], iters, gnorm, failure = damped_newton(evaluate, np.zeros(len(active)), tol, max_iter,
                                                       MAX_MULTIPLIER)
    if failure == "line search":
        raise InfeasibleError(f"{name}: line search collapsed at the domain boundary "
                              f"(gradient max-norm {gnorm:.3e}); the constraints appear infeasible")
    if failure == "bound":
        raise InfeasibleError(f"{name}: multiplier norm exceeded {MAX_MULTIPLIER:.0e}; constraints appear infeasible")
    if failure:
        raise ConvergenceError(f"{name}: no convergence in {max_iter} iterations (gradient max-norm {gnorm:.3e})")
    return lam, iters


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
    lam, iters = _dual_newton(U, d, tol, max_iter, "solve_weighted_el")
    w = d / (1.0 + U @ lam)
    residual = float(np.max(np.abs(w @ U)))
    return ELSolution(w=w, multiplier=lam, logEL=float(d @ np.log(w)),
                      iterations=iters, converged=True, residual=residual)


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
    lam, iters = _dual_newton(U, 1.0 / n, tol, max_iter, "solve_el")
    w = 1.0 / (n * (1.0 + U @ lam))
    residual = float(np.max(np.abs(w @ U)))
    return ELSolution(w=w, multiplier=lam, logEL=float(np.sum(np.log(w))),
                      iterations=iters, converged=True, residual=residual)
