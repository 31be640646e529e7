"""Plug-in sandwich covariance for the fitted estimators.

Every estimator's covariance is one sandwich over the score ``psi``, its
derivative ``psi'`` and the constraint residuals ``h``.  The fits differ only
in two row weights, the bread weight ``b`` and the weight ``m1`` of the
constraint projection, built from the fit's weights ``w``, the design weights
``d`` and, for a composite fit, the visibility ``bp``:

=====================  ==========  ==========
rows                   ``b``       ``m1``
=====================  ==========  ==========
without ``bp``         ``w d``     ``w^2 d``
with ``bp``            ``w / bp``  ``b^2``
=====================  ==========  ==========

``pl`` and ``cs`` (``q = 0`` for ``pl``) take the rows without ``bp``.  With
``G = sum_i b_i psi'_i``, ``K1 = sum_i m1_i psi_i h_i'``, ``H1 = sum_i m1_i h_i h_i'``
and ``A = K1 H1^-1``, each row's influence is ``u_i = b_i (psi_i - A h_i)``,
the meat is their Gram ``M = sum_i u_i u_i' = U'U`` and the covariance is

    V = G^-1 M G^-T.

``M`` is positive semidefinite by construction.  Expanded, it is ``M(A) = G* -
A K2' - K2 A' + A H2 A'`` with the ``b^2``-weighted sums ``G*``, ``K2`` and
``H2`` of ``psi psi'``, ``psi h'`` and ``h h'``, and ``M(A) = M(A*) + (A -
A*) H2 (A - A*)'`` with ``A* = K2 H2^-1``.  ``ce`` has ``m1 = b^2``, so it
takes ``A = A*``, where ``M`` is smallest.  Where ``cs`` and ``ce`` share
``G``, ``G*``, ``K2`` and ``H2``, ``G (V_cs - V_ce) G'`` is therefore the
positive semidefinite ``(A - A*) H2 (A - A*)'`` of the ``cs`` ``A``: the
composite fit is no less efficient: ``V_cs - V_ce`` has no negative eigenvalue.
The expanded form is not computed, as it loses digits to cancellation.

Each weighted sum is :func:`elsurvey.elcore.row_sum` of ``(X[rows].T * v[rows])
@ Y[rows]`` over blocks of ``ROWS`` rows, with ``v`` the per-row weight; with
the column-major ``H`` that the package builds, the weighting scales contiguous
pieces of the rows of ``X.T``, and any layout is accepted.  The first pass
forms ``G``, ``K1`` and ``H1`` and fills ``psi'`` and ``b``; the second
overwrites each block of ``psi'`` with its influence rows and sums ``U'U``.

Because these sums carry the sample-size scale themselves (``n`` times each
literal sum is the asymptotic-variance component), the assembled sandwich is
already the estimated covariance of ``theta_hat``; no further division by
``n`` is applied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .elcore import row_sum
from .errors import DataError
from .glm import ModelSpec, _check_response, _check_theta, _jacobian, _resid_curv, design_matrix

COND_WARN = 1e12


@dataclass(frozen=True)
class CovarianceComponents:
    """The bread ``G`` (``p x p``), the projection sums ``K1`` (``p x q``) and ``H1`` (``q x q``), with
    ``q = 0`` when there are no constraints, and the meat ``M = U'U`` (``p x p``) of the sandwich."""

    G: np.ndarray
    K1: np.ndarray
    H1: np.ndarray
    M: np.ndarray


def components_from_arrays(theta, w, data: Dataset, model: ModelSpec, H: np.ndarray, bp=None,
                           A=None) -> CovarianceComponents:
    """The components for weights ``w`` and constraint residuals ``H``: the composite rows (``ce``)
    given ``bp``, else the design rows (``pl``, ``cs``); the design matrix ``A`` is built unless given.
    Warns on an ``H1`` with condition number above ``COND_WARN``; a singular one raises LinAlgError."""
    w = np.asarray(w, dtype=float)
    if w.shape != (data.n,):
        raise DataError(f"components_from_arrays: weights have shape {w.shape}, expected ({data.n},)")
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != data.n:
        raise DataError(f"components_from_arrays: H has shape {H.shape}, expected ({data.n}, q)")
    composite = bp is not None
    if composite:
        bp = np.asarray(bp, dtype=float)
        if bp.shape != (data.n,):
            raise DataError(f"components_from_arrays: bp has shape {bp.shape}, expected ({data.n},)")
    theta = _check_theta(model, theta)
    A = design_matrix(model, data) if A is None else A
    _check_response(model.family, data.y)
    Ut, b = np.empty((model.p, data.n)), np.empty(data.n)  # psi', then the influence rows; the bread weight
    rw = bp if composite else data.d  # b is w / bp or w d

    def bread(A, H, w, y, rw, psi, b):  # psi: rows of Ut.T
        r, curv = _resid_curv(model.family, A @ theta, y, "score")
        np.multiply(A.T, r, out=psi.T)
        (np.divide if composite else np.multiply)(w, rw, out=b)
        m1 = b * b if composite else w * w * rw
        return _jacobian(A, b, curv), (psi.T * m1) @ H, (H.T * m1) @ H

    G, K1, H1 = row_sum(bread, A, H, w, data.y, rw, Ut.T, b)
    _warn_cond(H1, "components_from_arrays: H1")
    proj = np.linalg.solve(H1, K1.T).T  # A = K1 H1^-1; p x 0, and an exact zero step below, when q = 0

    def meat(H, u, b):  # u: rows of Ut.T
        u = u.T
        u -= proj @ H.T  # psi' - A H'
        u *= b
        return u @ u.T

    return CovarianceComponents(G=G, K1=K1, H1=H1, M=row_sum(meat, H, Ut.T, b))


def _warn_cond(M: np.ndarray, name: str) -> None:
    if M.size and np.linalg.cond(M) > COND_WARN:
        warnings.warn(f"{name} has condition number above {COND_WARN:.0e}", stacklevel=3)


def assemble_covariance(components: CovarianceComponents) -> np.ndarray:
    """Assemble the sandwich ``G^-1 M G^-T`` (module docstring).

    Returns the estimated covariance of ``theta_hat``; ``n`` times the
    result estimates the asymptotic variance of ``sqrt(n) (theta_hat -
    theta)``.  The component sums already carry the ``1/n`` scale, so the
    assembled matrix is used as-is for standard errors.  The output is
    symmetrized.
    """
    c = components
    _warn_cond(c.G, "assemble_covariance: G")
    X = np.linalg.solve(c.G, c.M)
    V = np.linalg.solve(c.G, X.T).T
    return 0.5 * (V + V.T)
