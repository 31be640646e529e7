"""Plug-in sandwich covariance for the fitted estimators.

Every estimator's covariance is one sandwich over six weighted moments of the
score ``psi``, its derivative ``psi'`` and the constraint residuals ``h``.
The fits differ only in three row weights, the bread weight ``b`` and the
meat weights ``m1`` and ``m2``, built from the fit's weights ``w``, the
design weights ``d`` and, for a composite fit, the visibility ``bp``:

=====================  ==========  ==========  ==========
rows                   ``b``       ``m1``      ``m2``
=====================  ==========  ==========  ==========
without ``bp``         ``w d``     ``w^2 d``   ``m1 d``
with ``bp``            ``w / bp``  ``b^2``     ``m1``
=====================  ==========  ==========  ==========

``pl`` and ``cs`` (``q = 0`` for ``pl``) take the rows without ``bp``.  The sums are

* ``G  = sum_i b_i  psi'_i``      ``G* = sum_i m2_i psi_i psi_i'``
* ``K1 = sum_i m1_i psi_i h_i'``  ``K2 = sum_i m2_i psi_i h_i'``
* ``H1 = sum_i m1_i h_i h_i'``    ``H2 = sum_i m2_i h_i h_i'``

and the covariance is ``V = G^-1 M(A) G^-T`` with ``A = K1 H1^-1`` and

    M(A) = G* - A K2' - K2 A' + A H2 A'.

``M(A) = M(A*) + (A - A*) H2 (A - A*)'`` with ``A* = K2 H2^-1``.  ``ce``
has ``K1 = K2`` and ``H1 = H2``, so it takes ``A = A*``, where ``M`` is
smallest.  Where ``cs`` and ``ce`` share ``G``, ``G*``, ``K2`` and ``H2``,
``G (V_cs - V_ce) G'`` is therefore the positive semidefinite
``(A - A*) H2 (A - A*)'`` of the ``cs`` ``A``: the composite fit is no less
efficient (:func:`efficiency_gap` reports the gap).

Each sum is formed as ``(X.T * v) @ Y`` with ``v`` the per-row weight, so with
the column-major ``psi`` and ``H`` that the package builds, the weighting scales
contiguous rows of ``X.T``; any layout is accepted.

Because these sums carry the sample-size scale themselves (``n`` times each
literal sum is the asymptotic-variance component), the assembled sandwich is
already the estimated covariance of ``theta_hat``; no further division by
``n`` is applied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ConstraintSpec, Dataset, build_constraint_matrix
from .errors import DataError
from .glm import ModelSpec, _jacobian, _score_parts

COND_WARN = 1e12


@dataclass(frozen=True)
class CovarianceComponents:
    """Weighted moment matrices entering the sandwich; ``K1``, ``K2`` are ``p x q`` and
    ``H1``, ``H2`` are ``q x q``, with ``q = 0`` when there are no constraints."""

    G: np.ndarray
    Gstar: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    H1: np.ndarray
    H2: np.ndarray


def components_from_arrays(theta, w, data: Dataset, model: ModelSpec, H: np.ndarray, bp=None,
                           A=None) -> CovarianceComponents:
    """The component sums for weights ``w`` and constraint residuals ``H``: the composite rows (``ce``)
    given ``bp``, else the design rows (``pl``, ``cs``); the design matrix ``A`` is built unless given."""
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
    A, psi, curv = _score_parts(model, theta, data, A)
    # G is formed, and A and curv dropped, before the meat weights exist: no more
    # n-vectors are alive at once than in G's own evaluation.
    b = w / bp if composite else w * data.d
    G = _jacobian(A, b, curv)
    del A, curv
    m1 = b * b if composite else w * w * data.d
    m2 = m1 if composite else m1 * data.d
    K1, H1 = (psi.T * m1) @ H, (H.T * m1) @ H
    K2, H2 = (K1, H1) if composite else ((psi.T * m2) @ H, (H.T * m2) @ H)
    return CovarianceComponents(G=G, Gstar=(psi.T * m2) @ psi, K1=K1, K2=K2, H1=H1, H2=H2)


def covariance_components(fit, data: Dataset, model: ModelSpec, constraints: ConstraintSpec,
                          vis=None) -> CovarianceComponents:
    """Component sums for a converged fit (see :func:`components_from_arrays`) in its own form: with no
    multiplier (``pl``) ``H`` has no columns, and a composite fit (with ``Bp_hat``) takes ``vis.bp``."""
    if not fit.diagnostics.get("converged", False):
        raise DataError("covariance_components: fit did not converge; no covariance is available")
    H = build_constraint_matrix(data, constraints).H if fit.multiplier.size else np.empty((data.n, 0))
    bp = None
    if fit.Bp_hat is not None:
        if vis is None:
            raise DataError("covariance_components: the composite fit needs the visibility model")
        bp = vis.bp
    return components_from_arrays(fit.theta, fit.weights, data, model, H, bp=bp)


def _warn_cond(M: np.ndarray, name: str) -> None:
    if M.size and np.linalg.cond(M) > COND_WARN:
        warnings.warn(f"assemble_covariance: {name} has condition number above {COND_WARN:.0e}", stacklevel=3)


def assemble_covariance(components: CovarianceComponents) -> np.ndarray:
    """Assemble the sandwich ``G^-1 M(A) G^-T`` with ``A = K1 H1^-1`` (module docstring).

    Returns the estimated covariance of ``theta_hat``; ``n`` times the
    result estimates the asymptotic variance of ``sqrt(n) (theta_hat -
    theta)``.  The component sums already carry the ``1/n`` scale, so the
    assembled matrix is used as-is for standard errors.  The output is
    symmetrized.
    """
    c = components
    M = c.Gstar
    if c.H1.size:
        _warn_cond(c.H1, "H1")
        A = np.linalg.solve(c.H1, c.K1.T).T  # K1 H1^-1
        M = c.Gstar - A @ c.K2.T - c.K2 @ A.T + A @ c.H2 @ A.T
    _warn_cond(c.G, "G")
    X = np.linalg.solve(c.G, M)
    V = np.linalg.solve(c.G, X.T).T
    return 0.5 * (V + V.T)


@dataclass(frozen=True)
class EfficiencyGap:
    """Difference of two covariance estimates and its smallest eigenvalue."""

    gap: np.ndarray
    min_eigenvalue: float


def efficiency_gap(V_cs: np.ndarray, V_ce: np.ndarray) -> EfficiencyGap:
    """Gap ``V_cs - V_ce``; a nonnegative spectrum means the composite fit
    is no less efficient in every direction."""
    V_cs = np.asarray(V_cs, dtype=float)
    V_ce = np.asarray(V_ce, dtype=float)
    if V_cs.shape != V_ce.shape or V_cs.ndim != 2 or V_cs.shape[0] != V_cs.shape[1]:
        raise DataError(f"efficiency_gap: incompatible shapes {V_cs.shape} and {V_ce.shape}")
    gap = V_cs - V_ce
    gap = 0.5 * (gap + gap.T)
    return EfficiencyGap(gap=gap, min_eigenvalue=float(np.linalg.eigvalsh(gap).min()))
