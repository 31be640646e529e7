"""Plug-in sandwich covariance for the fitted estimators.

The components are weighted empirical moments of the score ``psi``, its
derivative, and the constraint residuals ``h``.  For the design-weighted
estimators (``pl``, ``cs``) the sums use the EL weights and the design
weights; for the composite estimator (``ce``) they use the composite weights
and the visibility ``bp``:

* ``G  = sum_i w_i d_i psi'_i``        ``calG  = sum_i w_i psi'_i / bp_i``
* ``G* = sum_i w_i^2 d_i^2 psi psi'``  ``calG* = sum_i w_i^2 psi psi' / bp_i^2``
* ``K1 = sum_i w_i^2 d_i   psi h'``    ``calK2 = sum_i w_i^2 psi h' / bp_i^2``
* ``K2 = sum_i w_i^2 d_i^2 psi h'``    ``calH2 = sum_i w_i^2 h h'   / bp_i^2``
* ``H1 = sum_i w_i^2 d_i   h h'``
* ``H2 = sum_i w_i^2 d_i^2 h h'``

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
    """Weighted moment matrices entering the sandwich.

    The design-weighted set (``G`` .. ``H2``) is filled for ``pl``/``cs``
    fits, the visibility set (``calG`` .. ``calH2``) for ``ce`` fits; unused
    entries are None.
    """

    G: np.ndarray | None = None
    Gstar: np.ndarray | None = None
    K1: np.ndarray | None = None
    K2: np.ndarray | None = None
    H1: np.ndarray | None = None
    H2: np.ndarray | None = None
    calG: np.ndarray | None = None
    calGstar: np.ndarray | None = None
    calK2: np.ndarray | None = None
    calH2: np.ndarray | None = None


def components_from_arrays(estimator: str, theta, w, data: Dataset, model: ModelSpec,
                           H: np.ndarray, bp=None) -> CovarianceComponents:
    """Evaluate the component sums for given weights and constraint residuals."""
    w = np.asarray(w, dtype=float)
    if w.shape != (data.n,):
        raise DataError(f"components_from_arrays: weights have shape {w.shape}, expected ({data.n},)")
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != data.n:
        raise DataError(f"components_from_arrays: H has shape {H.shape}, expected ({data.n}, q)")
    A, psi, curv = _score_parts(model, theta, data)
    if estimator in ("pl", "cs"):
        d = data.d
        G = _jacobian(A, w * d, curv)
        m1 = w * w * d
        m2 = m1 * d
        return CovarianceComponents(
            G=G,
            Gstar=(psi.T * m2) @ psi,
            K1=(psi.T * m1) @ H,
            K2=(psi.T * m2) @ H,
            H1=(H.T * m1) @ H,
            H2=(H.T * m2) @ H,
        )
    if estimator in ("ce", "ce-joint"):
        if bp is None:
            raise DataError("components_from_arrays: the composite estimator needs visibility values")
        bp = np.asarray(bp, dtype=float)
        if bp.shape != (data.n,):
            raise DataError(f"components_from_arrays: bp has shape {bp.shape}, expected ({data.n},)")
        r = (w / bp) ** 2
        return CovarianceComponents(
            calG=_jacobian(A, w / bp, curv),
            calGstar=(psi.T * r) @ psi,
            calK2=(psi.T * r) @ H,
            calH2=(H.T * r) @ H,
        )
    raise DataError(f"components_from_arrays: unknown estimator {estimator!r}")


def covariance_components(fit, data: Dataset, model: ModelSpec, constraints: ConstraintSpec,
                          vis=None) -> CovarianceComponents:
    """Component sums for a converged fit (see :func:`components_from_arrays`)."""
    if not fit.diagnostics.get("converged", False):
        raise DataError("covariance_components: fit did not converge; no covariance is available")
    H = build_constraint_matrix(data, constraints).H
    bp = None
    if fit.estimator in ("ce", "ce-joint"):
        if vis is None:
            raise DataError("covariance_components: the composite estimator needs the visibility model")
        bp = vis.bp
    return components_from_arrays(fit.estimator, fit.theta, fit.weights, data, model, H, bp=bp)


def _warn_cond(M: np.ndarray, name: str) -> None:
    if M.size and np.linalg.cond(M) > COND_WARN:
        warnings.warn(f"assemble_covariance: {name} has condition number above {COND_WARN:.0e}", stacklevel=3)


def _bread_sandwich(G: np.ndarray, M: np.ndarray, name: str) -> np.ndarray:
    _warn_cond(G, name)
    X = np.linalg.solve(G, M)
    V = np.linalg.solve(G, X.T).T
    return 0.5 * (V + V.T)


def assemble_covariance(components: CovarianceComponents, estimator: str, n: int) -> np.ndarray:
    """Assemble the sandwich for ``estimator`` ("pl", "cs", or "ce").

    Returns the estimated covariance of ``theta_hat``; ``n`` times the
    result estimates the asymptotic variance of ``sqrt(n) (theta_hat -
    theta)``.  The component sums already carry the ``1/n`` scale, so the
    assembled matrix is used as-is for standard errors.  The output is
    symmetrized.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DataError(f"assemble_covariance: n must be a positive integer, got {n!r}")
    if estimator == "pl":
        if components.G is None or components.Gstar is None:
            raise DataError("assemble_covariance: pl needs G and Gstar")
        return _bread_sandwich(components.G, components.Gstar, "G")
    if estimator == "cs":
        c = components
        if c.G is None or c.Gstar is None:
            raise DataError("assemble_covariance: cs needs the design-weighted component set")
        M = c.Gstar
        if c.H1 is not None and c.H1.size:
            _warn_cond(c.H1, "H1")
            A = np.linalg.solve(c.H1, c.K1.T).T  # K1 H1^-1
            M = c.Gstar - A @ c.K2.T - c.K2 @ A.T + A @ c.H2 @ A.T
        return _bread_sandwich(c.G, M, "G")
    if estimator == "ce":
        c = components
        if c.calG is None or c.calGstar is None:
            raise DataError("assemble_covariance: ce needs the visibility component set")
        M = c.calGstar
        if c.calH2 is not None and c.calH2.size:
            _warn_cond(c.calH2, "calH2")
            B = np.linalg.solve(c.calH2, c.calK2.T).T  # calK2 calH2^-1
            M = c.calGstar - B @ c.calK2.T
        return _bread_sandwich(c.calG, M, "calG")
    raise DataError(f"assemble_covariance: unknown estimator {estimator!r}")


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
