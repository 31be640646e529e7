"""Conditional visibility: the expected inclusion rate given design variables.

The composite-likelihood estimator needs ``bp_i``, the conditional mean of
the inclusion probability given the design variables of unit ``i``.  Two
sources are supported: the tagged inclusion-probability column itself
(:func:`visibility_from_pi`), or a Gamma regression of the normalized design
weights on design variables (:func:`estimate_visibility`).  Since the
sample-side mean of the design weight given ``V`` is proportional to
``1 / bp``, the inverse canonical link makes ``bp`` proportional to the
regression's linear predictor.  Every downstream use of ``bp`` is invariant
to its positive scale.  A :class:`VisibilitySpec` names the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_bool, as_names
from .errors import ConvergenceError, DataError
from .glm import ModelSpec, design_matrix, irls_fit

VISIBILITY_MODES = ("given-pi", "gamma-regression")


@dataclass(frozen=True)
class VisibilityModel:
    """Visibility values ``bp`` plus the regression that produced them.

    ``alpha`` and ``formula_columns`` are empty when the mode is
    ``given-pi``.
    """

    mode: str
    bp: np.ndarray
    alpha: np.ndarray
    formula_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in VISIBILITY_MODES:
            raise DataError(f"VisibilityModel: unknown mode {self.mode!r}; expected one of {VISIBILITY_MODES}")
        bp = np.asarray(self.bp, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise DataError("VisibilityModel: bp must be a non-empty 1-d array")
        if np.any(bp <= 0.0) or not np.all(np.isfinite(bp)):
            raise DataError("VisibilityModel: bp must be strictly positive and finite")
        object.__setattr__(self, "bp", bp)
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "formula_columns", tuple(self.formula_columns))

    def resolve(self, data: Dataset) -> VisibilityModel:
        """This model, as a visibility source already resolved (see :meth:`VisibilitySpec.resolve`)."""
        return self


def visibility_from_pi(data: Dataset) -> VisibilityModel:
    """Use the tagged inclusion probabilities directly as the visibility."""
    pi = data.pi
    if pi is None:
        raise DataError("visibility_from_pi: no column is tagged as the inclusion probability")
    return VisibilityModel(mode="given-pi", bp=pi.copy(), alpha=np.zeros(0))


def estimate_visibility(data: Dataset, formula_columns, nf_adjust: bool = False) -> VisibilityModel:
    """Estimate visibility by Gamma regression of the design weights.

    Regresses ``d_i`` (or ``d_i / nf_i`` when ``nf_adjust`` is set, with the
    fitted mean multiplied back by ``nf_i``) on an intercept plus
    ``formula_columns`` using the inverse canonical link; ``bp`` is the
    reciprocal of the fitted weight mean.  The result is meaningful up to a
    positive scale factor.
    """
    formula_columns = tuple(formula_columns)
    response = data.d
    nf = None
    if nf_adjust:
        if "nf" not in data.columns:
            raise DataError("estimate_visibility: nf_adjust requires an 'nf' column (see decluster)")
        nf = data.column("nf", "estimate_visibility: family size column")
        if np.any(nf < 1.0):
            raise DataError("estimate_visibility: family sizes in 'nf' must be >= 1")
        response = response / nf
    # bp is scale-free, so fit at mean one; the normalized d would otherwise
    # put the Gamma coefficients at 1/n scale and trip the divergence guard
    response = response / response.mean()
    for name in formula_columns:
        data.column(name, "estimate_visibility: formula column")
    try:
        X = design_matrix(ModelSpec("gamma-inverse", formula_columns), data)
        alpha = irls_fit("gamma-inverse", response, X)
    except (ConvergenceError, DataError) as exc:
        raise type(exc)(f"estimate_visibility: {exc}") from None
    fitted = 1.0 / (X @ alpha)
    if nf is not None:
        fitted = fitted * nf
    bp = 1.0 / fitted
    return VisibilityModel(mode="gamma-regression", bp=bp, alpha=alpha, formula_columns=formula_columns)


@dataclass(frozen=True)
class VisibilitySpec:
    """The visibility source: ``given-pi``, or ``gamma-regression`` on ``formula`` (default: the
    data's ``design`` role), with the family-size adjustment when ``nf_adjust`` is set."""

    mode: str
    formula: tuple[str, ...] | None = None
    nf_adjust: bool = False

    def __post_init__(self):
        if self.mode not in VISIBILITY_MODES:
            raise DataError(f"unknown visibility mode {self.mode!r}; expected one of {VISIBILITY_MODES}")
        object.__setattr__(self, "nf_adjust", as_bool(self.nf_adjust, "VisibilitySpec: nf_adjust"))
        if self.formula is not None:
            object.__setattr__(self, "formula", as_names(self.formula, "visibility formula"))

    def resolve(self, data: Dataset) -> VisibilityModel:
        """The visibility of ``data`` from this source."""
        if self.mode == "given-pi":
            return visibility_from_pi(data)
        formula = data.roles["design"] if self.formula is None else self.formula
        return estimate_visibility(data, formula, nf_adjust=self.nf_adjust)
