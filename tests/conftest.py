"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from elsurvey.data import make_dataset


def dataset_from(columns, **roles):
    """Build a Dataset from plain dicts plus keyword roles."""
    cols = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
    return make_dataset(cols, roles)


# Logit samples with no finite maximum-likelihood fit: completely separated (y = 1 exactly when
# x > 0), and quasi-completely separated (the x = 0 rows have both responses) with every x = 1 row
# at y = 1 or, on the negative side, at y = 0.  There a Newton from theta = 0 that stopped on the
# score's max-norm would stop near eta = -23 at 1e-10, where no fitted probability rounds to 0.
SEPARATED_LOGIT = {
    "complete": {"x": [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], "y": [0, 0, 0, 1, 1, 1],
                 "pi": np.linspace(0.3, 0.7, 6)},
    "quasi": {"x": [0, 0, 0, 0, 1, 1, 1, 1], "y": [0, 1, 0, 1, 1, 1, 1, 1], "pi": np.linspace(0.3, 0.7, 8)},
    "quasi-negative": {"x": [0, 0, 0, 0, 0, 1, 1, 1, 1], "y": [1, 0, 1, 0, 1, 0, 0, 0, 0],
                       "pi": np.linspace(0.3, 0.7, 9)},
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_feasible_u(rng, n, q, scale=1.0):
    """Random constraint matrix with the origin inside the convex hull.

    Centers each column at its own mean so that zero is an interior point of
    the hull with probability one for continuous draws.
    """
    U = rng.normal(size=(n, q)) * scale
    return U - U.mean(axis=0, keepdims=True)
