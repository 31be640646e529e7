"""Regression guard: the public numeric functions accept either memory layout.

The package builds its matrices column-major and forms each weighted sum as
``(X.T * v) @ Y``; users may pass row-major arrays.  The two layouts may sum in
a different order, so they must agree to 1e-13 relative, not bitwise.
"""

import numpy as np
import pytest

from conftest import dataset_from, random_feasible_u
from elsurvey.elcore import solve_el, solve_weighted_el
from elsurvey.glm import FAMILIES, ModelSpec, _jacobian, _score_parts, design_matrix, irls_fit, score_jacobian
from elsurvey.variance import components_from_arrays

RTOL = 1e-13


def _assert_close(a, b, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape, what
    assert np.max(np.abs(a - b), initial=0.0) <= RTOL * np.max(np.abs(b), initial=0.0), what


def _layouts(M):
    C, F = np.ascontiguousarray(M), np.asfortranarray(M)
    assert C.flags.c_contiguous and F.flags.f_contiguous and not F.flags.c_contiguous
    return C, F


@pytest.mark.parametrize("q", [2, 3])
def test_el_solvers_agree_on_row_and_column_major_constraints(rng, q):
    for _ in range(5):
        n = int(rng.integers(50, 400))
        C, F = _layouts(random_feasible_u(rng, n, q))
        d = rng.uniform(0.5, 1.5, size=n)
        d /= d.sum()
        for solve in (solve_el, lambda U: solve_weighted_el(U, d)):
            a, b = solve(C), solve(F)
            assert a.iterations == b.iterations
            for key in ("w", "multiplier", "logEL"):
                _assert_close(getattr(b, key), getattr(a, key), key)


def _logit_instance(rng, n=500, q=2):
    x, v = rng.normal(size=n), (rng.random(n) < 0.5).astype(float)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.3 - 0.8 * x - v))).astype(float)
    data = dataset_from({"y": y, "x": x, "v": v}, response="y")
    w = rng.uniform(0.5, 1.5, size=n)
    return ModelSpec("bernoulli-logit", ("x", "v")), data, w / w.sum(), random_feasible_u(rng, n, q)


@pytest.mark.parametrize("with_bp", [False, True], ids=["without bp", "with bp"])
def test_components_agree_on_row_and_column_major_constraints(rng, with_bp):
    model, data, w, H = _logit_instance(rng)
    bp = rng.uniform(0.2, 0.9, size=data.n) if with_bp else None
    theta = np.array([-0.3, 0.8, 1.0])
    C, F = _layouts(H)
    a = components_from_arrays(theta, w, data, model, C, bp=bp)
    b = components_from_arrays(theta, w, data, model, F, bp=bp)
    for key, value in vars(a).items():
        assert (value is None) == (getattr(b, key) is None), key
        if value is not None:
            _assert_close(getattr(b, key), value, key)


@pytest.mark.parametrize("family", FAMILIES)
def test_score_jacobian_and_irls_agree_with_a_row_major_design(rng, family):
    n = 400
    x = rng.uniform(-0.5, 0.5, size=n)
    if family == "bernoulli-logit":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.4 - x))).astype(float)
    elif family == "gaussian-identity":
        y = 0.4 + x + rng.normal(size=n)
    else:
        y = rng.gamma(shape=2.0, scale=0.5 / (1.0 + 0.5 * x))
    data = dataset_from({"y": y, "x": x}, response="y")
    model = ModelSpec(family, ("x",))
    w = rng.uniform(0.5, 1.5, size=n)
    theta = np.array([1.2, 0.3])
    A = design_matrix(model, data)
    curv = _score_parts(model, theta, data)[2]
    C, F = _layouts(A)
    _assert_close(score_jacobian(model, theta, data, w), _jacobian(C, w, curv), "score_jacobian")
    _assert_close(_jacobian(F, w, curv), _jacobian(C, w, curv), "_jacobian")
    _assert_close(irls_fit(family, y, F, case_weights=w), irls_fit(family, y, C, case_weights=w), "irls_fit")
