"""Score functions, analytic Jacobians, the weighted maximum-likelihood fitter and the logistic kernel."""

import numpy as np
import pytest
import scipy.special

from conftest import dataset_from, fresh_python, needs_glibc, refit_faults, rejected_candidates, traced_peak
from elsurvey import elcore, glm
from elsurvey.errors import ConvergenceError, DataError
from elsurvey.glm import (FAMILIES, ModelSpec, _jacobian, _score_newton, _score_parts, design_matrix, expit, irls_fit,
                          score, score_jacobian)
from oracles import gamma_glm_se, irls_reference


def _single_obs(y):
    return dataset_from({"y": [y]}, response="y")


# ---------------------------------------------------------------------------
# score


def test_logit_score_at_zero_theta():
    model = ModelSpec("bernoulli-logit", terms=())
    np.testing.assert_allclose(score(model, [0.0], _single_obs(1.0)), [[0.5]], atol=1e-15)
    np.testing.assert_allclose(score(model, [0.0], _single_obs(0.0)), [[-0.5]], atol=1e-15)


def test_gaussian_score_vanishes_at_least_squares_fit(rng):
    n = 40
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + rng.normal(size=n)
    data = dataset_from({"y": y, "x": x}, response="y")
    model = ModelSpec("gaussian-identity", terms=("x",))
    theta = np.linalg.lstsq(design_matrix(model, data), y, rcond=None)[0]
    sums = score(model, theta, data).sum(axis=0)
    assert np.max(np.abs(sums)) < 1e-10


def test_score_dimension_mismatch_rejected():
    model = ModelSpec("bernoulli-logit", terms=())
    with pytest.raises(DataError, match="shape"):
        score(model, [0.0, 1.0], _single_obs(1.0))


@pytest.mark.parametrize("term, message", [
    ("x", "design_matrix: model term 'x' has non-finite values"),
    ("q", "design_matrix: model term 'q' is not present"),
], ids=["NaN", "missing"])
def test_a_non_finite_or_missing_model_term_is_named(term, message):
    # x is no covariate of the roles, so the Dataset itself lets its NaN through.
    data = dataset_from({"y": [1.0, 0.0, 1.0], "x": [0.5, np.nan, -1.0]}, response="y")
    model = ModelSpec("bernoulli-logit", terms=(term,))
    for build in (lambda: design_matrix(model, data), lambda: score(model, [0.0, 0.0], data)):
        with pytest.raises(DataError) as info:
            build()
        assert str(info.value) == message


def test_gamma_score_requires_positive_linear_predictor():
    model = ModelSpec("gamma-inverse", terms=())
    with pytest.raises(ConvergenceError, match="predictor"):
        score(model, [-1.0], _single_obs(2.0))


# ---------------------------------------------------------------------------
# score_jacobian


def test_logit_jacobian_single_observation():
    model = ModelSpec("bernoulli-logit", terms=())
    J = score_jacobian(model, [0.0], _single_obs(1.0), weights=np.array([1.0]))
    np.testing.assert_allclose(J, [[-0.25]], atol=1e-15)


def _random_instance(rng, family):
    n = int(rng.integers(5, 41))
    x = rng.uniform(-0.5, 0.5, size=n)
    if family == "bernoulli-logit":
        y = rng.integers(0, 2, size=n).astype(float)
        theta = rng.normal(scale=0.8, size=2)
    elif family == "gaussian-identity":
        y = rng.normal(size=n)
        theta = rng.normal(scale=0.8, size=2)
    else:  # gamma-inverse: keep the linear predictor positive
        y = rng.gamma(shape=2.0, scale=0.5, size=n) + 0.05
        theta = np.array([rng.uniform(0.8, 1.6), rng.uniform(-0.4, 0.4)])
    data = dataset_from({"y": y, "x": x}, response="y")
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    return ModelSpec(family, terms=("x",)), theta, data, w


@pytest.mark.parametrize("family", FAMILIES)
def test_jacobian_matches_central_finite_differences(family, rng):
    step = 1e-5
    for _ in range(50):
        model, theta, data, w = _random_instance(rng, family)
        J = score_jacobian(model, theta, data, w)
        fd = np.empty_like(J)
        for k in range(model.p):
            e = np.zeros(model.p)
            e[k] = step
            up = w @ score(model, theta + e, data)
            dn = w @ score(model, theta - e, data)
            fd[:, k] = (up - dn) / (2.0 * step)
        rel = np.linalg.norm(J - fd) / np.linalg.norm(J)
        assert rel < 1e-6


@pytest.mark.parametrize("family", ["bernoulli-logit", "gaussian-identity"])
def test_jacobian_symmetric(family, rng):
    model, theta, data, w = _random_instance(rng, family)
    J = score_jacobian(model, theta, data, w)
    assert np.max(np.abs(J - J.T)) < 1e-12


# ---------------------------------------------------------------------------
# one linear predictor for the score and its Jacobian


def _two_pass_score_and_jacobian(model, theta, data, weights):
    """The score and its weighted Jacobian written out as two separate passes, with the package's ``expit``."""
    A = design_matrix(model, data)
    eta = A @ theta
    if model.family == "bernoulli-logit":
        resid, curv = data.y - expit(eta), expit(eta) * (1.0 - expit(eta))
    elif model.family == "gaussian-identity":
        resid, curv = data.y - eta, np.ones_like(eta)
    else:
        resid, curv = 1.0 / eta - data.y, 1.0 / eta**2
    return resid[:, None] * A, -(A * (weights * curv)[:, None]).T @ A


@pytest.mark.parametrize("family", FAMILIES)
def test_score_parts_give_the_two_pass_bits(family, rng):
    for _ in range(20):
        model, theta, data, w = _random_instance(rng, family)
        psi, J = _two_pass_score_and_jacobian(model, theta, data, w)
        assert score(model, theta, data).tobytes() == psi.tobytes()
        assert score_jacobian(model, theta, data, w).tobytes() == J.tobytes()
        A, psi_parts, curv = _score_parts(model, theta, data)
        assert psi_parts.tobytes() == psi.tobytes()
        assert _jacobian(A, w, curv).tobytes() == J.tobytes()


# ---------------------------------------------------------------------------
# irls_fit


def test_gamma_intercept_only_fits_reciprocal_mean():
    X = np.ones((3, 1))
    beta = irls_fit("gamma-inverse", [1.0, 2.0, 3.0], X)
    np.testing.assert_allclose(beta, [0.5], atol=1e-10)


def test_logit_intercept_only_fits_logit_of_mean():
    X = np.ones((4, 1))
    beta = irls_fit("bernoulli-logit", [1.0, 0.0, 0.0, 0.0], X)
    np.testing.assert_allclose(beta, [np.log(1.0 / 3.0)], atol=1e-10)


def test_gaussian_irls_equals_weighted_least_squares(rng):
    n = 25
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = X @ np.array([0.3, -1.1]) + rng.normal(size=n)
    c = rng.uniform(0.5, 2.0, size=n)
    beta = irls_fit("gaussian-identity", y, X, case_weights=c)
    XtW = X.T * c
    expected = np.linalg.solve(XtW @ X, XtW @ y)
    np.testing.assert_allclose(beta, expected, atol=1e-12)


def test_gamma_recovery_within_three_standard_errors():
    rng = np.random.default_rng(7151)
    n, shape = 5000, 5.0
    beta0 = np.array([0.9, 0.4])
    X = np.column_stack([np.ones(n), rng.uniform(-0.5, 0.5, size=n)])
    mu = 1.0 / (X @ beta0)
    y = rng.gamma(shape=shape, scale=mu / shape)
    beta = irls_fit("gamma-inverse", y, X)
    se = gamma_glm_se(X, beta0, shape)
    assert np.all(np.abs(beta - beta0) <= 3.0 * se)


@pytest.mark.parametrize("family", FAMILIES)
def test_weighted_score_sum_vanishes_at_fit(family, rng):
    model, _, data, w = _random_instance(rng, family)
    while data.n < 10:  # keep the fit well-posed
        model, _, data, w = _random_instance(rng, family)
    X = design_matrix(model, data)
    beta = irls_fit(family, data.y, X, case_weights=w)
    sums = w @ score(model, beta, data)
    assert np.max(np.abs(sums)) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_irls_invariant_to_row_order_and_weight_scale(family, rng):
    model, _, data, w = _random_instance(rng, family)
    while data.n < 10:
        model, _, data, w = _random_instance(rng, family)
    X = design_matrix(model, data)
    y = data.y
    beta = irls_fit(family, y, X, case_weights=w)
    perm = rng.permutation(data.n)
    beta_perm = irls_fit(family, y[perm], X[perm], case_weights=w[perm])
    beta_scaled = irls_fit(family, y, X, case_weights=37.0 * w)
    np.testing.assert_allclose(beta_perm, beta, atol=1e-9)
    np.testing.assert_allclose(beta_scaled, beta, atol=1e-9)


def test_irls_rank_deficiency_rejected():
    X = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(DataError, match="rank"):
        irls_fit("gaussian-identity", np.arange(5.0), X)


@pytest.mark.parametrize("weighted", [False, True])
def test_irls_fit_rejects_a_constant_or_duplicated_column_across_row_blocks(weighted):
    n = 3 * elcore.ROWS + 1  # the rank check's last block is one row
    rng = np.random.default_rng(12)
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(0.5 * x)).astype(float)
    c = rng.uniform(0.5, 2.0, size=n) if weighted else None
    assert np.all(np.isfinite(irls_fit("bernoulli-logit", y, np.column_stack([np.ones(n), x]), case_weights=c)))
    for X in (np.column_stack([np.ones(n), x, np.full(n, 3.0)]), np.column_stack([np.ones(n), x, x])):
        with pytest.raises(DataError, match="rank deficient"):
            irls_fit("bernoulli-logit", y, X, case_weights=c)


def test_logit_separation_raises():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    y = (x > 0).astype(float)
    X = np.column_stack([np.ones(6), x])
    with pytest.raises(ConvergenceError):
        irls_fit("bernoulli-logit", y, X)


@pytest.mark.parametrize("family", ["bernoulli-logit", "gamma-inverse"])
@pytest.mark.parametrize("weighted", [False, True])
def test_irls_fit_matches_the_undamped_irls_reference(rng, family, weighted):
    # Regression guard: the damped Newton with its step stop rule lands on the root that plain
    # IRLS (tests/oracles.py, with its own least-squares solve and no line search) finds.
    for _ in range(10):
        n, p = int(rng.integers(40, 400)), int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=(n, p - 1))])
        beta0 = np.concatenate([[1.0], rng.uniform(-0.4, 0.4, size=p - 1)])
        if family == "bernoulli-logit":
            y = (rng.random(n) < scipy.special.expit(X @ (beta0 - 0.5))).astype(float)
        else:
            y = rng.gamma(shape=3.0, scale=1.0 / (3.0 * (X @ beta0)))
        c = rng.uniform(0.2, 3.0, size=n) if weighted else None
        beta = irls_fit(family, y, X, case_weights=c)
        np.testing.assert_allclose(beta, irls_reference(family, y, X, case_weights=c), rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", ["y", "X"])
def test_irls_fit_rejects_non_finite_input_naming_it(name):
    args = {"y": np.arange(5.0), "X": np.column_stack([np.ones(5), [0.1, -0.4, 0.3, 0.9, -0.2]])}
    args[name][-1] = np.nan
    with pytest.raises(DataError, match=f"irls_fit: {name} has non-finite values"):
        irls_fit("gaussian-identity", args["y"], args["X"])


# ---------------------------------------------------------------------------
# the logistic kernel


def test_expit_matches_scipy_to_4_ulp_with_the_same_exact_0_and_1_sets():
    # Both compute 1 / (1 + exp(-x)); numpy's SIMD exp is not libm's, so values may differ by a few ulp.
    x = np.linspace(-800.0, 800.0, 2_000_001)
    got, want = expit(x), scipy.special.expit(x)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_array_equal(got == 1.0, want == 1.0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


@pytest.mark.parametrize("x", [0.3, -800.0, 800.0, np.float64(-2.5), np.array(1.5), np.array([[0.2, -40.0], [3.0, 710.0]])])
def test_expit_takes_numbers_and_arrays_and_leaves_them_unchanged(x):
    before = np.array(x, copy=True)
    got, want = expit(x), scipy.special.expit(x)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    np.testing.assert_array_equal(x, before)


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # Regression guard: scipy is a test dependency only; the runtime needs numpy alone.
    code = "import sys, elsurvey, elsurvey.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python(code).strip() == "[]"


def _d67_refits(N: int, n: int) -> str:
    """Set-up that defines ``fit()``: every estimator on a fresh problem over one d67 sample of ``n`` rows."""
    return f"""
from elsurvey.estimators import ESTIMATORS, FitProblem
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population, population_constraint_spec
from elsurvey.visibility import visibility_from_pi
spec = DesignSpec(N={N}, family="bernoulli-logit", theta0=(-0.9, 0.8, 1.4),
                  covariates=(CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
                              CovariateSpec("v", "bernoulli", (0.5,))),
                  design={{"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6, "coeffs": {{"v": 0.55}},
                          "response_coef": 1.0}},
                  terms=("x", "v"),
                  constraints=({{"kind": "subgroup-moment", "target_column": "y", "group_column": "v", "group_value": 1.0}},))
pop = gen_population(spec, seed=3)
sample, constraints = draw_sample(pop, spec, seed=4), population_constraint_spec(pop, spec)
assert sample.n == {n}, sample.n

def fit():  # a fresh problem that is freed on return, as each call of fit_ce or profile_fit_joint is
    problem = FitProblem(sample, spec.model, constraints, visibility_from_pi(sample))
    assert all(problem.fit(name).diagnostics["converged"] for name in ESTIMATORS)
"""


@needs_glibc
def test_refitting_a_small_sample_faults_no_pages_back_in():
    # Regression guard for the heap block freed at import: without it, each of these fits (n = 4,066)
    # maps its QR workspace anew and faults its heap top back in: about 100 page faults per refit.
    assert refit_faults(_d67_refits(8000, 4066), 10) < 100


@needs_glibc
def test_refitting_a_large_sample_faults_no_pages_back_in():
    # Regression guard for the 31 MiB block freed at import: with a 2 MiB one, each of these fits maps its
    # n-sized arrays anew and faults them and its heap top back in: about 4,200 page faults per refit.
    assert refit_faults(_d67_refits(130_000, 66_491), 3) < 100


# ---------------------------------------------------------------------------
# the score Newton in blocks of rows


def test_a_gamma_step_off_the_domain_in_the_last_block_alone_is_halved(monkeypatch):
    # From theta = (1, 0) the full Newton step puts the linear predictor of the last row, x = 30, below 0,
    # and of no other.  In blocks of 64 rows that row is alone in the last block's check; its rejection
    # must halve the step as the one-block rejection does, to the same root in as many steps.
    rng = np.random.default_rng(3)
    n = 200
    x = rng.uniform(0.0, 1.0, size=n)
    x[-1] = 30.0
    y = rng.gamma(2.0, 1.0 / (2.0 * (1.0 + 0.5 * x)))
    y[-1] = 5.0
    A, w, theta0 = np.asfortranarray(np.column_stack([np.ones(n), x])), np.full(n, 1.0 / n), np.array([1.0, 0.0])
    eta = A @ theta0
    full = theta0 + np.linalg.solve((A.T * (w / eta**2)) @ A, A.T @ (w * (1.0 / eta - y)))
    assert np.array_equal(np.flatnonzero(A @ full <= 0.0), [n - 1])
    runs = {}
    for rows in (elcore.ROWS, 64):
        monkeypatch.setattr(elcore, "ROWS", rows)
        rejected = rejected_candidates(monkeypatch, glm)
        runs[rows] = _score_newton("gamma-inverse", A, y, w, theta0, 1e-10, 100), rejected
    (one, one_rejected), (blocked, blocked_rejected) = runs.values()
    assert one[3] == blocked[3] == "" and one[1] == blocked[1]
    np.testing.assert_allclose(blocked[0], one[0], rtol=1e-13, atol=0)
    assert len(blocked_rejected) == len(one_rejected) >= 1
    np.testing.assert_allclose(blocked_rejected[0], full, rtol=1e-13, atol=0)


def test_a_score_newton_holds_at_most_two_and_a_half_row_vectors_at_once():
    # At 256,000 rows one n-vector is 1.95 MiB.  Each evaluation fills one n-vector of curvatures, block by
    # block, and the step's Jacobian reads the last accepted one: two are alive during a line search.  Over
    # whole arrays, with each evaluation's n-sized temporaries, the peak was five.
    n = 256_000
    rng = np.random.default_rng(5)
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(float)
    A = np.asfortranarray(np.column_stack([np.ones(n), x]))
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    solved = []
    peak = traced_peak(lambda: solved.append(_score_newton("bernoulli-logit", A, y, w, np.zeros(2), 1e-10, 100)))
    assert solved[0][3] == "" and solved[0][1] >= 3
    assert peak <= 2.5 * 8 * n, peak / (8 * n)


def test_a_weighted_logit_irls_fit_holds_at_most_two_and_a_half_row_vectors_at_once():
    # At 256,000 rows one n-vector is 1.95 MiB.  The rank check folds a QR over blocks of rows, so the score
    # Newton's two n-vectors set the peak.  The n x p scaled copy and sqrt(c) of matrix_rank took it to three.
    n = 256_000
    rng = np.random.default_rng(5)
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(float)
    X = np.asfortranarray(np.column_stack([np.ones(n), x]))
    c = rng.uniform(0.5, 1.5, size=n)
    fitted = []
    peak = traced_peak(lambda: fitted.append(irls_fit("bernoulli-logit", y, X, case_weights=c)))
    assert np.all(np.isfinite(fitted[0]))
    assert peak <= 2.5 * 8 * n, peak / (8 * n)
