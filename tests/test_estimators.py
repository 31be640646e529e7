"""Point estimators: design-weighted, constrained two-step, composite, and
the joint profile verifier."""

import numpy as np
import pytest
import scipy.optimize
from scipy.special import expit, logit

from conftest import dataset_from
from elsurvey import estimators
from elsurvey.data import ConstraintEntry, ConstraintSpec, build_constraint_matrix
from elsurvey.elcore import solve_el, solve_weighted_el
from elsurvey.errors import ConvergenceError, DataError, InfeasibleError
from elsurvey.estimators import (ESTIMATORS, FitProblem, fit_ce, fit_cs, fit_pl, newton_solve_score,
                                 profile_fit_joint)
from elsurvey.glm import ModelSpec, design_matrix, irls_fit, score
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population
from elsurvey.visibility import VisibilityModel, visibility_from_pi
from oracles import dual_minimize_kappa, logistic_fisher_inverse


def _logistic_data(rng, n=80, theta=(0.2, 0.8), informative=True):
    """Informatively weighted logistic dataset with pi in the columns."""
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(theta[0] + theta[1] * x)).astype(float)
    if informative:
        pi = 0.08 + 0.25 * y + 0.05 * (x + 1.0)
    else:
        pi = np.full(n, 0.3)
    return dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")


def _mean_constraint(data, column="y", group=None):
    """A feasible subgroup/general constraint at the weighted sample mean."""
    col = data.columns[column]
    if group is None:
        gamma = float(np.average(col, weights=data.d)) + 0.01
        return ConstraintSpec((ConstraintEntry("general-moment", column, gamma=gamma),))
    gcol, gval = group
    mask = data.columns[gcol] == gval
    gamma = float(col[mask].mean())
    return ConstraintSpec((
        ConstraintEntry("subgroup-moment", column, gamma=gamma, group_column=gcol, group_value=gval),
    ))


MODEL = ModelSpec("bernoulli-logit", terms=("x",))
NO_CONSTRAINTS = ConstraintSpec(())


# ---------------------------------------------------------------------------
# fit_pl


def test_pl_intercept_only_closed_form(rng):
    data = _logistic_data(rng, n=50)
    model = ModelSpec("bernoulli-logit", terms=())
    res = fit_pl(data, model)
    expected = logit(float(data.d @ data.y))
    np.testing.assert_allclose(res.theta, [expected], atol=1e-10)
    assert res.diagnostics["converged"]


def test_pl_equal_weights_is_ordinary_mle(rng):
    data = _logistic_data(rng, n=60, informative=False)
    res = fit_pl(data, MODEL)
    mle = irls_fit("bernoulli-logit", data.y, design_matrix(MODEL, data))
    np.testing.assert_allclose(res.theta, mle, atol=1e-9)


def _informative_design(N):
    return DesignSpec(
        N=N,
        family="bernoulli-logit",
        theta0=(-0.9, 0.8, 1.4),
        covariates=(
            CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
            CovariateSpec("v", "bernoulli", (0.5,)),
        ),
        design={"kind": "poisson", "lo": 0.1, "hi": 0.9, "const": -1.2,
                "coeffs": {"v": 1.2}, "response_coef": 1.8},
        terms=("x", "v"),
    )


def test_pl_corrects_informative_sampling_bias():
    spec = _informative_design(N=4200)
    pop = gen_population(spec, seed=101)
    sample = draw_sample(pop, spec, seed=202)
    model = ModelSpec("bernoulli-logit", terms=("x", "v"))
    theta0 = np.asarray(spec.theta0)
    res = fit_pl(sample, model)
    assert np.all(np.abs(res.theta - theta0) < 3.0 * res.se)
    # The unweighted MLE ignores the outcome-dependent inclusion rule and
    # lands many naive standard errors away on the intercept.
    naive = irls_fit("bernoulli-logit", sample.y, design_matrix(model, sample))
    naive_se = np.sqrt(np.diag(logistic_fisher_inverse(design_matrix(model, sample), naive)))
    assert abs(naive[0] - theta0[0]) > 5.0 * naive_se[0]


# ---------------------------------------------------------------------------
# fit_cs


def test_cs_without_constraints_equals_pl_exactly(rng):
    data = _logistic_data(rng)
    pl = fit_pl(data, MODEL)
    cs = fit_cs(data, MODEL, NO_CONSTRAINTS)
    assert np.array_equal(cs.theta, pl.theta)
    np.testing.assert_array_equal(cs.weights, pl.weights)
    np.testing.assert_allclose(cs.covariance, pl.covariance, atol=0)


def test_cs_uniform_weights_reduce_to_standard_el_two_step(rng):
    data = _logistic_data(rng, n=70, informative=False)
    data = dataset_from({k: v for k, v in data.columns.items() if k != "pi"},
                        response="y", covariates=("x",))  # uniform d
    constraints = _mean_constraint(data, group=("x", 1.0))
    res = fit_cs(data, MODEL, constraints)
    cm = build_constraint_matrix(data, constraints)
    sol = solve_el(cm.H)
    np.testing.assert_allclose(res.weights, sol.w, atol=1e-10)
    theta = newton_solve_score(sol.w, MODEL, data)
    np.testing.assert_allclose(res.theta, theta, atol=1e-10)


def test_cs_matches_grid_profile_on_small_instance(rng):
    # Profile criterion: L(theta) = max_w sum_i d_i log w_i subject to the
    # population constraint and the score constraint at theta.  The two-step
    # estimate attains the unconstrained-in-theta bound, so it is the argmax.
    data = _logistic_data(rng, n=30)
    model = ModelSpec("bernoulli-logit", terms=())
    constraints = _mean_constraint(data, column="x")
    res = fit_cs(data, model, constraints)
    cm = build_constraint_matrix(data, constraints)

    def profile(theta):
        psi = score(model, np.atleast_1d(theta), data)
        try:
            sol = solve_weighted_el(np.column_stack([psi, cm.H]), data.d)
        except (InfeasibleError, ConvergenceError):
            return -np.inf
        return sol.logEL

    grid = res.theta[0] + np.arange(-500, 501) * 1e-4
    values = np.array([profile(t) for t in grid])
    best = grid[np.argmax(values)]
    assert abs(best - res.theta[0]) <= 1e-4 + 1e-12


def test_cs_infeasible_constraint_raises(rng):
    data = _logistic_data(rng, n=40)
    bad = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=5.0),))
    with pytest.raises(InfeasibleError):
        fit_cs(data, MODEL, bad)


def test_cs_step_two_failure_keeps_weights_and_flags(rng):
    data = _logistic_data(rng, n=50)
    constraints = _mean_constraint(data, group=("x", 1.0))
    res = fit_cs(data, MODEL, constraints, newton_max_iter=0)
    assert not res.diagnostics["converged"]
    assert np.all(np.isnan(res.theta)) and np.all(np.isnan(res.se))
    cm = build_constraint_matrix(data, constraints)
    np.testing.assert_allclose(res.weights, solve_weighted_el(cm.H, data.d).w, atol=0)
    assert "failure" in res.diagnostics


# ---------------------------------------------------------------------------
# fit_ce


def test_ce_unconstrained_intercept_closed_form(rng):
    data = _logistic_data(rng, n=60)
    model = ModelSpec("bernoulli-logit", terms=())
    vis = visibility_from_pi(data)
    res = fit_ce(data, model, NO_CONSTRAINTS, vis)
    wjr = (1.0 / vis.bp) / np.sum(1.0 / vis.bp)
    np.testing.assert_allclose(res.weights, wjr, atol=1e-12)
    np.testing.assert_allclose(res.theta, [logit(float(wjr @ data.y))], atol=1e-10)


def test_ce_constant_visibility_matches_standard_el_and_cs(rng):
    data = _logistic_data(rng, n=60, informative=False)
    data = dataset_from({k: v for k, v in data.columns.items() if k != "pi"},
                        response="y", covariates=("x",))  # uniform d
    constraints = _mean_constraint(data, group=("x", 0.0))
    vis = VisibilityModel(mode="given-pi", bp=np.full(data.n, 0.37), alpha=np.zeros(0))
    ce = fit_ce(data, MODEL, constraints, vis)
    cs = fit_cs(data, MODEL, constraints)
    cm = build_constraint_matrix(data, constraints)
    np.testing.assert_allclose(ce.weights, solve_el(cm.H).w, atol=1e-10)
    np.testing.assert_allclose(ce.theta, cs.theta, atol=1e-10)


def test_ce_weights_match_direct_composite_dual(rng):
    for _ in range(20):
        n = int(rng.integers(20, 51))
        data = _logistic_data(rng, n=n)
        constraints = _mean_constraint(data, group=("x", 1.0))
        vis = visibility_from_pi(data)
        res = fit_ce(data, MODEL, constraints, vis)
        cm = build_constraint_matrix(data, constraints)
        oracle = dual_minimize_kappa(cm.H, vis.bp)
        np.testing.assert_allclose(res.weights, oracle.w, atol=1e-8)
        # Both paths solve sum_i h_i / (bp_i + kappa'h_i) = 0, so the
        # transformed-path multiplier IS kappa by uniqueness.
        np.testing.assert_allclose(res.multiplier, oracle.multiplier, atol=1e-8)


def test_ce_transform_round_trip(rng):
    data = _logistic_data(rng, n=45)
    constraints = _mean_constraint(data, group=("x", 1.0))
    vis = visibility_from_pi(data)
    res = fit_ce(data, MODEL, constraints, vis)
    cm = build_constraint_matrix(data, constraints)
    wstar = solve_el(cm.H / vis.bp[:, None]).w
    np.testing.assert_allclose(vis.bp * res.weights / res.Bp_hat, wstar, atol=1e-10)


def test_constraints_hold_at_both_fits(rng):
    data = _logistic_data(rng, n=55)
    constraints = _mean_constraint(data, group=("x", 1.0))
    cm = build_constraint_matrix(data, constraints)
    cs = fit_cs(data, MODEL, constraints)
    ce = fit_ce(data, MODEL, constraints, visibility_from_pi(data))
    assert np.max(np.abs(cs.weights @ cm.H)) < 1e-8
    assert np.max(np.abs(ce.weights @ cm.H)) < 1e-8
    assert cs.diagnostics["constraint_residual"] < 1e-8
    assert ce.diagnostics["constraint_residual"] < 1e-8


def test_ce_scale_invariance_in_visibility(rng):
    data = _logistic_data(rng, n=50)
    constraints = _mean_constraint(data, group=("x", 1.0))
    base = fit_ce(data, MODEL, constraints, visibility_from_pi(data))
    for c in (0.1, 7.0):
        vis = VisibilityModel(mode="given-pi", bp=c * data.pi, alpha=np.zeros(0))
        res = fit_ce(data, MODEL, constraints, vis)
        np.testing.assert_allclose(res.weights, base.weights, atol=1e-10)
        np.testing.assert_allclose(res.theta, base.theta, atol=1e-10)
        np.testing.assert_allclose(res.covariance, base.covariance, rtol=1e-10, atol=1e-16)


def test_estimating_systems_vanish_at_solutions(rng):
    data = _logistic_data(rng, n=65)
    constraints = _mean_constraint(data, group=("x", 1.0))
    cm = build_constraint_matrix(data, constraints)
    cs = fit_cs(data, MODEL, constraints)
    vis = visibility_from_pi(data)
    ce = fit_ce(data, MODEL, constraints, vis)
    for res in (cs, ce):
        stacked = np.concatenate([
            res.weights @ score(MODEL, res.theta, data),
            res.weights @ cm.H,
        ])
        assert np.max(np.abs(stacked)) < 1e-8
    # Weight-form identities of the two inner problems.
    cs_form = data.d / (1.0 + cm.H @ cs.multiplier)
    np.testing.assert_allclose(cs.weights, cs_form, atol=1e-8)
    denom = vis.bp + cm.H @ ce.multiplier
    ce_form = (1.0 / denom) / np.sum(1.0 / denom)
    np.testing.assert_allclose(ce.weights, ce_form, atol=1e-8)


# ---------------------------------------------------------------------------
# profile_fit_joint


def test_joint_unconstrained_satisfies_inverse_visibility_score(rng):
    data = _logistic_data(rng, n=120)
    vis = visibility_from_pi(data)
    res = profile_fit_joint(data, MODEL, NO_CONSTRAINTS, vis, el_tol=1e-12)
    assert res.diagnostics["converged"]
    wjr = (1.0 / vis.bp) / np.sum(1.0 / vis.bp)
    resid = wjr @ score(MODEL, res.theta, data)
    assert np.max(np.abs(resid)) < 1e-8
    two_step = fit_ce(data, MODEL, NO_CONSTRAINTS, vis)
    np.testing.assert_allclose(res.theta, two_step.theta, atol=1e-6)


def test_joint_agrees_with_two_step_on_well_conditioned_instance(rng):
    data = _logistic_data(rng, n=500)
    constraints = _mean_constraint(data, group=("x", 1.0))
    vis = visibility_from_pi(data)
    joint = profile_fit_joint(data, MODEL, constraints, vis, el_tol=1e-12)
    two_step = fit_ce(data, MODEL, constraints, vis)
    assert joint.diagnostics["converged"]
    assert np.all(np.abs(joint.theta - two_step.theta) < 1e-3)


def test_joint_reports_infeasible_region_instead_of_guessing(rng):
    data = _logistic_data(rng, n=40)
    vis = visibility_from_pi(data)
    res = profile_fit_joint(data, MODEL, NO_CONSTRAINTS, vis, theta0=np.array([60.0, 0.0]))
    assert not res.diagnostics["converged"]
    assert "infeasible" in res.diagnostics["failure"]
    assert np.all(np.isnan(res.theta))


# ---------------------------------------------------------------------------
# newton_solve_score


def test_newton_gaussian_is_weighted_least_squares(rng):
    n = 30
    x = rng.normal(size=n)
    y = 0.5 - 1.2 * x + rng.normal(size=n)
    data = dataset_from({"y": y, "x": x}, response="y")
    model = ModelSpec("gaussian-identity", terms=("x",))
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    theta = newton_solve_score(w, model, data)
    X = design_matrix(model, data)
    XtW = X.T * w
    np.testing.assert_allclose(theta, np.linalg.solve(XtW @ X, XtW @ y), atol=1e-9)


def test_newton_saturates_on_separated_data():
    # The weighted score has no finite root under perfect separation; the
    # solver stops at a saturated fit where the score is numerically zero
    # (the likelihood-based path, irls_fit, raises on the same data).
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    y = (x > 0).astype(float)
    data = dataset_from({"y": y, "x": x}, response="y")
    w = np.full(6, 1 / 6)
    theta = newton_solve_score(w, MODEL, data, theta0=np.zeros(2))
    assert theta[1] > 10.0
    assert np.max(np.abs(w @ score(MODEL, theta, data))) < 1e-8


def test_newton_matches_bracketing_oracle_on_scalar_instances(rng):
    model = ModelSpec("bernoulli-logit", terms=())
    for _ in range(10):
        n = int(rng.integers(10, 40))
        data = _logistic_data(rng, n=n)
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        theta = newton_solve_score(w, model, data)
        resid = w @ score(model, theta, data)
        assert np.max(np.abs(resid)) < 1e-10
        root = scipy.optimize.brentq(
            lambda t: float(w @ (data.y - expit(t))), -30.0, 30.0, xtol=1e-12)
        np.testing.assert_allclose(theta, [root], atol=1e-9)


# ---------------------------------------------------------------------------
# FitProblem: one prepared sample shared by every estimator


def _counting(monkeypatch, name):
    calls = []
    original = getattr(estimators, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, name, counted)
    return calls


def test_fit_problem_builds_shared_work_once_and_matches_standalone_fits(rng, monkeypatch):
    data = _logistic_data(rng, n=200)
    constraints = _mean_constraint(data, group=("x", 1.0))
    vis = visibility_from_pi(data)
    standalone = {"pl": fit_pl(data, MODEL), "cs": fit_cs(data, MODEL, constraints),
                  "ce": fit_ce(data, MODEL, constraints, vis),
                  "ce-joint": profile_fit_joint(data, MODEL, constraints, vis)}
    irls_calls = _counting(monkeypatch, "irls_fit")
    cm_calls = _counting(monkeypatch, "build_constraint_matrix")
    problem = FitProblem(data, MODEL, constraints, vis)
    shared = {name: problem.fit(name) for name in ESTIMATORS}
    assert len(irls_calls) == 1 and len(cm_calls) == 1
    for name, res in shared.items():
        assert res.diagnostics["converged"], name
        for key in ("theta", "se", "weights", "multiplier"):
            assert getattr(res, key).tobytes() == getattr(standalone[name], key).tobytes(), (name, key)


def test_fit_problem_builds_constraints_only_when_needed(rng):
    data = _logistic_data(rng, n=60)
    missing = ConstraintSpec((ConstraintEntry("general-moment", "zz", gamma=0.0),))
    problem = FitProblem(data, MODEL, missing)
    assert problem.fit("pl").diagnostics["converged"]
    with pytest.raises(DataError, match="'zz'"):
        problem.fit("cs")
    with pytest.raises(DataError, match="unknown estimator 'mle'"):
        problem.fit("mle")
