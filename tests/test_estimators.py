"""Point estimators: design-weighted, constrained two-step, composite, and
the certified joint fit."""

import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.special import expit, logit

from conftest import SEPARATED_LOGIT, dataset_from
from elsurvey import elcore, estimators, glm
from elsurvey.data import ConstraintEntry, ConstraintMatrix, ConstraintSpec, build_constraint_matrix, make_dataset
from elsurvey.elcore import solve_el, solve_weighted_el
from elsurvey.errors import ConvergenceError, DataError, InfeasibleError
from elsurvey.estimators import ESTIMATORS, FitProblem, fit_ce, fit_cs, fit_pl, profile_fit_joint
from elsurvey.glm import ModelSpec, _score_newton, design_matrix, irls_fit, score
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population, population_constraint_spec
from elsurvey.visibility import VisibilityModel, VisibilitySpec, visibility_from_pi
from oracles import (composite_profile, dual_minimize_kappa, gamma_inverse_psi, logistic_fisher_inverse,
                     logit_psi, nelder_mead_profile)


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


def _solve_score(w, model, data, theta0=None):
    """Step 2's score Newton under weights ``w`` at the default settings, from ``theta0`` or, as a fit
    starts it, from the design-weighted estimate; asserts that it converged."""
    A = design_matrix(model, data)
    theta0 = irls_fit(model.family, data.y, A, case_weights=data.d) if theta0 is None else np.asarray(theta0)
    theta, _, _, reason = _score_newton(model.family, A, data.y, w, theta0, 1e-10, 100)
    assert reason == ""
    return theta


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
    theta = _solve_score(sol.w, MODEL, data)
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
    # The InfeasibleError of step 1 comes back as a flagged fit, not raised.
    data = _logistic_data(rng, n=40)
    bad = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=5.0),))
    res = fit_cs(data, MODEL, bad)
    assert not res.diagnostics["converged"] and res.diagnostics["failure"].startswith("InfeasibleError: ")
    assert np.all(np.isnan(res.theta)) and np.all(np.isnan(res.se)) and np.all(np.isnan(res.covariance))


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


# ---------------------------------------------------------------------------
# the score Newton of step 2


def test_newton_gaussian_is_weighted_least_squares(rng):
    n = 30
    x = rng.normal(size=n)
    y = 0.5 - 1.2 * x + rng.normal(size=n)
    data = dataset_from({"y": y, "x": x}, response="y")
    model = ModelSpec("gaussian-identity", terms=("x",))
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    theta = _solve_score(w, model, data)
    X = design_matrix(model, data)
    XtW = X.T * w
    np.testing.assert_allclose(theta, np.linalg.solve(XtW @ X, XtW @ y), atol=1e-9)


@pytest.mark.parametrize("case", SEPARATED_LOGIT)
def test_separated_logit_samples_fail_in_irls_fit_and_in_every_estimator(case):
    # Regression guard: these samples have no finite maximum-likelihood fit.  A Newton from
    # theta = 0 that stops on the score's max-norm would stop at a saturated theta, whose score
    # is numerically 0, and report it converged.
    data = dataset_from(SEPARATED_LOGIT[case], response="y", pi="pi")
    for case_weights in (None, data.d):
        with pytest.raises(ConvergenceError):
            irls_fit("bernoulli-logit", data.y, design_matrix(MODEL, data), case_weights=case_weights)
    problem = FitProblem(data, MODEL, NO_CONSTRAINTS, visibility_from_pi(data))
    for name in ESTIMATORS:
        res = problem.fit(name)
        assert not res.diagnostics["converged"] and np.all(np.isnan(res.theta)), name


@pytest.mark.parametrize("case", SEPARATED_LOGIT)
def test_a_problem_fits_each_estimator_once_and_flags_a_failed_start_in_each(monkeypatch, case):
    # The failed irls_fit start is kept, not rerun per estimator, and ce-joint copies the ce fit:
    # one irls_fit and one solve_el per problem.  pl and cs keep their step-1 weights.
    data = dataset_from(SEPARATED_LOGIT[case], response="y", pi="pi")
    calls = []
    for name in ("irls_fit", "solve_el"):
        real = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k))
    problem = FitProblem(data, MODEL, NO_CONSTRAINTS, visibility_from_pi(data))
    fits = [problem.fit(name) for name in ESTIMATORS]
    assert all(problem.fit(name) is fit for name, fit in zip(ESTIMATORS, fits))
    assert sorted(calls) == ["irls_fit", "solve_el"]
    for fit in fits:
        prefix = "ce fit failed: " if fit.estimator == "ce-joint" else ""
        assert fit.diagnostics["failure"].startswith(prefix + "design-weighted start failed: irls_fit: "), fit.estimator
        assert np.isclose(fit.weights.sum(), 1.0) and np.all(fit.weights > 0), fit.estimator
    np.testing.assert_array_equal(fits[0].weights, data.d)


def test_newton_matches_bracketing_oracle_on_scalar_instances(rng):
    model = ModelSpec("bernoulli-logit", terms=())
    for _ in range(10):
        n = int(rng.integers(10, 40))
        data = _logistic_data(rng, n=n)
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        theta = _solve_score(w, model, data)
        resid = w @ score(model, theta, data)
        assert np.max(np.abs(resid)) < 1e-10
        root = scipy.optimize.brentq(
            lambda t: float(w @ (data.y - expit(t))), -30.0, 30.0, xtol=1e-12)
        np.testing.assert_allclose(theta, [root], atol=1e-9)


def test_newton_halves_a_gamma_step_that_leaves_the_domain_and_converges(rng):
    # Regression guard for the score sum that never forms psi: every candidate still goes through the
    # domain check.  A saturated two-group gamma model runs Newton on each group's linear predictor
    # eta_g separately, eta_g -> 2 eta_g - eta_g**2 ybar_g, so starting group 1 at 3 / ybar_1 puts the
    # full step at -3 / ybar_1 and the half step at 0; only the quarter step is in the domain.
    n = 60
    x = (np.arange(n) % 2).astype(float)
    y = rng.gamma(shape=2.0, scale=0.5, size=n) + 0.05
    data = dataset_from({"y": y, "x": x}, response="y")
    model = ModelSpec("gamma-inverse", terms=("x",))
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    ybar = [float(w[x == g] @ y[x == g] / w[x == g].sum()) for g in (0.0, 1.0)]
    theta0 = np.array([1.0 / ybar[0], 3.0 / ybar[1] - 1.0 / ybar[0]])
    for t in (1.0, 0.5):
        with pytest.raises(ConvergenceError, match="nonpositive linear predictor"):
            score(model, [theta0[0], (3.0 - 6.0 * t) / ybar[1] - theta0[0]], data)
    theta = _solve_score(w, model, data, theta0=theta0)
    np.testing.assert_allclose(theta, [1.0 / ybar[0], 1.0 / ybar[1] - 1.0 / ybar[0]], rtol=1e-10)


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


def test_ce_joint_starts_from_the_same_problems_ce_fit(monkeypatch):
    problem = _d67_problem(4000, seed=31)
    fresh = profile_fit_joint(problem.data, problem.model, problem.constraints, problem.vis)
    sandwiches = _counting(monkeypatch, "components_from_arrays")
    ce = problem.fit("ce")
    joint = problem.fit("ce-joint")
    # One sandwich, for ce: ce-joint is a copy of the ce fit above, not a refit.
    assert len(sandwiches) == 1
    assert problem.fit("ce") is ce and len(sandwiches) == 1
    for key in ("theta", "se", "weights", "multiplier"):
        assert getattr(joint, key).tobytes() == getattr(fresh, key).tobytes(), key
    for key in ("theta", "se", "covariance", "weights", "multiplier"):
        assert getattr(joint, key).tobytes() == getattr(ce, key).tobytes(), key
        assert not np.shares_memory(getattr(joint, key), getattr(ce, key)), key
    assert joint.diagnostics == ce.diagnostics
    assert joint.diagnostics["coef_names"] is not ce.diagnostics["coef_names"]
    assert (joint.estimator, joint.Bp_hat, joint.logEL) == ("ce-joint", ce.Bp_hat, ce.logEL)
    reversed_order = _d67_problem(4000, seed=31)
    sandwiches.clear()
    assert reversed_order.fit("ce-joint").theta.tobytes() == fresh.theta.tobytes()
    assert reversed_order.fit("ce").theta.tobytes() == ce.theta.tobytes() and len(sandwiches) == 1


def test_fit_problem_builds_constraints_only_when_needed(rng):
    data = _logistic_data(rng, n=60)
    missing = ConstraintSpec((ConstraintEntry("general-moment", "zz", gamma=0.0),))
    problem = FitProblem(data, MODEL, missing)
    assert problem.fit("pl").diagnostics["converged"]
    with pytest.raises(DataError, match="'zz'"):
        problem.fit("cs")
    with pytest.raises(DataError, match="unknown estimator 'mle'"):
        problem.fit("mle")


@pytest.mark.parametrize("name", estimators.NEEDS_VISIBILITY)
@pytest.mark.parametrize("vis, message", [
    (None, "no visibility source was given (vis is None)"),
    (VisibilityModel("given-pi", np.full(119, 0.5), np.zeros(0)),
     "the visibility holds 119 values, expected one for each of the 120 rows"),
], ids=["missing", "119 values"])
def test_a_missing_or_mis_sized_visibility_is_named_with_the_estimator(rng, name, vis, message):
    problem = FitProblem(_logistic_data(rng, n=120), MODEL, vis=vis)
    assert problem.fit("pl").diagnostics["converged"]
    with pytest.raises(DataError) as raised:
        problem.fit(name)
    assert str(raised.value) == f"FitProblem.fit({name!r}): {message}"


@pytest.mark.parametrize("name, value, message", [
    *[("el_tol", v, "must be positive") for v in (-1, 0)],
    *[("el_tol", v, "must be a finite number") for v in (np.inf, np.nan, True)],
    *[("newton_max_iter", v, "must be an integer of at least 0") for v in (-1, 2.5, True)],
])
def test_a_solver_setting_out_of_range_is_rejected_when_the_problem_is_built(rng, name, value, message):
    with pytest.raises(DataError, match=f"FitProblem: {name} {message}"):
        FitProblem(_logistic_data(rng, n=20), MODEL, **{name: value})


# ---------------------------------------------------------------------------
# ce-joint: the ce fit under its own name


def _d67_problem(N, seed):
    """A FitProblem on one d67 sample (the acceptance gate's design)."""
    spec = DesignSpec(
        N=N, family="bernoulli-logit", theta0=(-0.9, 0.8, 1.4),
        covariates=(
            CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
            CovariateSpec("v", "bernoulli", (0.5,)),
        ),
        design={"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                "coeffs": {"v": 0.55}, "response_coef": 1.0},
        terms=("x", "v"), fit_terms=("x",), estimand=(-0.17948213, 0.71461978),
        constraints=(
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 0.0, "gamma": 0.30617885832653025},
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 1.0, "gamma": 0.6112839324775846},
        ),
    )
    pop = gen_population(spec, seed=seed)
    sample = draw_sample(pop, spec, seed=seed + 1)
    return FitProblem(sample, spec.model, population_constraint_spec(pop, spec), visibility_from_pi(sample))


def _gamma_problem(rng, n=300):
    x = rng.uniform(-1.0, 1.0, size=n)
    y = rng.gamma(shape=2.0, scale=1.0 / (2.0 * (1.0 + 0.3 * x)))
    pi = rng.uniform(0.2, 0.8, size=n)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    model = ModelSpec("gamma-inverse", terms=("x",))
    return FitProblem(data, model, _mean_constraint(data, column="x"), visibility_from_pi(data))


def _assert_oracle_profile_maximum_is_certified(problem, psi, rng):
    """The certified theta is the oracle's profile maximizer, and no jittered theta beats its value."""
    joint = problem.fit("ce-joint")
    assert joint.diagnostics["converged"]
    H, bp = problem.cm.H, problem.vis.bp
    theta, best = nelder_mead_profile(psi, H, bp, joint.theta + np.array([0.1, -0.1]))
    np.testing.assert_allclose(theta, joint.theta, rtol=0.0, atol=1e-6)
    bound = dual_minimize_kappa(H, bp).logEL
    tol = 1e-9
    assert abs(joint.logEL - bound) < tol and best <= bound + tol
    assert abs(composite_profile(joint.theta, psi, H, bp) - joint.logEL) < tol
    for scale in (1e-4, 1e-2, 1e-1):
        for _ in range(5):
            jittered = joint.theta + scale * rng.standard_normal(2)
            assert composite_profile(jittered, psi, H, bp) <= joint.logEL + tol, jittered


def test_ce_joint_is_the_oracle_profile_maximizer_logit(rng):
    data = _logistic_data(rng, n=300)
    problem = FitProblem(data, MODEL, _mean_constraint(data, group=("x", 1.0)), visibility_from_pi(data))
    A = np.column_stack([np.ones(data.n), data.columns["x"]])
    _assert_oracle_profile_maximum_is_certified(problem, lambda theta: logit_psi(theta, A, data.y), rng)


def test_ce_joint_is_the_oracle_profile_maximizer_gamma(rng):
    problem = _gamma_problem(rng)
    A = np.column_stack([np.ones(problem.data.n), problem.data.columns["x"]])
    _assert_oracle_profile_maximum_is_certified(problem, lambda theta: gamma_inverse_psi(theta, A, problem.data.y), rng)


def test_ce_joint_converges_where_a_bfgs_profile_search_lost_precision():
    # A BFGS search of the profile from the ce root stopped here with "precision loss".
    problem = _d67_problem(4000, seed=9)
    joint = problem.fit("ce-joint")
    assert joint.diagnostics["converged"] and np.all(np.isfinite(joint.se))
    assert joint.theta.tobytes() == problem.fit("ce").theta.tobytes()
    # The oracle's profile at that theta, under the score constraint, reaches the H-only bound.
    data, H, bp = problem.data, problem.cm.H, problem.vis.bp
    A = np.column_stack([np.ones(data.n), data.columns["x"]])
    profile = composite_profile(joint.theta, lambda theta: logit_psi(theta, A, data.y), H, bp)
    assert abs(profile - dual_minimize_kappa(H, bp).logEL) < 1e-9


def test_ce_joint_carries_the_ce_failure():
    problem = _d67_problem(4000, seed=31)
    problem.newton_max_iter = 0
    joint = problem.fit("ce-joint")
    reason = problem.fit("ce").diagnostics["failure"]
    assert not joint.diagnostics["converged"] and joint.diagnostics["failure"] == f"ce fit failed: {reason}"
    assert np.all(np.isnan(joint.theta)) and joint.multiplier.shape == (problem.cm.q,)


def test_a_score_newton_needing_k_steps_converges_with_the_cap_set_to_k():
    # Regression guard: the iterate of the last allowed step is tested against the tolerance too.  A cap
    # of 0 accepts the start, which is at its root under the design weights, so pl converges there.
    fits = {name: _d67_problem(4000, seed=31).fit(name) for name in ("pl", "cs", "ce")}
    for name, fit in fits.items():
        k = fit.diagnostics["newton_iterations"]
        assert (k == 0) == (name == "pl"), name
        for cap, converged in ((k, True), (k - 1, False)):
            if cap < 0:
                continue
            problem = _d67_problem(4000, seed=31)
            problem.newton_max_iter = cap
            capped = problem.fit(name)
            assert capped.diagnostics["converged"] is converged, (name, cap)
            if converged:
                assert capped.theta.tobytes() == fit.theta.tobytes(), name
            else:
                assert capped.diagnostics["failure"].startswith(f"no convergence in {cap} iterations"), name


def test_fits_summed_in_blocks_of_rows_match_the_one_block_fit(monkeypatch):
    # The score Newton, both EL duals and the sandwich sum their rows in blocks of elcore.ROWS.  Fewer
    # rows than that, or as many, are one block and keep every bit; more move only round-off, and take
    # the same iterations.  n = 1,994 here: 32 blocks of 64 rows and one of 10, two of 1,000 and 994,
    # one of 1,993 and one of 1 row, then one block at n and at n + 1.
    names = ("pl", "cs", "ce")
    ref = {name: _d67_problem(4000, seed=31).fit(name) for name in names}
    n = ref["pl"].weights.size
    assert n < elcore.ROWS
    for rows in (64, 1000, n - 1, n, n + 1):
        monkeypatch.setattr(elcore, "ROWS", rows)
        problem = _d67_problem(4000, seed=31)
        for name in names:
            fit, one = problem.fit(name), ref[name]
            kept = [{k: v for k, v in f.diagnostics.items() if not k.endswith("_residual")} for f in (fit, one)]
            assert kept[0] == kept[1], (rows, name)  # the iterations too; the residuals are round-off
            for field in ("theta", "se", "weights", "multiplier"):
                got, want = getattr(fit, field), getattr(one, field)
                if rows >= n:
                    assert got.tobytes() == want.tobytes(), (rows, name, field)
                else:  # a multiplier's error is on the scale of the largest one, as its gradient's is
                    scale = np.abs(want).max(initial=0.0) if field == "multiplier" else np.abs(want)
                    assert np.all(np.abs(got - want) <= 1e-13 * scale), (rows, name, field)


def test_singular_sandwich_is_flagged_not_raised():
    # Every constraint column twice, passed around build_constraint_matrix's rank check:
    # the EL weights exist, but H1 is singular, so A = K1 H1^-1 cannot be formed.
    problem = _d67_problem(4000, seed=0)
    cm = problem.cm
    problem.cm = ConstraintMatrix(np.column_stack([cm.H, cm.H]), cm.labels * 2, cm.vacuous * 2)
    with pytest.warns(UserWarning, match="condition number"):
        fits = {name: problem.fit(name) for name in ("cs", "ce", "ce-joint")}
    for res in fits.values():
        assert not res.diagnostics["converged"] and "singular sandwich covariance" in res.diagnostics["failure"]
        assert np.all(np.isnan(res.theta))
    assert np.all(np.isfinite(fits["cs"].weights)) and np.all(np.isfinite(fits["ce"].weights))


def test_a_vacuous_constraint_leaves_every_fit_as_it_is_without_it():
    # No row has g = 7, so that constraint's column is all zero: the dual gives it multiplier 0 and the
    # sandwich is built over the other columns, where H1 would otherwise be singular.
    rng = np.random.default_rng(3)
    n = 500
    x, g = rng.normal(size=n), rng.integers(0, 3, size=n).astype(float)
    y = (rng.uniform(size=n) < expit(0.3 + 0.8 * x)).astype(float)
    data = dataset_from({"y": y, "x": x, "g": g, "pi": rng.uniform(0.3, 0.7, size=n)},
                        response="y", covariates=("x",), pi="pi")
    vacuous = ConstraintEntry("subgroup-moment", "y", gamma=0.5, group_column="g", group_value=7.0)
    general = ConstraintEntry("general-moment", "x", gamma=0.0)
    fits = {}
    for key, entries in (("both", (vacuous, general)), ("general", (general,)), ("vacuous", (vacuous,)),
                         ("none", ())):
        problem = FitProblem(data, MODEL, ConstraintSpec(entries), VisibilitySpec("given-pi"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the vacuous column's warning
            fits[key] = {name: problem.fit(name) for name in ESTIMATORS}
    for without, key in (("general", "both"), ("none", "vacuous")):
        for name in ESTIMATORS:
            got, want = fits[key][name], fits[without][name]
            assert got.diagnostics["converged"], (key, name, got.diagnostics.get("failure"))
            for field in ("theta", "se", "weights"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (key, name, field)
            if name != "pl":
                assert got.multiplier[0] == 0.0 and got.multiplier[1:].tobytes() == want.multiplier.tobytes()
    for field in ("theta", "se", "weights", "covariance"):  # with every constraint vacuous, cs is pl
        assert getattr(fits["vacuous"]["cs"], field).tobytes() == getattr(fits["none"]["pl"], field).tobytes()


def _infeasible_constraint(problem):
    problem.constraints = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=5.0),))


def _failed_visibility_regression(problem):
    # A gamma regression on a column that moves by 1e-5 diverges.
    data = problem.data
    problem.data = make_dataset(dict(data.columns, tiny=1.0 + 1e-5 * data.columns["v"]), data.roles)
    problem.vis = VisibilitySpec("gamma-regression", formula=("tiny",))


def _failed_start(problem):
    # The fitted covariate x set to the response: a complete separation, which irls_fit rejects.
    data = problem.data
    problem.data = make_dataset(dict(data.columns, x=data.y.copy()), data.roles)


def _failed_step_two(problem):
    problem.newton_max_iter = 0  # the start is at its root after 0 steps; the cs and ce step 2 must leave it


def _singular_sandwich(problem):
    cm = problem.cm
    problem.cm = ConstraintMatrix(np.column_stack([cm.H, cm.H]), cm.labels * 2, cm.vacuous * 2)


STEP_ONE_RAISED = ("step-1 InfeasibleError", "failed visibility regression")
NO_STEP = "no convergence in 0 iterations"
FLAGGED = {  # failure kind: (set-up, failure prefix of pl, cs and ce, None where the fit converges)
    "step-1 InfeasibleError": (_infeasible_constraint, (None, "InfeasibleError: solve_weighted_el: ",
                                                        "InfeasibleError: solve_el: ")),
    "failed visibility regression": (_failed_visibility_regression,
                                     (None, None, "ConvergenceError: estimate_visibility: ")),
    "failed start": (_failed_start, ("design-weighted start failed: irls_fit: ",) * 3),
    "failed step-2 Newton": (_failed_step_two, (None, NO_STEP, NO_STEP)),
    "singular sandwich": (_singular_sandwich, (None, "singular sandwich covariance: ",
                                               "singular sandwich covariance: ")),
}


@pytest.mark.parametrize("kind", FLAGGED)
def test_a_flagged_fit_keeps_exactly_what_its_failure_leaves(kind):
    # Regression guard for the flagged-fit contract of every estimator: NaN theta, SE and covariance;
    # NaN weights and multiplier only after a step-1 exception; the failure's prefix; and the step-2
    # diagnostics exactly when step 2 ran, which for pl (its step 2 is the start) includes a failed start.
    setup, prefixes = FLAGGED[kind]
    problem = _d67_problem(4000, seed=31)
    setup(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a singular sandwich warns of its condition number first
        fits = {name: problem.fit(name) for name in ESTIMATORS}
    for name, prefix in zip(ESTIMATORS, prefixes + (prefixes[-1] and "ce fit failed: " + prefixes[-1],)):
        fit, diagnostics = fits[name], fits[name].diagnostics
        step_one_raised = prefix is not None and kind in STEP_ONE_RAISED
        step_two_ran = not step_one_raised and (kind != "failed start" or name == "pl")
        assert diagnostics["converged"] is (prefix is None), name
        assert diagnostics.get("failure", "").startswith(prefix or "") and ("failure" in diagnostics) == bool(prefix)
        for values in (fit.theta, fit.se, fit.covariance):
            assert np.all(np.isnan(values) if prefix else np.isfinite(values)), name
        for values in (fit.weights, fit.multiplier):
            assert np.all(np.isnan(values) if step_one_raised else np.isfinite(values)), name
        assert fit.weights.shape == (problem.data.n,) and np.isnan(fit.logEL) == step_one_raised, name
        assert ("newton_iterations" in diagnostics) == ("score_residual" in diagnostics) == step_two_ran, name
        assert diagnostics["coef_names"] == list(problem.model.coef_names), name


def test_fit_problem_builds_the_design_matrix_a_fixed_number_of_times(monkeypatch):
    original = glm.design_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "elsurvey" or key.startswith("elsurvey.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    counts, work = [], []
    for seed in (31, 41):
        problem = _d67_problem(4000, seed=seed)
        calls.clear()
        fits = {name: problem.fit(name) for name in ESTIMATORS}
        assert all(res.diagnostics["converged"] for res in fits.values())
        counts.append(len(calls))
        work.append((fits["cs"].diagnostics["newton_iterations"], fits["ce"].diagnostics["newton_iterations"]))
    # FitProblem.A serves the start (IRLS + Newton), the cs and ce Newton solves and the three
    # sandwiches (ce-joint copies the ce fit): 1, whatever the iteration counts.
    assert counts == [1, 1]
    assert work[0] != work[1]


def test_a_fit_that_takes_no_newton_step_shares_no_theta_with_the_start(rng):
    # With no constraints the cs weights are the design weights, so its Newton solve starts at
    # its root and returns at once; the fit must still own its theta.
    data = _logistic_data(rng, n=200)
    problem = FitProblem(data, MODEL, NO_CONSTRAINTS, visibility_from_pi(data))
    start = problem.start[0].copy()
    cs = problem.fit("cs")
    assert cs.diagnostics["newton_iterations"] == 0
    cs.theta[:] = 99.0
    assert problem.start[0].tobytes() == start.tobytes()
    fresh = FitProblem(data, MODEL, NO_CONSTRAINTS, visibility_from_pi(data)).fit("ce")
    assert problem.fit("ce").theta.tobytes() == fresh.theta.tobytes()


def test_a_rejected_constraint_matrix_is_built_once(monkeypatch):
    # Duplicated constraints fail the rank check; the DataError is kept and raised again for
    # every estimator fitted on the problem, without rebuilding the matrix.
    calls = []

    def counted(*args):
        calls.append(1)
        return build_constraint_matrix(*args)

    monkeypatch.setattr(estimators, "build_constraint_matrix", counted)
    problem = _d67_problem(1500, seed=3)
    problem.constraints = ConstraintSpec(problem.constraints.entries * 2)
    for name in ("cs", "ce", "ce-joint"):
        with pytest.raises(DataError, match="linearly dependent"):
            problem.fit(name)
    assert len(calls) == 1
