"""Synthetic populations, informative sampling, and the Monte Carlo runner."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from elsurvey.data import build_constraint_matrix
from elsurvey.errors import DataError
from elsurvey.estimators import fit_ce, fit_pl
from elsurvey.glm import design_matrix, irls_fit
from elsurvey.simulate import (
    CovariateSpec,
    DesignSpec,
    draw_sample,
    gen_population,
    population_constraint_spec,
    run_monte_carlo,
)
from elsurvey.visibility import VisibilityModel, estimate_visibility


def _basic_spec(N=2000, **overrides):
    base = dict(
        N=N,
        family="bernoulli-logit",
        theta0=(-0.9, 0.8, 1.4),
        covariates=(
            CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
            CovariateSpec("v", "bernoulli", (0.5,)),
        ),
        design={"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                "coeffs": {"v": 0.55}, "response_coef": 1.0},
        terms=("x", "v"),
        constraints=(
            {"kind": "subgroup-moment", "target_column": "y",
             "group_column": "v", "group_value": 0.0},
            {"kind": "subgroup-moment", "target_column": "y",
             "group_column": "v", "group_value": 1.0},
        ),
    )
    base.update(overrides)
    return DesignSpec(**base)


# ---------------------------------------------------------------------------
# gen_population


def test_population_is_deterministic_per_seed():
    spec = _basic_spec(N=500)
    a = gen_population(spec, seed=42)
    b = gen_population(spec, seed=42)
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    c = gen_population(spec, seed=43)
    assert not np.array_equal(a.columns["y"], c.columns["y"])


def test_population_constraint_columns_center_near_zero():
    spec = _basic_spec(N=20_000)
    pop = gen_population(spec, seed=7)
    # Realized-mean targets: the population mean of each h column is zero by
    # construction.
    realized = population_constraint_spec(pop, spec)
    H = build_constraint_matrix(pop, realized).H
    assert np.max(np.abs(H.mean(axis=0))) < 1e-12
    # Explicit true-moment targets: the mean is a centered sample average.
    truth = {0.0: None, 1.0: None}
    for gv in truth:
        mu0 = expit(spec.theta0[0] + spec.theta0[1] * np.array([-1.0, 0.0, 1.0])
                    + spec.theta0[2] * gv)
        truth[gv] = float(mu0.mean())
    explicit = _basic_spec(N=20_000, constraints=tuple(
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
         "group_value": gv, "gamma": truth[gv]} for gv in (0.0, 1.0)))
    He = build_constraint_matrix(pop, population_constraint_spec(pop, explicit)).H
    for k in range(He.shape[1]):
        col = He[:, k]
        assert abs(col.mean()) < 3.0 * col.std() / np.sqrt(pop.n)


def test_census_fit_recovers_theta0():
    spec = _basic_spec(N=20_000)
    pop = gen_population(spec, seed=11)
    res = fit_pl(pop, spec.model)
    assert np.all(np.abs(res.theta - np.asarray(spec.theta0)) < 3.0 * res.se)


def test_map_covariate_and_dummies():
    spec = DesignSpec(
        N=300,
        family="bernoulli-logit",
        theta0=(0.0, 0.5, 0.2),
        covariates=(
            CovariateSpec("cell", "choice", ((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))),
            CovariateSpec("z", "map", ("cell", (0.0, 1.0, 2.0), (0.0, 0.0, 1.0))),
        ),
        design={"kind": "poisson", "lo": 0.2, "hi": 0.6, "coeffs": {"z": 0.4}},
        terms=("cell", "z"),
        dummies={"cell": (1.0, 2.0)},
    )
    pop = gen_population(spec, seed=3)
    cell = pop.columns["cell"]
    np.testing.assert_array_equal(pop.columns["z"], (cell == 2.0).astype(float))
    np.testing.assert_array_equal(pop.columns["cell_1"], (cell == 1.0).astype(float))
    np.testing.assert_array_equal(pop.columns["cell_2"], (cell == 2.0).astype(float))


def test_family_sizes_divide_inclusion_rates():
    spec = DesignSpec(
        N=4000,
        family="bernoulli-logit",
        theta0=(0.2, 0.4),
        covariates=(CovariateSpec("z", "bernoulli", (0.4,)),),
        design={"kind": "two-strata", "column": "z", "rates": (0.5, 0.05),
                "family_sizes": {"values": (1.0, 2.0, 3.0), "probs": (0.3, 0.4, 0.3)}},
        terms=("z",),
    )
    pop = gen_population(spec, seed=21)
    nf = pop.columns["nf"]
    assert set(np.unique(nf)) == {1.0, 2.0, 3.0}
    base = np.where(pop.columns["z"] == 1.0, 0.05, 0.5)
    np.testing.assert_allclose(pop.columns["pi"], base / nf, atol=1e-15)


def test_invalid_specs_are_rejected():
    with pytest.raises(DataError, match="theta0"):
        _basic_spec(theta0=(0.0, 1.0))
    with pytest.raises(DataError, match="kind"):
        _basic_spec(design={"kind": "cluster"})
    with pytest.raises(DataError, match="lo <= hi"):
        gen_population(_basic_spec(design={"kind": "poisson", "lo": 0.0, "hi": 0.5}), seed=1)


# ---------------------------------------------------------------------------
# draw_sample


def test_poisson_sample_sizes_concentrate():
    spec = _basic_spec(N=3000)
    pop = gen_population(spec, seed=9)
    pi = pop.columns["pi"]
    expected = pi.sum()
    band = 4.0 * np.sqrt(np.sum(pi * (1.0 - pi)))
    hits = 0
    for seed in range(200):
        sample = draw_sample(pop, spec, seed=seed)
        hits += abs(sample.n - expected) <= band
    assert hits >= 190


def test_two_strata_weight_ratio():
    spec = DesignSpec(
        N=5000,
        family="bernoulli-logit",
        theta0=(0.2, 0.4),
        covariates=(CovariateSpec("z", "bernoulli", (0.5,)),),
        design={"kind": "two-strata", "column": "z", "rates": (0.5, 0.05)},
        terms=("z",),
    )
    pop = gen_population(spec, seed=2)
    sample = draw_sample(pop, spec, seed=3)
    d = sample.d
    z = sample.columns["z"]
    ratio = d[z == 1.0].mean() / d[z == 0.0].mean()
    np.testing.assert_allclose(ratio, 10.0, rtol=1e-9)


def test_constant_rate_gives_uniform_weights():
    spec = _basic_spec(N=900, design={"kind": "poisson", "lo": 0.3, "hi": 0.3})
    pop = gen_population(spec, seed=5)
    sample = draw_sample(pop, spec, seed=6)
    np.testing.assert_allclose(sample.d, np.full(sample.n, 1.0 / sample.n), atol=1e-15)


def test_latent_masking_hides_design_information():
    spec = _basic_spec(
        N=1200,
        design={"kind": "poisson", "lo": 0.2, "hi": 0.8, "const": -0.3,
                "coeffs": {"v": 0.6}, "response_coef": 0.8,
                "latent_sd": 0.7, "mask_latent": True},
    )
    pop = gen_population(spec, seed=31)
    assert "latent" in pop.columns
    sample = draw_sample(pop, spec, seed=32)
    assert "pi" not in sample.columns and "latent" not in sample.columns
    assert "w" in sample.columns
    assert "latent" not in sample.roles["design"]
    np.testing.assert_allclose(sample.d, sample.columns["w"] / sample.columns["w"].sum(),
                               atol=1e-15)


def test_masked_design_estimated_visibility_corrects_bias():
    # pi depends on (v, y, latent); the sample sees only (v, y, w).  The
    # composite fit with visibility estimated from the weights should remove
    # most of the informative-sampling bias that the unweighted MLE keeps,
    # and should land close to the fit that uses the exact E[pi | v, y].
    spec = _basic_spec(
        N=30_000,
        design={"kind": "poisson", "lo": 0.1, "hi": 0.9, "const": -0.8,
                "coeffs": {"v": 0.7}, "response_coef": 1.6,
                "latent_sd": 0.8, "mask_latent": True},
        constraints=(),
    )
    pop = gen_population(spec, seed=71)
    sample = draw_sample(pop, spec, seed=72)
    theta0 = np.asarray(spec.theta0)
    constraints = population_constraint_spec(pop, spec)

    naive = irls_fit("bernoulli-logit", sample.y, design_matrix(spec.model, sample))
    vis_est = estimate_visibility(sample, ["v", "y"])
    ce_est = fit_ce(sample, spec.model, constraints, vis_est)

    pop_pi = pop.columns["pi"]
    bp_true = np.empty(sample.n)
    for v in (0.0, 1.0):
        for yv in (0.0, 1.0):
            pop_mask = (pop.columns["v"] == v) & (pop.columns["y"] == yv)
            here = (sample.columns["v"] == v) & (sample.columns["y"] == yv)
            bp_true[here] = pop_pi[pop_mask].mean()
    ce_true = fit_ce(sample, spec.model, constraints,
                     VisibilityModel(mode="given-pi", bp=bp_true, alpha=np.zeros(0)))

    gap_naive = abs(naive[0] - theta0[0])
    gap_est = abs(ce_est.theta[0] - theta0[0])
    gap_true = abs(ce_true.theta[0] - theta0[0])
    assert gap_naive > 0.3
    assert gap_est < 0.15
    assert abs(gap_est - gap_true) < 0.1


# ---------------------------------------------------------------------------
# run_monte_carlo


def test_single_replicate_summary_equals_direct_fit():
    spec = _basic_spec(N=1500)
    seed = 99
    summary = run_monte_carlo(spec, ("pl", "cs"), reps=1, seed=seed)
    master = np.random.default_rng(seed)
    rep_seeds = master.integers(0, 2**62, size=(1, 2))
    pop = gen_population(spec, int(rep_seeds[0, 0]))
    sample = draw_sample(pop, spec, int(rep_seeds[0, 1]))
    direct = fit_pl(sample, spec.model)
    s = summary.estimators["pl"]
    np.testing.assert_array_equal(s.mean, direct.theta)
    np.testing.assert_array_equal(s.mean_se, direct.se)
    assert s.n_converged == 1 and s.n_failed == 0
    assert set(np.unique(s.coverage)) <= {0.0, 1.0}


def test_monte_carlo_deterministic_across_worker_counts():
    spec = _basic_spec(N=800)
    a = run_monte_carlo(spec, ("pl", "cs"), reps=12, seed=5, jobs=1)
    b = run_monte_carlo(spec, ("pl", "cs"), reps=12, seed=5, jobs=2)
    assert a.as_dict() == b.as_dict()


def test_monte_carlo_counts_failures_without_aborting():
    # A constraint on a rare subgroup: small populations sometimes miss the
    # group entirely, and small samples often see it one-sided, so a fair
    # share of replicates must fail without sinking the batch.
    spec = _basic_spec(
        N=150,
        covariates=(
            CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
            CovariateSpec("v", "bernoulli", (0.05,)),
        ),
        constraints=(
            {"kind": "subgroup-moment", "target_column": "y",
             "group_column": "v", "group_value": 1.0, "gamma": 0.5},
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # vacuous-constraint warnings on some draws
        summary = run_monte_carlo(spec, ("cs",), reps=60, seed=17)
    s = summary.estimators["cs"]
    assert s.n_converged + s.n_failed == 60
    assert s.n_failed > 0 and s.n_converged > 0
    assert any("Infeasible" in f for f in s.failures)


def test_monte_carlo_counts_singular_sandwiches_as_failures():
    # Two identical constraints give singular H1 / calH2 sandwiches; the
    # batch must finish and count those fits as failed.
    duplicate = {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                 "group_value": 1.0, "gamma": 0.6112839324775846}
    spec = _basic_spec(N=4000, constraints=(duplicate, duplicate))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # condition-number warnings
        summary = run_monte_carlo(spec, ("pl", "cs", "ce"), reps=4, seed=5)
    assert summary.estimators["pl"].n_converged == 4
    for name in ("cs", "ce"):
        s = summary.estimators[name]
        assert s.n_converged + s.n_failed == 4 and s.n_failed > 0
        assert all("singular sandwich covariance" in f for f in s.failures)


def test_unknown_estimator_rejected():
    with pytest.raises(DataError, match="unknown estimator"):
        run_monte_carlo(_basic_spec(N=200), ("cs", "mle"), reps=1, seed=1)


def test_small_batch_coverage_and_se_ordering():
    # Interval theory targets the superpopulation moments, so the subgroup
    # targets must be the exact model-implied means, not realized ones.
    spec = _basic_spec(
        N=2000,
        design={"kind": "poisson", "lo": 0.1, "hi": 0.9, "const": -1.2,
                "coeffs": {"v": 1.2}, "response_coef": 1.8},
        fit_terms=("x",),
        estimand=(-0.17948213, 0.71461978),
        constraints=(
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 0.0, "gamma": 0.30617885832653025},
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 1.0, "gamma": 0.6112839324775846},
        ),
    )
    summary = run_monte_carlo(spec, ("cs", "ce"), reps=120, seed=2024, jobs=2)
    for name in ("cs", "ce"):
        s = summary.estimators[name]
        assert s.n_failed <= 2
        assert np.all(s.coverage >= 0.86) and np.all(s.coverage <= 1.0)
    # Visibility equals the inclusion probability here, so the composite SEs
    # cannot exceed the design-weighted ones by more than noise.
    gap = summary.estimators["ce"].mean_se - summary.estimators["cs"].mean_se
    assert np.all(gap <= 1e-3)
