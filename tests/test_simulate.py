"""Synthetic populations, informative sampling, and the Monte Carlo runner."""

import concurrent.futures
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from elsurvey import simulate
from elsurvey.data import build_constraint_matrix
from elsurvey.errors import DataError
from elsurvey.estimators import ESTIMATORS, fit_ce, fit_pl
from elsurvey.glm import ModelSpec, design_matrix, irls_fit
from elsurvey.simulate import (
    CovariateSpec,
    DesignSpec,
    draw_sample,
    gen_population,
    population_constraint_spec,
    run_monte_carlo,
)
from elsurvey.visibility import VisibilityModel, VisibilitySpec, estimate_visibility


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


def test_specs_build_from_config_values():
    spec = _basic_spec(N="400", covariates=({"name": "x", "dist": "choice",
                                             "params": [[-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]]},
                                            {"name": "v", "dist": "bernoulli", "params": [0.5]}),
                       terms=["x", "v"], dummies={"x": [1.0]}, visibility={"mode": "gamma-regression"})
    assert spec.N == 400 and spec.terms == ("x", "v")
    assert spec.covariates[1] == CovariateSpec("v", "bernoulli", (0.5,))
    assert spec.dummies == {"x": (1.0,)} and spec.visibility == VisibilitySpec("gamma-regression")
    assert _basic_spec().visibility == VisibilitySpec("given-pi")
    assert ModelSpec("bernoulli-logit", ["x"], intercept=1) == ModelSpec("bernoulli-logit", ("x",))
    # A string where a list belongs is rejected, not split into one-letter names.
    for build in (lambda: _basic_spec(terms="xv"), lambda: _basic_spec(theta0="123"),
                  lambda: ModelSpec("bernoulli-logit", "xv"), lambda: VisibilitySpec("gamma-regression", "v")):
        with pytest.raises(DataError, match="must be a list"):
            build()
    with pytest.raises(DataError, match="visibility mode 'given_pi'"):
        _basic_spec(visibility={"mode": "given_pi"})
    with pytest.raises(DataError, match="unknown kind"):
        _basic_spec(constraints=({"kind": "subgroup_moment", "target_column": "y"},))


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


@pytest.mark.parametrize("build, message", [
    (lambda: CovariateSpec("z", "normal", (0.0, -1.0)), "CovariateSpec 'z': sd must be non-negative"),
    (lambda: CovariateSpec("z", "choice", ((0.0, 1.0), (0.5, 0.4))),
     "CovariateSpec 'z': choice probs must be non-negative and sum to 1"),
    (lambda: CovariateSpec("z", "choice", ((), None)), "CovariateSpec 'z': choice values must not be empty"),
    (lambda: CovariateSpec("z", "map", (["x"], (0.0,), (1.0,))),
     "CovariateSpec 'z': map source must be a column name"),
    (lambda: CovariateSpec(["z"], "bernoulli", (0.5,)), "CovariateSpec ['z']: name must be a string"),
    (lambda: _basic_spec(design={"kind": "two-strata", "column": "v", "rates": (0.5, 0.5, 0.5)}),
     "DesignSpec: design.rates must be a list of 2 numbers"),
    (lambda: _basic_spec(design={"kind": "two-strata", "column": "v", "rates": (0.5, 0.5), "family_sizes": "ab"}),
     "DesignSpec: design.family_sizes must hold values and probs"),
    (lambda: _basic_spec(design={"kind": "two-strata", "column": "v", "rates": (0.5, 0.5),
                                 "family_sizes": {"values": (1.0, 2.0), "probs": (0.5, 0.4)}}),
     "DesignSpec: design.family_sizes.probs must be non-negative and sum to 1"),
    (lambda: _basic_spec(design={"kind": "poisson", "lo": 0.2, "hi": 0.4, "respone_coef": 2.0}),
     "unknown key 'respone_coef' in 'design.design'"),
    (lambda: _basic_spec(design={"kind": "poisson", "lo": 0.2, "hi": True}),
     "DesignSpec: design.hi must be a finite number, got True"),
    (lambda: _basic_spec(terms=("x", "vv")), "DesignSpec: model term 'vv' is not a column generated before it"),
    (lambda: _basic_spec(fit_terms=("x", "latent")), "DesignSpec: fitted-model term 'latent' is not a column"),
    (lambda: _basic_spec(design={"kind": "poisson", "lo": 0.2, "hi": 0.4, "coeffs": {"pi": 1.0}}),
     "DesignSpec: design.coeffs column 'pi' is not a column generated before it is read (x, v, y)"),
    (lambda: _basic_spec(design={"kind": "two-strata", "column": "z", "rates": (0.5, 0.5)}),
     "DesignSpec: design.column 'z' is not a column"),
    (lambda: _basic_spec(covariates=(CovariateSpec("z", "map", ("v", (0.0, 1.0), (1.0, 2.0))),
                                     CovariateSpec("v", "bernoulli", (0.5,)))),
     "DesignSpec: map covariate 'z': source 'v' is not a column generated before it is read ()"),
    (lambda: _basic_spec(dummies={"w": (1.0,)}), "DesignSpec: dummies parent 'w' is not a column"),
    (lambda: _basic_spec(visibility={"mode": "gamma-regression", "formula": ["pi"]},
                         design={"kind": "poisson", "lo": 0.2, "hi": 0.4, "latent_sd": 1.0, "mask_latent": True}),
     "DesignSpec: visibility formula column 'pi' is not a column generated before it is read (x, v, y, w)"),
    (lambda: _basic_spec(visibility={"mode": "gamma-regression", "nf_adjust": True}),
     "DesignSpec: visibility nf_adjust reads an 'nf' column"),
    (lambda: _basic_spec(design={"kind": "poisson", "lo": 0.2, "hi": 0.4, "latent_sd": -1.0}),
     "DesignSpec: design.latent_sd must be non-negative, got -1.0"),
    (lambda: _basic_spec(N=float("inf")), "DesignSpec: N must be a finite number, got inf"),
    (lambda: _basic_spec(N=400.5), "DesignSpec: N must be an integer of at least 2, got 400.5"),
    (lambda: _basic_spec(terms=0), "DesignSpec: terms must be a list, got 0"),
    (lambda: _basic_spec(estimand=0), "DesignSpec: estimand must be a list, got 0"),
    (lambda: _basic_spec(N=1e300), f"DesignSpec: N must be at most {np.iinfo(np.intp).max}"),
    (lambda: _basic_spec(covariates=({"name": "x", "dist": "bernoulli", "params": [0.5]},
                                     {"name": "v", "dist": "bernoulli", "params": [0.5], "nme": "v"})),
     "unknown key 'nme' in 'design.covariates[1]'; allowed keys: ['dist', 'name', 'params']"),
    (lambda: _basic_spec(covariates=({"name": "x", "dist": "bernoulli"},)),
     "CovariateSpec.__init__() missing 1 required positional argument: 'params' in 'design.covariates[0]'"),
    (lambda: _basic_spec(constraints=({"kind": "general-moment", "target_column": "y", "weight": 2.0},)),
     "unknown key 'weight' in 'design.constraints[0]'"),
    (lambda: _basic_spec(visibility={"mode": "given-pi", "formla": ["v"]}),
     "unknown key 'formla' in 'design.visibility'"),
    (lambda: _basic_spec(visibility=["given-pi"]), "section 'design.visibility' must be an object"),
    (lambda: _basic_spec(design={"kind": "two-strata", "column": "v", "rates": (0.5, 0.5), "family_sizes": {
        "values": (1.0, 2.0), "probs": (0.5, 0.5), "prob": (0.9, 0.1)}}),
     "unknown key 'prob' in 'design.design.family_sizes'; allowed keys: ['probs', 'values']"),
    (lambda: _basic_spec(constraints=({"kind": "general-moment", "target_column": "y", "gamma": 0.5,
                                       "group_column": "zz", "group_value": "abc"},)),
     "constraint on 'y': a general-moment takes no group_column or group_value, got 'zz' and 'abc'"),
], ids=["normal sd", "choice probs", "choice values", "map source", "name", "rates", "family sizes",
        "family probs", "misspelled design key", "design number true", "terms", "fit terms", "design coeffs",
        "strata column", "map source order", "dummies parent", "visibility formula", "nf adjust", "latent sd",
        "infinite N", "fractional N", "zero terms", "zero estimand", "N above the array size limit",
        "unknown covariate key", "missing covariate key", "unknown constraint key", "unknown visibility key",
        "visibility not an object", "unknown family sizes key", "general moment with a group"])
def test_design_values_that_would_crash_a_replicate_are_rejected_when_built(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()


_X, _V = CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), None)), CovariateSpec("v", "bernoulli", (0.5,))
_FAMILIES = {"kind": "two-strata", "column": "v", "rates": (0.5, 0.5),
             "family_sizes": {"values": (1.0, 2.0), "probs": (0.5, 0.5)}}
_MASKED = {"kind": "poisson", "lo": 0.2, "hi": 0.4, "latent_sd": 1.0, "mask_latent": True}


@pytest.mark.parametrize("extra, overrides, message", [
    ("y", {}, "DesignSpec: column 'y' is generated twice (x, v, y, y, pi)"),
    ("latent", {"design": {"kind": "poisson", "lo": 0.2, "hi": 0.4, "latent_sd": 1.0}},
     "DesignSpec: column 'latent' is generated twice (x, v, latent, y, latent, pi)"),
    ("nf", {"design": _FAMILIES}, "DesignSpec: column 'nf' is generated twice (x, v, nf, y, nf, pi)"),
    ("pi", {}, "DesignSpec: column 'pi' is generated twice (x, v, pi, y, pi)"),
    ("x", {}, "DesignSpec: column 'x' is generated twice (x, v, x, y, pi)"),
    ("x_1", {"dummies": {"x": (1.0,)}}, "DesignSpec: column 'x_1' is generated twice (x, v, x_1, x_1, y, pi)"),
    ("w", {"design": _MASKED}, "DesignSpec: column 'w' is generated twice (x, v, w, y, w)"),
], ids=["y", "latent", "nf", "pi", "two covariates", "dummy", "w under mask_latent"])
def test_a_column_name_generated_twice_is_rejected_when_built(extra, overrides, message):
    # gen_population and draw_sample would write the second column over the first.
    with pytest.raises(DataError, match=re.escape(message)):
        _basic_spec(covariates=(_X, _V, CovariateSpec(extra, "normal", (0.0, 1.0))), constraints=(), **overrides)
    _basic_spec(covariates=(_X, _V, CovariateSpec(extra + "2", "normal", (0.0, 1.0))), constraints=(), **overrides)


@pytest.mark.parametrize("key, value, message", [
    ("constraints", ("abc",), "section 'design.constraints[0]' must be an object"),
    ("constraints", (["a"],), "section 'design.constraints[0]' must be an object"),
    ("constraints", ([("kind", "general-moment"), ("target_column", "y")],),
     "section 'design.constraints[0]' must be an object"),
    ("constraints", "abc", "DesignSpec: constraints must be a list, got the string 'abc'"),
    ("dummies", ["x"], "DesignSpec: dummies must map column names to lists of values, got ['x']"),
], ids=["string entry", "list entry", "key-value pairs", "string constraints", "dummies list"])
def test_a_design_entry_that_is_not_an_object_is_rejected_when_built(key, value, message):
    with pytest.raises(DataError, match=re.escape(message)):
        _basic_spec(**{key: value})


@pytest.mark.parametrize("design", [
    {"kind": "poisson", "lo": 0.3, "hi": 0.7, "latent_sd": 1, "mask_latent": True},
    {"kind": "two-strata", "column": "v", "rates": [0.2, 0.6],
     "family_sizes": {"values": [1, 2], "probs": [0.5, 0.5]}},
], ids=["poisson", "two-strata"])
def test_a_built_spec_stores_values_a_new_spec_takes_back(design):
    spec = _basic_spec(design=design, dummies={"x": [1]}, visibility={"mode": "gamma-regression", "formula": ["v"]},
                       constraints=({"kind": "general-moment", "target_column": "x", "gamma": "0.1"},
                                    {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                                     "group_value": "1"}))
    assert set(spec.design) == set(simulate.DESIGN_KEYS[design["kind"]])
    assert spec.constraints == ({"kind": "general-moment", "target_column": "x", "gamma": 0.1,
                                 "group_column": None, "group_value": None},
                                {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                                 "group_value": 1.0})
    again = _basic_spec(design=spec.design, dummies=spec.dummies, visibility=spec.visibility,
                        constraints=spec.constraints)
    assert again == spec


def test_a_gamma_less_target_compares_the_population_with_the_checked_group_value():
    pop = gen_population(_basic_spec(N=400), seed=3)
    as_string = population_constraint_spec(pop, _basic_spec(N=400, constraints=(
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v", "group_value": "1"},)))
    (entry,) = as_string.entries
    assert entry.group_value == 1.0
    assert entry.gamma == pop.columns["y"][pop.columns["v"] == 1.0].mean()


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


LATENT = {"kind": "poisson", "lo": 0.2, "hi": 0.8, "coeffs": {"v": 0.6}, "latent_sd": 0.7}


@pytest.mark.parametrize("overrides, population, sample, covariates, design", [
    ({}, ["x", "v", "y", "pi"], ["x", "v", "y", "pi"], ("x", "v"), ("v",)),
    ({"design": LATENT}, ["x", "v", "y", "latent", "pi"], ["x", "v", "y", "latent", "pi"], ("x", "v"),
     ("v", "latent")),
    ({"design": dict(LATENT, mask_latent=True)}, ["x", "v", "y", "latent", "pi"], ["x", "v", "y", "w"], ("x", "v"),
     ("v",)),
    ({"design": {"kind": "two-strata", "column": "v", "rates": (0.3, 0.6),
                 "family_sizes": {"values": (1.0, 2.0), "probs": (0.5, 0.5)}},
      "fit_terms": ("x",), "estimand": (-0.9, 0.8)},
     ["x", "v", "y", "nf", "pi"], ["x", "v", "y", "nf", "pi"], ("x",), ("v",)),
], ids=["poisson", "poisson latent_sd", "poisson mask_latent", "two-strata family_sizes"])
def test_population_and_sample_roles_and_column_order_are_pinned(overrides, population, sample, covariates, design):
    # A guard: the column order of population.csv and sample.csv, and the roles in the key order in
    # which sim.json's sample_schema writes them, for each kind of generated column.
    spec = _basic_spec(N=600, **overrides)
    pop = gen_population(spec, seed=41)
    drawn = draw_sample(pop, spec, seed=42)
    assert (list(pop.columns), list(drawn.columns)) == (population, sample)
    head = [("response", "y"), ("covariates", covariates), ("design", design)]
    assert list(pop.roles.items()) == head + [("pi", "pi"), ("weight_mode", "direct")]
    tail = [("weight_mode", "direct"), ("weight", "w")] if "w" in sample else [("pi", "pi"), ("weight_mode", "direct")]
    assert list(drawn.roles.items()) == head + tail


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


def test_a_fixed_population_serves_every_replicate(monkeypatch):
    spec = _basic_spec(N=800, fixed_population=True)
    seeds = []
    real = simulate.gen_population
    monkeypatch.setattr(simulate, "gen_population", lambda s, seed: seeds.append(seed) or real(s, seed))
    fixed = run_monte_carlo(spec, ("pl", "cs"), reps=12, seed=5, jobs=1).as_dict()
    assert len(seeds) == 1
    monkeypatch.undo()
    assert run_monte_carlo(spec, ("pl", "cs"), reps=12, seed=5, jobs=2).as_dict() == fixed
    fresh = run_monte_carlo(_basic_spec(N=800), ("pl", "cs"), reps=12, seed=5, jobs=1).as_dict()
    assert fresh["estimators"]["pl"]["n_converged"] == fixed["estimators"]["pl"]["n_converged"] == 12
    assert fresh["estimators"]["pl"]["mean"] != fixed["estimators"]["pl"]["mean"]


def _recording_pool(monkeypatch, cpus):
    """Put into ``simulate`` a stand-in for ``ProcessPoolExecutor`` that starts no process, runs
    in-process and records ``(max_workers, chunksize)``, and a machine of ``cpus`` CPUs, on all of which
    the process may run; ``None`` is a platform that reports neither its CPUs nor the process's affinity."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # imported where the pool starts
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    if cpus is None:
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return pools


def test_monte_carlo_never_asks_for_more_workers_than_replicates(monkeypatch):
    spec = _basic_spec(N=400)
    want = run_monte_carlo(spec, ("pl",), reps=3, seed=5, jobs=1).as_dict()
    pools = _recording_pool(monkeypatch, cpus=8)
    for jobs in (5000, 2):
        assert run_monte_carlo(spec, ("pl",), reps=3, seed=5, jobs=jobs).as_dict() == want
    assert [workers for workers, _ in pools] == [3, 2]


@pytest.mark.parametrize("cpus, want", [(2, [(2, 2)]), (None, [])])
def test_monte_carlo_starts_at_most_one_worker_per_cpu(monkeypatch, cpus, want):
    # 40 replicates at --jobs 5000: two workers with chunks of 40 // (8 * 2) on 2 CPUs, and the
    # serial loop when the CPU count is unknown.
    spec = _basic_spec(N=400)
    serial = run_monte_carlo(spec, ("pl",), reps=40, seed=5, jobs=1).as_dict()
    pools = _recording_pool(monkeypatch, cpus)
    assert run_monte_carlo(spec, ("pl",), reps=40, seed=5, jobs=5000).as_dict() == serial
    assert pools == want


def test_monte_carlo_starts_no_more_workers_than_the_cpus_the_process_may_run_on(monkeypatch):
    # Under taskset or a cpuset, os.cpu_count() still counts every CPU of the machine.
    spec = _basic_spec(N=400)
    serial = run_monte_carlo(spec, ("pl",), reps=12, seed=5, jobs=1).as_dict()
    pools = _recording_pool(monkeypatch, cpus=8)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_monte_carlo(spec, ("pl",), reps=12, seed=5, jobs=2).as_dict() == serial
    assert pools == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_monte_carlo_rejects_fewer_than_one_job(jobs):
    with pytest.raises(DataError, match=f"jobs must be at least 1, got {jobs}"):
        run_monte_carlo(_basic_spec(N=400), ("pl",), reps=3, seed=5, jobs=jobs)


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
    # Two identical constraints would give a singular H1 in the sandwich; the rank
    # check rejects them, and the batch must finish and count every such fit as failed.
    duplicate = {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                 "group_value": 1.0, "gamma": 0.6112839324775846}
    spec = _basic_spec(N=4000, constraints=(duplicate, duplicate))
    summary = run_monte_carlo(spec, ("pl", "cs", "ce"), reps=4, seed=5)
    assert summary.estimators["pl"].n_converged == 4
    for name in ("cs", "ce"):
        s = summary.estimators[name]
        assert s.n_converged == 0 and s.n_failed == 4
        assert all(f.startswith("DataError: build_constraint_matrix: constraints #0 v=1|y, #1 v=1|y are "
                                "linearly dependent") for f in s.failures)


def test_an_empty_estimator_list_is_rejected():
    with pytest.raises(DataError, match="run_monte_carlo: estimators must name at least one estimator"):
        run_monte_carlo(_basic_spec(N=200), (), reps=1, seed=1)


def test_unknown_estimator_rejected():
    with pytest.raises(DataError, match="unknown estimator"):
        run_monte_carlo(_basic_spec(N=200), ("cs", "mle"), reps=1, seed=1)


def test_unknown_estimator_message_names_the_choices():
    with pytest.raises(DataError) as err:
        run_monte_carlo(_basic_spec(N=200), ("cs", "mle"), reps=1, seed=1)
    assert str(err.value) == f"run_monte_carlo: unknown estimator 'mle'; expected one of {ESTIMATORS}"


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
