"""Plug-in component sums and sandwich covariance assembly."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from conftest import d9_spec, dataset_from, needs_wide_longdouble
from elsurvey.data import ConstraintEntry, ConstraintSpec, build_constraint_matrix
from elsurvey.estimators import ESTIMATORS, FitProblem, fit_ce, fit_cs, fit_pl
from elsurvey.glm import ModelSpec, design_matrix
from elsurvey.simulate import draw_sample, gen_population, population_constraint_spec
from elsurvey.variance import COND_WARN, _warn_cond, assemble_covariance, components_from_arrays
from elsurvey.visibility import VisibilityModel, estimate_visibility, visibility_from_pi
from oracles import (
    ce_sandwich,
    cs_sandwich,
    expanded_meat,
    informative_cells,
    logistic_fisher_inverse,
    longdouble_logit_sandwich,
    logit_psi,
    logit_psi_prime,
    loop_ce_components,
    loop_cs_components,
    plugin_component_limits,
    population_score_root,
)

MODEL_X = ModelSpec("bernoulli-logit", terms=("x",))


def _tiny_instance(p):
    """n=4 logistic rows with fixed weights, design weights, and visibility; for ``p = 3``, n=40
    random rows with two covariates and q=4 constraint columns."""
    if p == 3:
        return _random_instance(np.random.default_rng(4040), n=40, q=4)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    data = dataset_from({"y": y, "x": x, "g": [1.0, 1.0, 0.0, 0.0]},
                        response="y", covariates=("x",))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    d = np.array([0.25, 0.25, 0.3, 0.2])
    data = dataset_from(dict(data.columns, dw=d / d.sum()), response="y", weight="dw")
    bp = np.array([0.5, 0.25, 0.5, 0.2])
    if p == 1:
        model = ModelSpec("bernoulli-logit", terms=())
        theta = np.array([0.3])
        H = (y - 0.4)[:, None] * (data.columns["g"] == 1.0)[:, None]
    else:
        model = MODEL_X
        theta = np.array([0.3, -0.5])
        H = np.column_stack([
            (y - 0.4) * (data.columns["g"] == 1.0),
            (x - 0.7),
        ])
    return data, model, theta, w, bp, H


def _random_instance(rng, n, q):
    x1, x2 = rng.normal(size=n), rng.choice([0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.3 + 0.8 * x1 - 0.5 * x2)).astype(float)
    d = rng.uniform(0.5, 2.0, size=n)
    data = dataset_from({"y": y, "x1": x1, "x2": x2, "dw": d / d.sum()}, response="y", weight="dw")
    w = rng.uniform(0.5, 1.5, size=n)
    return (data, ModelSpec("bernoulli-logit", terms=("x1", "x2")), np.array([0.3, 0.8, -0.5]),
            w / w.sum(), rng.uniform(0.2, 0.9, size=n), rng.normal(size=(n, q)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_component_sums_match_hand_loops(p):
    data, model, theta, w, bp, H = _tiny_instance(p)
    A = design_matrix(model, data)
    psi = logit_psi(theta, A, data.y)
    psip = logit_psi_prime(theta, A)

    roman = components_from_arrays(theta, w, data, model, H)
    G, Gs, K1, K2, H1, H2 = loop_cs_components(w, data.d, psi, psip, H)
    np.testing.assert_allclose(roman.G, G, atol=1e-12)
    np.testing.assert_allclose(roman.K1, K1, atol=1e-12)
    np.testing.assert_allclose(roman.H1, H1, atol=1e-12)
    np.testing.assert_allclose(roman.M, expanded_meat(Gs, K1, K2, H1, H2), atol=1e-12)

    cal = components_from_arrays(theta, w, data, model, H, bp=bp)
    cG, cGs, cK2, cH2 = loop_ce_components(w, bp, psi, psip, H)
    np.testing.assert_allclose(cal.G, cG, atol=1e-12)
    np.testing.assert_allclose(cal.K1, cK2, atol=1e-12)
    np.testing.assert_allclose(cal.H1, cH2, atol=1e-12)
    np.testing.assert_allclose(cal.M, expanded_meat(cGs, cK2, cK2, cH2, cH2), atol=1e-12)

    # Sandwich assembly agrees with plain-inverse assembly of the expanded sums.
    np.testing.assert_allclose(assemble_covariance(roman),
                               cs_sandwich(G, Gs, K1, K2, H1, H2), atol=1e-12)
    np.testing.assert_allclose(assemble_covariance(cal),
                               ce_sandwich(cG, cGs, cK2, cH2), atol=1e-12)


def test_empty_constraints_reduce_to_plain_sandwich():
    # With no constraint columns the meat is the score Gram G* itself.
    data, model, theta, w, bp, _ = _tiny_instance(2)
    empty = np.empty((data.n, 0))
    A = design_matrix(model, data)
    psi, psip = logit_psi(theta, A, data.y), logit_psi_prime(theta, A)
    for comps, Gs in ((components_from_arrays(theta, w, data, model, empty),
                       loop_cs_components(w, data.d, psi, psip, empty)[1]),
                      (components_from_arrays(theta, w, data, model, empty, bp=bp),
                       loop_ce_components(w, bp, psi, psip, empty)[1])):
        assert comps.K1.shape == (2, 0) and comps.H1.shape == (0, 0)
        np.testing.assert_allclose(comps.M, Gs, atol=1e-14)
        Gi = np.linalg.inv(comps.G)
        np.testing.assert_allclose(assemble_covariance(comps), Gi @ comps.M @ Gi.T, atol=1e-14)


def _uniform_design_constant_visibility(n=90, c=0.37):
    rng = np.random.default_rng(4242)
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    data = dataset_from({"y": y, "x": x}, response="y", covariates=("x",))
    gamma = float(y[x == 1.0].mean())
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    vis = VisibilityModel(mode="given-pi", bp=np.full(n, c), alpha=np.zeros(0))
    return data, constraints, vis, c


def test_constant_weight_correspondence_between_component_sets():
    # Uniform d = 1/n and constant bp = c force the same weights on both estimators; the bread
    # and influence weights of the visibility rows are then s = n/c times the design rows', the
    # projection weights s/c times, and the two assembled sandwiches coincide.
    data, constraints, vis, c = _uniform_design_constant_visibility()
    cs = fit_cs(data, MODEL_X, constraints)
    ce = fit_ce(data, MODEL_X, constraints, vis)
    np.testing.assert_allclose(ce.weights, cs.weights, atol=1e-10)
    H = build_constraint_matrix(data, constraints).live
    roman = components_from_arrays(cs.theta, cs.weights, data, MODEL_X, H)
    cal = components_from_arrays(ce.theta, ce.weights, data, MODEL_X, H, bp=vis.bp)
    s = data.n / c
    np.testing.assert_allclose(cal.G, s * roman.G, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.K1, s / c * roman.K1, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.H1, s / c * roman.H1, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.M, s**2 * roman.M, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(ce.covariance, cs.covariance, rtol=1e-8, atol=1e-14)


def test_pl_covariance_tracks_inverse_fisher_information():
    rng = np.random.default_rng(909)
    n = 5000
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    data = dataset_from({"y": y, "x": x}, response="y", covariates=("x",))
    res = fit_pl(data, MODEL_X)
    fisher_inv = logistic_fisher_inverse(design_matrix(MODEL_X, data), res.theta)
    scale = np.sqrt(np.outer(np.diag(fisher_inv), np.diag(fisher_inv)))
    assert np.all(np.abs(res.covariance - fisher_inv) <= 0.15 * scale)


def test_cs_matches_simplified_form_when_weights_independent_of_model():
    # Inclusion probabilities driven by an independent coin: d carries no
    # information about (psi, h), which is the regime where the CS sandwich
    # collapses to the two-term simplified form.
    rng = np.random.default_rng(1234)
    n = 6000
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    pi = np.where(rng.uniform(size=n) < 0.5, 0.15, 0.45)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    gamma = float(np.average(y[x == 1.0], weights=(1.0 / pi)[x == 1.0]))
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    res = fit_cs(data, MODEL_X, constraints)
    H = build_constraint_matrix(data, constraints).live
    comps = components_from_arrays(res.theta, res.weights, data, MODEL_X, H)
    V_full = assemble_covariance(comps)
    _, Gs, _, K2, _, H2 = _loop_components(res, data, constraints)
    Gi = np.linalg.inv(comps.G)
    M = Gs - K2 @ np.linalg.solve(H2, K2.T)
    V_simplified = Gi @ M @ Gi.T
    err = np.linalg.norm(V_full - V_simplified) / np.linalg.norm(V_full)
    assert err < 0.05


def _loop_components(fit, data, constraints):
    """The oracle's six design-row sums at a fit of ``MODEL_X``."""
    A = design_matrix(MODEL_X, data)
    return loop_cs_components(fit.weights, data.d, logit_psi(fit.theta, A, data.y),
                              logit_psi_prime(fit.theta, A), build_constraint_matrix(data, constraints).H)


def test_shared_component_efficiency_identity():
    # With the component sums shared, the cs meat exceeds the ce meat M(A*) = G* - K2 H2^-1 K2' by
    # exactly D H2 D', D = A* - A; conjugated by the bread, this is the covariance gap.
    rng = np.random.default_rng(88)
    n = 300
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    pi = 0.1 + 0.2 * (y + 1.0) + 0.05 * (x + 1.0)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    d = data.d
    gamma = float(np.average(y[x == 1.0], weights=(1.0 / pi)[x == 1.0]))
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    res = fit_cs(data, MODEL_X, constraints)
    H = build_constraint_matrix(data, constraints).live
    comps = components_from_arrays(res.theta, res.weights, data, MODEL_X, H)
    _, Gs, _, K2, _, H2 = _loop_components(res, data, constraints)
    left = comps.M - (Gs - K2 @ np.linalg.solve(H2, K2.T))
    D = K2 @ np.linalg.inv(H2) - comps.K1 @ np.linalg.inv(comps.H1)
    right = D @ H2 @ D.T
    # Relative to G*, the size of the terms that cancel in ``left``.
    assert np.max(np.abs(left - right)) < 1e-10 * np.max(np.abs(Gs))


def test_covariances_symmetric_with_nonnegative_diagonal(rng):
    n = 120
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    pi = 0.1 + 0.25 * y + 0.05 * (x + 1.0)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    gamma = float(np.average(y[x == 1.0], weights=(1.0 / pi)[x == 1.0]))
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    fits = [
        fit_pl(data, MODEL_X),
        fit_cs(data, MODEL_X, constraints),
        fit_ce(data, MODEL_X, constraints, visibility_from_pi(data)),
    ]
    for res in fits:
        V = res.covariance
        assert np.max(np.abs(V - V.T)) < 1e-12
        assert np.all(np.diag(V) >= 0.0)
        np.testing.assert_allclose(res.se, np.sqrt(np.diag(V)), atol=0)


def test_unconverged_fit_has_no_covariance(rng):
    n = 40
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    data = dataset_from({"y": y, "x": x}, response="y", covariates=("x",))
    # A target off the sample mean moves the weights, so step 2 must leave the start, and at a cap of 0 it cannot.
    gamma = float(y[x == 1.0].mean()) + 0.05
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    res = fit_cs(data, MODEL_X, constraints, newton_max_iter=0)
    assert res.diagnostics["failure"].startswith("no convergence in 0 iterations")
    assert np.isnan(res.covariance).all() and np.isnan(res.se).all()


def test_components_of_every_fit_reproduce_its_covariance(rng):
    # All four estimators on one constrained problem.  pl uses no constraints, so its K and H
    # blocks have no columns.
    n = 120
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    pi = 0.1 + 0.25 * y + 0.05 * (x + 1.0)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=float(np.average(y[x == 1.0], weights=(1.0 / pi)[x == 1.0])),
                        group_column="x", group_value=1.0),
        ConstraintEntry("general-moment", "x", gamma=float(np.average(x, weights=1.0 / pi))),
    ))
    vis = visibility_from_pi(data)
    problem = FitProblem(data, MODEL_X, constraints, vis)
    for name in ESTIMATORS:
        fit = problem.fit(name)
        assert fit.diagnostics["converged"], name
        H = np.empty((n, 0)) if name == "pl" else problem.cm.live
        bp = None if fit.Bp_hat is None else vis.bp
        comps = components_from_arrays(fit.theta, fit.weights, data, MODEL_X, H, bp=bp)
        assert comps.H1.shape == ((0, 0) if name == "pl" else (2, 2)), name
        assert assemble_covariance(comps).tobytes() == fit.covariance.tobytes(), name


def test_near_singular_constraint_block_warns():
    # A second constraint column within 1e-7 of the first leaves H1 invertible but ill conditioned.
    data, model, theta, w, bp, H = _tiny_instance(3)
    H = np.column_stack([H[:, 0], H[:, 0] + 1e-7 * H[:, 1]])
    for rows_bp in (None, bp):
        with pytest.warns(UserWarning, match="H1 has condition number"):
            comps = components_from_arrays(theta, w, data, model, H, bp=rows_bp)
        assert np.linalg.cond(comps.H1) > 1e12 and np.all(np.isfinite(comps.M))


def test_component_sums_converge_to_population_limits():
    # Exact-enumeration limits of every normalized component sum under the
    # size-biased observed-data law, with constraint targets at the truth.
    theta0 = (-0.9, 0.8, 1.4)
    lo, hi, const, vcoef, ycoef = 0.3, 0.7, -0.6, 0.55, 1.0
    cells = informative_cells(lo, hi, const, vcoef, ycoef, theta0)
    theta_star = population_score_root(cells)
    gammas = {0.0: None, 1.0: None}
    for v in gammas:
        num = sum(p * c["y"] for p, c in cells if c["v"] == v)
        den = sum(p for p, c in cells if c["v"] == v)
        gammas[v] = num / den
    roman_t, cal_t = plugin_component_limits(cells, theta_star, gammas)

    rng = np.random.default_rng(321321)
    N = 43_000  # about n = 20000 observed units at these rates
    x = rng.choice([-1.0, 0.0, 1.0], size=N)
    v = (rng.uniform(size=N) < 0.5).astype(float)
    y = (rng.uniform(size=N) < expit(theta0[0] + theta0[1] * x + theta0[2] * v)).astype(float)
    pi = lo + (hi - lo) * expit(const + vcoef * v + ycoef * y)
    keep = rng.uniform(size=N) < pi
    data = dataset_from(
        {"y": y[keep], "x": x[keep], "v": v[keep], "pi": pi[keep]},
        response="y", covariates=("x",), pi="pi",
    )
    n = data.n
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gammas[0.0], group_column="v", group_value=0.0),
        ConstraintEntry("subgroup-moment", "y", gamma=gammas[1.0], group_column="v", group_value=1.0),
    ))
    cs = fit_cs(data, MODEL_X, constraints)
    vis = visibility_from_pi(data)
    ce = fit_ce(data, MODEL_X, constraints, vis)
    H = build_constraint_matrix(data, constraints).live
    roman = components_from_arrays(cs.theta, cs.weights, data, MODEL_X, H)
    cal = components_from_arrays(ce.theta, ce.weights, data, MODEL_X, H, bp=vis.bp)
    # The meat's limit is the expansion's, at the n^3 (design rows) or n (visibility rows) power of G*.
    limits = {
        "G": (roman, roman_t["G"]), "K1": (roman, roman_t["K1"]), "H1": (roman, roman_t["H1"]),
        "M": (roman, (3, expanded_meat(*(roman_t[k][1] for k in ("Gstar", "K1", "K2", "H1", "H2"))))),
        "calG": (cal, cal_t["calG"]), "calK1": (cal, cal_t["calK2"]), "calH1": (cal, cal_t["calH2"]),
        "calM": (cal, (1, expanded_meat(*(cal_t[k][1] for k in ("calGstar", "calK2", "calK2", "calH2", "calH2"))))),
    }
    for name, (comps, (power, target)) in limits.items():
        observed = getattr(comps, name.removeprefix("cal")) * float(n) ** power
        err = np.linalg.norm(observed - target) / np.linalg.norm(target)
        assert err < 0.05, f"{name}: relative error {err:.3f}"


@needs_wide_longdouble
def test_sandwich_ses_hold_to_a_longdouble_reference_with_fourteen_cell_benchmarks():
    # The d9 design (q = 14) of ACCEPTANCE 09.  Over 20 such samples the expanded meat
    # G* - A K2' - K2 A' + A H2 A' put up to 4.8e-13 relative error on an SE through cancellation,
    # above 1e-13 in 9 of the cs fits and 12 of the ce fits; the Gram of the influence rows stays
    # below 1.7e-14.
    spec = d9_spec()
    rng = np.random.default_rng(9)
    population = gen_population(spec, int(rng.integers(2**62)))
    constraints = population_constraint_spec(population, spec)
    for _ in range(5):
        sample = draw_sample(population, spec, int(rng.integers(2**62)))
        vis = estimate_visibility(sample, ["z"])
        A = design_matrix(spec.model, sample)
        H = build_constraint_matrix(sample, constraints).H
        for fit, rows in ((fit_cs(sample, spec.model, constraints), {"d": sample.d}),
                          (fit_ce(sample, spec.model, constraints, vis), {"bp": vis.bp})):
            se = np.sqrt(np.diag(longdouble_logit_sandwich(fit.theta, A, sample.y, fit.weights, H, **rows)))
            err = float(np.max(np.abs(fit.se - se) / se))
            assert err < 5e-14, (fit.estimator, err)


def test_the_sandwich_holds_at_most_seven_row_vectors_at_once():
    # At 256,000 rows one n-vector is 1.95 MiB.  The influence rows overwrite the score matrix, so
    # the traced peak is that of the bread's evaluation; one more n x p copy would add 3.9 MiB.
    n = 256_000
    rng = np.random.default_rng(5)
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(float)
    d = rng.uniform(0.5, 2.0, size=n)
    data = dataset_from({"y": y, "x": x, "dw": d / d.sum()}, response="y", weight="dw")
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    bp = rng.uniform(0.2, 0.9, size=n)
    H = np.asfortranarray(rng.normal(size=(n, 2)))
    A = design_matrix(MODEL_X, data)
    theta = np.array([0.3, 0.8])
    for form, rows_H, rows_bp in (("pl", np.empty((n, 0)), None), ("cs", H, None), ("ce", H, bp)):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            assemble_covariance(components_from_arrays(theta, w, data, MODEL_X, rows_H, bp=rows_bp, A=A))
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20, (form, peak / 2**20)


@pytest.mark.parametrize("M, warns", [
    (np.array([[2.0, 0.5], [0.5, 1.0]]), False),
    (np.diag([1.0, 1e-12 * (1.0 + 1e-6)]), False),
    (np.diag([1.0, 1e-12 * (1.0 - 1e-6)]), True),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), True),
    (np.zeros((2, 2)), True),
], ids=["well conditioned", "just below the bound", "just above the bound", "singular", "zero"])
def test_warn_cond_warns_exactly_when_numpys_condition_number_exceeds_the_bound(M, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _warn_cond(M, "M")
    assert (np.linalg.cond(M) > COND_WARN) == warns
    assert [str(w.message) for w in caught] == ["M has condition number above 1e+12"] * warns
