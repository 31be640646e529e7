"""Plug-in component sums and sandwich covariance assembly."""

import numpy as np
import pytest
from scipy.special import expit

from conftest import dataset_from
from elsurvey.data import ConstraintEntry, ConstraintSpec, build_constraint_matrix
from elsurvey.errors import DataError
from elsurvey.estimators import ESTIMATORS, FitProblem, fit_ce, fit_cs, fit_pl
from elsurvey.glm import ModelSpec, design_matrix
from elsurvey.variance import (
    CovarianceComponents,
    assemble_covariance,
    components_from_arrays,
    covariance_components,
    efficiency_gap,
)
from elsurvey.visibility import VisibilityModel, visibility_from_pi
from oracles import (
    ce_sandwich,
    cs_sandwich,
    informative_cells,
    logistic_fisher_inverse,
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
    np.testing.assert_allclose(roman.Gstar, Gs, atol=1e-12)
    np.testing.assert_allclose(roman.K1, K1, atol=1e-12)
    np.testing.assert_allclose(roman.K2, K2, atol=1e-12)
    np.testing.assert_allclose(roman.H1, H1, atol=1e-12)
    np.testing.assert_allclose(roman.H2, H2, atol=1e-12)

    cal = components_from_arrays(theta, w, data, model, H, bp=bp)
    cG, cGs, cK2, cH2 = loop_ce_components(w, bp, psi, psip, H)
    np.testing.assert_allclose(cal.G, cG, atol=1e-12)
    np.testing.assert_allclose(cal.Gstar, cGs, atol=1e-12)
    np.testing.assert_allclose(cal.K1, cK2, atol=1e-12)
    np.testing.assert_allclose(cal.K2, cK2, atol=1e-12)
    np.testing.assert_allclose(cal.H1, cH2, atol=1e-12)
    np.testing.assert_allclose(cal.H2, cH2, atol=1e-12)

    # Sandwich assembly agrees with plain-inverse assembly of the same sums.
    np.testing.assert_allclose(assemble_covariance(roman),
                               cs_sandwich(G, Gs, K1, K2, H1, H2), atol=1e-12)
    np.testing.assert_allclose(assemble_covariance(cal),
                               ce_sandwich(cG, cGs, cK2, cH2), atol=1e-12)


def test_empty_constraints_reduce_to_plain_sandwich():
    data, model, theta, w, bp, _ = _tiny_instance(2)
    empty = np.empty((data.n, 0))
    roman = components_from_arrays(theta, w, data, model, empty)
    V_cs = assemble_covariance(roman)
    V_pl = assemble_covariance(components_from_arrays(theta, w, data, model, empty))
    np.testing.assert_allclose(V_cs, V_pl, atol=0)
    Gi = np.linalg.inv(roman.G)
    np.testing.assert_allclose(V_pl, Gi @ roman.Gstar @ Gi.T, atol=1e-14)

    cal = components_from_arrays(theta, w, data, model, empty, bp=bp)
    V_ce = assemble_covariance(cal)
    cGi = np.linalg.inv(cal.G)
    np.testing.assert_allclose(V_ce, cGi @ cal.Gstar @ cGi.T, atol=1e-14)


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
    # Uniform d and constant bp force the same weights on both estimators;
    # the visibility sums then equal the design sums times (n/c) per weight
    # power, and the two assembled sandwiches coincide exactly.
    data, constraints, vis, c = _uniform_design_constant_visibility()
    cs = fit_cs(data, MODEL_X, constraints)
    ce = fit_ce(data, MODEL_X, constraints, vis)
    np.testing.assert_allclose(ce.weights, cs.weights, atol=1e-10)
    roman = covariance_components(cs, data, MODEL_X, constraints)
    cal = covariance_components(ce, data, MODEL_X, constraints, vis=vis)
    s = data.n / c
    np.testing.assert_allclose(cal.G, s * roman.G, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.Gstar, s**2 * roman.Gstar, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.K2, s**2 * roman.K2, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(cal.H2, s**2 * roman.H2, rtol=1e-9, atol=1e-14)
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
    comps = covariance_components(res, data, MODEL_X, constraints)
    V_full = assemble_covariance(comps)
    Gi = np.linalg.inv(comps.G)
    M = comps.Gstar - comps.K2 @ np.linalg.solve(comps.H2, comps.K2.T)
    V_simplified = Gi @ M @ Gi.T
    err = np.linalg.norm(V_full - V_simplified) / np.linalg.norm(V_full)
    assert err < 0.05


def test_shared_component_efficiency_identity():
    # With visibility equal to the inclusion probability and the component
    # matrices shared, the bread-conjugated covariance gap factors exactly.
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
    comps = covariance_components(res, data, MODEL_X, constraints)
    shared = CovarianceComponents(G=comps.G, Gstar=comps.Gstar, K1=comps.K2,
                                  K2=comps.K2, H1=comps.H2, H2=comps.H2)
    V_cs = assemble_covariance(comps)
    V_ce = assemble_covariance(shared)
    G, K1, K2, H1, H2 = comps.G, comps.K1, comps.K2, comps.H1, comps.H2
    left = G @ (V_cs - V_ce) @ G.T
    D = K2 @ np.linalg.inv(H2) - K1 @ np.linalg.inv(H1)
    right = D @ H2 @ D.T
    scale = max(1.0, np.max(np.abs(left)))
    assert np.max(np.abs(left - right)) < 1e-10 * scale


def test_efficiency_gap_identity_and_reporting():
    V = np.array([[2.0, 0.3], [0.3, 1.0]])
    gap = efficiency_gap(V, V)
    np.testing.assert_allclose(gap.gap, np.zeros((2, 2)), atol=0)
    assert gap.min_eigenvalue == 0.0
    # Mismatched visibility regime: gap is reported without a sign claim.
    other = efficiency_gap(V, V + np.diag([0.5, -0.5]))
    assert other.gap.shape == (2, 2)
    assert other.min_eigenvalue < 0.0 < np.linalg.eigvalsh(other.gap).max()
    with pytest.raises(DataError, match="shape"):
        efficiency_gap(V, np.eye(3))


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
    with pytest.raises(DataError, match="converge"):
        covariance_components(res, data, MODEL_X, constraints)


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
        comps = covariance_components(fit, data, MODEL_X, constraints, vis=vis)
        assert comps.H1.shape == ((0, 0) if name == "pl" else (2, 2)), name
        assert assemble_covariance(comps).tobytes() == fit.covariance.tobytes(), name


def test_near_singular_constraint_block_warns():
    eps = 1e-13
    comps = CovarianceComponents(
        G=-np.eye(2),
        Gstar=np.eye(2),
        K1=np.array([[0.1, 0.1], [0.0, 0.0]]),
        K2=np.array([[0.1, 0.1], [0.0, 0.0]]),
        H1=np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]]),
        H2=np.eye(2),
    )
    with pytest.warns(UserWarning, match="condition"):
        assemble_covariance(comps)


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
    roman = covariance_components(cs, data, MODEL_X, constraints)
    cal = covariance_components(ce, data, MODEL_X, constraints, vis=vis)
    for name, (power, target) in roman_t.items():
        observed = getattr(roman, name) * float(n) ** power
        err = np.linalg.norm(observed - target) / np.linalg.norm(target)
        assert err < 0.05, f"{name}: relative error {err:.3f}"
    for name, (power, target) in cal_t.items():
        observed = getattr(cal, name.removeprefix("cal")) * float(n) ** power
        err = np.linalg.norm(observed - target) / np.linalg.norm(target)
        assert err < 0.05, f"{name}: relative error {err:.3f}"
