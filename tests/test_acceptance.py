"""Acceptance gate: the eleven headline guarantees, one visible line each.

Every test prints exactly one ``ACCEPTANCE nn PASS/FAIL`` line outside
pytest capture and then asserts, so the gate status is readable straight
from the run log.
"""

import os
import time

import numpy as np
from conftest import d9_spec
from oracles import (
    bisect_scalar_dual,
    dual_minimize_kappa,
    ce_sandwich,
    cs_sandwich,
    expanded_meat,
    logit_psi,
    logit_psi_prime,
    loop_ce_components,
    loop_cs_components,
)
from scipy.special import expit, logit

from elsurvey.data import (
    ConstraintEntry,
    ConstraintSpec,
    build_constraint_matrix,
    make_dataset,
)
from elsurvey.elcore import solve_el
from elsurvey.errors import InfeasibleError
from elsurvey.estimators import fit_ce, fit_cs, fit_pl
from elsurvey.glm import ModelSpec, design_matrix, irls_fit, score, score_jacobian
from elsurvey.simulate import (
    CovariateSpec,
    DesignSpec,
    draw_sample,
    gen_population,
    population_constraint_spec,
    run_monte_carlo,
)
from elsurvey.variance import (
    assemble_covariance,
    components_from_arrays,
    covariance_components,
)
from elsurvey.visibility import VisibilityModel, estimate_visibility, visibility_from_pi

NO_CONSTRAINTS = ConstraintSpec(entries=())
MC_JOBS = min(4, os.cpu_count() or 1)


def _report(capsys, num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {status}: {desc}{suffix}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}{suffix}"


def _random_logistic_columns(rng, n):
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(-0.2 + 0.8 * x)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return {"y": y, "x": x}


def _d67_spec(N):
    return DesignSpec(
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
        fit_terms=("x",),
        estimand=(-0.17948213, 0.71461978),
        constraints=(
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 0.0, "gamma": 0.30617885832653025},
            {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
             "group_value": 1.0, "gamma": 0.6112839324775846},
        ),
        visibility={"mode": "given-pi"},
    )


def _d8_spec(N):
    base = _d67_spec(N)
    return DesignSpec(
        N=N, family=base.family, theta0=base.theta0, covariates=base.covariates,
        design={"kind": "poisson", "lo": 0.1, "hi": 0.9, "const": -1.2,
                "coeffs": {"v": 1.2}, "response_coef": 1.8},
        terms=base.terms, fit_terms=base.fit_terms, estimand=base.estimand,
        constraints=base.constraints, visibility=base.visibility,
    )


def test_criterion_01_unconstrained_composite_weights_closed_form(capsys):
    rng = np.random.default_rng(101)
    model = ModelSpec("bernoulli-logit", ())
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        cols = _random_logistic_columns(rng, n)
        cols["w"] = rng.uniform(0.5, 2.0, size=n)
        data = make_dataset(cols, {"response": "y", "weight": "w", "weight_mode": "direct"})
        bp = rng.uniform(0.05, 0.9, size=n)
        vis = VisibilityModel(mode="given-pi", bp=bp, alpha=np.zeros(0))
        res = fit_ce(data, model, NO_CONSTRAINTS, vis)
        closed = (1.0 / bp) / np.sum(1.0 / bp)
        worst = max(worst, float(np.max(np.abs(res.weights - closed))))
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "q=0 composite weights equal inverse-visibility shares (100 instances)",
            worst < 1e-12 and elapsed < 1.0, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_transformed_path_matches_direct_dual(capsys):
    rng = np.random.default_rng(202)
    model = ModelSpec("bernoulli-logit", ("x",))
    t0 = time.perf_counter()
    worst_w, worst_k = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        q = int(rng.integers(1, 4))
        cols = _random_logistic_columns(rng, n)
        cols["w"] = rng.uniform(0.5, 2.0, size=n)
        for j in range(q):
            cols[f"c{j}"] = rng.normal(size=n)
        data = make_dataset(cols, {"response": "y", "covariates": ["x"],
                                   "weight": "w", "weight_mode": "direct"})
        entries = tuple(
            ConstraintEntry(kind="general-moment", target_column=f"c{j}",
                            gamma=float(data.d @ cols[f"c{j}"]))
            for j in range(q))
        spec = ConstraintSpec(entries=entries)
        bp = rng.uniform(0.1, 0.9, size=n)
        vis = VisibilityModel(mode="given-pi", bp=bp, alpha=np.zeros(0))
        res = fit_ce(data, model, spec, vis)
        H = build_constraint_matrix(data, spec).H
        direct = dual_minimize_kappa(H, bp)
        worst_w = max(worst_w, float(np.max(np.abs(res.weights - direct.w))))
        worst_k = max(worst_k, float(np.max(np.abs(res.multiplier - direct.multiplier))))
    elapsed = time.perf_counter() - t0
    _report(capsys, 2, "transformed composite solve equals direct visibility-tilted dual (100 instances)",
            worst_w < 1e-8 and worst_k < 1e-8 and elapsed < 30.0,
            f"max weight err {worst_w:.2e}, max multiplier err {worst_k:.2e}, {elapsed:.1f}s")


def test_criterion_03_estimators_collapse_when_features_are_absent(capsys):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    model = ModelSpec("bernoulli-logit", ("x",))
    # (a) no constraints: the constrained fit is exactly the weighted fit.
    cols = _random_logistic_columns(rng, 400)
    cols["pi"] = 0.1 + 0.5 * expit(0.8 * cols["y"] + 0.3 * cols["x"])
    data = make_dataset(cols, {"response": "y", "covariates": ["x"], "pi": "pi"})
    pl = fit_pl(data, model)
    cs = fit_cs(data, model, NO_CONSTRAINTS)
    exact = (np.array_equal(cs.theta, pl.theta) and np.array_equal(cs.se, pl.se)
             and np.array_equal(cs.weights, pl.weights))
    # (b) constant visibility + uniform design weights: composite equals
    # constrained design-weighted.
    cols2 = _random_logistic_columns(rng, 300)
    data2 = make_dataset(cols2, {"response": "y", "covariates": ["x"]})
    spec = ConstraintSpec(entries=(ConstraintEntry(
        kind="general-moment", target_column="x",
        gamma=float(data2.d @ cols2["x"]) + 0.02),))
    vis = VisibilityModel(mode="given-pi", bp=np.full(300, 0.37), alpha=np.zeros(0))
    cs2 = fit_cs(data2, model, spec)
    ce2 = fit_ce(data2, model, spec, vis)
    gap = float(np.max(np.abs(ce2.theta - cs2.theta)))
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, "q=0 collapses constrained fit to weighted fit; constant visibility collapses composite",
            exact and gap < 1e-10 and elapsed < 5.0, f"theta gap {gap:.2e}, {elapsed:.2f}s")


def test_criterion_04_visibility_scale_invariance(capsys):
    rng = np.random.default_rng(404)
    model = ModelSpec("bernoulli-logit", ("x",))
    n = 150
    cols = _random_logistic_columns(rng, n)
    cols["pi"] = 0.08 + 0.3 * expit(0.9 * cols["y"] + 0.2 * cols["x"])
    data = make_dataset(cols, {"response": "y", "covariates": ["x"], "pi": "pi"})
    spec = ConstraintSpec(entries=(ConstraintEntry(
        kind="general-moment", target_column="y",
        gamma=float(data.d @ cols["y"])),))
    bp = cols["pi"].copy()
    base = fit_ce(data, model, spec, VisibilityModel(mode="given-pi", bp=bp, alpha=np.zeros(0)))
    worst = 0.0
    for c in (0.1, 7.0):
        res = fit_ce(data, model, spec,
                     VisibilityModel(mode="given-pi", bp=c * bp, alpha=np.zeros(0)))
        for a, b in ((res.weights, base.weights), (res.theta, base.theta), (res.se, base.se)):
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    _report(capsys, 4, "composite fit invariant to rescaling the visibility (c in {0.1, 7})",
            worst < 1e-10, f"max relative change {worst:.2e}")


def test_criterion_05_scalar_solver_matches_bisection_and_flags_infeasibility(capsys):
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 61))
        col = rng.normal(size=n) + rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.05, 0.95)
        gamma = float(col.min() + t * (col.max() - col.min()))
        if not (col.min() < gamma < col.max()):
            gamma = float(col.mean())
        u = col - gamma
        sol = solve_el(u[:, None])
        _, w_oracle = bisect_scalar_dual(u)
        worst = max(worst, float(np.max(np.abs(sol.w - w_oracle))))
    raised = 0
    for k in range(40):
        n = int(rng.integers(3, 61))
        col = rng.normal(size=n)
        gamma = col.max() + 0.1 if k % 2 == 0 else col.min() - 0.1
        try:
            solve_el((col - gamma)[:, None])
        except InfeasibleError:
            raised += 1
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "scalar EL solve matches bisection (200 instances); off-hull targets always raise",
            worst < 1e-8 and raised == 40,
            f"max weight err {worst:.2e}, {raised}/40 raised, {elapsed:.2f}s")


def test_criterion_06_root_n_consistency_under_informative_sampling(capsys):
    t0 = time.perf_counter()
    rmse = {}
    for N in (2000, 8000, 32000):
        summary = run_monte_carlo(_d67_spec(N), ("cs", "ce"), reps=500,
                                  seed=11000 + N, jobs=MC_JOBS)
        for name in ("cs", "ce"):
            s = summary.estimators[name]
            assert s.n_failed <= 5
            rmse[(name, N)] = s.rmse
    ratios = []
    for name in ("cs", "ce"):
        for lo, hi in ((2000, 8000), (8000, 32000)):
            ratios.extend(rmse[(name, lo)] / rmse[(name, hi)])
    ratios = np.asarray(ratios)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(ratios >= 1.6) and np.all(ratios <= 2.6) and elapsed < 600.0)
    _report(capsys, 6, "RMSE shrinks ~2x per 4x population size for both constrained estimators",
            ok, f"ratios {np.round(ratios, 2).tolist()}, {elapsed:.0f}s")


def test_criterion_07_confidence_interval_coverage(capsys):
    t0 = time.perf_counter()
    summary = run_monte_carlo(_d67_spec(8000), ("cs", "ce"), reps=1000,
                              seed=7000, jobs=MC_JOBS)
    coverages = {}
    ok = True
    for name in ("cs", "ce"):
        s = summary.estimators[name]
        assert s.n_failed <= 10
        coverages[name] = np.round(s.coverage, 3).tolist()
        ok = ok and bool(np.all(s.coverage >= 0.93) and np.all(s.coverage <= 0.97))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _report(capsys, 7, "95% plug-in intervals cover at nominal rate (1000 replicates)",
            ok, f"coverage {coverages}, {elapsed:.0f}s")


def test_criterion_08_composite_no_less_precise_when_visibility_is_designed(capsys):
    t0 = time.perf_counter()
    spec = _d8_spec(2000)
    model = spec.model
    master = np.random.default_rng(77)
    seeds = master.integers(0, 2**62, size=(500, 2))
    min_eigs, traces, se_cs_all, se_ce_all = [], [], [], []
    for k in range(500):
        pop = gen_population(spec, int(seeds[k, 0]))
        constraints = population_constraint_spec(pop, spec)
        sample = draw_sample(pop, spec, int(seeds[k, 1]))
        vis = visibility_from_pi(sample)
        try:
            cs = fit_cs(sample, model, constraints)
            ce = fit_ce(sample, model, constraints, vis)
        except InfeasibleError:
            continue
        diff = cs.covariance - ce.covariance
        min_eigs.append(float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0]))
        traces.append(float(np.trace(ce.covariance)))
        se_cs_all.append(cs.se)
        se_ce_all.append(ce.se)
    p = len(model.terms) + 1
    mean_min_eig = float(np.mean(min_eigs))
    tol = -0.02 * float(np.mean(traces)) / p
    mean_se_cs = np.mean(se_cs_all, axis=0)
    mean_se_ce = np.mean(se_ce_all, axis=0)
    # The subgroup constraints pin response means by v, informing the
    # intercept of the marginal fit; that is the constrained coefficient.
    se_ok = bool(mean_se_ce[0] <= mean_se_cs[0])
    elapsed = time.perf_counter() - t0
    ok = len(min_eigs) >= 450 and mean_min_eig >= tol and se_ok and elapsed < 600.0
    _report(capsys, 8, "with designed visibility the composite fit is no less precise (500 replicates)",
            ok,
            f"mean min-eig {mean_min_eig:.2e} >= {tol:.2e}, "
            f"mean SE ce/cs {np.round(mean_se_ce / mean_se_cs, 4).tolist()}, {elapsed:.0f}s")


def test_criterion_09_subgroup_benchmarks_sharpen_constrained_coefficients(capsys):
    t0 = time.perf_counter()
    spec = d9_spec()
    rng = np.random.default_rng(424242)
    pop_seed, sample_seed = (int(s) for s in rng.integers(0, 2**62, size=2))
    pop = gen_population(spec, pop_seed)
    constraints = population_constraint_spec(pop, spec)
    sample = draw_sample(pop, spec, sample_seed)
    vis = estimate_visibility(sample, ["z"])
    model = spec.model
    pl = fit_pl(sample, model)
    cs = fit_cs(sample, model, constraints)
    ce = fit_ce(sample, model, constraints, vis)
    # Coefficients informed by the 14 cell benchmarks: intercept, z, ages.
    constrained = list(range(8))
    u_index = len(model.terms)  # last coefficient, the u slope
    reduction = 1.0 - ce.se[constrained] / cs.se[constrained]
    median_reduction = float(np.median(reduction))
    u_ratio = float(ce.se[u_index] / pl.se[u_index])
    elapsed = time.perf_counter() - t0
    ok = median_reduction >= 0.05 and u_ratio <= 1.02 and elapsed < 600.0
    _report(capsys, 9, "cell benchmarks cut constrained-coefficient SEs; free slope no worse than weighted fit",
            ok, f"median reduction {median_reduction:.1%}, free-slope SE ratio {u_ratio:.3f}, "
                f"n={sample.n}, {elapsed:.0f}s")


def test_criterion_10_covariance_components_match_hand_sums(capsys):
    y = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    g = np.array([1.0, 1.0, 0.0, 0.0])
    dw = np.array([0.25, 0.25, 0.3, 0.2])
    w = np.array([0.4, 0.3, 0.2, 0.1])
    bp = np.array([0.5, 0.25, 0.5, 0.2])
    data = make_dataset({"y": y, "x": x, "g": g, "dw": dw},
                        {"response": "y", "covariates": ["x"], "weight": "dw",
                         "weight_mode": "direct"})
    model = ModelSpec("bernoulli-logit", ("x",))
    theta = np.array([0.3, -0.5])
    H = np.column_stack([(y - 0.4) * (g == 1.0), x - 0.7])
    A = design_matrix(model, data)
    psi = logit_psi(theta, A, y)
    psi_prime = logit_psi_prime(theta, A)

    comps_cs = components_from_arrays(theta, w, data, model, H)
    oracle_cs = loop_cs_components(w, data.d, psi, psi_prime, H)
    G, Gs, K1, K2, H1, H2 = oracle_cs
    errs = [float(np.max(np.abs(got - want))) for got, want in
            zip((comps_cs.G, comps_cs.K1, comps_cs.H1, comps_cs.M),
                (G, K1, H1, expanded_meat(Gs, K1, K2, H1, H2)))]
    v_cs = assemble_covariance(comps_cs)
    errs.append(float(np.max(np.abs(v_cs - cs_sandwich(*oracle_cs)))))

    comps_ce = components_from_arrays(theta, w, data, model, H, bp=bp)
    oracle_ce = loop_ce_components(w, bp, psi, psi_prime, H)
    G, Gs, K2, H2 = oracle_ce
    errs.extend(float(np.max(np.abs(got - want))) for got, want in
                zip((comps_ce.G, comps_ce.K1, comps_ce.H1, comps_ce.M),
                    (G, K2, H2, expanded_meat(Gs, K2, K2, H2, H2))))
    v_ce = assemble_covariance(comps_ce)
    errs.append(float(np.max(np.abs(v_ce - ce_sandwich(*oracle_ce)))))
    plug_in_err = max(errs)

    # Factorization identity: the cs meat exceeds the ce meat M(A*) = G* - K2 H2^-1 K2' of the
    # same sums by an exact quadratic form in the tilt difference D = A* - A.
    rng = np.random.default_rng(88)
    n = 300
    cols = _random_logistic_columns(rng, n)
    cols["pi"] = 0.1 + 0.2 * (cols["y"] + 1.0) + 0.05 * (cols["x"] + 1.0)
    cols["pi"] = np.clip(cols["pi"], 0.05, 0.9)
    data2 = make_dataset(cols, {"response": "y", "covariates": ["x"], "pi": "pi"})
    spec2 = ConstraintSpec(entries=(ConstraintEntry(
        kind="general-moment", target_column="x",
        gamma=float(data2.d @ cols["x"])),))
    cs_fit = fit_cs(data2, model, spec2)
    comps = covariance_components(cs_fit, data2, model, spec2)
    A2 = design_matrix(model, data2)
    _, Gs, _, K2, _, H2 = loop_cs_components(cs_fit.weights, data2.d, logit_psi(cs_fit.theta, A2, data2.y),
                                             logit_psi_prime(cs_fit.theta, A2),
                                             build_constraint_matrix(data2, spec2).H)
    left = comps.M - (Gs - K2 @ np.linalg.solve(H2, K2.T))
    D = K2 @ np.linalg.inv(H2) - comps.K1 @ np.linalg.inv(comps.H1)
    right = D @ H2 @ D.T
    ident_err = float(np.max(np.abs(left - right)))
    ident_scale = max(1.0, float(np.max(np.abs(left))))

    ok = plug_in_err < 1e-12 and ident_err < 1e-10 * ident_scale
    _report(capsys, 10, "plug-in components equal hand-assembled sums; precision-gap factorization is exact",
            ok, f"component err {plug_in_err:.2e}, identity err {ident_err:.2e}")


def test_criterion_11_score_derivatives_and_closed_forms(capsys):
    rng = np.random.default_rng(1111)
    worst = 0.0
    for family in ("bernoulli-logit", "gaussian-identity", "gamma-inverse"):
        model = ModelSpec(family, ("x",))
        for _ in range(50):
            n = int(rng.integers(6, 40))
            x = rng.uniform(-0.5, 0.5, size=n)
            if family == "bernoulli-logit":
                y = rng.integers(0, 2, size=n).astype(float)
                if y.min() == y.max():
                    y[0] = 1.0 - y[0]
                theta = rng.normal(scale=0.5, size=2)
            elif family == "gaussian-identity":
                y = rng.normal(size=n)
                theta = rng.normal(scale=0.5, size=2)
            else:
                y = rng.gamma(2.0, 0.5, size=n) + 0.05
                theta = np.array([rng.uniform(0.8, 1.6), rng.uniform(-0.4, 0.4)])
            data = make_dataset({"y": y, "x": x}, {"response": "y", "covariates": ["x"]})
            w = rng.uniform(0.2, 1.0, size=n)
            w /= w.sum()
            J = score_jacobian(model, theta, data, w)
            step = 1e-5
            fd = np.empty_like(J)
            for k in range(2):
                ek = np.zeros(2)
                ek[k] = step
                fd[:, k] = (w @ score(model, theta + ek, data)
                            - w @ score(model, theta - ek, data)) / (2 * step)
            rel = float(np.max(np.abs(J - fd)) / max(float(np.max(np.abs(J))), 1e-8))
            worst = max(worst, rel)

    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    m = y.mean()
    theta_logit = irls_fit("bernoulli-logit", y, np.ones((8, 1)))
    logit_err = abs(float(theta_logit[0]) - float(logit(m)))
    yg = np.array([0.5, 1.5, 2.0, 4.0, 2.5])
    theta_gamma = irls_fit("gamma-inverse", yg, np.ones((5, 1)))
    gamma_err = abs(float(theta_gamma[0]) - 1.0 / yg.mean())
    cw = np.array([2.0, 1.0, 1.0, 3.0, 1.0])
    theta_gw = irls_fit("gamma-inverse", yg, np.ones((5, 1)), case_weights=cw)
    gamma_w_err = abs(float(theta_gw[0]) - cw.sum() / (cw @ yg))

    ok = worst < 1e-6 and logit_err < 1e-10 and gamma_err < 1e-10 and gamma_w_err < 1e-10
    _report(capsys, 11, "score Jacobians match finite differences; intercept-only fits hit closed forms",
            ok, f"max FD rel err {worst:.2e}, closed-form errs "
                f"{logit_err:.1e}/{gamma_err:.1e}/{gamma_w_err:.1e}")
