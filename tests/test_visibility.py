"""Conditional visibility: pass-through from known inclusion probabilities
and Gamma-regression estimation from design weights."""

import numpy as np
import pytest
from scipy.special import expit

from conftest import dataset_from
from elsurvey.data import ConstraintEntry, ConstraintSpec
from elsurvey.errors import DataError
from elsurvey.estimators import fit_ce
from elsurvey.glm import ModelSpec
from elsurvey.visibility import VisibilityModel, estimate_visibility, visibility_from_pi


# ---------------------------------------------------------------------------
# visibility_from_pi


def test_pass_through_copies_pi():
    data = dataset_from({"y": [1.0, 0.0], "pi": [0.1, 0.2]}, response="y", pi="pi")
    vis = visibility_from_pi(data)
    assert vis.mode == "given-pi"
    np.testing.assert_allclose(vis.bp, [0.1, 0.2], atol=0)


def test_pass_through_requires_tagged_pi():
    data = dataset_from({"y": [1.0, 0.0]}, response="y")
    with pytest.raises(DataError, match="probabilit"):
        visibility_from_pi(data)


def test_zero_pi_rejected_at_construction():
    with pytest.raises(DataError, match=r"probabilities in 'pi' must lie in \(0, 1\]"):
        dataset_from({"y": [1.0, 0.0], "pi": [0.1, 0.0]}, response="y", pi="pi")


def test_visibility_model_rejects_nonpositive_bp():
    with pytest.raises(DataError, match="positive"):
        VisibilityModel(mode="given-pi", bp=np.array([0.2, -0.1]), alpha=np.zeros(0))


def _ce_problem(pi_scale=1.0):
    rng = np.random.default_rng(99)
    n = 60
    x = rng.choice([-1.0, 0.0, 1.0], size=n)
    y = (rng.uniform(size=n) < expit(0.2 + 0.8 * x)).astype(float)
    pi = 0.04 + 0.1 * (x + 1.0)  # depends on x, stays inside (0, 1/5]
    data = dataset_from(
        {"y": y, "x": x, "pi": pi_scale * pi}, response="y", covariates=("x",), pi="pi"
    )
    model = ModelSpec("bernoulli-logit", terms=("x",))
    gamma = float(y[x != 0].mean())
    constraints = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=gamma, group_column="x", group_value=1.0),
    ))
    return data, model, constraints


def test_ce_fit_invariant_to_pi_scale():
    base_data, model, constraints = _ce_problem(1.0)
    scaled_data, _, _ = _ce_problem(4.0)  # scaled pi stays <= 0.96
    base = fit_ce(base_data, model, constraints, visibility_from_pi(base_data))
    scaled = fit_ce(scaled_data, model, constraints, visibility_from_pi(scaled_data))
    np.testing.assert_allclose(scaled.weights, base.weights, atol=1e-10)
    np.testing.assert_allclose(scaled.theta, base.theta, atol=1e-10)
    np.testing.assert_allclose(scaled.se, base.se, rtol=1e-10)


# ---------------------------------------------------------------------------
# estimate_visibility


def test_constant_weights_give_constant_visibility():
    data = dataset_from({"y": [1.0, 0.0, 1.0, 0.0]}, response="y")
    vis = estimate_visibility(data, ())
    assert vis.mode == "gamma-regression"
    np.testing.assert_allclose(vis.bp, np.full(4, vis.bp[0]), rtol=1e-10)
    assert np.all(vis.bp > 0.0)


def test_two_group_formula_fits_reciprocal_group_means():
    g = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    w = np.array([2.0, 3.0, 4.0, 8.0, 10.0, 12.0])
    data = dataset_from({"y": np.zeros(6), "g": g, "w": w}, response="y", weight="w")
    vis = estimate_visibility(data, ["g"])
    # bp must be constant within group and inversely proportional to the
    # group means of the design weights (3 vs 10 before normalization).
    np.testing.assert_allclose(vis.bp[:3], vis.bp[0], rtol=1e-9)
    np.testing.assert_allclose(vis.bp[3:], vis.bp[3], rtol=1e-9)
    np.testing.assert_allclose(vis.bp[0] / vis.bp[3], 10.0 / 3.0, rtol=1e-8)


def test_missing_formula_column_rejected():
    data = dataset_from({"y": [1.0, 0.0, 1.0]}, response="y")
    with pytest.raises(DataError, match="'z'"):
        estimate_visibility(data, ["z"])


@pytest.mark.parametrize("columns, formula, message", [
    ({}, "q", "estimate_visibility: formula column 'q' is not present"),
    ({"z": [0.0, np.nan, 1.0, 1.0]}, "z", "estimate_visibility: formula column 'z' has non-finite values"),
], ids=["missing", "NaN"])
def test_a_missing_or_non_finite_formula_column_is_named(columns, formula, message):
    data = dataset_from({"y": [1.0, 0.0, 1.0, 0.0], **columns}, response="y")
    with pytest.raises(DataError) as info:
        estimate_visibility(data, [formula])
    assert str(info.value) == message


def test_raw_weight_scale_leaves_visibility_unchanged():
    rng = np.random.default_rng(3)
    w = rng.uniform(1.0, 5.0, size=30)
    g = (np.arange(30) % 2).astype(float)
    base = dataset_from({"y": np.zeros(30), "g": g, "w": w}, response="y", weight="w")
    scaled = dataset_from({"y": np.zeros(30), "g": g, "w": 7.0 * w}, response="y", weight="w")
    vb = estimate_visibility(base, ["g"])
    vs = estimate_visibility(scaled, ["g"])
    np.testing.assert_allclose(vs.bp, vb.bp, rtol=1e-10)


def test_family_size_adjustment_orders():
    nf = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    data = dataset_from(
        {"y": np.zeros(6), "w": 2.0 * nf, "nf": nf}, response="y", weight="w"
    )
    # Raw weight proportional to family size: dividing by nf makes the
    # adjusted response constant, so bp is proportional to 1/nf.
    vis = estimate_visibility(data, (), nf_adjust=True)
    np.testing.assert_allclose(vis.bp * nf, np.full(6, vis.bp[0] * nf[0]), rtol=1e-9)
    plain = estimate_visibility(data, ())
    assert not np.allclose(plain.bp / plain.bp[0], vis.bp / vis.bp[0])

    ones = dataset_from(
        {"y": np.zeros(4), "w": [1.0, 2.0, 3.0, 4.0], "nf": np.ones(4)},
        response="y", weight="w",
    )
    np.testing.assert_allclose(
        estimate_visibility(ones, (), nf_adjust=True).bp,
        estimate_visibility(ones, ()).bp, rtol=1e-12,
    )
    no_nf = dataset_from({"y": np.zeros(3), "w": [1.0, 2.0, 3.0]}, response="y", weight="w")
    with pytest.raises(DataError, match="nf"):
        estimate_visibility(no_nf, (), nf_adjust=True)


def test_a_missing_or_non_finite_family_size_is_named():
    columns = {"y": np.zeros(6), "w": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "nf": [1.0, 2.0, np.nan, 1.0, 3.0, 2.0]}
    with pytest.raises(DataError, match=r"^estimate_visibility: family size column 'nf' has non-finite values$"):
        estimate_visibility(dataset_from(columns, response="y", weight="w"), (), nf_adjust=True)
    del columns["nf"]
    with pytest.raises(DataError, match=r"^estimate_visibility: nf_adjust requires an 'nf' column \(see decluster\)$"):
        estimate_visibility(dataset_from(columns, response="y", weight="w"), (), nf_adjust=True)


def _cell_dataset(cell, pi):
    return dataset_from(
        {
            "y": np.zeros(cell.size),
            "z1": (cell == 1).astype(float),
            "z2": (cell == 2).astype(float),
            "w": 1.0 / pi,
        },
        response="y", weight="w",
    )


def test_visibility_recovery_on_synthetic_design():
    # True E[pi | cell] known by construction; estimate from sampled weights.
    rng = np.random.default_rng(515)
    N, rates = 40_000, np.array([0.06, 0.18, 0.36])
    cell = rng.integers(0, 3, size=N)
    noise = rng.uniform(0.5, 1.5, size=N)  # mean-one within-cell variation
    pi = rates[cell] * noise
    keep = rng.uniform(size=N) < pi  # roughly n = 5000 sampled units
    cell, pi = cell[keep], pi[keep]
    vis = estimate_visibility(_cell_dataset(cell, pi), ["z1", "z2"])
    truth = rates[cell]  # E[pi | cell], since the noise has mean one
    est = vis.bp * truth.mean() / vis.bp.mean()
    rel_rmse = np.sqrt(np.mean(((est - truth) / truth) ** 2))
    assert rel_rmse < 0.05


def test_visibility_estimate_concentrates_with_sample_size():
    # The estimation error of E[pi | cell] shrinks as the sample grows.
    rates = np.array([0.06, 0.18, 0.36])
    rng = np.random.default_rng(77)
    errs = []
    for N in (3_000, 30_000):
        cell = rng.integers(0, 3, size=N)
        noise = rng.uniform(0.5, 1.5, size=N)
        pi = rates[cell] * noise
        keep = rng.uniform(size=N) < pi
        cell, pi = cell[keep], pi[keep]
        vis = estimate_visibility(_cell_dataset(cell, pi), ["z1", "z2"])
        truth = rates[cell]
        est = vis.bp * truth.mean() / vis.bp.mean()
        errs.append(float(np.sqrt(np.mean(((est - truth) / truth) ** 2))))
    assert errs[1] < errs[0] / 1.5 and errs[1] < 0.025
