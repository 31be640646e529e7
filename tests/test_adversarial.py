"""Adversarial inputs: every fit either converges with a usable covariance or is flagged.

Regression guards for the documented failure taxonomy on extreme but valid samples.  A converged
``pl``, ``cs`` or ``ce`` fit has a finite theta and a finite, symmetric covariance with a
nonnegative diagonal; a failed one has NaN theta and SE and names its failure.  An input that no
fit can use, such as a constant covariate beside the intercept, raises DataError, and ``elsurvey
fit`` exits 1 on it.
"""

import json

import numpy as np
import pytest
from scipy.special import expit

from conftest import dataset_from
from elsurvey.cli import run_command, write_dataset_csv
from elsurvey.data import ConstraintEntry, ConstraintSpec
from elsurvey.errors import DataError
from elsurvey.estimators import FitProblem
from elsurvey.glm import ModelSpec
from elsurvey.visibility import visibility_from_pi

MODEL_X = ModelSpec("bernoulli-logit", terms=("x",))


def _assert_converged_or_flagged(problem):
    for name in ("pl", "cs", "ce"):
        fit = problem.fit(name)
        if fit.diagnostics["converged"]:
            V = fit.covariance
            assert np.all(np.isfinite(fit.theta)) and np.all(np.isfinite(V)), name
            assert np.array_equal(V, V.T) and np.all(np.diag(V) >= 0.0), name
        else:
            assert np.all(np.isnan(fit.theta)) and np.all(np.isnan(fit.se)), name
            assert fit.diagnostics["failure"], name


def _logit_rows(n=400, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(-0.3 + 0.8 * x)).astype(float)
    return rng, x, y


@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8])
def test_every_fit_converges_or_is_flagged_at_a_design_weight_ratio_of(ratio):
    # Half the rows at pi = 1, half at pi = 1/ratio.  At 1e8 pl and cs converge, and the ce dual
    # stalls above el_tol = 1e-10 on its h/bp columns (about 1e8 in size) and is flagged.
    rng, x, y = _logit_rows()
    pi = np.where(rng.random(x.size) < 0.5, 1.0, 1.0 / ratio)
    data = dataset_from({"y": y, "x": x, "pi": pi}, response="y", covariates=("x",), pi="pi")
    constraints = ConstraintSpec((ConstraintEntry("general-moment", "y", gamma=0.45),
                                  ConstraintEntry("general-moment", "x", gamma=0.0)))
    _assert_converged_or_flagged(FitProblem(data, MODEL_X, constraints, visibility_from_pi(data)))


def test_every_fit_converges_or_is_flagged_with_one_row_more_than_constraints():
    # n = q + 1: the two constraints and the normalization leave the EL weights no freedom.
    data = dataset_from({"y": [0.0, 1.0, 0.0], "x": [-1.0, 0.5, 2.0], "z": [0.2, 0.9, 0.4],
                         "pi": [0.3, 0.5, 0.7]}, response="y", covariates=("x",), pi="pi")
    constraints = ConstraintSpec((ConstraintEntry("general-moment", "z", gamma=0.5),
                                  ConstraintEntry("general-moment", "y", gamma=0.4)))
    _assert_converged_or_flagged(FitProblem(data, MODEL_X, constraints, visibility_from_pi(data)))


def test_every_fit_converges_or_is_flagged_with_a_target_just_inside_the_hull():
    rng, x, y = _logit_rows()
    data = dataset_from({"y": y, "x": x, "pi": rng.uniform(0.2, 0.8, size=x.size)},
                        response="y", covariates=("x",), pi="pi")
    constraints = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=float(x.max()) - 1e-6),))
    _assert_converged_or_flagged(FitProblem(data, MODEL_X, constraints, visibility_from_pi(data)))


def test_a_constant_covariate_is_a_data_error_and_fit_exits_1(tmp_path, capsys):
    rng, x, y = _logit_rows()
    data = dataset_from({"y": y, "x": x, "c": np.full(x.size, 2.0), "pi": rng.uniform(0.2, 0.8, size=x.size)},
                        response="y", covariates=("x", "c"), pi="pi")
    model = ModelSpec("bernoulli-logit", terms=("x", "c"))
    constraints = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=0.0),))
    problem = FitProblem(data, model, constraints, visibility_from_pi(data))
    for name in ("pl", "cs", "ce"):
        with pytest.raises(DataError, match="rank deficient"):
            problem.fit(name)

    data_path, out = tmp_path / "sample.csv", tmp_path / "run"
    write_dataset_csv(str(data_path), data)
    cfg = {"data": {"path": str(data_path), "schema": {"response": "y", "covariates": ["x", "c"], "pi": "pi"}},
           "model": {"family": "bernoulli-logit", "terms": ["x", "c"]},
           "constraints": [{"kind": "general-moment", "target_column": "x", "gamma": 0.0}],
           "visibility": {"mode": "given-pi"}, "estimators": ["pl", "cs", "ce"], "output": {"path": str(out)}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert run_command(["fit", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "rank deficient" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()
