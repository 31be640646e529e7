"""End-to-end command-line interface tests: configs, artifacts, exit codes."""

import ast
import contextlib
import copy
import csv
import io
import json
import os
import re
import struct
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import SEPARATED_LOGIT, dataset_from, fresh_python, python_run
from oracles import json_text
from elsurvey.cli import OVERRIDES, _write_outputs, parse_config, run_command, write_dataset_csv
from elsurvey.data import ConstraintEntry, ConstraintSpec, build_constraint_matrix, load_dataset
from elsurvey.errors import ConfigError
from elsurvey.estimators import ESTIMATORS, EstimateResult, FitProblem
from elsurvey.glm import ModelSpec
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population
from elsurvey.visibility import VisibilitySpec

SCHEMA = {"response": "y", "covariates": ["x", "v"], "pi": "pi", "design": ["v"]}


def _informative_sample(tmp_path, N=6000, seed=404):
    spec = DesignSpec(
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
    pop = gen_population(spec, seed)
    sample = draw_sample(pop, spec, seed + 1)
    path = tmp_path / "sample.csv"
    write_dataset_csv(str(path), sample)
    gammas = {gv: float(pop.columns["y"][pop.columns["v"] == gv].mean()) for gv in (0.0, 1.0)}
    return path, sample, gammas


def _fit_config(data_path, out_path, gammas, **extra):
    cfg = {
        "data": {"path": str(data_path), "schema": SCHEMA},
        "model": {"family": "bernoulli-logit", "terms": ["x", "v"]},
        "constraints": [
            {"kind": "subgroup-moment", "target_column": "y",
             "group_column": "v", "group_value": gv, "gamma": g}
            for gv, g in sorted(gammas.items())
        ],
        "visibility": {"mode": "given-pi"},
        "estimators": ["pl", "cs", "ce"],
        "output": {"path": str(out_path)},
    }
    cfg.update(extra)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# Config validation


def test_parse_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="'estimater'"):
        parse_config({"estimater": ["pl"]})


def test_parse_config_rejects_unknown_nested_key():
    with pytest.raises(ConfigError, match=r"'famly'.*'model'"):
        parse_config({"model": {"family": "bernoulli-logit", "famly": 1}})
    with pytest.raises(ConfigError, match=r"constraints\[0\]"):
        parse_config({"constraints": [{"kind": "general-moment", "target_column": "y",
                                       "gamma": 0.1, "weight": 2}]})


def test_parse_config_requires_constraint_gamma():
    with pytest.raises(ConfigError, match="'gamma'"):
        parse_config({"constraints": [{"kind": "general-moment", "target_column": "y"}]})


def test_parse_config_validates_scalars():
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config({"seed": "7"})
    with pytest.raises(ConfigError, match="output.format"):
        parse_config({"output": {"format": "xml"}})
    assert parse_config({"seed": 7})["seed"] == 7


def test_parse_config_returns_each_section_built_once():
    cfg = parse_config({"model": {"family": "bernoulli-logit", "terms": ["x"]},
                        "constraints": [{"kind": "general-moment", "target_column": "y", "gamma": 0.5}],
                        "visibility": {"mode": "given-pi"}, "design": _mc_config(None, "out")["design"]})
    assert cfg["model"] == ModelSpec("bernoulli-logit", ("x",))
    assert cfg["constraints"] == ConstraintSpec((ConstraintEntry("general-moment", "y", 0.5),))
    assert cfg["visibility"] == VisibilitySpec("given-pi") and isinstance(cfg["design"], DesignSpec)


def test_parse_config_names_the_estimator_choices():
    with pytest.raises(ConfigError) as err:
        parse_config({"estimators": ["pl", "bogus"]})
    assert str(err.value) == f"parse_config: unknown estimator 'bogus'; expected one of {ESTIMATORS}"


def test_stochastic_commands_require_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"design": {
        "N": 50, "family": "bernoulli-logit", "theta0": [0.0, 0.5],
        "covariates": [{"name": "x", "dist": "normal", "params": [0.0, 1.0]}],
        "design": {"kind": "poisson", "lo": 0.2, "hi": 0.2},
    }})
    assert run_command(["simulate", "--config", cfg]) == 1
    assert "seed" in capsys.readouterr().err
    assert run_command(["mc", "--config", cfg, "--reps", "2"]) == 1
    assert "seed" in capsys.readouterr().err


def test_bad_config_path_and_bad_json_exit_1(tmp_path, capsys):
    assert run_command(["fit", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["fit", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit command


def test_fit_writes_artifacts_and_orders_standard_errors(tmp_path):
    data_path, sample, gammas = _informative_sample(tmp_path)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas)
    code = run_command(["fit", "--config", _write_config(tmp_path, cfg)])
    assert code == 0
    results = json.loads((out / "fit.json").read_text())
    assert set(results) == {"pl", "cs", "ce"}
    for name in ("pl", "cs", "ce"):
        payload = results[name]
        assert payload["diagnostics"]["converged"] is True
        assert len(payload["theta"]) == 3 and len(payload["se"]) == 3
    # Visibility equals the inclusion probability, so the composite fit
    # cannot be noticeably less precise than the design-weighted one.
    se_cs = np.asarray(results["cs"]["se"])
    se_ce = np.asarray(results["ce"]["se"])
    assert np.all(se_ce <= se_cs * 1.02)
    v_cs = np.asarray(results["cs"]["covariance"])
    v_ce = np.asarray(results["ce"]["covariance"])
    p = v_ce.shape[0]
    min_eig = float(np.linalg.eigvalsh((v_cs - v_ce + (v_cs - v_ce).T) / 2.0)[0])
    assert min_eig >= -0.02 * float(np.trace(v_ce)) / p

    lines = (out / "fit.csv").read_text().strip().splitlines()
    assert lines[0] == "estimator,coefficient,estimate,se"
    assert len(lines) == 1 + 3 * 3

    # Exact round-trip: the reported weights reproduce the reported
    # constraint residuals when recomputed from the raw data.
    reloaded = load_dataset(str(data_path), SCHEMA)
    spec = ConstraintSpec(entries=tuple(
        ConstraintEntry(kind="subgroup-moment", target_column="y", gamma=g,
                        group_column="v", group_value=gv)
        for gv, g in sorted(gammas.items())))
    H = build_constraint_matrix(reloaded, spec).H
    with np.load(out / "fit_weights.npz", allow_pickle=False) as weights:
        for name in ("cs", "ce"):
            w = weights[name]
            residual = float(np.max(np.abs(w @ H)))
            assert abs(residual - results[name]["diagnostics"]["constraint_residual"]) < 1e-12
            assert residual < 1e-8


def test_fit_unknown_constraint_column_fails_before_fitting(tmp_path, capsys):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas)
    cfg["constraints"][0]["target_column"] = "zz"
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    assert "'zz'" in capsys.readouterr().err
    assert not (out / "fit.json").exists()


def test_fit_infeasible_constraint_exits_2_with_partial_results(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    bad = dict(gammas)
    bad[1.0] = 1.05  # above every response value: no weights can satisfy it
    cfg = _fit_config(data_path, out, bad)
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    results = json.loads((out / "fit.json").read_text())
    assert results["pl"]["diagnostics"]["converged"] is True
    cs = results["cs"]["diagnostics"]
    assert cs["converged"] is False and cs["failure"].startswith("InfeasibleError: ")
    assert results["cs"]["theta"] == [None] * 3 and cs["coef_names"] == ["intercept", "x", "v"]


def _fit_problem(cfg):
    """The :class:`FitProblem` that ``fit`` builds from ``cfg``."""
    parsed = parse_config(cfg)
    data = load_dataset(parsed["data"]["path"], parsed["data"]["schema"])
    return FitProblem(data, parsed["model"], parsed["constraints"], parsed["visibility"])


def test_fit_weights_npz_holds_each_estimators_weights_bitwise(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, visibility={"mode": "gamma-regression"}, estimators=list(ESTIMATORS))
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 0
    problem = _fit_problem(cfg)
    with np.load(out / "fit_weights.npz", allow_pickle=False) as stored:
        assert stored.files == list(ESTIMATORS)
        for name in ESTIMATORS:
            w = stored[name]
            assert w.dtype == np.float64 and w.shape == (problem.data.n,)
            np.testing.assert_array_equal(w.view(np.uint64), problem.fit(name).weights.view(np.uint64))


def test_fit_json_keeps_every_field_but_the_weights(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, estimators=list(ESTIMATORS))
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 0
    problem = _fit_problem(cfg)
    kept = [f.name for f in fields(EstimateResult) if f.name != "weights"]
    fits = json.loads((out / "fit.json").read_text())
    for name, entry in fits.items():
        assert list(entry) == kept
        full = json.loads(json_text(vars(problem.fit(name))))  # the entry with the weights, less them
        del full["weights"]
        assert entry == full
    expected = {name: {key: getattr(problem.fit(name), key) for key in kept} for name in ESTIMATORS}
    assert (out / "fit.json").read_text() == json_text(expected) + "\n"


def test_a_failed_weight_step_stores_nan_weights(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    bad = dict(gammas)
    bad[1.0] = 1.05  # above every response value: no weights can satisfy it
    assert run_command(["fit", "--config", _write_config(tmp_path, _fit_config(data_path, out, bad))]) == 2
    d = load_dataset(str(data_path), SCHEMA).d
    with np.load(out / "fit_weights.npz", allow_pickle=False) as stored:
        assert stored.files == ["pl", "cs", "ce"]
        np.testing.assert_array_equal(stored["pl"], d)
        for name in ("cs", "ce"):
            assert stored[name].shape == d.shape and np.isnan(stored[name]).all()


@pytest.mark.parametrize("fmt, written", [("csv", {"fit.csv"}), ("json", {"fit.json", "fit_weights.npz"}),
                                          ("both", {"fit.csv", "fit.json", "fit_weights.npz"})])
def test_fit_writes_the_weights_exactly_when_it_writes_fit_json(tmp_path, fmt, written):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, estimators=["pl"])
    cfg["output"]["format"] = fmt
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 0
    assert set(os.listdir(out)) == written


def test_fit_json_does_not_grow_with_the_sample(tmp_path):
    _, sample, gammas = _informative_sample(tmp_path, N=20000)
    assert sample.n >= 9000
    sizes = []
    for n in (900, 9000):
        data_path, out = tmp_path / f"rows{n}.csv", tmp_path / f"run{n}"
        write_dataset_csv(str(data_path), dataset_from({name: col[:n] for name, col in sample.columns.items()}))
        assert run_command(["fit", "--config", _write_config(tmp_path, _fit_config(data_path, out, gammas))]) == 0
        sizes.append((out / "fit.json").stat().st_size)
    assert abs(sizes[1] - sizes[0]) < 1000, sizes


def test_fit_unknown_estimator_fails_before_loading(tmp_path, capsys):
    cfg = _fit_config(tmp_path / "absent.csv", tmp_path / "run", {0.0: 0.3}, estimators=["pl", "bogus"])
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "'bogus'" in err and "absent.csv" not in err


def test_fit_singular_sandwich_is_flagged_not_raised(tmp_path, capsys):
    # Two identical constraints would leave the H1 block singular; the rank check of the
    # constraint matrix rejects them as an input error before any fit.
    spec = DesignSpec(
        N=4000, family="bernoulli-logit", theta0=(-0.9, 0.8, 1.4),
        covariates=(CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
                    CovariateSpec("v", "bernoulli", (0.5,))),
        design={"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                "coeffs": {"v": 0.55}, "response_coef": 1.0},
        terms=("x", "v"))
    data_path = tmp_path / "sample.csv"
    write_dataset_csv(str(data_path), draw_sample(gen_population(spec, 0), spec, 100))
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, {1.0: 0.6112839324775846})
    cfg["constraints"] *= 2
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    assert "constraints #0 v=1|y, #1 v=1|y are linearly dependent" in capsys.readouterr().err
    assert not out.exists()


def test_fit_ce_joint_uses_the_configured_newton_settings(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, estimators=["ce-joint"], solver={"newton_max_iter": 0})
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    diagnostics = json.loads((out / "fit.json").read_text())["ce-joint"]["diagnostics"]
    assert diagnostics["converged"] is False
    # The start is at its root after 0 steps; the ce step 2 under its own weights is not.
    assert diagnostics["failure"].startswith("ce fit failed: no convergence in 0 iterations ")


@pytest.mark.parametrize("case", SEPARATED_LOGIT)
def test_fit_on_a_separated_logit_sample_exits_2_and_writes_fit_json(tmp_path, case):
    data_path, out = tmp_path / "sample.csv", tmp_path / "run"
    write_dataset_csv(str(data_path), dataset_from(SEPARATED_LOGIT[case], response="y", pi="pi"))
    cfg = {"data": {"path": str(data_path), "schema": {"response": "y", "covariates": ["x"], "pi": "pi"}},
           "model": {"family": "bernoulli-logit", "terms": ["x"]},
           "estimators": list(ESTIMATORS), "output": {"path": str(out)}}
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    fits = json.loads((out / "fit.json").read_text())
    assert list(fits) == list(ESTIMATORS)
    for name, fit in fits.items():
        assert fit["diagnostics"]["converged"] is False and fit["theta"] == [None] * 2, name


TINY = "estimate_visibility: irls_fit: parameter norm exceeded 1e3"  # a visibility on a column v moves by 1e-5


def test_a_failed_visibility_regression_fails_only_the_fits_that_read_it(tmp_path):
    _, sample, gammas = _informative_sample(tmp_path, N=900)
    data_path, out = tmp_path / "tiny.csv", tmp_path / "run"
    write_dataset_csv(str(data_path), dataset_from(dict(sample.columns, tiny=1.0 + 1e-5 * sample.columns["v"])))
    cfg = _fit_config(data_path, out, gammas, visibility={"mode": "gamma-regression", "formula": ["tiny"]},
                      estimators=list(ESTIMATORS))
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    fits = json.loads((out / "fit.json").read_text())
    assert [fits[name]["diagnostics"]["converged"] for name in ESTIMATORS] == [True, True, False, False]
    assert fits["ce"]["diagnostics"]["failure"].startswith(f"ConvergenceError: {TINY}")
    assert fits["ce-joint"]["diagnostics"]["failure"].startswith(f"ce fit failed: ConvergenceError: {TINY}")


def test_mc_counts_the_fits_that_read_no_visibility_when_its_regression_fails(tmp_path):
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=4)
    cfg["design"]["covariates"].append({"name": "tiny", "dist": "map", "params": ["v", [0.0, 1.0], [1.0, 1.00001]]})
    cfg["design"]["visibility"] = {"mode": "gamma-regression", "formula": ["tiny"]}
    cfg["estimators"] = ["pl", "cs", "ce"]
    assert run_command(["mc", "--config", _write_config(tmp_path, cfg)]) == 2
    summary = json.loads((out / "mc.json").read_text())["estimators"]
    assert [summary[name]["n_converged"] for name in ("pl", "cs", "ce")] == [4, 4, 0]
    assert all(f.startswith(f"not converged: ConvergenceError: {TINY}") for f in summary["ce"]["failures"])


def test_fit_unknown_visibility_mode_exits_1(tmp_path, capsys):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    cfg = _fit_config(data_path, tmp_path / "run", gammas,
                      visibility={"mode": "oracle"})
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    assert "visibility" in capsys.readouterr().err


def test_fit_seed_flag_overrides_config(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, estimators=["pl"])
    path = _write_config(tmp_path, cfg)
    assert run_command(["fit", "--config", path, "--seed", "123"]) == 0
    assert (out / "fit.json").exists()


# ---------------------------------------------------------------------------
# simulate / mc / decluster commands


def _mc_config(tmp_path, out, reps=8):
    return {
        "design": {
            "N": 400,
            "family": "bernoulli-logit",
            "theta0": [-0.9, 0.8, 1.4],
            "covariates": [
                {"name": "x", "dist": "choice", "params": [[-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]]},
                {"name": "v", "dist": "bernoulli", "params": [0.5]},
            ],
            "design": {"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                       "coeffs": {"v": 0.55}, "response_coef": 1.0},
            "terms": ["x", "v"],
            "constraints": [
                {"kind": "subgroup-moment", "target_column": "y",
                 "group_column": "v", "group_value": 0.0},
                {"kind": "subgroup-moment", "target_column": "y",
                 "group_column": "v", "group_value": 1.0},
            ],
        },
        "estimators": ["pl", "cs"],
        "seed": 31,
        "reps": reps,
        "output": {"path": str(out)},
    }


def test_simulate_writes_population_and_sample(tmp_path):
    out = tmp_path / "sim"
    cfg = _mc_config(tmp_path, out)
    cfg.pop("reps")
    path = _write_config(tmp_path, cfg)
    assert run_command(["simulate", "--config", path]) == 0
    meta = json.loads((out / "sim.json").read_text())
    assert meta["population_rows"] == 400
    assert 0 < meta["sample_rows"] < 400
    assert len(meta["constraints"]) == 2
    pop = (out / "population.csv").read_text()
    assert pop.splitlines()[0].split(",")[:1] == ["x"]
    first = (out / "sample.csv").read_bytes()
    assert run_command(["simulate", "--config", path]) == 0
    assert (out / "sample.csv").read_bytes() == first


def test_mc_rejects_fewer_than_one_job(tmp_path, capsys):
    out = tmp_path / "run"
    path = _write_config(tmp_path, _mc_config(tmp_path, out))
    assert run_command(["mc", "--config", path, "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_mc_outputs_are_identical_across_worker_counts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path = _write_config(tmp_path, _mc_config(tmp_path, out1))
    assert run_command(["mc", "--config", path, "--jobs", "1"]) == 0
    assert run_command(["mc", "--config", path, "--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()
    assert (out1 / "mc.json").read_bytes() == (out2 / "mc.json").read_bytes()
    summary = json.loads((out1 / "mc.json").read_text())
    assert summary["reps"] == 8
    for name in ("pl", "cs"):
        s = summary["estimators"][name]
        assert s["n_converged"] + s["n_failed"] == 8
    header = (out1 / "mc.csv").read_text().splitlines()[0]
    assert header.startswith("estimator,coefficient,theta0,mean,bias,sd,rmse,mean_se,coverage")


def test_mc_reps_flag_overrides_config(tmp_path):
    out = tmp_path / "mc"
    path = _write_config(tmp_path, _mc_config(tmp_path, out, reps=999))
    assert run_command(["mc", "--config", path, "--reps", "3"]) == 0
    assert json.loads((out / "mc.json").read_text())["reps"] == 3


def test_decluster_command_keeps_one_row_per_family(tmp_path):
    src = tmp_path / "fam.csv"
    src.write_text(
        "y,x,fam,w\n"
        "1,0.1,7,1.0\n0,0.2,7,1.0\n1,0.3,7,1.0\n"
        "0,0.4,2,2.0\n"
        "1,0.5,5,0.5\n0,0.6,5,0.5\n")
    out = tmp_path / "dc"
    cfg = {"data": {"path": str(src),
                    "schema": {"response": "y", "covariates": ["x"], "family": "fam",
                               "weight": "w", "weight_mode": "direct"}},
           "seed": 12, "output": {"path": str(out)}}
    assert run_command(["decluster", "--config", _write_config(tmp_path, cfg)]) == 0
    lines = (out / "declustered.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + one survivor per family
    header = lines[0].split(",")
    nf_idx = header.index("nf")
    dw_idx = header.index("declustered_weight")
    fam_idx = header.index("fam")
    rows = [line.split(",") for line in lines[1:]]
    by_family = {float(r[fam_idx]): (float(r[nf_idx]), float(r[dw_idx])) for r in rows}
    assert by_family[7.0] == (3.0, 3.0)
    assert by_family[2.0] == (1.0, 2.0)
    assert by_family[5.0] == (2.0, 1.0)


# ---------------------------------------------------------------------------
# Every file the CLI reads or writes is UTF-8, whatever the locale

ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}  # open() defaults to ASCII


def test_decluster_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    (tmp_path / "fam.csv").write_text("y,âge,fam\n1,0.1,7\n0,0.2,7\n1,0.3,2\n", encoding="utf-8")
    schema = {"response": "y", "covariates": ["âge"], "family": "fam"}
    cfg = {"data": {"path": str(tmp_path / "fam.csv"), "schema": schema}, "seed": 12}
    path = _write_config(tmp_path, cfg)
    assert run_command(["decluster", "--config", path, "--out", str(tmp_path / "default")]) == 0
    proc = python_run("-m", "elsurvey", "decluster", "--config", path, "--out", str(tmp_path / "c"), **ASCII_LOCALE)
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "default" / "declustered.csv").read_bytes()
    assert written.startswith("y,âge,fam,".encode()) and (tmp_path / "c" / "declustered.csv").read_bytes() == written


def test_fit_of_a_config_naming_a_non_ascii_column_exits_0_under_an_ascii_locale(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    data_path.write_text(data_path.read_text().replace(",v,", ",vé,", 1), encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_fit_config(data_path, tmp_path, gammas), ensure_ascii=False).replace('"v"', '"vé"'),
                    encoding="utf-8")
    proc = python_run("-m", "elsurvey", "fit", "--config", str(path), **ASCII_LOCALE)
    assert proc.returncode == 0 and "pl,vé," in (tmp_path / "fit.csv").read_text(encoding="utf-8"), proc.stderr


def test_a_config_that_is_not_utf8_exits_1_naming_parse_config(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"data": {"path": "données.csv"}}'.encode("latin-1"))
    assert run_command(["fit", "--config", str(path)]) == 1
    assert f"parse_config: {str(path)!r} is not UTF-8" in capsys.readouterr().err
    proc = python_run("-m", "elsurvey", "fit", "--config", str(path), **ASCII_LOCALE)
    assert proc.returncode == 1 and "parse_config" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


# ---------------------------------------------------------------------------
# The CSV and JSON artifacts hold the same doubles


def _strict_json(path):
    """``json.load`` of ``path`` that rejects the ``NaN`` and ``Infinity`` tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{path} holds the token {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_same_double(value, cell, where):
    """A JSON number, read as a float (null for a non-finite one), and a CSV cell hold the same double."""
    if value is None:
        assert not np.isfinite(float(cell)), where
    else:
        assert type(value) is float and struct.pack("<d", value) == struct.pack("<d", float(cell)), (where, value)


def test_fit_and_mc_csvs_hold_the_doubles_of_their_json(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=3000)
    fit_out, mc_out = tmp_path / "fit", tmp_path / "mc"
    cfg = _fit_config(data_path, fit_out, gammas, estimators=list(ESTIMATORS),
                      visibility={"mode": "gamma-regression", "formula": ["v"]})
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 0
    mc_cfg = _write_config(tmp_path, _mc_config(tmp_path, mc_out, reps=3), "mc-config.json")
    assert run_command(["mc", "--config", mc_cfg]) == 0
    fits, rows = _strict_json(fit_out / "fit.json"), _csv_rows(fit_out / "fit.csv")
    assert len(rows) == len(ESTIMATORS) * 3
    for row in rows:
        fit = fits[row["estimator"]]
        k = fit["diagnostics"]["coef_names"].index(row["coefficient"])
        _assert_same_double(fit["theta"][k], row["estimate"], row)
        _assert_same_double(fit["se"][k], row["se"], row)
    summary, rows = _strict_json(mc_out / "mc.json"), _csv_rows(mc_out / "mc.csv")
    assert len(rows) == 2 * 3
    for row in rows:
        s, k = summary["estimators"][row["estimator"]], summary["coef_names"].index(row["coefficient"])
        _assert_same_double(summary["theta0"][k], row["theta0"], row)
        for key in ("mean", "bias", "sd", "rmse", "mean_se", "coverage"):  # a coverage of 1 is the float 1.0
            _assert_same_double(s[key][k], row[key], (row, key))
        assert (int(row["n_converged"]), int(row["n_failed"])) == (s["n_converged"], s["n_failed"])


def test_both_artifacts_keep_negative_zero_and_integral_floats(tmp_path):
    values = np.array([-0.0, 0.0, 1.0, -3.0, 2.0**53, 1e22, 0.1, 5e-324, np.nan, np.inf, -np.inf])
    _write_outputs({"output": {"path": str(tmp_path)}}, "t", {"v": values}, ["k", "v"], enumerate(values.tolist()))
    loaded, rows = json.loads((tmp_path / "t.json").read_text())["v"], _csv_rows(tmp_path / "t.csv")
    assert len(loaded) == len(rows) == values.size
    for value, row, want in zip(loaded, rows, values.tolist()):
        _assert_same_double(value, row["v"], want)
        _assert_same_double(value, repr(want), want)


# ---------------------------------------------------------------------------
# One set-up for fit and mc: config sections build the package's specs


@pytest.mark.parametrize("visibility", [{"mode": "given_pi"}, {"formula": ["v"]}])
def test_mc_rejects_a_bad_or_missing_visibility_mode(tmp_path, capsys, visibility):
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"]["visibility"] = visibility
    cfg["estimators"] = ["ce"]
    assert run_command(["mc", "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "design" in err and ("visibility mode 'given_pi'" in err
                                or "VisibilitySpec.__init__() missing 1 required positional argument: 'mode'" in err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "simulate"])
@pytest.mark.parametrize("section, value", [
    ("solver", {"newton_max_iter": 0}), ("data", {"path": "x.csv", "schema": {}}),
    ("model", {"family": "bernoulli-logit"}), ("visibility", {"mode": "given-pi"}),
    ("constraints", []),
])
def test_mc_and_simulate_reject_the_sections_only_fit_reads(tmp_path, capsys, command, section, value):
    out = tmp_path / "run"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg[section] = value
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert f"section {section!r} is read by fit only" in capsys.readouterr().err
    assert not out.exists()


def test_fit_gamma_regression_formula_defaults_to_the_design_role(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    outputs = []
    for k, visibility in enumerate([{"mode": "gamma-regression", "formula": SCHEMA["design"]},
                                    {"mode": "gamma-regression"}]):
        out = tmp_path / f"run{k}"
        cfg = _fit_config(data_path, out, gammas, visibility=visibility, estimators=["ce", "ce-joint"])
        assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("fit.json", "fit.csv")])
    assert outputs[0] == outputs[1]
    fits = json.loads(outputs[0][0])
    assert fits["ce"]["diagnostics"]["visibility_mode"] == "gamma-regression"
    # ce-joint is the ce fit under its own name.
    assert fits["ce-joint"].pop("estimator") == "ce-joint" and fits["ce"].pop("estimator") == "ce"
    assert fits["ce-joint"] == fits["ce"]


@pytest.mark.parametrize("section, key, value, message", [
    ("constraints", "gamma", "abc", "section 'constraints[0]'"),
    ("solver", "el_tol", "a", "FitProblem: el_tol must be a finite number, got 'a'"),
    ("solver", "newton_max_iter", 2.5, "FitProblem: newton_max_iter must be an integer of at least 0, got 2.5"),
    ("solver", "el_tol", float("inf"), "FitProblem: el_tol must be a finite number, got inf"),  # JSON's Infinity
    ("model", "terms", "xv", "section 'model': ModelSpec: terms must be a list"),
    ("visibility", "formula", "v", "section 'visibility': visibility formula must be a list"),
    ("model", "intercept", "false", "section 'model': ModelSpec: intercept must be true or false, got 'false'"),
    ("visibility", "nf_adjust", "false", "section 'visibility': VisibilitySpec: nf_adjust must be true or false"),
])
def test_fit_rejects_wrong_typed_values_before_fitting(tmp_path, capsys, section, key, value, message):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, solver={}, visibility={"mode": "gamma-regression"})
    (cfg[section][0] if section == "constraints" else cfg[section])[key] = value
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "mc", "decluster"])
@pytest.mark.parametrize("spelling", ["config", "flag"])
def test_a_negative_seed_exits_1(tmp_path, capsys, command, spelling):
    out = tmp_path / "run"
    if command == "decluster":
        src = tmp_path / "fam.csv"
        src.write_text("y,fam\n1,7\n0,7\n1,2\n")
        cfg = {"data": {"path": str(src), "schema": {"response": "y", "family": "fam"}}, "seed": 12,
               "output": {"path": str(out)}}
    else:
        cfg = _mc_config(tmp_path, out, reps=2)
    argv = [command, "--config"]
    if spelling == "config":
        cfg["seed"] = -1
    else:
        argv = [command, "--seed", "-1", "--config"]
    assert run_command(argv + [_write_config(tmp_path, cfg)]) == 1
    assert f"run {command}: 'seed' must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"kind": "general-moment", "target_column": "zz"},
    {"kind": "subgroup-moment", "target_column": "y", "group_column": "zz", "group_value": 1.0},
], ids=["target_column", "group_column"])
def test_a_design_constraint_on_a_missing_column_exits_1_before_any_replicate(tmp_path, capsys, entry):
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=3)
    cfg["design"]["constraints"].append(entry)
    path = _write_config(tmp_path, cfg)
    message = "DesignSpec: constraints[2] column 'zz' is not a column generated before it is read (x, v, y, pi)"
    for command in ("mc", "simulate"):
        assert run_command([command, "--config", path]) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_gamma_less_design_constraint_reads_a_string_group_value_as_its_number(tmp_path):
    # The population's group column is compared with the checked value 1.0, not with the string "1",
    # which matches no row and so failed every replicate of every estimator.
    runs = {}
    for name, value in (("number", 1.0), ("string", "1")):
        cfg = _mc_config(tmp_path, tmp_path / name, reps=3)
        cfg["design"]["constraints"][1]["group_value"] = value
        assert run_command(["mc", "--config", _write_config(tmp_path, cfg, f"{name}.json")]) == 0
        runs[name] = (tmp_path / name / "mc.json").read_bytes()
    assert runs["string"] == runs["number"]


@pytest.mark.parametrize("command", ["mc", "simulate"])
@pytest.mark.parametrize("key, value, message", [
    ("constraints", ["abc"], "section 'design.constraints[0]' must be an object"),
    ("constraints", [["a"]], "section 'design.constraints[0]' must be an object"),
    ("constraints", [[["kind", "general-moment"], ["target_column", "y"]]],
     "section 'design.constraints[0]' must be an object"),
    ("dummies", ["x"], "DesignSpec: dummies must map column names to lists of values, got ['x']"),
], ids=["string entry", "list entry", "key-value pairs", "dummies list"])
def test_a_design_entry_that_is_not_an_object_exits_1_naming_it(tmp_path, capsys, command, key, value, message):
    out = tmp_path / "run"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"][key] = value
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "mc"])
def test_a_general_moment_with_a_group_field_exits_1_naming_it_before_any_data_or_replicate(tmp_path, capsys,
                                                                                           command):
    # A general moment has no subgroup, so a group field given with one is a config error, not a field to drop.
    out = tmp_path / "run"
    entry = {"kind": "general-moment", "target_column": "x", "gamma": 0.0, "group_column": "zz", "group_value": "abc"}
    if command == "fit":
        cfg = _fit_config(tmp_path / "absent.csv", out, {0.0: 0.3})
        cfg["constraints"].append(entry)
        where = "section 'constraints[1]'"
    else:
        cfg = _mc_config(tmp_path, out, reps=2)
        cfg["design"]["constraints"].append(entry)
        where = "section 'design': section 'design.constraints[2]'"
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert (f"parse_config: {where}: constraint on 'x': a general-moment takes no group_column or group_value, "
            f"got 'zz' and 'abc'") in err
    assert "absent.csv" not in err
    assert not out.exists()


def test_a_rejected_design_constraint_is_named_by_its_place_not_only_by_its_column(tmp_path, capsys):
    # Both design constraints are on y; the message must tell which of them holds the bad value.
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"]["constraints"][1]["group_value"] = "abc"
    assert run_command(["mc", "--config", _write_config(tmp_path, cfg)]) == 1
    assert ("parse_config: section 'design': section 'design.constraints[1]': constraint on 'y': "
            "group_value must be a finite number, got 'abc'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "mc", "simulate", "decluster"])
def test_an_empty_out_flag_exits_1_before_any_data_or_replicate(tmp_path, capsys, command):
    # --out replaces output.path before the config is checked, so "" is rejected as the config's own "" is.
    if command in ("fit", "decluster"):
        cfg = _fit_config(tmp_path / "absent.csv", tmp_path / "run", {0.0: 0.3})
        if command == "decluster":
            cfg = {"data": cfg["data"], "seed": 3}
    else:
        cfg = _mc_config(tmp_path, tmp_path / "run", reps=2)
    assert run_command([command, "--config", _write_config(tmp_path, cfg), "--out", ""]) == 1
    err = capsys.readouterr().err
    assert "parse_config: output.path must be a directory name, got ''" in err
    assert "absent.csv" not in err and "load_dataset" not in err


@pytest.mark.parametrize("command", ["fit", "mc"])
def test_an_empty_estimator_list_exits_1_before_any_data_or_replicate(tmp_path, capsys, command):
    out = tmp_path / "run"
    if command == "fit":
        cfg = _fit_config(tmp_path / "absent.csv", out, {0.0: 0.3}, estimators=[])
    else:
        cfg = dict(_mc_config(tmp_path, out, reps=2), estimators=[])
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "parse_config: 'estimators' must be a non-empty list of names, got []" in err
    assert "absent.csv" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "mc", "simulate"])
@pytest.mark.parametrize("path", [5, None, ["a"], True, ""], ids=["number", "null", "list", "true", "empty"])
def test_an_output_path_that_is_not_a_non_empty_string_exits_1_before_any_data_or_replicate(tmp_path, capsys,
                                                                                           command, path):
    # Run without --out, which would replace the value.
    if command == "fit":
        cfg = _fit_config(tmp_path / "absent.csv", tmp_path / "run", {0.0: 0.3})
    else:
        cfg = _mc_config(tmp_path, tmp_path / "run", reps=2)
    cfg["output"]["path"] = path
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert f"parse_config: output.path must be a directory name, got {path!r}" in err
    assert "absent.csv" not in err


@pytest.mark.parametrize("command, section, key, message", [
    ("fit", "model", "terms", "section 'model': ModelSpec: terms must be a list of column names, got the element ['x']"),
    ("fit", "visibility", "formula", "section 'visibility': visibility formula must be a list of column names"),
    ("fit", "schema", "covariates", "dataset roles: role 'covariates' must be a list of column names"),
    ("mc", "design", "terms", "section 'design': DesignSpec: terms must be a list of column names"),
    ("mc", "design", "fit_terms", "section 'design': DesignSpec: fit_terms must be a list of column names"),
])
def test_a_nested_list_of_column_names_exits_1(tmp_path, capsys, command, section, key, message):
    out = tmp_path / "run"
    if command == "fit":
        data_path, _, gammas = _informative_sample(tmp_path, N=900)
        cfg = _fit_config(data_path, out, gammas, visibility={"mode": "gamma-regression"})
        cfg["data"]["schema"] = dict(SCHEMA)
    else:
        cfg = _mc_config(tmp_path, out, reps=2)
    (cfg["data"]["schema"] if section == "schema" else cfg[section])[key] = [["x"], "v"]
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, key, value, message", [
    (("design",), "lo", "abc", "DesignSpec: design.lo must be a finite number, got 'abc'"),
    (("design",), "coeffs", ["a"], "DesignSpec: design.coeffs must map column names to numbers"),
    ((), "design", {"kind": "two-strata", "column": "v", "rates": "ab"},
     "DesignSpec: design.rates must be a list, got the string 'ab'"),
    (("covariates", 1), "params", ["a"], "CovariateSpec 'v': p must be a finite number, got 'a'"),
    (("covariates",), 1, {"name": "v", "dist": "normal", "params": [0.5]},
     "CovariateSpec 'v': normal needs params (mean, sd)"),
    (("covariates", 0), "params", [[-1.0, 0.0, 1.0], [0.5, 0.5]],
     "CovariateSpec 'x': choice probs must be a list of 3 numbers"),
    ((), "dummies", {"x": ["a"]}, "DesignSpec: dummies['x'] must be a finite number, got 'a'"),
    (("design",), "lo", -1.0, "DesignSpec: design.lo: a poisson design needs 0 < lo <= hi <= 1, got (-1.0, 0.7)"),
    (("design",), "hi", 1.5, "DesignSpec: design.hi: a poisson design needs 0 < lo <= hi <= 1, got (0.3, 1.5)"),
    ((), "design", {"kind": "two-strata", "column": "v", "rates": [0.5, 1.5]},
     "DesignSpec: design.rates must lie in (0, 1], got (0.5, 1.5)"),
    ((), "design", {"kind": "two-strata", "column": "v", "rates": [0.5, 0.5],
                    "family_sizes": {"values": [0.5, 2.0], "probs": [0.5, 0.5]}},
     "DesignSpec: design.family_sizes.values must be at least 1, got (0.5, 2.0)"),
    (("covariates", 0), "params", None, "CovariateSpec 'x': params must be a list, got None"),
    (("covariates", 0), "params", -1, "CovariateSpec 'x': params must be a list, got -1"),
    ((), "intercept", "false", "DesignSpec: intercept must be true or false, got 'false'"),
    ((), "fixed_population", "no", "DesignSpec: fixed_population must be true or false, got 'no'"),
    (("design",), "mask_latent", "false", "DesignSpec: design.mask_latent must be true or false, got 'false'"),
    ((), "design", {"kind": "two-strata", "column": "v", "rates": [0.5, 0.5],
                    "family_sizes": {"values": [1.0, 2.0], "probs": [0.5, 0.5], "prob": [0.9, 0.1]}},
     "unknown key 'prob' in 'design.design.family_sizes'"),
    ((), "roles", {"response": "y"}, "unknown key 'roles' in 'design'"),
], ids=["lo", "coeffs", "rates", "bernoulli", "normal", "choice", "dummies", "lo out of range",
        "hi out of range", "rates out of range", "family sizes out of range", "null params", "negative params",
        "intercept", "fixed population", "mask latent", "family sizes key", "planned roles"])
def test_a_bad_value_in_the_design_section_exits_1_before_any_replicate(tmp_path, capsys, path, key, value, message):
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=2)
    section = cfg["design"]
    for step in path:
        section = section[step]
    section[key] = value
    assert run_command(["mc", "--config", _write_config(tmp_path, cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_an_out_of_range_design_value_exits_1_naming_it_before_any_replicate(tmp_path, capsys, command):
    out = tmp_path / "run"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"]["design"]["hi"] = -1.0
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert "DesignSpec: design.hi: a poisson design needs 0 < lo <= hi <= 1, got (0.3, -1.0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_a_covariate_named_like_a_generated_column_exits_1_before_any_replicate(tmp_path, capsys, command):
    out = tmp_path / "run"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"]["covariates"].append({"name": "pi", "dist": "normal", "params": [0.0, 1.0]})
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert "DesignSpec: column 'pi' is generated twice (x, v, pi, y, pi)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_a_population_size_above_the_array_size_limit_exits_1_before_any_replicate(tmp_path, capsys, command):
    out = tmp_path / "run"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg["design"]["N"] = 1e300
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert f"DesignSpec: N must be at most {np.iinfo(np.intp).max}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", OVERRIDES)
def test_an_integer_key_set_to_true_exits_1(tmp_path, capsys, key):
    out = tmp_path / "mc"
    cfg = _mc_config(tmp_path, out, reps=2)
    cfg[key] = True
    assert run_command(["mc", "--config", _write_config(tmp_path, cfg)]) == 1
    assert f"parse_config: {key!r} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def _data_path_config(tmp_path, path):
    return {"data": {"path": path, "schema": {"response": "y", "family": "fam"}},
            "model": {"family": "bernoulli-logit"}, "seed": 1, "output": {"path": str(tmp_path / "run")}}


@pytest.mark.parametrize("command", ["fit", "decluster"])
@pytest.mark.parametrize("path", [None, ["a"], -1])
def test_a_data_path_that_is_not_a_string_exits_1(tmp_path, capsys, command, path):
    cfg = _data_path_config(tmp_path, path)
    assert run_command([command, "--config", _write_config(tmp_path, cfg)]) == 1
    assert f"parse_config: data.path must be a file name, got {path!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["fit", "decluster"])
@pytest.mark.parametrize("path", [0, True])
def test_a_data_path_that_names_a_file_descriptor_exits_1(tmp_path, command, path):
    # In a child process: open(0) and open(True) read stdin and stdout, and close them.
    proc = python_run("-m", "elsurvey", command, "--config", _write_config(tmp_path, _data_path_config(tmp_path, path)))
    assert proc.returncode == 1
    assert f"parse_config: data.path must be a file name, got {path!r}" in proc.stderr
    assert not (tmp_path / "run").exists()


def _fuzz_configs(root):
    """A valid fit config and a valid mc config, each with every key of its sections set."""
    spec = DesignSpec(N=400, family="bernoulli-logit", theta0=(-0.9, 0.8, 1.4),
                      covariates=(CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
                                  CovariateSpec("v", "bernoulli", (0.5,))),
                      design={"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                              "coeffs": {"v": 0.55}, "response_coef": 1.0},
                      terms=("x", "v"))
    data_path = root / "sample.csv"
    write_dataset_csv(str(data_path), draw_sample(gen_population(spec, 5), spec, 6))
    subgroups = [{"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                  "group_value": gv, "gamma": g} for gv, g in ((0.0, 0.31), (1.0, 0.61))]
    visibility = {"mode": "gamma-regression", "formula": ["v"], "nf_adjust": False}
    fit = {"data": {"path": str(data_path), "schema": SCHEMA},
           "model": {"family": "bernoulli-logit", "terms": ["x", "v"], "intercept": True},
           "constraints": subgroups, "visibility": visibility,
           "solver": {"el_tol": 1e-10, "el_max_iter": 200, "newton_tol": 1e-10, "newton_max_iter": 100},
           "estimators": ["pl", "cs", "ce", "ce-joint"]}
    design = {"N": 400, "family": "bernoulli-logit", "theta0": [-0.9, 0.8, 1.4],
              "covariates": [{"name": "x", "dist": "choice", "params": [[-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]]},
                             {"name": "v", "dist": "bernoulli", "params": [0.5]}],
              "design": dict(spec.design), "terms": ["x", "v"], "intercept": True, "dummies": {"x": [1.0]},
              "constraints": subgroups, "visibility": visibility, "fixed_population": False,
              "fit_terms": ["x", "v"], "estimand": [-0.9, 0.8, 1.4]}
    mc = {"design": design, "estimators": ["pl", "cs", "ce"], "seed": 3, "reps": 2, "jobs": 1}
    return {"fit": fit, "mc": mc}


def _fuzz_sections(cfg):
    """The path of every object section of ``cfg`` that the fuzz mutates."""
    paths = [(name,) for name in ("data", "model", "visibility", "solver", "design") if name in cfg]
    paths += [("constraints", i) for i in range(len(cfg.get("constraints", [])))]
    if "data" in cfg:
        paths += [("data", "schema")]
    if "design" in cfg:
        paths += [("design", "visibility"), ("design", "design")]
        paths += [("design", key, i) for key in ("covariates", "constraints") for i in range(len(cfg["design"][key]))]
    return paths


def _section(cfg, path):
    """The section of ``cfg`` at ``path``."""
    for step in path:
        cfg = cfg[step]
    return cfg


def _fuzz_keys(cfg):
    """``(section path, key)`` of every key of the sections the fuzz mutates, and of the integer keys."""
    keys = [((), key) for key in OVERRIDES if key in cfg]
    for path in _fuzz_sections(cfg):
        keys += [(path, key) for key in _section(cfg, path)]
    return keys


def _place(path):
    """How an error names the section at ``path``: ``design.covariates[1]``."""
    if not path:
        return "'top level'"
    return repr("".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:])


_DROP = object()
FUZZ_VALUES = {"drop": _DROP, "abc": "abc", "list": ["a"], "null": None, "negative": -1, "true": True}
# Valid config that only a fit can judge: a gamma of -1 is a subgroup mean of the 0/1 response that no
# weights meet (exit 2, results flagged), and a group_value of -1 an empty subgroup, a vacuous constraint
# that the fit keeps at multiplier 0 and leaves out of its sandwich (exit 0).
SAMPLE_DEPENDENT, VACUOUS = ({(command, prefix + ("constraints", i), key, "negative")
                              for command, prefix in (("fit", ()), ("mc", ("design",))) for i in (0, 1)}
                             for key in ("gamma", "group_value"))


def test_a_config_with_one_key_dropped_or_mistyped_exits_cleanly(tmp_path):
    """Every key of every section the fuzz mutates, dropped or set to each of :data:`FUZZ_VALUES`: each run
    exits 0, 1 or 2 without a traceback, and only the sample-dependent cases exit 2, with their results.
    An unknown key added to any object section exits 1 with the section named."""
    exit_0, exit_2, bad = set(), set(), []
    for command, base in _fuzz_configs(tmp_path).items():
        for path, key in _fuzz_keys(base):
            for name, value in FUZZ_VALUES.items():
                cfg = copy.deepcopy(base)
                section = _section(cfg, path)
                if value is _DROP:
                    del section[key]
                else:
                    section[key] = value
                out = tmp_path / f"{command}-{'.'.join(map(str, path))}-{key}-{name}"
                out.mkdir()
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = run_command([command, "--config", _write_config(out, cfg), "--out", str(out / "o")])
                if code not in (0, 1, 2) or "Traceback" in stderr.getvalue():
                    bad.append((command, path, key, name, code))
                if code == 2:
                    exit_2.add((command, path, key, name))
                    assert (out / "o" / f"{command}.json").exists()
                elif code == 0:
                    exit_0.add((command, path, key, name))
        for path in [()] + _fuzz_sections(base):  # one unknown key added to each object section
            cfg = copy.deepcopy(base)
            _section(cfg, path)["zz"] = 1.0
            out = tmp_path / f"{command}-{'.'.join(map(str, path))}-unknown"
            out.mkdir()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run_command([command, "--config", _write_config(out, cfg), "--out", str(out / "o")])
            if code != 1 or f"unknown key 'zz' in {_place(path)}" not in stderr.getvalue():
                bad.append((command, path, "zz", stderr.getvalue(), code))
    assert bad == []
    assert exit_2 == SAMPLE_DEPENDENT and VACUOUS <= exit_0


OUTPUT_VALUES = dict(FUZZ_VALUES, empty="", object={})


@pytest.mark.parametrize("command", ["fit", "mc", "simulate"])
def test_an_output_key_dropped_or_mistyped_exits_0_or_1_with_the_key_named(tmp_path, monkeypatch, capsys, command):
    """Regression guard for the section the one-key fuzz leaves to ``--out``: ``output.path`` and
    ``output.format``, each dropped or set to each of :data:`OUTPUT_VALUES`, without ``--out``.  Only a
    dropped key or the directory name ``"abc"`` exits 0, with its artifact written; any other value exits 1
    with the key named, and no run prints a traceback."""
    configs = _fuzz_configs(tmp_path)
    base = configs["fit" if command == "fit" else "mc"]
    if command == "simulate":
        base = {"design": base["design"], "seed": base["seed"]}
    base["output"] = {"path": "run", "format": "both"}
    stem = "sim" if command == "simulate" else command
    for key in ("path", "format"):
        for name, value in OUTPUT_VALUES.items():
            cfg = copy.deepcopy(base)
            if value is _DROP:
                del cfg["output"][key]
            else:
                cfg["output"][key] = value
            cwd = tmp_path / f"{key}-{name}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)  # a dropped path writes into the working directory
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run_command([command, "--config", _write_config(cwd, cfg)])
            err = capsys.readouterr().err
            ok = value is _DROP or (key == "path" and value == "abc")
            assert (code, "Traceback" in err) == (0 if ok else 1, False), (key, name, err)
            if ok:
                assert (cwd / cfg["output"].get("path", ".") / f"{stem}.json").exists(), (key, name)
            else:
                assert f"output.{key} must be" in err, (key, name, err)


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["fit"], ["fit", "--config", "c.json", "--bogus"],
                                  ["mc", "--config", "c.json", "--reps", "abc"]])
def test_a_usage_error_exits_1(capsys, argv):
    # argparse itself exits 2, the code of a flagged statistical failure.
    assert run_command(argv) == 1
    assert "usage: elsurvey" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fit", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert run_command(argv) == 0
    assert "elsurvey" in capsys.readouterr().out


RUNTIME_CHECK = Path(__file__).with_name("runtime_check.py")


def test_the_runtime_check_passes_through_python_m_elsurvey():
    # The end-to-end check that the CI runtime job runs through the console script after an install without extras.
    proc = python_run(str(RUNTIME_CHECK), sys.executable, "-m", "elsurvey")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ci_runs_the_runtime_check_without_extras_and_it_imports_nothing_but_the_stdlib_and_numpy():
    # The workflow is read as text, since pyyaml is not a test extra.
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    job = re.split(r"\n  (?=\S)", workflow.read_text(encoding="utf-8").split("\n  runtime:\n", 1)[1], 1)[0]
    runs = re.findall(r"^ +run: (.*)$", job, re.M)
    assert runs == ["python -m pip install -e .", "python tests/runtime_check.py elsurvey"], runs
    imported = {(getattr(node, "module", None) or alias.name).split(".")[0]
                for node in ast.walk(ast.parse(RUNTIME_CHECK.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported - sys.stdlib_module_names <= {"numpy"}, imported


def test_concurrent_futures_loads_only_when_mc_starts_a_pool(tmp_path):
    # Import time is the set-up of every command; only a pool of more than one worker needs the module.
    path = _write_config(tmp_path, _mc_config(tmp_path, tmp_path / "mc", reps=4))
    code = ("import sys; from elsurvey.cli import run_command; before = 'concurrent.futures' in sys.modules; "
            f"code = run_command(['mc', '--config', {path!r}, '--jobs', '2']); "
            "print(before, code, 'concurrent.futures' in sys.modules)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert fresh_python(code).split() == ["False", "0", str(cpus > 1)]


def test_simulate_fit_and_mc_run_without_scipy(tmp_path):
    # Regression guard for the numpy-only runtime: the test extras install scipy and conftest
    # imports it, so only a fresh interpreter shows a module that imports it, even lazily.
    design = {"N": 3000, "family": "bernoulli-logit", "theta0": [-0.9, 0.8, 1.4],
              "covariates": [{"name": "x", "dist": "choice", "params": [[-1.0, 0.0, 1.0], [0.3, 0.3, 0.4]]},
                             {"name": "v", "dist": "bernoulli", "params": [0.5]}],
              "design": {"kind": "poisson", "lo": 0.3, "hi": 0.7, "coeffs": {"v": 0.55}, "response_coef": 1.0},
              "terms": ["x", "v"],
              "constraints": [{"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
                               "group_value": 1.0}]}
    sim = _write_config(tmp_path, {"design": design, "output": {"path": str(tmp_path / "sim")}}, "sim.json")
    fit = _write_config(tmp_path, _fit_config(tmp_path / "sim" / "sample.csv", tmp_path / "fit", {1.0: 0.6},
                                              visibility={"mode": "gamma-regression", "formula": ["v"]},
                                              estimators=list(ESTIMATORS)), "fit.json")
    mc = _write_config(tmp_path, {"design": design, "estimators": ["pl", "cs", "ce"],
                                  "output": {"path": str(tmp_path / "mc")}}, "mc.json")
    code = ("import sys; from elsurvey.cli import run_command; "
            f"codes = [run_command(['simulate', '--config', {sim!r}, '--seed', '3']), "
            f"run_command(['fit', '--config', {fit!r}]), "
            f"run_command(['mc', '--config', {mc!r}, '--seed', '5', '--reps', '2'])]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code).strip() == "[0, 0, 0] []"
