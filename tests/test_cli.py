"""End-to-end command-line interface tests: configs, artifacts, exit codes."""

import json

import numpy as np
import pytest

from elsurvey.cli import parse_config, run_command, write_dataset_csv
from elsurvey.data import ConstraintEntry, ConstraintSpec, build_constraint_matrix, load_dataset
from elsurvey.errors import ConfigError
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population

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
    for name in ("cs", "ce"):
        w = np.asarray(results[name]["weights"])
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
    assert "error" in results["cs"] and "Infeasible" in results["cs"]["error"]


def test_fit_unknown_estimator_fails_before_loading(tmp_path, capsys):
    cfg = _fit_config(tmp_path / "absent.csv", tmp_path / "run", {0.0: 0.3}, estimators=["pl", "bogus"])
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "'bogus'" in err and "absent.csv" not in err


def test_fit_singular_sandwich_is_flagged_not_raised(tmp_path):
    # Two identical constraints: the EL weights exist, but H1 and calH2 are singular.
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
    with pytest.warns(UserWarning, match="condition number"):
        assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    results = json.loads((out / "fit.json").read_text())
    assert results["pl"]["diagnostics"]["converged"] is True
    for name in ("cs", "ce"):
        assert results[name]["diagnostics"]["converged"] is False
        assert "singular" in results[name]["diagnostics"]["failure"]
        assert all(t is None for t in results[name]["theta"])


def test_fit_ce_joint_uses_the_configured_newton_settings(tmp_path):
    data_path, _, gammas = _informative_sample(tmp_path, N=900)
    out = tmp_path / "run"
    cfg = _fit_config(data_path, out, gammas, estimators=["ce-joint"], solver={"newton_max_iter": 0})
    assert run_command(["fit", "--config", _write_config(tmp_path, cfg)]) == 2
    results = json.loads((out / "fit.json").read_text())
    assert "no usable starting value" in results["ce-joint"]["error"]


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
