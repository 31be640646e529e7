"""Command-line interface: fit, simulate, mc, decluster.

Runs are described by a JSON config (strictly validated: unknown keys are
rejected at every level, with the offending section named) plus a few
command-line overrides (``--seed``, ``--out``, ``--reps``, ``--jobs``).
Artifacts are written as JSON and CSV; floats are serialized with 17
significant digits so results round-trip exactly.  Large arrays are
formatted and streamed to the file in bounded chunks, with the same bytes a
whole-document writer gives.  CSV input is parsed in bulk, with a
row-by-row fallback that names the row and column of any bad cell.

Exit codes: 0 on success, 1 on input/config errors, 2 on statistical
failures (infeasible constraints or non-convergence; partial results are
still written, flagged).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import repeat

import numpy as np

from . import __version__
from .data import ROLE_KEYS, ConstraintEntry, ConstraintSpec, Dataset, decluster, load_dataset
from .errors import ConfigError, ConvergenceError, DataError, InfeasibleError
from .estimators import ESTIMATORS, FitProblem
from .glm import ModelSpec
from .simulate import (CovariateSpec, DesignSpec, draw_sample, gen_population,
                       population_constraint_spec, run_monte_carlo)
from .visibility import estimate_visibility, visibility_from_pi

TOP_KEYS = ("data", "model", "constraints", "visibility", "estimators", "solver",
            "seed", "reps", "jobs", "output", "design")
DATA_KEYS = ("path", "schema")
MODEL_KEYS = ("family", "terms", "intercept")
CONSTRAINT_KEYS = ("kind", "target_column", "gamma", "group_column", "group_value")
VISIBILITY_KEYS = ("mode", "formula", "nf_adjust")
SOLVER_KEYS = ("el_tol", "el_max_iter", "newton_tol", "newton_max_iter")
OUTPUT_KEYS = ("path", "format")
DESIGN_KEYS = ("N", "family", "theta0", "covariates", "terms", "intercept", "dummies",
               "design", "constraints", "visibility", "fixed_population",
               "fit_terms", "estimand")
COVARIATE_KEYS = ("name", "dist", "params")
POISSON_KEYS = ("kind", "lo", "hi", "const", "coeffs", "response_coef", "latent_sd", "mask_latent")
STRATA_KEYS = ("kind", "column", "rates", "family_sizes")
SIM_CONSTRAINT_KEYS = ("kind", "target_column", "group_column", "group_value", "gamma")


# ---------------------------------------------------------------------------
# JSON/CSV serialization with exact float round-trips, streamed in bounded chunks

CHUNK = 8192  # array values formatted per piece of streamed output


def _format_floats(values: np.ndarray) -> list[str]:
    """``format(x, ".17g")`` of each value of a 1-d float array."""
    return list(map(float.__format__, values.astype(float, copy=False).tolist(), repeat(".17g")))


def _json_pieces(obj, pad: str = ""):
    """Yield the indented JSON text of ``obj`` in pieces.

    A 1-d float array is formatted ``CHUNK`` values at a time, so the text of
    a large array never exists whole; non-finite floats become ``null``.
    """
    if obj is None:
        yield "null"
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        yield format(x, ".17g") if np.isfinite(x) else "null"
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" and obj.size:
        inner = pad + "  "
        for start in range(0, obj.size, CHUNK):
            chunk = obj[start:start + CHUNK]
            texts = _format_floats(chunk)
            for k in np.flatnonzero(~np.isfinite(chunk)):
                texts[k] = "null"
            yield (",\n" if start else "[\n") + inner + (",\n" + inner).join(texts)
        yield "\n" + pad + "]"
    elif isinstance(obj, np.ndarray):
        items = list(np.asarray(obj)) if obj.ndim > 1 else obj.tolist()
        if not isinstance(items, list):  # a 0-d array
            raise ConfigError(f"write_json: cannot serialize value of type {type(items).__name__}")
        yield from _json_pieces(items, pad)
    elif isinstance(obj, (list, tuple, dict)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            yield brackets
            return
        inner = pad + "  "
        if isinstance(obj, dict):
            entries = ((inner + json.dumps(str(key)) + ": ", value) for key, value in obj.items())
        else:
            entries = ((inner, value) for value in obj)
        for k, (lead, value) in enumerate(entries):
            yield (",\n" if k else brackets[0] + "\n") + lead
            yield from _json_pieces(value, inner)
        yield "\n" + pad + brackets[1]
    else:
        raise ConfigError(f"write_json: cannot serialize value of type {type(obj).__name__}")


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(obj))
        fh.write("\n")


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def write_dataset_csv(path: str, data: Dataset) -> None:
    """Write every column of ``data``: the same bytes ``write_csv`` would give,
    formatted ``CHUNK`` rows at a time, column by column."""
    names = list(data.columns)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, data.n, CHUNK):
            cells = [_format_floats(data.columns[name][start:start + CHUNK]) for name in names]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


# ---------------------------------------------------------------------------
# Config parsing

def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"parse_config: section {where!r} must be an object")
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"parse_config: unknown key {unknown[0]!r} in {where!r}; allowed keys: {sorted(allowed)}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"parse_config: missing required key {key!r} in {where!r}")
    return section[key]


def parse_config(source) -> dict:
    """Parse and strictly validate a run config (path or already-loaded dict).

    Unknown keys anywhere in the document are rejected with the section
    named.  Returns the validated raw dict; objects are materialized by the
    individual commands.
    """
    if isinstance(source, str):
        try:
            with open(source) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"parse_config: cannot read {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"parse_config: {source!r} is not valid JSON: {exc}") from exc
    else:
        cfg = source
    _check_keys(cfg, TOP_KEYS, "top level")
    if "data" in cfg:
        _check_keys(cfg["data"], DATA_KEYS, "data")
        _need(cfg["data"], "path", "data")
        schema = _need(cfg["data"], "schema", "data")
        _check_keys(schema, ROLE_KEYS, "data.schema")
    if "model" in cfg:
        _check_keys(cfg["model"], MODEL_KEYS, "model")
        _need(cfg["model"], "family", "model")
    if "constraints" in cfg:
        if not isinstance(cfg["constraints"], list):
            raise ConfigError("parse_config: 'constraints' must be a list")
        for i, entry in enumerate(cfg["constraints"]):
            _check_keys(entry, CONSTRAINT_KEYS, f"constraints[{i}]")
            _need(entry, "kind", f"constraints[{i}]")
            _need(entry, "target_column", f"constraints[{i}]")
            _need(entry, "gamma", f"constraints[{i}]")
    if "visibility" in cfg:
        _check_keys(cfg["visibility"], VISIBILITY_KEYS, "visibility")
        _need(cfg["visibility"], "mode", "visibility")
    if "solver" in cfg:
        _check_keys(cfg["solver"], SOLVER_KEYS, "solver")
    if "output" in cfg:
        _check_keys(cfg["output"], OUTPUT_KEYS, "output")
        fmt = cfg["output"].get("format", "both")
        if fmt not in ("json", "csv", "both"):
            raise ConfigError(f"parse_config: output.format must be json, csv, or both, got {fmt!r}")
    if "estimators" in cfg:
        if not isinstance(cfg["estimators"], list) or not all(isinstance(e, str) for e in cfg["estimators"]):
            raise ConfigError("parse_config: 'estimators' must be a list of names")
        unknown = [e for e in cfg["estimators"] if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(f"parse_config: unknown estimator {unknown[0]!r}; expected ones of {ESTIMATORS}")
    for key in ("seed", "reps", "jobs"):
        if key in cfg and not isinstance(cfg[key], int):
            raise ConfigError(f"parse_config: {key!r} must be an integer")
    if "design" in cfg:
        d = cfg["design"]
        _check_keys(d, DESIGN_KEYS, "design")
        for key in ("N", "family", "theta0", "covariates", "design"):
            _need(d, key, "design")
        for i, cov in enumerate(d["covariates"]):
            _check_keys(cov, COVARIATE_KEYS, f"design.covariates[{i}]")
            for key in COVARIATE_KEYS:
                _need(cov, key, f"design.covariates[{i}]")
        kind = _need(d["design"], "kind", "design.design")
        if kind == "poisson":
            _check_keys(d["design"], POISSON_KEYS, "design.design")
            _need(d["design"], "lo", "design.design")
            _need(d["design"], "hi", "design.design")
        elif kind == "two-strata":
            _check_keys(d["design"], STRATA_KEYS, "design.design")
            _need(d["design"], "column", "design.design")
            _need(d["design"], "rates", "design.design")
        else:
            raise ConfigError(f"parse_config: design.design.kind must be poisson or two-strata, got {kind!r}")
        for i, entry in enumerate(d.get("constraints", [])):
            _check_keys(entry, SIM_CONSTRAINT_KEYS, f"design.constraints[{i}]")
            _need(entry, "kind", f"design.constraints[{i}]")
            _need(entry, "target_column", f"design.constraints[{i}]")
        if "visibility" in d and d["visibility"] is not None:
            _check_keys(d["visibility"], VISIBILITY_KEYS, "design.visibility")
    return cfg


def _model_from(cfg: dict) -> ModelSpec:
    if "model" not in cfg:
        raise ConfigError("run: this command needs a 'model' section")
    m = cfg["model"]
    return ModelSpec(family=m["family"], terms=tuple(m.get("terms", ())),
                     intercept=bool(m.get("intercept", True)))


def _constraints_from(cfg: dict) -> ConstraintSpec:
    entries = []
    for entry in cfg.get("constraints", []):
        entries.append(ConstraintEntry(
            kind=entry["kind"], target_column=entry["target_column"], gamma=float(entry["gamma"]),
            group_column=entry.get("group_column"),
            group_value=None if entry.get("group_value") is None else float(entry["group_value"])))
    return ConstraintSpec(entries=tuple(entries))


def _design_from(cfg: dict) -> DesignSpec:
    if "design" not in cfg:
        raise ConfigError("run: this command needs a 'design' section")
    d = cfg["design"]
    covs = tuple(CovariateSpec(name=c["name"], dist=c["dist"], params=tuple(c["params"]))
                 for c in d["covariates"])
    dummies = {parent: tuple(values) for parent, values in d.get("dummies", {}).items()}
    return DesignSpec(N=int(d["N"]), family=d["family"], theta0=tuple(d["theta0"]),
                      covariates=covs, design=dict(d["design"]),
                      terms=tuple(d.get("terms", ())), intercept=bool(d.get("intercept", True)),
                      dummies=dummies, constraints=tuple(d.get("constraints", ())),
                      visibility=d.get("visibility"),
                      fixed_population=bool(d.get("fixed_population", False)),
                      fit_terms=tuple(d.get("fit_terms", ())),
                      estimand=tuple(d.get("estimand", ())))


def _visibility_from(cfg: dict, data: Dataset):
    vcfg = cfg.get("visibility", {"mode": "given-pi"})
    if vcfg["mode"] == "given-pi":
        return visibility_from_pi(data)
    if vcfg["mode"] == "gamma-regression":
        if "formula" not in vcfg:
            raise ConfigError("run: visibility.formula is required for gamma-regression")
        return estimate_visibility(data, vcfg["formula"], nf_adjust=bool(vcfg.get("nf_adjust", False)))
    raise ConfigError(f"run: unknown visibility mode {vcfg['mode']!r}")


def _require_seed(cfg: dict, command: str) -> int:
    if cfg.get("seed") is None:
        raise ConfigError(f"run {command}: a 'seed' is required (config key or --seed)")
    return int(cfg["seed"])


def _outdir(cfg: dict) -> str:
    path = cfg.get("output", {}).get("path", ".")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands

def _fit_payload(res) -> dict:
    return {"estimator": res.estimator, "theta": res.theta, "se": res.se,
            "covariance": res.covariance, "weights": res.weights,
            "multiplier": res.multiplier,
            "Bp_hat": res.Bp_hat, "logEL": res.logEL, "diagnostics": res.diagnostics}


def _cmd_fit(cfg: dict) -> int:
    if "data" not in cfg:
        raise ConfigError("run fit: a 'data' section is required")
    data = load_dataset(cfg["data"]["path"], cfg["data"]["schema"])
    problem = FitProblem(data, _model_from(cfg), _constraints_from(cfg), **cfg.get("solver", {}))
    problem.cm  # fail fast on unknown constraint columns before any fitting work
    names = tuple(cfg.get("estimators", ["pl", "cs", "ce"]))
    if any(n in ("ce", "ce-joint") for n in names):
        problem.vis = _visibility_from(cfg, data)
    results, failed = {}, False
    for name in names:
        try:
            res = problem.fit(name, seed=int(cfg.get("seed", 0)))
            results[name] = _fit_payload(res)
            failed |= not res.diagnostics.get("converged", False)
        except (InfeasibleError, ConvergenceError) as exc:
            results[name] = {"estimator": name, "error": f"{type(exc).__name__}: {exc}"}
            failed = True
    out = _outdir(cfg)
    fmt = cfg.get("output", {}).get("format", "both")
    if fmt in ("json", "both"):
        write_json(os.path.join(out, "fit.json"), results)
    if fmt in ("csv", "both"):
        rows = [[name, coef, payload["theta"][k], payload["se"][k]]
                for name, payload in results.items() if "error" not in payload
                for k, coef in enumerate(payload["diagnostics"]["coef_names"])]
        write_csv(os.path.join(out, "fit.csv"), ["estimator", "coefficient", "estimate", "se"], rows)
    return 2 if failed else 0


def _cmd_simulate(cfg: dict) -> int:
    spec = _design_from(cfg)
    seed = _require_seed(cfg, "simulate")
    rng = np.random.default_rng(seed)
    pop_seed, sample_seed = (int(s) for s in rng.integers(0, 2**62, size=2))
    population = gen_population(spec, pop_seed)
    sample = draw_sample(population, spec, sample_seed)
    constraints = population_constraint_spec(population, spec)
    out = _outdir(cfg)
    write_dataset_csv(os.path.join(out, "population.csv"), population)
    write_dataset_csv(os.path.join(out, "sample.csv"), sample)
    meta = {"seed": seed, "population_rows": population.n, "sample_rows": sample.n,
            "sample_schema": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                              for k, v in sample.roles.items()},
            "constraints": [{"kind": e.kind, "target_column": e.target_column, "gamma": e.gamma,
                             "group_column": e.group_column, "group_value": e.group_value}
                            for e in constraints.entries]}
    write_json(os.path.join(out, "sim.json"), meta)
    return 0


def _cmd_mc(cfg: dict) -> int:
    spec = _design_from(cfg)
    seed = _require_seed(cfg, "mc")
    reps = cfg.get("reps")
    if reps is None:
        raise ConfigError("run mc: 'reps' is required (config key or --reps)")
    names = tuple(cfg.get("estimators", ["pl", "cs", "ce"]))
    summary = run_monte_carlo(spec, names, reps=int(reps), seed=seed, jobs=int(cfg.get("jobs", 1)))
    out = _outdir(cfg)
    fmt = cfg.get("output", {}).get("format", "both")
    if fmt in ("json", "both"):
        write_json(os.path.join(out, "mc.json"), summary.as_dict())
    if fmt in ("csv", "both"):
        rows = []
        for name, s in summary.estimators.items():
            for k, coef in enumerate(summary.coef_names):
                rows.append([name, coef, summary.theta0[k], s.mean[k], s.bias[k], s.sd[k],
                             s.rmse[k], s.mean_se[k], s.coverage[k], s.n_converged, s.n_failed])
        write_csv(os.path.join(out, "mc.csv"),
                  ["estimator", "coefficient", "theta0", "mean", "bias", "sd", "rmse",
                   "mean_se", "coverage", "n_converged", "n_failed"], rows)
    return 2 if any(s.n_converged == 0 for s in summary.estimators.values()) else 0


def _cmd_decluster(cfg: dict) -> int:
    if "data" not in cfg:
        raise ConfigError("run decluster: a 'data' section is required")
    data = load_dataset(cfg["data"]["path"], cfg["data"]["schema"])
    seed = _require_seed(cfg, "decluster")
    result = decluster(data, seed)
    out = _outdir(cfg)
    write_dataset_csv(os.path.join(out, "declustered.csv"), result)
    return 0


def run_command(argv=None) -> int:
    """Entry point used by both ``main`` and the tests; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="elsurvey",
        description="Constrained empirical-likelihood estimation for informatively sampled surveys.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("fit", "fit estimators to a CSV dataset"),
                           ("simulate", "generate one population and sample"),
                           ("mc", "run a Monte Carlo batch"),
                           ("decluster", "keep one member per family, re-weighted")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--reps", type=int, default=None, help="override the replicate count (mc)")
        p.add_argument("--jobs", type=int, default=None, help="override the worker count (mc)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.reps is not None:
            cfg["reps"] = args.reps
        if args.jobs is not None:
            cfg["jobs"] = args.jobs
        if args.out is not None:
            cfg.setdefault("output", {})["path"] = args.out
        command = {"fit": _cmd_fit, "simulate": _cmd_simulate,
                   "mc": _cmd_mc, "decluster": _cmd_decluster}[args.command]
        return command(cfg)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleError, ConvergenceError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
