"""Command-line interface: fit, simulate, mc, decluster.

Runs are described by a JSON config (strictly validated: unknown keys are
rejected at every level, with the offending section named) plus a few
command-line overrides (``--seed``, ``--out``, ``--reps``, ``--jobs``).
:func:`parse_config` builds each section that describes a package object
into that object, once; the commands use the built specs.
Artifacts are written as JSON (by ``json.dump``, a non-finite float as
``null``) and CSV (by ``csv.writer``); each float is its shortest text that
parses back to the same double (``repr``).  ``fit`` writes each estimator's
per-unit weights bitwise to ``fit_weights.npz`` (one array per estimator,
keyed by its name) beside ``fit.json``.  A dataset CSV keeps 17 significant
digits (``.17g``): it is streamed ``CHUNK`` rows at a time, formatted by the
exact kernel of ``_decimal.format_rows``, which gives the bytes of
``format(x, ".17g")`` for zero and every ``1e-11 <= |x| < 2**51``, and writes
a chunk of integers in that range from their digits alone (on a 255,710-row
d67 sample with three integer columns, the CSV takes 45–55 ms, where the
17-digit path for every cell took 158–171 ms); a column chunk holding any
other value is formatted one value at a time, and its NUL-padded rows join the
other columns' rows.
CSV input is read by ``data.load_dataset``.  Every file is read and written as
UTF-8, whatever the locale.  A seed must be non-negative.

Exit codes: 0 on success, ``--help`` and ``--version``; 1 on input/config and
usage (command-line) errors; 2 on statistical failures (infeasible constraints
or non-convergence; partial results are still written, flagged).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from ._decimal import format_rows
from .data import (ROLE_KEYS, ConstraintEntry, ConstraintSpec, Dataset, build, check_keys, decluster,
                   load_dataset)
from .errors import ConfigError, ConvergenceError, DataError, InfeasibleError
from .estimators import ESTIMATORS, NEEDS_VISIBILITY, FitProblem
from .glm import ModelSpec
from .simulate import DesignSpec, draw_sample, gen_population, population_constraint_spec, run_monte_carlo
from .visibility import VisibilitySpec

FIT_SECTIONS = ("data", "model", "constraints", "visibility", "solver")  # read by fit alone
OVERRIDES = ("seed", "reps", "jobs")  # integer config keys that a command-line flag of the same name sets
TOP_KEYS = FIT_SECTIONS + OVERRIDES + ("estimators", "output", "design")
DATA_KEYS = ("path", "schema")
# FitProblem's solver settings: the fields with a number default
SOLVER_KEYS = tuple(f.name for f in fields(FitProblem) if isinstance(f.default, (int, float)))
OUTPUT_KEYS = ("path", "format")
DEFAULT_ESTIMATORS = ("pl", "cs", "ce")  # fitted by fit and mc when the config names none


# ---------------------------------------------------------------------------
# JSON/CSV serialization with exact float round-trips; dataset CSVs streamed in bounded chunks

CHUNK = 8192  # dataset rows formatted per piece of streamed output


def _rows_text(*blocks) -> str:
    """The text of row blocks laid side by side; a ``str`` block repeats on every row."""
    n = len(blocks[0])
    table = np.concatenate([np.broadcast_to(np.frombuffer(b.encode(), np.uint8), (n, len(b)))
                            if isinstance(b, str) else b for b in blocks], axis=1)
    return table.tobytes().translate(None, b"\0").decode()


def _plain(obj):
    """``obj`` as the plain Python objects that ``json`` writes: an array as its nested lists, a numpy
    scalar as its Python value and a non-finite float as None.  No artifact holds an n-vector
    (``fit_weights.npz`` holds the weights)."""
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {str(key): _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    raise ConfigError(f"write_json: cannot serialize value of type {type(obj).__name__}")


def write_json(path: str, obj) -> None:
    obj = _plain(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path: str, data: Dataset) -> None:
    """Write every column of ``data``, each cell as ``format(x, ".17g")`` in ``csv.writer``'s
    layout, formatted ``CHUNK`` rows at a time, column by column."""
    names = list(data.columns)
    seps = [","] * (len(names) - 1) + ["\r\n"]  # after each column's cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, data.n, CHUNK):
            blocks = []
            for name, sep in zip(names, seps):
                chunk = data.columns[name][start:start + CHUNK]
                rows = format_rows(chunk)
                if rows is None:  # a value outside the exact range: the chunk's cells one by one, NUL-padded
                    rows = np.array([format(x, ".17g") for x in chunk.tolist()], "S")[:, None].view(np.uint8)
                blocks += [rows, sep]
            fh.write(_rows_text(*blocks))


# ---------------------------------------------------------------------------
# Config parsing

def _need(section: dict, key: str, where: str):
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"parse_config: missing required key {key!r} in {where!r}")
    return section[key]


def _build(cls, section, where: str):
    """:func:`data.build` of ``cls`` from ``section``; its DataError, which names ``where``, is a ConfigError."""
    try:
        return build(cls, section, where)
    except DataError as exc:
        raise ConfigError(f"parse_config: {exc}") from exc


def parse_config(source, overrides=None) -> dict:
    """Parse and strictly validate a run config (path or already-loaded dict).

    ``overrides`` maps each of :data:`OVERRIDES` and ``out`` (``output.path``)
    to a command-line value; one that is not None replaces the config's value
    before any check.  Unknown keys anywhere in the document are rejected with
    the section named.  Returns a copy of the config in which ``model``, ``visibility``
    and ``design`` are a :class:`ModelSpec`, a :class:`VisibilitySpec` and a
    :class:`DesignSpec`, and ``constraints`` a :class:`ConstraintSpec`, each
    built once, here, by constructors that check their own values; a value
    one rejects is a :class:`ConfigError` naming the section.  The other
    sections are returned as read.
    """
    if isinstance(source, str):
        try:
            with open(source, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"parse_config: cannot read {source!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"parse_config: {source!r} is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"parse_config: {source!r} is not valid JSON: {exc}") from exc
    else:
        cfg = source
    check_keys(cfg, TOP_KEYS, "top level", ConfigError)
    cfg = dict(cfg)
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    out = overrides.pop("out", None)
    cfg.update(overrides)
    if "data" in cfg:
        check_keys(cfg["data"], DATA_KEYS, "data", ConfigError)
        path = _need(cfg["data"], "path", "data")
        if not isinstance(path, str):
            raise ConfigError(f"parse_config: data.path must be a file name, got {path!r}")
        schema = _need(cfg["data"], "schema", "data")
        check_keys(schema, ROLE_KEYS, "data.schema", ConfigError)
    for key, cls in (("model", ModelSpec), ("visibility", VisibilitySpec), ("design", DesignSpec)):
        if key in cfg:
            cfg[key] = _build(cls, cfg[key], key)
    if "constraints" in cfg:
        if not isinstance(cfg["constraints"], list):
            raise ConfigError("parse_config: 'constraints' must be a list")
        cfg["constraints"] = ConstraintSpec(tuple(_build(ConstraintEntry, entry, f"constraints[{i}]")
                                                  for i, entry in enumerate(cfg["constraints"])))
    if "solver" in cfg:
        check_keys(cfg["solver"], SOLVER_KEYS, "solver", ConfigError)
    if "output" in cfg or out is not None:
        check_keys(cfg.setdefault("output", {}), OUTPUT_KEYS, "output", ConfigError)
        if out is not None:
            cfg["output"] = dict(cfg["output"], path=out)
        path = cfg["output"].get("path", ".")
        if not isinstance(path, str) or not path:
            raise ConfigError(f"parse_config: output.path must be a directory name, got {path!r}")
        fmt = cfg["output"].get("format", "both")
        if fmt not in ("json", "csv", "both"):
            raise ConfigError(f"parse_config: output.format must be json, csv, or both, got {fmt!r}")
    if "estimators" in cfg:
        names = cfg["estimators"]
        if not isinstance(names, list) or not names or not all(isinstance(e, str) for e in names):
            raise ConfigError(f"parse_config: 'estimators' must be a non-empty list of names, got {names!r}")
        unknown = [e for e in names if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(f"parse_config: unknown estimator {unknown[0]!r}; expected one of {ESTIMATORS}")
    for key in OVERRIDES:
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], int)):
            raise ConfigError(f"parse_config: {key!r} must be an integer")
    return cfg


def _required(cfg: dict, key: str, command: str):
    if cfg.get(key) is None:
        hint = f" (config key or --{key})" if key in OVERRIDES else ""
        raise ConfigError(f"run {command}: {key!r} is required{hint}")
    return cfg[key]


def _seed(cfg: dict, command: str) -> int:
    """The seed that ``command`` draws from (the config key, or ``--seed``), which must be non-negative."""
    seed = _required(cfg, "seed", command)
    if seed < 0:
        raise ConfigError(f"run {command}: 'seed' must be non-negative, got {seed}")
    return seed


def _design(cfg: dict, command: str) -> DesignSpec:
    """The ``design`` section of ``simulate`` and ``mc``, which read no section of :data:`FIT_SECTIONS`."""
    for key in FIT_SECTIONS:
        if key in cfg:
            raise ConfigError(f"run {command}: section {key!r} is read by fit only; {command} reads 'design'")
    return _required(cfg, "design", command)


def _outdir(cfg: dict) -> str:
    path = cfg.get("output", {}).get("path", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write_outputs(cfg: dict, stem: str, payload, header, rows, weights=None) -> None:
    """``{stem}.json`` and ``{stem}.csv`` in the output directory, as ``output.format`` asks; beside the
    JSON, ``weights`` (a dict of arrays), if given, go bitwise to ``{stem}_weights.npz``."""
    out = _outdir(cfg)
    fmt = cfg.get("output", {}).get("format", "both")
    if fmt in ("json", "both"):
        write_json(os.path.join(out, f"{stem}.json"), payload)
        if weights is not None:
            np.savez(os.path.join(out, f"{stem}_weights.npz"), **weights)
    if fmt in ("csv", "both"):
        write_csv(os.path.join(out, f"{stem}.csv"), header, rows)


# ---------------------------------------------------------------------------
# Commands

def _cmd_fit(cfg: dict) -> int:
    source = _required(cfg, "data", "fit")
    model = _required(cfg, "model", "fit")
    data = load_dataset(source["path"], source["schema"])
    problem = FitProblem(data, model, cfg.get("constraints", ConstraintSpec()),
                         cfg.get("visibility", VisibilitySpec("given-pi")), **cfg.get("solver", {}))
    problem.cm  # fail fast on unknown constraint columns before any fitting work
    names = tuple(cfg.get("estimators", DEFAULT_ESTIMATORS))
    if any(n in NEEDS_VISIBILITY for n in names):
        problem.fit("ce")  # resolves the visibility first, so a bad source fails before any other fit
    results = {name: dict(vars(problem.fit(name))) for name in names}
    weights = {name: payload.pop("weights") for name, payload in results.items()}
    rows = [[name, *cells] for name, payload in results.items()
            for cells in zip(payload["diagnostics"]["coef_names"], payload["theta"].tolist(), payload["se"].tolist())]
    _write_outputs(cfg, "fit", results, ["estimator", "coefficient", "estimate", "se"], rows, weights)
    return 0 if all(payload["diagnostics"]["converged"] for payload in results.values()) else 2


def _cmd_simulate(cfg: dict) -> int:
    spec = _design(cfg, "simulate")
    seed = _seed(cfg, "simulate")
    rng = np.random.default_rng(seed)
    pop_seed, sample_seed = (int(s) for s in rng.integers(0, 2**62, size=2))
    population = gen_population(spec, pop_seed)
    sample = draw_sample(population, spec, sample_seed)
    constraints = population_constraint_spec(population, spec)
    out = _outdir(cfg)
    write_dataset_csv(os.path.join(out, "population.csv"), population)
    write_dataset_csv(os.path.join(out, "sample.csv"), sample)
    meta = {"seed": seed, "population_rows": population.n, "sample_rows": sample.n,
            "sample_schema": sample.roles,
            "constraints": [asdict(e) for e in constraints.entries]}
    write_json(os.path.join(out, "sim.json"), meta)
    return 0


def _cmd_mc(cfg: dict) -> int:
    spec = _design(cfg, "mc")
    seed = _seed(cfg, "mc")
    reps = _required(cfg, "reps", "mc")
    names = tuple(cfg.get("estimators", DEFAULT_ESTIMATORS))
    summary = run_monte_carlo(spec, names, reps=int(reps), seed=seed, jobs=int(cfg.get("jobs", 1)))
    stats = ("mean", "bias", "sd", "rmse", "mean_se", "coverage")
    rows = [[name, *cells, s.n_converged, s.n_failed] for name, s in summary.estimators.items()
            for cells in zip(summary.coef_names, summary.theta0, *(getattr(s, key).tolist() for key in stats))]
    _write_outputs(cfg, "mc", summary.as_dict(),
                   ["estimator", "coefficient", "theta0", *stats, "n_converged", "n_failed"], rows)
    return 2 if any(s.n_converged == 0 for s in summary.estimators.values()) else 0


def _cmd_decluster(cfg: dict) -> int:
    source = _required(cfg, "data", "decluster")
    data = load_dataset(source["path"], source["schema"])
    seed = _seed(cfg, "decluster")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help or --version
        return 1 if exc.code else 0
    try:
        cfg = parse_config(args.config, {key: getattr(args, key) for key in OVERRIDES + ("out",)})
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
