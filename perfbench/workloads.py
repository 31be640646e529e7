"""The benchmark's three workloads: their inputs and one timed operation each.

All inputs come from the d67 design of the acceptance gate
(``tests/test_acceptance.py::_d67_spec``) through elsurvey's own
``simulate`` API, seeded by the benchmark's ``--seed``.

* ``fit-csv-256k``: one ``elsurvey fit`` (in process, through
  ``elsurvey.cli.run_command``) on a CSV of about 256k rows drawn from a
  population of 500,000: ``pl``/``cs``/``ce``, two subgroup-moment
  constraints, gamma-regression visibility on ``v``, JSON and CSV output.
  An operation is one ``fit`` call.
* ``mc-d67-jobs2``: one ``elsurvey mc`` batch of ``MC_REPS`` replicates at
  N=8000 with ``--jobs 2``.  An operation is one replicate.
* ``joint-d67-4k``: ``profile_fit_joint`` over a fixed batch of
  ``JOINT_SAMPLES`` samples at N=8000.  An operation is one fit.

Run as a script, ``python3 perfbench/workloads.py WORKLOAD SEED DIR`` writes
the workload's inputs into ``DIR``; that is the set-up the benchmark times.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from elsurvey import cli, estimators
from elsurvey.data import ConstraintEntry, ConstraintSpec, make_dataset
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population
from elsurvey.visibility import visibility_from_pi

import checks

ESTIMATORS = ("pl", "cs", "ce")
FIT_N = 500_000
MC_N, MC_REPS, MC_JOBS = 8000, 400, 2
# 200 samples, not 40: the share of slow fits (mostly the ones that do not
# converge) depends on the seed, so a small batch makes even the median fit
# time depend on it.
JOINT_N, JOINT_SAMPLES = 8000, 200

D67_DESIGN = {
    "family": "bernoulli-logit",
    "theta0": [-0.9, 0.8, 1.4],
    "covariates": [
        {"name": "x", "dist": "choice", "params": [[-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]]},
        {"name": "v", "dist": "bernoulli", "params": [0.5]},
    ],
    "design": {"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
               "coeffs": {"v": 0.55}, "response_coef": 1.0},
    "terms": ["x", "v"],
    "fit_terms": ["x"],
    "estimand": [-0.17948213, 0.71461978],
    "constraints": [
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
         "group_value": 0.0, "gamma": 0.30617885832653025},
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v",
         "group_value": 1.0, "gamma": 0.6112839324775846},
    ],
    "visibility": {"mode": "given-pi"},
}
SAMPLE_SCHEMA = {"response": "y", "covariates": ["x"], "design": ["v"], "pi": "pi"}


def design_spec(N: int) -> DesignSpec:
    d = D67_DESIGN
    return DesignSpec(N=N, family=d["family"], theta0=tuple(d["theta0"]),
                      covariates=tuple(CovariateSpec(c["name"], c["dist"],
                                                     tuple(tuple(p) if isinstance(p, list) else p
                                                           for p in c["params"]))
                                       for c in d["covariates"]),
                      design=dict(d["design"]), terms=tuple(d["terms"]),
                      fit_terms=tuple(d["fit_terms"]), estimand=tuple(d["estimand"]),
                      constraints=tuple(d["constraints"]), visibility=dict(d["visibility"]))


def _sample(spec, seeds):
    return draw_sample(gen_population(spec, int(seeds[0])), spec, int(seeds[1]))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Generate a workload's inputs from ``seed`` into ``workdir``."""
    rng = np.random.default_rng(seed)
    if workload == "fit-csv-256k":
        sample = _sample(design_spec(FIT_N), rng.integers(0, 2**62, size=2))
        csv_path = os.path.join(workdir, "sample.csv")
        cli.write_dataset_csv(csv_path, sample)
        _write_json(os.path.join(workdir, "fit-config.json"), {
            "data": {"path": csv_path, "schema": SAMPLE_SCHEMA},
            "model": {"family": D67_DESIGN["family"], "terms": D67_DESIGN["fit_terms"]},
            "constraints": D67_DESIGN["constraints"],
            "visibility": {"mode": "gamma-regression", "formula": ["v"]},
            "estimators": list(ESTIMATORS),
            "output": {"format": "both"},
        })
    elif workload == "mc-d67-jobs2":
        _write_json(os.path.join(workdir, "mc-config.json"), {
            "design": dict(D67_DESIGN, N=MC_N), "estimators": list(ESTIMATORS),
            "seed": int(rng.integers(0, 2**31)), "reps": MC_REPS, "jobs": MC_JOBS,
        })
    elif workload == "joint-d67-4k":
        spec = design_spec(JOINT_N)
        arrays = {}
        for k, seeds in enumerate(rng.integers(0, 2**62, size=(JOINT_SAMPLES, 2))):
            sample = _sample(spec, seeds)
            for name in ("x", "v", "y", "pi"):
                arrays[f"{k}.{name}"] = sample.columns[name]
        np.savez(os.path.join(workdir, "joint-samples.npz"), **arrays)
    else:
        raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What one call did: its wall and CPU seconds (this process plus reaped
    workers), operations, failures, the numbers it produced and the errors
    its output check found.  ``unit_walls`` holds the wall time of each
    separately timed part when the call times its operations one by one."""

    wall: float
    cpu: float
    peak_rss_mb: float
    ops: int
    attempted: int
    failed: int
    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    unit_walls: list = field(default_factory=list)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus that of its largest reaped worker."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed(fn, *args):
    """``(result, wall_s, cpu_s, peak_rss_mb)`` of one call; the peak is read
    as the call returns, before the output check parses anything."""
    cpu, start = _cpu_seconds(), time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, _cpu_seconds() - cpu, peak_rss_mb()


class FitCsv:
    name = "fit-csv-256k"
    jobs = 1
    fits_per_op = len(ESTIMATORS)

    def __init__(self, workdir):
        self.config = os.path.join(workdir, "fit-config.json")
        self.out = os.path.join(workdir, "fit-out")

    def run(self, jobs=None) -> Outcome:
        code, wall, cpu, rss = timed(cli.run_command, ["fit", "--config", self.config, "--out", self.out])
        with open(os.path.join(self.out, "fit.json")) as fh:
            payload = json.load(fh)
        errors, failed = checks.fit_invariants(payload, code, ESTIMATORS)
        values = {}
        for name in ESTIMATORS:
            for key in ("theta", "se"):
                values[f"{name}.{key}"] = np.asarray(payload.get(name, {}).get(key, []), dtype=float)
        return Outcome(wall, cpu, rss, ops=1, attempted=len(ESTIMATORS), failed=failed,
                       values=values, errors=errors)

    warm_up = run


class McBatch:
    name = "mc-d67-jobs2"
    jobs = MC_JOBS
    fits_per_op = len(ESTIMATORS)

    def __init__(self, workdir):
        self.config = os.path.join(workdir, "mc-config.json")
        self.out = os.path.join(workdir, "mc-out")

    def run(self, jobs=None) -> Outcome:
        code, wall, cpu, rss = timed(cli.run_command, ["mc", "--config", self.config, "--out", self.out,
                                                       "--jobs", str(jobs or self.jobs)])
        with open(os.path.join(self.out, "mc.json")) as fh:
            summary = json.load(fh)
        errors = checks.mc_invariants(summary, code, MC_REPS)
        values = {}
        for name, s in summary["estimators"].items():
            for key in ("mean", "sd", "mean_se", "coverage", "n_failed"):
                values[f"{name}.{key}"] = np.asarray(s[key], dtype=float)
        failed = sum(s["n_failed"] for s in summary["estimators"].values())
        return Outcome(wall, cpu, rss, ops=MC_REPS, attempted=MC_REPS * len(summary["estimators"]),
                       failed=failed, values=values, errors=errors)

    warm_up = run


class JointBatch:
    name = "joint-d67-4k"
    jobs = 1
    fits_per_op = 1

    def __init__(self, workdir):
        spec = design_spec(JOINT_N)
        self.model = spec.model
        self.constraints = ConstraintSpec(entries=tuple(ConstraintEntry(**c) for c in D67_DESIGN["constraints"]))
        self.samples = []
        with np.load(os.path.join(workdir, "joint-samples.npz")) as arrays:
            for k in range(JOINT_SAMPLES):
                data = make_dataset({c: arrays[f"{k}.{c}"] for c in ("x", "v", "y", "pi")}, SAMPLE_SCHEMA)
                self.samples.append((data, visibility_from_pi(data)))

    def _fit(self, data, vis):
        # Looked up on the module, so the traced run sees the call.
        return estimators.profile_fit_joint(data, self.model, self.constraints, vis)

    def warm_up(self) -> Outcome:
        return self._run(self.samples[:1])

    def run(self, jobs=None) -> Outcome:
        return self._run(self.samples)

    def _run(self, samples) -> Outcome:
        thetas, ses, errors, walls, failed, cpu, rss = [], [], [], [], 0, 0.0, 0.0
        for k, (data, vis) in enumerate(samples):
            res, fit_wall, fit_cpu, rss = timed(self._fit, data, vis)
            walls.append(fit_wall)
            cpu += fit_cpu
            thetas.append(res.theta)
            ses.append(res.se)
            if res.diagnostics["converged"]:
                errors.extend(f"sample {k}: {e}" for e in checks.joint_invariants(
                    res.theta, res.se, res.diagnostics["constraint_residual"]))
            else:
                failed += 1
        return Outcome(sum(walls), cpu, rss, ops=len(samples), attempted=len(samples), failed=failed,
                       values={"theta": np.vstack(thetas), "se": np.vstack(ses)}, errors=errors,
                       unit_walls=walls)


WORKLOADS = {cls.name: cls for cls in (FitCsv, McBatch, JointBatch)}


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
