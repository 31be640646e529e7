"""End-to-end check of the ``elsurvey`` commands, written on the standard library alone.

Its arguments run the CLI: ``python tests/runtime_check.py elsurvey`` after ``pip install -e .`` (no
extras), or ``PYTHONPATH=src python tests/runtime_check.py python -m elsurvey`` from a checkout.  In a
temporary directory it runs these checks in order, each named after the CI step it replaced; the first
that fails exits 1 with a traceback after its name.

1. write configs: six configs and a six-row CSV of three families.
2. simulate: ``simulate --seed 7`` of the design exits 0.
3. fit: ``fit`` of its sample, with one constraint and gamma-regression visibility, exits 0.
4. fit with no constraints: exits 0; ``cs`` is ``pl`` (its dual takes no step) and ``ce-joint`` is ``ce``,
   each converged, bit for bit: the same ``fit.json`` text (``repr``, one text per double) in theta, se,
   covariance, multiplier, Bp_hat and logEL, and the same bytes in ``fit_weights.npz``.
5. mc: ``mc --seed 11 --reps 20 --jobs 2`` of the design exits 0.
6. artifacts: ``fit.json``, ``mc.json`` and ``sim.json`` are strict JSON, and ``fit.csv`` holds the
   doubles of ``fit.json``'s theta.
7. simulate a mask_latent design: exits 0, and the sample is weighted by ``w`` (weight_mode ``direct``)
   with no ``pi`` or ``latent``, in its schema and in ``sample.csv``.
8. fit the mask_latent sample: exits 0 with pl, cs, ce and ce-joint in that order, each converged.
9. decluster: exits 0 and keeps one row for each family.
10. usage error exits 1: ``fit`` without ``--config`` exits 1 and names ``--config``.
"""

import csv
import json
import struct
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ESTIMATORS = ["pl", "cs", "ce", "ce-joint"]


def write_configs(root):
    population = {"N": 4000, "family": "bernoulli-logit", "theta0": [-0.9, 0.8, 1.4],
                  "covariates": [{"name": "x", "dist": "choice", "params": [[-1, 0, 1], [0.3, 0.3, 0.4]]},
                                 {"name": "v", "dist": "bernoulli", "params": [0.5]}],
                  "terms": ["x", "v"]}
    constraint = {"kind": "subgroup-moment", "target_column": "y", "group_column": "v", "group_value": 1}
    visibility = {"mode": "gamma-regression", "formula": ["v"]}

    def fit(sample, out, weight, constraints):
        return {"data": {"path": f"{root}/{sample}",
                         "schema": {"response": "y", "covariates": ["x", "v"], **weight, "design": ["v"]}},
                "model": {"family": "bernoulli-logit", "terms": ["x", "v"]}, "constraints": constraints,
                "visibility": visibility, "estimators": ESTIMATORS, "output": {"path": f"{root}/{out}"}}

    configs = {
        "design": {"design": {**population, "constraints": [constraint],
                              "design": {"kind": "poisson", "lo": 0.3, "hi": 0.7, "coeffs": {"v": 0.55},
                                         "response_coef": 1.0}},
                   "output": {"path": f"{root}/sim"}},
        "fit": fit("sim/sample.csv", "fit", {"pi": "pi"}, [{**constraint, "gamma": 0.6}]),
        "fit-free": fit("sim/sample.csv", "fit-free", {"pi": "pi"}, []),
        "masked": {"design": {**population, "visibility": visibility,
                              "design": {"kind": "poisson", "lo": 0.2, "hi": 0.8, "coeffs": {"v": 0.6},
                                         "response_coef": 0.8, "latent_sd": 0.7, "mask_latent": True}},
                   "output": {"path": f"{root}/masked"}},
        "fit-masked": fit("masked/sample.csv", "fit-masked", {"weight": "w"}, [{**constraint, "gamma": 0.6}]),
        "decluster": {"data": {"path": f"{root}/families.csv",
                               "schema": {"response": "y", "covariates": ["x"], "family": "fam", "weight": "w"}},
                      "seed": 3, "output": {"path": f"{root}/dc"}},
    }
    for name, cfg in configs.items():
        (root / f"{name}.json").write_text(json.dumps(cfg))
    (root / "families.csv").write_text("y,x,fam,w\n1,0.1,7,1\n0,0.2,3,2\n1,0.3,7,1\n0,0.4,5,0.5\n1,0.5,3,2\n"
                                       "0,0.6,7,1\n")


def strict_json(path):
    def reject(token):
        raise AssertionError(f"{path} holds the non-JSON token {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def main(command):
    if not command or not __debug__:
        sys.exit("usage: python tests/runtime_check.py COMMAND...  (not under -O, which strips the checks)")

    def elsurvey(*args, status=0):
        proc = subprocess.run([*command, *args], capture_output=True, text=True, timeout=600)
        assert proc.returncode == status, f"{args} exited {proc.returncode}, not {status}:\n{proc.stderr}"
        return proc.stderr

    sys.stdout.reconfigure(line_buffering=True)  # each check's name comes before its traceback
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        print("-- write configs")
        write_configs(root)
        print("-- simulate")
        elsurvey("simulate", "--config", f"{root}/design.json", "--seed", "7")
        print("-- fit")
        elsurvey("fit", "--config", f"{root}/fit.json")
        print("-- fit with no constraints, where cs is pl and ce-joint is ce, bit for bit")
        elsurvey("fit", "--config", f"{root}/fit-free.json")
        fits = strict_json(root / "fit-free" / "fit.json")
        with zipfile.ZipFile(root / "fit-free" / "fit_weights.npz") as stored:  # one .npy file per estimator
            for pair in (("cs", "pl"), ("ce-joint", "ce")):
                assert all(fits[name]["diagnostics"]["converged"] for name in pair), pair
                for key in ("theta", "se", "covariance", "multiplier", "Bp_hat", "logEL"):
                    assert json.dumps(fits[pair[0]][key]) == json.dumps(fits[pair[1]][key]), (pair, key)
                assert stored.read(f"{pair[0]}.npy") == stored.read(f"{pair[1]}.npy"), pair
        print("-- mc")
        elsurvey("mc", "--config", f"{root}/design.json", "--seed", "11", "--out", f"{root}/mc", "--reps", "20",
                 "--jobs", "2")
        print("-- artifacts are strict JSON, and fit.csv holds the fit.json estimates")
        fits, _, _ = (strict_json(root / path) for path in ("fit/fit.json", "mc/mc.json", "sim/sim.json"))
        with open(root / "fit" / "fit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(len(fit["theta"]) for fit in fits.values()), len(rows)
        for row in rows:
            fit = fits[row["estimator"]]
            value = fit["theta"][fit["diagnostics"]["coef_names"].index(row["coefficient"])]
            assert type(value) is float, row
            assert struct.pack("<d", value) == struct.pack("<d", float(row["estimate"])), (row, value)
        print("-- simulate a mask_latent design, whose sample is weighted by w and holds no pi")
        elsurvey("simulate", "--config", f"{root}/masked.json", "--seed", "5")
        schema = strict_json(root / "masked" / "sim.json")["sample_schema"]
        assert schema["weight"] == "w" and schema["weight_mode"] == "direct" and "pi" not in schema, schema
        header = (root / "masked" / "sample.csv").read_text(encoding="utf-8").split("\n", 1)[0].strip().split(",")
        assert "w" in header and "pi" not in header and "latent" not in header, header
        print("-- fit the mask_latent sample with gamma-regression visibility")
        elsurvey("fit", "--config", f"{root}/fit-masked.json")
        fits = strict_json(root / "fit-masked" / "fit.json")
        assert list(fits) == ESTIMATORS and all(fit["diagnostics"]["converged"] for fit in fits.values()), fits
        print("-- decluster")
        elsurvey("decluster", "--config", f"{root}/decluster.json")
        assert (root / "dc" / "declustered.csv").read_bytes().count(b"\n") == 4, "not a header and a row per family"
        print("-- usage error exits 1")
        assert "--config" in elsurvey("fit", status=1)
    print("all checks passed")


if __name__ == "__main__":
    main(sys.argv[1:])
