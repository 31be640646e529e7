"""Golden θ and SE for the README config, held to 1e-12 relative.

The README config is ``elsurvey simulate`` on a 20,000-unit d67 design at
seed 7, then ``elsurvey fit`` of the README's minimal fit config with all
four estimators, once with given-pi visibility and once with a
gamma-regression of the design weights on ``v``.  ``golden/readme_config.json``
holds the θ and SE of those fits as computed by the row-major numeric core
(before every weighted Gram became ``(X.T * v) @ Y`` over contiguous
columns).  The layout moves the last bits of each sum, so this is the stated
tolerance of that change and of any later one that reorders the arithmetic.
The ``ce-joint`` entries are copies of the ``ce`` ones: ``ce-joint`` is the
``ce`` fit under its own name.
"""

import json
import os

import numpy as np

from elsurvey.cli import run_command

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "readme_config.json")
RTOL = 1e-12
ESTIMATORS = ["pl", "cs", "ce", "ce-joint"]
VISIBILITY = {"given-pi": {"mode": "given-pi"},
              "gamma-regression": {"mode": "gamma-regression", "formula": ["v"]}}
DESIGN = {
    "N": 20000,
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
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v", "group_value": 0.0},
        {"kind": "subgroup-moment", "target_column": "y", "group_column": "v", "group_value": 1.0},
    ],
}


def _write(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def readme_config_fits(tmp_path) -> dict:
    """``{visibility: {estimator: {"theta": [...], "se": [...]}}}`` of the README config."""
    sim = tmp_path / "sim"
    assert run_command(["simulate", "--config", _write(tmp_path / "design.json", {
        "design": DESIGN, "seed": 7, "output": {"path": str(sim)}})]) == 0
    out = {}
    for mode, visibility in VISIBILITY.items():
        fit_dir = tmp_path / mode
        cfg = {
            "data": {"path": str(sim / "sample.csv"),
                     "schema": {"response": "y", "covariates": ["x", "v"], "pi": "pi"}},
            "model": {"family": "bernoulli-logit", "terms": ["x", "v"]},
            "constraints": [{"kind": "subgroup-moment", "target_column": "y",
                             "group_column": "v", "group_value": 1.0, "gamma": 0.61}],
            "visibility": visibility,
            "estimators": ESTIMATORS,
            "output": {"path": str(fit_dir)},
        }
        assert run_command(["fit", "--config", _write(tmp_path / f"{mode}.json", cfg)]) == 0
        with open(fit_dir / "fit.json") as fh:
            fits = json.load(fh)
        out[mode] = {name: {"theta": fits[name]["theta"], "se": fits[name]["se"]} for name in ESTIMATORS}
    return out


def test_the_readme_config_fits_match_the_golden_values_to_1e_12(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = readme_config_fits(tmp_path)
    assert set(got) == set(golden) == set(VISIBILITY)
    for mode in VISIBILITY:
        assert set(got[mode]) == set(golden[mode]) == set(ESTIMATORS)
        for key in ("theta", "se"):
            assert np.asarray(got[mode]["ce-joint"][key]).tobytes() == np.asarray(got[mode]["ce"][key]).tobytes()
        for name in ESTIMATORS:
            for key in ("theta", "se"):
                want = np.asarray(golden[mode][name][key])
                assert np.all(np.isfinite(want)), (mode, name, key)
                np.testing.assert_allclose(got[mode][name][key], want, rtol=RTOL, atol=0.0,
                                           err_msg=f"{mode} {name} {key}")

