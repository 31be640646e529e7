"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import elsurvey
from elsurvey import elcore
from elsurvey.data import make_dataset
from elsurvey.simulate import CovariateSpec, DesignSpec


def dataset_from(columns, **roles):
    """Build a Dataset from plain dicts plus keyword roles."""
    cols = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
    return make_dataset(cols, roles)


# Logit samples with no finite maximum-likelihood fit: completely separated (y = 1 exactly when
# x > 0), and quasi-completely separated (the x = 0 rows have both responses) with every x = 1 row
# at y = 1 or, on the negative side, at y = 0.  There a Newton from theta = 0 that stopped on the
# score's max-norm would stop near eta = -23 at 1e-10, where no fitted probability rounds to 0.
SEPARATED_LOGIT = {
    "complete": {"x": [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], "y": [0, 0, 0, 1, 1, 1],
                 "pi": np.linspace(0.3, 0.7, 6)},
    "quasi": {"x": [0, 0, 0, 0, 1, 1, 1, 1], "y": [0, 1, 0, 1, 1, 1, 1, 1], "pi": np.linspace(0.3, 0.7, 8)},
    "quasi-negative": {"x": [0, 0, 0, 0, 0, 1, 1, 1, 1], "y": [1, 0, 1, 0, 1, 0, 0, 0, 0],
                       "pi": np.linspace(0.3, 0.7, 9)},
}


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter, which has loaded no module of the tests."""
    src = str(Path(elsurvey.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                          timeout=120).stdout


# Page-fault counts read through `resource` and depend on glibc's malloc limits.
needs_glibc = pytest.mark.skipif(importlib.util.find_spec("resource") is None or platform.libc_ver()[0] != "glibc",
                                 reason="counts minor page faults under glibc's malloc")


# A longdouble reference resolves round-off below float64's only where longdouble is wider than double.
needs_wide_longdouble = pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                                           reason="np.longdouble is no wider than float64 here")


def refit_faults(setup: str, refits: int) -> int:
    """Minor page faults of ``refits`` calls of the ``fit()`` that ``setup`` defines, after one untimed call.

    Runs in a fresh interpreter, so the heap is the package's alone.
    """
    code = setup + f"""
import resource
fit()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({refits}):
    fit()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""
    return int(fresh_python(code))


def traced_peak(call) -> int:
    """Bytes of the ``tracemalloc`` peak of ``call()`` above what was traced at its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def rejected_candidates(monkeypatch, module) -> list:
    """The iterates, in order, at which the ``evaluate`` that ``module`` passes to ``damped_newton`` gives None."""
    rejected, newton = [], elcore.damped_newton

    def recording(evaluate, x, *args):
        def checked(x):
            ev = evaluate(x)
            if ev is None:
                rejected.append(x)
            return ev
        return newton(checked, x, *args)

    monkeypatch.setattr(module, "damped_newton", recording)
    return rejected


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_feasible_u(rng, n, q, scale=1.0):
    """Random constraint matrix with the origin inside the convex hull.

    Centers each column at its own mean so that zero is an interior point of
    the hull with probability one for continuous draws.
    """
    U = rng.normal(size=(n, q)) * scale
    return U - U.mean(axis=0, keepdims=True)


def d9_spec():
    """Two strata with a 10x rate ratio, 14 age-by-z cell benchmarks and 9 logistic coefficients."""
    pz = 0.35
    age_eff = {1: 0.0, 2: 0.3, 3: 0.6, 4: 0.9, 5: 1.2, 6: 1.5, 7: 1.8}
    theta0 = [-1.2, 0.7] + [age_eff[a] for a in range(2, 8)] + [0.4]
    cells = list(range(14))
    probs = [(1.0 - pz) / 7.0] * 7 + [pz / 7.0] * 7
    ages = [c % 7 + 1 for c in cells]
    zs = [0.0 if c < 7 else 1.0 for c in cells]
    constraints = []
    for c in cells:
        lp0 = -1.2 + 0.7 * zs[c] + age_eff[ages[c]]
        gam = float(np.mean(expit(lp0 + 0.4 * np.array([-1.0, 0.0, 1.0]))))
        constraints.append({"kind": "subgroup-moment", "target_column": "y",
                            "group_column": "cell", "group_value": float(c),
                            "gamma": gam})
    terms = ("z",) + tuple(f"age_{a}" for a in range(2, 8)) + ("u",)
    return DesignSpec(
        N=30_000,
        family="bernoulli-logit",
        theta0=tuple(theta0),
        covariates=(
            CovariateSpec("cell", "choice", (tuple(float(c) for c in cells), tuple(probs))),
            CovariateSpec("z", "map", ("cell", tuple(float(c) for c in cells), tuple(zs))),
            CovariateSpec("age", "map", ("cell", tuple(float(c) for c in cells),
                                         tuple(float(a) for a in ages))),
            CovariateSpec("u", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
        ),
        design={"kind": "two-strata", "column": "z", "rates": (0.05, 0.5),
                "family_sizes": {"values": (1.0, 2.0, 3.0), "probs": (0.3, 0.4, 0.3)}},
        terms=terms,
        dummies={"age": tuple(float(a) for a in range(2, 8))},
        constraints=tuple(constraints),
    )
