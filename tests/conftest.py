"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elsurvey
from elsurvey.data import make_dataset


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
