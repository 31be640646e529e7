"""Write ``references.json``: each workload's numbers for seeds 0-20.

``python3 perfbench/make_references.py`` (from the repository root) runs one
call of every workload per seed and stores what the output check compares:
theta and SE of every estimator for ``fit-csv-256k``, the per-estimator
aggregates of ``mc.json`` for ``mc-d67-jobs2``, and theta of every fit for
``joint-d67-4k`` (null where a fit did not converge).  Rerun it only when a
change is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(21)


def _plain(values: dict, keys) -> dict:
    return {k: np.where(np.isfinite(values[k]), values[k], None).tolist() for k in keys}


def main() -> int:
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(dir=scratch)
            try:
                workloads.write_inputs(name, seed, workdir)
                outcome = cls(workdir).run()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if outcome.errors:
                raise SystemExit(f"{name} seed {seed}: invariant check failed: {outcome.errors}")
            keys = ["theta"] if name == "joint-d67-4k" else list(outcome.values)
            refs[name][str(seed)] = _plain(outcome.values, keys)
            print(name, seed, f"{outcome.failed} of {outcome.attempted} failed", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
