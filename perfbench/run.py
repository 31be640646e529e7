"""Benchmark of ``elsurvey fit``, ``elsurvey mc`` and the ce-joint fit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-csv-256k --seed 1 --seconds 20 --trace 0

It sets up the workload's inputs ``SETUP_REPEATS`` times, each in a fresh
interpreter (package import plus input generation, the median is
``setup_s``), then runs ``measure.py`` in a child process with one BLAS thread.
The last line of standard output is the result as one JSON object; the
metric names and units are those of ``BENCHMARK.json``.  Nothing outside
the checkout is read or written; scratch files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-csv-256k", "mc-d67-jobs2", "joint-d67-4k")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


def child_env() -> dict:
    # One BLAS thread, so workers x BLAS threads <= nproc whenever the MC
    # pool has at most one worker per CPU.  On the one-process workloads,
    # whose matrices have two or three columns, a second thread made
    # `elsurvey fit` about 30% slower and noisier on a 2-CPU machine.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_sha() -> str:
    # Asked here, not in measure.py: a child forked there would count that
    # process's resident set in its peak RSS.
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def result_line(measured: dict, declared: list, extra: dict) -> dict:
    """Attach the declared units; every declared metric must have been measured."""
    values = dict(measured, **extra)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "elsurvey", "__init__.py")):
        print(f"error: no elsurvey sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    env = child_env()
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
                            str(args.seed), workdir], env=env, check=True, timeout=SETUP_TIMEOUT_S)
            setup.append(time.perf_counter() - start)
        subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), args.workload, str(args.seed),
                        workdir, str(args.seconds), str(args.trace), git_sha()],
                       env=env, check=True, timeout=MEASURE_TIMEOUT_S)
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(setup)
    if args.trace:
        declared, extra = bench["per_layer"], {}
    else:
        declared, extra = bench["end_to_end"], {"setup_s": setup_s}
        print(f"  {'setup_s':<18}{setup_s:.4f} s (median of {SETUP_REPEATS} set-ups: "
              + ", ".join(f"{s:.3f}" for s in setup) + ")")
    try:
        result["metrics"] = result_line(result["metrics"], declared, extra)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
