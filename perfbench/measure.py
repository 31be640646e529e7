"""Time, check and optionally trace one workload; started by ``run.py``.

``python3 perfbench/measure.py WORKLOAD SEED WORKDIR SECONDS TRACE GIT_SHA`` expects
the inputs ``workloads.py`` wrote into ``WORKDIR``, prints a readable report
and writes ``WORKDIR/result.json`` (everything of the result line except
``setup_s``, which ``run.py`` measures).

With TRACE 0 it runs WARM_UP_CALLS untimed calls and then timed calls for SECONDS.
With TRACE 1 it runs, in turn, an untraced call and a traced one (both with
one worker, so every span lands in this process), and for a workload with a
process pool also an untraced call at the workload's worker count, whose
CPU time gives ``simulate.pool_cpu_frac``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

import checks
import spans
import workloads

MIN_SAMPLES = 3
# The first calls of a process run slower while the allocator's heap grows.
WARM_UP_CALLS = 2


def _iterations(args, kwargs, result):
    return {"elcore.dual_iterations": result.iterations}


def _newton(args, kwargs, result):
    return {"estimators.newton_iterations": result.diagnostics.get("newton_iterations", 0)}


def _outer(args, kwargs, result):
    return {"estimators.joint_outer_iterations": result.diagnostics.get("outer_iterations", 0)}


# Public functions timed in the traced run, with the counters read from each call.
TARGETS = {
    "cli.parse_config": None,
    "cli.write_json": lambda args, kwargs, result: {"cli.write_json.bytes": os.path.getsize(args[0])},
    "cli.write_csv": None,
    "data.load_dataset": lambda args, kwargs, result: {"data.load_dataset.rows": result.n},
    "data.make_dataset": None,
    "data.build_constraint_matrix": None,
    "visibility.estimate_visibility": None,
    "visibility.visibility_from_pi": None,
    "glm.design_matrix": None,
    "glm.irls_fit": None,
    "glm.score": None,
    "glm.score_jacobian": None,
    "elcore.solve_el": _iterations,
    "elcore.solve_weighted_el": _iterations,
    "estimators.fit_pl": _newton,
    "estimators.fit_cs": _newton,
    "estimators.fit_ce": _newton,
    "estimators.profile_fit_joint": _outer,
    "variance.components_from_arrays": None,
    "variance.assemble_covariance": None,
    "simulate.run_monte_carlo": None,
    "simulate.gen_population": None,
    "simulate.draw_sample": None,
    "simulate.population_constraint_spec": None,
}
MODULES = ("cli", "data", "visibility", "glm", "elcore", "estimators", "variance", "simulate")
INCLUSIVE = ("cli.write_json", "cli.write_csv", "data.load_dataset", "data.make_dataset",
             "data.build_constraint_matrix", "visibility.estimate_visibility", "glm.irls_fit",
             "elcore.solve_el", "elcore.solve_weighted_el", "variance.components_from_arrays",
             "variance.assemble_covariance", "simulate.gen_population", "simulate.draw_sample",
             "simulate.population_constraint_spec")
SELF = ("estimators.fit_pl", "estimators.fit_cs", "estimators.fit_ce", "estimators.profile_fit_joint")
PER_FIT = ("data.build_constraint_matrix", "glm.irls_fit", "glm.design_matrix", "elcore.solve_el")
PER_OP = ("glm.score", "glm.score_jacobian")
TWO_STEP = ("estimators.fit_pl", "estimators.fit_cs", "estimators.fit_ce")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: dict, counts, ops: int, fits: int) -> dict:
    """Per-layer metrics from a :func:`spans.summarize` table and the counters.

    ``.s`` is inclusive seconds per operation, ``.self_s`` self seconds per
    operation, ``.calls_per_fit`` calls per estimator fit, ``.calls`` calls
    per operation; iteration counts are means per call of the function they
    come from.  A function the workload never calls reads 0.
    """
    f = table["functions"]

    def get(name, key):
        return f.get(name, {}).get(key, 0)

    m = {f"{n}.s": get(n, "total_s") / ops for n in INCLUSIVE}
    m.update({f"{n}.self_s": get(n, "self_s") / ops for n in SELF})
    m.update({f"{n}.calls_per_fit": get(n, "calls") / fits for n in PER_FIT})
    m.update({f"{n}.calls": get(n, "calls") / ops for n in PER_OP})
    for module in MODULES:
        m[f"{module}.self_s"] = sum(row["self_s"] for name, row in f.items()
                                    if name.split(".")[0] == module) / ops
    m["cli.write_json.mb"] = counts["cli.write_json.bytes"] / 1e6 / ops
    m["data.load_dataset.rows_per_s"] = _ratio(counts["data.load_dataset.rows"],
                                               get("data.load_dataset", "total_s"))
    m["elcore.dual_iterations_per_call"] = _ratio(
        counts["elcore.dual_iterations"], get("elcore.solve_el", "calls") + get("elcore.solve_weighted_el", "calls"))
    m["estimators.newton_iterations"] = _ratio(counts["estimators.newton_iterations"],
                                               sum(get(n, "calls") for n in TWO_STEP))
    m["estimators.joint_outer_iterations"] = _ratio(counts["estimators.joint_outer_iterations"],
                                                    get("estimators.profile_fit_joint", "calls"))
    return m


def median_rate(outcomes) -> float:
    """Median, over the separately timed parts of all calls, of operations
    completed per second: one fit call, one MC batch, or one ce-joint fit."""
    return statistics.median(o.ops / len(o.unit_walls or [o.wall]) / w
                             for o in outcomes for w in (o.unit_walls or [o.wall]))


def provenance(git_sha: str, jobs: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "jobs": jobs, "git_sha": git_sha}


class Checker:
    """Checks each call's output against the references, the invariants and
    the first call's numbers; a call that fails a check counts as failed."""

    def __init__(self, reference):
        self.reference = reference
        self.baseline = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.differing: set[str] = set()  # labels of calls whose numbers differed

    def __call__(self, outcome, label: str):
        errors = list(outcome.errors)
        if self.reference is not None:
            errors += checks.compare_to_reference(outcome.values, self.reference)
        if self.baseline is None:
            self.baseline = outcome.values
        else:
            diff = checks.same_bits(self.baseline, outcome.values)
            if diff:
                self.differing.add(label)
                errors.append(f"{label} output differs from the first untraced call in {diff}")
        self.attempted += outcome.attempted
        self.failed += outcome.attempted if errors else outcome.failed
        self.errors += errors
        return outcome


def timed_loop(seconds: float, step) -> None:
    """Call ``step`` at least MIN_SAMPLES times, and again while the next call
    is expected to end within ``seconds`` of the start."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n < MIN_SAMPLES or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        step()
        last = time.perf_counter() - t
        n += 1


def warm_up(wl) -> float:
    """Make the untimed calls; return the peak RSS at the end of the first,
    which is what one call needs in a fresh process (later calls can raise
    it by a varying amount as the heap fragments)."""
    first = wl.warm_up()
    for _ in range(WARM_UP_CALLS - 1):
        wl.warm_up()
    return first.peak_rss_mb


def run_untraced(wl, check: Checker, seconds: float) -> tuple[dict, list]:
    peak = warm_up(wl)
    outcomes = []
    timed_loop(seconds, lambda: outcomes.append(check(wl.run(), "untraced")))
    return {"ops_per_s": median_rate(outcomes), "peak_rss_mb": peak}, outcomes


def run_traced(wl, check: Checker, seconds: float) -> tuple[dict, spans.Tracer, list, list]:
    warm_up(wl)
    tracer = spans.Tracer(TARGETS)
    plain, traced, pooled = [], [], []

    def step():
        if wl.jobs > 1:
            pooled.append(check(wl.run(), "untraced"))
        plain.append(check(wl.run(jobs=1), "untraced one-worker"))
        with tracer:
            traced.append(check(wl.run(jobs=1), "traced"))

    timed_loop(seconds, step)
    table = spans.summarize(tracer.spans)
    ops = sum(o.ops for o in traced)
    traced_wall = sum(o.wall for o in traced)
    metrics = layer_metrics(table, tracer.counts, ops, ops * wl.fits_per_op)
    pool = pooled or plain
    metrics["simulate.pool_cpu_frac"] = statistics.median(o.cpu / (o.wall * wl.jobs) for o in pool)
    metrics["trace.overhead_frac"] = traced_wall / sum(o.wall for o in plain) - 1.0
    metrics["trace.unattributed_frac"] = (traced_wall - table["root_s"]) / traced_wall
    return metrics, tracer, table, traced


def report_untraced(name, metrics, outcomes, check):
    walls = [o.wall for o in outcomes]
    print(f"{name}: {len(outcomes)} timed calls after {WARM_UP_CALLS} warm-up calls")
    if name == "fit-csv-256k":
        print(f"  {'fit_s':<18}{statistics.median(walls):.4f} s (median wall of one elsurvey fit)")
    elif name == "mc-d67-jobs2":
        print(f"  {'mc_reps_per_s':<18}{metrics['ops_per_s']:.4f} 1/s (median over elsurvey mc calls)")
    else:
        print(f"  {'joint_fits_per_s':<18}{sum(o.ops for o in outcomes) / sum(walls):.4f} 1/s"
              " (fits attempted over their summed wall time)")
    print(f"  {'ops_per_s':<18}{metrics['ops_per_s']:.6g} 1/s (median over timed parts)")
    print(f"  {'peak_rss_mb':<18}{metrics['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_frac':<18}{_ratio(check.failed, check.attempted):.4f} ratio "
          f"({check.failed} of {check.attempted} attempted)")


def report_traced(name, metrics, table, traced):
    ops = sum(o.ops for o in traced)
    wall = sum(o.wall for o in traced) / ops
    print(f"{name}: traced breakdown, seconds per operation over {ops} operations")
    rows = sorted(table["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"  {'function':<38}{'calls/op':>10}{'total_s':>12}{'self_s':>12}")
    for fn, row in rows:
        print(f"  {fn:<38}{row['calls'] / ops:>10.2f}{row['total_s'] / ops:>12.6f}{row['self_s'] / ops:>12.6f}")
    module_self = sum(metrics[f"{m}.self_s"] for m in MODULES)
    print(f"  traced wall {wall:.6f} s = module self {module_self:.6f} s"
          f" + unattributed {wall - module_self:.6f} s ({metrics['trace.unattributed_frac']:.2%})")
    print(f"  tracing overhead {metrics['trace.overhead_frac']:+.2%}")
    for key in sorted(metrics):
        print(f"  {key:<46}{metrics[key]:.6g}")


def write_trace(path, tracer, table, prov):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "summary": table, "counts": dict(tracer.counts),
                   "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]}, fh)


def main(argv) -> int:
    name, seed, workdir, seconds, trace = argv[0], int(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    wl = workloads.WORKLOADS[name](workdir)
    prov = provenance(argv[5], wl.jobs)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    check = Checker(checks.load_reference(name, seed))
    if trace:
        metrics, tracer, table, traced = run_traced(wl, check, seconds)
        report_traced(name, metrics, table, traced)
        print(f"  theta/SE bitwise identical traced vs untraced: {'no' if 'traced' in check.differing else 'yes'}")
        trace_path = os.path.join(os.path.dirname(workdir), f"trace-{name}-seed{seed}.json")
        write_trace(trace_path, tracer, table, prov)
        print(f"  spans written to {os.path.relpath(trace_path, root)}")
    else:
        metrics, outcomes = run_untraced(wl, check, seconds)
        report_untraced(name, metrics, outcomes, check)
    for err in check.errors[:20]:
        print(f"  check failed: {err}")
    result = {"correct": not check.errors, "attempted": check.attempted, "failed": check.failed,
              "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
