"""Tests of the benchmark's helpers: self-time arithmetic, rates, output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from elsurvey import estimators, glm  # noqa: E402
from elsurvey.data import make_dataset  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- self time -------------------------------------------------------------

def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.union_length([(5, 6), (0, 1), (0.5, 0.75)]) == 2.0


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 4] (which has child [2, 3]) and [5, 6]
    sp = [["a", 0.0, 10.0, spans.ROOT], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]
    # overlapping children (not produced by single-threaded code) are covered once
    sp = [["a", 0.0, 10.0, spans.ROOT], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
    assert spans.self_times(sp)[0] == 5.0


def test_summarize_self_times_add_up_to_root_time():
    sp = [["m.f", 0.0, 10.0, spans.ROOT], ["m.g", 1.0, 4.0, 0], ["n.h", 2.0, 3.0, 1],
          ["m.g", 5.0, 6.0, 0], ["n.h", 12.0, 13.5, spans.ROOT]]
    table = spans.summarize(sp)
    assert table["root_s"] == 11.5
    assert table["functions"]["m.g"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert table["functions"]["n.h"]["self_s"] == 2.5
    assert sum(row["self_s"] for row in table["functions"].values()) == table["root_s"]


def _small_problem():
    rng = np.random.default_rng(3)
    n = 300
    x = rng.normal(size=n)
    y = (rng.random(n) < 1 / (1 + np.exp(-0.3 - 0.8 * x))).astype(float)
    g = (rng.random(n) < 0.5).astype(float)
    pi = rng.uniform(0.3, 0.7, size=n)
    data = make_dataset({"x": x, "y": y, "g": g, "pi": pi}, {"response": "y", "covariates": ["x"], "pi": "pi"})
    from elsurvey.data import ConstraintEntry, ConstraintSpec
    cons = ConstraintSpec(entries=(ConstraintEntry("subgroup-moment", "y", float(y[g == 1].mean()), "g", 1.0),))
    return data, glm.ModelSpec("bernoulli-logit", ("x",)), cons


def test_tracer_patches_every_holder_restores_them_and_changes_no_number():
    data, model, cons = _small_problem()
    plain = estimators.fit_cs(data, model, cons)
    originals = (estimators.solve_weighted_el, glm.design_matrix, estimators.design_matrix)
    tracer = spans.Tracer(measure.TARGETS)
    with tracer:
        assert estimators.solve_weighted_el is not originals[0]
        traced = estimators.fit_cs(data, model, cons)
    assert (estimators.solve_weighted_el, glm.design_matrix, estimators.design_matrix) == originals
    assert traced.theta.tobytes() == plain.theta.tobytes()
    assert traced.se.tobytes() == plain.se.tobytes()
    table = spans.summarize(tracer.spans)["functions"]
    assert table["estimators.fit_cs"]["calls"] == 1
    assert table["glm.design_matrix"]["calls"] >= 1  # called inside glm.score through glm's global
    root = [s for s in tracer.spans if s[3] == spans.ROOT]
    assert [s[0] for s in root] == ["estimators.fit_cs"]
    assert tracer.counts["elcore.dual_iterations"] == traced.diagnostics["el_iterations"]
    assert tracer.counts["estimators.newton_iterations"] == traced.diagnostics["newton_iterations"]


# --- per-layer arithmetic and rates -----------------------------------------

def test_layer_metrics_normalize_per_operation_and_per_fit():
    table = {"functions": {
        "elcore.solve_el": {"calls": 6, "total_s": 3.0, "self_s": 3.0},
        "estimators.fit_ce": {"calls": 2, "total_s": 8.0, "self_s": 1.0},
        "data.load_dataset": {"calls": 2, "total_s": 4.0, "self_s": 3.5},
        "glm.score": {"calls": 10, "total_s": 1.0, "self_s": 1.0},
    }, "root_s": 12.0}
    counts = {"elcore.dual_iterations": 18, "estimators.newton_iterations": 8,
              "data.load_dataset.rows": 1000, "cli.write_json.bytes": 4e6,
              "estimators.joint_outer_iterations": 0}
    m = measure.layer_metrics(table, counts, ops=2, fits=4)
    assert m["elcore.solve_el.s"] == 1.5
    assert m["elcore.solve_el.calls_per_fit"] == 1.5
    assert m["elcore.dual_iterations_per_call"] == 3.0
    assert m["estimators.fit_ce.self_s"] == 0.5
    assert m["estimators.newton_iterations"] == 4.0
    assert m["estimators.joint_outer_iterations"] == 0.0
    assert m["data.load_dataset.rows_per_s"] == 250.0
    assert m["data.self_s"] == 1.75
    assert m["glm.score.calls"] == 5.0
    assert m["cli.write_json.mb"] == 2.0
    assert m["simulate.gen_population.s"] == 0.0


def test_median_rate_is_ops_over_wall_per_call():
    outs = [workloads.Outcome(wall=w, cpu=w, peak_rss_mb=1.0, ops=400, attempted=1200, failed=0)
            for w in (2.0, 4.0, 1.0)]
    assert measure.median_rate(outs) == 200.0


def test_timed_loop_runs_the_minimum_and_stops_on_budget():
    calls = []
    measure.timed_loop(0.0, lambda: calls.append(1))
    assert len(calls) == measure.MIN_SAMPLES


# --- output checks ----------------------------------------------------------

def test_compare_to_reference_tolerance_and_nan_rules():
    ref = {"a": [1.0, 2.0, float("nan")], "b": [0.5]}
    assert checks.compare_to_reference({"a": [1.0 + 1e-9, 2.0, 7.0], "b": [0.5]}, ref) == []
    errs = checks.compare_to_reference({"a": [1.0 + 1e-4, 2.0, 7.0], "b": [0.5]}, ref)
    assert len(errs) == 1 and errs[0].startswith("a:")
    errs = checks.compare_to_reference({"a": [float("nan"), 2.0, 7.0]}, ref)
    assert any("not finite" in e for e in errs) and any(e.startswith("b:") for e in errs)
    assert checks.compare_to_reference({"a": [1.0, 2.0], "b": [0.5]}, ref)[0].startswith("a: shape")


def _fit_payload(theta=(0.1, 0.2), se=(0.01, 0.02), resid=0.0, converged=True):
    return {"theta": list(theta), "se": list(se),
            "diagnostics": {"converged": converged, "constraint_residual": resid}}


def test_fit_invariants():
    good = {name: _fit_payload() for name in ("pl", "cs", "ce")}
    assert checks.fit_invariants(good, 0, ("pl", "cs", "ce")) == ([], 0)
    bad = dict(good, cs=_fit_payload(se=(0.01, float("nan")), resid=1e-3))
    errors, failed = checks.fit_invariants(bad, 0, ("pl", "cs", "ce"))
    assert failed == 0 and len(errors) == 2
    flagged = dict(good, ce={"estimator": "ce", "error": "InfeasibleError: x"})
    assert checks.fit_invariants(flagged, 2, ("pl", "cs", "ce")) == ([], 1)
    assert checks.fit_invariants(flagged, 0, ("pl", "cs", "ce"))[0]  # exit code must report it
    assert checks.fit_invariants(good, 1, ("pl", "cs", "ce")) == (["elsurvey fit exited with code 1"], 3)


def test_mc_invariants():
    est = {"mean": [0.1], "sd": [0.2], "rmse": [0.2], "mean_se": [0.2], "coverage": [0.95],
           "n_converged": 9, "n_failed": 1}
    assert checks.mc_invariants({"estimators": {"cs": est}}, 0, 10) == []
    assert len(checks.mc_invariants({"estimators": {"cs": dict(est, coverage=[1.5])}}, 0, 11)) == 2


def test_joint_invariants_and_same_bits():
    assert checks.joint_invariants([0.1, 0.2], [0.1, 0.1], 1e-12) == []
    assert len(checks.joint_invariants([0.1, float("inf")], [0.1, 0.1], 1e-3)) == 2
    a = {"theta": np.array([[1.0, float("nan")]])}
    assert checks.same_bits(a, {"theta": np.array([[1.0, float("nan")]])}) == []
    assert checks.same_bits(a, {"theta": np.array([[1.0 + 2**-52, float("nan")]])}) == ["theta"]
    assert checks.same_bits({"x": np.array([0.0])}, {"x": np.array([-0.0])}) == ["x"]


def test_checker_counts_a_mismatching_call_as_all_failed():
    check = measure.Checker({"v": [1.0]})
    check(workloads.Outcome(1.0, 1.0, 1.0, ops=1, attempted=3, failed=1, values={"v": np.array([1.0])}), "u")
    assert (check.attempted, check.failed, check.errors) == (3, 1, [])
    check(workloads.Outcome(1.0, 1.0, 1.0, ops=1, attempted=3, failed=0, values={"v": np.array([2.0])}), "traced")
    assert (check.attempted, check.failed) == (6, 4)
    assert any("traced output differs" in e for e in check.errors)


# --- the benchmark definition ----------------------------------------------

def test_result_line_attaches_units_and_requires_every_metric():
    declared = [{"name": "ops_per_s", "unit": "1/s"}, {"name": "setup_s", "unit": "s"}]
    line = run.result_line({"ops_per_s": 2.5, "other": 1.0}, declared, {"setup_s": 0.7})
    assert line == {"ops_per_s": {"value": 2.5, "unit": "1/s"}, "setup_s": {"value": 0.7, "unit": "s"}}
    with pytest.raises(KeyError):
        run.result_line({}, declared, {"setup_s": 0.7})


def test_declared_metrics_are_exactly_those_measured():
    bench = _bench()
    table = {"functions": {}, "root_s": 0.0}
    counts = {k: 0 for k in ("cli.write_json.bytes", "data.load_dataset.rows", "elcore.dual_iterations",
                             "estimators.newton_iterations", "estimators.joint_outer_iterations")}
    layer = set(measure.layer_metrics(table, counts, 1, 1))
    layer |= {"simulate.pool_cpu_frac", "trace.overhead_frac", "trace.unattributed_frac"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    assert {m["name"] for m in bench["end_to_end"]} == {"ops_per_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOADS)


def test_interaction_map_covers_every_per_layer_metric():
    bench = _bench()
    with open(os.path.join(BENCH, "interactions.json")) as fh:
        inter = json.load(fh)["per_layer"]
    names = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert set(inter) == {m["name"] for m in bench["per_layer"]}
    for entry in inter.values():
        assert all(metric in e2e and wl in names for metric, wl in entry["moves"])
        assert entry["flat_on"] and set(entry["flat_on"]) <= names
        assert not {wl for _, wl in entry["moves"]} & set(entry["flat_on"])


def test_design_is_the_acceptance_gate_d67():
    spec = importlib.util.spec_from_file_location("gate", os.path.join(ROOT, "tests", "test_acceptance.py"))
    gate = importlib.util.module_from_spec(spec)
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        spec.loader.exec_module(gate)
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    assert workloads.design_spec(8000) == gate._d67_spec(8000)


def test_references_cover_the_stored_seeds_with_finite_values():
    with open(checks.REFERENCE_PATH) as fh:
        refs = json.load(fh)
    for name in workloads.WORKLOADS:
        assert refs[name], name
        for seed, values in refs[name].items():
            for key, arr in values.items():
                flat = np.asarray(arr, dtype=float).ravel()
                assert flat.size and math.isfinite(np.nanmax(np.abs(flat))), (name, seed, key)
