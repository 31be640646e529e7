"""The public surface: what ``elsurvey`` exports, and what the benchmark harness traces, exists."""

import ast
import importlib
from pathlib import Path

import elsurvey

RETIRED = {"data": ("normalize_design_weights",),
           "variance": ("covariance_components", "efficiency_gap", "EfficiencyGap")}


def test_every_exported_name_resolves_and_is_exported_once():
    assert len(elsurvey.__all__) == len(set(elsurvey.__all__))
    for name in elsurvey.__all__:
        assert hasattr(elsurvey, name), name


def test_the_retired_entries_are_gone():
    # Each was a second entry to a rule with one owner: the dataset's d, components_from_arrays, and
    # np.linalg.eigvalsh of two fits' covariance difference.
    for module, names in RETIRED.items():
        for name in names:
            assert name not in elsurvey.__all__ and not hasattr(elsurvey, name), name
            assert not hasattr(importlib.import_module(f"elsurvey.{module}"), name), name


def test_every_function_the_benchmark_traces_resolves():
    # perfbench/measure.py is read, not imported: a traced name deleted from the package would
    # otherwise surface only when the benchmark runs with --trace 1.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "measure.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    keys = [ast.literal_eval(key) for key in targets.keys]
    assert keys
    for key in keys:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module(f"elsurvey.{module}"), name, None)), key
