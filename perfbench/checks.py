"""Output checks for the benchmark: stored references and invariants.

Every operation's numbers are compared against ``references.json`` when the
seed has an entry there, and always against invariants that hold for any
seed.  A reference value that is NaN (a fit that did not converge when the
references were made) is not compared, so a later fix that makes it
converge is not reported as a mismatch.
"""

from __future__ import annotations

import json
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
TOLERANCE = 1e-6  # |value - reference| <= TOLERANCE * max(1, |reference|)
RESIDUAL_LIMIT = 1e-8  # max-norm of the weighted constraint residual of a converged fit


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def compare_to_reference(values: dict, reference: dict, tol: float = TOLERANCE) -> list[str]:
    """Names and worst deviations of the values that differ from the reference."""
    errors = []
    for key, ref in reference.items():
        if key not in values:
            errors.append(f"{key}: missing from the output")
            continue
        ref = np.asarray(ref, dtype=float)
        got = np.asarray(values[key], dtype=float)
        if got.shape != ref.shape:
            errors.append(f"{key}: shape {got.shape}, reference {ref.shape}")
            continue
        known = np.isfinite(ref)
        lost = known & ~np.isfinite(got)
        if lost.any():
            errors.append(f"{key}: {int(lost.sum())} value(s) not finite where the reference is")
        both = known & np.isfinite(got)
        dev = np.abs(got[both] - ref[both]) / np.maximum(1.0, np.abs(ref[both]))
        if dev.size and dev.max() > tol:
            errors.append(f"{key}: relative deviation {dev.max():.3e} exceeds {tol:g}")
    return errors


def fit_invariants(payload: dict, exit_code: int, estimators) -> tuple[list[str], int]:
    """Check one ``fit.json``; returns ``(errors, non_converged_count)``."""
    errors = []
    if exit_code not in (0, 2):
        return [f"elsurvey fit exited with code {exit_code}"], len(estimators)
    failed = 0
    for name in estimators:
        res = payload.get(name)
        if res is None:
            errors.append(f"{name}: missing from fit.json")
            failed += 1
            continue
        if "error" in res or not res["diagnostics"].get("converged", False):
            failed += 1
            continue
        errors.extend(f"{name}: {e}" for e in _estimate_invariants(res["theta"], res["se"]))
        resid = res["diagnostics"].get("constraint_residual", 0.0)
        if not resid <= RESIDUAL_LIMIT:
            errors.append(f"{name}: constraint residual {resid} exceeds {RESIDUAL_LIMIT:g}")
    if (exit_code == 2) != (failed > 0):
        errors.append(f"exit code {exit_code} disagrees with {failed} failed estimator(s)")
    return errors, failed


def mc_invariants(summary: dict, exit_code: int, reps: int) -> list[str]:
    """Check one ``mc.json``: every replicate accounted for, aggregates finite."""
    errors = [] if exit_code == 0 else [f"elsurvey mc exited with code {exit_code}"]
    for name, s in summary["estimators"].items():
        if s["n_converged"] + s["n_failed"] != reps:
            errors.append(f"{name}: {s['n_converged']} converged + {s['n_failed']} failed != {reps} replicates")
        for key in ("mean", "sd", "rmse", "mean_se", "coverage"):
            if not np.all(np.isfinite(np.asarray(s[key], dtype=float))):
                errors.append(f"{name}: {key} is not finite")
        cov = np.asarray(s["coverage"], dtype=float)
        if np.any((cov < 0.0) | (cov > 1.0)):
            errors.append(f"{name}: coverage outside [0, 1]")
    return errors


def joint_invariants(theta, se, constraint_residual) -> list[str]:
    """Check one converged ``ce-joint`` fit."""
    errors = _estimate_invariants(theta, se)
    if not constraint_residual <= RESIDUAL_LIMIT:
        errors.append(f"constraint residual {constraint_residual} exceeds {RESIDUAL_LIMIT:g}")
    return errors


def _estimate_invariants(theta, se) -> list[str]:
    theta = np.asarray(theta, dtype=float)
    se = np.asarray(se, dtype=float)
    errors = []
    if not np.all(np.isfinite(theta)):
        errors.append("theta is not finite")
    if not (np.all(np.isfinite(se)) and np.all(se > 0.0)):
        errors.append("standard errors are not finite and positive")
    return errors


def same_bits(a: dict, b: dict) -> list[str]:
    """Keys whose arrays differ in any bit (NaN payloads included)."""
    diff = [k for k in a if k not in b or np.asarray(a[k], dtype=float).tobytes()
            != np.asarray(b[k], dtype=float).tobytes()]
    return diff + [k for k in b if k not in a]
