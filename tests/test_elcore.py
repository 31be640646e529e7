"""Inner empirical-likelihood solvers: standard and design-weighted, plus
checks of the direct composite-dual oracle the composite estimator is
compared against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feasible_u
from elsurvey.elcore import solve_el, solve_weighted_el
from elsurvey.errors import DataError, InfeasibleError
from oracles import bisect_scalar_dual, dual_minimize_kappa, nelder_mead_dual


# ---------------------------------------------------------------------------
# solve_el


def test_centered_column_gives_uniform_weights():
    sol = solve_el(np.array([[-1.0], [0.0], [1.0]]))
    np.testing.assert_allclose(sol.w, np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(sol.multiplier, [0.0], atol=1e-12)
    assert sol.converged and sol.residual < 1e-8


def test_offcenter_column_matches_bisection_oracle():
    u = np.array([1.0, 2.0, 3.0]) - 2.5
    sol = solve_el(u[:, None])
    lam, w = bisect_scalar_dual(u)
    np.testing.assert_allclose(sol.w, w, atol=1e-8)
    np.testing.assert_allclose(sol.multiplier, [lam], atol=1e-8)


def test_target_outside_hull_is_infeasible():
    u = np.array([1.0, 2.0, 3.0]) - 4.0
    with pytest.raises(InfeasibleError):
        solve_el(u[:, None])


def test_boundary_target_is_infeasible():
    # Zero on the hull boundary (all entries one side, some exactly zero).
    with pytest.raises(InfeasibleError):
        solve_el(np.array([[0.0], [1.0], [2.0]]))


def test_two_constraint_instance_matches_derivative_free_oracle(rng):
    U = random_feasible_u(rng, 25, 2)
    sol = solve_el(U)
    lam, w = nelder_mead_dual(U, np.full(25, 1 / 25))
    np.testing.assert_allclose(sol.w, w, atol=1e-7)
    np.testing.assert_allclose(sol.multiplier, lam, atol=1e-6)


def test_q_zero_returns_uniform():
    sol = solve_el(np.empty((4, 0)))
    np.testing.assert_allclose(sol.w, np.full(4, 0.25), atol=1e-15)
    assert sol.multiplier.size == 0 and sol.converged


def test_row_permutation_equivariance(rng):
    U = random_feasible_u(rng, 30, 2)
    perm = rng.permutation(30)
    base = solve_el(U)
    permuted = solve_el(U[perm])
    np.testing.assert_allclose(permuted.w, base.w[perm], atol=1e-10)
    np.testing.assert_allclose(permuted.multiplier, base.multiplier, atol=1e-9)


def test_dual_primal_logel_consistency(rng):
    for _ in range(10):
        U = random_feasible_u(rng, 20, 2)
        sol = solve_el(U)
        n = U.shape[0]
        dual_value = -float(np.sum(np.log(n * (1.0 + U @ sol.multiplier))))
        assert abs(sol.logEL - dual_value) < 1e-9
        assert abs(sol.logEL - np.sum(np.log(sol.w))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_solution_invariants_on_random_feasible_instances(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(q + 5, 40))
    U = random_feasible_u(rng, n, q)
    sol = solve_el(U)
    assert sol.converged
    assert np.all(sol.w > 0.0) and np.all(sol.w < 1.0)
    assert abs(sol.w.sum() - 1.0) <= 1e-12
    assert sol.residual < 1e-8
    assert np.max(np.abs(sol.w @ U)) < 1e-8


# ---------------------------------------------------------------------------
# solve_weighted_el


def test_weighted_q_zero_returns_design_weights():
    d = np.array([0.5, 0.3, 0.2])
    sol = solve_weighted_el(np.empty((3, 0)), d)
    np.testing.assert_allclose(sol.w, d, atol=0)
    assert sol.converged and sol.residual == 0.0


def test_uniform_design_weights_reduce_to_standard_solver(rng):
    U = random_feasible_u(rng, 15, 2)
    d = np.full(15, 1 / 15)
    a = solve_weighted_el(U, d)
    b = solve_el(U)
    np.testing.assert_allclose(a.w, b.w, atol=1e-10)
    np.testing.assert_allclose(a.multiplier, b.multiplier, atol=1e-9)


def test_weighted_closed_form_three_points():
    d = np.array([0.5, 0.25, 0.25])
    U = np.array([[-1.0], [0.0], [1.0]])
    sol = solve_weighted_el(U, d)
    np.testing.assert_allclose(sol.multiplier, [-1.0 / 3.0], atol=1e-10)
    np.testing.assert_allclose(sol.w, [0.375, 0.25, 0.375], atol=1e-10)
    lam, w = bisect_scalar_dual(U[:, 0], d)
    np.testing.assert_allclose(sol.w, w, atol=1e-8)


def test_weighted_matches_bisection_on_random_scalars(rng):
    for _ in range(25):
        n = int(rng.integers(5, 30))
        u = random_feasible_u(rng, n, 1)[:, 0]
        d = rng.uniform(0.2, 1.0, size=n)
        d /= d.sum()
        sol = solve_weighted_el(u[:, None], d)
        lam, w = bisect_scalar_dual(u, d)
        np.testing.assert_allclose(sol.w, w, atol=1e-8)
        assert abs(sol.multiplier[0] - lam) < 1e-8


def test_weighted_el_validates_d():
    U = np.array([[-1.0], [1.0]])
    with pytest.raises(DataError, match="sums"):
        solve_weighted_el(U, np.array([0.7, 0.7]))
    with pytest.raises(DataError, match="positive"):
        solve_weighted_el(U, np.array([1.2, -0.2]))


# ---------------------------------------------------------------------------
# dual_minimize_kappa (the oracle in oracles.py)


def test_kappa_q_zero_inverse_visibility_weights():
    bp = np.array([0.2, 0.5, 0.1, 0.4])
    sol = dual_minimize_kappa(np.empty((4, 0)), bp)
    expected = (1.0 / bp) / np.sum(1.0 / bp)
    np.testing.assert_allclose(sol.w, expected, atol=1e-12)
    assert sol.multiplier.size == 0 and sol.converged


def test_kappa_constant_bp_equals_standard_solver(rng):
    H = random_feasible_u(rng, 20, 2)
    base = solve_el(H)
    for c in (0.3, 1.0):
        sol = dual_minimize_kappa(H, np.full(20, c))
        np.testing.assert_allclose(sol.w, base.w, atol=1e-10)


def test_kappa_scale_invariance(rng):
    H = random_feasible_u(rng, 25, 2)
    bp = rng.uniform(0.1, 0.9, size=25)
    base = dual_minimize_kappa(H, bp)
    for c in (0.1, 7.0):
        scaled = dual_minimize_kappa(H, c * bp)
        np.testing.assert_allclose(scaled.w, base.w, atol=1e-10)


def test_kappa_infeasible_raises(rng):
    bp = np.array([0.3, 0.4, 0.5])
    H = (np.array([1.0, 2.0, 3.0]) - 4.0)[:, None]
    with pytest.raises(InfeasibleError):
        dual_minimize_kappa(H, bp)


def test_kappa_weights_satisfy_constraints(rng):
    for _ in range(10):
        n = int(rng.integers(8, 40))
        H = random_feasible_u(rng, n, 2)
        bp = rng.uniform(0.05, 0.95, size=n)
        sol = dual_minimize_kappa(H, bp)
        assert sol.converged
        assert abs(sol.w.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(sol.w @ H)) < 1e-8
        # Solution form: w_i proportional to 1 / (bp_i + kappa'h_i).
        denom = bp + H @ sol.multiplier
        assert np.all(denom > 0.0)
        winv = (1.0 / denom) / np.sum(1.0 / denom)
        np.testing.assert_allclose(sol.w, winv, atol=1e-9)
