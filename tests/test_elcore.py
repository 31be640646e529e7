"""Inner empirical-likelihood solvers: standard and design-weighted, plus
checks of the direct composite-dual oracle the composite estimator is
compared against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import newton_points, random_feasible_u, traced_vectors
from elsurvey import elcore
from elsurvey.elcore import _sign_precheck, row_sum, solve_el, solve_weighted_el
from elsurvey.errors import ConvergenceError, DataError, InfeasibleError
from oracles import bisect_scalar_dual, dual_minimize_kappa, nelder_mead_dual


# ---------------------------------------------------------------------------
# solve_el


def test_centered_column_gives_uniform_weights():
    sol = solve_el(np.array([[-1.0], [0.0], [1.0]]))
    np.testing.assert_allclose(sol.w, np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(sol.multiplier, [0.0], atol=1e-12)
    assert sol.residual < 1e-8


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


def test_sign_precheck_returns_the_non_vacuous_columns_and_skips_zero_ones(rng):
    U = np.zeros((30, 4))
    U[:, [1, 3]] = random_feasible_u(rng, 30, 2)
    U[::2, 2] = -0.0
    assert _sign_precheck(U, "solve_el") == [1, 3]
    sol = solve_el(U)
    assert sol.multiplier[0] == 0.0 and sol.multiplier[2] == 0.0
    np.testing.assert_allclose(sol.w, solve_el(U[:, [1, 3]]).w, rtol=1e-14, atol=0.0)


def test_single_signed_column_names_its_index():
    U = np.array([[1.0, 1.0], [-1.0, 2.0], [0.5, 0.0], [-0.5, 3.0]])
    tail = "never changes sign; zero is outside the convex hull of the constraint rows"
    with pytest.raises(InfeasibleError) as err:
        solve_el(U)
    assert str(err.value) == f"solve_el: constraint column 1 {tail}"
    with pytest.raises(InfeasibleError) as err:
        solve_weighted_el(U, np.full(4, 0.25))
    assert str(err.value) == f"solve_weighted_el: constraint column 1 {tail}"


def test_q_zero_returns_uniform():
    sol = solve_el(np.empty((4, 0)))
    np.testing.assert_allclose(sol.w, np.full(4, 0.25), atol=1e-15)
    assert sol.multiplier.size == 0
    assert sol.iterations == 0 and sol.residual == 0.0


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
    assert sol.residual == 0.0
    assert sol.iterations == 0 and sol.multiplier.size == 0
    assert sol.logEL == float(d @ np.log(d)) and sol.w is not d


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


# ---------------------------------------------------------------------------
# the iteration cap


def test_a_dual_solve_needing_k_steps_converges_with_the_cap_set_to_k(rng):
    # Regression guard: the iterate of the last allowed step is tested against the tolerance too.
    n = 300
    d = rng.uniform(0.5, 1.5, size=n)
    d /= d.sum()
    U = random_feasible_u(rng, n, 2) + 0.1
    for solve in (solve_el, lambda U, **kw: solve_weighted_el(U, d, **kw)):
        sol = solve(U)
        k = sol.iterations
        assert k >= 2
        capped = solve(U, max_iter=k)
        assert capped.iterations == k and capped.multiplier.tobytes() == sol.multiplier.tobytes()
        with pytest.raises(ConvergenceError, match=f"no convergence in {k - 1} iterations"):
            solve(U, max_iter=k - 1)


def test_a_cap_of_0_accepts_a_start_at_the_root(rng):
    # Columns with a design-weighted mean of 0 are solved by the zero multiplier, where the dual starts.
    n = 50
    d = rng.uniform(0.5, 1.5, size=n)
    d /= d.sum()
    U = rng.normal(size=(n, 2))
    U -= d @ U
    sol = solve_weighted_el(U, d, max_iter=0)
    assert sol.iterations == 0 and np.array_equal(sol.w, d)


# ---------------------------------------------------------------------------
# the layout of U


def test_the_dual_reads_every_layout_of_u_as_the_same_rows(rng):
    # Regression guard: the dual takes a column-major U's transpose in place and copies any other U, or the
    # non-vacuous columns of any U, into the same C-contiguous rows, so its arithmetic is the same.  A strided
    # column-major U of the same values takes the copy, and its weights, which `U @ lam` forms in U's own
    # layout, keep every bit; a row-major U and a vacuous column move only those weights' last bits.
    n = 5000
    d = rng.uniform(0.5, 1.5, size=n)
    d /= d.sum()
    U = np.asfortranarray(random_feasible_u(rng, n, 3) + 0.1)
    layouts = {"strided": (np.asfortranarray(np.repeat(U, 2, axis=1))[:, ::2], [0, 1, 2]),
               "row-major": (np.ascontiguousarray(U), [0, 1, 2]),
               "vacuous": (np.asfortranarray(np.insert(U, 1, 0.0, axis=1)), [0, 2, 3])}
    assert not layouts["strided"][0].T.flags.c_contiguous
    for solve in (solve_el, lambda U: solve_weighted_el(U, d)):
        ref = solve(U)
        assert ref.iterations >= 2
        for name, (V, active) in layouts.items():
            sol = solve(V)
            assert sol.multiplier[active].tobytes() == ref.multiplier.tobytes(), name
            assert sol.iterations == ref.iterations, name
            if name == "strided":
                assert sol.w.tobytes() == ref.w.tobytes()
            else:
                np.testing.assert_allclose(sol.w, ref.w, rtol=1e-13, atol=0)
        assert sol.multiplier[1] == 0.0


# ---------------------------------------------------------------------------
# row sums in blocks


def test_row_sum_adds_blocks_term_by_term_and_stops_at_the_first_block_off_the_domain(monkeypatch):
    monkeypatch.setattr(elcore, "ROWS", 4)
    x, y, firsts = np.arange(10.0), np.ones((10, 2)), []

    def f(x):
        firsts.append(x[0])
        return None if x.max() >= 6.0 else x.sum()

    assert row_sum(np.sum, x) == 45.0
    total, xy = row_sum(lambda x, y: (x.sum(), x @ y), x[:9], y[:9])
    assert total == 36.0 and np.array_equal(xy, [36.0, 36.0])
    assert row_sum(f, x) is None and firsts == [0.0, 4.0]
    rows = x[:4]
    assert row_sum(lambda x: x, rows) is rows  # one block is the whole-array call itself


@pytest.mark.parametrize("p, weighted", [(2, False), (3, True), (5, True)])
def test_r_factor_has_the_singular_values_of_the_scaled_rows_across_blocks(p, weighted):
    # Three full blocks, then a last one of a single row, fewer than p, stacked under the R so far.
    n = 3 * elcore.ROWS + 1
    rng = np.random.default_rng(11)
    X = np.asfortranarray(rng.normal(size=(n, p)) * np.logspace(0, 2, p))
    c = rng.uniform(0.1, 10.0, size=n) if weighted else None
    scaled = X if c is None else X * np.sqrt(c)[:, None]
    R = elcore.r_factor(X, c)
    assert R.shape == (p, p) and np.array_equal(R, np.triu(R))
    np.testing.assert_allclose(np.linalg.svd(R, compute_uv=False), np.linalg.svd(scaled, compute_uv=False),
                               rtol=1e-13, atol=0)
    # One block is one QR of the scaled rows, bit for bit.
    one = elcore.r_factor(X[:500], None if c is None else c[:500])
    assert one.tobytes() == np.linalg.qr(scaled[:500], mode="r").tobytes()


def _dual_step_off_the_last_row():
    """A one-column ``u`` whose full first dual step leaves the domain at the last row alone."""
    u = np.random.default_rng(3).uniform(0.5, 1.5, size=200)
    u[-1] = -20.0
    return u


def test_a_dual_step_off_the_domain_in_the_last_block_alone_is_rejected(monkeypatch):
    # From lambda = 0 the full Newton step puts 1 + lambda u of the last row, u = -20, below d = 1/n, and of
    # no other.  In blocks of 64 rows only the last block's check sees it; both solvers must reject the
    # step as the one-block check does and reach the same multiplier in as many steps.
    u = _dual_step_off_the_last_row()
    n = len(u)
    full = np.sum(u) / np.sum(u * u)
    assert np.array_equal(np.flatnonzero(~(1.0 + full * u > 1.0 / n)), [n - 1])
    for solve in (solve_el, lambda U: solve_weighted_el(U, np.full(n, 1.0 / n))):
        runs = {}
        for rows in (elcore.ROWS, 64):
            monkeypatch.setattr(elcore, "ROWS", rows)
            points = newton_points(monkeypatch, elcore)
            runs[rows] = solve(u[:, None]), points
            monkeypatch.undo()
        (one, one_points), (blocked, blocked_points) = runs.values()
        one_rejected, blocked_rejected = ([x for x, ok in points if not ok] for points in (one_points, blocked_points))
        assert blocked.iterations == one.iterations
        np.testing.assert_allclose(blocked.multiplier, one.multiplier, rtol=1e-13, atol=0)
        assert len(blocked_rejected) == len(one_rejected) >= 1
        np.testing.assert_allclose(blocked_rejected[0], [full], rtol=1e-13, atol=0)


@pytest.mark.parametrize("rows", [elcore.ROWS, 64], ids=["one block", "blocks of 64"])
def test_one_weight_buffer_per_dual_solve_gives_the_iterates_of_a_fresh_buffer_per_evaluation(monkeypatch, rows):
    # Every evaluation of a dual refills the solve's one buffer of d / s^2, which is right only while
    # damped_newton forms each Hessian before it evaluates a candidate.  In blocks of 64 rows the rejected
    # candidate of the set-up above refills the first three blocks before the last one fails, so a Hessian
    # formed after it would read them.  The reference forms each Hessian as soon as its point is evaluated.
    u = _dual_step_off_the_last_row()[:, None]
    for solve in (solve_el, lambda U: solve_weighted_el(U, np.full(len(U), 1.0 / len(U)))):
        runs = []
        for eager in (False, True):
            monkeypatch.setattr(elcore, "ROWS", rows)
            points = newton_points(monkeypatch, elcore, eager_jacobian=eager)
            runs.append((solve(u), points))
            monkeypatch.undo()
        (shared, shared_points), (fresh, fresh_points) = runs
        assert not all(ok for _, ok in shared_points)
        assert [(x.tobytes(), ok) for x, ok in shared_points] == [(x.tobytes(), ok) for x, ok in fresh_points]
        assert shared.multiplier.tobytes() == fresh.multiplier.tobytes() and shared.w.tobytes() == fresh.w.tobytes()
        assert shared.iterations == fresh.iterations


def test_a_weighted_dual_solve_holds_at_most_two_and_a_half_row_vectors_at_once(rng):
    # At 256,000 rows one n-vector is 1.95 MiB.  Each evaluation refills the solve's one n-vector d / s^2, block
    # by block, and the step's Hessian reads it; the weights w, built in place, and log(w) are two at the end.
    # Over whole arrays, which kept s and d / s for the Hessian and formed it from n-sized products, it was six.
    n = 256_000
    d = rng.uniform(0.5, 1.5, size=n)
    d /= d.sum()
    U = np.asfortranarray(rng.normal(size=(n, 2)) + [0.1, -0.05])
    solved = []
    peak = traced_vectors(lambda: solved.append(solve_weighted_el(U, d)), n)
    assert solved[0].iterations >= 3
    assert peak <= 2.5, peak
