"""Independent reference implementations used to cross-check the package.

Everything here deliberately follows a different algorithmic path than the
production code: scalar bisection instead of multivariate Newton, Nelder-Mead
on a penalized dual instead of a dedicated solver, the composite dual solved
directly instead of through transformed standard EL, the joint profile and a
Nelder-Mead search of it instead of taking the ``ce`` root as its maximizer,
central finite differences instead of analytic Jacobians, plain Python
accumulation loops instead of vectorized matrix products, exact enumeration
over discrete designs instead of sampling, a row loop over families instead
of grouping by sort, and whole-string recursive serialization and
cell-by-cell CSV parsing instead of streamed and bulk I/O.
Tests compare production output against these oracles.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.special import expit

from elsurvey.errors import ConfigError, ConvergenceError, DataError, InfeasibleError

# ---------------------------------------------------------------------------
# Empirical-likelihood duals, solved by elementary methods


def bisect_scalar_dual(u, d=None, iters=200):
    """One-constraint weighted-EL dual by bisection.

    Finds ``lam`` with ``sum_i d_i u_i / (1 + lam u_i) = 0`` on the interval
    where every ``1 + lam u_i`` stays positive; returns ``(lam, w)`` with
    ``w_i = d_i / (1 + lam u_i)``.  Requires both signs in ``u`` (zero inside
    the hull).  The mapped function is strictly decreasing, so plain
    bisection cannot miss.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    d = np.full(n, 1.0 / n) if d is None else np.asarray(d, dtype=float)
    umax, umin = u.max(), u.min()
    if not (umax > 0.0 > umin):
        raise ValueError("zero is outside the hull; no interior solution")
    lo, hi = -1.0 / umax, -1.0 / umin
    span = hi - lo
    lo += 1e-13 * span
    hi -= 1e-13 * span

    def g(lam):
        return float(np.sum(d * u / (1.0 + lam * u)))

    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            lo = hi = mid
            break
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return lam, d / (1.0 + lam * u)


def nelder_mead_dual(U, d, maxiter=20000):
    """Multi-constraint weighted-EL dual by derivative-free minimization.

    Minimizes ``-sum_i d_i log(1 + lam'U_i)`` with an infinite penalty
    outside the log domain; returns ``(lam, w)``.
    """
    U = np.asarray(U, dtype=float)
    d = np.asarray(d, dtype=float)
    q = U.shape[1]

    def phi(lam):
        s = 1.0 + U @ lam
        if np.any(s <= 1e-12):
            return np.inf
        return -float(d @ np.log(s))

    res = scipy.optimize.minimize(
        phi, np.zeros(q), method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": maxiter, "maxfev": maxiter})
    lam = res.x
    return lam, d / (1.0 + U @ lam)


@dataclass(frozen=True)
class KappaSolution:
    """Result of :func:`dual_minimize_kappa`; ``multiplier`` is ``kappa``."""

    w: np.ndarray
    multiplier: np.ndarray
    logEL: float
    iterations: int
    converged: bool
    residual: float
    restriction_active: bool


def dual_minimize_kappa(H, bp, tol: float = 1e-10, max_iter: int = 200) -> KappaSolution:
    """Composite-criterion dual solved directly: minimize ``-sum_i log(bp_i + kappa'h_i)``.

    This is the untransformed problem that the package solves as standard EL
    on columns ``h_i / bp_i``.  The weights are recovered as
    ``w_i = (1/g_i) / sum_j (1/g_j)`` with ``g_i = bp_i + kappa'h_i``.  The
    line search rejects any candidate with ``n * g_i`` below the running
    estimate of ``sum_j bp_j w_j * n`` (the unit-weight restriction),
    iterating the estimate to a fixed point; ``restriction_active`` flags a
    solution within ``1e-9`` (relative) of that bound.  With no constraints
    the weights are proportional to ``1 / bp_i``.  ``logEL`` is the composite
    objective ``sum_i log w_i - n log(sum_i bp_i w_i)``.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or not np.all(np.isfinite(H)):
        raise DataError("dual_minimize_kappa: constraint matrix must be 2-d and finite")
    n, q = H.shape
    if n <= q:
        raise DataError(f"dual_minimize_kappa: need more rows than constraints (n={n}, q={q})")
    bp = np.asarray(bp, dtype=float)
    if bp.shape != (n,) or np.any(bp <= 0.0) or not np.all(np.isfinite(bp)):
        raise DataError("dual_minimize_kappa: bp must be strictly positive, finite, length n")

    def _finish(g, kappa, iters, converged):
        inv = 1.0 / g
        w = inv / inv.sum()
        Bp = n / inv.sum()
        restriction = bool(np.min(n * g) - Bp <= 1e-9 * Bp)
        logEL = float(np.sum(np.log(w)) - n * np.log(w @ bp))
        residual = float(np.max(np.abs(w @ H))) if q else 0.0
        return KappaSolution(w=w, multiplier=kappa, logEL=logEL, iterations=iters,
                             converged=converged, residual=residual, restriction_active=restriction)

    active = [k for k in range(q) if not np.all(H[:, k] == 0.0)]
    for k in active:
        if H[:, k].min() >= 0.0 or H[:, k].max() <= 0.0:
            raise InfeasibleError(f"dual_minimize_kappa: constraint column {k} never changes sign")
    kappa_full = np.zeros(q)
    if not active:
        return _finish(bp.copy(), kappa_full, 0, True)
    Ha = H[:, active]
    kappa = np.zeros(len(active))
    g = bp.copy()
    grad = -Ha.T @ (1.0 / g)
    for it in range(1, max_iter + 1):
        gnorm = np.max(np.abs(grad))
        if gnorm < tol:
            kappa_full[active] = kappa
            return _finish(g, kappa_full, it - 1, True)
        Bp_cur = n / np.sum(1.0 / g)
        hess = (Ha / (g * g)[:, None]).T @ Ha
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        t = 1.0
        while True:
            kappa_new = kappa + t * step
            g_new = bp + Ha @ kappa_new
            # Domain, then the unit-weight restriction against the running
            # normalizing-constant estimate, then gradient-norm decrease.
            if np.all(g_new > 0.0) and np.min(n * g_new) >= Bp_cur * (1.0 - 1e-12):
                grad_new = -Ha.T @ (1.0 / g_new)
                if np.max(np.abs(grad_new)) <= (1.0 - 1e-4 * t) * gnorm:
                    break
            t *= 0.5
            if t < 1e-14:
                raise InfeasibleError("dual_minimize_kappa: line search collapsed at the domain boundary")
        kappa, g, grad = kappa_new, g_new, grad_new
        if np.max(np.abs(kappa)) > 1e8:
            raise InfeasibleError("dual_minimize_kappa: multiplier norm exceeded 1e8")
    raise ConvergenceError(f"dual_minimize_kappa: no convergence in {max_iter} iterations")


def composite_profile(theta, psi, H, bp) -> float:
    """The composite criterion profiled at ``theta``: its optimum under ``[psi(theta), H]``.

    Solved by :func:`dual_minimize_kappa`; a ``theta`` outside the score's
    domain (``psi`` raises ``ValueError``) or with zero outside the hull of
    the stacked rows scores ``-inf``.
    """
    try:
        return dual_minimize_kappa(np.column_stack([psi(theta), H]), bp).logEL
    except (ValueError, InfeasibleError, ConvergenceError):
        return -np.inf


def nelder_mead_profile(psi, H, bp, start, maxiter=4000):
    """Maximize :func:`composite_profile` over theta by Nelder-Mead; returns ``(theta, profile)``."""
    res = scipy.optimize.minimize(
        lambda theta: -composite_profile(theta, psi, H, bp), np.asarray(start, dtype=float),
        method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter, "maxfev": maxiter})
    return res.x, -res.fun


# ---------------------------------------------------------------------------
# Hand-written bernoulli-logit and gamma estimating functions (independent of
# the package's glm module) and plug-in component sums as plain Python loops


def logit_psi(theta, A, y):
    """Per-observation logistic score rows ``(y_i - expit(a_i'theta)) a_i``."""
    mu = expit(A @ theta)
    return (y - mu)[:, None] * A


def gamma_inverse_psi(theta, A, y):
    """Per-observation gamma inverse-link score rows ``(1 / a_i'theta - y_i) a_i``."""
    eta = A @ theta
    if np.any(eta <= 0.0):
        raise ValueError("the gamma inverse-link predictor must stay positive")
    return (1.0 / eta - y)[:, None] * A


def logit_psi_prime(theta, A):
    """Per-observation logistic score derivatives, a list of p*p arrays."""
    mu = expit(A @ theta)
    return [-(m * (1.0 - m)) * np.outer(a, a) for m, a in zip(mu, A)]


def loop_cs_components(w, d, psi, psi_prime, h):
    """Design-weighted component sums accumulated entry by entry."""
    n, p = psi.shape
    q = h.shape[1]
    G = np.zeros((p, p))
    Gs = np.zeros((p, p))
    K1 = np.zeros((p, q))
    K2 = np.zeros((p, q))
    H1 = np.zeros((q, q))
    H2 = np.zeros((q, q))
    for i in range(n):
        for r in range(p):
            for c in range(p):
                G[r, c] += w[i] * d[i] * psi_prime[i][r, c]
                Gs[r, c] += w[i] ** 2 * d[i] ** 2 * psi[i, r] * psi[i, c]
            for k in range(q):
                K1[r, k] += w[i] ** 2 * d[i] * psi[i, r] * h[i, k]
                K2[r, k] += w[i] ** 2 * d[i] ** 2 * psi[i, r] * h[i, k]
        for k in range(q):
            for m in range(q):
                H1[k, m] += w[i] ** 2 * d[i] * h[i, k] * h[i, m]
                H2[k, m] += w[i] ** 2 * d[i] ** 2 * h[i, k] * h[i, m]
    return G, Gs, K1, K2, H1, H2


def loop_ce_components(w, bp, psi, psi_prime, h):
    """Visibility-weighted component sums accumulated entry by entry."""
    n, p = psi.shape
    q = h.shape[1]
    G = np.zeros((p, p))
    Gs = np.zeros((p, p))
    K2 = np.zeros((p, q))
    H2 = np.zeros((q, q))
    for i in range(n):
        for r in range(p):
            for c in range(p):
                G[r, c] += w[i] * psi_prime[i][r, c] / bp[i]
                Gs[r, c] += w[i] ** 2 * psi[i, r] * psi[i, c] / bp[i] ** 2
            for k in range(q):
                K2[r, k] += w[i] ** 2 * psi[i, r] * h[i, k] / bp[i] ** 2
        for k in range(q):
            for m in range(q):
                H2[k, m] += w[i] ** 2 * h[i, k] * h[i, m] / bp[i] ** 2
    return G, Gs, K2, H2


def cs_sandwich(G, Gs, K1, K2, H1, H2):
    """Constrained design-weighted sandwich assembled with plain inverses."""
    Gi = np.linalg.inv(G)
    if H1.size:
        A = K1 @ np.linalg.inv(H1)
        M = Gs - A @ K2.T - K2 @ A.T + A @ H2 @ A.T
    else:
        M = Gs
    V = Gi @ M @ Gi.T
    return 0.5 * (V + V.T)


def ce_sandwich(G, Gs, K2, H2):
    """Constrained visibility-weighted sandwich with plain inverses."""
    Gi = np.linalg.inv(G)
    M = Gs - K2 @ np.linalg.inv(H2) @ K2.T if H2.size else Gs
    V = Gi @ M @ Gi.T
    return 0.5 * (V + V.T)


def expanded_meat(Gs, K1, K2, H1, H2, inv=np.linalg.inv):
    """The sandwich meat in its expanded form ``M(A) = G* - A K2' - K2 A' + A H2 A'``, ``A = K1 H1^-1``,
    with the inverse ``inv``; the composite rows take ``K1 = K2`` and ``H1 = H2``."""
    if not H1.size:
        return Gs
    A = K1 @ inv(H1)
    return Gs - A @ K2.T - K2 @ A.T + A @ H2 @ A.T


def _longdouble_inverse(X):
    """``X^-1`` in ``np.longdouble``, which ``np.linalg`` does not take: the float64 inverse refined by
    two Newton-Schulz steps ``Y <- Y (2 I - X Y)``, each of which squares the relative error."""
    Y = np.linalg.inv(X.astype(float)).astype(np.longdouble)
    two = 2 * np.eye(X.shape[0], dtype=np.longdouble)
    for _ in range(2):
        Y = Y @ (two - X @ Y)
    return Y


def longdouble_logit_sandwich(theta, A, y, w, h, d=None, bp=None):
    """The logistic plug-in sandwich ``G^-1 M(A) G^-T`` in ``np.longdouble``, with the expanded meat.

    The design rows (``b = w d``, ``m1 = w^2 d``) given ``d``, else the composite rows (``b = w / bp``,
    ``m1 = b^2``); the meat's sums take ``m2 = b^2`` in both.
    """
    ld = np.longdouble
    A, y, w, h = (np.asarray(v, dtype=ld) for v in (A, y, w, h))
    mu = 1 / (1 + np.exp(-(A @ np.asarray(theta, dtype=ld))))
    psi = (y - mu)[:, None] * A
    if bp is None:
        d = np.asarray(d, dtype=ld)
        b, m1 = w * d, w * w * d
    else:
        b = w / np.asarray(bp, dtype=ld)
        m1 = b * b
    m2 = b * b
    G = -(A.T * (b * mu * (1 - mu))) @ A
    M = expanded_meat((psi.T * m2) @ psi, (psi.T * m1) @ h, (psi.T * m2) @ h, (h.T * m1) @ h, (h.T * m2) @ h,
                      inv=_longdouble_inverse)
    Gi = _longdouble_inverse(G)
    V = Gi @ M @ Gi.T
    return (V + V.T) / 2


# ---------------------------------------------------------------------------
# Exact enumeration over a discrete design: joint law of (x, v, y, pi),
# population score roots, cell response moments, and the limits of the
# plug-in component sums under that law


def informative_cells(lo, hi, const, vcoef, ycoef, theta0,
                      xvals=(-1.0, 0.0, 1.0), pv=0.5):
    """Joint law of (x, v, y, pi) for the discrete logistic sampling design.

    ``x`` is uniform on ``xvals``, ``v`` Bernoulli(``pv``), ``y`` Bernoulli
    with mean ``expit(theta0 . (1, x, v))``, and the inclusion probability is
    ``lo + (hi - lo) expit(const + vcoef v + ycoef y)``.  Returns a list of
    ``(probability, features)`` pairs covering every atom.
    """
    cells = []
    for x in xvals:
        for v, pvv in ((0.0, 1.0 - pv), (1.0, pv)):
            mu = float(expit(theta0[0] + theta0[1] * x + theta0[2] * v))
            for y, py in ((1.0, mu), (0.0, 1.0 - mu)):
                pi = lo + (hi - lo) * float(expit(const + vcoef * v + ycoef * y))
                cells.append((py * pvv / len(xvals), {"x": x, "v": v, "y": y, "pi": pi}))
    return cells


def population_score_root(cells, start=(0.0, 0.0)):
    """Root of the population score of the working model ``y ~ 1 + x``.

    This is the probability limit of the design-consistent estimators when
    the fitted model omits ``v``.
    """

    def f(ab):
        g = np.zeros(2)
        for p, c in cells:
            m = float(expit(ab[0] + ab[1] * c["x"]))
            g += p * (c["y"] - m) * np.array([1.0, c["x"]])
        return g

    sol = scipy.optimize.root(f, np.asarray(start, dtype=float), tol=1e-14)
    if not sol.success:
        raise RuntimeError(f"population score root search failed: {sol.message}")
    return sol.x


def cell_response_moment(cells, column, value):
    """Population mean of ``y`` within the subgroup ``column == value``."""
    num = sum(p * c["y"] for p, c in cells if c[column] == value)
    den = sum(p for p, c in cells if c[column] == value)
    return num / den


def plugin_component_limits(cells, theta, gammas):
    """Limits of the plug-in component sums under the observed-data law.

    The observed units follow the size-biased law with density proportional
    to ``pi`` times the population law.  With constraint targets equal to the
    true population moments the EL adjustments vanish asymptotically, the
    weights converge to the normalized inverse probabilities, and every
    component sum (multiplied by the power of ``n`` matching its weight
    powers) converges to a ratio of moments under that law.  Returns two
    dicts (design-weighted set, visibility set) mapping component names to
    ``(n_power, limit_matrix)`` with visibility taken equal to ``pi``.
    """
    qlaw = [(p * c["pi"], c) for p, c in cells]
    tot = sum(p for p, _ in qlaw)
    qlaw = [(p / tot, c) for p, c in qlaw]

    def eq(fun):
        return sum(p * np.asarray(fun(c), dtype=float) for p, c in qlaw)

    def arow(c):
        return np.array([1.0, c["x"]])

    def psi(c):
        m = float(expit(theta[0] + theta[1] * c["x"]))
        return (c["y"] - m) * arow(c)

    def psip(c):
        m = float(expit(theta[0] + theta[1] * c["x"]))
        a = arow(c)
        return -(m * (1.0 - m)) * np.outer(a, a)

    def h(c):
        return np.array([(c["y"] - g) if c["v"] == v else 0.0
                         for v, g in sorted(gammas.items())])

    def delta(c):
        return 1.0 / c["pi"]

    e1 = eq(lambda c: delta(c))
    moments = {k: eq(lambda c, k=k: delta(c) ** k) for k in (2, 3, 4)}

    def tilt(k, fun):
        return eq(lambda c: delta(c) ** k * np.asarray(fun(c))) / e1 ** k

    outer = lambda f1, f2: (lambda c: np.outer(f1(c), f2(c)))
    roman = {
        "G": (1, tilt(2, psip)),
        "Gstar": (3, tilt(4, outer(psi, psi))),
        "K1": (2, tilt(3, outer(psi, h))),
        "K2": (3, tilt(4, outer(psi, h))),
        "H1": (2, tilt(3, outer(h, h))),
        "H2": (3, tilt(4, outer(h, h))),
    }

    def vtilt(k, fun):
        return eq(lambda c: delta(c) ** k * np.asarray(fun(c))) / e1 ** (k // 2)

    cal = {
        "calG": (0, vtilt(2, psip)),
        "calGstar": (1, vtilt(4, outer(psi, psi))),
        "calK2": (1, vtilt(4, outer(psi, h))),
        "calH2": (1, vtilt(4, outer(h, h))),
    }
    return roman, cal


# ---------------------------------------------------------------------------
# Miscellaneous closed forms


def logistic_fisher_inverse(A, theta):
    """Inverse Fisher information of a logistic fit over the given design."""
    mu = expit(A @ theta)
    I = (A * (mu * (1.0 - mu))[:, None]).T @ A
    return np.linalg.inv(I)


def irls_reference(family, y, X, case_weights=None, tol=1e-10, max_iter=100):
    """Undamped iteratively reweighted least squares for ``bernoulli-logit`` or ``gamma-inverse``.

    Each iterate is the weighted least-squares fit, by ``lstsq`` on
    square-root-weighted rows, of the working response ``eta + (y - mu) /
    (d mu / d eta)`` with weights ``c * (d mu / d eta)``, taken whole (a
    gamma iterate is only halved back toward the last one until the linear
    predictor is positive).  It starts from zeros (logit) or from the
    reciprocal weighted mean in the first column, which must be an intercept
    (gamma), and stops when the coefficient change is below ``tol``.
    """
    y, X = np.asarray(y, dtype=float), np.asarray(X, dtype=float)
    c = np.ones(y.size) if case_weights is None else np.asarray(case_weights, dtype=float)
    beta = np.zeros(X.shape[1])
    if family == "gamma-inverse":
        beta[0] = c.sum() / (c @ y)
    for _ in range(max_iter):
        eta = X @ beta
        if family == "bernoulli-logit":
            mu = expit(eta)
            slope = mu * (1.0 - mu)
        else:
            mu = 1.0 / eta
            slope = -mu * mu
        root = np.sqrt(c * np.abs(slope))
        new = np.linalg.lstsq(X * root[:, None], (eta + (y - mu) / slope) * root, rcond=None)[0]
        while family == "gamma-inverse" and np.any(X @ new <= 0.0):
            new = 0.5 * (new + beta)
        if np.max(np.abs(new - beta)) < tol:
            return new
        beta = new
    raise ConvergenceError(f"irls_reference: no convergence in {max_iter} iterations")


def gamma_glm_se(X, beta, shape):
    """Delta-method standard errors of an inverse-link Gamma regression."""
    mu = 1.0 / (X @ beta)
    M = (X * (mu ** 2)[:, None]).T @ X
    return np.sqrt(np.diag(np.linalg.inv(M) / shape))


# ---------------------------------------------------------------------------
# Declustering, one row at a time


def decluster_rows(fam, seed):
    """``(kept rows, family sizes)`` in row order of ``data.decluster``: families met row by row,
    then one ``rng.integers(0, size)`` draw for each in order of first appearance."""
    members = {}
    for i, f in enumerate(fam):
        members.setdefault(f, []).append(i)  # a dict keeps first-appearance order
    rng = np.random.default_rng(seed)
    picks = sorted((rows[rng.integers(0, len(rows))], len(rows)) for rows in members.values())
    return [row for row, _ in picks], [size for _, size in picks]


# ---------------------------------------------------------------------------
# Constraint residuals, one cell at a time


def constraint_rows(columns, entries):
    """``(H, vacuous)`` of ``data.build_constraint_matrix``, cell by cell: ``H[i, k]`` is ``target_i - gamma_k``
    for a general entry, and for a subgroup entry the same where the row's group value equals ``group_value``
    (a NaN equals nothing) and 0.0 elsewhere; an entry is vacuous when every cell of its column is zero."""
    n = len(next(iter(columns.values())))
    H = [[0.0] * len(entries) for _ in range(n)]
    for k, e in enumerate(entries):
        for i in range(n):
            if e.kind == "general-moment" or float(columns[e.group_column][i]) == e.group_value:
                H[i][k] = float(columns[e.target_column][i]) - e.gamma
    vacuous = tuple(all(row[k] == 0.0 for row in H) for k in range(len(entries)))
    return np.array(H, dtype=float).reshape(n, len(entries)), vacuous


# ---------------------------------------------------------------------------
# Artifact I/O, one value or one cell at a time


def json_text(obj, indent: int = 0) -> str:
    """The indented JSON text ``cli.write_json`` writes, built as one string.

    A finite float is written as ``repr`` (its shortest round-trip text) and a
    non-finite one as ``null``; arrays are converted with ``tolist`` and
    serialized element by element.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return repr(x) if np.isfinite(x) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + "  " + json_text(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + "  " + json.dumps(str(k)) + ": " + json_text(v, indent + 2)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ConfigError(f"write_json: cannot serialize value of type {type(obj).__name__}")


def csv_columns(path: str) -> dict:
    """The float columns of a CSV file, parsed one cell at a time with ``float``.

    Raises ``DataError`` with the messages of ``data.load_dataset``.  Reads
    plain UTF-8, so a byte-order mark stays part of the first column name.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"load_dataset: {path!r} is empty") from None
            header = [name.strip() for name in header]
            if len(set(header)) != len(header):
                raise DataError(f"load_dataset: duplicate column names in {path!r}")
            raw = {name: [] for name in header}
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"load_dataset: row {rownum} of {path!r} has {len(row)} fields, expected {len(header)}"
                    )
                for name, cell in zip(header, row):
                    cell = cell.strip()
                    if cell == "":
                        raise DataError(f"load_dataset: missing value at row {rownum}, column {name!r}")
                    try:
                        raw[name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"load_dataset: non-numeric value {cell!r} at row {rownum}, column {name!r}"
                        ) from None
    except OSError as exc:
        raise DataError(f"load_dataset: cannot read {path!r}: {exc}") from exc
    if not raw or not next(iter(raw.values())):
        raise DataError(f"load_dataset: {path!r} has no data rows")
    return {name: np.asarray(vals, dtype=float) for name, vals in raw.items()}
