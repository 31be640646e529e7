"""Synthetic superpopulations, informative Poisson sampling, and the
Monte Carlo harness used to check the estimators at desk scale.

A :class:`DesignSpec` is plain data (picklable) describing the population
size, outcome model, covariate distributions, sampling design, population
constraints, and visibility source.  :func:`run_monte_carlo` threads one
master seed through independent per-replicate streams, never aborts the
batch on a failed replicate, and aggregates bias, spread, standard errors,
and nominal-95% coverage per coefficient.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .data import ConstraintEntry, ConstraintSpec, Dataset, make_dataset
from .errors import ConvergenceError, DataError, InfeasibleError
from .estimators import ESTIMATORS, FitProblem
from .glm import FAMILIES, ModelSpec
from .visibility import estimate_visibility, visibility_from_pi

GAMMA_SHAPE = 5.0  # shape of the gamma outcome; only the mean enters the estimand
COVARIATE_DISTS = ("normal", "uniform", "bernoulli", "choice", "map")
DESIGN_KINDS = ("poisson", "two-strata")


@dataclass(frozen=True)
class CovariateSpec:
    """One covariate column: ``normal(mean, sd)``, ``uniform(lo, hi)``,
    ``bernoulli(p)``, ``choice(values, probs)``, or the derived
    ``map(source, values, outputs)`` translating an earlier column's values."""

    name: str
    dist: str
    params: tuple

    def __post_init__(self):
        if self.dist not in COVARIATE_DISTS:
            raise DataError(f"CovariateSpec {self.name!r}: unknown dist {self.dist!r}")
        object.__setattr__(self, "params", tuple(self.params))
        if self.dist == "map":
            if len(self.params) != 3 or len(self.params[1]) != len(self.params[2]):
                raise DataError(f"CovariateSpec {self.name!r}: map needs (source, values, outputs)"
                                " with matching lengths")


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to generate one replicate.

    ``theta0`` lines up with ``(intercept,) + terms``; ``dummies`` maps a
    categorical column to the values that get 0/1 columns named
    ``"{parent}_{value:g}"``; ``constraints`` holds dicts with keys
    ``kind`` / ``target_column`` / ``group_column`` / ``group_value`` plus an
    optional explicit ``gamma`` (the true superpopulation moment; without it
    the target is evaluated on the realized population); ``visibility`` is
    ``{"mode": "given-pi"}`` or ``{"mode": "gamma-regression",
    "formula": [...], "nf_adjust": false}`` (default: given-pi).

    ``fit_terms`` lets the fitted model be coarser than the generating one
    (omitted-covariate designs); ``estimand`` is then the root of the
    population score equation for the fitted model, which is what the Monte
    Carlo aggregates compare against.  Both default to ``terms`` / ``theta0``.
    """

    N: int
    family: str
    theta0: tuple[float, ...]
    covariates: tuple[CovariateSpec, ...]
    design: dict
    terms: tuple[str, ...] = ()
    intercept: bool = True
    dummies: dict = field(default_factory=dict)
    constraints: tuple = ()
    visibility: dict | None = None
    fixed_population: bool = False
    fit_terms: tuple[str, ...] = ()
    estimand: tuple[float, ...] = ()

    def __post_init__(self):
        if self.N < 2:
            raise DataError("DesignSpec: N must be at least 2")
        if self.family not in FAMILIES:
            raise DataError(f"DesignSpec: unknown family {self.family!r}")
        object.__setattr__(self, "theta0", tuple(float(t) for t in self.theta0))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        terms = tuple(self.terms) if self.terms else tuple(c.name for c in self.covariates)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constraints", tuple(dict(c) for c in self.constraints))
        p = len(terms) + (1 if self.intercept else 0)
        if len(self.theta0) != p:
            raise DataError(f"DesignSpec: theta0 has length {len(self.theta0)}, model needs {p}")
        fit_terms = tuple(self.fit_terms) if self.fit_terms else terms
        object.__setattr__(self, "fit_terms", fit_terms)
        estimand = tuple(float(t) for t in self.estimand) if self.estimand else self.theta0
        object.__setattr__(self, "estimand", estimand)
        p_fit = len(fit_terms) + (1 if self.intercept else 0)
        if len(estimand) != p_fit:
            raise DataError(f"DesignSpec: estimand has length {len(estimand)}, fitted model needs {p_fit}")
        kind = self.design.get("kind")
        if kind not in DESIGN_KINDS:
            raise DataError(f"DesignSpec: unknown sampling design kind {kind!r}")

    @property
    def model(self) -> ModelSpec:
        return ModelSpec(family=self.family, terms=self.fit_terms, intercept=self.intercept)

    def design_columns(self) -> tuple[str, ...]:
        if self.design["kind"] == "poisson":
            cols = tuple(self.design.get("coeffs", {}))
            if self.design.get("latent_sd", 0.0) and not self.design.get("mask_latent", False):
                cols = cols + ("latent",)
            return cols
        return (self.design["column"],)


def _draw_covariate(spec: CovariateSpec, N: int, rng) -> np.ndarray:
    if spec.dist == "normal":
        mean, sd = spec.params
        return rng.normal(mean, sd, size=N)
    if spec.dist == "uniform":
        lo, hi = spec.params
        return rng.uniform(lo, hi, size=N)
    if spec.dist == "bernoulli":
        (prob,) = spec.params
        return (rng.random(N) < prob).astype(float)
    values, probs = spec.params
    return rng.choice(np.asarray(values, dtype=float), size=N,
                      p=None if probs is None else np.asarray(probs, dtype=float))


def gen_population(spec: DesignSpec, seed: int) -> Dataset:
    """Draw an iid superpopulation of size N with outcomes and inclusion
    probabilities attached (columns ``y`` and ``pi``)."""
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for cov in spec.covariates:
        if cov.dist == "map":
            source, values, outputs = cov.params
            if source not in columns:
                raise DataError(f"gen_population: map covariate {cov.name!r} needs {source!r} first")
            src = columns[source]
            mapped = np.full(spec.N, np.nan)
            for v, o in zip(values, outputs):
                mapped[src == float(v)] = float(o)
            if np.isnan(mapped).any():
                raise DataError(f"gen_population: map covariate {cov.name!r} leaves source values unmapped")
            columns[cov.name] = mapped
        else:
            columns[cov.name] = _draw_covariate(cov, spec.N, rng)
    for parent, values in spec.dummies.items():
        if parent not in columns:
            raise DataError(f"gen_population: dummies parent {parent!r} is not a covariate")
        for v in values:
            columns[f"{parent}_{v:g}"] = (columns[parent] == v).astype(float)

    eta = np.zeros(spec.N)
    coefs = list(spec.theta0)
    if spec.intercept:
        eta += coefs.pop(0)
    for name, coef in zip(spec.terms, coefs):
        if name not in columns:
            raise DataError(f"gen_population: model term {name!r} was never generated")
        eta += coef * columns[name]
    if spec.family == "bernoulli-logit":
        y = (rng.random(spec.N) < expit(eta)).astype(float)
    elif spec.family == "gaussian-identity":
        y = eta + rng.standard_normal(spec.N)
    else:
        if np.any(eta <= 0.0):
            raise DataError("gen_population: gamma-inverse outcome needs a positive linear predictor")
        mu = 1.0 / eta
        y = rng.gamma(GAMMA_SHAPE, mu / GAMMA_SHAPE, size=spec.N)
    columns["y"] = y

    dsg = spec.design
    if dsg["kind"] == "poisson":
        lin = np.full(spec.N, float(dsg.get("const", 0.0)))
        for name, coef in dsg.get("coeffs", {}).items():
            if name not in columns:
                raise DataError(f"gen_population: sampling design column {name!r} was never generated")
            lin += coef * columns[name]
        lin += float(dsg.get("response_coef", 0.0)) * y
        sd = float(dsg.get("latent_sd", 0.0))
        if sd > 0.0:
            columns["latent"] = rng.normal(0.0, sd, size=spec.N)
            lin += columns["latent"]
        lo, hi = float(dsg["lo"]), float(dsg["hi"])
        if not (0.0 < lo <= hi <= 1.0):
            raise DataError(f"gen_population: poisson design needs 0 < lo <= hi <= 1, got ({lo}, {hi})")
        pi = lo + (hi - lo) * expit(lin)
    else:
        col = dsg["column"]
        if col not in columns:
            raise DataError(f"gen_population: strata column {col!r} was never generated")
        strata = columns[col]
        if not np.all((strata == 0.0) | (strata == 1.0)):
            raise DataError(f"gen_population: strata column {col!r} must be 0/1")
        r0, r1 = (float(r) for r in dsg["rates"])
        if not (0.0 < r0 <= 1.0 and 0.0 < r1 <= 1.0):
            raise DataError("gen_population: two-strata rates must lie in (0, 1]")
        pi = np.where(strata == 1.0, r1, r0)
        fam = dsg.get("family_sizes")
        if fam:
            # de-clustered units: one member kept per size-nf family, weight times nf
            sizes = np.asarray(fam["values"], dtype=float)
            if np.any(sizes < 1.0):
                raise DataError("gen_population: family sizes must be at least 1")
            nf = rng.choice(sizes, size=spec.N, p=np.asarray(fam["probs"], dtype=float))
            columns["nf"] = nf
            pi = pi / nf
    columns["pi"] = pi

    for t in spec.fit_terms:
        if t not in columns:
            raise DataError(f"gen_population: fitted-model term {t!r} was never generated")
    roles = {"response": "y", "covariates": list(spec.fit_terms),
             "design": list(spec.design_columns()), "pi": "pi"}
    ds = make_dataset(columns, roles)
    # The population itself is a census: keep pi attached but weight it uniformly.
    return Dataset(columns=ds.columns, roles=ds.roles, d=np.full(spec.N, 1.0 / spec.N))


def draw_sample(population: Dataset, spec: DesignSpec, seed: int) -> Dataset:
    """Poisson sampling: include each unit independently with its ``pi``.

    An empty draw is retried (fresh randomness, same stream) up to 10 times.
    With ``mask_latent`` the sample hides ``pi`` and the latent design
    column, carrying the inverse-probability weight in a ``w`` column
    instead, so the visibility must be estimated downstream.
    """
    rng = np.random.default_rng(seed)
    pi = population.columns["pi"]
    for _ in range(10):
        take = rng.random(population.n) < pi
        if take.any():
            break
    else:
        raise DataError("draw_sample: empty sample after 10 attempts")
    idx = np.flatnonzero(take)
    columns = {name: col[idx] for name, col in population.columns.items()}
    roles = {k: v for k, v in population.roles.items()}
    roles["covariates"] = list(population.roles["covariates"])
    roles["design"] = list(population.roles["design"])
    mask = spec.design.get("kind") == "poisson" and spec.design.get("mask_latent", False)
    if mask:
        columns["w"] = 1.0 / columns["pi"]
        del columns["pi"]
        columns.pop("latent", None)
        roles["pi"] = None
        roles["design"] = [c for c in roles["design"] if c != "latent"]
        roles.update(weight="w", weight_mode="direct")
    roles = {k: v for k, v in roles.items() if v is not None}
    return make_dataset(columns, roles)


def population_constraint_spec(population: Dataset, spec: DesignSpec) -> ConstraintSpec:
    """Resolve the constraint targets for one replicate.

    A descriptor carrying an explicit ``gamma`` uses it as-is (the true
    superpopulation moment, matching the asymptotic theory); otherwise the
    target is the realized population mean (overall, or within the subgroup).
    """
    entries = []
    for c in spec.constraints:
        target = population.columns[c["target_column"]]
        if c["kind"] == "subgroup-moment":
            if "gamma" in c:
                gamma = float(c["gamma"])
            else:
                mask = population.columns[c["group_column"]] == c["group_value"]
                if not mask.any():
                    raise DataError(f"population_constraint_spec: empty group {c['group_column']}={c['group_value']}")
                gamma = float(target[mask].mean())
            entries.append(ConstraintEntry(kind="subgroup-moment", target_column=c["target_column"],
                                           gamma=gamma, group_column=c["group_column"],
                                           group_value=float(c["group_value"])))
        else:
            gamma = float(c["gamma"]) if "gamma" in c else float(target.mean())
            entries.append(ConstraintEntry(kind="general-moment", target_column=c["target_column"],
                                           gamma=gamma))
    return ConstraintSpec(entries=tuple(entries))


def _replicate(spec: DesignSpec, estimators, pop_seed: int, sample_seed: int, population=None):
    out = {}
    try:
        pop = population if population is not None else gen_population(spec, pop_seed)
        constraints = population_constraint_spec(pop, spec)
        sample = draw_sample(pop, spec, sample_seed)
        vis = None
        if any(name in ("ce", "ce-joint") for name in estimators):
            visibility = spec.visibility or {"mode": "given-pi"}
            vis = visibility_from_pi(sample) if visibility["mode"] == "given-pi" else estimate_visibility(
                sample, visibility.get("formula", list(sample.roles["design"])),
                nf_adjust=bool(visibility.get("nf_adjust", False)))
    except (DataError, InfeasibleError, ConvergenceError) as exc:
        return {name: {"error": f"{type(exc).__name__}: {exc}"} for name in estimators}
    problem = FitProblem(sample, spec.model, constraints, vis)
    for name in estimators:
        try:
            fit = problem.fit(name)
            if fit.diagnostics.get("converged", False):
                out[name] = {"theta": fit.theta, "se": fit.se}
            else:
                out[name] = {"error": f"not converged: {fit.diagnostics.get('failure', 'unknown')}"}
        except (DataError, InfeasibleError, ConvergenceError) as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def _replicate_task(args):
    return _replicate(*args)


@dataclass(frozen=True)
class EstimatorSummary:
    """Per-coefficient Monte Carlo aggregates for one estimator."""

    mean: np.ndarray
    bias: np.ndarray
    sd: np.ndarray
    rmse: np.ndarray
    mean_se: np.ndarray
    coverage: np.ndarray
    n_converged: int
    n_failed: int
    failures: tuple[str, ...]


@dataclass(frozen=True)
class MCSummary:
    """Monte Carlo batch result: one :class:`EstimatorSummary` per estimator."""

    reps: int
    seed: int
    theta0: tuple[float, ...]
    coef_names: tuple[str, ...]
    estimators: dict

    def as_dict(self) -> dict:
        out = {"reps": self.reps, "seed": self.seed, "theta0": list(self.theta0),
               "coef_names": list(self.coef_names), "estimators": {}}
        for name, s in self.estimators.items():
            out["estimators"][name] = {
                "mean": list(s.mean), "bias": list(s.bias), "sd": list(s.sd),
                "rmse": list(s.rmse), "mean_se": list(s.mean_se), "coverage": list(s.coverage),
                "n_converged": s.n_converged, "n_failed": s.n_failed, "failures": list(s.failures),
            }
        return out


def run_monte_carlo(spec: DesignSpec, estimators, reps: int, seed: int, jobs: int = 1) -> MCSummary:
    """Run ``reps`` independent replicates and aggregate per estimator.

    Per-replicate seeds are pre-drawn from one master stream, so results are
    identical for any ``jobs``.  Failed replicates (infeasible constraints,
    non-convergence, empty samples) are counted per estimator, never abort
    the batch, and are excluded from the aggregates.  Coverage counts
    ``|theta_hat_k - theta0_k| <= 1.96 se_k`` per coefficient.
    """
    estimators = tuple(estimators)
    for name in estimators:
        if name not in ESTIMATORS:
            raise DataError(f"run_monte_carlo: unknown estimator {name!r}; expected ones of {ESTIMATORS}")
    if reps < 1:
        raise DataError("run_monte_carlo: reps must be at least 1")
    master = np.random.default_rng(seed)
    rep_seeds = master.integers(0, 2**62, size=(reps, 2))
    population = gen_population(spec, int(rep_seeds[0, 0])) if spec.fixed_population else None

    tasks = [(spec, estimators, int(rep_seeds[r, 0]), int(rep_seeds[r, 1]), population)
             for r in range(reps)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_replicate_task, tasks, chunksize=max(1, reps // (8 * jobs))))
    else:
        results = [_replicate_task(t) for t in tasks]

    target = np.asarray(spec.estimand)
    p = target.size
    summaries = {}
    for name in estimators:
        thetas, ses, failures = [], [], []
        for res in results:
            r = res[name]
            if "error" in r:
                failures.append(r["error"])
            else:
                thetas.append(r["theta"])
                ses.append(r["se"])
        if thetas:
            T = np.vstack(thetas)
            S = np.vstack(ses)
            mean = T.mean(axis=0)
            bias = mean - target
            sd = T.std(axis=0, ddof=1) if T.shape[0] > 1 else np.zeros(p)
            rmse = np.sqrt(((T - target) ** 2).mean(axis=0))
            mean_se = S.mean(axis=0)
            coverage = (np.abs(T - target) <= 1.96 * S).mean(axis=0)
        else:
            mean = bias = sd = rmse = mean_se = coverage = np.full(p, np.nan)
        summaries[name] = EstimatorSummary(mean=mean, bias=bias, sd=sd, rmse=rmse,
                                           mean_se=mean_se, coverage=coverage,
                                           n_converged=len(thetas), n_failed=len(failures),
                                           failures=tuple(failures[:5]))
    return MCSummary(reps=reps, seed=seed, theta0=tuple(spec.estimand),
                     coef_names=tuple(spec.model.coef_names), estimators=summaries)
