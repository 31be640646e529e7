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

import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import (ConstraintEntry, ConstraintSpec, Dataset, as_bool, as_names, as_number, as_tuple, build,
                   check_keys, make_dataset)
from .errors import DataError
from .estimators import ESTIMATORS, FitProblem
from .glm import FAMILIES, ModelSpec, expit
from .visibility import VisibilitySpec

GAMMA_SHAPE = 5.0  # shape of the gamma outcome; only the mean enters the estimand
COVARIATE_PARAMS = {"normal": ("mean", "sd"), "uniform": ("lo", "hi"), "bernoulli": ("p",),
                    "choice": ("values", "probs"), "map": ("source", "values", "outputs")}
DESIGN_KEYS = {  # each kind of sampling design: its keys and their defaults, None where the key is required
    "poisson": {"kind": None, "lo": None, "hi": None, "const": 0.0, "coeffs": {}, "response_coef": 0.0,
                "latent_sd": 0.0, "mask_latent": False},
    "two-strata": {"kind": None, "column": None, "rates": None, "family_sizes": {}}}
PROBS_ATOL = np.sqrt(np.finfo(float).eps)  # how far from 1 numpy's Generator.choice lets probabilities sum


def _floats(value, what: str, n: int | None = None) -> tuple[float, ...]:
    """A list of numbers (``n`` of them, if given) as floats, or a DataError naming ``what``."""
    values = as_tuple(value, what)
    if n is not None and len(values) != n:
        raise DataError(f"{what} must be a list of {n} numbers, got {value!r}")
    return tuple(as_number(v, what) for v in values)


def _probabilities(value, n: int, what: str) -> tuple[float, ...]:
    """``n`` probabilities as ``Generator.choice`` takes them: non-negative and summing to 1."""
    probs = _floats(value, what, n)
    if not all(p >= 0.0 for p in probs) or abs(math.fsum(probs) - 1.0) > PROBS_ATOL:
        raise DataError(f"{what} must be non-negative and sum to 1, got {value!r}")
    return probs


@dataclass(frozen=True)
class CovariateSpec:
    """One covariate column: ``normal(mean, sd)``, ``uniform(lo, hi)``,
    ``bernoulli(p)``, ``choice(values, probs)``, or the derived
    ``map(source, values, outputs)`` translating an earlier column's values."""

    name: str
    dist: str
    params: tuple

    def __post_init__(self):
        where = f"CovariateSpec {self.name!r}"
        if not isinstance(self.name, str):
            raise DataError(f"{where}: name must be a string")
        if self.dist not in tuple(COVARIATE_PARAMS):  # a tuple: dist may be unhashable
            raise DataError(f"{where}: unknown dist {self.dist!r}")
        names = COVARIATE_PARAMS[self.dist]
        params = as_tuple(self.params, f"{where}: params")
        if len(params) != len(names):
            raise DataError(f"{where}: {self.dist} needs params ({', '.join(names)}), got {params!r}")
        if self.dist == "choice":
            values = _floats(params[0], f"{where}: choice values")
            if not values:
                raise DataError(f"{where}: choice values must not be empty")
            probs = None if params[1] is None else _probabilities(params[1], len(values), f"{where}: choice probs")
            params = (values, probs)
        elif self.dist == "map":
            if not isinstance(params[0], str):
                raise DataError(f"{where}: map source must be a column name, got {params[0]!r}")
            values = _floats(params[1], f"{where}: map values")
            params = (params[0], values, _floats(params[2], f"{where}: map outputs", len(values)))
        else:
            params = tuple(as_number(v, f"{where}: {key}") for key, v in zip(names, params))
            if self.dist == "normal" and not params[1] >= 0.0:
                raise DataError(f"{where}: sd must be non-negative, got {params[1]!r}")
        object.__setattr__(self, "params", params)


def _sampling_design(design) -> dict:
    """A copy of the ``design`` of a :class:`DesignSpec` with every key of its kind in :data:`DESIGN_KEYS`, a
    missing one at its default, each value checked and in range, and its numbers as floats, so a bad key or
    value fails when the spec is built, before any replicate."""
    if not isinstance(design, dict):
        raise DataError(f"DesignSpec: design must be a dict, got {design!r}")
    kind = design.get("kind")
    if kind not in tuple(DESIGN_KEYS):  # a tuple: kind may be unhashable
        raise DataError(f"DesignSpec: unknown sampling design kind {kind!r}")
    check_keys(design, DESIGN_KEYS[kind], "design.design")
    out = {**DESIGN_KEYS[kind], **design}
    if kind == "poisson":
        for key in ("lo", "hi", "const", "response_coef", "latent_sd"):
            out[key] = as_number(out[key], f"DesignSpec: design.{key}")
        if out["latent_sd"] < 0.0:
            raise DataError(f"DesignSpec: design.latent_sd must be non-negative, got {out['latent_sd']!r}")
        lo, hi = out["lo"], out["hi"]
        if not (0.0 < lo <= hi <= 1.0):
            key = "hi" if 0.0 < lo <= 1.0 else "lo"
            raise DataError(f"DesignSpec: design.{key}: a poisson design needs 0 < lo <= hi <= 1, got ({lo}, {hi})")
        out["mask_latent"] = as_bool(out["mask_latent"], "DesignSpec: design.mask_latent")
        coeffs = out["coeffs"]
        if not isinstance(coeffs, dict):
            raise DataError(f"DesignSpec: design.coeffs must map column names to numbers, got {coeffs!r}")
        out["coeffs"] = {name: as_number(c, f"DesignSpec: design.coeffs[{name!r}]") for name, c in coeffs.items()}
        return out
    if not isinstance(out["column"], str):
        raise DataError(f"DesignSpec: design.column must be a column name, got {out['column']!r}")
    out["rates"] = _floats(out["rates"], "DesignSpec: design.rates", 2)
    if not all(0.0 < r <= 1.0 for r in out["rates"]):
        raise DataError(f"DesignSpec: design.rates must lie in (0, 1], got {out['rates']!r}")
    fam = out["family_sizes"]
    if fam:
        if not isinstance(fam, dict) or not {"values", "probs"} <= set(fam):
            raise DataError(f"DesignSpec: design.family_sizes must hold values and probs, got {fam!r}")
        check_keys(fam, ("values", "probs"), "design.design.family_sizes")
        values = _floats(fam["values"], "DesignSpec: design.family_sizes.values")
        if not all(v >= 1.0 for v in values):
            raise DataError(f"DesignSpec: design.family_sizes.values must be at least 1, got {values!r}")
        out["family_sizes"] = {"values": values, "probs": _probabilities(
            fam["probs"], len(values), "DesignSpec: design.family_sizes.probs")}
    return out


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to generate one replicate.

    ``theta0`` lines up with ``(intercept,) + terms``; ``covariates`` holds
    :class:`CovariateSpec` objects or dicts of their fields; ``dummies`` maps a
    categorical column to the values that get 0/1 columns named
    ``"{parent}_{value:g}"``; ``design`` holds every key of its kind in
    :data:`DESIGN_KEYS`; ``constraints`` holds dicts of checked ``ConstraintEntry``
    fields with an optional ``gamma`` (the true superpopulation moment; without
    it the target is evaluated on the realized population); ``visibility`` is a
    ``VisibilitySpec`` or a dict of its fields (default: given-pi).

    ``fit_terms`` lets the fitted model be coarser than the generating one
    (omitted-covariate designs); ``estimand`` is then the root of the
    population score equation for the fitted model, which is what the Monte
    Carlo aggregates compare against.  Both default to ``terms`` / ``theta0``.

    ``roles`` (the population's) and ``hidden`` (the population columns the
    sample leaves out) are planned from the rest when the spec is built.
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
    visibility: VisibilitySpec | dict | None = None
    fixed_population: bool = False
    fit_terms: tuple[str, ...] = ()
    estimand: tuple[float, ...] = ()
    roles: dict = field(init=False, repr=False, compare=False)
    hidden: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = as_number(self.N, "DesignSpec: N")
        if N < 2 or N != int(N):
            raise DataError(f"DesignSpec: N must be an integer of at least 2, got {self.N!r}")
        if N > np.iinfo(np.intp).max:
            raise DataError(f"DesignSpec: N must be at most {np.iinfo(np.intp).max}, numpy's largest array size, "
                            f"got {self.N!r}")
        object.__setattr__(self, "N", int(N))
        for key in ("intercept", "fixed_population"):
            object.__setattr__(self, key, as_bool(getattr(self, key), f"DesignSpec: {key}"))
        if self.family not in FAMILIES:
            raise DataError(f"DesignSpec: unknown family {self.family!r}")
        object.__setattr__(self, "theta0", _floats(self.theta0, "DesignSpec: theta0"))
        covariates = tuple(c if isinstance(c, CovariateSpec) else build(CovariateSpec, c, f"design.covariates[{k}]")
                           for k, c in enumerate(as_tuple(self.covariates, "DesignSpec: covariates")))
        object.__setattr__(self, "covariates", covariates)
        terms = as_names(self.terms, "DesignSpec: terms") or tuple(c.name for c in covariates)
        object.__setattr__(self, "terms", terms)
        if not isinstance(self.dummies, dict):
            raise DataError(f"DesignSpec: dummies must map column names to lists of values, got {self.dummies!r}")
        object.__setattr__(self, "dummies", {parent: _floats(values, f"DesignSpec: dummies[{parent!r}]")
                                             for parent, values in self.dummies.items()})
        constraints = []  # the checked fields of each entry; without a gamma, its target waits for a population
        for k, c in enumerate(as_tuple(self.constraints, "DesignSpec: constraints")):
            where = f"design.constraints[{k}]"
            entry = build(ConstraintEntry, {"gamma": 0.0, **c} if isinstance(c, dict) else c, where)
            constraints.append({key: v for key, v in asdict(entry).items() if key != "gamma" or key in c})
        object.__setattr__(self, "constraints", tuple(constraints))
        if not isinstance(self.visibility, VisibilitySpec):
            vis = {"mode": "given-pi"} if self.visibility is None else self.visibility
            object.__setattr__(self, "visibility", build(VisibilitySpec, vis, "design.visibility"))
        p = len(terms) + (1 if self.intercept else 0)
        if len(self.theta0) != p:
            raise DataError(f"DesignSpec: theta0 has length {len(self.theta0)}, model needs {p}")
        fit_terms = as_names(self.fit_terms, "DesignSpec: fit_terms") or terms
        object.__setattr__(self, "fit_terms", fit_terms)
        estimand = _floats(self.estimand, "DesignSpec: estimand") or self.theta0
        object.__setattr__(self, "estimand", estimand)
        p_fit = len(fit_terms) + (1 if self.intercept else 0)
        if len(estimand) != p_fit:
            raise DataError(f"DesignSpec: estimand has length {len(estimand)}, fitted model needs {p_fit}")
        object.__setattr__(self, "design", _sampling_design(self.design))
        self._check_columns()

    def _check_columns(self) -> None:
        """Check each column name the spec reads against the columns generated before it is read, and plan
        :attr:`roles` and :attr:`hidden`: the population holds the covariates in order, the dummies, ``y``,
        then ``latent`` or ``nf``, and ``pi``; the sample holds the same, except that under ``mask_latent`` it
        holds ``w`` in place of ``latent`` and ``pi``, and its design role no ``latent``."""
        def check(names, columns, what):
            for name in names:
                if name not in columns:
                    raise DataError(f"DesignSpec: {what} {name!r} is not a column generated before it is read "
                                    f"({', '.join(columns)})")

        columns = []
        for c in self.covariates:
            if c.dist == "map":
                check([c.params[0]], columns, f"map covariate {c.name!r}: source")
            columns.append(c.name)
        check(self.dummies, columns, "dummies parent")
        columns += [f"{parent}_{v:g}" for parent, values in self.dummies.items() for v in values]
        check(self.terms, columns, "model term")
        columns.append("y")
        dsg = self.design
        if dsg["kind"] == "poisson":
            check(dsg["coeffs"], columns, "design.coeffs column")
            if dsg["latent_sd"] > 0.0:
                columns.append("latent")
        else:
            check([dsg["column"]], columns, "design.column")
            if dsg["family_sizes"]:
                columns.append("nf")
        columns.append("pi")
        hidden = ("latent", "pi") if dsg.get("mask_latent") else ()
        kept = [name for name in columns if name not in hidden]  # in the population and the sample
        sample = kept + (["w"] if hidden else [])
        for names in (columns, sample):  # a second column of one name would overwrite the first
            twice = [name for k, name in enumerate(names) if name in names[:k]]
            if twice:
                raise DataError(f"DesignSpec: column {twice[0]!r} is generated twice ({', '.join(names)})")
        design = [*dsg["coeffs"], "latent"] if dsg["kind"] == "poisson" else [dsg["column"]]
        object.__setattr__(self, "roles", {"response": "y", "covariates": self.fit_terms,
                                           "design": [name for name in design if name in kept], "pi": "pi"})
        object.__setattr__(self, "hidden", hidden)
        check(self.fit_terms, kept, "fitted-model term")
        for k, c in enumerate(self.constraints):
            names = [name for name in (c["target_column"], c["group_column"]) if name is not None]
            check(names, sample if "gamma" in c else kept, f"constraints[{k}] column")
        check(self.visibility.formula or (), sample, "visibility formula column")
        if self.visibility.nf_adjust and "nf" not in sample:
            raise DataError("DesignSpec: visibility nf_adjust reads an 'nf' column, which only a two-strata "
                            "design with family_sizes generates")

    @property
    def model(self) -> ModelSpec:
        return ModelSpec(family=self.family, terms=self.fit_terms, intercept=self.intercept)


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
            src = columns[source]
            mapped = np.full(spec.N, np.nan)
            for v, o in zip(values, outputs):
                mapped[src == v] = o
            if np.isnan(mapped).any():
                raise DataError(f"gen_population: map covariate {cov.name!r} leaves source values unmapped")
            columns[cov.name] = mapped
        else:
            columns[cov.name] = _draw_covariate(cov, spec.N, rng)
    for parent, values in spec.dummies.items():
        for v in values:
            columns[f"{parent}_{v:g}"] = (columns[parent] == v).astype(float)

    eta = np.zeros(spec.N)
    coefs = list(spec.theta0)
    if spec.intercept:
        eta += coefs.pop(0)
    for name, coef in zip(spec.terms, coefs):
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
        lin = np.full(spec.N, dsg["const"])
        for name, coef in dsg["coeffs"].items():
            lin += coef * columns[name]
        lin += dsg["response_coef"] * y
        if dsg["latent_sd"] > 0.0:
            columns["latent"] = rng.normal(0.0, dsg["latent_sd"], size=spec.N)
            lin += columns["latent"]
        lo, hi = dsg["lo"], dsg["hi"]
        pi = lo + (hi - lo) * expit(lin)
    else:
        col = dsg["column"]
        strata = columns[col]
        if not np.all((strata == 0.0) | (strata == 1.0)):
            raise DataError(f"gen_population: strata column {col!r} must be 0/1")
        r0, r1 = dsg["rates"]
        pi = np.where(strata == 1.0, r1, r0)
        fam = dsg["family_sizes"]
        if fam:
            # de-clustered units: one member kept per size-nf family, weight times nf
            sizes = np.asarray(fam["values"], dtype=float)
            nf = rng.choice(sizes, size=spec.N, p=np.asarray(fam["probs"], dtype=float))
            columns["nf"] = nf
            pi = pi / nf
    columns["pi"] = pi

    # The population itself is a census: keep pi attached but weight it uniformly.
    return Dataset(columns=columns, roles=spec.roles, d=np.full(spec.N, 1.0 / spec.N))


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
    columns = {name: col[idx] for name, col in population.columns.items() if name not in spec.hidden}
    roles = dict(population.roles)
    if spec.hidden:  # the sample weights its rows by a w column in place of pi (see DesignSpec.hidden)
        columns["w"] = 1.0 / pi[idx]
        del roles["pi"]
        roles.update(weight="w", weight_mode="direct")
    return make_dataset(columns, roles)


def population_constraint_spec(population: Dataset, spec: DesignSpec) -> ConstraintSpec:
    """Resolve the constraint targets for one replicate.

    A descriptor carrying an explicit ``gamma`` uses it as-is (the true
    superpopulation moment, matching the asymptotic theory); otherwise the
    target is the realized population mean (overall, or within the subgroup).
    """
    entries = []
    for c in spec.constraints:
        if "gamma" not in c:
            target = population.columns[c["target_column"]]
            if c["kind"] == "subgroup-moment":
                target = target[population.columns[c["group_column"]] == c["group_value"]]
                if not target.size:
                    raise DataError(f"population_constraint_spec: empty group {c['group_column']}={c['group_value']}")
            c = dict(c, gamma=float(target.mean()))
        entries.append(ConstraintEntry(**c))
    return ConstraintSpec(entries=tuple(entries))


def _replicate(spec: DesignSpec, estimators, pop_seed: int, sample_seed: int, population=None):
    try:
        pop = population if population is not None else gen_population(spec, pop_seed)
        constraints = population_constraint_spec(pop, spec)
        problem = FitProblem(draw_sample(pop, spec, sample_seed), spec.model, constraints, spec.visibility)
    except DataError as exc:
        return {name: {"error": f"DataError: {exc}"} for name in estimators}
    out = {}
    for name in estimators:
        try:
            fit = problem.fit(name)
        except DataError as exc:
            out[name] = {"error": f"DataError: {exc}"}
        else:
            out[name] = ({"theta": fit.theta, "se": fit.se} if fit.diagnostics["converged"]
                         else {"error": f"not converged: {fit.diagnostics['failure']}"})
    return out


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
            values = {f.name: getattr(s, f.name) for f in fields(s)}
            out["estimators"][name] = {k: v if isinstance(v, int) else list(v) for k, v in values.items()}
        return out


def run_monte_carlo(spec: DesignSpec, estimators, reps: int, seed: int, jobs: int = 1) -> MCSummary:
    """Run ``reps`` independent replicates and aggregate per estimator.

    Per-replicate seeds are pre-drawn from one master stream, so results are
    identical for any ``jobs`` (at least 1; at most one worker process starts
    per replicate and per CPU the process may run on).  Failed replicates
    (infeasible constraints, non-convergence, empty samples) are counted per
    estimator, never abort the batch, and are excluded from the aggregates.
    Coverage counts ``|theta_hat_k - theta0_k| <= 1.96 se_k`` per coefficient.
    """
    estimators = tuple(estimators)
    if not estimators:
        raise DataError("run_monte_carlo: estimators must name at least one estimator")
    for name in estimators:
        if name not in ESTIMATORS:
            raise DataError(f"run_monte_carlo: unknown estimator {name!r}; expected one of {ESTIMATORS}")
    if reps < 1:
        raise DataError("run_monte_carlo: reps must be at least 1")
    if jobs < 1:
        raise DataError(f"run_monte_carlo: jobs must be at least 1, got {jobs}")
    master = np.random.default_rng(seed)
    rep_seeds = master.integers(0, 2**62, size=(reps, 2))
    population = gen_population(spec, int(rep_seeds[0, 0])) if spec.fixed_population else None

    tasks = [(spec, estimators, int(rep_seeds[r, 0]), int(rep_seeds[r, 1]), population)
             for r in range(reps)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, reps, cpus)
    if workers > 1:
        import concurrent.futures  # here, not at module level: only a pool needs it
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, *zip(*tasks), chunksize=max(1, reps // (8 * workers))))
    else:
        results = [_replicate(*t) for t in tasks]

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
