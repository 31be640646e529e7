"""Role-tagged survey data: loading, validation, design weights, constraints.

A :class:`Dataset` couples a dictionary of numeric columns with a role map
(response, covariates, design variables, inclusion probability, weight source,
family identifier) and the normalized design-weight vector ``d`` derived from
the tagged weight source.  Population-level moment constraints are described
by :class:`ConstraintSpec` and materialized as an ``n x q`` residual matrix by
:func:`build_constraint_matrix`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import _decimal
from .elcore import r_factor
from .errors import DataError

ROLE_KEYS = ("response", "covariates", "design", "pi", "weight", "weight_mode", "family")
WEIGHT_MODES = ("inverse-probability", "direct")
CONSTRAINT_KINDS = ("subgroup-moment", "general-moment")
# Non-vacuous constraint columns scaled to unit norm are dependent when their smallest singular value is at
# most RANK_RTOL times the largest: the sandwich's H'WH block then has condition number 1e16 or more.
RANK_RTOL = 1e-8
BLOCK = 1 << 20  # bytes of rows that the exact CSV kernel parses at a time


def _weight_source(columns: dict, roles: dict) -> np.ndarray:
    """The design weights before normalization, from the tagged weight source (see :class:`Dataset`), whose
    column the role checks have found present and finite; a weight column must be strictly positive."""
    name = roles.get("weight")
    if name:
        source = columns[name]
        if np.any(source <= 0.0):
            raise DataError(f"Dataset: weight column {name!r} must be strictly positive")
        return source if roles["weight_mode"] == "direct" else 1.0 / source
    if roles.get("pi"):
        return 1.0 / columns[roles["pi"]]
    return np.ones(len(next(iter(columns.values()))))


def as_tuple(value, what: str) -> tuple:
    """``tuple(value)`` for a list of names or specs; a lone string is rejected, not split into characters,
    and so is any value that is not iterable."""
    if isinstance(value, str):
        raise DataError(f"{what} must be a list, got the string {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise DataError(f"{what} must be a list, got {value!r}") from None


def as_names(value, what: str) -> tuple:
    """:func:`as_tuple` for a list of column names, each of which must be a string."""
    names = as_tuple(value, what)
    for name in names:
        if not isinstance(name, str):
            raise DataError(f"{what} must be a list of column names, got the element {name!r}")
    return names


def as_bool(value, what: str) -> bool:
    """A boolean config value: ``true``/``false``, or 0/1; any other value, such as the string
    ``"false"``, is rejected rather than read by its truthiness."""
    if isinstance(value, (int, np.integer, np.bool_)) and value in (0, 1):
        return bool(value)
    raise DataError(f"{what} must be true or false, got {value!r}")


def as_number(value, what: str) -> float:
    """``float(value)`` for a number config value; a boolean, a value ``float`` rejects, and NaN or an
    infinity (JSON's ``NaN`` and ``Infinity`` give them) are rejected."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(number):
        raise DataError(f"{what} must be a finite number, got {value!r}")
    return number


def check_keys(section, allowed, where: str, error: type[ValueError] = DataError) -> None:
    """An ``error`` naming ``where`` unless ``section`` is a dict whose keys are all in ``allowed``."""
    if not isinstance(section, dict):
        raise error(f"section {where!r} must be an object")
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise error(f"unknown key {unknown[0]!r} in {where!r}; allowed keys: {sorted(allowed)}")


def build(cls, section, where: str):
    """``cls(**section)`` for a dict ``section`` that holds only fields of the dataclass ``cls``; a
    missing field, like any key :func:`check_keys` rejects, and a value the constructor rejects with a
    ValueError are a DataError naming ``where``."""
    check_keys(section, [f.name for f in fields(cls) if f.init], where)
    try:
        return cls(**section)
    except TypeError as exc:
        raise DataError(f"{exc} in {where!r}") from exc
    except ValueError as exc:
        raise DataError(f"section {where!r}: {exc}") from exc


@dataclass(frozen=True)
class Dataset:
    """Validated columnar data with roles and normalized design weights.

    Every role-tagged column must be present with finite values (see :meth:`column`).  Without ``d``
    the design weights come from the tagged weight source: an explicit ``weight`` column (interpreted
    per ``weight_mode``) wins over a tagged ``pi`` column (inverse-probability weights); with neither
    tag they are uniform.
    """

    columns: dict[str, np.ndarray]
    roles: dict
    d: np.ndarray | None = None

    def __post_init__(self):
        if not self.columns:
            raise DataError("Dataset: at least one column is required")
        lengths = {name: len(col) for name, col in self.columns.items()}
        n = next(iter(lengths.values()))
        if any(m != n for m in lengths.values()):
            raise DataError(f"Dataset: column lengths differ: {lengths}")
        if n == 0:
            raise DataError("Dataset: zero rows")
        unknown = set(self.roles) - set(ROLE_KEYS)
        if unknown:
            raise DataError(f"dataset roles: unknown role keys {sorted(unknown)}; expected {ROLE_KEYS}")
        roles = dict(self.roles)  # each list role becomes a tuple of names, () when untagged
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "columns", {name: np.asarray(col, dtype=float) for name, col in self.columns.items()})
        for key in ("response", "covariates", "design", "pi", "weight", "family"):
            names = roles.get(key)
            if key in ("covariates", "design"):
                names = roles[key] = () if names is None else as_names(names, f"dataset roles: role {key!r}")
            elif names is not None and not isinstance(names, str):
                raise DataError(f"dataset roles: role {key!r} must name a single column")
            for name in (names,) if isinstance(names, str) else names or ():
                self.column(name, f"Dataset: {key} column")
        if roles.setdefault("weight_mode", "direct") not in WEIGHT_MODES:
            raise DataError(f"dataset roles: weight_mode {roles['weight_mode']!r} not in {WEIGHT_MODES}")
        if roles.get("pi"):
            pi = self.columns[roles["pi"]]
            if np.any(pi <= 0.0) or np.any(pi > 1.0):
                raise DataError(f"Dataset: inclusion probabilities in {roles['pi']!r} must lie in (0, 1]")
        if self.d is None:
            base = _weight_source(self.columns, roles)
            object.__setattr__(self, "d", base / base.sum())
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        if d.shape != (n,):
            raise DataError(f"Dataset: d has shape {d.shape}, expected ({n},)")
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise DataError("Dataset: design weights must be strictly positive and finite")
        if abs(d.sum() - 1.0) > 1e-12:
            raise DataError(f"Dataset: design weights sum to {d.sum()!r}, expected 1 within 1e-12")

    def column(self, name: str, what: str) -> np.ndarray:
        """The column ``name``, which must be present with finite values; a DataError names it, after ``what``."""
        if name not in self.columns:
            raise DataError(f"{what} {name!r} is not present")
        col = self.columns[name]
        if not np.all(np.isfinite(col)):
            raise DataError(f"{what} {name!r} has non-finite values")
        return col

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def y(self) -> np.ndarray:
        name = self.roles.get("response")
        if name is None:
            raise DataError("Dataset: no column is tagged as the response")
        return self.columns[name]

    @property
    def pi(self) -> np.ndarray | None:
        name = self.roles.get("pi")
        return None if name is None else self.columns[name]


def make_dataset(columns: dict, roles: dict) -> Dataset:
    """A :class:`Dataset` whose ``d`` comes from the tagged weight source."""
    return Dataset(columns, roles)


def _read_columns_bulk(path: str) -> dict | None:
    """Parse a clean file in bulk by :func:`_decimal.parse_tokens`, or return None.

    The file is read once, and its rows are parsed in blocks of about :data:`BLOCK`
    bytes cut at line ends.  The columns are returned only if the header holds distinct
    names and no quote, NUL byte or carriage return outside its line end, every line has
    one cell per name, and every cell is settled; lines end in LF, or in CRLF, the same way
    within a block.  Any other file is left to :func:`_read_columns_by_row`.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        start = raw.find(b"\n") + 1  # the offset of the first row
        line = raw[:start].decode("utf-8-sig").removesuffix("\n").removesuffix("\r")
    except (OSError, UnicodeDecodeError):
        return None
    header = [name.strip() for name in line.split(",")]  # as csv.reader splits it
    if (not line or any(c in line for c in '"\0\r') or len(set(header)) != len(header)
            or not 0 < start < len(raw) or raw.endswith(b"\r")):
        return None
    lines = np.count_nonzero(np.frombuffer(raw, np.uint8, offset=start) == ord("\n")) + (raw[-1:] != b"\n")
    columns = np.empty((len(header), lines))
    done = 0  # rows filled
    while start < len(raw):
        stop = raw.find(b"\n", start + BLOCK - 1) + 1 or len(raw)
        buf = np.frombuffer(raw, np.uint8, stop - start, start)
        if buf[-1] != ord("\n"):  # an unended last line takes the line end of the one before
            last = raw.rfind(b"\n")
            buf = np.append(buf, np.frombuffer(b"\r\n" if raw[last - 1:last] == b"\r" else b"\n", np.uint8))
        # The bytes below "-": commas and line ends, and bytes no settled cell holds but the "+" of
        # an exponent.
        sep = np.flatnonzero(buf < ord("-"))
        marks = buf[sep]
        if (marks == ord("+")).any():
            sep = sep[marks != ord("+")]
            marks = buf[sep]
        line_end = b"\r\n" if buf.size > 1 and buf[-2] == ord("\r") else b"\n"
        width = len(header) - 1 + len(line_end)
        rows = sep.size // width
        if sep.size != rows * width or not (marks.reshape(rows, width) == np.frombuffer(
                b"," * (len(header) - 1) + line_end, np.uint8)).all():
            return None
        sep = np.ascontiguousarray(sep.reshape(rows, width).T)  # a row of cell ends per column
        for j, column in enumerate(columns):
            starts = sep[j - 1] + 1 if j else np.concatenate(([0], sep[-1, :-1] + 1))
            values = _decimal.parse_tokens(buf, starts, sep[j])
            if values is None:
                return None
            column[done:done + rows] = values
        start, done = stop, done + rows
    return dict(zip(header, columns))


def _read_columns_by_row(path: str) -> dict:
    """Parse the file one row at a time, naming the row and column of any bad cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"load_dataset: cannot read {path!r}: {exc}") from exc
    if not raw or not next(iter(raw.values())):
        raise DataError(f"load_dataset: {path!r} has no data rows")
    return {name: np.asarray(vals, dtype=float) for name, vals in raw.items()}


def load_dataset(path: str, schema: dict) -> Dataset:
    """Read a CSV file and validate it against a role schema.

    Every column in the file is parsed as a float; empty cells and
    non-numeric entries are rejected with the offending row and column named.
    ``schema`` is a role map with keys drawn from ``ROLE_KEYS``.  The file is
    read as UTF-8, with or without a byte-order mark; a file that is not
    UTF-8 is a :class:`DataError`.  A well-formed file is parsed in bulk by
    the exact kernel of :mod:`._decimal` when it settles every cell (for one,
    every file ``write_dataset_csv`` writes from zeros and values
    ``1e-11 <= |x| < 2**51``).  Any other file goes to a row-by-row parser,
    which alone decides what is accepted and words every error.  Both
    parsers give ``float`` of each cell, bit for bit.
    """
    columns = _read_columns_bulk(path)
    if columns is None:
        columns = _read_columns_by_row(path)
    return make_dataset(columns, schema)


def decluster(data: Dataset, seed: int) -> Dataset:
    """Keep one member per family, re-weighting survivors by family size.

    For each family (grouped by the role-tagged family-identifier column) one
    row is selected uniformly at random.  The survivor's pre-normalization
    weight is multiplied by the family size ``n_f``; the adjusted weights are
    stored in a ``declustered_weight`` column (which becomes the weight
    source) and the family sizes in an ``nf`` column.  Deterministic for a
    given ``seed``.
    """
    if not isinstance(seed, (int, np.integer)):
        raise DataError("decluster: seed must be an integer")
    fam_col = data.roles.get("family")
    if fam_col is None:
        raise DataError("decluster: no column is tagged as the family identifier")
    fam = data.columns[fam_col]
    raw = _weight_source(data.columns, data.roles)

    _, first, family, sizes = np.unique(fam, return_index=True, return_inverse=True, return_counts=True)
    rng = np.random.default_rng(seed)
    # One draw per family, in order of first appearance, so the draws never depend on id values.
    order = np.argsort(first)
    draws = [rng.integers(0, size) for size in sizes[order].tolist()]
    # The rows of each family in row order, families in id order; each draw picks one of its family's.
    keep = np.argsort(family, kind="stable")[(np.cumsum(sizes) - sizes)[order] + draws]
    sort = np.argsort(keep)
    keep, sizes = keep[sort], sizes[order][sort].astype(float)

    columns = {name: col[keep] for name, col in data.columns.items()}
    columns["nf"] = sizes
    columns["declustered_weight"] = raw[keep] * sizes
    roles = dict(data.roles)
    roles["weight"] = "declustered_weight"
    roles["weight_mode"] = "direct"
    return make_dataset(columns, roles)


@dataclass(frozen=True)
class ConstraintEntry:
    """One population moment constraint.

    ``general-moment``: the weighted mean of ``target_column`` equals
    ``gamma``.  ``subgroup-moment``: the weighted mean of
    ``I{group_column == group_value} * (target_column - gamma)`` equals zero
    (a general moment takes None, or nothing, as its group fields).
    """

    kind: str
    target_column: str
    gamma: float
    group_column: str | None = None
    group_value: float | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise DataError(f"constraint: unknown kind {self.kind!r}; expected one of {CONSTRAINT_KINDS}")
        object.__setattr__(self, "gamma", as_number(self.gamma, f"constraint on {self.target_column!r}: gamma"))
        if self.kind == "general-moment":
            if self.group_column is not None or self.group_value is not None:
                raise DataError(f"constraint on {self.target_column!r}: a general-moment takes no group_column or "
                                f"group_value, got {self.group_column!r} and {self.group_value!r}")
        elif self.group_column is None or self.group_value is None:
            raise DataError(
                f"constraint on {self.target_column!r}: subgroup-moment needs group_column and group_value"
            )
        else:
            object.__setattr__(self, "group_value", as_number(
                self.group_value, f"constraint on {self.target_column!r}: group_value"))
        if not isinstance(self.target_column, str) or not isinstance(self.group_column or "", str):
            raise DataError(f"constraint: column names must be strings: {self.target_column!r}, {self.group_column!r}")

    @property
    def label(self) -> str:
        if self.kind == "subgroup-moment":
            return f"{self.group_column}={self.group_value:g}|{self.target_column}"
        return self.target_column


@dataclass(frozen=True)
class ConstraintSpec:
    """An ordered collection of population moment constraints."""

    entries: tuple[ConstraintEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def q(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Materialized constraint residuals, one column per constraint."""

    H: np.ndarray
    labels: tuple[str, ...]
    vacuous: tuple[bool, ...]

    @property
    def q(self) -> int:
        return self.H.shape[1]

    @property
    def live(self) -> np.ndarray:
        """The columns of ``H`` that are not vacuous, column-major: those the sandwich is built over."""
        return self.H.T[np.logical_not(self.vacuous)].T if any(self.vacuous) else self.H


def build_constraint_matrix(data: Dataset, spec: ConstraintSpec) -> ConstraintMatrix:
    """Evaluate constraint residuals into one column-major ``n x q`` array, filled in place.

    Column ``k`` holds ``target - gamma_k`` (general) or ``I{group == value} * (target - gamma_k)``
    (subgroup; a NaN group value is in no subgroup).  Identically zero columns are flagged as vacuous
    and reported with a warning; they carry no information and would make the constraint system
    singular.  Dependent non-vacuous columns (see :data:`RANK_RTOL`) raise :class:`DataError` naming them.
    """
    H = np.empty((spec.q, data.n)).T  # column-major: each column is a contiguous n-vector
    vacuous = []
    for entry, column in zip(spec.entries, H.T):
        np.subtract(data.column(entry.target_column, "build_constraint_matrix: target column"), entry.gamma, column)
        if entry.kind == "subgroup-moment":
            if entry.group_column not in data.columns:
                raise DataError(f"build_constraint_matrix: group column {entry.group_column!r} is not present")
            np.copyto(column, 0.0, where=data.columns[entry.group_column] != entry.group_value)
        vacuous.append(not column.any())
        if vacuous[-1]:
            warnings.warn(f"constraint {entry.label!r} is identically zero (vacuous)", stacklevel=2)
    cm = ConstraintMatrix(H=H, labels=tuple(entry.label for entry in spec.entries), vacuous=tuple(vacuous))
    live = cm.live  # H itself unless a column is vacuous
    if 1 < live.shape[1] < data.n:
        R = r_factor(live)  # its columns have the norms of H's
        _, s, vt = np.linalg.svd(R / np.linalg.norm(R, axis=0))
        null = vt[s <= RANK_RTOL * s[0]]
        if null.size:
            # A column outside every dependency gets a null-vector weight of about eps / RANK_RTOL.
            active = np.flatnonzero(np.logical_not(vacuous)).tolist()
            names = ", ".join(f"#{k} {cm.labels[k]}" for k, c in zip(active, np.abs(null).max(axis=0))
                              if c > np.sqrt(RANK_RTOL))
            raise DataError(f"build_constraint_matrix: constraints {names} are linearly dependent "
                            f"(smallest scaled singular value {s[-1]:.1e}, largest {s[0]:.1e})")
    return cm
