"""Core data types: dataset container, monomial mean bases, design matrices,
CSV ingestion, and the identifiability check for the propensity parameters."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIOError, ParseError, SingularDesignError

MAX_DEGREE = 4

#: residual-norm fraction below which a basis column counts as lying in
#: the span of {1, x1} (scale-free rank test)
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. records of (missingness indicator r, outcome y, covariates x).

    ``y`` is NaN exactly where ``r == 0``.  ``y_full`` optionally retains the
    pre-masking outcomes of simulated data for oracle checks; it is never used
    by any estimator.
    """

    r: np.ndarray
    y: np.ndarray
    x: np.ndarray
    y_full: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.float64)
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        n = r.shape[0]
        if n < 1:
            raise ParseError("dataset must contain at least one row")
        if y.shape[0] != n or x.shape[0] != n:
            raise ParseError(
                f"length mismatch: r has {n} rows, y has {y.shape[0]}, x has {x.shape[0]}"
            )
        if not np.isin(r, (0, 1)).all():
            raise ParseError("r must contain only 0/1 indicators")
        observed = r == 1
        if not np.isfinite(y[observed]).all():
            i = int(np.where(observed & ~np.isfinite(y))[0][0])
            raise ParseError(f"row {i}: r=1 but y is missing or not finite ({y[i]})")
        if (~np.isnan(y[~observed])).any():
            i = int(np.where(~observed & ~np.isnan(y))[0][0])
            raise ParseError(f"row {i}: r=0 but y is present")
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise ParseError(f"row {i}: covariate {j + 1} is not finite ({x[i, j]})")

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_observed(self) -> int:
        return int(self.r.sum())

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset / resample (used by the pairs bootstrap)."""
        yf = None if self.y_full is None else self.y_full[idx]
        return Dataset(self.r[idx], self.y[idx], self.x[idx], y_full=yf)


@dataclass(frozen=True)
class BasisTerm:
    """A monomial prod_j x_j^{e_j}; the all-zero exponent vector is the
    intercept."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if any(e < 0 for e in exps):
            raise ParseError(f"negative exponent in basis term {exps}")
        if any(e > MAX_DEGREE for e in exps):
            raise ParseError(
                f"exponent above max degree {MAX_DEGREE} in basis term {exps}"
            )

    @property
    def is_intercept(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Column of monomial values for an n x d covariate matrix."""
        out = np.ones(x.shape[0])
        for j, e in enumerate(self.exponents):
            if e == 1:
                out = out * x[:, j]
            elif e > 1:
                out = out * x[:, j] ** e
        return out


@dataclass(frozen=True)
class ModelConfig:
    """Mean basis defining mu(x; xi) = sum_k xi_k term_k(x), and the 1-based
    covariate columns entering the propensity linear term.  Covariates not in
    ``x1_columns`` play the instrumental-variable role."""

    mean_basis: tuple[BasisTerm, ...]
    x1_columns: tuple[int, ...]

    def __post_init__(self):
        basis = tuple(
            t if isinstance(t, BasisTerm) else BasisTerm(tuple(t))
            for t in self.mean_basis
        )
        cols = tuple(int(c) for c in self.x1_columns)
        object.__setattr__(self, "mean_basis", basis)
        object.__setattr__(self, "x1_columns", cols)
        if not basis:
            raise ParseError("mean_basis must be non-empty")
        if not any(t.is_intercept for t in basis):
            raise ParseError("mean_basis must contain the intercept term")
        if len(set(cols)) != len(cols):
            raise ParseError("x1_columns contains duplicates")
        if any(c < 1 for c in cols):
            raise ParseError("x1_columns are 1-based and must be >= 1")

    @property
    def q(self) -> int:
        """Number of mean-basis terms."""
        return len(self.mean_basis)

    @property
    def p(self) -> int:
        """Dimension of theta = (alpha, beta, gamma)."""
        return 2 + len(self.x1_columns)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean_basis": [list(t.exponents) for t in self.mean_basis],
                "x1_columns": list(self.x1_columns),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            obj = json.loads(text)
            return cls(
                tuple(BasisTerm(tuple(e)) for e in obj["mean_basis"]),
                tuple(obj["x1_columns"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed model config: {exc}") from exc


@dataclass(frozen=True)
class DesignMatrices:
    """Mean-basis evaluations M (n x q) and propensity covariates X1."""

    M: np.ndarray
    X1: np.ndarray


def build_design(ds: Dataset, cfg: ModelConfig) -> DesignMatrices:
    """Evaluate every mean-basis monomial and extract the x1 columns."""
    for c in cfg.x1_columns:
        if c > ds.d:
            raise ParseError(f"x1 column {c} exceeds covariate dimension {ds.d}")
    for t in cfg.mean_basis:
        if len(t.exponents) != ds.d:
            raise ParseError(
                f"basis term {t.exponents} has dimension {len(t.exponents)}, "
                f"expected {ds.d}"
            )
    cols = []
    for k, t in enumerate(cfg.mean_basis):
        col = t.evaluate(ds.x)
        if not np.isfinite(col).all():
            raise SingularDesignError(
                f"non-finite evaluation of basis term {k} {t.exponents}"
            )
        cols.append(col)
    return DesignMatrices(M=np.column_stack(cols), X1=select_x1(ds.x, cfg.x1_columns))


def select_x1(x: np.ndarray, x1_columns) -> np.ndarray:
    """The propensity covariates: the 1-based ``x1_columns`` of ``x``."""
    return x[:, [c - 1 for c in x1_columns]]


@dataclass(frozen=True)
class IdentifiabilityReport:
    identifiable: bool
    condition_number: float


def check_identifiability(
    dm: DesignMatrices, xi_hat: np.ndarray | None = None
) -> IdentifiabilityReport:
    """theta is identifiable iff mu(x; xi) is not a linear function of x1.

    We project each mean-basis column onto span{1, X1}; identifiability fails
    exactly when every column lies in that span (residual norm below
    SPAN_TOL * column norm).  When ``xi_hat`` is supplied, also reports the
    condition number of [1 | X1 | mu_hat].
    """
    n = dm.M.shape[0]
    base = np.column_stack([np.ones(n), dm.X1])
    Q, _ = np.linalg.qr(base)
    identifiable = False
    for k in range(dm.M.shape[1]):
        col = dm.M[:, k]
        resid = col - Q @ (Q.T @ col)
        norm = np.linalg.norm(col)
        if np.linalg.norm(resid) > SPAN_TOL * max(norm, 1.0):
            identifiable = True
            break
    cond = np.nan
    if xi_hat is not None:
        mu_hat = dm.M @ np.asarray(xi_hat, dtype=float)
        cond = float(np.linalg.cond(np.column_stack([base, mu_hat])))
    return IdentifiabilityReport(identifiable=identifiable, condition_number=cond)


def parse_dataset(
    path,
    y_col: str = "y",
    x_cols: list[str] | None = None,
    r_col: str | None = None,
) -> Dataset:
    """Read a UTF-8 CSV with a header row.  Missing y is an empty field; an
    explicit 0/1 r column is optional (r is derived from y presence when
    absent).  x_cols defaults to every column other than y and r.  Short rows
    and non-finite cells (nan, inf) are ParseErrors naming the row."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        rows = list(reader)

    def col_index(name):
        try:
            return header.index(name)
        except ValueError:
            raise ParseError(f"{path}: column '{name}' not found in header")

    yi = col_index(y_col)
    ri = col_index(r_col) if r_col is not None else None
    if x_cols is None:
        x_cols = [c for c in header if c != y_col and c != r_col]
    xi = [col_index(c) for c in x_cols]

    n = len(rows)
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    y = np.full(n, np.nan)
    r = np.zeros(n, dtype=np.int64)
    x = np.empty((n, len(xi)))
    for i, row in enumerate(rows):
        if len(row) < len(header):
            raise ParseError(
                f"{path}: row {i + 1} has {len(row)} cells, the header has {len(header)}"
            )
        cell = row[yi].strip()
        present = cell != ""
        if present:
            try:
                y[i] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: malformed numeric cell at row {i + 1}, column '{y_col}'"
                )
        if ri is not None:
            cell_r = row[ri].strip()
            if cell_r not in ("0", "1"):
                raise ParseError(
                    f"{path}: r cell must be 0 or 1 at row {i + 1}, got '{cell_r}'"
                )
            r[i] = int(cell_r)
            if r[i] == 1 and not present:
                raise ParseError(f"{path}: row {i + 1} has r=1 but empty y")
            if r[i] == 0 and present:
                raise ParseError(f"{path}: row {i + 1} has r=0 but nonempty y")
        else:
            r[i] = present
        for j, ci in enumerate(xi):
            try:
                x[i, j] = float(row[ci].strip())
            except ValueError:
                raise ParseError(
                    f"{path}: malformed numeric cell at row {i + 1}, "
                    f"column '{x_cols[j]}'"
                )
    cells = np.column_stack([np.where(r == 1, y, 0.0), x])
    if not np.isfinite(cells).all():
        i, j = np.argwhere(~np.isfinite(cells))[0]
        raise ParseError(
            f"{path}: non-finite numeric cell at row {i + 1}, "
            f"column '{([y_col] + x_cols)[j]}'"
        )
    return Dataset(r=r, y=y, x=x)


def write_dataset(
    ds: Dataset, path, y_col: str = "y", x_cols: list[str] | None = None
) -> None:
    """Write a dataset as CSV (missing y rendered as an empty field)."""
    if x_cols is None:
        x_cols = [f"x{j + 1}" for j in range(ds.d)]
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow([y_col] + list(x_cols))
        for i in range(ds.n):
            ycell = "" if ds.r[i] == 0 else repr(float(ds.y[i]))
            writer.writerow([ycell] + [repr(float(v)) for v in ds.x[i]])
