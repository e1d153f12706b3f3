"""Core data types: dataset container, monomial mean bases, design matrices,
CSV ingestion, and the identifiability check for the propensity parameters."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .errors import DataIOError, ParseError, SingularDesignError

MAX_DEGREE = 4

#: a mean-basis column whose part outside span{1, x1} is at most SPAN_TOL
#: times its own norm lies in that span
SPAN_TOL = 1e-8

#: the message of every error for a mean basis in span{1, x1}
NOT_IDENTIFIABLE = "mean basis lies in the span of {1, x1}: theta is not identifiable"


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. records of (missingness indicator r, outcome y, covariates x).

    ``y`` is NaN exactly where ``r == 0``.
    """

    r: np.ndarray
    y: np.ndarray
    x: np.ndarray

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
        observed = r == 1
        if not (observed | (r == 0)).all():
            raise ParseError("r must contain only 0/1 indicators")
        # one pass over y; the offending row is looked for only on failure
        if not np.where(observed, np.isfinite(y), np.isnan(y)).all():
            bad = observed & ~np.isfinite(y)
            if bad.any():
                i = int(np.argmax(bad))
                raise ParseError(f"row {i}: r=1 but y is missing or not finite ({y[i]})")
            i = int(np.argmax(~observed & ~np.isnan(y)))
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
        return Dataset(self.r[idx], self.y[idx], self.x[idx])


@dataclass(frozen=True)
class BasisTerm:
    """A monomial prod_j x_j^{e_j}; the all-zero exponent vector is the
    intercept."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.exponents)
        exps = tuple(int(e) for e in given)
        if exps != given:
            raise ParseError(f"basis term exponents must be integers, got {given}")
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

    def check_dimension(self, d: int) -> None:
        """Raise ParseError unless the term has one exponent per covariate."""
        if len(self.exponents) != d:
            raise ParseError(
                f"basis term {self.exponents} has dimension {len(self.exponents)}, "
                f"expected {d}"
            )

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Column of monomial values for an n x d covariate matrix."""
        self.check_dimension(x.shape[1])
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
        given = tuple(self.x1_columns)
        cols = tuple(int(c) for c in given)
        if cols != given:
            raise ParseError(f"x1_columns must be integers, got {given}")
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed model config: {exc}") from exc


@dataclass(frozen=True)
class DesignMatrices:
    """Mean-basis evaluations M (n x q) and propensity covariates X1."""

    M: np.ndarray
    X1: np.ndarray


def build_design(ds: Dataset, cfg: ModelConfig) -> DesignMatrices:
    """Extract the x1 columns, then evaluate every mean-basis monomial."""
    X1 = select_x1(ds.x, cfg.x1_columns)
    M = np.column_stack([t.evaluate(ds.x) for t in cfg.mean_basis])
    if not np.isfinite(M).all():
        k = int(np.argmin(np.isfinite(M).all(axis=0)))
        t = cfg.mean_basis[k]
        raise SingularDesignError(f"non-finite evaluation of basis term {k} {t.exponents}")
    return DesignMatrices(M=M, X1=X1)


def select_x1(x: np.ndarray, x1_columns) -> np.ndarray:
    """The propensity covariates: the 1-based ``x1_columns`` of ``x``."""
    for c in x1_columns:
        if c < 1:
            raise ParseError("x1_columns are 1-based and must be >= 1")
        if c > x.shape[1]:
            raise ParseError(f"x1 column {c} exceeds covariate dimension {x.shape[1]}")
    return x[:, [c - 1 for c in x1_columns]]


def basis_in_x1_span(mean_basis, x1_columns) -> bool:
    """The structural identifiability rule: whether every term of the mean
    basis is the intercept or x_j for a 1-based x1 column j, so that
    mu(x; xi) is linear in x1 whatever the data.  check_identifiability
    reads the same unless some other term is, on the data at hand, an exact
    affine function of the x1 columns."""
    return all(
        t.is_intercept or (t.total_degree == 1 and t.exponents.index(1) + 1 in x1_columns)
        for t in mean_basis
    )


@dataclass(frozen=True)
class IdentifiabilityReport:
    identifiable: bool
    condition_number: float


def check_identifiability(
    dm: DesignMatrices, xi_hat: np.ndarray | None = None
) -> IdentifiabilityReport:
    """theta is identifiable iff mu(x; xi) is not a linear function of x1.

    One QR of [1 | X1 | M]: the part of mean-basis column j outside
    span{1, X1} is the norm of R's column j below row k = 1 + |X1|, and
    identifiability fails exactly when every column's part is at most
    SPAN_TOL times the column's norm.  When ``xi_hat`` is supplied, also
    reports the condition number of [1 | X1 | mu_hat], which is that of
    [R[:, :k] | R[:, k:] xi_hat].
    """
    n, k = dm.X1.shape[0], 1 + dm.X1.shape[1]
    R = np.linalg.qr(np.column_stack([np.ones(n), dm.X1, dm.M]), mode="r")
    outside = np.linalg.norm(R[k:, k:], axis=0)
    identifiable = bool((outside > SPAN_TOL * np.linalg.norm(R[:, k:], axis=0)).any())
    cond = np.nan
    if xi_hat is not None:
        mu_hat = R[:, k:] @ np.asarray(xi_hat, dtype=float)
        cond = float(np.linalg.cond(np.column_stack([R[:, :k], mu_hat])))
    return IdentifiabilityReport(identifiable=identifiable, condition_number=cond)


def _plain_body(text: str) -> bool:
    """Whether the text past its first line is ASCII without '_'.  Then
    ``float`` accepts exactly the cells that ``_number`` accepts, with the
    same value, and the cells need not be checked one by one."""
    start = min(i for i in (text.find("\n"), text.find("\r"), len(text)) if i >= 0)
    return text.find("_", start) < 0 and (text.isascii() or text[start:].isascii())


def _split_cells(text: str):
    """Split CSV text into cells the way ``csv.reader`` does.  Returns the
    header, the cell count of each data row, the data rows' cells in row
    order and ``_plain_body`` of the text, or None for an empty file.  Text
    with a quote character goes through ``csv.reader``.  Other text is
    split at line ends (LF, CRLF or a lone CR, as for ``csv.reader``) and
    commas; a row's cell count is then its commas plus one, or zero for a
    blank line.  Past the first row whose count differs from the header's,
    the cells no longer line up with rows."""
    plain = _plain_body(text)
    if '"' in text:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows:
            return None
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        return rows[0], counts[1:], list(chain.from_iterable(rows[1:])), plain
    if not text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    commas_before = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
    del raw
    counts = np.diff(commas_before, prepend=0) + (np.diff(ends, prepend=-1) > 1)
    cells = text.replace("\n", ",").split(",")
    return cells[: counts[0]], counts[1:], cells[counts[0] :], plain


def _number(cell: str) -> float:
    """``float`` of a cell that, inside its whitespace, is ASCII without '_':
    a decimal or scientific number (inf and nan are rejected later).
    ``float`` alone would also read 1_5 as 15 and non-ASCII digits."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal number: {cell!r}")
    return float(text)


def _to_floats(cells: list[str], plain: bool):
    """(``_number`` of every cell as one array, None), or (None, the index
    of the first cell that it rejects); ``plain`` is ``_plain_body`` of the
    text the cells come from."""
    convert = float if plain else _number
    try:
        return np.fromiter(map(convert, cells), np.float64, len(cells)), None
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                _number(cell)
            except ValueError:
                return None, i
        raise


def parse_dataset(path, y_col: str = "y", r_col: str | None = None) -> Dataset:
    """Read a UTF-8 CSV with a header row.  Missing y is an empty field; an
    explicit 0/1 r column is optional (r is derived from y presence when
    absent).  The covariates are every column other than y and r.  Quoting
    follows ``csv.reader``.  A numeric cell holds an ASCII decimal or
    scientific number, padded with whitespace or not.  A row whose cell
    count differs from the header's, any other numeric cell and a
    non-finite one (nan, inf) are ParseErrors naming the row; of several
    malformed rows, the first is reported."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc
    with fh:
        split = _split_cells(fh.read())
    if split is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    header, counts, tokens, plain = split
    if len(set(header)) < len(header):
        name = next(c for j, c in enumerate(header) if c in header[:j])
        raise ParseError(f"{path}: column '{name}' appears more than once in the header")

    def col_index(name):
        try:
            return header.index(name)
        except ValueError:
            raise ParseError(f"{path}: column '{name}' not found in header")

    yi = col_index(y_col)
    ri = col_index(r_col) if r_col is not None else None
    x_cols = [c for c in header if c != y_col and c != r_col]
    xi = [col_index(c) for c in x_cols]

    n, k = len(counts), len(header)
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    # rows are read up to the first one whose cell count differs from the
    # header's; a defect in an earlier row is reported before that count
    wrong = np.flatnonzero(counts != k)
    m = int(wrong[0]) if wrong.size else n

    def column(j):
        return tokens[j : m * k : k]

    def malformed(i, name):
        return f"{path}: malformed numeric cell at row {i + 1}, column '{name}'"

    # (row, message) of the first failure of each check, listed in the order
    # the checks apply within a row
    defects = []
    ycells = column(yi)
    present = np.fromiter(map(bool, map(str.strip, ycells)), bool, m)
    y = np.full(m, np.nan)
    values, bad = _to_floats(list(compress(ycells, present)), plain)
    if bad is None:
        y[present] = values
    else:
        i = int(np.flatnonzero(present)[bad])
        defects.append((i, malformed(i, y_col)))
    if ri is None:
        r = present.astype(np.int64)
    else:
        rcells = list(map(str.strip, column(ri)))
        one = np.fromiter(map("1".__eq__, rcells), bool, m)
        valid = one | np.fromiter(map("0".__eq__, rcells), bool, m)
        for fails, message in (
            (~valid, "r cell must be 0 or 1 at row {row}, got '{cell}'"),
            (valid & one & ~present, "row {row} has r=1 but empty y"),
            (valid & ~one & present, "row {row} has r=0 but nonempty y"),
        ):
            failed = np.flatnonzero(fails)
            if failed.size:
                i = int(failed[0])
                defects.append((i, f"{path}: " + message.format(row=i + 1, cell=rcells[i])))
        r = one.astype(np.int64)
    x = np.empty((m, len(xi)))
    for j, ci in enumerate(xi):
        values, bad = _to_floats(column(ci), plain)
        if bad is None:
            x[:, j] = values
        else:
            defects.append((bad, malformed(bad, x_cols[j])))
    del tokens, ycells
    if m < n:
        defects.append((m, f"{path}: row {m + 1} has {counts[m]} cells, the header has {k}"))
    if defects:
        raise ParseError(min(defects, key=lambda defect: defect[0])[1])
    cells = np.column_stack([np.where(r == 1, y, 0.0), x])
    if not np.isfinite(cells).all():
        i, j = np.argwhere(~np.isfinite(cells))[0]
        raise ParseError(
            f"{path}: non-finite numeric cell at row {i + 1}, "
            f"column '{([y_col] + x_cols)[j]}'"
        )
    return Dataset(r=r, y=y, x=x)


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset as CSV with the header y, x1, ..., xd (missing y
    rendered as an empty field)."""
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
    # as csv.writer does, a row whose one cell is empty is written as "",
    # since a blank line is a row with no cells
    missing = '""' if ds.d == 0 else ""
    rows = [",".join(["y"] + [f"x{j + 1}" for j in range(ds.d)])] + [
        ",".join([missing if ri == 0 else repr(yi)] + list(map(repr, xi)))
        for ri, yi, xi in zip(ds.r.tolist(), ds.y.tolist(), ds.x.tolist())
    ]
    with fh:
        # csv.writer's CRLF line end; no cell needs quoting
        fh.write("\r\n".join(rows) + "\r\n")
