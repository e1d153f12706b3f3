import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarmean.data import (
    BasisTerm,
    Dataset,
    ModelConfig,
    build_design,
    check_identifiability,
    parse_dataset,
    write_dataset,
)
from mnarmean.errors import ParseError


def test_dataset_invariants_enforced():
    with pytest.raises(ParseError):
        Dataset(r=[1, 0], y=[1.0, 2.0], x=[[0.0], [0.0]])  # r=0 with y present
    with pytest.raises(ParseError):
        Dataset(r=[1, 0], y=[np.nan, np.nan], x=[[0.0], [0.0]])  # r=1 missing y
    with pytest.raises(ParseError):
        Dataset(r=[2, 0], y=[np.nan, np.nan], x=[[0.0], [0.0]])
    with pytest.raises(ParseError):
        Dataset(r=np.empty(0, dtype=int), y=np.empty(0), x=np.empty((0, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_observed_y_and_x(bad):
    with pytest.raises(ParseError, match="row 1: r=1 but y is missing or not finite"):
        Dataset(r=[1, 1], y=[1.0, bad], x=[[0.0], [0.0]])
    with pytest.raises(ParseError, match="row 0: covariate 2 is not finite"):
        Dataset(r=[1, 0], y=[1.0, np.nan], x=[[0.0, bad], [0.0, 0.0]])
    with pytest.raises(ParseError, match="row 1: covariate 1 is not finite"):
        Dataset(r=[1, 0], y=[1.0, np.nan], x=[[0.0], [bad]])  # also on missing-y rows


def _reference_r_y_checks(r, y):
    """The r and y checks of Dataset as separate passes: np.isin, then the
    observed and the missing rows of y in turn."""
    r, y = np.asarray(r, dtype=np.int64), np.asarray(y, dtype=np.float64)
    if not np.isin(r, (0, 1)).all():
        raise ParseError("r must contain only 0/1 indicators")
    observed = r == 1
    if not np.isfinite(y[observed]).all():
        i = int(np.where(observed & ~np.isfinite(y))[0][0])
        raise ParseError(f"row {i}: r=1 but y is missing or not finite ({y[i]})")
    if (~np.isnan(y[~observed])).any():
        i = int(np.where(~observed & ~np.isnan(y))[0][0])
        raise ParseError(f"row {i}: r=0 but y is present")


def _malformed_r_y():
    rng = np.random.default_rng(12)
    cases = [
        ([1, 0, 2], [1.0, np.nan, 1.0]),
        ([-1, 0], [1.0, np.nan]),
        ([0, 1, 0], [np.nan, 1.0, 0.0]),
        ([0, 1, 1], [3.0, np.inf, np.nan]),  # both rules broken: r=1 is reported
        ([1, 1, 0, 1], [1.0, 2.0, np.nan, -np.inf]),
        ([0, 0], [np.nan, np.nan]),  # well-formed
    ]
    for _ in range(40):
        n = int(rng.integers(1, 8))
        r = rng.integers(0, 2, n)
        y = rng.choice([0.5, np.nan, np.inf], n)
        cases.append((r.tolist(), y.tolist()))
    return cases


@pytest.mark.parametrize("r, y", _malformed_r_y())
def test_dataset_checks_match_the_separate_passes(r, y):
    """One pass per array raises what the separate passes raise."""
    x = np.zeros((len(r), 1))
    try:
        _reference_r_y_checks(r, y)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            Dataset(r=r, y=y, x=x)
        assert str(got.value) == str(exc)
    else:
        Dataset(r=r, y=y, x=x)


def test_parse_derives_r_from_y_presence(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x1\n1.0,0.1\n,0.2\n2.0,0.3\n", encoding="utf-8")
    ds = parse_dataset(p)
    assert list(ds.r) == [1, 0, 1]
    assert np.isnan(ds.y[1]) and ds.y[0] == 1.0


def test_parse_errors_name_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,x1\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 1.*x1"):
        parse_dataset(p)
    p.write_text("y,x1,r\n,0.1,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="r=1 but empty y"):
        parse_dataset(p, r_col="r")
    p.write_text("y,x1,r\n2.0,0.1,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="r=0 but nonempty y"):
        parse_dataset(p, r_col="r")


def test_write_then_parse_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    n = 50
    r = (rng.random(n) < 0.7).astype(np.int64)
    y = np.where(r == 1, rng.normal(size=n), np.nan)
    ds = Dataset(r=r, y=y, x=rng.normal(size=(n, 3)))
    p = tmp_path / "rt.csv"
    write_dataset(ds, p)
    back = parse_dataset(p)
    assert np.array_equal(back.r, ds.r)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y, equal_nan=True)


def test_write_then_parse_roundtrip_without_covariates(tmp_path):
    ds = Dataset(r=[1, 0, 1], y=[1.5, np.nan, -2.0], x=np.empty((3, 0)))
    p = tmp_path / "y_only.csv"
    write_dataset(ds, p)
    assert p.read_bytes() == b'y\r\n1.5\r\n""\r\n-2.0\r\n'
    back = parse_dataset(p)
    assert np.array_equal(back.r, ds.r) and back.x.shape == (3, 0)


#: a numeric cell inside its whitespace: an ASCII decimal or scientific
#: number, or inf/nan, which the reader rejects as non-finite
NUMBER = re.compile(
    r"[+-]?((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf|infinity|nan)", re.ASCII | re.IGNORECASE
)


def _ref_number(cell):
    text = cell.strip()
    if not NUMBER.fullmatch(text):
        raise ValueError(cell)
    return float(text)


def _reference_parse(path, y_col="y", r_col=None):
    """The reference reader: csv.reader and one pass over the rows, checking
    and converting cell by cell; the first row with a defect is reported."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        rows = list(reader)
    for j, name in enumerate(header):
        if name in header[:j]:
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
    n = len(rows)
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    y = np.full(n, np.nan)
    r = np.zeros(n, dtype=np.int64)
    x = np.empty((n, len(xi)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i + 1} has {len(row)} cells, the header has {len(header)}"
            )
        cell = row[yi].strip()
        present = cell != ""
        if present:
            try:
                y[i] = _ref_number(cell)
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
                x[i, j] = _ref_number(row[ci])
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


def _assert_same_parse(path, **kwargs):
    """parse_dataset and the reference raise the same ParseError text or
    return the same r, y and x, bit for bit."""
    try:
        want = _reference_parse(path, **kwargs)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_dataset(path, **kwargs)
        assert str(got.value) == str(exc)
        return None
    got = parse_dataset(path, **kwargs)
    assert got.r.dtype == want.r.dtype and np.array_equal(got.r, want.r)
    for a, b in ((got.y, want.y), (got.x, want.x)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


#: what a defect puts in a cell; "0" and "1" in the r column may contradict y,
#: and float alone would read the digit separator and the non-ASCII digits
CELL_DEFECTS = ["abc", "nan", "-inf", "", " ", "2", "0", "1", "1_5", "\u0661", "\uff12.5"]
ROW_DEFECTS = ["drop cell", "extra cell", "blank line"]


@st.composite
def csv_files(draw):
    """(file text, parse_dataset keywords) for a CSV with y, one to three
    covariates and maybe an r column in any order; cells may be padded or
    quoted, lines end in LF, CRLF or CR, and up to two defects are placed."""
    n_x = draw(st.integers(1, 3))
    x_names = [f"x{j + 1}" for j in range(n_x)]
    with_r = draw(st.booleans())
    header = draw(st.permutations(["y"] + x_names + (["r"] if with_r else [])))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        observed = draw(st.booleans())
        cells = {name: draw(floats) for name in x_names}
        cells["y"] = draw(floats) if observed else ""
        cells["r"] = "1" if observed else "0"
        rows.append([cells[name] for name in header])
    for defect, i, j in draw(
        st.lists(
            st.tuples(
                st.sampled_from(CELL_DEFECTS + ROW_DEFECTS),
                st.integers(0, len(rows) - 1),
                st.integers(0, len(header) - 1),
            ),
            max_size=2,
        )
    ):
        row = rows[i]
        if defect == "drop cell":
            del row[-1:]
        elif defect == "extra cell":
            row.append("1.5")
        elif defect == "blank line":
            row.clear()
        elif j < len(row):
            row[j] = defect
    quoting = draw(st.booleans())
    pad = st.sampled_from(["", "", " ", "  ", "\t", "\xa0"])

    def render(cell, padded=True):
        if padded:
            cell = draw(pad) + cell + draw(pad)
        return f'"{cell}"' if quoting and draw(st.booleans()) else cell

    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(render(name, padded=False) for name in header)]
    lines += [",".join(map(render, row)) for row in rows]
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    kwargs = {}
    if with_r and draw(st.booleans()):
        kwargs["r_col"] = "r"
    return text, kwargs


@given(csv_files())
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference_reader(tmp_path_factory, case):
    text, kwargs = case
    path = tmp_path_factory.mktemp("prop") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_parse(path, **kwargs)


def test_parse_matches_reference_reader_at_100k_rows(tmp_path):
    """The benchmark's file size, written with CRLF line ends and with LF."""
    from mnarmean.simulate import example2, generate_dataset

    ds = generate_dataset(example2(alpha0=-2.7, delta=1.0), 100_000, seed=0)
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    write_dataset(ds, crlf)
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    for path in (crlf, lf):
        got = _assert_same_parse(path)
        assert np.array_equal(got.y, ds.y, equal_nan=True) and np.array_equal(got.x, ds.x)


@pytest.mark.parametrize(
    "rows, kwargs, message",
    [
        (["abc,0.1", "1.0,0.2", "xyz,0.3"], {}, "malformed numeric cell at row 2, column 'y'"),
        (["1.0,oops", "1.0,0.2", "2.0,?"], {}, "malformed numeric cell at row 2, column 'x1'"),
        (["1.0", "1.0,0.2", "2.0"], {}, "row 2 has 1 cells, the header has 2"),
        (["1.0,0.1,9", "1.0,0.2", ",0.3,"], {}, "row 2 has 3 cells, the header has 2"),
        (["", "1.0,0.2", ""], {}, "row 2 has 0 cells, the header has 2"),
        (["nan,0.1", "1.0,0.2", "nan,0.3"], {}, "non-finite numeric cell at row 2, column 'y'"),
        (["1.0,inf", "1.0,0.2", "2.0,-inf"], {}, "non-finite numeric cell at row 2, column 'x1'"),
        (
            ["1.0,0.1,2", "1.0,0.2,1", "2.0,0.3,x"],
            {"r_col": "r"},
            "r cell must be 0 or 1 at row 2, got '2'",
        ),
        ([",0.1,1", "1.0,0.2,1", ",0.3,1"], {"r_col": "r"}, "row 2 has r=1 but empty y"),
        (["1.0,0.1,0", "1.0,0.2,1", "2.0,0.3,0"], {"r_col": "r"}, "row 2 has r=0 but nonempty y"),
        # an earlier row's defect wins over a check that runs first within a row
        (["1.0,oops", "1.0", "abc,0.3"], {}, "malformed numeric cell at row 2, column 'x1'"),
        (["1.0,0.1,0", "abc,0.2,1"], {"r_col": "r"}, "row 2 has r=0 but nonempty y"),
        # within a row, y is checked before r and r before x
        (["abc,oops,2"], {"r_col": "r"}, "malformed numeric cell at row 2, column 'y'"),
        (["1.0,oops,2"], {"r_col": "r"}, "r cell must be 0 or 1 at row 2, got '2'"),
        # a non-finite cell is reported only when no row has another defect
        (["1.0,inf", "1.0,0.2", "abc,0.3"], {}, "malformed numeric cell at row 4, column 'y'"),
        # only ASCII decimal and scientific numbers, though float reads these
        (["1_5,0.1", "2.0,0.2"], {}, "malformed numeric cell at row 2, column 'y'"),
        (["1.0,0.1", "2.0,\u0661"], {}, "malformed numeric cell at row 3, column 'x1'"),
        (["1.0,\xa0-2E+3 ", "2.0,\uff11"], {}, "malformed numeric cell at row 3, column 'x1'"),
    ],
)
def test_parse_reports_the_earliest_defect(tmp_path, rows, kwargs, message):
    lines = ["y,x1,r", "0.5,0.0,1"] if "r_col" in kwargs else ["y,x1", "0.5,0.0"]
    p = tmp_path / "two_defects.csv"
    p.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_dataset(p, **kwargs)
    assert str(exc.value) == f"{p}: {message}"
    _assert_same_parse(p, **kwargs)


@pytest.mark.parametrize("text", ["y,x1\n", "y,x1", "y,x1\r\n"])
def test_header_only_file_has_no_data_rows(tmp_path, text):
    p = tmp_path / "header.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        parse_dataset(p)
    assert str(exc.value) == f"{p}: no data rows"


def test_empty_file_expects_a_header_row(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_bytes(b"")
    with pytest.raises(ParseError) as exc:
        parse_dataset(p)
    assert str(exc.value) == f"{p}: empty file, expected a header row"


def test_header_without_the_y_column(tmp_path):
    p = tmp_path / "no_y.csv"
    p.write_text("x1,x2\n0.1,0.2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_dataset(p)
    assert str(exc.value) == f"{p}: column 'y' not found in header"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv-reader"])
@pytest.mark.parametrize(
    "header, name", [("y,x1,x1", "x1"), ("y,x1,y", "y"), ("x1,y,r,x1", "x1")]
)
def test_repeated_header_name_is_a_parse_error(tmp_path, header, name, quoted):
    """A repeated name once read one column twice and dropped the other; the
    two split paths (with and without a quote character) reject it alike."""
    cell = '"0.5"' if quoted else "0.5"
    p = tmp_path / "repeated.csv"
    p.write_text(header + "\n" + ",".join([cell] * len(header.split(","))) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_dataset(p)
    assert str(exc.value) == f"{p}: column '{name}' appears more than once in the header"
    _assert_same_parse(p)


@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=8),
    st.lists(st.floats(-3, 3), min_size=1, max_size=8),
    st.integers(0, 4),
)
@settings(max_examples=50, deadline=None)
def test_basis_term_multiplicative(a_col, b_col, e):
    # term(a * b on component j) = term(a) * term(b) when only j varies
    m = min(len(a_col), len(b_col))
    a = np.array(a_col[:m])[:, None]
    b = np.array(b_col[:m])[:, None]
    t = BasisTerm((e,))
    assert np.allclose(t.evaluate(a * b), t.evaluate(a) * t.evaluate(b), rtol=1e-9, atol=1e-9)


def test_basis_term_degree_cap():
    with pytest.raises(ParseError):
        BasisTerm((5,))
    with pytest.raises(ParseError):
        BasisTerm((-1,))


@pytest.mark.parametrize("value", [1.7, "1", 1.9, np.float64(0.5)])
def test_non_integer_config_values_are_parse_errors(value):
    """int() once truncated 1.7 and 1.9 to 1 and read "1" as 1."""
    with pytest.raises(ParseError, match="basis term exponents must be integers"):
        BasisTerm((value, 0))
    with pytest.raises(ParseError, match="x1_columns must be integers"):
        ModelConfig(mean_basis=(BasisTerm((0,)), BasisTerm((2,))), x1_columns=(value,))
    with pytest.raises(ParseError, match="must be integers"):
        ModelConfig.from_json(json.dumps({"mean_basis": [[0, 0], [value, 0]], "x1_columns": [1]}))


def test_integral_config_values_are_accepted():
    for value in (1, 1.0, np.int64(1), np.float64(1.0)):
        assert BasisTerm((value, 0)).exponents == (1, 0)
        cfg = ModelConfig(mean_basis=(BasisTerm((0,)), BasisTerm((2,))), x1_columns=(value,))
        assert cfg.x1_columns == (1,) and type(cfg.x1_columns[0]) is int
    # an iterator is read once
    assert BasisTerm(iter((1, 0))).exponents == (1, 0)
    assert ModelConfig(mean_basis=((0,), (2,)), x1_columns=iter([1])).x1_columns == (1,)
    cfg = ModelConfig.from_json('{"mean_basis": [[0, 0], [1.0, 0]], "x1_columns": [2.0]}')
    assert cfg.to_json() == '{"mean_basis": [[0, 0], [1, 0]], "x1_columns": [2]}'


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_config_value_is_a_parse_error(text):
    with pytest.raises(ParseError, match="malformed model config"):
        ModelConfig.from_json(f'{{"mean_basis": [[0, 0], [{text}, 0]], "x1_columns": [1]}}')


def test_model_config_validation():
    with pytest.raises(ParseError):
        ModelConfig(mean_basis=(), x1_columns=(1,))
    with pytest.raises(ParseError):
        ModelConfig(mean_basis=(BasisTerm((1,)),), x1_columns=(1,))  # no intercept
    with pytest.raises(ParseError):
        ModelConfig(mean_basis=(BasisTerm((0,)),), x1_columns=(1, 1))
    cfg = ModelConfig(mean_basis=(BasisTerm((0,)), BasisTerm((2,))), x1_columns=(1,))
    assert cfg.q == 2 and cfg.p == 3
    assert ModelConfig.from_json(cfg.to_json()) == cfg


def _design(x, basis, x1_columns):
    ds = Dataset(
        r=np.ones(x.shape[0], dtype=np.int64),
        y=np.zeros(x.shape[0]),
        x=x,
    )
    cfg = ModelConfig(mean_basis=basis, x1_columns=x1_columns)
    return build_design(ds, cfg)


def test_identifiability_linear_in_x1_fails():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    # mu spanned by {1, x1}: not identifiable
    dm = _design(x, (BasisTerm((0, 0)), BasisTerm((1, 0))), (1,))
    assert not check_identifiability(dm).identifiable


def test_identifiability_example_bases():
    rng = np.random.default_rng(2)
    x2 = rng.normal(size=(500, 2))
    # Example-1 shape: instrumental variable x2 enters the mean
    dm = _design(x2, (BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1))), (1,))
    assert check_identifiability(dm).identifiable
    # Example-2 shape: mean nonlinear in the single covariate
    x1 = rng.normal(size=(500, 1))
    dm = _design(x1, (BasisTerm((0,)), BasisTerm((1,)), BasisTerm((2,))), (1,))
    assert check_identifiability(dm).identifiable


def test_identifiability_false_for_any_subset_of_span():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 3))
    # intercept and degree-1 terms on x1_columns = {1, 2} only
    dm = _design(
        x, (BasisTerm((0, 0, 0)), BasisTerm((1, 0, 0)), BasisTerm((0, 1, 0))), (1, 2)
    )
    assert not check_identifiability(dm).identifiable


def test_identifiability_matches_an_explicit_projection():
    """On random designs, some with every mean column in span{1, X1}: the
    flag is that of a least-squares projection on [1 | X1], and when it is
    set, the condition number is np.linalg.cond of [1 | X1 | mu_hat]."""
    from mnarmean.data import SPAN_TOL

    rng = np.random.default_rng(11)
    flags = set()
    for _ in range(40):
        n, d = int(rng.integers(20, 300)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        k = int(rng.integers(1, d + 1))
        x1_columns = tuple(int(c) for c in sorted(rng.choice(np.arange(1, d + 1), k, replace=False)))
        terms = [np.zeros(d, dtype=int)]
        for _ in range(int(rng.integers(1, 4))):
            e = np.zeros(d, dtype=int)
            if rng.random() < 0.5:
                e[x1_columns[int(rng.integers(len(x1_columns)))] - 1] = 1
            else:
                e[int(rng.integers(d))] = int(rng.integers(1, 3))
            terms.append(e)
        dm = _design(x, tuple(BasisTerm(tuple(e)) for e in terms), x1_columns)
        base = np.column_stack([np.ones(n), dm.X1])
        resid = dm.M - base @ np.linalg.lstsq(base, dm.M, rcond=None)[0]
        expected = bool(
            (np.linalg.norm(resid, axis=0) > SPAN_TOL * np.linalg.norm(dm.M, axis=0)).any()
        )
        xi_hat = rng.normal(size=dm.M.shape[1])
        rep = check_identifiability(dm, xi_hat)
        assert rep.identifiable == expected
        if expected:
            ref = np.linalg.cond(np.column_stack([base, dm.M @ xi_hat]))
            assert rep.condition_number == pytest.approx(ref, rel=1e-12)
        flags.add(expected)
    assert flags == {True, False}


def test_identifiability_does_not_depend_on_the_covariate_scale():
    """{1, x1^2} is not linear in x1 however small x1 is."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 1))
    for scale in (1e-6, 1.0, 1e3):
        dm = _design(x * scale, (BasisTerm((0,)), BasisTerm((2,))), (1,))
        assert check_identifiability(dm).identifiable
