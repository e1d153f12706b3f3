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
    assert np.allclose(back.x, ds.x, atol=1e-12)
    obs = ds.r == 1
    assert np.allclose(back.y[obs], ds.y[obs], atol=1e-12)


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
