"""A model config that does not fit the covariates is rejected the same way
by every entry point: ``select_x1`` checks the x1 columns and
``BasisTerm.check_dimension`` the dimension of a term, for ``evaluate`` and
``Scenario.mean_mu``, so the fits that never call ``build_design`` raise the
same ParseError as the ones that do."""

import json
import re

import numpy as np
import pytest

from mnarmean.cli import main
from mnarmean.data import (
    BasisTerm,
    Dataset,
    ModelConfig,
    build_design,
    select_x1,
    write_dataset,
)
from mnarmean.errors import ParseError, SingularDesignError
from mnarmean.fitting import fit_mean_response, point_estimate
from mnarmean.ipw import profile_gamma, solve_gmm, solve_ipw
from mnarmean.propensity import fit_propensity
from mnarmean.simulate import Scenario, compute_truth, example1, generate_dataset

#: Example 1 has d = 2 covariates
GOOD_BASIS = (BasisTerm((0, 0)), BasisTerm((0, 1)))
X1_MESSAGE = "x1 column 3 exceeds covariate dimension 2"
SHORT_TERM, LONG_TERM = BasisTerm((1,)), BasisTerm((0, 1, 0))
TERM_MESSAGES = {
    SHORT_TERM: "basis term (1,) has dimension 1, expected 2",
    LONG_TERM: "basis term (0, 1, 0) has dimension 3, expected 2",
}


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(example1(-1.7, 0.0), 300, seed=7)


def _config(x1_columns=(1,), term=BasisTerm((1, 0))):
    return ModelConfig(mean_basis=GOOD_BASIS + (term,), x1_columns=x1_columns)


def _scenario(x1_columns=(1,), term=BasisTerm((1, 0))):
    sc = example1(-1.7, 0.0)
    return Scenario(
        covariate_law=sc.covariate_law,
        mean_basis=GOOD_BASIS + (term,),
        xi_true=(2.5, 1.5, -1.0),
        x1_columns=x1_columns,
        alpha0=sc.alpha0,
        beta=sc.beta,
        gamma=sc.gamma,
        error_law=sc.error_law,
    )


#: entry point name -> a call of it with a config of the given x1 columns
#: and third mean-basis term; the IPW basis of solve_ipw also takes the term
ENTRY_POINTS = {
    "build_design": lambda ds, x1, term: build_design(ds, _config(x1, term)),
    "fit_mean_response": lambda ds, x1, term: fit_mean_response(ds, _config(x1, term)),
    "fit_propensity": lambda ds, x1, term: fit_propensity(ds, ds.x[:, 1], _config(x1, term)),
    "profile_gamma": lambda ds, x1, term: profile_gamma(
        ds, -1.7, [-0.4], (-1.0, 1.0, 0.5), _config(x1, term)
    ),
    "solve_ipw": lambda ds, x1, term: solve_ipw(
        ds, _config(x1, term), [BasisTerm((0, 0)), BasisTerm((1, 0)), term]
    ),
    "solve_gmm": lambda ds, x1, term: solve_gmm(ds, _config(x1, term), 2),
    "point_estimate-ipw": lambda ds, x1, term: point_estimate("ipw", ds, _config(x1, term)),
    "point_estimate-proposed": lambda ds, x1, term: point_estimate(
        "proposed", ds, _config(x1, term)
    ),
    "generate_dataset": lambda ds, x1, term: generate_dataset(_scenario(x1, term), 50, seed=1),
    "compute_truth": lambda ds, x1, term: compute_truth(_scenario(x1, term), 1000, seed=1),
}
#: the entry points that evaluate the mis-sized term, and Scenario.mean_mu,
#: which takes its moments from the covariate laws and reads no x1 column
EVALUATE_THE_TERM = {
    **{
        name: ENTRY_POINTS[name]
        for name in (
            "build_design", "fit_mean_response", "solve_ipw", "point_estimate-proposed",
            "generate_dataset", "compute_truth",
        )
    },
    "mean_mu": lambda ds, x1, term: _scenario(x1, term).mean_mu(),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_out_of_range_x1_column_is_a_parse_error(ds, entry):
    with pytest.raises(ParseError, match=f"^{X1_MESSAGE}$"):
        ENTRY_POINTS[entry](ds, (3,), BasisTerm((1, 0)))


@pytest.mark.parametrize("term", [SHORT_TERM, LONG_TERM], ids=["d-1", "d+1"])
@pytest.mark.parametrize("entry", EVALUATE_THE_TERM)
def test_mis_sized_term_is_a_parse_error(ds, entry, term):
    with pytest.raises(ParseError, match=f"^{re.escape(TERM_MESSAGES[term])}$"):
        EVALUATE_THE_TERM[entry](ds, (1,), term)


@pytest.mark.parametrize("entry", ["generate_dataset", "compute_truth"])
@pytest.mark.parametrize("column", [0, -1])
def test_scenario_x1_column_below_one_is_a_parse_error(ds, entry, column):
    """Nothing else checks a Scenario's x1 columns: column 0 once selected
    the last covariate."""
    with pytest.raises(ParseError, match="^x1_columns are 1-based and must be >= 1$"):
        ENTRY_POINTS[entry](ds, (column,), BasisTerm((1, 0)))


def test_select_x1_accepts_exactly_the_columns_one_to_d():
    x = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(select_x1(x, (3, 1)), x[:, [2, 0]])
    assert select_x1(x, ()).shape == (4, 0)
    for bad, message in ((4, "x1 column 4 exceeds covariate dimension 3"),
                         (0, "x1_columns are 1-based and must be >= 1")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            select_x1(x, (1, bad))


def test_profile_gamma_cli_reports_the_x1_column(tmp_path, capsys, ds):
    data, cfg = tmp_path / "data.csv", tmp_path / "model.json"
    write_dataset(ds, data)
    cfg.write_text(_config((3,)).to_json(), encoding="utf-8")
    rc = main([
        "profile-gamma", "--data", str(data), "--model-config", str(cfg),
        "--alpha0", "-1.7", "--beta", "-0.4", "--grid", "-1", "1", "0.5",
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out) == {"error": "PARSE", "message": X1_MESSAGE}


def test_build_design_reports_the_defects_in_order(ds):
    """The x1 column first, then the first mis-sized term, then the first
    term with a non-finite value."""
    x = ds.x.copy()
    x[0] = 1e100  # so that the fourth powers overflow
    ds = Dataset(ds.r, ds.y, x)
    basis = GOOD_BASIS + (BasisTerm((4, 0)), LONG_TERM, SHORT_TERM)
    with np.errstate(over="ignore"):
        with pytest.raises(ParseError, match=f"^{X1_MESSAGE}$"):
            build_design(ds, ModelConfig(basis, (1, 3)))
        with pytest.raises(ParseError, match=re.escape(TERM_MESSAGES[LONG_TERM])):
            build_design(ds, ModelConfig(basis, (1,)))
        with pytest.raises(SingularDesignError,
                           match=re.escape("non-finite evaluation of basis term 2 (4, 0)")):
            build_design(ds, ModelConfig(basis[:3] + (BasisTerm((0, 4)),), (1,)))
