"""One identifiability rule for every two-step fit.  The structural rule,
``basis_in_x1_span``, refuses a mean basis of the intercept and x1 terms in
``Scenario`` and ``fit_tau_only``; ``check_identifiability``'s QR of the data
runs in ``fit_mean_response`` and on a bootstrap's original sample.  Every
refusal of a fit is the IdentifiabilityError with fit_mean_response's
message."""

import dataclasses
import itertools
import types

import pytest

from mnarmean import fitting
from mnarmean.bootstrap import bootstrap_percentile_ci, bootstrap_t_ci
from mnarmean.data import (
    BasisTerm,
    Dataset,
    ModelConfig,
    basis_in_x1_span,
    build_design,
    check_identifiability,
)
from mnarmean.errors import IdentifiabilityError, UsageError
from mnarmean.fitting import fit_mean_response, fit_tau_only, fit_with_variance, point_estimate
from mnarmean.ipw import monomial_basis
from mnarmean.simulate import example1, example2, generate_dataset, run_method

#: entry point name -> a call of it on a dataset and a model config
ENTRY_POINTS = {
    "fit_tau_only": lambda ds, cfg: fit_tau_only(ds, cfg),
    "fit_tau_only-normal_plugin": lambda ds, cfg: fit_tau_only(ds, cfg, normal_plugin=True),
    "fit_with_variance": lambda ds, cfg: fit_with_variance(ds, cfg),
    "point_estimate-proposed": lambda ds, cfg: point_estimate("proposed", ds, cfg),
    "point_estimate-normal_plugin": lambda ds, cfg: point_estimate("normal_plugin", ds, cfg),
    # a Scenario refuses such a basis, so run_method gets a stand-in
    "run_method": lambda ds, cfg: run_method(
        "proposed", ds, types.SimpleNamespace(model_config=lambda: cfg), 2.0
    ),
    "fit_mean_response": lambda ds, cfg: fit_mean_response(ds, cfg),
    "bootstrap_t_ci": lambda ds, cfg: bootstrap_t_ci(ds, cfg, B=99, seed=2),
    "bootstrap_percentile_ci-proposed": lambda ds, cfg: bootstrap_percentile_ci(
        "proposed", ds, cfg, B=99, seed=2
    ),
    "bootstrap_percentile_ci-normal_plugin": lambda ds, cfg: bootstrap_percentile_ci(
        "normal_plugin", ds, cfg, B=99, seed=2
    ),
}

#: scenario -> its data and a mean basis in span{1, x1}: {1, x1} on Example 1,
#: {1, x} on Example 2
SPAN_CASES = {
    "example1": lambda: (
        generate_dataset(example1(-1.7, 0.0), 500, seed=1),
        ModelConfig((BasisTerm((0, 0)), BasisTerm((1, 0))), (1,)),
    ),
    "example2": lambda: (
        generate_dataset(example2(-2.7, 0.0), 500, seed=1),
        ModelConfig((BasisTerm((0,)), BasisTerm((1,))), (1,)),
    ),
}


def _message(ds, cfg):
    with pytest.raises(IdentifiabilityError) as expected:
        fit_mean_response(ds, cfg)
    return str(expected.value)


@pytest.mark.parametrize("case", SPAN_CASES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_fit_refuses_a_basis_in_the_span_of_x1(case, entry):
    """fit_tau_only and the paths through it used to return an arbitrary tau
    (2.53, 2.24, 1.79 and 2.09 on Example 1 seeds 1-4, tau0 = 2.18) or
    raise SINGULAR."""
    ds, cfg = SPAN_CASES[case]()
    with pytest.raises(IdentifiabilityError) as got:
        ENTRY_POINTS[entry](ds, cfg)
    assert str(got.value) == _message(ds, cfg)


@pytest.mark.parametrize("entry", [
    "fit_mean_response", "bootstrap_t_ci",
    "bootstrap_percentile_ci-proposed", "bootstrap_percentile_ci-normal_plugin",
])
def test_the_data_check_runs_before_the_propensity_fit(entry):
    """Basis {1, x2} is outside span{1, x1} by the structural rule, but with
    x2 = 2 + 3 x1 in the data it is inside: the QR finds it before the
    propensity fit, which would fail as SINGULAR."""
    ds = generate_dataset(example1(-1.7, 0.0), 500, seed=3)
    x = ds.x.copy()
    x[:, 1] = 2.0 + 3.0 * x[:, 0]
    ds = Dataset(ds.r, ds.y, x)
    cfg = ModelConfig((BasisTerm((0, 0)), BasisTerm((0, 1))), (1,))
    assert not basis_in_x1_span(cfg.mean_basis, cfg.x1_columns)
    with pytest.raises(IdentifiabilityError, match="not identifiable"):
        ENTRY_POINTS[entry](ds, cfg)


def test_bootstrap_t_fits_the_original_by_least_squares_once(monkeypatch):
    """The data check runs on the design alone, so the original sample's
    only least-squares fit is fit_with_variance's (the resamples take the
    batched path)."""
    calls = []
    real = fitting.fit_least_squares

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fitting, "fit_least_squares", spy)
    sc = example1(-1.7, 1.0)
    bootstrap_t_ci(generate_dataset(sc, 300, seed=7), sc.model_config(), B=99, seed=7)
    assert len(calls) == 1


@pytest.mark.parametrize("x1_columns", [(1,), (2,), (1, 2)])
def test_the_structural_rule_is_the_data_check_on_generated_data(x1_columns):
    """Over every intercept-holding subset of Example 1's monomials of degree
    at most 2, the structural rule reads "in span{1, x1}" exactly when
    check_identifiability finds theta not identifiable on generated data."""
    ds = generate_dataset(example1(-1.7, 0.0), 500, seed=11)
    intercept, *others = monomial_basis(2, 2)
    assert intercept.is_intercept
    flags = set()
    for k in range(len(others) + 1):
        for subset in itertools.combinations(others, k):
            cfg = ModelConfig((intercept, *subset), x1_columns)
            in_span = basis_in_x1_span(cfg.mean_basis, cfg.x1_columns)
            assert in_span == (not check_identifiability(build_design(ds, cfg)).identifiable)
            flags.add(in_span)
    assert flags == {True, False}


def test_scenario_and_fits_share_the_rule():
    """Scenario's UsageError and the fits' IdentifiabilityError carry one
    message."""
    sc = example1()
    basis = (BasisTerm((0, 0)), BasisTerm((1, 0)))
    with pytest.raises(UsageError) as refused:
        dataclasses.replace(sc, mean_basis=basis, xi_true=(1.0, 1.0))
    ds, cfg = SPAN_CASES["example1"]()
    assert str(refused.value) == _message(ds, cfg)
    assert basis_in_x1_span(basis, (1,)) and not basis_in_x1_span(basis, (2,))
    assert not basis_in_x1_span(basis, (0,)) and not basis_in_x1_span(basis, (-1,))
