import numpy as np
import pytest
from scipy.stats import ks_1samp

from mnarmean.errors import MnarError, UsageError
from mnarmean.simulate import (
    ErrorLaw,
    GaussianMixture,
    StudyRow,
    _complete_data,
    compute_truth,
    example1,
    example2,
    generate_dataset,
    run_coverage_study,
    run_study,
    section2_design,
    tilt_error_law,
)

from conftest import mixture_cdf


def test_tilt_single_normal():
    law = GaussianMixture([(1.0, 0.0, 4.0)])
    tilted, m1 = tilt_error_law(law, 0.5)
    assert m1 == pytest.approx(np.exp(0.5), rel=1e-12)
    assert tilted.means[0] == pytest.approx(2.0)
    assert tilted.variances[0] == pytest.approx(4.0)


def test_tilt_gamma_zero_is_identity():
    law = ErrorLaw.delta_mixture(1.0)
    tilted, m1 = tilt_error_law(law, 0.0)
    assert m1 == 1.0
    assert np.allclose(tilted.weights, law.weights)
    assert np.allclose(tilted.means, law.means)


def test_tilt_mixture_component_algebra():
    """2/3 N(-1,1) + 1/3 N(2,4) tilted by gamma=0.5."""
    law = ErrorLaw.delta_mixture(1.0)
    tilted, m1 = tilt_error_law(law, 0.5)
    raw = np.array([
        (2.0 / 3.0) * np.exp(-0.5 + 0.125),
        (1.0 / 3.0) * np.exp(1.0 + 0.5),
    ])
    assert m1 == pytest.approx(raw.sum(), rel=1e-12)
    assert m1 == pytest.approx(1.9521, abs=2e-4)
    assert np.allclose(tilted.weights, raw / raw.sum())
    assert np.allclose(tilted.means, [-0.5, 4.0])
    # cross-check m1 against numeric integration of e^{g x} f(x)
    xs = np.linspace(-30, 30, 200_001)
    pdf = np.zeros_like(xs)
    for w, m, s2 in law.components:
        pdf += w * np.exp(-((xs - m) ** 2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)
    quad = np.trapezoid(np.exp(0.5 * xs) * pdf, xs)
    assert m1 == pytest.approx(quad, rel=1e-6)


def test_error_law_mean_zero_enforced():
    with pytest.raises(UsageError):
        ErrorLaw([(1.0, 1.0, 1.0)])
    with pytest.raises(UsageError):
        GaussianMixture([(0.6, 0.0, 1.0)])  # weights must sum to 1


def test_truth_spot_values():
    """Two reference-truth anchors at module-test scale (tight versions of all
    eight live in the acceptance suite)."""
    t1 = compute_truth(example1(alpha0=-1.7, delta=0.0), 2_000_000, seed=1)
    assert t1["tau0"] == pytest.approx(2.177, abs=0.005)
    assert t1["pr_missing"] == pytest.approx(0.339, abs=0.005)
    t2 = compute_truth(example2(alpha0=-2.2, delta=1.0), 2_000_000, seed=2)
    assert t2["tau0"] == pytest.approx(4.381, abs=0.005)
    assert t2["pr_missing"] == pytest.approx(0.469, abs=0.005)


def test_truth_gamma_zero_is_mean_mu():
    sc = example1(alpha0=-1.7, delta=0.0)
    sc0 = sc.__class__(
        covariate_law=sc.covariate_law, mean_basis=sc.mean_basis,
        xi_true=sc.xi_true, x1_columns=sc.x1_columns, alpha0=sc.alpha0,
        beta=sc.beta, gamma=0.0, error_law=sc.error_law,
    )
    t = compute_truth(sc0, 1_000_000, seed=3)
    assert t["tau0"] == pytest.approx(sc0.mean_mu(), abs=1e-12)
    assert sc0.mean_mu() == pytest.approx(2.5 - 1.0 * 1.0 + 1.5 * 0.0)


def test_truth_eta_mc_error_and_seed_stability():
    sc = example1(alpha0=-1.7, delta=0.0)
    etas = [compute_truth(sc, 1_000_000, seed=s)["eta0"] for s in (10, 11)]
    # binomial-style bound: se <= 0.5 / sqrt(draws) = 0.0005
    assert abs(etas[0] - etas[1]) < 3 * 2 * 0.0005


def test_generate_deterministic():
    sc = example2(alpha0=-2.7, delta=0.0)
    a = generate_dataset(sc, 500, seed=77)
    b = generate_dataset(sc, 500, seed=77)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(np.nan_to_num(a.y), np.nan_to_num(b.y))


def test_generator_self_consistency_large_n():
    """Missing rate, complete-case regression, residual laws, and the
    selection model all match the generative truth at n = 10^6."""
    sc = example1(alpha0=-1.7, delta=0.0)
    n = 1_000_000
    r, y, x = _complete_data(sc, n, seed=88)
    truth = compute_truth(sc, 2_000_000, seed=4)
    assert 1.0 - r.sum() / n == pytest.approx(truth["pr_missing"], abs=0.003)

    obs = r == 1
    M = np.column_stack([np.ones(n), x[:, 0], x[:, 1]])[obs]
    xi, *_ = np.linalg.lstsq(M, y[obs], rcond=None)
    assert np.allclose(xi, [2.5, -1.0, 1.5], atol=0.02)

    # complete-case residuals follow the base law; missing-case residuals
    # follow the tilted law (KS distance < 0.01)
    eps = y - sc.mu_truth(x)
    ks_obs = ks_1samp(eps[obs], mixture_cdf(sc.error_law)).statistic
    tilted, m1 = tilt_error_law(sc.error_law, sc.gamma)
    ks_mis = ks_1samp(eps[~obs], mixture_cdf(tilted)).statistic
    assert ks_obs < 0.01
    assert ks_mis < 0.01
    # empirical M1(gamma) on the observed subsample
    assert np.exp(sc.gamma * eps[obs]).mean() == pytest.approx(m1, rel=0.01)


def test_selection_model_recovered_on_debug_data():
    """Logistic regression of r on (1, x1, y), with y drawn for every row,
    recovers (alpha0, beta, gamma) of the outcome-dependent selection model."""
    from mnarmean.data import BasisTerm, Dataset, ModelConfig
    from mnarmean.propensity import fit_propensity

    sc = example1(alpha0=-1.7, delta=0.0)
    n = 1_000_000
    r, y, x = _complete_data(sc, n, seed=89)
    full = Dataset(r=r, y=np.where(r == 1, y, np.nan), x=x)
    cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)),), x1_columns=(1,))
    # feed every row's y as the "mu_hat" channel: the linear predictor
    # becomes alpha + beta x1 + gamma y, exactly the selection model
    fit = fit_propensity(full, y, cfg)
    assert np.allclose(fit.theta_hat, [sc.alpha0, sc.beta[0], sc.gamma], atol=0.05)


def test_run_study_oracle_identity():
    sc = example1(alpha0=-1.7, delta=0.0)
    tau0 = compute_truth(sc, 1_000_000, seed=np.random.SeedSequence((5, 1)))["tau0"]
    rows = run_study(sc, n=200, reps=5, methods=["oracle"], seed=5, tau0=tau0)
    row = rows[0]
    assert isinstance(row, StudyRow)
    assert row.rb_percent == pytest.approx(0.0, abs=1e-12)
    assert row.mse_x100 == pytest.approx(0.0, abs=1e-12)
    assert row.ncr == 0


def test_run_study_counts_failures_as_ncr():
    sc = example1(alpha0=-1.7, delta=0.0)
    rows = run_study(
        sc, n=30, reps=8, methods=["proposed"], seed=6, tau0=2.177
    )
    assert rows[0].ncr <= rows[0].n_reps  # never aborts, always accounted


def test_ipw_runs_with_one_covariate():
    """Example 2 has one covariate, so the just-identified IPW basis must go
    to degree 2 ({1, x, x^2}) to match dim(theta) = 3."""
    rows = run_study(example2(), n=2000, reps=5, methods=["ipw"], seed=1, tau0=3.677)
    assert rows[0].ncr < rows[0].n_reps


def test_run_study_rejects_unknown_method_before_replicating(monkeypatch):
    import mnarmean.simulate as sim

    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_parallel_map", no_replications)
    sc = example1(alpha0=-1.7, delta=0.0)
    with pytest.raises(UsageError, match="unknown estimator tag 'propsed'"):
        run_study(sc, 200, 3, ["proposed", "propsed"], seed=1, tau0=2.177)


def test_run_study_rejects_an_empty_method_list_before_any_truth(monkeypatch):
    import mnarmean.simulate as sim

    def no_work(*args, **kwargs):
        raise AssertionError("truth or a replication ran")

    monkeypatch.setattr(sim, "compute_truth", no_work)
    monkeypatch.setattr(sim, "_parallel_map", no_work)
    with pytest.raises(UsageError, match="methods is empty"):
        run_study(example1(alpha0=-1.7, delta=0.0), 2000, 50, [])


def test_usage_error_is_not_an_mnar_error():
    """A wrong argument is never counted as a failed fit."""
    assert not issubclass(UsageError, MnarError)
    assert UsageError.code == "USAGE"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scenario, method", [(example1, "gmm0"), (example2, "gmm1")])
def test_run_study_raises_for_a_tag_the_fit_rejects(scenario, method, threads):
    """gmm<k> with fewer basis functions than dim(theta) is a usage error,
    not an NCR of every replication."""
    with pytest.raises(UsageError, match="fewer than dim"):
        run_study(scenario(), 200, 3, ["proposed", method], seed=1, tau0=2.177, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kwargs, message", [
    pytest.param(dict(ci_method="bogus"), "unknown CI method", id="ci_method"),
    pytest.param(dict(variant="bogus"), "unknown H1 variant", id="variant"),
    pytest.param(dict(level=1.5), "confidence level", id="level"),
    pytest.param(dict(ci_method="bootstrap_t", boot_b=50), "B must be >= 99", id="boot_b"),
])
def test_run_coverage_study_raises_usage_errors(kwargs, message, threads):
    with pytest.raises(UsageError, match=message):
        run_coverage_study(example1(), 100, 3, seed=2, tau0=2.177, threads=threads, **kwargs)


def test_coverage_failure_counts_sum_to_n_failures():
    out = run_coverage_study(
        example1(), 30, 40, seed=3, tau0=2.177, ci_method="bootstrap_t", boot_b=99
    )
    assert out["n_failures"] > 0
    assert sum(out["failure_counts"].values()) == out["n_failures"]
    assert all(count > 0 for count in out["failure_counts"].values())
    assert "USAGE" not in out["failure_counts"]


def test_coverage_linalg_error_is_a_singular_failure(monkeypatch):
    import mnarmean.simulate as sim

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sim, "fit_with_variance", singular)
    out = run_coverage_study(example1(), 100, 4, seed=4, tau0=2.177)
    assert out["failure_counts"] == {"SINGULAR": 4}
    assert out["n_failures"] == 4
    assert np.isnan(out["coverage_percent"])


def test_mixture_parameters_are_read_only():
    law = ErrorLaw.delta_mixture(1.0)
    assert law.weights.tolist() == [2.0 / 3.0, 1.0 / 3.0]
    assert law.means.tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError):
        law.means[0] = 5.0


def test_run_study_thread_invariance():
    sc = example1(alpha0=-1.7, delta=0.0)
    kw = dict(n=300, reps=8, methods=["proposed"], seed=7, tau0=2.177)
    a = run_study(sc, **kw, threads=1)
    b = run_study(sc, **kw, threads=2)
    assert a == b


def test_coverage_degenerate_ci_is_100():
    sc = example1(alpha0=-1.7, delta=0.0)
    # the harness check: with CIs injected as (-inf, inf), coverage is 100%
    from unittest import mock

    with mock.patch("mnarmean.simulate._coverage_rep", side_effect=lambda args: (-np.inf, np.inf)):
        out = run_coverage_study(sc, n=100, reps=10, ci_method="wald", seed=8, tau0=2.177)
    assert out["coverage_percent"] == 100.0


def test_section2_profile_shape():
    sc = section2_design()
    assert sc.gamma == 3.0
    assert sc.alpha_induced == pytest.approx(-1.0 + 4.5)


def test_run_study_comparators_thread_invariance():
    """The IPW/GMM fits in worker processes match the serial run exactly."""
    sc = example1(alpha0=-1.7, delta=0.0)
    kw = dict(n=1000, reps=30, methods=["ipw", "gmm3"], seed=11, tau0=2.177)
    a = run_study(sc, **kw, threads=1)
    b = run_study(sc, **kw, threads=2)
    assert a == b


def test_ncr_reasons_sum_to_ncr():
    sc = section2_design()
    rows = run_study(sc, 500, 12, ["proposed", "ipw", "gmm3"], seed=2, tau0=0.5)
    allowed = {"NONCONVERGED", "TAU_RANGE", "GAMMA_RANGE", "NONCONVERGENCE", "SEPARATION",
               "SINGULAR", "OVERFLOW", "IDENTIFIABILITY", "DEGENERATE"}
    for row in rows:
        assert sum(row.ncr_reasons.values()) == row.ncr
        assert set(row.ncr_reasons) <= allowed
        assert all(count > 0 for count in row.ncr_reasons.values())
    ipw = rows[1]
    assert ipw.ncr > 0 and len(ipw.ncr_reasons) >= 2


def test_ncr_reason_takes_the_first_that_applies():
    from mnarmean.simulate import _ncr_reason

    assert _ncr_reason("NONCONVERGENCE") == "NONCONVERGENCE"
    assert _ncr_reason((np.nan, 9.0, False)) == "NONCONVERGED"
    assert _ncr_reason((np.nan, 0.5, True)) == "TAU_RANGE"
    assert _ncr_reason((11.0, np.inf, True)) == "TAU_RANGE"
    assert _ncr_reason((2.0, np.nan, True)) == "GAMMA_RANGE"
    assert _ncr_reason((2.0, -3.5, True)) == "GAMMA_RANGE"
    assert _ncr_reason((-10.0, 3.0, True)) is None


def test_study_row_reasons_default_to_empty():
    row = StudyRow(method="ipw", rb_percent=0.0, mse_x100=0.0, ncr=0, n_reps=3)
    assert row.ncr_reasons == {}
    assert hash(row) == hash(StudyRow("ipw", 0.0, 0.0, 0, 3, {"NONCONVERGED": 0}))


def test_scenario_rejects_a_mean_basis_in_the_span_of_x1():
    """Scenario covariates are independent normals, so a mean basis of the
    intercept and x1 terms leaves theta unidentifiable in every replication;
    the scenario is refused up front."""
    import dataclasses

    from mnarmean.data import BasisTerm

    sc = example1()
    with pytest.raises(UsageError, match="not identifiable"):
        dataclasses.replace(sc, mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0))), xi_true=(1.0, 1.0))
    with pytest.raises(UsageError, match="not identifiable"):
        dataclasses.replace(sc, mean_basis=(BasisTerm((0, 0)),), xi_true=(1.0,))
    # x2 is not an x1 column, and x1^2 is not linear in x1
    for term in ((0, 1), (2, 0), (1, 1)):
        dataclasses.replace(sc, mean_basis=(BasisTerm((0, 0)), BasisTerm(term)), xi_true=(1.0, 1.0))
