import numpy as np
import pytest
from scipy.stats import norm

from mnarmean.bootstrap import (
    bootstrap_percentile_ci,
    bootstrap_t_ci,
    t_interval_from_stats,
)
from mnarmean.errors import NonConvergenceError, UsageError
from mnarmean.inference import wald_ci
from mnarmean.simulate import example1, example2, generate_dataset


@pytest.fixture(scope="module")
def boot_data():
    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 400, seed=123)
    return ds, sc.model_config()


def test_symmetric_toy_quantiles():
    """t* = {-2,-1,0,1,2}, level 0.5: type-7 quantiles at 0.25/0.75 are -1/1,
    so the CI is tau_hat -+ sigma_tau/sqrt(n)."""
    t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    ci = t_interval_from_stats(tau_hat=5.0, sigma_tau=2.0, n=4, t_stats=t, level=0.5)
    assert ci.lower == pytest.approx(5.0 - 1.0)
    assert ci.upper == pytest.approx(5.0 + 1.0)


def test_bootstrap_t_matches_wald_under_normal_tstats():
    """Injecting exact normal quantiles as t* reproduces the Wald CI."""
    t = norm.ppf(np.linspace(0.0, 1.0, 100_001)[1:-1])
    ci = t_interval_from_stats(tau_hat=1.2, sigma_tau=3.0, n=100, t_stats=t, level=0.95)
    ref = wald_ci(1.2, 9.0, 100, level=0.95)
    assert ci.lower == pytest.approx(ref.lower, abs=1e-3)
    assert ci.upper == pytest.approx(ref.upper, abs=1e-3)


def test_bootstrap_t_deterministic_and_accounted(boot_data):
    ds, cfg = boot_data
    a = bootstrap_t_ci(ds, cfg, B=120, seed=9)
    b = bootstrap_t_ci(ds, cfg, B=120, seed=9)
    assert (a.ci.lower, a.ci.upper) == (b.ci.lower, b.ci.upper)
    assert np.array_equal(a.t_stats, b.t_stats)
    assert a.n_successful + sum(a.failure_counts.values()) == 120
    assert a.ci.lower <= a.ci.upper
    c = bootstrap_t_ci(ds, cfg, B=120, seed=10)
    assert (a.ci.lower, a.ci.upper) != (c.ci.lower, c.ci.upper)


def test_bootstrap_percentile_deterministic(boot_data):
    ds, cfg = boot_data
    a = bootstrap_percentile_ci("proposed", ds, cfg, B=120, seed=11)
    b = bootstrap_percentile_ci("proposed", ds, cfg, B=120, seed=11)
    assert (a.ci.lower, a.ci.upper) == (b.ci.lower, b.ci.upper)
    assert a.ci.method == "bootstrap_percentile"
    assert a.n_successful + sum(a.failure_counts.values()) == 120


def test_b_floor(boot_data):
    ds, cfg = boot_data
    with pytest.raises(UsageError):
        bootstrap_t_ci(ds, cfg, B=98)
    with pytest.raises(UsageError):
        bootstrap_percentile_ci("proposed", ds, cfg, B=50)


@pytest.mark.parametrize("interval", ["t", "percentile"])
def test_failure_tolerance_enforced(monkeypatch, interval):
    """If more than 5% of resamples fail, the whole CI must error out rather
    than silently report a quantile from the survivors."""
    import mnarmean.fitting as ft

    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 500, seed=124)
    real_fit = ft.fit_tau_only
    calls = {"k": 0}

    def flaky_fit(dataset, cfg):
        calls["k"] += 1
        # first call is the original-sample fit; fail every third resample
        if calls["k"] > 1 and calls["k"] % 3 == 0:
            raise NonConvergenceError("injected resample failure")
        return real_fit(dataset, cfg)

    monkeypatch.setattr(ft, "fit_tau_only", flaky_fit)
    with pytest.raises(NonConvergenceError, match="resamples succeeded"):
        if interval == "t":
            bootstrap_t_ci(ds, sc.model_config(), B=100, seed=12)
        else:
            bootstrap_percentile_ci("proposed", ds, sc.model_config(), B=100, seed=12)


def test_unknown_estimator_tag_is_usage_error(boot_data):
    """simulate.run_method and the percentile bootstrap share one registry."""
    from mnarmean.simulate import run_method

    ds, cfg = boot_data
    sc = example1(alpha0=-1.7, delta=0.0)
    for tag in ("bogus", "gmm", "gmmx"):
        with pytest.raises(UsageError, match="unknown estimator tag"):
            run_method(tag, ds, sc, 2.0)
        with pytest.raises(UsageError, match="unknown estimator tag"):
            bootstrap_percentile_ci(tag, ds, cfg, B=99, seed=1)


def test_percentile_ipw_with_one_covariate():
    """Example 2 has a single covariate; the just-identified IPW basis is
    then {1, x, x^2}."""
    sc = example2()
    ds = generate_dataset(sc, 2000, seed=7)
    res = bootstrap_percentile_ci("ipw", ds, sc.model_config(), B=99, seed=3)
    assert np.isfinite(res.ci.lower) and np.isfinite(res.ci.upper)
    assert res.ci.lower <= res.ci.upper
