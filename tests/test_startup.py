"""Start-up cost and the scipy.special kernels that stand in for scipy.stats.

``import mnarmean`` loads numpy and scipy.special only: importing
scipy.stats would take about half of a cold ``mnarmean fit``.  The normal
and chi-square tails come from the scipy.special kernels that scipy.stats
calls for them, and the reference tests below hold them to scipy.stats bit
for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import chdtrc, ndtr
from scipy.stats import chi2, norm

import mnarmean
from mnarmean.diagnostics import ncv_score_test, uss_gof_test
from mnarmean.fitting import fit_mean_response
from mnarmean.inference import wald_ci
from mnarmean.simulate import example1, example2, generate_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mnarmean.__file__)))


@pytest.mark.parametrize("module", ["mnarmean", "mnarmean.cli"])
def test_import_leaves_out_scipy_stats_and_linalg(module):
    """A fresh interpreter: importing the package must not load the modules
    that only a rank-unclear fit (scipy.linalg) or nothing (scipy.stats)
    needs."""
    code = (
        f"import sys, {module}\n"
        "print(' '.join(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999, 1e-9, 1 - 1e-12])
def test_wald_ci_matches_norm_ppf(level):
    tau, s2, n = 1.25, 3.7, 517
    half = norm.ppf(1.0 - (1.0 - level) / 2.0) * np.sqrt(s2 / n)
    ci = wald_ci(tau, s2, n, level)
    assert (ci.lower, ci.upper) == (float(tau - half), float(tau + half))


@pytest.mark.parametrize("law", ["example1", "example2"])
def test_mixture_cdf_matches_norm_cdf(law):
    err = (example1() if law == "example1" else example2()).error_law
    x = np.concatenate(
        [np.linspace(-12.0, 12.0, 481), [-np.inf, np.inf, np.nan, 0.0, -0.0, 1e-300]]
    )
    ref = np.zeros_like(x)
    for w, m, s2 in err.components:
        ref += w * norm.cdf(x, loc=m, scale=np.sqrt(s2))
    np.testing.assert_array_equal(err.cdf(x), ref)


@pytest.mark.parametrize("make", [example1, example2])
@pytest.mark.parametrize("seed", [3, 11])
def test_diagnostic_p_values_match_scipy_stats(make, seed):
    sc = make()
    ds = generate_dataset(sc, 2000, seed)
    cfg = sc.model_config()
    res = fit_mean_response(ds, cfg)
    ncv = ncv_score_test(res.outcome, res.design, ds)
    uss = uss_gof_test(ds, res.propensity, res.mu_hat, cfg)
    assert ncv.p_value == float(chi2.sf(ncv.statistic, df=1))
    assert uss.p_value == float(2.0 * norm.sf(abs(uss.statistic)))


@pytest.mark.parametrize("x", [0.0, np.inf, np.nan])
def test_kernels_match_scipy_stats_at_the_edges(x):
    np.testing.assert_array_equal(chdtrc(1, x), chi2.sf(x, df=1))
    np.testing.assert_array_equal(ndtr(-abs(x)), norm.sf(abs(x)))
    np.testing.assert_array_equal(ndtr(x), norm.cdf(x))
