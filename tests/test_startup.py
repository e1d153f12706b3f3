"""Start-up cost and the numpy / standard-library kernels that stand in for
scipy.

``import mnarmean`` loads numpy only: importing scipy.special would take
about half of a cold ``mnarmean fit``, and scipy.stats more again.  The
logistic is one numpy expression, the normal quantile comes from
``statistics.NormalDist`` and the two tails from ``math.erfc``; the
reference tests below hold them to scipy's expit and to mpmath at 40
digits."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2, norm

import mnarmean
from mnarmean.data import ModelConfig, write_dataset
from mnarmean.diagnostics import _chi2_1_sf, _two_sided_normal_p, ncv_score_test, uss_gof_test
from mnarmean.fitting import fit_mean_response
from mnarmean.inference import wald_ci
from mnarmean.propensity import _pr_observed
from mnarmean.simulate import example1, example2, generate_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mnarmean.__file__)))


@pytest.mark.parametrize("module", ["mnarmean", "mnarmean.cli"])
def test_import_leaves_out_scipy_stats_and_linalg(module):
    """A fresh interpreter: importing the package must not load scipy.stats
    or scipy.linalg, which no part of it needs."""
    code = (
        f"import sys, {module}\n"
        "print(' '.join(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_cold_fit_loads_no_scipy(tmp_path):
    """A fresh interpreter imports the package and the CLI, runs a fit with
    diagnostics and a bootstrap-t interval on 500 rows, then a fit whose
    mean basis repeats x1, which exits 2 with SINGULAR: no scipy module is
    loaded at any of the four points, so the saving is not deferred into
    the first fit or the rank test."""
    sc = example1(alpha0=-1.7, delta=1.0)
    data, cfg, fit_json = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "fit.json"
    write_dataset(generate_dataset(sc, 500, 7), data)
    cfg.write_text(sc.model_config().to_json(), encoding="utf-8")
    singular = tmp_path / "singular.json"
    singular.write_text(
        ModelConfig(mean_basis=((0, 0), (1, 0), (1, 0)), x1_columns=(1,)).to_json(),
        encoding="utf-8",
    )
    argv = [
        "fit", "--data", str(data), "--model-config", str(cfg), "--out", str(fit_json),
        "--diagnostics", "--bootstrap", "99", "--seed", "1",
    ]
    singular_argv = ["fit", "--data", str(data), "--model-config", str(singular)]
    code = (
        "import contextlib, io, json, sys\n"
        "def scipy_modules(step):\n"
        "    print(step, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "import mnarmean\n"
        "scipy_modules('import mnarmean')\n"
        "import mnarmean.cli\n"
        "scipy_modules('import mnarmean.cli')\n"
        f"assert mnarmean.cli.main({argv!r}) == 0\n"
        "scipy_modules('fit')\n"
        "with contextlib.redirect_stdout(io.StringIO()) as err:\n"
        f"    assert mnarmean.cli.main({singular_argv!r}) == 2\n"
        "assert json.loads(err.getvalue())['error'] == 'SINGULAR', err.getvalue()\n"
        "scipy_modules('singular fit')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "import mnarmean []", "import mnarmean.cli []", "fit []", "singular fit []"
    ]
    assert fit_json.exists()


def _mp(x: float):
    return mpmath.mpf(float(x))


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999, 1e-9, 1 - 1e-12])
def test_wald_ci_matches_norm_ppf(level):
    """z_{1-a/2} and the interval endpoints to 1e-15 relative of the normal
    quantile at 40 digits, taken at the same float q as wald_ci's; norm.ppf
    has an error of the same size, so the two agree to 2e-15."""
    q = 1.0 - (1.0 - level) / 2.0
    with mpmath.workdps(40):
        z_ref = mpmath.sqrt(2) * mpmath.erfinv(2 * _mp(q) - 1)
        tau, s2, n = 1.25, 3.7, 517
        half = z_ref * mpmath.sqrt(_mp(s2) / n)
        lower_ref, upper_ref = float(_mp(tau) - half), float(_mp(tau) + half)
    # sigma2_tau = n makes the half-width z itself
    z = wald_ci(0.0, 517.0, 517, level).upper
    assert z == pytest.approx(float(z_ref), rel=1e-15, abs=0)
    assert z == pytest.approx(float(norm.ppf(q)), rel=2e-15, abs=0)
    ci = wald_ci(tau, s2, n, level)
    assert ci.lower == pytest.approx(lower_ref, rel=1e-15, abs=0)
    assert ci.upper == pytest.approx(upper_ref, rel=1e-15, abs=0)


@pytest.mark.parametrize("make", [example1, example2])
@pytest.mark.parametrize("seed", [3, 11])
def test_diagnostic_p_values_match_scipy_stats(make, seed):
    """The fitted p-values to 1e-14 relative of the chi-square(1) and normal
    tails at 40 digits, taken at the fitted statistics, and to 1e-13 of
    scipy.stats, whose chi2.sf is off by up to 3e-14 itself."""
    sc = make()
    ds = generate_dataset(sc, 2000, seed)
    cfg = sc.model_config()
    res = fit_mean_response(ds, cfg)
    ncv = ncv_score_test(res.outcome, res.design, ds)
    uss = uss_gof_test(ds, res.propensity, res.mu_hat, cfg)
    with mpmath.workdps(40):
        ncv_ref = float(mpmath.erfc(mpmath.sqrt(_mp(ncv.statistic) / 2)))
        uss_ref = float(mpmath.erfc(abs(_mp(uss.statistic)) / mpmath.sqrt(2)))
    assert ncv.p_value == pytest.approx(ncv_ref, rel=1e-14, abs=0)
    assert uss.p_value == pytest.approx(uss_ref, rel=1e-14, abs=0)
    assert ncv.p_value == pytest.approx(float(chi2.sf(ncv.statistic, df=1)), rel=1e-13, abs=0)
    assert uss.p_value == pytest.approx(float(2.0 * norm.sf(abs(uss.statistic))), rel=1e-13, abs=0)


@pytest.mark.parametrize("x", [0.0, math.inf, math.nan])
def test_kernels_match_scipy_stats_at_the_edges(x):
    np.testing.assert_array_equal(_chi2_1_sf(x), chi2.sf(x, df=1))
    np.testing.assert_array_equal(_two_sided_normal_p(x), 2.0 * norm.sf(abs(x)))
    np.testing.assert_array_equal(_two_sided_normal_p(-x), 2.0 * norm.sf(abs(x)))


def test_logistic_within_two_ulp_of_expit():
    """pr(R=1) = 1 / (1 + e^u) against scipy's expit(-u) on [-745, 745],
    where e^u overflows at the top, and at the special values, without a
    RuntimeWarning."""
    u = np.concatenate([np.linspace(-745.0, 745.0, 100_001), [0.0, -0.0, np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _pr_observed(u)
    np.testing.assert_array_max_ulp(got, expit(-u), maxulp=2)
    nan = _pr_observed(np.array([np.nan]))
    assert np.isnan(nan).all()
