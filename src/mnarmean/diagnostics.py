"""Model-checking tests: the score test for non-constant error variance on
the complete-case regression, and the unweighted-sum-of-squares goodness-of-
fit test for the induced logistic model."""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .data import Dataset, DesignMatrices, ModelConfig
from .errors import DegenerateDataError, SingularDesignError
from .outcome import OutcomeFit, predict_mu
from .propensity import PropensityFit, _pr_observed, _z_matrix


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: int | None
    test_name: str


def _chi2_1_sf(stat: float) -> float:
    """pr(chi-square with 1 df > stat) = pr(|N(0, 1)| > sqrt(stat))."""
    return erfc(sqrt(stat / 2.0))


def _two_sided_normal_p(z: float) -> float:
    """pr(|N(0, 1)| > |z|)."""
    return erfc(abs(z) / sqrt(2.0))


def ncv_score_test(
    outcome_fit: OutcomeFit, dm: DesignMatrices, ds: Dataset
) -> TestResult:
    """Breusch-Pagan / Cook-Weisberg score test: regress
    u_i = eps_i^2 / sigma2 - 1 on the fitted values over complete cases;
    statistic = (explained sum of squares) / 2, chi-square with 1 df."""
    if outcome_fit.sigma2_hat <= 0:
        raise DegenerateDataError("zero residual variance: test degenerate")
    obs = ds.r == 1
    mu = predict_mu(outcome_fit, dm)[obs]
    if outcome_fit.n1 <= dm.M.shape[1] + 1:
        raise DegenerateDataError("too few complete cases for the score test")
    u = outcome_fit.residuals**2 / outcome_fit.sigma2_hat - 1.0
    Z = np.column_stack([np.ones(mu.shape[0]), mu])
    coef, *_ = np.linalg.lstsq(Z, u, rcond=None)
    fitted = Z @ coef
    # mean(u) = 0 exactly because sigma2 divides by n1
    ess = float(np.sum((fitted - fitted.mean()) ** 2))
    stat = ess / 2.0
    return TestResult(
        statistic=stat,
        p_value=_chi2_1_sf(stat),
        df=1,
        test_name="ncv_score",
    )


def uss_gof_test(
    ds: Dataset,
    propensity_fit: PropensityFit,
    mu_hat: np.ndarray,
    cfg: ModelConfig,
) -> TestResult:
    """Unweighted sum of squares T = sum (r_i - pi_i)^2, standardized by the
    Hosmer-le Cessie moment formulas and referred to a two-sided normal."""
    Z = _z_matrix(ds, mu_hat, cfg)
    pi = _pr_observed(Z @ propensity_fit.theta_hat)
    r = ds.r.astype(float)
    T = float(np.sum((r - pi) ** 2))
    w = pi * (1.0 - pi)
    E = float(np.sum(w))
    d = 1.0 - 2.0 * pi
    ZtWZ = (Z * w[:, None]).T @ Z
    try:
        inner = np.linalg.solve(ZtWZ, (Z * w[:, None]).T @ d)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"singular Z'WZ in USS test: {exc}") from exc
    var = float(d @ (w * d) - (d * w) @ Z @ inner)
    if var <= 0:
        raise DegenerateDataError("USS test variance is nonpositive")
    z_stat = (T - E) / np.sqrt(var)
    return TestResult(
        statistic=float(z_stat),
        p_value=_two_sided_normal_p(z_stat),
        df=None,
        test_name="uss_gof",
    )
