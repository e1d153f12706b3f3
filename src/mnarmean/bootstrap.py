"""Nonparametric pairs-bootstrap confidence intervals for tau: studentized
bootstrap-t and percentile.  Rows (r, y, x) are resampled jointly; quantiles
use the type-7 (linear interpolation) convention so results are bit-exact
for a fixed seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, ModelConfig
from .errors import MgfOverflowError, MnarError, NonConvergenceError, UsageError
from .fitting import fit_with_variance, point_estimate
from .inference import ConfidenceInterval

FAILURE_TOLERANCE = 0.05


@dataclass(frozen=True)
class BootstrapResult:
    ci: ConfidenceInterval
    n_resamples_requested: int
    n_successful: int
    t_stats: np.ndarray | None
    seed: int
    failure_counts: dict


def _child_rngs(seed: int, B: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(int(seed)).spawn(B)]


def t_interval_from_stats(
    tau_hat: float,
    sigma_tau: float,
    n: int,
    t_stats: np.ndarray,
    level: float,
) -> ConfidenceInterval:
    """CI = [tau - q_{1-a/2}(t*) s/sqrt(n), tau - q_{a/2}(t*) s/sqrt(n)]."""
    a = 1.0 - level
    q_lo = float(np.quantile(t_stats, a / 2.0, method="linear"))
    q_hi = float(np.quantile(t_stats, 1.0 - a / 2.0, method="linear"))
    scale = sigma_tau / np.sqrt(n)
    return ConfidenceInterval(
        lower=float(tau_hat - q_hi * scale),
        upper=float(tau_hat - q_lo * scale),
        level=level,
        method="bootstrap_t",
    )


def _resample(ds: Dataset, B: int, seed: int, fit, statistic):
    """The pairs-bootstrap loop shared by both intervals.  Runs ``fit`` on the
    original sample, then ``statistic(resample, fit(ds))`` on B resamples;
    a statistic fails by raising MnarError or LinAlgError, and failures are
    counted by error code.  Returns (fit(ds), statistics of the resamples
    that succeeded, failure counts)."""
    if B < 99:
        raise UsageError(f"B must be >= 99, got {B}")
    original = fit(ds)
    values = []
    failures: dict = {}
    for rng in _child_rngs(seed, B):
        star = ds.take(rng.integers(0, ds.n, size=ds.n))
        if star.n_observed in (0, star.n):
            code = "DEGENERATE"
        else:
            try:
                values.append(statistic(star, original))
                continue
            except MnarError as exc:
                code = exc.code
            except np.linalg.LinAlgError:
                code = "SINGULAR"
        failures[code] = failures.get(code, 0) + 1
    if len(values) < (1.0 - FAILURE_TOLERANCE) * B:
        raise NonConvergenceError(
            f"only {len(values)}/{B} bootstrap resamples succeeded; failures: {failures}"
        )
    return original, np.asarray(values), failures


def bootstrap_t_ci(
    ds: Dataset,
    cfg: ModelConfig,
    level: float = 0.95,
    B: int = 1000,
    seed: int = 0,
    variant: str = "printed",
) -> BootstrapResult:
    """Studentized bootstrap: the normal quantiles of the Wald CI are replaced
    by empirical quantiles of t* = sqrt(n) (tau* - tau_hat) / sigma_tau*."""
    n = ds.n

    def fit(sample):
        tau, prop, var = fit_with_variance(sample, cfg, variant)
        return tau.tau_hat, var.sigma2_tau, prop.converged

    def t_star(star, original):
        tau_s, sigma2_s, converged = fit(star)
        if not converged or sigma2_s <= 0:
            raise NonConvergenceError("resample fit did not converge or sigma2* <= 0")
        return np.sqrt(n) * (tau_s - original[0]) / np.sqrt(sigma2_s)

    (tau_hat, sigma2_tau, _), t_stats, failures = _resample(ds, B, seed, fit, t_star)
    ci = t_interval_from_stats(tau_hat, float(np.sqrt(sigma2_tau)), n, t_stats, level)
    return BootstrapResult(
        ci=ci,
        n_resamples_requested=B,
        n_successful=len(t_stats),
        t_stats=t_stats,
        seed=int(seed),
        failure_counts=failures,
    )


def bootstrap_percentile_ci(
    estimator_tag: str,
    ds: Dataset,
    cfg: ModelConfig,
    level: float = 0.95,
    B: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile CI for any of the point estimators of ``point_estimate``
    (proposed, normal_plugin, ipw, gmm<k>)."""

    def fit(sample):
        return point_estimate(estimator_tag, sample, cfg)[0]

    def tau_star(star, _):
        t = fit(star)
        if not np.isfinite(t):
            raise MgfOverflowError("non-finite resample estimate")
        return t

    _, taus, failures = _resample(ds, B, seed, fit, tau_star)
    a = 1.0 - level
    ci = ConfidenceInterval(
        lower=float(np.quantile(taus, a / 2.0, method="linear")),
        upper=float(np.quantile(taus, 1.0 - a / 2.0, method="linear")),
        level=level,
        method="bootstrap_percentile",
    )
    return BootstrapResult(
        ci=ci,
        n_resamples_requested=B,
        n_successful=len(taus),
        t_stats=None,
        seed=int(seed),
        failure_counts=failures,
    )
