"""Nonparametric pairs-bootstrap confidence intervals for tau: studentized
bootstrap-t and percentile.  Rows (r, y, x) are resampled jointly; quantiles
use the type-7 (linear interpolation) convention so results are bit-exact
for a fixed seed.  Resamples are drawn from per-resample child seeds and
fitted together in chunks, which share one workspace of scratch arrays.
The two-step fits check identifiability on the original sample only, as
fit_mean_response does."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workspace import Workspace
from .data import Dataset, ModelConfig, build_design
from .errors import (
    MgfOverflowError,
    MnarError,
    NonConvergenceError,
    ReplicateErrors,
    UsageError,
)
from .fitting import fit_replicates, fit_with_variance, point_estimate, require_identifiable
from .inference import ConfidenceInterval, check_level, check_variant

FAILURE_TOLERANCE = 0.05

#: resampled rows fitted together in one chunk: 50 resamples at n = 500,
#: whose widest arrays, the score rows, then take about 2 MB
CHUNK_ROWS = 25_000


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


def check_resamples(B: int) -> None:
    """Raise UsageError unless the bootstrap resample count B is at least 99."""
    if B < 99:
        raise UsageError(f"B must be >= 99, got {B}")


def _resample(ds: Dataset, B: int, seed: int, fit, statistic):
    """The pairs-bootstrap loop shared by both intervals.  Runs ``fit`` on the
    original sample, then draws the B resamples, each from its own child RNG,
    in chunks of about CHUNK_ROWS rows.  ``statistic(idx, fit(ds),
    workspace)`` gets the row indices (b, n) of a chunk's resamples and a
    Workspace that every chunk of this call reuses, and returns their b
    statistics with the ReplicateErrors that failed some of them; failures
    are counted by error code.  Returns (fit(ds), statistics of the
    resamples that succeeded, failure counts)."""
    check_resamples(B)
    original = fit(ds)
    rngs = _child_rngs(seed, B)
    size = max(1, CHUNK_ROWS // ds.n)
    values = []
    failures: dict = {}
    workspace = Workspace()
    for start in range(0, B, size):
        idx = np.stack([rng.integers(0, ds.n, size=ds.n) for rng in rngs[start : start + size]])
        n1 = ds.r[idx].sum(axis=1)
        fitted = np.flatnonzero((n1 > 0) & (n1 < ds.n))
        codes = ["DEGENERATE"] * len(idx)
        if fitted.size:
            stats, errs = statistic(idx[fitted], original, workspace)
            values.extend(stats[errs.ok])
            for j, exc in zip(fitted, errs.errors):
                codes[j] = None if exc is None else exc.code
        for code in filter(None, codes):
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
    check_level(level)
    check_variant(variant)
    n = ds.n

    def fit(sample):
        require_identifiable(build_design(sample, cfg))
        tau, _, var = fit_with_variance(sample, cfg, variant)
        return tau.tau_hat, var.sigma2_tau

    def t_star(idx, original, workspace):
        fits = fit_replicates(ds, cfg, idx, variant, workspace=workspace)
        s2 = fits.sigma2_tau
        fits.errors.record(
            np.flatnonzero(~fits.converged | (s2 <= 0)),
            lambda j: NonConvergenceError("resample fit did not converge or sigma2* <= 0"),
        )
        with np.errstate(all="ignore"):
            return np.sqrt(n) * (fits.tau - original[0]) / np.sqrt(s2), fits.errors

    (tau_hat, sigma2_tau), t_stats, failures = _resample(ds, B, seed, fit, t_star)
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
    (proposed, normal_plugin, ipw, gmm<k>).  ``proposed`` and
    ``normal_plugin`` resamples are fitted together by ``fit_replicates``;
    the others one at a time.  A resample whose fit does not converge is a
    NONCONVERGENCE failure."""
    check_level(level)

    def fit(sample):
        if estimator_tag in ("proposed", "normal_plugin"):
            require_identifiable(build_design(sample, cfg))
        return point_estimate(estimator_tag, sample, cfg)[0]

    def tau_star(idx, _, workspace):
        if estimator_tag in ("proposed", "normal_plugin"):
            fits = fit_replicates(
                ds, cfg, idx, variance=False,
                normal_plugin=estimator_tag == "normal_plugin", workspace=workspace,
            )
            taus, converged, errs = fits.tau, fits.converged, fits.errors
        else:
            taus, converged = np.empty(len(idx)), np.ones(len(idx), dtype=bool)
            errs = ReplicateErrors(len(idx))
            for j, rows in enumerate(idx):
                try:
                    taus[j], _, converged[j] = point_estimate(estimator_tag, ds.take(rows), cfg)
                except MnarError as exc:
                    errs.record([j], lambda _: exc)
        errs.record(
            np.flatnonzero(~converged),
            lambda j: NonConvergenceError("resample fit did not converge"),
        )
        errs.record(
            np.flatnonzero(~np.isfinite(taus)),
            lambda j: MgfOverflowError("non-finite resample estimate"),
        )
        return taus, errs

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
