"""Empirical moment-generating-function functionals of the complete-case
residuals and the mean-response estimator

    tau_hat = n^-1 sum_i mu(x_i; xi_hat) + (1 - eta_hat) M2_hat(g) / M1_hat(g),

plus a normal-error plug-in comparator.  ``tau_batch`` serves b fits at
once; ``estimate_tau`` and ``estimate_tau_normal_plugin`` are its b = 1 case."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateDataError, MgfOverflowError, ReplicateErrors
from .outcome import OutcomeFit
from .propensity import PropensityFit, alpha0_batch

# |t * residual| beyond this cannot be represented even after max-shift
MGF_RANGE = 1e4


@dataclass(frozen=True)
class TauEstimate:
    tau_hat: float
    eta_hat: float
    m1_hat: float
    m2_hat: float
    alpha0_hat: float


def check_mgf_range(s: np.ndarray, errs: ReplicateErrors, obs: np.ndarray) -> None:
    """The one overflow rule for e^{t eps}: replicate j of s = t * eps (b, k)
    fails with MgfOverflowError when an entry of the mask ``obs`` (b, k)
    exceeds MGF_RANGE in absolute value."""
    bad = (np.abs(s) > MGF_RANGE) & obs

    def overflow(j):
        i = int(np.argmax(bad[j]))
        index = int(obs[j, :i].sum())  # its place among the masked entries
        return MgfOverflowError(
            f"t * residual = {s[j, i]:.3g} at residual index {index} exceeds the "
            f"stabilized range {MGF_RANGE:g}"
        )

    errs.record(np.flatnonzero(bad.any(axis=1)), overflow)


@np.errstate(all="ignore")
def mgf_batch(res: np.ndarray, t: np.ndarray, errs: ReplicateErrors, obs: np.ndarray):
    """(M1_hat(t), M2_hat(t), M2_hat(t) / M1_hat(t)) for b residual vectors
    at once: res (b, k) and t (b,), of which only the entries in the mask
    ``obs`` (b, k) count.  max(t * eps) is factored out so that the sums
    cannot overflow, and the ratio is formed without either factor, so it
    stays bounded even when the MGF itself would overflow a float."""
    s = t[:, None] * res
    check_mgf_range(s, errs, obs)
    s = np.where(obs, s, -np.inf)
    c = np.max(s, axis=1)
    w = np.exp(s - c[:, None])
    k = obs.sum(axis=1)
    sum_w = np.sum(w, axis=1)
    sum_rw = np.sum(res * w, axis=1)
    scale = np.exp(c)
    return scale * (sum_w / k), scale * (sum_rw / k), sum_rw / sum_w


def _mgf(residuals: np.ndarray, t: float):
    """[M1_hat(t), M2_hat(t), M2_hat(t) / M1_hat(t)] of one residual vector:
    mgf_batch with b = 1."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        raise DegenerateDataError("the empirical MGF requires at least one residual")
    errs = ReplicateErrors(1)
    res = residuals[None]
    out = mgf_batch(res, np.array([float(t)]), errs, np.ones(res.shape, dtype=bool))
    errs.raise_first()
    return [float(v[0]) for v in out]


def empirical_mgf(residuals: np.ndarray, t: float) -> tuple[float, float]:
    """(M1_hat(t), M2_hat(t)) = (mean e^{t eps}, mean eps e^{t eps}), computed
    by factoring out max(t*eps) so the intermediate sums cannot overflow."""
    m1, m2, _ = _mgf(residuals, t)
    return m1, m2


@np.errstate(all="ignore")
def tau_batch(eta, mu_mean, theta, eps, errs: ReplicateErrors, obs, sigma2=None):
    """(tau_hat, M1, M2, alpha0) for b fits at once: eta, mu_mean (b,),
    theta (b, p) and the residuals eps (b, k), of which only the entries in
    the mask ``obs`` (b, k) count.  With ``sigma2`` (b,) given, the
    normal-error plug-in replaces the empirical MGF."""
    errs.record(
        np.flatnonzero((eta == 0.0) | (eta == 1.0)),
        lambda j: DegenerateDataError("eta_hat is degenerate (all r equal)"),
    )
    gamma = theta[:, -1]
    if sigma2 is None:
        m1, m2, ratio = mgf_batch(eps, gamma, errs, obs)
        tau = mu_mean + (1.0 - eta) * ratio
    else:
        m1 = np.exp(gamma**2 * sigma2 / 2.0)
        m2 = gamma * sigma2 * m1
        tau = mu_mean + (1.0 - eta) * gamma * sigma2
    return tau, m1, m2, alpha0_batch(theta[:, 0], m1, errs)


def _estimate_tau(ds, outcome_fit, propensity_fit, mu_hat, normal_plugin):
    eta = ds.n_observed / ds.n
    errs = ReplicateErrors(1)
    eps = outcome_fit.residuals[None]
    out = tau_batch(
        np.array([eta]),
        np.array([np.mean(mu_hat)]),
        propensity_fit.theta_hat[None],
        eps,
        errs,
        np.ones(eps.shape, dtype=bool),
        sigma2=np.array([outcome_fit.sigma2_hat]) if normal_plugin else None,
    )
    errs.raise_first()
    tau, m1, m2, alpha0 = (float(v[0]) for v in out)
    return TauEstimate(tau_hat=tau, eta_hat=eta, m1_hat=m1, m2_hat=m2, alpha0_hat=alpha0)


def estimate_tau(
    ds: Dataset,
    outcome_fit: OutcomeFit,
    propensity_fit: PropensityFit,
    mu_hat: np.ndarray,
) -> TauEstimate:
    """Plug-in mean-response estimate; the mu term averages over ALL rows.
    tau_batch with b = 1."""
    return _estimate_tau(ds, outcome_fit, propensity_fit, mu_hat, normal_plugin=False)


def estimate_tau_normal_plugin(
    ds: Dataset,
    outcome_fit: OutcomeFit,
    propensity_fit: PropensityFit,
    mu_hat: np.ndarray,
) -> TauEstimate:
    """Comparator assuming Gaussian errors: M1(t) = e^{t^2 s^2 / 2} and
    M2(t) = t s^2 M1(t), so the correction term reduces to gamma * sigma2."""
    return _estimate_tau(ds, outcome_fit, propensity_fit, mu_hat, normal_plugin=True)
