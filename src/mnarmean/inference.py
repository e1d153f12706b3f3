"""Plug-in sandwich variance machinery: the A-matrices, the joint covariance
of (xi_hat, theta_hat), the B/C moment pieces, per-row score vectors and
their Gram matrix V_hat, the delta-method vector D_hat for tau_hat, and the
Wald confidence interval.

A note on the H1 variants: the printed delta-method row for the mean-basis
block contains a scalar factor (B2 - B1*B3) where the structurally parallel
factor in H2 is (B2^2 - B1*B3).  The shipped default is the printed form;
``variant="alternative"`` substitutes (B2^2 - B1*B3), and
``variant="derived"`` additionally multiplies the leading C1 coefficient by
gamma, which is what a direct delta-method derivation yields.  A Monte Carlo
calibration study comparing the variants lives in the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from .data import Dataset, DesignMatrices, ModelConfig
from .errors import MgfOverflowError, SingularDesignError, UsageError
from .mean_response import MGF_RANGE
from .outcome import OutcomeFit
from .propensity import PropensityFit, _z_matrix

COND_LIMIT = 1e12

H1_VARIANTS = ("printed", "alternative", "derived")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str


@dataclass(frozen=True)
class SandwichPieces:
    A1: np.ndarray  # q x q
    A2: np.ndarray  # p x p
    A3: np.ndarray  # p x q
    A4: np.ndarray  # q
    B: tuple[float, float, float]
    C1: np.ndarray  # q
    C2: np.ndarray  # q
    V: np.ndarray  # m x m, m = 1 + q + p + 3
    Shat: np.ndarray  # n x m


@dataclass(frozen=True)
class VarianceEstimates:
    Sigma: np.ndarray
    sigma2_tau: float
    D: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    clipped: bool


def _exp_gamma_eps(eps: np.ndarray, gamma: float) -> np.ndarray:
    s = gamma * eps
    if np.abs(s).max(initial=0.0) > MGF_RANGE:
        i = int(np.argmax(np.abs(s)))
        raise MgfOverflowError(
            f"gamma * residual = {s[i]:.3g} at row {i} exceeds the "
            f"stabilized range {MGF_RANGE:g}"
        )
    return np.exp(s)


def _propensity_rows(ds, mu_hat, propensity_fit, cfg):
    """Per-row z_i = (1, x1_i, mu_hat_i) and fitted pi_i."""
    z = _z_matrix(ds, mu_hat, cfg)
    return z, expit(-(z @ propensity_fit.theta_hat))


def _tilt_rows(ds, outcome_fit, gamma_hat):
    """Per-row r_i, eps_i (0 where y is missing) and r_i e^{gamma eps_i}."""
    r = ds.r.astype(float)
    eps = np.zeros(ds.n)
    eps[ds.r == 1] = outcome_fit.residuals
    return r, eps, r * _exp_gamma_eps(eps, gamma_hat)


def _A_matrices(M, r, z, pi):
    n = M.shape[0]
    zw = z * (pi * (1.0 - pi))[:, None]
    return (M * r[:, None]).T @ M / n, zw.T @ z / n, zw.T @ M / n, M.mean(axis=0)


def estimate_A_matrices(
    ds: Dataset,
    dm: DesignMatrices,
    mu_hat: np.ndarray,
    propensity_fit: PropensityFit,
    cfg: ModelConfig,
):
    """A1 = n^-1 sum r M_i' M_i,  A2 = n^-1 sum w_i z_i z_i',
    A3 = n^-1 sum w_i z_i M_i,  A4 = n^-1 sum M_i',  w_i = pi_i (1 - pi_i);
    grad_xi mu is the basis row M_i (mu is linear in xi) and
    grad_theta phi = z_i = (1, x1_i, mu_hat_i)."""
    z, pi = _propensity_rows(ds, mu_hat, propensity_fit, cfg)
    return _A_matrices(dm.M, ds.r.astype(float), z, pi)


def _checked_inverse(A: np.ndarray, name: str) -> np.ndarray:
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularDesignError(f"{name} is numerically singular")
    return np.linalg.inv(A)


def _joint_covariance(A1inv, A2inv, A3, sigma2_hat, gamma_hat) -> np.ndarray:
    """Joint asymptotic covariance of sqrt(n) (xi_hat, theta_hat)."""
    q = A1inv.shape[0]
    p = A2inv.shape[0]
    top_left = sigma2_hat * A1inv
    top_right = -gamma_hat * sigma2_hat * A1inv @ A3.T @ A2inv
    bottom_right = A2inv + gamma_hat**2 * sigma2_hat * (
        A2inv @ A3 @ A1inv @ A3.T @ A2inv
    )
    Sigma = np.empty((q + p, q + p))
    Sigma[:q, :q] = top_left
    Sigma[:q, q:] = top_right
    Sigma[q:, :q] = top_right.T
    Sigma[q:, q:] = bottom_right
    return (Sigma + Sigma.T) / 2.0


def _score_rows_and_V(M, mu_hat, r, z, pi, eps, e, B):
    B1, B2, _ = B
    cols = [
        (r - r.mean())[:, None],
        M * (r * eps)[:, None],
        z * (r - pi)[:, None],
        (mu_hat - mu_hat.mean())[:, None],
        (e - B1)[:, None],
        (eps * e - B2)[:, None],
    ]
    Shat = np.hstack(cols)
    return Shat, Shat.T @ Shat / M.shape[0]


def build_score_rows_and_V(
    ds: Dataset,
    dm: DesignMatrices,
    mu_hat: np.ndarray,
    outcome_fit: OutcomeFit,
    propensity_fit: PropensityFit,
    cfg: ModelConfig,
    B: tuple[float, float, float],
):
    """Per-row estimating-function residuals S_hat_i and V_hat = n^-1 S'S."""
    r, eps, e = _tilt_rows(ds, outcome_fit, propensity_fit.gamma_hat)
    z, pi = _propensity_rows(ds, mu_hat, propensity_fit, cfg)
    return _score_rows_and_V(dm.M, mu_hat, r, z, pi, eps, e, B)


def build_sandwich(
    ds: Dataset,
    dm: DesignMatrices,
    mu_hat: np.ndarray,
    outcome_fit: OutcomeFit,
    propensity_fit: PropensityFit,
    cfg: ModelConfig,
) -> SandwichPieces:
    """The A-matrices, B_k = n^-1 sum r eps^{k-1} e^{g eps} (k=1,2,3),
    C_k = n^-1 sum r eps^{k-1} e^{g eps} M_i' (k=1,2), and the score rows
    with V_hat; the per-row pi, z, eps and e^{g eps} are formed once."""
    M = dm.M
    r, eps, e = _tilt_rows(ds, outcome_fit, propensity_fit.gamma_hat)
    z, pi = _propensity_rows(ds, mu_hat, propensity_fit, cfg)
    A1, A2, A3, A4 = _A_matrices(M, r, z, pi)
    B = (float(e.mean()), float((eps * e).mean()), float((eps**2 * e).mean()))
    C1 = M.T @ e / ds.n
    C2 = M.T @ (eps * e) / ds.n
    Shat, V = _score_rows_and_V(M, mu_hat, r, z, pi, eps, e, B)
    return SandwichPieces(A1=A1, A2=A2, A3=A3, A4=A4, B=B, C1=C1, C2=C2, V=V, Shat=Shat)


def estimate_sigma_tau(
    pieces: SandwichPieces,
    eta_hat: float,
    gamma_hat: float,
    sigma2_hat: float,
    variant: str = "printed",
) -> VarianceEstimates:
    """Assemble D_hat and sigma2_tau = D' V D.  ``variant`` selects the H1
    scalar-factor convention (see module docstring)."""
    if variant not in H1_VARIANTS:
        raise UsageError(f"unknown H1 variant {variant!r}; use one of {H1_VARIANTS}")
    A1inv = _checked_inverse(pieces.A1, "A1")
    A2inv = _checked_inverse(pieces.A2, "A2")
    B1, B2, B3 = pieces.B
    if not B1 > 0:
        raise SingularDesignError(f"B1 must be positive, got {B1}")
    q = pieces.A1.shape[0]
    p = pieces.A2.shape[0]
    one_minus_eta = 1.0 - eta_hat
    ep = np.zeros(p)
    ep[-1] = 1.0  # gamma occupies the last theta slot
    ep_A2inv = ep @ A2inv

    c1_coef = B2 / B1**2
    if variant == "derived":
        c1_coef *= gamma_hat
    h1_factor = B2 - B1 * B3 if variant == "printed" else B2**2 - B1 * B3
    H1 = (
        pieces.A4 @ A1inv
        + one_minus_eta
        * (c1_coef * pieces.C1 - pieces.C1 / B1 - gamma_hat * pieces.C2 / B1)
        @ A1inv
        + (one_minus_eta * gamma_hat / B1**2)
        * h1_factor
        * (ep_A2inv @ pieces.A3 @ A1inv)
    )
    H2 = (B2**2 - B1 * B3) * one_minus_eta / B1**2 * ep_A2inv

    D = np.concatenate(
        [
            [-B2 / B1],
            H1,
            H2,
            [1.0, -one_minus_eta * B2 / B1**2, one_minus_eta / B1],
        ]
    )
    s2 = float(D @ pieces.V @ D)
    clipped = s2 < 0.0
    if clipped:
        s2 = 0.0
    Sigma = _joint_covariance(A1inv, A2inv, pieces.A3, sigma2_hat, gamma_hat)
    return VarianceEstimates(
        Sigma=Sigma, sigma2_tau=s2, D=D, H1=H1, H2=H2, clipped=clipped
    )


def wald_ci(
    tau_hat: float, sigma2_tau: float, n: int, level: float = 0.95
) -> ConfidenceInterval:
    """tau_hat +- z_{1-a/2} sqrt(sigma2_tau / n); the /sqrt(n) rescaling puts
    the sqrt(n)-normalized limit variance back on the data scale."""
    if not 0.0 < level < 1.0:
        raise UsageError(f"confidence level must lie in (0, 1), got {level}")
    if sigma2_tau < 0 or n < 1:
        raise UsageError("sigma2_tau must be >= 0 and n >= 1")
    zq = norm.ppf(1.0 - (1.0 - level) / 2.0)
    half = zq * np.sqrt(sigma2_tau / n)
    return ConfidenceInterval(
        lower=float(tau_hat - half),
        upper=float(tau_hat + half),
        level=level,
        method="wald",
    )
