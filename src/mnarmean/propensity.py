"""Step 2: maximum conditional likelihood for theta = (alpha, beta, gamma)
under the induced logistic model

    pr(R=1 | x) = 1 / (1 + exp(alpha + x1' beta + gamma * mu_hat(x))),

fitted by Newton iteration with step halving.  Note the sign convention: a
LARGER linear predictor means a HIGHER missingness probability, so this is
the mirror image of a textbook logistic fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset, ModelConfig, select_x1
from .errors import DegenerateDataError, SeparationError, SingularDesignError

SCORE_TOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 30
SEPARATION_BOUND = 30.0


@dataclass(frozen=True)
class PropensityFit:
    theta_hat: np.ndarray  # (alpha, beta..., gamma)
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float

    @property
    def alpha_hat(self) -> float:
        return float(self.theta_hat[0])

    @property
    def gamma_hat(self) -> float:
        return float(self.theta_hat[-1])


def _z_matrix(ds: Dataset, mu_hat: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    return np.column_stack([np.ones(ds.n), select_x1(ds.x, cfg.x1_columns), mu_hat])


def _linear_predictor(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return z @ theta


def log_conditional_likelihood_z(r, z, theta) -> float:
    u = _linear_predictor(z, theta)
    # log pi = -log(1 + e^u), log(1 - pi) = u - log(1 + e^u)
    log1pe = np.logaddexp(0.0, u)
    return float(np.sum(-r * log1pe + (1 - r) * (u - log1pe)))


def log_conditional_likelihood(
    ds: Dataset, mu_hat: np.ndarray, theta: np.ndarray, cfg: ModelConfig
) -> float:
    """l_n(theta, xi_hat) = sum r log(pi) + (1-r) log(1-pi), stabilized."""
    return log_conditional_likelihood_z(ds.r, _z_matrix(ds, mu_hat, cfg), np.asarray(theta, float))


def score_and_hessian_z(r, z, theta):
    u = _linear_predictor(z, theta)
    pi = expit(-u)
    w = pi * (1.0 - pi)
    score = z.T @ (r - pi)
    hessian = -(z * w[:, None]).T @ z
    return score, hessian


def score_and_hessian(ds: Dataset, mu_hat: np.ndarray, theta: np.ndarray, cfg: ModelConfig):
    """Estimating-function convention: score = sum (r_i - pi_i) z_i, which is
    the NEGATIVE gradient of l_n under this model's sign convention; the
    returned hessian -sum pi(1-pi) z z' is the hessian of l_n."""
    return score_and_hessian_z(ds.r, _z_matrix(ds, mu_hat, cfg), np.asarray(theta, float))


def propensity_probabilities(
    ds: Dataset, mu_hat: np.ndarray, theta: np.ndarray, cfg: ModelConfig
) -> np.ndarray:
    """Fitted pr(R=1 | x_i) for every row."""
    z = _z_matrix(ds, mu_hat, cfg)
    return expit(-(z @ np.asarray(theta, float)))


def fit_propensity(ds: Dataset, mu_hat: np.ndarray, cfg: ModelConfig) -> PropensityFit:
    """Newton iterations with step halving from the intercept-only optimum."""
    n1 = ds.n_observed
    if n1 == 0 or n1 == ds.n:
        raise DegenerateDataError("all missingness indicators are equal")
    z = _z_matrix(ds, mu_hat, cfg)
    r = ds.r.astype(float)
    p = z.shape[1]
    # exact MLE of the intercept-only model: pi = n1/n
    theta = np.zeros(p)
    theta[0] = np.log((ds.n - n1) / n1)
    ll = log_conditional_likelihood_z(r, z, theta)
    converged = False
    it = 0
    gnorm = np.inf
    for it in range(1, MAX_ITER + 1):
        score, hessian = score_and_hessian_z(r, z, theta)
        gnorm = float(np.max(np.abs(score)))
        if gnorm < SCORE_TOL:
            converged = True
            break
        try:
            delta = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(
                f"singular hessian in propensity fit: {exc}"
            ) from exc
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = theta + step * delta
            ll_new = log_conditional_likelihood_z(r, z, cand)
            if ll_new > ll:
                accepted = True
                break
            if step == 1.0 and ll_new >= ll - 1e-9 * (1.0 + abs(ll)):
                # near the optimum the likelihood gain drops below float
                # precision before the score does; accept the full Newton
                # step whenever it still shrinks the score
                s_new, _ = score_and_hessian_z(r, z, cand)
                if np.max(np.abs(s_new)) < 0.5 * gnorm:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break  # no further progress possible at float precision
        theta, ll = cand, ll_new
        if np.max(np.abs(theta)) > SEPARATION_BOUND:
            raise SeparationError(
                "complete separation suspected: |theta| exceeded "
                f"{SEPARATION_BOUND} with the likelihood still increasing"
            )
    score, _ = score_and_hessian_z(r, z, theta)
    gnorm = float(np.max(np.abs(score)))
    return PropensityFit(
        theta_hat=theta,
        loglik=ll,
        iterations=it,
        converged=gnorm < SCORE_TOL,
        gradient_norm=gnorm,
    )


def recover_alpha0(fit: PropensityFit, m1_at_gamma: float) -> float:
    """alpha0 = alpha - log M1(gamma): undo the tilt-normalizer absorbed into
    the induced model's intercept."""
    if not m1_at_gamma > 0:
        raise DegenerateDataError(
            f"M1(gamma) must be positive, got {m1_at_gamma}"
        )
    return float(fit.alpha_hat - np.log(m1_at_gamma))
