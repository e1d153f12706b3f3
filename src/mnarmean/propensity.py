"""Step 2: maximum conditional likelihood for theta = (alpha, beta, gamma)
under the induced logistic model

    pr(R=1 | x) = 1 / (1 + exp(alpha + x1' beta + gamma * mu_hat(x))),

fitted by Newton iteration with step halving; ``newton_batch`` runs b such
fits at once and ``fit_propensity`` is its b = 1 case.  Note the sign convention: a
LARGER linear predictor means a HIGHER missingness probability, so this is
the mirror image of a textbook logistic fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workspace import Workspace
from .data import Dataset, ModelConfig, select_x1
from .errors import (
    DegenerateDataError,
    ReplicateErrors,
    SeparationError,
    SingularDesignError,
    linalg_each,
)

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
    def gamma_hat(self) -> float:
        return float(self.theta_hat[-1])


def z_stack(x1: np.ndarray, mu_hat: np.ndarray, workspace: Workspace) -> np.ndarray:
    """z_i = (1, x1_i, mu_hat_i) for x1 (..., n, p - 2) and mu_hat (..., n).
    The array is stored feature-major, so its transpose, which the Newton and
    sandwich kernels read, is contiguous; it lies in the ``z`` slot of
    ``workspace``."""
    (zt,) = workspace.arrays("z", mu_hat.shape[:-1] + (x1.shape[-1] + 2, mu_hat.shape[-1]))
    zt[..., 0, :] = 1.0
    zt[..., 1:-1, :] = x1.swapaxes(-1, -2)
    zt[..., -1, :] = mu_hat
    return zt.swapaxes(-1, -2)


def _z_matrix(ds: Dataset, mu_hat: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    return z_stack(select_x1(ds.x, cfg.x1_columns), mu_hat, Workspace())


@np.errstate(over="ignore")
def _pr_observed(u, out=None):
    """pr(R=1) = 1 / (1 + e^u) at the linear predictor u: expit(-u) to within
    2 ulp, in a form several times faster than scipy's expit; written into
    the array ``out`` if given."""
    if out is None:
        return 1.0 / (1.0 + np.exp(u))
    np.exp(u, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _predictor(theta, zt):
    """The linear predictor u = theta'z (b, n) for theta (b, p) and zt
    (b, p, n), the transposed z."""
    return (theta[..., None, :] @ zt)[..., 0, :]


def _loglik_u(u, rc, t1, t2):
    """l_n (b,) at the linear predictor u (b, n), with rc = 1 - r and the
    scratch arrays t1 and t2 shaped like u."""
    # log pi = -log(1 + e^u), log(1 - pi) = u - log(1 + e^u); log(1 + e^u) in
    # the form of np.logaddexp(0, u), which is several times slower
    log1pe = np.abs(u, out=t1)
    np.negative(log1pe, out=log1pe)
    np.exp(log1pe, out=log1pe)
    np.log1p(log1pe, out=log1pe)
    log1pe += np.maximum(u, 0.0, out=t2)
    terms = np.multiply(rc, u, out=t2)
    terms -= log1pe
    return np.sum(terms, axis=-1)


def _score_u(r, zt, u, pi, t):
    """Score sum (r_i - pi_i) z_i (b, p) at the linear predictor u; pi(u) is
    written into ``pi``, and t is a scratch array shaped like u."""
    _pr_observed(u, out=pi)
    return (zt @ np.subtract(r, pi, out=t)[..., None])[..., 0]


def _hessian(zt, pi, t, zw):
    """The hessian -sum pi(1-pi) z z' (b, p, p) at the pi of _score_u, with
    the scratch arrays t, shaped like pi, and zw, shaped like zt."""
    w = np.subtract(1.0, pi, out=t)
    w *= pi
    return -(np.multiply(zt, w[..., None, :], out=zw) @ zt.swapaxes(-1, -2))


def log_conditional_likelihood_z(r, z, theta) -> float:
    """l_n(theta, xi_hat) = sum r log(pi) + (1-r) log(1-pi), stabilized, for
    z (n, p) as from _z_matrix."""
    u = _predictor(np.asarray(theta, float)[None], z.T[None])
    return float(_loglik_u(u, 1 - np.asarray(r)[None], np.empty_like(u), np.empty_like(u))[0])


def score_and_hessian_z(r, z, theta):
    """Estimating-function convention: score = sum (r_i - pi_i) z_i, which is
    the NEGATIVE gradient of l_n under this model's sign convention; the
    returned hessian -sum pi(1-pi) z z' is the hessian of l_n."""
    zt = z.T[None]
    u = _predictor(np.asarray(theta, float)[None], zt)
    pi, t = np.empty_like(u), np.empty_like(u)
    score = _score_u(np.asarray(r)[None], zt, u, pi, t)
    return score[0], _hessian(zt, pi, t, np.empty(zt.shape))[0]


@np.errstate(all="ignore")
def newton_batch(z: np.ndarray, r: np.ndarray, errs: ReplicateErrors, workspace: Workspace):
    """Newton iterations with step halving from the intercept-only optimum,
    for b fits at once: z (b, n, p), r (b, n) float.  Each replicate follows
    the rules of a single fit on its own and stops when its score is below
    SCORE_TOL, when no halved step improves it, or when it fails.  Returns
    theta (b, p), the log-likelihood (b,), the iteration count (b,) and the
    final max |score| (b,).  The (b, n) scratch arrays come from the
    ``rows`` slot of ``workspace`` and the two (b, p, n) ones from its
    ``arena``."""
    b, n, p = z.shape
    zt = np.ascontiguousarray(z.swapaxes(1, 2))
    n1 = r.sum(axis=1)
    errs.record(
        np.flatnonzero((n1 == 0) | (n1 == n)),
        lambda j: DegenerateDataError("all missingness indicators are equal"),
    )
    # exact MLE of the intercept-only model: pi = n1/n
    theta = np.zeros((b, p))
    theta[:, 0] = np.where(errs.ok, np.log((n - n1) / n1), 0.0)
    rc = 1 - r
    t1, t2 = workspace.arrays("rows", (b, n), (b, n))
    zw, zbuf = workspace.arrays("arena", zt.shape, zt.shape)
    u = _predictor(theta, zt)  # theta'z, updated with every accepted step
    ll = _loglik_u(u, rc, t1, t2)
    iterations = np.zeros(b, dtype=np.int64)
    active = errs.ok.copy()
    # zt, r and 1 - r at the replicates ``held``: all of them until one stops,
    # and then gathered from zt into one buffer
    held, zh, rh, rch = np.arange(b), zt, r, rc

    def hold(rows):
        nonlocal held, zh, rh, rch
        if rows.size < held.size:
            zh = np.take(zt, rows, axis=0, out=zbuf[: rows.size], mode="clip")
            held, rh, rch = rows, r[rows], rc[rows]

    for it in range(1, MAX_ITER + 1):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        iterations[rows] = it
        hold(rows)
        a = rows.size
        score = _score_u(rh, zh, u[rows] if a < b else u, t1[:a], t2[:a])
        hessian = _hessian(zh, t1[:a], t2[:a], zw[:a])
        gnorm = np.max(np.abs(score), axis=1)
        moving = ~(gnorm < SCORE_TOL)
        active[rows[~moving]] = False
        rows, score, hessian, gnorm = rows[moving], score[moving], hessian[moving], gnorm[moving]
        delta, singular = linalg_each(
            np.linalg.solve, score.shape + (1,), hessian, score[..., None]
        )
        singular = {rows[k]: exc for k, exc in singular.items()}
        errs.record(
            list(singular),
            lambda j: SingularDesignError(f"singular hessian in propensity fit: {singular[j]}"),
        )
        active[list(singular)] = False
        keep = errs.ok[rows]
        rows, delta, gnorm = rows[keep], delta[keep, :, 0], gnorm[keep]
        hold(rows)
        a = rows.size
        base, ll0 = theta[rows], ll[rows]
        pending = np.ones(a, dtype=bool)
        for h in range(MAX_HALVINGS):
            k = np.flatnonzero(pending)
            if k.size == 0:
                break
            # the predictor of every held replicate: a product over the
            # rows the line search holds, with no gather of the pending ones
            cand = base + 0.5**h * delta
            uk = _predictor(cand, zh)
            if k.size < a:
                cand, uk = cand[k], uk[k]
            ll_new = _loglik_u(uk, rch[k] if k.size < a else rch, t1[: k.size], t2[: k.size])
            up = ll_new > ll0[k]
            if h == 0:
                # near the optimum the likelihood gain drops below float
                # precision before the score does; accept the full Newton
                # step whenever it still shrinks the score
                near = np.flatnonzero(~up & (ll_new >= ll0[k] - 1e-9 * (1.0 + np.abs(ll0[k]))))
                if near.size:
                    m = near.size
                    s_new = _score_u(rh[near], zh[near], uk[near], t1[:m], t2[:m])
                    up[near] = np.max(np.abs(s_new), axis=1) < 0.5 * gnorm[near]
            won = k[up]
            theta[rows[won]] = cand[up]
            ll[rows[won]] = ll_new[up]
            u[rows[won]] = uk[up]
            pending[won] = False
        active[rows[pending]] = False  # no further progress possible at float precision
        moved = rows[~pending]
        separated = moved[np.max(np.abs(theta[moved]), axis=1) > SEPARATION_BOUND]
        errs.record(
            separated,
            lambda j: SeparationError(
                "complete separation suspected: |theta| exceeded "
                f"{SEPARATION_BOUND} with the likelihood still increasing"
            ),
        )
        active[separated] = False
    gnorm = np.max(np.abs(_score_u(r, zt, u, t1, t2)), axis=1)
    return theta, ll, iterations, gnorm


def fit_propensity(ds: Dataset, mu_hat: np.ndarray, cfg: ModelConfig) -> PropensityFit:
    """Newton iterations with step halving from the intercept-only optimum:
    newton_batch with b = 1."""
    errs, workspace = ReplicateErrors(1), Workspace()
    z = z_stack(select_x1(ds.x, cfg.x1_columns)[None], mu_hat[None], workspace)
    theta, ll, iterations, gnorm = newton_batch(z, ds.r[None].astype(float), errs, workspace)
    errs.raise_first()
    return PropensityFit(
        theta_hat=theta[0],
        loglik=float(ll[0]),
        iterations=int(iterations[0]),
        converged=bool(gnorm[0] < SCORE_TOL),
        gradient_norm=float(gnorm[0]),
    )


@np.errstate(all="ignore")
def alpha0_batch(alpha: np.ndarray, m1: np.ndarray, errs: ReplicateErrors) -> np.ndarray:
    """alpha0 = alpha - log M1(gamma) for b fits at once: undo the
    tilt-normalizer absorbed into the induced model's intercept."""
    errs.record(
        np.flatnonzero(~(m1 > 0)),
        lambda j: DegenerateDataError(f"M1(gamma) must be positive, got {m1[j]}"),
    )
    return alpha - np.log(m1)
