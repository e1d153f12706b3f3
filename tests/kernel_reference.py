"""Reference forms of the three replicate kernels, as they were before each
step was made to do its arithmetic once: Newton with two linear-predictor
products per iteration and a gather of the design every iteration, least
squares through a Q-forming QR, and the sandwich pieces from row-major score
rows.  The tests hold the kernels in ``mnarmean`` to these."""

import numpy as np

from mnarmean.errors import (
    DegenerateDataError,
    ReplicateErrors,
    SeparationError,
    SingularDesignError,
    linalg_each,
)
from mnarmean.inference import SandwichPieces
from mnarmean.mean_response import check_mgf_range
from mnarmean.outcome import RANK_TOL
from mnarmean.propensity import MAX_HALVINGS, MAX_ITER, SCORE_TOL, SEPARATION_BOUND


@np.errstate(over="ignore")
def _pr_observed(u):
    return 1.0 / (1.0 + np.exp(u))


def _loglik(r, zt, theta):
    u = (theta[..., None, :] @ zt)[..., 0, :]
    log1pe = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    return np.sum((1 - r) * u - log1pe, axis=-1)


def _score_hessian(r, zt, theta, hessian=True):
    pi = _pr_observed((theta[..., None, :] @ zt)[..., 0, :])
    score = (zt @ (r - pi)[..., None])[..., 0]
    if not hessian:
        return score
    zw = zt * (pi * (1.0 - pi))[..., None, :]
    return score, -(zw @ zt.swapaxes(-1, -2))


@np.errstate(all="ignore")
def newton_batch(z: np.ndarray, r: np.ndarray, errs: ReplicateErrors):
    b, n, p = z.shape
    zt = np.ascontiguousarray(z.swapaxes(1, 2))
    n1 = r.sum(axis=1)
    errs.record(
        np.flatnonzero((n1 == 0) | (n1 == n)),
        lambda j: DegenerateDataError("all missingness indicators are equal"),
    )
    theta = np.zeros((b, p))
    theta[:, 0] = np.where(errs.ok, np.log((n - n1) / n1), 0.0)
    ll = _loglik(r, zt, theta)
    iterations = np.zeros(b, dtype=np.int64)
    active = errs.ok.copy()
    for it in range(1, MAX_ITER + 1):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        iterations[rows] = it
        score, hessian = _score_hessian(r[rows], zt[rows], theta[rows])
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
        zr, rr, base, ll0 = zt[rows], r[rows], theta[rows], ll[rows]
        pending = np.ones(rows.size, dtype=bool)
        for h in range(MAX_HALVINGS):
            k = np.flatnonzero(pending)
            if k.size == 0:
                break
            cand = base[k] + 0.5**h * delta[k]
            ll_new = _loglik(rr[k], zr[k], cand)
            up = ll_new > ll0[k]
            if h == 0:
                near = np.flatnonzero(~up & (ll_new >= ll0[k] - 1e-9 * (1.0 + np.abs(ll0[k]))))
                if near.size:
                    s_new = _score_hessian(rr[k[near]], zr[k[near]], cand[near], hessian=False)
                    up[near] = np.max(np.abs(s_new), axis=1) < 0.5 * gnorm[k[near]]
            won = k[up]
            theta[rows[won]] = cand[up]
            ll[rows[won]] = ll_new[up]
            pending[won] = False
        active[rows[pending]] = False
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
    gnorm = np.max(np.abs(_score_hessian(r, zt, theta, hessian=False)), axis=1)
    return theta, ll, iterations, gnorm


@np.errstate(all="ignore")
def least_squares_batch(M, r, y, errs: ReplicateErrors):
    b, n, q = M.shape
    obs = r == 1
    n1 = obs.sum(axis=1)
    errs.record(
        np.flatnonzero(n1 < q),
        lambda j: DegenerateDataError(
            f"only {n1[j]} complete cases for {q} mean parameters"
        ),
    )
    Q, R = np.linalg.qr(M * obs[..., None])
    lead = np.abs(np.diagonal(R, axis1=1, axis2=2))
    dependent = ~(lead > RANK_TOL * np.linalg.norm(R[..., : lead.shape[1]], axis=1))
    errs.record(
        np.flatnonzero(dependent.any(axis=1)),
        lambda j: SingularDesignError(
            f"rank-deficient design: columns {np.flatnonzero(dependent[j]).tolist()} "
            "are linearly dependent on the columns before them"
        ),
    )
    ok = errs.ok
    qty = (np.where(obs, y, 0.0)[:, None, :] @ Q)[:, 0]
    xi = np.zeros((b, q))
    if ok.any():
        xi[ok] = np.linalg.solve(R[ok], qty[ok][..., None])[..., 0]
    mu = (M @ xi[..., None])[..., 0]
    eps = np.where(obs, y - mu, 0.0)
    sigma2 = np.einsum("bn,bn->b", eps, eps) / n1
    return xi, mu, eps, sigma2


def _A_matrices(M, r, z, pi):
    n = M.shape[-2]
    zw = z * (pi * (1.0 - pi))[..., None]
    zwt = zw.swapaxes(-1, -2)
    return (
        (M * r[..., None]).swapaxes(-1, -2) @ M / n,
        zwt @ z / n,
        zwt @ M / n,
        M.mean(axis=-2),
    )


def score_rows(M, mu_hat, r, z, pi, eps, e, B):
    """Row-major score rows S (..., n, q + p + 4)."""
    B1, B2, _ = B
    q, p = M.shape[-1], z.shape[-1]
    S = np.empty(M.shape[:-1] + (q + p + 4,))
    S[..., 0] = r - r.mean(axis=-1, keepdims=True)
    S[..., 1 : 1 + q] = M * (r * eps)[..., None]
    S[..., 1 + q : 1 + q + p] = z * (r - pi)[..., None]
    S[..., -3] = mu_hat - mu_hat.mean(axis=-1, keepdims=True)
    S[..., -2] = e - np.expand_dims(B1, -1)
    S[..., -1] = eps * e - np.expand_dims(B2, -1)
    return S


@np.errstate(all="ignore")
def sandwich_batch(M, r, eps, mu_hat, z, theta, errs: ReplicateErrors) -> SandwichPieces:
    n = M.shape[1]
    pi = _pr_observed((z @ theta[..., None])[..., 0])
    s = theta[:, -1:] * eps
    check_mgf_range(s, errs, obs=r == 1)
    e = r * np.exp(s)
    del s
    A1, A2, A3, A4 = _A_matrices(M, r, z, pi)
    ee = eps * e
    B = (e.mean(axis=1), ee.mean(axis=1), (eps * ee).mean(axis=1))
    C1 = (e[:, None, :] @ M)[:, 0] / n
    C2 = (ee[:, None, :] @ M)[:, 0] / n
    S = score_rows(M, mu_hat, r, z, pi, eps, e, B)
    V = S.swapaxes(-1, -2) @ S / n
    return SandwichPieces(A1=A1, A2=A2, A3=A3, A4=A4, B=B, C1=C1, C2=C2, V=V)
