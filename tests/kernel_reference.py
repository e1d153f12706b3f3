"""Reference forms of the three replicate kernels and of the IPW/GMM solver,
as they were before each step was made to do its arithmetic once: Newton
with two linear-predictor products per iteration and a gather of the design
every iteration, least squares through a Q-forming QR, the sandwich pieces
from row-major score rows, and Gauss-Newton with the Jacobians of every
full step, all 29 halvings of a start that rejects it, and no floor on the
exponents.  The tests hold the kernels in ``mnarmean`` to these."""

import numpy as np

from mnarmean import ipw
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


def moments(ws: ipw._MomentWorkspace, thetas):
    """m (k, L) at k thetas (k, p) from the raw exponentials e^{theta' v}."""
    return (np.exp(thetas @ ws.VT) @ ws.G_obs - ws.miss_sum) / ws.n


def moments_and_jacobians(ws: ipw._MomentWorkspace, thetas):
    """m (k, L) and the transposed Jacobians dm/dtheta (k, p, L) at k thetas
    (k, p) from one product of the raw exponentials: v's first entry is 1,
    so the sums sum_obs e_i v_ij g_l(x_i) at j = 0 are the moment sums."""
    k, p = thetas.shape
    EV = np.exp(thetas @ ws.VT)[:, None, :] * ws.VT
    S = (EV.reshape(k * p, -1) @ ws.G_obs).reshape(k, p, -1)
    return (S[:, 0] - ws.miss_sum) / ws.n, S / ws.n


@np.errstate(over="ignore", invalid="ignore")
def gauss_newton(ws: ipw._MomentWorkspace, theta0, W):
    """``ipw._gauss_newton``'s stop rules and step order, with the moments
    and Jacobians of every full step, and the 29 halvings of each start
    that rejects its full step evaluated together, one start at a time, all
    from raw exponentials.  Reads ``ipw.GN_MAX_ITER`` when called."""
    halvings = 0.5 ** np.arange(1, 30)
    th = np.array(theta0, dtype=float)
    m, JT = moments_and_jacobians(ws, th)
    obj = ipw._objective(m, W)
    ok = np.isfinite(m).all(axis=-1) & np.isfinite(obj)
    theta_out, obj_out = th.copy(), np.where(ok, obj, np.inf)
    converged = np.zeros(len(th), dtype=bool)
    run = np.flatnonzero(ok)
    th, m, obj, JT = th[run], m[run], obj[run], JT[run]

    def stop(done, conv, fine):
        nonlocal run, th, m, obj, JT, gmax, delta
        i = run[done]
        theta_out[i], obj_out[i], converged[i], ok[i] = th[done], obj[done], conv, fine
        keep = ~done
        run, th, m, obj, JT = run[keep], th[keep], m[keep], obj[keep], JT[keep]
        gmax, delta = gmax[keep], delta[keep]

    for _ in range(ipw.GN_MAX_ITER):
        grad = 2.0 * (JT @ (W @ m[..., None]))
        gmax = np.abs(grad).max(axis=(1, 2))
        delta = -grad
        bad = ~np.isfinite(JT).all(axis=(1, 2))
        done = bad | (gmax < 1e-8 * (1.0 + obj))
        if done.any():
            stop(done, ~bad[done], ~bad[done])
        delta, singular = linalg_each(
            np.linalg.solve, delta.shape, 2.0 * (JT @ W @ JT.swapaxes(1, 2)), delta
        )
        if singular:
            stop(np.isin(np.arange(run.size), list(singular)), False, False)
        if not run.size:
            break
        cand = th + delta[..., 0]
        mc, JTc = moments_and_jacobians(ws, cand)
        oc = ipw._objective(mc, W)
        take = np.isfinite(mc).all(axis=-1) & np.isfinite(oc) & (oc < obj)
        th[take], m[take], obj[take], JT[take] = cand[take], mc[take], oc[take], JTc[take]
        if take.all():
            continue
        stalled = ~take
        for j in np.flatnonzero(stalled):
            cands = th[j] + halvings[:, None] * delta[j, :, 0]
            mh = moments(ws, cands)
            oh = ipw._objective(mh, W)
            good = np.flatnonzero(np.isfinite(mh).all(axis=-1) & np.isfinite(oh) & (oh < obj[j]))
            if good.size:
                i = good[0]
                th[j], m[j], obj[j] = cands[i], mh[i], oh[i]
                JT[j] = moments_and_jacobians(ws, cands[i : i + 1])[1][0]
                stalled[j] = False
        if stalled.any():
            stop(stalled, gmax[stalled] < 1e-6 * (1.0 + obj[stalled]), True)
    theta_out[run], obj_out[run] = th, obj
    return theta_out, obj_out, converged, ok
