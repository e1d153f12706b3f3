"""Inverse-probability-weighting baselines: the just-identified IPW
estimating equations, the one-dimensional profile M(gamma) with its
multi-root scan, and the overidentified two-step GMM comparator.

These deliberately estimate a moment-generating function from the observed
outcomes, which is the unstable operation the main estimator avoids;
exponentials are computed raw here, and non-finite moment values are legal
outputs rather than errors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._workspace import Workspace
from .data import BasisTerm, Dataset, ModelConfig, select_x1
from .errors import NonConvergenceError, UsageError, linalg_each

MOMENT_TOL = 1e-8
BISECT_TOL = 1e-10
GAMMA_LATTICE = (-2.0, -1.0, 0.0, 1.0, 2.0)
#: the line-search steps tried after a rejected full step: 1/2, ..., 2^-29
HALVINGS = 0.5 ** np.arange(1, 30)
GN_MAX_ITER = 200


@dataclass(frozen=True)
class GammaProfile:
    grid: np.ndarray
    values: np.ndarray
    roots: tuple[float, ...]
    alpha_beta_fixed: np.ndarray


@dataclass(frozen=True)
class IpwFit:
    theta_hat: np.ndarray  # (alpha0, beta..., gamma)
    converged: bool
    tau_ipw: float
    weights_max: float
    moment_norm: float
    candidates: tuple = field(default=(), compare=False)

    @property
    def gamma_hat(self) -> float:
        return float(self.theta_hat[-1])


class _MomentWorkspace:
    """Precomputed observed-row pieces: the r=0 rows contribute the constant
    -sum_miss g_j(x), so only observed-row exponentials vary with theta.
    ``VT`` holds the observed rows' v = (1, x1, y) as columns.

    The exponentials and their v-products are written into the buffers of
    one ``Workspace``, which keeps glibc from trimming and regrowing the top
    of the heap on every iteration.  Callers use a returned weight array
    before the next call."""

    def __init__(self, ds: Dataset, basis_g: list[BasisTerm], cfg: ModelConfig):
        G = np.column_stack([t.evaluate(ds.x) for t in basis_g])
        obs = ds.r == 1
        self.n = ds.n
        self.obs = obs
        self.G_obs = G[obs]
        self.G_miss = G[~obs]
        self.miss_sum = self.G_miss.sum(axis=0)
        self.VT = np.vstack(
            [np.ones(int(obs.sum())), select_x1(ds.x, cfg.x1_columns)[obs].T, ds.y[obs]]
        )
        self.workspace = Workspace()

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        """e^{theta' v} at the observed rows, for theta (p,) or (k, p)."""
        (out,) = self.workspace.arrays("E", theta.shape[:-1] + self.VT.shape[1:])
        return np.exp(np.matmul(theta, self.VT, out=out), out=out)

    def moments(self, theta: np.ndarray) -> np.ndarray:
        """m(theta) = n^-1 sum {r e^{a0 + x1'b + g y} + r - 1} g_j(x) for one
        theta (p,) or a stack of them (k, p); raw exponentials, so
        non-finite entries are legal outputs (the instability is the point)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self._weights(theta) @ self.G_obs - self.miss_sum) / self.n

    def moments_and_jacobians(self, thetas: np.ndarray):
        """m (k, L) and the transposed Jacobians dm/dtheta (k, p, L) at
        k thetas (k, p) from one product: v's first entry is 1, so the sums
        sum_obs e_i v_ij g_l(x_i) at j = 0 are the moment sums.  Callers
        silence the overflow warnings, as _gauss_newton does."""
        k, p = thetas.shape
        (EV,) = self.workspace.arrays("EV", (k,) + self.VT.shape)
        np.multiply(self._weights(thetas)[:, None, :], self.VT, out=EV)
        S = (EV.reshape(k * p, -1) @ self.G_obs).reshape(k, p, -1)
        return (S[:, 0] - self.miss_sum) / self.n, S / self.n

    def per_row(self, theta: np.ndarray) -> np.ndarray:
        """Row-wise moment contributions (for the GMM moment covariance)."""
        U = np.empty((self.n, self.G_obs.shape[1]))
        U[~self.obs] = -self.G_miss
        with np.errstate(over="ignore", invalid="ignore"):
            U[self.obs] = self.G_obs * self._weights(theta)[:, None]
        return U


def profile_gamma(
    ds: Dataset,
    alpha0: float,
    beta: np.ndarray,
    grid_spec: tuple[float, float, float],
    cfg: ModelConfig,
) -> GammaProfile:
    """Evaluate M(gamma) = n^-1 sum r {e^{a0 + x1'b + g y} + 1} - 1, the
    intercept-only IPW moment at (a0, b, g), on a grid, bracket every sign
    change, and refine each bracket by bisection."""
    lo, hi, step = grid_spec
    if not lo < hi or step <= 0:
        raise UsageError(f"bad grid ({lo}, {hi}, {step}): need lo < hi, step > 0")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (len(cfg.x1_columns),):
        raise UsageError(
            f"beta has {beta.size} values for {len(cfg.x1_columns)} x1 columns"
        )
    alpha_beta = np.concatenate([[alpha0], beta])
    ws = _MomentWorkspace(ds, [BasisTerm((0,) * ds.d)], cfg)

    def m_of(g: float) -> float:
        return float(ws.moments(np.append(alpha_beta, g))[0])

    grid = np.arange(lo, hi + step / 2, step)
    values = np.array([m_of(g) for g in grid])
    if not np.isfinite(values).any():
        raise NonConvergenceError("M(gamma) is non-finite over the entire grid")
    roots = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if not (np.isfinite(v0) and np.isfinite(v1)):
            continue
        if v0 == 0.0:
            roots.append(float(grid[i]))
            continue
        if v0 * v1 < 0:
            a_, b_ = float(grid[i]), float(grid[i + 1])
            fa = v0
            for _ in range(200):
                mid = (a_ + b_) / 2
                fm = m_of(mid)
                if abs(fm) < BISECT_TOL:
                    a_ = b_ = mid
                    break
                if fa * fm < 0:
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append((a_ + b_) / 2)
    if len(values) and values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return GammaProfile(
        grid=grid,
        values=values,
        roots=tuple(roots),
        alpha_beta_fixed=alpha_beta,
    )


def _horvitz_thompson(ws: _MomentWorkspace, theta: np.ndarray) -> tuple[float, float]:
    """(tau, largest weight) from the observed rows' weights 1 / pi(x, y; theta);
    missing rows carry weight 0.  Overflowing weights give a non-finite tau."""
    with np.errstate(over="ignore", invalid="ignore"):
        inv_pi = 1.0 + ws._weights(theta)
        tau = float(np.sum(inv_pi * ws.VT[-1]) / ws.n)
    wmax = float(inv_pi.max()) if inv_pi.size else np.nan
    return tau, wmax


def _moment_norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.isfinite(m).all() else np.inf


def default_ipw_start(ds: Dataset, cfg: ModelConfig) -> np.ndarray:
    n1 = ds.n_observed
    start = np.zeros(cfg.p)
    start[0] = np.log(max(ds.n - n1, 1) / max(n1, 1))
    return start


def _objective(m: np.ndarray, W: np.ndarray) -> np.ndarray:
    """m' W m over the last axis of m, for stacks of m and W that broadcast."""
    return (m[..., None, :] @ W @ m[..., :, None])[..., 0, 0]


@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(ws: _MomentWorkspace, theta0: np.ndarray, W: np.ndarray):
    """Damped Gauss-Newton on the weighted moment objective m' W m with the
    analytic moment Jacobian, for a stack of starts theta0 (k, p) on one
    dataset.  Each start runs on its own until one of these holds:

    - its moments or objective are non-finite at the start, or its Jacobian
      is non-finite or its Gauss-Newton system singular (ok = False);
    - max |gradient| < 1e-8 (1 + obj) (converged);
    - no step of 1, 1/2, ..., 2^-29 reaches finite moments with a finite,
      lower objective (converged if max |gradient| < 1e-6 (1 + obj));
    - GN_MAX_ITER iterations have run (not converged).

    The state of the running starts is kept in compact arrays, so a start
    that has stopped costs nothing.  Returns (theta, obj, converged, ok),
    one entry per start."""
    th = np.array(theta0, dtype=float)
    m, JT = ws.moments_and_jacobians(th)
    obj = _objective(m, W)
    ok = np.isfinite(m).all(axis=-1) & np.isfinite(obj)
    theta_out, obj_out = th.copy(), np.where(ok, obj, np.inf)
    converged = np.zeros(len(th), dtype=bool)
    run = np.flatnonzero(ok)  # the running starts
    th, m, obj, JT = th[run], m[run], obj[run], JT[run]

    def stop(done, conv, fine):
        """Write out the starts flagged in ``done`` and drop them."""
        nonlocal run, th, m, obj, JT, gmax, delta
        i = run[done]
        theta_out[i], obj_out[i], converged[i], ok[i] = th[done], obj[done], conv, fine
        keep = ~done
        run, th, m, obj, JT = run[keep], th[keep], m[keep], obj[keep], JT[keep]
        gmax, delta = gmax[keep], delta[keep]

    for _ in range(GN_MAX_ITER):
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
        mc, JTc = ws.moments_and_jacobians(cand)
        oc = _objective(mc, W)
        take = np.isfinite(mc).all(axis=-1) & np.isfinite(oc) & (oc < obj)
        th[take], m[take], obj[take], JT[take] = cand[take], mc[take], oc[take], JTc[take]
        if take.all():
            continue
        stalled = ~take
        for j in np.flatnonzero(stalled):
            cands = th[j] + HALVINGS[:, None] * delta[j, :, 0]
            mh = ws.moments(cands)
            oh = _objective(mh, W)
            good = np.flatnonzero(np.isfinite(mh).all(axis=-1) & np.isfinite(oh) & (oh < obj[j]))
            if good.size:
                i = good[0]
                th[j], m[j], obj[j] = cands[i], mh[i], oh[i]
                JT[j] = ws.moments_and_jacobians(cands[i : i + 1])[1][0]
                stalled[j] = False
        if stalled.any():
            stop(stalled, gmax[stalled] < 1e-6 * (1.0 + obj[stalled]), True)
    theta_out[run], obj_out[run] = th, obj
    return theta_out, obj_out, converged, ok


def _lattice_starts(ds: Dataset, cfg: ModelConfig) -> np.ndarray:
    """(5, p): the default start with gamma shifted by each offset in
    GAMMA_LATTICE."""
    theta0 = np.repeat(default_ipw_start(ds, cfg)[None], len(GAMMA_LATTICE), axis=0)
    theta0[:, -1] += GAMMA_LATTICE
    return theta0


def solve_ipw(ds: Dataset, cfg: ModelConfig, basis_g: list[BasisTerm]) -> IpwFit:
    """Just-identified IPW solve: Gauss-Newton on m'm from a 5-point gamma
    multistart, all starts in one stack; the root with the smallest moment
    norm wins, and every located candidate is kept on the fit report (the
    multiple-root hazard is a first-class output)."""
    if len(basis_g) != cfg.p:
        raise UsageError(
            f"just-identified IPW needs {cfg.p} basis functions, got {len(basis_g)}"
        )
    ws = _MomentWorkspace(ds, basis_g, cfg)
    thetas, _, _, oks = _gauss_newton(ws, _lattice_starts(ds, cfg), np.eye(cfg.p))
    if not oks.any():
        raise NonConvergenceError(
            "IPW moments non-finite, or their Jacobian non-finite or singular, at every start"
        )
    candidates = []
    for theta in thetas:
        norm = _moment_norm(ws.moments(theta))
        candidates.append((theta, norm, norm < MOMENT_TOL))
    theta, norm, converged = min(candidates, key=lambda c: c[1])
    tau, wmax = _horvitz_thompson(ws, theta)
    return IpwFit(
        theta_hat=theta,
        converged=bool(converged),
        tau_ipw=tau,
        weights_max=wmax,
        moment_norm=norm,
        candidates=tuple(candidates),
    )


def monomial_basis(d: int, degree: int) -> list[BasisTerm]:
    """All monomials over d covariates with total degree <= degree."""
    terms = []
    for exps in itertools.product(range(degree + 1), repeat=d):
        if sum(exps) <= degree:
            terms.append(BasisTerm(exps))
    terms.sort(key=lambda t: (t.total_degree, t.exponents))
    return terms


def solve_gmm(ds: Dataset, cfg: ModelConfig, degree_k: int) -> IpwFit:
    """Two-step GMM over the monomial basis of total degree <= k: identity
    weight first, then the ridge-regularized inverse moment covariance, each
    step from the 5-point gamma multistart in one stack.  Non-convergence is
    recorded on the fit, not raised, so simulation harnesses can count it.
    The one candidate is the step-1 point with its own (identity-weight)
    objective."""
    basis_g = monomial_basis(ds.d, degree_k)
    if len(basis_g) < cfg.p:
        raise UsageError(
            f"degree-{degree_k} basis has {len(basis_g)} functions, "
            f"fewer than dim(theta) = {cfg.p}"
        )
    ws = _MomentWorkspace(ds, basis_g, cfg)
    theta0 = _lattice_starts(ds, cfg)
    W1 = np.eye(len(basis_g))
    thetas, objs, convs, _ = _gauss_newton(ws, theta0, W1)
    k = objs.argmin()
    theta1, obj1, conv1 = thetas[k], float(objs[k]), bool(convs[k])

    # empirical moment covariance at the step-1 point, ridge-regularized
    U = ws.per_row(theta1)
    if not np.isfinite(U).all():
        omega = W1
    else:
        U -= U.mean(axis=0)
        omega = U.T @ U / ds.n
    ridge = 1e-8 * max(np.trace(omega), 1e-300)
    try:
        W2 = np.linalg.inv(omega + ridge * W1)
    except np.linalg.LinAlgError:
        W2 = W1
    thetas, objs, convs, _ = _gauss_newton(ws, theta0, W2)
    k = objs.argmin()
    tau, wmax = _horvitz_thompson(ws, thetas[k])
    return IpwFit(
        theta_hat=thetas[k],
        converged=bool(conv1 and convs[k]),
        tau_ipw=tau,
        weights_max=wmax,
        moment_norm=_moment_norm(ws.moments(thetas[k])),
        candidates=((theta1, obj1, conv1),),
    )
