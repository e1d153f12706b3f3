"""Inverse-probability-weighting baselines: the just-identified IPW
estimating equations, the one-dimensional profile M(gamma) with its
multi-root scan, and the overidentified two-step GMM comparator.

These deliberately estimate a moment-generating function from the observed
outcomes, which is the unstable operation the main estimator avoids;
exponentials are computed raw here (floored only at e^EXP_FLOOR), and
non-finite moment values are legal outputs rather than errors."""

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
#: the line-search steps after a rejected full step, 1/2, ..., 2^-29, in the
#: two tiers that ``_gauss_newton`` tries in turn: 2^-1 to 2^-8, then the rest
HALVING_TIERS = np.split(0.5 ** np.arange(1, 30), [8])
#: the smallest exponent the weights take: numpy's exp is 15 to 130 times
#: slower on an entry whose result is below about e^-707, and a weight of
#: e^-700 ~ 1e-304 is lost in every moment sum, which holds the missing
#: rows' -sum g(x)
EXP_FLOOR = -700.0
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
    ``VT`` holds the observed rows' v = (1, x1, y) as columns, and ``VG``
    their products v_ij g_l(x_i) as one (n_obs, p L) array, column j L + l;
    since v_i0 = 1, its first L columns are ``G_obs``.  So the moment sums
    and the Jacobian sums at weights E are E @ G_obs and E @ VG.

    The exponentials are written into the buffers of one ``Workspace``,
    which keeps glibc from trimming and regrowing the top of the heap on
    every iteration.  Callers use a returned weight array before the next
    call."""

    def __init__(self, ds: Dataset, basis_g: list[BasisTerm], cfg: ModelConfig):
        G = np.column_stack([t.evaluate(ds.x) for t in basis_g])
        obs = ds.r == 1
        self.n = ds.n
        self.obs = obs
        self.G_miss = G[~obs]
        self.miss_sum = self.G_miss.sum(axis=0)
        self.VT = np.vstack(
            [np.ones(int(obs.sum())), select_x1(ds.x, cfg.x1_columns)[obs].T, ds.y[obs]]
        )
        GT = np.ascontiguousarray(G[obs].T)
        # VG is the transpose of a row-major (p L, n_obs) array: built so, it
        # takes a quarter of the time, and E @ VG runs along rows of both
        self.VG = (self.VT[:, None, :] * GT).reshape(-1, GT.shape[1]).T
        self.G_obs = self.VG[:, : len(GT)]
        self.workspace = Workspace()

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        """e^{max(theta' v, EXP_FLOOR)} at the observed rows, for theta (p,)
        or (k, p)."""
        (out,) = self.workspace.arrays("E", theta.shape[:-1] + self.VT.shape[1:])
        np.matmul(theta, self.VT, out=out)
        return np.exp(np.maximum(out, EXP_FLOOR, out=out), out=out)

    def weights_and_moments(self, theta: np.ndarray):
        """The weights E = e^{theta' v} and m(theta) for one theta (p,) or a
        stack (k, p), from one exponential per observed row and theta.
        Callers silence the overflow warnings, as _gauss_newton does."""
        E = self._weights(theta)
        return E, (E @ self.G_obs - self.miss_sum) / self.n

    def moments(self, theta: np.ndarray) -> np.ndarray:
        """m(theta) = n^-1 sum {r e^{a0 + x1'b + g y} + r - 1} g_j(x) for one
        theta (p,) or a stack of them (k, p); raw exponentials, so
        non-finite entries are legal outputs (the instability is the point)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.weights_and_moments(theta)[1]

    def jacobians(self, E: np.ndarray, rows=None) -> np.ndarray:
        """The transposed Jacobians dm/dtheta (k, p, L) at the thetas whose
        weights are the given rows of the stack E, or all k rows of E."""
        if rows is not None:
            (Er,) = self.workspace.arrays("E_rows", (len(rows), E.shape[1]))
            E = E.take(rows, 0, Er)
        return (E @ self.VG).reshape(len(E), len(self.VT), self.G_obs.shape[1]) / self.n

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


def _acceptable(m: np.ndarray, obj: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Whether line-search points with moments m (k, L) and objectives obj
    (k,) may be taken: finite moments, and a finite objective below ``below``."""
    return np.isfinite(m).all(axis=-1) & np.isfinite(obj) & (obj < below)


def _first_acceptable(ws: _MomentWorkspace, W, th, delta, obj, steps):
    """The line search of ``_gauss_newton`` over one tier of ``steps``, for
    s starts at once: the candidates th + h delta of every start and step
    are one stack, exponentiated once.  Returns the mask of the starts with
    an acceptable step and, if there are any, at each of them the first such
    step's theta, moments, objective and Jacobian (else an empty tuple)."""
    s, q = len(th), len(steps)
    cands = (th[:, None, :] + steps[:, None] * delta[:, None, :]).reshape(s * q, -1)
    E, mc = ws.weights_and_moments(cands)
    oc = _objective(mc, W)
    good = _acceptable(mc, oc, np.repeat(obj, q)).reshape(s, q)
    found = good.any(axis=1)
    if not found.any():
        return found, ()
    rows = np.flatnonzero(found) * q + good.argmax(axis=1)[found]
    return found, (cands[rows], mc[rows], oc[rows], ws.jacobians(E, rows))


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

    The first acceptable step in that order is taken.  The full steps of all
    running starts are one stack; the starts that reject theirs try the
    tiers of HALVING_TIERS in turn, each tier of all of them as one stack,
    and a start goes on to the next tier only if no step of this one is
    acceptable.  Each candidate is exponentiated once, and the Jacobian is
    formed only at the steps taken, from their weights.  The state of the
    running starts is kept in compact arrays, so a start that has stopped
    costs nothing.  Returns (theta, obj, converged, ok), one entry per
    start."""
    th = np.array(theta0, dtype=float)
    E, m = ws.weights_and_moments(th)
    obj = _objective(m, W)
    ok = np.isfinite(m).all(axis=-1) & np.isfinite(obj)
    theta_out, obj_out = th.copy(), np.where(ok, obj, np.inf)
    converged = np.zeros(len(th), dtype=bool)
    run = np.flatnonzero(ok)  # the running starts
    th, m, obj, JT = th[run], m[run], obj[run], ws.jacobians(E, run)

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
        E, mc = ws.weights_and_moments(cand)
        oc = _objective(mc, W)
        take = _acceptable(mc, oc, obj)
        if take.all():
            th, m, obj, JT = cand, mc, oc, ws.jacobians(E)
            continue
        i = np.flatnonzero(take)
        if i.size:
            th[i], m[i], obj[i], JT[i] = cand[i], mc[i], oc[i], ws.jacobians(E, i)
        stalled = np.flatnonzero(~take)
        for steps in HALVING_TIERS:
            found, taken = _first_acceptable(
                ws, W, th[stalled], delta[stalled, :, 0], obj[stalled], steps
            )
            if taken:
                i = stalled[found]
                th[i], m[i], obj[i], JT[i] = taken
                stalled = stalled[~found]
                if not stalled.size:
                    break
        if stalled.size:
            stalled = np.isin(np.arange(run.size), stalled)
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
