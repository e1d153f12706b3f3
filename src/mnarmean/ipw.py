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

from .data import BasisTerm, Dataset, ModelConfig, select_x1
from .errors import NonConvergenceError, UsageError

MOMENT_TOL = 1e-8
BISECT_TOL = 1e-10
GAMMA_LATTICE = (-2.0, -1.0, 0.0, 1.0, 2.0)


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


def _g_matrix(ds: Dataset, basis_g: list[BasisTerm]) -> np.ndarray:
    return np.column_stack([t.evaluate(ds.x) for t in basis_g])


class _MomentWorkspace:
    """Precomputed observed-row pieces: the r=0 rows contribute the constant
    -sum_miss g_j(x), so only observed-row exponentials vary with theta."""

    def __init__(self, ds: Dataset, basis_g: list[BasisTerm], cfg: ModelConfig):
        G = _g_matrix(ds, basis_g)
        obs = ds.r == 1
        self.n = ds.n
        self.obs = obs
        self.G = G
        self.G_obs = G[obs]
        self.miss_sum = G[~obs].sum(axis=0)
        self.V_obs = np.column_stack(
            [np.ones(int(obs.sum())), select_x1(ds.x, cfg.x1_columns)[obs], ds.y[obs]]
        )

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        return np.exp(self.V_obs @ theta)

    def moments(self, theta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return (self._weights(theta) @ self.G_obs - self.miss_sum) / self.n

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            e = self._weights(theta)
            return self.G_obs.T @ (self.V_obs * e[:, None]) / self.n

    def per_row(self, theta: np.ndarray) -> np.ndarray:
        """Row-wise moment contributions (for the GMM moment covariance)."""
        U = -self.G.astype(float).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            U[self.obs] = self.G_obs * self._weights(theta)[:, None]
        return U


def ipw_moments(
    ds: Dataset, theta: np.ndarray, basis_g: list[BasisTerm], cfg: ModelConfig
) -> np.ndarray:
    """n^-1 sum {r e^{a0 + x1'b + g y} + r - 1} g_j(x); raw exponentials, so
    non-finite entries are legal outputs (the instability is the point)."""
    theta = np.asarray(theta, dtype=float)
    return _MomentWorkspace(ds, basis_g, cfg).moments(theta)


def profile_gamma(
    ds: Dataset,
    alpha0: float,
    beta: np.ndarray,
    grid_spec: tuple[float, float, float],
    cfg: ModelConfig,
) -> GammaProfile:
    """Evaluate M(gamma) = n^-1 sum r {e^{a0 + x1'b + g y} + 1} - 1 on a grid,
    bracket every sign change, and refine each bracket by bisection."""
    lo, hi, step = grid_spec
    if not lo < hi or step <= 0:
        raise UsageError(f"bad grid ({lo}, {hi}, {step}): need lo < hi, step > 0")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    obs = ds.r == 1
    a = alpha0 + select_x1(ds.x, cfg.x1_columns)[obs] @ beta
    y = ds.y[obs]
    n = ds.n

    def m_of(g: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(a + g * y) + 1.0) / n - 1.0)

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
        alpha_beta_fixed=np.concatenate([[alpha0], beta]),
    )


def _horvitz_thompson(
    ws: _MomentWorkspace, theta: np.ndarray, hajek: bool
) -> tuple[float, float]:
    """(tau, largest weight) from the observed rows' weights 1 / pi(x, y; theta);
    missing rows carry weight 0.  Overflowing weights give a non-finite tau."""
    with np.errstate(over="ignore", invalid="ignore"):
        inv_pi = 1.0 + ws._weights(theta)
        wy = inv_pi * ws.V_obs[:, -1]
        tau = float(np.sum(wy) / (np.sum(inv_pi) if hajek else ws.n))
    wmax = float(inv_pi.max()) if inv_pi.size else np.nan
    return tau, wmax


def _newton_root(ws: _MomentWorkspace, theta0, max_iter=100):
    """Damped Newton on the moment vector with a forward-difference Jacobian.
    Returns (theta, moment_inf_norm, ok) where ok=False flags a singular or
    non-finite Jacobian."""
    moments = ws.moments
    theta = np.asarray(theta0, dtype=float).copy()
    m = moments(theta)
    if not np.isfinite(m).all():
        return theta, np.inf, False
    ok = True
    for _ in range(max_iter):
        norm = np.max(np.abs(m))
        if norm < MOMENT_TOL:
            break
        J = np.empty((len(m), len(theta)))
        for j in range(len(theta)):
            h = 1e-6 * (1.0 + abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            J[:, j] = (moments(tp) - m) / h
        if not np.isfinite(J).all():
            ok = False
            break
        try:
            delta = np.linalg.solve(J, -m)
        except np.linalg.LinAlgError:
            ok = False
            break
        step = 1.0
        for _ in range(30):
            cand = theta + step * delta
            mc = moments(cand)
            with np.errstate(over="ignore"):  # the norm of huge finite moments is inf
                improved = np.isfinite(mc).all() and np.linalg.norm(mc) < np.linalg.norm(m)
            if improved:
                theta, m = cand, mc
                break
            step *= 0.5
        if not improved:
            break
    return theta, float(np.max(np.abs(m))), ok


def default_ipw_start(ds: Dataset, cfg: ModelConfig) -> np.ndarray:
    n1 = ds.n_observed
    start = np.zeros(cfg.p)
    start[0] = np.log(max(ds.n - n1, 1) / max(n1, 1))
    return start


def solve_ipw(
    ds: Dataset,
    cfg: ModelConfig,
    basis_g: list[BasisTerm],
    start: np.ndarray | None = None,
    hajek: bool = False,
) -> IpwFit:
    """Just-identified IPW solve with a 5-point gamma multistart; the root
    with the smallest moment norm wins, and every located candidate is kept
    on the fit report (the multiple-root hazard is a first-class output)."""
    if len(basis_g) != cfg.p:
        raise UsageError(
            f"just-identified IPW needs {cfg.p} basis functions, got {len(basis_g)}"
        )
    if start is None:
        start = default_ipw_start(ds, cfg)
    start = np.asarray(start, dtype=float)
    ws = _MomentWorkspace(ds, basis_g, cfg)
    candidates = []
    any_ok = False
    for dg in GAMMA_LATTICE:
        theta0 = start.copy()
        theta0[-1] += dg
        theta, norm, ok = _newton_root(ws, theta0)
        any_ok = any_ok or ok
        candidates.append((theta, norm, norm < MOMENT_TOL))
    if not any_ok:
        raise NonConvergenceError("moment Jacobian singular at every start")
    theta, norm, converged = min(candidates, key=lambda c: c[1])
    tau, wmax = _horvitz_thompson(ws, theta, hajek)
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


def _gmm_minimize(ws: _MomentWorkspace, theta0, W, max_iter=200):
    """Damped Gauss-Newton on the weighted moment objective m' W m."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _gmm_minimize_impl(ws, theta0, W, max_iter)


def _gmm_minimize_impl(ws: _MomentWorkspace, theta0, W, max_iter):
    moments = ws.moments
    theta = np.asarray(theta0, dtype=float).copy()
    m = moments(theta)
    if not np.isfinite(m).all():
        return theta, np.inf, False
    obj = float(m @ W @ m)
    converged = False
    for _ in range(max_iter):
        J = ws.jacobian(theta)
        if not np.isfinite(J).all():
            break
        grad = 2.0 * J.T @ W @ m
        if np.max(np.abs(grad)) < 1e-8 * (1.0 + obj):
            converged = True
            break
        H = 2.0 * J.T @ W @ J
        try:
            delta = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(30):
            cand = theta + step * delta
            mc = moments(cand)
            if np.isfinite(mc).all():
                oc = float(mc @ W @ mc)
                if oc < obj:
                    theta, m, obj = cand, mc, oc
                    improved = True
                    break
            step *= 0.5
        if not improved:
            converged = np.max(np.abs(grad)) < 1e-6 * (1.0 + obj)
            break
    return theta, obj, converged


def solve_gmm(
    ds: Dataset,
    cfg: ModelConfig,
    degree_k: int,
    seed=None,
    hajek: bool = False,
) -> IpwFit:
    """Two-step GMM over the monomial basis of total degree <= k: identity
    weight first, then the ridge-regularized inverse moment covariance.
    Non-convergence is recorded on the fit, not raised, so simulation
    harnesses can count it."""
    basis_g = monomial_basis(ds.d, degree_k)
    if len(basis_g) < cfg.p:
        raise UsageError(
            f"degree-{degree_k} basis has {len(basis_g)} functions, "
            f"fewer than dim(theta) = {cfg.p}"
        )
    ws = _MomentWorkspace(ds, basis_g, cfg)
    start = default_ipw_start(ds, cfg)

    def multistart(W):
        best = None
        for dg in GAMMA_LATTICE:
            theta0 = start.copy()
            theta0[-1] += dg
            theta, obj, conv = _gmm_minimize(ws, theta0, W)
            if best is None or obj < best[1]:
                best = (theta, obj, conv)
        return best

    W1 = np.eye(len(basis_g))
    theta1, _, conv1 = multistart(W1)

    # empirical moment covariance at the step-1 point, ridge-regularized
    U = ws.per_row(theta1)
    if not np.isfinite(U).all():
        omega = W1
    else:
        Uc = U - U.mean(axis=0)
        omega = Uc.T @ Uc / ds.n
    ridge = 1e-8 * max(np.trace(omega), 1e-300)
    try:
        W2 = np.linalg.inv(omega + ridge * np.eye(len(basis_g)))
    except np.linalg.LinAlgError:
        W2 = W1
    theta2, obj2, conv2 = multistart(W2)
    tau, wmax = _horvitz_thompson(ws, theta2, hajek)
    m = ws.moments(theta2)
    return IpwFit(
        theta_hat=theta2,
        converged=bool(conv1 and conv2),
        tau_ipw=tau,
        weights_max=wmax,
        moment_norm=float(np.max(np.abs(m))) if np.isfinite(m).all() else np.inf,
        candidates=((theta1, obj2, conv1),),
    )
