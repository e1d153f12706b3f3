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
    """Evaluate M(gamma) = n^-1 sum r {e^{a0 + x1'b + g y} + 1} - 1, the
    intercept-only IPW moment at (a0, b, g), on a grid, bracket every sign
    change, and refine each bracket by bisection."""
    lo, hi, step = grid_spec
    if not lo < hi or step <= 0:
        raise UsageError(f"bad grid ({lo}, {hi}, {step}): need lo < hi, step > 0")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
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
        tau = float(np.sum(inv_pi * ws.V_obs[:, -1]) / ws.n)
    wmax = float(inv_pi.max()) if inv_pi.size else np.nan
    return tau, wmax


def _moment_norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.isfinite(m).all() else np.inf


def default_ipw_start(ds: Dataset, cfg: ModelConfig) -> np.ndarray:
    n1 = ds.n_observed
    start = np.zeros(cfg.p)
    start[0] = np.log(max(ds.n - n1, 1) / max(n1, 1))
    return start


@np.errstate(over="ignore", invalid="ignore")
def _gmm_minimize(ws: _MomentWorkspace, theta0, W, max_iter=200):
    """Damped Gauss-Newton on the weighted moment objective m' W m with the
    analytic moment Jacobian.  Returns (theta, m, obj, converged, ok); ok is
    False when it stopped on non-finite moments at the start, a non-finite
    Jacobian or a singular system."""
    moments = ws.moments
    theta = np.asarray(theta0, dtype=float).copy()
    m = moments(theta)
    if not np.isfinite(m).all():
        return theta, m, np.inf, False, False
    obj = float(m @ W @ m)
    for _ in range(max_iter):
        J = ws.jacobian(theta)
        if not np.isfinite(J).all():
            return theta, m, obj, False, False
        grad = 2.0 * J.T @ W @ m
        if np.max(np.abs(grad)) < 1e-8 * (1.0 + obj):
            return theta, m, obj, True, True
        H = 2.0 * J.T @ W @ J
        try:
            delta = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return theta, m, obj, False, False
        step = 1.0
        for _ in range(30):
            cand = theta + step * delta
            mc = moments(cand)
            if np.isfinite(mc).all():
                oc = float(mc @ W @ mc)
                if oc < obj:
                    theta, m, obj = cand, mc, oc
                    break
            step *= 0.5
        else:
            return theta, m, obj, np.max(np.abs(grad)) < 1e-6 * (1.0 + obj), True
    return theta, m, obj, False, True


def _multistart(ws: _MomentWorkspace, start: np.ndarray, W) -> list:
    """One ``_gmm_minimize`` run from ``start`` with gamma shifted by each
    offset in GAMMA_LATTICE."""
    runs = []
    for dg in GAMMA_LATTICE:
        theta0 = start.copy()
        theta0[-1] += dg
        runs.append(_gmm_minimize(ws, theta0, W))
    return runs


def solve_ipw(ds: Dataset, cfg: ModelConfig, basis_g: list[BasisTerm]) -> IpwFit:
    """Just-identified IPW solve: Gauss-Newton on m'm from a 5-point gamma
    multistart; the root with the smallest moment norm wins, and every
    located candidate is kept on the fit report (the multiple-root hazard is
    a first-class output)."""
    if len(basis_g) != cfg.p:
        raise UsageError(
            f"just-identified IPW needs {cfg.p} basis functions, got {len(basis_g)}"
        )
    ws = _MomentWorkspace(ds, basis_g, cfg)
    runs = _multistart(ws, default_ipw_start(ds, cfg), np.eye(cfg.p))
    if not any(ok for *_, ok in runs):
        raise NonConvergenceError(
            "IPW moments non-finite, or their Jacobian non-finite or singular, at every start"
        )
    candidates = []
    for theta, m, *_ in runs:
        norm = _moment_norm(m)
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
    weight first, then the ridge-regularized inverse moment covariance.
    Non-convergence is recorded on the fit, not raised, so simulation
    harnesses can count it.  The one candidate is the step-1 point with its
    own (identity-weight) objective."""
    basis_g = monomial_basis(ds.d, degree_k)
    if len(basis_g) < cfg.p:
        raise UsageError(
            f"degree-{degree_k} basis has {len(basis_g)} functions, "
            f"fewer than dim(theta) = {cfg.p}"
        )
    ws = _MomentWorkspace(ds, basis_g, cfg)
    start = default_ipw_start(ds, cfg)
    W1 = np.eye(len(basis_g))
    theta1, _, obj1, conv1, _ = min(_multistart(ws, start, W1), key=lambda c: c[2])

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
    theta2, m2, _, conv2, _ = min(_multistart(ws, start, W2), key=lambda c: c[2])
    tau, wmax = _horvitz_thompson(ws, theta2)
    return IpwFit(
        theta_hat=theta2,
        converged=bool(conv1 and conv2),
        tau_ipw=tau,
        weights_max=wmax,
        moment_norm=_moment_norm(m2),
        candidates=((theta1, obj1, conv1),),
    )
