import numpy as np
import pytest
from scipy.special import expit

from mnarmean.data import BasisTerm, Dataset, ModelConfig, select_x1
from mnarmean.errors import MnarError, NonConvergenceError, UsageError
from mnarmean.fitting import _ipw_basis
from mnarmean.ipw import (
    GAMMA_LATTICE,
    MOMENT_TOL,
    _MomentWorkspace,
    default_ipw_start,
    monomial_basis,
    profile_gamma,
    solve_gmm,
    solve_ipw,
)
from mnarmean.simulate import example1, example2, generate_dataset

from conftest import mar_complete_data, mar_dataset

CFG2 = ModelConfig(
    mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))),
    x1_columns=(1,),
)


def _mar_big(n=200_000, seed=30, a0=-0.5, b=0.7):
    return mar_dataset(n, seed, a0=a0, b=b)


def test_moment_zero_at_truth_under_mar():
    """With gamma = 0 and (a0, b) at the true MAR logit, the g = 1 moment
    converges to 0."""
    a0, b = -0.5, 0.7
    ds = _mar_big(a0=a0, b=b)
    m = _MomentWorkspace(ds, [BasisTerm((0, 0))], CFG2).moments(np.array([a0, b, 0.0]))
    assert abs(m[0]) < 0.02  # ~3 Monte Carlo standard errors


def test_moment_all_observed_strictly_positive():
    rng = np.random.default_rng(31)
    n = 100
    x = rng.normal(size=(n, 2))
    ds = Dataset(r=np.ones(n, dtype=np.int64), y=rng.normal(size=n), x=x)
    m = _MomentWorkspace(ds, [BasisTerm((0, 0))], CFG2).moments(np.array([0.1, -0.2, 0.3]))
    assert m[0] > 0.0


def test_moments_tolerate_overflow():
    ds = _mar_big(n=500)
    m = _MomentWorkspace(ds, [BasisTerm((0, 0))], CFG2).moments(np.array([0.0, 0.0, 700.0]))
    assert m[0] == np.inf  # raw exponentials: non-finite values are legal


def test_profile_single_root_near_zero_under_mar():
    a0, b = -0.5, 0.7
    ds = _mar_big(a0=a0, b=b)
    prof = profile_gamma(ds, a0, np.array([b]), (-1.0, 1.0, 0.05), CFG2)
    assert len(prof.roots) == 1
    assert abs(prof.roots[0]) < 0.05
    # every root lies in a grid cell with a sign change and solves M ~ 0
    for root in prof.roots:
        i = int(np.searchsorted(prof.grid, root)) - 1
        assert prof.values[i] * prof.values[i + 1] <= 0
        scale = 1.0 + float(np.abs(prof.values[np.isfinite(prof.values)]).max())
        vals = np.interp([root], prof.grid, prof.values)  # sanity only


def test_profile_shifted_grid_reports_no_roots():
    ds = _mar_big(n=2000)
    prof = profile_gamma(ds, -0.5, np.array([0.7]), (5.0, 6.0, 0.25), CFG2)
    assert prof.roots == ()


def test_profile_grid_validation():
    ds = _mar_big(n=200)
    with pytest.raises(UsageError):
        profile_gamma(ds, 0.0, np.array([0.0]), (1.0, 1.0, 0.1), CFG2)


@pytest.mark.parametrize("beta", [[0.7, 0.1], []])
def test_profile_beta_length_must_match_x1_columns(beta):
    ds = _mar_big(n=200)
    with pytest.raises(UsageError, match="x1 columns"):
        profile_gamma(ds, -0.5, np.array(beta), (-1.0, 1.0, 0.25), CFG2)


#: one respondent with y = 0 and one nonrespondent, x = 0: at alpha0 = 0
#: and beta = 0, M(gamma) = (e^0 + 1) / 2 - 1 = 0 for every gamma
_FLAT_CFG = ModelConfig(
    mean_basis=(BasisTerm((0,)), BasisTerm((1,)), BasisTerm((2,))), x1_columns=(1,)
)


def _two_rows(y_observed):
    return Dataset(r=np.array([1, 0]), y=np.array([y_observed, np.nan]), x=np.zeros((2, 1)))


def test_profile_flat_moment_makes_every_grid_point_a_root():
    prof = profile_gamma(_two_rows(0.0), 0.0, np.array([0.0]), (-1.0, 1.0, 0.5), _FLAT_CFG)
    assert (prof.values == 0.0).all()
    assert prof.roots == (-1.0, -0.5, 0.0, 0.5, 1.0)  # the last grid point included


def test_profile_non_finite_over_the_whole_grid_raises():
    """e^{gamma y} overflows at y = 1000 for every gamma in [1, 2]."""
    with pytest.raises(NonConvergenceError, match="non-finite over the entire grid"):
        profile_gamma(_two_rows(1000.0), 0.0, np.array([0.0]), (1.0, 2.0, 0.5), _FLAT_CFG)


def test_solve_ipw_recovers_mar_truth():
    a0, b = -0.5, 0.7
    ds = _mar_big(n=50_000, seed=32)
    _, y_full, _ = mar_complete_data(50_000, 32)
    fit = solve_ipw(ds, CFG2, monomial_basis(2, 1))
    assert fit.converged
    assert fit.moment_norm < MOMENT_TOL
    assert np.allclose(fit.theta_hat, [a0, b, 0.0], atol=0.15)
    # Horvitz-Thompson mean of y close to the true mean of y
    assert fit.tau_ipw == pytest.approx(np.nanmean(y_full), abs=0.1)


def test_solve_ipw_basis_count_validation():
    ds = _mar_big(n=500)
    with pytest.raises(UsageError):
        solve_ipw(ds, CFG2, monomial_basis(2, 2))


def test_horvitz_thompson_all_observed_is_plain_mean():
    rng = np.random.default_rng(33)
    n = 300
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    ds = Dataset(r=np.ones(n, dtype=np.int64), y=y, x=x)
    from mnarmean.ipw import _horvitz_thompson, _MomentWorkspace

    ws = _MomentWorkspace(ds, [BasisTerm((0, 0))], CFG2)
    # pi = 1 exactly in the limit theta -> (-inf, 0, 0); use a deep intercept
    tau, wmax = _horvitz_thompson(ws, np.array([-500.0, 0.0, 0.0]))
    assert tau == pytest.approx(y.mean(), rel=1e-12)


def test_monomial_basis_counts():
    assert len(monomial_basis(1, 3)) == 4
    assert len(monomial_basis(2, 2)) == 6
    assert monomial_basis(2, 1)[0].is_intercept


def test_gmm_two_step_objective_ordering():
    ds = _mar_big(n=20_000, seed=34)
    fit = solve_gmm(ds, CFG2, degree_k=2)
    assert fit.converged
    # step-2 weighted objective at the final point is no worse than at the
    # step-1 point evaluated with the same weight
    from mnarmean.ipw import _MomentWorkspace

    basis = monomial_basis(2, 2)
    ws = _MomentWorkspace(ds, basis, CFG2)
    theta1 = fit.candidates[0][0]
    m1 = ws.moments(theta1)
    m2 = ws.moments(fit.theta_hat)
    # recompute the step-2 weight exactly as solve_gmm does
    U = ws.per_row(theta1)
    Uc = U - U.mean(axis=0)
    omega = Uc.T @ Uc / ds.n
    W2 = np.linalg.inv(omega + 1e-8 * np.trace(omega) * np.eye(len(basis)))
    assert m2 @ W2 @ m2 <= m1 @ W2 @ m1 + 1e-12


def test_gmm_candidate_reports_step1_objective():
    """The step-1 candidate carries its own objective m(theta1)' m(theta1)
    at the identity weight, not the step-2 objective."""
    from mnarmean.ipw import _MomentWorkspace

    ds = _mar_big(n=5000, seed=35)
    fit = solve_gmm(ds, CFG2, degree_k=2)
    theta1, obj1, _ = fit.candidates[0]
    m1 = _MomentWorkspace(ds, monomial_basis(2, 2), CFG2).moments(theta1)
    assert obj1 == pytest.approx(m1 @ m1, rel=1e-12, abs=1e-300)


def test_ipw_candidates_are_every_start():
    """One candidate per multistart point, each with its moment norm and
    the converged flag max|m| < MOMENT_TOL; the fit reports the smallest."""
    ds = _mar_big(n=5000, seed=36)
    fit = solve_ipw(ds, CFG2, monomial_basis(2, 1))
    assert len(fit.candidates) == 5
    for theta, norm, conv in fit.candidates:
        m = _MomentWorkspace(ds, monomial_basis(2, 1), CFG2).moments(theta)
        assert norm == np.max(np.abs(m))
        assert conv == (norm < MOMENT_TOL)
    assert fit.moment_norm == min(c[1] for c in fit.candidates)


def test_profile_is_intercept_moment():
    """M(gamma) on the grid is the intercept-only IPW moment at (a0, b, gamma)."""
    ds = _mar_big(n=2000)
    prof = profile_gamma(ds, -0.5, np.array([0.7]), (-1.0, 1.0, 0.25), CFG2)
    ws = _MomentWorkspace(ds, [BasisTerm((0, 0))], CFG2)
    for g, v in zip(prof.grid, prof.values):
        m = ws.moments(np.array([-0.5, 0.7, g]))
        assert v == m[0]
    direct = (np.sum(np.exp(-0.5 + 0.7 * ds.x[ds.r == 1, 0] + 0.5 * ds.y[ds.r == 1]) + 1)) / ds.n - 1
    assert prof.values[6] == pytest.approx(direct, rel=1e-12)
    # a stack of 40 thetas: no stack size is special
    thetas = np.column_stack([np.full(40, -0.5), np.full(40, 0.7), np.linspace(-1.0, 1.0, 40)])
    stacked = ws.moments(thetas)
    assert stacked.shape == (40, 1)
    for theta, m in zip(thetas, stacked):
        assert m == pytest.approx(ws.moments(theta), rel=1e-12)


def test_moments_and_jacobians_take_any_stack():
    """A stack of 12 thetas, more than len(GAMMA_LATTICE), gives row by row
    the moments and Jacobians of single-theta calls."""
    ds = _mar_big(n=2000, seed=37)
    ws = _MomentWorkspace(ds, monomial_basis(2, 2), CFG2)
    thetas = np.column_stack(
        [np.linspace(-0.8, -0.2, 12), np.linspace(0.4, 1.0, 12), np.linspace(-1.0, 1.0, 12)]
    )
    assert len(thetas) > len(GAMMA_LATTICE)
    m, JT = ws.moments_and_jacobians(thetas)
    assert m.shape == (12, 6) and JT.shape == (12, 3, 6)
    for theta, m_j, JT_j in zip(thetas, m, JT):
        m1, JT1 = ws.moments_and_jacobians(theta[None])
        np.testing.assert_allclose(m_j, m1[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(JT_j, JT1[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(m_j, ws.moments(theta), rtol=1e-12, atol=0)


def test_gauss_newton_reuses_the_scratch_buffers():
    """A second solve on one moment workspace allocates no new scratch
    buffer and gives the first solve's results."""
    from mnarmean.ipw import _gauss_newton, _lattice_starts, _MomentWorkspace

    ds = _mar_big(n=2000, seed=38)
    ws = _MomentWorkspace(ds, monomial_basis(2, 2), CFG2)
    theta0, W = _lattice_starts(ds, CFG2), np.eye(6)
    first = _gauss_newton(ws, theta0, W)
    buffers = dict(ws.workspace.buffers)
    assert buffers
    second = _gauss_newton(ws, theta0, W)
    assert ws.workspace.buffers.keys() == buffers.keys()
    for slot, buf in buffers.items():
        assert ws.workspace.buffers[slot] is buf
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_gmm_needs_enough_basis_functions():
    ds = _mar_big(n=500)
    with pytest.raises(UsageError):
        solve_gmm(ds, CFG2, degree_k=0)


@pytest.mark.parametrize("method", ["ipw", "gmm3"])
def test_no_overflow_warning_escapes(method):
    """Huge but finite moments overflow their norm and the weights overflow
    in the Horvitz-Thompson sum; neither may leak a RuntimeWarning."""
    import warnings

    from mnarmean.simulate import example1, generate_dataset, run_method

    sc = example1()
    for seed in (3, 4, 5):
        ds = generate_dataset(sc, 2000, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_method(method, ds, sc, 2.177)


# The reference: the per-start Gauss-Newton loop that the stacked kernel
# replaced, with its finite-objective rule.  Each start runs on its own with
# one moment evaluation per line-search step.


class _RefWorkspace:
    def __init__(self, ds, basis_g, cfg):
        G = np.column_stack([t.evaluate(ds.x) for t in basis_g])
        obs = ds.r == 1
        self.n, self.obs, self.G, self.G_obs = ds.n, obs, G, G[obs]
        self.miss_sum = G[~obs].sum(axis=0)
        self.V_obs = np.column_stack(
            [np.ones(int(obs.sum())), select_x1(ds.x, cfg.x1_columns)[obs], ds.y[obs]]
        )

    def weights(self, theta):
        return np.exp(self.V_obs @ theta)

    def moments(self, theta):
        return (self.weights(theta) @ self.G_obs - self.miss_sum) / self.n

    def jacobian(self, theta):
        return self.G_obs.T @ (self.V_obs * self.weights(theta)[:, None]) / self.n

    def per_row(self, theta):
        U = -self.G.copy()
        U[self.obs] = self.G_obs * self.weights(theta)[:, None]
        return U


@np.errstate(over="ignore", invalid="ignore")
def _ref_minimize(ws, theta0, W, max_iter=200):
    theta = np.asarray(theta0, dtype=float).copy()
    m = ws.moments(theta)
    obj = float(m @ W @ m) if np.isfinite(m).all() else np.inf
    if not np.isfinite(obj):
        return theta, np.inf, False, False
    for _ in range(max_iter):
        J = ws.jacobian(theta)
        if not np.isfinite(J).all():
            return theta, obj, False, False
        grad = 2.0 * J.T @ W @ m
        if np.max(np.abs(grad)) < 1e-8 * (1.0 + obj):
            return theta, obj, True, True
        H = 2.0 * J.T @ W @ J
        try:
            delta = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return theta, obj, False, False
        step = 1.0
        for _ in range(30):
            cand = theta + step * delta
            mc = ws.moments(cand)
            if np.isfinite(mc).all():
                oc = float(mc @ W @ mc)
                if np.isfinite(oc) and oc < obj:
                    theta, m, obj = cand, mc, oc
                    break
            step *= 0.5
        else:
            return theta, obj, np.max(np.abs(grad)) < 1e-6 * (1.0 + obj), True
    return theta, obj, False, True


def _ref_multistart(ws, ds, cfg, W):
    runs = []
    for dg in GAMMA_LATTICE:
        theta0 = default_ipw_start(ds, cfg)
        theta0[-1] += dg
        runs.append(_ref_minimize(ws, theta0, W))
    return runs


@np.errstate(over="ignore", invalid="ignore")
def _ref_tau(ws, theta):
    return float(np.sum((1.0 + ws.weights(theta)) * ws.V_obs[:, -1]) / ws.n)


def _ref_point_estimate(tag, ds, cfg):
    """(theta, tau, converged) of the per-start loop; raises like solve_ipw."""
    if tag == "ipw":
        ws = _RefWorkspace(ds, _ipw_basis(ds.d, cfg.p), cfg)
        runs = _ref_multistart(ws, ds, cfg, np.eye(cfg.p))
        if not any(ok for *_, ok in runs):
            raise NonConvergenceError("no start ok")
        norms = [np.inf if not np.isfinite(m).all() else np.max(np.abs(m))
                 for m in (ws.moments(theta) for theta, *_ in runs)]
        theta = runs[int(np.argmin(norms))][0]
        return theta, _ref_tau(ws, theta), bool(min(norms) < MOMENT_TOL)
    basis = monomial_basis(ds.d, int(tag[3:]))
    ws = _RefWorkspace(ds, basis, cfg)
    W1 = np.eye(len(basis))
    theta1, _, conv1, _ = min(_ref_multistart(ws, ds, cfg, W1), key=lambda c: c[1])
    with np.errstate(over="ignore", invalid="ignore"):
        U = ws.per_row(theta1)
        if not np.isfinite(U).all():
            omega = W1
        else:
            Uc = U - U.mean(axis=0)
            omega = Uc.T @ Uc / ds.n
    try:
        W2 = np.linalg.inv(omega + 1e-8 * max(np.trace(omega), 1e-300) * W1)
    except np.linalg.LinAlgError:
        W2 = W1
    theta2, _, conv2, _ = min(_ref_multistart(ws, ds, cfg, W2), key=lambda c: c[1])
    return theta2, _ref_tau(ws, theta2), bool(conv1 and conv2)


def _fits(tag, datasets, cfg):
    """(theta, tau, converged) or the MnarError raised, per dataset."""
    out = []
    for ds in datasets:
        try:
            if tag == "ipw":
                fit = solve_ipw(ds, cfg, _ipw_basis(ds.d, cfg.p))
            else:
                fit = solve_gmm(ds, cfg, int(tag[3:]))
            out.append((fit.theta_hat, fit.tau_ipw, fit.converged))
        except MnarError as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("scenario", ["example1", "example2"])
@pytest.mark.parametrize("tag", ["ipw", "gmm3"])
def test_fits_match_per_start_loop(scenario, tag):
    """200 datasets at n = 2 000: raise/no-raise and the converged flag agree
    on at least 99% of fits, and where both converge tau and theta agree to
    1e-9 (ipw) or 1e-6 (gmm3) relative on at least 99%.  The stacked starts
    round differently from the loop, so a fit near a flag's threshold may
    flip."""
    sc = example1(-1.7, 0.0) if scenario == "example1" else example2()
    cfg = sc.model_config()
    datasets = [generate_dataset(sc, 2000, seed) for seed in range(200)]
    tol = 1e-9 if tag == "ipw" else 1e-6
    flags_agree = close = both = 0
    for ds, new in zip(datasets, _fits(tag, datasets, cfg)):
        try:
            ref = _ref_point_estimate(tag, ds, cfg)
        except MnarError as exc:
            ref = exc
        if isinstance(ref, MnarError) or isinstance(new, MnarError):
            flags_agree += type(ref) is type(new)
            continue
        flags_agree += ref[2] == new[2]
        if ref[2] and new[2]:
            both += 1
            scale = np.maximum(1.0, np.abs(np.append(ref[0], ref[1])))
            close += bool(np.all(np.abs(np.append(new[0], new[1]) - np.append(ref[0], ref[1])) <= tol * scale))
    assert flags_agree >= 0.99 * len(datasets)
    assert close >= 0.99 * both


@pytest.mark.parametrize("seed", [4, 6])
def test_overflowed_gmm_objective_is_rejected(seed):
    """On these datasets a step-2 line-search point has finite moments whose
    objective m'W2m overflows to -inf (on seed 4 in the per-start loop, on
    seed 6 in the stacked starts).  Taking it gave tau near 1e155 to 1e179 and
    converged=False; on seed 4 it gave tau 3.7e155 and gamma 16.6."""
    sc = example1(-1.7, 0.0)
    ds = generate_dataset(sc, 2000, seed)
    fit = solve_gmm(ds, sc.model_config(), 3)
    assert fit.converged
    assert abs(fit.tau_ipw - 2.177) < 0.5
    assert abs(fit.gamma_hat) < 3.0
    theta, tau, converged = _ref_point_estimate("gmm3", ds, sc.model_config())
    assert converged
    assert tau == pytest.approx(fit.tau_ipw, rel=1e-6)
    if seed == 4:
        assert fit.tau_ipw == pytest.approx(2.3798, abs=1e-4)
        assert fit.gamma_hat == pytest.approx(0.581, abs=1e-3)


def test_start_with_overflowing_objective_is_not_ok():
    """Finite moments whose objective m'm overflows stop a member at its
    start, like non-finite moments; the other member runs on."""
    from mnarmean.ipw import _gauss_newton, _MomentWorkspace

    ds = _mar_big(n=500)
    ws = _MomentWorkspace(ds, monomial_basis(2, 1), CFG2)
    gamma = 700.0 / np.nanmax(ds.y)  # e^{gamma y} stays finite, its square does not
    theta0 = np.array([[-0.5, 0.7, 0.0], [0.0, 0.0, gamma]])
    assert np.isfinite(ws.moments(theta0[1])).all()
    theta, obj, converged, ok = _gauss_newton(ws, theta0, np.eye(3))
    assert ok.tolist() == [True, False]
    assert obj[1] == np.inf and not converged[1]
    assert np.array_equal(theta[1], theta0[1])
