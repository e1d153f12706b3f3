import numpy as np
import pytest
from scipy.special import expit

from mnarmean.data import BasisTerm, Dataset, ModelConfig
from mnarmean.errors import UsageError
from mnarmean.ipw import (
    MOMENT_TOL,
    ipw_moments,
    monomial_basis,
    profile_gamma,
    solve_gmm,
    solve_ipw,
)

from conftest import mar_dataset

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
    m = ipw_moments(ds, np.array([a0, b, 0.0]), [BasisTerm((0, 0))], CFG2)
    assert abs(m[0]) < 0.02  # ~3 Monte Carlo standard errors


def test_moment_all_observed_strictly_positive():
    rng = np.random.default_rng(31)
    n = 100
    x = rng.normal(size=(n, 2))
    ds = Dataset(r=np.ones(n, dtype=np.int64), y=rng.normal(size=n), x=x)
    m = ipw_moments(ds, np.array([0.1, -0.2, 0.3]), [BasisTerm((0, 0))], CFG2)
    assert m[0] > 0.0


def test_moments_tolerate_overflow():
    ds = _mar_big(n=500)
    m = ipw_moments(ds, np.array([0.0, 0.0, 700.0]), [BasisTerm((0, 0))], CFG2)
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


def test_solve_ipw_recovers_mar_truth():
    a0, b = -0.5, 0.7
    ds = _mar_big(n=50_000, seed=32)
    fit = solve_ipw(ds, CFG2, monomial_basis(2, 1))
    assert fit.converged
    assert fit.moment_norm < MOMENT_TOL
    assert np.allclose(fit.theta_hat, [a0, b, 0.0], atol=0.15)
    # Horvitz-Thompson mean of y close to the true mean of y
    assert fit.tau_ipw == pytest.approx(np.nanmean(ds.y_full), abs=0.1)


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
        m = ipw_moments(ds, theta, monomial_basis(2, 1), CFG2)
        assert norm == np.max(np.abs(m))
        assert conv == (norm < MOMENT_TOL)
    assert fit.moment_norm == min(c[1] for c in fit.candidates)


def test_profile_is_intercept_moment():
    """M(gamma) on the grid is the intercept-only IPW moment at (a0, b, gamma)."""
    ds = _mar_big(n=2000)
    prof = profile_gamma(ds, -0.5, np.array([0.7]), (-1.0, 1.0, 0.25), CFG2)
    for g, v in zip(prof.grid, prof.values):
        m = ipw_moments(ds, np.array([-0.5, 0.7, g]), [BasisTerm((0, 0))], CFG2)
        assert v == m[0]
    direct = (np.sum(np.exp(-0.5 + 0.7 * ds.x[ds.r == 1, 0] + 0.5 * ds.y[ds.r == 1]) + 1)) / ds.n - 1
    assert prof.values[6] == pytest.approx(direct, rel=1e-12)


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
