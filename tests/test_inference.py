import numpy as np
import pytest

from mnarmean.data import BasisTerm, Dataset, ModelConfig, build_design
from mnarmean.errors import UsageError
from mnarmean.fitting import fit_mean_response, fit_tau_only
from mnarmean.inference import (
    build_sandwich,
    estimate_A_matrices,
    estimate_sigma_tau,
    wald_ci,
)
from mnarmean.propensity import score_and_hessian


@pytest.fixture(scope="module")
def fitted(request):
    from mnarmean.simulate import example1, generate_dataset

    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 2000, seed=515)
    cfg = sc.model_config()
    res = fit_mean_response(ds, cfg)
    return sc, ds, cfg, res


def test_A2_equals_minus_hessian_over_n(fitted):
    _, ds, cfg, res = fitted
    A1, A2, A3, A4 = estimate_A_matrices(ds, res.design, res.mu_hat, res.propensity, cfg)
    _, hess = score_and_hessian(ds, res.mu_hat, res.propensity.theta_hat, cfg)
    assert np.allclose(A2, -hess / ds.n, rtol=0, atol=1e-12)


def test_A_matrices_structure(fitted):
    _, ds, cfg, res = fitted
    p = res.pieces
    for M in (p.A1, p.A2, p.V):
        assert np.allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M).min() > -1e-10
    assert np.allclose(p.A4, res.design.M.mean(axis=0), atol=1e-12)


def test_score_block_column_means_vanish(fitted):
    """The estimating-equation residual columns of S_hat average to ~0 at the
    fitted parameters."""
    _, ds, cfg, res = fitted
    q = cfg.q
    p = cfg.p
    means = np.abs(res.pieces.Shat.mean(axis=0))
    scale = np.abs(res.pieces.Shat).mean(axis=0)
    # S0, the xi-block, and the theta-block are exact estimating-equation
    # residuals; the remaining three columns are centered by construction
    norm = means / np.maximum(scale, 1.0)
    assert (norm[: 1 + q + p] < 1e-6).all()
    assert (norm < 1e-6).all()


def test_V_is_zero_for_single_row():
    ds = Dataset(r=[1], y=[1.0], x=[[2.0]])
    cfg = ModelConfig(mean_basis=(BasisTerm((0,)),), x1_columns=(1,))
    dm = build_design(ds, cfg)
    # a single row makes every centered column identically zero
    from mnarmean.inference import build_score_rows_and_V
    from mnarmean.outcome import OutcomeFit
    from mnarmean.propensity import PropensityFit

    outc = OutcomeFit(xi_hat=np.array([1.0]), residuals=np.array([0.0]), sigma2_hat=0.0, n1=1)
    # at the n=1 "MLE" the propensity saturates at pi ~ 1, so every
    # estimating-equation residual column vanishes
    prop = PropensityFit(
        theta_hat=np.array([-40.0, 0.0, 0.0]), loglik=0.0, iterations=0,
        converged=True, gradient_norm=0.0,
    )
    Shat, V = build_score_rows_and_V(ds, dm, np.array([1.0]), outc, prop, cfg, (1.0, 0.0, 0.0))
    assert np.allclose(Shat, 0.0, atol=1e-12)
    assert np.allclose(V, 0.0, atol=1e-12)


def test_sigma_blocks_and_symmetry(fitted):
    _, ds, cfg, res = fitted
    Sigma = res.variance.Sigma
    q = cfg.q
    assert np.allclose(Sigma, Sigma.T, atol=1e-12)
    A1inv = np.linalg.inv(res.pieces.A1)
    assert np.allclose(Sigma[:q, :q], res.outcome.sigma2_hat * A1inv, atol=1e-10)


def test_variants_differ_and_clip_flag(fitted):
    _, ds, cfg, res = fitted
    vals = {}
    for v in ("printed", "alternative", "derived"):
        est = estimate_sigma_tau(
            res.pieces, res.tau.eta_hat, res.propensity.gamma_hat, res.outcome.sigma2_hat, v
        )
        assert est.sigma2_tau >= 0.0
        assert not est.clipped
        vals[v] = est.sigma2_tau
    assert len({round(v, 10) for v in vals.values()}) == 3
    with pytest.raises(UsageError):
        estimate_sigma_tau(res.pieces, 0.5, 0.5, 1.0, "bogus")


def test_variants_coincide_when_gamma_zero():
    """At gamma = 0 the tilt is trivial (B2 = 0), so all the H1 conventions
    collapse to the same vector."""
    from conftest import mar_dataset

    ds = mar_dataset(3000, seed=21)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))),
        x1_columns=(1,),
    )
    tau, prop, outc, mu_hat, dm = fit_tau_only(ds, cfg)
    # rebuild the pieces at gamma = 0 exactly: then B2 = mean(r eps) = 0 by
    # the least-squares normal equations and the variants must coincide
    from mnarmean.propensity import PropensityFit

    theta0 = prop.theta_hat.copy()
    theta0[-1] = 0.0
    prop0 = PropensityFit(
        theta_hat=theta0, loglik=prop.loglik, iterations=prop.iterations,
        converged=True, gradient_norm=prop.gradient_norm,
    )
    pieces = build_sandwich(ds, dm, mu_hat, outc, prop0, cfg)
    assert abs(pieces.B[1]) < 1e-12
    out = [
        estimate_sigma_tau(pieces, tau.eta_hat, 0.0, outc.sigma2_hat, v).D
        for v in ("printed", "alternative", "derived")
    ]
    assert np.allclose(out[0], out[1], atol=1e-10)
    assert np.allclose(out[0], out[2], atol=1e-10)


def test_row_permutation_invariance(fitted):
    sc, ds, cfg, res = fitted
    perm = np.random.default_rng(22).permutation(ds.n)
    res_p = fit_mean_response(ds.take(perm), cfg)
    assert res_p.variance.sigma2_tau == pytest.approx(res.variance.sigma2_tau, rel=1e-8)
    assert np.allclose(res_p.variance.Sigma, res.variance.Sigma, atol=1e-8)


def test_wald_ci_width_and_validation():
    ci = wald_ci(1.0, 4.0, 100, level=0.5)
    from scipy.stats import norm

    width = 2 * norm.ppf(0.75) * np.sqrt(4.0 / 100)
    assert ci.upper - ci.lower == pytest.approx(width, rel=1e-12)
    assert ci.lower < 1.0 < ci.upper
    with pytest.raises(UsageError):
        wald_ci(1.0, 4.0, 100, level=1.5)
    with pytest.raises(UsageError):
        wald_ci(1.0, -1.0, 100)


def test_overflowing_tilt_is_overflow_error(fitted):
    """B1 = mean r e^{gamma eps} past the float range makes sigma2_tau
    non-finite, which is reported as OVERFLOW."""
    import dataclasses

    from mnarmean.errors import MgfOverflowError

    _, _, _, res = fitted
    pieces = dataclasses.replace(res.pieces, B=(1e200, 1e200, 1e200))
    with pytest.raises(MgfOverflowError, match="sigma2_tau is not finite"):
        estimate_sigma_tau(pieces, res.tau.eta_hat, res.propensity.gamma_hat, 1.0)


def _stacked_psi_mean(phi, ds, cfg, M):
    """Mean over rows of the stacked estimating functions
    psi = (r - eta, M r eps, z (r - pi), mu - mu_bar, r e^{g eps} - B1,
    r eps e^{g eps} - B2) at phi = (eta, xi, theta, mu_bar, B1, B2)."""
    q, p = cfg.q, cfg.p
    eta, xi, theta = phi[0], phi[1 : 1 + q], phi[1 + q : 1 + q + p]
    mu_bar, B1, B2 = phi[-3:]
    r = ds.r.astype(float)
    mu = M @ xi
    eps = np.where(ds.r == 1, ds.y - mu, 0.0)
    z = np.column_stack([np.ones(ds.n), ds.x[:, [c - 1 for c in cfg.x1_columns]], mu])
    pi = 1.0 / (1.0 + np.exp(z @ theta))
    e = r * np.exp(theta[-1] * eps)
    psi = np.column_stack(
        [r - eta, M * (r * eps)[:, None], z * (r - pi)[:, None], mu - mu_bar, e - B1, eps * e - B2]
    )
    return psi.mean(axis=0)


@pytest.mark.parametrize(
    "scenario, delta, n, seed",
    [("example1", 0.0, 2000, 515), ("example1", 1.0, 2000, 516),
     ("example2", 0.0, 2000, 517), ("example1", 0.0, 500, 518)],
)
def test_derived_variance_is_generic_m_estimation_sandwich(scenario, delta, n, seed):
    """The ``derived`` sigma2_tau equals the generic M-estimation sandwich
    (Stefanski & Boos 2002): A is the central-difference Jacobian of the
    mean stacked psi at phi_hat, D = A^-T grad tau and sigma2 = D' V D."""
    from mnarmean import simulate

    sc = getattr(simulate, scenario)(delta=delta)
    ds = simulate.generate_dataset(sc, n, seed)
    cfg = sc.model_config()
    res = fit_mean_response(ds, cfg, variant="derived")
    B1, B2, _ = res.pieces.B
    eta = res.tau.eta_hat
    phi = np.concatenate(
        [[eta], res.outcome.xi_hat, res.propensity.theta_hat, [res.mu_hat.mean(), B1, B2]]
    )
    assert np.abs(_stacked_psi_mean(phi, ds, cfg, res.design.M)).max() < 1e-8
    A = np.empty((phi.size, phi.size))
    for j in range(phi.size):
        h = 1e-5 * max(1.0, abs(phi[j]))
        step = np.zeros(phi.size)
        step[j] = h
        A[:, j] = (
            _stacked_psi_mean(phi + step, ds, cfg, res.design.M)
            - _stacked_psi_mean(phi - step, ds, cfg, res.design.M)
        ) / (2 * h)
    grad_tau = np.zeros(phi.size)
    grad_tau[0] = -B2 / B1
    grad_tau[-3:] = [1.0, -(1.0 - eta) * B2 / B1**2, (1.0 - eta) / B1]
    D = np.linalg.solve(A.T, grad_tau)
    sigma2 = D @ res.pieces.V @ D
    assert res.variance.sigma2_tau == pytest.approx(sigma2, rel=1e-8)
    # the A-matrices are minus the Jacobian, so D_hat is -D
    assert np.allclose(res.variance.D, -D, rtol=0, atol=1e-7 * np.abs(D).max())
