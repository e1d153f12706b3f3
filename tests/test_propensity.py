import numpy as np
import pytest
from scipy.special import expit

from mnarmean.data import BasisTerm, Dataset, ModelConfig, build_design
from mnarmean.errors import DegenerateDataError, ReplicateErrors, SeparationError
from mnarmean.outcome import fit_least_squares, predict_mu
from mnarmean.propensity import (
    SCORE_TOL,
    _z_matrix,
    alpha0_batch,
    fit_propensity,
    log_conditional_likelihood_z,
    score_and_hessian_z,
)

from conftest import mar_dataset


def _fit_inputs(n=2000, seed=0):
    ds = mar_dataset(n, seed)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))),
        x1_columns=(1,),
    )
    dm = build_design(ds, cfg)
    mu_hat = predict_mu(fit_least_squares(ds, dm), dm)
    return ds, mu_hat, cfg


def test_score_matches_finite_differences():
    """Central finite differences of l_n vs the analytic score, 50 instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(50, 200))
        x = rng.normal(size=(n, 2))
        mu_hat = rng.normal(size=n)
        r = rng.integers(0, 2, size=n)
        if r.sum() in (0, n):
            r[0], r[1] = 0, 1
        y = np.where(r == 1, rng.normal(size=n), np.nan)
        ds = Dataset(r=r, y=y, x=x)
        cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)),), x1_columns=(1,))
        theta = rng.normal(scale=0.5, size=3)
        z = _z_matrix(ds, mu_hat, cfg)
        score, _ = score_and_hessian_z(ds.r, z, theta)
        h = 1e-6
        fd = np.empty(3)
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (
                log_conditional_likelihood_z(ds.r, z, tp)
                - log_conditional_likelihood_z(ds.r, z, tm)
            ) / (2 * h)
        # score is the estimating function sum z (r - pi) = -grad l_n
        rel = np.linalg.norm(score + fd) / max(np.linalg.norm(fd), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-6


def test_loglik_nonpositive_and_improves():
    ds, mu_hat, cfg = _fit_inputs()
    fit = fit_propensity(ds, mu_hat, cfg)
    assert fit.loglik <= 0.0
    theta0 = np.zeros(3)
    theta0[0] = np.log((ds.n - ds.n_observed) / ds.n_observed)
    assert fit.loglik >= log_conditional_likelihood_z(ds.r, _z_matrix(ds, mu_hat, cfg), theta0)


def test_convergence_flag_matches_score_norm():
    ds, mu_hat, cfg = _fit_inputs(seed=1)
    fit = fit_propensity(ds, mu_hat, cfg)
    assert fit.converged
    score, _ = score_and_hessian_z(ds.r, _z_matrix(ds, mu_hat, cfg), fit.theta_hat)
    assert np.max(np.abs(score)) < SCORE_TOL
    assert fit.gradient_norm < SCORE_TOL


def test_row_permutation_gives_identical_theta():
    ds, mu_hat, cfg = _fit_inputs(seed=2)
    fit = fit_propensity(ds, mu_hat, cfg)
    rng = np.random.default_rng(8)
    perm = rng.permutation(ds.n)
    fit_p = fit_propensity(ds.take(perm), mu_hat[perm], cfg)
    assert np.allclose(fit.theta_hat, fit_p.theta_hat, atol=1e-10)


def test_recovers_truth_on_synthetic_induced_model():
    # r ~ Bernoulli(expit(-(a + b x1 + g mu))) with mu known exactly
    rng = np.random.default_rng(9)
    n = 200_000
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    mu = 1.0 + 0.5 * x1 - 0.8 * x2 + x2**2
    theta_true = np.array([-1.2, -0.4, 0.5])
    u = theta_true[0] + theta_true[1] * x1 + theta_true[2] * mu
    r = (rng.random(n) < expit(-u)).astype(np.int64)
    y = np.where(r == 1, mu + rng.normal(size=n), np.nan)
    ds = Dataset(r=r, y=y, x=np.column_stack([x1, x2]))
    cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)),), x1_columns=(1,))
    fit = fit_propensity(ds, mu, cfg)
    assert fit.converged
    assert np.allclose(fit.theta_hat, theta_true, atol=0.05)


def test_alpha0_batch_examples():
    errs = ReplicateErrors(4)
    alpha0 = alpha0_batch(
        np.array([-1.2, 0.0, -1.2, 0.3]), np.array([np.exp(0.5), 2.0, 0.0, np.nan]), errs
    )
    assert alpha0[:2] == pytest.approx([-1.7, -np.log(2.0)])
    assert errs.ok.tolist() == [True, True, False, False]
    with pytest.raises(DegenerateDataError):
        errs.raise_first()


def test_all_equal_indicators_degenerate():
    x = np.ones((5, 1))
    ds = Dataset(r=np.ones(5, dtype=np.int64), y=np.ones(5), x=x)
    cfg = ModelConfig(mean_basis=(BasisTerm((0,)),), x1_columns=(1,))
    with pytest.raises(DegenerateDataError):
        fit_propensity(ds, np.ones(5), cfg)


def test_separation_raises():
    # r perfectly determined by the sign of x1: the MLE runs to infinity
    n = 400
    rng = np.random.default_rng(10)
    x1 = rng.normal(size=n)
    r = (x1 < 0).astype(np.int64)
    if r.sum() in (0, n):  # pragma: no cover - vanishing probability
        pytest.skip("degenerate draw")
    y = np.where(r == 1, rng.normal(size=n), np.nan)
    ds = Dataset(r=r, y=y, x=x1[:, None])
    cfg = ModelConfig(mean_basis=(BasisTerm((0,)),), x1_columns=(1,))
    with pytest.raises(SeparationError):
        fit_propensity(ds, rng.normal(size=n), cfg)
