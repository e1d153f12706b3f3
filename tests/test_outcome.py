import numpy as np
import pytest

from mnarmean.data import BasisTerm, Dataset, ModelConfig, build_design
from mnarmean.errors import DegenerateDataError, SingularDesignError
from mnarmean.outcome import fit_least_squares, predict_mu

from conftest import mar_dataset


def _simple(n=400, seed=0):
    ds = mar_dataset(n, seed)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))),
        x1_columns=(1,),
    )
    return ds, build_design(ds, cfg)


def test_exact_fit_on_noiseless_data():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 2))
    mu = 2.0 - x[:, 0] + 0.5 * x[:, 1] ** 2
    ds = Dataset(r=np.ones(60, dtype=np.int64), y=mu, x=x)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 2))),
        x1_columns=(1,),
    )
    fit = fit_least_squares(ds, build_design(ds, cfg))
    assert np.allclose(fit.xi_hat, [2.0, -1.0, 0.5], atol=1e-10)
    assert fit.sigma2_hat < 1e-20


def test_residual_orthogonality_and_sigma2():
    ds, dm = _simple()
    fit = fit_least_squares(ds, dm)
    obs = ds.r == 1
    Mc = dm.M[obs]
    scale = np.linalg.norm(fit.residuals) * np.linalg.norm(Mc, axis=0)
    assert (np.abs(fit.residuals @ Mc) <= 1e-8 * np.maximum(scale, 1.0)).all()
    # intercept column implies mean-zero residuals
    assert abs(fit.residuals.mean()) < 1e-12
    assert fit.sigma2_hat == pytest.approx(fit.residuals @ fit.residuals / fit.n1)


def test_predictions_consistent_with_residuals():
    ds, dm = _simple(seed=1)
    fit = fit_least_squares(ds, dm)
    mu_hat = predict_mu(fit, dm)
    obs = ds.r == 1
    assert np.allclose(ds.y[obs] - mu_hat[obs], fit.residuals, atol=1e-12)


def test_row_permutation_invariance():
    ds, dm = _simple(seed=2)
    fit = fit_least_squares(ds, dm)
    rng = np.random.default_rng(5)
    perm = rng.permutation(ds.n)
    ds_p = ds.take(perm)
    cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))), x1_columns=(1,))
    fit_p = fit_least_squares(ds_p, build_design(ds_p, cfg))
    assert np.allclose(fit.xi_hat, fit_p.xi_hat, atol=1e-10)
    assert fit.sigma2_hat == pytest.approx(fit_p.sigma2_hat, abs=1e-12)


def test_duplicate_column_raises_singular():
    ds, _ = _simple(seed=3)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((1, 0))),
        x1_columns=(1,),
    )
    with pytest.raises(SingularDesignError, match=r"columns \[2\] are linearly dependent"):
        fit_least_squares(ds, build_design(ds, cfg))


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3])
def test_duplicate_column_raises_singular_at_any_scale(scale):
    """The rank rule measures each column against its own norm, so a repeated
    column is named at any covariate scale, and the intercept never is."""
    ds, _ = _simple(seed=3)
    ds = Dataset(r=ds.r, y=ds.y, x=ds.x * scale)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((1, 0))),
        x1_columns=(1,),
    )
    with pytest.raises(SingularDesignError, match=r"columns \[2\] are linearly dependent"):
        fit_least_squares(ds, build_design(ds, cfg))


def _scaled_fit(ds, basis, scale):
    """(xi_hat on x, xi_hat on scale * x brought back to the scale of x)."""
    cfg = ModelConfig(mean_basis=tuple(BasisTerm(e) for e in basis), x1_columns=(1,))
    scaled = Dataset(r=ds.r, y=ds.y, x=ds.x * scale)
    xi = fit_least_squares(ds, build_design(ds, cfg)).xi_hat
    xi_scaled = fit_least_squares(scaled, build_design(scaled, cfg)).xi_hat
    degree = np.array([sum(e) for e in basis])
    return xi, xi_scaled * scale**degree


def test_scaled_polynomial_designs_fit():
    """Polynomial bases on rescaled covariates are full rank: the fit goes
    through and is the unscaled fit, rescaled."""
    from mnarmean.simulate import example2, generate_dataset

    ds = generate_dataset(example2(), 2000, 5)
    xi, xi_scaled = _scaled_fit(ds, [(0,), (1,), (2,)], 1e-5)
    np.testing.assert_allclose(xi_scaled, xi, rtol=1e-8)
    ds = mar_dataset(800, 7)
    basis = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    xi, xi_scaled = _scaled_fit(ds, basis, 1e3)
    np.testing.assert_allclose(xi_scaled, xi, rtol=1e-6)


def test_intercept_only():
    ds, _ = _simple(seed=6)
    cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)),), x1_columns=(1,))
    dm = build_design(ds, cfg)
    fit = fit_least_squares(ds, dm)
    obs = ds.r == 1
    assert fit.xi_hat[0] == pytest.approx(ds.y[obs].mean())
    assert np.allclose(predict_mu(fit, dm), fit.xi_hat[0])


def test_too_few_complete_cases():
    x = np.arange(8.0).reshape(4, 2)
    ds = Dataset(r=[1, 0, 0, 0], y=[1.0, np.nan, np.nan, np.nan], x=x)
    cfg = ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1))),
        x1_columns=(1,),
    )
    with pytest.raises(DegenerateDataError):
        fit_least_squares(ds, build_design(ds, cfg))
    # fewer rows than mean parameters
    ds = Dataset(r=[1, 1], y=[1.0, 2.0], x=x[:2])
    with pytest.raises(DegenerateDataError, match="only 2 complete cases for 3"):
        fit_least_squares(ds, build_design(ds, cfg))
