"""End-to-end two-step pipeline: design -> least squares -> conditional
maximum likelihood -> tau_hat -> sandwich variance -> Wald CI, the kernel
that runs that chain for a stack of resamples at once, and the registry of
point estimators that studies and the bootstrap dispatch on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workspace import Workspace
from .data import (
    NOT_IDENTIFIABLE,
    Dataset,
    DesignMatrices,
    IdentifiabilityReport,
    ModelConfig,
    basis_in_x1_span,
    build_design,
    check_identifiability,
)
from .errors import IdentifiabilityError, ReplicateErrors, SingularDesignError, UsageError
from .inference import (
    ConfidenceInterval,
    SandwichPieces,
    VarianceEstimates,
    build_sandwich,
    check_level,
    check_variant,
    estimate_sigma_tau,
    sandwich_batch,
    sigma_tau_batch,
    wald_ci,
)
from .ipw import monomial_basis, solve_gmm, solve_ipw
from .mean_response import TauEstimate, estimate_tau, estimate_tau_normal_plugin, tau_batch
from .outcome import OutcomeFit, fit_least_squares, least_squares_batch, predict_mu
from .propensity import SCORE_TOL, PropensityFit, fit_propensity, newton_batch, z_stack


@dataclass(frozen=True)
class FitResult:
    outcome: OutcomeFit
    propensity: PropensityFit
    tau: TauEstimate
    variance: VarianceEstimates
    wald: ConfidenceInterval
    identifiability: IdentifiabilityReport
    design: DesignMatrices
    mu_hat: np.ndarray
    pieces: SandwichPieces


def fit_mean_response(
    ds: Dataset,
    cfg: ModelConfig,
    level: float = 0.95,
    variant: str = "printed",
) -> FitResult:
    check_level(level)
    check_variant(variant)
    dm = build_design(ds, cfg)
    outcome = fit_least_squares(ds, dm)
    ident = require_identifiable(dm, outcome.xi_hat)
    fit = _selection_step(ds, cfg, dm, outcome)
    tau, propensity, _, mu_hat, _ = fit
    pieces, variance = _sandwich_variance(ds, cfg, fit, variant)
    ci = wald_ci(tau.tau_hat, variance.sigma2_tau, ds.n, level)
    return FitResult(
        outcome=outcome,
        propensity=propensity,
        tau=tau,
        variance=variance,
        wald=ci,
        identifiability=ident,
        design=dm,
        mu_hat=mu_hat,
        pieces=pieces,
    )


def require_identifiable(dm: DesignMatrices, xi_hat=None) -> IdentifiabilityReport:
    """check_identifiability's report on the design, raising
    IdentifiabilityError when theta is not identifiable on these data."""
    ident = check_identifiability(dm, xi_hat)
    if not ident.identifiable:
        raise IdentifiabilityError(NOT_IDENTIFIABLE)
    return ident


def fit_tau_only(ds: Dataset, cfg: ModelConfig, normal_plugin: bool = False):
    """Lean path for simulation replications that only need point estimates:
    returns (tau_estimate, propensity_fit, outcome_fit, mu_hat, dm).  After
    least squares it raises IdentifiabilityError for a mean basis in
    span{1, x1} by the structural rule, ``basis_in_x1_span``, at O(q) cost.
    It runs no QR of the data, so a basis that lies in that span only
    through an exact linear relation among these covariates reaches the
    propensity fit; fit_mean_response and the bootstraps catch that case."""
    dm = build_design(ds, cfg)
    outcome = fit_least_squares(ds, dm)
    if basis_in_x1_span(cfg.mean_basis, cfg.x1_columns):
        raise IdentifiabilityError(NOT_IDENTIFIABLE)
    return _selection_step(ds, cfg, dm, outcome, normal_plugin)


def _selection_step(ds, cfg, dm, outcome, normal_plugin=False):
    """Step 2 and tau_hat on top of the outcome fit; fit_tau_only's tuple."""
    mu_hat = predict_mu(outcome, dm)
    propensity = fit_propensity(ds, mu_hat, cfg)
    est = estimate_tau_normal_plugin if normal_plugin else estimate_tau
    return est(ds, outcome, propensity, mu_hat), propensity, outcome, mu_hat, dm


def _sandwich_variance(ds, cfg, fit, variant):
    """(sandwich pieces, variance estimates) for a fit_tau_only tuple."""
    tau, propensity, outcome, mu_hat, dm = fit
    pieces = build_sandwich(ds, dm, mu_hat, outcome, propensity, cfg)
    variance = estimate_sigma_tau(
        pieces, tau.eta_hat, propensity.gamma_hat, outcome.sigma2_hat, variant
    )
    return pieces, variance


def fit_with_variance(ds: Dataset, cfg: ModelConfig, variant: str = "printed"):
    """fit_tau_only, then build_sandwich and estimate_sigma_tau: returns
    (tau_estimate, propensity_fit, variance_estimates)."""
    check_variant(variant)
    fit = fit_tau_only(ds, cfg)
    return fit[0], fit[1], _sandwich_variance(ds, cfg, fit, variant)[1]


@dataclass(frozen=True)
class ReplicateFits:
    """fit_replicates' results, one entry per resample; the entries of a
    resample whose ``errors.errors`` entry is not None carry no meaning."""

    tau: np.ndarray
    sigma2_tau: np.ndarray | None
    converged: np.ndarray
    errors: ReplicateErrors


def fit_replicates(
    ds: Dataset,
    cfg: ModelConfig,
    idx: np.ndarray,
    variant: str = "printed",
    variance: bool = True,
    normal_plugin: bool = False,
    *,
    workspace: Workspace,
) -> ReplicateFits:
    """fit_with_variance (or, with ``variance=False``, fit_tau_only) on b
    resamples of ``ds`` at once; row j of ``idx`` (b, n) holds the row
    indices of resample j.  The rows are gathered once, and every step runs
    the batched form of its single-fit function, so resample j gets the
    numbers and the error its own fit would give.  The kernels carve their
    large scratch arrays from ``workspace``; no returned array lies in it."""
    b, n = idx.shape
    star = ds.take(idx.ravel())
    dm = build_design(star, cfg)
    M = dm.M.reshape(b, n, -1)
    r = star.r.reshape(b, n).astype(float)
    errs = ReplicateErrors(b)
    _, mu, eps, sigma2 = least_squares_batch(M, r, star.y.reshape(b, n), errs, workspace)
    z = z_stack(dm.X1.reshape(b, n, -1), mu, workspace)
    theta, _, _, gnorm = newton_batch(z, r, errs, workspace)
    eta = r.sum(axis=1) / n
    tau, *_ = tau_batch(
        eta, mu.mean(axis=1), theta, eps, errs, obs=r == 1,
        sigma2=sigma2 if normal_plugin else None,
    )
    sigma2_tau = None
    if variance:
        pieces = sandwich_batch(M, r, eps, mu, z, theta, errs, workspace)
        sigma2_tau = sigma_tau_batch(pieces, eta, theta[:, -1], variant, errs)[0]
    return ReplicateFits(
        tau=tau, sigma2_tau=sigma2_tau, converged=gnorm < SCORE_TOL, errors=errs
    )


def point_estimate(tag: str, ds: Dataset, cfg: ModelConfig):
    """The estimator registry: (tau_hat, gamma_hat, converged) for ``proposed``,
    ``normal_plugin``, ``ipw`` and ``gmm<k>``; raises MnarError on failure,
    with a LinAlgError from a solver raised as SingularDesignError."""
    check_estimator_tag(tag)
    try:
        if tag in ("proposed", "normal_plugin"):
            tau, prop, *_ = fit_tau_only(ds, cfg, normal_plugin=tag == "normal_plugin")
            return tau.tau_hat, prop.gamma_hat, prop.converged
        if tag == "ipw":
            fit = solve_ipw(ds, cfg, _ipw_basis(ds.d, cfg.p))
        else:
            fit = solve_gmm(ds, cfg, int(tag[3:]))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(str(exc)) from exc
    return fit.tau_ipw, fit.gamma_hat, fit.converged


def check_estimator_tag(tag: str) -> None:
    """Raise UsageError unless ``point_estimate`` knows ``tag``."""
    if tag not in ("proposed", "normal_plugin", "ipw") and not (
        tag.startswith("gmm") and tag[3:].isdigit()
    ):
        raise UsageError(f"unknown estimator tag {tag!r}")


def _ipw_basis(d: int, p: int):
    """The just-identified IPW basis: the first p monomials of the lowest
    total degree that has at least p of them."""
    degree = 0
    while len(monomial_basis(d, degree)) < p:
        degree += 1
    return monomial_basis(d, degree)[:p]
