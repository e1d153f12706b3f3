"""Plug-in sandwich variance machinery: the A-matrices, the joint covariance
of (xi_hat, theta_hat), the B/C moment pieces, the Gram matrix V_hat of the
per-row score vectors, the delta-method vector D_hat for tau_hat, and the
Wald confidence interval.

A note on the H1 variants: the printed delta-method row for the mean-basis
block contains a scalar factor (B2 - B1*B3) where the structurally parallel
factor in H2 is (B2^2 - B1*B3).  The shipped default is the printed form;
``variant="alternative"`` substitutes (B2^2 - B1*B3), and
``variant="derived"`` additionally multiplies the leading C1 coefficient by
gamma, which is what a direct delta-method derivation yields.  A Monte Carlo
calibration study comparing the variants lives in the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._workspace import Workspace
from .data import Dataset, DesignMatrices, ModelConfig, select_x1
from .errors import (
    MgfOverflowError,
    ReplicateErrors,
    SingularDesignError,
    UsageError,
    linalg_each,
)
from .mean_response import check_mgf_range
from .outcome import OutcomeFit
from .propensity import PropensityFit, _pr_observed, _predictor, z_stack

COND_LIMIT = 1e12

H1_VARIANTS = ("printed", "alternative", "derived")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str


@dataclass(frozen=True)
class SandwichPieces:
    A1: np.ndarray  # q x q
    A2: np.ndarray  # p x p
    A3: np.ndarray  # p x q
    A4: np.ndarray  # q
    B: tuple[float, float, float]
    C1: np.ndarray  # q
    C2: np.ndarray  # q
    V: np.ndarray  # m x m, m = 1 + q + p + 3


@dataclass(frozen=True)
class VarianceEstimates:
    Sigma: np.ndarray
    sigma2_tau: float
    D: np.ndarray
    clipped: bool


def _A_matrices(Mt, r, zt, pi, workspace: Workspace):
    """A1 = n^-1 sum r M_i' M_i,  A2 = n^-1 sum w_i z_i z_i',
    A3 = n^-1 sum w_i z_i M_i,  A4 = n^-1 sum M_i',  w_i = pi_i (1 - pi_i),
    from the feature-major Mt (..., q, n) and zt (..., p, n); grad_xi mu is
    the basis row M_i (mu is linear in xi) and grad_theta phi = z_i =
    (1, x1_i, mu_hat_i).  The two products weighted per row lie in the
    ``arena`` slot of ``workspace``."""
    n = Mt.shape[-1]
    Mr, zw = workspace.arrays("arena", Mt.shape, zt.shape)
    w = 1.0 - pi
    w *= pi
    np.multiply(zt, w[..., None, :], out=zw)
    Mtt, ztt = Mt.swapaxes(-1, -2), zt.swapaxes(-1, -2)
    return (
        np.multiply(Mt, r[..., None, :], out=Mr) @ Mtt / n,
        zw @ ztt / n,
        zw @ Mtt / n,
        Mt.mean(axis=-1),
    )


@np.errstate(divide="ignore", invalid="ignore")
def _checked_inverse(A: np.ndarray, name: str, errs: ReplicateErrors) -> np.ndarray:
    """Inverses of the stacked A; a member fails when the condition number of
    D^-1/2 A D^-1/2, D = diag(A), exceeds COND_LIMIT or is NaN, or when
    LAPACK cannot factor it.  The scaling makes the test independent of the
    units of the covariates."""

    def error(j):
        return SingularDesignError(f"{name} is numerically singular")

    d = 1.0 / np.sqrt(np.diagonal(A, axis1=-2, axis2=-1))
    cond, failed = linalg_each(
        np.linalg.cond, A.shape[:-2], A * d[..., :, None] * d[..., None, :]
    )
    errs.record(list(failed), error)
    errs.record(np.flatnonzero(~(cond <= COND_LIMIT)), error)
    rows = np.flatnonzero(errs.ok)
    inv = np.full(A.shape, np.nan)
    inv[rows], failed = linalg_each(np.linalg.inv, (rows.size,) + A.shape[1:], A[rows])
    errs.record(rows[list(failed)], error)
    return inv


def _joint_covariance(A1inv, A2inv, A3, sigma2_hat, gamma_hat) -> np.ndarray:
    """Joint asymptotic covariance of sqrt(n) (xi_hat, theta_hat)."""
    q = A1inv.shape[0]
    p = A2inv.shape[0]
    top_left = sigma2_hat * A1inv
    top_right = -gamma_hat * sigma2_hat * A1inv @ A3.T @ A2inv
    bottom_right = A2inv + gamma_hat**2 * sigma2_hat * (
        A2inv @ A3 @ A1inv @ A3.T @ A2inv
    )
    Sigma = np.empty((q + p, q + p))
    Sigma[:q, :q] = top_left
    Sigma[:q, q:] = top_right
    Sigma[q:, :q] = top_right.T
    Sigma[q:, q:] = bottom_right
    return (Sigma + Sigma.T) / 2.0


def _score_rows(Mt, mu_hat, r, zt, pi, eps, e, B, workspace: Workspace):
    """Per-row estimating-function residuals S_hat (..., q + p + 4, n),
    feature-major, of psi = (r - eta, M r eps, z (r - pi), mu - mu_bar,
    r e^{g eps} - B1, r eps e^{g eps} - B2), for Mt and zt as in
    _A_matrices; they lie in the ``arena`` slot of ``workspace``."""
    B1, B2, _ = B
    q, p = Mt.shape[-2], zt.shape[-2]
    (S,) = workspace.arrays("arena", mu_hat.shape[:-1] + (q + p + 4, mu_hat.shape[-1]))
    np.subtract(r, r.mean(axis=-1, keepdims=True), out=S[..., 0, :])
    np.multiply(Mt, (r * eps)[..., None, :], out=S[..., 1 : 1 + q, :])
    np.multiply(zt, (r - pi)[..., None, :], out=S[..., 1 + q : 1 + q + p, :])
    np.subtract(mu_hat, mu_hat.mean(axis=-1, keepdims=True), out=S[..., -3, :])
    np.subtract(e, np.expand_dims(B1, -1), out=S[..., -2, :])
    np.multiply(eps, e, out=S[..., -1, :])
    S[..., -1, :] -= np.expand_dims(B2, -1)
    return S


@np.errstate(all="ignore")
def sandwich_batch(
    M, r, eps, mu_hat, z, theta, errs: ReplicateErrors, workspace: Workspace
) -> SandwichPieces:
    """build_sandwich for b fits at once: M (b, n, q), r, eps and mu_hat
    (b, n), z (b, n, p) and theta (b, p).  Every piece gains a leading
    replicate axis, and B is a tuple of three (b,) arrays.  pi and the tilts
    come from the ``rows`` slot of ``workspace``, and the scratch arrays of
    the A-matrices and of B, and then the score rows, from its ``arena``."""
    b, n, _ = M.shape
    Mt = np.ascontiguousarray(M.swapaxes(1, 2))
    zt = np.ascontiguousarray(z.swapaxes(1, 2))
    pi, s = workspace.arrays("rows", (b, n), (b, n))
    _pr_observed(_predictor(theta, zt), out=pi)
    np.multiply(theta[:, -1:], eps, out=s)
    check_mgf_range(s, errs, obs=r == 1)
    e = np.exp(s, out=s)
    e *= r
    A1, A2, A3, A4 = _A_matrices(Mt, r, zt, pi, workspace)
    ee, eee = workspace.arrays("arena", (b, n), (b, n))
    np.multiply(eps, e, out=ee)
    B = (e.mean(axis=1), ee.mean(axis=1), np.multiply(eps, ee, out=eee).mean(axis=1))
    C1 = (Mt @ e[..., None])[..., 0] / n
    C2 = (Mt @ ee[..., None])[..., 0] / n
    del ee, eee  # the score rows take their place in the arena
    S = _score_rows(Mt, mu_hat, r, zt, pi, eps, e, B, workspace)
    V = S @ S.swapaxes(-1, -2) / n
    return SandwichPieces(A1=A1, A2=A2, A3=A3, A4=A4, B=B, C1=C1, C2=C2, V=V)


def build_sandwich(
    ds: Dataset,
    dm: DesignMatrices,
    mu_hat: np.ndarray,
    outcome_fit: OutcomeFit,
    propensity_fit: PropensityFit,
    cfg: ModelConfig,
) -> SandwichPieces:
    """The A-matrices, B_k = n^-1 sum r eps^{k-1} e^{g eps} (k=1,2,3),
    C_k = n^-1 sum r eps^{k-1} e^{g eps} M_i' (k=1,2), and V_hat = n^-1 S'S
    of the score rows: sandwich_batch with b = 1."""
    eps = np.zeros(ds.n)  # 0 where y is missing
    eps[ds.r == 1] = outcome_fit.residuals
    errs, workspace = ReplicateErrors(1), Workspace()
    z = z_stack(select_x1(ds.x, cfg.x1_columns)[None], mu_hat[None], workspace)
    pieces = sandwich_batch(
        dm.M[None], ds.r[None].astype(float), eps[None], mu_hat[None], z,
        propensity_fit.theta_hat[None], errs, workspace,
    )
    errs.raise_first()
    return _map_pieces(pieces, lambda a: a[0])


def _map_pieces(pieces: SandwichPieces, fn) -> SandwichPieces:
    """The pieces with ``fn`` applied to every array and to each B_k."""
    arrays = ("A1", "A2", "A3", "A4", "C1", "C2", "V")
    return SandwichPieces(
        B=tuple(fn(v) for v in pieces.B), **{f: fn(getattr(pieces, f)) for f in arrays}
    )


def _vm(v, A):
    """Row vectors times matrices over a leading replicate axis."""
    return (v[:, None, :] @ A)[:, 0]


@np.errstate(all="ignore")
def sigma_tau_batch(
    pieces: SandwichPieces, eta, gamma, variant: str, errs: ReplicateErrors
):
    """estimate_sigma_tau for b fits at once, on the pieces of
    sandwich_batch with eta and gamma (b,).  Returns (sigma2_tau, D, clipped,
    A1inv, A2inv), each with a leading replicate axis."""
    check_variant(variant)
    A1inv = _checked_inverse(pieces.A1, "A1", errs)
    A2inv = _checked_inverse(pieces.A2, "A2", errs)
    B1, B2, B3 = pieces.B
    errs.record(
        np.flatnonzero(~(B1 > 0)),
        lambda j: SingularDesignError(f"B1 must be positive, got {B1[j]}"),
    )
    one_minus_eta = 1.0 - eta
    ep_A2inv = A2inv[:, -1, :]  # gamma occupies the last theta slot

    c1_coef = B2 / B1**2
    if variant == "derived":
        c1_coef = c1_coef * gamma
    h1_factor = B2 - B1 * B3 if variant == "printed" else B2**2 - B1 * B3

    def col(v):
        return v[:, None]

    H1 = (
        _vm(pieces.A4, A1inv)
        + _vm(
            col(one_minus_eta)
            * (col(c1_coef) * pieces.C1 - pieces.C1 / col(B1) - col(gamma) * pieces.C2 / col(B1)),
            A1inv,
        )
        + col((one_minus_eta * gamma / B1**2) * h1_factor)
        * _vm(_vm(ep_A2inv, pieces.A3), A1inv)
    )
    H2 = col((B2**2 - B1 * B3) * one_minus_eta / B1**2) * ep_A2inv

    D = np.concatenate(
        [
            col(-B2 / B1),
            H1,
            H2,
            np.column_stack(
                [np.ones_like(B1), -one_minus_eta * B2 / B1**2, one_minus_eta / B1]
            ),
        ],
        axis=1,
    )
    s2 = (D[:, None, :] @ pieces.V @ D[:, :, None])[:, 0, 0]
    errs.record(
        np.flatnonzero(~np.isfinite(s2)),
        lambda j: MgfOverflowError(
            "sigma2_tau is not finite: the tilt e^{gamma eps} overflows a float"
        ),
    )
    clipped = s2 < 0.0
    s2 = np.where(clipped, 0.0, s2)
    return s2, D, clipped, A1inv, A2inv


def estimate_sigma_tau(
    pieces: SandwichPieces,
    eta_hat: float,
    gamma_hat: float,
    sigma2_hat: float,
    variant: str = "printed",
) -> VarianceEstimates:
    """Assemble D_hat and sigma2_tau = D' V D: sigma_tau_batch with b = 1.
    ``variant`` selects the H1 scalar-factor convention (see module
    docstring)."""
    errs = ReplicateErrors(1)
    s2, D, clipped, A1inv, A2inv = sigma_tau_batch(
        _map_pieces(pieces, lambda a: np.asarray(a, dtype=float)[None]),
        np.array([eta_hat]),
        np.array([gamma_hat]),
        variant,
        errs,
    )
    errs.raise_first()
    Sigma = _joint_covariance(A1inv[0], A2inv[0], pieces.A3, sigma2_hat, gamma_hat)
    return VarianceEstimates(
        Sigma=Sigma, sigma2_tau=float(s2[0]), D=D[0], clipped=bool(clipped[0])
    )


def check_level(level: float) -> None:
    """Raise UsageError unless the confidence level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise UsageError(f"confidence level must lie in (0, 1), got {level}")


def check_variant(variant: str) -> None:
    """Raise UsageError unless ``variant`` is one of H1_VARIANTS."""
    if variant not in H1_VARIANTS:
        raise UsageError(f"unknown H1 variant {variant!r}; use one of {H1_VARIANTS}")


def wald_ci(
    tau_hat: float, sigma2_tau: float, n: int, level: float = 0.95
) -> ConfidenceInterval:
    """tau_hat +- z_{1-a/2} sqrt(sigma2_tau / n); the /sqrt(n) rescaling puts
    the sqrt(n)-normalized limit variance back on the data scale."""
    check_level(level)
    if not sigma2_tau >= 0 or n < 1:
        raise UsageError("sigma2_tau must be >= 0 and n >= 1")
    zq = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
    half = zq * np.sqrt(sigma2_tau / n)
    return ConfidenceInterval(
        lower=float(tau_hat - half),
        upper=float(tau_hat + half),
        level=level,
        method="wald",
    )
