"""Step 1: least-squares fit of the outcome mean on complete cases, with
residuals and the error-variance plug-in (divides by n1, not n1 - q).

``least_squares_batch`` fits b designs at once; ``fit_least_squares`` is its
b = 1 case."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workspace import Workspace
from .data import Dataset, DesignMatrices
from .errors import DegenerateDataError, ReplicateErrors, SingularDesignError

#: a design column whose part outside the span of the columns before it is
#: at most RANK_TOL times its own norm is linearly dependent on them
RANK_TOL = 1e-10


@dataclass(frozen=True)
class OutcomeFit:
    xi_hat: np.ndarray
    residuals: np.ndarray  # over complete cases, in row order
    sigma2_hat: float
    n1: int


@np.errstate(all="ignore")
def least_squares_batch(M, r, y, errs: ReplicateErrors, workspace: Workspace):
    """xi_hat = argmin sum_{r_i=1} (y_i - M_i xi)^2 for b designs at once:
    M (b, n, q), r and y (b, n).  Missing rows are zeroed, which leaves each
    fit that of its complete cases.  Returns xi (b, q), mu = M xi (b, n), the
    residuals eps (b, n), 0 where y is missing, and sigma2 (b,); a failed
    replicate has xi = 0.  The [M | y] block comes from the ``arena`` slot
    of ``workspace``."""
    b, n, q = M.shape
    obs = r == 1
    n1 = obs.sum(axis=1)
    errs.record(
        np.flatnonzero(n1 < q),
        lambda j: DegenerateDataError(
            f"only {n1[j]} complete cases for {q} mean parameters"
        ),
    )
    # one R factor of [M | y] over the complete cases: its leading q x q block
    # is the R of M, and the column above its corner is Q'y, so that
    # xi = R^-1 Q'y needs no Q (Golub & Van Loan, Matrix Computations, 5.3)
    (My,) = workspace.arrays("arena", (b, q + 1, n))
    np.multiply(M.swapaxes(1, 2), obs[:, None, :], out=My[:, :q])
    My[:, q] = np.where(obs, y, 0.0)
    Ry = np.linalg.qr(My.swapaxes(1, 2), mode="r")
    del My  # freed before mu and eps are formed
    R = Ry[:, :q, :q]
    # |R_kk| is the part of complete-case column k outside the span of the
    # columns before it, and column k of R has that column's norm
    lead = np.abs(np.diagonal(R, axis1=1, axis2=2))
    dependent = ~(lead > RANK_TOL * np.linalg.norm(R[..., : lead.shape[1]], axis=1))
    errs.record(
        np.flatnonzero(dependent.any(axis=1)),
        lambda j: SingularDesignError(
            f"rank-deficient design: columns {np.flatnonzero(dependent[j]).tolist()} "
            "are linearly dependent on the columns before them"
        ),
    )
    ok = errs.ok
    xi = np.zeros((b, q))
    if ok.any():  # R is not square when n < q, and then no replicate is ok
        xi[ok] = np.linalg.solve(R[ok], Ry[ok, :q, q, None])[..., 0]
    mu = (M @ xi[..., None])[..., 0]
    eps = np.where(obs, y - mu, 0.0)
    sigma2 = np.einsum("bn,bn->b", eps, eps) / n1
    return xi, mu, eps, sigma2


def fit_least_squares(ds: Dataset, dm: DesignMatrices) -> OutcomeFit:
    """xi_hat = argmin sum_{r_i=1} (y_i - M_i xi)^2: least_squares_batch
    with b = 1."""
    errs = ReplicateErrors(1)
    xi, _, eps, sigma2 = least_squares_batch(
        dm.M[None], ds.r[None], ds.y[None], errs, Workspace()
    )
    errs.raise_first()
    obs = ds.r == 1
    return OutcomeFit(
        xi_hat=xi[0], residuals=eps[0][obs], sigma2_hat=float(sigma2[0]), n1=int(obs.sum())
    )


def predict_mu(fit: OutcomeFit, dm: DesignMatrices) -> np.ndarray:
    """mu(x_i; xi_hat) for every row, including missing-y rows."""
    if dm.M.shape[1] != fit.xi_hat.shape[0]:
        raise SingularDesignError(
            f"design has {dm.M.shape[1]} columns, fit has {fit.xi_hat.shape[0]}"
        )
    return dm.M @ fit.xi_hat
