"""The benchmark's own model of the paper's simulation designs.

Everything here is written from the paper's definitions, without calling
``mnarmean``: the scenario constants, the true mean tau0, a data generator
that follows the same factorisation as the paper (X, then R given X from the
induced logistic model, then the error given R), a CSV writer, and the
reference least-squares fit.  The workloads check the program against these.

tau0 = E mu(X) + (1 - eta0) M2(gamma) / M1(gamma), where
  * E mu(X) comes from raw moments of the independent normal covariates,
  * M1, M2 are the error mixture's moment-generating functionals in closed
    form, and
  * eta0 = E pr(R = 1 | X) is a tensor Gauss-Hermite quadrature over X.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

QUADRATURE_NODES = 80


@dataclass(frozen=True)
class Design:
    """One simulation scenario: independent normal covariates, a monomial
    outcome mean, logistic missingness in (x1, y), and the two-component
    error mixture 2/3 N(-delta, 4 - 3 delta^2) + 1/3 N(2 delta, 4)."""

    name: str
    covariates: tuple[tuple[float, float], ...]  # (mean, variance) per column
    terms: tuple[tuple[int, ...], ...]  # exponent vector per mean-basis term
    xi: tuple[float, ...]
    x1: int  # 0-based index of the covariate entering the selection model
    beta: float
    gamma: float
    alpha0: float
    delta: float

    @property
    def mixture(self):
        """(weights, means, variances) of the complete-case error law."""
        d = self.delta
        return (
            np.array([2.0 / 3.0, 1.0 / 3.0]),
            np.array([-d, 2.0 * d]),
            np.array([4.0 - 3.0 * d * d, 4.0]),
        )

    def model_config_json(self) -> str:
        """The mean basis and selection column as ``mnarmean`` reads them."""
        return json.dumps(
            {"mean_basis": [list(t) for t in self.terms], "x1_columns": [self.x1 + 1]}
        )


def example1(alpha0: float, delta: float) -> Design:
    return Design(
        name="example1",
        covariates=((1.0, 1.0), (0.0, 1.0)),
        terms=((0, 0), (1, 0), (0, 1)),
        xi=(2.5, -1.0, 1.5),
        x1=0,
        beta=-0.4,
        gamma=0.5,
        alpha0=alpha0,
        delta=delta,
    )


def example2(alpha0: float, delta: float) -> Design:
    return Design(
        name="example2",
        covariates=((0.0, 1.0),),
        terms=((0,), (1,), (2,)),
        xi=(2.0, -1.0, 1.0),
        x1=0,
        beta=-0.4,
        gamma=0.5,
        alpha0=alpha0,
        delta=delta,
    )


#: (design, tau0, pr(missing)) as printed in the paper's simulation table
PAPER_TABLE = (
    (example1(-1.7, 0.0), 2.177, 0.339),
    (example1(-1.7, 1.0), 2.587, 0.369),
    (example2(-2.7, 1.0), 4.088, 0.369),
)
PAPER_TOL = 0.005


def normal_raw_moment(mean: float, var: float, k: int) -> float:
    """E X^k for X ~ N(mean, var), by the binomial expansion
    sum_j C(k, 2j) mean^(k-2j) var^j (2j - 1)!!."""
    total = 0.0
    for j in range(k // 2 + 1):
        double_factorial = math.prod(range(1, 2 * j, 2))
        total += math.comb(k, 2 * j) * mean ** (k - 2 * j) * var**j * double_factorial
    return total


def mgf_moments(design: Design) -> tuple[float, float]:
    """M1(g) = E e^{g eps} and M2(g) = E eps e^{g eps} of the error mixture."""
    w, m, v = design.mixture
    g = design.gamma
    e = w * np.exp(g * m + 0.5 * g * g * v)
    return float(e.sum()), float(((m + g * v) * e).sum())


def mean_mu(design: Design) -> float:
    total = 0.0
    for coef, exps in zip(design.xi, design.terms):
        total += coef * math.prod(
            normal_raw_moment(mu, var, e) for (mu, var), e in zip(design.covariates, exps)
        )
    return total


def mu(design: Design, x: np.ndarray) -> np.ndarray:
    return basis(design, x) @ np.asarray(design.xi)


def basis(design: Design, x: np.ndarray) -> np.ndarray:
    """n x q matrix of the mean-basis monomials."""
    cols = [np.prod(x ** np.asarray(e, dtype=float), axis=1) for e in design.terms]
    return np.column_stack(cols)


def prob_observed(design: Design, x: np.ndarray) -> np.ndarray:
    """pr(R = 1 | x) = 1 / (1 + exp(alpha0 + log M1(g) + beta x1 + g mu(x)))."""
    m1, _ = mgf_moments(design)
    u = design.alpha0 + math.log(m1) + design.beta * x[:, design.x1] + design.gamma * mu(design, x)
    return 1.0 / (1.0 + np.exp(u))


def eta0(design: Design) -> float:
    """E pr(R = 1 | X) by tensor-product Gauss-Hermite quadrature."""
    nodes, weights = hermegauss(QUADRATURE_NODES)
    weights = weights / math.sqrt(2.0 * math.pi)
    d = len(design.covariates)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    wgrid = np.ones_like(grids[0])
    for wg in np.meshgrid(*([weights] * d), indexing="ij"):
        wgrid = wgrid * wg
    x = np.column_stack(
        [mean + math.sqrt(var) * g.ravel() for (mean, var), g in zip(design.covariates, grids)]
    )
    return float(np.sum(wgrid.ravel() * prob_observed(design, x)))


def tau0(design: Design) -> tuple[float, float]:
    """(tau0, pr(missing)) for a design."""
    m1, m2 = mgf_moments(design)
    eta = eta0(design)
    return mean_mu(design) + (1.0 - eta) * m2 / m1, 1.0 - eta


def paper_table_mismatches() -> list[str]:
    """Rows of the paper's table that these computations do not reproduce."""
    bad = []
    for design, tau_paper, miss_paper in PAPER_TABLE:
        t, miss = tau0(design)
        if abs(t - tau_paper) > PAPER_TOL or abs(miss - miss_paper) > PAPER_TOL:
            bad.append(
                f"{design.name} alpha0={design.alpha0} delta={design.delta}: "
                f"tau0 {t:.4f} vs {tau_paper}, pr(missing) {miss:.4f} vs {miss_paper}"
            )
    return bad


def generate(design: Design, n: int, rng: np.random.Generator):
    """(r, y, x) with y = NaN where r = 0.  Complete-case errors follow the
    mixture; missing-case errors follow its e^{g eps}-tilted version, whose
    components are N(m + g v, v) with weights proportional to
    w exp(g m + g^2 v / 2)."""
    x = np.column_stack(
        [rng.normal(mean, math.sqrt(var), size=n) for mean, var in design.covariates]
    )
    r = (rng.random(n) < prob_observed(design, x)).astype(np.int64)
    w, m, v = design.mixture
    g = design.gamma
    tilt = w * np.exp(g * m + 0.5 * g * g * v)
    eps = np.empty(n)
    for flag, weights, means in ((1, w, m), (0, tilt / tilt.sum(), m + g * v)):
        rows = np.flatnonzero(r == flag)
        k = rng.choice(len(weights), size=rows.size, p=weights)
        eps[rows] = rng.normal(means[k], np.sqrt(v[k]))
    y = np.where(r == 1, mu(design, x) + eps, np.nan)
    return r, y, x


def write_csv(path, y: np.ndarray, x: np.ndarray) -> None:
    """Header ``y,x1,...``; a missing y is an empty field; floats are written
    with repr so that reading them back gives the same doubles."""
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(x.shape[1])])
    lines = [header]
    for yi, xi in zip(y.tolist(), x.tolist()):
        cell = "" if yi != yi else repr(yi)
        lines.append(cell + "," + ",".join(map(repr, xi)))
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write a file afresh.  An existing file is unlinked first rather than
    truncated: on ext4, truncating a file that was just written forces a
    flush, which made rewriting inputs some 100 times slower."""
    if os.path.exists(path):
        os.remove(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(y, x) read back with numpy; an empty y field becomes NaN."""
    table = np.genfromtxt(path, delimiter=",", skip_header=1)
    table = np.atleast_2d(table)
    return table[:, 0], table[:, 1:]


def complete_case_lstsq(design: Design, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    obs = ~np.isnan(y)
    coef, *_ = np.linalg.lstsq(basis(design, x[obs]), y[obs], rcond=None)
    return coef
