"""Generative engine and study drivers.

Data are generated by the factorization X -> R|X -> eps|R: covariates come
from their marginal laws, the missingness indicator follows the induced
logistic model (whose intercept absorbs log M1(gamma)), complete-case errors
follow the base mixture, and missing-case errors follow its gamma-tilted
counterpart.  Under this mechanism the observed-subsample outcome model and
the outcome-dependent missingness model both hold exactly."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .data import NOT_IDENTIFIABLE, BasisTerm, Dataset, ModelConfig, basis_in_x1_span, select_x1
from .bootstrap import bootstrap_t_ci, check_resamples
from .errors import MnarError, SingularDesignError, UsageError
from .fitting import check_estimator_tag, fit_with_variance, point_estimate
from .inference import check_level, check_variant, wald_ci
from .propensity import _pr_observed

NCR_TAU_RANGE = (-10.0, 10.0)
NCR_GAMMA_RANGE = (-3.0, 3.0)
#: Monte Carlo draws behind a study's tau0 when none is given
TRUTH_DRAWS = 2_000_000


class GaussianMixture:
    """Finite normal mixture with closed-form MGF moments."""

    def __init__(self, components):
        self.components = tuple((float(w), float(m), float(s2)) for (w, m, s2) in components)
        if not self.components:
            raise UsageError("mixture needs at least one component")
        self.weights, self.means, self.variances = map(np.array, zip(*self.components))
        for arr in (self.weights, self.means, self.variances):
            arr.flags.writeable = False
        if (self.weights <= 0).any():
            raise UsageError("mixture weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise UsageError(f"mixture weights sum to {self.weights.sum()}, expected 1")
        if (self.variances <= 0).any():
            raise UsageError("mixture variances must be positive")

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.means))

    def m1(self, t: float) -> float:
        """E e^{t eps} = sum w_k exp(t m_k + t^2 s_k^2 / 2)."""
        w, m, s2 = self.weights, self.means, self.variances
        return float(np.sum(w * np.exp(t * m + t**2 * s2 / 2.0)))

    def m2(self, t: float) -> float:
        """E eps e^{t eps} = sum w_k (m_k + t s_k^2) exp(t m_k + t^2 s_k^2/2)."""
        w, m, s2 = self.weights, self.means, self.variances
        return float(np.sum(w * (m + t * s2) * np.exp(t * m + t**2 * s2 / 2.0)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = rng.choice(len(self.components), size=size, p=self.weights)
        return rng.normal(self.means[k], np.sqrt(self.variances[k]))


class ErrorLaw(GaussianMixture):
    """Mean-zero mixture for the complete-case regression error."""

    def __init__(self, components):
        super().__init__(components)
        if abs(self.mean) > 1e-10:
            raise UsageError(f"error law must have mean 0, got {self.mean}")

    @classmethod
    def delta_mixture(cls, delta: float) -> "ErrorLaw":
        """2/3 N(-delta, 4 - 3 delta^2) + 1/3 N(2 delta, 4)."""
        return cls([
            (2.0 / 3.0, -delta, 4.0 - 3.0 * delta**2),
            (1.0 / 3.0, 2.0 * delta, 4.0),
        ])


def tilt_error_law(law: GaussianMixture, gamma: float) -> tuple[GaussianMixture, float]:
    """Exponential tilt by e^{gamma eps} / M1(gamma): each component
    N(m, s2) maps to N(m + gamma s2, s2) with weight proportional to
    w exp(gamma m + gamma^2 s2 / 2).  Returns (tilted mixture, M1(gamma))."""
    w, m, s2 = law.weights, law.means, law.variances
    logits = gamma * m + gamma**2 * s2 / 2.0
    c = logits.max()
    raw = w * np.exp(logits - c)
    m1 = float(np.exp(c) * raw.sum())
    new_w = raw / raw.sum()
    return (
        GaussianMixture(list(zip(new_w, m + gamma * s2, s2))),
        m1,
    )


@dataclass(frozen=True)
class Scenario:
    """Generative truth: independent-normal covariates, monomial outcome
    mean, outcome-dependent logistic missingness, mixture error."""

    covariate_law: tuple[tuple[float, float], ...]  # (mean, var) per covariate
    mean_basis: tuple[BasisTerm, ...]
    xi_true: tuple[float, ...]
    x1_columns: tuple[int, ...]
    alpha0: float
    beta: tuple[float, ...]
    gamma: float
    error_law: ErrorLaw

    def __post_init__(self):
        if len(self.mean_basis) != len(self.xi_true):
            raise UsageError("mean_basis and xi_true lengths differ")
        if len(self.beta) != len(self.x1_columns):
            raise UsageError("beta and x1_columns lengths differ")
        # the covariates are independent normals, so the structural rule is
        # what check_identifiability finds in every replication
        if basis_in_x1_span(self.mean_basis, self.x1_columns):
            raise UsageError(NOT_IDENTIFIABLE)

    def model_config(self) -> ModelConfig:
        return ModelConfig(mean_basis=self.mean_basis, x1_columns=self.x1_columns)

    @property
    def alpha_induced(self) -> float:
        return self.alpha0 + np.log(self.error_law.m1(self.gamma))

    def mu_truth(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0])
        for coef, term in zip(self.xi_true, self.mean_basis):
            out += coef * term.evaluate(x)
        return out

    def pi_truth(self, x: np.ndarray) -> np.ndarray:
        """pr(R=1 | x) under the induced logistic model."""
        x1 = select_x1(x, self.x1_columns)
        u = self.alpha_induced + x1 @ np.asarray(self.beta) + self.gamma * self.mu_truth(x)
        return _pr_observed(u)

    def mean_mu(self) -> float:
        """E mu(X; xi) in closed form via normal raw moments."""
        total = 0.0
        for coef, term in zip(self.xi_true, self.mean_basis):
            term.check_dimension(len(self.covariate_law))
            prod = 1.0
            for (m, v), e in zip(self.covariate_law, term.exponents):
                prod *= _normal_raw_moment(m, v, e)
            total += coef * prod
        return float(total)


def _normal_raw_moment(mean: float, var: float, k: int) -> float:
    # recurrence: E X^k = mean E X^{k-1} + (k-1) var E X^{k-2}
    if k == 0:
        return 1.0
    m_prev2, m_prev1 = 1.0, mean
    for j in range(2, k + 1):
        m_prev2, m_prev1 = m_prev1, mean * m_prev1 + (j - 1) * var * m_prev2
    return m_prev1


def example1(alpha0: float = -1.7, delta: float = 0.0) -> Scenario:
    return Scenario(
        covariate_law=((1.0, 1.0), (0.0, 1.0)),
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1))),
        xi_true=(2.5, -1.0, 1.5),
        x1_columns=(1,),
        alpha0=alpha0,
        beta=(-0.4,),
        gamma=0.5,
        error_law=ErrorLaw.delta_mixture(delta),
    )


def example2(alpha0: float = -2.7, delta: float = 0.0) -> Scenario:
    return Scenario(
        covariate_law=((0.0, 1.0),),
        mean_basis=(BasisTerm((0,)), BasisTerm((1,)), BasisTerm((2,))),
        xi_true=(2.0, -1.0, 1.0),
        x1_columns=(1,),
        alpha0=alpha0,
        beta=(-0.4,),
        gamma=0.5,
        error_law=ErrorLaw.delta_mixture(delta),
    )


def section2_design() -> Scenario:
    """The instability showcase: y = x1 + x2 + eps, heavy gamma."""
    return Scenario(
        covariate_law=((0.0, 2.0), (0.0, 1.0)),
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1))),
        xi_true=(0.0, 1.0, 1.0),
        x1_columns=(1,),
        alpha0=-1.0,
        beta=(-1.0,),
        gamma=3.0,
        error_law=ErrorLaw([(1.0, 0.0, 1.0)]),
    )


SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "section2": section2_design,
}


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def compute_truth(sc: Scenario, mc_draws: int = 1_000_000, seed=0) -> dict:
    """tau0 = E mu(X) + (1 - eta0) M2(gamma) / M1(gamma) with analytic MGF
    moments and Monte Carlo eta0 = E pr(R=1 | X)."""
    m1 = sc.error_law.m1(sc.gamma)
    m2 = sc.error_law.m2(sc.gamma)
    rng = _rng(seed)
    total = 0.0
    remaining = int(mc_draws)
    block = 2_000_000
    while remaining > 0:
        b = min(block, remaining)
        x = _draw_covariates(sc, rng, b)
        total += float(sc.pi_truth(x).sum())
        remaining -= b
    eta0 = total / mc_draws
    tau0 = sc.mean_mu() + (1.0 - eta0) * m2 / m1
    return {
        "tau0": tau0,
        "eta0": eta0,
        "pr_missing": 1.0 - eta0,
        "alpha_induced": sc.alpha_induced,
        "m1": m1,
        "m2": m2,
        "mean_mu": sc.mean_mu(),
    }


def _draw_covariates(sc: Scenario, rng: np.random.Generator, n: int) -> np.ndarray:
    cols = [
        rng.normal(m, np.sqrt(v), size=n) for (m, v) in sc.covariate_law
    ]
    return np.column_stack(cols)


def _complete_data(sc: Scenario, n: int, seed):
    """(r, y, x) with y drawn for every row, the missing ones included."""
    check_sample_size(n)
    rng = _rng(seed)
    x = _draw_covariates(sc, rng, n)
    pi = sc.pi_truth(x)
    r = (rng.random(n) < pi).astype(np.int64)
    tilted, _ = tilt_error_law(sc.error_law, sc.gamma)
    eps = np.empty(n)
    obs = r == 1
    eps[obs] = sc.error_law.sample(rng, int(obs.sum()))
    eps[~obs] = tilted.sample(rng, int(n - obs.sum()))
    return r, sc.mu_truth(x) + eps, x


def check_sample_size(n: int) -> None:
    """Raise UsageError unless the sample size n is at least 1."""
    if n < 1:
        raise UsageError("n must be >= 1")


def generate_dataset(sc: Scenario, n: int, seed) -> Dataset:
    r, y, x = _complete_data(sc, n, seed)
    return Dataset(r=r, y=np.where(r == 1, y, np.nan), x=x)


@dataclass(frozen=True)
class StudyRow:
    """One method's study result.  ``ncr_reasons`` counts the NCR cases by
    reason: the error code of a fit that raised, else ``NONCONVERGED``,
    ``TAU_RANGE`` (tau_hat non-finite or out of range) or ``GAMMA_RANGE``,
    the first that applies; its counts sum to ``ncr``.  ``NONCONVERGED`` is
    a fit that returned ``converged=False``; ``NONCONVERGENCE`` is the code
    of a NonConvergenceError that a fit raised, as ``solve_ipw`` does when
    no start gives finite moments with a usable Jacobian."""

    method: str
    rb_percent: float
    mse_x100: float
    ncr: int
    n_reps: int
    ncr_reasons: dict = field(default_factory=dict, hash=False)


def _ncr_reason(got) -> str | None:
    """Why a replication's result counts as NCR, or None when it does not;
    ``got`` is (tau_hat, gamma_hat, converged) or the code of the MnarError
    raised."""
    if isinstance(got, str):
        return got
    tau_hat, gamma_hat, converged = got
    if not converged:
        return "NONCONVERGED"
    if not (np.isfinite(tau_hat) and NCR_TAU_RANGE[0] <= tau_hat <= NCR_TAU_RANGE[1]):
        return "TAU_RANGE"
    if not (np.isfinite(gamma_hat) and NCR_GAMMA_RANGE[0] <= gamma_hat <= NCR_GAMMA_RANGE[1]):
        return "GAMMA_RANGE"
    return None


def run_method(method: str, ds: Dataset, sc: Scenario, tau0: float):
    """Returns (tau_hat, gamma_hat, converged); raises MnarError on failure.
    ``oracle`` returns the truth; every other tag goes to ``point_estimate``."""
    if method == "oracle":
        return tau0, sc.gamma, True
    return point_estimate(method, ds, sc.model_config())


def _study_rep(args):
    """One replication: {method: (tau_hat, gamma_hat, converged), or the
    code of the MnarError raised}."""
    sc, n, tau0, child_seed, methods = args
    ds = generate_dataset(sc, n, child_seed)
    out = {}
    for method in methods:
        try:
            out[method] = run_method(method, ds, sc, tau0)
        except MnarError as exc:
            out[method] = exc.code
    return out


def _parallel_map(fn, items, threads: int):
    # the pool is made inside the pin, so forked workers inherit one BLAS
    # thread and never start OpenBLAS's thread server
    with one_blas_thread():
        if threads <= 1:
            return [fn(it) for it in items]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items, chunksize=8))


def _replicate(fn, args, sc, n, reps, seed, tau0, threads):
    """The replication driver of both studies: maps ``fn`` over
    (sc, n, tau0, child seed, *args), one child of SeedSequence(seed) per
    replication, with tau0 from ``compute_truth`` over TRUTH_DRAWS draws
    when it is None.  Returns tau0 and the results; a replication returns
    the code of an MnarError, so any other error, a UsageError among them,
    ends the study.  The sizes n and reps are checked before the truth."""
    if reps < 1:
        raise UsageError("reps must be >= 1")
    check_sample_size(n)
    if tau0 is None:
        tau0 = compute_truth(sc, TRUTH_DRAWS, seed=np.random.SeedSequence((int(seed), 1)))["tau0"]
    children = np.random.SeedSequence(int(seed)).spawn(reps)
    return tau0, _parallel_map(fn, [(sc, n, tau0, s, *args) for s in children], threads)


def check_methods(methods: list[str]) -> None:
    """Raise UsageError for an empty method list or an unknown tag."""
    if not methods:
        raise UsageError("methods is empty: name at least one estimator")
    for method in methods:
        if method != "oracle":
            check_estimator_tag(method)


def run_study(
    sc: Scenario,
    n: int,
    reps: int,
    methods: list[str],
    seed=0,
    tau0: float | None = None,
    threads: int = 1,
) -> list[StudyRow]:
    """RB/MSE/NCR study.  RB and MSE are computed over non-NCR cases only;
    failed fits count as NCR and never abort the study, but an unknown
    method tag raises UsageError before any replication, and a tag that a
    fit rejects, such as ``gmm1`` on one covariate, raises it from the
    first replication.  An empty method list raises UsageError before any
    truth or replication is computed."""
    check_methods(methods)
    tau0, results = _replicate(
        _study_rep, (tuple(methods),), sc, n, reps, seed, tau0, threads
    )
    rows = []
    for method in methods:
        taus = []
        reasons: dict = {}
        for res in results:
            reason = _ncr_reason(res[method])
            if reason is None:
                taus.append(res[method][0])
            else:
                reasons[reason] = reasons.get(reason, 0) + 1
        err = np.asarray(taus) - tau0
        rb = 100.0 * float(np.mean(err)) / tau0 if err.size else np.nan
        mse = 100.0 * float(np.mean(err**2)) if err.size else np.nan
        rows.append(StudyRow(method, rb, mse, sum(reasons.values()), reps, reasons))
    return rows


def _coverage_rep(args):
    """One replication: (lower, upper) of its interval, or the code of the
    MnarError raised, with a LinAlgError counted as SINGULAR."""
    sc, n, _, child_seed, ci_method, level, boot_b, variant = args
    ds = generate_dataset(sc, n, child_seed)
    cfg = sc.model_config()
    try:
        if ci_method == "wald":
            tau, _, var = fit_with_variance(ds, cfg, variant)
            ci = wald_ci(tau.tau_hat, var.sigma2_tau, ds.n, level)
        else:
            boot_seed = int(child_seed.generate_state(1)[0])
            ci = bootstrap_t_ci(
                ds, cfg, level=level, B=boot_b, seed=boot_seed, variant=variant
            ).ci
    except MnarError as exc:
        return exc.code
    except np.linalg.LinAlgError:
        return SingularDesignError.code
    return ci.lower, ci.upper


def run_coverage_study(
    sc: Scenario,
    n: int,
    reps: int,
    ci_method: str = "wald",
    level: float = 0.95,
    seed=0,
    boot_b: int = 1000,
    tau0: float | None = None,
    variant: str = "printed",
    threads: int = 1,
) -> dict:
    """Coverage of tau0 by the ``wald`` or ``bootstrap_t`` interval.  A
    replication whose fit fails is left out of the coverage and the mean
    width, and ``failure_counts`` counts it by error code; its counts sum to
    ``n_failures``.  A wrong argument raises UsageError."""
    check_level(level)
    if ci_method not in ("wald", "bootstrap_t"):
        raise UsageError(f"unknown CI method {ci_method!r}")
    check_variant(variant)
    if ci_method == "bootstrap_t":
        check_resamples(boot_b)
    tau0, results = _replicate(
        _coverage_rep, (ci_method, level, boot_b, variant), sc, n, reps, seed, tau0, threads
    )
    covered = 0
    widths = []
    failures: dict = {}
    for res in results:
        if isinstance(res, str):
            failures[res] = failures.get(res, 0) + 1
            continue
        lo, hi = res
        covered += int(lo <= tau0 <= hi)
        widths.append(hi - lo)
    return {
        "coverage_percent": 100.0 * covered / len(widths) if widths else np.nan,
        "mean_width": float(np.mean(widths)) if widths else np.nan,
        "n_failures": sum(failures.values()),
        "failure_counts": failures,
        "tau0": tau0,
    }
