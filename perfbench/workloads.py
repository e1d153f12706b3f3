"""The four workloads.  Each is a closed loop with one client: ``op(i)`` makes
one call into ``mnarmean`` and returns its latency, the problems its output
checks found, and what the run-level checks need from it.

Every check compares the program with an independent computation from
``truth`` or with a property the method must have; none compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
import time
from statistics import NormalDist

import numpy as np
from mnarmean import cli, data, ipw, simulate

import truth

Z975 = NormalDist().inv_cdf(0.975)


def op_seed(seed: int, i: int) -> int:
    """The program's seed for operation i of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def binom_quantile(k: int, p: float, q: float) -> int:
    """Smallest c with pr(Binomial(k, p) <= c) >= q."""
    cdf = 0.0
    for c in range(k + 1):
        log_pmf = (math.lgamma(k + 1) - math.lgamma(c + 1) - math.lgamma(k - c + 1)
                   + c * math.log(p) + (k - c) * math.log1p(-p))
        cdf += math.exp(log_pmf)
        if cdf >= q:
            return c
    return k


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def wald_problems(res: dict, n: int) -> list[str]:
    """The Wald interval must be tau_hat +- z sqrt(sigma2_tau / n)."""
    half = Z975 * math.sqrt(res["sigma2_tau"] / n)
    lo, hi = res["wald_ci"]
    if close(lo, res["tau_hat"] - half, 1e-9) and close(hi, res["tau_hat"] + half, 1e-9):
        return []
    return [f"wald_ci {res['wald_ci']} is not tau_hat +- z sqrt(sigma2_tau / n)"]


def pvalue_problems(res: dict) -> list[str]:
    diag = res.get("diagnostics", {})
    bad = [
        f"{test} p-value {diag[test]['p_value']} outside [0, 1]"
        for test in ("ncv", "uss")
        if test in diag and not 0.0 <= diag[test]["p_value"] <= 1.0
    ]
    if set(diag) != {"ncv", "uss"}:
        bad.append(f"diagnostics missing: got {sorted(diag)}")
    return bad


def bias_problems(row, tau0: float) -> list[str]:
    """Mean tau_hat must lie within 4 sqrt(MSE / reps) of tau0."""
    reliable = row.n_reps - row.ncr
    mean_err = row.rb_percent / 100.0 * tau0
    limit = 4.0 * math.sqrt(row.mse_x100 / 100.0 / reliable)
    if abs(mean_err) <= limit:
        return []
    return [f"{row.method}: mean tau_hat - tau0 = {mean_err:.4g} beyond 4 sqrt(MSE/reps) = {limit:.4g}"]


class Workload:
    name = ""
    round_len = 1  # operations in one round; a run attempts whole rounds

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.dir = os.path.join(work_dir, self.name)

    def prepare(self):
        """Generate and write the inputs.  This is the timed set-up."""

    def before(self):
        """Reference computations the checks need, outside all timing."""

    def op(self, i: int):
        raise NotImplementedError

    def after(self, observations: list) -> list[str]:
        """Run-level checks over the timed operations."""
        return []


class CliFit(Workload):
    """Shared part of the two workloads that run ``mnarmean fit`` through
    ``cli.main`` on CSV files written by ``truth``."""

    def prepare(self):
        os.makedirs(self.dir, exist_ok=True)
        self.config = os.path.join(self.dir, "model.json")
        truth.write_text(self.config, self.design.model_config_json())
        self.out = os.path.join(self.dir, "out.json")

    def write_input(self, path: str, key: int):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, key)))
        _, y, x = truth.generate(self.design, self.n, rng)
        truth.write_csv(path, y, x)

    def fit(self, argv: list[str]):
        """(latency, exit code, parsed output or None)."""
        if os.path.exists(self.out):
            os.remove(self.out)
        start = time.perf_counter()
        code = cli.main(argv + ["--model-config", self.config, "--out", self.out])
        latency = time.perf_counter() - start
        if code != 0:
            return latency, code, None
        with open(self.out, encoding="utf-8") as fh:
            return latency, code, json.load(fh)


class BootTSmall(CliFit):
    """``fit --bootstrap 399 --diagnostics`` on a fresh n = 500 file of
    Example 1 (delta = 1, alpha0 = -1.7) per operation.

    Only the Wald intervals are held to 95% coverage.  With the CLI's
    default variance variant the bootstrap-t interval covers tau0 in about
    88% of such files, so that check would fail on a third of the seeds;
    the count is printed but not checked (see README.md)."""

    name = "boot-t-small"
    design = truth.example1(-1.7, 1.0)
    n = 500
    B = 399
    files = 256  # operations past this many reuse the files in turn

    def data_path(self, k: int) -> str:
        return os.path.join(self.dir, f"data-{k:03d}.csv")

    def prepare(self):
        super().prepare()
        for k in range(self.files):
            self.write_input(self.data_path(k), k)

    def before(self):
        self.tau0, _ = truth.tau0(self.design)

    def op(self, i):
        argv = ["fit", "--data", self.data_path(i % self.files), "--bootstrap", str(self.B),
                "--diagnostics", "--seed", str(op_seed(self.seed, i))]
        latency, code, res = self.fit(argv)
        if res is None:
            return latency, [f"exit code {code}"], None
        problems = wald_problems(res, self.n) + pvalue_problems(res)
        if res["bootstrap_successful"] < 0.95 * self.B:
            problems.append(f"only {res['bootstrap_successful']} of {self.B} resamples succeeded")
        lo, hi = res["bootstrap_ci"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            problems.append(f"bootstrap_ci {res['bootstrap_ci']} is not a finite interval")
        covers = None
        if i < self.files:
            covers = (
                res["wald_ci"][0] <= self.tau0 <= res["wald_ci"][1],
                lo <= self.tau0 <= hi,
            )
        return latency, problems, covers

    def after(self, observations):
        problems = []
        covers = [c for c in observations if c is not None]
        wald, boot = (sum(c[j] for c in covers) for j in (0, 1))
        print(f"tau0 covered by {wald} Wald and {boot} bootstrap-t intervals of {len(covers)}")
        floor = binom_quantile(len(covers), 0.95, 0.001)
        if wald < floor:
            problems.append(
                f"Wald intervals cover tau0 {wald} of {len(covers)} times, "
                f"below the 0.1% binomial quantile {floor}"
            )
        return problems + self.permutation_problems()

    def permutation_problems(self):
        """A row-permuted copy of a file must give the same tau_hat and theta_hat."""
        y, x = truth.read_csv(self.data_path(0))
        perm = np.random.default_rng(np.random.SeedSequence((self.seed, 1 << 20))).permutation(y.size)
        permuted = os.path.join(self.dir, "permuted.csv")
        truth.write_csv(permuted, y[perm], x[perm])
        fits = [self.fit(["fit", "--data", path])[2] for path in (self.data_path(0), permuted)]
        if None in fits:
            return ["fit failed in the row-permutation check"]
        a, b = fits
        same = close(a["tau_hat"], b["tau_hat"], 1e-9) and all(
            close(u, v, 1e-9) for u, v in zip(a["theta_hat"], b["theta_hat"])
        )
        return [] if same else [f"row permutation changed the fit: {a['tau_hat']} vs {b['tau_hat']}"]


class FitLargeCsv(CliFit):
    """``fit --diagnostics`` on one 100 000-row CSV of Example 2
    (delta = 1, alpha0 = -2.7)."""

    name = "fit-large-csv"
    design = truth.example2(-2.7, 1.0)
    n = 100_000

    def prepare(self):
        super().prepare()
        self.data = os.path.join(self.dir, "data.csv")
        self.write_input(self.data, 0)

    def before(self):
        self.tau0, _ = truth.tau0(self.design)
        y, x = truth.read_csv(self.data)
        self.xi_ref = truth.complete_case_lstsq(self.design, y, x)

    def op(self, i):
        latency, code, res = self.fit(["fit", "--data", self.data, "--diagnostics"])
        if res is None:
            return latency, [f"exit code {code}"], None
        problems = wald_problems(res, self.n) + pvalue_problems(res)
        xi = np.asarray(res["xi_hat"])
        if not np.linalg.norm(xi - self.xi_ref) <= 1e-8 * np.linalg.norm(self.xi_ref):
            problems.append(f"xi_hat {xi} differs from numpy's least squares {self.xi_ref}")
        limit = 5.0 * math.sqrt(res["sigma2_tau"] / self.n)
        if not abs(res["tau_hat"] - self.tau0) <= limit:
            problems.append(f"|tau_hat - tau0| = {abs(res['tau_hat'] - self.tau0):.4g} > {limit:.4g}")
        return latency, problems, None


class StudyLargeN(Workload):
    """Alternating ``run_study(["proposed"])`` and ``run_coverage_study(wald,
    derived)`` on Example 1 (delta = 0, alpha0 = -1.7) at n = 20 000 with two
    worker processes."""

    name = "study-large-n"
    design = truth.example1(-1.7, 0.0)
    round_len = 2
    n = 20_000
    threads = 2
    reps_study = 96
    reps_coverage = 64

    def prepare(self):
        self.scenario = simulate.example1(alpha0=self.design.alpha0, delta=self.design.delta)
        self.tau0, _ = truth.tau0(self.design)

    def op(self, i):
        seed = op_seed(self.seed, i)
        start = time.perf_counter()
        if i % 2 == 0:
            rows = simulate.run_study(self.scenario, self.n, self.reps_study, ["proposed"],
                                      seed=seed, tau0=self.tau0, threads=self.threads)
            latency = time.perf_counter() - start
            (row,) = rows
            if row.ncr != 0:
                return latency, [f"proposed: ncr {row.ncr} of {row.n_reps}"], None
            return latency, bias_problems(row, self.tau0), None
        cov = simulate.run_coverage_study(self.scenario, self.n, self.reps_coverage,
                                          ci_method="wald", variant="derived", seed=seed,
                                          tau0=self.tau0, threads=self.threads)
        latency = time.perf_counter() - start
        if cov["n_failures"] != 0:
            return latency, [f"coverage study: {cov['n_failures']} failures"], None
        return latency, [], round(cov["coverage_percent"] * self.reps_coverage / 100.0)

    def after(self, observations):
        covered = [c for c in observations if c is not None]
        k = len(covered) * self.reps_coverage
        hits = sum(covered)
        lo = binom_quantile(k, 0.95, 0.0005)
        hi = binom_quantile(k, 0.95, 0.9995)
        if lo <= hits <= hi:
            return []
        return [f"wald coverage {hits} of {k} outside the 0.1% binomial bounds [{lo}, {hi}]"]


class Comparators(Workload):
    """``run_study(["proposed", "ipw", "gmm3"])`` on Example 1 (delta = 0,
    alpha0 = -1.7) at n = 2 000, serially."""

    name = "comparators"
    design = truth.example1(-1.7, 0.0)
    n = 2_000
    reps = 12
    methods = ("proposed", "ipw", "gmm3")

    def prepare(self):
        self.scenario = simulate.example1(alpha0=self.design.alpha0, delta=self.design.delta)
        self.tau0, _ = truth.tau0(self.design)

    def op(self, i):
        start = time.perf_counter()
        rows = simulate.run_study(self.scenario, self.n, self.reps, list(self.methods),
                                  seed=op_seed(self.seed, i), tau0=self.tau0, threads=1)
        latency = time.perf_counter() - start
        problems = []
        for row in rows:
            if row.method == "proposed":
                if row.ncr != 0:
                    problems.append(f"proposed: ncr {row.ncr} of {row.n_reps}")
                else:
                    problems += bias_problems(row, self.tau0)
            elif not 0 <= row.ncr <= row.n_reps:
                problems.append(f"{row.method}: ncr {row.ncr} outside [0, {row.n_reps}]")
            elif row.ncr < row.n_reps and not (
                math.isfinite(row.rb_percent) and math.isfinite(row.mse_x100)
            ):
                problems.append(f"{row.method}: RB or MSE not finite with {row.ncr} NCR")
        if [row.method for row in rows] != list(self.methods):
            problems.append(f"rows for {[row.method for row in rows]}")
        return latency, problems, None

    def after(self, observations):
        """One converged ``solve_ipw`` fit must solve the IPW moment
        equations n^-1 sum {r (1 + e^{v' theta}) - 1} g(x) = 0, v = (1, x1, y),
        g = (1, x1, x2), evaluated here with numpy."""
        cfg = data.ModelConfig.from_json(self.design.model_config_json())
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1 << 21, k)))
            r, y, x = truth.generate(self.design, self.n, rng)
            fit = ipw.solve_ipw(data.Dataset(r=r, y=y, x=x), cfg, ipw.monomial_basis(2, 1))
            if not fit.converged:
                continue
            v = np.column_stack([np.ones(self.n), x[:, 0], np.where(r == 1, y, 0.0)])
            g = np.column_stack([np.ones(self.n), x])
            moments = ((r * (1.0 + np.exp(v @ fit.theta_hat)) - 1.0) @ g) / self.n
            if np.max(np.abs(moments)) <= 1e-6:
                return []
            return [f"converged solve_ipw fit leaves IPW moments {moments}"]
        return ["no solve_ipw fit converged on 20 generated datasets"]


WORKLOADS = {w.name: w for w in (BootTSmall, FitLargeCsv, StudyLargeN, Comparators)}
