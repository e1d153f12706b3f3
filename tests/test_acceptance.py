"""Acceptance gate: one test per release criterion, so `pytest -v` prints a
single pass/fail line for each.  The expensive Example-1 study (1000 reps at
n=2000) is shared between the point-estimate, coverage, and calibration
criteria through a session fixture."""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mnarmean.cli import main
from mnarmean.data import write_dataset
from mnarmean.errors import MnarError
from mnarmean.fitting import fit_tau_only
from mnarmean.inference import (
    build_sandwich,
    estimate_sigma_tau,
    wald_ci,
)
from mnarmean.ipw import profile_gamma
from mnarmean.mean_response import empirical_mgf
from mnarmean.propensity import score_and_hessian_z
from mnarmean.simulate import (
    _complete_data,
    compute_truth,
    example1,
    example2,
    generate_dataset,
    run_coverage_study,
    run_method,
    run_study,
    section2_design,
    tilt_error_law,
)

from conftest import mixture_cdf

DOCS_DIR = Path(__file__).resolve().parents[1] / "docs"
VARIANTS = ("printed", "alternative", "derived")

# non-reliable-case thresholds used throughout the simulation studies
NCR_TAU = (-10.0, 10.0)
NCR_GAMMA = (-3.0, 3.0)


def _is_ncr(tau_hat: float, gamma_hat: float, converged: bool) -> bool:
    return (
        not converged
        or not np.isfinite(tau_hat)
        or not np.isfinite(gamma_hat)
        or not NCR_TAU[0] <= tau_hat <= NCR_TAU[1]
        or not NCR_GAMMA[0] <= gamma_hat <= NCR_GAMMA[1]
    )


@pytest.fixture(scope="session")
def ex1_base_study():
    """1000 replications of Example 1 (delta=0, alpha0=-1.7, n=2000): point
    estimates plus the sandwich variance under all three H1 variants."""
    sc = example1(alpha0=-1.7, delta=0.0)
    cfg = sc.model_config()
    n, reps = 2000, 1000
    tau0 = compute_truth(sc, 2_000_000, seed=1)["tau0"]
    children = np.random.SeedSequence(901).spawn(reps)
    records = []
    start = time.perf_counter()
    for child in children:
        ds = generate_dataset(sc, n, child)
        try:
            tau, prop, outcome, mu_hat, dm = fit_tau_only(ds, cfg)
            pieces = build_sandwich(ds, dm, mu_hat, outcome, prop, cfg)
            rec = {
                "tau": tau.tau_hat,
                "gamma": prop.gamma_hat,
                "converged": prop.converged,
            }
            for variant in VARIANTS:
                rec[variant] = estimate_sigma_tau(
                    pieces, tau.eta_hat, prop.gamma_hat, outcome.sigma2_hat, variant
                ).sigma2_tau
            records.append(rec)
        except (MnarError, np.linalg.LinAlgError):
            records.append(None)
    elapsed = time.perf_counter() - start
    return {"tau0": tau0, "n": n, "reps": reps, "records": records, "elapsed": elapsed}


def _ok_records(study):
    return [
        rec
        for rec in study["records"]
        if rec is not None and not _is_ncr(rec["tau"], rec["gamma"], rec["converged"])
    ]


def _coverage_percent(study, variant: str) -> float:
    tau0, n = study["tau0"], study["n"]
    hits = 0
    ok = _ok_records(study)
    for rec in ok:
        ci = wald_ci(rec["tau"], rec[variant], n, 0.95)
        hits += int(ci.lower <= tau0 <= ci.upper)
    return 100.0 * hits / len(ok)


def _calibration_ratio(study, variant: str) -> float:
    ok = _ok_records(study)
    taus = np.array([rec["tau"] for rec in ok])
    sig2 = np.array([rec[variant] for rec in ok])
    return study["n"] * float(np.var(taus)) / float(np.mean(sig2))


def test_criterion_01_reference_truths():
    # (constructor, alpha0, delta, tau, pr_missing)
    reference = [
        (example1, -1.7, 0.0, 2.177, 0.339),
        (example1, -1.7, 1.0, 2.587, 0.369),
        (example1, -1.2, 0.0, 2.364, 0.432),
        (example1, -1.2, 1.0, 2.868, 0.465),
        (example2, -2.7, 0.0, 3.677, 0.338),
        (example2, -2.7, 1.0, 4.088, 0.369),
        (example2, -2.2, 0.0, 3.869, 0.434),
        (example2, -2.2, 1.0, 4.381, 0.469),
    ]
    start = time.perf_counter()
    for i, (ctor, alpha0, delta, tau_ref, miss_ref) in enumerate(reference):
        truth = compute_truth(ctor(alpha0=alpha0, delta=delta), 10_000_000, seed=i)
        assert truth["tau0"] == pytest.approx(tau_ref, abs=0.005)
        assert truth["pr_missing"] == pytest.approx(miss_ref, abs=0.005)
    assert time.perf_counter() - start < 60.0


def test_criterion_02_example1_normal_rb_mse(ex1_base_study):
    study = ex1_base_study
    tau0 = study["tau0"]
    ncr = study["reps"] - len(_ok_records(study))
    taus = np.array([rec["tau"] for rec in _ok_records(study)])
    rb = 100.0 * float(np.mean(taus - tau0)) / tau0
    mse = 100.0 * float(np.mean((taus - tau0) ** 2))
    assert ncr == 0
    assert abs(rb) <= 1.0
    assert 0.7 <= mse <= 1.5
    assert study["elapsed"] < 600.0


def test_criterion_03_example1_mixture_robustness_gap():
    sc = example1(alpha0=-1.7, delta=1.0)
    rows = {
        row.method: row
        for row in run_study(sc, 2000, 1000, ["proposed", "normal_plugin"], seed=902)
    }
    assert abs(rows["proposed"].rb_percent) <= 1.5
    assert 1.7 <= rows["proposed"].mse_x100 <= 3.3
    assert rows["normal_plugin"].rb_percent <= -10.0


def test_criterion_04_example2_gmm_comparison():
    sc = example2(alpha0=-2.7, delta=0.0)
    rows = {
        row.method: row
        for row in run_study(sc, 2000, 1000, ["proposed", "gmm3"], seed=903)
    }
    assert abs(rows["proposed"].rb_percent) <= 1.0
    assert 0.8 <= rows["proposed"].mse_x100 <= 1.6
    assert abs(rows["gmm3"].rb_percent) >= 1.0
    assert rows["gmm3"].ncr > 0


def test_criterion_05_wald_coverage(ex1_base_study):
    # the derived H1 variant is the calibrated one (see docs/calibration
    # report); the shipped default remains "printed"
    cov_normal = _coverage_percent(ex1_base_study, "derived")
    assert 93.8 <= cov_normal <= 96.8
    sc = example1(alpha0=-1.7, delta=1.0)
    res = run_coverage_study(sc, 500, 1000, ci_method="wald", seed=904, variant="derived")
    assert 91.2 <= res["coverage_percent"] <= 95.2


def test_criterion_06_bootstrap_t_coverage():
    sc = example1(alpha0=-1.7, delta=1.0)
    start = time.perf_counter()
    res = run_coverage_study(
        sc,
        500,
        300,
        ci_method="bootstrap_t",
        boot_b=399,
        seed=905,
        variant="derived",
    )
    elapsed = time.perf_counter() - start
    assert 91.5 <= res["coverage_percent"] <= 97.5
    assert elapsed < 45 * 60.0


def test_criterion_07_ipw_instability():
    sc = section2_design()
    cfg = sc.model_config()
    ds = generate_dataset(sc, 20_000, seed=20220513)
    prof = profile_gamma(ds, sc.alpha0, np.asarray(sc.beta), (-2.0, 6.0, 0.05), cfg)
    assert len(prof.roots) == 2
    tau0 = compute_truth(sc, 2_000_000, seed=2)["tau0"]
    ipw_gammas, prop_gammas = [], []
    for child in np.random.SeedSequence(906).spawn(200):
        ds_rep = generate_dataset(sc, 20_000, child)
        try:
            _, g_ipw, conv = run_method("ipw", ds_rep, sc, tau0)
            if conv and np.isfinite(g_ipw):
                ipw_gammas.append(g_ipw)
        except (MnarError, np.linalg.LinAlgError):
            pass
        try:
            _, g_prop, conv = run_method("proposed", ds_rep, sc, tau0)
            if conv and np.isfinite(g_prop):
                prop_gammas.append(g_prop)
        except (MnarError, np.linalg.LinAlgError):
            pass
    assert len(prop_gammas) >= 190
    sd_ipw = float(np.std(ipw_gammas))
    sd_prop = float(np.std(prop_gammas))
    assert sd_ipw > 5.0 * sd_prop
    assert abs(float(np.mean(ipw_gammas)) - sc.gamma) > 0.5


def test_criterion_08_property_suite(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(907)

    # conditional-likelihood score vs central finite differences
    for _ in range(50):
        n = int(rng.integers(40, 120))
        z = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        r = rng.integers(0, 2, size=n).astype(np.int64)
        if r.sum() in (0, n):
            continue
        theta = rng.normal(scale=0.5, size=3)
        score, _ = score_and_hessian_z(r, z, theta)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            from mnarmean.propensity import log_conditional_likelihood_z as ll

            fd = (ll(r, z, theta + e) - ll(r, z, theta - e)) / (2 * h)
            denom = max(1.0, abs(fd))
            # score is the estimating function sum z (r - pi) = -grad l_n
            assert abs(score[j] + fd) / denom < 1e-6

    # A2 = -Hessian/n, V PSD on a fitted Example-1 dataset
    sc = example1(alpha0=-1.7, delta=0.0)
    cfg = sc.model_config()
    ds = generate_dataset(sc, 1500, seed=908)
    tau, prop, outcome, mu_hat, dm = fit_tau_only(ds, cfg)
    pieces = build_sandwich(ds, dm, mu_hat, outcome, prop, cfg)
    from mnarmean.propensity import _z_matrix

    z = _z_matrix(ds, mu_hat, cfg)
    _, hess = score_and_hessian_z(ds.r, z, prop.theta_hat)
    assert np.max(np.abs(pieces.A2 + hess / ds.n)) < 1e-12
    assert np.min(np.linalg.eigvalsh(pieces.V)) > -1e-10

    # MGF identities: exactness at zero, stabilized == naive off overflow
    eps = outcome.residuals
    m1_0, m2_0 = empirical_mgf(eps, 0.0)
    assert m1_0 == 1.0
    assert abs(m2_0) < 1e-14
    for t in (-0.8, -0.2, 0.3, 0.9):
        m1_s, m2_s = empirical_mgf(eps, t)
        naive1 = float(np.mean(np.exp(t * eps)))
        naive2 = float(np.mean(eps * np.exp(t * eps)))
        assert m1_s == pytest.approx(naive1, rel=1e-12)
        assert m2_s == pytest.approx(naive2, rel=1e-12)

    # generator invariants at n = 10^6: missing rate, KS on both error laws
    r, y_full, x = _complete_data(sc, 1_000_000, seed=909)
    eta0 = compute_truth(sc, 2_000_000, seed=3)["eta0"]
    assert np.mean(r) == pytest.approx(eta0, abs=0.003)
    eps_full = y_full - sc.mu_truth(x)
    obs = r == 1
    tilted, _ = tilt_error_law(sc.error_law, sc.gamma)
    assert stats.kstest(eps_full[obs], mixture_cdf(sc.error_law)).statistic < 0.01
    assert stats.kstest(eps_full[~obs], mixture_cdf(tilted)).statistic < 0.01

    # CLI seed determinism: byte-identical outputs for every command
    small = generate_dataset(sc, 600, seed=910)
    data = tmp_path / "data.csv"
    write_dataset(small, data)
    model = tmp_path / "model.json"
    model.write_text(cfg.to_json(), encoding="utf-8")
    commands = {
        "fit": ["fit", "--data", str(data), "--model-config", str(model)],
        "simulate": [
            "simulate", "--scenario", "example1", "--alpha0", "-1.7",
            "--delta", "0", "--n", "300", "--reps", "3",
            "--methods", "proposed", "--truth-draws", "100000",
        ],
        "profile": [
            "profile-gamma", "--data", str(data), "--model-config", str(model),
            "--alpha0", "-1.7", "--beta", "0.5", "--grid", "-2", "2", "0.1",
        ],
        "diagnose": ["diagnose", "--data", str(data), "--model-config", str(model)],
    }
    for name, argv in commands.items():
        outs = []
        for k in (1, 2):
            out = tmp_path / f"{name}_{k}.out"
            flag = "--out-csv" if name == "simulate" else "--out"
            extra = [] if name in ("profile", "diagnose") else ["--seed", "11"]
            assert main(argv + [flag, str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    assert time.perf_counter() - start < 120.0


def test_criterion_09_sandwich_calibration(ex1_base_study):
    study = ex1_base_study
    ratios = {variant: _calibration_ratio(study, variant) for variant in VARIANTS}
    coverages = {variant: _coverage_percent(study, variant) for variant in VARIANTS}

    # the shipped default must remain the as-printed variant
    default = inspect.signature(estimate_sigma_tau).parameters["variant"].default
    assert default == "printed"

    DOCS_DIR.mkdir(exist_ok=True)
    lines = [
        "# Sandwich variance calibration report",
        "",
        "Example 1, delta = 0, alpha0 = -1.7, n = 2000, 1000 replications.",
        "Calibration ratio = n * Var_MC(tau_hat) / mean(sigma2_tau_hat);",
        "a well-calibrated variance estimator gives a ratio near 1.",
        "",
        "| H1 variant | calibration ratio | 95% Wald coverage (%) |",
        "|---|---|---|",
    ]
    for variant in VARIANTS:
        lines.append(
            f"| {variant} | {ratios[variant]:.3f} | {coverages[variant]:.1f} |"
        )
    lines += [
        "",
        "The `printed` variant uses the H1 factor (B2 - B1*B3) with C1",
        "coefficient B2/B1^2; `alternative` replaces the factor with",
        "(B2^2 - B1*B3); `derived` additionally multiplies the C1 coefficient",
        "by gamma, which is what a direct differentiation of the estimating",
        "equations yields.  Only the derived variant is calibrated (ratio in",
        "[0.8, 1.25]) and attains nominal coverage; the printed form remains",
        "the shipped default for fidelity, with `variant=` switching between",
        "all three.",
        "",
        f"tau0 = {study['tau0']:.4f}; replications lost to NCR: "
        f"{study['reps'] - len(_ok_records(study))}.",
    ]
    (DOCS_DIR / "calibration_report.md").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )

    assert 0.8 <= ratios["derived"] <= 1.25
    # both headline variants are computed and archived above
    assert np.isfinite(ratios["printed"]) and np.isfinite(ratios["alternative"])
