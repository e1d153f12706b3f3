"""Command-line surface: fit, simulate, profile-gamma, diagnose.

Exit codes: 0 success, 1 internal bug, 2 user/data error (with a
machine-readable error JSON on stdout).  All outputs are deterministic
given flags and seed.  Each command runs OpenBLAS on one thread, as do
``run_study`` and ``run_coverage_study``, so the output does not depend on
``OPENBLAS_NUM_THREADS``.  A library fit called directly keeps the caller's
thread count, study workers started by ``spawn`` or ``forkserver`` do not
inherit the setting, and with another BLAS the thread count can still change
the last digits of a statistic."""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from ._blas import one_blas_thread
from .bootstrap import bootstrap_percentile_ci, bootstrap_t_ci, check_resamples
from .data import ModelConfig, parse_dataset
from .diagnostics import ncv_score_test, uss_gof_test
from .errors import DataIOError, MnarError, UsageError
from .fitting import fit_mean_response
from .inference import H1_VARIANTS, check_level
from .ipw import profile_gamma
from .simulate import (
    SCENARIOS,
    TRUTH_DRAWS,
    check_methods,
    check_sample_size,
    compute_truth,
    run_coverage_study,
    run_study,
)

DEFAULT_SEED = 20220513
SCHEMA_VERSION = 1


def _load_config(path: str) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return ModelConfig.from_json(fh.read())
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc


def _write_json(obj, path: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, path: str | None):
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def cmd_fit(args) -> int:
    check_level(args.level)
    ds = parse_dataset(args.data, y_col=args.y_col, r_col=args.r_col)
    cfg = _load_config(args.model_config)
    res = fit_mean_response(ds, cfg, level=args.level, variant=args.variant)
    out = {
        "schema_version": SCHEMA_VERSION,
        "xi_hat": [float(v) for v in res.outcome.xi_hat],
        "sigma2_hat": res.outcome.sigma2_hat,
        "theta_hat": [float(v) for v in res.propensity.theta_hat],
        "alpha0_hat": res.tau.alpha0_hat,
        "tau_hat": res.tau.tau_hat,
        "eta_hat": res.tau.eta_hat,
        "m1_hat": res.tau.m1_hat,
        "m2_hat": res.tau.m2_hat,
        "sigma2_tau": res.variance.sigma2_tau,
        "sigma2_tau_clipped": res.variance.clipped,
        # the H1 variant of sigma2_tau, which also studentizes bootstrap-t
        "variant": args.variant,
        "wald_ci": [res.wald.lower, res.wald.upper],
        "level": args.level,
        "converged": res.propensity.converged,
        "identifiability_report": {
            "identifiable": res.identifiability.identifiable,
            "condition_number": res.identifiability.condition_number,
        },
    }
    if args.bootstrap:
        if args.bootstrap_method == "t":
            boot = bootstrap_t_ci(
                ds, cfg, level=args.level, B=args.bootstrap,
                seed=args.seed, variant=args.variant,
            )
        else:
            boot = bootstrap_percentile_ci(
                "proposed", ds, cfg, level=args.level, B=args.bootstrap,
                seed=args.seed,
            )
        out["bootstrap_ci"] = [boot.ci.lower, boot.ci.upper]
        out["bootstrap_method"] = boot.ci.method
        out["bootstrap_successful"] = boot.n_successful
        out["bootstrap_failure_counts"] = boot.failure_counts
    if args.diagnostics:
        ncv = ncv_score_test(res.outcome, res.design, ds)
        uss = uss_gof_test(ds, res.propensity, res.mu_hat, cfg)
        out["diagnostics"] = {
            "ncv": {"statistic": ncv.statistic, "p_value": ncv.p_value},
            "uss": {"statistic": uss.statistic, "p_value": uss.p_value},
        }
    _write_json(out, args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {args.scenario!r}")
    # a flag left out keeps the scenario's own value; section2 has none to set
    given = {k: v for k, v in (("alpha0", args.alpha0), ("delta", args.delta)) if v is not None}
    if given and args.scenario == "section2":
        raise UsageError("--scenario section2 is a fixed design: it takes no --alpha0 or --delta")
    sc = SCENARIOS[args.scenario](**given)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    # the truth draws --truth-draws covariate rows, so a wrong argument fails first
    check_methods(methods)
    check_level(args.level)
    check_sample_size(args.n)
    if args.coverage == "bootstrap_t":
        check_resamples(args.bootstrap)
    truth = compute_truth(sc, args.truth_draws, seed=np.random.SeedSequence((args.seed, 1)))
    rows = run_study(
        sc, args.n, args.reps, methods, seed=args.seed,
        tau0=truth["tau0"], threads=args.threads,
    )
    # every study runs before any output is written, so a usage error
    # leaves only its error JSON on stdout
    if args.coverage:
        cov = run_coverage_study(
            sc, args.n, args.reps, ci_method=args.coverage, level=args.level,
            seed=args.seed, boot_b=args.bootstrap, tau0=truth["tau0"],
            threads=args.threads,
        )
    lines = [["method", "rb_percent", "mse_x100", "ncr", "n_reps"]]
    for row in rows:
        lines.append(
            [row.method, f"{row.rb_percent:.6g}", f"{row.mse_x100:.6g}",
             str(row.ncr), str(row.n_reps)]
        )
    _write_csv(lines, args.out_csv)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "scenario": args.scenario,
        "alpha0": sc.alpha0,
        "gamma": sc.gamma,
        "error_law": [list(c) for c in sc.error_law.components],
        "n": args.n,
        "reps": args.reps,
        "seed": args.seed,
        "tau0": truth["tau0"],
        "pr_missing": truth["pr_missing"],
        "ncr_reasons": {row.method: row.ncr_reasons for row in rows},
    }
    if args.coverage:
        sidecar.update({k: cov[k] for k in ("coverage_percent", "mean_width", "failure_counts")})
    if args.truth_json:
        _write_json(sidecar, args.truth_json)
    return 0


def cmd_profile_gamma(args) -> int:
    ds = parse_dataset(args.data, y_col=args.y_col, r_col=args.r_col)
    cfg = _load_config(args.model_config)
    lo, hi, step = args.grid
    beta = np.asarray(args.beta, dtype=float)
    prof = profile_gamma(ds, args.alpha0, beta, (lo, hi, step), cfg)
    roots = np.asarray(prof.roots)
    lines = [["gamma", "M_gamma", "is_root_bracket"]]
    for g, v in zip(prof.grid, prof.values):
        in_bracket = bool(roots.size and np.any((roots >= g) & (roots < g + step)))
        lines.append([f"{g:.12g}", f"{v:.12g}", int(in_bracket)])
    lines.append([])
    lines.append(["root"] + [f"{r:.12g}" for r in prof.roots])
    _write_csv(lines, args.out)
    return 0


def cmd_diagnose(args) -> int:
    ds = parse_dataset(args.data, y_col=args.y_col, r_col=args.r_col)
    cfg = _load_config(args.model_config)
    res = fit_mean_response(ds, cfg)
    ncv = ncv_score_test(res.outcome, res.design, ds)
    uss = uss_gof_test(ds, res.propensity, res.mu_hat, cfg)
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "ncv": {"statistic": ncv.statistic, "p_value": ncv.p_value, "df": ncv.df},
            "uss": {"statistic": uss.statistic, "p_value": uss.p_value},
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnarmean",
        description="Mean estimation under outcome-dependent missingness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument("--data", required=True)
        p.add_argument("--model-config", required=True)
        p.add_argument("--y-col", default="y")
        p.add_argument("--r-col", default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_fit = sub.add_parser("fit", help="two-step fit with variance and CIs")
    add_data(p_fit)
    p_fit.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_fit.add_argument("--variant", default="printed", choices=H1_VARIANTS,
                       help="H1 delta-method variant for sigma2_tau")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--bootstrap", type=int, default=0, metavar="B")
    p_fit.add_argument("--bootstrap-method", choices=["t", "percentile"], default="t")
    p_fit.add_argument("--diagnostics", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="RB/MSE/NCR and coverage studies")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--alpha0", type=float, default=None,
                       help="default: the scenario's own")
    p_sim.add_argument("--delta", type=float, default=None,
                       help="default: the scenario's own")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--methods", default="proposed")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--coverage", choices=["wald", "bootstrap_t"], default=None)
    p_sim.add_argument("--bootstrap", type=int, default=1000, metavar="B")
    p_sim.add_argument("--truth-draws", type=int, default=TRUTH_DRAWS)
    p_sim.add_argument("--out-csv", default=None)
    p_sim.add_argument("--truth-json", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_prof = sub.add_parser("profile-gamma", help="scan M(gamma) for roots")
    add_data(p_prof)
    p_prof.add_argument("--alpha0", type=float, required=True)
    p_prof.add_argument("--beta", type=float, nargs="+", required=True)
    p_prof.add_argument("--grid", type=float, nargs=3, required=True,
                        metavar=("LO", "HI", "STEP"))
    p_prof.set_defaults(func=cmd_profile_gamma)

    p_diag = sub.add_parser("diagnose", help="model-checking tests")
    add_data(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our taxonomy
        return int(exc.code or 0)
    try:
        with one_blas_thread():
            return args.func(args)
    except (MnarError, UsageError) as exc:
        _write_json({"error": exc.code, "message": str(exc)}, None)
        return 2
    except OSError as exc:
        _write_json({"error": "IO", "message": str(exc)}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
