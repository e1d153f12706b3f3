import dataclasses

import mnarmean

#: the package's public names; retiring or adding one edits this list and
#: says so in CHANGES.md
PUBLIC_NAMES = [
    "BasisTerm", "BootstrapResult", "ConfidenceInterval", "Dataset", "DesignMatrices",
    "ErrorLaw", "FitResult", "GammaProfile", "GaussianMixture", "IpwFit", "ModelConfig",
    "OutcomeFit", "PropensityFit", "SandwichPieces", "Scenario", "StudyRow", "TauEstimate",
    "VarianceEstimates", "bootstrap", "bootstrap_percentile_ci", "bootstrap_t_ci",
    "build_design", "build_sandwich", "check_identifiability", "compute_truth", "data",
    "diagnostics", "empirical_mgf", "errors", "estimate_sigma_tau", "estimate_tau",
    "estimate_tau_normal_plugin", "example1", "example2", "fit_least_squares",
    "fit_mean_response", "fit_propensity", "fit_tau_only", "fitting", "generate_dataset",
    "inference", "ipw", "mean_response", "monomial_basis",
    "ncv_score_test", "outcome", "parse_dataset", "predict_mu", "profile_gamma",
    "propensity", "run_coverage_study", "run_study",
    "section2_design", "simulate", "solve_gmm", "solve_ipw", "tilt_error_law",
    "uss_gof_test", "wald_ci", "write_dataset",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(mnarmean.__all__) == PUBLIC_NAMES


#: the fields of every dataclass in ``__all__``; retiring or adding
#: one edits this table and says so in CHANGES.md
PUBLIC_FIELDS = {
    "BasisTerm": ("exponents",),
    "BootstrapResult": (
        "ci", "n_resamples_requested", "n_successful", "t_stats", "seed", "failure_counts",
    ),
    "ConfidenceInterval": ("lower", "upper", "level", "method"),
    "Dataset": ("r", "y", "x"),
    "DesignMatrices": ("M", "X1"),
    "FitResult": (
        "outcome", "propensity", "tau", "variance", "wald", "identifiability", "design",
        "mu_hat", "pieces",
    ),
    "GammaProfile": ("grid", "values", "roots", "alpha_beta_fixed"),
    "IpwFit": ("theta_hat", "converged", "tau_ipw", "weights_max", "moment_norm", "candidates"),
    "ModelConfig": ("mean_basis", "x1_columns"),
    "OutcomeFit": ("xi_hat", "residuals", "sigma2_hat", "n1"),
    "PropensityFit": ("theta_hat", "loglik", "iterations", "converged", "gradient_norm"),
    "SandwichPieces": ("A1", "A2", "A3", "A4", "B", "C1", "C2", "V"),
    "Scenario": (
        "covariate_law", "mean_basis", "xi_true", "x1_columns", "alpha0", "beta", "gamma",
        "error_law",
    ),
    "StudyRow": ("method", "rb_percent", "mse_x100", "ncr", "n_reps", "ncr_reasons"),
    "TauEstimate": ("tau_hat", "eta_hat", "m1_hat", "m2_hat", "alpha0_hat"),
    "VarianceEstimates": ("Sigma", "sigma2_tau", "D", "clipped"),
}


def test_public_fields_are_pinned():
    fields = {}
    for name in mnarmean.__all__:
        obj = getattr(mnarmean, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            fields[name] = tuple(f.name for f in dataclasses.fields(obj))
    assert fields == PUBLIC_FIELDS
