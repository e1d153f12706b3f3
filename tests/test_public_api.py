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
