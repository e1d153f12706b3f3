"""Mean estimation for outcomes subject to outcome-dependent (non-ignorable)
missingness, via a two-step semiparametric fit of a location-scale outcome
model and an induced logistic missingness model."""

__version__ = "0.1.0"

from .bootstrap import BootstrapResult, bootstrap_percentile_ci, bootstrap_t_ci
from .data import (
    BasisTerm,
    Dataset,
    DesignMatrices,
    ModelConfig,
    build_design,
    check_identifiability,
    parse_dataset,
    write_dataset,
)
from .diagnostics import ncv_score_test, uss_gof_test
from .fitting import FitResult, fit_mean_response, fit_tau_only
from .inference import (
    ConfidenceInterval,
    SandwichPieces,
    VarianceEstimates,
    build_sandwich,
    estimate_sigma_tau,
    wald_ci,
)
from .ipw import GammaProfile, IpwFit, monomial_basis, profile_gamma, solve_gmm, solve_ipw
from .mean_response import TauEstimate, empirical_mgf, estimate_tau, estimate_tau_normal_plugin
from .outcome import OutcomeFit, fit_least_squares, predict_mu
from .propensity import PropensityFit, fit_propensity
from .simulate import (
    ErrorLaw,
    GaussianMixture,
    Scenario,
    StudyRow,
    compute_truth,
    example1,
    example2,
    generate_dataset,
    run_coverage_study,
    run_study,
    section2_design,
    tilt_error_law,
)

__all__ = [name for name in dir() if not name.startswith("_")]
