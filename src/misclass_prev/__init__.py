"""Prevalence and covariate estimation under outcome misclassification.

The package fits one binary-outcome regression four ways and makes the
results comparable: a plain logistic fit whose marginal prevalence is
corrected externally for test accuracy, a joint maximum-likelihood fit
that estimates the misclassification rates alongside the coefficients,
and two Bayesian counterparts, one correcting posterior draws
externally and one folding sensitivity and specificity into the
likelihood itself.
"""

from .bayes import fit_bc, fit_bec, newman_prior_variance
from .data_model import (
    COLUMN_ORDER,
    AssayMode,
    AssayProfile,
    Cohort,
    DesignMatrix,
    PopulationGroup,
    SubjectRecord,
    build_design_matrix,
    load_cohort,
    read_analysis_config,
    save_cohort,
)
from .errors import (
    InputError,
    NonConvergenceError,
    ParseError,
    SchemaError,
    SingularDesignError,
    StatisticalError,
)
from .likelihoods import (
    ErrorRates,
    bec_marginal_loglik,
    liu_loglik,
    logistic,
    std_loglik,
)
from .mcmc import PosteriorDraws, SamplerConfig, ess_bulk, rhat, sample
from .mle import (
    FitResult,
    LiuVariant,
    ModelTag,
    fit_liu,
    fit_std,
    observed_information,
)
from .report import (
    ComparisonReport,
    PrevalenceEstimate,
    build_comparison_report,
    marginal_prevalence_bayes,
    marginal_prevalence_liu,
    marginal_prevalence_std,
    render_text,
)
from .rogan_gladen import (
    CrudeEstimate,
    IntervalMethod,
    correct_proportion,
    rogan_gladen,
    rogan_gladen_interval,
)
from .simulate import (
    CovariateSpec,
    SimScenario,
    SimTruth,
    calibrate_intercept,
    load_bundled_scenario,
    read_scenario,
    replicate_study,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AssayMode",
    "AssayProfile",
    "COLUMN_ORDER",
    "Cohort",
    "ComparisonReport",
    "CovariateSpec",
    "CrudeEstimate",
    "DesignMatrix",
    "ErrorRates",
    "FitResult",
    "InputError",
    "IntervalMethod",
    "LiuVariant",
    "ModelTag",
    "NonConvergenceError",
    "ParseError",
    "PopulationGroup",
    "PosteriorDraws",
    "PrevalenceEstimate",
    "SamplerConfig",
    "SchemaError",
    "SimScenario",
    "SimTruth",
    "SingularDesignError",
    "StatisticalError",
    "SubjectRecord",
    "bec_marginal_loglik",
    "build_comparison_report",
    "build_design_matrix",
    "calibrate_intercept",
    "correct_proportion",
    "ess_bulk",
    "fit_bc",
    "fit_bec",
    "fit_liu",
    "fit_std",
    "liu_loglik",
    "load_bundled_scenario",
    "load_cohort",
    "logistic",
    "marginal_prevalence_bayes",
    "marginal_prevalence_liu",
    "marginal_prevalence_std",
    "newman_prior_variance",
    "observed_information",
    "read_analysis_config",
    "read_scenario",
    "render_text",
    "replicate_study",
    "rhat",
    "rogan_gladen",
    "rogan_gladen_interval",
    "sample",
    "save_cohort",
    "simulate",
    "std_loglik",
]
