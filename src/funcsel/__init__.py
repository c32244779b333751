"""Variable selection for scalar-on-function linear regression.

Workflow: smooth gridded curves onto B-spline bases, assemble the linear
design through the basis Gram matrices, test each predictor's coefficient
block with a likelihood-ratio statistic, and select predictors through
Bonferroni or step-up false-discovery-rate corrections.
"""

from .bspline import (
    BasisSpec,
    GramMatrix,
    evaluate_basis,
    evaluate_basis_matrix,
    gram_matrix,
    make_uniform_basis,
)
from .design import DesignMatrix, build_design
from .errors import (
    ConditionWarning,
    DataError,
    NumericalError,
    RankDeficiencyError,
    SampleSizeError,
)
from .inference import (
    HypothesisTest,
    chisq_cdf,
    noncentral_chisq_cdf,
    test_all,
    test_predictor,
)
from .linmodel import FitResult, fit_ols, noncentrality
from .selection import (
    SelectionResult,
    default_q,
    select,
    select_bonferroni,
    select_fdr,
)
from .simgen import (
    MonteCarloReport,
    SimScenario,
    SimTruth,
    generate_replication,
    run_monte_carlo,
)
from .smoothing import CurveBlock, FunctionalDataset, build_dataset, smooth_block

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "GramMatrix",
    "evaluate_basis",
    "evaluate_basis_matrix",
    "gram_matrix",
    "make_uniform_basis",
    "DesignMatrix",
    "build_design",
    "ConditionWarning",
    "DataError",
    "NumericalError",
    "RankDeficiencyError",
    "SampleSizeError",
    "HypothesisTest",
    "chisq_cdf",
    "noncentral_chisq_cdf",
    "test_all",
    "test_predictor",
    "FitResult",
    "fit_ols",
    "noncentrality",
    "SelectionResult",
    "default_q",
    "select",
    "select_bonferroni",
    "select_fdr",
    "MonteCarloReport",
    "SimScenario",
    "SimTruth",
    "generate_replication",
    "run_monte_carlo",
    "CurveBlock",
    "FunctionalDataset",
    "build_dataset",
    "smooth_block",
]
