"""Variable selection for scalar-on-function linear regression.

Workflow: smooth gridded curves onto B-spline bases, assemble the linear
design through the basis Gram matrices, test each predictor's coefficient
block with a likelihood-ratio statistic (``test_all``), and select
predictors through a Bonferroni or step-up false-discovery-rate correction
of the p-values (``selection_mask``).
"""

from .bspline import (
    BasisSpec,
    evaluate_basis_matrix,
    gram_matrix,
    make_uniform_basis,
)
from .design import DesignMatrix, build_design
from .errors import (
    DataError,
    NumericalError,
    RankDeficiencyError,
    SampleSizeError,
)
from .inference import test_all
from .linmodel import FitResult, fit_ols
from .selection import default_q, selection_mask
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
    "evaluate_basis_matrix",
    "gram_matrix",
    "make_uniform_basis",
    "DesignMatrix",
    "build_design",
    "DataError",
    "NumericalError",
    "RankDeficiencyError",
    "SampleSizeError",
    "test_all",
    "FitResult",
    "fit_ols",
    "default_q",
    "selection_mask",
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
