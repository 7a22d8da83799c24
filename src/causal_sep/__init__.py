"""Causal separability criterion, EC state family, and PPT cross-check."""

from .config_calculus import (
    ConfigCensus,
    Configuration,
    CouplingMode,
    EnumerationBudgetError,
    count_configurations,
    enumerate_configurations,
    orthogonal_partners,
    partition_distinct,
)
from .criterion import (
    ConfigScore,
    CriterionReport,
    OverallVerdict,
    ScoreVerdict,
    causal_W,
    classify,
)
from .density import (
    DensityMatrix,
    MatrixFormatError,
    PartySubset,
    canonical_subsets,
    hermitian_eigenvalues,
    load_matrix,
    partial_transpose,
)
from .ec_family import (
    ECClass,
    ECParams,
    ECVerdict,
    KronSum,
    Mixing,
    ThresholdKind,
    ThresholdResult,
    build_ec_matrix,
    classify_ec,
    closed_form_W,
    crossover_N,
    duality_residuals,
    ec_min_eigenvalue,
    ec_operator,
    threshold,
)
from .ppt import PptOutcome, PptVerdict, ppt_check, ppt_report

__version__ = "0.1.0"
