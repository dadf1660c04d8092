"""Desk-scale simulator for sampling-tree quantum recommendation systems."""

__version__ = "0.1.0"

from .errors import (
    BoundVacuousError,
    ColdStartError,
    EmptyRowError,
    MatrixError,
    ProjectionEmptyError,
    QrecsimError,
    RegisterCapError,
    StoreFormatError,
)
from .linalg import SvdFactorization, svd
from .qproject import ProjectionOutcome, ProjectionParams, threshold_project
from .qsim import (
    PhaseGrid,
    SveOutput,
    WalkOperator,
    eigenphases,
    sve,
)
from .recsys import (
    RecommendContext,
    bad_sample_bound,
    generate_T,
    quantum_typical_user_bound,
    typical_set,
    typical_user_bound,
)
from .rng import stream
from .store import MatrixStore, TreeTable, ingest_triplets, parse_triplets
from .subsample import (
    SubsampleParams,
    bound_threshold_family_error,
    derive_params,
    subsample,
)

__all__ = [
    "BoundVacuousError",
    "ColdStartError",
    "EmptyRowError",
    "MatrixError",
    "MatrixStore",
    "PhaseGrid",
    "ProjectionEmptyError",
    "ProjectionOutcome",
    "ProjectionParams",
    "QrecsimError",
    "RecommendContext",
    "RegisterCapError",
    "StoreFormatError",
    "SubsampleParams",
    "SvdFactorization",
    "SveOutput",
    "TreeTable",
    "WalkOperator",
    "bad_sample_bound",
    "bound_threshold_family_error",
    "derive_params",
    "eigenphases",
    "generate_T",
    "ingest_triplets",
    "parse_triplets",
    "quantum_typical_user_bound",
    "stream",
    "sve",
    "svd",
    "threshold_project",
    "typical_set",
    "typical_user_bound",
]
