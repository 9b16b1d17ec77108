"""Variance-based entanglement test for multiqubit pure states.

Builds Mermin-Klyshko Bell operators from measurement settings, solves
the quadratic overlap maximization over local unitaries, and tests the
variance bound 2**(n-1) that separates product states (equality attainable)
from entangled ones (strict inequality).  A purity-based oracle provides
independent ground truth for testing.
"""

from .ascent import OptimizerConfig, OptimizerMetadata
from .bell import (
    MeasurementSettings,
    MKMeanResult,
    MKOperator,
    canonical_mk,
    canonical_settings,
    generalized_ghz,
    ghz,
    max_mk_mean,
)
from .criterion import (
    DECISION_TAU,
    DecisionReport,
    LocalUnitary,
    ObjectiveResult,
    decide,
    maximize_objective,
    variance,
)
from .linalg import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PureState,
    reduced_density,
)
from .oracle import (
    ORACLE_EPSILON,
    OracleVerdict,
    is_product_oracle,
    random_product_state,
    random_state,
)

__all__ = [
    "DECISION_TAU",
    "DENSE_QUBIT_CAP",
    "MAX_QUBITS",
    "ORACLE_EPSILON",
    "DecisionReport",
    "LocalUnitary",
    "MKMeanResult",
    "MKOperator",
    "MeasurementSettings",
    "ObjectiveResult",
    "OptimizerConfig",
    "OptimizerMetadata",
    "OracleVerdict",
    "PureState",
    "canonical_mk",
    "canonical_settings",
    "decide",
    "generalized_ghz",
    "ghz",
    "is_product_oracle",
    "max_mk_mean",
    "maximize_objective",
    "random_product_state",
    "random_state",
    "reduced_density",
    "variance",
]

__version__ = "0.1.0"
