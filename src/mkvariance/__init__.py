"""Variance-based entanglement test for multiqubit pure states.

Builds Mermin-Klyshko Bell operator pairs from measurement settings, solves
the quadratic overlap maximization over local unitaries, and tests the
variance bound 2**(n-1) that separates product states (equality attainable)
from entangled ones (strict inequality).  A purity-based oracle provides
independent ground truth for testing.
"""

from .bell import (
    MeasurementSettings,
    MKMeanResult,
    MKOperator,
    MKOperatorPair,
    canonical_mk,
    canonical_settings,
    generalized_ghz,
    ghz,
    max_mk_mean,
    mk_mean,
    mk_pair,
)
from .criterion import (
    DECISION_TAU,
    DecisionReport,
    LocalUnitary,
    ObjectiveResult,
    OptimizerConfig,
    OptimizerMetadata,
    conjugated_variance,
    decide,
    localize_product,
    maximize_objective,
    objective,
    phase_fix,
    variance,
)
from .linalg import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PureState,
    apply_operator,
    apply_single_qubit,
    expectation,
    kron,
    reduced_density,
    spin_observable,
    unit_vector3,
)
from .oracle import (
    ORACLE_EPSILON,
    OracleVerdict,
    is_product_oracle,
    random_product_factors,
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
    "MKOperatorPair",
    "MeasurementSettings",
    "ObjectiveResult",
    "OptimizerConfig",
    "OptimizerMetadata",
    "OracleVerdict",
    "PureState",
    "apply_operator",
    "apply_single_qubit",
    "canonical_mk",
    "canonical_settings",
    "conjugated_variance",
    "decide",
    "expectation",
    "generalized_ghz",
    "ghz",
    "is_product_oracle",
    "kron",
    "localize_product",
    "max_mk_mean",
    "maximize_objective",
    "mk_mean",
    "mk_pair",
    "objective",
    "phase_fix",
    "random_product_factors",
    "random_product_state",
    "random_state",
    "reduced_density",
    "spin_observable",
    "unit_vector3",
    "variance",
]

__version__ = "0.1.0"
