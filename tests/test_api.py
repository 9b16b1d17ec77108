"""The public surface: the exported names, and the module attributes that the
benchmark's traced runs rebind.

``perfbench/spans.py`` wraps every ``(owner, attr)`` of its ``TARGETS`` by
reading ``owner.__dict__[attr]``, so removing a name that a module imports
only for it breaks every traced run.
"""

import importlib.util
from pathlib import Path

import pytest

import mkvariance
from mkvariance import MKOperator, canonical_mk

PUBLIC = [
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

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_are_the_agreed_ones():
    assert mkvariance.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(mkvariance, name) is not None


def test_every_traced_binding_exists():
    targets = load_spans().TARGETS
    bindings = [(name, owner, attr) for name, pairs in targets.items() for owner, attr in pairs]
    assert bindings
    for name, owner, attr in bindings:
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr}"


@pytest.mark.parametrize("n", [2, 5, 11])
def test_canonical_mk_is_one_cached_operator(n):
    # perfbench/worker.py counts canonical_mk's builds by its cache misses.
    op = canonical_mk(n)
    assert isinstance(op, MKOperator) and op.n == n
    misses = canonical_mk.cache_info().misses
    assert canonical_mk(n) is op
    assert canonical_mk.cache_info().misses == misses
