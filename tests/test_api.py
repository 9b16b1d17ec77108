"""The public surface: the exported names, the module attributes that the
benchmark reads or its traced runs rebind, and the import layers of the
package.

``perfbench/spans.py`` wraps every ``(owner, attr)`` of its ``TARGETS`` by
reading ``owner.__dict__[attr]``, so removing a name that a module imports
only for it breaks every traced run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import mkvariance
from mkvariance import MKOperator, canonical_mk, criterion

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
PACKAGE = Path(mkvariance.__file__).resolve().parent


def package_imports(tree):
    """The modules of the package that the imports in ``tree`` name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = ".".join(filter(None, ["mkvariance" if node.level else None, node.module])).split(".")
            if parts[0] == "mkvariance":
                names.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mkvariance."))
    return names


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


def test_config_read_by_the_benchmark_resolves_on_criterion():
    # perfbench/workloads.py builds its config as criterion.OptimizerConfig.
    assert criterion.OptimizerConfig is mkvariance.OptimizerConfig


def test_only_the_front_ends_import_criterion_and_every_import_is_at_module_level():
    # ``ascent`` sits below both searches, so bell needs no import of criterion.
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name for name, tree in trees.items() if "criterion" in package_imports(tree)} == {"cli", "__init__"}
    assert package_imports(trees["ascent"]) == {"linalg"}
    deferred = [f"{name}.py:{node.lineno}" for name, tree in trees.items()
                for function in ast.walk(tree) if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []


@pytest.mark.parametrize("n", [2, 5, 11])
def test_canonical_mk_is_one_cached_operator(n):
    # perfbench/worker.py counts canonical_mk's builds by its cache misses.
    op = canonical_mk(n)
    assert isinstance(op, MKOperator) and op.n == n
    misses = canonical_mk.cache_info().misses
    assert canonical_mk(n) is op
    assert canonical_mk.cache_info().misses == misses
