"""Independent ground truth for testing: product-state detection through
single-qubit reduction purities, and seeded random state generators.

A pure state is a full product exactly when every single-qubit reduced
density matrix is pure, so the minimum purity Tr(rho_j^2) over qubits is a
criterion-free referee for the variance test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PureState, qubit_count, reduced_density

ORACLE_EPSILON = 1e-9


@dataclass(frozen=True)
class OracleVerdict:
    is_product: bool
    min_purity: float
    per_qubit_purities: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "is_product": self.is_product,
            "min_purity": self.min_purity,
            "per_qubit_purities": list(self.per_qubit_purities),
        }


def is_product_oracle(psi: PureState, epsilon: float = ORACLE_EPSILON) -> OracleVerdict:
    """Product verdict from single-qubit reduction purities.

    Purities lie in [1/2, 1] for qubit reductions; the state is declared a
    product when every purity exceeds 1 - epsilon.
    """
    purities = []
    for qubit in range(1, psi.n + 1):
        rho = reduced_density(psi, qubit)
        purities.append(float(np.trace(rho @ rho).real))
    min_purity = min(purities)
    return OracleVerdict(
        is_product=bool(min_purity > 1.0 - epsilon),
        min_purity=min_purity,
        per_qubit_purities=tuple(purities),
    )


def random_product_factors(n: int, seed: int) -> list[np.ndarray]:
    """n single-qubit states drawn uniformly (normalized complex Gaussians)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factors.append(f / np.linalg.norm(f))
    return factors


def random_product_state(n: int, seed: int) -> PureState:
    """Tensor product of n independent uniform single-qubit states."""
    amps = np.array([1.0 + 0.0j])
    for f in random_product_factors(qubit_count(n), seed):
        amps = np.kron(amps, f)
    return PureState(amps)


def random_state(n: int, seed: int) -> PureState:
    """Haar-random pure state: normalized vector of 2^n complex Gaussians."""
    if qubit_count(n) < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(amps / np.linalg.norm(amps))
