"""Fixtures for the overlap objective: a local unitary applied to a state,
the objective's value at it, the identity local unitary, and the local
unitary that sends a known product state to |0...0>.

The library only maximizes the objective; these build a known U and
evaluate it, so tests can check the search and the variance against them.
"""

import numpy as np

from mkvariance import LocalUnitary, PureState
from mkvariance.linalg import apply_single_qubit


def rotate(psi: PureState, unitary: LocalUnitary) -> np.ndarray:
    """The amplitudes of U psi, one factor at a time."""
    out = psi.amplitudes
    for j, u in enumerate(unitary.factors, start=1):
        out = apply_single_qubit(out, psi.n, j, u)
    return out


def objective(psi: PureState, unitary: LocalUnitary) -> float:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2, the modulus form of the quadratic
    objective; equals the constrained form once the overlaps are phase-fixed."""
    rotated = rotate(psi, unitary)
    return abs(complex(rotated[0])) ** 2 + abs(complex(rotated[-1])) ** 2


def identity_unitary(n: int) -> LocalUnitary:
    """The local unitary whose n factors are all the 2x2 identity."""
    return LocalUnitary(factors=tuple(np.eye(2, dtype=complex) for _ in range(n)))


def localize_product(factors) -> LocalUnitary:
    """Local unitary sending a known product state to |0...0>.

    Each U_j has the conjugated factor state as its first row, completed to
    a unitary by the canonical orthogonal complement.
    """
    mats = []
    for j, f in enumerate(factors):
        f = np.asarray(f, dtype=complex).reshape(-1)
        if f.shape != (2,):
            raise ValueError(f"factor {j + 1} is not a single-qubit state")
        norm = float(np.linalg.norm(f))
        if not abs(norm - 1.0) < 1e-6:
            raise ValueError(f"factor {j + 1} has norm {norm!r}")
        f = f / norm
        mats.append(np.array([[f[0].conj(), f[1].conj()], [-f[1], f[0]]]))
    return LocalUnitary(factors=tuple(mats))
