"""Fixtures for the overlap objective: a single-qubit gate, a local unitary
applied to a state, the objective's value at it, the identity local
unitary, and the local unitary that sends a known product state to |0...0>.

The library only maximizes the objective and reads the end overlaps from
its own contraction; these apply a known U gate by gate and evaluate it, so
tests can check the search and the variance against them.  The gate is also
what ``klyshko_reference`` builds its literal recursion from.
"""

import numpy as np

from mkvariance import LocalUnitary, PureState


def apply_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit (1-based index) of a 2^n state vector."""
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    t = np.asarray(vec).reshape(2 ** (qubit - 1), 2, -1)
    return np.einsum("ab,lbr->lar", mat, t).reshape(-1)


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
