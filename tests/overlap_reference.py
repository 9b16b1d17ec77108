"""Fixtures for the overlap objective: a single-qubit gate, the check that
a factor array is a local unitary, that unitary applied to a state, the
objective's value at it, the identity local unitary, the local unitary
that sends a known product state to |0...0>, and near-product states.

A local unitary U = U_1 (x) ... (x) U_n is held as its factors, an array of
shape (n, 2, 2), as ``decide``'s report carries it and
``criterion.maximize_objective`` returns it.  The library only maximizes the
objective and reads the end overlaps from its own contraction; these apply a known U gate by gate and evaluate it, so tests
can check the search and the variance against them.  The gate is also what
``klyshko_reference`` builds its literal recursion from.
"""

import math

import numpy as np

from mkvariance import PureState, random_product_state, random_state

UNITARY_TOL = 1e-10


def apply_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit (1-based index) of a 2^n state vector."""
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    t = np.asarray(vec).reshape(2 ** (qubit - 1), 2, -1)
    return np.einsum("ab,lbr->lar", mat, t).reshape(-1)


def local_unitary(factors) -> np.ndarray:
    """``factors`` as a read-only complex array of shape (n, 2, 2), after
    checking that each factor is finite and unitary to ``UNITARY_TOL``."""
    out = np.array(factors, dtype=complex)
    if out.shape[1:] != (2, 2):
        raise ValueError(f"factors have shape {out.shape}, not (n, 2, 2)")
    for j, u in enumerate(out, start=1):
        if not (np.isfinite(u).all() and np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARY_TOL):
            raise ValueError(f"factor {j} is not unitary")
    out.setflags(write=False)
    return out


def rotate(psi: PureState, factors: np.ndarray) -> np.ndarray:
    """The amplitudes of U psi, one factor at a time."""
    out = psi.amplitudes
    for j, u in enumerate(local_unitary(factors), start=1):
        out = apply_single_qubit(out, psi.n, j, u)
    return out


def objective(psi: PureState, factors: np.ndarray) -> float:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2, the modulus form of the quadratic
    objective; equals the constrained form once the overlaps are phase-fixed."""
    rotated = rotate(psi, factors)
    return abs(complex(rotated[0])) ** 2 + abs(complex(rotated[-1])) ** 2


def identity_unitary(n: int) -> np.ndarray:
    """The local unitary whose n factors are all the 2x2 identity."""
    return local_unitary(np.broadcast_to(np.eye(2), (n, 2, 2)))


def localize_product(factors) -> np.ndarray:
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
    return local_unitary(mats)


def near_product_state(n: int, seed: int, eps: float) -> PureState:
    """phi + sqrt(eps) chi, normalized, for phi = random_product_state(n, 1000 +
    seed) and chi = random_state(n, 2000 + seed).  At eps = 1e-6 many of these
    lie in the tau shell, where ``decide``'s certificate settles nothing and
    the search runs."""
    amps = random_product_state(n, 1000 + seed).amplitudes + math.sqrt(eps) * random_state(n, 2000 + seed).amplitudes
    return PureState(amps / np.linalg.norm(amps))
