"""Dense complex linear algebra primitives sized for n-qubit systems.

State vectors use the convention that basis index ``i`` encodes qubit 1 as
the most significant bit, so ``|0...0>`` is index 0 and ``|1...1>`` is index
``2**n - 1``.  Explicit ``2**n x 2**n`` matrices are only used up to
``DENSE_QUBIT_CAP`` qubits; beyond that all operator work goes through
matrix-free handles.

Everything in this module is a pure function of its inputs; returned arrays
are read-only and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

# Largest n for which explicit 2^n x 2^n matrices are allowed.
DENSE_QUBIT_CAP = 10
# Largest n supported at all (matrix-free).
MAX_QUBITS = 16

HERMITIAN_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
NORM_REPAIR_TOL = 1e-6

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

for _m in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2):
    _m.setflags(write=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard against leaving dense territory.

    Entry ``((i*b_rows + k), (j*b_cols + l))`` of the result equals
    ``a[i, j] * b[k, l]``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    cap = 2**DENSE_QUBIT_CAP
    if a.shape[0] * b.shape[0] > cap or a.shape[1] * b.shape[1] > cap:
        raise ValueError(
            f"kron result exceeds the dense cap of {cap} rows/cols; "
            "use a matrix-free operator handle instead"
        )
    return np.kron(a, b)


def unit_vector3(v) -> np.ndarray:
    """Validate and return a unit vector in R^3 (tolerance 1e-12 on the norm)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"expected 3 real components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite components: {v!r}")
    if not abs(v @ v - 1.0) < 1e-12:
        raise ValueError(f"not a unit vector: |v|^2 = {v @ v!r}")
    return _frozen(v)


def spin_observable(a) -> np.ndarray:
    """Spin observable a.sigma for a unit direction a.

    Hermitian with eigenvalues +-1; squares to the identity.
    """
    a = unit_vector3(a)
    return _frozen(a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z)


def pauli_combination(v) -> np.ndarray:
    """v.sigma for an arbitrary (not necessarily unit) real 3-vector."""
    v = np.asarray(v, dtype=float).reshape(3)
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Max-entry Hermiticity check, |m - m^dagger| < tol entrywise."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) < tol)


def apply_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit (1-based index) of a 2^n state vector."""
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    t = np.asarray(vec).reshape(2 ** (qubit - 1), 2, -1)
    return np.einsum("ab,lbr->lar", mat, t).reshape(-1)


class PureState:
    """Normalized pure state of n qubits.

    Construction renormalizes inputs whose norm deviates from 1 by less than
    ``NORM_REPAIR_TOL`` and rejects anything worse.  Amplitudes are stored
    read-only.
    """

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n or n < 1:
            raise ValueError(f"amplitude count {amps.size} is not 2**n for n >= 1")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) >= NORM_REPAIR_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_REPAIR_TOL}")
        amps /= norm
        amps.setflags(write=False)
        self.n = n
        self.amplitudes = amps

    @classmethod
    def basis(cls, n: int, index: int) -> "PureState":
        """Computational basis state |index> with qubit 1 as the most significant bit."""
        if not 0 <= index < 2**n:
            raise ValueError(f"basis index {index} out of range for n={n}")
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def from_bits(cls, bits) -> "PureState":
        """Basis state from a bit sequence, e.g. (0, 1, 0, 1) -> |0101>."""
        bits = list(bits)
        index = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            index = (index << 1) | b
        return cls.basis(len(bits), index)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of dimension 2 per qubit."""
        return self.amplitudes.reshape((2,) * self.n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureState(n={self.n})"


class DenseOperator:
    """Operator handle backed by an explicit matrix (n <= DENSE_QUBIT_CAP)."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix) -> None:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2**n, 2**n):
            raise ValueError(f"matrix shape {matrix.shape} does not match n={n}")
        if n > DENSE_QUBIT_CAP:
            raise ValueError(f"dense operators are capped at {DENSE_QUBIT_CAP} qubits")
        self.n = n
        self.matrix = _frozen(matrix)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=complex)

    def dense(self) -> np.ndarray:
        return self.matrix


class IdentityOperator:
    """Identity handle for any supported n; never materializes a matrix."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return np.array(vec, dtype=complex)

    def dense(self) -> np.ndarray:
        if self.n > DENSE_QUBIT_CAP:
            raise ValueError(f"dense form is capped at {DENSE_QUBIT_CAP} qubits")
        return np.eye(2**self.n, dtype=complex)


class SingleQubitOperator:
    """A 2x2 matrix acting on one qubit of an n-qubit register."""

    __slots__ = ("n", "qubit", "matrix")

    def __init__(self, n: int, qubit: int, matrix) -> None:
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit index {qubit} out of range 1..{n}")
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("single-qubit operator must be 2x2")
        self.n = n
        self.qubit = qubit
        self.matrix = _frozen(matrix)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return apply_single_qubit(vec, self.n, self.qubit, self.matrix)

    def dense(self) -> np.ndarray:
        if self.n > DENSE_QUBIT_CAP:
            raise ValueError(f"dense form is capped at {DENSE_QUBIT_CAP} qubits")
        out = np.eye(1, dtype=complex)
        for j in range(1, self.n + 1):
            out = np.kron(out, self.matrix if j == self.qubit else IDENTITY_2)
        return out


def apply_operator(op, psi: PureState) -> np.ndarray:
    """Apply an operator handle to a state, returning the raw result vector.

    The result is generally unnormalized (operators need not be unitary).
    """
    if op.n != psi.n:
        raise ValueError(f"operator acts on {op.n} qubits but the state has {psi.n}")
    return op.apply(psi.amplitudes)


def expectation(psi: PureState, op) -> float:
    """<psi|op|psi> for a Hermitian operator handle.

    An imaginary residual below ``EXPECTATION_IMAG_TOL`` is discarded; a
    larger one means the operator is not Hermitian and raises.
    """
    value = complex(np.vdot(psi.amplitudes, apply_operator(op, psi)))
    if abs(value.imag) >= EXPECTATION_IMAG_TOL:
        raise ValueError(
            f"expectation has imaginary residual {value.imag!r}; operator is not Hermitian"
        )
    return float(value.real)


def reduced_density(psi: PureState, qubit: int) -> np.ndarray:
    """Single-qubit reduced density matrix obtained by tracing out the rest.

    Hermitian, trace one, positive semidefinite.
    """
    if not 1 <= qubit <= psi.n:
        raise ValueError(f"qubit index {qubit} out of range 1..{psi.n}")
    t = psi.amplitudes.reshape(2 ** (qubit - 1), 2, -1)
    return np.einsum("lar,lbr->ab", t, t.conj())
