"""State vectors of n qubits, their wire-format checks and single-qubit reductions.

State vectors use the convention that basis index ``i`` encodes qubit 1 as
the most significant bit, so ``|0...0>`` is index 0 and ``|1...1>`` is index
``2**n - 1``.  Explicit ``2**n x 2**n`` matrices are only built up to
``DENSE_QUBIT_CAP`` qubits; beyond that all operator work is matrix-free.

Everything in this module is a pure function of its inputs; returned arrays
are read-only and safe to share between threads.
"""

from __future__ import annotations

import numbers

import numpy as np

# Largest n for which explicit 2^n x 2^n matrices are allowed.
DENSE_QUBIT_CAP = 10
# Largest n supported at all (matrix-free).
MAX_QUBITS = 16

NORM_REPAIR_TOL = 1e-6

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def qubit_count(value) -> int:
    """A qubit count: an integer, not a bool, in 1..MAX_QUBITS."""
    if not _is_integer(value):
        raise ValueError(f"n must be an integer, got {value!r}")
    if not 1 <= value <= MAX_QUBITS:
        raise ValueError(f"n={value} outside the supported range 1..{MAX_QUBITS}")
    return int(value)


def _number_rows(raw, count: int, width: int, what: str) -> np.ndarray:
    """Parsed JSON that must be a list of ``count`` lists of ``width`` numbers,
    as a (count, width) float array.  Booleans, which Python would take for 0
    and 1, are refused.  The ValueError names the bad entry."""
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ValueError(f"expected a list of {count} {what}s, got {got}")
    for i, row in enumerate(raw, start=1):
        if not (isinstance(row, list) and len(row) == width
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)):
            booleans = ", not booleans" if isinstance(row, list) and bool in map(type, row) else ""
            raise ValueError(f"{what} {i} must be a list of {width} numbers{booleans}")
    return np.array(raw, dtype=float)


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
        if not 0 <= index < 2 ** qubit_count(n):
            raise ValueError(f"basis index {index} out of range for n={n}")
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of dimension 2 per qubit."""
        return self.amplitudes.reshape((2,) * self.n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureState(n={self.n})"


def reduced_density(psi: PureState, qubit: int) -> np.ndarray:
    """Single-qubit reduced density matrix obtained by tracing out the rest.

    Hermitian, trace one, positive semidefinite.
    """
    if not 1 <= qubit <= psi.n:
        raise ValueError(f"qubit index {qubit} out of range 1..{psi.n}")
    t = psi.amplitudes.reshape(2 ** (qubit - 1), 2, -1)
    return np.einsum("lar,lbr->ab", t, t.conj())
