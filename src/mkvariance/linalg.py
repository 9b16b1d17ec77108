"""State vectors of n qubits, the qubit-count rule and single-qubit
reductions.

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


def qubit_count(value, minimum: int = 1) -> int:
    """A qubit count: an integer, not a bool, in minimum..MAX_QUBITS.

    The only place where a qubit count meets a bound.  The minimum is 1 for
    states, settings and MK operators, and 2 wherever the multiqubit
    criterion, its searches or the GHZ and Haar families need it.
    """
    if not (_is_integer(value) and minimum <= value <= MAX_QUBITS):
        raise ValueError(f"n={value!r} outside the supported range: n must be an integer "
                         f"in {minimum}..{MAX_QUBITS}")
    return int(value)


class PureState:
    """Normalized pure state of n qubits.

    Construction renormalizes inputs whose norm deviates from 1 by less than
    ``NORM_REPAIR_TOL`` and rejects anything worse, a non-finite norm (a NaN
    or infinite amplitude) included.  Amplitudes are stored read-only.
    """

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n:
            raise ValueError(f"amplitude count {amps.size} is not a power of 2")
        n = qubit_count(n)
        with np.errstate(over="ignore"):  # an overflowed norm is inf, and the check rejects it
            norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) < NORM_REPAIR_TOL:  # a NaN norm fails this, where >= would pass it
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
