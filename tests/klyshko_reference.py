"""The literal Klyshko recursion, kept as an independent reference.

The library builds the MK operator B only from the product form
B + i B' = ((1 - i)/2)**(n-1) (x)_j (a_j + i a'_j).sigma.  The functions
here build the pair (B, B') the long way instead, from

    B_1 = a_1 . sigma,    B'_1 = a'_1 . sigma
    B_k = B_{k-1} (x) (a_k + a'_k)/2 . sigma  +  B'_{k-1} (x) (a_k - a'_k)/2 . sigma
    B'_k = B'_{k-1} (x) (a_k + a'_k)/2 . sigma  -  B_{k-1} (x) (a_k - a'_k)/2 . sigma

as dense matrices, matrix-free on a vector, and on the corner entries
<0..0|B|1..1> that fix the canonical azimuthal offset.  ``mk_pair`` gives
the product form's pair, with B' built as B of the ``swapped`` settings.
``random_settings`` is the tests' one draw of random unit settings.
"""

import math
from typing import NamedTuple

import numpy as np

from mkvariance import MeasurementSettings, MKOperator
from mkvariance.linalg import PAULI_X, PAULI_Y, PAULI_Z

from overlap_reference import apply_single_qubit


def pauli_combination(v) -> np.ndarray:
    """v.sigma for an arbitrary (not necessarily unit) real 3-vector."""
    v = np.asarray(v, dtype=float).reshape(3)
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def random_settings(rng, n: int) -> MeasurementSettings:
    """n pairs of unit vectors, normalized standard-normal draws from ``rng``."""
    vecs = rng.standard_normal((2, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(n=n, a=vecs[0], a_prime=vecs[1])


def swapped(settings: MeasurementSettings) -> MeasurementSettings:
    """The settings with every a_j and a'_j exchanged."""
    return MeasurementSettings(n=settings.n, a=settings.a_prime, a_prime=settings.a)


class MKPair(NamedTuple):
    bell: MKOperator
    bell_swapped: MKOperator


def mk_pair(settings: MeasurementSettings) -> MKPair:
    """(B, B') by the product form: exchanging every a_j and a'_j turns M into
    i M^dag, whose Hermitian part (M - M^dag)/(2i) is B'."""
    return MKPair(MKOperator(settings), MKOperator(swapped(settings)))


def dense_pair(settings: MeasurementSettings) -> tuple[np.ndarray, np.ndarray]:
    """Explicit matrices (B, B') by the recursion."""
    b = pauli_combination(settings.a[0])
    bp = pauli_combination(settings.a_prime[0])
    for j in range(1, settings.n):
        half_sum = pauli_combination((settings.a[j] + settings.a_prime[j]) / 2.0)
        half_diff = pauli_combination((settings.a[j] - settings.a_prime[j]) / 2.0)
        b, bp = np.kron(b, half_sum) + np.kron(bp, half_diff), np.kron(bp, half_sum) - np.kron(b, half_diff)
    return b, bp


def apply_pair(a, a_prime, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B vec, B' vec) by propagating the recursion one qubit at a time.

    ``a`` and ``a_prime`` are sequences of n real 3-vectors, which need not
    be unit vectors.
    """
    n = len(a)
    u = apply_single_qubit(vec, n, 1, pauli_combination(a[0]))
    v = apply_single_qubit(vec, n, 1, pauli_combination(a_prime[0]))
    for j in range(2, n + 1):
        half_sum = pauli_combination((a[j - 1] + a_prime[j - 1]) / 2.0)
        half_diff = pauli_combination((a[j - 1] - a_prime[j - 1]) / 2.0)
        su = apply_single_qubit(u, n, j, half_sum)
        du = apply_single_qubit(u, n, j, half_diff)
        sv = apply_single_qubit(v, n, j, half_sum)
        dv = apply_single_qubit(v, n, j, half_diff)
        u, v = su + dv, sv - du
    return u, v


def raw_mean(a, a_prime, vec: np.ndarray) -> float:
    """<vec|B|vec> by the recursion on raw (possibly non-unit) vectors."""
    return float(np.vdot(vec, apply_pair(a, a_prime, vec)[0]).real)


def corner_pair(settings: MeasurementSettings) -> tuple[complex, complex]:
    """<0..0|B|1..1> and <0..0|B'|1..1> in O(n) scalar steps.

    The corner of a Kronecker product is the product of the factor corners,
    so the recursion collapses to a scalar one on the top-right entries
    v_x - i v_y.
    """

    def corner(v: np.ndarray) -> complex:
        return complex(v[0] - 1j * v[1])

    cb = corner(settings.a[0])
    cbp = corner(settings.a_prime[0])
    for j in range(1, settings.n):
        s = corner((settings.a[j] + settings.a_prime[j]) / 2.0)
        d = corner((settings.a[j] - settings.a_prime[j]) / 2.0)
        cb, cbp = cb * s + cbp * d, cbp * s - cb * d
    return cb, cbp


def corner_canonical_settings(n: int) -> MeasurementSettings:
    """The canonical fan, with its offset read off the corner phase.

    The fan is built once without offset; rotating every vector by delta
    shifts the corner phase by -n delta, so the offset is the corner's
    phase over n.
    """
    increment = (-1) ** (n + 1) * math.pi / n
    base = [j * increment for j in range(n)]

    def build(offset: float) -> MeasurementSettings:
        a = np.array([[math.cos(t + offset), math.sin(t + offset), 0.0] for t in base])
        ap = np.array([[math.cos(t + offset + math.pi / 2), math.sin(t + offset + math.pi / 2), 0.0]
                       for t in base])
        return MeasurementSettings(n=n, a=a, a_prime=ap)

    corner, _ = corner_pair(build(0.0))
    return build(float(np.angle(corner)) / n)
