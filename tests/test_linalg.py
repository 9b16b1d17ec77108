"""Tensor-core tests: Kronecker products, spin observables, state vectors,
operator application, reduced densities, expectations.

Derived expected values are computed by independent oracles defined in this
file (brute-force entrywise expansion, bit-level partial trace, dense
eigendecomposition) and compared against the library paths.
"""

import math

import numpy as np
import pytest

from mkvariance import (
    PureState,
    apply_operator,
    apply_single_qubit,
    canonical_mk,
    expectation,
    ghz,
    generalized_ghz,
    kron,
    reduced_density,
    spin_observable,
    unit_vector3,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_oracle(a, b):
    """Literal entrywise expansion of the Kronecker product definition."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


class MatrixHandle:
    """An explicit matrix behind the operator-handle interface (n, apply)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.n = len(self.matrix).bit_length() - 1

    def apply(self, vec):
        return self.matrix @ vec


def partial_trace_oracle(amps, n, qubit):
    """2x2 reduction by explicit bit bookkeeping (qubit 1-based, MSB first)."""
    shift = n - qubit
    rho = np.zeros((2, 2), dtype=complex)
    for rest in range(2 ** (n - 1)):
        high = (rest >> shift) << (shift + 1)
        low = rest & ((1 << shift) - 1)
        for a in range(2):
            for b in range(2):
                ia = high | (a << shift) | low
                ib = high | (b << shift) | low
                rho[a, b] += amps[ia] * np.conj(amps[ib])
    return rho


# --- kron ---


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_sigma_z_diagonal():
    assert np.array_equal(kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_kron_sigma_x_antidiagonal():
    result = kron(SX, SX)
    assert np.array_equal(result, kron_oracle(SX, SX))
    assert np.array_equal(result, np.fliplr(np.eye(4)).astype(complex))


def test_kron_matches_brute_force_on_random():
    # Vectorized complex multiplication may differ from the scalar oracle in
    # the last ulp, hence the 1e-15 tolerance instead of exact equality.
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert np.max(np.abs(kron(a, b) - kron_oracle(a, b))) < 1e-15


def test_kron_associative_exact_on_pauli_entries():
    # Entry products of Pauli-type matrices are exactly representable, so
    # associativity holds with exact equality.
    mats = [SX, SY, SZ, I2, 0.5 * (SX + SY)]
    for a in mats:
        for b in mats:
            for c in mats:
                assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_kron_associative_to_roundoff_on_random():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14


def test_kron_rejects_oversized_result():
    big = np.eye(2**6, dtype=complex)
    with pytest.raises(ValueError, match="dense cap"):
        kron(kron(big, big), np.eye(2**5, dtype=complex))


# --- spin observables ---


def test_spin_observable_z_axis():
    assert np.array_equal(spin_observable([0, 0, 1]), SZ)


def test_spin_observable_x_axis():
    assert np.array_equal(spin_observable([1, 0, 0]), SX)


def test_spin_observable_eigenvalues_on_angle_grid():
    for theta in np.linspace(0, 2 * np.pi, 25):
        m = spin_observable([np.cos(theta), np.sin(theta), 0.0])
        np.testing.assert_allclose(np.linalg.eigvalsh(m), [-1.0, 1.0], atol=1e-12)


def test_spin_observable_squares_to_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        m = spin_observable(v)
        assert np.max(np.abs(m @ m - I2)) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_spin_observable_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        spin_observable([1.0, 1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_vector3_rejects_non_finite(bad):
    # A NaN norm compares false against any tolerance, so it must be caught
    # explicitly rather than slip through as "not too far from 1".
    for v in ([bad, 0.0, 0.0], [1.0, bad, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            unit_vector3(v)
        with pytest.raises(ValueError, match="non-finite"):
            spin_observable(v)


# --- PureState ---


def test_pure_state_indexing_convention():
    # Qubit 1 is the most significant bit: |10> sits at index 2.
    psi = PureState.from_bits((1, 0))
    assert psi.n == 2
    assert psi.amplitudes[2] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_pure_state_renormalizes_small_deviation():
    amps = np.zeros(4)
    amps[0] = 1.0 + 5e-7
    psi = PureState(amps)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9


def test_pure_state_rejects_large_deviation():
    amps = np.zeros(4)
    amps[0] = 1.01
    with pytest.raises(ValueError, match="norm"):
        PureState(amps)


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PureState(np.ones(7) / np.sqrt(7))


def test_pure_state_amplitudes_read_only():
    psi = PureState.basis(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# --- operator application ---


def test_apply_identity_handle():
    psi = ghz(3)
    out = apply_operator(MatrixHandle(np.eye(8)), psi)
    assert np.array_equal(out, psi.amplitudes)


def test_apply_sigma_z_on_qubit_one():
    psi = PureState.from_bits((1, 0))
    out = apply_operator(MatrixHandle(np.kron(SZ, I2)), psi)
    np.testing.assert_allclose(out, -psi.amplitudes, atol=1e-15)
    np.testing.assert_allclose(apply_single_qubit(psi.amplitudes, 2, 1, SZ), -psi.amplitudes, atol=1e-15)
    np.testing.assert_allclose(apply_single_qubit(psi.amplitudes, 2, 2, SZ), psi.amplitudes, atol=1e-15)


def test_apply_canonical_b3_on_ghz():
    # The canonical three-qubit operator has GHZ+ as its top eigenvector
    # with eigenvalue 2**((3-1)/2) = 2.
    psi = ghz(3, +1)
    out = apply_operator(canonical_mk(3).bell, psi)
    np.testing.assert_allclose(out, 2.0 * psi.amplitudes, atol=1e-12)


def test_apply_arity_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        apply_operator(MatrixHandle(np.eye(8)), ghz(2))


def test_matrix_free_apply_equals_dense_for_canonical():
    # n = 9, 10 exercise the dense path right up to the cap.
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 6, 9, 10):
        op = canonical_mk(n).bell
        dense = op.dense()
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = PureState(v / np.linalg.norm(v))
        assert np.max(np.abs(op.apply(psi.amplitudes) - dense @ psi.amplitudes)) < 1e-12


# --- expectation ---


def test_expectation_sigma_z_on_zero():
    psi = PureState.basis(1, 0)
    assert expectation(psi, MatrixHandle(SZ)) == pytest.approx(1.0, abs=1e-15)


def test_expectation_ghz_canonical():
    for n in range(2, 7):
        value = expectation(ghz(n), canonical_mk(n).bell)
        assert value == pytest.approx(2 ** ((n - 1) / 2), abs=1e-12)


def test_expectation_vanishes_on_all_zero_state():
    # |0...0> = (GHZ+ + GHZ-)/sqrt(2); the cross terms cancel.
    for n in range(2, 7):
        value = expectation(PureState.basis(n, 0), canonical_mk(n).bell)
        assert abs(value) < 1e-12


def test_expectation_rejects_non_hermitian():
    raising = np.array([[0, 1j], [0, 0]])
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(ValueError, match="Hermitian"):
        expectation(psi, MatrixHandle(raising))


# --- reduced density ---


def test_reduced_density_basis_state():
    rho = reduced_density(PureState.basis(2, 0), 1)
    np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)


def test_reduced_density_ghz_maximally_mixed():
    for qubit in (1, 2, 3):
        rho = reduced_density(ghz(3), qubit)
        np.testing.assert_allclose(rho, I2 / 2, atol=1e-15)


@pytest.mark.parametrize("phi", [0.0, np.pi / 12, np.pi / 8, np.pi / 5])
def test_reduced_density_generalized_ghz(phi):
    psi = generalized_ghz(2, phi)
    rho = reduced_density(psi, 2)
    expected = partial_trace_oracle(psi.amplitudes, 2, 2)
    np.testing.assert_allclose(rho, expected, atol=1e-14)
    np.testing.assert_allclose(np.diag(rho).real, [np.cos(phi) ** 2, np.sin(phi) ** 2], atol=1e-14)


def test_reduced_density_matches_oracle_on_random_states():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = PureState(v / np.linalg.norm(v))
        for qubit in range(1, n + 1):
            np.testing.assert_allclose(
                reduced_density(psi, qubit),
                partial_trace_oracle(psi.amplitudes, n, qubit),
                atol=1e-13,
            )


def test_reduced_density_trace_one_and_hermitian():
    rng = np.random.default_rng(23)
    for n in (2, 4, 6):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = PureState(v / np.linalg.norm(v))
        for qubit in range(1, n + 1):
            rho = reduced_density(psi, qubit)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_reduced_density_index_out_of_range():
    with pytest.raises(ValueError, match="range"):
        reduced_density(ghz(2), 3)
