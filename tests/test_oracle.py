"""Purity oracle and seeded random state generators."""

import math

import numpy as np
import pytest

from mkvariance import (
    LocalUnitary,
    PureState,
    generalized_ghz,
    ghz,
    is_product_oracle,
    random_product_state,
    random_state,
)
from mkvariance.oracle import random_product_factors

from overlap_reference import localize_product, objective


def purity_oracle(amps, n, qubit):
    """Tr(rho^2) by explicit bit bookkeeping, independent of reduced_density."""
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
    return float(np.trace(rho @ rho).real)


def test_all_zero_state_is_product():
    verdict = is_product_oracle(PureState.basis(4, 0))
    assert verdict.is_product
    assert verdict.min_purity == pytest.approx(1.0, abs=1e-12)
    assert all(p == pytest.approx(1.0, abs=1e-12) for p in verdict.per_qubit_purities)


def test_ghz_is_not_product():
    verdict = is_product_oracle(ghz(3))
    assert not verdict.is_product
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in verdict.per_qubit_purities)


def test_generalized_ghz_purity_closed_form():
    # Each reduction of cos(phi)|0..0> + sin(phi)|1..1> is diagonal with
    # entries cos^2, sin^2, so the purity is cos^4 + sin^4 = 1 - sin^2(2 phi)/2
    # (0.75 at phi = pi/8); confirmed by the bit-level oracle.
    phi = math.pi / 8
    psi = generalized_ghz(3, phi)
    verdict = is_product_oracle(psi)
    expected = math.cos(phi) ** 4 + math.sin(phi) ** 4
    assert expected == pytest.approx(0.75, abs=1e-15)
    for qubit, p in enumerate(verdict.per_qubit_purities, start=1):
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(purity_oracle(psi.amplitudes, 3, qubit), abs=1e-12)
    assert not verdict.is_product


def test_purities_stay_in_qubit_range():
    rng = np.random.default_rng(71)
    for n in (2, 3, 5):
        for _ in range(20):
            verdict = is_product_oracle(random_state(n, int(rng.integers(2**31))))
            for p in verdict.per_qubit_purities:
                assert 0.5 - 1e-9 <= p <= 1.0 + 1e-9


def test_purities_invariant_under_local_unitaries():
    rng = np.random.default_rng(73)
    for n in (2, 3, 4):
        psi = random_state(n, int(rng.integers(2**31)))
        before = is_product_oracle(psi).per_qubit_purities
        factors = []
        for _ in range(n):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
        rotated = PureState(LocalUnitary(factors=tuple(factors)).apply(psi.amplitudes))
        after = is_product_oracle(rotated).per_qubit_purities
        np.testing.assert_allclose(after, before, atol=1e-10)


# --- product state generator ---


def test_random_product_state_is_product():
    for n in range(2, 9):
        for seed in range(100):
            assert is_product_oracle(random_product_state(n, seed)).is_product


def test_random_product_state_deterministic():
    a = random_product_state(4, 123)
    b = random_product_state(4, 123)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = random_product_state(4, 124)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_random_product_factors_localize_to_unit_objective():
    for seed in (0, 1, 2):
        factors = random_product_factors(3, seed)
        psi = random_product_state(3, seed)
        assert objective(psi, localize_product(factors)) == pytest.approx(1.0, abs=1e-12)


# --- Haar generator ---


def test_random_state_normalized_and_deterministic():
    a = random_state(3, 7)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    b = random_state(3, 7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_random_states_are_entangled_with_probability_one():
    # A Haar-random state has entangled reductions almost surely; any
    # counterexample seed would need to be logged and excluded.
    product_seeds = [
        seed for seed in range(100) if is_product_oracle(random_state(3, seed)).is_product
    ]
    assert product_seeds == []
