"""Tensor-core tests: state vectors, operator application, reduced densities.

Derived expected values are computed by independent oracles (explicit
Kronecker-product matrices, a bit-level partial trace) and compared against
the library paths.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from mkvariance import (
    MAX_QUBITS,
    PureState,
    canonical_mk,
    canonical_settings,
    cli,
    decide,
    ghz,
    generalized_ghz,
    max_mk_mean,
    random_product_state,
    random_state,
    reduced_density,
)
from mkvariance.criterion import maximize_objective
from mkvariance.oracle import random_product_factors

from overlap_reference import apply_single_qubit

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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


# --- PureState ---


def test_pure_state_indexing_convention():
    # Qubit 1 is the most significant bit: |10> sits at index 2.
    psi = PureState.basis(2, 0b10)
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


@pytest.mark.parametrize("huge", [1e200, -2e154, 1e154 + 1e154j, 1.7e308j])
def test_pure_state_rejects_a_huge_finite_amplitude_without_a_warning(huge):
    # The squared norm overflows to inf; pyproject.toml makes numpy's
    # overflow RuntimeWarning an error, so only a quiet norm gets here.
    with pytest.raises(ValueError, match="norm inf"):
        PureState([huge, 0, 0, 0])


@pytest.mark.parametrize("bad, norm", [
    (np.nan, "nan"), (complex(0, np.inf), "inf"), (complex(0.5, np.nan), "nan"), (complex(np.inf, np.nan), "nan"),
], ids=["nan", "imaginary-inf", "imaginary-nan", "inf-and-nan"])
def test_pure_state_rejects_a_non_finite_amplitude(bad, norm):
    # Every comparison with a NaN norm is false, so the check must be one that fails on it.
    with pytest.raises(ValueError, match=f"norm {norm} deviates"):
        PureState([bad, 0, 0, 1])


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PureState(np.ones(7) / np.sqrt(7))


def test_pure_state_amplitudes_read_only():
    psi = PureState.basis(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# --- operator application ---


def test_apply_sigma_z_on_qubit_one():
    psi = PureState.basis(2, 0b10)
    out = apply_single_qubit(psi.amplitudes, 2, 1, SZ)
    np.testing.assert_allclose(out, np.kron(SZ, I2) @ psi.amplitudes, atol=1e-15)
    np.testing.assert_allclose(out, -psi.amplitudes, atol=1e-15)
    np.testing.assert_allclose(apply_single_qubit(psi.amplitudes, 2, 2, SZ), psi.amplitudes, atol=1e-15)


def test_apply_canonical_b3_on_ghz():
    # The canonical three-qubit operator has GHZ+ as its top eigenvector
    # with eigenvalue 2**((3-1)/2) = 2.
    psi = ghz(3, +1)
    out = canonical_mk(3).apply(psi.amplitudes)
    np.testing.assert_allclose(out, 2.0 * psi.amplitudes, atol=1e-12)


def test_matrix_free_apply_equals_dense_for_canonical():
    # n = 9, 10 exercise the dense path right up to the cap.
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 6, 9, 10):
        op = canonical_mk(n)
        dense = op.dense()
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = PureState(v / np.linalg.norm(v))
        assert np.max(np.abs(op.apply(psi.amplitudes) - dense @ psi.amplitudes)) < 1e-12


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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PureState.basis(2, 4), "basis index 4 out of range for n=2", id="basis-4"),
    pytest.param(lambda: PureState.basis(2, -1), "basis index -1 out of range for n=2", id="basis-minus-1"),
    pytest.param(lambda: ghz(3, sign=0), "sign must be", id="ghz-sign-0"),
    pytest.param(lambda: ghz(3, sign=2), "sign must be", id="ghz-sign-2"),
])
def test_a_basis_index_or_ghz_sign_out_of_range_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ghz(64), id="ghz"),
    pytest.param(lambda: generalized_ghz(64, 0.3), id="generalized_ghz"),
    pytest.param(lambda: PureState.basis(64, 0), id="basis"),
    pytest.param(lambda: random_state(64, 0), id="random_state"),
    pytest.param(lambda: random_product_state(17, 0), id="random_product_state"),
])
def test_oversized_qubit_counts_are_rejected_before_allocation(build):
    # 2**64 amplitudes cannot be allocated, so the count must be checked first.
    with pytest.raises(ValueError, match="outside the supported range"):
        build()


def state_of(n):
    """|0...0> of n qubits; above MAX_QUBITS, where no PureState exists, a
    stand-in that carries only n, as the searches and decide read nothing
    else first."""
    return PureState.basis(n, 0) if n <= MAX_QUBITS else SimpleNamespace(n=n)


def run_decide(n, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n - 1)}))
    args = cli.build_parser().parse_args(["decide", str(path)])
    args.run(args)


def run_ghz_scan(n, tmp_path):
    args = cli.build_parser().parse_args(["ghz-scan", "--n", str(n)])
    args.run(args)


# Each site that takes a qubit count, with the smallest n it accepts.
QUBIT_COUNT_SITES = {
    "PureState": (1, lambda n, _: PureState(np.full(2**n, 2 ** (-n / 2)))),
    "random_product_factors": (1, lambda n, _: random_product_factors(n, 0)),
    "random_state": (2, lambda n, _: random_state(n, 0)),
    "canonical_settings": (2, lambda n, _: canonical_settings(n)),
    "ghz": (2, lambda n, _: ghz(n)),
    "generalized_ghz": (2, lambda n, _: generalized_ghz(n, 0.3)),
    "max_mk_mean": (2, lambda n, _: max_mk_mean(state_of(n))),
    "maximize_objective": (2, lambda n, _: maximize_objective(state_of(n))),
    # decide checks n itself, before its certificate reads the state.
    "decide": (2, lambda n, _: decide(state_of(n))),
    "cli-decide": (2, run_decide),
    "cli-ghz-scan": (2, run_ghz_scan),
}


@pytest.mark.parametrize("site, n", [
    pytest.param(site, n, id=f"{site}-n{n}")
    for site, (minimum, _) in QUBIT_COUNT_SITES.items()
    for n in (minimum - 1, MAX_QUBITS + 1)
])
def test_every_site_rejects_a_qubit_count_outside_its_range(tmp_path, site, n):
    minimum, call = QUBIT_COUNT_SITES[site]
    with pytest.raises(ValueError, match="outside the supported range") as raised:
        call(n, tmp_path)
    # One rule, one message.  Below the minimum it names the site's own range;
    # the decide command checks n = 17 while loading, against the states' range 1..16.
    assert "n must be an integer in" in str(raised.value)
    if n < minimum:
        assert f"in {minimum}..{MAX_QUBITS}" in str(raised.value)


@pytest.mark.parametrize("site", list(QUBIT_COUNT_SITES))
def test_every_site_accepts_its_smallest_qubit_count(tmp_path, site):
    minimum, call = QUBIT_COUNT_SITES[site]
    call(minimum, tmp_path)
