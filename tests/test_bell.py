"""MK operator construction, canonical settings, GHZ generators, mean values.

The canonical operator's GHZ spectral form is the keystone regression here;
the product form is checked against the literal recursion of
``klyshko_reference`` and against an independent reassembly, and the norm
bound against dense eigendecompositions.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mkvariance import (
    MeasurementSettings,
    OptimizerConfig,
    PureState,
    canonical_mk,
    canonical_settings,
    generalized_ghz,
    ghz,
    max_mk_mean,
    mk_mean,
    mk_pair,
    random_state,
)
from mkvariance.bell import _start_directions

from klyshko_reference import apply_pair, corner_canonical_settings, dense_pair

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def obs(v):
    return v[0] * SX + v[1] * SY + v[2] * SZ


def random_settings(rng, n):
    vecs = rng.standard_normal((2, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(n=n, a=vecs[0], a_prime=vecs[1])


def spectral_form(n):
    gp = ghz(n, +1).amplitudes
    gm = ghz(n, -1).amplitudes
    return 2 ** ((n - 1) / 2) * (np.outer(gp, gp.conj()) - np.outer(gm, gm.conj()))


# --- construction ---


def test_base_case_single_qubit():
    settings = MeasurementSettings(n=1, a=np.array([[0.0, 0.0, 1.0]]), a_prime=np.array([[1.0, 0.0, 0.0]]))
    pair = mk_pair(settings)
    np.testing.assert_array_equal(pair.bell.dense(), SZ)
    np.testing.assert_array_equal(pair.bell_swapped.dense(), SX)


def test_canonical_two_qubit_eigenvalues():
    eigenvalues = np.linalg.eigvalsh(canonical_mk(2).bell.dense())
    np.testing.assert_allclose(
        sorted(eigenvalues), [-math.sqrt(2), 0.0, 0.0, math.sqrt(2)], atol=1e-12
    )


def test_exchange_symmetry_rebuild():
    # B of the swapped settings is B' of the original ones: the product form
    # against the literal recursion's B', then back again.
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        settings = random_settings(rng, n)
        pair = mk_pair(settings)
        rebuilt = mk_pair(settings.swapped())
        assert np.max(np.abs(rebuilt.bell.dense() - dense_pair(settings)[1])) < 1e-12
        assert np.max(np.abs(rebuilt.bell_swapped.dense() - pair.bell.dense())) < 1e-12


def test_recursion_consistency():
    # B_n must equal the one-step combination of the (n-1)-qubit pair with
    # the half-sum and half-difference observables of the last qubit.
    rng = np.random.default_rng(47)
    for n in (3, 4, 5):
        settings = random_settings(rng, n)
        sub = MeasurementSettings(n=n - 1, a=settings.a[:-1], a_prime=settings.a_prime[:-1])
        half_sum = obs((settings.a[-1] + settings.a_prime[-1]) / 2)
        half_diff = obs((settings.a[-1] - settings.a_prime[-1]) / 2)
        sub_pair = mk_pair(sub)
        expected = np.kron(sub_pair.bell.dense(), half_sum) + np.kron(
            sub_pair.bell_swapped.dense(), half_diff
        )
        assert np.max(np.abs(mk_pair(settings).bell.dense() - expected)) < 1e-12


def test_pair_members_are_hermitian():
    rng = np.random.default_rng(53)
    settings = random_settings(rng, 3)
    for op in (mk_pair(settings).bell, mk_pair(settings).bell_swapped):
        m = op.dense()
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


# --- the product form against the literal recursion ---


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_pair_matches_recursion(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(3):
        settings = random_settings(rng, n)
        pair = mk_pair(settings)
        b, b_prime = dense_pair(settings)
        assert np.max(np.abs(pair.bell.dense() - b)) <= 1e-12
        assert np.max(np.abs(pair.bell_swapped.dense() - b_prime)) <= 1e-12


@pytest.mark.parametrize("n", [*range(1, 7), 8, 12])
def test_matrix_free_pair_matches_recursion(n):
    rng = np.random.default_rng(90 + n)
    settings = random_settings(rng, n)
    pair = mk_pair(settings)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    vec /= np.linalg.norm(vec)
    b_vec, b_prime_vec = apply_pair(settings.a, settings.a_prime, vec)
    assert np.max(np.abs(pair.bell.apply(vec) - b_vec)) <= 1e-12
    assert np.max(np.abs(pair.bell_swapped.apply(vec) - b_prime_vec)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 17))
def test_canonical_offset_matches_corner_phase(n):
    settings = canonical_settings(n)
    reference = corner_canonical_settings(n)
    assert np.max(np.abs(settings.a - reference.a)) <= 1e-15
    assert np.max(np.abs(settings.a_prime - reference.a_prime)) <= 1e-15


# --- canonical settings ---


def test_canonical_settings_are_planar_units():
    for n in (2, 3, 5, 8):
        settings = canonical_settings(n)
        assert np.max(np.abs(settings.a[:, 2])) == 0.0
        assert np.max(np.abs(settings.a_prime[:, 2])) == 0.0
        for arr in (settings.a, settings.a_prime):
            np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-12)


def test_canonical_settings_relative_angles():
    # Consecutive a_j are separated by (-1)**(n+1) * pi/n; a'_j is a_j
    # rotated by +pi/2.  The absolute offset is fixed by the spectral form.
    for n in (2, 3, 4, 5):
        settings = canonical_settings(n)
        angles = np.arctan2(settings.a[:, 1], settings.a[:, 0])
        increments = np.diff(np.unwrap(angles))
        expected = (-1) ** (n + 1) * math.pi / n
        np.testing.assert_allclose(increments, expected, atol=1e-12)
        angles_prime = np.arctan2(settings.a_prime[:, 1], settings.a_prime[:, 0])
        rel = np.mod(angles_prime - angles, 2 * math.pi)
        np.testing.assert_allclose(rel, math.pi / 2, atol=1e-12)


def test_canonical_settings_perpendicular():
    for n in (2, 3, 6):
        settings = canonical_settings(n)
        dots = np.einsum("jk,jk->j", settings.a, settings.a_prime)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)


def test_canonical_settings_rejects_small_n():
    with pytest.raises(ValueError):
        canonical_settings(1)


# --- canonical operator: keystone spectral regression ---


@pytest.mark.parametrize("n", range(2, 11))
def test_canonical_spectral_form(n):
    deviation = np.max(np.abs(canonical_mk(n).bell.dense() - spectral_form(n)))
    assert deviation < 1e-10


@pytest.mark.parametrize("n", range(11, 17))
def test_canonical_ghz_eigenvectors_above_the_dense_cap(n):
    # Matrix-free: B GHZ+- = +-2**((n-1)/2) GHZ+-.
    op = canonical_mk(n).bell
    scale = 2 ** ((n - 1) / 2)
    for sign in (+1, -1):
        g = ghz(n, sign).amplitudes
        assert np.linalg.norm(op.apply(g) - sign * scale * g) < 1e-10 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_eigenvalue_structure(n):
    eigenvalues = np.linalg.eigvalsh(canonical_mk(n).bell.dense())
    top = 2 ** ((n - 1) / 2)
    assert abs(eigenvalues[-1] - top) < 1e-10
    assert abs(eigenvalues[0] + top) < 1e-10
    assert np.max(np.abs(eigenvalues[1:-1])) < 1e-10


def test_canonical_square_is_scaled_ghz_projector():
    for n in (2, 3, 4, 5, 6):
        b = canonical_mk(n).bell.dense()
        gp = ghz(n, +1).amplitudes
        gm = ghz(n, -1).amplitudes
        projector = np.outer(gp, gp.conj()) + np.outer(gm, gm.conj())
        assert np.max(np.abs(b @ b - 2 ** (n - 1) * projector)) < 1e-10


def test_operator_norm_above_dense_cap_is_the_canonical_value():
    # The closed form needs no dense matrix; the canonical value is known exactly.
    op = canonical_mk(11).bell
    assert op.n == 11
    assert op.operator_norm() == pytest.approx(2**5, rel=1e-9)
    with pytest.raises(ValueError, match="capped at 10 qubits"):
        op.dense()


def drawn_settings(rng, n, draw):
    """Random settings; on every third draw a'_1 = a_1 and on every fifth
    a'_n = -a_n, so qubits with a_j x a'_j = 0 are covered."""
    settings = random_settings(rng, n)
    a_prime = settings.a_prime.copy()
    if draw % 3 == 0:
        a_prime[0] = settings.a[0]
    if draw % 5 == 0:
        a_prime[-1] = -settings.a[-1]
    return MeasurementSettings(n=n, a=settings.a, a_prime=a_prime)


@pytest.mark.parametrize("n", range(1, 9))
def test_operator_norm_matches_dense(n):
    rng = np.random.default_rng(90 + n)
    for draw in range(15):
        op = mk_pair(drawn_settings(rng, n, draw)).bell
        dense = float(np.max(np.abs(np.linalg.eigvalsh(op.dense()))))
        assert op.operator_norm() == pytest.approx(dense, rel=1e-12, abs=1e-12), draw


@pytest.mark.parametrize("n", [11, 16])
def test_operator_norm_is_attained_above_dense_cap(n):
    # B^2 is largest on the product of the top eigenvectors of the
    # n_j . sigma, n_j = a_j x a'_j; checked matrix-free, without the formula,
    # and no drawn vector does better.
    rng = np.random.default_rng(100 + n)
    for draw in range(2):
        settings = drawn_settings(rng, n, draw)
        op = mk_pair(settings).bell
        v = np.ones(1)
        for axis in np.cross(settings.a, settings.a_prime):
            v = np.kron(v, np.linalg.eigh(obs(axis))[1][:, -1])
        norm = op.operator_norm()
        assert np.linalg.norm(op.apply(v)) == pytest.approx(norm, rel=1e-12)
        w = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        assert np.linalg.norm(op.apply(w / np.linalg.norm(w))) <= norm * (1 + 1e-12)


# --- GHZ-family states ---


def test_ghz_amplitudes():
    psi = ghz(2, +1)
    np.testing.assert_allclose(psi.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)
    psi = ghz(3, -1)
    assert psi.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert psi.amplitudes[-1] == pytest.approx(-1 / math.sqrt(2))


def test_ghz_orthogonality():
    for n in (2, 4):
        overlap = np.vdot(ghz(n, +1).amplitudes, ghz(n, -1).amplitudes)
        assert abs(overlap) < 1e-15


def test_generalized_ghz_amplitudes():
    psi = generalized_ghz(3, math.pi / 8)
    expected = np.zeros(8)
    expected[0] = math.cos(math.pi / 8)
    expected[-1] = math.sin(math.pi / 8)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)
    np.testing.assert_allclose(generalized_ghz(2, 0.0).amplitudes, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(
        generalized_ghz(2, math.pi / 4).amplitudes, ghz(2).amplitudes, atol=1e-15
    )


def test_generalized_ghz_rejects_out_of_range():
    with pytest.raises(ValueError, match="pi/4"):
        generalized_ghz(3, 1.0)
    with pytest.raises(ValueError, match="pi/4"):
        generalized_ghz(3, -0.1)


# --- mean values ---


def test_mk_mean_ghz_canonical():
    for n in (2, 3, 4, 5):
        value = mk_mean(ghz(n), canonical_settings(n))
        assert value == pytest.approx(2 ** ((n - 1) / 2), abs=1e-12)


def test_mk_mean_zero_state_canonical():
    for n in (2, 3, 4):
        assert abs(mk_mean(PureState.basis(n, 0), canonical_settings(n))) < 1e-12


def test_mk_mean_bounded_by_operator_norm():
    rng = np.random.default_rng(61)
    for n in (2, 3, 4):
        bound = 2 ** ((n - 1) / 2) + 1e-9
        for _ in range(25):
            settings = random_settings(rng, n)
            v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            psi = PureState(v / np.linalg.norm(v))
            assert abs(mk_mean(psi, settings)) <= bound


def test_mk_mean_arity_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        mk_mean(ghz(3), canonical_settings(2))


# --- mean maximization ---


def test_max_mk_mean_ghz2_tsirelson():
    # The two-qubit maximum is the norm bound sqrt(2), attained by GHZ+;
    # cross-checked against the largest eigenvalue of the returned settings.
    result = max_mk_mean(ghz(2), OptimizerConfig(seed=1, starts=16))
    assert result.value == pytest.approx(math.sqrt(2), abs=1e-6)
    top = float(np.max(np.abs(np.linalg.eigvalsh(mk_pair(result.settings).bell.dense()))))
    assert result.value <= top + 1e-9


def test_max_mk_mean_zero_state_stays_classical():
    # For |0...0> the only nonzero correlations are along z, so the mean
    # reduces to a multilinear form in the z-components, whose maximum over
    # the cube is attained at a vertex; enumerating vertices bounds it by 1.
    for n in (2, 3):
        result = max_mk_mean(PureState.basis(n, 0), OptimizerConfig(seed=2, starts=16))
        assert result.value <= 1.0 + 1e-6

        best_vertex = -np.inf
        for bits in range(4**n):
            z = np.array([1.0 if (bits >> k) & 1 else -1.0 for k in range(2 * n)])
            a = np.zeros((n, 3))
            ap = np.zeros((n, 3))
            a[:, 2] = z[:n]
            ap[:, 2] = z[n:]
            settings = MeasurementSettings(n=n, a=a, a_prime=ap)
            best_vertex = max(best_vertex, mk_mean(PureState.basis(n, 0), settings))
        assert best_vertex == pytest.approx(1.0, abs=1e-12)
        assert result.value <= best_vertex + 1e-6


def test_max_mk_mean_deterministic():
    config = OptimizerConfig(seed=9, starts=8)
    r1 = max_mk_mean(ghz(3), config)
    r2 = max_mk_mean(ghz(3), config)
    assert r1.value == r2.value
    assert r1.best_start == r2.best_start
    np.testing.assert_array_equal(r1.settings.a, r2.settings.a)


def test_max_mk_mean_start_cache_survives_another_state():
    # The starting directions are made once per (n, starts, seed).  Calls
    # that wrote into the cached array would start the second run on A from
    # B's maxima.  Two runs on A alone may not show that: each converged
    # start restarts at its own maximum and returns the same value.
    config = OptimizerConfig(seed=5, starts=8)

    def record(result):
        settings = result.settings.a.tobytes() + result.settings.a_prime.tobytes()
        return (repr(result.value), result.best_start, result.iterations, result.total_sweeps,
                result.capped_starts, result.converged, settings)

    first = record(max_mk_mean(random_state(3, 11), config))
    max_mk_mean(random_state(3, 12), config)
    assert record(max_mk_mean(random_state(3, 11), config)) == first
    with pytest.raises(ValueError, match="read-only"):
        _start_directions(3, 8, 5)[0, 0, 0] = 0


def test_max_mk_mean_reports_start_metadata():
    result = max_mk_mean(ghz(2), OptimizerConfig(seed=0, starts=5))
    assert result.starts == 5
    assert 0 <= result.best_start < 5
    assert result.iterations >= 1


def test_max_mk_mean_counts_capped_starts():
    # One sweep cannot meet the tolerance from a random start.
    result = max_mk_mean(random_state(3, 7), OptimizerConfig(seed=0, max_iterations=1))
    assert result.total_sweeps == result.starts
    assert result.capped_starts > 0
    assert result.iterations == 1


def test_max_mk_mean_ghz_has_no_capped_starts():
    result = max_mk_mean(ghz(3))
    assert result.capped_starts == 0
    assert result.starts <= result.total_sweeps < result.starts * 300
    assert result.value == pytest.approx(2.0, abs=1e-12)


def test_max_mk_mean_converged_follows_the_best_start():
    # A 60-sweep cap stops most starts of these Haar states at the cap.
    # Seed 2: all 32 starts stop at the cap, the best (start 28) among them.
    capped = max_mk_mean(random_state(4, 2), OptimizerConfig(seed=2, max_iterations=60))
    assert (capped.capped_starts, capped.best_start, capped.iterations) == (32, 28, 60)
    assert capped.converged is False
    # Seed 0: 31 starts are capped, but the best (start 2) stops after 56 sweeps.
    stopped = max_mk_mean(random_state(4, 0), OptimizerConfig(seed=0, max_iterations=60))
    assert (stopped.capped_starts, stopped.best_start, stopped.iterations) == (31, 2, 56)
    assert stopped.converged is True
    assert max_mk_mean(generalized_ghz(3, 0.3)).converged is True


def test_max_mk_mean_converges_on_a_slowly_creeping_state():
    # Without the extrapolation step 31 of these 32 starts crept up to the
    # default 300-sweep cap.
    result = max_mk_mean(random_state(4, 0), OptimizerConfig(seed=0))
    assert result.capped_starts == 0
    assert result.converged is True


def test_max_mk_mean_memory_is_chunked():
    # Each chunk caches n kets of 2**n amplitudes per start.  All 96
    # default starts at n=12 in one batch would hold 96 * 12 * 2**12
    # complex amplitudes, 75 MB; in chunks of 2**18 // (n 2**n) = 5 starts
    # the kets take under 4 MB.
    psi = random_state(12, 5)
    tracemalloc.start()
    try:
        result = max_mk_mean(psi, OptimizerConfig(seed=0, max_iterations=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.starts == 96
    assert result.total_sweeps == 2 * 96
    assert peak < 16 * 2**20


# --- settings serialization ---


def test_settings_json_round_trip():
    settings = canonical_settings(3)
    data = json.loads(json.dumps(settings.to_json_dict()))
    assert data["n"] == 3
    assert set(data["pairs"][0]) == {"a", "a_prime"}
    back = MeasurementSettings.from_json_dict(data)
    np.testing.assert_array_equal(back.a, settings.a)
    np.testing.assert_array_equal(back.a_prime, settings.a_prime)


def test_settings_validation():
    with pytest.raises(ValueError, match="non-unit"):
        MeasurementSettings(n=1, a=np.array([[1.0, 1.0, 0.0]]), a_prime=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        MeasurementSettings(n=2, a=np.array([[1.0, 0.0, 0.0]]), a_prime=np.array([[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["a", "a_prime"])
def test_settings_reject_non_finite_directions(bad, name):
    vectors = {"a": np.array([[1.0, 0.0, 0.0]]), "a_prime": np.array([[0.0, 1.0, 0.0]])}
    vectors[name] = np.array([[bad, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementSettings(n=1, **vectors)
