"""Variance computation, the local-unitary objective search, and the verdict.

Independent oracles used here: explicit dense conjugation U^dag B U for the
covariance identity, the closed-form localizer for product states (in
``overlap_reference``), and a fine grid over the reduced angle space for the
two-qubit singlet.
"""

import functools
import math
import tracemalloc
from dataclasses import asdict, astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

from mkvariance import (
    OptimizerConfig,
    PureState,
    canonical_mk,
    decide,
    generalized_ghz,
    ghz,
    is_product_oracle,
    max_mk_mean,
    random_product_state,
    random_state,
    reduced_density,
    variance,
)
from mkvariance import ascent, bell, criterion
from mkvariance.ascent import VALUE_TOLERANCE, _ascend_batch
from mkvariance.cli import decision_json
from mkvariance.criterion import (
    _end_values, _objective, _overlaps, _phase_fixed, _rows, _sweep, maximize_objective)
from mkvariance.oracle import random_product_factors

from overlap_reference import (
    identity_unitary, local_unitary, localize_product, near_product_state, objective, rotate)


def haar_factor(rng):
    """Haar-random 2x2 unitary via QR with phase correction."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(rng, n):
    return local_unitary([haar_factor(rng) for _ in range(n)])


def dense_matrix(factors):
    """U_1 (x) ... (x) U_n as an explicit matrix."""
    return functools.reduce(np.kron, factors, np.eye(1, dtype=complex))


def conjugated_variance(psi, factors):
    """Delta(psi, U^dag B U) of the canonical B, evaluated covariantly as Delta(U psi, B)."""
    return variance(PureState(rotate(psi, factors)), canonical_mk(psi.n))


def product_from_factors(factors):
    amps = np.array([1.0 + 0.0j])
    for f in factors:
        amps = np.kron(amps, f)
    return PureState(amps)


# --- variance ---


@pytest.mark.parametrize("n", range(2, 7))
def test_variance_ceiling_on_all_zero_state(n):
    value = variance(PureState.basis(n, 0), canonical_mk(n))
    assert value == pytest.approx(2 ** (n - 1), abs=1e-10)


@pytest.mark.parametrize("n", range(2, 7))
def test_variance_vanishes_on_ghz(n):
    assert variance(ghz(n), canonical_mk(n)) < 1e-10


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("phi", [0.0, math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4])
def test_variance_generalized_ghz_closed_form(n, phi):
    value = variance(generalized_ghz(n, phi), canonical_mk(n))
    assert value == pytest.approx(2 ** (n - 1) * math.cos(2 * phi) ** 2, abs=1e-9)


class MatrixHandle:
    """An explicit one-qubit matrix behind the operator-handle interface."""

    n = 1

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)

    def apply(self, vec):
        return self.matrix @ vec


def test_variance_rejects_non_hermitian():
    raising = np.array([[0, 1j], [0, 0]])
    psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    with pytest.raises(ValueError, match="Hermitian"):
        variance(psi, MatrixHandle(raising))


def test_variance_arity_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        variance(ghz(3), canonical_mk(2))


# --- conjugated variance ---


def test_conjugated_variance_identity_on_zero_state():
    for n in (2, 3, 4):
        value = conjugated_variance(PureState.basis(n, 0), identity_unitary(n))
        assert value == pytest.approx(2 ** (n - 1), abs=1e-10)


def test_conjugated_variance_localizer_restores_ceiling():
    for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
        factors = random_product_factors(n, seed)
        psi = product_from_factors(factors)
        unitary = localize_product(factors)
        value = conjugated_variance(psi, unitary)
        assert value == pytest.approx(2 ** (n - 1), abs=1e-9)


def test_conjugated_variance_matches_dense_conjugation():
    # Unitary covariance: Delta(psi, U^dag B U) computed with explicit dense
    # matrices must match the covariant evaluation to 1e-10.
    rng = np.random.default_rng(19)
    for n in (2, 3, 4, 5, 6):
        unitary = random_local_unitary(rng, n)
        psi = random_state(n, int(rng.integers(2**31)))
        b = canonical_mk(n).dense()
        u = dense_matrix(unitary)
        conjugated = u.conj().T @ b @ u
        mean = np.vdot(psi.amplitudes, conjugated @ psi.amplitudes).real
        square = np.vdot(psi.amplitudes, conjugated @ conjugated @ psi.amplitudes).real
        assert conjugated_variance(psi, unitary) == pytest.approx(square - mean**2, abs=1e-10)


# --- objective and phase fixing ---


def test_objective_zero_state_identity():
    assert objective(PureState.basis(3, 0), identity_unitary(3)) == pytest.approx(1.0, abs=1e-14)


def test_objective_generalized_ghz_identity():
    psi = generalized_ghz(4, 0.3)
    assert objective(psi, identity_unitary(4)) == pytest.approx(1.0, abs=1e-14)


def test_objective_uniform_superposition():
    for n in (2, 3, 5):
        psi = PureState(np.full(2**n, 2 ** (-n / 2), dtype=complex))
        value = objective(psi, identity_unitary(n))
        assert value == pytest.approx(2 ** (1 - n), abs=1e-14)


def test_objective_bounded_by_one():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        for _ in range(20):
            psi = random_state(n, int(rng.integers(2**31)))
            unitary = random_local_unitary(rng, n)
            value = objective(psi, unitary)
            assert 0.0 <= value <= 1.0 + 1e-9


def test_phase_fix_leaves_nonnegative_overlaps_alone():
    # On basis states 0 and 7 the overlap b, then a, is zero; a zero overlap keeps its phase.
    rows = identity_unitary(3)
    for psi in (generalized_ghz(3, 0.4), PureState.basis(3, 0), PureState.basis(3, 7)):
        for before, after in zip(rows, _phase_fixed(psi.amplitudes, rows)[0]):
            np.testing.assert_array_equal(before, after)


def test_phase_fix_rotates_overlaps_nonnegative():
    # Overlaps -0.6 and 0.8i become 0.6 and 0.8 with moduli preserved; the
    # correction phases live on qubit 1 only.
    amps = np.zeros(8, dtype=complex)
    amps[0] = -0.6
    amps[-1] = 0.8j
    psi = PureState(amps)
    identity = identity_unitary(3)
    fixed = _phase_fixed(psi.amplitudes, identity)[0]
    rotated = rotate(psi, fixed)
    assert rotated[0] == pytest.approx(0.6, abs=1e-14)
    assert rotated[-1] == pytest.approx(0.8, abs=1e-14)
    assert abs(rotated[0].imag) < 1e-14 and abs(rotated[-1].imag) < 1e-14
    for before, after in zip(identity[1:], fixed[1:]):
        np.testing.assert_array_equal(before, after)


def test_phase_fix_preserves_objective():
    rng = np.random.default_rng(37)
    for _ in range(10):
        psi = random_state(3, int(rng.integers(2**31)))
        unitary = random_local_unitary(rng, 3)
        fixed = _phase_fixed(psi.amplitudes, unitary)[0]
        assert objective(psi, fixed) == pytest.approx(objective(psi, unitary), abs=1e-14)
        rotated = rotate(psi, fixed)
        assert rotated[0].real >= -1e-12 and abs(rotated[0].imag) < 1e-12
        assert rotated[-1].real >= -1e-12 and abs(rotated[-1].imag) < 1e-12


# --- localizer ---


def test_localize_product_on_zero_factors():
    unitary = localize_product([np.array([1.0, 0.0])] * 3)
    np.testing.assert_allclose(dense_matrix(unitary), np.eye(8), atol=1e-14)


def test_localize_product_hadamard_like():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    unitary = localize_product([plus])
    out = unitary[0] @ plus
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)


def test_localize_product_reaches_unit_objective():
    for n, seed in ((2, 5), (3, 6), (4, 7), (6, 8)):
        factors = random_product_factors(n, seed)
        psi = product_from_factors(factors)
        value = objective(psi, localize_product(factors))
        assert value == pytest.approx(1.0, abs=1e-12)


def test_localize_product_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        localize_product([np.array([1.0, 1.0])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_localize_product_rejects_non_finite(bad):
    # A NaN norm deviation compares false against the tolerance.
    with pytest.raises(ValueError, match="norm"):
        localize_product([[bad, 0.0]])


# --- objective maximization ---


def test_maximize_objective_product_states_reach_one():
    for n in (2, 3, 4, 5):
        for seed in range(5):
            psi = random_product_state(n, 100 * n + seed)
            result = maximize_objective(psi, OptimizerConfig(seed=seed))
            assert result.value == pytest.approx(1.0, abs=1e-6)


def test_maximize_objective_generalized_ghz_identity_is_global():
    for phi in (0.1, math.pi / 8, math.pi / 4):
        psi = generalized_ghz(3, phi)
        result = maximize_objective(psi, OptimizerConfig(seed=0, starts=16))
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.metadata.identity_value == pytest.approx(1.0, abs=1e-12)


def test_maximize_objective_never_below_identity_start():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        psi = random_state(n, int(rng.integers(2**31)))
        result = maximize_objective(psi, OptimizerConfig(seed=1, starts=8))
        assert result.value >= result.metadata.identity_value - 1e-12


def test_maximize_objective_deterministic():
    psi = random_state(3, 77)
    config = OptimizerConfig(seed=5, starts=12)
    r1 = maximize_objective(psi, config)
    r2 = maximize_objective(psi, config)
    assert r1.value == r2.value
    assert r1.metadata.best_start == r2.metadata.best_start
    np.testing.assert_array_equal(r1.factors, r2.factors)


def test_ascent_iterations_are_monotone():
    rng = np.random.default_rng(43)
    cfg = OptimizerConfig(seed=0, starts=1, max_iterations=200)
    for n in (2, 3, 4):
        psi = random_state(n, int(rng.integers(2**31)))
        thetas, chis = rng.uniform(0, [math.pi, 2 * math.pi], size=(1, n, 2)).transpose(2, 0, 1)
        # A batch of one start, swept by hand to record the value after each sweep.
        t = psi.amplitudes
        start = _rows(thetas / 2, chis, np.empty((1, n, 2, 2), complex))
        batch = start
        history = [_objective(t, batch)[0]]
        for _ in range(cfg.max_iterations):
            batch, values = _sweep(t, batch)
            history.append(values[0])
            if history[-1] - history[-2] < VALUE_TOLERANCE:
                break
        # A zero candidate has value 0 and is never kept, so the driver must
        # match the plain sweep loop exactly.
        values, sweeps, _ = _ascend_batch(
            lambda rows: _objective(t, rows), lambda rows: _sweep(t, rows), np.zeros_like, start, cfg, 1)
        value = values[0]
        assert sweeps[0] == len(history) - 1
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert value == history[-1]


def test_maximize_objective_singlet_grid_cross_check():
    # Independent oracle: each factor is parameterized by (theta, chi); a
    # global factor phase cancels in the objective and, for the singlet, the
    # two chi angles enter only through their difference (spot-checked
    # below), so the 4-angle space collapses to (theta1, theta2, dchi),
    # gridded at resolution pi/200.
    singlet = PureState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))
    result = maximize_objective(singlet, OptimizerConfig(seed=3, starts=16))

    def factor(theta, chi):
        return np.array(
            [
                [math.cos(theta / 2), np.exp(-1j * chi) * math.sin(theta / 2)],
                [-np.exp(1j * chi) * math.sin(theta / 2), math.cos(theta / 2)],
            ]
        )

    rng = np.random.default_rng(0)
    for _ in range(5):
        t1, t2 = rng.uniform(0, math.pi, 2)
        x1, x2 = rng.uniform(0, 2 * math.pi, 2)
        u_full = [factor(t1, x1), factor(t2, x2)]
        u_reduced = [factor(t1, x1 - x2), factor(t2, 0.0)]
        assert objective(singlet, u_full) == pytest.approx(
            objective(singlet, u_reduced), abs=1e-12
        )

    m = singlet.amplitudes.reshape(2, 2)
    thetas = np.linspace(0.0, math.pi, 201)
    dchi = np.arange(0.0, 2 * math.pi, math.pi / 200)
    c2, s2 = np.cos(thetas / 2), np.sin(thetas / 2)
    phase = np.exp(-1j * dchi)
    grid_max = -1.0
    for t1 in thetas:
        c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
        # a = row0(1) M row0(2), b = row1(1) M row1(2) with chi2 = 0
        a = (
            c1 * c2[:, None] * m[0, 0]
            + c1 * s2[:, None] * m[0, 1]
            + s1 * phase[None, :] * c2[:, None] * m[1, 0]
            + s1 * phase[None, :] * s2[:, None] * m[1, 1]
        )
        b = (
            np.conj(phase)[None, :] * s1 * s2[:, None] * m[0, 0]
            - np.conj(phase)[None, :] * s1 * c2[:, None] * m[0, 1]
            - c1 * s2[:, None] * m[1, 0]
            + c1 * c2[:, None] * m[1, 1]
        )
        value = np.max(np.abs(a) ** 2 + np.abs(b) ** 2)
        grid_max = max(grid_max, float(value))

    assert result.value >= grid_max - 1e-9
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert grid_max == pytest.approx(result.value, abs=1e-3)
    # The maximizer concentrates all weight on the end components.
    rotated = rotate(singlet, result.factors)
    assert abs(rotated[1]) ** 2 + abs(rotated[2]) ** 2 < 1e-9


# --- decision ---


def test_decide_generalized_ghz_pi_over_8():
    report = decide(generalized_ghz(3, math.pi / 8), OptimizerConfig(seed=0))
    assert report.verdict == "entangled"
    assert report.variance == pytest.approx(4 * math.cos(math.pi / 4) ** 2, abs=1e-9)
    assert report.variance == pytest.approx(2.0, abs=1e-9)
    assert report.margin == pytest.approx(2.0, abs=1e-9)
    assert report.bound == 4.0


def test_decide_random_product_states():
    for n in (2, 3, 4):
        for seed in range(5):
            psi = random_product_state(n, 991 * n + seed)
            report = decide(psi, OptimizerConfig(seed=seed))
            assert report.verdict == "product"
            assert abs(report.variance - report.bound) <= 1e-6 * report.bound
            assert report.objective_value == pytest.approx(1.0, abs=1e-6)
            assert report.alpha >= -1e-9 and report.beta >= -1e-9


def test_decide_ghz_entangled():
    report = decide(ghz(3), OptimizerConfig(seed=0))
    assert report.verdict == "entangled"
    assert report.variance < report.bound
    assert report.margin > 0.9 * report.bound  # variance stays near zero on GHZ


def test_decide_phase_invariance():
    psi = random_state(3, 123)
    rotated = PureState(psi.amplitudes * np.exp(0.7j))
    r1 = decide(psi, OptimizerConfig(seed=2))
    r2 = decide(rotated, OptimizerConfig(seed=2))
    assert r1.verdict == r2.verdict
    assert r1.objective_value == pytest.approx(r2.objective_value, abs=1e-12)
    assert r1.variance == pytest.approx(r2.variance, abs=1e-10)


def test_decide_near_threshold_margins_are_reported():
    # Just above the relative threshold tau the verdict flips to entangled;
    # far below it the state is numerically indistinguishable from a product
    # and the margin is still reported for inspection.
    detected = decide(generalized_ghz(3, 0.01), OptimizerConfig(seed=0))
    assert detected.verdict == "entangled"
    assert detected.margin == pytest.approx(4 * math.sin(0.02) ** 2, abs=1e-9)
    buried = decide(generalized_ghz(3, 1e-4), OptimizerConfig(seed=0))
    assert buried.verdict == "product"
    assert 0.0 < buried.margin < 1e-6 * buried.bound


def test_decide_report_serializes():
    # GHZ(2) settles by the bound, so its run record is the zero record.
    report = decide(ghz(2), OptimizerConfig(seed=0, starts=4))
    data = decision_json(report)
    assert data["verdict"] == "entangled"
    assert set(data) >= {"objective_value", "alpha", "beta", "variance", "bound", "margin"}
    assert data["certificate"] == {"overlap_bound": 0.5, "variance_bound": 1.0, "witness_margin": 2.0,
                                   "settles": "entangled"}
    assert data["optimizer"] == {"starts": 0, "iterations": 0, "best_start": 0, "identity_value": 0.0,
                                 "total_sweeps": 0, "capped_starts": 0, "starts_at_best": 0, "converged": False}
    # A state in the tau shell ascends from the witness alone, whatever starts are configured.
    data = decision_json(decide(near_product_state(3, 2, 1e-6), OptimizerConfig(seed=0, starts=4)))
    assert data["certificate"]["settles"] is None
    assert data["optimizer"]["starts"] == data["optimizer"]["starts_at_best"] == 1
    assert data["optimizer"]["best_start"] == 0
    assert data["optimizer"]["converged"] is True


def test_decide_report_invariants_on_random_states():
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        for _ in range(5):
            seed = int(rng.integers(2**31))
            psi = random_state(n, seed)
            rep = decide(psi, OptimizerConfig(seed=seed % 100))
            assert 0.0 <= rep.objective_value <= 1.0 + 1e-9
            assert rep.alpha >= -1e-9 and rep.beta >= -1e-9
            assert 0.0 <= rep.variance <= rep.bound + 1e-6
            assert (rep.verdict == "product") == (rep.margin <= rep.tau * rep.bound)


def test_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        local_unitary([np.array([[1.0, 0.0], [0.0, 2.0]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_local_unitary_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="unitary"):
        local_unitary([np.diag([bad, 1.0])])


# NaN arithmetic warns on the way, which the suite's settings turn into errors.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_amplitude_gets_no_verdict():
    # PureState refuses a NaN amplitude.  Past that check, as in this
    # stand-in, every objective value is NaN; the search must raise rather
    # than hand decide a factor array whose margin fails the test and reads
    # "product".
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[5] = math.nan, 1.0
    config = OptimizerConfig(seed=0, starts=4)
    with pytest.raises(ValueError, match="not finite"):
        maximize_objective(SimpleNamespace(n=3, amplitudes=amps), config)
    with pytest.raises(ValueError, match="not finite"):
        decide(SimpleNamespace(n=3, amplitudes=amps), config)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_nan_amplitude_raises_before_any_sweep(n, monkeypatch):
    # PureState refuses a NaN amplitude, so a stand-in carries it past that
    # check.  Every start of a NaN state has a NaN value, so the shared driver
    # raises on the starting values; no search sweeps it to the cap.
    calls = []
    for module in (criterion, bell):
        monkeypatch.setattr(module, "_sweep", lambda *args, sweep=module._sweep: calls.append(1) or sweep(*args))
    amps = random_state(n, 1).amplitudes.copy()
    amps[1] = math.nan
    for search in (maximize_objective, decide, max_mk_mean):
        with pytest.raises(ValueError, match="not finite"):
            search(SimpleNamespace(n=n, amplitudes=amps))
    assert calls == []


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="starts"):
        OptimizerConfig(starts=0)
    assert OptimizerConfig().resolved_starts(6) == 48
    assert OptimizerConfig(starts=7).resolved_starts(6) == 7
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="starts"):
            OptimizerConfig(starts=bad)
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerConfig(max_iterations=bad)
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=True)
    assert OptimizerConfig(seed=np.int64(3), starts=np.int64(5)).resolved_starts(2) == 5


def test_numpy_integer_seed_draws_the_same_starts():
    # random.Random refuses numpy integer seeds, which OptimizerConfig accepts.
    psi = random_state(4, 3)
    plain = maximize_objective(psi, OptimizerConfig(seed=3))
    numpy_seed = maximize_objective(psi, OptimizerConfig(seed=np.int64(3)))
    assert numpy_seed.value == plain.value
    assert numpy_seed.metadata == plain.metadata
    assert numpy_seed.factors.tobytes() == plain.factors.tobytes()


def test_start_angles_come_from_the_python_random_stream(monkeypatch):
    # The first four values of random.Random(0).random(), written out, so a
    # change of the stream, the draw order (n thetas, then n chis, per start)
    # or the scaling by pi and 2 pi fails here.
    captured = []

    def spy(evaluate, sweep, retract, params, *rest):
        captured.append(params.copy())
        return _ascend_batch(evaluate, sweep, retract, params, *rest)

    monkeypatch.setattr(criterion, "_ascend_batch", spy)
    maximize_objective(random_state(2, 0), OptimizerConfig(seed=0, starts=2))
    angles = [(0.0, 0.0), (0.0, 0.0),
              (math.pi * 0.8444218515250481, 2 * math.pi * 0.420571580830845),
              (math.pi * 0.7579544029403025, 2 * math.pi * 0.25891675029296335)]
    expected = []
    for theta, chi in angles:
        xi0, xi1 = math.cos(theta / 2), complex(math.cos(chi), math.sin(chi)) * math.sin(theta / 2)
        expected.append([[xi0, xi1.conjugate()], [-xi1, xi0]])
    assert len(captured) == 1
    np.testing.assert_allclose(captured[0], np.array(expected).reshape(2, 2, 2, 2), rtol=0, atol=1e-15)


@pytest.mark.parametrize("tau", [-1.0, -1e-9, 1.0, 2.0, math.nan, math.inf])
def test_decide_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        decide(PureState.basis(2, 0), OptimizerConfig(seed=0, starts=2), tau=tau)
    with pytest.raises(ValueError, match="tau"):
        decide(random_state(3, 5), OptimizerConfig(seed=0, starts=2), tau=tau)


def test_decide_accepts_tau_at_zero():
    assert decide(ghz(2), OptimizerConfig(seed=0, starts=2), tau=0.0).verdict == "entangled"


def test_maximize_objective_memory_is_chunked():
    # Unchunked, 112 starts at n = 14 hold (112, 2, 2**13) complex arrays
    # and peak near 100 MB; chunks of 2**18 // 2**14 = 16 starts stay far
    # below the 64 MB bound.
    psi = random_product_state(14, 3)
    tracemalloc.start()
    try:
        result = maximize_objective(psi, OptimizerConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.metadata.starts == 112
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert peak < 64 * 2**20


# --- closed-form variance and the run record ---


CLOSED_FORM_STATES = (
    [pytest.param("haar", n, id=f"haar-n{n}") for n in range(2, 9)]
    + [pytest.param("product", n, id=f"product-n{n}") for n in range(2, 9)]
    + [pytest.param("ghz", n, id=f"ghz-n{n}") for n in range(2, 9)]
)


def closed_form_state(kind, n, k):
    """The k-th state of a kind in ``CLOSED_FORM_STATES``, and its config."""
    if kind == "haar":
        psi = random_state(n, 700 * n + k)
    elif kind == "product":
        psi = random_product_state(n, 800 * n + k)
    else:
        psi = generalized_ghz(n, (2 * k + 1) * math.pi / 32)
    return psi, OptimizerConfig(seed=k, starts=8 if n >= 7 else None)


@pytest.mark.parametrize("kind, n", CLOSED_FORM_STATES)
def test_maximizer_factors_are_a_read_only_local_unitary(kind, n):
    # The search and decide build each factor from a unit row and check
    # nothing at run time, so their output is checked here.
    for k in range(3):
        psi, config = closed_form_state(kind, n, k)
        for factors in (maximize_objective(psi, config).factors, decide(psi, config).factors):
            assert factors.shape == (n, 2, 2) and factors.dtype == complex
            assert not factors.flags.writeable
            local_unitary(factors)
            overlaps = _overlaps(psi.amplitudes, factors[None])[0]
            assert np.all(np.abs(overlaps.imag) <= 1e-15) and np.all(overlaps.real >= -1e-15)


@functools.cache
def wide_shell_states():
    """The states ``near_product_state(n, seed, eps)`` at n = 3-8, seeds
    0-39 and eps = 1e-6, 2e-6 whose certificate settles nothing."""
    candidates = [near_product_state(n, seed, eps) for n in range(3, 9) for seed in range(40) for eps in (1e-6, 2e-6)]
    return tuple(psi for psi in candidates if decide(psi).certificate.settles is None)


REPORT_STATES = {
    "haar": lambda: [random_state(n, 60 * n + k) for n in range(2, 11) for k in range(6)],
    "product": lambda: [random_product_state(n, 60 * n + k) for n in range(2, 11) for k in range(6)],
    "ghz": lambda: [generalized_ghz(n, k * math.pi / 16) for n in range(2, 11) for k in range(5)],
    "shell": wide_shell_states,
}


@pytest.mark.parametrize("kind", REPORT_STATES)
def test_a_report_carries_the_local_unitary_it_was_read_at(kind):
    # The paper's equality at the reported U: every report's factors are a
    # local unitary that gives its objective value and its phase-fixed end
    # overlaps alpha and beta, gate by gate; a "product" report's U brings
    # the matrix-free variance within tau of the ceiling.  Generalized GHZ
    # runs phi = 0 (a product state) to pi/4 (GHZ).
    states = REPORT_STATES[kind]()
    assert len(states) >= 45
    verdicts = set()
    for psi in states:
        report = decide(psi)
        factors = report.factors
        assert factors.shape == (psi.n, 2, 2) and factors.dtype == complex
        assert not factors.flags.writeable
        assert np.max(np.abs(factors.conj().swapaxes(1, 2) @ factors - np.eye(2))) <= 1e-12
        assert abs(objective(psi, factors) - report.objective_value) <= 1e-12
        rotated = rotate(psi, factors)
        assert report.alpha >= 0 and report.beta >= 0
        assert abs(rotated[0] - report.alpha) <= 1e-12 and abs(rotated[-1] - report.beta) <= 1e-12
        if report.verdict == "product":
            assert conjugated_variance(psi, factors) >= report.bound * (1 - report.tau)
        assert (report.certificate.settles is None) == (kind == "shell")
        verdicts.add(report.verdict)
    assert verdicts == {"haar": {"entangled"}, "product": {"product"}, "ghz": {"entangled", "product"},
                        "shell": {"entangled"}}[kind]


@pytest.mark.parametrize("kind, n", CLOSED_FORM_STATES + [pytest.param("shell", None, id="shell")])
def test_decide_variance_matches_matrix_free_operator(kind, n):
    # decide's variance comes from the two end overlaps alone; the
    # reference applies the canonical MK operator matrix-free, at the U the
    # report carries: the witness when the certificate settles, else the end
    # point of the ascent from the witness.
    if kind == "shell":
        cases = [(psi, None) for psi in shell_states()[::10]]
    else:
        cases = [closed_form_state(kind, n, k) for k in range(3)]
    for psi, config in cases:
        report = decide(psi, config)
        bound = report.bound
        unitary = report.factors
        assert (report.certificate.settles is None) == (kind == "shell")
        if not report.certificate.settles:
            # The multi-start maximizer may be the all-qubit flip of that end
            # point, which swaps alpha and beta and leaves the variance: it
            # must give the same variance and the same unordered pair.  The
            # two are different points, so the pair agrees only as well as
            # the objective values do (1e-12, as in
            # test_a_shell_verdict_is_the_search_verdict).
            factors = maximize_objective(psi, config).factors
            assert abs(report.variance - conjugated_variance(psi, factors)) <= 1e-12 * bound
            ends_of_search = sorted(rotate(psi, factors)[[0, -1]].real)
            assert np.allclose(sorted([report.alpha, report.beta]), ends_of_search, rtol=0, atol=1e-12)
        expected = conjugated_variance(psi, unitary)
        assert abs(report.variance - expected) <= 1e-12 * bound
        # alpha and beta come from the search's own contraction; the
        # reference applies U gate by gate.  Both compare as complex numbers,
        # so the reference's imaginary parts must vanish too.
        rotated = rotate(psi, unitary)
        assert abs(report.alpha - rotated[0]) <= 1e-14
        assert abs(report.beta - rotated[-1]) <= 1e-14


def test_decide_builds_no_mk_operator():
    canonical_mk.cache_clear()
    assert decide(random_product_state(10, 6)).verdict == "product"
    assert canonical_mk.cache_info().currsize == 0


def test_product_state_search_averages_at_most_two_sweeps_per_start():
    # Start 0 reaches objective 1 in two sweeps, and on this product state
    # the random starts take no more on average.
    result = maximize_objective(random_product_state(8, 21))
    assert result.metadata.best_start == 0
    assert result.metadata.total_sweeps <= 2 * result.metadata.starts
    assert result.metadata.capped_starts == 0


def test_every_start_on_generalized_ghz_reaches_the_best_value():
    # The identity start is already at objective 1 and stops after one
    # sweep; every random start runs on to the same value.
    meta = maximize_objective(generalized_ghz(5, 0.3)).metadata
    assert meta.best_start == 0 and meta.iterations == 1
    assert meta.starts_at_best == meta.starts == 40
    assert meta.capped_starts == 0


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    # Chunks of 2**6 amplitudes hold 4 starts of the ascent and 1 of the
    # see-saw at n = 4, so the tie-rule best is chosen over starts from
    # several chunks, and the run records count the starts of every chunk.
    # The see-saw caps every start of these Haar states at 10 sweeps; at the
    # default 300, every start of seed 4 stops on a tolerance.  Results do
    # not show the chunk, so spies on both searches' ``_ascend_batch``
    # record it: the one patched budget must reach both.
    def run():
        records = []
        for seed in range(6):
            cfg = OptimizerConfig(seed=seed)
            haar = maximize_objective(random_state(4, seed), cfg)
            product = maximize_objective(random_product_state(4, seed), cfg)
            records.append((haar.value, astuple(haar.metadata), product.value, astuple(product.metadata)))
        for seed, cap in [*((seed, 10) for seed in range(6)), (4, 300)]:
            mean = max_mk_mean(random_state(4, seed), OptimizerConfig(seed=seed, max_iterations=cap))
            records.append((mean.value, mean.best_start, mean.iterations, mean.total_sweeps, mean.capped_starts))
        return records

    default = run()
    chunks = {}
    for module in (criterion, bell):
        def spy(*args, ascend=module._ascend_batch, name=module.__name__):
            chunks.setdefault(name, set()).add(args[5])
            return ascend(*args)
        monkeypatch.setattr(module, "_ascend_batch", spy)
    monkeypatch.setattr(ascent, "_CHUNK_AMPLITUDES", 2**6)
    assert run() == default
    assert chunks == {"mkvariance.criterion": {4}, "mkvariance.bell": {1}}


def test_run_record_counts_capped_starts():
    result = maximize_objective(random_state(3, 23), OptimizerConfig(seed=0, max_iterations=1))
    assert result.metadata.total_sweeps == result.metadata.starts
    assert result.metadata.capped_starts > 0


def test_decide_report_serializes_run_record():
    # A state in the tau shell, so that the ascent from the witness runs.  It
    # stops on its tolerance after one sweep, so a cap of 1 does not cap it;
    # maximize_objective's capping is covered by the two run-record tests
    # around this one.
    report = decide(near_product_state(3, 2, 1e-6), OptimizerConfig(seed=0, max_iterations=1))
    optimizer = decision_json(report)["optimizer"]
    assert optimizer == asdict(report.optimizer_metadata)
    assert optimizer["starts"] == optimizer["starts_at_best"] == optimizer["total_sweeps"] == 1
    assert optimizer["best_start"] == optimizer["capped_starts"] == 0
    assert optimizer["converged"] is True


def test_run_record_counts_every_haar_start_at_the_best_value():
    # At n = 4 every start of this Haar state ascends to the same maximum.
    meta = maximize_objective(random_state(4, 7)).metadata
    assert meta.starts_at_best == meta.starts == 32
    assert meta.converged is True


def test_run_record_flags_a_best_start_stopped_at_the_cap():
    meta = maximize_objective(random_state(5, 26), OptimizerConfig(seed=0, max_iterations=3)).metadata
    assert meta.capped_starts > 0
    assert meta.iterations == 3
    assert meta.converged is False


def test_default_search_converges_on_a_slowly_creeping_state():
    # Without the extrapolation step every start of this state crept to the
    # 300-sweep cap, and the value stopped 2.6e-9 below 0.5540914821, the
    # value that 1000 sweeps reach.
    result = maximize_objective(random_state(4, 32))
    assert result.metadata.converged is True
    assert result.metadata.capped_starts <= 8
    assert result.value >= 0.5540914821 - 1e-12


def test_run_record_on_a_product_state_is_converged():
    meta = maximize_objective(random_product_state(4, 25)).metadata
    assert meta.best_start == 0
    assert 1 <= meta.starts_at_best <= meta.starts
    assert meta.converged is True


def test_basin_count_counts_the_starts_of_every_chunk():
    # n = 12 runs its 96 starts in chunks of 64, and every start of this
    # product state ends at the best value, so the count reaches past the
    # first chunk.
    meta = maximize_objective(random_product_state(12, 22)).metadata
    assert meta.starts_at_best == meta.starts == 96
    assert meta.total_sweeps >= 96
    assert meta.converged is True


# --- the certificate ---


@pytest.mark.parametrize("kind, n", CLOSED_FORM_STATES)
def test_search_variance_stays_under_the_variance_bound(kind, n):
    # No local U beats 2**(n-1) G, so neither does the search's maximizer;
    # its variance is read with the matrix-free MK operator.
    for k in range(3):
        psi, config = closed_form_state(kind, n, k)
        bound = 2 ** (n - 1)
        variance_bound = decide(psi, config).certificate.variance_bound
        assert conjugated_variance(psi, maximize_objective(psi, config).factors) <= variance_bound + 1e-12 * bound


def test_certificate_settles_haar_and_product_states_and_leaves_the_shell_open():
    for n in (2, 3, 4, 5):
        for seed in range(100):
            report = decide(random_state(n, 20_000 * n + seed), OptimizerConfig(seed=seed))
            assert report.certificate.settles == report.verdict == "entangled"
            assert report.variance <= report.certificate.variance_bound
    for n in range(2, 7):
        for seed in range(100):
            report = decide(random_product_state(n, 10_000 * n + seed), OptimizerConfig(seed=seed))
            assert report.certificate.settles == report.verdict == "product"
            assert report.optimizer_metadata.starts == 0
            assert report.alpha >= 0 and report.beta >= 0
    for n, seed in ((3, 2), (4, 10)):
        report = decide(near_product_state(n, seed, 1e-6))
        assert report.certificate.settles is None
        meta = report.optimizer_metadata
        assert meta.starts == meta.starts_at_best == 1
        assert meta.best_start == 0
        assert meta.converged is True


def search_verdict(psi):
    """The verdict read from the maximizer of ``maximize_objective``, with
    the variance of the matrix-free MK operator."""
    bound = 2 ** (psi.n - 1)
    margin = bound - conjugated_variance(psi, maximize_objective(psi).factors)
    return "entangled" if margin > criterion.DECISION_TAU * bound else "product"


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_settled_verdict_is_the_search_verdict(n):
    # Near-product states phi + sqrt(eps) chi settle on both sides of the
    # shell; the few that do not run the search anyway.
    settled = 0
    for seed in range(10):
        states = [random_state(n, 30 * n + seed), random_product_state(n, 30 * n + seed)]
        for psi in states + [near_product_state(n, seed, eps) for eps in (0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)]:
            report = decide(psi)
            if report.certificate.settles:
                settled += 1
                assert report.verdict == report.certificate.settles == search_verdict(psi)
    assert settled >= 75


@pytest.mark.parametrize("make", [
    lambda n, k: random_state(n, 50 * n + k),
    lambda n, k: random_product_state(n, 50 * n + k),
    lambda n, k: generalized_ghz(n, (k + 1) * math.pi / 16),
    lambda n, k: near_product_state(n, k, 1e-6),
], ids=["haar", "product", "ghz", "near-product"])
def test_the_witness_agrees_with_an_eigensolver(make):
    # The closed-form top eigenpair of each rho_j against numpy's eigvalsh:
    # the overlap bound is min_j lambda_max(rho_j), and each witness factor
    # maps rho_j's top eigenvector to |0>, so (U_j rho_j U_j^dag)[0, 0] is
    # lambda_max(rho_j).
    for n in range(2, 9):
        for k in range(3):
            psi = make(n, k)
            rho = [reduced_density(psi, j) for j in range(1, n + 1)]
            top = [np.linalg.eigvalsh(r)[-1] for r in rho]
            assert abs(decide(psi).certificate.overlap_bound - min(top)) <= 1e-12
            for u, r, lam in zip(criterion._witness(psi)[0], rho, top):
                assert abs((u @ r @ u.conj().T)[0, 0] - lam) <= 1e-12


def test_a_settled_decide_reads_the_overlaps_once(monkeypatch):
    # The phase fix's one contraction gives the objective, alpha, beta and
    # the variance; nothing contracts psi with the witness again.
    calls = []
    monkeypatch.setattr(criterion, "_overlaps", lambda *args: calls.append(1) or _overlaps(*args))
    for psi, settles in ((random_state(5, 1), "entangled"), (random_product_state(5, 1), "product")):
        calls.clear()
        assert decide(psi).certificate.settles == settles
        assert calls == [1]


@pytest.mark.parametrize("kind", ["haar", "product", "ghz", "near-product"])
def test_the_certificate_agrees_with_the_purity_oracle(kind):
    # An "entangled" settlement has 1 - G > tau, so some purity is below
    # 1 - 2 tau (1 - tau) < 1 - ORACLE_EPSILON; an oracle "product" has every
    # 1 - lambda_j below about 5e-10, so the witness margin is at most about
    # 5 n 5e-10 of the bound, far inside tau.
    states = []
    for n in range(2, 9):
        for k in range(6):
            if kind == "haar":
                states.append(random_state(n, 40 * n + k))
            elif kind == "product":
                states.append(random_product_state(n, 40 * n + k))
            elif kind == "ghz":
                states += [generalized_ghz(n, phi) for phi in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, (k + 1) * math.pi / 32)]
            else:
                states += [near_product_state(n, k, eps) for eps in (0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4)]
    seen = set()
    for psi in states:
        settles, product = decide(psi).certificate.settles, is_product_oracle(psi).is_product
        if settles == "entangled":
            assert not product
        if product:
            assert settles == "product"
        seen.add((settles, product))
    if kind == "haar":
        assert seen == {("entangled", False)}
    else:
        assert ("product", True) in seen


# --- the tau shell: one ascent from the witness ---


@functools.cache
def shell_states():
    """The states psi proportional to phi + 1e-3 chi (``near_product_state``
    at eps = 1e-6) at n = 3, 4 and seeds 0-199 whose certificate settles
    nothing: 126 of the 400."""
    candidates = [near_product_state(n, seed, 1e-6) for n in (3, 4) for seed in range(200)]
    return tuple(psi for psi in candidates if decide(psi).certificate.settles is None)


def test_a_shell_verdict_is_the_search_verdict():
    # maximize_objective, the full multi-start solver, is the reference: the
    # one ascent from the witness reaches its value and its verdict.  The
    # witness already sits at the maximum to the tolerance, so that ascent
    # stops after one sweep; from the identity it takes three.
    assert len(shell_states()) == 126
    for psi in shell_states():
        report = decide(psi)
        assert report.optimizer_metadata.starts == report.optimizer_metadata.total_sweeps == 1
        reference = maximize_objective(psi)
        assert abs(report.objective_value - reference.value) <= 1e-12
        # Step 4's basin evidence in decide's docstring: every start of the
        # multi-start search ends at the best value.
        assert reference.metadata.starts_at_best == reference.metadata.starts
        assert report.verdict == search_verdict(psi)


def test_forced_sweeps_past_the_shell_ascent_leave_the_variance():
    # 200 more sweeps from decide's end point, the report's factors, with no
    # stopping rule, move the phase-fixed variance by at most 1e-10 of the
    # bound.
    for psi in shell_states():
        report = decide(psi)
        rows = report.factors[None].copy()
        for _ in range(200):
            rows, _ = _sweep(psi.amplitudes, rows)
        _, delta = _end_values(*_phase_fixed(psi.amplitudes, rows[0])[1:], report.bound)
        assert abs(delta - report.variance) <= 1e-10 * report.bound


def test_a_shell_report_does_not_depend_on_the_seed_or_the_start_count():
    # Every field is compared: the array ``factors`` elementwise, the others
    # with ==, which an array field would make ambiguous.
    for psi in shell_states()[::25]:
        report = decide(psi)
        for seed in (0, 1, 7):
            for starts in (None, 1, 4, 50):
                other = decide(psi, OptimizerConfig(seed=seed, starts=starts))
                np.testing.assert_array_equal(other.factors, report.factors)
                assert replace(other, factors=None) == replace(report, factors=None)


def test_decide_never_runs_the_multi_start_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("decide ran maximize_objective")

    monkeypatch.setattr(criterion, "maximize_objective", refuse)
    for n in (2, 4, 8):
        for seed in range(5):
            assert decide(random_state(n, seed)).verdict == "entangled"
            assert decide(random_product_state(n, seed)).verdict == "product"
    for psi in shell_states()[::10]:
        assert decide(psi).certificate.settles is None


# --- the driver on a stub search ---


def no_step(x):
    raise AssertionError("a step was tried")


def table_search(table):
    """(evaluate, sweep, retract, params) of a stub search: a start's row
    holds its index, its value is table[index] from the start on, so each
    start stops after one sweep; the step is never tried."""
    table = np.asarray(table)
    def evaluate(x):
        return table[x[:, 0]]

    return evaluate, lambda x: (x.copy(), evaluate(x)), no_step, np.arange(len(table))[:, None]


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_driver_keeps_the_lowest_index_among_values_within_1e12(chunk):
    _, sweeps, meta = _ascend_batch(*table_search([0.5, 0.9, 0.9 + 5e-13, 0.9 + 2e-12]), OptimizerConfig(), chunk)
    assert meta.best_start == 3
    assert meta.starts_at_best == 3
    assert meta.total_sweeps == 4 and list(sweeps) == [1, 1, 1, 1]
    assert meta.converged is True and meta.capped_starts == 0
    _, _, meta = _ascend_batch(*table_search([0.9, 0.9 + 5e-13]), OptimizerConfig(), chunk)
    assert meta.best_start == 0


def test_driver_runs_every_chunk():
    # Start 1 already holds the best value a table can reach; the chunks
    # after it run all the same.
    values, sweeps, meta = _ascend_batch(*table_search([0.2, 1.0, 0.3, 0.4]), OptimizerConfig(), 1)
    assert meta.best_start == 1
    assert list(sweeps) == [1, 1, 1, 1] and list(values) == [0.2, 1.0, 0.3, 0.4]
    assert meta.starts == 4 and meta.total_sweeps == 4 and meta.starts_at_best == 1


def test_driver_flags_every_start_that_gains_up_to_the_cap():
    # Each sweep gains 1e-9, far above VALUE_TOLERANCE, so no start stops early.
    _, sweeps, meta = _ascend_batch(lambda x: x[:, 0], lambda x: (x + 1e-9, x[:, 0] + 1e-9), no_step,
                                    np.arange(3.0)[:, None], OptimizerConfig(max_iterations=3), 2)
    assert list(sweeps) == [3, 3, 3]
    assert meta.capped_starts == 3 and meta.total_sweeps == 9 and meta.iterations == 3
    assert meta.best_start == 2 and meta.converged is False


def test_driver_raises_on_a_non_finite_start_before_any_sweep():
    evaluate, _, _, params = table_search([0.5, 0.9, math.nan, 0.7])
    swept = []

    def sweep(x):
        swept.append(len(x))
        return x.copy(), evaluate(x)

    with pytest.raises(ValueError, match="not finite"):
        _ascend_batch(evaluate, sweep, no_step, params, OptimizerConfig(), 4)
    assert swept == []


# --- proof conditions on the ceiling state ---


@pytest.mark.parametrize("n", range(2, 9))
def test_ceiling_state_proof_conditions(n):
    op = canonical_mk(n)
    zero = PureState.basis(n, 0)
    twice = op.apply(op.apply(zero.amplitudes))
    assert np.linalg.norm(twice - 2 ** (n - 1) * zero.amplitudes) < 1e-9
    assert abs(np.vdot(zero.amplitudes, op.apply(zero.amplitudes))) < 1e-10


# --- oracle agreement smoke test (full sweep lives in the acceptance suite) ---


def test_decide_agrees_with_purity_oracle_smoke():
    config = OptimizerConfig(seed=0)
    for n in (2, 3):
        for seed in range(8):
            product = random_product_state(n, 17 * n + seed)
            assert decide(product, config).verdict == "product"
            haar = random_state(n, 19 * n + seed)
            expected = "product" if is_product_oracle(haar).is_product else "entangled"
            assert decide(haar, config).verdict == expected
