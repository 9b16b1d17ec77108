"""Variance computation, the local-unitary objective search, and the verdict.

Independent oracles used here: explicit dense conjugation U^dag B U for the
covariance identity, the closed-form localizer for product states (in
``overlap_reference``), and a fine grid over the reduced angle space for the
two-qubit singlet.
"""

import functools
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from mkvariance import (
    LocalUnitary,
    OptimizerConfig,
    PureState,
    canonical_mk,
    decide,
    generalized_ghz,
    ghz,
    is_product_oracle,
    max_mk_mean,
    maximize_objective,
    random_product_state,
    random_state,
    variance,
)
from mkvariance import ascent, bell, criterion
from mkvariance.ascent import VALUE_TOLERANCE, _ascend_batch
from mkvariance.criterion import _objective, _phase_fixed, _rows, _sweep
from mkvariance.oracle import random_product_factors

from overlap_reference import identity_unitary, localize_product, objective, rotate


def haar_factor(rng):
    """Haar-random 2x2 unitary via QR with phase correction."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(rng, n):
    return LocalUnitary(factors=tuple(haar_factor(rng) for _ in range(n)))


def dense_matrix(unitary):
    """U_1 (x) ... (x) U_n as an explicit matrix."""
    return functools.reduce(np.kron, unitary.factors, np.eye(1, dtype=complex))


def conjugated_variance(psi, unitary):
    """Delta(psi, U^dag B U) of the canonical B, evaluated covariantly as Delta(U psi, B)."""
    return variance(PureState(rotate(psi, unitary)), canonical_mk(psi.n))


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
    psi = generalized_ghz(3, 0.4)
    rows = np.array(identity_unitary(3).factors)
    for before, after in zip(rows, _phase_fixed(psi.tensor(), rows)):
        np.testing.assert_array_equal(before, after)


def test_phase_fix_rotates_overlaps_nonnegative():
    # Overlaps -0.6 and 0.8i become 0.6 and 0.8 with moduli preserved; the
    # correction phases live on qubit 1 only.
    amps = np.zeros(8, dtype=complex)
    amps[0] = -0.6
    amps[-1] = 0.8j
    psi = PureState(amps)
    identity = identity_unitary(3)
    fixed = LocalUnitary(factors=_phase_fixed(psi.tensor(), np.array(identity.factors)))
    rotated = rotate(psi, fixed)
    assert rotated[0] == pytest.approx(0.6, abs=1e-14)
    assert rotated[-1] == pytest.approx(0.8, abs=1e-14)
    assert abs(rotated[0].imag) < 1e-14 and abs(rotated[-1].imag) < 1e-14
    for before, after in zip(identity.factors[1:], fixed.factors[1:]):
        np.testing.assert_array_equal(before, after)


def test_phase_fix_preserves_objective():
    rng = np.random.default_rng(37)
    for _ in range(10):
        psi = random_state(3, int(rng.integers(2**31)))
        unitary = random_local_unitary(rng, 3)
        fixed = LocalUnitary(factors=_phase_fixed(psi.tensor(), np.array(unitary.factors)))
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
    out = unitary.factors[0] @ plus
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
    for f1, f2 in zip(r1.unitary.factors, r2.unitary.factors):
        np.testing.assert_array_equal(f1, f2)


def test_ascent_iterations_are_monotone():
    rng = np.random.default_rng(43)
    cfg = OptimizerConfig(seed=0, starts=1, max_iterations=200)
    for n in (2, 3, 4):
        psi = random_state(n, int(rng.integers(2**31)))
        xis = []
        for _ in range(n):
            theta = rng.uniform(0, math.pi)
            chi = rng.uniform(0, 2 * math.pi)
            xis.append(np.array([math.cos(theta / 2), np.exp(1j * chi) * math.sin(theta / 2)]))
        # A batch of one start, swept by hand to record the value after each sweep.
        t = psi.tensor()
        batch = _rows(np.array([xis]))
        history = [_objective(t, batch)[0]]
        for _ in range(cfg.max_iterations):
            batch, values = _sweep(t, batch)
            history.append(values[0])
            if history[-1] - history[-2] < VALUE_TOLERANCE:
                break
        # A zero candidate has value 0 and is never kept, so the driver must
        # match the plain sweep loop exactly.
        values, sweeps, _ = _ascend_batch(
            lambda rows: _objective(t, rows), lambda rows: _sweep(t, rows), np.zeros_like, _rows(np.array([xis])),
            cfg, 1)
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
        u_full = LocalUnitary(factors=(factor(t1, x1), factor(t2, x2)))
        u_reduced = LocalUnitary(factors=(factor(t1, x1 - x2), factor(t2, 0.0)))
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
    rotated = rotate(singlet, result.unitary)
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
    report = decide(ghz(2), OptimizerConfig(seed=0, starts=4))
    data = report.to_json_dict()
    assert data["verdict"] == "entangled"
    assert set(data) >= {"objective_value", "alpha", "beta", "variance", "bound", "margin"}
    assert data["optimizer"]["starts"] == 4


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
        LocalUnitary(factors=(np.array([[1.0, 0.0], [0.0, 2.0]]),))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_local_unitary_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="unitary"):
        LocalUnitary(factors=(np.diag([bad, 1.0]),))


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


# --- closed-form variance and the ceiling exit ---


CLOSED_FORM_STATES = (
    [pytest.param("haar", n, id=f"haar-n{n}") for n in range(2, 9)]
    + [pytest.param("product", n, id=f"product-n{n}") for n in range(2, 9)]
    + [pytest.param("ghz", n, id=f"ghz-n{n}") for n in range(2, 9)]
)


@pytest.mark.parametrize("kind, n", CLOSED_FORM_STATES)
def test_decide_variance_matches_matrix_free_operator(kind, n):
    # decide's variance comes from the two end overlaps alone; the
    # reference applies the canonical MK operator matrix-free.
    for k in range(3):
        if kind == "haar":
            psi = random_state(n, 700 * n + k)
        elif kind == "product":
            psi = random_product_state(n, 800 * n + k)
        else:
            psi = generalized_ghz(n, (2 * k + 1) * math.pi / 32)
        config = OptimizerConfig(seed=k, starts=8 if n >= 7 else None)
        report = decide(psi, config)
        unitary = maximize_objective(psi, config).unitary
        expected = conjugated_variance(psi, unitary)
        assert abs(report.variance - expected) <= 1e-12 * 2 ** (n - 1)
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


def test_ceiling_exit_stops_after_the_identity_start_converges():
    # Start 0 reaches objective 1 in two sweeps; every other start is
    # abandoned there at the latest.
    result = maximize_objective(random_product_state(8, 21))
    assert result.metadata.best_start == 0
    assert result.metadata.total_sweeps <= 2 * result.metadata.starts
    assert result.metadata.capped_starts == 0


def test_ceiling_exit_abandons_the_starts_still_ascending():
    # On generalized GHZ the identity start is already at objective 1 and
    # stops after one sweep, so the random starts are abandoned after theirs.
    result = maximize_objective(generalized_ghz(5, 0.3))
    assert result.metadata.best_start == 0
    assert result.metadata.iterations == 1
    assert result.metadata.total_sweeps == result.metadata.starts == 40
    assert result.metadata.capped_starts == 0


def test_ceiling_exit_skips_later_chunks():
    # n = 12 takes 96 starts in chunks of 64: the second chunk never runs.
    result = maximize_objective(random_product_state(12, 22))
    assert result.metadata.starts == 96
    assert result.metadata.total_sweeps <= 128


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    # Chunks of 2**6 amplitudes hold 4 starts of the ascent and 1 of the
    # see-saw at n = 4, so the tie-rule best is carried across chunk
    # boundaries, and on product states the ceiling exit skips later chunks.
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
            records.append((haar.value, astuple(haar.metadata),
                            product.value, product.metadata.best_start, product.metadata.iterations))
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
    report = decide(random_state(3, 24), OptimizerConfig(seed=0, max_iterations=1))
    optimizer = report.to_json_dict()["optimizer"]
    assert optimizer["total_sweeps"] == report.optimizer_metadata.total_sweeps == 32
    assert optimizer["capped_starts"] == report.optimizer_metadata.capped_starts > 0


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


def test_basin_count_leaves_out_abandoned_and_unrun_starts():
    # Generalized GHZ: start 0 is at objective 1 after its first sweep and
    # every other start is abandoned there.
    meta = maximize_objective(generalized_ghz(5, 0.3)).metadata
    assert meta.total_sweeps == meta.starts == 40
    assert meta.starts_at_best == 1
    # n = 12 runs only the first chunk of 64 of its 96 starts.
    meta = maximize_objective(random_product_state(12, 22)).metadata
    assert 1 <= meta.starts_at_best <= 64
    assert meta.converged is True


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


def test_driver_skips_the_chunks_after_the_ceiling():
    values, sweeps, meta = _ascend_batch(*table_search([0.2, 1.0, 0.3, 0.4]), OptimizerConfig(), 1, 0.99)
    assert meta.best_start == 1
    assert meta.total_sweeps == 2
    assert list(sweeps) == [1, 1, 0, 0] and list(values) == [0.2, 1.0, 0.0, 0.0]
    assert meta.starts == 4 and meta.starts_at_best == 1


def test_driver_flags_every_start_that_gains_up_to_the_cap():
    # Each sweep gains 1e-9, far above VALUE_TOLERANCE, so no start stops early.
    _, sweeps, meta = _ascend_batch(lambda x: x[:, 0], lambda x: (x + 1e-9, x[:, 0] + 1e-9), no_step,
                                    np.arange(3.0)[:, None], OptimizerConfig(max_iterations=3), 2)
    assert list(sweeps) == [3, 3, 3]
    assert meta.capped_starts == 3 and meta.total_sweeps == 9 and meta.iterations == 3
    assert meta.best_start == 2 and meta.converged is False


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
