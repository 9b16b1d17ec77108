"""The batched multi-start ascent against the literal per-start reference.

The reference below is the original implementation: one start at a time,
its angles drawn from its own ``random.Random(seed)`` (n thetas, then n
chis, scaled by pi and 2 pi), each block update re-contracting the whole
state tensor with ``np.tensordot``, and after every odd sweep from the 11th on that goes on,
the extrapolation step xi + lam (xi - xi_prev) with its own lam.
``maximize_objective`` must reproduce its best start and that start's sweep
count exactly, and its values and phase-fixed end overlaps to 1e-12.  The
total sweep count and the number of capped starts must match the
reference's too, so that a drift in any start's trajectory shows.  Factors
are not compared: on product states the phase fix picks up the phase of a
roundoff-level overlap, so factors may differ while U psi agrees.
"""

import math
import random

import numpy as np
import pytest

from mkvariance import (
    OptimizerConfig,
    generalized_ghz,
    random_product_state,
    random_state,
)
from mkvariance.ascent import VALUE_TOLERANCE
from mkvariance.criterion import _phase_fixed, maximize_objective

from overlap_reference import rotate

# --- reference: the per-start ascent -------------------------------------


def _xi_from_angles(theta: float, chi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), np.exp(1j * chi) * math.sin(theta / 2)])


def _factor_from_xi(xi: np.ndarray) -> np.ndarray:
    return np.array([[xi[0].conj(), xi[1].conj()], [-xi[1], xi[0]]])


def _unit(xi: np.ndarray) -> np.ndarray:
    return xi / np.linalg.norm(xi)


def _rows(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return xi.conj(), np.array([-xi[1], xi[0]])


def _objective_from_xis(t: np.ndarray, xis: list[np.ndarray]) -> float:
    t0 = t
    t1 = t
    for xi in xis:
        r0, r1 = _rows(xi)
        t0 = np.tensordot(r0, t0, axes=([0], [0]))
        t1 = np.tensordot(r1, t1, axes=([0], [0]))
    return abs(complex(t0)) ** 2 + abs(complex(t1)) ** 2


def _block_update(t: np.ndarray, xis: list[np.ndarray], j: int) -> tuple[np.ndarray, float]:
    t0 = t
    t1 = t
    axis = 0
    for k, xi in enumerate(xis):
        if k == j:
            axis = 1
            continue
        r0, r1 = _rows(xi)
        t0 = np.tensordot(r0, t0, axes=([0], [axis]))
        t1 = np.tensordot(r1, t1, axes=([0], [axis]))
    m0 = t0.reshape(2)
    m1 = t1.reshape(2)
    p = abs(m0[0]) ** 2 + abs(m1[1]) ** 2
    q = abs(m0[1]) ** 2 + abs(m1[0]) ** 2
    g = m0[1] * np.conj(m0[0]) - np.conj(m1[0]) * m1[1]
    radius = math.hypot((p - q) / 2.0, abs(g))
    if radius < 1e-300:
        return xis[j], (p + q) / 2.0
    chi = float(np.angle(g))
    theta = math.atan2(abs(g), (p - q) / 2.0)
    return _xi_from_angles(theta, chi), (p + q) / 2.0 + radius


def _ascend(
    t: np.ndarray, xis: list[np.ndarray], cfg: OptimizerConfig
) -> tuple[list[np.ndarray], float, list[float], bool]:
    """(xis, value, value history, whether the start stopped only at the cap)."""
    value = _objective_from_xis(t, xis)
    history = [value]
    lam = 1.0
    for sweep in range(1, cfg.max_iterations + 1):
        previous = list(xis)
        for j in range(len(xis)):
            xis[j], value = _block_update(t, xis, j)
        history.append(value)
        if value - history[-2] < VALUE_TOLERANCE:
            return xis, value, history, False
        if sweep >= 11 and sweep % 2 and sweep < cfg.max_iterations:
            # The extrapolation step, kept only if it raises the value by
            # VALUE_TOLERANCE; the next sweep's increment starts from there.
            candidate = [_unit(xi + lam * (xi - old)) for xi, old in zip(xis, previous)]
            trial = _objective_from_xis(t, candidate)
            if trial - value >= VALUE_TOLERANCE:
                xis, value, lam = candidate, trial, 1.5 * lam
                history[-1] = value
            else:
                lam = max(lam / 2, 1.0)
    return xis, value, history, True


def reference_maximize(psi, cfg):
    """(phase-fixed unitary, value, best_start, best start's sweeps, identity
    value, every start's sweeps, every start's capped flag)."""
    n = psi.n
    uniform = random.Random(cfg.seed).random
    t = psi.amplitudes.reshape((2,) * n)
    best_value, best_xis, best_start, best_iterations = -1.0, None, -1, 0
    identity_value = 0.0
    sweeps, capped = [], []
    for start in range(cfg.resolved_starts(n)):
        if start == 0:
            xis = [np.array([1.0 + 0.0j, 0.0 + 0.0j]) for _ in range(n)]
        else:
            thetas = [math.pi * uniform() for _ in range(n)]
            chis = [2 * math.pi * uniform() for _ in range(n)]
            xis = [_xi_from_angles(th, ch) for th, ch in zip(thetas, chis)]
        xis, value, history, stuck = _ascend(t, xis, cfg)
        sweeps.append(len(history) - 1)
        capped.append(stuck)
        if start == 0:
            identity_value = value
        if value > best_value + 1e-12:
            best_value, best_xis, best_start = value, xis, start
            best_iterations = len(history) - 1
    unitary = _phase_fixed(t, np.array([_factor_from_xi(xi) for xi in best_xis]))[0]
    return unitary, best_value, best_start, best_iterations, identity_value, sweeps, capped


# --- equivalence ---------------------------------------------------------


def assert_matches_reference(psi, cfg):
    unitary, value, best_start, iterations, identity_value, sweeps, capped = reference_maximize(psi, cfg)
    result = maximize_objective(psi, cfg)
    assert result.metadata.best_start == best_start
    assert result.metadata.iterations == iterations
    assert result.metadata.starts == cfg.resolved_starts(psi.n)
    assert result.value == pytest.approx(value, abs=1e-12)
    assert result.metadata.identity_value == pytest.approx(identity_value, abs=1e-12)
    expected = rotate(psi, unitary)
    got = rotate(psi, result.factors)
    assert abs(got[0] - expected[0]) <= 1e-12
    assert abs(got[-1] - expected[-1]) <= 1e-12
    assert result.metadata.total_sweeps == sum(sweeps)
    assert result.metadata.capped_starts == sum(capped)


STATES = (
    [pytest.param(("haar", n, 300 * n + k), id=f"haar-n{n}-{k}") for n in range(2, 7) for k in range(2)]
    + [pytest.param(("product", n, 500 * n + k), id=f"product-n{n}-{k}") for n in range(2, 7) for k in range(2)]
    + [pytest.param(("ghz", n, phi), id=f"ghz-n{n}-{phi:.3f}") for n in (2, 3, 5) for phi in (0.2, math.pi / 4)]
)


def make_state(kind, n, arg):
    if kind == "haar":
        return random_state(n, arg)
    if kind == "product":
        return random_product_state(n, arg)
    return generalized_ghz(n, arg)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("spec", STATES)
def test_batched_ascent_matches_reference(spec, seed):
    assert_matches_reference(make_state(*spec), OptimizerConfig(seed=seed))


@pytest.mark.parametrize("n", [3, 5])
def test_batched_ascent_matches_reference_at_iteration_cap(n):
    # With a cap of 3 sweeps most Haar starts stop at the cap while others
    # have already converged, so the batch shrinks unevenly.
    cfg = OptimizerConfig(seed=1, max_iterations=3)
    psi = random_state(n, 4242 + n)
    assert_matches_reference(psi, cfg)
    assert maximize_objective(psi, cfg).metadata.iterations <= 3


def test_batched_ascent_matches_reference_across_chunks():
    # n = 12 takes 96 starts by default and chunks of 2**18 // 2**12 = 64.
    psi = random_product_state(12, 12)
    assert OptimizerConfig().resolved_starts(12) > 2**18 // 2**12
    assert_matches_reference(psi, OptimizerConfig(seed=0))


def test_every_start_matches_reference_on_a_drift_sensitive_state():
    # Taking |m|^2 as re^2 + im^2 instead of abs(m)**2 in the block update
    # moves one non-best start of this state by one sweep (831 -> 830 in
    # all); only the total sweep count shows it.
    assert_matches_reference(random_state(5, 5135), OptimizerConfig(seed=0))
