"""The batched product-form see-saw against the literal per-start reference.

The reference below is the original implementation of ``max_mk_mean``: one
start at a time, and every block update re-runs the literal Klyshko
recursion of ``klyshko_reference`` six times per qubit (once per
coefficient of a_j and of a'_j), and after every odd sweep from the 11th on
that goes on, the extrapolation step a_j + lam (a_j - a_j_prev) (and the same
for a'_j) with its own lam.  The batched see-saw must reproduce its
best start and that start's sweep count exactly, its value to 1e-12 and
its best settings to 1e-9; on most states it must also reproduce every
start's value and sweep count.
"""

import math

import numpy as np
import pytest

from mkvariance import (
    MeasurementSettings,
    OptimizerConfig,
    PureState,
    canonical_settings,
    generalized_ghz,
    max_mk_mean,
    random_state,
)
from mkvariance.ascent import VALUE_TOLERANCE, _ascend_batch
from mkvariance.bell import _factors, _means, _retract, _sweep

from klyshko_reference import dense_pair, raw_mean

# --- reference: the per-start see-saw ------------------------------------


def _reference_starts(n: int, cfg: OptimizerConfig):
    """Start directions in the original order: canonical fan, all-z axial,
    then one seeded random unit vector at a time."""
    rng = np.random.default_rng(cfg.seed)

    def random_unit() -> np.ndarray:
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    for start in range(cfg.resolved_starts(n)):
        if start == 0:
            canon = canonical_settings(n)
            yield [canon.a[j].copy() for j in range(n)], [canon.a_prime[j].copy() for j in range(n)]
        elif start == 1:
            yield [np.array([0.0, 0.0, 1.0]) for _ in range(n)], [np.array([1.0, 0.0, 0.0]) for _ in range(n)]
        else:
            a = [random_unit() for _ in range(n)]
            yield a, [random_unit() for _ in range(n)]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _reference_ascend(vec, n, a, ap, cfg):
    value = raw_mean(a, ap, vec)
    iters = 0
    lam = 1.0
    for _ in range(cfg.max_iterations):
        iters += 1
        previous = value
        before = list(a), list(ap)
        for j in range(n):
            grad = np.zeros(3)
            grad_p = np.zeros(3)
            zero = np.zeros(3)
            for k in range(3):
                axis = np.zeros(3)
                axis[k] = 1.0
                grad[k] = raw_mean(a[:j] + [axis] + a[j + 1:], ap[:j] + [zero] + ap[j + 1:], vec)
                grad_p[k] = raw_mean(a[:j] + [zero] + a[j + 1:], ap[:j] + [axis] + ap[j + 1:], vec)
            norm = np.linalg.norm(grad)
            if norm > 1e-14:
                a[j] = grad / norm
            norm_p = np.linalg.norm(grad_p)
            if norm_p > 1e-14:
                ap[j] = grad_p / norm_p
        value = raw_mean(a, ap, vec)
        if value - previous < VALUE_TOLERANCE:
            return np.array(a), np.array(ap), value, iters, False
        if iters >= 11 and iters % 2 and iters < cfg.max_iterations:
            # The extrapolation step, kept only if it raises the mean by
            # VALUE_TOLERANCE; the next sweep's increment starts from there.
            trial_a = [_unit(v + lam * (v - u)) for v, u in zip(a, before[0])]
            trial_ap = [_unit(v + lam * (v - u)) for v, u in zip(ap, before[1])]
            trial = raw_mean(trial_a, trial_ap, vec)
            if trial - value >= VALUE_TOLERANCE:
                a, ap, value, lam = trial_a, trial_ap, trial, 1.5 * lam
            else:
                lam = max(lam / 2, 1.0)
    return np.array(a), np.array(ap), value, iters, True


def reference_starts(psi: PureState, cfg: OptimizerConfig):
    """Final (a, a', value, sweeps, capped) of every start, one at a time."""
    return [_reference_ascend(psi.amplitudes, psi.n, a, ap, cfg) for a, ap in _reference_starts(psi.n, cfg)]


def reference_best(runs) -> int:
    best = 0
    for start in range(1, len(runs)):
        if runs[start][2] > runs[best][2] + 1e-12:
            best = start
    return best


# --- cases ---------------------------------------------------------------

# On generalized GHZ states start 1 (a_j = z, a'_j = x on every qubit) sits
# on a symmetric saddle in the x-z plane.  In its first sweep the recursion
# gives the y coefficients as exact zeros and the product form as 1e-17 to
# 3e-16 round-off; later sweeps can grow that residue and carry the start
# out of the plane into another basin (at n=5, phi=pi/8 it climbs from the
# saddle value 0.707 to 2.83).  Its trajectory may therefore differ; the
# reported result does not, because start 0 (the canonical fan) reaches the
# same or a better value and wins the tie.
SADDLE_STARTS = {"ghz": {1}}

CASES = (
    [pytest.param("ghz", n, phi, seed, None, id=f"ghz-n{n}-{phi:.3f}-s{seed}")
     for n in (2, 3, 4, 5) for phi in (math.pi / 16, math.pi / 8, math.pi / 4) for seed in (0, 3)]
    + [pytest.param("basis", n, index, seed, None, id=f"basis-n{n}-{index}-s{seed}")
       for n, index in ((2, 0), (3, 5)) for seed in (0, 3)]
    + [pytest.param("haar", n, k, seed, iters, id=f"haar-n{n}-{k}-s{seed}-i{iters}")
       for n, k, iters in ((2, 0, 300), (2, 1, 300), (3, 0, 30), (4, 0, 8)) for seed in (0, 3)]
)


def make_state(kind, n, param):
    if kind == "ghz":
        return generalized_ghz(n, param)
    if kind == "basis":
        return PureState.basis(n, param)
    return random_state(n, 100 + param)


@pytest.mark.parametrize("kind, n, param, seed, iters", CASES)
def test_batched_see_saw_matches_reference(kind, n, param, seed, iters):
    psi = make_state(kind, n, param)
    cfg = OptimizerConfig(seed=seed, starts=8, max_iterations=iters or 300)
    runs = reference_starts(psi, cfg)
    best = reference_best(runs)
    result = max_mk_mean(psi, cfg)

    assert result.best_start == best
    assert result.iterations == runs[best][3]
    assert result.value == pytest.approx(runs[best][2], abs=1e-12)
    np.testing.assert_allclose(result.settings.a, runs[best][0], atol=1e-9)
    np.testing.assert_allclose(result.settings.a_prime, runs[best][1], atol=1e-9)

    # Every start, through the batch that max_mk_mean runs.
    starts = list(_reference_starts(n, cfg))
    z = np.array([np.array(a) + 1j * np.array(ap) for a, ap in starts])
    values, sweeps, meta = _ascend_batch(
        lambda d: _means(psi.amplitudes, d), lambda d: _sweep(psi.amplitudes, d), _retract, z, cfg, len(z))
    capped = meta.capped_starts
    exempt = SADDLE_STARTS.get(kind, set())
    for start, (_, _, ref_value, ref_sweeps, _) in enumerate(runs):
        if start not in exempt:
            assert values[start] == pytest.approx(ref_value, abs=1e-12), start
            assert sweeps[start] == ref_sweeps, start
    if not exempt:
        assert result.total_sweeps == sum(r[3] for r in runs)
        assert result.capped_starts == capped == sum(r[4] for r in runs)


# --- the product form against the dense recursion -------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_product_form_matches_dense_recursion(n):
    # B + i B' = ((1 - i)/2)**(n-1) (x)_j (a_j + i a'_j).sigma
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        vecs = rng.standard_normal((2, n, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        settings = MeasurementSettings(n=n, a=vecs[0], a_prime=vecs[1])
        b, b_prime = dense_pair(settings)
        product = np.eye(1)
        for factor in _factors((settings.a + 1j * settings.a_prime)[..., None])[..., 0]:
            product = np.kron(product, factor)
        assert np.max(np.abs(b + 1j * b_prime - ((1 - 1j) / 2) ** (n - 1) * product)) <= 1e-12
