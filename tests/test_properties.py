"""Invariants of the two block ascents and the verdict, and the product-form
MK pair against the literal recursion, checked on drawn inputs.

Examples are derandomized and bounded, so every run checks the same states.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkvariance import DECISION_TAU, LocalUnitary, MeasurementSettings, OptimizerConfig, PureState, decide, random_state
from mkvariance import ascent, bell, criterion
from mkvariance.criterion import _objective, _rows, _sweep

from klyshko_reference import dense_pair, mk_pair
from overlap_reference import rotate

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def states(draw, max_n):
    n = draw(st.integers(2, max_n))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1), max_size=2 ** (n + 1)))
    amplitudes = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(amplitudes)
    assume(norm > 1e-3)
    return PureState(amplitudes / norm)


@st.composite
def unit_vectors(draw, count):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=3 * count, max_size=3 * count))
    vectors = np.array(parts).reshape(count, 3)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    assume(np.all(norms > 1e-3))
    return vectors / norms


@settings(PROPERTY, max_examples=100)
@given(data=st.data(), psi=states(5))
def test_product_form_applies_the_literal_recursion(data, psi):
    drawn = MeasurementSettings(n=psi.n, a=data.draw(unit_vectors(psi.n)), a_prime=data.draw(unit_vectors(psi.n)))
    pair = mk_pair(drawn)
    b, b_prime = dense_pair(drawn)
    assert np.max(np.abs(pair.bell.apply(psi.amplitudes) - b @ psi.amplitudes)) <= 1e-12
    assert np.max(np.abs(pair.bell_swapped.apply(psi.amplitudes) - b_prime @ psi.amplitudes)) <= 1e-12


@settings(PROPERTY, max_examples=50)
@given(data=st.data(), n=st.integers(1, 5))
def test_dense_pair_is_the_literal_recursion(data, n):
    drawn = MeasurementSettings(n=n, a=data.draw(unit_vectors(n)), a_prime=data.draw(unit_vectors(n)))
    pair = mk_pair(drawn)
    b, b_prime = dense_pair(drawn)
    assert np.max(np.abs(pair.bell.dense() - b)) <= 1e-12
    assert np.max(np.abs(pair.bell_swapped.dense() - b_prime)) <= 1e-12


def overlap_rows(data, n, starts):
    angle = st.floats(0.0, 2 * math.pi)
    drawn = np.array(data.draw(st.lists(angle, min_size=2 * starts * n, max_size=2 * starts * n)))
    thetas, chis = drawn.reshape(2, starts, n)
    return _rows(np.stack([np.cos(thetas / 2), np.exp(1j * chis) * np.sin(thetas / 2)], axis=-1))


@settings(PROPERTY, max_examples=100)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 4))
def test_a_sweep_never_lowers_any_start(data, psi, starts):
    t = psi.tensor()
    rows = overlap_rows(data, psi.n, starts)
    before = _objective(t, rows)
    _, after = _sweep(t, rows)
    assert np.all(after >= before - 1e-12)


def both_searches(data, psi, starts):
    """(evaluate, sweep, retract, params) of the see-saw and of the overlap
    ascent, with drawn starting params."""
    a, a_prime = data.draw(unit_vectors(2 * starts * psi.n)).reshape(2, starts, psi.n, 3)
    t = psi.tensor()
    return (
        (lambda d: bell._means(psi.amplitudes, d), lambda d: bell._sweep(psi.amplitudes, d), bell._retract,
         a + 1j * a_prime),
        (lambda r: _objective(t, r), lambda r: _sweep(t, r), criterion._retract, overlap_rows(data, psi.n, starts)),
    )


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 4), warm=st.integers(0, 40))
def test_a_sweep_gains_at_most_its_squared_steps(data, psi, starts, warm):
    # Each block update is an exact maximization, so its gain is quadratic
    # in its step: |u| delta^2 / 2 for a see-saw direction, with |u| at most
    # the norm bound 2^((n-1)/2), and at most 2 delta^2 for an overlap row
    # (the gap of a 2x2 form whose trace is at most 2).  A sweep that moves
    # no parameter by 1e-10 therefore cannot raise a start by
    # VALUE_TOLERANCE, and _ascend_batch needs no step test.  ``warm`` sweeps
    # first bring starts near a maximum, where the steps are small.
    seesaw, overlap = both_searches(data, psi, starts)
    for (evaluate, sweep, _, params), scale, moved in (
        (seesaw, 2 ** ((psi.n - 1) / 2), lambda d: d),
        (overlap, 2.0, lambda r: r[:, :, 0]),
    ):
        for _ in range(warm):
            params = sweep(params)[0]
        new, after = sweep(params)
        squares = np.abs(moved(new) - moved(params)) ** 2
        bound = scale * squares.reshape(starts, -1).sum(axis=1)
        assert np.all(after - evaluate(params) <= bound + 1e-14)


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 8))
def test_a_start_sweeps_the_same_in_any_batch(data, psi, starts):
    # Both ascents run their starts in batches of any size, so a start's
    # starting value and sweep, and its extrapolated candidate and that
    # candidate's value, must not depend on the starts beside it, bit for bit.
    lam = np.array(data.draw(st.lists(st.floats(1.0, 50.0), min_size=starts, max_size=starts)))
    for evaluate, sweep, retract, params in both_searches(data, psi, starts):
        def run(params, lam):
            results = (evaluate(params), *sweep(params))
            new = results[1]
            candidate = retract(new + lam.reshape(-1, *[1] * (new.ndim - 1)) * (new - params))
            return results + (candidate, evaluate(candidate))

        batch = run(params, lam)
        for start in range(starts):
            alone = run(params[start:start + 1], lam[start:start + 1])
            for whole, single in zip(batch, alone):
                np.testing.assert_array_equal(whole[start:start + 1], single)


def ascend(evaluate, sweep, params, cap, retract):
    """_ascend_batch on a copy of params, as both searches call it: its three
    results and the final params."""
    params = params.copy()
    results = ascent._ascend_batch(
        evaluate, sweep, retract, params, OptimizerConfig(max_iterations=cap), len(params), criterion._CEILING)
    return results + (params,)


def no_step(x):
    raise AssertionError("a step was tried")


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 4))
def test_one_more_sweep_never_lowers_any_start(data, psi, starts):
    # _ascend_batch keeps an extrapolation step only when it raises a
    # start's value, so a start's value after a cap of k + 1 sweeps is at
    # least its value after k, up to the roundoff a sweep may lose at a
    # maximum (as in test_a_sweep_never_lowers_any_start).  The caps run
    # past the first five sweeps that try the step, 11 to 19.
    for evaluate, sweep, retract, params in both_searches(data, psi, starts):
        previous = ascend(evaluate, sweep, params, 1, retract)[0]
        for cap in range(2, 22):
            values = ascend(evaluate, sweep, params, cap, retract)[0]
            assert np.all(values >= previous - 1e-12)
            previous = values


@settings(PROPERTY, max_examples=30)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 4))
def test_no_step_is_tried_within_ten_sweeps(data, psi, starts):
    # The step is first tried after sweep 11, so runs of at most ten sweeps,
    # as on product states, GHZ states and the see-saw's GHZ scans, build no
    # candidate and give exactly what they give without it.
    for evaluate, sweep, retract, params in both_searches(data, psi, starts):
        with_step = ascend(evaluate, sweep, params, 10, retract)
        for got, plain in zip(with_step, ascend(evaluate, sweep, params, 10, no_step)):
            np.testing.assert_array_equal(got, plain)


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), n=st.integers(1, 5), starts=st.integers(1, 4), lam=st.floats(1.0, 50.0))
def test_the_retract_equals_rebuilding_the_rows(data, n, starts, lam):
    # _retract scales the extrapolated rows by the norm of row 0 instead of
    # rebuilding both rows from xi = conj(row 0): row 1 of x + lam (x -
    # x_prev) is the same real-linear image of row 0 as in x and x_prev.
    new, old = overlap_rows(data, n, starts), overlap_rows(data, n, starts)
    candidate = new + lam * (new - old)
    xis = candidate[..., 0, :].conj()
    rebuilt = _rows(xis / np.sqrt(np.add.reduce((xis.conj() * xis).real, axis=-1))[..., None])
    np.testing.assert_array_equal(criterion._retract(candidate), rebuilt)


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), psi=states(4), phase=st.floats(0.0, 2 * math.pi))
def test_verdict_ignores_global_phase_and_qubit_order(data, psi, phase):
    report = decide(psi)
    # Away from the threshold, so that a 1e-9 move of the objective cannot
    # flip the verdict.
    assume(abs(report.margin - DECISION_TAU * report.bound) >= 1e-3 * report.bound)
    order = data.draw(st.permutations(range(psi.n)))
    moved = (
        PureState(np.exp(1j * phase) * psi.amplitudes),
        PureState(np.transpose(psi.tensor(), order).reshape(-1)),
    )
    for other in moved:
        other_report = decide(other)
        assert other_report.verdict == report.verdict
        assert abs(other_report.objective_value - report.objective_value) < 1e-9


@settings(PROPERTY, max_examples=6)
@given(n=st.integers(6, 8), seed=st.integers(0, 2**16), data=st.data())
def test_verdict_ignores_a_local_unitary_on_haar_states(n, seed, data):
    # From n = 6 on the starts of a Haar state split over several basins, so
    # a search that leaves the best basin, for example by an extrapolation
    # step, shows here as a different maximum.
    psi = random_state(n, seed)
    angles = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=3 * n, max_size=3 * n)))
    a, b, c = angles.reshape(3, n)
    factors = np.array([
        [np.exp(-0.5j * (a + c)) * np.cos(b / 2), -np.exp(-0.5j * (a - c)) * np.sin(b / 2)],
        [np.exp(0.5j * (a - c)) * np.sin(b / 2), np.exp(0.5j * (a + c)) * np.cos(b / 2)],
    ]).transpose(2, 0, 1)
    report = decide(psi)
    other = decide(PureState(rotate(psi, LocalUnitary(factors=tuple(factors)))))
    assert other.verdict == report.verdict
    assert abs(other.objective_value - report.objective_value) < 1e-9
