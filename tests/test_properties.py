"""Invariants of the two block ascents and the verdict, and the product-form
MK pair against the literal recursion, checked on drawn inputs.

Examples are derandomized and bounded, so every run checks the same states.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkvariance import DECISION_TAU, MeasurementSettings, PureState, decide, mk_pair
from mkvariance import bell, criterion
from mkvariance.criterion import _objective, _rows, _sweep

from klyshko_reference import dense_pair

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
    _, after, _ = _sweep(t, rows)
    assert np.all(after >= before - 1e-12)


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), psi=states(5), starts=st.integers(1, 8))
def test_a_start_sweeps_the_same_in_any_batch(data, psi, starts):
    # Both ascents run their starts in batches of any size, so a start's
    # starting value and sweep must not depend on the starts beside it, bit
    # for bit.
    a, a_prime = data.draw(unit_vectors(2 * starts * psi.n)).reshape(2, starts, psi.n, 3)
    for evaluate, sweep, t, params in (
        (bell._means, bell._sweep, psi.amplitudes, a + 1j * a_prime),
        (criterion._objective, criterion._sweep, psi.tensor(), overlap_rows(data, psi.n, starts)),
    ):
        batch = (evaluate(t, params), *sweep(t, params))
        for start in range(starts):
            one = params[start:start + 1]
            alone = (evaluate(t, one), *sweep(t, one))
            for whole, single in zip(batch, alone):
                np.testing.assert_array_equal(whole[start:start + 1], single)


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
