"""Fuzzed malformed state files: `mkvariance decide` must reject each one
with exit 2, nothing on stdout and exactly one `error:` line.

Each example starts from a valid state file of 2-4 qubits and breaks it in
one way, 15 examples for each of the 15 ways.  The search is derandomized and
bounded, so the examples are the same on every run.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mkvariance.cli import main

# Amplitude components that are no float: not a JSON number, or a boolean.
NOT_A_NUMBER = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([0.0]), st.just({}))
NOT_AN_OBJECT = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3), st.just([]))
# Finite components whose square overflows a double, as the norm's dot product forms it.
HUGE = st.floats(2e154, 1e308).flatmap(lambda x: st.sampled_from([x, -x]))

KINDS = ["top-level", "n-type", "n-range", "one-qubit", "missing-key", "amplitudes-type",
         "amplitude-count", "row", "component-type", "booleans", "huge-integer", "norm",
         "infinite", "huge-finite", "nan"]


def valid_amplitudes(draw, n):
    """A normalized state: a basis state, a signed pair or the uniform superposition."""
    size = 2**n
    amplitudes = [[0.0, 0.0] for _ in range(size)]
    shape = draw(st.sampled_from(["basis", "pair", "uniform"]))
    if shape == "basis":
        amplitudes[draw(st.integers(0, size - 1))] = draw(st.sampled_from([[1.0, 0.0], [0.0, -1.0], [1, 0]]))
    elif shape == "pair":
        amplitudes[0], amplitudes[-1] = [0.6, 0.0], draw(st.sampled_from([[0.8, 0.0], [0.0, -0.8]]))
    else:
        amplitudes = [[1 / math.sqrt(size), 0.0] for _ in range(size)]
    return amplitudes


@st.composite
def malformed_state(draw, kind):
    n = draw(st.integers(2, 4))
    amplitudes = valid_amplitudes(draw, n)
    data = {"n": n, "amplitudes": amplitudes}
    i = draw(st.integers(0, 2**n - 1))
    part = draw(st.integers(0, 1))
    if kind == "top-level":
        return draw(st.one_of(NOT_AN_OBJECT, st.just([n, amplitudes])))
    if kind == "n-type":
        data["n"] = draw(st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([n]),
                                   st.floats(allow_nan=True, allow_infinity=True)))
    elif kind == "n-range":
        data["n"] = draw(st.one_of(st.integers(-10**6, 1), st.integers(17, 10**6)))
    elif kind == "one-qubit":
        # A valid one-qubit file: it loads, but the criterion needs n >= 2.
        data = {"n": 1, "amplitudes": draw(st.sampled_from([[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]]]))}
    elif kind == "missing-key":
        del data[draw(st.sampled_from(["n", "amplitudes"]))]
    elif kind == "amplitudes-type":
        data["amplitudes"] = draw(st.one_of(NOT_AN_OBJECT, st.just({"0": [1.0, 0.0]})))
    elif kind == "amplitude-count":
        count = draw(st.integers(0, 2**n + 3).filter(lambda k: k != 2**n))
        data["amplitudes"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (count - 1) if count else []
    elif kind == "row":
        amplitudes[i] = draw(st.one_of(NOT_AN_OBJECT, st.sampled_from([[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])))
    elif kind == "component-type":
        amplitudes[i][part] = draw(NOT_A_NUMBER)
    elif kind == "booleans":
        # A basis state if read as numbers, as Python would read them.
        data["amplitudes"] = [[True, False]] + [[False, False]] * (2**n - 1)
    elif kind == "huge-integer":
        amplitudes[i][part] = draw(st.sampled_from([10**400, -10**400]))
    elif kind == "norm":
        scale = draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 100.0)))
        data["amplitudes"] = [[scale * x for x in row] for row in amplitudes]
    elif kind == "infinite":
        amplitudes[i][part] = draw(st.sampled_from([math.inf, -math.inf]))
    elif kind == "huge-finite":
        amplitudes[i][part] = draw(HUGE)
    else:
        amplitudes[i][part] = math.nan
    return data


# One test per kind: a single sampled kind, drawn 200 times, left one of them out.
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_decide_rejects_a_malformed_state_file(tmp_path, capsys, kind, draw):
    data = draw.draw(malformed_state(kind))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code = main(["decide", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
