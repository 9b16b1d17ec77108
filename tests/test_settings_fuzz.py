"""Fuzzed malformed settings files: `mkvariance mk-op` must reject each one
with exit 2, nothing on stdout and exactly one `error:` line.

Each example starts from a valid settings file of 1-4 qubits and breaks it in
one way, 15 examples for each of the 13 ways.  The search is derandomized and
bounded, so the examples are the same on every run.  State files are fuzzed the same way in
tests/test_state_fuzz.py.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mkvariance.cli import main

UNIT = st.sampled_from([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.8, 0.0], [0, 0, 1]])
# Direction components that are no float: not a JSON number, a boolean, or an integer past the float range.
NOT_A_NUMBER = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([0.0]), st.just({}),
                         st.just(10**400))
NOT_AN_OBJECT = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3), st.just([]))

KINDS = ["top-level", "n-type", "n-range", "missing-key", "pairs-type", "pairs-length",
         "pair-type", "missing-direction", "vector-length", "component-type", "booleans", "non-unit",
         "non-finite"]


@st.composite
def malformed_settings(draw, kind):
    n = draw(st.integers(1, 4))
    pairs = [{"a": list(draw(UNIT)), "a_prime": list(draw(UNIT))} for _ in range(n)]
    data = {"n": n, "pairs": pairs}
    j = draw(st.integers(0, n - 1))
    key = draw(st.sampled_from(["a", "a_prime"]))
    if kind == "top-level":
        return draw(st.one_of(NOT_AN_OBJECT, st.just([n, pairs])))
    if kind == "n-type":
        data["n"] = draw(st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([n]),
                                   st.floats(allow_nan=True, allow_infinity=True)))
    elif kind == "n-range":
        data["n"] = draw(st.one_of(st.integers(-10**6, 0), st.integers(17, 10**6)))
    elif kind == "missing-key":
        del data[draw(st.sampled_from(["n", "pairs"]))]
    elif kind == "pairs-type":
        data["pairs"] = draw(st.one_of(NOT_AN_OBJECT, st.just({"a": [0.0, 0.0, 1.0]})))
    elif kind == "pairs-length":
        count = draw(st.integers(0, 6).filter(lambda k: k != n))
        data["pairs"] = [{"a": [0.0, 0.0, 1.0], "a_prime": [1.0, 0.0, 0.0]}] * count
    elif kind == "pair-type":
        pairs[j] = draw(st.one_of(NOT_AN_OBJECT, st.just([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])))
    elif kind == "missing-direction":
        del pairs[j][key]
    elif kind == "vector-length":
        pairs[j][key] = [0.0, 0.0, 1.0, 0.0, 0.0][:draw(st.sampled_from([0, 1, 2, 4, 5]))]
    elif kind == "component-type":
        pairs[j][key][draw(st.integers(0, 2))] = draw(NOT_A_NUMBER)
    elif kind == "booleans":
        # Unit vectors if read as numbers, as Python would read them.
        pairs[j][key] = draw(st.sampled_from([[False, False, True], [True, False, False], [0.0, 0.0, True]]))
    elif kind == "non-unit":
        scale = draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 100.0)))
        pairs[j][key] = [scale * x for x in pairs[j][key]]
    else:
        pairs[j][key][draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return data


# One test per kind: a single sampled kind, drawn 200 times, ran some kinds only once.
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_mk_op_rejects_a_malformed_settings_file(tmp_path, capsys, kind, draw):
    data = draw.draw(malformed_settings(kind))
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(data))
    code = main(["mk-op", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
