"""CLI behavior: exit codes, JSON output, file round-trips, selftest."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mkvariance import PureState, canonical_settings, cli, generalized_ghz, random_state
from mkvariance.cli import load_state_file, main, write_state_file

from klyshko_reference import dense_pair, swapped


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_file(tmp_path, psi, name="state.json"):
    path = tmp_path / name
    write_state_file(str(path), psi)
    return str(path)


# --- decide ---


def test_decide_entangled_generalized_ghz(tmp_path, capsys):
    path = state_file(tmp_path, generalized_ghz(3, math.pi / 8))
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 0
    data = json.loads(out)
    assert data["decision"]["verdict"] == "entangled"
    assert data["decision"]["variance"] == pytest.approx(2.0, abs=1e-9)
    assert data["decision"]["bound"] == 4.0
    assert data["oracle"]["is_product"] is False


def test_decide_product_basis_state(tmp_path, capsys):
    path = state_file(tmp_path, PureState.basis(4, 0b0101))
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 1
    data = json.loads(out)
    assert data["decision"]["verdict"] == "product"
    assert data["decision"]["variance"] == pytest.approx(8.0, abs=1e-6)
    assert data["oracle"]["is_product"] is True


def test_decide_emits_basin_count_and_convergence(tmp_path, capsys):
    path = state_file(tmp_path, random_state(4, 7))
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 0
    optimizer = json.loads(out)["decision"]["optimizer"]
    assert optimizer["total_sweeps"] > optimizer["starts"] == 32
    assert optimizer["starts_at_best"] == 32
    assert optimizer["converged"] is True


def test_decide_rejects_wrong_amplitude_count(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "amplitudes": [[1.0, 0.0]] * 7}))
    code, _, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert "amplitudes" in err


def test_decide_rejects_bad_norm(tmp_path, capsys):
    amps = [[0.0, 0.0]] * 4
    amps[0] = [1.1, 0.0]
    path = tmp_path / "bad_norm.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": amps}))
    code, _, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert "norm" in err


def test_decide_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert err


@pytest.mark.parametrize("n, count", [(2.9, 4), (1.5, 2), (True, 2), ("2", 4)])
def test_decide_rejects_non_integer_n(tmp_path, capsys, n, count):
    # int() would truncate 2.9 to 2 and decide the four amplitudes as 2 qubits.
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[0.5, 0.0]] * count}))
    code, out, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "integer" in err


@pytest.mark.parametrize("first, zero, word", [(True, False, "boolean"), (10**400, 0, "too large")],
                         ids=["boolean", "huge-integer"])
def test_decide_rejects_non_float_amplitudes(tmp_path, capsys, first, zero, word):
    # json.load reads true as True, and complex(True, False) is 1 + 0j; an
    # integer beyond the float range makes complex() raise OverflowError.
    path = tmp_path / "amplitudes.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": [[first, zero]] + [[zero, zero]] * 3}))
    code, out, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


# Nesting past the recursion limit makes json.load raise RecursionError (DEEP,
# 100000 levels).  NESTED, 900 levels, loads, and the reader then finds a list
# where a number or a pair belongs.
DEEP = "[" * 100000 + "]" * 100000
NESTED = "[" * 900 + "0" + "]" * 900


@pytest.mark.parametrize("text", [
    '{"n": 2, "amplitudes": ' + DEEP + "}",
    '{"n": 2, "amplitudes": [[' + NESTED + ", 0], [0, 0], [0, 0], [1, 0]]}",
], ids=["deep", "nested-amplitude"])
def test_decide_rejects_deeply_nested_json(tmp_path, capsys, text):
    # An escaped exception exits 1, which reads as the verdict "product".
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("amplitudes, word", [
    (3, "expected a list of 2 amplitudes, got int"),
    ([[1, 0], 5], "amplitude 2 must be a list of 2 numbers"),
    ([[1, 0, 0], [0, 0]], "amplitude 1 must be a list of 2 numbers"),
    ([["a", 0], [0, 0]], "amplitude 1 must be a list of 2 numbers"),
], ids=["not-a-list", "not-a-pair", "three-parts", "string"])
def test_decide_names_the_malformed_part_of_a_state_file(tmp_path, capsys, amplitudes, word):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"n": 1, "amplitudes": amplitudes}))
    code, out, err = run_cli(capsys, ["decide", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


def test_load_state_file_rejects_non_integer_n(tmp_path):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": 2.9, "amplitudes": [[0.5, 0.0]] * 4}))
    with pytest.raises(ValueError, match="integer"):
        load_state_file(str(path))


BAD_OPTIONS = [
    pytest.param(["--starts", "0"], "starts", id="starts-0"),
    pytest.param(["--seed", "-1"], "seed", id="seed-neg"),
    pytest.param(["--tau", "-1"], "tau", id="tau-neg"),
    pytest.param(["--tau", "nan"], "tau", id="tau-nan"),
]


@pytest.mark.parametrize("option, word", BAD_OPTIONS)
def test_decide_rejects_bad_option(tmp_path, capsys, option, word):
    path = state_file(tmp_path, generalized_ghz(3, math.pi / 8))
    code, out, err = run_cli(capsys, ["decide", path] + option)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


def test_state_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = PureState(v / np.linalg.norm(v))
    path = state_file(tmp_path, psi)
    loaded, deviation = load_state_file(path)
    np.testing.assert_array_equal(loaded.amplitudes, psi.amplitudes)
    assert deviation < 1e-12


# --- ghz-scan ---


def test_ghz_scan_endpoints(capsys):
    code, out, _ = run_cli(capsys, ["ghz-scan", "--n", "3", "--points", "5"])
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert len(rows) == 5
    first, last = rows[0], rows[-1]
    assert first["phi"] == 0.0
    assert first["variance"] == pytest.approx(4.0, abs=1e-9)
    assert first["closed_form"] == pytest.approx(4.0, abs=1e-12)
    assert first["verdict"] == "product"
    assert last["phi"] == pytest.approx(math.pi / 4)
    assert last["variance"] == pytest.approx(0.0, abs=1e-9)
    assert last["verdict"] == "entangled"
    for row in rows:
        assert abs(row["difference"]) < 1e-9


def test_ghz_scan_compare_mean(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ghz-scan", "--n", "2", "--points", "3", "--compare-mean", "--starts", "6"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all("mean_max" in row for row in rows)
    # phi = 0 is a product state: classical bound; phi = pi/4 is GHZ: sqrt(2).
    assert rows[0]["mean_max"] <= 1.0 + 1e-6
    assert rows[-1]["mean_max"] == pytest.approx(math.sqrt(2), abs=1e-6)


def test_ghz_scan_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, ["ghz-scan", "--n", "1"])
    assert code == 2
    assert "n must be" in err


@pytest.mark.parametrize("option, word", BAD_OPTIONS)
def test_ghz_scan_rejects_bad_option(capsys, option, word):
    code, out, err = run_cli(capsys, ["ghz-scan", "--n", "3", "--points", "3"] + option)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


# --- mk-op ---


def test_mk_op_canonical_two_qubits(capsys):
    code, out, _ = run_cli(capsys, ["mk-op", "--canonical", "2"])
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(
        data["eigenvalues"], [math.sqrt(2), 0.0, 0.0, -math.sqrt(2)], atol=1e-12
    )
    assert data["norm_bound"] == pytest.approx(math.sqrt(2))


def test_mk_op_canonical_four_qubits_extremes(capsys):
    code, out, _ = run_cli(capsys, ["mk-op", "--canonical", "4"])
    assert code == 0
    data = json.loads(out)
    eigenvalues = data["eigenvalues"]
    assert eigenvalues[0] == pytest.approx(2**1.5, abs=1e-10)
    assert eigenvalues[-1] == pytest.approx(-(2**1.5), abs=1e-10)


def test_mk_op_reads_settings_file_and_swapped_roundtrip(tmp_path, capsys):
    settings = canonical_settings(3)
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(settings.to_json_dict()))
    code, out, _ = run_cli(capsys, ["mk-op", str(path), "--dump-matrix"])
    assert code == 0
    data = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    # The dumped matrix rebuilt from swapped settings reproduces the
    # literal recursion's B'.
    swapped_path = tmp_path / "swapped.json"
    swapped_path.write_text(json.dumps(swapped(settings).to_json_dict()))
    code2, out2, _ = run_cli(capsys, ["mk-op", str(swapped_path), "--dump-matrix"])
    assert code2 == 0
    swapped_matrix = np.array(
        [[complex(re, im) for re, im in row] for row in json.loads(out2)["matrix"]]
    )
    b, b_prime = dense_pair(settings)
    assert np.max(np.abs(swapped_matrix - b_prime)) < 1e-12
    assert np.max(np.abs(matrix - b)) < 1e-12


def test_mk_op_rejects_nan_direction(tmp_path, capsys):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(
        {"n": 2, "pairs": [{"a": [math.nan, 0.0, 0.0], "a_prime": [0.0, 1.0, 0.0]},
                           {"a": [1.0, 0.0, 0.0], "a_prime": [0.0, 1.0, 0.0]}]}
    ))
    code, out, err = run_cli(capsys, ["mk-op", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite" in err


@pytest.mark.parametrize("n", [1.5, True])
def test_mk_op_rejects_non_integer_n(tmp_path, capsys, n):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({"n": n, "pairs": [{"a": [1.0, 0.0, 0.0], "a_prime": [0.0, 1.0, 0.0]}]}))
    code, out, err = run_cli(capsys, ["mk-op", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "integer" in err


@pytest.mark.parametrize("first, word", [(True, "boolean"), (10**400, "too large")], ids=["boolean", "huge-integer"])
def test_mk_op_rejects_non_float_direction(tmp_path, capsys, first, word):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({"n": 1, "pairs": [{"a": [first, 0, 0], "a_prime": [0.0, 1.0, 0.0]}]}))
    code, out, err = run_cli(capsys, ["mk-op", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


@pytest.mark.parametrize("text", [
    '{"n": 2, "pairs": ' + DEEP + "}",
    '{"n": 2, "pairs": [' + NESTED + ', {"a": [0, 0, 1], "a_prime": [1, 0, 0]}]}',
], ids=["deep", "nested-pair"])
def test_mk_op_rejects_deeply_nested_json(tmp_path, capsys, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["mk-op", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_mk_op_above_dense_cap_reports_closed_form_norm(capsys):
    # n = 11 exceeds DENSE_QUBIT_CAP, so the norm comes from
    # MKOperator.operator_norm's closed form and no spectrum is listed.
    code, out, _ = run_cli(capsys, ["mk-op", "--canonical", "11"])
    assert code == 0
    data = json.loads(out)
    assert "eigenvalues" not in data
    assert data["max_abs_eigenvalue"] == pytest.approx(2**5, abs=1e-9)


def test_mk_op_above_dense_cap_rejects_matrix_dump(capsys):
    code, out, err = run_cli(capsys, ["mk-op", "--canonical", "11", "--dump-matrix"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "dense" in err


def test_mk_op_requires_input(capsys):
    code, _, err = run_cli(capsys, ["mk-op"])
    assert code == 2
    assert "settings" in err or "canonical" in err


def test_mk_op_rejects_settings_file_and_canonical(tmp_path, capsys):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(canonical_settings(3).to_json_dict()))
    code, out, err = run_cli(capsys, ["mk-op", str(path), "--canonical", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exactly one" in err


PAIR = {"a": [0.0, 0.0, 1.0], "a_prime": [1.0, 0.0, 0.0]}


@pytest.mark.parametrize("data, word", [
    ([2, [PAIR, PAIR]], "'n' and 'pairs'"),
    ({"pairs": [PAIR, PAIR]}, "'n' and 'pairs'"),
    ({"n": 2}, "'n' and 'pairs'"),
    ({"n": 2, "pairs": [PAIR, [[0, 0, 1], [1, 0, 0]]]}, "pair 2 must be an object"),
    ({"n": 2, "pairs": [PAIR, {"a": [0, 0, 1]}]}, "pair 2 must be an object with 'a' and 'a_prime'"),
    ({"n": 2, "pairs": 3}, "expected a list of 2 pairs, got int"),
    ({"n": 2, "pairs": [PAIR, {"a": 3, "a_prime": [1, 0, 0]}]}, "'a' of pair 2 must be a list of 3 numbers"),
], ids=["top-level-list", "no-n", "no-pairs", "pair-list", "no-a-prime", "pairs-not-a-list", "a-not-a-list"])
def test_mk_op_names_the_missing_part_of_a_settings_file(tmp_path, capsys, data, word):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["mk-op", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


# --- selftest ---


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--states", "3"])
    assert code == 0
    assert out.splitlines() == [
        "spectral: 5/5 passed",
        "norm-bound: 30/30 passed",
        "matrix-free: 20/20 passed",
        "oracle-agreement: 12/12 passed",
        "selftest: PASS",
    ]


def test_selftest_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, ["selftest", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "seed" in err


@pytest.mark.parametrize("states", ["0", "-3"])
def test_selftest_rejects_no_states(capsys, states):
    # With no states the oracle-agreement suite would pass vacuously.
    code, out, err = run_cli(capsys, ["selftest", "--states", states])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "states" in err


def test_selftest_forced_failure(capsys, monkeypatch):
    # The first oracle-agreement check, a product state, is told "entangled".
    decide, reports = cli.decide, []

    def decide_flipping_the_first(psi, config):
        reports.append(decide(psi, config))
        return dataclasses.replace(reports[-1], verdict="entangled") if len(reports) == 1 else reports[-1]

    monkeypatch.setattr(cli, "decide", decide_flipping_the_first)
    code, out, err = run_cli(capsys, ["selftest", "--states", "2"])
    assert code == 1
    assert "oracle-agreement: 7/8 passed" in out
    assert "selftest: FAIL" in out
    assert err.splitlines() == ["FAIL oracle-agreement: product state n=2 seed=0 misclassified"]
