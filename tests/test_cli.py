"""CLI behavior: exit codes, JSON output and file round-trips of the three
commands, decide, ghz-scan and mk-op."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mkvariance import (
    PureState, canonical_settings, cli, decide, generalized_ghz, is_product_oracle, random_product_state, random_state)
from mkvariance.cli import load_state_file, main, write_state_file

from klyshko_reference import dense_pair, random_settings, swapped
from overlap_reference import near_product_state


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_file(tmp_path, psi, name="state.json"):
    path = tmp_path / name
    write_state_file(str(path), psi)
    return str(path)


# --- decide ---


REPORT_KEYS = {"n", "norm_deviation", "decision"}


def test_decide_entangled_generalized_ghz(tmp_path, capsys):
    psi = generalized_ghz(3, math.pi / 8)
    code, out, _ = run_cli(capsys, ["decide", state_file(tmp_path, psi)])
    assert code == 0
    data = json.loads(out)
    assert set(data) == REPORT_KEYS
    assert data["decision"]["verdict"] == "entangled"
    assert data["decision"]["variance"] == pytest.approx(2.0, abs=1e-9)
    assert data["decision"]["bound"] == 4.0
    # The report carries one verdict; the purity oracle referees it here.
    assert not is_product_oracle(psi).is_product


def test_decide_product_basis_state(tmp_path, capsys):
    psi = PureState.basis(4, 0b0101)
    code, out, _ = run_cli(capsys, ["decide", state_file(tmp_path, psi)])
    assert code == 1
    data = json.loads(out)
    assert set(data) == REPORT_KEYS
    assert data["decision"]["verdict"] == "product"
    assert data["decision"]["variance"] == pytest.approx(8.0, abs=1e-6)
    assert is_product_oracle(psi).is_product


def test_decide_emits_basin_count_and_convergence(tmp_path, capsys):
    # A state in the tau shell, so that the search runs: one ascent from the witness.
    path = state_file(tmp_path, near_product_state(4, 10, 1e-6))
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 0
    optimizer = json.loads(out)["decision"]["optimizer"]
    assert optimizer["starts"] == optimizer["starts_at_best"] == 1
    assert optimizer["best_start"] == 0
    assert optimizer["total_sweeps"] >= 1
    assert optimizer["converged"] is True


def test_decide_writes_the_reports_factors_bit_for_bit(tmp_path, capsys):
    # decision.factors is indexed [qubit][row][col] and holds [re, im]
    # pairs; json writes each float with repr, so the array reads back exact.
    states = [random_state(5, 3), random_product_state(5, 3), generalized_ghz(3, 0.0), near_product_state(4, 10, 1e-6)]
    for k, psi in enumerate(states):
        path = state_file(tmp_path, psi, f"state{k}.json")
        code, out, _ = run_cli(capsys, ["decide", path])
        assert code in (0, 1)
        written = np.array(json.loads(out)["decision"]["factors"])
        factors = decide(load_state_file(path)[0]).factors
        assert written.shape == (psi.n, 2, 2, 2)
        assert written.tobytes() == np.stack((factors.real, factors.imag), axis=-1).tobytes()


# A child that runs the CLI module as ``python -m mkvariance.cli`` would, then
# reports whether numpy.random was imported with numpy itself and by the end.
DECIDE_CHILD = """
import runpy, sys
import numpy
eager = "numpy.random" in sys.modules
sys.argv = ["mkvariance", "decide", sys.argv[1]]
try:
    runpy.run_module("mkvariance.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
print("numpy.random loaded:", eager, "numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_decide_process_does_not_import_numpy_random(tmp_path):
    # decide draws no random start, and the overlap search draws its starts
    # from Python's random module, so a decide process never pays
    # numpy.random's import (about 6 MB of RSS).
    path = state_file(tmp_path, random_state(4, 2))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", DECIDE_CHILD, path], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["decision"]["verdict"] == "entangled"
    if child.stderr.splitlines()[-1] == "numpy.random loaded: True True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert child.stderr.splitlines()[-1] == "numpy.random loaded: False False"


def decide_in_a_child(tmp_path, amplitudes):
    """``python -m mkvariance.cli decide`` on a 2-qubit state file, in a child process."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": amplitudes}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "mkvariance.cli", "decide", str(path)],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("part", [0, 1], ids=["real", "imaginary"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_decide_rejects_an_infinite_amplitude(tmp_path, part, value):
    # json writes NaN, Infinity and -Infinity, and the norm check rejects each
    # one before any arithmetic on the state could warn.
    amps = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    amps[0][part] = value
    child = decide_in_a_child(tmp_path, amps)
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr == f"error: state norm {abs(value)} deviates from 1 by more than 1e-06\n"


@pytest.mark.parametrize("amplitude", [[1e200, 0.0], [0.0, -2e154], [1e154, 1e154]], ids=["1e200", "imaginary", "both"])
def test_decide_rejects_a_huge_finite_amplitude_without_a_warning(tmp_path, amplitude):
    # The squared norm overflows to inf, which the norm check rejects; numpy's
    # overflow warning, printed above the error line, is kept quiet.
    child = decide_in_a_child(tmp_path, [amplitude, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr == "error: state norm inf deviates from 1 by more than 1e-06\n"


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


BAD_TAUS = [
    pytest.param(["--tau", "-1"], "tau", id="tau-neg"),
    pytest.param(["--tau", "nan"], "tau", id="tau-nan"),
]


@pytest.mark.parametrize("option, word", BAD_TAUS)
def test_decide_rejects_bad_option(tmp_path, capsys, option, word):
    path = state_file(tmp_path, generalized_ghz(3, math.pi / 8))
    code, out, err = run_cli(capsys, ["decide", path] + option)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


@pytest.mark.parametrize("command, flag", [
    ("decide", "--seed"),
    ("decide", "--starts"),
    ("ghz-scan", "--seed"),
    ("ghz-scan", "--starts"),
    ("decide", "--json-indent"),
    ("ghz-scan", "--json-indent"),
    ("mk-op", "--json-indent"),
], ids=lambda value: value.lstrip("-"))
def test_commands_refuse_removed_options(tmp_path, capsys, command, flag):
    # decide ascends from its witness alone, ghz-scan's see-saw runs on the
    # library's defaults, and every command prints compact JSON.
    operands = {
        "decide": [state_file(tmp_path, generalized_ghz(3, math.pi / 8))],
        "ghz-scan": ["--n", "3", "--points", "3"],
        "mk-op": ["--canonical", "3"],
    }
    with pytest.raises(SystemExit) as stop:
        main([command] + operands[command] + [flag, "2"])
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
        ["ghz-scan", "--n", "2", "--points", "3", "--compare-mean"],
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


@pytest.mark.parametrize("option, word", BAD_TAUS + [
    pytest.param(["--points", "1"], "at least 2 grid points", id="points-1"),
    pytest.param(["--points", "0"], "at least 2 grid points", id="points-0"),
])
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
    path.write_text(json.dumps(cli.settings_json(settings)))
    code, out, _ = run_cli(capsys, ["mk-op", str(path), "--dump-matrix"])
    assert code == 0
    data = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    # The dumped matrix rebuilt from swapped settings reproduces the
    # literal recursion's B'.
    swapped_path = tmp_path / "swapped.json"
    swapped_path.write_text(json.dumps(cli.settings_json(swapped(settings))))
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


@pytest.mark.parametrize("n", range(2, 11))
def test_mk_op_norm_is_the_largest_absolute_eigenvalue_of_canonical_settings(capsys, n):
    # max_abs_eigenvalue comes from MKOperator.operator_norm at every n; up to
    # DENSE_QUBIT_CAP the dense spectrum checks it.
    code, out, _ = run_cli(capsys, ["mk-op", "--canonical", str(n)])
    assert code == 0
    data = json.loads(out)
    assert abs(data["max_abs_eigenvalue"] - max(map(abs, data["eigenvalues"]))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mk_op_norm_is_the_largest_absolute_eigenvalue_of_random_settings(tmp_path, capsys, n):
    rng = np.random.default_rng(100 + n)
    for k in range(5):
        path = tmp_path / f"settings{k}.json"
        path.write_text(json.dumps(cli.settings_json(random_settings(rng, n))))
        code, out, _ = run_cli(capsys, ["mk-op", str(path)])
        assert code == 0
        data = json.loads(out)
        assert abs(data["max_abs_eigenvalue"] - max(map(abs, data["eigenvalues"]))) <= 1e-12


def test_mk_op_above_dense_cap_rejects_matrix_dump(capsys):
    code, out, err = run_cli(capsys, ["mk-op", "--canonical", "11", "--dump-matrix"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "dense" in err


@pytest.mark.parametrize("n", ["1", "17"])
def test_mk_op_rejects_canonical_outside_the_qubit_range(capsys, n):
    # canonical_settings checks 2 <= n <= MAX_QUBITS.
    code, out, err = run_cli(capsys, ["mk-op", "--canonical", n])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_mk_op_requires_input(capsys):
    code, _, err = run_cli(capsys, ["mk-op"])
    assert code == 2
    assert "settings" in err or "canonical" in err
    # An unknown command is an input error too, exit 2 from argparse.
    with pytest.raises(SystemExit) as stop:
        main(["selftest"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'selftest'" in captured.err


def test_mk_op_rejects_settings_file_and_canonical(tmp_path, capsys):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(cli.settings_json(canonical_settings(3))))
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


# --- errors while computing ---


@pytest.mark.parametrize("argv, target", [
    pytest.param(lambda tmp_path: ["decide", state_file(tmp_path, generalized_ghz(3, 0.3))], "decide", id="decide"),
    pytest.param(lambda _: ["ghz-scan", "--n", "3", "--points", "3"], "variance", id="ghz-scan"),
    pytest.param(lambda _: ["mk-op", "--canonical", "3"], "MKOperator", id="mk-op"),
])
def test_an_error_while_computing_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, target):
    # Not only reading input may fail; no failure may escape with Python's
    # exit code 1, which reads as the verdict "product".
    def fail(*args, **kwargs):
        raise RuntimeError(f"{target} failed")

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {target} failed\n"
