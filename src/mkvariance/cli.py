"""Command-line front end: decide states, scan the generalized-GHZ family
and inspect MK operators.

All input and output is JSON, and only this module reads or writes it: the
library takes and returns arrays and dataclasses.  State and settings files
look like

    {"n": 3, "amplitudes": [[re, im], ...]}                      (2^n entries)
    {"n": 3, "pairs": [{"a": [x, y, z], "a_prime": [x, y, z]}, ...]}  (n pairs)

Every complex array written, amplitudes, matrix entries and a report's
local unitary, is nested lists of [re, im] pairs.

The `decide` command prints one verdict, the criterion's report, and encodes
it in the exit code: 0 entangled, 1 product, 2 input error.  The purity
oracle is the tests' referee; it is importable from the library and is not
run here.  A command prints its whole report or nothing: `main` turns any
exception a command raises into one `error:` line on stderr and exit 2, with
nothing on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bell import (
    MeasurementSettings,
    MKOperator,
    canonical_mk,
    canonical_settings,
    generalized_ghz,
    max_mk_mean,
)
from .criterion import DECISION_TAU, DecisionReport, decide, variance
from .linalg import DENSE_QUBIT_CAP, PureState, qubit_count
# Unused here, but perfbench/spans.py rebinds cli.is_product_oracle.
from .oracle import is_product_oracle  # noqa: F401

EXIT_ENTANGLED = 0
EXIT_PRODUCT = 1
EXIT_INPUT_ERROR = 2


def _object_with(data, what: str, *keys: str) -> dict:
    """Parsed JSON that must be an object holding ``keys``."""
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise ValueError(f"{what} must be an object with " + " and ".join(map(repr, keys)))
    return data


def _list_of(raw, count: int, what: str) -> list:
    """Parsed JSON that must be a list of ``count`` entries."""
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ValueError(f"expected a list of {count} {what}s, got {got}")
    return raw


def _number_rows(raw, count: int, width: int, what: str) -> np.ndarray:
    """Parsed JSON that must be a list of ``count`` lists of ``width`` numbers,
    as a (count, width) float array.  Booleans, which Python would take for 0
    and 1, are refused.  The ValueError names the bad entry."""
    for i, row in enumerate(_list_of(raw, count, what), start=1):
        if not (isinstance(row, list) and len(row) == width
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)):
            booleans = ", not booleans" if isinstance(row, list) and bool in map(type, row) else ""
            raise ValueError(f"{what} {i} must be a list of {width} numbers{booleans}")
    return np.array(raw, dtype=float)


def _pairs(array: np.ndarray) -> list:
    """A complex array as nested lists, one [re, im] pair per entry."""
    return np.stack((array.real, array.imag), axis=-1).tolist()


def load_state_file(path: str) -> tuple[PureState, float]:
    """Read a StateFile, returning the state and the recorded norm deviation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _object_with(json.load(fh), "state file", "n", "amplitudes")
    n = qubit_count(data["n"])
    # The view keeps re and im bit for bit, where re + 1j * im would turn 0 * inf into NaN.
    amps = _number_rows(data["amplitudes"], 2**n, 2, "amplitude").view(complex).reshape(-1)
    psi = PureState(amps)  # checks the norm first, so the one below cannot overflow
    return psi, abs(float(np.linalg.norm(amps)) - 1.0)


def write_state_file(path: str, psi: PureState) -> None:
    data = {
        "n": psi.n,
        "amplitudes": _pairs(psi.amplitudes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_settings_file(path: str) -> MeasurementSettings:
    """Read a settings file; the ValueError names the first bad part."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _object_with(json.load(fh), "settings", "n", "pairs")
    n = qubit_count(data["n"])
    pairs = [_object_with(pair, f"pair {j}", "a", "a_prime")
             for j, pair in enumerate(_list_of(data["pairs"], n, "pair"), start=1)]
    a = _number_rows([p["a"] for p in pairs], n, 3, "'a' of pair")
    ap = _number_rows([p["a_prime"] for p in pairs], n, 3, "'a_prime' of pair")
    return MeasurementSettings(n=n, a=a, a_prime=ap)


def settings_json(settings: MeasurementSettings) -> dict:
    """The JSON object of a settings file."""
    pairs = [{"a": list(a), "a_prime": list(ap)} for a, ap in zip(settings.a, settings.a_prime)]
    return {"n": settings.n, "pairs": pairs}


def decision_json(report: DecisionReport) -> dict:
    """The JSON object of a report: its fields, with the run record under
    "optimizer" and the factors last, indexed [qubit][row][col]."""
    data = dataclasses.asdict(report)
    data["optimizer"] = data.pop("optimizer_metadata")
    data["factors"] = _pairs(data.pop("factors"))
    return data


def _emit(obj: dict) -> None:
    # json renders floats with repr, which round-trips the exact double.
    print(json.dumps(obj))


def _decide(args) -> int:
    psi, deviation = load_state_file(args.state_file)
    report = decide(psi, tau=args.tau)
    _emit({"n": psi.n, "norm_deviation": deviation, "decision": decision_json(report)})
    return EXIT_ENTANGLED if report.verdict == "entangled" else EXIT_PRODUCT


def _ghz_scan(args) -> int:
    op = canonical_mk(args.n)
    if args.points < 2:
        raise ValueError("need at least 2 grid points")
    rows = []
    for phi in np.linspace(0.0, math.pi / 4, args.points):
        psi = generalized_ghz(args.n, float(phi))
        delta = variance(psi, op)
        closed_form = 2 ** (args.n - 1) * math.cos(2 * phi) ** 2
        report = decide(psi, tau=args.tau)
        row = {
            "phi": float(phi),
            "variance": delta,
            "closed_form": closed_form,
            "difference": delta - closed_form,
            "verdict": report.verdict,
        }
        if args.compare_mean:
            row["mean_max"] = max_mk_mean(psi).value
        rows.append(row)
    _emit({"n": args.n, "bound": float(2 ** (args.n - 1)), "rows": rows})
    return 0


def _mk_op(args) -> int:
    if (args.settings_file is None) == (args.canonical is None):
        raise ValueError("provide exactly one of a settings file and --canonical n")
    if args.canonical is not None:
        settings = canonical_settings(args.canonical)
    else:
        settings = load_settings_file(args.settings_file)
    op = MKOperator(settings)
    out: dict = {
        "n": settings.n,
        "norm_bound": float(2 ** ((settings.n - 1) / 2)),
        "settings": settings_json(settings),
    }
    if settings.n <= DENSE_QUBIT_CAP or args.dump_matrix:  # dense() refuses a dump above the cap
        matrix = op.dense()
        out["eigenvalues"] = sorted((float(x) for x in np.linalg.eigvalsh(matrix)), reverse=True)
    out["max_abs_eigenvalue"] = op.operator_norm()
    if args.dump_matrix:
        out["matrix"] = _pairs(matrix)
    _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkvariance",
        description="Variance-based entanglement test for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide whether a state file is entangled")
    p.add_argument("state_file")
    p.add_argument("--tau", type=float, default=DECISION_TAU, help="relative decision threshold")
    p.set_defaults(run=_decide)

    p = sub.add_parser("ghz-scan", help="sweep the generalized-GHZ family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=21, help="grid points on [0, pi/4]")
    p.add_argument("--compare-mean", action="store_true", help="also maximize the MK mean value")
    p.add_argument("--tau", type=float, default=DECISION_TAU, help="relative decision threshold")
    p.set_defaults(run=_ghz_scan)

    p = sub.add_parser("mk-op", help="operator norm and spectrum of an MK operator")
    p.add_argument("settings_file", nargs="?", default=None)
    p.add_argument("--canonical", type=int, default=None, metavar="N", help="use canonical settings")
    p.add_argument("--dump-matrix", action="store_true", help="include full matrix entries")
    p.set_defaults(run=_mk_op)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
