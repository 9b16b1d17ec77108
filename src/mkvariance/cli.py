"""Command-line front end: decide states, scan the generalized-GHZ family,
inspect MK operators, and run the built-in selftest.

All input and output is JSON.  State files look like

    {"n": 3, "amplitudes": [[re, im], ...]}        (2^n entries)

and settings files use the wire format of MeasurementSettings.  The `decide`
command encodes its verdict in the exit code: 0 entangled, 1 product,
2 input error.  Each command has a read step, which parses and checks its
options and files, and a run step, which computes.  `main` guards only the
read step: an input error prints one line and exits 2.
"""

from __future__ import annotations

import argparse
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
    ghz,
    max_mk_mean,
)
from .criterion import DECISION_TAU, OptimizerConfig, check_tau, decide, variance
from .linalg import DENSE_QUBIT_CAP, MAX_QUBITS, PureState, _number_rows, qubit_count
from .oracle import is_product_oracle, random_product_state, random_state

EXIT_ENTANGLED = 0
EXIT_PRODUCT = 1
EXIT_INPUT_ERROR = 2

# What reading outside input may raise: a missing file, malformed JSON, a value
# out of range, or nesting past the recursion limit.  Nothing else is caught.
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError)


def load_state_file(path: str) -> tuple[PureState, float]:
    """Read a StateFile, returning the state and the recorded norm deviation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
        raise ValueError("state file must be an object with 'n' and 'amplitudes'")
    n = qubit_count(data["n"])
    # The view keeps re and im bit for bit, where re + 1j * im would turn 0 * inf into NaN.
    amps = _number_rows(data["amplitudes"], 2**n, 2, "amplitude").view(complex).reshape(-1)
    deviation = abs(float(np.linalg.norm(amps)) - 1.0)
    return PureState(amps), deviation


def write_state_file(path: str, psi: PureState) -> None:
    data = {
        "n": psi.n,
        "amplitudes": [[z.real, z.imag] for z in psi.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _emit(obj: dict, indent: int | None) -> None:
    # json renders floats with repr, which round-trips the exact double.
    print(json.dumps(obj, indent=indent))


def _config_from_args(args) -> OptimizerConfig:
    """The optimizer config of the common options; ValueError if one of
    them, ``--tau`` included, is out of range."""
    check_tau(args.tau)
    return OptimizerConfig(seed=args.seed, starts=args.starts)


def _read_decide(args) -> tuple[OptimizerConfig, PureState, float]:
    config = _config_from_args(args)
    psi, deviation = load_state_file(args.state_file)
    if psi.n < 2:
        raise ValueError("the decision requires n >= 2")
    return config, psi, deviation


def _run_decide(args, config: OptimizerConfig, psi: PureState, deviation: float) -> int:
    report = decide(psi, config, tau=args.tau)
    oracle = is_product_oracle(psi)
    _emit(
        {
            "n": psi.n,
            "norm_deviation": deviation,
            "decision": report.to_json_dict(),
            "oracle": oracle.to_json_dict(),
        },
        args.json_indent,
    )
    return EXIT_ENTANGLED if report.verdict == "entangled" else EXIT_PRODUCT


def _read_ghz_scan(args) -> tuple[OptimizerConfig]:
    if args.n < 2 or args.n > MAX_QUBITS:
        raise ValueError(f"n must be in 2..{MAX_QUBITS}")
    if args.points < 2:
        raise ValueError("need at least 2 grid points")
    return (_config_from_args(args),)


def _run_ghz_scan(args, config: OptimizerConfig) -> int:
    op = canonical_mk(args.n)
    rows = []
    for phi in np.linspace(0.0, math.pi / 4, args.points):
        psi = generalized_ghz(args.n, float(phi))
        delta = variance(psi, op)
        closed_form = 2 ** (args.n - 1) * math.cos(2 * phi) ** 2
        report = decide(psi, config, tau=args.tau)
        row = {
            "phi": float(phi),
            "variance": delta,
            "closed_form": closed_form,
            "difference": delta - closed_form,
            "verdict": report.verdict,
        }
        if args.compare_mean:
            row["mean_max"] = max_mk_mean(psi, config).value
        rows.append(row)
    _emit({"n": args.n, "bound": float(2 ** (args.n - 1)), "rows": rows}, args.json_indent)
    return 0


def _read_mk_op(args) -> tuple[MeasurementSettings]:
    if (args.settings_file is None) == (args.canonical is None):
        raise ValueError("provide exactly one of a settings file and --canonical n")
    if args.canonical is not None:
        if args.canonical < 2:
            raise ValueError("--canonical requires n >= 2")
        settings = canonical_settings(args.canonical)
    else:
        with open(args.settings_file, "r", encoding="utf-8") as fh:
            settings = MeasurementSettings.from_json_dict(json.load(fh))
    if args.dump_matrix and settings.n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense dump is only available for n <= {DENSE_QUBIT_CAP}")
    return (settings,)


def _run_mk_op(args, settings: MeasurementSettings) -> int:
    op = MKOperator(settings)
    out: dict = {
        "n": settings.n,
        "norm_bound": float(2 ** ((settings.n - 1) / 2)),
        "settings": settings.to_json_dict(),
    }
    if settings.n <= DENSE_QUBIT_CAP:
        matrix = op.dense()
        eigenvalues = np.linalg.eigvalsh(matrix)
        out["eigenvalues"] = sorted((float(x) for x in eigenvalues), reverse=True)
        out["max_abs_eigenvalue"] = float(np.max(np.abs(eigenvalues)))
    else:
        out["max_abs_eigenvalue"] = op.operator_norm()
    if args.dump_matrix:
        out["matrix"] = [[[z.real, z.imag] for z in row] for row in matrix]
    _emit(out, args.json_indent)
    return 0


def _random_settings(rng, n: int) -> MeasurementSettings:
    vecs = rng.standard_normal((2, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(n=n, a=vecs[0], a_prime=vecs[1])


def _selftest_checks(seed: int, states: int, config: OptimizerConfig):
    """Yield (suite, failure message or None) for each check, suite by suite."""
    for n in range(2, 7):
        gp = ghz(n, +1)
        scale = 2 ** ((n - 1) / 2)
        residual = float(np.linalg.norm(canonical_mk(n).apply(gp.amplitudes) - scale * gp.amplitudes))
        yield "spectral", f"spectral n={n}: residual {residual:.3e}" if residual >= 1e-10 * scale else None
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        for _ in range(10):
            settings = _random_settings(rng, n)
            top = float(np.max(np.abs(np.linalg.eigvalsh(MKOperator(settings).dense()))))
            yield "norm-bound", f"norm-bound n={n}: {top!r}" if top > 2 ** ((n - 1) / 2) + 1e-9 else None
    rng = np.random.default_rng(seed + 1)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            settings = _random_settings(rng, n)
            psi = random_state(n, int(rng.integers(2**31)))
            op = MKOperator(settings)
            diff = float(np.max(np.abs(op.apply(psi.amplitudes) - op.dense() @ psi.amplitudes)))
            yield "matrix-free", f"matrix-free n={n}: diff {diff:.3e}" if diff >= 1e-12 else None
    for n in (2, 3):
        for k in range(states):
            psi = random_product_state(n, seed * 1000 + k)
            misclassified = decide(psi, config).verdict != "product"
            yield "oracle-agreement", (
                f"oracle-agreement: product state n={n} seed={k} misclassified" if misclassified else None)
        for k in range(states):
            psi = random_state(n, seed * 2000 + k)
            expected = "product" if is_product_oracle(psi).is_product else "entangled"
            disagrees = decide(psi, config).verdict != expected
            yield "oracle-agreement", (
                f"oracle-agreement: random state n={n} seed={k} disagrees" if disagrees else None)


def _read_selftest(args) -> tuple[OptimizerConfig]:
    config = OptimizerConfig(seed=args.seed)
    if args.states < 1:
        raise ValueError(f"--states must be >= 1, got {args.states}")
    return (config,)


def _run_selftest(args, config: OptimizerConfig) -> int:
    results = list(_selftest_checks(args.seed, args.states, config))
    for suite in dict.fromkeys(suite for suite, _ in results):
        outcomes = [failure for name, failure in results if name == suite]
        print(f"{suite}: {outcomes.count(None)}/{len(outcomes)} passed")
    failures = [failure for _, failure in results if failure is not None]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkvariance",
        description="Variance-based entanglement test for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="optimizer seed")
        p.add_argument("--starts", type=int, default=None, help="optimizer starts (default max(32, 8n))")
        p.add_argument("--tau", type=float, default=DECISION_TAU, help="relative decision threshold")
        p.add_argument("--json-indent", type=int, default=None, help="pretty-print JSON output")

    p = sub.add_parser("decide", help="decide whether a state file is entangled")
    p.add_argument("state_file")
    add_common(p)
    p.set_defaults(read=_read_decide, run=_run_decide)

    p = sub.add_parser("ghz-scan", help="sweep the generalized-GHZ family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=21, help="grid points on [0, pi/4]")
    p.add_argument("--compare-mean", action="store_true", help="also maximize the MK mean value")
    add_common(p)
    p.set_defaults(read=_read_ghz_scan, run=_run_ghz_scan)

    p = sub.add_parser("mk-op", help="eigenvalue summary of an MK operator")
    p.add_argument("settings_file", nargs="?", default=None)
    p.add_argument("--canonical", type=int, default=None, metavar="N", help="use canonical settings")
    p.add_argument("--dump-matrix", action="store_true", help="include full matrix entries")
    p.add_argument("--json-indent", type=int, default=None)
    p.set_defaults(read=_read_mk_op, run=_run_mk_op)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=10, help="states per oracle-agreement block")
    p.set_defaults(read=_read_selftest, run=_run_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs = args.read(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return args.run(args, *inputs)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
