"""Command-line front end: decide states, scan the generalized-GHZ family,
inspect MK operators, and run the built-in selftest.

All input and output is JSON.  State files look like

    {"n": 3, "amplitudes": [[re, im], ...]}        (2^n entries)

and settings files use the wire format of MeasurementSettings.  The `decide`
command encodes its verdict in the exit code: 0 entangled, 1 product,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bell import (
    MeasurementSettings,
    canonical_mk,
    canonical_settings,
    generalized_ghz,
    ghz,
    max_mk_mean,
    mk_pair,
)
from .criterion import DECISION_TAU, OptimizerConfig, check_tau, decide, variance
from .linalg import DENSE_QUBIT_CAP, MAX_QUBITS, PureState, has_bool, qubit_count
from .oracle import is_product_oracle, random_product_state, random_state

EXIT_ENTANGLED = 0
EXIT_PRODUCT = 1
EXIT_INPUT_ERROR = 2


def load_state_file(path: str) -> tuple[PureState, float]:
    """Read a StateFile, returning the state and the recorded norm deviation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
        raise ValueError("state file must be an object with 'n' and 'amplitudes'")
    n = qubit_count(data["n"])
    raw = data["amplitudes"]
    if len(raw) != 2**n:
        raise ValueError(f"expected {2**n} amplitudes for n={n}, got {len(raw)}")
    if has_bool(raw):
        raise ValueError("amplitudes must be numbers, not booleans")
    amps = np.array([complex(re, im) for re, im in raw])
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


def _cmd_decide(args) -> int:
    try:
        config = _config_from_args(args)
        psi, deviation = load_state_file(args.state_file)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if psi.n < 2:
        print("error: the decision requires n >= 2", file=sys.stderr)
        return EXIT_INPUT_ERROR
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


def _cmd_ghz_scan(args) -> int:
    if args.n < 2 or args.n > MAX_QUBITS:
        print(f"error: n must be in 2..{MAX_QUBITS}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.points < 2:
        print("error: need at least 2 grid points", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    op = canonical_mk(args.n).bell
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


def _cmd_mk_op(args) -> int:
    try:
        if args.canonical is not None:
            if args.canonical < 2:
                raise ValueError("--canonical requires n >= 2")
            settings = canonical_settings(args.canonical)
        else:
            if args.settings_file is None:
                raise ValueError("provide a settings file or --canonical n")
            with open(args.settings_file, "r", encoding="utf-8") as fh:
                settings = MeasurementSettings.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    pair = mk_pair(settings)
    out: dict = {
        "n": settings.n,
        "norm_bound": float(2 ** ((settings.n - 1) / 2)),
        "settings": settings.to_json_dict(),
    }
    if settings.n <= DENSE_QUBIT_CAP:
        eigenvalues = np.linalg.eigvalsh(pair.bell.dense())
        out["eigenvalues"] = sorted((float(x) for x in eigenvalues), reverse=True)
        out["max_abs_eigenvalue"] = float(np.max(np.abs(eigenvalues)))
    else:
        if args.dump_matrix:
            print(
                f"error: dense dump is only available for n <= {DENSE_QUBIT_CAP}",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        out["max_abs_eigenvalue"] = pair.bell.operator_norm()
    if args.dump_matrix:
        out["matrix"] = [[[z.real, z.imag] for z in row] for row in pair.bell.dense()]
    _emit(out, args.json_indent)
    return 0


def _selftest_spectral() -> tuple[int, int, list[str]]:
    failures = []
    total = 0
    for n in range(2, 7):
        total += 1
        pair = canonical_mk(n)
        gp = ghz(n, +1)
        scale = 2 ** ((n - 1) / 2)
        residual = float(np.linalg.norm(pair.bell.apply(gp.amplitudes) - scale * gp.amplitudes))
        if residual >= 1e-10 * scale:
            failures.append(f"spectral n={n}: residual {residual:.3e}")
    return total - len(failures), total, failures


def _random_settings(rng, n: int) -> MeasurementSettings:
    vecs = rng.standard_normal((2, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(n=n, a=vecs[0], a_prime=vecs[1])


def _selftest_norm_bound(seed: int) -> tuple[int, int, list[str]]:
    rng = np.random.default_rng(seed)
    failures = []
    total = 0
    for n in (2, 3, 4):
        for _ in range(10):
            total += 1
            settings = _random_settings(rng, n)
            top = float(np.max(np.abs(np.linalg.eigvalsh(mk_pair(settings).bell.dense()))))
            if top > 2 ** ((n - 1) / 2) + 1e-9:
                failures.append(f"norm-bound n={n}: {top!r}")
    return total - len(failures), total, failures


def _selftest_matrix_free(seed: int) -> tuple[int, int, list[str]]:
    rng = np.random.default_rng(seed + 1)
    failures = []
    total = 0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            total += 1
            settings = _random_settings(rng, n)
            psi = random_state(n, int(rng.integers(2**31)))
            pair = mk_pair(settings)
            diff = float(
                np.max(np.abs(pair.bell.apply(psi.amplitudes) - pair.bell.dense() @ psi.amplitudes))
            )
            if diff >= 1e-12:
                failures.append(f"matrix-free n={n}: diff {diff:.3e}")
    return total - len(failures), total, failures


def _selftest_oracle_agreement(seed: int, states: int) -> tuple[int, int, list[str]]:
    config = OptimizerConfig(seed=seed)
    failures = []
    total = 0
    for n in (2, 3):
        for k in range(states):
            total += 1
            psi = random_product_state(n, seed * 1000 + k)
            if decide(psi, config).verdict != "product":
                failures.append(f"oracle-agreement: product state n={n} seed={k} misclassified")
        for k in range(states):
            total += 1
            psi = random_state(n, seed * 2000 + k)
            expected = "product" if is_product_oracle(psi).is_product else "entangled"
            if decide(psi, config).verdict != expected:
                failures.append(f"oracle-agreement: random state n={n} seed={k} disagrees")
    return total - len(failures), total, failures


def _cmd_selftest(args) -> int:
    try:
        OptimizerConfig(seed=args.seed)
        if args.states < 1:
            raise ValueError(f"--states must be >= 1, got {args.states}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    all_failures: list[str] = []
    suites = [
        ("spectral", _selftest_spectral()),
        ("norm-bound", _selftest_norm_bound(args.seed)),
        ("matrix-free", _selftest_matrix_free(args.seed)),
        ("oracle-agreement", _selftest_oracle_agreement(args.seed, args.states)),
    ]
    for name, (passed, total, failures) in suites:
        print(f"{name}: {passed}/{total} passed")
        all_failures.extend(failures)
    for f in all_failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest:", "FAIL" if all_failures else "PASS")
    return 1 if all_failures else 0


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
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("ghz-scan", help="sweep the generalized-GHZ family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=21, help="grid points on [0, pi/4]")
    p.add_argument("--compare-mean", action="store_true", help="also maximize the MK mean value")
    add_common(p)
    p.set_defaults(func=_cmd_ghz_scan)

    p = sub.add_parser("mk-op", help="eigenvalue summary of an MK operator")
    p.add_argument("settings_file", nargs="?", default=None)
    p.add_argument("--canonical", type=int, default=None, metavar="N", help="use canonical settings")
    p.add_argument("--dump-matrix", action="store_true", help="include full matrix entries")
    p.add_argument("--json-indent", type=int, default=None)
    p.set_defaults(func=_cmd_mk_op)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=10, help="states per oracle-agreement block")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
