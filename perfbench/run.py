"""The repository's benchmark: decide latency on haar_decide, cli_decide and
mean_scan, with a separate traced run that times each module's layer.

  python3 perfbench/run.py --workload haar_decide --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --all --seed 1            # every workload, untraced and traced

Every workload runs in fresh worker processes (worker.py) with one
closed-loop caller.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give every metric by name, unit and sample count, the work counters and the
run metadata.  Each run writes its record (one row per op: verdict,
objective value, best start, max_mk_mean value) to perfbench/out/, which
compare.py diffs between two runs.  README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("haar_decide", "cli_decide", "mean_scan")
# Fresh processes whose set-up times give setup_s's median.
SETUP_REPEATS = 5
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SUBPROCESS_METRICS = ("cli.interpreter_s", "cli.import_s")
COUNTERS = ("criterion.starts", "criterion.best_start_sweeps", "bell.canonical_mk_builds",
            "bell.mk_apply_calls", "bell.max_mk_mean_iterations")


class BenchError(RuntimeError):
    pass


def spawn(cmd, timeout):
    """Runs a child in its own process group, kills the group on timeout,
    and waits until it has ended."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"a worker did not finish within {timeout:.0f} s") from None


def run_worker(args, work, extra, timeout):
    result = Path(work) / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--ops", str(args.ops), "--trace", str(args.trace),
           "--workdir", work, "--result", str(result), *extra]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    code = spawn(cmd, timeout)
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    data["setup_s"] = data["ready"] - started - data["input_s"]
    return data


def median_ms(rows):
    return statistics.median(r["seconds"] for r in rows) * 1e3


def tail(rows):
    """(value in ms, percentile, samples beyond) of the highest percentile
    with at least TAIL_BEYOND samples beyond it; the maximum if too few ops."""
    times = sorted(r["seconds"] for r in rows)
    k = max(len(times) - TAIL_BEYOND - 1, 0) if len(times) > TAIL_BEYOND else len(times) - 1
    return times[k] * 1e3, 100.0 * (k + 1) / len(times), len(times) - k - 1


def subprocess_seconds(code, repeats=3):
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata(args, numpy_version):
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         check=False) if (ROOT / ".git").exists() else None
    return {
        "commit": git.stdout.strip() if git and git.returncode == 0 else "unknown (not a git checkout)",
        "python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": args.ops, "tiny": args.tiny,
    }


def counters_of(rows):
    totals = {}
    for row in rows:
        for key, value in row.get("counters", {}).items():
            totals[key] = totals.get(key, 0) + value
    return {k: v / len(rows) for k, v in totals.items()}


def run_workload(args):
    """One workload, untraced (end-to-end metrics) or traced (per-layer)."""
    OUT.mkdir(exist_ok=True)
    timeout = None if args.ops else 2 * args.seconds + 60
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, work, ["--setup-only"], timeout)["setup_s"])
        data = run_worker(args, work, ["--spans", str(OUT / f"{tag(args)}-spans.jsonl")]
                          if args.trace else [], timeout)
    setups.append(data["setup_s"])
    rows = data["ops"]
    phases = [rows] + [data[k] for k in ("untraced_replay_ops", "traced_ops") if k in data]
    attempted = sum(len(p) for p in phases)
    failed = sum(1 for p in phases for r in p if r["error"])
    summary = {"meta": metadata(args, data["numpy"]), "attempted": attempted, "failed": failed,
               "counters": counters_of(rows)}
    if "canonical_mk_builds" in data:
        summary["counters"]["bell.canonical_mk_builds"] = data["canonical_mk_builds"]
    if args.trace:
        layers = dict(data["layers"])
        # Each input ran untraced and traced back to back, so the overhead is
        # the median of the per-input differences, not a difference of medians.
        paired = list(zip(data["traced_ops"], data.get("untraced_replay_ops", rows)))
        layers["trace.overhead_p50_ms"] = (
            statistics.median(t["seconds"] - u["seconds"] for t, u in paired) * 1e3, "ms")
        layers["cli.interpreter_s"] = (subprocess_seconds("pass"), "s")
        layers["cli.import_s"] = (subprocess_seconds("import mkvariance.cli") - layers["cli.interpreter_s"][0], "s")
        overhead = 0.0
        if "untraced_replay_ops" in data:
            pairs = zip(rows, data["untraced_replay_ops"])
            overhead = statistics.fmean(a["seconds"] - b["seconds"] for a, b in pairs)
        layers["cli.process_overhead_s"] = (overhead, "s/op")
        summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        summary["samples"] = {"traced_ops": len(data["traced_ops"]), "overhead_pairs": len(paired)}
    else:
        tail_ms, pct, beyond = tail(rows)
        summary["tail_ms"] = tail_ms
        summary["metrics"] = {
            "latency_p50_ms": {"value": median_ms(rows), "unit": "ms"},
            "throughput_ops_s": {"value": len(rows) / data["wall_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
        summary["error_ratio"] = failed / attempted
        summary["samples"] = {"ops": len(rows), "wall_s": data["wall_s"], "tail_percentile": pct,
                              "tail_beyond": beyond, "setups": len(setups)}
    if "nan_probe" in data:
        summary["nan_probe"] = data["nan_probe"]
    summary["errors"] = [f"op {r['index']}: {r['error']}" for p in phases for r in p if r["error"]][:20]
    record = dict(summary, ops=rows, traced_ops=data.get("traced_ops", []))
    summary["record"] = str((OUT / f"{tag(args)}.json").relative_to(ROOT))
    with open(ROOT / summary["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return summary


def tag(args):
    return f"{args.workload}-s{args.seed}-t{args.trace}"


def report(args, s):
    """Human-readable lines: every metric by name, value, unit and samples."""
    out = [f"# {args.workload} seed={args.seed} trace={args.trace}",
           "meta " + json.dumps(s["meta"], sort_keys=True)]
    m, n = s["metrics"], s["samples"]
    if args.trace:
        for name, metric in m.items():
            if name in SUBPROCESS_METRICS:
                samples = "median of 3 processes"
            elif name == "trace.overhead_p50_ms":
                samples = f"median of {n['overhead_pairs']} per-op differences, traced minus untraced"
            else:
                samples = f"{n['traced_ops']} traced ops"
            out.append(f"{name} {metric['value']:.6g} {metric['unit']} ({samples})")
    else:
        ops = n["ops"]
        out += [
            f"latency_p50_ms {m['latency_p50_ms']['value']:.6g} ms (median of {ops} ops)",
            f"latency_tail_ms {s['tail_ms']:.6g} ms (p{n['tail_percentile']:.1f}, "
            f"{n['tail_beyond']} of {ops} ops beyond it)",
            f"throughput_ops_s {m['throughput_ops_s']['value']:.6g} 1/s ({ops} ops in {n['wall_s']:.3f} s)",
            f"error_ratio {s['error_ratio']:.6g} failed/attempted ({s['failed']} of {s['attempted']} ops)",
            f"setup_s {m['setup_s']['value']:.6g} s (median of {n['setups']} set-ups)",
            f"peak_rss_mb {m['peak_rss_mb']['value']:.6g} MB "
            f"({'largest of the op subprocesses' if args.workload == 'cli_decide' else '1 process'})",
        ]
        out.append("counters " + " ".join(f"{k}={s['counters'][k]:.6g}/op" for k in COUNTERS
                                           if k in s["counters"]) + " (all five: --trace 1)")
    if "nan_probe" in s:
        p = s["nan_probe"]
        state = "known defect, ROADMAP item 4" if p["exit_code"] != p["expected_code"] else "fixed"
        out.append(f"nan_probe exit={p['exit_code']} expected={p['expected_code']} ({state}; not an op)")
    out += [f"error {e}" for e in s["errors"]]
    out.append(f"record {s['record']}")
    return "\n".join(out)


def result_line(s):
    return json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": s["metrics"]})


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--ops", type=int, default=0, help="run exactly this many ops instead of --seconds")
    p.add_argument("--tiny", action="store_true", help="small qubit counts, for the harness tests")
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def main(argv=None):
    args = parse(argv)
    if not (ROOT / "src" / "mkvariance" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'mkvariance'} is missing", file=sys.stderr)
        return 2
    try:
        if not args.all:
            s = run_workload(args)
            print(report(args, s))
            print(result_line(s))
            return 0
        suite = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = argparse.Namespace(**dict(vars(args), workload=workload, trace=trace))
                s = run_workload(one)
                print(report(one, s), flush=True)
                suite[f"{workload}/trace{trace}"] = s
        path = OUT / f"suite-s{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1)
        print(f"suite {path.relative_to(ROOT)}")
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
