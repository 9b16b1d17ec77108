"""One workload in one fresh process, driven by ``run.py``.

Modes:
  --setup-only  import the package, run the warm-up, report when ready;
  (default)     the same set-up, then the closed loop: one caller, one op at
                a time, for --seconds (or exactly --ops ops);
  --trace       each input runs untraced and with spans on, back to back.

The result goes to the JSON file named by --result.  Timestamps use
time.monotonic(), one clock for every process of the machine, so run.py can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (imports mkvariance from SRC)
from mkvariance import bell, cli  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(bell.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"error: mkvariance was imported from {bell.__file__}, not from {SRC}")


def timed_loop(run, items, seconds, ops):
    """Closed loop over ``items``; returns [(item, seconds, raw, error)] and
    the timed wall time.  An op that raises is recorded, not re-raised."""
    done = []
    begin = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            raw, error = run(item), None
        except Exception:  # the loop must go on; the op is counted as failed
            raw, error = None, traceback.format_exc(limit=2)
        done.append((item, time.perf_counter() - t0, raw, error))
        if len(done) >= ops if ops else time.perf_counter() - begin >= seconds:
            break
    return done, time.perf_counter() - begin


def rows_of(workload, done):
    rows = []
    for item, seconds, raw, error in done:
        row = {"index": item["index"], "n": item["n"], "kind": item["kind"],
               "input": item["input"], "seconds": seconds}
        if "phi" in item:
            row["phi"] = item["phi"]
        if error is None:
            row.update(workload.outcome(item, raw))
            error = workload.check(item, row)
        row["error"] = error
        rows.append(row)
    return rows


def layer_metrics(tracer, rows, cache_builds):
    """The per-layer metrics of the traced replay."""
    ops = len(rows)
    spans = tracer.totals()

    def per_op(name, key="total"):
        return spans[name][key] / ops

    decided = [r for r in rows if "criterion.starts" in r.get("counters", {})]
    meaned = [r for r in rows if "bell.max_mk_mean_iterations" in r.get("counters", {})]

    def mean_counter(rs, key):
        return sum(r["counters"][key] for r in rs) / ops

    apply_calls = spans["bell.mk_apply"]["calls"]
    bytes_total = sum(
        workloads.mk_apply_bytes(r["n"]) * r["mk_apply_calls"] for r in rows
    )
    return {
        "criterion.maximize_objective_s": (per_op("criterion.maximize_objective"), "s/op"),
        "criterion.best_start_sweeps": (mean_counter(decided, "criterion.best_start_sweeps"), "count/op"),
        "criterion.starts": (mean_counter(decided, "criterion.starts"), "count/op"),
        "criterion.ceiling_ratio": (sum(map(workloads.is_ceiling, decided)) / max(len(decided), 1), "share"),
        "criterion.capped_ratio": (sum(map(workloads.is_capped, decided)) / max(len(decided), 1), "share"),
        "criterion.variance_s": (per_op("criterion.variance"), "s/op"),
        "criterion.decide_self_s": (per_op("criterion.decide", "self"), "s/op"),
        "bell.canonical_mk_s": (per_op("bell.canonical_mk"), "s/op"),
        "bell.canonical_mk_builds": (cache_builds / ops, "count/op"),
        "bell.mk_apply_s": (spans["bell.mk_apply"]["total"] / max(apply_calls, 1), "s/call"),
        "bell.mk_apply_calls": (apply_calls / ops, "count/op"),
        "bell.mk_apply_bytes_computed": (bytes_total / max(apply_calls, 1), "bytes/call"),
        "bell.max_mk_mean_s": (per_op("bell.max_mk_mean"), "s/op"),
        "bell.max_mk_mean_iterations": (mean_counter(meaned, "bell.max_mk_mean_iterations"), "count/op"),
        "bell.max_mk_mean_starts": (mean_counter(meaned, "bell.max_mk_mean_starts"), "count/op"),
        "oracle.is_product_oracle_s": (per_op("oracle.is_product_oracle"), "s/op"),
        "linalg.pure_state_s": (per_op("linalg.pure_state"), "s/op"),
        "linalg.pure_state_calls": (spans["linalg.pure_state"]["calls"] / ops, "count/op"),
        "cli.load_state_file_s": (per_op("cli.load_state_file"), "s/op"),
        "cli.main_s": (per_op("cli.main"), "s/op"),
    }


def canonical_mk_misses():
    return workloads.CANONICAL_MK.cache_info().misses


def trace_run(workload, items, seconds, ops, spans_path):
    """The traced run: each input goes through the untraced op and the
    traced op back to back, in alternating order, so both sides see the
    same inputs and the same machine state.  cli_decide also runs each file
    as a subprocess first; its in-process ops go through cli.main."""
    is_cli = workload.name == workloads.CliDecide.name
    in_process = workload.run_in_process if is_cli else workload.run
    tracer = Tracer()
    plain, untraced, traced, apply_calls, builds = [], [], [], [], 0
    begin = time.perf_counter()
    for op, item in enumerate(items):
        if is_cli:
            plain += timed_loop(workload.run, [item], 0, 1)[0]
        for side in (op % 2, 1 - op % 2):
            if side == 0:
                untraced += timed_loop(in_process, [item], 0, 1)[0]
                continue
            tracer.op, first = op, len(tracer.spans)
            # run_in_process empties the cache, which also resets its miss count.
            before = 0 if is_cli else canonical_mk_misses()
            with tracer:
                traced += timed_loop(in_process, [item], 0, 1)[0]
            builds += canonical_mk_misses() - before
            apply_calls.append(sum(s[0] == "bell.mk_apply" for s in tracer.spans[first:]))
        if len(traced) >= ops if ops else time.perf_counter() - begin >= seconds:
            break
    rows = rows_of(workload, traced)
    for row, calls in zip(rows, apply_calls):
        row["mk_apply_calls"] = calls
    if spans_path:
        tracer.write(spans_path)
    out = {"traced_ops": rows, "layers": layer_metrics(tracer, rows, builds)}
    if is_cli:
        out.update(ops=rows_of(workload, plain), untraced_replay_ops=rows_of(workload, untraced))
    else:
        out["ops"] = rows_of(workload, untraced)
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    workload = workloads.make(args.workload, args.workdir)
    grid = workload.tiny_grid if args.tiny else workload.grid
    result = {"numpy": np.__version__}
    input_s = 0.0
    if not args.setup_only:
        t0 = time.monotonic()
        count = args.ops or int(args.seconds * workload.max_rate) + len(grid)
        items = workload.inputs(args.seed, count, grid)
        input_s = time.monotonic() - t0
    workload.warmup(grid)
    result.update(ready=time.monotonic(), input_s=input_s)
    if args.setup_only:
        return write(args.result, result)

    if args.trace:
        result.update(trace_run(workload, items, args.seconds, args.ops, args.spans))
        return write(args.result, result)
    misses = canonical_mk_misses()
    done, wall = timed_loop(workload.run, items, args.seconds, args.ops)
    result.update(ops=rows_of(workload, done), wall_s=wall)
    if args.workload == workloads.CliDecide.name:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["nan_probe"] = nan_probe(workload, args.workdir)
    else:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["canonical_mk_builds"] = (canonical_mk_misses() - misses) / len(done)
    return write(args.result, result)


def nan_probe(workload, workdir):
    """Runs one NaN-amplitude file outside the timed loop, so ROADMAP item 4's
    known defect shows in every cli_decide run without failing an op."""
    path = os.path.join(workdir, "nan-probe.json")
    workload.write_malformed(path, "nan", 2, np.random.default_rng(0))
    proc = workload.run({"path": path})
    return {"exit_code": proc.returncode, "expected_code": cli.EXIT_INPUT_ERROR,
            "stderr_tail": proc.stderr.strip()[-120:]}


def write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
