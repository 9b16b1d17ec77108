"""Inputs, operations and output checks of the benchmark's three workloads.

Why each workload exists, and which ROADMAP item it shows or bypasses, is
recorded in README.md next to this file.  Every input is made from the
workload seed; the program only ever sees the generated states or files.

Each workload exposes the same five steps, used by ``worker.py``:

* ``inputs(seed, count, grid)`` builds ``count`` input items, cycling over
  the qubit counts in ``grid`` in equal shares;
* ``warmup(grid)`` runs untimed ops on fixed inputs before the first timed op;
* ``run(item)`` is the timed op;
* ``outcome(item, raw)`` turns an op's raw result into a record row;
* ``check(item, row)`` returns None when the output is right, else why not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from mkvariance import bell, cli, criterion, oracle

# ``decide`` and ``max_mk_mean`` always run with the library defaults.
CONFIG = criterion.OptimizerConfig(seed=0)
CEILING_TOL = 1e-12
# Near phi = 0 a generalized GHZ state is a near-threshold call for the
# criterion's tau; keeping phi >= pi/40 keeps its relative margin
# sin(2 phi)^2 above 0.024, far from tau = 1e-6, so criterion and oracle agree.
GHZ_PHI_MIN = math.pi / 40
# Cells of the stratified phi grid of mean_scan.
PHI_CELLS = 8
MALFORMED_EVERY = 10


def _fingerprint(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:16]


def _cycle_n(grid, count):
    return [grid[i % len(grid)] for i in range(count)]


class HaarDecide:
    """One in-process ``decide`` on a Haar-random state."""

    name = "haar_decide"
    # One size: at n = 3, 4, 5 in equal shares the median op falls inside
    # the heavy-tailed n = 4 group and moved 20% between seeds.
    grid = (4,)
    tiny_grid = (2, 3)
    # Upper bound on ops per second, used to size the input pool.
    max_rate = 60

    def inputs(self, seed, count, grid):
        seeds = np.random.SeedSequence(seed).generate_state(count)
        items = []
        for i, n in enumerate(_cycle_n(grid, count)):
            psi = oracle.random_state(n, int(seeds[i]))
            items.append({"index": i, "n": n, "kind": "haar", "state": psi,
                          "input": _fingerprint(psi.amplitudes.tobytes())})
        return items

    def warmup(self, grid):
        for n in grid:
            criterion.decide(oracle.random_product_state(n, 0), CONFIG)

    def run(self, item):
        return criterion.decide(item["state"], CONFIG)

    def outcome(self, item, raw):
        meta = raw.optimizer_metadata
        return {"verdict": raw.verdict, "objective_value": raw.objective_value,
                "best_start": meta.best_start,
                "counters": {"criterion.starts": meta.starts,
                             "criterion.best_start_sweeps": meta.iterations}}

    def check(self, item, row):
        if row["verdict"] != "entangled":
            return f"verdict {row['verdict']!r} on a Haar-random state"
        if oracle.is_product_oracle(item["state"]).is_product:
            return "the purity oracle calls the state a product"
        return None


class MeanScan:
    """One in-process ``max_mk_mean`` on cos(phi)|0..0> + sin(phi)|1..1>."""

    name = "mean_scan"
    grid = (3, 4, 5)
    tiny_grid = (2, 3)
    max_rate = 15

    def inputs(self, seed, count, grid):
        rng = np.random.default_rng(seed)
        items = []
        for i, n in enumerate(_cycle_n(grid, count)):
            # A jittered grid: op i falls in cell k of (0, pi/4] at a seeded
            # point, so every run covers the whole range evenly.
            cell = (i // len(grid)) % PHI_CELLS
            phi = (cell + 1.0 - rng.random()) * (math.pi / 4) / PHI_CELLS
            psi = bell.generalized_ghz(n, phi)
            items.append({"index": i, "n": n, "kind": "ghz", "phi": phi, "state": psi,
                          "input": _fingerprint(psi.amplitudes.tobytes())})
        return items

    def warmup(self, grid):
        # max_mk_mean fills no cache (it builds no canonical_mk), so one
        # cheap op only runs numpy's code paths once.
        bell.max_mk_mean(bell.generalized_ghz(2, math.pi / 4), CONFIG)

    def run(self, item):
        return bell.max_mk_mean(item["state"], CONFIG)

    def outcome(self, item, raw):
        return {"value": raw.value, "best_start": raw.best_start,
                "counters": {"bell.max_mk_mean_iterations": raw.iterations,
                             "bell.max_mk_mean_starts": raw.starts}}

    def check(self, item, row):
        n, phi, value = item["n"], item["phi"], row["value"]
        scale = 2 ** ((n - 1) / 2)
        if value < scale * math.sin(2 * phi) - 1e-12:
            return f"value {value!r} below the canonical mean"
        if value > scale + 1e-9:
            return f"value {value!r} above the operator norm"
        if n == 3 and math.sin(2 * phi) <= 0.3 and value > 1 + 1e-6:
            return f"value {value!r} violates the local bound for a weakly entangled state"
        return None


class CliDecide:
    """One ``mkvariance decide <file>`` subprocess."""

    name = "cli_decide"
    grid = (4, 7, 10)
    tiny_grid = (2, 3)
    max_rate = 8
    # Malformed kinds the CLI rejects with exit 2.  A NaN amplitude is also
    # malformed, but it exits 1 with a traceback (ROADMAP item 4); the worker
    # sends one NaN file outside the timed loop instead (``nan_probe``).
    malformed = ("norm", "truncated", "count")

    def __init__(self, workdir):
        self.workdir = workdir
        src = os.path.dirname(os.path.dirname(criterion.__file__))
        self.env = dict(os.environ, PYTHONPATH=src)

    def inputs(self, seed, count, grid):
        rng = np.random.default_rng(seed)
        items = []
        well_formed = 0
        for i in range(count):
            path = os.path.join(self.workdir, f"state-{i:05d}.json")
            if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
                kind = self.malformed[(i // MALFORMED_EVERY) % len(self.malformed)]
                n = grid[(i // MALFORMED_EVERY) % len(grid)]
                self.write_malformed(path, kind, n, rng)
                item = {"index": i, "n": n, "kind": kind, "path": path, "expected_code": 2}
            else:
                n = grid[well_formed % len(grid)]
                kind = "product" if (well_formed // len(grid)) % 2 == 0 else "ghz"
                well_formed += 1
                if kind == "product":
                    psi = oracle.random_product_state(n, int(rng.integers(2**32)))
                else:
                    psi = bell.generalized_ghz(n, float(rng.uniform(GHZ_PHI_MIN, math.pi / 4)))
                cli.write_state_file(path, psi)
                is_product = oracle.is_product_oracle(psi).is_product
                item = {"index": i, "n": n, "kind": kind, "path": path,
                        "expected_code": cli.EXIT_PRODUCT if is_product else cli.EXIT_ENTANGLED,
                        "expected_verdict": "product" if is_product else "entangled"}
            with open(path, "rb") as fh:
                item["input"] = _fingerprint(fh.read())
            items.append(item)
        return items

    @staticmethod
    def write_malformed(path, kind, n, rng):
        psi = oracle.random_state(max(n, 2), int(rng.integers(2**32)))
        rows = [[z.real, z.imag] for z in psi.amplitudes]
        if kind == "norm":
            rows = [[2 * re, 2 * im] for re, im in rows]
        elif kind == "count":
            rows = rows[:-1]
        elif kind == "nan":
            rows[0] = [float("nan"), 0.0]
        text = json.dumps({"n": psi.n, "amplitudes": rows})
        if kind == "truncated":
            text = text[: len(text) // 2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def warmup(self, grid):
        """Ops are cold by design: each one is a fresh process."""

    def run(self, item):
        return subprocess.run(
            [sys.executable, "-m", "mkvariance.cli", "decide", item["path"]],
            env=self.env, capture_output=True, text=True, check=False,
        )

    def run_in_process(self, item):
        """``cli.main`` in this process, with ``canonical_mk``'s cache emptied
        first so that every op pays the cold build, as a fresh process does."""
        CANONICAL_MK.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["decide", item["path"]])
            except Exception as exc:  # the op failed; check() reports it
                return subprocess.CompletedProcess([], None, out.getvalue(), repr(exc))
        return subprocess.CompletedProcess([], code, out.getvalue(), err.getvalue())

    def outcome(self, item, raw):
        row = {"exit_code": raw.returncode, "stderr_tail": raw.stderr.strip()[-200:]}
        if raw.returncode in (cli.EXIT_ENTANGLED, cli.EXIT_PRODUCT):
            try:
                decision = json.loads(raw.stdout)["decision"]
            except (json.JSONDecodeError, KeyError, TypeError):
                row["stdout_error"] = "stdout is not one JSON object with a decision"
                return row
            opt = decision["optimizer"]
            row.update(verdict=decision["verdict"], objective_value=decision["objective_value"],
                       best_start=opt["best_start"],
                       counters={"criterion.starts": opt["starts"],
                                 "criterion.best_start_sweeps": opt["iterations"]})
        return row

    def check(self, item, row):
        if row["exit_code"] != item["expected_code"]:
            return f"exit {row['exit_code']} on a {item['kind']} file, expected {item['expected_code']}"
        if item["expected_code"] == 2:
            return None
        if "stdout_error" in row:
            return row["stdout_error"]
        if row["verdict"] != item["expected_verdict"]:
            return f"verdict {row['verdict']!r}, oracle says {item['expected_verdict']!r}"
        return None


# The lru_cache object itself, kept before any tracing rebinds the name.
CANONICAL_MK = bell.canonical_mk


def make(name, workdir=None):
    if name == HaarDecide.name:
        return HaarDecide()
    if name == MeanScan.name:
        return MeanScan()
    if name == CliDecide.name:
        return CliDecide(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (HaarDecide.name, CliDecide.name, MeanScan.name)


def mk_apply_bytes(n: int) -> int:
    """Bytes one ``MKOperator.apply`` moves, computed (not measured) from n:
    the pair recursion makes 2 single-qubit passes on qubit 1 and 4 on each
    further qubit, and each pass reads and writes 2^n complex128 amplitudes."""
    return (2 + 4 * (n - 1)) * (2**n) * 16 * 2


def is_ceiling(row) -> bool:
    return row.get("objective_value", 0.0) >= 1.0 - CEILING_TOL


def is_capped(row) -> bool:
    return row.get("counters", {}).get("criterion.best_start_sweeps", 0) >= CONFIG.max_iterations

