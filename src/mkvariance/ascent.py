"""The multi-start block-ascent driver shared by the overlap search of
``criterion.maximize_objective`` and the MK mean see-saw of
``bell.max_mk_mean``: it runs the starts in chunks that bound the working
memory at large n, stops each start by its gain alone, keeps the
lowest-index best and builds either search's run record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _is_integer

VALUE_TOLERANCE = 1e-12

# A chunk holds _CHUNK_AMPLITUDES // amplitudes starts, a few MB at any n: an
# overlap-ascent start holds 2**n amplitudes in its suffix and left-contracted
# arrays, a see-saw start n 2**n in its cached kets.
_CHUNK_AMPLITUDES = 2**18


def _chunk(amplitudes: int) -> int:
    """Starts per chunk for a search whose starts hold ``amplitudes`` amplitudes each."""
    return max(1, _CHUNK_AMPLITUDES // amplitudes)


@dataclass(frozen=True)
class OptimizerConfig:
    """Seed, start count and sweep cap of the multi-start searches.

    ``starts=None`` resolves to max(32, 8n) at run time.
    """

    seed: int = 0
    starts: int | None = None
    max_iterations: int = 300

    def __post_init__(self) -> None:
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.starts is not None and not (_is_integer(self.starts) and self.starts >= 1):
            raise ValueError(f"starts must be an integer >= 1, got {self.starts!r}")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")

    def resolved_starts(self, n: int) -> int:
        return self.starts if self.starts is not None else max(32, 8 * n)


@dataclass(frozen=True)
class OptimizerMetadata:
    """The run record of a multi-start search, built by ``_ascend_batch``.

    ``iterations`` counts the best start's sweeps.  ``total_sweeps`` adds up
    the sweeps of all starts, abandoned ones included, not the step's
    evaluations; ``capped_starts`` counts the starts that used all
    ``max_iterations`` sweeps without meeting the tolerance.
    ``starts_at_best`` counts the stopped starts within 1e-9 of the best
    value, not those abandoned at the ceiling or in chunks that never ran;
    ``converged`` says that the best start met the tolerance before the cap.
    """

    starts: int
    iterations: int
    best_start: int
    identity_value: float
    total_sweeps: int
    capped_starts: int
    starts_at_best: int
    converged: bool


def _ascend_batch(
    evaluate, sweep, retract, params: np.ndarray, cfg: OptimizerConfig, chunk: int, ceiling: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, OptimizerMetadata]:
    """The multi-start driver of both block ascents.

    ``params`` holds one row per start and is updated in place.  Starts run
    in chunks of ``chunk``; ``evaluate(x)`` gives the values of the rows x
    and ``sweep(x)`` their new rows and values.  A start stops once a sweep
    raises its value by less than ``VALUE_TOLERANCE`` (each block update
    maximizes exactly, so a sweep's gain is quadratic in its steps and no
    step test is needed) or is its ``max_iterations``-th; stopped starts
    leave the batch.  A start that goes on after an odd sweep from sweep 11
    on (most starts of small states stop sooner, and a step is kept less
    often right after another) tries ``retract(x + lam (x - x_prev))``, for
    its rows x_prev and x before and after the sweep, mapped back to valid
    rows; it moves there only if that raises its value by
    ``VALUE_TOLERANCE``, so no start's value falls.  lam starts at 1 and is
    kept per start: times 1.5 after a kept step, halved down to 1 after a
    rejected one (Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 30,
    1128 (2008)).  Sweep counts leave out these evaluations.  The best start
    is the lowest index among those whose values agree to 1e-12, carried
    along as starts stop; once it exceeds ``ceiling`` the starts still
    ascending are abandoned with the sweeps they ran and later chunks never
    run.  Returns each start's value and sweep count, and the run record.
    """
    starts = len(params)
    values = np.zeros(starts)
    sweeps = np.zeros(starts, dtype=int)
    unfinished = np.zeros(starts, dtype=bool)
    best = settled = 0
    for lo in range(0, starts, chunk):
        part, vals, counts = params[lo:lo + chunk], values[lo:lo + chunk], sweeps[lo:lo + chunk]
        vals[:] = evaluate(part)
        # The starts still ascending, compacted: their chunk indices, rows,
        # values and lam.  A start's results are written back once, when it stops.
        index, x, current, lam = np.arange(len(vals)), part, vals.copy(), np.ones(len(vals))
        for sweep_count in range(1, cfg.max_iterations + 1):
            previous = x
            x, value = sweep(x)
            done = value - current < VALUE_TOLERANCE
            current = value
            if sweep_count == cfg.max_iterations:
                unfinished[lo + index[~done]] = True
                done[:] = True
            if done.any():
                stops, going = index[done], ~done
                part[stops], vals[stops], counts[stops] = x[done], current[done], sweep_count
                index, current, lam = index[going], current[going], lam[going]
                x, previous = x[going], previous[going]
                # The starts before the first one still ascending have stopped;
                # the best is final only once one has.
                stopped = lo + (index[0] if index.size else len(vals))
                for k in range(settled, stopped):
                    if values[k] > values[best] + 1e-12:
                        best = k
                settled = stopped
                if index.size == 0 or (settled and values[best] > ceiling):
                    break
            if sweep_count >= 11 and sweep_count % 2:
                candidate = retract(x + lam.reshape(-1, *[1] * (x.ndim - 1)) * (x - previous))
                trial = evaluate(candidate)
                kept = trial - current >= VALUE_TOLERANCE
                x[kept] = candidate[kept]
                current = np.where(kept, trial, current)
                lam = np.where(kept, 1.5 * lam, np.maximum(lam / 2, 1.0))
        # Starts still ascending here were abandoned at the ceiling.
        part[index], vals[index], counts[index] = x, current, sweep_count
        unfinished[lo + index] = True
        if values[best] > ceiling:
            break
    abandoned = unfinished & (sweeps < cfg.max_iterations)  # a capped start ran all its sweeps
    return values, sweeps, OptimizerMetadata(
        starts=starts,
        iterations=int(sweeps[best]),
        best_start=best,
        identity_value=float(values[0]),
        total_sweeps=int(sweeps.sum()),
        capped_starts=int(np.sum(unfinished & ~abandoned)),
        starts_at_best=int(np.sum((sweeps > 0) & ~abandoned & (np.abs(values - values[best]) <= 1e-9))),
        converged=not unfinished[best],
    )
