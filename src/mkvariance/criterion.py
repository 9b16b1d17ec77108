"""The variance criterion: a pure n-qubit state is a product state exactly
when some local unitary U with nonnegative overlaps <0..0|U|psi> and
<1..1|U|psi> brings the variance of the canonical MK operator on U|psi> up
to its ceiling 2**(n-1); entangled states stay strictly below it.

The search for U maximizes |<0..0|U psi>|^2 + |<1..1|U psi>|^2 over local
unitaries.  Each factor U_j enters only through the single-qubit state it
maps to |0> (two real angles per qubit), and for fixed other factors the
objective restricted to one qubit is A + B cos(theta) + C sin(theta) cos(chi
- chi0), which is maximized in closed form.  Multi-start block-coordinate
ascent over these exact updates, with an extrapolation step after sweeps 11,
13, 15, ... that is kept only where it raises the value, is therefore
monotone and deterministic given the seed.  Residual overlap phases are
removed afterwards by a diagonal phase gate on qubit 1.

All starts ascend together as one batch, which holds each factor U_j as its
rows and updates them in place.  A sweep builds the Kronecker products of the
rows of the qubits still to be updated once, and carries the state contracted
with the rows already updated, so it costs O(S 2**n) for S starts.
``_ascend_batch`` drives this search and the MK mean see-saw of
``bell.max_mk_mean`` alike: it runs the starts in chunks that bound the
working memory at large n, stops each start by its gain alone, keeps the
lowest-index best and builds the run record of either search.  Here a
chunk holds 2**18 // 2**n starts, and the search ends early, with the same
result, once the best of the stopped starts reaches the objective's
ceiling 1: no later start can beat it.

With canonical settings the MK operator is 2**((n-1)/2) (|0..0><1..1| +
h.c.), so its variance on U psi follows from the two end overlaps alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# Unused here, but perfbench/spans.py rebinds criterion.canonical_mk.
from .bell import canonical_mk  # noqa: F401
from .linalg import PureState, _is_integer, apply_single_qubit

DECISION_TAU = 1e-6
UNITARY_TOL = 1e-10
VALUE_TOLERANCE = 1e-12


def check_tau(tau: float) -> None:
    """Rejects a decision threshold that is not finite or not in [0, 1)."""
    if not (math.isfinite(tau) and 0.0 <= tau < 1.0):
        raise ValueError(f"tau must be finite and in [0, 1), got {tau!r}")


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
class LocalUnitary:
    """Tensor product U_1 (x) ... (x) U_n of single-qubit unitaries."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for j, u in enumerate(self.factors):
            u = np.array(u, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError(f"factor {j + 1} is not 2x2")
            if not (np.isfinite(u).all() and np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARY_TOL):
                raise ValueError(f"factor {j + 1} is not unitary")
            u.setflags(write=False)
            frozen.append(u)
        object.__setattr__(self, "factors", tuple(frozen))


@dataclass(frozen=True)
class OptimizerMetadata:
    """The search's run record; see ``maximize_objective``."""

    starts: int
    iterations: int
    best_start: int
    identity_value: float
    total_sweeps: int
    capped_starts: int
    starts_at_best: int
    converged: bool


@dataclass(frozen=True)
class ObjectiveResult:
    """Phase-fixed maximizer and value of the overlap objective."""

    unitary: LocalUnitary
    value: float
    metadata: OptimizerMetadata


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the entanglement decision for one state."""

    n: int
    objective_value: float
    alpha: float
    beta: float
    variance: float
    bound: float
    margin: float
    verdict: str
    tau: float
    optimizer_metadata: OptimizerMetadata

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["optimizer"] = data.pop("optimizer_metadata")
        return data


def variance(psi: PureState, op) -> float:
    """<psi|op^2|psi> - <psi|op|psi>^2 using a single operator application.

    For Hermitian op the first term is ||op psi||^2.  Clamped at zero
    against roundoff.
    """
    if op.n != psi.n:
        raise ValueError(f"operator acts on {op.n} qubits but the state has {psi.n}")
    image = op.apply(psi.amplitudes)
    mean = complex(np.vdot(psi.amplitudes, image))
    if abs(mean.imag) >= 1e-10:
        raise ValueError(f"mean has imaginary residual {mean.imag!r}; operator is not Hermitian")
    value = float(np.vdot(image, image).real - mean.real**2)
    return max(value, 0.0)


def _end_overlaps(psi: PureState, factors: tuple) -> tuple[complex, complex]:
    rotated = psi.amplitudes
    for j, u in enumerate(factors, start=1):
        rotated = apply_single_qubit(rotated, psi.n, j, u)
    return complex(rotated[0]), complex(rotated[-1])


def _phase_fixed(psi: PureState, factors: tuple) -> tuple:
    """The factors with a diagonal phase gate left-multiplied on qubit 1, so
    that both end overlaps become real and nonnegative; the moduli, and so the
    objective, are unchanged.  Zero overlaps are left alone, and ``factors``
    itself is returned if no phase moves."""
    a, b = _end_overlaps(psi, factors)
    phase_a = -np.angle(a) if abs(a) > 0 else 0.0
    phase_b = -np.angle(b) if abs(b) > 0 else 0.0
    if phase_a == 0.0 and phase_b == 0.0:
        return factors
    gate = np.diag([np.exp(1j * phase_a), np.exp(1j * phase_b)])
    return (gate @ factors[0],) + factors[1:]


# ---------------------------------------------------------------------------
# Block-coordinate ascent over the 2n angles, all starts at once.
#
# Qubit j is parameterized by the state xi_j = (cos(t/2), e^{i chi} sin(t/2))
# that its factor maps to |0>; the factor itself is
#     U_j = [[conj(xi_0), conj(xi_1)], [-xi_1, xi_0]],
# whose row 0 builds <0..0|U psi> and row 1 builds <1..1|U psi>.  A batch of
# S starts carries only these rows, shape (S, n, 2, 2) indexed [start, qubit,
# overlap, component]; a block update writes one qubit's rows in place.
# ---------------------------------------------------------------------------

# Starts are ascended in chunks of 2**18 // 2**n (at least one), which keeps
# a sweep's suffix and left-contracted arrays to a few MB at any n; the MK
# mean see-saw divides the same budget by its n cached kets.
_CHUNK_AMPLITUDES = 2**18

# No objective exceeds 1 by more than roundoff, so a tie-rule best above
# this value cannot be displaced by any later start.
_CEILING = 1.0 - 5e-13


def _rows(xis: np.ndarray) -> np.ndarray:
    """The factors U_j for xis of shape (..., 2), as arrays of shape (..., 2, 2)."""
    return np.stack([xis.conj(), np.stack([-xis[..., 1], xis[..., 0]], axis=-1)], axis=-2)


def _retract(rows: np.ndarray) -> np.ndarray:
    """Rows ``_rows(xi)`` scaled to unit xi: row 1 of x + lam (x - x_prev) is row 0's image too."""
    row = rows[..., :1, :]
    return rows / np.sqrt(np.add.reduce((row * row.conj()).real, axis=-1))[..., None]


def _objective(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2 for each start of the batch."""
    left = t.reshape(1, 1, -1)
    for r in rows.swapaxes(0, 1):
        left = (r[:, :, None, :] @ left.reshape(left.shape[0], left.shape[1], 2, -1))[:, :, 0, :]
    return np.sum(np.abs(left[:, :, 0]) ** 2, axis=1)


def _block_update(m: np.ndarray, old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact maximization over one qubit's two angles, all other qubits fixed.

    Contracting every other qubit leaves two 2-vectors per start, m0 = m[:, 0]
    and m1 = m[:, 1], with a = row0 . m0 and b = row1 . m1; the objective
    reduces to (P+Q)/2 + (P-Q)/2 cos(theta) + |G| sin(theta) at the optimal
    chi.  Writes the best factor into ``new`` (``old`` where the objective is
    flat); returns P, Q and the radius, so the value is (P+Q)/2 + radius.
    """
    squares = np.abs(m) ** 2
    p = squares[:, 0, 0] + squares[:, 1, 1]
    q = squares[:, 0, 1] + squares[:, 1, 0]
    g = m[:, 0, 1] * np.conj(m[:, 0, 0]) - np.conj(m[:, 1, 0]) * m[:, 1, 1]
    x, y = (p - q) / 2.0, np.abs(g)
    radius, half = np.hypot(x, y), np.arctan2(y, x) / 2
    new[:, 1, 1], new[:, 1, 0] = np.cos(half), np.exp(1j * np.arctan2(g.imag, g.real)) * np.sin(half)
    np.conjugate(new[:, 1, ::-1], out=new[:, 0])
    np.negative(new[:, 1, 0], out=new[:, 1, 0])
    if radius.min() < 1e-300:
        flat = radius < 1e-300
        new[flat] = old[flat]
        radius[flat] = 0.0
    return p, q, radius


def _sweep(t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass of block updates over qubits 1..n for every start of the batch.

    The Kronecker products of the old rows of qubits k > j are built once;
    the rows of qubits k < j enter through the running left-contracted
    tensor, so the pass costs O(S 2**n).  Returns the new rows and each
    start's objective after its last update.
    """
    s, n = rows.shape[:2]
    suffix = [rows[:, n - 1]]
    for j in range(n - 2, 0, -1):
        suffix.append((rows[:, j, :, :, None] * suffix[-1][:, :, None, :]).reshape(s, 2, -1))
    suffix.reverse()
    out = np.empty_like(rows)
    left = t.reshape(1, 1, -1)
    for j in range(n):
        block = left.reshape(left.shape[0], left.shape[1], 2, -1)
        m = (block @ suffix[j][..., None])[..., 0] if j < n - 1 else block[..., 0]
        p, q, radius = _block_update(m, rows[:, j], out[:, j])
        if j < n - 1:
            left = (out[:, j, :, None, :] @ block)[:, :, 0, :]
    return out, (p + q) / 2.0 + radius


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
    run.  Returns each start's value and sweep count, and the run record
    (see ``maximize_objective``).
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


def maximize_objective(psi: PureState, config: OptimizerConfig | None = None) -> ObjectiveResult:
    """Multi-start maximization of the overlap objective over local unitaries.

    The identity is always start 0, so the result never falls below the
    identity's converged value.  Remaining starts use seeded uniform random
    angles (theta in [0, pi], chi in [0, 2 pi)).  The starts run on
    ``_ascend_batch`` in chunks of 2**18 // 2**n with the ceiling 1 - 5e-13,
    since no objective exceeds 1 beyond roundoff, and with ``_retract`` for
    the extrapolation step.  The metadata is the driver's run record, built
    there alike for the see-saw of ``bell.max_mk_mean``.  ``total_sweeps``
    adds up the sweeps of all starts, abandoned ones included, not the
    step's objective evaluations; ``capped_starts`` counts the starts that
    used all ``max_iterations`` sweeps without meeting the tolerance.
    ``starts_at_best`` counts the stopped starts within 1e-9 of the best
    value, not those abandoned at the ceiling or in chunks that never ran;
    ``converged`` says that the best start met the tolerance before the cap.
    """
    cfg = config if config is not None else OptimizerConfig()
    n = psi.n
    if n < 2:
        raise ValueError("objective maximization requires n >= 2")
    starts = cfg.resolved_starts(n)
    rng = np.random.default_rng(cfg.seed)
    # Start 0 has all angles 0: the identity.  One draw equals per-start
    # uniform(0, pi, n) and uniform(0, 2 pi, n) calls bit for bit.
    drawn = rng.random((starts - 1, 2, n)) * np.array([[math.pi], [2 * math.pi]])
    angles = np.concatenate([np.zeros((1, 2, n)), drawn])
    thetas, chis = angles[:, 0], angles[:, 1]
    rows = _rows(np.stack([np.cos(thetas / 2), np.exp(1j * chis) * np.sin(thetas / 2)], axis=-1))
    t = psi.tensor()
    chunk = max(1, _CHUNK_AMPLITUDES >> n)
    values, _, meta = _ascend_batch(
        lambda r: _objective(t, r), lambda r: _sweep(t, r), _retract, rows, cfg, chunk, _CEILING)
    return ObjectiveResult(
        unitary=LocalUnitary(factors=_phase_fixed(psi, tuple(rows[meta.best_start]))),
        value=float(values[meta.best_start]),
        metadata=meta,
    )


def decide(
    psi: PureState,
    config: OptimizerConfig | None = None,
    tau: float = DECISION_TAU,
) -> DecisionReport:
    """Entanglement verdict for a pure state.

    Runs the objective maximization and evaluates the variance of the
    canonical MK operator on the rotated state from its end overlaps
    a = <0..0|U psi> and b = <1..1|U psi>, as 2**(n-1) (|a|^2 + |b|^2 -
    4 Re(conj(a) b)^2), which holds for any phases; no MK operator is
    built.  It declares the state entangled when the variance falls short
    of its ceiling 2**(n-1) by more than ``tau * 2**(n-1)``.  The margin is
    reported either way so near-threshold states can be inspected by the
    caller.  ``tau`` must be finite and in [0, 1).
    """
    check_tau(tau)
    result = maximize_objective(psi, config)
    a, b = _end_overlaps(psi, result.unitary.factors)
    bound = float(2 ** (psi.n - 1))
    delta = max(bound * (abs(a) ** 2 + abs(b) ** 2 - 4 * (a.conjugate() * b).real ** 2), 0.0)
    margin = bound - delta
    verdict = "entangled" if margin > tau * bound else "product"
    return DecisionReport(
        n=psi.n,
        objective_value=result.value,
        alpha=a.real,
        beta=b.real,
        variance=delta,
        bound=bound,
        margin=margin,
        verdict=verdict,
        tau=tau,
        optimizer_metadata=result.metadata,
    )
