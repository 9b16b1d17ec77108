"""The variance criterion: a pure n-qubit state is a product state exactly
when some local unitary U with nonnegative overlaps <0..0|U|psi> and
<1..1|U|psi> brings the variance of the canonical MK operator on U|psi> up
to its ceiling 2**(n-1); entangled states stay strictly below it.

The search for U maximizes |<0..0|U psi>|^2 + |<1..1|U psi>|^2 over local
unitaries.  Each factor U_j enters only through the single-qubit state it
maps to |0> (two real angles per qubit), and for fixed other factors the
objective restricted to one qubit is A + B cos(theta) + C sin(theta) cos(chi
- chi0), which is maximized in closed form.  Multi-start block-coordinate
ascent over these exact updates is therefore monotone per iteration and
deterministic given the seed.  Residual overlap phases are removed
afterwards by a diagonal phase gate on qubit 1.

All starts ascend together as one batch.  A sweep builds the Kronecker
products of the rows of the qubits still to be updated once, and carries
the state contracted with the rows already updated, so it costs O(S 2**n)
for S starts.  A start leaves the batch as soon as its own stopping rule
fires.  Starts run in chunks of 2**18 // 2**n, which bounds the working
memory at large n.  The search ends early, with the same result, once the
tie-rule best of the starts that have stopped reaches the objective's
ceiling 1: no later start can beat it.

With canonical settings the MK operator is 2**((n-1)/2) (|0..0><1..1| +
h.c.), so its variance on U psi follows from the two end overlaps alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bell import canonical_mk
from .linalg import DENSE_QUBIT_CAP, PureState, _is_integer, apply_single_qubit, kron

DECISION_TAU = 1e-6
UNITARY_TOL = 1e-10


def check_tau(tau: float) -> None:
    """Rejects a decision threshold that is not finite or not in [0, 1)."""
    if not (math.isfinite(tau) and 0.0 <= tau < 1.0):
        raise ValueError(f"tau must be finite and in [0, 1), got {tau!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start searches; defaults match the shipped tests.

    ``starts=None`` resolves to max(32, 8n) at run time.
    """

    seed: int = 0
    starts: int | None = None
    max_iterations: int = 300
    step_tolerance: float = 1e-10
    value_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.starts is not None and not (_is_integer(self.starts) and self.starts >= 1):
            raise ValueError(f"starts must be an integer >= 1, got {self.starts!r}")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        for tol in (self.step_tolerance, self.value_tolerance):
            if not (tol > 0) or not math.isfinite(tol):
                raise ValueError(f"tolerances must be positive and finite, got {tol!r}")

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

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, n: int) -> "LocalUnitary":
        return cls(factors=tuple(np.eye(2, dtype=complex) for _ in range(n)))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.asarray(vec, dtype=complex)
        for j, u in enumerate(self.factors, start=1):
            out = apply_single_qubit(out, self.n, j, u)
        return out

    def matrix(self) -> np.ndarray:
        """Explicit 2^n x 2^n matrix; n <= DENSE_QUBIT_CAP."""
        if self.n > DENSE_QUBIT_CAP:
            raise ValueError(f"dense form is capped at {DENSE_QUBIT_CAP} qubits")
        out = np.eye(1, dtype=complex)
        for u in self.factors:
            out = kron(out, u)
        return out


@dataclass(frozen=True)
class OptimizerMetadata:
    """The search's run record; see ``maximize_objective``."""

    starts: int
    iterations: int
    best_start: int
    identity_value: float
    total_sweeps: int
    capped_starts: int


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


def conjugated_variance(psi: PureState, unitary: LocalUnitary) -> float:
    """Variance of the conjugated canonical operator, evaluated covariantly.

    Delta(psi, U^dag B U) equals Delta(U psi, B), so B is never conjugated
    explicitly.
    """
    if unitary.n != psi.n:
        raise ValueError(f"unitary acts on {unitary.n} qubits but the state has {psi.n}")
    rotated = PureState(unitary.apply(psi.amplitudes))
    return variance(rotated, canonical_mk(psi.n).bell)


def _end_overlaps(psi: PureState, unitary: LocalUnitary) -> tuple[complex, complex]:
    rotated = unitary.apply(psi.amplitudes)
    return complex(rotated[0]), complex(rotated[-1])


def objective(psi: PureState, unitary: LocalUnitary) -> float:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2, the modulus form of the quadratic
    objective; equals the constrained form once the overlaps are phase-fixed."""
    a, b = _end_overlaps(psi, unitary)
    return abs(a) ** 2 + abs(b) ** 2


def phase_fix(psi: PureState, unitary: LocalUnitary) -> LocalUnitary:
    """Left-multiply by a diagonal phase gate on qubit 1 so both end overlaps
    become real and nonnegative; moduli (and the objective) are unchanged.
    Zero overlaps are left alone."""
    a, b = _end_overlaps(psi, unitary)
    phase_a = -np.angle(a) if abs(a) > 0 else 0.0
    phase_b = -np.angle(b) if abs(b) > 0 else 0.0
    if phase_a == 0.0 and phase_b == 0.0:
        return unitary
    gate = np.diag([np.exp(1j * phase_a), np.exp(1j * phase_b)])
    factors = (gate @ unitary.factors[0],) + unitary.factors[1:]
    return LocalUnitary(factors=factors)


def localize_product(factors) -> LocalUnitary:
    """Local unitary sending a known product state to |0...0>.

    Each U_j has the conjugated factor state as its first row, completed to
    a unitary by the canonical orthogonal complement.
    """
    mats = []
    for j, f in enumerate(factors):
        f = np.asarray(f, dtype=complex).reshape(-1)
        if f.shape != (2,):
            raise ValueError(f"factor {j + 1} is not a single-qubit state")
        norm = float(np.linalg.norm(f))
        if not abs(norm - 1.0) < 1e-6:
            raise ValueError(f"factor {j + 1} has norm {norm!r}")
        f = f / norm
        mats.append(np.array([[f[0].conj(), f[1].conj()], [-f[1], f[0]]]))
    return LocalUnitary(factors=tuple(mats))


# ---------------------------------------------------------------------------
# Block-coordinate ascent over the 2n angles, all starts at once.
#
# Qubit j is parameterized by the state xi_j = (cos(t/2), e^{i chi} sin(t/2))
# that its factor maps to |0>; the factor itself is
#     U_j = [[conj(xi_0), conj(xi_1)], [-xi_1, xi_0]],
# whose row 0 builds <0..0|U psi> and row 1 builds <1..1|U psi>.  A batch of
# S starts carries xis of shape (S, n, 2) and rows of shape (S, n, 2, 2),
# indexed [start, qubit, overlap, component].
# ---------------------------------------------------------------------------

# Starts are ascended in chunks of 2**18 // 2**n (at least one), which keeps
# a sweep's suffix and left-contracted arrays to a few MB at any n.
_CHUNK_AMPLITUDES = 2**18

# No objective exceeds 1 by more than roundoff, so a tie-rule best above
# this value cannot be displaced by any later start.
_CEILING = 1.0 - 5e-13


def _xis_from_angles(thetas: np.ndarray, chis: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(thetas / 2), np.exp(1j * chis) * np.sin(thetas / 2)], axis=-1)


def _rows(xis: np.ndarray) -> np.ndarray:
    """The factors U_j for xis of shape (..., 2), as arrays of shape (..., 2, 2)."""
    return np.stack([xis.conj(), np.stack([-xis[..., 1], xis[..., 0]], axis=-1)], axis=-2)


def _objective(t: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2 for each start of the batch."""
    left = t.reshape(1, 1, -1)
    for rows in np.moveaxis(_rows(xis), 1, 0):
        left = (rows[:, :, None, :] @ left.reshape(left.shape[0], left.shape[1], 2, -1))[:, :, 0, :]
    return np.sum(np.abs(left[:, :, 0]) ** 2, axis=1)


def _block_update(m: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact maximization over one qubit's two angles, all other qubits fixed.

    Contracting every other qubit leaves two 2-vectors per start, m0 = m[:, 0]
    and m1 = m[:, 1], with a = row0 . m0 and b = row1 . m1; the objective
    reduces to (P+Q)/2 + (P-Q)/2 cos(theta) + |G| sin(theta) at the optimal
    chi.  Returns the new xis, objective values and parameter step sizes.
    """
    m0, m1 = m[:, 0], m[:, 1]
    p = np.abs(m0[:, 0]) ** 2 + np.abs(m1[:, 1]) ** 2
    q = np.abs(m0[:, 1]) ** 2 + np.abs(m1[:, 0]) ** 2
    g = m0[:, 1] * np.conj(m0[:, 0]) - np.conj(m1[:, 0]) * m1[:, 1]
    radius = np.hypot((p - q) / 2.0, np.abs(g))
    xi_new = _xis_from_angles(np.arctan2(np.abs(g), (p - q) / 2.0), np.angle(g))
    flat = radius < 1e-300
    xi_new[flat] = xi[flat]
    radius[flat] = 0.0
    return xi_new, (p + q) / 2.0 + radius, np.linalg.norm(xi_new - xi, axis=-1)


def _sweep(t: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass of block updates over qubits 1..n for every start of the batch.

    The Kronecker products of the old rows of qubits k > j are built once;
    the rows of qubits k < j enter through the running left-contracted
    tensor, so the pass costs O(S 2**n).  Returns the new xis, each start's
    objective after its last update, and each start's largest step.
    """
    s, n, _ = xis.shape
    rows = _rows(xis)
    suffix = [np.ones((s, 2, 1), dtype=complex)]
    for j in range(n - 1, 0, -1):
        suffix.append((rows[:, j, :, :, None] * suffix[-1][:, :, None, :]).reshape(s, 2, -1))
    suffix.reverse()
    out = np.empty_like(xis)
    largest_step = np.zeros(s)
    left = t.reshape(1, 1, -1)
    for j in range(n):
        block = left.reshape(left.shape[0], left.shape[1], 2, -1)
        m = (block @ suffix[j][..., None])[..., 0]
        out[:, j], value, step = _block_update(m, xis[:, j])
        largest_step = np.maximum(largest_step, step)
        left = (_rows(out[:, j])[:, :, None, :] @ block)[:, :, 0, :]
    return out, value, largest_step


def _ascend_batch(
    sweep, params: tuple, values: np.ndarray, cfg: OptimizerConfig, at_ceiling=None
) -> tuple[np.ndarray, int]:
    """Sweeps each start of a batch until its own stopping rule fires.

    ``params`` hold one row per start and ``values`` their current values;
    ``sweep(*rows)`` returns the new rows, values and largest steps of the
    starts it is given.  A start stops once a sweep raises its value by less
    than ``value_tolerance``, moves no parameter by ``step_tolerance``, or is
    its ``max_iterations``-th; stopped starts leave the batch.  Updates
    ``params`` and ``values`` in place and returns the sweep counts and the
    number of starts that stopped only at the cap.  The MK mean see-saw of
    ``bell.max_mk_mean`` runs on it too.

    ``at_ceiling``, if given, is asked after every sweep that leaves starts
    below the cap still ascending, with the index of the first of them; if
    it answers True those starts are abandoned with the sweeps they ran, and
    they do not count as capped.
    """
    sweeps = np.zeros(len(values), dtype=int)
    active = np.arange(len(values))
    for sweep_count in range(1, cfg.max_iterations + 1):
        *new, value, largest_step = sweep(*(p[active] for p in params))
        done = (value - values[active] < cfg.value_tolerance) | (largest_step < cfg.step_tolerance)
        for p, rows in zip(params, new):
            p[active] = rows
        values[active] = value
        sweeps[active] += 1
        active = active[~done]
        if active.size == 0 or (
            at_ceiling is not None and sweep_count < cfg.max_iterations and at_ceiling(active[0])
        ):
            return sweeps, 0
    return sweeps, active.size


def _best_start(values: np.ndarray, best: int = 0, start: int = 0) -> int:
    """The lowest start index among the starts whose values agree to 1e-12.

    ``best`` is the choice over the starts before ``start``, so a caller can
    carry the choice along as more starts stop.
    """
    for k in range(start, len(values)):
        if values[k] > values[best] + 1e-12:
            best = k
    return best


def maximize_objective(psi: PureState, config: OptimizerConfig | None = None) -> ObjectiveResult:
    """Multi-start maximization of the overlap objective over local unitaries.

    The identity is always start 0, so the result never falls below the
    identity's converged value.  Remaining starts use seeded uniform random
    angles (theta in [0, pi], chi in [0, 2 pi)).  All starts ascend together
    in chunks of 2**18 // 2**n.  Among starts whose values agree to 1e-12
    the lowest start index wins, which makes the result independent of
    evaluation order.  Once that choice over the starts that have stopped
    exceeds 1 - 5e-13, the starts still ascending are abandoned and later
    chunks never run, since no objective exceeds 1 beyond roundoff.
    ``total_sweeps`` adds up the sweeps of all starts, abandoned ones
    included; ``capped_starts`` counts the starts that used all
    ``max_iterations`` sweeps without meeting either tolerance.
    """
    cfg = config if config is not None else OptimizerConfig()
    n = psi.n
    if n < 2:
        raise ValueError("objective maximization requires n >= 2")
    starts = cfg.resolved_starts(n)
    rng = np.random.default_rng(cfg.seed)
    angles = np.zeros((starts, 2, n))  # start 0 has all angles 0: the identity
    for k in range(1, starts):
        angles[k, 0] = rng.uniform(0.0, math.pi, size=n)
        angles[k, 1] = rng.uniform(0.0, 2 * math.pi, size=n)
    xis = _xis_from_angles(angles[:, 0], angles[:, 1])
    values = np.zeros(starts)
    sweeps = np.zeros(starts, dtype=int)
    t = psi.tensor()
    chunk = max(1, _CHUNK_AMPLITUDES >> n)
    capped = best = settled = 0
    hit = False

    def at_ceiling(stopped: int) -> bool:
        # Carries the tie-rule best over the first `stopped` starts, all of
        # which have stopped; once that best is at the ceiling it is final.
        nonlocal best, settled, hit
        if not hit and stopped > settled:
            best, settled = _best_start(values[:stopped], best, settled), stopped
            hit = values[best] > _CEILING
        return hit

    for lo in range(0, starts, chunk):
        if at_ceiling(lo):
            break
        part = slice(lo, lo + chunk)
        values[part] = _objective(t, xis[part])
        sweeps[part], stuck = _ascend_batch(lambda rows: _sweep(t, rows), (xis[part],),
                                            values[part], cfg, lambda f: at_ceiling(lo + f))
        capped += stuck
    at_ceiling(starts)

    unitary = phase_fix(psi, LocalUnitary(factors=tuple(_rows(xis[best]))))
    return ObjectiveResult(
        unitary=unitary,
        value=float(values[best]),
        metadata=OptimizerMetadata(
            starts=starts,
            iterations=int(sweeps[best]),
            best_start=best,
            identity_value=float(values[0]),
            total_sweeps=int(sweeps.sum()),
            capped_starts=capped,
        ),
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
    of its ceiling 2**(n-1) by more than ``tau * 2**(n-1)``.  The margin is reported either way so near-threshold
    states can be inspected by the caller.  ``tau`` must be finite and in
    [0, 1).
    """
    check_tau(tau)
    result = maximize_objective(psi, config)
    a, b = _end_overlaps(psi, result.unitary)
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
