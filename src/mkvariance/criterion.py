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
removed afterwards by a diagonal phase gate on qubit 1.  The search, the
phase fix and the verdict all read the end overlaps from one contraction,
``_overlaps``, of psi with the rows of U.

All starts ascend together as one batch, which holds each factor U_j as its
rows and updates them in place.  A sweep builds the Kronecker products of the
rows of the qubits still to be updated once, and carries the state contracted
with the rows already updated, so it costs O(S 2**n) for S starts.  The starts
run on ``ascent._ascend_batch`` in chunks of 2**18 // 2**n, and the search
ends early, with the same result, once the best of the stopped starts reaches
the objective's ceiling 1: no later start can beat it.

With canonical settings the MK operator is 2**((n-1)/2) (|0..0><1..1| +
h.c.), so its variance on U psi follows from the two end overlaps alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ascent import OptimizerConfig, OptimizerMetadata, _ascend_batch, _chunk
# Unused here, but perfbench/spans.py rebinds criterion.canonical_mk.
from .bell import canonical_mk  # noqa: F401
from .linalg import PureState

DECISION_TAU = 1e-6
UNITARY_TOL = 1e-10


def check_tau(tau: float) -> None:
    """Rejects a decision threshold that is not finite or not in [0, 1)."""
    if not (math.isfinite(tau) and 0.0 <= tau < 1.0):
        raise ValueError(f"tau must be finite and in [0, 1), got {tau!r}")


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


def _overlaps(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """<0..0|U psi> and <1..1|U psi> for each start of the batch, shape (S, 2)."""
    left = t.reshape(1, 1, -1)
    for r in rows.swapaxes(0, 1):
        left = (r[:, :, None, :] @ left.reshape(left.shape[0], left.shape[1], 2, -1))[:, :, 0, :]
    return left[:, :, 0]


def _objective(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|<0..0|U psi>|^2 + |<1..1|U psi>|^2 for each start of the batch."""
    return np.sum(np.abs(_overlaps(t, rows)) ** 2, axis=1)


def _phase_fixed(t: np.ndarray, rows: np.ndarray) -> tuple:
    """The factors ``rows`` of one start with a diagonal phase gate
    left-multiplied on qubit 1, so that both end overlaps become real and
    nonnegative; the moduli, and so the objective, are unchanged.  A zero
    overlap keeps its phase."""
    a, b = _overlaps(t, rows[None])[0]
    phase_a = -np.angle(a) if abs(a) > 0 else 0.0
    phase_b = -np.angle(b) if abs(b) > 0 else 0.0
    gate = np.diag([np.exp(1j * phase_a), np.exp(1j * phase_b)])
    return (gate @ rows[0],) + tuple(rows[1:])


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


def maximize_objective(psi: PureState, config: OptimizerConfig | None = None) -> ObjectiveResult:
    """Multi-start maximization of the overlap objective over local unitaries.

    The identity is always start 0, so the result never falls below the
    identity's converged value.  Remaining starts use seeded uniform random
    angles (theta in [0, pi], chi in [0, 2 pi)).  The starts run on
    ``ascent._ascend_batch`` with ``_retract`` for the extrapolation step
    and the ceiling 1 - 5e-13, since no objective exceeds 1 beyond
    roundoff; the metadata is the driver's ``OptimizerMetadata``.
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
    values, _, meta = _ascend_batch(
        lambda r: _objective(t, r), lambda r: _sweep(t, r), _retract, rows, cfg, _chunk(2**n), _CEILING)
    return ObjectiveResult(
        unitary=LocalUnitary(factors=_phase_fixed(t, rows[meta.best_start])),
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
    4 Re(conj(a) b)^2), which holds for any phases.  a and b of the
    phase-fixed U come from the search's own contraction ``_overlaps``, in
    one O(2**n) pass; no MK operator is built and U psi is never formed.
    It declares the state entangled when the variance falls short of its
    ceiling 2**(n-1) by more than ``tau * 2**(n-1)``.  The margin is
    reported either way so near-threshold states can be inspected by the
    caller.  ``tau`` must be finite and in [0, 1).
    """
    check_tau(tau)
    result = maximize_objective(psi, config)
    a, b = map(complex, _overlaps(psi.tensor(), np.array(result.unitary.factors)[None])[0])
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
