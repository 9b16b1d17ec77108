"""The variance criterion: a pure n-qubit state is a product state exactly
when some local unitary U with nonnegative overlaps <0..0|U|psi> and
<1..1|U|psi> brings the variance of the canonical MK operator on U|psi> up
to its ceiling 2**(n-1); entangled states stay strictly below it.

``decide`` first tries a certificate built from the single-qubit reductions
rho_j: the overlap bound G = min_j lambda_max(rho_j) caps the variance at
2**(n-1) G, and the witness U, which maps each rho_j's top eigenvector to
|0>, reaches the ceiling on product states.  Only a state that neither
settles, one in the tau shell, is searched, and there by one ascent from the
witness: no random start, seed or start count acts on a verdict.

The search for U maximizes |<0..0|U psi>|^2 + |<1..1|U psi>|^2 over local
unitaries.  Each factor U_j enters only through the single-qubit state it
maps to |0> (two real angles per qubit), and for fixed other factors the
objective restricted to one qubit is A + B cos(theta) + C sin(theta) cos(chi
- chi0), which is maximized in closed form.  Block-coordinate ascent over
these exact updates, with an extrapolation step after sweeps 11, 13, 15, ...
that is kept only where it raises the value, is therefore monotone and
deterministic given its starts.  Residual overlap phases are removed
afterwards from the rows of qubit 1.  The phase fix reads the end overlaps
from one contraction, ``_overlaps``, of psi with the rows of U, and the
verdict reads its values from that same call.  The report carries that U as
its factors U_1, ..., U_n, one read-only (n, 2, 2) array; each factor is the
U_j of a unit xi, so it is unitary by construction.  A NaN amplitude gets no
verdict: ``PureState`` refuses it, and should one reach a search all the
same, ``_ascend_batch`` raises on the starting values, before any sweep.

``maximize_objective`` solves the overlap problem in full, from many starts
that ascend together as one batch.  It is not on ``decide``'s path, and the
package does not export it: the tests import it from this module as the
multi-start reference they hold ``decide`` against.  The batch holds each
factor U_j as its rows and updates them in place.  A sweep builds the
Kronecker products of the rows of the qubits still to be updated once, and
carries the state contracted with the rows already updated, so it costs
O(S 2**n) for S starts.  The starts run on ``ascent._ascend_batch`` in
chunks of 2**18 // 2**n, and every start runs until it stops, so the run
record counts all of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .ascent import OptimizerConfig, OptimizerMetadata, _ascend_batch, _chunk
# Unused here, but perfbench/spans.py rebinds criterion.canonical_mk.
from .bell import canonical_mk  # noqa: F401
from .linalg import PureState, qubit_count, reduced_density

DECISION_TAU = 1e-6


@dataclass(frozen=True)
class ObjectiveResult:
    """Phase-fixed maximizer and value of the overlap objective.

    ``factors`` is a read-only complex array of shape (n, 2, 2) whose entry j
    is the factor U_{j+1} of the local unitary U = U_1 (x) ... (x) U_n.
    """

    factors: np.ndarray
    value: float
    metadata: OptimizerMetadata


@dataclass(frozen=True)
class Certificate:
    """What the single-qubit reductions settle: G = ``overlap_bound``, the
    ``variance_bound`` 2**(n-1) G, the margin at the witness U, and the
    verdict settled ("entangled" by the bound, "product" by the witness), or
    None when the search decided."""

    overlap_bound: float
    variance_bound: float
    witness_margin: float
    settles: str | None


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the entanglement decision for one state.

    ``factors`` is the U = U_1 (x) ... (x) U_n these values were read at, a
    read-only complex (n, 2, 2) array whose entry j is U_{j+1}, phase-fixed so
    that <0..0|U psi> = ``alpha`` and <1..1|U psi> = ``beta``.  When
    ``certificate.settles`` is set, no search ran: U is the witness, and
    ``alpha``, ``beta``, ``variance``, ``margin`` and ``objective_value`` are
    its values, with ``optimizer_metadata`` a record of zero starts.  The
    witness of a settled "entangled" report is not a maximizer; the bound,
    not U, settles it.  Else U is where the ascent from the witness ends, and
    ``optimizer_metadata`` is that one start's record.  On a "product"
    verdict, U brings the variance within ``tau * bound`` of ``bound``.
    """

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
    certificate: Certificate
    factors: np.ndarray


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
# Qubit j is parameterized by the state xi_j = (cos h, e^{i phi} sin h) that
# its factor maps to |0>; the factor itself is
#     U_j = [[conj(xi_0), conj(xi_1)], [-xi_1, xi_0]],
# whose row 0 builds <0..0|U psi> and row 1 builds <1..1|U psi>.  One
# builder, ``_rows``, writes every factor in this module: the random starts,
# the witness and each block update, the last two through ``_top``.  A batch
# of S starts carries only these rows, shape (S, n, 2, 2) indexed [start,
# qubit, overlap, component]; a block update writes one qubit's rows in place.
# ---------------------------------------------------------------------------

def _rows(half: np.ndarray, phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes the factors U_j of xi = (cos(half), e^{i phase} sin(half)) into
    ``out``, shape half.shape + (2, 2), and returns it."""
    out[..., 1, 1], out[..., 1, 0] = np.cos(half), np.exp(1j * phase) * np.sin(half)
    np.conjugate(out[..., 1, ::-1], out=out[..., 0, :])
    np.negative(out[..., 1, 0], out=out[..., 1, 0])
    return out


def _top(x: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The factors that map the top eigenvector of [[c + x, conj(g)], [g, c -
    x]] to |0>, written into ``out`` by ``_rows``, and the radius hypot(x,
    |g|) by which its top eigenvalue exceeds c.  The eigenvector is (cos h,
    e^{i arg g} sin h) with h = atan2(|g|, x)/2."""
    y = np.abs(g)
    _rows(np.arctan2(y, x) / 2, np.arctan2(g.imag, g.real), out)
    return np.hypot(x, y)


def _retract(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit xi: row 1 of x + lam (x - x_prev) is row 0's image
    too, so the result is the factor U_j of the normalized xi = conj(row 0)."""
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


def _phase_fixed(t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The factors ``rows`` of one start, shape (n, 2, 2), as a new read-only
    array whose qubit-1 rows 0 and 1 are multiplied by conj(a)/|a| and
    conj(b)/|b|, so that both end overlaps a and b become real and
    nonnegative, and those overlaps: the moduli alpha = |a| and beta = |b|
    of the one ``_overlaps`` call, which the phases leave unchanged.  A zero
    overlap keeps its phase."""
    overlaps = _overlaps(t, rows[None])[0]
    moduli = np.abs(overlaps)
    fixed = rows.copy()
    fixed[0] *= np.divide(overlaps.conj(), moduli, out=np.ones(2, complex), where=moduli > 0)[:, None]
    fixed.setflags(write=False)
    return fixed, float(moduli[0]), float(moduli[1])


def _block_update(m: np.ndarray, old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact maximization over one qubit's two angles, all other qubits fixed.

    Contracting every other qubit leaves two 2-vectors per start, m0 = m[:, 0]
    and m1 = m[:, 1], with a = row0 . m0 and b = row1 . m1; the objective
    reduces to (P+Q)/2 + (P-Q)/2 cos(theta) + |G| sin(theta) at the optimal
    chi, the top eigenvalue of [[P, conj(G)], [G, Q]].  ``_top`` writes the
    factor of its eigenvector into ``new`` (``old`` where the objective is
    flat); returns P, Q and the radius, so the value is (P+Q)/2 + radius.
    """
    squares = np.abs(m) ** 2
    p = squares[:, 0, 0] + squares[:, 1, 1]
    q = squares[:, 0, 1] + squares[:, 1, 0]
    g = m[:, 0, 1] * np.conj(m[:, 0, 0]) - np.conj(m[:, 1, 0]) * m[:, 1, 1]
    radius = _top((p - q) / 2.0, g, new)
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
    identity's converged value.  Remaining starts use uniform random angles
    (theta in [0, pi), chi in [0, 2 pi)) scaled from
    ``random.Random(seed).random()``, n thetas then n chis per start; Python
    keeps that stream the same in every version, so a seed gives the same
    starts whatever numpy is installed.  The starts run on
    ``ascent._ascend_batch`` with ``_retract`` for the extrapolation step;
    the metadata is the driver's ``OptimizerMetadata``.  NaN amplitudes
    raise ``ValueError`` there, before any sweep.
    """
    cfg = config if config is not None else OptimizerConfig()
    n = qubit_count(psi.n, 2)
    starts = cfg.resolved_starts(n)
    # Start 0 has all angles 0: the identity.  int(), because random.Random
    # refuses the numpy integer seeds that OptimizerConfig accepts.
    draw = random.Random(int(cfg.seed)).random
    drawn = np.array([draw() for _ in range((starts - 1) * 2 * n)]).reshape(starts - 1, 2, n)
    drawn *= np.array([[math.pi], [2 * math.pi]])
    angles = np.concatenate([np.zeros((1, 2, n)), drawn])
    rows = _rows(angles[:, 0] / 2, angles[:, 1], np.empty((starts, n, 2, 2), complex))
    t = psi.amplitudes
    values, _, meta = _ascend_batch(
        lambda r: _objective(t, r), lambda r: _sweep(t, r), _retract, rows, cfg, _chunk(2**n))
    return ObjectiveResult(
        factors=_phase_fixed(t, rows[meta.best_start])[0], value=float(values[meta.best_start]), metadata=meta)


# The run record of a report that the certificate settles: no start ran.
_NO_SEARCH = OptimizerMetadata(starts=0, iterations=0, best_start=0, identity_value=0.0,
                               total_sweeps=0, capped_starts=0, starts_at_best=0, converged=False)


def _witness(psi: PureState) -> tuple[np.ndarray, float, float, float]:
    """The phase-fixed witness factors, alpha and beta at the witness, and
    the overlap bound G.

    ``_top`` with x = (rho_00 - rho_11)/2 and g = rho_10, the step that
    ``_block_update`` takes, writes the factor U_j that maps the top
    eigenvector of rho_j to |0>, and lambda_max(rho_j) = 1/2 + its radius.
    Closed forms, so no eigensolver is loaded.
    """
    rho = np.array([reduced_density(psi, j) for j in range(1, psi.n + 1)])
    factors = np.empty_like(rho)
    radius = _top((rho[:, 0, 0].real - rho[:, 1, 1].real) / 2, rho[:, 1, 0], factors)
    return *_phase_fixed(psi.amplitudes, factors), 0.5 + float(radius.min())


def _end_values(alpha: float, beta: float, bound: float) -> tuple[float, float]:
    """The objective p + q and the variance ``bound`` (p + q - 4pq), for p = alpha^2 and q = beta^2."""
    p, q = alpha**2, beta**2
    return p + q, max(bound * (p + q - 4 * p * q), 0.0)


def decide(
    psi: PureState,
    config: OptimizerConfig | None = None,
    tau: float = DECISION_TAU,
) -> DecisionReport:
    """Entanglement verdict for a pure state, certificate first.

    With canonical settings the MK operator is 2**((n-1)/2) (|0..0><1..1| +
    h.c.), so for a U with end overlaps a = <0..0|U psi>, b = <1..1|U psi> >= 0
    the variance on U psi is 2**(n-1) (p + q - 4pq), p = a^2, q = b^2, read
    from ``_overlaps`` with no MK operator built.  The state is entangled
    when the variance falls short of its ceiling 2**(n-1) by more than
    ``tau * 2**(n-1)``.  Every local U has p, q <= G = min_j
    lambda_max(rho_j) (Wei & Goldbart, Phys. Rev. A 68, 042307 (2003)) and
    p + q <= 1; there p + q - 4pq peaks at (G, 0), as G >= 1/2 for qubits
    and (1 - 2G)^2 <= G.  So no variance exceeds 2**(n-1) G, and 1 - G > tau
    settles "entangled".  Else a witness margin within ``tau * 2**(n-1)``
    settles "product" with an explicit U, the report's ``factors``.  The
    margin is reported either way.

    A state in the tau shell, which neither settles, is searched by one block
    ascent from the witness, not by ``maximize_objective``.  That ascent ends
    at the global maximum of p + q:

    1. For U = (x) U_j, e0 = U^dag|0..0> and e1 = U^dag|1..1> are product
       states orthogonal on every qubit, and p + q = |<e0|psi>|^2 +
       |<e1|psi>|^2.
    2. In the shell every lambda_j = lambda_max(rho_j) >= G >= 1 - tau.  The
       product chi of the top eigenvectors has |<chi|psi>|^2 = w >= 1 -
       sum_j (1 - lambda_j) >= 1 - n tau, since the product of the
       eigenprojectors is >= 1 - sum_j (1 - P_j).  The witness has e0 = chi
       up to a phase, so its p + q >= w.
    3. For any U, p + q <= (sqrt(w m) + sqrt(1 - w))^2 with m = |<e0|chi>|^2
       + |<e1|chi>|^2 = prod_j c_j^2 + prod_j s_j^2, c_j^2 + s_j^2 = 1.  And
       1 - m >= c_k^2 s_l^2 + s_k^2 c_l^2 for every k != l.  So a U with p +
       q >= w has 1 - m <= eps = 2 sqrt((1 - w) / w), and then either every
       s_l^2 <= 2 eps (U near the witness) or every c_l^2 <= 2 eps (near its
       all-qubit flip).  At n = 16 and tau = 1e-6, 2 eps < 0.017.
    4. The ascent never lowers p + q, so it stays in these two regions.  The
       flip swaps e0 and e1, so both regions hold the same values, and the
       global maximum is the maximum of either region; the variance, which is
       symmetric in p and q, is the same at both.

    Steps 1-3 are proved.  Step 4's last link, that the ascent stops at the
    maximum of its region and not at another stationary point inside it,
    rests on measurement: on 160 shell states at n = 3-12 every start of
    ``maximize_objective`` ended in the witness's basin, the ascent from the
    witness matched its value to 7.8e-16 after one sweep, and 200 more
    sweeps moved the variance by at most 2.9e-12 of the bound.

    Of ``config`` only ``max_iterations`` acts here, as the ascent's sweep
    cap; the run record is one start's, whose start 0 is the witness.
    ``tau`` must be finite and in [0, 1).
    """
    if not (math.isfinite(tau) and 0.0 <= tau < 1.0):
        raise ValueError(f"tau must be finite and in [0, 1), got {tau!r}")
    n = qubit_count(psi.n, 2)
    t, bound = psi.amplitudes, float(2 ** (n - 1))
    factors, a, b, overlap_bound = _witness(psi)
    value, delta = _end_values(a, b, bound)
    settles = "entangled" if 1.0 - overlap_bound > tau else "product" if bound - delta <= tau * bound else None
    certificate = Certificate(overlap_bound, bound * overlap_bound, bound - delta, settles)
    meta = _NO_SEARCH
    if settles is None:
        rows = factors[None].copy()
        _, _, meta = _ascend_batch(lambda r: _objective(t, r), lambda r: _sweep(t, r), _retract, rows,
                                   config or OptimizerConfig(), 1)
        factors, a, b = _phase_fixed(t, rows[0])
        value, delta = _end_values(a, b, bound)
    margin = bound - delta
    return DecisionReport(n=n, objective_value=value, alpha=a, beta=b, variance=delta, bound=bound, margin=margin,
                          verdict=settles or ("entangled" if margin > tau * bound else "product"), tau=tau,
                          optimizer_metadata=meta, certificate=certificate, factors=factors)
