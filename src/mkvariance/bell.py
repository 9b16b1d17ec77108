"""Mermin-Klyshko Bell operators, canonical settings, and GHZ-family states.

The MK operator B of n qubits is defined recursively, together with its
partner B', from two measurement directions per qubit:

    B_1 = a_1 . sigma,    B'_1 = a'_1 . sigma
    B_k = B_{k-1} (x) (a_k + a'_k)/2 . sigma  +  B'_{k-1} (x) (a_k - a'_k)/2 . sigma

with B'_k the same expression under a_j <-> a'_j everywhere.  Under local
realism the mean value of B_n is bounded by 1, while its operator norm is
2**((n-1)/2).  The recursion collapses to the product form

    B + i B' = M = c (x)_j O_j,    O_j = (a_j + i a'_j) . sigma,    c = ((1 - i)/2)**(n-1)

(Belinskii & Klyshko 1993; Gisin & Bechmann-Pasquinucci 1998), which is the
only representation used here.  Only B is built: B' is B of the settings with
every a_j and a'_j exchanged.  A mean value <psi|B|psi> = Re <psi|M|psi> costs
n single-qubit gates; the see-saw of max_mk_mean, run on the multi-start
driver of ``ascent``, uses it.  B = (M + M^dag)/2 is applied to a state vector
matrix-free with 2n single-qubit gates (n for M, n for M^dag), so O(n 2^n);
explicit matrices are only formed on demand for n <= DENSE_QUBIT_CAP.  The
literal recursion lives in the tests as an independent reference.  Vectors are
columns: S vectors form a (2**n, S) array and S gates a (2, 2, S) one, so each
step of the see-saw loops over its S starts inside one numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ascent import OptimizerConfig, _ascend_batch, _chunk
from .linalg import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    _number_rows,
    qubit_count,
)

_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
# (v.sigma) flattened is _SIGMA @ v, and Tr(sigma_k R) is (_TRACE @ R.flat)[k].
# Their entries are 0, +-1 and +-i, so every product is exact and each entry
# sums at most two nonzero terms: no kernel's summation order changes a bit.
_SIGMA = _PAULIS.reshape(3, 4).T.copy()
_TRACE = _PAULIS.transpose(0, 2, 1).reshape(3, 4).copy()


@dataclass(frozen=True)
class MeasurementSettings:
    """Two measurement directions per qubit: unit vectors a_j and a'_j in R^3."""

    n: int
    a: np.ndarray        # shape (n, 3)
    a_prime: np.ndarray  # shape (n, 3)

    def __post_init__(self) -> None:
        qubit_count(self.n)
        for name in ("a", "a_prime"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.n, 3):
                raise ValueError(f"{name} must have shape ({self.n}, 3), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite components")
            norms_sq = np.einsum("jk,jk->j", arr, arr)
            if not np.max(np.abs(norms_sq - 1.0)) < 1e-12:
                raise ValueError(f"{name} contains non-unit vectors")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pairs": [
                {"a": list(self.a[j]), "a_prime": list(self.a_prime[j])}
                for j in range(self.n)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MeasurementSettings":
        if not isinstance(data, dict) or "n" not in data or "pairs" not in data:
            raise ValueError("settings must be an object with 'n' and 'pairs'")
        n = qubit_count(data["n"])
        pairs = data["pairs"]
        if not isinstance(pairs, list) or len(pairs) != n:
            got = len(pairs) if isinstance(pairs, list) else type(pairs).__name__
            raise ValueError(f"expected a list of {n} pairs, got {got}")
        for j, pair in enumerate(pairs, start=1):
            if not isinstance(pair, dict) or "a" not in pair or "a_prime" not in pair:
                raise ValueError(f"pair {j} must be an object with 'a' and 'a_prime'")
        a = _number_rows([p["a"] for p in pairs], n, 3, "'a' of pair")
        ap = _number_rows([p["a_prime"] for p in pairs], n, 3, "'a_prime' of pair")
        return cls(n=n, a=a, a_prime=ap)


def _prefactor(n: int) -> complex:
    """c = ((1 - i)/2)**(n-1) of the product form B + i B' = c (x)_j O_j."""
    return ((1 - 1j) / 2) ** (n - 1)


def _factors(z: np.ndarray) -> np.ndarray:
    """The factors O_j = z_j.sigma as (..., 2, 2, S), for z_j = a_j + i a'_j as (..., 3, S)."""
    return (_SIGMA @ z).reshape(z.shape[:-2] + (2, 2, z.shape[-1]))


def _apply_factor(vecs: np.ndarray, gates: np.ndarray, j: int) -> np.ndarray:
    """gates[..., s] applied to qubit j + 1 of column s of vecs (..., 2**n, S).  Leading axes
    broadcast and carry operators whose gates differ, as M and M^dag in ``MKOperator.apply``."""
    x = vecs.reshape(vecs.shape[:-2] + (2**j, 1, 2, -1, vecs.shape[-1]))
    image = (gates[..., None, :, 0, None, :] * x[..., 0, :, :]
             + gates[..., None, :, 1, None, :] * x[..., 1, :, :])
    return image.reshape(vecs.shape)


class MKOperator:
    """Matrix-free handle for B = (M + M^dag)/2 with M = c (x)_j O_j.

    Hermitian by construction.  ``apply`` runs the n gates O_j and the n
    gates O_j^dag on a (2, 2**n, 1) stack of the vector, one call per qubit;
    ``dense`` materializes the matrix for n <= DENSE_QUBIT_CAP.
    """

    __slots__ = ("n", "settings", "_gates")

    def __init__(self, settings: MeasurementSettings) -> None:
        self.n = settings.n
        self.settings = settings
        # The factors of M and of M^dag: O_j^dag = (a_j - i a'_j).sigma.
        z = (settings.a + 1j * settings.a_prime)[..., None]
        self._gates = _factors(np.stack([z, z.conj()]))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        images = np.broadcast_to(np.asarray(vec, dtype=complex)[:, None], (2, 2**self.n, 1))
        for j in range(self.n):
            images = _apply_factor(images, self._gates[:, j], j)
        c = _prefactor(self.n)
        return (c * images[0, :, 0] + c.conjugate() * images[1, :, 0]) / 2

    def dense(self) -> np.ndarray:
        if self.n > DENSE_QUBIT_CAP:
            raise ValueError(f"dense MK matrices are capped at {DENSE_QUBIT_CAP} qubits")
        m = np.eye(1, dtype=complex)
        for factor in self._gates[0, ..., 0]:
            m = np.kron(m, factor)
        m = _prefactor(self.n) * m
        return (m + m.conj().T) / 2

    def operator_norm(self) -> float:
        """Largest |eigenvalue|, in closed form from the product form.

        O_j^2 = 2i (a_j . a'_j) I and c^2 (2i)^(n-1) = 1, so M^2 = 2i prod_j
        (a_j . a'_j) I is imaginary and B^2 = (M M^dag + M^dag M)/4.  With
        O_j O_j^dag = 2 (I + n_j . sigma), O_j^dag O_j = 2 (I - n_j . sigma),
        n_j = a_j x a'_j, and |c|^2 2^n = 2, B^2 = ((x)_j (I + n_j . sigma) +
        (x)_j (I - n_j . sigma))/2: diagonal in the product eigenbasis of the
        n_j . sigma and largest on the product of their top eigenvectors, so
        ||B||^2 = (prod_j (1 + r_j) + prod_j (1 - r_j))/2 with r_j = |n_j|.
        """
        r = np.linalg.norm(np.cross(self.settings.a, self.settings.a_prime), axis=1)
        return math.sqrt((np.prod(1 + r) + np.prod(1 - r)) / 2)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MKOperator(n={self.n})"


def _planar(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta), 0.0])


def canonical_settings(n: int) -> MeasurementSettings:
    """Planar settings for which the MK operator takes its GHZ spectral form.

    The a_j fan out in the x-y plane from a common azimuthal offset with
    consecutive angle increments (-1)**(n+1) * pi/n, and each a'_j is a_j
    rotated by +pi/2.  Then O_j = 2 e^{-i theta_j} |0><1|, so
    B = 2**((n-1)/2) e^{-i phi} |0..0><1..1| + h.c. with phi the sum of the
    theta_j plus (n-1)*pi/4.  The offset (pi/n)(((n+3)/4 mod 2) - 1) makes
    phi a multiple of 2 pi, so the corner <0..0|B|1..1> is real and positive
    and B matches the GHZ projector form.
    """
    if n < 2:
        raise ValueError("canonical settings require n >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} outside the supported range 2..{MAX_QUBITS}")
    increment = (-1) ** (n + 1) * math.pi / n
    offset = math.pi / n * ((n + 3) / 4 % 2 - 1)
    angles = [j * increment + offset for j in range(n)]
    a = np.array([_planar(t) for t in angles])
    ap = np.array([_planar(t + math.pi / 2) for t in angles])
    return MeasurementSettings(n=n, a=a, a_prime=ap)


def ghz(n: int, sign: int = +1) -> PureState:
    """GHZ state (|0...0> +- |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ states require n >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    amps = np.zeros(2 ** qubit_count(n), dtype=complex)
    amps[0] = 1.0 / math.sqrt(2)
    amps[-1] = sign / math.sqrt(2)
    return PureState(amps)


def generalized_ghz(n: int, phi: float) -> PureState:
    """cos(phi) |0...0> + sin(phi) |1...1> for phi in [0, pi/4]."""
    if n < 2:
        raise ValueError("generalized GHZ states require n >= 2")
    if not 0.0 <= phi <= math.pi / 4 + 1e-15:
        raise ValueError(f"phi={phi} outside [0, pi/4]")
    amps = np.zeros(2 ** qubit_count(n), dtype=complex)
    amps[0] = math.cos(phi)
    amps[-1] = math.sin(phi)
    return PureState(amps)


@lru_cache(maxsize=None)
def canonical_mk(n: int) -> MKOperator:
    """MK operator of the canonical settings, built once per n: 2**((n-1)/2)
    (P+ - P-) for the GHZ projectors P+ and P-."""
    return MKOperator(canonical_settings(n))


def _means(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re c <psi|(x)_j O_j|psi> = <psi|B|psi> per start, for z[s, j] = a_j + i a'_j of shape
    (S, n, 3).  The overlap sums rows of 2S floats, as ``_environment``: in one order for any S."""
    image = t[:, None].repeat(len(z), 1)
    for j, gates in enumerate(_factors(z.transpose(1, 2, 0).copy())):
        image = _apply_factor(image, gates, j)
    return (_prefactor(z.shape[1]) * (t.conj()[:, None] * image).view(float).sum(0).view(complex)).real


@dataclass(frozen=True)
class MKMeanResult:
    """Outcome of the numeric MK mean maximization; see ``max_mk_mean``."""

    settings: MeasurementSettings
    value: float
    starts: int
    iterations: int
    best_start: int
    total_sweeps: int
    capped_starts: int
    converged: bool


def _environment(ket: np.ndarray, bra_conj: np.ndarray, j: int) -> np.ndarray:
    """R_j[(a, b), s] = sum of ket[.., a, .., s] bra_conj[.., b, .., s] over all
    qubits but j + 1, as (4, S).  The products, C-ordered as (2**j, rest, 2, 2, S),
    are summed over one leading axis of 4S inner elements: in one order for any S."""
    starts = ket.shape[-1]
    shape = (2**j, 2, -1, starts)
    k = ket.reshape(shape).transpose(0, 2, 1, 3)[:, :, :, None]
    b = bra_conj.reshape(shape).transpose(0, 2, 1, 3)[:, :, None]
    product = np.multiply(k, b, out=np.empty(k.shape[:3] + (2, starts), dtype=complex))
    return np.add.reduce(product.reshape(-1, 4 * starts)).reshape(4, starts)


def _sweep(t: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """One pass of exact block updates over qubits 1..n for every start.

    The directions z of ``_means`` are held as (n, 3, S), and the kets and
    the bra as (2**n, S) columns.  The kets ((x)_{k>j} O_k) psi of the old
    factors are built once; the bra ((x)_{k<j} O_k)^dag psi of the updated
    ones is carried as its conjugate, which the factors O_k^T advance.
    Contracted over every qubit but j they leave a 2x2 matrix R_j, and with
    w = c Tr(sigma R_j) the mean is a_j . Re w - a'_j . Im w, so z_j follows
    conj(w), each part normalized.  No sum's order depends on S, so a start
    sweeps the same in any batch.  Costs O(S n 2**n); returns the new
    directions and the means after the last update.
    """
    starts, n = z.shape[:2]
    d = z.transpose(1, 2, 0).copy()
    factors = _factors(d)
    kets = [t[:, None].repeat(starts, 1)]
    for j in range(n - 1, 0, -1):
        kets.insert(0, _apply_factor(kets[0], factors[j], j))
    bra_conj = t.conj()[:, None].repeat(starts, 1)
    # As floats, start s has a_j in column 2s and a'_j in 2s + 1.
    for j in range(n):
        coefficients = (_prefactor(n) * (_TRACE @ _environment(kets[j], bra_conj, j))).conj().view(float)
        old = d[j].view(float)
        norm = np.sqrt(np.add.reduce(coefficients * coefficients))
        old[:] = np.where(norm > 1e-14, coefficients / np.maximum(norm, 1e-300), old)
        if j + 1 < n:
            bra_conj = _apply_factor(bra_conj, _factors(d[j]).swapaxes(0, 1), j)
    terms = (old * coefficients).reshape(3, starts, 2).sum(axis=-1)
    return d.transpose(2, 0, 1), terms[0] + terms[1] + terms[2]


def _retract(z: np.ndarray) -> np.ndarray:
    """z with each a_j and a'_j scaled to unit length."""
    parts = np.ascontiguousarray(z).view(float).reshape(z.shape + (2,))
    parts = parts / np.sqrt(np.add.reduce(parts * parts, axis=-2, keepdims=True))
    return parts.reshape(z.shape[:-1] + (6,)).view(complex)


@lru_cache(maxsize=32)
def _start_directions(n: int, starts: int, seed: int) -> np.ndarray:
    """``max_mk_mean``'s starting rows z_j = a_j + i a'_j as (starts, n, 3), made once and read-only."""
    canon = canonical_settings(n)
    axial = np.broadcast_to(np.eye(3)[[2, 0], None], (2, n, 3))  # a_j = z, a'_j = x
    drawn = np.random.default_rng(seed).standard_normal((max(starts - 2, 0), 2, n, 3))
    # The norm np.linalg.norm takes of a single vector, so that the draws
    # match those of one vector at a time bit for bit.
    drawn /= np.sqrt(drawn[..., None, :] @ drawn[..., :, None])[..., 0]
    dirs = np.concatenate([[[canon.a, canon.a_prime], axial], drawn])[:starts]
    z = dirs[:, 0] + 1j * dirs[:, 1]
    z.setflags(write=False)
    return z


def max_mk_mean(psi: PureState, config: OptimizerConfig | None = None) -> MKMeanResult:
    """Maximize <psi|B(settings)|psi> over all measurement settings.

    Multi-start block-coordinate ascent (a see-saw): the mean is linear in
    each qubit's pair (a_j, a'_j) with the others held fixed, so every block
    update is exact (see ``_sweep``).  Start 0 is the canonical fan, start 1
    the all-z axial configuration, the rest are seeded random directions; each
    is one (n, 3) row z_j = a_j + i a'_j, a copy of ``_start_directions``.
    The starts run on ``ascent._ascend_batch`` with no ceiling and with
    ``_retract`` for the extrapolation step, in chunks of 2**18 // (n 2**n),
    which bounds the cached kets; the result copies its ``OptimizerMetadata``.
    """
    cfg = config if config is not None else OptimizerConfig()
    n = psi.n
    if n < 2:
        raise ValueError("mean maximization requires n >= 2")
    z = _start_directions(n, cfg.resolved_starts(n), cfg.seed).copy()
    values, _, meta = _ascend_batch(
        lambda d: _means(psi.amplitudes, d), lambda d: _sweep(psi.amplitudes, d), _retract, z, cfg,
        _chunk(n << n))
    best = meta.best_start
    return MKMeanResult(
        settings=MeasurementSettings(n=n, a=z[best].real, a_prime=z[best].imag),
        value=float(values[best]), starts=meta.starts, iterations=meta.iterations, best_start=best,
        total_sweeps=meta.total_sweeps, capped_starts=meta.capped_starts, converged=meta.converged)
