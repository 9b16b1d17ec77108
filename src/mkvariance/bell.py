"""Mermin-Klyshko Bell operators, canonical settings, and GHZ-family states.

The MK operator pair (B, B') of n qubits is defined recursively from two
measurement directions per qubit:

    B_1 = a_1 . sigma,    B'_1 = a'_1 . sigma
    B_k = B_{k-1} (x) (a_k + a'_k)/2 . sigma  +  B'_{k-1} (x) (a_k - a'_k)/2 . sigma

with B'_k the same expression under a_j <-> a'_j everywhere.  Under local
realism the mean value of B_n is bounded by 1, while its operator norm is
2**((n-1)/2).  The recursion collapses to the product form

    B + i B' = M = c (x)_j O_j,    O_j = (a_j + i a'_j) . sigma,    c = ((1 - i)/2)**(n-1)

(Belinskii & Klyshko 1993; Gisin & Bechmann-Pasquinucci 1998), which is the
only representation of the pair used here.  A mean value <psi|B|psi> =
Re <psi|M|psi> costs n single-qubit gates; mk_mean and the see-saw of
max_mk_mean use it.  B = (M + M^dag)/2 is applied to a state vector
matrix-free with 2n single-qubit gates (n for M, n for M^dag), so O(n 2^n);
explicit matrices are only formed on demand for n <= DENSE_QUBIT_CAP.  The
literal recursion lives in the tests as an independent reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    kron,
    qubit_count,
)

SPECTRAL_BUILD_TOL = 1e-10
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])


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

    def swapped(self) -> "MeasurementSettings":
        """Settings with every a_j and a'_j exchanged."""
        return MeasurementSettings(n=self.n, a=self.a_prime, a_prime=self.a)

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
        n = qubit_count(data["n"])
        pairs = data["pairs"]
        if len(pairs) != n:
            raise ValueError(f"expected {n} pairs, got {len(pairs)}")
        a = np.array([p["a"] for p in pairs], dtype=float)
        ap = np.array([p["a_prime"] for p in pairs], dtype=float)
        return cls(n=n, a=a, a_prime=ap)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSettings":
        return cls.from_json_dict(json.loads(text))


def _prefactor(n: int) -> complex:
    """c = ((1 - i)/2)**(n-1) of the product form B + i B' = c (x)_j O_j."""
    return ((1 - 1j) / 2) ** (n - 1)


def _factors(a: np.ndarray, a_prime: np.ndarray) -> np.ndarray:
    """The factors O_j = (a_j + i a'_j).sigma for directions of shape (..., 3)."""
    return np.einsum("...k,kab->...ab", a + 1j * a_prime, _PAULIS)


def _apply_factor(vecs: np.ndarray, factors: np.ndarray, j: int) -> np.ndarray:
    """factors[s] applied to qubit j + 1 of vecs[s], for vecs of shape (S, 2**n)."""
    x = vecs.reshape(len(vecs), 2**j, 1, 2, -1)
    f = factors[:, None, :, :, None]
    return (f[..., 0, :] * x[:, :, :, 0] + f[..., 1, :] * x[:, :, :, 1]).reshape(len(vecs), -1)


class MKOperator:
    """Matrix-free handle for B = (M + M^dag)/2 with M = c (x)_j O_j.

    Hermitian by construction.  ``apply`` runs the n gates O_j and the n
    gates O_j^dag on the vector; ``dense`` materializes the matrix for
    n <= DENSE_QUBIT_CAP.
    """

    __slots__ = ("n", "settings", "_gates", "_dense_cache")

    def __init__(self, settings: MeasurementSettings) -> None:
        self.n = settings.n
        self.settings = settings
        # The factors of M and of M^dag: O_j^dag = (a_j - i a'_j).sigma.
        a, a_prime = settings.a, settings.a_prime
        self._gates = _factors(np.stack([a, a]), np.stack([a_prime, -a_prime]))
        self._dense_cache: np.ndarray | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        images = np.broadcast_to(np.asarray(vec, dtype=complex), (2, 2**self.n))
        for j in range(self.n):
            images = _apply_factor(images, self._gates[:, j], j)
        c = _prefactor(self.n)
        return (c * images[0] + c.conjugate() * images[1]) / 2

    def dense(self) -> np.ndarray:
        if self._dense_cache is None:
            if self.n > DENSE_QUBIT_CAP:
                raise ValueError(f"dense MK matrices are capped at {DENSE_QUBIT_CAP} qubits")
            m = np.eye(1)
            for factor in self._gates[0]:
                m = kron(m, factor)
            m = _prefactor(self.n) * m
            mat = (m + m.conj().T) / 2
            mat.setflags(write=False)
            self._dense_cache = mat
        return self._dense_cache

    def operator_norm(self) -> float:
        """Largest |eigenvalue|: dense eigendecomposition for n <= DENSE_QUBIT_CAP,
        matrix-free power iteration on B^2 otherwise."""
        if self.n <= DENSE_QUBIT_CAP:
            return float(np.max(np.abs(np.linalg.eigvalsh(self.dense()))))
        rng = np.random.default_rng(12345)
        v = rng.standard_normal(2**self.n) + 1j * rng.standard_normal(2**self.n)
        v /= np.linalg.norm(v)
        lam_sq = 0.0
        for _ in range(200):
            w = self.apply(self.apply(v))
            lam_new = float(np.linalg.norm(w))
            if lam_new == 0.0:
                return 0.0
            v = w / lam_new
            if abs(lam_new - lam_sq) < 1e-12 * max(lam_new, 1.0):
                lam_sq = lam_new
                break
            lam_sq = lam_new
        return math.sqrt(lam_sq)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MKOperator(n={self.n})"


@dataclass(frozen=True)
class MKOperatorPair:
    """The pair (B, B') built from one set of measurement directions."""

    n: int
    bell: MKOperator
    bell_swapped: MKOperator
    settings: MeasurementSettings


def mk_pair(settings: MeasurementSettings) -> MKOperatorPair:
    """Construct the MK operator pair for the given settings.

    B' is B of the swapped settings: exchanging every a_j and a'_j turns M
    into i M^dag, whose Hermitian part (M - M^dag)/(2i) is B'.
    """
    return MKOperatorPair(
        n=settings.n,
        bell=MKOperator(settings),
        bell_swapped=MKOperator(settings.swapped()),
        settings=settings,
    )


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
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2)
    amps[-1] = sign / math.sqrt(2)
    return PureState(amps)


def generalized_ghz(n: int, phi: float) -> PureState:
    """cos(phi) |0...0> + sin(phi) |1...1> for phi in [0, pi/4]."""
    if n < 2:
        raise ValueError("generalized GHZ states require n >= 2")
    if not 0.0 <= phi <= math.pi / 4 + 1e-15:
        raise ValueError(f"phi={phi} outside [0, pi/4]")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.cos(phi)
    amps[-1] = math.sin(phi)
    return PureState(amps)


def _ghz_spectral_matrix(n: int) -> np.ndarray:
    gp = ghz(n, +1).amplitudes
    gm = ghz(n, -1).amplitudes
    scale = 2 ** ((n - 1) / 2)
    return scale * (np.outer(gp, gp.conj()) - np.outer(gm, gm.conj()))


@lru_cache(maxsize=None)
def canonical_mk(n: int) -> MKOperatorPair:
    """MK pair for the canonical settings, validated against its spectral form.

    For n <= DENSE_QUBIT_CAP the dense matrix is compared entrywise with
    2**((n-1)/2) (P+ - P-) built from the GHZ projectors; beyond that the
    GHZ eigenvector residuals are checked matrix-free.  A failure here means
    the angle convention is wrong and is raised loudly.
    """
    pair = mk_pair(canonical_settings(n))
    scale = 2 ** ((n - 1) / 2)
    if n <= DENSE_QUBIT_CAP:
        deviation = float(np.max(np.abs(pair.bell.dense() - _ghz_spectral_matrix(n))))
        if deviation >= SPECTRAL_BUILD_TOL:
            raise AssertionError(
                f"canonical MK operator for n={n} deviates from its spectral form "
                f"by {deviation:.3e}; angle convention is broken"
            )
    else:
        for sign in (+1, -1):
            g = ghz(n, sign).amplitudes
            residual = float(np.linalg.norm(pair.bell.apply(g) - sign * scale * g))
            if residual >= SPECTRAL_BUILD_TOL * scale:
                raise AssertionError(
                    f"canonical MK operator for n={n} fails the GHZ eigenvector "
                    f"check (residual {residual:.3e})"
                )
    return pair


def _means(t: np.ndarray, a: np.ndarray, a_prime: np.ndarray) -> np.ndarray:
    """Re c <psi|(x)_j O_j|psi> = <psi|B|psi> for directions of shape (S, n, 3)."""
    s, n, _ = a.shape
    image = np.broadcast_to(t, (s, t.size))
    for j, factors in enumerate(np.moveaxis(_factors(a, a_prime), 1, 0)):
        image = _apply_factor(image, factors, j)
    return (_prefactor(n) * (image @ t.conj())).real


def mk_mean(psi: PureState, settings: MeasurementSettings) -> float:
    """<psi|B|psi> for the MK operator built from the settings."""
    if settings.n != psi.n:
        raise ValueError(f"settings are for {settings.n} qubits but the state has {psi.n}")
    return float(_means(psi.amplitudes, settings.a[None], settings.a_prime[None])[0])


@dataclass(frozen=True)
class MKMeanResult:
    """Outcome of the numeric MK mean maximization over all settings."""

    settings: MeasurementSettings
    value: float
    starts: int
    iterations: int
    best_start: int
    total_sweeps: int
    capped_starts: int


def _sweep(t: np.ndarray, a: np.ndarray, a_prime: np.ndarray) -> tuple[np.ndarray, ...]:
    """One pass of exact block updates over qubits 1..n for every start.

    The kets ((x)_{k>j} O_k) psi of the old factors are built once; the bra
    ((x)_{k<j} O_k)^dag psi of the updated ones is carried from qubit to
    qubit.  Contracted over every qubit but j they leave a 2x2 matrix R_j,
    and with w = c Tr(sigma R_j) the mean is a_j . Re w - a'_j . Im w, so
    a_j follows Re w and a'_j follows -Im w.  Costs O(S n 2**n); returns the
    new directions, the means after the last update and the largest steps.
    """
    s, n, _ = a.shape
    a, a_prime = a.copy(), a_prime.copy()
    factors = _factors(a, a_prime)
    kets = [np.broadcast_to(t, (s, t.size))]
    for j in range(n - 1, 0, -1):
        kets.insert(0, _apply_factor(kets[0], factors[:, j], j))
    bra = kets[-1]
    largest_step = np.zeros(s)
    for j in range(n):
        shape = (s, 2**j, 2, -1)
        r = np.einsum("slar,slbr->sab", kets[j].reshape(shape), bra.reshape(shape).conj())
        w = _prefactor(n) * np.einsum("kba,sab->sk", _PAULIS, r)
        for dirs, coefficients in ((a, w.real), (a_prime, -w.imag)):
            norm = np.linalg.norm(coefficients, axis=-1, keepdims=True)
            new = np.where(norm > 1e-14, coefficients / np.maximum(norm, 1e-300), dirs[:, j])
            largest_step = np.maximum(largest_step, np.linalg.norm(new - dirs[:, j], axis=-1))
            dirs[:, j] = new
        if j + 1 < n:
            bra = _apply_factor(bra, _factors(a[:, j], -a_prime[:, j]), j)
    value = np.sum(a[:, -1] * w.real - a_prime[:, -1] * w.imag, axis=-1)
    return a, a_prime, value, largest_step


def max_mk_mean(psi: PureState, config=None) -> MKMeanResult:
    """Maximize <psi|B(settings)|psi> over all measurement settings.

    Multi-start block-coordinate ascent (a see-saw): the mean is linear in
    each qubit's pair (a_j, a'_j) with the others held fixed, so every block
    update is exact (see ``_sweep``).  Start 0 is the canonical fan, start 1
    the all-z axial configuration, the rest are seeded random directions.
    All starts ascend together in chunks of 2**18 // (n 2**n), which bounds
    the cached kets; each start stops on its own rule, and ties resolve to
    the lowest start index.  ``total_sweeps`` adds up the sweeps of all
    starts; ``capped_starts`` counts those that used all ``max_iterations``
    sweeps without meeting either tolerance.
    """
    # Deferred: criterion imports this module.
    from .criterion import _CHUNK_AMPLITUDES, OptimizerConfig, _ascend_batch, _best_start

    cfg = config if config is not None else OptimizerConfig()
    n = psi.n
    if n < 2:
        raise ValueError("mean maximization requires n >= 2")
    starts = cfg.resolved_starts(n)
    canon = canonical_settings(n)
    axial = np.broadcast_to(np.eye(3)[[2, 0], None], (2, n, 3))  # a_j = z, a'_j = x
    drawn = np.random.default_rng(cfg.seed).standard_normal((max(starts - 2, 0), 2, n, 3))
    # The norm np.linalg.norm takes of a single vector, so that the draws
    # match those of one vector at a time bit for bit.
    drawn /= np.sqrt(drawn[..., None, :] @ drawn[..., :, None])[..., 0]
    dirs = np.concatenate([[[canon.a, canon.a_prime], axial], drawn])[:starts]
    a, a_prime = dirs[:, 0].copy(), dirs[:, 1].copy()

    values = np.empty(starts)
    sweeps = np.empty(starts, dtype=int)
    capped = 0
    chunk = max(1, _CHUNK_AMPLITUDES // (n << n))
    for lo in range(0, starts, chunk):
        part = slice(lo, lo + chunk)
        values[part] = _means(psi.amplitudes, a[part], a_prime[part])
        sweeps[part], stuck = _ascend_batch(
            lambda *p: _sweep(psi.amplitudes, *p), (a[part], a_prime[part]), values[part], cfg)
        capped += stuck

    best = _best_start(values)
    return MKMeanResult(
        settings=MeasurementSettings(n=n, a=a[best], a_prime=a_prime[best]),
        value=float(values[best]), starts=starts, iterations=int(sweeps[best]),
        best_start=best, total_sweeps=int(sweeps.sum()), capped_starts=capped)
