"""Single-qubit state and observable algebra in the Bloch representation.

A qubit density matrix is rho = (I + px*sx + py*sy + pz*sz)/2 with
px^2 + py^2 + pz^2 <= 1, and any 2x2 Hermitian observable is a real
combination a1*sx + a2*sy + a3*sz + a4*I.  The Bloch vector is the source
of truth for states; the dense matrix is derived (and cached) on demand.
General d-dimensional density matrices appear only for the mixedness
convexity property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDimension,
    BlochNormExceeded,
    NotHermitian,
    NotPositive,
    NumericalInconsistency,
    TraceNotOne,
)

# Pauli matrices in the (|0>, |1>) basis, |0> being the +1 eigenvector of sz.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# Tolerance policy: exact-algebra representation checks at 1e-12,
# positivity at -1e-10 (eigenvalue scale), variance clamp at -1e-12.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
BLOCH_NORM_TOL = 1e-12
POSITIVITY_TOL = 1e-10
VARIANCE_CLAMP = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (px, py, pz) inside the closed unit ball."""

    px: float
    py: float
    pz: float

    def __post_init__(self):
        if self.norm_sq() > 1.0 + BLOCH_NORM_TOL:
            raise BlochNormExceeded(
                f"|p|^2 = {self.norm_sq():.15g} exceeds 1 + {BLOCH_NORM_TOL:g}"
            )

    def norm_sq(self) -> float:
        return self.px**2 + self.py**2 + self.pz**2

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix, stored as a Bloch vector.

    The dense 2x2 matrix is derived lazily and cached; the two
    representations agree elementwise by construction.
    """

    bloch: BlochVector

    @cached_property
    def matrix(self) -> np.ndarray:
        b = self.bloch
        m = 0.5 * (IDENTITY + b.px * PAULI_X + b.py * PAULI_Y + b.pz * PAULI_Z)
        m.flags.writeable = False
        return m

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "QubitState":
        return cls(matrix_to_bloch(matrix))


@dataclass(frozen=True)
class PauliObservable:
    """Hermitian observable a1*sx + a2*sy + a3*sz + a4*I with real coefficients."""

    a1: float
    a2: float
    a3: float
    a4: float

    @cached_property
    def matrix(self) -> np.ndarray:
        m = (
            self.a1 * PAULI_X
            + self.a2 * PAULI_Y
            + self.a3 * PAULI_Z
            + self.a4 * IDENTITY
        )
        m.flags.writeable = False
        return m

    def vec(self) -> np.ndarray:
        """Traceless (Pauli) part as a real 3-vector."""
        return np.array([self.a1, self.a2, self.a3])

    def __add__(self, other: "PauliObservable") -> "PauliObservable":
        return PauliObservable(
            self.a1 + other.a1, self.a2 + other.a2, self.a3 + other.a3, self.a4 + other.a4
        )

    def __mul__(self, scale: float) -> "PauliObservable":
        return PauliObservable(scale * self.a1, scale * self.a2, scale * self.a3, scale * self.a4)

    __rmul__ = __mul__


OBS_X = PauliObservable(1.0, 0.0, 0.0, 0.0)
OBS_Y = PauliObservable(0.0, 1.0, 0.0, 0.0)
OBS_Z = PauliObservable(0.0, 0.0, 1.0, 0.0)
OBS_I = PauliObservable(0.0, 0.0, 0.0, 1.0)


class GeneralState:
    """d-dimensional density matrix (Hermitian, unit trace, positive)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise BadDimension(f"expected a square matrix, got shape {matrix.shape}")
        _require_hermitian(matrix)
        tr = np.trace(matrix).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"trace = {tr:.15g}")
        eigmin = float(np.linalg.eigvalsh(matrix)[0])
        if eigmin < -POSITIVITY_TOL:
            raise NotPositive(f"min eigenvalue = {eigmin:.3e}")
        self.matrix = matrix
        self.dim = matrix.shape[0]


def _require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    dev = np.abs(matrix - matrix.conj().T).max()
    if dev > tol:
        raise NotHermitian(f"max |m - m^dag| = {dev:.3e}")


# ---------------------------------------------------------------------------
# representation changes
# ---------------------------------------------------------------------------

def bloch_to_matrix(bloch) -> QubitState:
    """Build the state (I + p . sigma)/2 from a Bloch vector (or 3-sequence)."""
    if not isinstance(bloch, BlochVector):
        px, py, pz = (float(c) for c in bloch)
        bloch = BlochVector(px, py, pz)
    return QubitState(bloch)


def matrix_to_bloch(matrix: np.ndarray) -> BlochVector:
    """Extract p_k = tr(rho sigma_k) from a valid 2x2 density matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise BadDimension(f"expected 2x2, got {matrix.shape}")
    _require_hermitian(matrix)
    tr = np.trace(matrix).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace = {tr:.15g}")
    eigmin = float(np.linalg.eigvalsh(matrix)[0])
    if eigmin < -POSITIVITY_TOL:
        raise NotPositive(f"min eigenvalue = {eigmin:.3e}")
    px = float(np.trace(matrix @ PAULI_X).real)
    py = float(np.trace(matrix @ PAULI_Y).real)
    pz = float(np.trace(matrix @ PAULI_Z).real)
    return BlochVector(px, py, pz)


def decompose_observable(matrix: np.ndarray) -> PauliObservable:
    """Coefficients a_k = tr(m sigma_k)/2, a4 = tr(m)/2 of a Hermitian 2x2 matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise BadDimension(f"expected 2x2, got {matrix.shape}")
    _require_hermitian(matrix)
    return PauliObservable(
        float(np.trace(matrix @ PAULI_X).real) / 2,
        float(np.trace(matrix @ PAULI_Y).real) / 2,
        float(np.trace(matrix @ PAULI_Z).real) / 2,
        float(np.trace(matrix).real) / 2,
    )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def expectation(state: QubitState, obs: PauliObservable) -> float:
    """tr(rho O).  In Bloch form this is a1*px + a2*py + a3*pz + a4."""
    return float(np.trace(state.matrix @ obs.matrix).real)


def variance(state: QubitState, obs: PauliObservable) -> float:
    """<O^2> - <O>^2, clamped at zero against rounding noise.

    A value below -1e-12 cannot come from rounding and raises
    NumericalInconsistency instead of being hidden by the clamp.
    """
    m = obs.matrix
    mean = float(np.trace(state.matrix @ m).real)
    second = float(np.trace(state.matrix @ (m @ m)).real)
    var = second - mean**2
    if var < 0.0:
        if var < -VARIANCE_CLAMP:
            raise NumericalInconsistency(f"variance = {var:.3e}")
        var = 0.0
    return var


def commutator_term(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    """|<[A,B]>/(2i)|^2, evaluated from the dense matrices."""
    a, b = obs_a.matrix, obs_b.matrix
    z = np.trace(state.matrix @ (a @ b - b @ a))
    return float(abs(z)) ** 2 / 4.0


def anticommutator_term(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    """Squared symmetrized covariance (<AB+BA>/2 - <A><B>)^2 from matrices."""
    a, b = obs_a.matrix, obs_b.matrix
    sym = float(np.trace(state.matrix @ (a @ b + b @ a)).real) / 2.0
    mean_a = float(np.trace(state.matrix @ a).real)
    mean_b = float(np.trace(state.matrix @ b).real)
    return (sym - mean_a * mean_b) ** 2


def xi(obs_r: PauliObservable, obs_s: PauliObservable) -> float:
    """Trace form 2 tr(RS) - tr(R) tr(S); equals 4 r.s on the Pauli parts."""
    r, s = obs_r.matrix, obs_s.matrix
    return float((2.0 * np.trace(r @ s) - np.trace(r) * np.trace(s)).real)


def mixedness(state: QubitState) -> float:
    """1 - tr(rho^2) = (1 - |p|^2)/2, in [0, 1/2] for a qubit."""
    value = 0.5 * (1.0 - state.bloch.norm_sq())
    return max(value, 0.0)


def mixedness_general(state: GeneralState) -> float:
    """1 - tr(rho^2) for a d-dimensional state, in [0, (d-1)/d]."""
    value = 1.0 - float(np.trace(state.matrix @ state.matrix).real)
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Bloch-parameter closed forms
# ---------------------------------------------------------------------------
# These reproduce the moments above without touching matrices; the test
# suite cross-checks the two routes against each other.

def variance_closed_form(state: QubitState, obs: PauliObservable) -> float:
    """Variance as |a|^2 - (a.p)^2 over the Pauli part."""
    a = obs.vec()
    p = state.bloch.as_array()
    return float(a @ a - (a @ p) ** 2)


def commutator_term_closed_form(
    state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable
) -> float:
    """Commutator term as ((a x b) . p)^2."""
    cross = np.cross(obs_a.vec(), obs_b.vec())
    return float(cross @ state.bloch.as_array()) ** 2


def anticommutator_term_closed_form(
    state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable
) -> float:
    """Squared covariance as (a.b - (a.p)(b.p))^2."""
    a, b = obs_a.vec(), obs_b.vec()
    p = state.bloch.as_array()
    return float(a @ b - (a @ p) * (b @ p)) ** 2


def xi_closed_form(obs_r: PauliObservable, obs_s: PauliObservable) -> float:
    """xi(R, S) as 4 r.s, identity shifts dropping out."""
    return 4.0 * float(obs_r.vec() @ obs_s.vec())


# ---------------------------------------------------------------------------
# random sampling (explicit seeds; no hidden global state)
# ---------------------------------------------------------------------------

def random_bloch_vectors(seed, n: int, kind: str = "mixed") -> np.ndarray:
    """Batch of n Bloch vectors, shape (n, 3).

    kind="pure" samples uniformly on the sphere; kind="mixed" uniformly
    over the ball (radius = cube root of a uniform variate).
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    if kind == "pure":
        return direction
    if kind == "mixed":
        radius = rng.random(n) ** (1.0 / 3.0)
        return direction * radius[:, None]
    raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def random_qubit_state(seed, kind: str = "mixed") -> QubitState:
    """One random qubit state; see random_bloch_vectors for the ensembles."""
    p = random_bloch_vectors(seed, 1, kind)[0]
    return QubitState(BlochVector(float(p[0]), float(p[1]), float(p[2])))


def random_density_matrix(seed, dim: int) -> GeneralState:
    """Ginibre-ensemble state G G^dag / tr(G G^dag) in dimension dim >= 2."""
    if dim < 2:
        raise BadDimension(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return GeneralState(m)

