"""Single-qubit state and observable algebra in the Bloch representation.

A qubit density matrix is rho = (I + px*sx + py*sy + pz*sz)/2 with
px^2 + py^2 + pz^2 <= 1, and any 2x2 Hermitian observable is a real
combination a1*sx + a2*sy + a3*sz + a4*I.  Every moment is a closed form
in these coefficients, evaluated over stacked rows; the per-object
functions are its n = 1 forms.  Dense matrices serve representation
changes and, in verify and the tests, as the independent oracle.
General d-dimensional density matrices appear only for the mixedness
convexity property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDimension, BlochNormExceeded, NonFiniteInput, NotHermitian, NotPositive,
    NumericalInconsistency, TraceNotOne
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


def _require_finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteInput(f"components must be finite, got {values}")


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (px, py, pz) inside the closed unit ball."""

    px: float
    py: float
    pz: float

    def __post_init__(self):
        _require_finite(self.px, self.py, self.pz)
        bloch_array(self.as_array())

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
        m = density_matrices(self.bloch.as_array())
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class PauliObservable:
    """Hermitian observable a1*sx + a2*sy + a3*sz + a4*I with real coefficients."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        _require_finite(self.a1, self.a2, self.a3, self.a4)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """(a1, a2, a3, a4) as a read-only array, the form the moment functions take."""
        c = np.array([self.a1, self.a2, self.a3, self.a4])
        c.flags.writeable = False
        return c

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

def density_matrices(p) -> np.ndarray:
    """Dense (I + p . sigma)/2 for every Bloch vector along the last axis of p."""
    p = np.asarray(p, dtype=float)[..., None, None]
    return 0.5 * (IDENTITY + p[..., 0, :, :] * PAULI_X + p[..., 1, :, :] * PAULI_Y
                  + p[..., 2, :, :] * PAULI_Z)


def bloch_to_matrix(bloch) -> QubitState:
    """Build the state (I + p . sigma)/2 from a Bloch vector (or 3-sequence)."""
    if not isinstance(bloch, BlochVector):
        px, py, pz = (float(c) for c in bloch)
        bloch = BlochVector(px, py, pz)
    return QubitState(bloch)


def _pauli_traces(matrix: np.ndarray) -> list[float]:
    """Real parts of tr(m sx), tr(m sy), tr(m sz), tr(m) for a 2x2 matrix m."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise BadDimension(f"expected 2x2, got {matrix.shape}")
    _require_hermitian(matrix)
    return [float(np.trace(matrix @ s).real) for s in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY)]


def matrix_to_bloch(matrix: np.ndarray) -> BlochVector:
    """Extract p_k = tr(rho sigma_k) from a valid 2x2 density matrix."""
    traces = _pauli_traces(matrix)
    GeneralState(matrix)  # unit trace and positivity
    return BlochVector(*traces[:3])


def decompose_observable(matrix: np.ndarray) -> PauliObservable:
    """Coefficients a_k = tr(m sigma_k)/2, a4 = tr(m)/2 of a Hermitian 2x2 matrix."""
    return PauliObservable(*(t / 2 for t in _pauli_traces(matrix)))


# ---------------------------------------------------------------------------
# moments: Bloch closed forms over arrays
# ---------------------------------------------------------------------------
# p holds Bloch vectors along its last axis, a, b, r, s observable
# coefficients (a1, a2, a3, a4); rows broadcast.  Formulas index the
# transposed arrays (x[k] is component k), so one row runs in numpy
# scalars and a stack in columns, bit for bit alike.  Squares are written
# as products because a numpy scalar's ** 2 goes through libm pow.

def _dot(x, y):
    """x . y over components 0-2 of component-major x and y."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _any(mask) -> bool:
    """mask.any(), without the reduction machinery for a single row."""
    return bool(mask.any() if mask.ndim else mask)


def _coeffs(a) -> np.ndarray:
    """Component-major view of observable coefficient rows."""
    return np.asarray(a, dtype=float).T


def bloch_array(p) -> np.ndarray:
    """p as a float array, checked to lie in the Bloch ball: |p|^2 <= 1 + 1e-12.

    NaN and infinite rows fail the check too.
    """
    p = np.asarray(p, dtype=float)
    norm_sq = _dot(p.T, p.T)
    outside = ~(norm_sq <= 1.0 + BLOCH_NORM_TOL)
    if _any(outside):
        raise BlochNormExceeded(
            f"|p|^2 = {np.extract(outside, norm_sq)[0]:.15g} exceeds 1 + {BLOCH_NORM_TOL:g}"
        )
    return p


def expectations(p, a) -> np.ndarray:
    """tr(rho A) = a.p + a4."""
    a = _coeffs(a)
    return _dot(a, bloch_array(p).T) + a[3]


def variances(p, a) -> np.ndarray:
    """<A^2> - <A>^2 = |a|^2 - (a.p)^2, clamped at zero against rounding noise.

    A value below -1e-12 cannot come from rounding and raises
    NumericalInconsistency instead of being hidden by the clamp.
    """
    a = _coeffs(a)
    mean = _dot(a, bloch_array(p).T)
    var = _dot(a, a) - mean * mean
    if _any(var < -VARIANCE_CLAMP):
        raise NumericalInconsistency(f"variance = {np.min(var):.3e}")
    return np.maximum(var, 0.0)


def commutator_terms(p, a, b) -> np.ndarray:
    """|<[A,B]>/(2i)|^2 = ((a x b) . p)^2."""
    a, b, p = _coeffs(a), _coeffs(b), bloch_array(p).T
    triple = (
        (a[1] * b[2] - a[2] * b[1]) * p[0]
        + (a[2] * b[0] - a[0] * b[2]) * p[1]
        + (a[0] * b[1] - a[1] * b[0]) * p[2]
    )
    return triple * triple


def anticommutator_terms(p, a, b) -> np.ndarray:
    """Squared symmetrized covariance (<AB+BA>/2 - <A><B>)^2 = (a.b - (a.p)(b.p))^2."""
    a, b, p = _coeffs(a), _coeffs(b), bloch_array(p).T
    covariance = _dot(a, b) - _dot(a, p) * _dot(b, p)
    return covariance * covariance


def xi_values(r, s) -> np.ndarray:
    """Trace form 2 tr(RS) - tr(R) tr(S) = 4 r.s; identity shifts drop out."""
    return 4.0 * _dot(_coeffs(r), _coeffs(s))


def mixedness_values(p) -> np.ndarray:
    """1 - tr(rho^2) = (1 - |p|^2)/2, in [0, 1/2] for a qubit."""
    p = bloch_array(p).T
    return np.maximum(0.5 * (1.0 - _dot(p, p)), 0.0)


def symmetrized_products(a, b) -> np.ndarray:
    """Coefficients of (AB + BA)/2: (a4 b + b4 a, a.b + a4 b4)."""
    a, b = _coeffs(a), _coeffs(b)
    return np.stack(
        [a[3] * b[k] + b[3] * a[k] for k in range(3)] + [_dot(a, b) + a[3] * b[3]], axis=-1
    )


# n = 1 forms over the per-object types

def expectation(state: QubitState, obs: PauliObservable) -> float:
    return float(expectations(state.bloch.as_array(), obs.coeffs))


def variance(state: QubitState, obs: PauliObservable) -> float:
    return float(variances(state.bloch.as_array(), obs.coeffs))


def commutator_term(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    return float(commutator_terms(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


def anticommutator_term(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    return float(anticommutator_terms(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


def xi(obs_r: PauliObservable, obs_s: PauliObservable) -> float:
    return float(xi_values(obs_r.coeffs, obs_s.coeffs))


def mixedness(state: QubitState) -> float:
    return float(mixedness_values(state.bloch.as_array()))


def mixedness_general(state: GeneralState) -> float:
    """1 - tr(rho^2) for a d-dimensional state, in [0, (d-1)/d]."""
    value = 1.0 - float(np.trace(state.matrix @ state.matrix).real)
    return max(value, 0.0)


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

