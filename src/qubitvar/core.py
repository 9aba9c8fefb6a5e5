"""Single-qubit state and observable algebra in the Bloch representation.

A qubit density matrix is rho = (I + px*sx + py*sy + pz*sz)/2 with
px^2 + py^2 + pz^2 <= 1, and any 2x2 Hermitian observable is a real
combination a1*sx + a2*sy + a3*sz + a4*I.  Every moment is a closed form
in these coefficients, evaluated over stacked rows; one row runs on
Python floats, with a stack's bits.  The representation changes map
stacks of Bloch vectors or coefficients to stacks of dense matrices and
back; dense matrices otherwise serve, in verify and the tests, as the
independent oracle.  General d-dimensional density matrices appear only
for the mixedness convexity property, as (..., d, d) stacks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument

# Pauli matrices in the (|0>, |1>) basis, |0> being the +1 eigenvector of sz.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# Tolerance policy: exact-algebra representation checks at 1e-12,
# positivity at -1e-10 (eigenvalue scale).
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
BLOCH_NORM_TOL = 1e-12
POSITIVITY_TOL = 1e-10
# Largest observable coefficient accepted.  The closed forms multiply at
# most four coefficients, e.g. the Gram determinant's 16 |a|^2 |b|^2 <=
# 144 c^4; c^4 a factor 1e4 below the largest float keeps them all finite.
COEFF_MAX = (sys.float_info.max / 1e4) ** 0.25


def _require_finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidArgument(f"components must be finite, got {values}")


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (px, py, pz) inside the closed unit ball."""

    px: float
    py: float
    pz: float

    def __post_init__(self):
        _require_finite(self.px, self.py, self.pz)
        bloch_array(self.as_array())

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix, stored as a Bloch vector."""

    bloch: BlochVector


@dataclass(frozen=True)
class PauliObservable:
    """Hermitian observable a1*sx + a2*sy + a3*sz + a4*I with real coefficients."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        _require_finite(self.a1, self.a2, self.a3, self.a4)
        if max(map(abs, (self.a1, self.a2, self.a3, self.a4))) > COEFF_MAX:
            raise InvalidArgument(f"coefficients above {COEFF_MAX:.3g} overflow the moments")

    @cached_property
    def coeffs(self) -> np.ndarray:
        """(a1, a2, a3, a4) as a read-only array, the form the moment functions take."""
        c = np.array([self.a1, self.a2, self.a3, self.a4])
        c.flags.writeable = False
        return c


OBS_X = PauliObservable(1.0, 0.0, 0.0, 0.0)
OBS_Y = PauliObservable(0.0, 1.0, 0.0, 0.0)
OBS_Z = PauliObservable(0.0, 0.0, 1.0, 0.0)
OBS_I = PauliObservable(0.0, 0.0, 0.0, 1.0)


# Validation rules over (..., d, d) stacks; each error names the first
# offending matrix (the largest deviation for Hermiticity).

def _require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    """Finite entries and max |m - m^dag| <= tol."""
    if not np.isfinite(matrix).all():
        raise InvalidArgument("matrix entries must be finite")
    dev = np.abs(matrix - np.swapaxes(matrix.conj(), -1, -2)).max(initial=0.0)
    if dev > tol:
        raise InvalidArgument(f"max |m - m^dag| = {dev:.3e}")


def _require_state(matrix: np.ndarray) -> None:
    """Unit trace and eigenvalues >= -1e-10 for every matrix of a Hermitian stack.

    rho + 1e-10 I has a Cholesky factor exactly when every eigenvalue of
    rho exceeds -1e-10, up to rounding, and factoring costs a fraction of
    eigvalsh.  So eigvalsh runs only on a stack that fails to factor: it
    decides at the floor and names the first offending matrix.
    """
    tr = np.trace(matrix, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if _any(off):
        raise InvalidArgument(f"trace = {np.extract(off, tr)[0]:.15g}")
    try:
        np.linalg.cholesky(matrix + POSITIVITY_TOL * np.eye(matrix.shape[-1]))
    except np.linalg.LinAlgError:
        eigmin = np.linalg.eigvalsh(matrix)[..., 0]
        negative = eigmin < -POSITIVITY_TOL
        if _any(negative):
            raise InvalidArgument(
                f"min eigenvalue = {np.extract(negative, eigmin)[0]:.3e}"
            ) from None


# ---------------------------------------------------------------------------
# representation changes
# ---------------------------------------------------------------------------

_PAULI_BASIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z, IDENTITY])


def density_matrices(p) -> np.ndarray:
    """Dense (I + p . sigma)/2 for every Bloch vector along the last axis of p."""
    p = np.asarray(p, dtype=float)[..., None, None]
    return 0.5 * (IDENTITY + p[..., 0, :, :] * PAULI_X + p[..., 1, :, :] * PAULI_Y
                  + p[..., 2, :, :] * PAULI_Z)


def _hermitian_2x2(matrix) -> np.ndarray:
    """matrix as a complex (..., 2, 2) stack, checked finite and Hermitian."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[-2:] != (2, 2):
        raise InvalidArgument(f"expected (..., 2, 2), got {matrix.shape}")
    _require_hermitian(matrix)
    return matrix


def _pauli_traces(matrix: np.ndarray) -> np.ndarray:
    """Real parts of tr(m sx), tr(m sy), tr(m sz), tr(m) along a new last axis."""
    return np.einsum("...ij,kji->...k", matrix, _PAULI_BASIS).real


def matrix_to_bloch(matrix) -> np.ndarray:
    """p_k = tr(rho sigma_k) for a (..., 2, 2) stack of density matrices, shape (..., 3).

    The inverse of density_matrices; every matrix must be a valid state.
    """
    matrix = _hermitian_2x2(matrix)
    _require_state(matrix)
    return bloch_array(_pauli_traces(matrix)[..., :3])


def decompose_observable(matrix) -> np.ndarray:
    """Coefficients (a1, a2, a3, a4), a_k = tr(m sigma_k)/2 and a4 = tr(m)/2, of a
    Hermitian (..., 2, 2) stack, shape (..., 4): the rows the moment functions take."""
    return _pauli_traces(_hermitian_2x2(matrix)) / 2


# ---------------------------------------------------------------------------
# moments: Bloch closed forms over arrays
# ---------------------------------------------------------------------------
# p holds Bloch vectors along its last axis, a, b, r, s observable
# coefficients (a1, a2, a3, a4); rows broadcast.  Formulas index the
# component-major form (x[k] is component k, the leading axes kept in
# order): a list of Python floats for one row, an array of columns for a
# stack.  The primitives below take the builtin on a number and the ufunc
# on an array, so one row runs in Python floats, a fraction of numpy
# scalars' cost, and a stack in columns, bit for bit alike.  Squares are
# written as products because ** 2 goes through libm pow.

def _dot(x, y):
    """x . y over components 0-2 of component-major x and y."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _any(mask) -> bool:
    """mask.any(), without the reduction machinery for a single row."""
    return bool(mask.any() if type(mask) is np.ndarray else mask)


def _where(mask, x, y):
    """np.where(mask, x, y); a conditional when mask and x are numbers."""
    if type(mask) is np.ndarray or type(x) is np.ndarray:
        return np.where(mask, x, y)
    return x if mask else y


def _nonnegative(x):
    """np.maximum(x, 0.0): NaN kept, -0.0 read as 0.0."""
    return np.maximum(x, 0.0) if type(x) is np.ndarray else (0.0 if x <= 0.0 else x)


def _unit_interval(x):
    """x clamped to [0, 1], NaN kept."""
    x = _nonnegative(x)
    return np.minimum(x, 1.0) if type(x) is np.ndarray else min(x, 1.0)


def _sqrt(x):
    return np.sqrt(x) if type(x) is np.ndarray else math.sqrt(x)


def _scaled(vec, norm):
    """vec / norm for component-major vec."""
    return [v / norm for v in vec] if type(vec) is list else vec / norm


def _result(x):
    """x, a one-row number as a numpy scalar."""
    return x if type(x) is np.ndarray else np.float64(x)


def _components(x) -> np.ndarray | list:
    """Rows along the last axis of x, component-major: (k,) + x.shape[:-1]; one row as a list.

    np.moveaxis(x, -1, 0) without its Python-level axis checks, which cost
    microseconds a call; most stacks are (n, k), where the plain transpose
    is the cheapest spelling.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x.tolist()
    return x.T if x.ndim <= 2 else x.transpose((-1, *range(x.ndim - 1)))


def _outside_ball(p):
    """|p|^2 per row of component-major p, and where it exceeds 1 + 1e-12 or is not finite."""
    norm_sq = _dot(p, p)
    inside = norm_sq <= 1.0 + BLOCH_NORM_TOL
    return norm_sq, ~inside if type(inside) is np.ndarray else not inside


def _ball_components(p) -> np.ndarray:
    """Component-major view of Bloch vectors p, checked to lie in the Bloch ball."""
    p = _components(p)
    norm_sq, outside = _outside_ball(p)
    if _any(outside):
        raise InvalidArgument(
            f"|p|^2 = {np.extract(outside, norm_sq)[0]:.15g} exceeds 1 + {BLOCH_NORM_TOL:g}"
        )
    return p


def bloch_array(p) -> np.ndarray:
    """p as a float array, checked to lie in the Bloch ball: |p|^2 <= 1 + 1e-12.

    NaN and infinite rows fail the check too.
    """
    p = np.asarray(p, dtype=float)
    _ball_components(p)
    return p


def variances(p, a) -> np.ndarray:
    """<A^2> - <A>^2 = |a|^2 - (a.p)^2, clamped at zero.

    The ball check bounds what the clamp can hide: |p|^2 <= 1 + 1e-12
    gives |a|^2 - (a.p)^2 >= -1e-12 |a|^2 up to rounding, in A's own units.
    """
    a = _components(a)
    return _result(_variance(_dot(a, a), _dot(a, _ball_components(p))))


def commutator_terms(p, a, b) -> np.ndarray:
    """|<[A,B]>/(2i)|^2 = ((a x b) . p)^2."""
    return _result(_commutator_term(_components(a), _components(b), _ball_components(p)))


def anticommutator_terms(p, a, b) -> np.ndarray:
    """Squared symmetrized covariance (<AB+BA>/2 - <A><B>)^2 = (a.b - (a.p)(b.p))^2."""
    a, b, p = _components(a), _components(b), _ball_components(p)
    return _result(_anticommutator_term(_dot(a, b), _dot(a, p), _dot(b, p)))


def xi_values(r, s) -> np.ndarray:
    """Trace form 2 tr(RS) - tr(R) tr(S) = 4 r.s; identity shifts drop out."""
    return _result(4.0 * _dot(_components(r), _components(s)))


def mixedness_values(p) -> np.ndarray:
    """1 - tr(rho^2) = (1 - |p|^2)/2, in [0, 1/2] for a qubit."""
    return _result(_mixedness(_ball_components(p)))


# The closed forms behind the moment functions, each written once, on
# checked component-major arrays or on their projections |a|^2, a.p, a.b.
# relations builds every field of a report from them after checking its
# inputs once.

def _variance(aa, ap):
    """Variance from |a|^2 and a.p, clamped at zero."""
    return _nonnegative(aa - ap * ap)


def _commutator_term(a, b, p):
    """((a x b) . p)^2."""
    triple = (
        (a[1] * b[2] - a[2] * b[1]) * p[0]
        + (a[2] * b[0] - a[0] * b[2]) * p[1]
        + (a[0] * b[1] - a[1] * b[0]) * p[2]
    )
    return triple * triple


def _anticommutator_term(ab, ap, bp):
    """Squared covariance (a.b - (a.p)(b.p))^2 from a.b, a.p and b.p."""
    covariance = ab - ap * bp
    return covariance * covariance


def _mixedness(p):
    """(1 - |p|^2)/2 of checked Bloch vectors, clamped at zero."""
    return _nonnegative(0.5 * (1.0 - _dot(p, p)))


def _symmetrized(a, b, ab) -> list:
    """Components of (AB + BA)/2, (a4 b + b4 a, a.b + a4 b4), from
    component-major a, b and a.b."""
    return [a[3] * b[k] + b[3] * a[k] for k in range(3)] + [ab + a[3] * b[3]]


def symmetrized_products(a, b) -> np.ndarray:
    """Coefficients of (AB + BA)/2: (a4 b + b4 a, a.b + a4 b4)."""
    a, b = _components(a), _components(b)
    # back to rows by one transpose: np.stack(..., axis=-1) costs microseconds more a call
    c = np.array(_symmetrized(a, b, _dot(a, b)))
    return c.T if c.ndim <= 2 else c.transpose((*range(1, c.ndim), 0))


def mixedness(state: QubitState) -> float:
    return float(mixedness_values(state.bloch.as_array()))


def mixedness_general(rho) -> np.ndarray:
    """1 - tr(rho^2) for each d-dimensional state of a (..., d, d) stack, in [0, (d-1)/d].

    Every matrix must be a valid state: finite, Hermitian, unit trace, positive.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidArgument(f"expected (..., d, d), got shape {rho.shape}")
    _require_hermitian(rho)
    _require_state(rho)
    return np.maximum(1.0 - np.einsum("...ij,...ji->...", rho, rho).real, 0.0)


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
    raise InvalidArgument(f"kind must be 'pure' or 'mixed', got {kind!r}")


def random_density_matrix(seed, dim: int) -> np.ndarray:
    """Ginibre-ensemble state G G^dag / tr(G G^dag) in dimension dim >= 2."""
    if dim < 2:
        raise InvalidArgument(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)

