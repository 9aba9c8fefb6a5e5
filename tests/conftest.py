"""Shared fixtures, strategies and independent oracle helpers.

Oracle matrices are built here from literal Pauli entries so the tests
do not lean on the package's own constants.  The dense master equation
is verify's oracle, the one copy in the repository.
"""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import qubitvar
from qubitvar.core import BlochVector, PauliObservable, QubitState
from qubitvar.feedback import step_times
from qubitvar.verify import master_rhs

# Environment for `python -m qubitvar` subprocesses: they import the same
# package as the tests, also when pytest found it through its pythonpath,
# and fail on a floating-point warning as the tests themselves do.
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(qubitvar.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
    PYTHONWARNINGS="error::RuntimeWarning",
)


def cli_processes(*argvs):
    """Start `python -m qubitvar` on each argv, all at once, under CLI_ENV;
    capture stdout and stderr."""
    return [
        subprocess.Popen(
            [sys.executable, "-m", "qubitvar", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
        )
        for args in argvs
    ]


def cli_outputs(*argvs):
    """Run `python -m qubitvar` on each argv, all processes at once; their stdout.

    Every process must exit 0 with nothing on stderr.
    """
    procs = cli_processes(*argvs)
    outputs = [proc.communicate() for proc in procs]  # every process ends before a check
    for proc, (_, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr.decode()
        assert stderr == b""
    return [stdout for stdout, _ in outputs]


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)

# Inputs for the array functions: Bloch vectors and coefficient rows.
ORIGIN = [0.0, 0.0, 0.0]  # Bloch vector of the maximally mixed state
Z_POLE = [0.0, 0.0, 1.0]  # |0><0|
X, Y, Z, I = np.eye(4)  # coefficient rows of sx, sy, sz and the identity


def oracle_state(px, py, pz):
    """Density matrix from literal 2x2 arithmetic."""
    return 0.5 * (ID + px * SX + py * SY + pz * SZ)


def oracle_obs(a1, a2, a3, a4):
    return a1 * SX + a2 * SY + a3 * SZ + a4 * ID


def oracle_expect(rho, obs):
    return np.trace(rho @ obs).real


def oracle_variance(rho, obs):
    return oracle_expect(rho, obs @ obs) - oracle_expect(rho, obs) ** 2


def oracle_commutator_term(rho, a, b):
    """|<[A,B]>/(2i)|^2 from dense traces."""
    return abs(np.trace(rho @ (a @ b - b @ a))) ** 2 / 4.0


def oracle_anticommutator_term(rho, a, b):
    """(<AB+BA>/2 - <A><B>)^2 from dense traces."""
    sym = oracle_expect(rho, a @ b + b @ a) / 2.0
    return (sym - oracle_expect(rho, a) * oracle_expect(rho, b)) ** 2


def oracle_xi(r, s):
    """2 tr(RS) - tr(R) tr(S)."""
    return (2.0 * np.trace(r @ s) - np.trace(r) * np.trace(s)).real


def oracle_rk4_matrices(alpha, lam, omega, t_end, h):
    """Dense 2x2 RK4 of master_rhs on the step_times grid, one matrix per time.

    Every step re-hermitizes and renormalizes the trace, as the package's
    integrator did before it propagated Bloch vectors.
    """
    times = step_times(t_end, h)
    rho = oracle_state(math.sin(2 * alpha), 0.0, math.cos(2 * alpha))
    rhs = partial(master_rhs, lam=lam, omega=omega)
    out = [rho]
    for i in range(1, len(times)):
        step = h if i < len(times) - 1 else float(times[i] - times[i - 1])
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        out.append(rho)
    return np.array(out)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def bloch_vectors(draw, pure=False):
    if pure:
        costheta = draw(st.floats(-1.0, 1.0, **finite))
        phi = draw(st.floats(0.0, 2 * math.pi, **finite))
        sintheta = math.sqrt(max(0.0, 1.0 - costheta**2))
        return BlochVector(sintheta * math.cos(phi), sintheta * math.sin(phi), costheta)
    px = draw(st.floats(-1.0, 1.0, **finite))
    py = draw(st.floats(-1.0, 1.0, **finite))
    pz = draw(st.floats(-1.0, 1.0, **finite))
    if px**2 + py**2 + pz**2 > 1.0:
        norm = math.sqrt(px**2 + py**2 + pz**2)
        scale = draw(st.floats(0.0, 1.0, **finite)) / norm
        px, py, pz = px * scale, py * scale, pz * scale
    return BlochVector(px, py, pz)


@st.composite
def qubit_states(draw, pure=False):
    return QubitState(draw(bloch_vectors(pure=pure)))


@st.composite
def observables(draw, span=5.0):
    coeffs = [draw(st.floats(-span, span, **finite)) for _ in range(4)]
    return PauliObservable(*coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
