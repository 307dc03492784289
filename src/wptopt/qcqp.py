"""Real-valued QCQP assembly for minimum-loss transmit current design.

The complex current vector i = [i_t; i_r] is mapped to the real variable
c = [Re(i_t); Re(i_r); Im(i_t)] of length M = 2N - 1; the receiver current
phase is fixed to zero, which loses no generality because the whole current
vector can be rotated by a common phase. Hermitian power matrices map to
real symmetric M x M matrices with the same quadratic form.

Two encodings of the receiver-side equalities are provided: an affine block
(A, b) and the purely quadratic (conic) matrices used by the semidefinite
relaxation, where redundant rank-two equalities sharpen the lifted problem.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import ImpedanceMatrix, partition
from .pims import port_impedance_matrices

__all__ = [
    "QcqpProblem",
    "EvaluationReport",
    "realify",
    "build_affine",
    "build_conic",
    "build_problem",
    "evaluate",
]


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------


def realify(t):
    """Map a Hermitian N x N matrix to the real symmetric (2N-1) x (2N-1)
    matrix with the same quadratic form on currents whose receiver part is
    real.

    The full real embedding is (1/2) [[T', -T''], [T'', T']] on
    [Re(i); Im(i)]; fixing Im(i_r) = 0 deletes the last row and column.
    Satisfies c^T realify(T) c = (1/2) i^H T i for i = c_re + 1j*c_im with
    Im(i_r) = 0.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValueError("square matrix required")
    herm = np.abs(t - t.conj().T).max()
    if herm > 1e-10 * max(1.0, np.abs(t).max()):
        raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
    t = 0.5 * (t + t.conj().T)
    re, im = 0.5 * t.real, 0.5 * t.imag
    big = np.empty((2 * n, 2 * n))
    big[:n, :n] = big[n:, n:] = re
    big[:n, n:] = -im
    big[n:, :n] = im
    return big[: 2 * n - 1, : 2 * n - 1]


def _realify_vector(c, n):
    """Back-map c in R^(2N-1) to the complex current vector."""
    c = np.asarray(c, dtype=float)
    im = np.concatenate([c[n:], [0.0]])
    return c[:n] + 1j * im


# ---------------------------------------------------------------------------
# constraint builders
# ---------------------------------------------------------------------------


def _kvl_row(z, r_load):
    zt, ztr, zr = partition(z)
    return np.concatenate([ztr.real, [zr.real + r_load], -ztr.imag])


def build_affine(z, r_load):
    """Affine equalities A c = b: Re(v_r) = 0 and i_r = sqrt(2/R_L).

    Im(v_r) = 0 is not encoded; the receiver compensation reactance absorbs
    it for any current satisfying these two rows.
    """
    zmat = np.asarray(getattr(z, "entries", z), dtype=complex)
    n = zmat.shape[0]
    m = 2 * n - 1
    a = np.zeros((2, m))
    a[0] = _kvl_row(zmat, r_load)
    a[1, n - 1] = 1.0
    b = np.array([0.0, np.sqrt(2.0 / r_load)])
    return a, b


def build_conic(z, r_load):
    """Quadratic encodings of the same equalities for the lifted problem.

    Returns (K0, K_list, R): tr(K0 C) = 0 encodes the KVL row (K0 = k k^T is
    PSD rank one), tr(R C) = 1 encodes unit received power, and each
    K[m] = u_m k^T + k u_m^T is a redundant equality tr(K[m] C) = 0 that is
    implied at rank one but tightens the relaxation numerically.
    """
    zmat = np.asarray(getattr(z, "entries", z), dtype=complex)
    n = zmat.shape[0]
    m = 2 * n - 1
    k = _kvl_row(zmat, r_load)
    k0 = np.outer(k, k)
    k_list = []
    for j in range(m):
        km = np.zeros((m, m))
        km[j, :] += k
        km[:, j] += k
        k_list.append(km)
    r = np.zeros((m, m))
    r[n - 1, n - 1] = 0.5 * r_load
    return k0, k_list, r


# ---------------------------------------------------------------------------
# problem record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QcqpProblem:
    """Data of min c^T Q0 c s.t. c^T Q[n] c >= 0 (or <= cap), A c = b.

    q0 is the realified loss matrix (positive definite); q is the tuple of
    realified transmitter port power matrices (indefinite). k0, k_redundant
    and r_mat are the conic encodings used by the relaxation.
    """

    m: int
    n_tx: int
    r_load: float
    q0: np.ndarray
    q: tuple
    a: np.ndarray
    b: np.ndarray
    k0: np.ndarray
    k_redundant: tuple
    r_mat: np.ndarray
    power_caps: tuple = field(default=None)

    def __post_init__(self):
        for name in ("q0", "a", "b", "k0", "r_mat"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        for arr in self.q + self.k_redundant:
            arr.setflags(write=False)

    def current_from_real(self, c):
        """Complex current vector corresponding to a real solution c."""
        return _realify_vector(c, self.n_tx + 1)


def build_problem(z, r_load, power_caps=None):
    """Assemble the full QCQP data from an impedance matrix and load."""
    if isinstance(z, ImpedanceMatrix):
        zmat = z.entries
    else:
        zmat = np.asarray(z, dtype=complex)
    n = zmat.shape[0]
    if r_load <= 0:
        raise ValueError("r_load must be positive")
    q0 = realify(zmat.real)
    zloaded = zmat.copy()
    zloaded[-1, -1] += r_load
    pims = port_impedance_matrices(zloaded)
    q = tuple(realify(pims[j]) for j in range(n - 1))
    a, b = build_affine(zmat, r_load)
    k0, k_list, r_mat = build_conic(zmat, r_load)
    caps = None
    if power_caps is not None:
        caps = tuple(float(v) for v in power_caps)
        if len(caps) != n - 1:
            raise ValueError("one power cap per transmitter required")
        if not all(math.isfinite(v) for v in caps):
            raise ValueError(f"power caps must be finite, got {caps}")
    return QcqpProblem(
        m=2 * n - 1,
        n_tx=n - 1,
        r_load=float(r_load),
        q0=q0,
        q=q,
        a=a,
        b=b,
        k0=k0,
        k_redundant=tuple(k_list),
        r_mat=r_mat,
        power_caps=caps,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationReport:
    objective: float
    tx_powers: np.ndarray
    kvl_residual: float
    pl_residual: float


def evaluate(problem, c):
    """Objective, per-port powers and constraint residuals at a point c."""
    c = np.asarray(c, dtype=float)
    obj = float(c @ problem.q0 @ c)
    powers = np.array([float(c @ qn @ c) for qn in problem.q])
    res = problem.a @ c - problem.b
    report = EvaluationReport(
        objective=obj,
        tx_powers=powers,
        kvl_residual=float(res[0]),
        pl_residual=float(0.5 * problem.r_load * c[problem.n_tx] ** 2 - 1.0),
    )
    report.tx_powers.setflags(write=False)
    return report

