"""Real-valued QCQP assembly for minimum-loss transmit current design.

The complex current vector i = [i_t; i_r] is mapped to the real variable
c = [Re(i_t); Re(i_r); Im(i_t)] of length M = 2N - 1; the receiver current
phase is fixed to zero, which loses no generality because the whole current
vector can be rotated by a common phase. Hermitian power matrices map to
real symmetric M x M matrices with the same quadratic form.

The receiver-side equalities are written once, as the affine block (A, b):
the KVL row and the fixed receiver current.  The semidefinite relaxation
lifts them from that row and the load (see :mod:`wptopt.kkt`) rather than
from constraint matrices of its own.  The power rows c^T G_j c >= h_j are
written once too, by `power_rows`, and every solver path reads them.  So
is the problem reduced to A c = b, by `build_problem` (see `QcqpProblem`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ImpedanceMatrix, partition
from .pims import port_impedance_matrices

__all__ = [
    "QcqpProblem",
    "realify",
    "build_affine",
    "power_rows",
    "build_problem",
    "evaluate",
    "current_residuals",
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


def build_affine(z, r_load):
    """Affine equalities A c = b: Re(v_r) = 0 and i_r = sqrt(2/R_L).

    Im(v_r) = 0 is not encoded; the receiver compensation reactance absorbs
    it for any current satisfying these two rows.
    """
    zmat = np.asarray(getattr(z, "entries", z), dtype=complex)
    n = zmat.shape[0]
    m = 2 * n - 1
    a = np.zeros((2, m))
    _, ztr, zr = partition(zmat)
    a[0] = np.concatenate([ztr.real, [zr.real + r_load], -ztr.imag])  # the KVL row
    a[1, n - 1] = 1.0
    b = np.array([0.0, np.sqrt(2.0 / r_load)])
    return a, b


def power_rows(n_tx, power_caps=None, constrain_powers=True):
    """The transmit-power rows sign * p[port] >= rhs, as a list of
    (port, sign, rhs): p_n >= 0 for every transmitter, then -p_n >= -cap_n
    for each under `power_caps`; none when the powers are not constrained."""
    if not constrain_powers:
        return []
    rows = [(n, 1.0, 0.0) for n in range(n_tx)]
    if power_caps is None:
        return rows
    caps = tuple(float(v) for v in power_caps)
    if len(caps) != n_tx:
        raise ValueError("one power cap per transmitter required")
    if not all(math.isfinite(v) for v in caps):
        raise ValueError(f"power caps must be finite, got {caps}")
    return rows + [(n, -1.0, -cap) for n, cap in enumerate(caps)]


# ---------------------------------------------------------------------------
# problem record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QcqpProblem:
    """Data of min c^T Q0 c s.t. c^T G[j] c >= h[j], A c = b, and the same
    problem reduced to the affine set A c = b, c = c_p + V y.

    q0 is the realified loss matrix (positive definite); q is the tuple of
    realified transmitter port power matrices (indefinite); g and h are the
    power rows of `power_rows`, G[j] = sign_j Q[port_j]; A c = b are the
    current equalities, A's first row the KVL row.

    The reduction, from one QR factorization of A^T, is what every solver
    of `wptopt.dual` reads: c_p solves A c = b, the columns of V are an
    orthonormal basis of null(A), hr0 is V^T Q0 V and hrn the flat rows of
    V^T G_j V, f0 is V^T Q0 c_p and fn the rows (G_j c_p)^T V, and
    lam_scale is |G_j| / |Q0|, the unit of each power row's multiplier.
    """

    n_tx: int
    r_load: float
    q0: np.ndarray
    q: tuple
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    h: np.ndarray
    cp: np.ndarray
    v: np.ndarray
    hr0: np.ndarray
    hrn: np.ndarray
    f0: np.ndarray
    fn: np.ndarray
    lam_scale: np.ndarray

    def __post_init__(self):
        reduced = (self.cp, self.v, self.hr0, self.hrn, self.f0, self.fn, self.lam_scale)
        for arr in (self.q0, self.a, self.b, self.g, self.h) + self.q + reduced:
            arr.setflags(write=False)

    def current_from_real(self, c):
        """Complex current vector corresponding to a real solution c."""
        return _realify_vector(c, self.n_tx + 1)


def build_problem(z, r_load, power_caps=None, constrain_powers=True):
    """Assemble the QCQP data from an impedance matrix and load, with the
    power rows of `power_rows`, and reduce it to the affine set once.

    The transmitter port matrices are those of Z itself: a transmitter's
    row of Z never holds the receiver's diagonal entry, where the load adds.
    """
    if isinstance(z, ImpedanceMatrix):
        zmat = z.entries
    else:
        zmat = np.asarray(z, dtype=complex)
    n = zmat.shape[0]
    if not 0.0 < r_load < math.inf:
        raise ValueError(f"load resistance must be positive and finite, got {r_load}")
    q0 = realify(zmat.real)
    q = tuple(realify(t) for t in port_impedance_matrices(zmat)[:-1])
    rows = power_rows(n - 1, power_caps, constrain_powers)
    g = np.array([sign * q[port] for port, sign, _ in rows]).reshape(-1, *q0.shape)
    h = np.array([rhs for *_, rhs in rows])
    a, b = build_affine(zmat, r_load)
    # orthonormal bases of range(A^T) and of its complement null(A)
    qa, ra = np.linalg.qr(a.T, mode="complete")
    rank = a.shape[0]
    cp = qa[:, :rank] @ np.linalg.solve(ra[:rank].T, b)
    v = qa[:, rank:]
    return QcqpProblem(
        n_tx=n - 1,
        r_load=float(r_load),
        q0=q0,
        q=q,
        a=a,
        b=b,
        g=g,
        h=h,
        cp=cp,
        v=v,
        hr0=v.T @ q0 @ v,
        hrn=(v.T @ g @ v).reshape(h.size, v.shape[1] ** 2),
        f0=v.T @ (q0 @ cp),
        fn=(g @ cp) @ v,
        lam_scale=np.linalg.norm(g, axis=(1, 2)) / np.linalg.norm(q0),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(problem, c):
    """(c^T Q0 c, the transmit powers c^T Q_n c) at a point c."""
    c = np.asarray(c, dtype=float)
    powers = np.array([float(c @ qn @ c) for qn in problem.q])
    powers.setflags(write=False)
    return float(c @ problem.q0 @ c), powers


def current_residuals(problem, c):
    """(KVL, received-power) residuals of the current equalities at c."""
    kvl = float((problem.a @ c - problem.b)[0])
    return kvl, float(0.5 * problem.r_load * c[problem.n_tx] ** 2 - 1.0)
