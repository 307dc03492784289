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

from .circuit import ImpedanceMatrix
from .pims import _port_stack

__all__ = [
    "QcqpProblem",
    "realify",
    "build_affine",
    "power_rows",
    "build_problem",
    "build_problems",
    "evaluate",
    "current_residuals",
]


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------


def realify(t):
    """Map a Hermitian N x N matrix to the real symmetric (2N-1) x (2N-1)
    matrix with the same quadratic form on currents whose receiver part is
    real; a (..., N, N) stack maps matrix by matrix.

    The full real embedding is (1/2) [[T', -T''], [T'', T']] on
    [Re(i); Im(i)]; fixing Im(i_r) = 0 deletes the last row and column.
    Satisfies c^T realify(T) c = (1/2) i^H T i for i = c_re + 1j*c_im with
    Im(i_r) = 0.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[-1]
    if t.ndim < 2 or t.shape[-2] != n:
        raise ValueError("square matrix required")
    flat = t.reshape(-1, n * n)
    herm = np.abs(flat - np.swapaxes(t, -1, -2).conj().reshape(-1, n * n)).max(axis=1)
    if (herm > 1e-10 * np.fmax(1.0, np.abs(flat).max(axis=1))).any():
        raise ValueError(f"matrix is not Hermitian (deviation {herm.max():.3e})")
    return _realify(t)


def _realify(t):
    """`realify` of a stack of matrices that are Hermitian already."""
    n = t.shape[-1]
    t = 0.5 * (t + np.swapaxes(t, -1, -2).conj())
    re, im = 0.5 * t.real, 0.5 * t.imag
    big = np.empty(t.shape[:-2] + (2 * n, 2 * n))
    big[..., :n, :n] = big[..., n:, n:] = re
    big[..., :n, n:] = -im
    big[..., n:, :n] = im
    return big[..., : 2 * n - 1, : 2 * n - 1]


def _realify_vector(c, n):
    """Back-map c in R^(2N-1), or a (..., 2N-1) stack, to the complex
    current vector."""
    c = np.asarray(c, dtype=float)
    im = np.concatenate([c[..., n:], np.zeros(c.shape[:-1] + (1,))], axis=-1)
    return c[..., :n] + 1j * im


# ---------------------------------------------------------------------------
# constraint builders
# ---------------------------------------------------------------------------


def build_affine(z, r_load):
    """Affine equalities A c = b: Re(v_r) = 0 and i_r = sqrt(2/R_L).  A
    (K, N, N) stack of matrices with K loads gives (K, 2, M) and (K, 2).

    Im(v_r) = 0 is not encoded; the receiver compensation reactance absorbs
    it for any current satisfying these two rows.
    """
    zmat = np.asarray(getattr(z, "entries", z), dtype=complex)
    r_load = np.asarray(r_load, dtype=float)
    n = zmat.shape[-1]
    ztr, zr = zmat[..., :-1, -1], zmat[..., -1, -1]
    a = np.zeros(zmat.shape[:-2] + (2, 2 * n - 1))
    a[..., 0, : n - 1] = ztr.real  # the KVL row
    a[..., 0, n - 1] = zr.real + r_load
    a[..., 0, n:] = -ztr.imag
    a[..., 1, n - 1] = 1.0
    b = np.zeros(zmat.shape[:-2] + (2,))
    b[..., 1] = np.sqrt(2.0 / r_load)
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

    A stack of problems of one size, as `build_problems` makes, is a
    QcqpProblem too: every array (each of q as well) carries a leading row
    axis and r_load is the array of loads.  `row` takes one problem out of
    a stack and `stack` makes a stack of one problem, both as views.
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

    def row(self, i):
        """Problem i of a stack."""
        return self._map(lambda arr: arr[i], float(self.r_load[i]))

    def take(self, rows):
        """The stack of the given rows of a stack."""
        return self._map(lambda arr: arr[rows], self.r_load[rows])

    def stack(self):
        """This problem as a stack of one."""
        return self._map(lambda arr: arr[None], np.array([self.r_load]))

    def _map(self, view, r_load):
        arrays = {name: view(getattr(self, name)) for name in _ARRAYS}
        return QcqpProblem(self.n_tx, r_load, q=tuple(map(view, self.q)), **arrays)


_ARRAYS = ("q0", "a", "b", "g", "h", "cp", "v", "hr0", "hrn", "f0", "fn", "lam_scale")


def build_problem(z, r_load, power_caps=None, constrain_powers=True):
    """Assemble the QCQP data from an impedance matrix and load, with the
    power rows of `power_rows`, and reduce it to the affine set once: the
    one-link case of `build_problems`.
    """
    zmat = z.entries if isinstance(z, ImpedanceMatrix) else np.asarray(z, dtype=complex)
    return build_problems(zmat[None], [r_load], power_caps, constrain_powers).row(0)


def build_problems(zs, r_loads, power_caps=None, constrain_powers=True):
    """The stack of the problems of same-size links at their loads, built
    in one pass of stacked numpy; row i is bit for bit `build_problem` of
    link i alone.  ``zs`` is a (K, N, N) array or K ImpedanceMatrix.

    The transmitter port matrices are those of Z itself: a transmitter's
    row of Z never holds the receiver's diagonal entry, where the load adds.
    """
    zmat = np.array([getattr(z, "entries", z) for z in zs], dtype=complex)
    for r in r_loads:
        if not 0.0 < r < math.inf:
            raise ValueError(f"load resistance must be positive and finite, got {r}")
    r_load = np.array(r_loads, dtype=float)
    k_rows, n = zmat.shape[:2]
    q0 = realify(zmat.real)
    q = _realify(_port_stack(zmat)[:, :-1])  # (K, N - 1, M, M), Hermitian by construction
    rows = power_rows(n - 1, power_caps, constrain_powers)
    ports = [port for port, _, _ in rows]
    signs = np.array([sign for _, sign, _ in rows]).reshape(-1, 1, 1)
    g = signs * q[:, ports]
    h = np.array([[rhs for *_, rhs in rows]] * k_rows, dtype=float)
    a, b = build_affine(zmat, r_load)
    # orthonormal bases of range(A^T) and of its complement null(A)
    qa, ra = np.linalg.qr(a.mT, mode="complete")
    rank = a.shape[1]
    cp = (qa[..., :rank] @ np.linalg.solve(ra[:, :rank].mT, b[..., None]))[..., 0]
    v = qa[..., rank:]
    v_t = v.mT
    return QcqpProblem(
        n_tx=n - 1,
        r_load=r_load,
        q0=q0,
        q=tuple(q[:, port] for port in range(n - 1)),
        a=a,
        b=b,
        g=g,
        h=h,
        cp=cp,
        v=v,
        hr0=v_t @ q0 @ v,
        hrn=(v_t[:, None] @ g @ v[:, None]).reshape(k_rows, len(rows), v.shape[-1] ** 2),
        f0=(v_t @ (q0 @ cp[..., None]))[..., 0],
        fn=(g @ cp[:, None, :, None])[..., 0] @ v,
        lam_scale=np.sqrt(np.add.reduce(g * g, axis=(2, 3))) / _frobenius(q0)[:, None],
    )


def _frobenius(m):
    """np.linalg.norm of each matrix of a stack, bit for bit: the root of
    the flattened matrix's dot product with itself."""
    flat = m.reshape(len(m), 1, -1)
    return np.sqrt(flat @ flat.mT)[:, 0, 0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(problem, c):
    """(c^T Q0 c, the transmit powers c^T Q_n c) at a point c; on a stack of
    problems, at a (K, M) stack of points, as K losses and (K, N - 1)
    powers."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        objective, powers = evaluate(problem.stack(), c[None])
        return float(objective[0]), powers[0]
    row, col = c[:, None, :], c[:, :, None]
    q = np.stack(problem.q, axis=1)
    powers = (row[:, None] @ q @ col[:, None])[..., 0, 0]
    powers.setflags(write=False)
    return (row @ problem.q0 @ col)[:, 0, 0], powers


def current_residuals(problem, c):
    """(KVL, received-power) residuals of the current equalities at c; on a
    stack of problems, at a (K, M) stack of points, as two arrays of K."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        kvl, pl = current_residuals(problem.stack(), c[None])
        return float(kvl[0]), float(pl[0])
    kvl = ((problem.a @ c[:, :, None])[:, :, 0] - problem.b)[:, 0]
    # c_r ** 2 of each row as a scalar (libm's pow), which the square of an
    # array now and then differs from in the last bit
    pl = [0.5 * r * c_r**2 - 1.0 for r, c_r in zip(problem.r_load.tolist(), c[:, problem.n_tx])]
    return kvl, np.array(pl)
