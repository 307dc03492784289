"""Per-port power algebra: port impedance matrices and their eigensystems.

The total real power fed into an N-port network, P = Re(i^H Z i)/2,
splits exactly into per-port contributions P_n = Re(i^H T_n i)/2 with

    T_n = (e_n e_n^T Z + Z^H e_n e_n^T) / 2,      sum_n T_n = Re(Z).

Each T_n is Hermitian, indefinite, and rank 2: it has one positive and
one negative eigenvalue (plus N-2 zeros) with closed-form eigenpairs,
which is what makes the transmit-power constraints of the operating
point optimization tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _entries(z) -> np.ndarray:
    m = getattr(z, "entries", z)
    return np.asarray(m, dtype=complex)


def port_impedance_matrices(z) -> list[np.ndarray]:
    """All N port impedance matrices of a (loaded) impedance matrix.

    Accepts an ImpedanceMatrix or a plain complex symmetric array, such as
    the loaded matrix (R_L added to the receiver's diagonal entry).
    Returns Hermitian matrices T_n with sum_n T_n == Re(Z) exactly up to
    rounding.
    """
    return list(_port_stack(_entries(z)))


def _port_stack(m: np.ndarray) -> np.ndarray:
    """T_n of every matrix in a (..., N, N) stack, as (..., N, N, N) with n
    on axis -3: row n of T_n is half of row n of m, and its column n adds
    half of that row's conjugate."""
    n = m.shape[-1]
    t = np.zeros(m.shape[:-2] + (n, n, n), dtype=complex)
    # writeable diagonal views: rows n and columns n of every T_n.  Fancy
    # indexing would do the same but releases the GIL, which costs a thread
    # switch per call when threads share the process
    np.einsum("...kkb->...kb", t)[...] += 0.5 * m
    np.einsum("...kbk->...kb", t)[...] += 0.5 * m.conj()
    return t


def port_power(i: np.ndarray, t: np.ndarray) -> float:
    """Real power fed through one port: Re(i^H T_n i) / 2."""
    i = np.asarray(i, dtype=complex)
    return 0.5 * float(np.real(np.vdot(i, t @ i)))


def port_powers(z: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Per-port real powers Re(i^H T_n i) / 2 of a (..., N, N) stack of
    matrices driven by a (..., N) stack of current vectors, as (..., N).

    Each entry is bit for bit :func:`port_power` of its own matrix and
    vector: one matrix-vector product and one conjugated dot per port.
    """
    i = np.asarray(i, dtype=complex)
    ti = (_port_stack(np.asarray(z, dtype=complex)) @ i[..., None, :, None])[..., 0]
    return 0.5 * np.vecdot(i[..., None, :], ti).real


@dataclass(frozen=True)
class PimEigensystem:
    """Closed-form eigensystem of a port impedance matrix.

    ``lam_plus``/``lam_minus`` are the magnitudes of the positive and
    negative eigenvalues (both nonnegative); ``v_plus``/``v_minus`` the
    corresponding unnormalized eigenvectors.  ``rank_one`` marks the
    degenerate uncoupled-port case where the negative eigenvalue
    vanishes and ``v_minus`` is zero.
    """

    port: int
    lam_plus: float
    lam_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    rank_one: bool


def _eigensystem_from_row(port: int, r_n: float, s: np.ndarray) -> PimEigensystem:
    s_sq = float(np.real(np.vdot(s, s)))
    root = np.hypot(np.sqrt(s_sq), r_n)
    lam_plus = 0.5 * (root + r_n)
    lam_minus = 0.5 * (root - r_n)
    n = s.shape[0]
    e_n = np.zeros(n, dtype=complex)
    e_n[port] = 1.0
    w = s.conj()
    v_plus = 2.0 * lam_plus * e_n + w
    v_minus = 2.0 * lam_minus * e_n - w
    rank_one = lam_minus <= 1e-30 * max(lam_plus, 1e-300)
    if rank_one:
        v_minus = np.zeros(n, dtype=complex)
    return PimEigensystem(port, lam_plus, lam_minus, v_plus, v_minus, rank_one)


def pim_eigensystem(z, port: int) -> PimEigensystem:
    """Eigensystem of T_port without forming or diagonalizing it.

    With S^2 the total squared coupling magnitude of the port and R its
    input resistance, the nonzero eigenvalues are

        +lam_plus, -lam_minus,   lam_pm = (sqrt(S^2 + R^2) +- R) / 2

    with eigenvectors 2 lam_pm e_n +- conj(s), where s is the off-
    diagonal part of row n.
    """
    m = _entries(z)
    n = m.shape[0]
    if not 0 <= port < n:
        raise IndexError(f"port {port} out of range for {n}-port matrix")
    s = m[port, :].copy()
    r_n = float(s[port].real)
    s[port] = 0.0
    return _eigensystem_from_row(port, r_n, s)


def pim_split(t: np.ndarray, port: int | None = None):
    """Split a port impedance matrix into its PSD parts, T = T_plus - T_minus.

    Both parts are Hermitian PSD and rank one, built from the closed-form
    eigenpairs; ``trace(T_plus) - trace(T_minus)`` equals the port input
    resistance.  For an uncoupled port T_minus is zero.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    if port is None:
        port = int(np.argmax(np.abs(t).sum(axis=1)))
    row = 2.0 * t[port, :].copy()
    r_n = float(row[port].real) / 2.0
    row[port] = 0.0
    eig = _eigensystem_from_row(port, r_n, row)
    t_plus = _rank_one(eig.lam_plus, eig.v_plus)
    t_minus = _rank_one(eig.lam_minus, eig.v_minus)
    return t_plus, t_minus


def _rank_one(lam: float, v: np.ndarray) -> np.ndarray:
    norm_sq = float(np.real(np.vdot(v, v)))
    if norm_sq == 0.0 or lam == 0.0:
        return np.zeros((v.shape[0], v.shape[0]), dtype=complex)
    return (lam / norm_sq) * np.outer(v, v.conj())
