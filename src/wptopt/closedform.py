"""Closed-form optimal operating points of MISO power transfer links.

With the receiver current pinned to unit received power and the receiver
reactance free, minimizing coil loss over the transmit currents is an
equality-constrained convex QP with an explicit solution.  Everything
reduces to two scalars: the output impedance z_o seen at the receiver
and the mutual quality factor U of the link:

    z_o = z_r - z_tr^T (Z_t')^{-1} Re(z_tr)
    U^2 = z_tr^H (Z_t')^{-1} z_tr / Re(z_o)

The peak transfer efficiency U^2 / (1 + sqrt(1 + U^2))^2 is reached at
load resistance R_L* = Re(z_o) sqrt(1 + U^2) with the receiver tuned to
x_r = -Im(z_o).  These operating points ignore the sign of individual
transmitter powers; ports asked to absorb power show up as negative
entries in :func:`transmit_powers` and call for the constrained solver
in :mod:`wptopt.pipeline`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import ImpedanceMatrix, checked_entries, partition
from .pims import port_impedance_matrices, port_power


class NoCouplingError(ValueError):
    """The receiver is magnetically isolated; no power can be transferred."""


def _blocks(z):
    # a plain array gets the checks an ImpedanceMatrix passed on construction
    zt, ztr, zr = partition(z if isinstance(z, ImpedanceMatrix) else checked_entries(z))
    return np.asarray(zt, dtype=complex), np.asarray(ztr, dtype=complex), complex(zr)


def _zo_u(zt, ztr, zr):
    """(z_o, U) from the partitioned blocks, one solve each."""
    z_o = zr - ztr @ np.linalg.solve(zt.real, ztr.real)
    u_sq = float(np.real(ztr.conj() @ np.linalg.solve(zt.real, ztr))) / z_o.real
    return z_o, float(np.sqrt(u_sq))


def _currents(zt, ztr, z_o, u, r_load):
    """Closed-form optimal (i_t, i_r) given the link's z_o and U."""
    i_r = receiver_current(r_load)
    ro = z_o.real
    weight = (ro + r_load) / (ro * u * u)
    i_t = -np.linalg.solve(zt.real, ztr.real + weight * ztr.conj()) * i_r
    return i_t, i_r


def output_impedance(z) -> complex:
    """Impedance seen at the receiver with loss-minimizing transmit drive."""
    return _zo_u(*_blocks(z))[0]


def mutual_q(z) -> float:
    """Mutual quality factor U of the link; 0 flags an uncoupled receiver."""
    zt, ztr, zr = _blocks(z)
    if np.all(ztr == 0.0):
        warnings.warn("receiver has no coupling to any transmitter (U = 0)",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return _zo_u(zt, ztr, zr)[1]


def max_pte(u: float) -> float:
    """Peak power transfer efficiency attainable at mutual quality factor u."""
    return u * u / (1.0 + np.sqrt(1.0 + u * u)) ** 2


def optimal_load(z_o: complex, u: float) -> float:
    """Efficiency-maximizing load resistance."""
    return z_o.real * float(np.sqrt(1.0 + u * u))


def resonant_pte(z_o: complex, u: float, r_load: float) -> float:
    """Efficiency at a given load with optimal currents and tuned receiver."""
    ro = z_o.real
    return (u * u * r_load * ro) / ((ro * (1.0 + u * u) + r_load) * (r_load + ro))


def receiver_current(r_load: float) -> float:
    """Receiver current magnitude for unit received power, zero phase."""
    if not r_load > 0.0:
        raise ValueError(f"load resistance must be positive, got {r_load}")
    return float(np.sqrt(2.0 / r_load))


def optimal_currents(z, r_load: float):
    """Loss-minimizing currents (i_t, i_r) at unit received power.

    The receiver current is real positive by phase convention; the
    transmit currents are the closed-form optimizer of the loss QP.
    """
    zt, ztr, zr = _blocks(z)
    if np.all(ztr == 0.0):
        raise NoCouplingError("receiver is uncoupled; optimal currents undefined")
    return _currents(zt, ztr, *_zo_u(zt, ztr, zr), r_load)


def solve_min_loss_qp(z, r_load: float):
    """Minimum-loss transmit currents via the explicit KKT block solve.

    Independent route to the same optimum as :func:`optimal_currents`:
    stack the free real coordinates c_t = [Re(i_t); Im(i_t)], add the
    receiver-voltage equality row and solve the saddle system.  Returns
    ``(c_t, p_loss, mu)`` with ``mu`` the equality multiplier.
    """
    zt, ztr, zr = _blocks(z)
    n_t = zt.shape[0]
    i_r = receiver_current(r_load)
    a = np.concatenate([ztr.real, -ztr.imag])
    if np.all(a == 0.0) and np.all(ztr == 0.0):
        raise NoCouplingError("receiver is uncoupled; loss QP is infeasible")
    d = np.zeros((2 * n_t, 2 * n_t))
    d[:n_t, :n_t] = zt.real
    d[n_t:, n_t:] = zt.real
    q0 = np.concatenate([ztr.real, np.zeros(n_t)]) * i_r
    beta = -(zr.real + r_load) * i_r
    kkt = np.zeros((2 * n_t + 1, 2 * n_t + 1))
    kkt[:-1, :-1] = d
    kkt[:-1, -1] = a
    kkt[-1, :-1] = a
    rhs = np.concatenate([-q0, [beta]])
    sol = np.linalg.solve(kkt, rhs)
    c_t, mu = sol[:-1], sol[-1]
    p_loss = 0.5 * c_t @ d @ c_t + q0 @ c_t + 0.5 * (zr.real + 0.0) * i_r * i_r
    return c_t, float(p_loss), float(mu)


def transmit_powers(i: np.ndarray, pims) -> np.ndarray:
    """Per-port real powers for current vector i; sums to Re(i^H Z i)/2."""
    return np.array([port_power(i, t) for t in pims])


@dataclass(frozen=True)
class ClosedFormSolution:
    """Unconstrained optimum of a link at a given load resistance.

    ``eta`` is the efficiency at ``r_load``; ``eta_max`` the peak over
    loads, attained at ``r_load_opt``.  ``c_r``/``l_r`` is the series
    receiver compensation element realizing ``x_r`` (capacitor when the
    required reactance is negative, inductor otherwise).
    """

    z_o: complex
    u: float
    r_load: float
    r_load_opt: float
    eta: float
    eta_max: float
    p_loss: float
    i_t: np.ndarray
    i_r: float
    x_r: float
    p_tx: np.ndarray
    c_r: float | None
    l_r: float | None


def solve_closed_form(
    z: ImpedanceMatrix | np.ndarray, r_load: float | None = None
) -> ClosedFormSolution:
    """Globally optimal unconstrained operating point of a link.

    When ``r_load`` is omitted the efficiency-optimal load is used.
    Raises :class:`NoCouplingError` for an isolated receiver.  Accepts a
    plain complex matrix too, checked as an ImpedanceMatrix is (SchemaError
    or PassivityError on a bad one); the compensation element values then
    default to None (no frequency attached).
    """
    zt, ztr, zr = _blocks(z)
    if np.all(ztr == 0.0):
        raise NoCouplingError("receiver is uncoupled from every transmitter")
    z_o, u = _zo_u(zt, ztr, zr)
    r_opt = optimal_load(z_o, u)
    if r_load is None:
        r_load = r_opt
    i_t, i_r = _currents(zt, ztr, z_o, u, r_load)
    x_r = -z_o.imag
    eta = resonant_pte(z_o, u, r_load)
    ro = z_o.real
    p_loss = (1.0 / r_load) * (ro + (ro + r_load) ** 2 / (ro * u * u))
    zhat = np.array(getattr(z, "entries", z), dtype=complex)
    zhat[-1, -1] += 1j * x_r + r_load
    pims = port_impedance_matrices(zhat)
    i_full = np.concatenate([i_t, [i_r]])
    p_tx = transmit_powers(i_full, pims)[:-1]
    omega = getattr(z, "omega", None)
    c_r = -1.0 / (omega * x_r) if (omega and x_r < 0.0) else None
    l_r = x_r / omega if (omega and x_r >= 0.0) else None
    return ClosedFormSolution(
        z_o=z_o,
        u=u,
        r_load=float(r_load),
        r_load_opt=float(r_opt),
        eta=float(eta),
        eta_max=float(max_pte(u)),
        p_loss=float(p_loss),
        i_t=i_t,
        i_r=float(i_r),
        x_r=float(x_r),
        p_tx=p_tx,
        c_r=c_r,
        l_r=l_r,
    )
