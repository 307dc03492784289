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
entries of the solution's ``p_tx`` and call for the constrained solver in
:mod:`wptopt.pipeline`.

:func:`solve_closed_forms` takes many links in one stacked pass: stacked
LAPACK solves for z_o, U and the currents, and the per-port powers of all
links at once.  :func:`solve_closed_form` is its one-link case; every link's
solution is bit for bit the same alone or in a stack.
:func:`closed_form_stacks` hands out the same solutions by stack, with the
stacked currents and powers, for callers that test or copy them a stack at
a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ImpedanceMatrix, checked_entries
from .pims import port_powers


class NoCouplingError(ValueError):
    """The receiver is magnetically isolated; no power can be transferred."""


class NonFiniteError(ValueError):
    """A link's closed-form loss, load or powers overflow double range."""


def _entries(z) -> np.ndarray:
    # a plain array gets the checks an ImpedanceMatrix passed on construction
    return z.entries if isinstance(z, ImpedanceMatrix) else checked_entries(z)


def _solve(a, b):
    """Solve a[k] x[k] = b[k] for a stack of matrices and vectors."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _dot(x, y):
    """x[k] @ y[k] over a stack of vectors, unconjugated."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _zo_u(z):
    """(z_o, U) of each link in a (K, N, N) stack; U is 0 where the
    receiver is uncoupled."""
    zt, ztr, zr = z[:, :-1, :-1], z[:, :-1, -1], z[:, -1, -1]
    z_o = zr - _dot(ztr, _solve(zt.real, ztr.real))
    u = np.sqrt(_dot(ztr.conj(), _solve(zt.real, ztr)).real / z_o.real)
    return z_o, u


def output_impedance(z) -> complex:
    """Impedance seen at the receiver with loss-minimizing transmit drive."""
    return _zo_u(_entries(z)[None])[0][0]


def mutual_q(z) -> float:
    """Mutual quality factor U of the link; 0 flags an uncoupled receiver."""
    m = _entries(z)
    if not m[:-1, -1].any():
        return 0.0
    return float(_zo_u(m[None])[1][0])


def max_pte(u: float) -> float:
    """Peak power transfer efficiency attainable at mutual quality factor u."""
    return u * u / (1.0 + np.sqrt(1.0 + u * u)) ** 2


def optimal_load(z_o: complex, u: float) -> float:
    """Efficiency-maximizing load resistance."""
    return z_o.real * np.sqrt(1.0 + u * u)


def resonant_pte(z_o: complex, u: float, r_load: float) -> float:
    """Efficiency at a given load with optimal currents and tuned receiver."""
    ro = z_o.real
    return (u * u * r_load * ro) / ((ro * (1.0 + u * u) + r_load) * (r_load + ro))


def _check_load(r_load) -> None:
    if r_load is not None and not 0.0 < r_load < np.inf:
        raise ValueError(f"load resistance must be positive and finite, got {r_load}")


def solve_min_loss_qp(z, r_load: float):
    """Minimum-loss transmit currents via the explicit KKT block solve.

    Independent route to the currents of :func:`solve_closed_form`:
    stack the free real coordinates c_t = [Re(i_t); Im(i_t)], add the
    receiver-voltage equality row and solve the saddle system.  Returns
    ``(c_t, p_loss, mu)`` with ``mu`` the equality multiplier.
    """
    m = _entries(z)
    zt, ztr, zr = m[:-1, :-1], m[:-1, -1], complex(m[-1, -1])
    n_t = zt.shape[0]
    _check_load(r_load)
    i_r = float(np.sqrt(2.0 / r_load))
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


@dataclass(frozen=True)
class ClosedFormSolution:
    """Unconstrained optimum of a link at a given load resistance.

    ``eta`` is the efficiency at ``r_load``; ``eta_max`` the peak over
    loads, attained at ``r_load_opt``.  The receiver is tuned by the
    series reactance ``x_r`` (see :func:`wptopt.pipeline.cap_r`); ``p_tx``
    holds the per-transmitter powers.
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


def solve_closed_form(
    z: ImpedanceMatrix | np.ndarray, r_load: float | None = None
) -> ClosedFormSolution:
    """Globally optimal unconstrained operating point of a link.

    When ``r_load`` is omitted the efficiency-optimal load is used.
    Raises :class:`NoCouplingError` for an isolated receiver and
    :class:`NonFiniteError` for figures outside double range.  Accepts a
    plain complex matrix too, checked as an ImpedanceMatrix is (SchemaError
    or PassivityError on a bad one).
    """
    (sol,) = solve_closed_forms([z], r_load)
    if isinstance(sol, Exception):
        raise sol
    return sol


def solve_closed_forms(zs, r_load: float | None = None) -> list:
    """:func:`solve_closed_form` of every link, in one stacked pass per port
    count.

    Returns, in input order, each link's ClosedFormSolution or the error
    it alone raises (NoCouplingError, NonFiniteError, SchemaError,
    PassivityError); an error stays with its own row.  Each solution is bit
    for bit the one the link gets alone.  Raises ValueError for a load that
    is not positive and finite.
    """
    out, stacks = closed_form_stacks(zs, r_load)
    for ks, rows, _, _ in stacks:
        for k, sol in zip(ks, rows):
            out[k] = sol
    return out


def closed_form_stacks(zs, r_load: float | None = None):
    """The closed forms of `solve_closed_forms`, by stack: (errors, stacks).

    ``errors`` holds, in input order, the SchemaError, PassivityError or
    NoCouplingError of each link that never reaches a stack, else None.
    Each stack is (positions, rows, currents, p_tx) for the coupled links of
    one matrix shape: their positions in ``zs``, their ClosedFormSolutions
    or errors, and the (K, N) currents [i_t, i_r] and (K, N - 1) transmit
    powers of all K links, in rows whose solution may be an error.  A
    solution's ``i_t`` and ``p_tx`` are views of these arrays.
    """
    _check_load(r_load)
    out = [None] * len(zs)
    stacks = {}  # matrix shape -> [(row, entries)] of the coupled links
    for k, z in enumerate(zs):
        try:
            m = _entries(z)
        except ValueError as exc:  # SchemaError, PassivityError
            out[k] = exc
            continue
        if m[:-1, -1].any():
            stacks.setdefault(m.shape, []).append((k, m))
        else:
            out[k] = NoCouplingError("receiver is uncoupled from every transmitter")
    solved = []
    for rows in stacks.values():
        ks, ms = zip(*rows)
        solved.append((ks, *_closed_form_rows(np.array(ms), r_load)))
    return out, solved


def _closed_form_rows(z, r_load):
    """(rows, currents, p_tx) of a (K, N, N) stack of coupled links: their
    ClosedFormSolutions, a link out of double range silently getting its
    error instead (NoCouplingError where its coupling or U^2 underflows to
    0, else NonFiniteError), and the stacked currents and transmit powers.
    Only the loss and the peak efficiency are computed row by row."""
    zt, ztr = z[:, :-1, :-1], z[:, :-1, -1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z_o, u = _zo_u(z)
        ro = z_o.real
        r_opt = optimal_load(z_o, u)
        rl = r_opt if r_load is None else np.full(len(z), float(r_load))
        i_r = np.sqrt(2.0 / rl)
        weight = (ro + rl) / (ro * u * u)
        i_t = -_solve(zt.real, ztr.real + weight[:, None] * ztr.conj()) * i_r[:, None]
        x_r = -z_o.imag
        eta = resonant_pte(z_o, u, rl)
        zhat = z.copy()
        zhat[:, -1, -1] += 1j * x_r + rl
        currents = np.concatenate([i_t, i_r[:, None]], axis=1)
        p_tx = port_powers(zhat, currents)[:, :-1]
        finite = np.isfinite(r_opt) & np.isfinite(eta) & np.isfinite(p_tx).all(axis=1)
    rows = []
    lists = (a.tolist() for a in (finite, rl, ro, u, z_o, r_opt, eta, i_r, x_r))
    for in_range, r, o, uk, z_o_k, r_opt_k, eta_k, i_r_k, x_r_k, i_t_k, p_tx_k in zip(
        *lists, i_t, p_tx
    ):
        # squares of Python floats (libm's pow): numpy's square of an array
        # differs from it in the last bit now and then
        try:
            p_loss = (1.0 / r) * (o + (o + r) ** 2 / (o * uk * uk))
        except ZeroDivisionError:
            rows.append(NoCouplingError("receiver coupling underflows to 0"))
            continue
        except OverflowError:
            p_loss = math.inf
        if not (in_range and math.isfinite(p_loss)):
            rows.append(NonFiniteError(f"loss at 1 W received overflows at R_L = {r!r} ohm"))
            continue
        rows.append(
            ClosedFormSolution(
                z_o=z_o_k,
                u=uk,
                r_load=r,
                r_load_opt=r_opt_k,
                eta=eta_k,
                eta_max=float(max_pte(uk)),
                p_loss=p_loss,
                i_t=i_t_k,
                i_r=i_r_k,
                x_r=x_r_k,
                p_tx=p_tx_k,
            )
        )
    return rows, currents, p_tx
