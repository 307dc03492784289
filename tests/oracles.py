"""Reference oracles for the operating-point solvers, used by the tests.

Small instances are solved by machinery that shares nothing with the main
solution path: the two affine rows are eliminated through an orthonormal
null-space basis and the remaining coordinates are either grid-scanned and
penalty-polished (:func:`brute_force_qcqp`, constrained instances) or handed
to a multistart quasi-Newton descent (:func:`minimize_loss_descent`,
unconstrained instances).  They live beside the tests because nothing in the
package calls them, and they are the only users of ``scipy.optimize``.

:func:`reference_mutual` is the reference for the mutual-inductance
quadrature: one pair at a time, with scalar pair parameters, by
:func:`panelwise_gauss`, the same adaptive Gauss-Legendre rule evaluated one
panel and rule per integrand call.  The batched quadrature in
:mod:`wptopt.circuit` must match it bit for bit.  Likewise
:func:`reference_closed_form` is the closed form of one link on its own,
which every row of the stacked pass in :mod:`wptopt.closedform` must match.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import minimize

from wptopt.circuit import MU0, _w_over_m, checked_entries
from wptopt.closedform import max_pte
from wptopt.pims import port_impedance_matrices, port_power

FEASIBILITY_TOL = 1e-8
GRID_RESOLUTION = 41
PENALTY_ROUNDS = 6
PENALTY_FACTOR = 10.0


@dataclass(frozen=True)
class OracleReport:
    """Best point found by an oracle method.

    ``max_violation`` is the worst residual of the constraints the method
    enforced (power constraints for the grid oracle, the affine rows for
    the descent oracle). ``agreement_gap`` is the relative objective gap
    against the candidate value under test, NaN when none was supplied.
    """

    c: np.ndarray
    objective: float
    method: str
    evaluations: int
    agreement_gap: float
    max_violation: float


def _reduced_basis(problem):
    """Particular solution and orthonormal null-space basis of A c = b."""
    c0, *_ = np.linalg.lstsq(problem.a, problem.b, rcond=None)
    v = null_space(problem.a)
    if v.shape[1] != problem.q0.shape[0] - problem.a.shape[0]:
        raise ValueError("affine rows of the instance are rank deficient")
    return c0, v


def _row_slacks(problem, c):
    """c^T G_j c - h_j of every power row of the problem, >= 0 when met."""
    return np.array([float(c @ (gj @ c)) for gj in problem.g]) - problem.h


def _power_violation(problem, c):
    return float(np.maximum(0.0, -_row_slacks(problem, c)).max(initial=0.0))


def _gap(objective, candidate):
    if candidate is None:
        return float("nan")
    return abs(objective - candidate) / max(abs(candidate), 1e-300)


def brute_force_qcqp(problem, resolution=GRID_RESOLUTION, candidate=None):
    """Grid-scan + penalty-polish global solve of a small constrained QCQP.

    Limited to systems with at most three ports, where eliminating the two
    affine rows leaves at most three free coordinates. The scan box is
    centered on the unconstrained reduced optimum with half-width ten times
    the norm of that point; if no grid point is feasible the box is widened
    once before giving up.  The constraints are the problem's own power rows
    c^T G_j c >= h_j, none when it was built with unconstrained powers.
    """
    free = problem.q0.shape[0] - 2
    if free > 3:
        raise ValueError(
            "grid oracle supports at most 3 free coordinates "
            f"(got {free}); use minimize_loss_descent or the SDR"
        )
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    c0, v = _reduced_basis(problem)

    # unconstrained optimum of the reduced strictly convex quadratic; it
    # fixes both the scan center and the scale of the search box
    h = v.T @ problem.q0 @ v
    t_star = np.linalg.solve(h, -(v.T @ (problem.q0 @ c0)))
    radius = 10.0 * max(float(np.linalg.norm(c0 + v @ t_star)), 1e-12)

    evaluations = 0
    best_t = best_obj = None
    for attempt in range(2):
        half = radius * (2.0 ** attempt)
        axes = [np.linspace(t_star[j] - half, t_star[j] + half, resolution)
                for j in range(free)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        cs = c0[None, :] + pts @ v.T
        obj = np.einsum("pi,ij,pj->p", cs, problem.q0, cs)
        slacks = np.einsum("pi,jik,pk->pj", cs, problem.g, cs) - problem.h
        evaluations += pts.shape[0]
        feasible = (slacks >= -FEASIBILITY_TOL).all(axis=1)
        if feasible.any():
            masked = np.where(feasible, obj, np.inf)
            order = np.argsort(masked, kind="stable")  # stable: grid-index tie-break
            starts = [pts[int(i)] for i in order[: min(3, int(feasible.sum()))]]
            idx = int(order[0])
            best_t = pts[idx]
            best_obj = float(obj[idx])
            break
    if best_t is None:
        raise RuntimeError(
            "no feasible point on the oracle grid, even after widening; "
            "the constraints are likely infeasible"
        )

    def penalized(t, weight):
        c = c0 + v @ t
        qc = problem.q0 @ c
        val = float(c @ qc)
        grad = 2.0 * (v.T @ qc)
        for gj, hj in zip(problem.g, problem.h):
            viol = max(0.0, hj - float(c @ (gj @ c)))
            if viol > 0.0:
                val += weight * viol * viol
                grad -= 4.0 * weight * viol * (v.T @ (gj @ c))
        return val, grad

    def _restore(t):
        # Gauss-Newton push of the residual penalty-round violations onto
        # the constraint boundary; negligible objective drift
        nonlocal evaluations
        for _ in range(6):
            c = c0 + v @ t
            slack = _row_slacks(problem, c)
            evaluations += 1
            res, rows = [], []
            for gj, sj in zip(problem.g, slack):
                if sj < 0.0:
                    res.append(-sj)
                    rows.append(2.0 * (v.T @ (gj @ c)))
            if not rows:
                break
            dt, *_ = np.linalg.lstsq(np.stack(rows), np.array(res), rcond=None)
            t = t + dt
        return t

    # penalty polish of the leading feasible grid points plus the exterior
    # homotopy start at the unconstrained optimum, weight escalating tenfold
    # per round from an objective-scaled base
    starts.append(t_star)
    viol = _power_violation(problem, c0 + v @ best_t)
    for t0 in starts:
        t_cur = t0.copy()
        weight = max(1.0, abs(best_obj))
        for _ in range(PENALTY_ROUNDS):
            res = minimize(
                penalized, t_cur, args=(weight,), jac=True,
                method="L-BFGS-B", tol=1e-12,
            )
            t_cur = res.x
            evaluations += int(res.nfev)
            weight *= PENALTY_FACTOR
        t_cur = _restore(t_cur)
        c_ref = c0 + v @ t_cur
        obj_ref = float(c_ref @ problem.q0 @ c_ref)
        viol_ref = _power_violation(problem, c_ref)
        # refinement never hands back a worse or infeasible answer
        if viol_ref <= FEASIBILITY_TOL and obj_ref <= best_obj:
            best_t, best_obj, viol = t_cur, obj_ref, viol_ref

    c_best = c0 + v @ best_t
    return OracleReport(
        c=c_best,
        objective=best_obj,
        method="grid",
        evaluations=evaluations,
        agreement_gap=_gap(best_obj, candidate),
        max_violation=viol,
    )


def minimize_loss_descent(problem, n_starts=8, seed=0, candidate=None):
    """Multistart quasi-Newton descent on the reduced unconstrained loss.

    Ignores the power constraints: this is the oracle for the analytic
    minimum-loss solution on systems of any size. The objective is strictly
    convex, so every start must land on the same point; the spread across
    starts is folded into ``max_violation`` as a sanity term.
    """
    c0, v = _reduced_basis(problem)
    free = v.shape[1]

    def fun(t):
        c = c0 + v @ t
        qc = problem.q0 @ c
        return float(c @ qc), 2.0 * (v.T @ qc)

    rng = np.random.default_rng(seed)
    scale = 10.0 * (1.0 + float(np.linalg.norm(c0)))
    starts = [np.zeros(free)]
    starts += [scale * rng.standard_normal(free) for _ in range(max(0, n_starts - 1))]

    evaluations = 0
    results = []
    for t0 in starts:
        res = minimize(fun, t0, jac=True, method="L-BFGS-B", tol=1e-12)
        evaluations += int(res.nfev)
        results.append((float(res.fun), res.x))
    best_obj, best_t = min(results, key=lambda r: r[0])
    spread = max(abs(f - best_obj) for f, _ in results) / max(abs(best_obj), 1e-300)

    c_best = c0 + v @ best_t
    affine_res = float(np.abs(problem.a @ c_best - problem.b).max())
    return OracleReport(
        c=c_best,
        objective=best_obj,
        method="multistart",
        evaluations=evaluations,
        agreement_gap=_gap(best_obj, candidate),
        max_violation=max(affine_res, spread),
    )


def panelwise_gauss(f, x0, x1, rtol, atol, n_lo=12, n_hi=24, max_panels=4000):
    """Globally adaptive Gauss-Legendre panels, evaluated one panel and rule
    at a time: 8 panels, then the panel with the largest error estimate
    split in two until the estimate meets the tolerance.  Returns
    (integral, error estimate)."""

    rules = {n: np.polynomial.legendre.leggauss(n) for n in (n_lo, n_hi)}

    def one(a, b, n):
        x, w = rules[n]
        xm, xr = 0.5 * (a + b), 0.5 * (b - a)
        return xr * float(np.dot(w, f(xm + xr * x)))

    heap = []
    uid = 0
    total = err = 0.0
    edges = np.linspace(x0, x1, 9)
    for i in range(8):
        a, b = edges[i], edges[i + 1]
        lo, hi = one(a, b, n_lo), one(a, b, n_hi)
        total += hi
        e = abs(hi - lo)
        err += e
        heapq.heappush(heap, (-e, uid, (a, b, hi, e)))
        uid += 1
    panels = 8
    while err > max(rtol * abs(total), atol) and panels < max_panels and heap:
        _, _, (a, b, hi, e) = heapq.heappop(heap)
        total -= hi
        err -= e
        mid = 0.5 * (a + b)
        for (s, t) in ((a, mid), (mid, b)):
            lo2, hi2 = one(s, t, n_lo), one(s, t, n_hi)
            total += hi2
            e2 = abs(hi2 - lo2)
            err += e2
            heapq.heappush(heap, (-e2, uid, (s, t, hi2, e2)))
            uid += 1
        panels += 1
    return total, err


def neumann_reduced_scalar(psi, ra, rb, rho, h):
    """The reduced Neumann integrand of one pair, its parameters scalars."""
    s2 = np.sin(0.5 * psi) ** 2
    rf = np.sqrt((rho - rb) ** 2 + 4.0 * rho * rb * s2)
    S2 = (ra + rf) ** 2 + h * h
    diff2 = (ra + rb - rho) * (ra + rho - rb) - 4.0 * rho * rb * s2
    one_minus_m = ((diff2 / (ra + rf)) ** 2 + h * h) / S2
    m = np.minimum(4.0 * ra * rf / S2, 1.0)
    wm = _w_over_m(m, one_minus_m)
    return (MU0 * ra * rb / np.pi) * wm * (4.0 * ra / S2) * (rb - rho * np.cos(psi)) / np.sqrt(S2)


def reference_mutual(key, rtol, calls=None):
    """Mutual inductance of one (ra, rb, rho, h) pair key by
    :func:`panelwise_gauss`; appends the node count of every integrand call
    to ``calls`` when given."""
    ra, rb, rho, h = key

    def f(psi):
        if calls is not None:
            calls.append(len(psi))
        return neumann_reduced_scalar(psi, ra, rb, rho, h)

    atol = 1e-15 * MU0 * min(ra, rb)
    rf0 = abs(rho - rb)
    p0 = ((ra - rf0) ** 2 + h * h) / ((ra + rf0) ** 2 + h * h)
    if p0 < 1e-5:
        # near-tangent: graded substitution on [0, delta], plain beyond
        delta = 0.5
        g = lambda s: f(delta * s**4) * 4.0 * delta * s**3
        i_sing, _ = panelwise_gauss(g, 0.0, 1.0, rtol, 0.5 * atol)
        i_rest, _ = panelwise_gauss(f, delta, np.pi, rtol, 0.5 * atol)
        total = i_sing + i_rest
    else:
        total, _ = panelwise_gauss(f, 0.0, np.pi, rtol, atol)
    return 2.0 * total


def reference_closed_form(z, r_load=None):
    """The closed-form operating point of one link, computed on that link
    alone with scalar arithmetic, as a dict of the ClosedFormSolution
    fields."""
    m = np.array(getattr(z, "entries", z), dtype=complex)
    checked_entries(m)
    zt, ztr, zr = m[:-1, :-1], m[:-1, -1], complex(m[-1, -1])
    z_o = zr - ztr @ np.linalg.solve(zt.real, ztr.real)
    u_sq = float(np.real(ztr.conj() @ np.linalg.solve(zt.real, ztr))) / z_o.real
    u = float(np.sqrt(u_sq))
    ro = z_o.real
    r_opt = ro * float(np.sqrt(1.0 + u * u))
    r_load = r_opt if r_load is None else r_load
    i_r = float(np.sqrt(2.0 / r_load))
    weight = (ro + r_load) / (ro * u * u)
    i_t = -np.linalg.solve(zt.real, ztr.real + weight * ztr.conj()) * i_r
    x_r = -z_o.imag
    zhat = m.copy()
    zhat[-1, -1] += 1j * x_r + r_load
    i = np.concatenate([i_t, [i_r]])
    p_tx = np.array([port_power(i, t) for t in port_impedance_matrices(zhat)])[:-1]
    return {
        "z_o": z_o,
        "u": u,
        "r_load": float(r_load),
        "r_load_opt": float(r_opt),
        "eta": float((u * u * r_load * ro) / ((ro * (1.0 + u * u) + r_load) * (r_load + ro))),
        "eta_max": float(max_pte(u)),
        "p_loss": float((1.0 / r_load) * (ro + (ro + r_load) ** 2 / (ro * u * u))),
        "i_t": i_t,
        "i_r": i_r,
        "x_r": float(x_r),
        "p_tx": p_tx,
    }
