"""Independent verification of the power algebra.

:func:`verify_identities` recomputes the power-algebra identities of a whole
system from scratch; the CLI `validate` command runs it on every preset.
The reference oracles the tests compare the solvers against are in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import solve_closed_form
from .pims import pim_eigensystem, pim_split, port_impedance_matrices, port_power
from .qcqp import build_affine, build_problem

__all__ = [
    "IdentityCheck",
    "IdentityReport",
    "verify_identities",
]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self):
        lines = []
        for c in self.checks:
            state = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            lines.append(
                f"{state}  {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.0e}){extra}"
            )
        return "\n".join(lines)


def verify_identities(z, r_load=None):
    """Recompute the power-algebra identities of a system from scratch.

    Never raises: every check is evaluated independently and failures
    (including exceptions inside a check) are enumerated in the report.
    Accepts an ImpedanceMatrix or a plain complex array, so deliberately
    corrupted matrices can be audited too.
    """
    zmat = np.asarray(getattr(z, "entries", z), dtype=complex)
    system = z if hasattr(z, "entries") else zmat
    n = zmat.shape[0]
    checks = []

    def run(name, tol, fn):
        try:
            residual = float(fn())
            detail = ""
        except Exception as exc:
            residual = float("inf")
            detail = f"{type(exc).__name__}: {exc}"
        checks.append(IdentityCheck(name, residual, tol, residual <= tol, detail))

    cf = None
    if r_load is None:
        try:
            cf = solve_closed_form(system)
            r_load = cf.r_load
        except Exception:
            r_load = 1.0  # identities hold for any load; keep auditing
    rl = float(r_load)
    zhat = zmat.copy()
    zhat[-1, -1] += rl

    def _pim_sum(mat):
        pims = port_impedance_matrices(mat)
        target = np.real(mat)
        dev = np.abs(sum(pims) - target).max()
        return dev / max(np.abs(target).max(), 1e-300)

    run("pim-sum", 1e-10, lambda: _pim_sum(zmat))
    run("pim-sum-loaded", 1e-10, lambda: _pim_sum(zhat))

    def _pim_eigen():
        worst = 0.0
        pims = port_impedance_matrices(zhat)
        for port in range(n):
            t = pims[port]
            scale = max(np.abs(t).max(), 1e-300)
            eig = pim_eigensystem(zhat, port)
            pairs = [(eig.lam_plus, eig.v_plus)]
            if not eig.rank_one:
                pairs.append((-eig.lam_minus, eig.v_minus))
            for lam, vec in pairs:
                nv = np.linalg.norm(vec)
                res = np.linalg.norm(t @ vec - lam * vec) / (scale * max(nv, 1e-300))
                worst = max(worst, res)
        return worst

    run("pim-eigen", 1e-10, _pim_eigen)

    def _pim_quadratic_forms():
        # nonzero eigenvectors carry exactly +-lam |v|^2; any vector in the
        # orthogonal complement carries exactly zero
        worst = 0.0
        pims = port_impedance_matrices(zhat)
        for port in range(n):
            t = pims[port]
            scale = max(np.abs(t).max(), 1e-300)
            eig = pim_eigensystem(zhat, port)
            for lam, vec in ((eig.lam_plus, eig.v_plus), (-eig.lam_minus, eig.v_minus)):
                ns = float(np.real(np.vdot(vec, vec)))
                if ns == 0.0:
                    continue
                form = float(np.real(np.vdot(vec, t @ vec)))
                worst = max(worst, abs(form - lam * ns) / (scale * ns))
            # Gram-Schmidt the identity columns against the eigenvector pair
            basis = [w / np.linalg.norm(w)
                     for w in (eig.v_plus, eig.v_minus) if np.linalg.norm(w) > 0]
            for k in range(n):
                w = np.zeros(n, dtype=complex)
                w[k] = 1.0
                for q in basis:
                    w = w - np.vdot(q, w) * q
                nw = np.linalg.norm(w)
                if nw < 1e-6:
                    continue
                w /= nw
                worst = max(worst, abs(np.real(np.vdot(w, t @ w))) / scale)
        return worst

    run("pim-quadratic-forms", 1e-10, _pim_quadratic_forms)

    def _pim_splits():
        worst = 0.0
        pims = port_impedance_matrices(zhat)
        for port in range(n):
            t = pims[port]
            scale = max(np.abs(t).max(), 1e-300)
            plus, minus = pim_split(t, port)
            worst = max(worst, np.abs(t - (plus - minus)).max() / scale)
            for part in (plus, minus):
                lam_min = float(np.linalg.eigvalsh(0.5 * (part + part.conj().T)).min())
                worst = max(worst, max(0.0, -lam_min) / scale)
        return worst

    run("pim-splits", 1e-12, _pim_splits)

    def _closed_form():
        return cf if cf is not None else solve_closed_form(system, rl)

    def _kvl_feasible():
        sol = _closed_form()
        a, b = build_affine(zmat, rl)
        c = np.concatenate([sol.i_t.real, [sol.i_r], sol.i_t.imag])
        return np.abs(a @ c - b).max() / (1.0 + np.abs(b).max())

    run("kvl-row-feasibility", 1e-10, _kvl_feasible)

    def _power_balance():
        sol = _closed_form()
        i = np.concatenate([sol.i_t, [sol.i_r]])
        pims = port_impedance_matrices(zhat)
        per_port = sum(port_power(i, t) for t in pims)
        total = 0.5 * float(np.real(np.vdot(i, np.real(zhat) @ i)))
        res = abs(per_port - total) / (1.0 + abs(total))
        p_load = 0.5 * rl * sol.i_r ** 2
        return max(res, abs(p_load - 1.0))

    run("power-balance", 1e-10, _power_balance)

    def _loss_to_pte():
        sol = _closed_form()
        return abs(sol.eta * (1.0 + sol.p_loss) - 1.0)

    run("loss-to-pte", 1e-10, _loss_to_pte)

    def _realified_powers():
        sol = _closed_form()
        i = np.concatenate([sol.i_t, [sol.i_r]])
        c = np.concatenate([sol.i_t.real, [sol.i_r], sol.i_t.imag])
        problem = build_problem(zmat, rl)
        pims = port_impedance_matrices(zhat)
        worst = abs(float(c @ problem.q0 @ c) - sol.p_loss) / (1.0 + abs(sol.p_loss))
        for j, qn in enumerate(problem.q):
            direct = port_power(i, pims[j])
            worst = max(worst, abs(float(c @ qn @ c) - direct) / (1.0 + abs(direct)))
        return worst

    run("realified-port-powers", 1e-10, _realified_powers)

    if n == 2 and abs(zmat[0, 1].real) <= 1e-12 * abs(zmat[0, 1]):
        # quasi-static single-transmitter link: the coupling quality factor
        # collapses to the textbook omega*M / sqrt(Rt*Rr)
        def _siso_u():
            sol = _closed_form()
            u_direct = abs(zmat[0, 1]) / np.sqrt(zmat[0, 0].real * zmat[1, 1].real)
            return abs(sol.u - u_direct) / u_direct

        run("siso-mutual-q", 1e-10, _siso_u)

    return IdentityReport(checks=tuple(checks))
