"""KKT audit of the semidefinite relaxation's solution.

Recomputes every optimality residual of a primal matrix X and its dual
slack from the QCQP data alone, normalized so that 1e-8 is a pass on every
entry.  The relaxation's current equalities are the lifts of A c = b: the
KVL row k = A[0] gives k^T X k = 0 and, X being symmetric, the redundant
rows <u_j k^T + k u_j^T, X> = 2 (X k)_j = 0, and the receiver-current row
gives unit received power (R_L / 2) X[n, n] = 1 (Vandenberghe & Boyd, SIAM
Rev. 1996).  So the audit reads them off the KVL row and the load, with no
constraint matrix built; the power rows are the problem's own
<G_j, X> >= h_j.  The pipeline audits each relaxation row with it,
at the barrier's primal matrix or at the lift c c^T of a certified dual
point.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["KktReport", "relaxation_audit"]


@dataclass(frozen=True)
class KktReport:
    """The named optimality residuals, all normalized and recomputed from
    the instance data alone."""

    primal_psd: float
    equalities: float
    received_power: float
    inequalities: float
    dual_sign: float
    dual_psd: float
    comp_slack: float

    def max_residual(self):
        return max(vars(self).values())


def relaxation_audit(problem, x_mat, lam, dual_slack, objective):
    """KKT residuals of the relaxation of `problem` at the matrix x_mat, with
    multipliers lam on its power rows <G_j, X> >= h_j, the dual slack matrix
    built from them, and `objective` = <Q0, x_mat>, which scales
    complementary slackness.
    """
    scale_x = 1.0 + float(np.abs(x_mat).max())
    primal_psd = max(0.0, -float(np.linalg.eigvalsh(x_mat)[0])) / scale_x

    # the KVL rows have right-hand side 0, so their 1 + |rhs| scale is 1
    k = problem.a[0]
    xk = x_mat @ k
    eq_res = max(abs(float(k @ xk)), 2.0 * float(np.abs(xk).max()))
    n = problem.n_tx
    rp_res = abs(float(0.5 * problem.r_load * x_mat[n, n]) - 1.0) / 2.0

    h = problem.h
    slack = problem.g.reshape(h.size, x_mat.size) @ x_mat.reshape(-1) - h
    ineq_res = float((np.maximum(-slack, 0.0) / (1.0 + np.abs(h))).max(initial=0.0))
    y_ineq = np.asarray(lam[: h.size], dtype=float)
    dual_sign = float(np.maximum(-y_ineq, 0.0).max(initial=0.0))

    q = 0.5 * (dual_slack + dual_slack.T)
    scale_q = 1.0 + float(np.abs(q).max())
    dual_psd = max(0.0, -float(np.linalg.eigvalsh(q)[0])) / scale_q
    cs = abs(float(np.sum(q * x_mat))) / (1.0 + abs(objective))

    return KktReport(
        primal_psd=primal_psd,
        equalities=eq_res,
        received_power=rp_res,
        inequalities=ineq_res,
        dual_sign=dual_sign,
        dual_psd=dual_psd,
        comp_slack=cs,
    )
