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
    complementary slackness.  The one-point case of `relaxation_audits`.
    """
    (report,) = relaxation_audits(
        problem.stack(), x_mat[None], np.asarray(lam)[None], dual_slack[None], [objective]
    )
    return report


def relaxation_audits(problems, x_mat, lam, dual_slack, objective, rows=slice(None)):
    """`relaxation_audit` of the problems[rows] of a stack (see
    `wptopt.qcqp.QcqpProblem`) at a stack of points, as a list of
    KktReports, each bit for bit the report of its point alone."""
    n_rows = len(x_mat)
    # X and the symmetric part of the dual slack: their PSD residuals
    both = np.concatenate([x_mat, 0.5 * (dual_slack + dual_slack.mT)])
    low = -np.linalg.eigvalsh(both)[:, 0]
    psd = np.where(low > 0.0, low, 0.0) / (1.0 + np.abs(both).reshape(2 * n_rows, -1).max(axis=1))

    # the KVL rows have right-hand side 0, so their 1 + |rhs| scale is 1
    k = problems.a[rows][:, 0]
    xk = (x_mat @ k[..., None])[..., 0]
    k_xk = np.abs((k[:, None] @ xk[..., None])[:, 0, 0])
    xk_max = 2.0 * np.abs(xk).max(axis=1)
    n = problems.n_tx
    r_load = np.asarray(problems.r_load)[rows]

    g, h = problems.g[rows], problems.h[rows]
    flat = g.reshape(g.shape[:2] + (x_mat[0].size,))
    slack = (flat @ x_mat.reshape(n_rows, -1, 1))[..., 0] - h
    y_ineq = np.asarray(lam, dtype=float)[:, : h.shape[1]]

    columns = (
        psd[:n_rows],
        np.where(xk_max > k_xk, xk_max, k_xk),  # Python's max of the two
        np.abs(0.5 * r_load * x_mat[:, n, n] - 1.0) / 2.0,
        (np.maximum(-slack, 0.0) / (1.0 + np.abs(h))).max(axis=1, initial=0.0),
        np.maximum(-y_ineq, 0.0).max(axis=1, initial=0.0),
        psd[n_rows:],
        np.abs((both[n_rows:] * x_mat).reshape(n_rows, -1).sum(axis=1))
        / (1.0 + np.abs(objective)),
    )
    return [KktReport(*row) for row in zip(*(col.tolist() for col in columns))]
