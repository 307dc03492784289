"""KKT audit of a semidefinite relaxation's solution.

Recomputes every optimality residual of a primal matrix and its dual slack
from the constraint data alone, normalized so that 1e-8 is a pass on every
entry.  The pipeline audits each relaxation row with it, at the barrier's
primal matrix or at the lift c c^T of a certified dual point.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["KktReport", "kkt_residuals"]


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
        return max(
            self.primal_psd,
            self.equalities,
            self.received_power,
            self.inequalities,
            self.dual_sign,
            self.dual_psd,
            self.comp_slack,
        )


def kkt_residuals(
    c, y_ineq, dual_slack, primal_obj, *, eq_mats, eq_rhs, received, ineq_mats,
    ineq_rhs, x_vec=None, affine=None,
):
    """The audit on stacked constraint matrices: equalities <A_i, X> = b_i
    (`received` marks the received-power rows), inequalities <G_j, X> >= h_j
    with multipliers `y_ineq`, and the optional affine block (A, b) on
    `x_vec`.  `c` is the matrix iterate, `dual_slack` the dual slack matrix
    and `primal_obj` the objective that scales complementary slackness.
    """
    bordered = affine is not None and x_vec is not None
    if bordered:
        # affine form: the PSD constraint lives on the bordered matrix
        d0 = c.shape[0]
        full = np.empty((d0 + 1, d0 + 1))
        full[:d0, :d0] = c
        full[:d0, d0] = x_vec
        full[d0, :d0] = x_vec
        full[d0, d0] = 1.0
    else:
        full = c
    scale_x = 1.0 + float(np.abs(full).max())
    primal_psd = max(0.0, -float(np.linalg.eigvalsh(full)[0])) / scale_x

    flat = c.reshape(-1)
    eq_dev = eq_mats.reshape(len(eq_rhs), flat.size) @ flat - eq_rhs
    eq_res = np.abs(eq_dev) / (1.0 + np.abs(eq_rhs))
    rp_res = float(eq_res[received].max(initial=0.0))
    eq_res = float(eq_res[~received].max(initial=0.0))
    if bordered:
        a_blk, b_blk = affine
        res = a_blk @ x_vec - b_blk
        eq_res = max(
            eq_res, float(np.abs(res).max()) / (1.0 + float(np.abs(b_blk).max()))
        )

    slack = ineq_mats.reshape(len(ineq_rhs), flat.size) @ flat - ineq_rhs
    ineq_res = float((np.maximum(-slack, 0.0) / (1.0 + np.abs(ineq_rhs))).max(initial=0.0))
    dual_sign = float(np.maximum(-np.asarray(y_ineq, dtype=float), 0.0).max(initial=0.0))

    q = 0.5 * (dual_slack + dual_slack.T)
    scale_q = 1.0 + float(np.abs(q).max())
    dual_psd = max(0.0, -float(np.linalg.eigvalsh(q)[0])) / scale_q
    cs = abs(float(np.sum(q * full))) / (1.0 + abs(primal_obj))

    return KktReport(
        primal_psd=primal_psd,
        equalities=eq_res,
        received_power=rp_res,
        inequalities=ineq_res,
        dual_sign=dual_sign,
        dual_psd=dual_psd,
        comp_slack=cs,
    )
