"""Lagrangian dual of the minimum-loss QCQP, one multiplier per power row.

The QCQP is  min c^T Q0 c  s.t.  A c = b,  c^T G_j c >= h_j,  with the signed
power rows G_j = s_j Q_n, h_j of `wptopt.qcqp.power_rows`: s_j = +1, h_j = 0
for a nonnegative transmit power and s_j = -1, h_j = -cap_n for a capped
one.  Its Lagrangian dual function is

    g(lam) = min_{A c = b} c^T H(lam) c + sum_j lam_j h_j,
    H(lam) = Q0 - sum_j lam_j G_j,

maximized over lam >= 0.  The Shor relaxation's dual is this same problem
(Vandenberghe & Boyd, SIAM Rev. 1996), so a dual point settles everything
the SDR would: with V an orthonormal basis of null(A) and c_p a particular
solution of A c = b, both from the reduced problem `wptopt.qcqp.build_problem`
returns,

- H is positive definite on null(A) iff the reduced Hr = V^T H V has a
  Cholesky factor, and then c(lam) = c_p - V Hr^-1 V^T H c_p is the minimizer;
- the gradient is  dg/dlam_j = -(c^T G_j c - h_j);
- the Hessian is  -2 B Hr^-1 B^T  with rows  B_j = V^T G_j c.

A feasible c(lam) whose multipliers close the duality gap
(sum_j lam_j (c^T G_j c - h_j) = c^T Q0 c - g(lam) = 0) is globally optimal,
and the relaxation is tight at it: the paper's tightness test, reached
without a semidefinite program.

`solve_dual` is the ascent that finds such a point.  The dual Hessian is
close to rank one near coupling cancellations (the total input power almost
fixes p_1 + p_2), where a projected Newton method that frees "lam > 0 or
gradient > 0" keeps a multiplier that should be zero (Bertsekas, SIAM J.
Control Optim. 1982).  Each step here instead maximizes the quadratic model
exactly over lam + d >= 0 by enumerating the faces of the orthant (2^k of
them for k rows), with Levenberg damping until the trial point
stays in the positive definite domain and either g rises or the projected
gradient halves.  The ascent gives up as "stalled" after 15 steps without
the projected gradient halving: a row whose relaxation is not tight has no
certificate to reach, and a tight one whose maximizer sits on the edge of
the domain is left to the barrier.  It starts at lam = 0, where H = Q0, or
at a given lam such as the barrier's multipliers, from which a tight
relaxation's rank-one point is a step or two away.  A start outside the
positive definite domain returns uncertified at once.

`solve_barrier` solves the relaxation itself on the same dual, by a
log-det barrier path (Boyd & Vandenberghe, Convex Optimization, ch. 11).
The relaxation's redundant KVL rows force X k = 0, and range([V, c_p]) is
k-perp, so in the basis [V, c_p] its dual constraint is the bordered matrix
[[Hr, f], [f^T, kappa - nu]] >= 0, nu the received-power multiplier.  The
best nu for a given t is g(lam) - lam.h - 1/t, so the barrier is in lam
alone:

    phi_t(lam) = t g(lam) + log det Hr(lam) + sum_j log lam_j,

whose log-det terms add -tr(Hr^-1 Hr_j) to the gradient and
-tr(Hr^-1 Hr_i Hr^-1 Hr_j) to the Hessian, from the Cholesky factor `at`
already takes.  The primal matrix of the central path is
c c^T + V Hr^-1 V^T / t, at a duality gap of (dim Hr + k)/t; g(lam) is the
certified bound.  The path starts near lam = 0 and t grows a hundredfold
per centered point until that gap is 1e-12 of g.  Newton runs in k
variables, one per power row, and converges where the ascent stalls: on the
boundary of the positive definite domain.  Multipliers that run off past
`LAM_LIMIT` mean the power caps admit no point.

Both solvers, and the ascent that finishes a barrier row, return a
`DualPoint` and read one reduced problem: V, c_p and the projected
matrices are computed once per row, by `wptopt.qcqp.build_problems`.  A
certified point also yields the dual slack of the conic relaxation at lam,
so the relaxation's KKT audit can check the lift c c^T.

`solve_duals` runs the ascent of every row of a stack of problems (a
block's binding rows of one port count) in lockstep.  The ascent is
written once, as a generator per row (`_ascent`) that takes its model
steps itself and asks only for its point at each trial lam.  The point
evaluation is written once too, as `_at` over leading axes: each turn
evaluates the trial points of all rows still ascending as one stack, and
the last row still ascending, and so the one row of `solve_dual`, is
evaluated on its own problem, as is each point of the barrier.  Stacked
numpy gives each matrix the bits it gets alone, so every row's point is
bit for bit the one it reaches alone.

Only numpy is used: `np.linalg.cholesky` is the positive-definite test of
Hr and of each face system, which are then solved through that factor
(face systems of order 1 and 2 inline), by `_inverse_cholesky_factors`.
A stacked factorization fails as a whole when one matrix fails, so such a
stack of Hr is factored again one matrix at a time.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

__all__ = ["DualPoint", "solve_barrier", "solve_dual", "solve_duals"]

MAX_STEPS = 60  # Newton steps before giving up on a row
STALL_STEPS = 15  # steps without the projected gradient halving: stalled
GRAD_TOL = 1e-11  # projected gradient, relative to max(1, c^T Q0 c)
SLACK_TOL = 1e-9  # constraint violation, relative to max(1, max|p|)
GAP_TOL = 1e-12  # duality gap, relative to c^T Q0 c
# lam_j |G_j| / |Q0| above this: the ascent runs off towards an unbounded
# dual, which means no feasible point (it stays below 1 on the sweeps)
LAM_LIMIT = 1e8
# Levenberg damping, in units of the largest Hessian diagonal entry
_DAMPING = (0.0,) + tuple(10.0**e for e in range(-12, 4))
# the barrier path (`solve_barrier`)
BARRIER_GAP = 1e-12  # (dim Hr + N)/t at the stop, relative to max(1, |g|)
BARRIER_STEPS = 200  # Newton steps over the whole path
T_FACTOR = 100.0  # t grows by this once a point is centered
CENTERED = 1e-3  # half the squared Newton decrement of a centered point
LAM_START = 1e-3  # start multipliers, in units of 1 / lam_scale


@dataclass(frozen=True)
class DualPoint:
    """Where the dual ascent or the barrier path stopped.

    ``c`` minimizes c^T H(lam) c on A c = b; ``value`` is g(lam), a lower
    bound on the loss whenever ``lam`` >= 0 and Hr is positive definite;
    ``objective`` is c^T Q0 c and ``gap`` the duality gap
    sum_j lam_j (c^T G_j c - h_j) over the objective.  A start outside the
    positive definite domain leaves ``c`` None and the numbers NaN.
    ``reason`` names why the solver stopped, empty when it certified its
    point: the ascent's c globally optimal within the gap and slack
    tolerances, or the barrier's gap within `BARRIER_GAP`.
    ``dual_slack`` is the conic relaxation's dual slack at lam (see
    `_conic_dual_slack`), set on every point the barrier reaches and on
    certified ascent points.  ``x_mat`` is the barrier's primal matrix of
    the relaxation, the central path's c c^T + V Hr^-1 V^T / t corrected
    along the last Newton step, whose gap to ``value`` is about
    (dim Hr + N)/t; None on ascent points and uncertified barrier points.
    """

    reason: str
    lam: np.ndarray
    c: np.ndarray
    value: float
    objective: float
    gap: float
    steps: int
    dual_slack: np.ndarray | None
    x_mat: np.ndarray | None = None

    @property
    def certified(self):
        return not self.reason


def _at(problems, lam):
    """Everything the ascent and the barrier need at lam on the reduced
    problem, and whether Hr is inside the PD domain there.

    Written over leading axes: one problem at a lam of k multipliers gives
    one point and a 0-d flag; a stack of problems at a (K, k) lam gives
    stacked points and a mask of the rows inside (the points of the others
    mean nothing).  When no row is inside, the point is None.  Stacked
    numpy gives each row the bits it gets alone."""
    p = problems
    lam_row = lam[..., None, :]
    hr = p.hr0 - (lam_row @ p.hrn)[..., 0, :].reshape(p.hr0.shape)
    linv, inside = _inverse_cholesky_factors(hr)
    if not inside.any():
        return None, inside
    u = linv.mT @ (linv @ (p.f0 - (lam_row @ p.fn)[..., 0, :])[..., None])
    c = p.cp - (p.v @ u)[..., 0]
    qc = (p.g @ c[..., None, :, None])[..., 0]
    slack = (qc @ c[..., None])[..., 0] - p.h
    obj = (c[..., None, :] @ p.q0 @ c[..., None])[..., 0, 0]
    lam_slack = (lam_row @ slack[..., None])[..., 0, 0]
    g = qc @ p.v @ linv.mT  # B L^-T, so B Hr^-1 B^T = g g^T
    return _Points(lam, c, slack, obj, obj - lam_slack, lam_slack, -2.0 * (g @ g.mT), linv), inside


def _conic_dual_slack(problems, lam, c, rows=slice(None)):
    """Dual slack of the conic relaxation at lam, for the problems[rows] of
    a stack.

    With the received-power multiplier nu = c^T H c, S0 = H - nu R, R
    the received-power row (R_L / 2 on the receiver's diagonal entry
    alone), is positive semidefinite on the KVL row's complement k-perp
    whenever Hr is positive definite and c is the minimizer, and S0 c is
    parallel to k.  The redundant KVL rows' multipliers
    y = S0 k / |k|^2 - beta k, beta = k^T S0 k / (2 |k|^4), and none on
    the primary KVL row turn it into P S0 P, P the projector onto
    k-perp: positive semidefinite on the whole space, with c in its null
    space up to rounding.
    """
    n_rows, m = c.shape
    g = problems.g[rows].reshape(n_rows, lam.shape[1], m * m)
    s0 = problems.q0[rows] - (lam[:, None] @ g)[:, 0].reshape(n_rows, m, m)  # H, then S0
    nu = (c[:, None] @ s0 @ c[..., None])[:, 0, 0]
    n = problems.n_tx
    s0[:, n, n] -= nu * (0.5 * np.asarray(problems.r_load)[rows])
    k = problems.a[rows][:, 0]  # the KVL row
    k_hat = k / np.sqrt(k[:, None] @ k[..., None])[:, 0]
    proj = np.eye(m) - k_hat[:, :, None] * k_hat[:, None, :]
    return proj @ s0 @ proj


class _Points(NamedTuple):
    """What `_at` finds at lam: one problem's point, or a stack's, whose
    fields then carry a leading row axis.  The scalars are numpy's."""

    lam: np.ndarray
    c: np.ndarray
    slack: np.ndarray  # c^T G_j c - h_j, >= 0 when feasible
    obj: np.ndarray
    value: np.ndarray  # g(lam)
    lam_slack: np.ndarray  # lam . slack
    hess: np.ndarray
    linv: np.ndarray  # inverse Cholesky factor of Hr

    def pgrad(self):
        """Largest entry of the projected gradient of g on lam >= 0."""
        grad = -self.slack
        pg = np.where(self.lam > 0.0, grad, np.maximum(grad, 0.0))
        return float(np.abs(pg).max(initial=0.0))

    def row(self, i):
        """Point i of a stack."""
        return _Points(*(arr[i] for arr in self))


def _inverse_cholesky_factors(mat):
    """L^-1 for the Cholesky factor L of a symmetric matrix, so that
    mat^-1 = L^-T L^-1, and whether the matrix passes the Cholesky test; a
    matrix that fails gets zeros.  A (K, n, n) stack gives K factors and a
    mask: the Hr of the trial points `_at` evaluates in lockstep.

    Solving through the factor that passed the test keeps a nearly singular
    but positive definite system solvable, where an LU solve may meet an
    exactly zero pivot.  numpy's stacked Cholesky factorization fails as a
    whole when one matrix fails.  The matrices whose least eigenvalue is
    positive are then factored again as a stack, and the others one at a
    time, as is a stack that fails again."""
    try:
        return np.linalg.inv(np.linalg.cholesky(mat)), np.ones(mat.shape[:-2], bool)
    except np.linalg.LinAlgError:
        pass
    linv, passed = np.zeros(mat.shape), np.zeros(mat.shape[:-2], bool)
    if mat.ndim == 2:
        return linv, passed
    likely = np.linalg.eigvalsh(mat)[:, 0] > 0.0
    rows = range(len(mat))
    if 1 < likely.sum() < len(mat):
        linv[likely], passed[likely] = _inverse_cholesky_factors(mat[likely])
        rows = np.flatnonzero(~likely).tolist()
    for i in rows:
        linv[i], passed[i] = _inverse_cholesky_factors(mat[i])
    return linv, passed


def _cholesky_solve(mat, rhs):
    """mat^-1 rhs through the Cholesky factor of a symmetric matrix, or None
    when the matrix fails the Cholesky test.  Orders 1 and 2, most of the
    face systems, are factored inline with LAPACK's arithmetic: a call
    through numpy.linalg costs more than the whole solve at that size."""
    if len(rhs) > 2:
        linv, passed = _inverse_cholesky_factors(mat)
        return linv.T @ (linv @ rhs) if passed else None
    a = float(mat[0, 0])
    if not a > 0.0:
        return None
    l11 = math.sqrt(a)
    y0 = float(rhs[0]) / l11
    if len(rhs) == 1:
        return np.array([y0 / l11])
    l21 = float(mat[1, 0]) / l11
    t = float(mat[1, 1]) - l21 * l21
    if not t > 0.0:
        return None
    l22 = math.sqrt(t)
    x1 = (float(rhs[1]) - l21 * y0) / l22 / l22
    return np.array([(y0 - l21 * x1) / l11, x1])


@lru_cache(maxsize=None)
def _faces(k):
    """(free, fixed) index arrays of the 2^k faces of the orthant in R^k.
    Read-only, since every caller shares them."""
    out = []
    for mask in product((True, False), repeat=k):
        mask = np.array(mask)
        free, fixed = np.flatnonzero(mask), np.flatnonzero(~mask)
        free.flags.writeable = fixed.flags.writeable = False
        out.append((free, fixed))
    return tuple(out)


def _model_step(lam, grad, neg_hess):
    """Maximize grad.d - d.neg_hess.d / 2 over lam + d >= 0 exactly.

    Each face fixes a subset of the multipliers at zero and solves the
    model's stationarity on the rest; the best face optimum that keeps every
    free multiplier nonnegative is the constrained maximizer.  The model is
    concave, so a face optimum whose model gradient points out of the
    orthant on every fixed multiplier is that maximizer at once.  The face
    the current gradient suggests is tried first, and skipped where it
    falls among the rest.
    """
    guess = lam > 0.0
    guess |= grad > 0.0
    # the guessed face's index in `_faces`: its fixed multipliers read as
    # binary digits.  In Python, not np.arange, which releases the GIL and
    # so costs a thread switch per step when threads share the process
    first = 0
    for fixed in (~guess).tolist():
        first = 2 * first + fixed
    faces = _faces(lam.size)
    faces = (faces[first],) + faces[:first] + faces[first + 1 :]
    best, best_val = None, -np.inf
    for free, fixed in faces:
        d = -lam
        if free.size:
            rows = free[:, None]
            rhs = grad[free] - neg_hess[rows, fixed] @ d[fixed]
            d_free = _cholesky_solve(neg_hess[rows, free], rhs)
            if d_free is None:
                continue
            if (lam[free] + d_free < 0.0).any():
                continue
            d[free] = d_free
        model_grad = grad - neg_hess @ d
        if (model_grad[fixed] <= 0.0).all():
            return d
        val = grad @ d - 0.5 * (d @ neg_hess @ d)
        if val > best_val:
            best, best_val = d, val
    return best


def _ascent(lam, lam_scale, h):
    """The dual ascent of one problem from lam, as a generator of the points
    it needs: it yields each trial lam, to be sent `_at` of the problem
    there, and takes its model steps itself.  Returns (reason, the point it
    stopped at, its steps, the duality gap there), or None when lam is
    outside the domain; lam_scale and h are the problem's.
    """
    pt = yield lam
    if pt is None:
        return None
    k = lam.size
    steps = 0
    reason = "step limit"
    ref_pg, ref_step = np.inf, 0  # last projected gradient that halved
    while steps < MAX_STEPS:
        pg = pt.pgrad()
        if pg <= 0.5 * ref_pg:
            ref_pg, ref_step = pg, steps
        if pg <= GRAD_TOL * max(1.0, pt.obj) and abs(pt.lam_slack) <= GAP_TOL * pt.obj:
            reason = ""
            break
        if steps - ref_step >= STALL_STEPS:
            reason = "stalled"
            break
        grad = -pt.slack
        hess_scale = max(float(np.abs(np.diag(pt.hess)).max()), 1e-300)
        trial = None
        for mu in _DAMPING:
            neg_hess = mu * hess_scale * np.eye(k) - pt.hess
            d = _model_step(pt.lam, grad, neg_hess)
            if d is None:
                continue
            # multipliers sent to a face land on exact zeros
            lam_new = np.where(pt.lam + d <= 0.0, 0.0, pt.lam + d)
            cand = yield lam_new
            if cand is not None and (cand.value > pt.value or cand.pgrad() <= 0.5 * pg):
                trial = cand
                break
        if trial is None:
            reason = "no ascent step"
            break
        pt = trial
        steps += 1
        if (pt.lam * lam_scale).max() > LAM_LIMIT:
            reason = "diverging multipliers"
            break

    p_scale = max(1.0, float(np.abs(pt.slack + h).max(initial=0.0)))
    gap = pt.lam_slack / pt.obj
    # g(lam) bounds the loss from below at any lam >= 0 in the domain, so a
    # feasible c that closes the gap is optimal however the ascent ended:
    # near-singular rows can stall with the gap closed but the projected
    # gradient held above GRAD_TOL by rounding
    if pt.slack.min(initial=0.0) >= -SLACK_TOL * p_scale and abs(gap) <= GAP_TOL:
        reason = ""
    elif not reason:
        reason = "infeasible point"
    return reason, pt, steps, gap


def solve_dual(problem, lam=None):
    """Maximize the Lagrangian dual of a constrained QCQP from lam, clipped
    to lam >= 0 (default 0, where H = Q0 is positive definite); see module
    docs.  The one-problem case of `solve_duals`."""
    return solve_duals(problem.stack(), None if lam is None else np.asarray(lam)[None])[0]


def solve_duals(problems, lam=None):
    """`solve_dual` of each problem of a stack (see
    `wptopt.qcqp.QcqpProblem`) from the rows of lam, as a list of
    DualPoints.

    The rows ascend in lockstep: every row runs its own `_ascent`, which
    takes its model steps itself, and the trial points they ask for at each
    turn are evaluated as one stack, as are the dual slacks of the rows
    that certify.  The last row still ascending, and so the row of a stack
    of one, is evaluated on its own problem.  Each row's point is bit for
    bit the one it reaches alone.
    """
    n_rows, k = problems.h.shape
    start = np.zeros((n_rows, k)) if lam is None else np.maximum(lam, 0.0)
    ascents, asks, ends = {}, {}, {}
    for i in range(n_rows):
        ascents[i] = _ascent(start[i], problems.lam_scale[i], problems.h[i])
        _advance(ascents, asks, ends, i, None)
    while len(asks) > 1:
        for i, answer in _answers(problems, asks).items():
            _advance(ascents, asks, ends, i, answer)
    for i, lam_i in asks.items():  # the last row ascends alone
        ends[i] = _alone(ascents[i], lam_i, problems.row(i))

    out = [None] * n_rows
    certified = sorted(i for i, end in ends.items() if end is not None and not end[0])
    slacks = {}
    if certified:
        lam_c = np.array([ends[i][1].lam for i in certified])
        c_c = np.array([ends[i][1].c for i in certified])
        rows = slice(None) if len(certified) == n_rows else np.array(certified)
        slacks = dict(zip(certified, _conic_dual_slack(problems, lam_c, c_c, rows)))
    for i, end in ends.items():
        if end is None:
            out[i] = _outside(None if lam is None else lam[i])
            continue
        reason, pt, steps, gap = end
        out[i] = DualPoint(
            reason, pt.lam, pt.c, float(pt.value), float(pt.obj), float(gap), steps, slacks.get(i)
        )
    return out


def _answers(problems, asks):
    """The points the rows of a stack ask for, evaluated as one stack."""
    if len(asks) < len(problems.h):
        problems = problems.take(np.array(list(asks)))
    cands, passed = _at(problems, np.array(list(asks.values())))
    return {i: cands.row(j) if passed[j] else None for j, i in enumerate(asks)}


def _alone(ascent, lam, problem):
    """Drive one row's ascent to its end with `_at` of its one problem."""
    while True:
        try:
            lam = ascent.send(_at(problem, lam)[0])
        except StopIteration as stop:
            return stop.value


def _advance(ascents, asks, ends, i, answer):
    """Send row i's ascent its answer; file what it asks next, or its end."""
    try:
        asks[i] = ascents[i].send(answer)
    except StopIteration as stop:
        asks.pop(i, None)
        ends[i] = stop.value


def solve_barrier(problem):
    """The semidefinite relaxation on its reduced dual; see module docs.

    Maximizes phi_t(lam) = t g(lam) + log det Hr(lam) + sum_j log lam_j by
    damped Newton steps, t growing by `T_FACTOR` once a point is centered.
    Without power rows the relaxation is g of no multipliers, attained by
    the lift c c^T of the minimizer of c^T Q0 c.
    """
    k = problem.h.size
    if k == 0:
        pt = _at(problem, np.zeros(k))[0]
        return _barrier_point("", pt, 0, np.outer(pt.c, pt.c), problem)
    lam = LAM_START / problem.lam_scale
    for _ in range(60):  # towards lam = 0, where Hr = V^T Q0 V is positive definite
        pt = _at(problem, lam)[0]
        if pt is not None:
            break
        lam = 0.5 * lam
    else:
        return _outside(lam)
    order = problem.hr0.shape[0] + k
    hrn = problem.hrn.reshape((k,) + problem.hr0.shape)
    t = order / (1e-3 * max(1.0, abs(pt.value)))

    def phi(p):
        # log det Hr = -2 sum log diag(L^-1)
        log_det = -2.0 * float(np.log(np.diag(p.linv)).sum())
        return t * p.value + log_det + float(np.log(p.lam).sum())

    steps, reason = 0, "step limit"
    while steps < BARRIER_STEPS:
        m = pt.linv @ hrn @ pt.linv.T  # L^-1 Hr_j L^-T
        flat = m.reshape(k, -1)
        grad = -t * pt.slack - np.trace(m, axis1=1, axis2=2) + 1.0 / pt.lam
        neg_hess = -t * pt.hess + flat @ flat.T + np.diag(pt.lam**-2.0)
        d = np.linalg.solve(neg_hess, grad)
        dec = float(grad @ d)  # Newton decrement, squared
        if dec <= 2.0 * CENTERED:
            if order / t <= BARRIER_GAP * max(1.0, abs(pt.value)):
                reason = ""
                break
            t *= T_FACTOR
            continue
        # backtrack into the domain and to an Armijo rise, less phi's own
        # rounding, without which a step at t ~ 1e13 can never qualify
        f0 = phi(pt)
        floor = f0 - 1e-13 * abs(f0)
        s, cand = 1.0, None
        while cand is None and s > 1e-12:
            lam_new = pt.lam + s * d
            if lam_new.min() > 0.0:
                cand = _at(problem, lam_new)[0]
                if cand is not None and phi(cand) < floor + 0.25 * s * dec:
                    cand = None
            s *= 0.5
        if cand is None:
            reason = "no barrier step"
            break
        pt = cand
        steps += 1
        if (pt.lam * problem.lam_scale).max() > LAM_LIMIT:
            reason = "diverging multipliers"
            break

    x_mat = None
    if not reason:
        # the primal matrix of the last Newton system: c c^T + V Hr^-1 V^T / t
        # taken to first order along the step d.  It meets the equality rows
        # exactly and each power row with slack (1 - d_j / lam_j) / (t lam_j),
        # and it is positive semidefinite, while the decrement is below 1
        # dc = V Hr^-1 (d.f_j - sum_j d_j Hr_j u), c = c_p - V u
        rhs = d @ problem.fn + np.tensordot(d, hrn, 1) @ (problem.v.T @ pt.c)
        dc = problem.v @ (pt.linv.T @ (pt.linv @ rhs))
        cross = np.outer(dc, pt.c)
        v_lt = problem.v @ pt.linv.T  # V L^-T, so V Hr^-1 V^T = v_lt v_lt^T
        core = np.eye(v_lt.shape[1]) + np.tensordot(d, m, 1)
        x_mat = np.outer(pt.c, pt.c) + cross + cross.T + v_lt @ core @ v_lt.T / t
    return _barrier_point(reason, pt, steps, x_mat, problem)


def _outside(lam):
    """The DualPoint of a start outside the positive definite domain."""
    nan = math.nan
    return DualPoint("start outside the domain", lam, None, nan, nan, nan, 0, None)


def _barrier_point(reason, pt, steps, x_mat, problem):
    """The DualPoint of the barrier path stopped at pt."""
    return DualPoint(
        reason=reason,
        lam=pt.lam,
        c=pt.c,
        value=float(pt.value),
        objective=float(pt.obj),
        gap=float(pt.lam @ pt.slack) / float(pt.obj),
        steps=steps,
        dual_slack=_conic_dual_slack(problem.stack(), pt.lam[None], pt.c[None])[0],
        x_mat=x_mat,
    )
