"""End-to-end constrained optimization of a transfer link.

Every row takes one path, named by its ``form``. The closed form is tried
first; when it already meets the power rows of `wptopt.qcqp.power_rows`
(none under `constrain_powers=False`), it is returned unchanged
("closed-form"; ``skipped``). Otherwise the QCQP's binding row is solved on
its Lagrangian dual ("dual"; see :mod:`wptopt.dual`): one multiplier per
power row, certified by a positive definite reduced Hessian, a feasible
point and a zero duality gap, and audited by the KKT check of the
conic-form lift. A row the dual does not certify goes to the semidefinite
relaxation ("conic"), solved by a log-det barrier path on the same dual,
certified tight via the normalized rank-1 error, and its extracted vector
is finished on the dual. The ascent, the barrier and the finish all read
the one reduced problem `wptopt.qcqp.build_problems` makes for the row, so
A c = b is factored once per row. A relaxation whose error exceeds
`TIGHTNESS_THRESHOLD` gives status "not-tight": its point is not certified
and may break the power constraints. Each path fills in the currents,
transmit powers and efficiency of its solution vector; the receiver
compensation reactance is then recovered from that vector and the
impedance matrix.

`solve_rows` runs many links at one load, in blocks of up to `STACK_ROWS`
links: their closed forms in stacked passes, then the binding rows of each
port count together, as stacks: the problems, the dual ascent in lockstep
(`wptopt.dual.solve_duals`), the KKT audit and the operating points.  A
row the dual does not certify goes to the relaxation alone.  The rows come
out in input order, each bit for bit its one-row result.  `full_pipeline`
is its one-link case.

`optimize_load` searches the load resistance. When the closed form at the
unconstrained optimal load R* is feasible it is the answer in one
evaluation. Otherwise Brent's parabolic search in ln R_L narrows the bracket
to the relative width `LOAD_REL_TOL`, falling back to a grid scan if the
efficiency profile fails the unimodality probe.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import ImpedanceMatrix
from .closedform import ClosedFormSolution, closed_form_stacks
from .dual import solve_barrier, solve_dual, solve_duals
from .kkt import relaxation_audit, relaxation_audits
from .qcqp import QcqpProblem, build_problems, current_residuals, evaluate, power_rows

__all__ = [
    "PipelineOptions",
    "SdrResult",
    "RelaxationError",
    "solve_relaxation",
    "tightness_error",
    "extract_solution",
    "recover_operating_point",
    "full_pipeline",
    "solve_rows",
    "ROW_ERRORS",
    "optimize_load",
    "LoadSearch",
    "cap_r",
]

SKIP_TOLERANCE = -1e-12  # watts; closed-form powers above this mean no SDR run
TIGHTNESS_THRESHOLD = 1e-8  # epsilon at or below this certifies a tight relaxation
KKT_THRESHOLD = 1e-8  # worst normalized KKT residual a dual row may leave
LOAD_REL_TOL = 1e-4  # final load-search bracket width, relative
# what one row may raise without stopping the rows after it
ROW_ERRORS = (RuntimeError, ValueError, np.linalg.LinAlgError)
STACK_ROWS = 128  # links per stacked closed-form pass; bounds the peak memory


class RelaxationError(RuntimeError):
    """The relaxation solve did not reach an optimal certificate."""

    def __init__(self, status, residuals):
        self.status = status
        self.residuals = residuals
        super().__init__(f"relaxation solve ended with status {status!r}: {residuals}")


@dataclass(frozen=True)
class PipelineOptions:
    power_caps: tuple | None = None
    constrain_powers: bool = True  # off: relax the current equalities only

    def __post_init__(self):
        if self.power_caps is not None:  # finite, as power_rows checks them
            power_rows(len(self.power_caps), self.power_caps)


@dataclass
class SdrResult:
    """Relaxation outcome plus the recovered operating point.

    ``p_relax`` is the certified lower bound on dissipated power at unit
    received power; when ``tight`` the extracted vector attains it.  The
    closed-form reference at the same load rides along for the degradation
    report (``delta_eta_db`` >= 0, dB drop; ``delta_cr_rel`` the relative
    shift of the receiver compensation capacitance).  ``form`` is the path
    that produced the row: "closed-form" (``skipped``: no relaxation ran),
    "dual", or "conic" for the relaxation.  ``status`` is "closed-form",
    "optimal", or "not-tight" for a relaxation that is not tight (every
    other row is ``tight``).
    """

    status: str
    form: str
    epsilon: float
    p_relax: float
    eta: float
    r_load: float
    cvec: np.ndarray
    currents: np.ndarray
    x_r: float
    transmit_powers: np.ndarray
    iterations: int
    delta_eta_db: float = 0.0
    delta_cr_rel: float = float("nan")
    kkt: object = None
    closed_form: ClosedFormSolution = None

    @property
    def skipped(self) -> bool:
        return self.form == "closed-form"

    @property
    def tight(self) -> bool:
        return self.status != "not-tight"


def tightness_error(cmat: np.ndarray, cvec: np.ndarray) -> float:
    """Normalized distance of the matrix optimum from the rank-1 point ccT."""
    c = np.asarray(cvec, dtype=float)
    nsq = float(c @ c)
    if nsq == 0.0:
        raise ValueError("extracted vector is zero; tightness error undefined")
    return float(np.linalg.norm(cmat - np.outer(c, c))) / nsq


def extract_solution(cmat, problem):
    """Dominant-eigenvector extraction with the sign and scale conventions.

    The sign makes the receiver-current coordinate positive; the scale puts
    the vector exactly on the unit-received-power surface.  A matrix of rank
    above one still gives its dominant eigenvector: the tightness error,
    not this function, decides whether the row is certified ("not-tight").
    """
    sym = 0.5 * (cmat + cmat.T)
    w, v = np.linalg.eigh(sym)
    mu1 = float(w[-1])
    if mu1 <= 0.0:
        raise ValueError("matrix optimum has no positive eigenvalue")
    c = math.sqrt(mu1) * v[:, -1]
    ir_index = problem.n_tx
    if c[ir_index] < 0.0:
        c = -c
    if c[ir_index] <= 0.0:
        raise ValueError("extracted receiver current is not positive")
    c = c * (math.sqrt(2.0 / problem.r_load) / c[ir_index])
    return c


def recover_operating_point(c, z: ImpedanceMatrix, problem: QcqpProblem) -> float:
    """Receiver compensation reactance x_r for a feasible real solution
    vector: the one that nulls the receiver voltage of its currents
    (receiver current real).  `problem` is the QCQP of z at its load; its
    power rows play no part.  Raises ValueError when c violates the
    current constraints: the KVL residual is measured against the size of
    the terms that row sums, sum_j |A_0j c_j|, so that it keeps its meaning
    at any load and current scale.
    """
    c = np.asarray(c, dtype=float)[None]
    stack = problem.stack()
    (x_r,) = _receiver_reactances(stack, c, stack.current_from_real(c), z.entries[None])
    if isinstance(x_r, Exception):
        raise x_r
    return x_r


def _receiver_reactances(problems, c, i, z):
    """`recover_operating_point` of each row of a stack of problems at the
    rows of c, whose currents are i, with their (K, N, N) impedance
    matrices z: each row's x_r, or the ValueError it raises."""
    kvl, pl = current_residuals(problems, c)
    scale = np.abs(problems.a[:, 0] * c).sum(axis=1)
    ztr, zr = z[:, :-1, -1], z[:, -1, -1]
    x_r = -zr.imag - (ztr[:, None] @ i[:, :-1, None])[:, 0, 0].imag / i[:, -1].real
    out = []
    for row_kvl, row_pl, row_scale, row_x_r in zip(*(a.tolist() for a in (kvl, pl, scale, x_r))):
        if abs(row_kvl) > 1e-6 * row_scale or abs(row_pl) > 1e-6:
            row_x_r = ValueError(
                "vector violates the current constraints: "
                f"kvl residual {row_kvl:.3e}, received-power residual {row_pl:.3e}"
            )
        out.append(row_x_r)
    return out


def solve_relaxation(problem: QcqpProblem):
    """Solve the semidefinite relaxation and certify tightness.

    Returns a raw SdrResult: extraction and efficiency are filled in, the
    receiver reactance and closed-form comparisons are left to
    :func:`full_pipeline` (they need the impedance matrix).

    The relaxation is solved on its dual by the barrier path of
    :func:`wptopt.dual.solve_barrier`: ``p_relax`` is g(lam), a certified
    lower bound, ``epsilon`` the rank-1 error of the path's primal matrix
    at the extracted vector, ``kkt`` the audit of the two, and
    ``iterations`` the barrier's Newton steps.  Multipliers that run off
    raise RelaxationError "infeasible".  A tight relaxation's extracted
    vector is then finished on the Lagrangian dual
    (:func:`wptopt.dual.solve_dual`) from the barrier's multipliers:
    eigenvector extraction inherits the lifted matrix's O(sqrt(eps)) error,
    enough to leave a binding power a few microwatts negative, and a
    certified dual point is feasible and globally optimal.  An uncertified
    finish keeps the extracted vector.  An epsilon above
    ``TIGHTNESS_THRESHOLD`` gives status "not-tight".  The power rows are
    the problem's own: build it with ``constrain_powers=False`` to relax the
    current equalities alone.
    """
    bp = solve_barrier(problem)
    if bp.reason:
        status = {"diverging multipliers": "infeasible", "step limit": "max_iters"}
        raise RelaxationError(
            status.get(bp.reason, "failed"),
            {"reason": bp.reason, "steps": bp.steps, "lam": bp.lam.tolist()},
        )
    cvec = extract_solution(bp.x_mat, problem)
    eps = tightness_error(bp.x_mat, cvec)
    obj = float(np.sum(problem.q0 * bp.x_mat))
    kkt = relaxation_audit(problem, bp.x_mat, bp.lam, bp.dual_slack, obj)
    if eps <= TIGHTNESS_THRESHOLD:
        finish = solve_dual(problem, bp.lam)
        if finish.certified:
            cvec = finish.c
    stack = problem.stack()
    (row,) = _binding_rows(stack, cvec[None], "conic", [eps], [bp.value], [bp.steps], [kkt])
    return row


def _solve_dual(problems):
    """The constrained QCQP of each row of a stack on its Lagrangian dual,
    as raw SdrResults like :func:`solve_relaxation`'s, None where the dual
    point does not certify or the KKT audit of its conic-form lift cc^T
    fails.  The ascent, the audit and the rows are stacked."""
    points = solve_duals(problems)
    out = [None] * len(points)
    certified = [i for i, dp in enumerate(points) if dp.certified]
    if not certified:
        return out
    dps = [points[i] for i in certified]
    c = np.array([dp.c for dp in dps])
    lam = np.array([dp.lam for dp in dps])
    slack = np.array([dp.dual_slack for dp in dps])
    rows = _rows(certified, len(points))
    kkts = relaxation_audits(
        problems, c[:, :, None] * c[:, None, :], lam, slack, [dp.objective for dp in dps], rows
    )
    keep = [j for j, kkt in enumerate(kkts) if kkt.max_residual() <= KKT_THRESHOLD]
    if keep:
        rows = _rows([certified[j] for j in keep], len(points))
        dps = [dps[j] for j in keep]
        solved = _binding_rows(
            problems if isinstance(rows, slice) else problems.take(rows),
            c[keep],
            "dual",
            [0.0] * len(keep),  # cc^T is rank one
            [dp.value for dp in dps],
            [dp.steps for dp in dps],
            [kkts[j] for j in keep],
        )
        for j, row in zip(keep, solved):
            out[certified[j]] = row
    return out


def _rows(rows, n):
    """Index of the given rows of a stack of n: a slice when they are all."""
    return slice(None) if len(rows) == n else np.array(rows)


def _binding_rows(problems, c, form, epsilon, p_relax, iterations, kkt):
    """The raw SdrResults of the binding rows of a stack of problems at the
    rows of c, found on path `form` with rank-one errors `epsilon`:
    "not-tight" above `TIGHTNESS_THRESHOLD`, else "optimal"."""
    objective, powers = evaluate(problems, c)
    currents = problems.current_from_real(c)
    eta = (1.0 / (1.0 + objective)).tolist()
    r_load = problems.r_load.tolist()
    return [
        SdrResult(
            status="optimal" if epsilon[j] <= TIGHTNESS_THRESHOLD else "not-tight",
            form=form,
            epsilon=epsilon[j],
            p_relax=p_relax[j],
            eta=eta[j],
            r_load=r_load[j],
            cvec=c[j],
            currents=currents[j],
            x_r=float("nan"),
            transmit_powers=powers[j],
            iterations=iterations[j],
            kkt=kkt[j],
        )
        for j in range(len(c))
    ]


def cap_r(x_r: float, omega: float) -> float:
    """Receiver compensation capacitance for reactance ``x_r``; NaN unless x_r < 0."""
    return -1.0 / (omega * x_r) if x_r < 0.0 else float("nan")


def full_pipeline(
    z: ImpedanceMatrix,
    r_load: float | None = None,
    options: PipelineOptions | None = None,
) -> SdrResult:
    """Closed form first; the dual, then the relaxation, only where its power
    pattern is illegal (see the module docstring).  The one-row case of
    :func:`solve_rows`."""
    (res,) = solve_rows([z], r_load, options)
    if isinstance(res, Exception):
        raise res
    return res


def solve_rows(zs, r_load: float | None = None, options: PipelineOptions | None = None):
    """:func:`full_pipeline` of every link, at one load (None: each link's
    R*), as an iterator over the rows in input order.

    The links go in blocks of up to `STACK_ROWS`.  A block's closed forms
    come from stacked passes, one per port count, and each stack's powers
    are tested against its power rows by the block, one comparison per
    power row; the rows that pass take their currents and solution vectors
    as views of two stacked arrays.  The rows whose powers break the
    constraints are then solved together, one stack per port count: their
    problems, the dual ascent in lockstep, the KKT audit and the operating
    points.  A row the dual does not certify goes to the relaxation alone.
    Each row is bit for bit what the link gives alone, and yields its
    SdrResult or the `ROW_ERRORS` exception it raised: an error stays with
    its own row.  Rows are produced as they are consumed, so a caller that
    keeps only what it needs of each holds one block of results at a time.
    """
    opts = options or PipelineOptions()
    zs = list(zs)
    for start in range(0, len(zs), STACK_ROWS):
        block = zs[start:start + STACK_ROWS]
        rows, stacks = closed_form_stacks(block, r_load)
        for ks, cfs, currents, p_tx in stacks:
            try:
                legal = _meets_power_rows(p_tx, opts).tolist()
            except ROW_ERRORS as exc:  # caps of another port count fail every row
                for k, cf in zip(ks, cfs):
                    rows[k] = cf if isinstance(cf, Exception) else exc
                continue
            if True in legal:
                cvec = np.concatenate([currents.real, currents.imag[:, :-1]], axis=1)
            binding = []
            for j, (k, cf, ok) in enumerate(zip(ks, cfs, legal)):
                if isinstance(cf, Exception):
                    rows[k] = cf
                elif ok:
                    rows[k] = _closed_form_row(cf, cvec[j], currents[j])
                else:
                    binding.append((k, cf))
            if binding:
                bks, bcfs = zip(*binding)
                for k, row in zip(bks, _solve_binding([block[k] for k in bks], bcfs, opts)):
                    rows[k] = row
        yield from rows


def _meets_power_rows(p_tx, opts: PipelineOptions):
    """Whether each row of a (K, N) stack of transmit powers meets every
    power row of `power_rows`, sign * p[port] - rhs >= `SKIP_TOLERANCE`, as
    a bool array.  The rule is applied elementwise, so a NaN power fails
    it, and without power rows every row meets it: the min-loss QP is then
    the closed form itself."""
    legal = np.ones(len(p_tx), dtype=bool)
    for port, sign, rhs in power_rows(p_tx.shape[1], opts.power_caps, opts.constrain_powers):
        # a column by basic indexing: numpy releases the GIL for a gather
        # with an index array, a thread switch per call next to a busy thread
        legal &= sign * p_tx[:, port] - rhs >= SKIP_TOLERANCE
    return legal


def _closed_form_row(cf: ClosedFormSolution, cvec, currents):
    """The row of a closed form whose powers are legal, with its solution
    vector [Re i_t, i_r, Im i_t] and its currents [i_t, i_r]."""
    return SdrResult(
        status="closed-form",
        form="closed-form",
        epsilon=0.0,
        p_relax=cf.p_loss,
        eta=cf.eta,
        r_load=cf.r_load,
        cvec=cvec,
        currents=currents,
        x_r=cf.x_r,
        transmit_powers=cf.p_tx,
        iterations=0,
        delta_cr_rel=0.0,
        closed_form=cf,
    )


def _solve_binding(zs, cfs, opts: PipelineOptions):
    """The rows of same-size links whose closed forms cfs break a power
    row: the dual of all of them as one stack, the relaxation of each row
    it does not certify, then their operating points.  Each row is an
    SdrResult or the `ROW_ERRORS` exception it raised; a stack that raises
    is solved again one row at a time, so that the error stays with its
    own row."""
    try:
        problems = build_problems(zs, [cf.r_load for cf in cfs], opts.power_caps)
        rows = _solve_dual(problems)
    except ROW_ERRORS as exc:
        if len(zs) == 1:
            return [exc]
        return [row for z, cf in zip(zs, cfs) for row in _solve_binding([z], [cf], opts)]
    for i, row in enumerate(rows):
        if row is None:
            try:
                rows[i] = solve_relaxation(problems.row(i))
            except ROW_ERRORS as exc:
                rows[i] = exc
    solved = [i for i, row in enumerate(rows) if not isinstance(row, Exception)]
    if not solved:
        return rows
    x_rs = _receiver_reactances(
        problems if len(solved) == len(rows) else problems.take(solved),
        np.array([rows[i].cvec for i in solved]),
        np.array([rows[i].currents for i in solved]),
        np.array([zs[i].entries for i in solved]),
    )
    for i, x_r in zip(solved, x_rs):
        if isinstance(x_r, Exception):
            rows[i] = x_r
            continue
        res, cf, omega = rows[i], cfs[i], zs[i].omega
        cr_cf, cr_sdr = cap_r(cf.x_r, omega), cap_r(x_r, omega)
        try:
            rows[i] = replace(
                res,
                x_r=x_r,
                delta_eta_db=10.0 * math.log10(cf.eta / res.eta),
                delta_cr_rel=(cr_sdr - cr_cf) / cr_cf if math.isfinite(cr_cf) else float("nan"),
                closed_form=cf,
            )
        except ROW_ERRORS as exc:
            rows[i] = exc
    return rows


@dataclass(frozen=True)
class LoadSearch:
    r_load: float
    result: SdrResult
    evaluations: int
    method: str


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def optimize_load(z: ImpedanceMatrix, options: PipelineOptions | None = None) -> LoadSearch:
    """Outer load-resistance search wrapping the full pipeline.

    The first evaluation is at the unconstrained optimal load R*.  A row
    there that skips the relaxation meets every constraint while reaching
    the unconstrained optimum of currents and load together, so it is the
    exact maximum of the efficiency over all loads ("closed-form", one
    evaluation).  Otherwise `_bracket_search` maximizes the efficiency over
    a decade either side of R*.  A row whose relaxation is not tight is
    ranked by its certified bound, and the best evaluated row is returned.
    """
    opts = options or PipelineOptions()
    first = full_pipeline(z, None, opts)  # at R*
    if first.skipped:
        return LoadSearch(first.r_load, first, 1, "closed-form")
    mid = first.r_load
    rows = {mid: first}

    def eta_at(rl):
        if rl not in rows:
            rows[rl] = full_pipeline(z, rl, opts)
        return _ranked_eta(rows[rl])

    best, method = _bracket_search(eta_at, mid / 10.0, mid, mid * 10.0)
    return LoadSearch(float(best), rows[best], len(rows), method)


def _ranked_eta(res):
    """The efficiency the load search ranks a row by.  A row whose
    relaxation is not tight may carry an infeasible point that beats every
    feasible one: it is ranked by its certified bound."""
    return res.eta if res.tight else 1.0 / (1.0 + res.p_relax)


def _bracket_search(eta_at, lo, mid, hi):
    """(load, method) maximizing eta_at over [lo, hi], lo < mid < hi, each
    load evaluated once.

    After a unimodality probe (mid against the edges), Brent's safeguarded
    parabolic search (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) maximizes eta in ln R_L until the bracket is
    within ``LOAD_REL_TOL`` relative ("brent").  A failed probe (interior no
    better than the edges) drops to a logarithmic grid scan ("grid").  The
    best load evaluated is returned.
    """
    etas = {}

    def eta(rl):
        if rl not in etas:
            etas[rl] = eta_at(rl)
        return etas[rl]

    if eta(mid) < min(eta(lo), eta(hi)):
        return max(np.geomspace(lo, hi, 64), key=eta), "grid"

    # Brent's minimization of -eta over u = ln R_L; stops once the bracket
    # [a, b] is at most 4 tol = LOAD_REL_TOL wide
    tol = LOAD_REL_TOL / 4.0
    a, b = math.log(lo), math.log(hi)
    x = w = v = math.log(mid)
    fx = fw = fv = -eta(mid)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:  # fit a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q  # parabolic step
            if (x + d - a) < 2.0 * tol or (b - x - d) < 2.0 * tol:
                d = tol if x <= m else -tol
        else:  # golden-section step into the larger part
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -eta(math.exp(u))
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return max(etas, key=eta), "brent"

