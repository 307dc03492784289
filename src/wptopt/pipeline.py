"""End-to-end constrained optimization of a transfer link.

Every row takes one path, named by its ``form``. The closed form is tried
first; when it already satisfies the transmit-power constraints, or there
are none (`constrain_powers=False`), it is returned unchanged ("closed-form",
skipped=True). Otherwise the QCQP's binding row is solved on its Lagrangian
dual ("dual"; see :mod:`wptopt.dual`): one multiplier per transmitter,
certified by a positive definite reduced Hessian, a feasible point and a
zero duality gap, and audited by the KKT check of the conic-form lift. A row
the dual does not certify goes to the semidefinite relaxation ("conic", or
"affine" when the affine retry was kept), certified tight via the normalized
rank-1 error, and its extracted vector is finished on the dual. A relaxation
whose error exceeds `TIGHTNESS_THRESHOLD` gives status "not-tight": its
point is not certified and may break the power constraints. The operating
point (currents, receiver reactance, load voltages, efficiency) is then
recovered from the solution vector.

`optimize_load` searches the load resistance. When the closed form at the
unconstrained optimal load R* is feasible it is the answer in one
evaluation. Otherwise Brent's parabolic search in ln R_L narrows the bracket
to the relative width `LOAD_REL_TOL`, falling back to a grid scan if the
efficiency profile fails the unimodality probe.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .circuit import ImpedanceMatrix, Loading, apply_loading, hash_matrix
from .closedform import ClosedFormSolution, solve_closed_form
from .dual import solve_dual
from .qcqp import QcqpProblem, build_problem, evaluate
from .sdp import SdpInstance, SdpSolution, check_kkt, solve

__all__ = [
    "PipelineOptions",
    "SdrResult",
    "RelaxationError",
    "build_instance",
    "solve_relaxation",
    "tightness_error",
    "extract_solution",
    "recover_operating_point",
    "full_pipeline",
    "optimize_load",
    "LoadSearch",
    "cap_r",
    "result_record",
]

SKIP_TOLERANCE = -1e-12  # watts; closed-form powers above this mean no SDR run
TIGHTNESS_THRESHOLD = 1e-8  # epsilon at or below this certifies a tight relaxation
KKT_THRESHOLD = 1e-8  # worst normalized KKT residual an attempt may leave
RANK_RATIO_LIMIT = 1e-4  # second/first eigenvalue above this: heuristic extraction
LOAD_REL_TOL = 1e-4  # final load-search bracket width, relative


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
        if self.power_caps is not None and not all(
            math.isfinite(cap) for cap in self.power_caps
        ):
            raise ValueError(f"power caps must be finite, got {tuple(self.power_caps)}")


@dataclass
class SdrResult:
    """Relaxation outcome plus the recovered operating point.

    ``p_relax`` is the certified lower bound on dissipated power at unit
    received power; when ``tight`` the extracted vector attains it.  The
    closed-form reference at the same load rides along for the degradation
    report (``delta_eta_db`` >= 0, dB drop; ``delta_cr_rel`` the relative
    shift of the receiver compensation capacitance).  ``form`` is the path
    that produced the row: "closed-form", "dual", or the relaxation form an
    SDR solve kept ("conic" or "affine").  ``status`` is "closed-form",
    "optimal", or "not-tight" for a relaxation that is not tight.
    """

    status: str
    form: str
    skipped: bool
    tight: bool
    epsilon: float
    p_relax: float
    eta: float
    r_load: float
    cmat: np.ndarray
    cvec: np.ndarray
    currents: np.ndarray
    x_r: float
    transmit_powers: np.ndarray
    iterations: int
    delta_eta_db: float = 0.0
    delta_cr_rel: float = float("nan")
    kkt: object = None
    closed_form: ClosedFormSolution = None


def build_instance(
    problem: QcqpProblem, form: str = "conic", constrain_powers: bool = True
) -> SdpInstance:
    """Assemble the solver instance for a QCQP in either relaxation form."""
    if not constrain_powers:
        ineqs = ()
    elif problem.power_caps is not None:
        ineqs = tuple(
            (qn, "<=", float(cap), f"tx-power-{n}")
            for n, (qn, cap) in enumerate(zip(problem.q, problem.power_caps))
        )
    else:
        ineqs = tuple(
            (qn, ">=", 0.0, f"tx-power-{n}") for n, qn in enumerate(problem.q)
        )
    if form == "affine":
        return SdpInstance(
            cost=problem.q0,
            inequalities=ineqs,
            affine=(problem.a, problem.b),
        )
    if form != "conic":
        raise ValueError(f"unknown relaxation form {form!r}")
    eqs = [(problem.r_mat, 1.0, "received-power"), (problem.k0, 0.0, "kvl-primary")]
    for m, km in enumerate(problem.k_redundant):
        eqs.append((km, 0.0, f"kvl-redundant-{m}"))
    return SdpInstance(cost=problem.q0, equalities=tuple(eqs), inequalities=ineqs)


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
    the vector exactly on the unit-received-power surface.  A second
    eigenvalue above ``RANK_RATIO_LIMIT`` times the first flags a clearly
    rank-deficient relaxation; the vector is still returned as a heuristic.
    """
    sym = 0.5 * (cmat + cmat.T)
    w, v = np.linalg.eigh(sym)
    mu1 = float(w[-1])
    if mu1 <= 0.0:
        raise ValueError("matrix optimum has no positive eigenvalue")
    ratio = float(max(w[-2], 0.0)) / mu1 if w.size > 1 else 0.0
    if ratio > RANK_RATIO_LIMIT:
        warnings.warn(
            f"second eigenvalue ratio {ratio:.2e} exceeds {RANK_RATIO_LIMIT:.0e}; "
            "extraction is heuristic",
            RuntimeWarning,
            stacklevel=2,
        )
    c = math.sqrt(mu1) * v[:, -1]
    ir_index = problem.n_tx
    if c[ir_index] < 0.0:
        c = -c
    if c[ir_index] <= 0.0:
        raise ValueError("extracted receiver current is not positive")
    c = c * (math.sqrt(2.0 / problem.r_load) / c[ir_index])
    return c


def recover_operating_point(c, z: ImpedanceMatrix, problem: QcqpProblem) -> dict:
    """Physical operating point for a feasible real solution vector.

    Rebuilds complex currents (receiver current real), picks the receiver
    compensation reactance that nulls the receiver voltage, and reports the
    loaded-port voltages, per-transmitter powers and the efficiency.
    `problem` is the QCQP of z at its load; its power caps play no part.
    Raises ValueError when c violates the current constraints.
    """
    rep = evaluate(problem, c)
    scale = 1.0 + float(np.abs(problem.b).max())
    if abs(rep.kvl_residual) > 1e-6 * scale or abs(rep.pl_residual) > 1e-6:
        raise ValueError(
            "vector violates the current constraints: "
            f"kvl residual {rep.kvl_residual:.3e}, "
            f"received-power residual {rep.pl_residual:.3e}"
        )
    i = problem.current_from_real(np.asarray(c, dtype=float))
    zt, ztr, zr = (
        z.entries[:-1, :-1],
        z.entries[:-1, -1],
        complex(z.entries[-1, -1]),
    )
    i_t, i_r = i[:-1], i[-1].real
    x_r = -zr.imag - float(np.imag(ztr @ i_t)) / i_r
    loading = Loading(np.concatenate([np.zeros(len(i_t)), [x_r]]), problem.r_load)
    zhat = apply_loading(z, loading)
    voltages = zhat.entries @ i
    eta = 1.0 / (1.0 + rep.objective)
    return {
        "currents": i,
        "x_r": float(x_r),
        "voltages": voltages,
        "transmit_powers": rep.tx_powers,
        "eta": float(eta),
    }


def solve_relaxation(problem: QcqpProblem, constrain_powers: bool = True):
    """Solve the semidefinite relaxation and certify tightness.

    Returns a raw SdrResult: extraction and efficiency are filled in, the
    receiver reactance and closed-form comparisons are left to
    :func:`full_pipeline` (they need the impedance matrix).

    The conic form runs first. If it stalls without an infeasibility or
    unboundedness certificate, or converges but misses the tightness or
    KKT-residual threshold, the affine form is tried and the better result
    kept: near coupling cancellations the optimal currents sit orders of
    magnitude above the constraint scale and the two forms hit their
    conditioning limits at different points.  The retry is deterministic,
    so a result is always reproducible from the problem alone.
    ``iterations`` counts the interior-point iterations of every attempt,
    kept or not.

    Constrained attempts then finish the extracted vector on the Lagrangian
    dual (:func:`wptopt.dual.solve_dual`), started from the relaxation's
    multipliers on the power rows: eigenvector extraction inherits the
    lifted matrix's O(sqrt(eps)) error, enough to leave a binding power a
    few microwatts negative, and a certified dual point is feasible and
    globally optimal.  An uncertified finish keeps the extracted vector.
    ``epsilon``, ``p_relax``, ``kkt`` and the retry choice always come from
    the raw relaxation.  An epsilon above ``TIGHTNESS_THRESHOLD`` gives
    status "not-tight".
    """

    def attempt(form):
        inst = build_instance(problem, form, constrain_powers)
        sol = solve(inst)
        if sol.status != "optimal":
            return inst, sol, None, None, np.inf, np.inf
        if form == "affine":
            cvec = sol.x_vec.copy()
        else:
            cvec = extract_solution(sol.x_mat, problem)
        kkt = check_kkt(inst, sol)
        # eps certifies the relaxation with the raw extracted vector; the
        # reported point is then finished on the dual
        eps = tightness_error(sol.x_mat, cvec)
        # worst threshold-normalized defect; > 1 means the attempt missed one
        score = max(eps / TIGHTNESS_THRESHOLD, kkt.max_residual() / KKT_THRESHOLD)
        if constrain_powers:
            finish = solve_dual(problem, sol.y_ineq)
            if finish.certified:
                cvec = finish.c
        return inst, sol, cvec, kkt, eps, score

    form = "conic"
    inst, sol, cvec, kkt, eps, score = attempt("conic")
    iterations = sol.iterations
    retry = (
        sol.status in ("max_iters", "failed")  # certificates are answers
        or (sol.status == "optimal" and score > 1.0)
    )
    if retry:
        attempt2 = attempt("affine")
        iterations += attempt2[1].iterations
        if attempt2[5] < score:
            inst, sol, cvec, kkt, eps, score = attempt2
            form = "affine"
    if sol.status != "optimal":
        raise RelaxationError(sol.status, sol.residuals)
    rep = evaluate(problem, cvec)
    tight = bool(eps <= TIGHTNESS_THRESHOLD)
    return SdrResult(
        status="optimal" if tight else "not-tight",
        form=form,
        skipped=False,
        tight=tight,
        epsilon=eps,
        p_relax=float(sol.primal_obj),
        eta=1.0 / (1.0 + rep.objective),
        r_load=problem.r_load,
        cmat=sol.x_mat,
        cvec=cvec,
        currents=problem.current_from_real(cvec),
        x_r=float("nan"),
        transmit_powers=rep.tx_powers,
        iterations=iterations,
        kkt=kkt,
    )


def _solve_dual(problem: QcqpProblem):
    """The constrained QCQP on its Lagrangian dual, as a raw SdrResult like
    :func:`solve_relaxation`'s, or None where the dual point does not
    certify or the KKT audit of its conic-form lift cc^T fails."""
    dp = solve_dual(problem)
    if not dp.certified:
        return None
    c = dp.c
    cmat = np.outer(c, c)
    rep = evaluate(problem, c)
    caps = problem.power_caps
    inst = build_instance(problem, "conic")
    lift = SdpSolution(
        status="optimal",
        x_mat=cmat,
        x_vec=None,
        y_eq=np.zeros(len(inst.equalities)),
        y_ineq=dp.lam,
        slacks=rep.tx_powers if caps is None else np.asarray(caps) - rep.tx_powers,
        dual_slack=dp.dual_slack,
        primal_obj=dp.objective,
        dual_obj=dp.value,
        gap=dp.objective - dp.value,
        rel_gap=dp.gap,
        iterations=dp.steps,
        residuals={},
        eq_labels=tuple(label for *_, label in inst.equalities),
        ineq_labels=tuple(label for *_, label in inst.inequalities),
    )
    kkt = check_kkt(inst, lift)
    if kkt.max_residual() > KKT_THRESHOLD:
        return None
    return SdrResult(
        status="optimal",
        form="dual",
        skipped=False,
        tight=True,
        epsilon=tightness_error(cmat, c),
        p_relax=dp.value,
        eta=1.0 / (1.0 + rep.objective),
        r_load=problem.r_load,
        cmat=cmat,
        cvec=c,
        currents=problem.current_from_real(c),
        x_r=float("nan"),
        transmit_powers=rep.tx_powers,
        iterations=dp.steps,
        kkt=kkt,
    )


def _closed_form_vector(cf: ClosedFormSolution) -> np.ndarray:
    return np.concatenate([cf.i_t.real, [cf.i_r], cf.i_t.imag])


def cap_r(x_r: float, omega: float) -> float:
    """Receiver compensation capacitance for reactance ``x_r``; NaN unless x_r < 0."""
    return -1.0 / (omega * x_r) if x_r < 0.0 else float("nan")


def full_pipeline(
    z: ImpedanceMatrix,
    r_load: float | None = None,
    options: PipelineOptions | None = None,
) -> SdrResult:
    """Closed form first; the dual, then the relaxation, only where its power
    pattern is illegal (see the module docstring)."""
    opts = options or PipelineOptions()
    cf = solve_closed_form(z, r_load)
    r_load = cf.r_load
    ok = float(cf.p_tx.min()) >= SKIP_TOLERANCE
    if opts.power_caps is not None:
        caps = np.asarray(opts.power_caps, dtype=float)
        ok = ok and bool(np.all(cf.p_tx <= caps - SKIP_TOLERANCE))
    # without power constraints the min-loss QP is the closed form itself
    if ok or not opts.constrain_powers:
        cvec = _closed_form_vector(cf)
        return SdrResult(
            status="closed-form",
            form="closed-form",
            skipped=True,
            tight=True,
            epsilon=0.0,
            p_relax=cf.p_loss,
            eta=cf.eta,
            r_load=r_load,
            cmat=np.outer(cvec, cvec),
            cvec=cvec,
            currents=np.concatenate([cf.i_t, [cf.i_r]]),
            x_r=cf.x_r,
            transmit_powers=cf.p_tx,
            iterations=0,
            delta_eta_db=0.0,
            delta_cr_rel=0.0,
            kkt=None,
            closed_form=cf,
        )
    problem = build_problem(z, r_load, power_caps=opts.power_caps)
    res = _solve_dual(problem)
    if res is None:
        res = solve_relaxation(problem)
    op = recover_operating_point(res.cvec, z, problem)
    omega = z.omega
    cr_cf = cap_r(cf.x_r, omega)
    cr_sdr = cap_r(op["x_r"], omega)
    return replace(
        res,
        currents=op["currents"],
        x_r=op["x_r"],
        eta=op["eta"],
        transmit_powers=op["transmit_powers"],
        delta_eta_db=10.0 * math.log10(cf.eta / op["eta"]),
        delta_cr_rel=(cr_sdr - cr_cf) / cr_cf if math.isfinite(cr_cf) else float("nan"),
        closed_form=cf,
    )


@dataclass(frozen=True)
class LoadSearch:
    r_load: float
    result: SdrResult
    evaluations: int
    method: str


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def optimize_load(
    z: ImpedanceMatrix,
    bounds: tuple | None = None,
    options: PipelineOptions | None = None,
) -> LoadSearch:
    """Outer load-resistance search wrapping the full pipeline.

    With the default bracket (a decade either side of the unconstrained
    optimal load R*) the first evaluation is at R*.  A row there that
    skips the relaxation meets every constraint while reaching the
    unconstrained optimum of currents and load together, so it is the exact
    maximum of the efficiency over all loads ("closed-form", one
    evaluation).  Otherwise, after a unimodality probe (the bracket's
    geometric midpoint against its edges), Brent's safeguarded parabolic
    search (Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 5) maximizes the efficiency in ln R_L until the bracket is within
    ``LOAD_REL_TOL`` relative ("brent").  A failed probe (interior no better
    than the edges) drops to a logarithmic grid scan with a warning
    ("grid").  A row whose relaxation is not tight is ranked by its
    certified bound, and the best evaluated row is returned.
    """
    opts = options or PipelineOptions()
    cache = {}

    def eta_at(rl):
        if rl not in cache:
            cache[rl] = full_pipeline(z, rl, opts)
        res = cache[rl]
        # a row whose relaxation is not tight may carry an infeasible point
        # that beats every feasible one: rank it by its certified bound
        return res.eta if res.tight else 1.0 / (1.0 + res.p_relax)

    if bounds is not None:
        lo, hi = float(bounds[0]), float(bounds[1])
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(f"bad load bounds {bounds}")
        mid = math.sqrt(lo * hi)
    else:
        first = full_pipeline(z, None, opts)  # at R*
        if first.skipped:
            return LoadSearch(first.r_load, first, 1, "closed-form")
        mid = first.r_load
        cache[mid] = first
        lo, hi = mid / 10.0, mid * 10.0

    if eta_at(mid) < min(eta_at(lo), eta_at(hi)):
        warnings.warn(
            "efficiency profile failed the unimodality probe; using grid scan",
            RuntimeWarning,
            stacklevel=2,
        )
        grid = np.geomspace(lo, hi, 64)
        best = max(grid, key=eta_at)
        return LoadSearch(float(best), cache[best], len(cache), "grid")

    # Brent's minimization of -eta over u = ln R_L; stops once the bracket
    # [a, b] is at most 4 tol = LOAD_REL_TOL wide
    tol = LOAD_REL_TOL / 4.0
    a, b = math.log(lo), math.log(hi)
    x = w = v = math.log(mid)
    fx = fw = fv = -eta_at(mid)
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
        fu = -eta_at(math.exp(u))
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
    best = max(cache, key=eta_at)
    return LoadSearch(float(best), cache[best], len(cache), "brent")


def result_record(result: SdrResult, z: ImpedanceMatrix) -> dict:
    """JSON-ready record of one pipeline run, keyed by an input hash."""
    h = hash_matrix(hashlib.sha256(), z)
    h.update(np.float64(result.r_load).tobytes())
    i = np.asarray(result.currents, dtype=complex)
    return {
        "inputs_sha256": h.hexdigest(),
        "r_load_ohm": result.r_load,
        "eta": result.eta,
        "epsilon": result.epsilon,
        "tight": result.tight,
        "skipped": result.skipped,
        "status": result.status,
        "transmit_powers_w": [float(p) for p in result.transmit_powers],
        "currents_re": [float(v) for v in i.real],
        "currents_im": [float(v) for v in i.imag],
        "x_r_ohm": result.x_r,
        "c_r_farad": cap_r(result.x_r, z.omega),
        "p_relax_w": result.p_relax,
        "delta_eta_db": result.delta_eta_db,
        "delta_cr_rel": result.delta_cr_rel,
        "iterations": result.iterations,
    }
