"""Reference interior-point solver for the tests: a dense primal-dual
method for small semidefinite programs, independent of the barrier on the
reduced dual (`wptopt.dual.solve_barrier`) that solves the package's
relaxation.  The tests compare the pipeline against it.

Solves   min <C, X>   s.t.  <A_i, X> = b_i,  <G_j, X> >= h_j (or <=),  X PSD,
optionally with an affine block (A c = b coupled through the bordered matrix
[[X, c], [c^T, 1]] PSD), which is how the vector-variable form is embedded.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, inequality rows carried as nonnegative slack
scalars, and the Newton step reduced to dense Schur-complement normal
equations. Constraint matrices are normalized to unit Frobenius norm up
front, which conditions the Schur system and makes the iterate path exactly
invariant under power-of-two data scalings.

The tolerances are fixed: a run is optimal once the normalized primal and
dual infeasibilities meet `TOL_FEAS` (1e-10) and the relative gap meets
`TOL_GAP` (1e-12), and it stops after `MAX_ITERS` = 200 iterations. Every
iteration's residuals and objectives are recorded in `SdpSolution.trace`.

Equality rows that are linear combinations of earlier rows are dropped in
presolve (their multipliers are reported as zero); if the combination is
inconsistent the instance is certified infeasible before any iteration.

Steps are verified against the cone and backtracked when rounding in the
factorizations overestimates the boundary step. The best iterate seen is
retained; if progress stalls, the run ends there and is still reported
optimal when every residual meets `TOL_ACCEPT` (the attained accuracy is
always visible in `residuals`).

Linear algebra is numpy.linalg's. `cholesky` is the positive-definite test
of the iterates (with a ridge on failure) and of the Schur matrix (with a
jitter); the Schur system is then solved by `solve`, with one refinement
pass, since products with an inverse lose accuracy there. `_nt_scaling`
factors X and Z once per iteration and returns the inverses of their
factors, which serve the predictor's and the corrector's step lengths; the
eigenvalues behind the step lengths and the cone test of a trial step come
from one stacked `eigvalsh` call for X and Z together. The Schur matrix
comes from one stacked product W A_i W over all rows, its svec rows
gathered with `np.take`. The Schur matrix and every accepted iterate are
tested with `np.isfinite` before they are factored.

`check_kkt` audits a solution from the instance data alone, on the stacked
constraint matrices, with code of its own: it shares none with the
package's audit (`wptopt.kkt.relaxation_audit`), which reads the same rows
off the KVL row.  `build_instance` writes a QCQP's relaxation in the conic
form (the KVL and received-power rows as matrix equalities, from
`conic_rows`) or the affine form (A c = b on the bordered vector variable).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from wptopt.kkt import KktReport

__all__ = [
    "SdpInstance",
    "SdpSolution",
    "KktReport",
    "solve",
    "check_kkt",
    "conic_rows",
    "build_instance",
    "DIM_CAP",
]

DIM_CAP = 64
TOL_FEAS = 1e-10  # normalized primal and dual infeasibility at optimality
TOL_GAP = 1e-12  # relative duality gap at optimality
MAX_ITERS = 200
TOL_ACCEPT = 1e-7  # residuals a stalled run must meet to count as optimal
FRAC_TO_BOUNDARY = 0.98  # share of the step to the cone boundary taken


# ---------------------------------------------------------------------------
# instance / solution records
# ---------------------------------------------------------------------------


def _sym_check(mat, name):
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    dev = np.abs(m - m.T).max()
    if dev > 1e-10 * max(1.0, np.abs(m).max()):
        raise ValueError(f"{name} is not symmetric (deviation {dev:.3e})")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SdpInstance:
    """Problem data. Equalities are (matrix, rhs, label) triples; inequalities
    are (matrix, sense, rhs, label) with sense '>=' or '<='."""

    cost: np.ndarray
    equalities: tuple = ()
    inequalities: tuple = ()
    affine: tuple = None  # (A, b) rows on the bordered vector variable

    def __post_init__(self):
        cost = _sym_check(self.cost, "cost")
        object.__setattr__(self, "cost", cost)
        dim = cost.shape[0]
        eqs = []
        for mat, rhs, label in self.equalities:
            m = _sym_check(mat, f"equality '{label}'")
            if m.shape[0] != dim:
                raise ValueError("constraint dimension mismatch")
            eqs.append((m, float(rhs), str(label)))
        ineqs = []
        for mat, sense, rhs, label in self.inequalities:
            m = _sym_check(mat, f"inequality '{label}'")
            if m.shape[0] != dim:
                raise ValueError("constraint dimension mismatch")
            if sense not in (">=", "<="):
                raise ValueError("sense must be '>=' or '<='")
            ineqs.append((m, sense, float(rhs), str(label)))
        object.__setattr__(self, "equalities", tuple(eqs))
        object.__setattr__(self, "inequalities", tuple(ineqs))
        if not eqs and not ineqs and self.affine is None:
            raise ValueError("at least one constraint required")
        if self.affine is not None:
            a, b = self.affine
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape != (b.size, dim):
                raise ValueError("affine block shape mismatch")
            object.__setattr__(self, "affine", (a, b))
        total_dim = dim + (1 if self.affine is not None else 0)
        if total_dim > DIM_CAP:
            raise ValueError(f"dimension {total_dim} exceeds cap {DIM_CAP}")

    @property
    def dim(self):
        return self.cost.shape[0]


@dataclass
class SdpSolution:
    status: str
    x_mat: np.ndarray
    x_vec: np.ndarray
    y_eq: np.ndarray
    y_ineq: np.ndarray
    slacks: np.ndarray
    dual_slack: np.ndarray
    primal_obj: float
    dual_obj: float
    gap: float
    rel_gap: float
    iterations: int
    residuals: dict
    eq_labels: tuple
    ineq_labels: tuple
    certificate: np.ndarray = None
    trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _svec_index(d):
    """Flat positions and weights of svec at order d: the diagonal, then the
    strict upper triangle row by row, scaled by sqrt(2). Read-only, since
    every caller shares them."""
    iu = np.triu_indices(d, 1)
    flat = np.concatenate([np.arange(d) * (d + 1), iu[0] * d + iu[1]])
    wts = np.concatenate([np.ones(d), np.full(iu[0].size, np.sqrt(2.0))])
    flat.flags.writeable = wts.flags.writeable = False
    return flat, wts


def _svec(m):
    flat, wts = _svec_index(m.shape[0])
    return m.reshape(-1)[flat] * wts


def _presolve_equalities(mats, rhs):
    """Gram-Schmidt rank screen in svec space.

    Returns (kept, dropped, inconsistent): a dependent row whose right-hand
    side disagrees with the implied combination certifies infeasibility.
    The disagreement is measured relative to the largest right-hand side
    combined, since rounding in the combination scales with it.
    """
    kept, dropped = [], []
    basis, rhs_basis = [], []
    for i, (mat, r) in enumerate(zip(mats, rhs)):
        v = _svec(mat)
        rr = r
        for q, rq in zip(basis, rhs_basis):
            coef = q @ v
            v = v - coef * q
            rr = rr - coef * rq
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            basis.append(v / nv)
            rhs_basis.append(rr / nv)
            kept.append(i)
        else:
            scale = max([1.0, abs(r)] + [abs(rhs[k]) for k in kept])
            if abs(rr) > 1e-10 * scale:
                return kept, dropped + [i], True
            dropped.append(i)
    return kept, dropped, False


def _chol_ridged(m):
    """Cholesky with a tiny escalating ridge for boundary iterates. The ridge
    is only formed once the plain factorization has failed."""
    ridge = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(m + ridge * np.eye(m.shape[0]) if ridge else m)
        except np.linalg.LinAlgError:
            base = max(float(np.trace(m)) / m.shape[0], 1e-300)
            ridge = max(ridge * 1e3, 1e-14 * base)
    raise np.linalg.LinAlgError("matrix not positive definite even with ridge")


def _eig_min(m):
    """Smallest eigenvalue of a symmetric matrix, or of each in a stack
    (lower triangles read)."""
    return np.linalg.eigvalsh(m)[..., 0]


def _nt_scaling(x, z):
    """Scaling R with R^-1 X R^-T = R^T Z R = diag(sig), and the inverses of
    the Cholesky factors of X and Z it was built from, stacked."""
    lx = _chol_ridged(x)
    lz = _chol_ridged(z)
    u, sig, vt = np.linalg.svd(lz.T @ lx)
    sqrt_sig = np.sqrt(sig)
    r = (lx @ vt.T) / sqrt_sig
    rinv = (u / sqrt_sig).T @ lz.T
    return r, rinv, sig, np.linalg.inv(np.stack([lx, lz]))


def _schur_matrix(svecs, mat_stack, wmat):
    """M[i, j] = <A_i, W A_j W> for the constraint matrices stacked in
    `mat_stack`, whose svec rows are `svecs`."""
    flat, wts = _svec_index(wmat.shape[0])
    t = wmat @ mat_stack @ wmat
    t = 0.5 * (t + t.transpose(0, 2, 1))
    # take() gathers in C order; see the module docstring for why it matters
    t_svecs = t.reshape(len(t), -1).take(flat, axis=1) * wts
    schur = svecs @ t_svecs.T
    return 0.5 * (schur + schur.T)


def _max_step_psd(linv, dx):
    """Longest step along dx from the iterate L L^T, given L^-1; with
    stacks of both, one step per pair (one eigvalsh call for all)."""
    w = linv @ dx @ np.swapaxes(linv, -1, -2)
    lam_min = _eig_min(0.5 * (w + np.swapaxes(w, -1, -2)))
    return np.where(lam_min < -1e-16, -1.0 / np.minimum(lam_min, -1e-16), np.inf)


def _jittered_schur(schur):
    """The Schur matrix, with an escalating jitter on the diagonal while it
    fails the Cholesky test; None if it never passes."""
    m_all = schur.shape[0]
    jitter = 0.0
    for _ in range(6):
        jittered = schur + jitter * np.eye(m_all) if jitter else schur
        try:
            np.linalg.cholesky(jittered)
            return jittered
        except np.linalg.LinAlgError:
            jitter = max(jitter * 1e3, 1e-13 * max(np.trace(schur) / m_all, 1.0))
    return None


def _refined_solve(mat, exact, rv):
    """Solve mat x = rv, then refine once against `exact` (the Schur matrix
    before its jitter): LU solves, which are more accurate here than
    products with an inverse, and one pass keeps the 1e-10 targets honest."""
    out = np.linalg.solve(mat, rv)
    out += np.linalg.solve(mat, rv - exact @ out)
    return out


def _max_step_pos(v, dv):
    neg = dv < 0
    if not neg.any():
        return np.inf
    return float((-v[neg] / dv[neg]).min())


# ---------------------------------------------------------------------------
# core solve
# ---------------------------------------------------------------------------


def solve(instance):
    """Run the interior-point method; see module docstring."""

    # ----- optional bordered embedding of the affine block
    d0 = instance.dim
    border = instance.affine is not None
    d = d0 + 1 if border else d0

    def _embed(mat):
        if not border:
            return mat
        out = np.zeros((d, d))
        out[:d0, :d0] = mat
        return out

    cost = _embed(instance.cost)
    eq_mats, eq_rhs, eq_labels = [], [], []
    for mat, rhs, label in instance.equalities:
        eq_mats.append(_embed(mat))
        eq_rhs.append(rhs)
        eq_labels.append(label)
    if border:
        corner = np.zeros((d, d))
        corner[d0, d0] = 1.0
        eq_mats.append(corner)
        eq_rhs.append(1.0)
        eq_labels.append("homogeneous")
        a_blk, b_blk = instance.affine
        for j in range(b_blk.size):
            row = np.zeros((d, d))
            row[:d0, d0] = 0.5 * a_blk[j]
            row[d0, :d0] = 0.5 * a_blk[j]
            eq_mats.append(row)
            eq_rhs.append(b_blk[j])
            eq_labels.append(f"affine-{j}")

    # inequalities normalized to <A, X> - s = h, s >= 0
    ineq_mats, ineq_rhs, ineq_labels = [], [], []
    for mat, sense, rhs, label in instance.inequalities:
        sgn = 1.0 if sense == ">=" else -1.0
        ineq_mats.append(sgn * _embed(mat))
        ineq_rhs.append(sgn * rhs)
        ineq_labels.append(label)

    # ----- normalize data
    cost_scale = max(float(np.linalg.norm(cost)), 1e-300)
    cost_n = cost / cost_scale
    eq_scales = [max(float(np.linalg.norm(m)), 1e-300) for m in eq_mats]
    eq_n = [m / s for m, s in zip(eq_mats, eq_scales)]
    eqb_n = [r / s for r, s in zip(eq_rhs, eq_scales)]
    in_scales = [max(float(np.linalg.norm(m)), 1e-300) for m in ineq_mats]
    in_n = [m / s for m, s in zip(ineq_mats, in_scales)]
    inb_n = [r / s for r, s in zip(ineq_rhs, in_scales)]

    # ----- presolve the equality rows
    n_eq_orig = len(eq_n)
    kept, dropped, inconsistent = _presolve_equalities(eq_n, eqb_n)
    if inconsistent:
        sol = _empty_solution(instance, d0, border, "infeasible")
        sol.residuals["presolve"] = "inconsistent dependent equality row"
        return sol
    eq_n = [eq_n[i] for i in kept]
    eqb_n = [eqb_n[i] for i in kept]

    mats = eq_n + in_n
    rhs = np.array(eqb_n + inb_n, dtype=float)
    n_eq = len(eq_n)
    n_in = len(in_n)
    m_all = n_eq + n_in
    svecs = np.array([_svec(m) for m in mats])
    mat_stack = np.array(mats)

    def _aop(xm):
        return svecs @ _svec(xm)

    def _aadj(yv):
        out = np.zeros((d, d))
        for i in range(m_all):
            if yv[i] != 0.0:
                out += yv[i] * mats[i]
        return out

    # ----- starting point (data is O(1) after normalization)
    rho = max(1.0, float(np.abs(rhs).max()))
    x = rho * np.eye(d)
    z = np.eye(d)
    y = np.zeros(m_all)
    y[n_eq:] = 1.0  # inequality multipliers must start interior
    s = np.full(n_in, rho)

    nu = d + n_in
    status = "max_iters"
    certificate = None
    trace = []
    pin = din = relgap = np.nan
    it = 0
    best = None
    best_merit = np.inf
    # stall reference: last max(pin, din) that halved. The gap is excluded
    # on purpose: an infeasible start can park relgap near 1 for many
    # iterations while feasibility steadily improves.
    ref_merit = np.inf
    ref_it = 0

    def _certificate_ray(min_norm_y, min_trace_x):
        """Validated Farkas-style rays from the current iterate, or None.

        Rays are rescaled before validation (b'y = 1, <C, x> = -1) so the
        residual thresholds are absolute: a large diverging iterate of a
        feasible problem cannot hide its violations behind its own norm.
        """
        ny = float(np.linalg.norm(y))
        if ny > min_norm_y:
            bval = float(rhs @ y)
            if bval > 1e-10 * ny:
                yc = y / bval
                zf = -_aadj(yc)
                wmin = float(yc[n_eq:].min()) if n_in else 0.0
                if float(np.linalg.eigvalsh(zf).min()) > -1e-8 and wmin > -1e-8:
                    return "infeasible", yc
        tx = float(np.trace(x))
        if tx > min_trace_x:
            cval = float(np.sum(cost_n * x))
            if cval < -1e-10 * tx:
                xc = x / (-cval)
                axc = _aop(xc)
                viol = np.concatenate(
                    [np.atleast_1d(axc[:n_eq]), np.minimum(axc[n_eq:], 0.0)]
                )
                if float(np.abs(viol).max() if viol.size else 0.0) < 1e-8:
                    return "unbounded", xc
        return None

    for it in range(1, MAX_ITERS + 1):
        w = y[n_eq:]
        ax = _aop(x)
        r_p = rhs - ax
        if n_in:
            r_p[n_eq:] += s
        r_d = cost_n - _aadj(y) - z
        pin = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(rhs)))
        din = float(np.linalg.norm(r_d)) / (1.0 + float(np.linalg.norm(cost_n)))
        pobj = float(np.sum(cost_n * x))
        dobj = float(rhs @ y)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        mu = (float(np.sum(x * z)) + (float(s @ w) if n_in else 0.0)) / nu
        trace.append(
            {
                "iter": it,
                "mu": mu,
                "pinf": pin,
                "dinf": din,
                "relgap": relgap,
                "pobj": pobj,
                "dobj": dobj,
                "gap": pobj - dobj,
            }
        )

        merit = max(pin, din, relgap)
        if merit < best_merit:
            best_merit = merit
            best = (x.copy(), y.copy(), z.copy(), s.copy(), pin, din, relgap)
        prog = max(pin, din)
        if prog < 0.5 * ref_merit:
            ref_merit = prog
            ref_it = it

        if pin <= TOL_FEAS and din <= TOL_FEAS and relgap <= TOL_GAP:
            status = "optimal"
            break

        # divergence certificates, disabled once the iterate path has come
        # near a solution: a convergent but ill-conditioned solve must fall
        # through to the stall exit instead of a spurious certificate
        if best_merit > 1e-3:
            got = _certificate_ray(1e6, 1e8)
            if got is not None:
                status, certificate = got
                break

        if it - ref_it >= 15:
            break  # no factor-2 progress in 15 iterations: stalled

        try:
            r_sc, rinv_sc, sig, l_inv = _nt_scaling(x, z)
        except np.linalg.LinAlgError:
            status = "failed"
            break
        wmat = r_sc @ r_sc.T
        lyap = np.add.outer(sig, sig)

        # Schur matrix (+ s/w on the inequality diagonal)
        schur = _schur_matrix(svecs, mat_stack, wmat)
        if n_in:
            idx = np.arange(n_eq, m_all)
            schur[idx, idx] += s / w
        if not np.all(np.isfinite(schur)):
            status = "failed"
            break
        jittered = _jittered_schur(schur)
        if jittered is None:
            status = "failed"
            break

        w_rd_w = wmat @ r_d @ wmat

        def _direction(rc_mat, rc_s):
            xc = r_sc @ (2.0 * rc_mat / lyap) @ r_sc.T
            rhs_y = r_p - _aop(xc - w_rd_w)
            if n_in:
                rhs_y[n_eq:] += rc_s / w
            dy = _refined_solve(jittered, schur, rhs_y)
            dz = r_d - _aadj(dy)
            dx = xc - wmat @ dz @ wmat
            dx = 0.5 * (dx + dx.T)
            ds = (rc_s - s * dy[n_eq:]) / w if n_in else np.zeros(0)
            return dx, dz, dy, ds

        # an LU solve can still meet an exactly zero pivot where the
        # Cholesky test passed
        try:
            # predictor
            rc_aff = -np.diag(sig * sig)
            rcs_aff = -(s * w) if n_in else np.zeros(0)
            dxa, dza, dya, dsa = _direction(rc_aff, rcs_aff)
            dwa = dya[n_eq:]
            ap, ad = _max_step_psd(l_inv, np.stack([dxa, dza]))
            ap = min(1.0, ap, _max_step_pos(s, dsa) if n_in else np.inf)
            ad = min(1.0, ad, _max_step_pos(w, dwa) if n_in else np.inf)
            mu_aff = (
                float(np.sum((x + ap * dxa) * (z + ad * dza)))
                + (float((s + ap * dsa) @ (w + ad * dwa)) if n_in else 0.0)
            ) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # corrector
            dxh = rinv_sc @ dxa @ rinv_sc.T
            dzh = r_sc.T @ dza @ r_sc
            cross = dxh @ dzh
            rc = sigma * mu * np.eye(d) - np.diag(sig * sig) - 0.5 * (cross + cross.T)
            rcs = (sigma * mu - s * w - dsa * dwa) if n_in else np.zeros(0)
            dx, dz, dy, ds = _direction(rc, rcs)
            dw = dy[n_eq:]
        except np.linalg.LinAlgError:
            status = "failed"
            break

        f = FRAC_TO_BOUNDARY
        ap, ad = _max_step_psd(l_inv, np.stack([dx, dz]))
        ap = min(1.0, f * ap, f * _max_step_pos(s, ds) if n_in else np.inf)
        ad = min(1.0, f * ad, f * _max_step_pos(w, dw) if n_in else np.inf)
        # verify the step against the cone before accepting it: the ridged
        # factors can overestimate the boundary step near degeneracy. Near
        # convergence a step that blows the complementarity product back up
        # is rejected the same way.
        near = pin < 1e-6 and din < 1e-6
        accepted = False
        for _ in range(25):
            if min(ap, ad) < 1e-14:
                break
            x_new = x + ap * dx
            x_new = 0.5 * (x_new + x_new.T)
            z_new = z + ad * dz
            z_new = 0.5 * (z_new + z_new.T)
            s_new = s + ap * ds
            w_new = w + ad * dw
            if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(z_new))):
                ap *= 0.5
                ad *= 0.5
                continue
            if n_in and s_new.size and (s_new.min() <= 0.0 or w_new.min() <= 0.0):
                ap *= 0.5
                ad *= 0.5
                continue
            if (_eig_min(np.stack([x_new, z_new])) <= 0.0).any():
                ap *= 0.5
                ad *= 0.5
                continue
            mu_new = (
                float(np.sum(x_new * z_new))
                + (float(s_new @ w_new) if n_in else 0.0)
            ) / nu
            if near and mu_new > 10.0 * mu + TOL_GAP:
                ap *= 0.5
                ad *= 0.5
                continue
            accepted = True
            break
        if not accepted:
            break  # pinned against the cone; fall back to the best iterate
        x, z, s = x_new, z_new, s_new
        y = y + ad * dy

    if status in ("max_iters", "failed"):
        if best_merit > 1e-3:
            # far from any solution: retry the certificates with relaxed
            # divergence gates before reporting non-convergence
            got = _certificate_ray(1e2, 1e2 * d * rho)
            if got is not None:
                status, certificate = got
        if certificate is None and best is not None:
            x, y, z, s, pin, din, relgap = best
            if max(pin, din, relgap) <= TOL_ACCEPT:
                status = "optimal"

    # ----- unscale and repack
    y_full = np.zeros(n_eq_orig + n_in)
    for pos, i in enumerate(kept):
        y_full[i] = y[pos] * cost_scale / eq_scales[i]
    for j in range(n_in):
        y_full[n_eq_orig + j] = y[n_eq + j] * cost_scale / in_scales[j]
    # report the recombined slack so Q* = C - A*(y) holds exactly; it may sit
    # a hair outside the cone (within the dual feasibility tolerance)
    dual_slack = cost - sum(y_full[i] * eq_mats[i] for i in range(n_eq_orig))
    dual_slack -= sum(y_full[n_eq_orig + j] * ineq_mats[j] for j in range(n_in))
    pobj = float(np.sum(cost_n * x) * cost_scale)
    dobj = float(
        sum(eq_rhs[i] * y_full[i] for i in range(n_eq_orig))
        + sum(ineq_rhs[j] * y_full[n_eq_orig + j] for j in range(n_in))
    )
    gap = pobj - dobj
    relgap_out = abs(gap) / (1.0 + abs(pobj) + abs(dobj))

    if border:
        # x_mat/x_vec are the blocks of the bordered iterate; the dual slack
        # stays full-size since it certifies the bordered PSD constraint
        c_mat = x[:d0, :d0]
        c_vec = x[:d0, d0].copy()
    else:
        c_mat = x
        c_vec = None
    dual_slack_out = dual_slack

    n_eq_inst = len(instance.equalities)
    return SdpSolution(
        status=status,
        x_mat=0.5 * (c_mat + c_mat.T),
        x_vec=c_vec,
        y_eq=y_full[:n_eq_inst].copy(),
        y_ineq=y_full[n_eq_orig:].copy(),
        slacks=s.copy(),
        dual_slack=0.5 * (dual_slack_out + dual_slack_out.T),
        primal_obj=pobj,
        dual_obj=dobj,
        gap=float(gap),
        rel_gap=float(relgap_out),
        iterations=it,
        residuals={
            "primal": pin,
            "dual": din,
            "relgap": relgap,
            "dropped_equalities": tuple(dropped),
        },
        eq_labels=tuple(eq_labels[:n_eq_inst]),
        ineq_labels=tuple(ineq_labels),
        certificate=certificate,
        trace=trace,
    )


def _empty_solution(instance, d0, border, status):
    return SdpSolution(
        status=status,
        x_mat=np.zeros((d0, d0)),
        x_vec=np.zeros(d0) if border else None,
        y_eq=np.zeros(len(instance.equalities)),
        y_ineq=np.zeros(len(instance.inequalities)),
        slacks=np.zeros(len(instance.inequalities)),
        dual_slack=np.zeros((d0, d0)),
        primal_obj=np.nan,
        dual_obj=np.nan,
        gap=np.nan,
        rel_gap=np.nan,
        iterations=0,
        residuals={},
        eq_labels=tuple(lbl for _, _, lbl in instance.equalities),
        ineq_labels=tuple(lbl for _, _, _, lbl in instance.inequalities),
    )


# ---------------------------------------------------------------------------
# audit and relaxation instances
# ---------------------------------------------------------------------------


def check_kkt(instance, solution):
    """Audit a solution against the instance from scratch.

    The received-power entry singles out the equality labeled
    'received-power' (the unit-transfer row of the relaxation); for generic
    instances it stays zero and the row is folded into `equalities`.  With
    an affine block the PSD constraint lives on the bordered matrix
    [[X, c], [c^T, 1]], and A c = b counts among the equalities.
    """
    dim = instance.dim
    eqs, ineqs = instance.equalities, instance.inequalities
    x_mat, x_vec = solution.x_mat, solution.x_vec
    bordered = instance.affine is not None and x_vec is not None
    if bordered:
        full = np.empty((dim + 1, dim + 1))
        full[:dim, :dim] = x_mat
        full[:dim, dim] = x_vec
        full[dim, :dim] = x_vec
        full[dim, dim] = 1.0
    else:
        full = x_mat
    scale_x = 1.0 + float(np.abs(full).max())
    primal_psd = max(0.0, -float(np.linalg.eigvalsh(full)[0])) / scale_x

    flat = x_mat.reshape(-1)
    eq_mats = np.array([m for m, _, _ in eqs]).reshape(len(eqs), flat.size)
    eq_rhs = np.array([rhs for _, rhs, _ in eqs])
    received = np.array([label == "received-power" for *_, label in eqs], dtype=bool)
    eq_res = np.abs(eq_mats @ flat - eq_rhs) / (1.0 + np.abs(eq_rhs))
    rp_res = float(eq_res[received].max(initial=0.0))
    eq_res = float(eq_res[~received].max(initial=0.0))
    if bordered:
        a_blk, b_blk = instance.affine
        res = a_blk @ x_vec - b_blk
        eq_res = max(
            eq_res, float(np.abs(res).max()) / (1.0 + float(np.abs(b_blk).max()))
        )

    # each inequality as <G, X> >= h
    sign = np.array([1.0 if sense == ">=" else -1.0 for _, sense, _, _ in ineqs])
    ineq_mats = sign[:, None] * np.array([m for m, *_ in ineqs]).reshape(len(ineqs), flat.size)
    ineq_rhs = sign * np.array([rhs for _, _, rhs, _ in ineqs])
    slack = ineq_mats @ flat - ineq_rhs
    ineq_res = float((np.maximum(-slack, 0.0) / (1.0 + np.abs(ineq_rhs))).max(initial=0.0))
    y_ineq = np.asarray(solution.y_ineq, dtype=float)
    dual_sign = float(np.maximum(-y_ineq, 0.0).max(initial=0.0))

    q = 0.5 * (solution.dual_slack + solution.dual_slack.T)
    scale_q = 1.0 + float(np.abs(q).max())
    dual_psd = max(0.0, -float(np.linalg.eigvalsh(q)[0])) / scale_q
    cs = abs(float(np.sum(q * full))) / (1.0 + abs(solution.primal_obj))

    return KktReport(
        primal_psd=primal_psd,
        equalities=eq_res,
        received_power=rp_res,
        inequalities=ineq_res,
        dual_sign=dual_sign,
        dual_psd=dual_psd,
        comp_slack=cs,
    )


def conic_rows(k, r_load):
    """The relaxation's current equalities as matrices, from the KVL row k
    (length M = 2N - 1) and the load.

    Returns (K0, K_list, R): tr(K0 C) = 0 encodes the KVL row (K0 = k k^T is
    PSD rank one), tr(R C) = 1 encodes unit received power, and each
    K[m] = u_m k^T + k u_m^T is a redundant equality tr(K[m] C) = 0 that is
    implied at rank one but tightens the relaxation numerically.
    """
    k = np.asarray(k, dtype=float)
    m = k.size
    k0 = np.outer(k, k)
    k_list = []
    for j in range(m):
        km = np.zeros((m, m))
        km[j, :] += k
        km[:, j] += k
        k_list.append(km)
    r = np.zeros((m, m))
    r[(m - 1) // 2, (m - 1) // 2] = 0.5 * r_load
    return k0, k_list, r


def build_instance(problem, form="conic"):
    """Assemble the solver instance for a QCQP in either relaxation form,
    with the problem's power rows <G_j, X> >= h_j."""
    rows = enumerate(zip(problem.g, problem.h))
    ineqs = tuple((gj, ">=", float(hj), f"power-row-{j}") for j, (gj, hj) in rows)
    if form == "affine":
        return SdpInstance(
            cost=problem.q0,
            inequalities=ineqs,
            affine=(problem.a, problem.b),
        )
    if form != "conic":
        raise ValueError(f"unknown relaxation form {form!r}")
    k0, k_list, r_mat = conic_rows(problem.a[0], problem.r_load)
    eqs = [(r_mat, 1.0, "received-power"), (k0, 0.0, "kvl-primary")]
    for m, km in enumerate(k_list):
        eqs.append((km, 0.0, f"kvl-redundant-{m}"))
    return SdpInstance(cost=problem.q0, equalities=tuple(eqs), inequalities=ineqs)
