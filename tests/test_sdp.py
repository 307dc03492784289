"""Reference interior-point SDP solver of the tests (`sdp_oracle`): trivial
cases, duality, statuses, KKT audit."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import sdp_oracle as sdp
from retarded import retarded_loop_system
from sdp_oracle import (
    DIM_CAP,
    KktReport,
    SdpInstance,
    SdpSolution,
    build_instance,
    check_kkt,
    solve,
)
from wptopt.circuit import C0, PRESET_FREQUENCY, GeometrySpec, build_loop_system
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.qcqp import build_problem


def e_mat(d, i, j, val=1.0):
    m = np.zeros((d, d))
    m[i, j] = val
    m[j, i] = val
    return m


def random_strong_duality_instance(seed=0, dim=6, n_eq=3):
    """Instance with strictly feasible primal and dual points by construction."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_eq):
        a = rng.standard_normal((dim, dim))
        mats.append(a + a.T)
    g = rng.standard_normal((dim, dim))
    g = g + g.T
    b0 = rng.standard_normal((dim, dim))
    x0 = b0 @ b0.T + dim * np.eye(dim)
    y0 = rng.standard_normal(n_eq)
    lam0 = 0.5
    z0 = np.eye(dim)
    cost = z0 + sum(y * m for y, m in zip(y0, mats)) + lam0 * g
    eqs = tuple((m, float(np.sum(m * x0)), f"eq-{i}") for i, m in enumerate(mats))
    ineqs = ((g, ">=", float(np.sum(g * x0)) - 1.0, "slack-row"),)
    return SdpInstance(cost=cost, equalities=eqs, inequalities=ineqs)


def miso_instance(preset="miso-2p", distance=None, r_load=None):
    geom = GeometrySpec.preset(preset, distance or 0.02 * GeometrySpec.preset(preset, 1.0).wavelength)
    z = build_loop_system(geom)
    cf = solve_closed_form(z) if r_load is None else solve_closed_form(z, r_load)
    prob = build_problem(z, cf.r_load)
    return build_instance(prob), prob, z, cf


def random_spd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T + d * np.eye(d)


def random_sym(rng, d):
    g = rng.standard_normal((d, d))
    return g + g.T


def max_step_psd_reference(x, dx):
    """The step `_max_step_psd` computes, on scipy.linalg's factor and solves."""
    l = sla.cholesky(x, lower=True)
    w = sla.solve_triangular(l, dx, lower=True)
    w = sla.solve_triangular(l, w.T, lower=True)
    lam_min = np.linalg.eigvalsh(0.5 * (w + w.T)).min()
    return np.inf if lam_min >= -1e-16 else -1.0 / lam_min


def nt_scaling_reference(x, z):
    """The scaling `_nt_scaling` computes, on scipy.linalg's factor and SVD."""
    lx = sla.cholesky(x, lower=True)
    lz = sla.cholesky(z, lower=True)
    u, sig, vt = sla.svd(lz.T @ lx)
    sqrt_sig = np.sqrt(sig)
    return (lx @ vt.T) / sqrt_sig, (u / sqrt_sig).T @ lz.T, sig


def schur_reference(mats, wmat):
    """The Schur matrix filled row by row: svec(sym(W A_i W)) per row."""
    svecs = np.array([sdp._svec(m) for m in mats])
    t_svecs = np.empty_like(svecs)
    for i, m in enumerate(mats):
        t = wmat @ m @ wmat
        t_svecs[i] = sdp._svec(0.5 * (t + t.T))
    schur = svecs @ t_svecs.T
    return 0.5 * (schur + schur.T)


def max_step_pos_reference(v, dv):
    """`_max_step_pos` as written on the numpy wrappers."""
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def constraint_matrices(inst):
    """The rows `solve` iterates on: normalized, dependent equalities dropped."""
    eqs = [(m / np.linalg.norm(m), r / np.linalg.norm(m)) for m, r, _ in inst.equalities]
    kept = sdp._presolve_equalities(*zip(*eqs))[0]
    mats = [eqs[i][0] for i in kept]
    for m, sense, _, _ in inst.inequalities:
        mats.append((m if sense == ">=" else -m) / np.linalg.norm(m))
    return mats


ORDERS = range(1, 10)


def close(got, ref, rtol=1e-12):
    """Agreement within rtol of the reference's largest entry."""
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() <= rtol * max(np.abs(ref).max(), 1e-300)


class TestRawLapack:
    """The IPM's numpy.linalg calls agree with the scipy.linalg routines
    they stand for, on the orders the solver meets: to 1e-12 relative to
    the largest entry on these well-conditioned matrices."""

    @pytest.mark.parametrize("d", ORDERS)
    def test_svec_matches_triu_reference(self, d):
        m = random_sym(np.random.default_rng(d), d)
        ref = np.concatenate([np.diag(m), np.sqrt(2.0) * m[np.triu_indices(d, 1)]])
        assert np.array_equal(sdp._svec(m), ref)
        assert np.array_equal(sdp._svec(np.asfortranarray(m)), ref)

    @pytest.mark.parametrize("d", ORDERS)
    def test_cholesky_factor(self, d):
        a = random_spd(np.random.default_rng(10 + d), d)
        l = sdp._chol_ridged(a)
        assert np.array_equal(l, np.tril(l))
        assert close(l, sla.cholesky(a, lower=True))

    @pytest.mark.parametrize("d", ORDERS)
    def test_triangular_solves(self, d):
        # the step lengths apply L^-1 from `_nt_scaling` where scipy would
        # solve with the triangular factor
        rng = np.random.default_rng(20 + d)
        x, z, b = random_spd(rng, d), random_spd(rng, d), random_sym(rng, d)
        lx_inv, lz_inv = sdp._nt_scaling(x, z)[3]
        for mat, linv in ((x, lx_inv), (z, lz_inv)):
            l = sla.cholesky(mat, lower=True)
            w = sla.solve_triangular(l, b, lower=True)
            assert close(linv @ b, w)
            assert close(linv @ b @ linv.T, sla.solve_triangular(l, w.T, lower=True))

    @pytest.mark.parametrize("d", ORDERS)
    def test_max_step_psd(self, d):
        rng = np.random.default_rng(30 + d)
        x, dx = random_spd(rng, d), random_sym(rng, d)
        linv = np.linalg.inv(sdp._chol_ridged(x))
        got, ref = sdp._max_step_psd(linv, dx), max_step_psd_reference(x, dx)
        assert got == pytest.approx(ref, rel=1e-12)
        # a direction that keeps X definite allows any step; stacks give
        # one step per pair
        assert sdp._max_step_psd(linv, x) == np.inf
        both = sdp._max_step_psd(np.stack([linv, linv]), np.stack([dx, x]))
        assert both[0] == got and both[1] == np.inf

    @pytest.mark.parametrize("d", ORDERS)
    def test_svd_triple(self, d):
        rng = np.random.default_rng(40 + d)
        x, z = random_spd(rng, d), random_spd(rng, d)
        r_ref, rinv_ref, sig_ref = nt_scaling_reference(x, z)
        r, rinv, sig, (lx_inv, lz_inv) = sdp._nt_scaling(x, z)
        assert close(sig, sig_ref)
        # singular vectors are fixed up to sign; R R^T and R^-T R^-1 are not
        assert close(r @ r.T, r_ref @ r_ref.T)
        assert close(rinv.T @ rinv, rinv_ref.T @ rinv_ref)
        assert close(rinv @ r, np.eye(d))
        # the scaling's defining identities
        assert close(rinv @ x @ rinv.T, np.diag(sig))
        assert close(r.T @ z @ r, np.diag(sig))
        assert close(lx_inv, np.linalg.inv(sla.cholesky(x, lower=True)))
        assert close(lz_inv, np.linalg.inv(sla.cholesky(z, lower=True)))

    @pytest.mark.parametrize("d", ORDERS)
    def test_schur_factor_and_solve(self, d):
        rng = np.random.default_rng(50 + d)
        a, rv = random_spd(rng, d), rng.standard_normal(d)
        assert sdp._jittered_schur(a) is a  # positive definite: no jitter
        got = sdp._refined_solve(a, a, rv)
        assert close(got, sla.cho_solve(sla.cho_factor(a, lower=True), rv))

    @pytest.mark.parametrize("d", ORDERS)
    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_eig_min(self, d, scale):
        rng = np.random.default_rng(60 + d)
        for _ in range(40):
            m = scale * random_sym(rng, d)
            ref = sla.eigvalsh(m)
            assert abs(sdp._eig_min(m) - ref[0]) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "preset, order, rows", [("miso-2p", 5, 8), ("miso-3p", 7, 11)]
    )
    def test_stacked_schur_matches_row_loop(self, preset, order, rows):
        mats = constraint_matrices(miso_instance(preset)[0])
        assert (len(mats), mats[0].shape[0]) == (rows, order)
        svecs = np.array([sdp._svec(m) for m in mats])
        rng = np.random.default_rng(70 + order)
        for _ in range(20):
            wmat = random_spd(rng, order)
            got = sdp._schur_matrix(svecs, np.array(mats), wmat)
            assert np.array_equal(got, schur_reference(mats, wmat))

    @pytest.mark.parametrize(
        "v, dv",
        [
            ([1.0, 2.0, 3.0], [0.5, 0.0, 2.0]),
            ([1.0, 2.0, 3.0, 0.25], [-0.5, 1.0, -4.0, -1e-3]),
            ([1.0, 2.0, 3.0], [-0.5, np.nan, -4.0]),
            ([1.0, np.nan, 3.0], [-0.5, -1.0, -4.0]),
            ([], []),
        ],
    )
    def test_max_step_pos(self, v, dv):
        v, dv = np.array(v), np.array(dv)
        got, ref = sdp._max_step_pos(v, dv), max_step_pos_reference(v, dv)
        assert np.array_equal(got, ref, equal_nan=True)
        assert type(got) is type(ref)

    def test_ridge_factors_singular_psd(self):
        v = np.arange(1.0, 5.0)
        m = np.outer(v, v)  # rank one: plain Cholesky fails
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m)
        with pytest.raises(sla.LinAlgError):
            sla.cholesky(m, lower=True)
        l = sdp._chol_ridged(m)
        assert np.allclose(l @ l.T, m, rtol=0.0, atol=1e-10)
        assert np.array_equal(l, np.tril(l))

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            sdp._chol_ridged(np.diag([1.0, -1.0, 2.0]))


class TestTrivial:
    def test_dim1_trace_one(self):
        inst = SdpInstance(cost=np.array([[1.0]]), equalities=((np.array([[1.0]]), 1.0, "trace"),))
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-9)
        assert sol.x_mat[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert abs(sol.gap) < 1e-9

    def test_smallest_eigenvalue(self):
        inst = SdpInstance(cost=np.diag([1.0, 2.0]), equalities=((np.eye(2), 1.0, "trace"),))
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(sol.x_mat, np.diag([1.0, 0.0]), atol=1e-7)
        # multiplier of the trace row is the smallest eigenvalue
        assert sol.y_eq[0] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(sol.dual_slack, np.diag([0.0, 1.0]), atol=1e-7)

    def test_geq_inequality_active(self):
        inst = SdpInstance(
            cost=np.eye(2),
            inequalities=((e_mat(2, 0, 0), ">=", 2.0, "floor"),),
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(2.0, abs=1e-8)
        assert sol.x_mat[0, 0] == pytest.approx(2.0, abs=1e-7)
        assert sol.y_ineq[0] == pytest.approx(1.0, abs=1e-7)

    def test_leq_cap_active(self):
        inst = SdpInstance(
            cost=np.diag([-1.0, 1.0]),
            equalities=((np.eye(2), 4.0, "trace"),),
            inequalities=((e_mat(2, 0, 0), "<=", 3.0, "cap"),),
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(-2.0, abs=1e-8)
        assert sol.x_mat[0, 0] == pytest.approx(3.0, abs=1e-6)
        assert sol.y_ineq[0] > 1e-6  # cap binds
        rep = check_kkt(inst, sol)
        assert rep.max_residual() < 1e-8


class TestStrongDuality:
    def test_random_6x6_gap(self):
        inst = random_strong_duality_instance(seed=0)
        sol = solve(inst)
        assert sol.status == "optimal"
        scale = 1.0 + abs(sol.primal_obj)
        assert abs(sol.primal_obj - sol.dual_obj) <= 1e-9 * scale
        assert check_kkt(inst, sol).max_residual() < 1e-8
        assert sol.iterations <= 60

    def test_weak_duality_near_feasible_iterates(self):
        inst = random_strong_duality_instance(seed=1)
        sol = solve(inst)
        assert sol.status == "optimal"
        assert len(sol.trace) == sol.iterations
        for rec in sol.trace:
            if rec["pinf"] < 1e-9 and rec["dinf"] < 1e-9:
                assert rec["gap"] > -1e-9 * (1.0 + abs(rec["pobj"]))

    def test_dual_slack_matches_multiplier_recombination(self):
        inst = random_strong_duality_instance(seed=2)
        sol = solve(inst)
        q = inst.cost.copy()
        for (m, _, _), y in zip(inst.equalities, sol.y_eq):
            q -= y * m
        for (m, sense, _, _), lam in zip(inst.inequalities, sol.y_ineq):
            q -= lam * (m if sense == ">=" else -m)
        dev = np.linalg.norm(q - sol.dual_slack) / (1.0 + np.linalg.norm(q))
        assert dev < 1e-10

    def test_deterministic(self):
        inst = random_strong_duality_instance(seed=3)
        s1, s2 = solve(inst), solve(inst)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.x_mat, s2.x_mat)
        assert np.array_equal(s1.y_eq, s2.y_eq)


class TestScalingInvariance:
    def test_power_of_two_scaling(self):
        inst = random_strong_duality_instance(seed=4)
        tau = 4.0
        scaled = SdpInstance(
            cost=tau * inst.cost,
            equalities=tuple((tau * m, tau * r, lbl) for m, r, lbl in inst.equalities),
            inequalities=tuple(
                (tau * m, s, tau * r, lbl) for m, s, r, lbl in inst.inequalities
            ),
        )
        s1, s2 = solve(inst), solve(scaled)
        assert s1.status == s2.status == "optimal"
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.x_mat, s2.x_mat)
        assert s2.primal_obj == pytest.approx(tau * s1.primal_obj, rel=1e-12)
        assert s2.dual_obj == pytest.approx(tau * s1.dual_obj, rel=1e-12)
        # multipliers are invariant under joint (matrix, rhs) scaling
        assert np.allclose(s1.y_eq, s2.y_eq, rtol=1e-12, atol=0)


@lru_cache(maxsize=None)
def binding_instance(preset, theta_deg):
    """Conic SDR of a retarded point where the closed form would make a
    transmitter absorb power, solved once."""
    lam = C0 / PRESET_FREQUENCY
    geom = GeometrySpec.preset(preset, 0.1 * lam, angle=math.radians(theta_deg))
    z = retarded_loop_system(geom)
    cf = solve_closed_form(z)
    assert cf.p_tx.min() < 0.0
    inst = build_instance(build_problem(z, cf.r_load), "conic")
    return inst, solve(inst)


BINDING_POINTS = [("miso-2p", 30.0), ("miso-2p", -60.0), ("miso-3p", 20.0), ("miso-3p", -45.0)]


class TestRowScalingInvariance:
    """Scaling the cost and each constraint row (matrix with right-hand side)
    by its own power of two leaves the iterate path unchanged bit for bit."""

    @settings(max_examples=24, deadline=None)
    @given(
        point=st.sampled_from(BINDING_POINTS),
        exps=st.lists(st.integers(-40, 40), min_size=16, max_size=16),
    )
    def test_per_row_power_of_two_scaling(self, point, exps):
        inst, base = binding_instance(*point)
        assert base.status == "optimal"
        scales = [2.0**k for k in exps]
        n_eq = len(inst.equalities)
        assert len(scales) > n_eq + len(inst.inequalities)
        scaled = SdpInstance(
            cost=scales[0] * inst.cost,
            equalities=tuple(
                (t * m, t * r, lbl)
                for t, (m, r, lbl) in zip(scales[1:], inst.equalities)
            ),
            inequalities=tuple(
                (t * m, sense, t * r, lbl)
                for t, (m, sense, r, lbl) in zip(scales[1 + n_eq :], inst.inequalities)
            ),
        )
        sol = solve(scaled)
        assert sol.status == base.status
        assert sol.iterations == base.iterations
        assert np.array_equal(sol.x_mat, base.x_mat)
        assert sol.primal_obj == scales[0] * base.primal_obj


class TestStatuses:
    def test_infeasible_psd_conflict(self):
        inst = SdpInstance(
            cost=np.eye(2), equalities=((e_mat(2, 0, 0), -1.0, "neg-diag"),)
        )
        sol = solve(inst)
        assert sol.status == "infeasible"
        assert sol.certificate is not None

    def test_presolve_inconsistent(self):
        inst = SdpInstance(
            cost=np.eye(2),
            equalities=(
                (e_mat(2, 0, 0), 1.0, "a"),
                (e_mat(2, 0, 0), 2.0, "a-again"),
            ),
        )
        sol = solve(inst)
        assert sol.status == "infeasible"
        assert "presolve" in sol.residuals

    def test_presolve_drops_duplicate_row(self):
        inst = SdpInstance(
            cost=np.eye(2),
            equalities=(
                (e_mat(2, 0, 0), 1.0, "a"),
                (2.0 * e_mat(2, 0, 0), 2.0, "a-scaled"),
                (e_mat(2, 1, 1), 0.5, "b"),
            ),
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.residuals["dropped_equalities"] == (1,)
        assert sol.y_eq[1] == 0.0
        assert sol.primal_obj == pytest.approx(1.5, abs=1e-8)

    def test_unbounded_ray(self):
        inst = SdpInstance(
            cost=np.diag([-1.0, 1.0]), equalities=((e_mat(2, 1, 1), 1.0, "pin"),)
        )
        sol = solve(inst)
        assert sol.status == "unbounded"
        ray = sol.certificate
        assert ray is not None
        assert float(np.sum(np.diag([-1.0, 1.0]) * ray)) < 0

    def test_max_iters_reports_best_iterate(self, monkeypatch):
        inst = random_strong_duality_instance(seed=5)
        monkeypatch.setattr(sdp, "MAX_ITERS", 2)
        sol = solve(inst)
        assert sol.status == "max_iters"
        assert sol.iterations == 2
        assert np.isfinite(sol.residuals["primal"])

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="cap"):
            SdpInstance(
                cost=np.eye(DIM_CAP + 1),
                equalities=((np.eye(DIM_CAP + 1), 1.0, "t"),),
            )
        # affine border adds one dimension
        with pytest.raises(ValueError, match="cap"):
            SdpInstance(
                cost=np.eye(DIM_CAP),
                affine=(np.ones((1, DIM_CAP)), np.ones(1)),
            )

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SdpInstance(cost=bad, equalities=((np.eye(2), 1.0, "t"),))

    def test_no_constraints_rejected(self):
        with pytest.raises(ValueError, match="constraint"):
            SdpInstance(cost=np.eye(2))


class TestAffineForm:
    def test_min_norm_over_affine_line(self):
        # min tr(X) s.t. X >= c c^T, c1 + c2 = 1 -> c = (1/2, 1/2)
        inst = SdpInstance(
            cost=np.eye(2),
            affine=(np.array([[1.0, 1.0]]), np.array([1.0])),
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(sol.x_vec, [0.5, 0.5], atol=1e-7)
        assert np.allclose(sol.x_mat, np.full((2, 2), 0.25), atol=1e-6)
        rep = check_kkt(inst, sol)
        assert rep.max_residual() < 1e-8

    def test_affine_with_matrix_rows(self):
        # pin X12 = 0: X >= c c^T then costs (|c1| + sqrt(3)|c2|)^2 on the
        # line c1 + c2 = 1, minimized at c = (1, 0)
        inst = SdpInstance(
            cost=np.diag([1.0, 3.0]),
            equalities=((e_mat(2, 0, 1, 0.5), 0.0, "offdiag"),),
            affine=(np.array([[1.0, 1.0]]), np.array([1.0])),
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert np.allclose(sol.x_vec, [1.0, 0.0], atol=1e-5)
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-7)
        assert check_kkt(inst, sol).max_residual() < 1e-8


class TestKktAudit:
    def test_hand_built_pair_zero_residuals(self):
        inst = SdpInstance(
            cost=np.array([[1.0]]), equalities=((np.array([[1.0]]), 1.0, "trace"),)
        )
        sol = SdpSolution(
            status="optimal",
            x_mat=np.array([[1.0]]),
            x_vec=None,
            y_eq=np.array([1.0]),
            y_ineq=np.zeros(0),
            slacks=np.zeros(0),
            dual_slack=np.zeros((1, 1)),
            primal_obj=1.0,
            dual_obj=1.0,
            gap=0.0,
            rel_gap=0.0,
            iterations=0,
            residuals={},
            eq_labels=("trace",),
            ineq_labels=(),
        )
        rep = check_kkt(inst, sol)
        assert rep.max_residual() == 0.0

    def test_perturbed_primal_moves_cs_residual(self):
        inst = SdpInstance(
            cost=np.diag([1.0, 2.0]), equalities=((np.eye(2), 1.0, "trace"),)
        )
        sol = solve(inst)
        base = check_kkt(inst, sol).comp_slack
        bumped = SdpSolution(**{**sol.__dict__, "x_mat": sol.x_mat + np.diag([0.0, 1e-3])})
        cs = check_kkt(inst, bumped).comp_slack
        assert cs > 1e-4
        assert cs < 1e-2
        assert cs > 10 * base

    def test_received_power_label_is_separated(self):
        inst = SdpInstance(
            cost=np.eye(2),
            equalities=(
                (e_mat(2, 0, 0), 2.0, "received-power"),
                (e_mat(2, 1, 1), 0.0, "other"),
            ),
        )
        sol = SdpSolution(
            status="optimal",
            x_mat=np.diag([1.0, 0.0]),
            x_vec=None,
            y_eq=np.zeros(2),
            y_ineq=np.zeros(0),
            slacks=np.zeros(0),
            dual_slack=np.zeros((2, 2)),
            primal_obj=1.0,
            dual_obj=1.0,
            gap=0.0,
            rel_gap=0.0,
            iterations=0,
            residuals={},
            eq_labels=("received-power", "other"),
            ineq_labels=(),
        )
        rep = check_kkt(inst, sol)
        assert rep.received_power == pytest.approx(abs(1.0 - 2.0) / 3.0)
        assert rep.equalities == 0.0

    def test_report_fields_named(self):
        rep = KktReport(0, 0, 0, 0, 0, 0, 0)
        for name in (
            "primal_psd",
            "equalities",
            "received_power",
            "inequalities",
            "dual_sign",
            "dual_psd",
            "comp_slack",
        ):
            assert hasattr(rep, name)


class TestMisoEndToEnd:
    def test_miso2p_relaxation_matches_closed_form(self):
        inst, prob, z, cf = miso_instance("miso-2p")
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.iterations <= 60
        # quasi-static closed form is feasible, so the relaxation lands on it
        _, p_loss, _ = solve_min_loss_qp(z, cf.r_load)
        assert sol.primal_obj == pytest.approx(p_loss, rel=1e-7)
        rep = check_kkt(inst, sol)
        assert rep.max_residual() < 1e-8
        # rank-1 optimum: second eigenvalue negligible
        w = np.linalg.eigvalsh(sol.x_mat)
        assert w[-2] / w[-1] < 1e-6

    def test_miso2p_dual_slack_recombination(self):
        inst, *_ = miso_instance("miso-2p")
        sol = solve(inst)
        q = inst.cost.copy()
        for (m, _, _), y in zip(inst.equalities, sol.y_eq):
            q -= y * m
        for (m, sense, _, _), lam in zip(inst.inequalities, sol.y_ineq):
            q -= lam * (m if sense == ">=" else -m)
        dev = np.linalg.norm(q - sol.dual_slack) / (1.0 + np.linalg.norm(q))
        assert dev < 1e-10

    def test_miso3p_converges_fast(self):
        inst, *_ = miso_instance("miso-3p")
        sol = solve(inst)
        assert sol.status == "optimal"
        assert sol.iterations <= 60
        assert check_kkt(inst, sol).max_residual() < 1e-8
