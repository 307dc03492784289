"""Interior-point SDP solver: trivial cases, duality, statuses, KKT audit."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from wptopt import sdp
from wptopt.circuit import GeometrySpec, build_loop_system
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.qcqp import build_problem
from wptopt.sdp import (
    DIM_CAP,
    KktReport,
    SdpInstance,
    SdpOptions,
    SdpSolution,
    check_kkt,
    solve,
)


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
    eqs = [(prob.r_mat, 1.0, "received-power"), (prob.k0, 0.0, "kvl-primary")]
    for m, km in enumerate(prob.k_redundant):
        eqs.append((km, 0.0, f"kvl-redundant-{m}"))
    ineqs = tuple(
        (qn, ">=", 0.0, f"tx-power-{n}") for n, qn in enumerate(prob.q)
    )
    inst = SdpInstance(cost=prob.q0, equalities=tuple(eqs), inequalities=ineqs)
    return inst, prob, z, cf


def random_spd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T + d * np.eye(d)


def random_sym(rng, d):
    g = rng.standard_normal((d, d))
    return g + g.T


def max_step_psd_reference(x, dx):
    """`_max_step_psd` as written on the validating scipy.linalg wrappers."""
    l = sla.cholesky(x, lower=True)
    w = sla.solve_triangular(l, dx, lower=True)
    w = sla.solve_triangular(l, w.T, lower=True)
    lam_min = np.linalg.eigvalsh(0.5 * (w + w.T)).min()
    return np.inf if lam_min >= -1e-16 else -1.0 / lam_min


def nt_scaling_reference(x, z):
    """`_nt_scaling` as written on the validating scipy.linalg wrappers."""
    lx = sla.cholesky(x, lower=True)
    lz = sla.cholesky(z, lower=True)
    u, sig, vt = sla.svd(lz.T @ lx)
    sqrt_sig = np.sqrt(sig)
    return (lx @ vt.T) / sqrt_sig, (u / sqrt_sig).T @ lz.T, sig


ORDERS = range(1, 10)


class TestRawLapack:
    """The raw LAPACK calls of the IPM give the bits of the scipy.linalg
    calls they replace, on the orders the solver meets."""

    @pytest.mark.parametrize("d", ORDERS)
    def test_svec_matches_triu_reference(self, d):
        m = random_sym(np.random.default_rng(d), d)
        ref = np.concatenate([np.diag(m), np.sqrt(2.0) * m[np.triu_indices(d, 1)]])
        assert np.array_equal(sdp._svec(m), ref)
        assert np.array_equal(sdp._svec(np.asfortranarray(m)), ref)

    @pytest.mark.parametrize("d", ORDERS)
    def test_cholesky_factor(self, d):
        a = random_spd(np.random.default_rng(10 + d), d)
        assert np.array_equal(sdp._chol_ridged(a), sla.cholesky(a, lower=True))

    @pytest.mark.parametrize("d", ORDERS)
    def test_triangular_solves(self, d):
        rng = np.random.default_rng(20 + d)
        l = sla.cholesky(random_spd(rng, d), lower=True)
        b = random_sym(rng, d)
        w = sdp._checked(dtrtrs(l, b, lower=1), "dtrtrs")
        assert np.array_equal(w, sla.solve_triangular(l, b, lower=True))
        w2 = sdp._checked(dtrtrs(l, w.T, lower=1), "dtrtrs")
        assert np.array_equal(w2, sla.solve_triangular(l, w.T, lower=True))

    @pytest.mark.parametrize("d", ORDERS)
    def test_max_step_psd(self, d):
        rng = np.random.default_rng(30 + d)
        x, dx = random_spd(rng, d), random_sym(rng, d)
        assert sdp._max_step_psd(x, dx) == max_step_psd_reference(x, dx)

    @pytest.mark.parametrize("d", ORDERS)
    def test_svd_triple(self, d):
        rng = np.random.default_rng(40 + d)
        x, z = random_spd(rng, d), random_spd(rng, d)
        for got, ref in zip(sdp._nt_scaling(x, z), nt_scaling_reference(x, z)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("d", ORDERS)
    def test_schur_factor_and_solve(self, d):
        rng = np.random.default_rng(50 + d)
        a, rv = random_spd(rng, d), rng.standard_normal(d)
        cf = sdp._checked(dpotrf(a, lower=1, clean=0), "dpotrf")
        ref = sla.cho_factor(a, lower=True, check_finite=False)
        assert np.array_equal(cf, ref[0])
        got = sdp._checked(dpotrs(cf, rv, lower=1), "dpotrs")
        assert np.array_equal(got, sla.cho_solve(ref, rv, check_finite=False))

    def test_ridge_factors_singular_psd(self):
        v = np.arange(1.0, 5.0)
        m = np.outer(v, v)  # rank one: plain Cholesky fails
        with pytest.raises(np.linalg.LinAlgError):
            sdp._checked(dpotrf(m, lower=1, clean=1), "dpotrf")
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
        sol = solve(inst, SdpOptions(verbose=True))
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

    def test_max_iters_reports_best_iterate(self):
        inst = random_strong_duality_instance(seed=5)
        sol = solve(inst, SdpOptions(max_iters=2))
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
