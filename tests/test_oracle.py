import math

import numpy as np
import pytest

from oracles import brute_force_qcqp, minimize_loss_descent
from retarded import retarded_loop_system
from wptopt.circuit import GeometrySpec
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.oracle import verify_identities
from wptopt.pipeline import solve_relaxation
from wptopt.qcqp import build_problem, current_residuals, evaluate


def quasi_system(preset, frac=0.1, theta_deg=0.0):
    lam = GeometrySpec.preset(preset, 1.0).wavelength
    geom = GeometrySpec.preset(preset, frac * lam, math.radians(theta_deg))
    from wptopt.circuit import build_loop_system

    return build_loop_system(geom)


def retarded_system(preset, frac=0.1, theta_deg=0.0):
    lam = GeometrySpec.preset(preset, 1.0).wavelength
    geom = GeometrySpec.preset(preset, frac * lam, math.radians(theta_deg))
    return retarded_loop_system(geom)


class TestBruteForce:
    def test_unconstrained_interior_matches_qp(self):
        # quasi-static MISO-2: the loss optimum has strictly positive port
        # powers, so the grid oracle must land on the analytic QP solution
        z = quasi_system("miso-2p")
        cf = solve_closed_form(z)
        prob = build_problem(z, cf.r_load)
        _, p_loss, _ = solve_min_loss_qp(z, cf.r_load)
        rep = brute_force_qcqp(prob, candidate=p_loss)
        assert rep.method == "grid"
        assert rep.agreement_gap < 1e-6
        assert rep.objective == pytest.approx(p_loss, rel=1e-6)

    def test_constrained_matches_relaxation(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        cf = solve_closed_form(z)
        assert cf.p_tx.min() < 0  # the constraint genuinely binds here
        prob = build_problem(z, cf.r_load)
        res = solve_relaxation(prob)
        rep = brute_force_qcqp(prob, candidate=res.p_relax)
        assert rep.agreement_gap < 1e-4
        assert rep.objective >= res.p_relax - 1e-6 * abs(res.p_relax)

    def test_reported_point_is_feasible(self):
        z = retarded_system("miso-2c", theta_deg=40.0)
        prob = build_problem(z, solve_closed_form(z).r_load)
        rep = brute_force_qcqp(prob)
        assert rep.max_violation <= 1e-8
        objective, powers = evaluate(prob, rep.c)
        kvl, pl = current_residuals(prob, rep.c)
        assert powers.min() >= -1e-8
        assert abs(kvl) < 1e-6 * np.abs(prob.a).max() * np.abs(rep.c).max()
        assert abs(pl) < 1e-9
        assert objective == pytest.approx(rep.objective, rel=1e-12)

    def test_infeasible_caps_error(self):
        z = quasi_system("miso-2p")
        rl = solve_closed_form(z).r_load
        prob = build_problem(z, rl, power_caps=(0.0, 0.0))
        with pytest.raises(RuntimeError, match="feasible"):
            brute_force_qcqp(prob)

    def test_too_many_ports_rejected(self):
        z = quasi_system("miso-3p")
        prob = build_problem(z, solve_closed_form(z).r_load)
        with pytest.raises(ValueError, match="free coordinates"):
            brute_force_qcqp(prob)

    def test_deterministic(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        prob = build_problem(z, solve_closed_form(z).r_load)
        r1 = brute_force_qcqp(prob)
        r2 = brute_force_qcqp(prob)
        assert np.array_equal(r1.c, r2.c)
        assert r1.evaluations == r2.evaluations

    def test_gap_nan_without_candidate(self):
        z = quasi_system("miso-2p")
        prob = build_problem(z, solve_closed_form(z).r_load)
        rep = brute_force_qcqp(prob)
        assert math.isnan(rep.agreement_gap)
        assert rep.evaluations >= 41


class TestDescent:
    @pytest.mark.parametrize("preset", ["miso-2p", "miso-3c"])
    def test_matches_analytic_qp(self, preset):
        z = quasi_system(preset)
        rl = solve_closed_form(z).r_load
        prob = build_problem(z, rl)
        _, p_loss, _ = solve_min_loss_qp(z, rl)
        rep = minimize_loss_descent(prob, candidate=p_loss)
        assert rep.method == "multistart"
        assert rep.agreement_gap < 1e-6
        assert rep.max_violation < 1e-6

    def test_retarded_four_port(self):
        z = retarded_system("miso-3p", theta_deg=18.0)
        rl = solve_closed_form(z).r_load
        prob = build_problem(z, rl)
        _, p_loss, _ = solve_min_loss_qp(z, rl)
        rep = minimize_loss_descent(prob)
        assert rep.objective == pytest.approx(p_loss, rel=1e-8)
        assert rep.evaluations > 8


class TestVerifyIdentities:
    def test_preset_all_pass(self):
        rep = verify_identities(quasi_system("miso-3p"))
        assert rep.all_pass, rep.summary()
        names = {c.name for c in rep.checks}
        assert {"pim-sum", "pim-eigen", "pim-splits", "power-balance"} <= names

    def test_retarded_all_pass(self):
        # complex mutual impedances exercise every conjugation-sensitive path
        rep = verify_identities(retarded_system("miso-2c", theta_deg=40.0))
        assert rep.all_pass, rep.summary()

    def test_corrupted_matrix_reported(self):
        z = quasi_system("miso-2p")
        bad = z.entries.copy()
        bad[0, 1] += 0.05  # break reciprocity
        rep = verify_identities(bad, r_load=2.0)
        assert not rep.all_pass
        failed = {c.name for c in rep.failures()}
        assert "pim-sum" in failed

    def test_siso_collapse_check_present(self):
        rep = verify_identities(quasi_system("siso"))
        names = {c.name for c in rep.checks}
        assert "siso-mutual-q" in names
        assert rep.all_pass, rep.summary()

    def test_summary_readable(self):
        rep = verify_identities(quasi_system("siso"))
        text = rep.summary()
        assert "PASS" in text and "residual" in text
