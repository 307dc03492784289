"""Relaxation pipeline: instance assembly, tightness, extraction, recovery,
skip logic, load search and result records."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptopt.pipeline
import wptopt.sdp
from retarded import retarded_loop_system
from wptopt.circuit import GeometrySpec, build_loop_system
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.pipeline import (
    LOAD_REL_TOL,
    LoadSearch,
    PipelineOptions,
    RelaxationError,
    SdrResult,
    build_instance,
    extract_solution,
    full_pipeline,
    optimize_load,
    recover_operating_point,
    result_record,
    solve_relaxation,
    tightness_error,
)
from wptopt.qcqp import build_problem, evaluate
from wptopt.sdp import check_kkt, solve


def quasi_system(preset="miso-2p", frac=0.1, theta_deg=0.0):
    lam = GeometrySpec.preset(preset, 1.0).wavelength
    geom = GeometrySpec.preset(preset, frac * lam, math.radians(theta_deg))
    return build_loop_system(geom)


def retarded_system(preset="miso-3c", frac=0.1, theta_deg=18.0):
    lam = GeometrySpec.preset(preset, 1.0).wavelength
    geom = GeometrySpec.preset(preset, frac * lam, math.radians(theta_deg))
    return retarded_loop_system(geom)


def single_transmitter_point(problem, port, rng):
    """KVL-feasible vector driving one transmitter only.

    Silent ports feed zero power, the driven port covers all dissipation,
    so the point also satisfies the nonnegative-power constraints.
    """
    n_tx = problem.n_tx
    k = problem.a[0]
    i_r = problem.b[1]
    const = k[n_tx] * i_r
    a_re, a_im = k[port], k[n_tx + 1 + port]
    c = np.zeros(problem.m)
    c[n_tx] = i_r
    if abs(a_re) >= abs(a_im):
        c[n_tx + 1 + port] = rng.uniform(-2.0, 2.0)
        c[port] = -(const + a_im * c[n_tx + 1 + port]) / a_re
    else:
        c[port] = rng.uniform(-2.0, 2.0)
        c[n_tx + 1 + port] = -(const + a_re * c[port]) / a_im
    return c


class TestBuildInstance:
    def test_conic_rows_and_labels(self):
        z = quasi_system()
        prob = build_problem(z, 10.0)
        inst = build_instance(prob)
        labels = [lbl for _, _, lbl in inst.equalities]
        assert labels[0] == "received-power"
        assert labels[1] == "kvl-primary"
        assert all(lbl.startswith("kvl-redundant-") for lbl in labels[2:])
        assert len(labels) == 2 + prob.m
        senses = [s for _, s, _, lbl in inst.inequalities]
        assert senses == [">="] * prob.n_tx

    def test_caps_flip_sense(self):
        z = quasi_system()
        prob = build_problem(z, 10.0, power_caps=(3.0, 4.0))
        inst = build_instance(prob)
        assert [(s, r) for _, s, r, _ in inst.inequalities] == [("<=", 3.0), ("<=", 4.0)]

    def test_affine_form_carries_current_rows(self):
        z = quasi_system()
        prob = build_problem(z, 10.0)
        inst = build_instance(prob, form="affine")
        a, b = inst.affine
        assert a.shape == (2, prob.m)
        assert not inst.equalities

    def test_power_constraints_removable(self):
        z = quasi_system()
        prob = build_problem(z, 10.0)
        inst = build_instance(prob, constrain_powers=False)
        assert inst.inequalities == ()


class TestTightnessError:
    def test_rank_one_is_zero(self):
        c = np.array([1.0, -2.0, 0.5])
        assert tightness_error(np.outer(c, c), c) == 0.0

    def test_identity_example(self):
        assert tightness_error(np.eye(2), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            tightness_error(np.eye(2), np.zeros(2))


class TestExtraction:
    def setup_method(self):
        self.z = quasi_system("miso-2p")
        self.prob = build_problem(self.z, 25.0)

    def feasible_vector(self):
        c_t, _, _ = solve_min_loss_qp(self.z, 25.0)
        n_t = self.prob.n_tx
        i_r = self.prob.b[1]
        return np.concatenate([c_t[:n_t], [i_r], c_t[n_t:]])

    def test_rank_one_recovery(self):
        c0 = self.feasible_vector()
        c = extract_solution(np.outer(c0, c0), self.prob)
        assert np.allclose(c, c0, atol=1e-10)

    def test_sign_convention(self):
        c0 = -self.feasible_vector()
        c = extract_solution(np.outer(c0, c0), self.prob)
        assert c[self.prob.n_tx] > 0.0

    def test_rescale_exact(self):
        c0 = self.feasible_vector() * 1.37
        c = extract_solution(np.outer(c0, c0), self.prob)
        assert 0.5 * self.prob.r_load * c[self.prob.n_tx] ** 2 == pytest.approx(
            1.0, abs=1e-14
        )

    def test_rank_ratio_warns(self):
        c0 = self.feasible_vector()
        w = np.zeros_like(c0)
        w[0], w[-1] = c0[-1], -c0[0]  # orthogonal-ish direction
        cmat = np.outer(c0, c0) + 0.05 * float(c0 @ c0) * np.outer(w, w) / float(w @ w)
        with pytest.warns(RuntimeWarning, match="heuristic"):
            extract_solution(cmat, self.prob)

    def test_extracted_satisfies_current_rows_miso3c(self):
        z = retarded_system("miso-3c", theta_deg=18.0)
        prob = build_problem(z, solve_closed_form(z).r_load)
        res = solve_relaxation(prob)
        resid = prob.a @ res.cvec - prob.b
        assert np.abs(resid).max() < 1e-8 * (1.0 + np.abs(prob.b).max())


class TestSolveRelaxation:
    def test_unconstrained_matches_analytic_qp(self):
        z = quasi_system("miso-3p")
        r_load = solve_closed_form(z).r_load
        prob = build_problem(z, r_load)
        res = solve_relaxation(prob, constrain_powers=False)
        _, p_loss, _ = solve_min_loss_qp(z, r_load)
        assert res.p_relax == pytest.approx(p_loss, rel=1e-8)
        assert res.tight

    def test_feasible_closed_form_is_recovered(self):
        z = quasi_system("miso-2p")
        cf = solve_closed_form(z)
        prob = build_problem(z, cf.r_load)
        res = solve_relaxation(prob)
        assert res.p_relax == pytest.approx(cf.p_loss, rel=1e-8)
        assert res.tight and res.epsilon <= 1e-8
        assert res.kkt.max_residual() < 1e-8

    def test_lower_bound_on_feasible_points(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        r_load = solve_closed_form(z).r_load
        prob = build_problem(z, r_load)
        res = solve_relaxation(prob)
        rng = np.random.default_rng(7)
        for trial in range(20):
            c = single_transmitter_point(prob, trial % prob.n_tx, rng)
            rep = evaluate(prob, c)
            assert rep.tx_powers.min() >= -1e-12
            assert res.p_relax <= rep.objective + 1e-9

    def test_non_optimal_status_raises(self, monkeypatch):
        z = quasi_system("miso-2p")
        prob = build_problem(z, 10.0)
        monkeypatch.setattr(wptopt.sdp, "MAX_ITERS", 1)
        with pytest.raises(RelaxationError) as err:
            solve_relaxation(prob)
        assert err.value.status == "max_iters"

    def test_affine_and_conic_agree(self):
        z = retarded_system("miso-2c", theta_deg=40.0)
        r_load = solve_closed_form(z).r_load
        prob = build_problem(z, r_load)
        con = solve_relaxation(prob)
        aff = solve(build_instance(prob, "affine"))
        assert con.form == "conic" and aff.status == "optimal"
        assert aff.primal_obj == pytest.approx(con.p_relax, rel=1e-6)
        assert np.allclose(aff.x_vec, con.cvec, atol=1e-5 * np.abs(con.cvec).max())

    def test_form_fallback_near_coupling_cancellation(self):
        # at this angle the conic form stalls against its conditioning wall;
        # the automatic retry with the affine form must still certify
        z = retarded_system("miso-2p", theta_deg=68.0)
        r_load = solve_closed_form(z).r_load_opt
        res = solve_relaxation(build_problem(z, r_load))
        assert res.tight and res.epsilon <= 1e-8
        assert res.kkt.max_residual() <= 1e-8

    def test_iterations_count_every_attempt(self, monkeypatch):
        # the point above retries; the attempt it discards did work too
        counts = []

        def counted(inst):
            sol = solve(inst)
            counts.append(sol.iterations)
            return sol

        monkeypatch.setattr(wptopt.pipeline, "solve", counted)
        z = retarded_system("miso-2p", theta_deg=68.0)
        res = solve_relaxation(build_problem(z, solve_closed_form(z).r_load_opt))
        assert len(counts) == 2
        assert res.iterations == sum(counts)

    def test_form_reports_the_attempt_kept(self):
        # conic retries here and keeps the affine attempt; the row says so
        z = retarded_system("miso-2p", theta_deg=68.0)
        prob = build_problem(z, solve_closed_form(z).r_load_opt)
        assert solve_relaxation(prob).form == "affine"
        # the affine form alone certifies this point
        inst = build_instance(prob, "affine")
        sol = solve(inst)
        assert sol.status == "optimal"
        assert tightness_error(sol.x_mat, sol.x_vec) <= 1e-8
        assert check_kkt(inst, sol).max_residual() <= 1e-8
        z = retarded_system("miso-2p", theta_deg=20.0)
        prob = build_problem(z, solve_closed_form(z).r_load_opt)
        assert solve_relaxation(prob).form == "conic"

    def test_polish_restores_binding_powers(self):
        # binding constraint: raw eigenvector extraction leaves the pinned
        # port power microwatts negative, the polish must bring it back
        z = retarded_system("miso-2p", theta_deg=58.0)
        cf = solve_closed_form(z)
        assert cf.p_tx.min() < 0.0
        res = solve_relaxation(build_problem(z, cf.r_load_opt))
        assert res.transmit_powers.min() >= -1e-9
        attained = float(res.cvec @ build_problem(z, cf.r_load_opt).q0 @ res.cvec)
        assert attained == pytest.approx(res.p_relax, rel=1e-6)


class TestRecoverOperatingPoint:
    def test_closed_form_roundtrip(self):
        z = quasi_system("miso-3p")
        cf = solve_closed_form(z)
        c = np.concatenate([cf.i_t.real, [cf.i_r], cf.i_t.imag])
        op = recover_operating_point(c, z, build_problem(z, cf.r_load))
        assert op["x_r"] == pytest.approx(cf.x_r, abs=1e-9 * max(1.0, abs(cf.x_r)))
        assert op["eta"] == pytest.approx(cf.eta, rel=1e-10)
        i = op["currents"]
        v = op["voltages"]
        assert abs(v[-1]) <= 1e-8 * np.linalg.norm(i) * np.linalg.norm(z.entries)
        assert np.allclose(op["transmit_powers"], cf.p_tx, atol=1e-10)

    def test_infeasible_vector_rejected(self):
        z = quasi_system("miso-2p")
        prob = build_problem(z, 10.0)
        c = np.ones(prob.m)
        with pytest.raises(ValueError, match="residual"):
            recover_operating_point(c, z, prob)


class TestFullPipeline:
    def test_quasi_static_broadside_skips(self):
        z = quasi_system("miso-2c", theta_deg=0.0)
        res = full_pipeline(z)
        cf = res.closed_form
        assert res.skipped and res.tight
        assert res.epsilon == 0.0
        assert res.eta == cf.eta
        assert res.delta_eta_db == 0.0
        assert res.iterations == 0

    def test_retarded_oblique_runs_sdr(self):
        z = retarded_system("miso-3c", theta_deg=18.0)
        res = full_pipeline(z)
        cf = res.closed_form
        assert not res.skipped
        assert cf.p_tx.min() < 0.0
        assert res.tight and res.epsilon <= 1e-8
        assert res.transmit_powers.min() >= -1e-9
        assert res.eta <= cf.eta + 1e-12
        assert res.delta_eta_db >= 0.0
        assert math.isfinite(res.x_r)
        assert math.isfinite(res.delta_cr_rel)
        assert res.kkt.max_residual() < 1e-8
        assert res.iterations <= 60

    def test_presolve_keeps_feasible_point_near_coupling_null(self):
        # the received-power row's normalized right-hand side is ~73 here, so
        # rounding alone leaves a dependent-row residual above 1e-10
        z = retarded_system("miso-3p", frac=0.10023, theta_deg=-54.387)
        res = full_pipeline(z)
        assert res.status == "optimal" and not res.skipped
        assert res.tight and res.epsilon <= 1e-8
        assert res.transmit_powers.min() >= -1e-12

    def test_tight_objective_consistency(self):
        z = retarded_system("miso-3c", theta_deg=18.0)
        res = full_pipeline(z)
        prob = build_problem(z, res.r_load)
        obj = evaluate(prob, res.cvec).objective
        assert obj == pytest.approx(res.p_relax, rel=1e-8)

    def test_relaxation_bounded_below_by_unconstrained(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        res = full_pipeline(z)
        cf = res.closed_form
        assert cf.p_loss <= res.p_relax + 1e-9 * (1.0 + abs(res.p_relax))

    def test_power_caps_force_sdr_and_lower_eta(self):
        z = quasi_system("miso-2p", theta_deg=30.0)
        base = full_pipeline(z)
        assert base.skipped
        caps = tuple(0.8 * max(base.transmit_powers) for _ in base.transmit_powers)
        res = full_pipeline(z, base.r_load, PipelineOptions(power_caps=caps))
        assert not res.skipped
        assert res.tight
        assert np.all(res.transmit_powers <= np.asarray(caps) + 1e-9)
        assert res.eta <= base.eta + 1e-12

    def test_non_finite_caps_rejected(self):
        for caps in ((math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                PipelineOptions(power_caps=caps)
        # a negative cap stays legal: such a row is certified infeasible
        assert PipelineOptions(power_caps=(-1.0, 1.0)).power_caps == (-1.0, 1.0)

    def test_form_of_each_path(self, relaxation_only):
        binding = retarded_system("miso-2p", theta_deg=68.0)
        assert full_pipeline(binding).form == "dual"
        quasi = quasi_system("miso-2p")
        assert full_pipeline(quasi).form == "closed-form"
        with relaxation_only():
            assert full_pipeline(quasi).form == "closed-form"
            assert full_pipeline(binding).form == "affine"

    def test_explicit_load_is_respected(self):
        z = quasi_system("miso-2p")
        res = full_pipeline(z, 17.0)
        assert res.r_load == 17.0


class FakeRow:
    """Stand-in pipeline row whose efficiency is a given function of ln R_L."""

    def __init__(self, rl, eta, tight=True, bound=None):
        self.r_load = rl
        self.eta = eta
        self.tight = tight
        self.p_relax = 1.0 / (eta if bound is None else bound) - 1.0


def fake_pipeline(monkeypatch, row_at):
    """Route optimize_load's evaluations to row_at(rl); returns the log."""
    calls = []

    def fake(z, rl, opts):
        calls.append(rl)
        return row_at(rl)

    monkeypatch.setattr(wptopt.pipeline, "full_pipeline", fake)
    return calls


class TestOptimizeLoad:
    def test_recovers_unconstrained_optimum(self):
        z = quasi_system("miso-2p")
        cf = solve_closed_form(z)
        search = optimize_load(z)
        assert search.method == "closed-form"
        assert search.evaluations == 1
        assert search.r_load == cf.r_load_opt
        assert search.result.eta == pytest.approx(cf.eta_max, rel=1e-12)

    def test_flat_maximum(self):
        z = quasi_system("miso-2p")
        search = optimize_load(z)
        eta_opt = search.result.eta
        for fac in (0.9, 1.1):
            eta = full_pipeline(z, fac * search.r_load).eta
            assert eta >= 0.99 * eta_opt

    def test_constrained_improves_on_initial_guess(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        cf = solve_closed_form(z)
        at_guess = full_pipeline(z, cf.r_load_opt)
        search = optimize_load(z)
        assert search.result.eta >= at_guess.eta - 1e-12

    def test_binding_point_is_a_local_maximum(self):
        z = retarded_system("miso-2p", theta_deg=45.0)
        search = optimize_load(z)
        assert search.method == "brent"
        assert search.evaluations <= 15
        assert not search.result.skipped and search.result.tight
        for fac in (1.0 - 1e-3, 1.0 + 1e-3):
            assert full_pipeline(z, fac * search.r_load).eta <= search.result.eta

    @settings(max_examples=60, deadline=None)
    @given(
        peak=st.floats(0.02, 0.98),
        skew=st.sampled_from([0.0, -3.0, -1.0, 0.5, 2.0]),
        lo=st.floats(1e-3, 10.0),
        decades=st.floats(0.5, 3.0),
    )
    def test_smooth_unimodal_profiles(self, peak, skew, lo, decades):
        # 1/eta - 2 is v^2 or, skewed, the convex linex e^{sv} - sv - 1 in
        # v = ln R_L - ln R_peak, so the peak is the unique maximum
        hi = lo * 10.0**decades
        u_peak = math.log(lo) + peak * math.log(hi / lo)

        def row_at(rl):
            v = math.log(rl) - u_peak
            dist = v * v if skew == 0.0 else math.expm1(skew * v) - skew * v
            return FakeRow(rl, 1.0 / (2.0 + dist))

        with pytest.MonkeyPatch.context() as mp:
            fake_pipeline(mp, row_at)
            search = wptopt.pipeline.optimize_load(None, bounds=(lo, hi))
        assert search.method == "brent"
        assert search.evaluations <= 29
        r_peak = math.exp(u_peak)
        assert abs(search.r_load - r_peak) <= LOAD_REL_TOL * r_peak

    def test_non_tight_probe_is_ranked_by_its_bound(self, monkeypatch):
        # on this bracket the dual stalls and some relaxations are not tight
        # (near R_L = 0.0679 ohm the extracted point has a power of about
        # -17 W); a non-tight row must not win the search
        z = retarded_system("miso-3p", theta_deg=-54.0)
        rows = []

        def spy(*args):
            rows.append(full_pipeline(*args))
            return rows[-1]

        monkeypatch.setattr(wptopt.pipeline, "full_pipeline", spy)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "second eigenvalue", RuntimeWarning)
            search = optimize_load(z, bounds=(0.0655, 0.0694))
        assert search.result.tight
        assert search.result.transmit_powers.min() >= -1e-9
        assert any(not r.tight and r is not search.result for r in rows)

    def test_non_tight_start_loses_to_its_bound(self, monkeypatch):
        # the start point's extracted efficiency tops the profile, but its
        # certified bound sits below the tight rows around it
        u_peak = math.log(3.0)

        def row_at(rl):
            eta = math.exp(-1.0 - (math.log(rl) - u_peak) ** 2)
            if rl == 10.0:
                return FakeRow(rl, 0.9, tight=False, bound=0.5 * eta)
            return FakeRow(rl, eta)

        calls = fake_pipeline(monkeypatch, row_at)
        search = wptopt.pipeline.optimize_load(None, bounds=(1.0, 100.0))
        assert calls[0] == 10.0
        assert search.method == "brent"
        assert search.result.tight
        assert search.r_load == pytest.approx(3.0, rel=LOAD_REL_TOL)

    def test_grid_fallback_on_non_unimodal_profile(self, monkeypatch):
        import wptopt.pipeline as pl

        class Fake:
            # valley at the geometric midpoint so the bracket probe fails
            def __init__(self, rl):
                self.eta = 0.1 + 0.1 * (math.log(rl) - math.log(10.0)) ** 2
                self.r_load = rl
                self.tight = True

        monkeypatch.setattr(pl, "full_pipeline", lambda z, rl, opts: Fake(rl))
        with pytest.warns(RuntimeWarning, match="unimodality"):
            search = pl.optimize_load(None, bounds=(1.0, 100.0))
        assert search.method == "grid"
        assert search.evaluations >= 64

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            optimize_load(None, bounds=(5.0, 1.0))

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.nan, 2.0)])
    def test_non_finite_bounds_rejected(self, bounds):
        # (1, inf) used to pass and end in a LAPACK LinAlgError
        with pytest.raises(ValueError, match="bad load bounds"):
            optimize_load(None, bounds=bounds)


class TestResultRecord:
    def test_record_roundtrip_and_hash(self):
        z = quasi_system("miso-2p")
        res = full_pipeline(z)
        rec = result_record(res, z)
        for key in (
            "inputs_sha256",
            "r_load_ohm",
            "eta",
            "epsilon",
            "skipped",
            "transmit_powers_w",
            "currents_re",
            "currents_im",
            "x_r_ohm",
            "c_r_farad",
            "iterations",
        ):
            assert key in rec
        blob = json.dumps(rec)
        assert json.loads(blob) == rec
        assert rec["inputs_sha256"] == result_record(res, z)["inputs_sha256"]
        other = full_pipeline(z, 2.0 * res.r_load)
        assert result_record(other, z)["inputs_sha256"] != rec["inputs_sha256"]
