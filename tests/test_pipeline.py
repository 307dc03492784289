"""Relaxation pipeline: the reference solver's instance assembly,
tightness, extraction, recovery, skip logic and load search."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptopt.pipeline
from retarded import retarded_loop_system
from sdp_oracle import build_instance, solve
from test_dual import NOT_TIGHT_IM, NOT_TIGHT_RE, random_system
from wptopt import dual
from wptopt.circuit import GeometrySpec, ImpedanceMatrix, build_loop_system
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.pipeline import (
    LOAD_REL_TOL,
    LoadSearch,
    PipelineOptions,
    RelaxationError,
    SdrResult,
    extract_solution,
    full_pipeline,
    optimize_load,
    recover_operating_point,
    solve_relaxation,
    tightness_error,
)
from wptopt.qcqp import build_problem, evaluate


def assert_same_bits(a, b, name="result"):
    """a and b field by field, nested results too: arrays by their bytes,
    every other value (floats, strings, counts) by its repr."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), name
        for field in dataclasses.fields(a):
            assert_same_bits(getattr(a, field.name), getattr(b, field.name),
                             f"{name}.{field.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    else:
        assert repr(a) == repr(b), name


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
    c = np.zeros(problem.q0.shape[0])
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
        assert len(labels) == 2 + prob.q0.shape[0]
        senses = [s for _, s, _, lbl in inst.inequalities]
        assert senses == [">="] * prob.n_tx

    def test_caps_flip_sense(self):
        z = quasi_system()
        prob = build_problem(z, 10.0, power_caps=(3.0, 4.0))
        inst = build_instance(prob)
        # caps keep p_n >= 0 and add each cap as a power row of flipped sign
        rows = [(s, r) for _, s, r, _ in inst.inequalities]
        assert rows == [(">=", 0.0), (">=", 0.0), (">=", -3.0), (">=", -4.0)]
        mats = [g for g, *_ in inst.inequalities]
        for g, ref in zip(mats, prob.q + tuple(-qn for qn in prob.q)):
            assert np.array_equal(g, ref)

    def test_affine_form_carries_current_rows(self):
        z = quasi_system()
        prob = build_problem(z, 10.0)
        inst = build_instance(prob, form="affine")
        a, b = inst.affine
        assert a.shape == (2, prob.q0.shape[0])
        assert not inst.equalities

    def test_power_constraints_removable(self):
        z = quasi_system()
        prob = build_problem(z, 10.0, constrain_powers=False)
        inst = build_instance(prob)
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

    def test_rank_two_matrix_extracts_without_warning(self):
        # a matrix of rank above one still yields its dominant eigenvector;
        # the tightness error, not a warning, flags the row
        c0 = self.feasible_vector()
        w = np.zeros_like(c0)
        w[0], w[-1] = c0[-1], -c0[0]  # orthogonal-ish direction
        cmat = np.outer(c0, c0) + 0.05 * float(c0 @ c0) * np.outer(w, w) / float(w @ w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = extract_solution(cmat, self.prob)
        _, vecs = np.linalg.eigh(cmat)
        assert abs(float(c @ vecs[:, -1])) == pytest.approx(np.linalg.norm(c), rel=1e-12)
        assert 0.5 * self.prob.r_load * c[self.prob.n_tx] ** 2 == pytest.approx(1.0, abs=1e-14)
        assert tightness_error(cmat, c) > 1e-3

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
        prob = build_problem(z, r_load, constrain_powers=False)
        res = solve_relaxation(prob)
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
            objective, powers = evaluate(prob, c)
            assert powers.min() >= -1e-12
            assert res.p_relax <= objective + 1e-9

    def test_non_optimal_status_raises(self, monkeypatch):
        z = quasi_system("miso-2p")
        prob = build_problem(z, 10.0)
        monkeypatch.setattr(dual, "BARRIER_STEPS", 1)
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
        # a coupling cancellation: the optimal currents sit orders of
        # magnitude above the constraint scale, and the relaxation is tight
        z = retarded_system("miso-2p", theta_deg=68.0)
        r_load = solve_closed_form(z).r_load_opt
        res = solve_relaxation(build_problem(z, r_load))
        assert res.tight and res.epsilon <= 1e-8
        assert res.kkt.max_residual() <= 1e-8

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


# the random passive 4-ports whose relaxation is not tight
NOT_TIGHT_SEEDS = (103, 104, 301, 389, 458, 479, 484, 516, 892, 1049, 1274, 1443)


class TestOracleAgreement:
    """The barrier against the reference interior-point method on the rows
    the dual ascent leaves to the relaxation."""

    def test_hard_rows_match_the_oracle(self):
        rows = [(f"seed {seed}", random_system(seed, 4)) for seed in NOT_TIGHT_SEEDS]
        rows += [
            ("seed 1347", random_system(1347, 3)),  # tight; the ascent stalls
            ("pinned", ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7)),
            # a coupling cancellation, tight at eps ~ 4e-13
            ("miso-2p 68", retarded_system("miso-2p", theta_deg=68.0)),
        ]
        tight = []
        for label, z in rows:
            problem = build_problem(z, solve_closed_form(z).r_load)
            res = solve_relaxation(problem)
            sol = solve(build_instance(problem))
            assert sol.status == "optimal", label
            eps = tightness_error(sol.x_mat, extract_solution(sol.x_mat, problem))
            assert abs(res.p_relax - sol.primal_obj) <= 1e-9 * abs(sol.primal_obj), label
            assert (res.epsilon <= 1e-8) == (eps <= 1e-8), label
            assert res.kkt.max_residual() <= 1e-8, label
            if res.tight:
                tight.append(label)
        assert tight == ["seed 1347", "miso-2p 68"]

    def test_infeasible_caps_on_both(self):
        z = retarded_system("miso-2p", theta_deg=0.0)
        problem = build_problem(z, solve_closed_form(z).r_load, power_caps=(0.2, 0.2))
        assert solve(build_instance(problem)).status == "infeasible"
        with pytest.raises(RelaxationError) as err:
            solve_relaxation(problem)
        assert err.value.status == "infeasible"


class TestRecoverOperatingPoint:
    def test_closed_form_roundtrip(self):
        z = quasi_system("miso-3p")
        cf = solve_closed_form(z)
        c = np.concatenate([cf.i_t.real, [cf.i_r], cf.i_t.imag])
        problem = build_problem(z, cf.r_load)
        x_r = recover_operating_point(c, z, problem)
        assert x_r == pytest.approx(cf.x_r, abs=1e-9 * max(1.0, abs(cf.x_r)))
        objective, powers = evaluate(problem, c)
        assert 1.0 / (1.0 + objective) == pytest.approx(cf.eta, rel=1e-10)
        assert np.allclose(powers, cf.p_tx, atol=1e-10)
        # the loaded matrix Z + j diag(0, ..., 0, x_r) + R_L e e^T nulls the
        # receiver voltage
        i = problem.current_from_real(c)
        zhat = z.entries.copy()
        zhat[-1, -1] += 1j * x_r + cf.r_load
        v = zhat @ i
        assert abs(v[-1]) <= 1e-8 * np.linalg.norm(i) * np.linalg.norm(z.entries)

    def test_infeasible_vector_rejected(self):
        z = quasi_system("miso-2p")
        prob = build_problem(z, 10.0)
        c = np.ones(prob.q0.shape[0])
        with pytest.raises(ValueError, match="residual"):
            recover_operating_point(c, z, prob)

    def test_large_fixed_load_is_measured_against_its_terms(self):
        # at R_L = 1e6 ohm the KVL row sums terms of order 1e3; against an
        # absolute 1e-6 (1 + max|b|) this certified row failed with a
        # residual of 5.6e-6
        z = retarded_system("miso-3p", 0.1, -66.0)
        res = full_pipeline(z, 1e6)
        assert not res.skipped and res.tight
        p = res.transmit_powers
        assert p.min() >= -1e-9 * max(1.0, float(np.abs(p).max()))
        # a vector off the KVL row by 1e-5 of those terms still raises
        prob = build_problem(z, 1e6)
        k = prob.a[0]
        assert recover_operating_point(res.cvec, z, prob) == res.x_r
        c = res.cvec.copy()
        c[0] += 1e-5 * float(np.abs(k * c).sum()) / k[0]
        with pytest.raises(ValueError, match="kvl residual"):
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
        obj, _ = evaluate(prob, res.cvec)
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
            assert full_pipeline(binding).form == "conic"

    @pytest.mark.parametrize("r_load", [None, 0.2])
    def test_rows_match_the_one_row_pipeline_bit_for_bit(self, r_load, monkeypatch):
        from wptopt.circuit import ImpedanceMatrix
        from wptopt.closedform import NoCouplingError
        from wptopt.pipeline import solve_rows

        monkeypatch.setattr(wptopt.pipeline, "STACK_ROWS", 3)  # several stacks
        uncoupled = ImpedanceMatrix(np.diag([0.02 + 56j, 0.02 + 56j]), 40e6)
        zs = [
            quasi_system("miso-2p", 0.1, 0.0),
            retarded_system("miso-3p", 0.1, -54.0),  # binding: goes to the dual
            uncoupled,
            quasi_system("siso", 0.05, 30.0),
            retarded_system("miso-3c", 0.1, 18.0),
            quasi_system("miso-2p", 0.3, 40.0),
            retarded_system("miso-2p", 0.1, 68.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = list(solve_rows(iter(zs), r_load))
        assert len(rows) == len(zs)
        assert isinstance(rows[2], NoCouplingError)
        forms = set()
        for z, row in zip(zs[:2] + zs[3:], rows[:2] + rows[3:]):
            assert_same_bits(row, full_pipeline(z, r_load))
            forms.add(row.form)
        assert forms == {"closed-form", "dual"}

    def test_a_mixed_block_matches_the_one_row_pipeline_bit_for_bit(self, monkeypatch):
        """One block holds binding rows of two and three transmitters, a row
        the ascent stalls on, the uncoupled row and closed-form rows, and a
        stacked trial point leaves the domain for one row while its
        neighbours' stay in.  Every row is bit for bit its one-row result."""
        from wptopt.circuit import ImpedanceMatrix
        from wptopt.closedform import NoCouplingError
        from wptopt.pipeline import solve_rows

        monkeypatch.setattr(wptopt.pipeline, "STACK_ROWS", 8)  # the first 8 rows
        r_load = float(np.geomspace(0.06, 0.08, 21)[6])
        zs = [
            quasi_system("miso-2p", 0.1, 0.0),
            retarded_system("miso-3p", 0.1, -54.0),  # the ascent stalls
            ImpedanceMatrix(np.diag([0.02 + 56j, 0.02 + 56j]), 40e6),
            retarded_system("miso-2p", 0.1, -70.0),
            retarded_system("miso-3p", 0.1, -40.0),
            quasi_system("siso", 0.05, 30.0),
            retarded_system("miso-3p", 0.1, 45.0),
            retarded_system("miso-2p", 0.1, 45.0),
            retarded_system("miso-3c", 0.1, 18.0),
        ]
        masks = []
        at = dual._at

        def recorded(*args):
            points, inside = at(*args)
            masks.append(inside.copy())
            return points, inside

        monkeypatch.setattr(dual, "_at", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = list(solve_rows(zs, r_load))
        assert any(m.any() and not m.all() for m in masks)
        monkeypatch.setattr(dual, "_at", at)
        assert isinstance(rows[2], NoCouplingError)
        assert (rows[1].form, rows[1].status) == ("conic", "optimal")
        forms = {}
        for z, row in zip(zs[:2] + zs[3:], rows[:2] + rows[3:]):
            assert_same_bits(row, full_pipeline(z, r_load))
            forms.setdefault(row.form, set()).add(z.n_tx)
        assert forms == {"closed-form": {1, 2}, "conic": {3}, "dual": {2, 3}}

    def test_an_error_in_a_stack_stays_with_its_row(self, monkeypatch):
        from wptopt.pipeline import solve_rows

        zs = [retarded_system("miso-3p", 0.1, t) for t in (-70.0, -40.0, 18.0, 45.0)]
        bad = zs[2].entries
        build = wptopt.pipeline.build_problems

        def failing(links, *args, **kwargs):
            if any(z.entries is bad for z in links):
                raise np.linalg.LinAlgError("singular matrix")
            return build(links, *args, **kwargs)

        monkeypatch.setattr(wptopt.pipeline, "build_problems", failing)
        rows = list(solve_rows(zs))
        assert isinstance(rows[2], np.linalg.LinAlgError)
        monkeypatch.setattr(wptopt.pipeline, "build_problems", build)
        for z, row in zip(zs[:2] + zs[3:], rows[:2] + rows[3:]):
            assert row.form == "dual"
            assert_same_bits(row, full_pipeline(z))

    def test_explicit_load_is_respected(self):
        z = quasi_system("miso-2p")
        res = full_pipeline(z, 17.0)
        assert res.r_load == 17.0

    @pytest.mark.parametrize(
        "options",
        [
            PipelineOptions(),
            PipelineOptions(power_caps=(1e-12, 1e6)),
            PipelineOptions(constrain_powers=False),
        ],
    )
    def test_the_block_test_is_the_per_row_rule(self, options, monkeypatch):
        """Powers at the edge of `SKIP_TOLERANCE`, NaN and -0.0, tested as a
        block, skip the relaxation exactly where the per-row rule
        all(sign * p[port] - rhs >= SKIP_TOLERANCE) says so."""
        from wptopt.pipeline import SKIP_TOLERANCE, solve_rows
        from wptopt.qcqp import power_rows

        edge = [SKIP_TOLERANCE, np.nextafter(SKIP_TOLERANCE, -np.inf), np.nan, -0.0]
        values = [(a, b) for a in edge + [1.0] for b in edge + [1.0]]
        stacks = wptopt.pipeline.closed_form_stacks

        def with_edge_powers(zs, r_load):
            errors, solved = stacks(zs, r_load)
            for _, _, _, p_tx in solved:
                p_tx[:] = values  # the solutions' p_tx are views of this
            return errors, solved

        monkeypatch.setattr(wptopt.pipeline, "closed_form_stacks", with_edge_powers)
        monkeypatch.setattr(
            wptopt.pipeline, "_solve_binding", lambda zs, cfs, opts: ["binding"] * len(zs)
        )
        rows = list(solve_rows([quasi_system("miso-2p")] * len(values), None, options))
        caps, constrain = options.power_caps, options.constrain_powers
        for p, row in zip(values, rows):
            rule = all(
                sign * p[port] - rhs >= SKIP_TOLERANCE
                for port, sign, rhs in power_rows(2, caps, constrain)
            )
            assert (row != "binding") == rule, p
            if rule:
                assert row.skipped
                assert row.transmit_powers.tobytes() == np.array(p).tobytes()
        # the rule itself: -1e-12, -0.0 and 1 pass, the float below -1e-12
        # and NaN fail, and a cap of 1e-12 fails a power of 1; without
        # power rows every row passes
        expected = 25 if not constrain else 9 if caps is None else 6
        assert sum(row != "binding" for row in rows) == expected


class FakeRow:
    """Stand-in pipeline row whose efficiency is a given function of ln R_L."""

    def __init__(self, rl, eta, tight=True, bound=None):
        self.r_load = rl
        self.eta = eta
        self.tight = tight
        self.p_relax = 1.0 / (eta if bound is None else bound) - 1.0


def bracket_search(row_at, lo, hi):
    """The load search's `_bracket_search` over [lo, hi] from the geometric
    midpoint, each load's row from row_at(rl) ranked as `optimize_load`
    ranks it: (load, method, the loads evaluated in call order)."""
    calls = []

    def eta_at(rl):
        calls.append(rl)
        return wptopt.pipeline._ranked_eta(row_at(rl))

    best, method = wptopt.pipeline._bracket_search(eta_at, lo, math.sqrt(lo * hi), hi)
    assert len(set(calls)) == len(calls)  # each load evaluated once
    return best, method, calls


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

        best, method, calls = bracket_search(row_at, lo, hi)
        assert method == "brent"
        assert len(calls) <= 29
        r_peak = math.exp(u_peak)
        assert abs(best - r_peak) <= LOAD_REL_TOL * r_peak

    def test_non_tight_probe_is_ranked_by_its_bound(self):
        # on this bracket the dual stalls and some relaxations are not tight
        # (near R_L = 0.0680 ohm the relaxation's extracted point has a
        # power of about -8 W); a non-tight row must not win the search
        z = retarded_system("miso-3p", theta_deg=-54.0)
        rows = {}

        def row_at(rl):
            rows[rl] = full_pipeline(z, rl)
            return rows[rl]

        best, _, _ = bracket_search(row_at, 0.066, 0.070)
        assert rows[best].tight
        assert rows[best].transmit_powers.min() >= -1e-9
        assert any(not r.tight for r in rows.values())

    def test_non_tight_start_loses_to_its_bound(self):
        # the start point's extracted efficiency tops the profile, but its
        # certified bound sits below the tight rows around it
        u_peak = math.log(3.0)

        def row_at(rl):
            eta = math.exp(-1.0 - (math.log(rl) - u_peak) ** 2)
            if rl == 10.0:
                return FakeRow(rl, 0.9, tight=False, bound=0.5 * eta)
            return FakeRow(rl, eta)

        best, method, calls = bracket_search(row_at, 1.0, 100.0)
        assert calls[0] == 10.0
        assert method == "brent"
        assert best == pytest.approx(3.0, rel=LOAD_REL_TOL)

    def test_grid_fallback_on_non_unimodal_profile(self):
        # valley at the geometric midpoint so the bracket probe fails; the
        # method is the whole report, with no warning
        def row_at(rl):
            return FakeRow(rl, 0.1 + 0.1 * (math.log(rl) - math.log(10.0)) ** 2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, method, calls = bracket_search(row_at, 1.0, 100.0)
        assert method == "grid"
        assert len(calls) >= 64

