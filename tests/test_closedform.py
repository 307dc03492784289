"""Closed-form solution tests: scalar formulas, currents, QP cross-checks."""

import warnings

import numpy as np
import pytest
from oracles import reference_closed_form

from wptopt.circuit import (
    GeometrySpec,
    ImpedanceMatrix,
    PassivityError,
    SchemaError,
    build_loop_system,
)
from wptopt.closedform import (
    ClosedFormSolution,
    NoCouplingError,
    NonFiniteError,
    max_pte,
    mutual_q,
    optimal_load,
    output_impedance,
    resonant_pte,
    solve_closed_form,
    solve_closed_forms,
    solve_min_loss_qp,
)
from wptopt.pims import port_impedance_matrices, port_power
from wptopt.pipeline import cap_r, full_pipeline
from wptopt.qcqp import build_problem

LAM = 299792458.0 / 40.0e6
PRESET_NAMES = ["siso", "miso-2p", "miso-3p", "miso-2c", "miso-3c"]


def siso_matrix(r_t=1.0, r_r=1.0, wm=2.0, x_t=5.0, x_r=7.0):
    return np.array(
        [[r_t + 1j * x_t, 1j * wm], [1j * wm, r_r + 1j * x_r]], dtype=complex
    )


def ingested_complex_matrix(rng, n=3):
    """Symmetric passive matrix with complex mutual terms (full-wave-like)."""
    a = rng.standard_normal((n, n))
    re = a @ a.T + n * np.eye(n)
    im = rng.standard_normal((n, n))
    z = re + 1j * 0.5 * (im + im.T)
    return ImpedanceMatrix(0.5 * (z + z.T), 40e6)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_solution(sol, ref):
    """Every field of a ClosedFormSolution bit for bit equal to ``ref``, a
    ClosedFormSolution or a `reference_closed_form` dict."""
    fields = ref if isinstance(ref, dict) else vars(ref)
    for name, want in fields.items():
        assert same_bits(getattr(sol, name), want), name


def loaded_matrix(z, x_r, r_load):
    m = np.asarray(getattr(z, "entries", z)).copy()
    m[-1, -1] += 1j * x_r + r_load
    return m


def powers_one_port_at_a_time(i, pims):
    """Per-port real powers of current vector i, one `port_power` call each."""
    return np.array([port_power(i, t) for t in pims])


class TestScalars:
    def test_siso_output_impedance_reduces_to_receiver_self_impedance(self):
        # purely inductive coupling has Re(z_tr) = 0, so nothing reflects
        z = siso_matrix()
        assert output_impedance(z) == pytest.approx(1.0 + 7.0j)

    def test_siso_u_collapses_to_textbook_form(self):
        z = siso_matrix(r_t=0.7, r_r=1.3, wm=1.9)
        u = mutual_q(z)
        assert u == pytest.approx(1.9 / np.sqrt(0.7 * 1.3), rel=1e-12)

    def test_u_scale_invariance(self):
        z = siso_matrix()
        assert mutual_q(4.0 * z) == pytest.approx(mutual_q(z), rel=1e-14)

    def test_u_exceeds_best_single_transmitter(self):
        for name in ["miso-2p", "miso-3p", "miso-2c", "miso-3c"]:
            z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.2))
            u_full = mutual_q(z.entries)
            n_t = z.n_tx
            for k in range(n_t):
                sub = z.entries[np.ix_([k, n_t], [k, n_t])]
                assert u_full >= mutual_q(sub) - 1e-12

    def test_max_pte_value_at_u_2(self):
        assert max_pte(2.0) == pytest.approx(0.381966, abs=1e-6)
        assert max_pte(2.0) == pytest.approx(4.0 / (1.0 + np.sqrt(5.0)) ** 2, rel=1e-15)

    def test_max_pte_monotone_and_bounded(self):
        us = np.linspace(0.0, 50.0, 200)
        vals = max_pte(us)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] == 0.0
        assert np.all(vals < 1.0)

    def test_optimal_load_value(self):
        assert optimal_load(1.0 + 7.0j, 2.0) == pytest.approx(np.sqrt(5.0), rel=1e-15)

    def test_optimal_load_maximizes_eta_against_grid(self):
        z = siso_matrix(r_t=0.4, r_r=0.9, wm=1.1)
        z_o, u = output_impedance(z), mutual_q(z)
        r_star = optimal_load(z_o, u)
        grid = np.geomspace(r_star / 50, r_star * 50, 20001)
        etas = resonant_pte(z_o, u, grid)
        assert grid[np.argmax(etas)] == pytest.approx(r_star, rel=1e-3)
        assert resonant_pte(z_o, u, r_star) == pytest.approx(max_pte(u), rel=1e-12)

    def test_resonant_pte_is_unimodal_in_load(self):
        z_o, u = 1.0 + 0.5j, 1.7
        grid = np.geomspace(1e-3, 1e3, 4001)
        etas = resonant_pte(z_o, u, grid)
        peak = np.argmax(etas)
        assert np.all(np.diff(etas[: peak + 1]) > 0)
        assert np.all(np.diff(etas[peak:]) < 0)

    def test_uncoupled_receiver_flags_zero_u(self):
        # the documented 0 is the whole report: no warning goes with it
        z = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mutual_q(z) == 0.0


class TestPlainArrayChecks:
    """Plain arrays get the checks of ImpedanceMatrix, never a NaN result."""

    def test_non_reciprocal_matrix_rejected(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM)).entries.copy()
        z[0, 1] += 0.05
        with pytest.raises(SchemaError, match="symmetric"):
            solve_closed_form(z)
        with pytest.raises(SchemaError, match="symmetric"):
            mutual_q(z)

    def test_non_passive_and_non_finite_rejected(self):
        with pytest.raises(PassivityError):
            solve_closed_form(siso_matrix(r_t=-1.0))
        bad = siso_matrix()
        bad[1, 1] = complex(np.inf, 0.0)
        with pytest.raises(SchemaError, match="non-finite"):
            mutual_q(bad)


class TestCurrents:
    def test_siso_textbook_current_ratio(self):
        z = siso_matrix()
        r_load = np.sqrt(5.0)
        sol = solve_closed_form(z, r_load)
        i_t, i_r = sol.i_t, sol.i_r
        # classic two-coil optimum: |i_t| / i_r = (R_L + R_r) / (omega M)
        assert abs(i_t[0]) == pytest.approx((r_load + 1.0) / 2.0 * i_r, rel=1e-12)
        assert i_t[0] == pytest.approx(1j * (1 + r_load) * i_r / 2, rel=1e-12)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_receiver_voltage_vanishes_at_optimum(self, name):
        z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.35))
        sol = solve_closed_form(z)
        zhat = loaded_matrix(z, sol.x_r, sol.r_load)
        i = np.concatenate([sol.i_t, [sol.i_r]])
        v = zhat @ i
        assert abs(v[-1]) <= 1e-12 * np.abs(v).max()

    def test_receiver_voltage_vanishes_for_complex_mutuals(self):
        z = ingested_complex_matrix(np.random.default_rng(5), 4)
        sol = solve_closed_form(z, r_load=2.0)
        zhat = loaded_matrix(z, sol.x_r, sol.r_load)
        i = np.concatenate([sol.i_t, [sol.i_r]])
        assert abs((zhat @ i)[-1]) <= 1e-12 * np.abs(zhat @ i).max()

    def test_uncoupled_receiver_raises(self):
        z = np.array(
            [[1.0 + 1j, 0.5j, 0.0], [0.5j, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        with pytest.raises(NoCouplingError):
            solve_closed_form(z, 1.0)


class TestMinLossQp:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_kkt_block_solve_matches_closed_form_currents(self, name):
        z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.6))
        r_load = 0.05
        i_t = solve_closed_form(z.entries, r_load).i_t
        c_t, p_loss, _ = solve_min_loss_qp(z.entries, r_load)
        n_t = z.n_tx
        assert np.allclose(c_t[:n_t] + 1j * c_t[n_t:], i_t, atol=1e-9 * np.abs(i_t).max())

    def test_kkt_block_solve_complex_mutuals(self):
        z = ingested_complex_matrix(np.random.default_rng(6), 5)
        r_load = 1.3
        i_t = solve_closed_form(z.entries, r_load).i_t
        c_t, _, _ = solve_min_loss_qp(z.entries, r_load)
        n_t = 4
        assert np.allclose(c_t[:n_t] + 1j * c_t[n_t:], i_t, rtol=1e-9)

    def test_constraint_satisfied(self):
        z = ingested_complex_matrix(np.random.default_rng(7), 4)
        r_load = 0.8
        c_t, _, _ = solve_min_loss_qp(z.entries, r_load)
        _, ztr, zr = (
            z.entries[:-1, :-1],
            z.entries[:-1, -1],
            z.entries[-1, -1],
        )
        i_r = np.sqrt(2.0 / r_load)
        i_t = c_t[:3] + 1j * c_t[3:]
        re_vr = np.real(ztr @ i_t) + (zr.real + r_load) * i_r
        assert abs(re_vr) <= 1e-12 * (zr.real + r_load) * i_r

    def test_loss_matches_closed_form_expression(self):
        z = build_loop_system(GeometrySpec.preset("miso-2c", 0.08 * LAM, 0.1))
        r_load = 0.03
        _, p_loss, _ = solve_min_loss_qp(z.entries, r_load)
        sol = solve_closed_form(z, r_load)
        assert p_loss == pytest.approx(sol.p_loss, rel=1e-12)
        # efficiency identity eta = 1 / (1 + P_loss) at unit received power
        assert sol.eta == pytest.approx(1.0 / (1.0 + p_loss), rel=1e-12)

    def test_perturbations_increase_loss(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.4))
        r_load = 0.05
        c_t, p_loss, _ = solve_min_loss_qp(z.entries, r_load)
        zt_re = z.entries[:-1, :-1].real
        ztr = z.entries[:-1, -1]
        i_r = np.sqrt(2.0 / r_load)
        a = np.concatenate([ztr.real, -ztr.imag])
        rng = np.random.default_rng(8)
        d = np.kron(np.eye(2), zt_re)
        q0 = np.concatenate([ztr.real, np.zeros(2)]) * i_r
        base = 0.5 * c_t @ d @ c_t + q0 @ c_t
        for _ in range(25):
            step = rng.standard_normal(4)
            step -= (step @ a) / (a @ a) * a  # stay on the constraint
            c = c_t + 1e-3 * step
            val = 0.5 * c @ d @ c + q0 @ c
            assert val >= base - 1e-15


class TestTransmitPowers:
    def test_sum_rule(self):
        rng = np.random.default_rng(9)
        z = ingested_complex_matrix(rng, 4)
        zhat = loaded_matrix(z, -3.0, 1.0)
        pims = port_impedance_matrices(zhat)
        i = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = powers_one_port_at_a_time(i, pims)
        assert p.sum() == pytest.approx(0.5 * np.real(np.vdot(i, zhat @ i)), rel=1e-12)

    def test_receiver_port_power_vanishes_at_closed_form_optimum(self):
        z = build_loop_system(GeometrySpec.preset("miso-3c", 0.1 * LAM, 0.0))
        sol = solve_closed_form(z)
        zhat = loaded_matrix(z, sol.x_r, sol.r_load)
        pims = port_impedance_matrices(zhat)
        i = np.concatenate([sol.i_t, [sol.i_r]])
        p = powers_one_port_at_a_time(i, pims)
        assert abs(p[-1]) <= 1e-12 * p.sum()
        # transmitter powers account for loss plus the delivered watt
        assert p[:-1].sum() == pytest.approx(sol.p_loss + 1.0, rel=1e-9)

    def test_quasistatic_port_powers_never_negative(self):
        # with purely reactive coupling the transmitter resistance block is
        # diagonal and the min-loss currents sit in quadrature with i_r, so
        # each port power is a sum of two nonnegative terms
        for name in ["miso-2p", "miso-3p", "miso-2c", "miso-3c"]:
            for theta in np.deg2rad(np.arange(-90.0, 91.0, 15.0)):
                z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, theta))
                sol = solve_closed_form(z)
                assert np.max(np.abs(sol.i_t.real)) == 0.0
                assert sol.p_tx.min() >= 0.0

    def test_negative_port_power_occurs_on_retarded_miso_sweeps(self, tmp_path):
        # retardation makes the coupling complex; that is what produces the
        # power-harvesting lobes at oblique angles
        from retarded import retarded_loop_system

        from wptopt.circuit import load_impedance_file, save_impedance_file

        for name in ["miso-2p", "miso-3p", "miso-2c", "miso-3c"]:
            found = False
            for theta in np.deg2rad(np.arange(-90.0, 91.0, 6.0)):
                z = retarded_loop_system(GeometrySpec.preset(name, 0.1 * LAM, theta))
                path = tmp_path / "zret.json"
                save_impedance_file(z, path)
                sol = solve_closed_form(load_impedance_file(path))
                if sol.p_tx.min() < 0.0:
                    found = True
                    break
            assert found, f"no negative closed-form port power found on {name} sweep"


class TestRetardedFixture:
    """Cross-checks for the full-wave-like test matrices themselves."""

    def test_self_term_matches_small_loop_radiation_resistance(self):
        from retarded import radiation_kernels

        r_loop = LAM / 100
        r_self, _ = radiation_kernels([0, 0, 0], r_loop, [0, 0, 0], r_loop, 40e6)
        r_small = 20 * np.pi**2 * (2 * np.pi * r_loop / LAM) ** 4
        # finite-size correction is O((kr)^2) ~ 0.4%, so 1% headroom
        assert r_self == pytest.approx(r_small, rel=1e-2)

    def test_coaxial_pair_matches_collinear_dipole_formula(self):
        from retarded import radiation_kernels

        r_loop = LAM / 100
        for dfrac in (0.05, 0.1, 0.2):
            u = 2 * np.pi * dfrac
            r_mut, _ = radiation_kernels(
                [0, 0, 0], r_loop, [0, 0, dfrac * LAM], r_loop, 40e6
            )
            r_small = 20 * np.pi**2 * (2 * np.pi * r_loop / LAM) ** 4
            dip = 3 * r_small * (np.sin(u) / u**3 - np.cos(u) / u**2)
            assert r_mut == pytest.approx(dip, rel=1e-2)

    def test_retarded_matrix_is_passive_and_symmetric(self):
        from retarded import retarded_loop_system

        for theta in (0.0, 0.9, -1.4):
            z = retarded_loop_system(GeometrySpec.preset("miso-3p", 0.1 * LAM, theta))
            assert np.array_equal(z.entries, z.entries.T)
            assert np.linalg.eigvalsh(z.entries.real).min() > 0.0

    def test_retardation_leaves_quasistatic_reactances_close(self):
        from retarded import retarded_loop_system

        g = GeometrySpec.preset("miso-2c", 0.1 * LAM, 0.3)
        zq = build_loop_system(g).entries
        zr = retarded_loop_system(g).entries
        # corrections are small relative to the dominant reactances
        assert np.abs(zr.imag - zq.imag).max() < 0.05 * np.abs(zq.imag).max()


class TestSolutionRecord:
    def test_fields_consistent(self):
        z = build_loop_system(GeometrySpec.preset("miso-2c", 0.1 * LAM, 0.2))
        sol = solve_closed_form(z)
        assert isinstance(sol, ClosedFormSolution)
        assert sol.r_load == pytest.approx(sol.r_load_opt)
        assert sol.eta == pytest.approx(sol.eta_max, rel=1e-12)
        assert sol.eta == pytest.approx(resonant_pte(sol.z_o, sol.u, sol.r_load), rel=1e-12)
        assert sol.i_r == pytest.approx(np.sqrt(2.0 / sol.r_load), rel=1e-15)
        assert sol.p_tx.shape == (2,)

    def test_compensation_element(self):
        z = build_loop_system(GeometrySpec.preset("siso", 0.1 * LAM))
        sol = solve_closed_form(z)
        # loop self-reactance is inductive, so the receiver needs a capacitor
        assert sol.x_r < 0.0
        omega = 2 * np.pi * 40e6
        c_r = cap_r(sol.x_r, omega)
        assert c_r == pytest.approx(-1.0 / (omega * sol.x_r), rel=1e-15)
        # and its value lands in the tens-of-picofarads range for these loops
        assert 1e-12 < c_r < 1e-9

    def test_off_load_efficiency_lower_than_peak(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.15))
        peak = solve_closed_form(z)
        off = solve_closed_form(z, r_load=2.0 * peak.r_load_opt)
        assert off.eta < peak.eta
        assert off.eta_max == pytest.approx(peak.eta, rel=1e-12)

    @staticmethod
    def links():
        from retarded import retarded_loop_system

        links = [
            build_loop_system(GeometrySpec.preset(name, frac * LAM, np.deg2rad(theta)))
            for name in PRESET_NAMES
            for frac, theta in ((0.05, -62.0), (0.1, 0.0), (0.3, 38.0))
        ]
        # a binding point: the closed form drives two of three ports negative
        binding = retarded_loop_system(
            GeometrySpec.preset("miso-3p", 0.1 * LAM, np.deg2rad(-54.0))
        )
        assert solve_closed_form(binding).p_tx.min() < 0.0
        links.append(binding)
        links.append(ingested_complex_matrix(np.random.default_rng(5), 4))
        return links

    def test_fused_solution_matches_the_public_helpers_bit_for_bit(self):
        for link in self.links():
            for z in (link, np.array(link.entries)):
                sol = solve_closed_form(z)
                z_o = output_impedance(z)
                at_load = solve_closed_form(z, sol.r_load)
                i_t, i_r = at_load.i_t, at_load.i_r
                assert np.array_equal(sol.z_o, z_o)
                assert np.array_equal(sol.u, mutual_q(z))
                assert np.array_equal(sol.i_t, i_t)
                zhat = loaded_matrix(z, -z_o.imag, sol.r_load)
                pims = port_impedance_matrices(zhat)
                p_tx = powers_one_port_at_a_time(np.append(i_t, i_r), pims)
                assert np.array_equal(sol.p_tx, p_tx[:-1])
                assert_same_solution(sol, reference_closed_form(z))

    @pytest.mark.parametrize("r_load", [None, 0.7])
    def test_a_stack_matches_every_row_alone_bit_for_bit(self, r_load):
        links = self.links()
        # ImpedanceMatrix and plain rows, two to four ports, in one call
        zs = links + [np.array(link.entries) for link in links[::2]]
        rng = np.random.default_rng(3)
        zs = [zs[i] for i in rng.permutation(len(zs))]
        rows = solve_closed_forms(zs, r_load)
        assert len(rows) == len(zs)
        for z, row in zip(zs, rows):
            assert_same_solution(row, solve_closed_form(z, r_load))
            assert_same_solution(row, reference_closed_form(z, r_load))

    def test_a_large_stack_matches_the_scalar_reference(self):
        # scalar and array arithmetic part ways in the last bit of a square
        # once in about a thousand arguments; thousands of rows find it
        rng = np.random.default_rng(11)
        zs = [ingested_complex_matrix(rng, 3) for _ in range(3000)]
        for z, row in zip(zs, solve_closed_forms(zs)):
            assert_same_solution(row, reference_closed_form(z))

    def test_a_failure_stays_with_its_row(self):
        links = self.links()[:4]
        uncoupled = np.array(
            [[1.0 + 1j, 0.5j, 0.0], [0.5j, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        asymmetric = np.array(links[3].entries)
        asymmetric[0, 1] += 0.05
        zs = links[:2] + [uncoupled] + links[2:3] + [asymmetric] + links[3:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = solve_closed_forms(zs)
        assert isinstance(rows[2], NoCouplingError)
        assert isinstance(rows[4], SchemaError)
        for z, row in zip(links, rows[:2] + rows[3:4] + rows[5:]):
            assert_same_solution(row, solve_closed_form(z))

    @pytest.mark.parametrize("r_load", [None, 0.7])
    def test_a_coupling_that_underflows_is_its_rows_error(self, r_load):
        # at 1e100 wavelengths U^2 underflows to 0: once a ZeroDivisionError
        # that took the whole stack down, after divide-by-zero warnings
        links = [z for z in self.links() if z.n_ports == 2]
        far = build_loop_system(GeometrySpec.preset("siso", 1e100 * LAM, np.pi / 2))
        zs = links[:1] + [far] + links[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = solve_closed_forms(zs, r_load)
            with pytest.raises(NoCouplingError, match="underflows"):
                solve_closed_form(far, r_load)
        assert isinstance(rows[1], NoCouplingError)
        for z, row in zip(links, rows[:1] + rows[2:]):
            assert_same_solution(row, solve_closed_form(z, r_load))
            assert_same_solution(row, reference_closed_form(z, r_load))

    @pytest.mark.parametrize("r_load", [1e154, 1e155, 1e300])
    def test_a_loss_that_overflows_is_its_rows_error(self, r_load):
        # 1e154 printed an infinite loss; 1e155 raised an OverflowError
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = solve_closed_forms([z], r_load)
            with pytest.raises(NonFiniteError, match="overflows"):
                solve_closed_form(z, r_load)
        assert isinstance(row, NonFiniteError)
        assert np.isfinite(solve_closed_form(z, 1e150).p_loss)  # large, but in range

    @pytest.mark.parametrize("r_load", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_load_that_is_not_positive_is_rejected(self, r_load):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.3))
        for solve in (solve_closed_form, solve_min_loss_qp, build_problem, full_pipeline):
            with pytest.raises(ValueError, match="load resistance must be positive"):
                solve(z, r_load)
        with pytest.raises(ValueError, match="load resistance must be positive"):
            solve_closed_forms([z], r_load)
