"""QCQP assembly tests: realification, constraint encodings, identities."""

import math

import numpy as np
import pytest

from sdp_oracle import conic_rows
from wptopt.circuit import (
    GeometrySpec,
    ImpedanceMatrix,
    build_loop_system,
    load_impedance_file,
    save_impedance_file,
)
from wptopt.closedform import solve_closed_form, solve_min_loss_qp
from wptopt.pims import port_impedance_matrices
from wptopt.qcqp import (
    build_affine,
    build_problem,
    build_problems,
    current_residuals,
    evaluate,
    realify,
)

LAM = 299792458.0 / 40.0e6


def random_passive(rng, n):
    a = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    z = (a @ a.T + n * np.eye(n)) + 1j * 0.5 * (im + im.T)
    return z


def build_conic(z, r_load):
    """The relaxation's conic rows of z at r_load, from its KVL row."""
    a, _ = build_affine(z, r_load)
    return conic_rows(a[0], r_load)


def feasible_c(z, r_load):
    zmat = np.asarray(getattr(z, "entries", z))
    n = zmat.shape[0]
    sol = solve_closed_form(zmat, r_load)
    return np.concatenate([sol.i_t.real, [sol.i_r], sol.i_t.imag])


class TestRealify:
    def test_real_symmetric_input_block_structure(self):
        t = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = realify(t)
        assert out.shape == (3, 3)
        assert np.allclose(out[:2, :2], 0.5 * t)
        assert out[2, 2] == pytest.approx(0.5 * t[0, 0])
        assert np.allclose(out[:2, 2], 0.0)

    def test_quadratic_form_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(2, 5)
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t = 0.5 * (h + h.conj().T)
            c = rng.standard_normal(2 * n - 1)
            i = c[:n] + 1j * np.concatenate([c[n:], [0.0]])
            assert c @ realify(t) @ c == pytest.approx(
                0.5 * np.real(np.vdot(i, t @ i)), rel=1e-12, abs=1e-12
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            realify(np.array([[1.0, 1j], [1j, 1.0]]))

    def test_siso_example_signature_frozen(self):
        # PIM of port 1 for zhat = [[1+1j, 1j], [1j, 3-1j]]
        t1 = np.array([[1.0, 1j], [-1j, 0.0]])
        w = np.linalg.eigvalsh(realify(t1))
        golden = np.array([-(np.sqrt(5) - 1) / 4, 0.5, (np.sqrt(5) + 1) / 4])
        assert np.allclose(np.sort(w), golden, atol=1e-12)


class TestAffine:
    def test_shapes_and_b(self):
        z = random_passive(np.random.default_rng(0), 2)
        a, b = build_affine(z, 4.0)
        assert a.shape == (2, 3)
        assert b[0] == 0.0 and b[1] == pytest.approx(np.sqrt(0.5))
        assert a[1, 1] == 1.0 and a[1, 0] == 0.0 and a[1, 2] == 0.0

    def test_second_row_fixes_unit_received_power(self):
        z = random_passive(np.random.default_rng(1), 3)
        r_load = 2.7
        a, b = build_affine(z, r_load)
        c = np.zeros(5)
        c[2] = b[1]
        assert 0.5 * r_load * c[2] ** 2 == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_optimum_is_feasible(self):
        for name in ["siso", "miso-3p", "miso-2c"]:
            z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.3))
            r_load = 0.07
            a, b = build_affine(z.entries, r_load)
            c = feasible_c(z, r_load)
            assert np.abs(a @ c - b).max() <= 1e-9 * np.abs(b).max()


class TestConic:
    def test_k0_rank_one_identity(self):
        rng = np.random.default_rng(2)
        z = random_passive(rng, 3)
        k0, _, _ = build_conic(z, 1.5)
        a, _ = build_affine(z, 1.5)
        k = a[0]
        assert np.linalg.matrix_rank(k0) == 1
        for _ in range(20):
            c = rng.standard_normal(5)
            assert c @ k0 @ c == pytest.approx((k @ c) ** 2, rel=1e-12)

    def test_redundant_equalities_vanish_on_feasible_point(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.5))
        r_load = 0.05
        c = feasible_c(z, r_load)
        k0, k_list, r_mat = build_conic(z.entries, r_load)
        cc = np.outer(c, c)
        scale = np.abs(z.entries).max() * (c @ c)
        assert len(k_list) == 5
        assert np.trace(k0 @ cc) <= 1e-18 * scale**2
        for km in k_list:
            assert abs(np.trace(km @ cc)) <= 1e-9 * scale

    def test_r_matrix_encodes_received_power(self):
        rng = np.random.default_rng(3)
        z = random_passive(rng, 4)
        r_load = 0.8
        _, _, r_mat = build_conic(z, r_load)
        assert np.trace(r_mat) == pytest.approx(0.5 * r_load)
        c = rng.standard_normal(7)
        assert np.trace(r_mat @ np.outer(c, c)) == pytest.approx(
            0.5 * r_load * c[3] ** 2, rel=1e-14
        )

    def test_k0_is_half_weighted_sum_of_redundant_set(self):
        # this linear dependence is what the SDP presolve has to absorb
        z = random_passive(np.random.default_rng(4), 3)
        k0, k_list, _ = build_conic(z, 2.0)
        a, _ = build_affine(z, 2.0)
        k = a[0]
        acc = sum(k[m] * k_list[m] for m in range(len(k_list)))
        assert np.allclose(0.5 * acc, k0, rtol=0, atol=1e-12 * np.abs(k0).max())


class TestProblem:
    def test_q0_positive_definite(self):
        z = build_loop_system(GeometrySpec.preset("miso-3c", 0.1 * LAM, 0.2))
        prob = build_problem(z, 0.05)
        assert np.linalg.eigvalsh(prob.q0).min() > 0.0
        assert prob.q0.shape == (7, 7) and prob.n_tx == 3 and len(prob.q) == 3

    def test_qn_indefinite(self):
        for name in ["siso", "miso-2p", "miso-3c"]:
            z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.4))
            prob = build_problem(z, 0.1)
            for qn in prob.q:
                w = np.linalg.eigvalsh(qn)
                assert w[0] < -1e-12 and w[-1] > 1e-12

    def test_q0_equals_port_sum_minus_load_matrix(self):
        rng = np.random.default_rng(5)
        z = random_passive(rng, 4)
        r_load = 1.1
        prob = build_problem(ImpedanceMatrix(z, 40e6), r_load)
        zloaded = z.copy()
        zloaded[-1, -1] += r_load
        pims = port_impedance_matrices(zloaded)
        acc = sum(realify(t) for t in pims)
        _, _, r_mat = conic_rows(prob.a[0], prob.r_load)
        assert np.allclose(acc - r_mat, prob.q0, atol=1e-13 * np.abs(z).max())

    def test_transmit_power_quadratic_forms_match_pims(self):
        rng = np.random.default_rng(6)
        z = random_passive(rng, 3)
        r_load = 0.9
        prob = build_problem(ImpedanceMatrix(z, 40e6), r_load)
        zloaded = z.copy()
        zloaded[-1, -1] += r_load
        pims = port_impedance_matrices(zloaded)
        for _ in range(50):
            c = rng.standard_normal(5)
            i = prob.current_from_real(c)
            for n in range(2):
                assert c @ prob.q[n] @ c == pytest.approx(
                    0.5 * np.real(np.vdot(i, pims[n] @ i)), rel=1e-12, abs=1e-13
                )

    def test_objective_chain_equivalence(self):
        z = build_loop_system(GeometrySpec.preset("miso-2c", 0.1 * LAM, 0.6))
        r_load = 0.04
        prob = build_problem(z, r_load)
        c = feasible_c(z, r_load)
        i = prob.current_from_real(c)
        direct = 0.5 * np.real(np.vdot(i, z.entries.real @ i))
        assert c @ prob.q0 @ c == pytest.approx(direct, rel=1e-12)
        _, p_loss, _ = solve_min_loss_qp(z.entries, r_load)
        assert c @ prob.q0 @ c == pytest.approx(p_loss, rel=1e-9)

    def test_power_caps_stored_and_validated(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.0))
        prob = build_problem(z, 0.05, power_caps=[2.0, 3.0])
        assert np.array_equal(-prob.h[prob.n_tx:], [2.0, 3.0])
        with pytest.raises(ValueError, match="per transmitter"):
            build_problem(z, 0.05, power_caps=[1.0])

    def test_power_rows_of_each_mode(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.0))
        q = np.array(build_problem(z, 0.05).q)
        for caps, constrain, g, h in [
            (None, True, q, [0.0, 0.0]),
            ((2.0, 3.0), True, np.concatenate([q, -q]), [0.0, 0.0, -2.0, -3.0]),
            ((2.0, 3.0), False, q[:0], []),
        ]:
            prob = build_problem(z, 0.05, power_caps=caps, constrain_powers=constrain)
            assert np.array_equal(prob.g, g) and np.array_equal(prob.h, h)
            assert not prob.g.flags.writeable and not prob.h.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_power_caps_rejected(self, bad):
        # they used to reach LAPACK inside the relaxation (dsyevd failed)
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.5))
        with pytest.raises(ValueError, match="power caps must be finite"):
            build_problem(z, 10.0, power_caps=(bad, 1.0))


    def test_transmitter_rows_ignore_the_load(self):
        # a transmitter's row of Z never holds the receiver's diagonal entry,
        # where the load adds, so Z and the loaded matrix give the same bits
        for name in ["siso", "miso-2p", "miso-3c"]:
            z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM, 0.4))
            loaded = z.entries.copy()
            loaded[-1, -1] += 0.05
            prob = build_problem(z, 0.05)
            want = [realify(t) for t in port_impedance_matrices(loaded)[:-1]]
            assert all(np.array_equal(q, w) for q, w in zip(prob.q, want, strict=True))

    @pytest.mark.parametrize("caps", [None, (2.0, 3.0, 4.0)])
    def test_a_stack_holds_each_problem_bit_for_bit(self, caps):
        zs = [
            build_loop_system(GeometrySpec.preset("miso-3c", frac * LAM, theta))
            for frac, theta in [(0.1, 0.2), (0.05, -0.9), (0.3, 1.4)]
        ]
        loads = [0.05, 3.0, 1e3]
        stack = build_problems(zs, loads, power_caps=caps)
        assert stack.r_load.tolist() == loads
        for i, (z, r_load) in enumerate(zip(zs, loads)):
            row, alone = stack.row(i), build_problem(z, r_load, power_caps=caps)
            assert (row.n_tx, row.r_load) == (alone.n_tx, alone.r_load)
            names = ("q0", "a", "b", "g", "h", "cp", "v", "hr0", "hrn", "f0", "fn", "lam_scale")
            for name in names:
                got, want = getattr(row, name), getattr(alone, name)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
                assert not got.flags.writeable, name
            assert all(a.tobytes() == b.tobytes() for a, b in zip(row.q, alone.q, strict=True))

    def test_a_stack_rejects_a_bad_load(self):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.0))
        with pytest.raises(ValueError, match="positive and finite, got nan"):
            build_problems([z, z], [1.0, math.nan])

    @pytest.mark.parametrize("caps", [None, (2.0, 3.0, 4.0)])
    def test_reduced_problem(self, caps):
        z = build_loop_system(GeometrySpec.preset("miso-3c", 0.1 * LAM, 0.2))
        prob = build_problem(z, 0.05, power_caps=caps)
        v, cp = prob.v, prob.cp
        assert v.shape == (7, 5)
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-14)
        assert np.abs(prob.a @ v).max() <= 1e-12 * np.abs(prob.a).max()
        assert np.allclose(prob.a @ cp, prob.b, rtol=0, atol=1e-14)
        k = prob.h.size
        assert np.array_equal(prob.hr0, v.T @ prob.q0 @ v)
        assert np.array_equal(prob.hrn, (v.T @ prob.g @ v).reshape(k, 25))
        assert np.array_equal(prob.f0, v.T @ (prob.q0 @ cp))
        assert np.array_equal(prob.fn, (prob.g @ cp) @ v)
        scale = np.linalg.norm(prob.g, axis=(1, 2)) / np.linalg.norm(prob.q0)
        assert np.array_equal(prob.lam_scale, scale)
        for arr in (cp, v, prob.hr0, prob.hrn, prob.f0, prob.fn, prob.lam_scale):
            assert not arr.flags.writeable


class TestEvaluate:
    def test_reports_on_feasible_and_infeasible_points(self):
        z = build_loop_system(GeometrySpec.preset("miso-3p", 0.1 * LAM, 0.25))
        r_load = 0.06
        prob = build_problem(z, r_load)
        c = feasible_c(z, r_load)
        objective, powers = evaluate(prob, c)
        kvl, pl = current_residuals(prob, c)
        assert abs(kvl) <= 1e-9
        assert abs(pl) <= 1e-12
        assert objective > 0.0
        sol = solve_closed_form(z, r_load)
        assert np.allclose(powers, sol.p_tx, rtol=1e-9)
        kvl, pl = current_residuals(prob, np.ones(prob.q0.shape[0]))
        assert abs(kvl) > 0.0 and abs(pl) > 0.0


class TestHarvestingExample:
    def test_retarded_miso_3c_harvests_at_18_degrees(self, tmp_path):
        # one port of the coaxial three-transmitter array absorbs power at
        # the unconstrained optimum once retardation is in the matrix
        from retarded import retarded_loop_system

        z = retarded_loop_system(
            GeometrySpec.preset("miso-3c", 0.1 * LAM, np.deg2rad(18.0))
        )
        path = tmp_path / "z.json"
        save_impedance_file(z, path)
        zin = load_impedance_file(path)
        sol = solve_closed_form(zin)
        assert sol.p_tx.min() < 0.0
        prob = build_problem(zin, sol.r_load)
        c = np.concatenate([sol.i_t.real, [sol.i_r], sol.i_t.imag])
        _, powers = evaluate(prob, c)
        assert powers.min() < 0.0
        assert np.allclose(powers, sol.p_tx, rtol=1e-9)
