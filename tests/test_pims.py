"""PIM tests: power split identities and the closed-form eigensystem."""

import numpy as np
import pytest

from wptopt.circuit import GeometrySpec, build_loop_system
from wptopt.pims import (
    PimEigensystem,
    _port_stack,
    pim_eigensystem,
    pim_split,
    port_impedance_matrices,
    port_power,
)

LAM = 299792458.0 / 40.0e6
PRESET_NAMES = ["siso", "miso-2p", "miso-3p", "miso-2c", "miso-3c"]


def random_passive_matrix(rng, n, complex_mutuals=True):
    """Random symmetric impedance matrix with PD real part."""
    a = rng.standard_normal((n, n))
    re = a @ a.T + n * np.eye(n)  # comfortably PD
    im = rng.standard_normal((n, n))
    im = 0.5 * (im + im.T)
    z = re + 1j * im
    if not complex_mutuals:
        off = ~np.eye(n, dtype=bool)
        z[off] = 1j * z.imag[off]
    return z


def loaded_preset(name, d=0.1 * LAM, theta=0.3, r_load=0.05):
    """Preset matrix with the receiver tuned to resonance and loaded by R_L."""
    zhat = build_loop_system(GeometrySpec.preset(name, d, theta)).entries.copy()
    zhat[-1, -1] += r_load - 1j * zhat[-1, -1].imag
    return zhat


class TestConstruction:
    def test_two_port_example(self):
        zhat = np.array([[1.0 + 0j, 2j], [2j, 3.0 + 0j]])
        t1, t2 = port_impedance_matrices(zhat)
        assert np.allclose(t1, np.array([[1.0, 1j], [-1j, 0.0]]), atol=1e-15)
        assert np.allclose(t2, np.array([[0.0, -1j], [1j, 3.0]]), atol=1e-15)

    def test_stack_matches_the_per_port_loop_bit_for_bit(self):
        """`_port_stack` against its definition written port by port: row n
        of T_n is half of row n, and column n adds half its conjugate."""

        def per_port(m):
            n = m.shape[-1]
            t = np.zeros(m.shape[:-2] + (n, n, n), dtype=complex)
            for k in range(n):
                row = m[..., k, :]
                t[..., k, k, :] += 0.5 * row
                t[..., k, :, k] += 0.5 * row.conj()
            return t

        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 5):
            zs = np.array([random_passive_matrix(rng, n) for _ in range(4)])
            zs[1] = zs[1].real - 0.0j  # signed zeros in every imaginary part
            zs[2, 0, -1] = zs[2, -1, 0] = -0.0
            for m in (zs[0], zs, zs[None]):
                assert _port_stack(m).tobytes() == per_port(m).tobytes(), n

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        z = random_passive_matrix(rng, 5)
        for t in port_impedance_matrices(z):
            assert np.allclose(t, t.conj().T, atol=1e-15)

    def test_sum_equals_real_part(self):
        rng = np.random.default_rng(8)
        z = random_passive_matrix(rng, 6)
        total = sum(port_impedance_matrices(z))
        assert np.allclose(total, z.real, atol=1e-14)

    def test_sum_identity_on_loaded_presets(self):
        for name in PRESET_NAMES:
            zhat = loaded_preset(name)
            total = sum(port_impedance_matrices(zhat))
            assert np.allclose(total, zhat.real, atol=1e-15)

    def test_receiver_pim_carries_load_resistance(self):
        zhat = loaded_preset("miso-2c", r_load=0.07)
        t_rx = port_impedance_matrices(zhat)[-1]
        want = zhat[-1, -1].real
        assert t_rx[-1, -1].real == pytest.approx(want, abs=1e-18)
        assert want == pytest.approx(
            build_loop_system(GeometrySpec.preset("miso-2c", 0.1 * LAM, 0.3))
            .entries[-1, -1]
            .real
            + 0.07,
            rel=1e-15,
        )


class TestPowerSplit:
    def test_thousand_random_currents(self):
        rng = np.random.default_rng(11)
        z = random_passive_matrix(rng, 4)
        pims = port_impedance_matrices(z)
        for _ in range(1000):
            i = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            total = 0.5 * np.real(np.vdot(i, z @ i))
            split = sum(port_power(i, t) for t in pims)
            assert split == pytest.approx(total, rel=1e-12)

    def test_port_power_is_real_valued_by_construction(self):
        rng = np.random.default_rng(12)
        z = random_passive_matrix(rng, 3)
        t = port_impedance_matrices(z)[1]
        i = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        raw = np.vdot(i, t @ i)
        assert abs(raw.imag) <= 1e-14 * abs(raw.real)


class TestEigensystem:
    def test_counts_match_numerical_eig(self):
        rng = np.random.default_rng(21)
        z = random_passive_matrix(rng, 5)
        for t in port_impedance_matrices(z):
            eigs = np.linalg.eigvalsh(t)
            scale = np.abs(eigs).max()
            assert np.sum(eigs > 1e-10 * scale) == 1
            assert np.sum(eigs < -1e-10 * scale) == 1

    def test_closed_form_matches_numerical_eig(self):
        rng = np.random.default_rng(22)
        cases = [random_passive_matrix(rng, 4), random_passive_matrix(rng, 6)]
        for name in PRESET_NAMES:
            cases.append(loaded_preset(name))
        for z in cases:
            z = np.asarray(getattr(z, "entries", z))
            pims = port_impedance_matrices(z)
            for n, t in enumerate(pims):
                eig = pim_eigensystem(z, n)
                nums = np.linalg.eigvalsh(t)
                scale = np.abs(nums).max()
                assert eig.lam_plus == pytest.approx(nums[-1], rel=1e-10)
                assert eig.lam_minus == pytest.approx(-nums[0], rel=1e-10)
                # eigen-equation residuals
                for lam, v in [(eig.lam_plus, eig.v_plus), (-eig.lam_minus, eig.v_minus)]:
                    res = np.linalg.norm(t @ v - lam * v)
                    assert res <= 1e-10 * scale * np.linalg.norm(v)

    def test_eigenvalue_formula_special_cases(self):
        # pure coupling, no resistance: lam_pm = S/2
        z = np.array([[0.0, 2j], [2j, 0.0]])
        eig = pim_eigensystem(z, 0)
        assert eig.lam_plus == pytest.approx(1.0, rel=1e-15)
        assert eig.lam_minus == pytest.approx(1.0, rel=1e-15)
        # the worked 2-port example: R=1, omega M = 2
        z = np.array([[1.0 + 0j, 2j], [2j, 3.0 + 0j]])
        eig = pim_eigensystem(z, 0)
        assert eig.lam_plus == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-15)
        assert eig.lam_minus == pytest.approx((np.sqrt(5) - 1) / 2, rel=1e-15)

    def test_eigenvectors_orthogonal(self):
        rng = np.random.default_rng(23)
        z = random_passive_matrix(rng, 5)
        for n in range(5):
            eig = pim_eigensystem(z, n)
            inner = np.vdot(eig.v_plus, eig.v_minus)
            assert abs(inner) <= 1e-12 * np.linalg.norm(eig.v_plus) * np.linalg.norm(
                eig.v_minus
            )

    def test_quadratic_forms(self):
        z = loaded_preset("miso-3c")
        pims = port_impedance_matrices(z)
        for n, t in enumerate(pims):
            eig = pim_eigensystem(z, n)
            qp = np.real(np.vdot(eig.v_plus, t @ eig.v_plus))
            qm = np.real(np.vdot(eig.v_minus, t @ eig.v_minus))
            assert qp == pytest.approx(
                eig.lam_plus * np.linalg.norm(eig.v_plus) ** 2, rel=1e-12
            )
            assert qm == pytest.approx(
                -eig.lam_minus * np.linalg.norm(eig.v_minus) ** 2, rel=1e-12
            )

    def test_indefiniteness_certificate(self):
        # the negative eigenvector strictly decreases the port power
        z = loaded_preset("miso-2p")
        eig = pim_eigensystem(z, 0)
        t = port_impedance_matrices(z)[0]
        assert np.real(np.vdot(eig.v_minus, t @ eig.v_minus)) < 0.0

    def test_degenerate_uncoupled_port(self):
        z = np.array(
            [[2.0 + 1j, 0.0, 0.0], [0.0, 1.0 + 0j, 3j], [0.0, 3j, 4.0 + 0j]]
        )
        eig = pim_eigensystem(z, 0)
        assert eig.rank_one
        assert eig.lam_plus == pytest.approx(2.0)
        assert eig.lam_minus == 0.0
        assert np.all(eig.v_minus == 0.0)

    def test_port_out_of_range(self):
        with pytest.raises(IndexError):
            pim_eigensystem(np.eye(3, dtype=complex), 3)


class TestSplit:
    def test_split_reassembles(self):
        rng = np.random.default_rng(31)
        z = random_passive_matrix(rng, 5)
        for n, t in enumerate(port_impedance_matrices(z)):
            tp, tm = pim_split(t, n)
            assert np.allclose(tp - tm, t, atol=1e-12 * np.abs(t).max())

    def test_split_parts_are_psd_rank_one(self):
        z = loaded_preset("miso-3p")
        for n, t in enumerate(port_impedance_matrices(z)):
            tp, tm = pim_split(t, n)
            for part in (tp, tm):
                eigs = np.linalg.eigvalsh(part)
                assert eigs.min() >= -1e-14 * max(eigs.max(), 1e-300)
                scale = max(eigs.max(), 1e-300)
                assert np.sum(eigs > 1e-12 * scale) <= 1

    def test_trace_difference_is_port_resistance(self):
        z = loaded_preset("miso-2c")
        for n, t in enumerate(port_impedance_matrices(z)):
            tp, tm = pim_split(t, n)
            want = z[n, n].real
            assert np.trace(tp).real - np.trace(tm).real == pytest.approx(
                want, rel=1e-12
            )

    def test_split_infers_port_index(self):
        z = loaded_preset("miso-2c")
        t = port_impedance_matrices(z)[1]
        tp, tm = pim_split(t)  # no port hint
        assert np.allclose(tp - tm, t, atol=1e-14)

    def test_split_of_uncoupled_port_has_zero_negative_part(self):
        z = np.array([[2.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
        tp, tm = pim_split(port_impedance_matrices(z)[0], 0)
        assert np.all(tm == 0.0)
        assert np.allclose(tp, np.diag([2.0, 0.0]), atol=1e-15)
