"""Circuit-model tests: quadrature oracles, matrix validation, file I/O."""

import collections
import math
import re

import numpy as np
import pytest
from oracles import reference_mutual
from scipy.special import ellipe, ellipk, ellipkm1

from wptopt import circuit
from wptopt.circuit import (
    MU0,
    GeometryError,
    GeometrySpec,
    ImpedanceMatrix,
    Loop,
    PassivityError,
    SchemaError,
    build_loop_system,
    build_loop_systems,
    build_preset_systems,
    checked_entries,
    load_impedance_file,
    loop_resistance,
    loop_self_inductance,
    matrix_bytes,
    matrix_from_json,
    matrix_to_json,
    mutual_inductance,
    partition,
    save_impedance_file,
)

LAM = 299792458.0 / 40.0e6
R_LOOP = LAM / 100.0
WIRE = R_LOOP / 10.0


def make_loop(x=0.0, y=0.0, z=0.0, r=R_LOOP, a=WIRE):
    return Loop((x, y, z), r, a)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def neumann_2d_oracle(loop_a, loop_b, n=200):
    """Direct tensor Gauss-Legendre quadrature of the Neumann double line
    integral.  Accurate for well-separated pairs only."""
    ra, rb = loop_a.radius, loop_b.radius
    rho = math.hypot(
        loop_a.center[0] - loop_b.center[0], loop_a.center[1] - loop_b.center[1]
    )
    h = loop_a.center[2] - loop_b.center[2]
    x, w = np.polynomial.legendre.leggauss(n)
    p = np.pi * (x + 1.0)
    P1, P2 = p[:, None], p[None, :]
    dx = ra * np.cos(P1) - rho - rb * np.cos(P2)
    dy = ra * np.sin(P1) - rb * np.sin(P2)
    dist = np.sqrt(dx * dx + dy * dy + h * h)
    weights = np.outer(w, w) * np.pi**2
    return MU0 * ra * rb / (4 * np.pi) * float(np.sum(np.cos(P1 - P2) / dist * weights))


def maxwell_coaxial_oracle(ra, rb, h):
    """Maxwell's closed-form mutual inductance of coaxial circular loops."""
    k2 = 4 * ra * rb / ((ra + rb) ** 2 + h**2)
    k = math.sqrt(k2)
    return MU0 * math.sqrt(ra * rb) * ((2 / k - k) * ellipk(k2) - (2 / k) * ellipe(k2))


# ---------------------------------------------------------------------------
# mutual inductance
# ---------------------------------------------------------------------------

# w(m) = [(2-m)K(m) - 2E(m)] / m**2 at m = 1 - p, from mpmath at 60 digits
# (Carlson's R_F and R_D of p, exact down to p = 1e-300), 40 digits kept
W_MPMATH = (
    (0.95, "2.04012532440038316868852962202919192858e-1"),
    (0.9, "2.123288772890451660190197278823804600574e-1"),
    (0.7, "2.542881453179364717692603489696546996258e-1"),
    (0.5, "3.192970154268274904417042004617535465094e-1"),
    (0.3, "4.380223265072742651288911583289248862425e-1"),
    (0.1, "7.732739003393133815562628876467902137929e-1"),
    (0.01, "1.735135849984007288882946695597493104528"),
    (1e-05, "5.14288030759998210198704500730014129329"),
    (1e-12, "1.320180491911461879406707646246436420923e+1"),
    (1e-50, "5.695092168597103271547613875713428691188e+1"),
    (1e-300, "3.447740583102267432090036365279666045905e+2"),
)


def w_over_m(p):
    """`circuit._w_over_m` at m = 1 - p, with p passed exactly."""
    p = np.asarray(p, dtype=float)
    return circuit._w_over_m(1.0 - p, p)


class TestEllipticKernel:
    """The fitted log-polynomial w(m) on m >= 0.05 (`tools/fit_wm.py`)."""

    def test_matches_mpmath_values(self):
        p, ref = zip(*W_MPMATH)
        got = w_over_m(p)
        for g, r in zip(got, ref):
            assert abs(g - float(r)) <= 5e-14 * float(r), (g, r)

    def test_matches_scipy_special(self):
        # scipy's expression cancels in (2-m)K - 2E: 1.7e-12 at m = 0.05
        p = np.concatenate([np.linspace(0.0, 0.95, 2001)[1:], np.logspace(-300, -1, 300)])
        m = 1.0 - p
        ref = ((2.0 - m) * ellipkm1(p) - 2.0 * ellipe(m)) / (m * m)
        assert (m >= 0.05).all()
        assert np.abs(w_over_m(p) / ref - 1.0).max() <= 2.5e-12

    def test_continuous_at_the_series_switch(self):
        m = np.array([np.nextafter(0.05, 0.0), 0.05, np.nextafter(0.05, 1.0)])
        w = circuit._w_over_m(m, 1.0 - m)
        assert np.abs(np.diff(w)).max() <= 1e-14 * w[1]

    def test_exact_tangency_is_finite(self):
        # p = 0 is clamped to the smallest subnormal, as for the tangent
        # pairs of the planar presets
        w = circuit._w_over_m(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(w).all() and w[0] > w_over_m([1e-300])[0]


class TestMutualInductance:
    def test_coaxial_matches_maxwell_formula(self):
        for h in [WIRE, R_LOOP, 2 * R_LOOP, 10 * R_LOOP, 0.2 * LAM]:
            got = mutual_inductance(make_loop(), make_loop(z=h))
            want = maxwell_coaxial_oracle(R_LOOP, R_LOOP, h)
            assert got == pytest.approx(want, rel=1e-11)

    def test_general_offsets_match_2d_neumann_quadrature(self):
        cases = [
            (0.05 * LAM, 0.0866 * LAM),
            (3 * R_LOOP, R_LOOP),
            (10 * R_LOOP, 0.0),
            (2.5 * R_LOOP, 0.0),
            (R_LOOP, R_LOOP),
        ]
        for rho, h in cases:
            a, b = make_loop(), make_loop(x=rho, z=h)
            assert mutual_inductance(a, b) == pytest.approx(
                neumann_2d_oracle(a, b), rel=1e-9
            )

    def test_unequal_radii_match_2d_neumann_quadrature(self):
        a = make_loop(r=R_LOOP, a=WIRE)
        b = Loop((0.03 * LAM, 0.0, 0.04 * LAM), 0.6 * R_LOOP, 0.05 * R_LOOP)
        assert mutual_inductance(a, b) == pytest.approx(
            neumann_2d_oracle(a, b), rel=1e-9
        )

    def test_tangent_pair_is_finite_and_stable(self):
        # adjacent planar-preset loops touch exactly; the integral is finite
        a, b = make_loop(), make_loop(x=2 * R_LOOP)
        key = circuit._pair_key(a, b)
        (m1,), (m2,) = circuit._quadrature([key], 1e-9), circuit._quadrature([key], 1e-12)
        assert m1 < 0.0  # coplanar loops couple negatively
        assert m1 == pytest.approx(m2, rel=1e-9)

    def test_mirror_symmetry(self):
        left = mutual_inductance(make_loop(), make_loop(x=-0.03 * LAM, z=0.05 * LAM))
        right = mutual_inductance(make_loop(), make_loop(x=0.03 * LAM, z=0.05 * LAM))
        assert left == right

    def test_reciprocity_is_exact(self):
        a = make_loop()
        b = Loop((0.02 * LAM, 0.01 * LAM, 0.03 * LAM), 0.7 * R_LOOP, 0.05 * R_LOOP)
        assert mutual_inductance(a, b) == mutual_inductance(b, a)

    def test_coaxial_coupling_decays_monotonically(self):
        dists = np.linspace(0.05 * LAM, 0.2 * LAM, 25)
        values = [
            abs(mutual_inductance(make_loop(), make_loop(z=d))) for d in dists
        ]
        assert all(x > y for x, y in zip(values, values[1:]))


def preset_pair_keys(distances):
    """Distinct (ra, rb, rho, h) pair keys of every preset on a 2-degree
    slice at the given receiver distances (fractions of lambda)."""
    keys = set()
    for name in circuit.PRESETS:
        for frac in distances:
            for theta in range(-90, 91, 2):
                loops = GeometrySpec.preset(name, frac * LAM, math.radians(theta)).loops
                for i, a in enumerate(loops):
                    for b in loops[i + 1:]:
                        keys.add(circuit._pair_key(a, b))
    return sorted(keys)


def as_bytes(values):
    return [np.float64(v).tobytes() for v in values]


NULL = math.acos(1.0 / math.sqrt(3.0))  # dipole-dipole coupling null
# pair keys that split panels or take the graded near-tangent ranges
SPECIAL_KEYS = (
    (R_LOOP, R_LOOP, 2 * R_LOOP, 0.0),  # planar-tangent pair
    (R_LOOP, 1.5 * R_LOOP, 0.5 * R_LOOP, 0.0),  # nested-tangent pair
    (R_LOOP, R_LOOP, 0.5 * R_LOOP, 1e-6 * R_LOOP),  # near-crossing pair
    (R_LOOP, R_LOOP, 30 * R_LOOP * math.sin(NULL), 30 * R_LOOP * math.cos(NULL)),
    # unequal radii, offset: summing the two halves of a split in the other
    # order moves the last bit
    (0.041241185300068796, 0.19408453046371485, 0.19641560503416555,
     0.009065789171255067),
)


class TestQuadratureBits:
    """The batched quadrature returns exactly the one-pair, panel-at-a-time
    reference in ``tests/oracles.py``."""

    def counted_batch(self, monkeypatch, keys, rtol):
        """``circuit._quadrature`` of keys, with the number of values
        (pairs x nodes) every integrand call returns."""
        calls = []
        integrand = circuit._neumann_reduced

        def counted(psi, terms):
            values = integrand(psi, terms)
            calls.append(values.size)
            return values

        with monkeypatch.context() as m:
            m.setattr(circuit, "_neumann_reduced", counted)
            values = circuit._quadrature(keys, rtol)
        return values, calls

    def test_every_key_matches_the_reference_bit_for_bit(self):
        grid = preset_pair_keys((0.05, 0.3))
        assert len(grid) > 500
        rng = np.random.default_rng(0)
        batches = {1e-10: list(SPECIAL_KEYS) + grid}
        sample = [grid[i] for i in rng.choice(len(grid), 40, replace=False)]
        batches[1e-12] = batches[1e-14] = list(SPECIAL_KEYS) + sample
        ref_calls = {}
        for rtol, keys in batches.items():
            keys = [keys[i] for i in rng.permutation(len(keys))]
            # one batch over many chunks
            assert len(keys) > 3 * circuit._CHUNK_NODES // (8 * 36)
            got = circuit._quadrature(keys, rtol)
            want = []
            for key in keys:
                calls = []
                want.append(reference_mutual(key, rtol, calls))
                ref_calls[key, rtol] = len(calls)
            assert as_bytes(got) == as_bytes(want)
            assert all(type(g) is type(w) for g, w in zip(got, want))
        r = R_LOOP
        assert ref_calls[(r, r, 2 * r, 0.0), 1e-10] == 32
        assert ref_calls[(r, r, 2 * r, 0.0), 1e-14] == 44
        assert ref_calls[(r, r, 0.5 * r, 1e-6 * r), 1e-10] == 76
        # 16 calls per integration range means no panel was split; the split
        # keys above exercise the refinement
        assert sum(n > 32 for n in ref_calls.values()) >= 4

    def test_a_value_does_not_depend_on_its_batch(self):
        grid = preset_pair_keys((0.1,))
        keys = list(SPECIAL_KEYS) + grid[::7]
        alone = [circuit._quadrature([key], 1e-12)[0] for key in keys]
        for shift in (1, 5, 13):
            # other neighbours, other chunk positions, other chunk sizes
            order = keys[shift:] + keys[:shift]
            got = circuit._quadrature(order[::-1], 1e-12)[::-1]
            assert as_bytes(got) == as_bytes(alone[shift:] + alone[:shift])

    def test_a_stage_is_one_integrand_call(self, monkeypatch):
        key = (R_LOOP, R_LOOP, 0.5 * R_LOOP, 1e-6 * R_LOOP)
        calls = []
        reference_mutual(key, 1e-10, calls)
        _, new_calls = self.counted_batch(monkeypatch, [key], 1e-10)
        # the reference makes 8 panels x 2 rules, then 2 halves x 2 rules per
        # split
        assert len(new_calls) == 1 + (len(calls) - 16) // 4

    def test_a_batch_takes_its_first_stage_in_chunks(self, monkeypatch):
        r = R_LOOP
        keys = [(r, r, rho, h) for rho in np.linspace(0.0, 10 * r, 20)
                for h in np.linspace(3 * r, 30 * r, 10)]
        _, calls = self.counted_batch(monkeypatch, keys, 1e-10)
        per_chunk = circuit._CHUNK_NODES // (8 * 36)
        assert len(calls) == -(-len(keys) // per_chunk)  # none of them splits
        assert max(calls) <= circuit._CHUNK_NODES

    def test_the_cache_serves_repeated_pairs(self, monkeypatch):
        a, b = make_loop(), make_loop(x=0.013 * LAM, z=0.021 * LAM)
        first = mutual_inductance(a, b)
        with monkeypatch.context() as m:
            m.setattr(circuit, "_quadrature", lambda *args: pytest.fail("cache miss"))
            assert mutual_inductance(b, a) == first
            key = circuit._pair_key(a, b)
            assert circuit._mutual_values([key] * 3) == [first] * 3

    def test_the_cache_drops_the_least_recently_used_pair(self, monkeypatch):
        monkeypatch.setattr(circuit, "_cache", collections.OrderedDict())
        monkeypatch.setattr(circuit, "_CACHE_SIZE", 3)
        r = R_LOOP
        keys = [(r, r, 0.0, h * r) for h in (3.0, 4.0, 5.0, 6.0)]
        circuit._mutual_values(keys[:3])
        circuit._mutual_values(keys[:1])  # the oldest, used again
        circuit._mutual_values(keys[3:])
        assert list(circuit._cache) == [keys[2], keys[0], keys[3]]


class TestLoopParameters:
    def test_self_inductance_matches_offset_neumann_integral(self):
        # thin-wire formula vs the loop integrated against itself displaced
        # by one wire radius
        loop = make_loop()
        formula = loop_self_inductance(loop)
        (neumann,) = circuit._quadrature([circuit._pair_key(loop, make_loop(z=WIRE))], 1e-12)
        assert formula == pytest.approx(neumann, rel=0.02)

    def test_resistance_scales(self):
        omega = 2 * np.pi * 40e6
        loop = make_loop()
        r1 = loop_resistance(loop, omega, LAM)
        r4 = loop_resistance(loop, 4 * omega, LAM / 4)
        assert r1 > 0
        # skin term grows like sqrt(omega), radiation like f^4; quadrupling
        # the frequency must more than double the resistance
        assert r4 > 2 * r1


# ---------------------------------------------------------------------------
# impedance matrices
# ---------------------------------------------------------------------------

class TestBuildLoopSystem:
    def test_preset_shapes_and_exact_symmetry(self):
        for name, n in [("siso", 2), ("miso-2p", 3), ("miso-3p", 4),
                        ("miso-2c", 3), ("miso-3c", 4)]:
            z = build_loop_system(GeometrySpec.preset(name, 0.1 * LAM))
            assert z.n_ports == n
            assert np.array_equal(z.entries, z.entries.T)

    def test_quasi_static_real_part_is_diagonal(self):
        z = build_loop_system(GeometrySpec.preset("miso-3c", 0.1 * LAM, 0.3))
        off = z.entries.real - np.diag(np.diag(z.entries.real))
        assert np.all(off == 0.0)
        assert np.all(np.diag(z.entries.real) > 0.0)

    def test_diagonal_reactance_is_self_inductance(self):
        geom = GeometrySpec.preset("siso", 0.1 * LAM)
        z = build_loop_system(geom)
        omega = 2 * np.pi * geom.frequency
        want = omega * loop_self_inductance(geom.loops[0])
        assert z.entries[0, 0].imag == pytest.approx(want, rel=1e-12)

    def test_permutation_equivariance(self):
        lam = LAM
        loops = (
            make_loop(x=-0.02 * lam),
            make_loop(x=0.01 * lam, z=0.015 * lam),
            make_loop(z=0.002 * lam, y=0.03 * lam),
            make_loop(x=0.05 * lam, z=0.09 * lam),
        )
        z = build_loop_system(GeometrySpec(loops)).entries
        swapped = (loops[1], loops[0], loops[2], loops[3])
        z2 = build_loop_system(GeometrySpec(swapped)).entries
        perm = np.array([1, 0, 2, 3])
        assert np.array_equal(z2, z[np.ix_(perm, perm)])

    def test_passivity_on_presets(self):
        for name in ["siso", "miso-2p", "miso-3p", "miso-2c", "miso-3c"]:
            z = build_loop_system(GeometrySpec.preset(name, 0.05 * LAM, 1.0))
            assert np.linalg.eigvalsh(z.entries.real).min() > 0.0


def per_element_build(geom):
    """The impedance matrix of one arrangement, built entry by entry in
    Python complex arithmetic and checked by ImpedanceMatrix itself."""
    omega = 2.0 * np.pi * geom.frequency
    loops = geom.loops
    n = len(loops)
    z = np.zeros((n, n), dtype=complex)
    for i in range(n):
        z[i, i] = loop_resistance(loops[i], omega, geom.wavelength) + 1j * omega * (
            loop_self_inductance(loops[i])
        )
        for j in range(i + 1, n):
            m = circuit._mutual_values([circuit._pair_key(loops[i], loops[j])])[0]
            z[i, j] = z[j, i] = 1j * omega * m
    return ImpedanceMatrix(z, geom.frequency)


class TestBuildLoopSystems:
    """build_loop_systems assembles and checks one stack per run of
    arrangements with the same number of loops."""

    GEOMS = [
        GeometrySpec.preset("siso", 0.1 * LAM, 0.3),
        GeometrySpec.preset("miso-2p", 0.05 * LAM, -1.2),
        GeometrySpec.preset("miso-2c", 0.2 * LAM, math.radians(90.0), frequency=13.56e6),
        GeometrySpec((make_loop(), make_loop(x=0.03 * LAM, z=0.01 * LAM, r=0.5 * R_LOOP))),
        GeometrySpec.preset("miso-3p", 0.3 * LAM, 2.0),
        GeometrySpec.preset("siso", 0.1 * LAM, -0.3),
    ]

    def test_each_matrix_matches_the_per_element_build(self):
        systems = build_loop_systems(iter(self.GEOMS))
        assert [z.n_ports for z in systems] == [2, 3, 3, 2, 4, 2]
        for geom, z in zip(self.GEOMS, systems):
            assert matrix_bytes(z) == matrix_bytes(per_element_build(geom))
            assert type(z.frequency) is float and not z.entries.flags.writeable

    def test_the_first_failing_arrangement_raises_its_own_error(self, monkeypatch):
        resistance = circuit.loop_resistance
        bad = {0.5 * R_LOOP: -1.0, 0.7 * R_LOOP: -2.0}  # radius -> resistance
        monkeypatch.setattr(
            circuit, "loop_resistance",
            lambda loop, omega, lam: bad.get(loop.radius) or resistance(loop, omega, lam),
        )
        first = GeometrySpec((make_loop(), make_loop(z=0.1 * LAM), make_loop(r=0.5 * R_LOOP)))
        later = GeometrySpec((make_loop(), make_loop(z=0.1 * LAM, r=0.7 * R_LOOP)))
        with pytest.raises(PassivityError) as one:
            build_loop_system(first)
        with pytest.raises(PassivityError) as other:
            build_loop_system(later)
        assert str(one.value) != str(other.value)
        with pytest.raises(PassivityError) as batch:
            build_loop_systems([self.GEOMS[0], later, first, later])
        assert str(batch.value) == str(other.value)
        with pytest.raises(PassivityError) as batch:
            build_loop_systems([self.GEOMS[0], first, later, self.GEOMS[4]])
        assert str(batch.value) == str(one.value)
        assert str(one.value).startswith("constructed loop system failed validation: ")


class TestBatchedPresets:
    """build_preset_systems gives each point the matrix of the one-point API."""

    THETAS = [math.radians(t) for t in range(-90, 91, 2)]

    @pytest.mark.parametrize("name", circuit.PRESETS)
    def test_every_point_matches_the_one_point_api(self, name):
        points = [(d * LAM, angle) for d in (0.075, 0.3) for angle in self.THETAS]
        batch = build_preset_systems(name, points)
        assert len(batch) == len(points)
        for (distance, angle), z in zip(points, batch):
            one = build_loop_system(GeometrySpec.preset(name, distance, angle))
            assert matrix_bytes(z) == matrix_bytes(one), (name, distance, angle)
            assert not z.entries.flags.writeable

    def test_negative_couplings_keep_their_signed_zeros(self):
        # M < 0 gives Re(j omega M) = -0.0, which matrix_bytes sees
        (z,) = build_preset_systems("miso-3c", [(0.1 * LAM, math.radians(80.0))])
        off = z.entries[:-1, -1]
        assert (off.imag < 0.0).any()
        assert np.array_equal(np.signbit(off.real), off.imag < 0.0)

    def test_a_non_passive_build_raises_the_one_point_error(self, monkeypatch):
        monkeypatch.setattr(circuit, "loop_resistance", lambda loop, omega, lam: -1.0)
        points = [(0.1 * LAM, 0.0), (0.2 * LAM, 0.5)]
        with pytest.raises(PassivityError) as one:
            build_loop_system(GeometrySpec.preset("miso-2p", *points[0]))
        with pytest.raises(PassivityError) as batch:
            build_preset_systems("miso-2p", points)
        assert str(batch.value) == str(one.value)
        assert str(one.value).startswith("constructed loop system failed validation: ")

    def test_the_first_failing_point_raises_its_own_error(self):
        good, bad = (0.1 * LAM, 0.0), (0.01 * LAM, math.radians(90.0))
        with pytest.raises(GeometryError) as one:
            GeometrySpec.preset("miso-2p", *bad)
        with pytest.raises(GeometryError) as batch:
            build_preset_systems("miso-2p", [good, bad, (math.inf, 0.0)])
        assert str(batch.value) == str(one.value)
        with pytest.raises(GeometryError, match="unknown preset"):
            build_preset_systems("miso-9x", [good])
        assert build_preset_systems("siso", []) == []


def _one_matrix_error(m):
    with pytest.raises((SchemaError, PassivityError)) as info:
        checked_entries(m)
    return type(info.value), str(info.value)


class TestStackedCheck:
    """checked_entries over a stack raises what its first failing matrix
    raises alone."""

    GOOD = np.array([[2.0 + 1j, 0.5j], [0.5j, 3.0 + 2j]])

    @pytest.mark.parametrize(
        "defect",
        [
            ("non-passive", lambda m: m + np.array([[0.0, 5.0], [5.0, 0.0]])),
            ("asymmetric", lambda m: m + np.array([[0.0, 1e-3j], [0.0, 0.0]])),
            ("non-finite", lambda m: m + np.array([[0.0, np.nan], [np.nan, 0.0]])),
            ("infinite", lambda m: m + np.array([[np.inf, 0.0], [0.0, 0.0]])),
            ("nan-diagonal", lambda m: m + np.array([[np.nan, 0.0], [0.0, 0.0]])),
        ],
        ids=lambda d: d[0],
    )
    def test_middle_matrix_raises_its_own_error(self, defect):
        bad = defect[1](self.GOOD)
        worse = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)  # fails later, differently
        with pytest.raises((SchemaError, PassivityError)) as info:
            checked_entries(np.array([self.GOOD, bad, worse]), stacked=True)
        assert (type(info.value), str(info.value)) == _one_matrix_error(bad)

    def test_a_passing_stack_is_returned_whole(self):
        stack = np.array([self.GOOD, 2.0 * self.GOOD, self.GOOD.real + 0j])
        out = checked_entries(stack, stacked=True)
        assert out.dtype == complex and np.array_equal(out, stack)
        for m in stack:
            assert np.array_equal(checked_entries(m), m)

    def test_shape_errors_name_one_matrix(self):
        for shape in [(3,), (2, 3), ()]:
            with pytest.raises(SchemaError, match=f"got shape {re.escape(str(shape))}"):
                checked_entries(np.ones(shape))
        with pytest.raises(SchemaError, match=r"got shape \(2, 3\)"):
            checked_entries(np.ones((4, 2, 3)), stacked=True)
        with pytest.raises(SchemaError, match="at least 2 ports"):
            checked_entries(np.ones((4, 1, 1)), stacked=True)


class TestGeometryValidation:
    def test_tangent_loops_allowed(self):
        GeometrySpec((make_loop(), make_loop(x=2 * R_LOOP), make_loop(z=0.1 * LAM)))

    def test_intersecting_coplanar_loops_rejected(self):
        with pytest.raises(GeometryError, match="intersect"):
            GeometrySpec((make_loop(), make_loop(x=1.5 * R_LOOP)))

    def test_coincident_loops_rejected(self):
        with pytest.raises(GeometryError, match="coincident"):
            GeometrySpec((make_loop(), make_loop()))

    def test_wire_radius_must_be_smaller_than_loop(self):
        with pytest.raises(GeometryError):
            Loop((0, 0, 0), R_LOOP, R_LOOP)

    def test_center_must_be_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(GeometryError, match=f"center must be finite.*{bad}"):
                Loop((0.0, bad, 0.0), R_LOOP, 0.1 * R_LOOP)

    def test_preset_rejects_bad_distance(self):
        with pytest.raises(GeometryError):
            GeometrySpec.preset("siso", -1.0)

    def test_unknown_preset(self):
        with pytest.raises(GeometryError, match="unknown preset"):
            GeometrySpec.preset("miso-9x", 0.1 * LAM)


class TestImpedanceMatrixValidation:
    def test_rejects_nonsymmetric(self):
        z = np.array([[1.0 + 1j, 2j], [2.1j, 3.0 + 1j]])
        with pytest.raises(SchemaError, match="symmetric"):
            ImpedanceMatrix(z, 40e6)

    def test_rejects_nonpassive_naming_eigenvalue(self):
        z = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)
        with pytest.raises(PassivityError, match="eigenvalue"):
            ImpedanceMatrix(z, 40e6)

    def test_entries_are_immutable(self):
        z = build_loop_system(GeometrySpec.preset("siso", 0.1 * LAM))
        with pytest.raises(ValueError):
            z.entries[0, 0] = 0.0

    def test_partition_blocks(self):
        z = build_loop_system(GeometrySpec.preset("miso-2c", 0.1 * LAM))
        zt, ztr, zr = partition(z)
        assert zt.shape == (2, 2)
        assert ztr.shape == (2,)
        assert zr == z.entries[-1, -1]
        recon = np.block([[zt, ztr[:, None]], [ztr[None, :], zr]])
        assert np.array_equal(recon, z.entries)


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        z = build_loop_system(GeometrySpec.preset("miso-2p", 0.1 * LAM, 0.25))
        path = tmp_path / "z.json"
        save_impedance_file(z, path)
        back = load_impedance_file(path)
        assert back.frequency == z.frequency
        assert np.array_equal(back.entries, z.entries)

    def test_schema_fields_present(self):
        z = build_loop_system(GeometrySpec.preset("siso", 0.1 * LAM))
        doc = matrix_to_json(z)
        assert set(doc) == {"frequency_hz", "n_ports", "re", "im"}

    def test_slight_asymmetry_symmetrized_with_warning(self):
        doc = {
            "frequency_hz": 40e6,
            "n_ports": 2,
            "re": [[1.0, 0.0], [0.0, 1.0]],
            "im": [[0.0, 2.0], [2.0 * (1 + 3e-8), 0.0]],
        }
        with pytest.warns(RuntimeWarning, match="symmetrizing"):
            z = matrix_from_json(doc)
        assert z.entries[0, 1] == z.entries[1, 0]

    def test_gross_asymmetry_rejected(self):
        doc = {
            "frequency_hz": 40e6,
            "n_ports": 2,
            "re": [[1.0, 0.0], [0.0, 1.0]],
            "im": [[0.0, 2.0], [2.4, 0.0]],
        }
        with pytest.raises(SchemaError, match="asymmetry"):
            matrix_from_json(doc)

    def test_shape_mismatch_rejected(self):
        doc = {"frequency_hz": 40e6, "n_ports": 3,
               "re": [[1.0, 0.0], [0.0, 1.0]],
               "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(SchemaError, match="n_ports"):
            matrix_from_json(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"n_ports": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="JSON"):
            load_impedance_file(path)
