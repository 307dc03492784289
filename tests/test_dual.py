"""Lagrangian dual path: its derivatives, its certificate on the retarded
sweeps, its agreement with the semidefinite relaxation, and the fallback
to the relaxation's barrier where it does not certify."""

import csv
import json
import math
import warnings
from dataclasses import fields, is_dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdp_oracle
from retarded import retarded_loop_system
from wptopt import cli, dual
from wptopt.circuit import GeometrySpec, ImpedanceMatrix, matrix_to_json
from wptopt.closedform import NoCouplingError, solve_closed_form
from wptopt.kkt import relaxation_audit
from wptopt.pipeline import (
    PipelineOptions,
    RelaxationError,
    full_pipeline,
    solve_relaxation,
)
from wptopt.qcqp import build_problem, build_problems, evaluate

MISO_PRESETS = ("miso-2p", "miso-3p", "miso-2c", "miso-3c")
SWEEP_THETAS = tuple(float(t) for t in range(-90, 91, 2))


def retarded_system(preset, frac, theta_deg):
    lam = GeometrySpec.preset(preset, 1.0).wavelength
    geom = GeometrySpec.preset(preset, frac * lam, math.radians(theta_deg))
    return retarded_loop_system(geom)


def random_system(seed, n):
    """Passive n-port: Gram real part plus a symmetric imaginary part."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n - 1))
    im = rng.standard_normal((n, n)) * 3.0
    return ImpedanceMatrix(g @ g.T + 0.05 * np.eye(n) + 1j * 0.5 * (im + im.T), 1e7)


def audit_pair(problem, x_mat, lam, dual_slack, objective):
    """The package's audit and the reference oracle's general audit on the
    stacked conic rows, at the same point."""
    ours = relaxation_audit(problem, x_mat, lam, dual_slack, objective)
    point = SimpleNamespace(
        x_mat=x_mat, x_vec=None, y_ineq=lam, dual_slack=dual_slack, primal_obj=objective
    )
    ref = sdp_oracle.check_kkt(sdp_oracle.build_instance(problem), point)
    return ours, ref


def assert_audits_agree(ours, ref, label):
    for f in fields(ours):
        a, b = getattr(ours, f.name), getattr(ref, f.name)
        assert abs(a - b) <= 1e-12, (label, f.name, a, b)
    assert (ours.max_residual() <= 1e-8) == (ref.max_residual() <= 1e-8), label


def same(a, b):
    """Field-by-field equality, arrays bit for bit, NaN equal to NaN."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if a is None or isinstance(a, (str, bool)):
        return a == b
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestDerivatives:
    def test_gradient_and_hessian_match_differences(self):
        z = retarded_system("miso-3p", 0.1, -40.0)
        problem = build_problem(z, solve_closed_form(z).r_load)
        # inside the positive definite domain, which is convex and holds 0
        lam = 0.5 * dual.solve_dual(problem).lam + 1e-3
        pt, inside = dual._at(problem, lam)
        assert inside.shape == () and inside
        h = 1e-6
        for j in range(lam.size):
            step = h * np.eye(lam.size)[j]
            up, down = dual._at(problem, lam + step)[0], dual._at(problem, lam - step)[0]
            grad = (up.value - down.value) / (2.0 * h)
            assert grad == pytest.approx(-pt.slack[j], rel=1e-6, abs=1e-9)
            col = (up.slack - down.slack) / (2.0 * h)  # d(-grad)/dlam_j
            assert np.allclose(-col, pt.hess[:, j], rtol=1e-5, atol=1e-8)

    def test_model_step_is_the_orthant_maximizer(self, monkeypatch):
        # singular models, exact in integers, make some face systems fail
        # the Cholesky test; their gradient in range(neg_hess) keeps the
        # model bounded, so a face with a definite system attains its max.
        # Each face is solved at most once, the guessed one first
        failed = []
        solve = dual._cholesky_solve

        def recorded(mat, rhs):
            x = solve(mat, rhs)
            failed.append(x is None)
            return x

        monkeypatch.setattr(dual, "_cholesky_solve", recorded)
        rng = np.random.default_rng(5)
        hits = 0
        for k in (1, 2, 3, 4):
            for trial in range(60):
                definite = trial % 2 == 0
                if definite:
                    b = rng.standard_normal((k, k))
                    neg_hess = b @ b.T + 1e-3 * np.eye(k)
                    grad = rng.standard_normal(k)
                else:
                    b = rng.integers(-2, 3, (k, rng.integers(0, k)))  # rank < k
                    neg_hess = (b @ b.T).astype(float)
                    grad = neg_hess @ rng.integers(-3, 4, k)
                lam = np.where(rng.random(k) < 0.5, 0.0, rng.random(k))
                solved = len(failed)
                d = dual._model_step(lam, grad, neg_hess)
                solved = len(failed) - solved
                assert solved <= 2**k - 1, (k, trial)
                guess = (lam > 0.0) | (grad > 0.0)
                if definite and guess.any() and ((lam + d > 0.0) == guess).all():
                    hits += 1
                    assert solved == 1, (k, trial)
                best, best_val = brute_force_step(lam, grad, neg_hess)
                val = grad @ d - 0.5 * d @ neg_hess @ d
                assert (lam + d >= 0.0).all(), (k, trial)
                assert abs(val - best_val) <= 1e-12 * (1.0 + abs(best_val)), (k, trial)
                if definite:  # the maximizer is unique
                    assert np.allclose(d, best, rtol=1e-9, atol=1e-12), (k, trial)
        assert any(failed) and not all(failed)
        assert hits > 20


def brute_force_step(lam, grad, neg_hess):
    """(d, model value) of the best face optimum of `dual._model_step`'s
    model over lam + d >= 0, every face solved by `np.linalg.solve`; faces
    whose system is singular are left out."""
    k = lam.size
    best, best_val = None, -np.inf
    for free in product((True, False), repeat=k):
        free = np.array(free)
        d = -lam
        if free.any():
            sub = neg_hess[np.ix_(free, free)]
            if np.linalg.eigvalsh(sub)[0] <= 1e-9 * max(1.0, np.abs(neg_hess).max()):
                continue
            d[free] = np.linalg.solve(sub, grad[free] - neg_hess[np.ix_(free, ~free)] @ d[~free])
            if (lam[free] + d[free] < 0.0).any():
                continue
        val = grad @ d - 0.5 * d @ neg_hess @ d
        if val > best_val:
            best, best_val = d, val
    return best, best_val


class TestInverseCholeskyFactors:
    """`dual._inverse_cholesky_factors` against np.linalg, matrix by matrix."""

    @staticmethod
    def matrices(seed):
        """Order-4 symmetric matrices: positive definite, indefinite, and
        nearly singular ones whose Cholesky test goes either way."""
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]

        def spectrum(*eig):
            return basis @ np.diag(eig) @ basis.T

        return {
            "spd": spectrum(1.0, 2.0, 3.0, 0.5),
            "indefinite": spectrum(1.0, 2.0, 3.0, -0.5),
            "singular+": spectrum(1.0, 2.0, 3.0, 1e-17),
            "singular0": spectrum(1.0, 2.0, 3.0, 0.0),
            "singular-": spectrum(1.0, 2.0, 3.0, -1e-17),
        }

    @staticmethod
    def passes(mat):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return False
        return True

    def test_factors_and_mask_match_one_matrix_at_a_time(self):
        kinds = (
            ("spd", "spd", "spd"),  # the stack passes as a whole
            ("spd", "indefinite", "indefinite"),  # one passes
            ("indefinite", "spd", "singular+", "spd", "indefinite"),  # two or more
            ("singular+", "singular0", "singular-", "spd", "indefinite", "spd"),
            ("singular-", "singular+", "singular0"),
            ("indefinite",),
        )
        branches, screened = set(), set()
        for seed in range(40):
            mats = self.matrices(seed)
            for kind in kinds:
                stack = np.array([mats[k] for k in kind])
                want = np.array([self.passes(m) for m in stack])
                linv, mask = dual._inverse_cholesky_factors(stack)
                assert mask.shape == (len(kind),) and mask.dtype == bool
                assert (mask == want).all(), (seed, kind)
                for m, factor, ok in zip(stack, linv, mask):
                    if ok:
                        ref = np.linalg.inv(np.linalg.cholesky(m))
                        assert factor.tobytes() == ref.tobytes(), (seed, kind)
                    else:
                        assert not factor.any(), (seed, kind)
                if not want.all():  # the eigvalsh screen runs
                    likely = np.linalg.eigvalsh(stack)[:, 0] > 0.0
                    branches.add(1 < likely.sum() < len(stack))
                    screened.update(zip(likely.tolist(), want.tolist()))
        # both branches of the screen ran, and the screen and the Cholesky
        # test disagreed both ways on the nearly singular matrices
        assert branches == {True, False}
        assert screened == {(True, True), (True, False), (False, True), (False, False)}

    def test_one_matrix_gives_a_0d_mask(self):
        mats = self.matrices(0)
        linv, ok = dual._inverse_cholesky_factors(mats["spd"])
        assert np.shape(ok) == () and ok
        assert linv.tobytes() == np.linalg.inv(np.linalg.cholesky(mats["spd"])).tobytes()
        linv, ok = dual._inverse_cholesky_factors(mats["indefinite"])
        assert np.shape(ok) == () and not ok
        assert linv.shape == (4, 4) and not linv.any()


@pytest.fixture(scope="module")
def stall_stacks():
    """(`solve_duals` of a stack, `solve_dual` of each of its rows) of the
    retarded 3- and 4-port stacks at a load where miso-3p at -54 degrees
    stalls and the others certify."""
    zs = [retarded_system(p, 0.1, t) for p in ("miso-2p", "miso-3p") for t in (-54.0, 45.0)]
    rl = float(np.geomspace(0.06, 0.08, 21)[6])
    out = []
    for n in (3, 4):
        group = [z for z in zs if z.entries.shape[0] == n]
        stacked = dual.solve_duals(build_problems(group, [rl] * len(group)))
        out.append((stacked, [dual.solve_dual(build_problem(z, rl)) for z in group]))
    return out


class TestStacks:
    """The stacked evaluations give every row the bits of its own."""

    def test_points_match_one_row_at_a_time(self):
        zs = [retarded_system("miso-3p", 0.1, t) for t in (-70.0, -40.0, 18.0, 45.0)]
        problems = build_problems(zs, [solve_closed_form(z).r_load for z in zs])
        base = np.array([dual.solve_dual(problems.row(i)).lam for i in range(len(zs))])
        lam = base * np.array([[1.0], [40.0], [0.5], [1e4]])  # two leave the domain
        points, inside = dual._at(problems, lam)
        assert inside.shape == (len(zs),)
        assert inside.any() and not inside.all()
        for i in range(len(zs)):
            alone, inside_alone = dual._at(problems.row(i), lam[i])
            assert inside_alone.shape == () and inside_alone == inside[i], i
            assert (alone is not None) == inside[i], i
            if alone is not None:
                for got, want in zip(points.row(i), alone):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), i

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from((3, 4, 5)),
        # per row, a random_system seed and decades off its closed-form load
        rows=st.lists(
            st.tuples(st.integers(0, 2000), st.floats(-1.0, 1.0)), min_size=2, max_size=5
        ),
    )
    @example(n=4, rows=[(104, 0.0), (0, -1.0), (1, 1.0)])  # 104 is not tight
    def test_duals_match_one_row_at_a_time(self, stall_stacks, n, rows):
        for stacked, alone in stall_stacks:
            assert all(same(a, b) for a, b in zip(stacked, alone))
        assert {p.reason for p in stacked} == {"", "stalled"}
        zs = [random_system(seed, n) for seed, _ in rows]
        loads = [solve_closed_form(z).r_load * 10.0**u for z, (_, u) in zip(zs, rows)]
        points = dual.solve_duals(build_problems(zs, loads))
        for z, rl, point in zip(zs, loads, points):
            assert same(point, dual.solve_dual(build_problem(z, rl)))


@pytest.fixture(scope="module")
def binding_rows(relaxation_only):
    """(label, z, default row, relaxation row) on every binding point of the
    2-degree retarded sweeps at d = 0.1 lambda and of a jittered second set."""
    rng = np.random.default_rng(22)
    points = [(p, 0.1, t) for p in MISO_PRESETS for t in SWEEP_THETAS]
    points += [
        (p, 0.1 * (1.0 + rng.uniform(-0.02, 0.02)), t + rng.uniform(-0.5, 0.5))
        for p in MISO_PRESETS
        for t in SWEEP_THETAS
    ]
    rows = []
    for preset, frac, theta in points:
        z = retarded_system(preset, frac, theta)
        res = full_pipeline(z)
        if not res.skipped:
            with relaxation_only():
                ref = full_pipeline(z)
            rows.append((f"{preset} d={frac} theta={theta}", z, res, ref))
    return rows


class TestRetardedSweeps:
    def test_every_binding_row_certifies_on_the_dual(self, binding_rows):
        assert len(binding_rows) > 500
        assert [label for label, _, res, _ in binding_rows if res.form != "dual"] == []

    def test_rows_match_the_relaxation(self, binding_rows):
        for label, _, res, ref in binding_rows:
            assert ref.form == "conic", label
            assert abs(res.eta - ref.eta) <= 1e-10 * ref.eta, label
            assert res.r_load == ref.r_load, label

    def test_rows_are_feasible_and_balanced(self, binding_rows):
        for label, _, res, _ in binding_rows:
            assert res.transmit_powers.min() >= -1e-9, label
            balance = float(np.sum(res.transmit_powers)) * res.eta - 1.0
            assert abs(balance) <= 1e-10, label
            assert res.tight and res.epsilon == 0.0, label

    def test_rows_carry_their_certificate(self, binding_rows):
        for label, z, res, _ in binding_rows:
            assert res.kkt.max_residual() <= 1e-8, label
            obj, _ = evaluate(build_problem(z, res.r_load), res.cvec)
            assert abs(obj - res.p_relax) <= 1e-12 * obj, label
            assert 0 < res.iterations <= dual.MAX_STEPS, label


class TestAuditAgreement:
    """`relaxation_audit` reads the lifted equalities off the KVL row; the
    reference oracle stacks them as matrices.  Both must give the same
    residuals and the same verdict."""

    def test_on_every_binding_row(self, binding_rows):
        for label, z, res, ref in binding_rows:
            problem = build_problem(z, res.r_load)
            dp = dual.solve_dual(problem)
            assert dp.certified, label
            ours, oracle = audit_pair(
                problem, np.outer(dp.c, dp.c), dp.lam, dp.dual_slack, dp.objective
            )
            assert ours == res.kkt, label
            assert_audits_agree(ours, oracle, label)
            bp = dual.solve_barrier(problem)
            obj = float(np.sum(problem.q0 * bp.x_mat))
            ours, oracle = audit_pair(problem, bp.x_mat, bp.lam, bp.dual_slack, obj)
            assert ours == ref.kkt, label
            assert_audits_agree(ours, oracle, label)

    def test_on_the_non_tight_row(self):
        z = ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7)
        problem = build_problem(z, solve_closed_form(z).r_load)
        bp = dual.solve_barrier(problem)
        obj = float(np.sum(problem.q0 * bp.x_mat))
        ours, oracle = audit_pair(problem, bp.x_mat, bp.lam, bp.dual_slack, obj)
        assert_audits_agree(ours, oracle, "not tight")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((3, 4)),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_dual_on_random_passive_systems(relaxation_only, seed, n, perm_seed):
    """Wherever the dual certifies, its row passes the KKT audit and keeps
    every transmit power nonnegative; it is no worse than the relaxation, no
    better than the unconstrained closed form, and blind to port order."""
    z = random_system(seed, n)
    try:
        cf = solve_closed_form(z)
    except NoCouplingError:
        return
    if cf.p_tx.min() >= 0.0 or not dual.solve_dual(build_problem(z, cf.r_load)).certified:
        return  # nothing binds, or the relaxation answers (see TestFallback)
    res = full_pipeline(z)
    assert res.form == "dual"
    assert res.kkt.max_residual() <= 1e-8
    scale = max(1.0, float(np.abs(res.transmit_powers).max()))
    assert res.transmit_powers.min() >= -1e-9 * scale
    assert res.eta <= res.closed_form.eta * (1.0 + 1e-12)
    try:
        with relaxation_only():
            ref = full_pipeline(z)
    except RelaxationError:
        ref = None
    if ref is not None:
        assert res.eta >= ref.eta * (1.0 - 1e-10)
    order = np.random.default_rng(perm_seed).permutation(n - 1)
    perm = np.append(order, n - 1)
    permuted = full_pipeline(ImpedanceMatrix(z.entries[np.ix_(perm, perm)], z.frequency))
    assert permuted.eta == pytest.approx(res.eta, rel=1e-10)
    assert np.allclose(permuted.transmit_powers, res.transmit_powers[order], atol=1e-9 * scale)


# a 4-port whose relaxation is not tight (epsilon 0.6): no rank-one point
# attains the dual bound, so the dual cannot certify it
NOT_TIGHT_RE = [
    [3.325325870713726, -3.703799806305429, -1.3721379722916085, 2.0790416178862077],
    [-3.703799806305429, 5.0591085967335205, 3.478152039719312, -0.6515559816876827],
    [-1.3721379722916085, 3.478152039719312, 5.355274793340325, 3.087449938903672],
    [2.0790416178862077, -0.6515559816876827, 3.087449938903672, 4.8929553282408245],
]
NOT_TIGHT_IM = [
    [-1.6940890994487985, 1.0789581788220495, -2.8065761960256586, 3.3783436787582324],
    [1.0789581788220495, -0.8671572233842473, -0.15191499881357462, 0.5165593499044709],
    [-2.8065761960256586, -0.15191499881357462, 0.5002435881771534, -0.9908904831806127],
    [3.3783436787582324, 0.5165593499044709, -0.9908904831806127, -0.8032798153453761],
]


class TestFallback:
    def test_uncertified_row_is_the_relaxation(self, relaxation_only):
        z = ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7)
        problem = build_problem(z, solve_closed_form(z).r_load)
        assert not dual.solve_dual(problem).certified
        # the status says the row is not certified; nothing is warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = full_pipeline(z)
            with relaxation_only():
                ref = full_pipeline(z)
            raw = solve_relaxation(problem)
        assert res.status == "not-tight"
        assert res.form == "conic" and not res.tight
        assert same(res, ref)
        for name in ("status", "form", "tight", "epsilon", "p_relax", "r_load",
                     "cvec", "eta", "currents", "transmit_powers", "iterations", "kkt"):
            assert same(getattr(res, name), getattr(raw, name)), name

    def test_non_tight_row_reports_its_status(self, tmp_path):
        # its extracted point is not certified, so it is no "optimal" row
        z = ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7)
        family = tmp_path / "family.json"
        family.write_text(json.dumps([{"theta_deg": 0.0, "matrix": matrix_to_json(z)}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = full_pipeline(z)
            assert cli.main(["sweep", "--matrix", str(family), "--out", str(tmp_path)]) == 0
        assert res.status == "not-tight" and not res.tight
        with open(tmp_path / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["status"], row["tight"], row["form"]) == ("not-tight", "false", res.form)

    def test_capped_retarded_point_matches_the_relaxation(self, relaxation_only):
        z = retarded_system("miso-2p", 0.1, 0.0)
        cf = solve_closed_form(z)
        caps = (0.8 * cf.p_tx[0], 10.0 * cf.p_tx[1])
        res = full_pipeline(z, cf.r_load, PipelineOptions(power_caps=caps))
        with relaxation_only():
            ref = full_pipeline(z, cf.r_load, PipelineOptions(power_caps=caps))
        assert res.form == "dual" and not res.skipped
        assert abs(res.eta - ref.eta) <= 1e-10 * ref.eta
        assert np.all(res.transmit_powers <= np.asarray(caps) + 1e-9)
        assert res.transmit_powers[0] == pytest.approx(caps[0], rel=1e-10)
        assert res.kkt.max_residual() <= 1e-8

    def test_infeasible_caps_leave_the_dual(self):
        z = retarded_system("miso-2p", 0.1, 0.0)
        cf = solve_closed_form(z)
        problem = build_problem(z, cf.r_load, power_caps=(0.2, 0.2))
        point = dual.solve_dual(problem)
        assert not point.certified and point.reason == "diverging multipliers"
        with pytest.raises(RelaxationError) as err:
            full_pipeline(z, cf.r_load, PipelineOptions(power_caps=(0.2, 0.2)))
        assert err.value.status == "infeasible"

    def test_unconstrained_rows_are_the_closed_form(self, relaxation_only):
        z = retarded_system("miso-3c", 0.1, 18.0)
        cf = solve_closed_form(z)
        assert cf.p_tx.min() < 0.0
        opts = PipelineOptions(constrain_powers=False)
        with relaxation_only():
            ref = full_pipeline(z, None, opts)
        for res in (full_pipeline(z, None, opts), ref):
            assert res.skipped and res.status == "closed-form"
            assert res.form == "closed-form"
            assert res.eta == cf.eta and res.iterations == 0


class TestWarmStartAndStall:
    def test_start_outside_the_domain_returns_at_once(self):
        z = retarded_system("miso-3p", 0.1, -40.0)
        problem = build_problem(z, solve_closed_form(z).r_load)
        point = dual.solve_dual(problem, np.full(problem.n_tx, 1e6))
        assert not point.certified and point.steps == 0 and point.c is None

    def test_non_tight_row_stalls(self):
        z = ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7)
        point = dual.solve_dual(build_problem(z, solve_closed_form(z).r_load))
        assert point.reason == "stalled" and point.steps < dual.MAX_STEPS


class TestRelaxationFinish:
    """Relaxation rows are finished on the dual from the SDR's multipliers."""

    def test_row_missing_tightness_is_made_feasible(self, relaxation_only):
        # the dual certifies this row with a zero gap, so its relaxation is
        # tight, by a margin the reference interior-point solve misses: its
        # eps is 1.9e-8
        z = retarded_system("miso-3p", 0.1311, -55.63)
        with relaxation_only():
            res = full_pipeline(z)
        ref = full_pipeline(z)
        assert ref.form == "dual"
        assert res.form == "conic" and res.status == "optimal" and res.tight
        assert res.epsilon <= 1e-9
        assert res.transmit_powers.min() >= -1e-9
        assert abs(res.eta - ref.eta) <= 1e-10

    def test_closed_gap_certifies_a_stuck_ascent(self, relaxation_only, monkeypatch):
        # near a coupling null rounding can hold the projected gradient above
        # GRAD_TOL after the warm ascent has closed the gap.  With GRAD_TOL
        # at 0 no step can meet it, so a certified finish can only come from
        # the closed-gap rule; the extraction alone leaves a power at -3e-6 W
        monkeypatch.setattr(dual, "GRAD_TOL", 0.0)
        z = retarded_system("miso-3p", 0.1, -54.0)
        with relaxation_only():
            res = full_pipeline(z, 0.066)
        assert res.form == "conic" and res.tight
        assert res.transmit_powers.min() >= -1e-9


def test_near_null_loads_are_decided_clearly(relaxation_only):
    """Near the coupling null of miso-3p at -54 degrees the relaxation's
    verdict is no coin toss: no epsilon lands between 1e-9 and 1e-6, and the
    loads where the ascent stalls come back certified from the relaxation."""
    z = retarded_system("miso-3p", 0.1, -54.0)
    with relaxation_only():
        grid = [full_pipeline(z, 0.06 + 0.0005 * i) for i in range(41)]
    assert [r.epsilon for r in grid if 1e-9 < r.epsilon < 1e-6] == []
    loads = np.geomspace(0.06, 0.08, 21)
    stalls = [rl for rl in loads if dual.solve_dual(build_problem(z, rl)).reason == "stalled"]
    assert len(stalls) == 7 and 0.0654 < stalls[0] and stalls[-1] < 0.0714
    for rl in stalls:
        res = full_pipeline(z, rl)
        assert (res.form, res.status) == ("conic", "optimal"), rl
        assert res.transmit_powers.min() >= -1e-9, rl


def test_stalled_rows_factor_the_current_rows_once(monkeypatch):
    """A row the ascent stalls on goes to the barrier and then to the
    finish; all three read the one reduced problem, so A c = b is factored
    once per row."""
    z = retarded_system("miso-3p", 0.1, -54.0)
    qr = np.linalg.qr
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for rl in np.geomspace(0.06, 0.08, 21)[6:13]:
        calls.clear()
        res = full_pipeline(z, rl)
        assert (res.form, res.status) == ("conic", "optimal"), rl
        assert len(calls) == 1, rl
