"""Acceptance battery: one test per release criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion; each test
also prints a short evidence line (visible with ``-s`` or on failure).

The quasi-static loop model has purely reactive mutual impedances, which
makes the minimum-loss closed form provably feasible (no negative transmit
powers), so preset sweeps alone would leave the constrained-solver criteria
vacuous.  Sweeps therefore also run on retarded-coupling families (complex
mutual impedances, built in retarded.py and passed through the JSON
ingestion path) where the nonnegativity constraints genuinely bind.
"""

import math

import numpy as np
import pytest

from oracles import brute_force_qcqp, minimize_loss_descent
from retarded import retarded_loop_system
from wptopt.circuit import (
    C0,
    PRESET_FREQUENCY,
    PRESETS,
    GeometrySpec,
    ImpedanceMatrix,
    build_loop_system,
    matrix_from_json,
    matrix_to_json,
)
from wptopt.closedform import (
    NoCouplingError,
    max_pte,
    solve_closed_form,
    solve_min_loss_qp,
)
from wptopt.dual import solve_barrier
from wptopt.pims import pim_eigensystem, pim_split, port_impedance_matrices
from wptopt.pipeline import PipelineOptions, full_pipeline, optimize_load, solve_relaxation
from wptopt.qcqp import build_problem

LAM = C0 / PRESET_FREQUENCY
SWEEP_THETAS = tuple(float(t) for t in range(-90, 91, 2))
MISO_PRESETS = tuple(p for p in PRESETS if p != "siso")


def report(name, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    line = f"[acceptance] {mark}  {name}" + (f"  ({detail})" if detail else "")
    print(line, flush=True)
    assert passed, line


def preset_system(name, d_frac, theta_deg):
    geom = GeometrySpec.preset(name, d_frac * LAM, angle=math.radians(theta_deg))
    return build_loop_system(geom)


def retarded_system(name, d_frac, theta_deg):
    """Retarded matrix passed through the JSON ingestion round trip."""
    geom = GeometrySpec.preset(name, d_frac * LAM, angle=math.radians(theta_deg))
    return matrix_from_json(matrix_to_json(retarded_loop_system(geom)))


def _sweep(build, relaxation_only):
    # criteria 3 and 7 measure the SDR's epsilon, KKT and iterations, so the
    # sweeps run the relaxation on every binding row instead of the dual path
    rows = {}
    with relaxation_only():
        for name in PRESETS:
            points = []
            for theta in SWEEP_THETAS:
                try:
                    z = build(name, 0.1, theta)
                    points.append((theta, full_pipeline(z)))
                except NoCouplingError:
                    continue
            rows[name] = points
    return rows


@pytest.fixture(scope="module")
def quasi_sweeps(relaxation_only):
    return _sweep(preset_system, relaxation_only)


@pytest.fixture(scope="module")
def retarded_sweeps(relaxation_only):
    return _sweep(retarded_system, relaxation_only)


def test_criterion_1_siso_collapse():
    """N=2, real mutual: general machinery collapses to the textbook link."""
    worst = 0.0
    for d in (0.05, 0.1, 0.2):
        for theta in (0.0, 30.0, 80.0):
            z = preset_system("siso", d, theta)
            zm = np.asarray(z.entries)
            r1, r2 = zm[0, 0].real, zm[1, 1].real
            u = abs(zm[0, 1]) / math.sqrt(r1 * r2)
            eta = u * u / (1.0 + math.sqrt(1.0 + u * u)) ** 2
            rl = r2 * math.sqrt(1.0 + u * u)
            cf = solve_closed_form(z)
            worst = max(
                worst,
                abs(cf.u - u) / u,
                abs(cf.eta_max - eta) / eta,
                abs(cf.r_load_opt - rl) / rl,
            )
    spot = max_pte(2.0)
    spot_ok = abs(spot - 0.3819660112501051) <= 1e-12
    report(
        "criterion-1 siso-collapse",
        worst <= 1e-12 and spot_ok,
        f"worst rel {worst:.2e}, eta_max(U=2) = {spot:.6f}",
    )


def test_criterion_2_convex_chain():
    """Analytic QP = unconstrained SDR = oracle on every preset point."""
    worst = 0.0
    for name in PRESETS:
        for d in (0.05, 0.1, 0.2):
            for theta in (0.0, 18.0, 60.0):
                z = preset_system(name, d, theta)
                cf = solve_closed_form(z)
                _, p_qp, _ = solve_min_loss_qp(z, cf.r_load_opt)
                problem = build_problem(z, cf.r_load_opt, constrain_powers=False)
                res = solve_relaxation(problem)
                desc = minimize_loss_descent(problem, candidate=p_qp)
                gaps = [abs(res.p_relax - p_qp), abs(desc.objective - p_qp)]
                if z.n_ports <= 3:
                    grid = brute_force_qcqp(problem, candidate=p_qp)
                    gaps.append(abs(grid.objective - p_qp))
                worst = max(worst, max(gaps) / abs(p_qp))
    report("criterion-2 convex-chain", worst <= 1e-6, f"worst rel {worst:.2e}")


def test_criterion_3_tightness(quasi_sweeps, retarded_sweeps):
    """Every non-skipped relaxation on the 2-degree sweeps is rank-1 tight."""
    eps = []
    for sweeps in (quasi_sweeps, retarded_sweeps):
        for rows in sweeps.values():
            eps.extend(r.epsilon for _, r in rows if not r.skipped)
    eps = np.asarray(eps)
    n_quasi = sum(
        not r.skipped for rows in quasi_sweeps.values() for _, r in rows
    )
    detail = (
        f"{eps.size} solves (quasi-static contributes {n_quasi}); eps "
        f"min {eps.min():.1e} / median {np.median(eps):.1e} / max {eps.max():.1e}"
    )
    report(
        "criterion-3 tightness",
        eps.size >= 100 and float(eps.max()) <= 1e-8,
        detail,
    )


def test_criterion_4_nonnegativity(quasi_sweeps, retarded_sweeps):
    """Solver powers stay nonnegative where the closed form goes negative."""
    worst = 0.0
    for sweeps in (quasi_sweeps, retarded_sweeps):
        for rows in sweeps.values():
            for _, r in rows:
                worst = min(worst, float(np.min(r.transmit_powers)))
    # the quasi-static model cannot produce a negative closed-form port
    # power (real mutuals force quadrature currents), which is exactly why
    # the retarded families are swept as well
    for name in MISO_PRESETS:
        assert all(
            float(r.closed_form.p_tx.min()) >= -1e-12
            for _, r in quasi_sweeps[name]
        ), f"unexpected negative closed-form power on quasi-static {name}"
    negatives = {
        name: min(float(r.closed_form.p_tx.min()) for _, r in retarded_sweeps[name])
        for name in MISO_PRESETS
    }
    all_negative_somewhere = all(v < 0.0 for v in negatives.values())
    detail = (
        f"solver min power {worst:.2e} W; closed-form most-negative per sweep "
        + " ".join(f"{k}:{v:.2e}" for k, v in negatives.items())
    )
    report(
        "criterion-4 nonnegativity",
        worst >= -1e-9 and all_negative_somewhere,
        detail,
    )


def test_criterion_5_small_degradation(retarded_sweeps):
    """Constraining the powers costs little efficiency, and never gains."""
    drops = []
    ordering_ok = True
    for rows in retarded_sweeps.values():
        for _, r in rows:
            if r.skipped:
                continue
            drops.append(r.closed_form.eta - r.eta)
            ordering_ok = ordering_ok and r.eta <= r.closed_form.eta + 1e-12
    drops = np.asarray(drops)
    detail = (
        f"{drops.size} binding points; drop median {np.median(drops):.2e} / "
        f"max {drops.max():.2e}"
    )
    report(
        "criterion-5 small-degradation",
        ordering_ok
        and drops.size > 0
        and float(drops.max()) <= 0.05
        and float(np.median(drops)) < 0.01,
        detail,
    )


def test_criterion_6_pim_eigensystem():
    """Closed-form PIM eigenpairs and PSD splits match dense eigensolves."""
    worst_eig = 0.0
    worst_split = 0.0
    systems = [preset_system(p, 0.1, 18.0) for p in PRESETS]
    systems += [retarded_system(p, 0.1, 45.0) for p in MISO_PRESETS]
    for z in systems:
        cf = solve_closed_form(z)
        zhat = z.entries.copy()
        zhat[-1, -1] += 1j * cf.x_r + cf.r_load_opt
        tns = port_impedance_matrices(zhat)
        for n, t in enumerate(tns):
            eig = pim_eigensystem(zhat, n)
            w = np.linalg.eigvalsh(t)
            scale = float(np.abs(w).max())
            analytic = np.sort(
                np.concatenate(
                    [[-eig.lam_minus, eig.lam_plus], np.zeros(t.shape[0] - 2)]
                )
            )
            worst_eig = max(worst_eig, float(np.abs(w - analytic).max()) / scale)
            for lam, vec in ((eig.lam_plus, eig.v_plus), (-eig.lam_minus, eig.v_minus)):
                nv = float(np.linalg.norm(vec))
                if nv == 0.0:
                    continue
                res = float(np.linalg.norm(t @ vec - lam * vec)) / (scale * nv)
                worst_eig = max(worst_eig, res)
            tp, tm = pim_split(t, n)
            worst_split = max(
                worst_split,
                float(np.abs(t - (tp - tm)).max()) / scale,
                -float(np.linalg.eigvalsh(tp).min()) / scale,
                -float(np.linalg.eigvalsh(tm).min()) / scale,
                float(np.sort(np.linalg.eigvalsh(tp))[-2]) / scale,
                float(np.sort(np.linalg.eigvalsh(tm))[-2]) / scale,
            )
    report(
        "criterion-6 pim-eigensystem",
        worst_eig <= 1e-10 and worst_split <= 1e-12,
        f"eigenpairs {worst_eig:.2e} (tol 1e-10), splits {worst_split:.2e} (tol 1e-12)",
    )


def test_criterion_7_kkt_duality(retarded_sweeps):
    """Every relaxation solve certifies KKT, a tiny gap, and quick convergence.

    Measured on the barrier that solves the relaxation: a row's
    ``iterations`` are its Newton steps, and the gap is that of the path's
    primal matrix against the certified bound ``p_relax``.
    """
    worst_kkt = 0.0
    worst_it = 0
    n_solves = 0
    for rows in retarded_sweeps.values():
        for _, r in rows:
            if not r.skipped:
                n_solves += 1
                worst_kkt = max(worst_kkt, r.kkt.max_residual())
                worst_it = max(worst_it, r.iterations)
    worst_gap = 0.0
    for name in PRESETS:
        cases = [(preset_system(name, 0.1, 18.0), False)]
        if name != "siso":
            cases.append((retarded_system(name, 0.1, 45.0), True))
        for z, constrained in cases:
            problem = build_problem(
                z, solve_closed_form(z).r_load_opt, constrain_powers=constrained
            )
            res = solve_relaxation(problem)
            x_mat = solve_barrier(problem).x_mat
            pobj = float(np.sum(problem.q0 * x_mat))
            gap = abs(pobj - res.p_relax) / (1.0 + abs(pobj) + abs(res.p_relax))
            n_solves += 1
            worst_gap = max(worst_gap, gap)
            worst_kkt = max(worst_kkt, res.kkt.max_residual())
            worst_it = max(worst_it, res.iterations)
    detail = (
        f"{n_solves} barrier solves; kkt {worst_kkt:.2e} (tol 1e-8), "
        f"relgap {worst_gap:.2e} (tol 1e-9), max iterations {worst_it}"
    )
    report(
        "criterion-7 kkt-duality",
        worst_kkt <= 1e-8 and worst_gap <= 1e-9 and worst_it <= 60,
        detail,
    )


def test_criterion_8_load_search():
    """Outer load search lands on the closed-form optimum, and it is flat."""
    worst_rel = 0.0
    worst_flat = 0.0
    for name, theta in (("siso", 0.0), ("siso", 30.0), ("miso-2c", 0.0), ("miso-3p", 30.0)):
        z = preset_system(name, 0.1, theta)
        cf = solve_closed_form(z)
        search = optimize_load(z)
        worst_rel = max(
            worst_rel, abs(search.r_load - cf.r_load_opt) / cf.r_load_opt
        )
        eta_star = search.result.eta
        for factor in (0.9, 1.1):
            eta = full_pipeline(z, factor * cf.r_load_opt).eta
            worst_flat = max(worst_flat, (eta_star - eta) / eta_star)
    report(
        "criterion-8 load-search",
        worst_rel <= 1e-3 and worst_flat <= 0.01,
        f"R_L* rel err {worst_rel:.2e}, eta sag over +/-10%: {worst_flat:.2e}",
    )


def random_system(rng):
    """A random passive 3-port of criterion 9."""
    g = rng.standard_normal((3, 2))
    re = g @ g.T + 0.05 * np.eye(3)
    im = rng.standard_normal((3, 3)) * 3.0
    return re + 1j * 0.5 * (im + im.T)


def test_criterion_9_constrained_oracle():
    """Grid-plus-polish global search agrees with the relaxation optimum."""
    worst = 0.0
    binding = 0
    for seed in range(10):
        z = random_system(np.random.default_rng(seed))
        cf = solve_closed_form(z)
        binding += float(cf.p_tx.min()) < 0.0
        problem = build_problem(z, cf.r_load_opt)
        res = solve_relaxation(problem)
        rep = brute_force_qcqp(problem, candidate=res.p_relax)
        worst = max(worst, abs(rep.objective - res.p_relax) / abs(res.p_relax))
    report(
        "criterion-9 constrained-oracle",
        worst <= 1e-4 and binding >= 5,
        f"worst rel {worst:.2e} over 10 systems, {binding} with binding constraints",
    )


def test_criterion_9_under_caps():
    """Caps keep the nonnegative rows: on the criterion-9 systems, capped
    at twice the largest closed-form power, no transmitter absorbs power and
    every row agrees with the grid oracle of the capped QCQP."""
    worst, worst_neg, binding = 0.0, 0.0, 0
    for seed in range(10):
        z = ImpedanceMatrix(random_system(np.random.default_rng(seed)), 1e6)
        cf = solve_closed_form(z)
        caps = (2.0 * float(np.abs(cf.p_tx).max()),) * z.n_tx
        res = full_pipeline(z, options=PipelineOptions(power_caps=caps))
        binding += not res.skipped
        p = res.transmit_powers
        worst_neg = max(worst_neg, -float(p.min()) / max(1.0, float(np.abs(p).max())))
        problem = build_problem(z, res.r_load, power_caps=caps)
        rep = brute_force_qcqp(problem, candidate=res.p_relax)
        worst = max(worst, abs(rep.objective - res.p_relax) / abs(res.p_relax))
    report(
        "criterion-9 under caps",
        worst <= 1e-9 and worst_neg <= 1e-9 and binding >= 5,
        f"worst rel {worst:.2e}, worst negative power {worst_neg:.2e} of max(1, max|p|), "
        f"{binding} binding rows",
    )
