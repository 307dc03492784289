"""KKT audit of the relaxation (`wptopt.kkt.relaxation_audit`): a certified
point passes, and each residual catches the point built to break it."""

import math

import numpy as np
import pytest

from retarded import retarded_loop_system
from wptopt import dual
from wptopt.circuit import GeometrySpec
from wptopt.closedform import solve_closed_form
from wptopt.kkt import relaxation_audit
from wptopt.qcqp import build_problem, evaluate

TOL = 1e-8


@pytest.fixture(scope="module")
def certified():
    """A binding retarded miso-3p row: its matrix, its problem, its
    closed-form vector (a transmit power below zero) and the dual's
    certified point."""
    lam = GeometrySpec.preset("miso-3p", 1.0).wavelength
    z = retarded_loop_system(GeometrySpec.preset("miso-3p", 0.1 * lam, math.radians(-40.0)))
    cf = solve_closed_form(z)
    problem = build_problem(z, cf.r_load)
    c_cf = np.concatenate([cf.i_t.real, [cf.i_r], cf.i_t.imag])
    assert cf.p_tx.min() < -1e-3
    point = dual.solve_dual(problem)
    assert point.certified
    return z, problem, c_cf, point


def audit(problem, point, x_mat=None, lam=None, dual_slack=None):
    """The audit at the certified point with the given parts replaced."""
    c = point.c
    return relaxation_audit(
        problem,
        np.outer(c, c) if x_mat is None else x_mat,
        point.lam if lam is None else lam,
        point.dual_slack if dual_slack is None else dual_slack,
        point.objective,
    )


def test_certified_point_passes(certified):
    _, problem, _, point = certified
    assert audit(problem, point).max_residual() <= TOL


def test_lift_off_the_kvl_row_breaks_the_equalities(certified):
    _, problem, _, point = certified
    k = problem.a[0]
    c = point.c + 1e-3 * np.linalg.norm(point.c) * k / np.linalg.norm(k)
    assert audit(problem, point, x_mat=np.outer(c, c)).equalities > TOL


def test_off_unit_received_power_breaks_its_row(certified):
    _, problem, _, point = certified
    c = 1.01 * point.c
    rep = audit(problem, point, x_mat=np.outer(c, c))
    assert rep.received_power > TOL
    assert rep.received_power == pytest.approx((1.01**2 - 1.0) / 2.0, rel=1e-9)


def test_negative_transmit_power_breaks_the_inequalities(certified):
    z, problem, c_cf, point = certified
    x_cf = np.outer(c_cf, c_cf)
    p_min = float(evaluate(problem, c_cf)[1].min())
    rep = audit(problem, point, x_mat=x_cf)
    assert rep.inequalities > TOL
    assert rep.inequalities == pytest.approx(-p_min, rel=1e-9)
    # without power constraints there is no inequality to break
    free = build_problem(z, problem.r_load, constrain_powers=False)
    assert audit(free, point, x_mat=x_cf).inequalities == 0.0
    # and a cap below a transmit power breaks its row as well
    cap = 0.5 * float(evaluate(problem, point.c)[1].max())
    capped = build_problem(z, problem.r_load, power_caps=(cap,) * problem.n_tx)
    assert audit(capped, point).inequalities > TOL


def test_negative_multiplier_breaks_the_dual_sign(certified):
    _, problem, _, point = certified
    lam = point.lam.copy()
    lam[0] = -1e-3
    assert audit(problem, point, lam=lam).dual_sign == pytest.approx(1e-3)


def test_indefinite_dual_slack_breaks_dual_psd(certified):
    _, problem, _, point = certified
    s = point.dual_slack
    bent = s - 1e-3 * np.abs(s).max() * np.eye(s.shape[0])
    assert audit(problem, point, dual_slack=bent).dual_psd > TOL


def test_indefinite_matrix_breaks_primal_psd(certified):
    _, problem, _, point = certified
    c = point.c
    w = np.zeros_like(c)
    w[0] = 1.0
    w -= (w @ c) / (c @ c) * c  # orthogonal to c
    x_mat = np.outer(c, c) - 1e-3 * np.abs(c).max() ** 2 * np.outer(w, w) / (w @ w)
    assert audit(problem, point, x_mat=x_mat).primal_psd > TOL


def test_matrix_not_orthogonal_to_the_slack_breaks_comp_slack(certified):
    _, problem, _, point = certified
    x_mat = np.outer(point.c, point.c) + 1e-3 * np.abs(point.c).max() ** 2 * np.eye(point.c.size)
    assert audit(problem, point, x_mat=x_mat).comp_slack > TOL
