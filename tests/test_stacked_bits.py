"""The premise of the stacked solves: numpy's stacked linear algebra gives
each matrix of a stack the same bits as a call on that matrix alone.

`wptopt.pipeline.solve_rows` solves a block's binding rows as stacks and
promises every row bit for bit its one-row result; that holds only while
these calls agree.  A numpy or BLAS change that breaks one of them fails
here instead of silently changing sweep outputs.
"""

import numpy as np
import pytest

ORDERS = range(1, 10)
SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
STACK = 6


def same(stacked, alone):
    return stacked.dtype == alone.dtype and stacked.tobytes() == alone.tobytes()


def spd_stack(rng, n, scale):
    b = rng.standard_normal((STACK, n, n)) * scale
    return b @ b.mT + n * scale * scale * np.eye(n)


@pytest.mark.parametrize("n", ORDERS)
def test_factorizations_match_one_matrix_at_a_time(n):
    rng = np.random.default_rng(n)
    for scale in SCALES:
        spd = spd_stack(rng, n, scale)
        chol = np.linalg.cholesky(spd)
        inv = np.linalg.inv(chol)
        eig = np.linalg.eigvalsh(spd)
        tall = rng.standard_normal((STACK, n + 2, 2)) * scale
        qa, ra = np.linalg.qr(tall, mode="complete")
        square = rng.standard_normal((STACK, n, n)) * scale + n * scale * np.eye(n)
        rhs = rng.standard_normal((STACK, n)) * scale
        sol = np.linalg.solve(square, rhs[..., None])[..., 0]
        for i in range(STACK):
            assert same(chol[i], np.linalg.cholesky(spd[i])), (n, scale, "cholesky")
            assert same(inv[i], np.linalg.inv(chol[i])), (n, scale, "inv")
            assert same(eig[i], np.linalg.eigvalsh(spd[i])), (n, scale, "eigvalsh")
            q1, r1 = np.linalg.qr(tall[i], mode="complete")
            assert same(qa[i], q1) and same(ra[i], r1), (n, scale, "qr")
            assert same(sol[i], np.linalg.solve(square[i], rhs[i])), (n, scale, "solve")


@pytest.mark.parametrize("n", ORDERS)
def test_products_match_one_matrix_at_a_time(n):
    rng = np.random.default_rng(100 + n)
    for scale in SCALES:
        a = rng.standard_normal((STACK, n, n)) * scale
        b = rng.standard_normal((STACK, n, n + 1)) * scale
        x = rng.standard_normal((STACK, n)) * scale
        y = rng.standard_normal((STACK, n)) * scale
        strided = b[:, :, 1:]  # a column slice, like the null-space basis
        mm = a @ b
        syrk = b @ b.mT
        mv = (a @ x[..., None])[..., 0]
        vm = (x[:, None] @ a)[:, 0]
        dot = (x[:, None] @ y[..., None])[:, 0, 0]
        quad = (x[:, None] @ a @ x[..., None])[:, 0, 0]
        tmv = (strided.mT @ x[..., None])[..., 0]
        for i in range(STACK):
            assert same(mm[i], a[i] @ b[i]), (n, scale, "matrix @ matrix")
            assert same(syrk[i], b[i] @ b[i].T), (n, scale, "matrix @ its transpose")
            assert same(mv[i], a[i] @ x[i]), (n, scale, "matrix @ vector")
            assert same(vm[i], x[i] @ a[i]), (n, scale, "vector @ matrix")
            assert same(dot[i], x[i] @ y[i]), (n, scale, "vector @ vector")
            assert same(quad[i], np.float64(x[i] @ a[i] @ x[i])), (n, scale, "quadratic form")
            assert same(tmv[i], strided[i].T @ x[i]), (n, scale, "strided transpose @ vector")


def test_a_failing_matrix_fails_the_whole_stacked_cholesky():
    # why the stacked solves refactor a stack one matrix at a time once one
    # of its matrices is not positive definite
    stack = np.stack([np.eye(3), -np.eye(3), 2.0 * np.eye(3)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
