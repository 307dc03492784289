"""Offline fit of the elliptic-integral kernel w(m) used by `wptopt.circuit`.

For m >= 0.05 the mutual-inductance integrand needs

    w(m) = [(2 - m) K(m) - 2 E(m)] / m**2,

what `circuit._w_over_m` returns, with K and E the complete elliptic
integrals of parameter m.  Near m = 1 both behave like a polynomial minus
log(p) times a polynomial in the complementary parameter p = 1 - m (Cody,
Math. Comp. 19, 1965; Cephes `ellpk`/`ellpe`), and so does w.  This script
fits that form to w itself,

    w(m) = A(p) - log(p) B(p),   p in [0, 0.95],

by weighted linear least squares in 60-digit arithmetic, the weights
making the residual relative.  Fitting w rather than K and E avoids the
cancellation of (2 - m) K - 2 E at small m in double precision.  It prints
`_WM_A` and `_WM_B`, the coefficients of A and B in increasing powers of
p, as they appear in `src/wptopt/circuit.py`, and the fit's worst
relative error on the sample points.

Needs mpmath (not a dependency of wptopt).  Run from the repository root:

    python tools/fit_wm.py            # print the constants
    python tools/fit_wm.py --check    # exit 1 unless circuit.py holds them
"""

import argparse
import sys

import mpmath as mp

mp.mp.dps = 60
DEGREE = 11  # of A and of B; the fit error is ~2e-17 relative
P_MAX = mp.mpf(95) / 100  # m >= 0.05; below that circuit.py uses a series
N_CHEB = 300  # Chebyshev nodes on [0, P_MAX]


def w_exact(p):
    """w at m = 1 - p, from Carlson's forms, which take p itself and stay
    exact down to p = 1e-300."""
    m = 1 - p
    k = mp.elliprf(0, p, 1)
    e = k - m / 3 * mp.elliprd(0, p, 1)
    return ((2 - m) * k - 2 * e) / (m * m)


def sample_points():
    cheb = [
        P_MAX * (1 - mp.cos(mp.pi * (j + mp.mpf(1) / 2) / N_CHEB)) / 2
        for j in range(N_CHEB)
    ]
    # the log term dominates for tiny p, down to tangent loop pairs
    tiny = [mp.mpf(10) ** -e for e in range(4, 301, 8)]
    return cheb + tiny


def fit():
    """(A, B, worst relative error on the sample points)."""
    pts = sample_points()
    vals = [w_exact(p) for p in pts]
    n = DEGREE + 1
    rows = []
    for p, v in zip(pts, vals):
        basis = [p**k for k in range(n)]
        log_p = mp.log(p)
        rows.append([b / v for b in basis] + [-log_p * b / v for b in basis])
    coef = mp.qr_solve(mp.matrix(rows), mp.matrix([1] * len(pts)))[0]
    a, b = list(coef[:n]), list(coef[n:])
    worst = max(
        abs(sum(a[k] * p**k for k in range(n)) - mp.log(p) * sum(b[k] * p**k for k in range(n)) - v) / v
        for p, v in zip(pts, vals)
    )
    return [float(x) for x in a], [float(x) for x in b], worst


def as_source(name, values):
    lines = [f"{name} = ("]
    lines += [f"    {v!r}," for v in values]
    lines.append(")")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the constants in wptopt.circuit instead of printing",
    )
    args = parser.parse_args(argv)
    a, b, worst = fit()
    if args.check:
        sys.path.insert(0, "src")
        from wptopt import circuit

        same = tuple(a) == circuit._WM_A and tuple(b) == circuit._WM_B
        print("constants match" if same else "constants differ from circuit.py")
        return 0 if same else 1
    print(f"# fit of w(m) on p = 1 - m in [0, {mp.nstr(P_MAX, 3)}], degree {DEGREE}: "
          f"worst relative error {mp.nstr(worst, 2)}")
    print(as_source("_WM_A", a))
    print(as_source("_WM_B", b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
