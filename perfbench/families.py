"""Benchmark inputs, made by the benchmark itself from a workload seed.

Seed 0 gives the plain grids: theta = -90:2:90 degrees on every preset at
d = 0.1 lambda for the retarded families, and the same angles at the
distances in ``QS_DISTANCES`` for the quasi-static sweep.  Any other seed
scales the quasi-static angle step and moves each of its distances (see
``quasi_static_grid``), so a claim can be re-checked on inputs that were not
in view while it was written.  ``retarded_points`` jitters the retarded
points too (+-0.5 degree, +-2 % in distance); the benchmark's SDR workloads
keep seed 0 (see ``run.SDR_SEED``), and ``--seed N --out DIR`` below writes
jittered families for re-checking an SDR claim by hand.

The retarded families are complex impedance matrices: the quasi-static
matrix plus the full-wave filament corrections of the thin-wire kernel
e^{-jkr}/r (mutual radiation resistance from sin(kr)/r and the correction
to M from (cos(kr) - 1)/r, both by a fixed 32-node tensor Gauss-Legendre
rule).  Nothing here calls the program under test: the parts of each
matrix that do not depend on where the receiver sits (transmitter block,
receiver self-impedance) are read from ``presets.json``, and the
transmitter-receiver mutual inductances come from ``neumann_mutual``.  So
both sides of a comparison see byte-identical matrices.

Regenerate ``presets.json`` from the program (only needed if the loop model
itself is meant to change)::

    PYTHONPATH=src python3 perfbench/families.py --refresh-presets

Write the family files the CLI reads (``--matrix``) for a seed::

    python3 perfbench/families.py --seed 0 --out perfbench/_work/families
"""

import argparse
import functools
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PRESETS_FILE = os.path.join(HERE, "presets.json")

MU0 = 4.0e-7 * math.pi
C0 = 299792458.0
PRESETS = ("siso", "miso-2p", "miso-3p", "miso-2c", "miso-3c")

THETAS = tuple(float(t) for t in range(-90, 91, 2))
RETARDED_D = 0.1
QS_DISTANCES = (0.05, 0.075, 0.1, 0.15, 0.2, 0.3)
THETA_JITTER_DEG = 0.5
D_JITTER_REL = 0.02

NEUMANN_NODES = 64
RADIATION_NODES = 32


def load_presets(path=PRESETS_FILE):
    """Per preset: frequency, loops (center, radius) and the fixed entries."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for name, p in doc["presets"].items():
        out[name] = {
            "frequency": float(p["frequency_hz"]),
            "centers": np.array(p["tx_centers"], dtype=float),
            "radius": float(p["radius"]),
            "fixed": np.array(p["fixed_re"]) + 1j * np.array(p["fixed_im"]),
        }
    return out


def receiver_center(d_m, theta_deg):
    """Receiver loop center at distance d and angle theta from broadside (z)."""
    t = math.radians(theta_deg)
    return np.array([d_m * math.sin(t), 0.0, d_m * math.cos(t)])


@functools.lru_cache(maxsize=None)
def _gauss(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def _ring(centers, radius, nodes):
    """Gauss-Legendre nodes on loops parallel to the xy-plane.

    Returns points (P, n, 3), tangent vectors dl/dphi (n, 3) and weights (n,).
    """
    x, w = _gauss(nodes)
    phi = np.pi * (x + 1.0)
    ring = np.stack([radius * np.cos(phi), radius * np.sin(phi), np.zeros(nodes)], -1)
    tang = np.stack([-radius * np.sin(phi), radius * np.cos(phi), np.zeros(nodes)], -1)
    pts = np.asarray(centers, dtype=float)[:, None, :] + ring[None]
    return pts, tang, np.pi * w


def neumann_mutual(center_a, radius_a, centers_b, radius_b, nodes=NEUMANN_NODES):
    """Mutual inductance of one loop with each of many loops, fixed rule.

    Plain Neumann double line integral mu0/4pi oint oint dl.dl'/r with a
    fixed ``nodes`` x ``nodes`` Gauss-Legendre rule.  Exact to rounding for
    loops a few radii apart (transmitter-receiver pairs); tangent or
    closely stacked pairs need an adaptive rule and are not handled here.
    """
    pa, ta, wa = _ring([center_a], radius_a, nodes)
    pb, tb, wb = _ring(centers_b, radius_b, nodes)
    diff = pa[:, :, None, :] - pb[:, None, :, :]
    r = np.sqrt(np.einsum("pijk,pijk->pij", diff, diff))
    weight = (wa[:, None] * wb[None, :]) * (ta @ tb.T)
    return MU0 / (4.0 * np.pi) * np.einsum("ij,pij->p", weight, 1.0 / r)


def radiation_kernels(center_a, radius_a, centers_b, radius_b, frequency):
    """Mutual radiation resistance and correction to M, one loop to many.

    Returns (r_mut, dm), arrays over ``centers_b``.  Both kernels are entire
    functions of r, so the fixed 32-node tensor rule is exact to rounding,
    self terms included (sin(kr)/r -> k at r = 0).
    """
    k = 2.0 * np.pi * frequency / C0
    omega = 2.0 * np.pi * frequency
    pa, ta, wa = _ring([center_a], radius_a, RADIATION_NODES)
    pb, tb, wb = _ring(centers_b, radius_b, RADIATION_NODES)
    diff = pa[:, :, None, :] - pb[:, None, :, :]
    r = np.sqrt(np.einsum("pijk,pijk->pij", diff, diff))
    kr = k * r
    safe = np.where(r > 0.0, r, 1.0)
    sin_ker = np.where(r > 0.0, np.sin(kr) / safe, k)
    cos_ker = np.where(r > 0.0, (np.cos(kr) - 1.0) / safe, 0.0)
    weight = (wa[:, None] * wb[None, :]) * (ta @ tb.T)
    pref = MU0 / (4.0 * np.pi)
    r_mut = omega * pref * np.einsum("ij,pij->p", weight, sin_ker)
    dm = pref * np.einsum("ij,pij->p", weight, cos_ker)
    return r_mut, dm


def _retarded_fixed(p):
    """Transmitter block and receiver self-impedance of the retarded model."""
    z = p["fixed"].copy()
    n = z.shape[0]
    omega = 2.0 * np.pi * p["frequency"]
    lam = C0 / p["frequency"]
    radius = p["radius"]
    r_small = 20.0 * np.pi**2 * (2.0 * np.pi * radius / lam) ** 4
    centers = list(p["centers"]) + [np.zeros(3)]  # self terms need no position
    for i in range(n):
        r_self, _ = radiation_kernels(centers[i], radius, [centers[i]], radius, p["frequency"])
        z[i, i] += r_self[0] - r_small
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            r_mut, dm = radiation_kernels(
                centers[i], radius, [centers[j]], radius, p["frequency"]
            )
            z[i, j] += r_mut[0] + 1j * omega * dm[0]
            z[j, i] = z[i, j]
    return z


def retarded_matrices(p, points):
    """Complex impedance matrices of one preset at (theta_deg, d_frac) points."""
    lam = C0 / p["frequency"]
    omega = 2.0 * np.pi * p["frequency"]
    radius = p["radius"]
    base = _retarded_fixed(p)
    rx = np.array([receiver_center(d * lam, theta) for theta, d in points])
    out = np.repeat(base[None], len(points), axis=0)
    for i, c in enumerate(p["centers"]):
        m = neumann_mutual(c, radius, rx, radius)
        r_mut, dm = radiation_kernels(c, radius, rx, radius, p["frequency"])
        z_tr = r_mut + 1j * (omega * m + omega * dm)
        out[:, i, -1] = z_tr
        out[:, -1, i] = z_tr
    return out


def retarded_points(seed):
    """The (theta_deg, d_frac) points of one retarded family for a seed."""
    thetas = np.array(THETAS)
    ds = np.full(thetas.shape, RETARDED_D)
    if seed:
        rng = np.random.default_rng([seed, 1])
        thetas = thetas + rng.uniform(-THETA_JITTER_DEG, THETA_JITTER_DEG, thetas.size)
        ds = ds * (1.0 + rng.uniform(-D_JITTER_REL, D_JITTER_REL, ds.size))
    return [(float(t), float(d)) for t, d in zip(thetas, ds)]


def quasi_static_grid(seed):
    """(theta START:STOP:STEP text, distances) for the quasi-static sweep.

    The grid stays mirror-symmetric, theta_k = step * (k - 45) exactly, as a
    user's -90:90 sweep is: the loop model makes +-theta bitwise alike, so
    half the receiver couplings repeat within a sweep whatever the seed.  A
    seed shrinks the step by up to 1 % (a dyadic amount, so every angle and
    its mirror image stay exact) and moves each distance by up to +-2 %.
    """
    step, distances = 2.0, QS_DISTANCES
    if seed:
        rng = np.random.default_rng([seed, 2])
        step -= int(rng.integers(1, 21)) / 1024.0
        distances = tuple(
            float(d * (1.0 + rng.uniform(-D_JITTER_REL, D_JITTER_REL))) for d in distances
        )
    half = step * ((len(THETAS) - 1) // 2)
    return f"{-half!r}:{half!r}:{step!r}", distances


def matrix_doc(z, frequency):
    return {
        "frequency_hz": frequency,
        "n_ports": int(z.shape[0]),
        "re": z.real.tolist(),
        "im": z.imag.tolist(),
    }


def retarded_families(seed, presets=None):
    """{preset: [{theta_deg, d_frac, matrix}]} in the CLI's family format."""
    presets = presets or load_presets()
    points = retarded_points(seed)
    out = {}
    for name in PRESETS:
        p = presets[name]
        mats = retarded_matrices(p, points)
        out[name] = [
            {"theta_deg": t, "d_frac": d, "matrix": matrix_doc(z, p["frequency"])}
            for (t, d), z in zip(points, mats)
        ]
    return out


def write_families(seed, out_dir):
    """Write one ``<preset>.json`` family file per preset; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, points in retarded_families(seed).items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"points": points}, fh)
        paths[name] = path
    return paths


def refresh_presets(path=PRESETS_FILE):
    """Rebuild ``presets.json`` from the program's quasi-static loop model."""
    from wptopt.circuit import PRESET_FREQUENCY, GeometrySpec, build_loop_system

    lam = C0 / PRESET_FREQUENCY
    doc = {}
    for name in PRESETS:
        geom = GeometrySpec.preset(name, RETARDED_D * lam)
        z = np.array(build_loop_system(geom).entries)
        z[:-1, -1] = z[-1, :-1] = 0.0  # the receiver couplings are made per point
        (radius,) = {lp.radius for lp in geom.loops}
        doc[name] = {
            "frequency_hz": geom.frequency,
            "radius": radius,
            "tx_centers": [list(lp.center) for lp in geom.loops[:-1]],
            "fixed_re": z.real.tolist(),
            "fixed_im": z.imag.tolist(),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"presets": doc}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="directory for the retarded family files")
    ap.add_argument(
        "--refresh-presets", action="store_true", help="rebuild presets.json from src/"
    )
    args = ap.parse_args(argv)
    if args.refresh_presets:
        refresh_presets()
        print(PRESETS_FILE)
    if args.out:
        for path in write_families(args.seed, args.out).values():
            print(path)


if __name__ == "__main__":
    main()
