"""Quasi-static circuit models of magnetically coupled loop systems.

A link made of N single-turn loops (N-1 transmitters plus one receiver,
receiver last) is described by its N-port impedance matrix::

    Z[n, n] = R_n + j omega L_n        loop resistance and self-inductance
    Z[n, m] = j omega M_nm             mutual coupling, n != m

Loop parameters come from standard thin-wire formulas (self-inductance,
skin-effect and radiation resistance); mutual inductances are Neumann
line integrals evaluated with the azimuthal integration done in closed
form (loop vector potential, complete elliptic integrals) and the
remaining integral by adaptive Gauss-Legendre panels.  The elliptic
integrals enter through one kernel, evaluated from a power series at small
parameter and a fitted log-polynomial form elsewhere (`tools/fit_wm.py`),
so numpy is the only dependency.  :func:`build_loop_systems` builds many
arrangements in one quadrature pass: the first stage of every distinct loop
pair it has not cached is evaluated in a few large integrand calls, and
only a pair whose error estimate fails goes on to adaptive refinement, one
integrand call per split.  The panel sums stay separate dot products, so M
is bit for bit what a panel-at-a-time loop over that pair alone gives.

:func:`build_preset_systems` is the batched path of a preset sweep.  It
builds the preset's transmitter loops, their self-impedances and their
pairwise keys once, and per point only the receiver loop, its overlap test
against the transmitters and its transmitter-receiver keys.  Each matrix is
bit for bit what :meth:`GeometrySpec.preset` and :func:`build_loop_system`
give at its point.  Both builders end alike: the matrices of arrangements
with the same number of loops are assembled as one (K, N, N) stack and
checked by one stacked :func:`checked_entries`, whose one-matrix call is
the K = 1 case.  Matrices can also be ingested from JSON files, e.g. when
they come from a full-wave solver; each file is checked on its own.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import json
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

MU0 = 4.0e-7 * np.pi
C0 = 299792458.0

#: preset names understood by :meth:`GeometrySpec.preset`
PRESETS = ("siso", "miso-2p", "miso-3p", "miso-2c", "miso-3c")

#: preset defaults: 40 MHz link, loop radius lambda/100, wire radius a tenth
#: of that, copper conductivity
PRESET_FREQUENCY = 40.0e6
PRESET_CONDUCTIVITY = 5.8e7

MAX_COORDINATE = 1e150  # metres; loop-centre separations below 3.5e150 square finitely


class GeometryError(ValueError):
    """Invalid loop geometry (overlapping or degenerate loops)."""


class PassivityError(ValueError):
    """Impedance matrix is not strictly passive."""


class SchemaError(ValueError):
    """Malformed impedance matrix or impedance file."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Loop:
    """Circular wire loop parallel to the xy-plane.

    Parameters
    ----------
    center : tuple of float
        Loop center (x, y, z) in meters.
    radius : float
        Loop radius in meters.
    wire_radius : float
        Wire radius in meters; must be smaller than ``radius``.
    conductivity : float
        Wire conductivity in S/m.
    """

    center: tuple[float, float, float]
    radius: float
    wire_radius: float
    conductivity: float = PRESET_CONDUCTIVITY

    def __post_init__(self):
        if len(self.center) != 3:
            raise GeometryError("loop center must be a 3-vector")
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        if not all(abs(v) <= MAX_COORDINATE for v in self.center):
            raise GeometryError(
                f"loop center must be finite and at most {MAX_COORDINATE:g} m from the "
                f"origin along each axis, got {self.center}"
            )
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError(f"loop radius must be positive, got {self.radius}")
        if not (0.0 < self.wire_radius < self.radius):
            raise GeometryError(
                f"wire radius must lie in (0, radius), got {self.wire_radius}"
            )
        if not (self.conductivity > 0.0):
            raise GeometryError("conductivity must be positive")


@dataclass(frozen=True)
class GeometrySpec:
    """A set of transmitter loops plus one receiver loop (last entry).

    Use :meth:`preset` for the built-in arrangements or supply the loop
    list directly.  All loops are parallel to the xy-plane.
    """

    loops: tuple[Loop, ...]
    frequency: float = PRESET_FREQUENCY

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        if len(self.loops) < 2:
            raise GeometryError("need at least one transmitter and one receiver loop")
        if not (self.frequency > 0.0):
            raise GeometryError("frequency must be positive")
        _check_no_overlap(self.loops)

    @property
    def n_ports(self) -> int:
        return len(self.loops)

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @classmethod
    def preset(
        cls,
        name: str,
        distance: float,
        angle: float = 0.0,
        frequency: float = PRESET_FREQUENCY,
    ) -> "GeometrySpec":
        """Build one of the canonical arrangements.

        Parameters
        ----------
        name : str
            One of ``siso`` (single transmitter), ``miso-2p``/``miso-3p``
            (2 or 3 transmitters side by side along x, spacing lambda/50)
            or ``miso-2c``/``miso-3c`` (coaxial stack along z, spacing
            lambda/100).
        distance : float
            Receiver distance from the array center, meters.
        angle : float
            Receiver direction measured from the z-axis (broadside),
            radians.  The receiver center sits at
            ``d (sin angle, 0, cos angle)``.
        frequency : float
            Operating frequency in Hz; sets the loop dimensions.
        """
        centers, r_loop, a = _preset_layout(name, frequency)
        rx = _receiver_center(distance, angle)
        loops = [Loop(c, r_loop, a) for c in centers] + [Loop(rx, r_loop, a)]
        return cls(tuple(loops), frequency)


def _preset_layout(name, frequency):
    """A preset's transmitter centres, loop radius and wire radius."""
    lam = C0 / frequency
    r_loop = lam / 100.0
    a = r_loop / 10.0
    dx = lam / 50.0
    dz = lam / 100.0
    centers = {
        "siso": [(0.0, 0.0, 0.0)],
        "miso-2p": [(-dx / 2, 0.0, 0.0), (dx / 2, 0.0, 0.0)],
        "miso-3p": [(-dx, 0.0, 0.0), (0.0, 0.0, 0.0), (dx, 0.0, 0.0)],
        "miso-2c": [(0.0, 0.0, -dz / 2), (0.0, 0.0, dz / 2)],
        "miso-3c": [(0.0, 0.0, -dz), (0.0, 0.0, 0.0), (0.0, 0.0, dz)],
    }
    if name not in centers:
        raise GeometryError(f"unknown preset {name!r}; choose from {PRESETS}")
    return centers[name], r_loop, a


def _receiver_center(distance, angle):
    """A preset receiver's centre, d (sin angle, 0, cos angle)."""
    if not (0.0 < distance < math.inf):
        raise GeometryError(
            f"receiver distance must be positive and finite, got {distance}"
        )
    if not math.isfinite(angle):
        raise GeometryError(f"receiver angle must be finite, got {angle}")
    return (distance * math.sin(angle), 0.0, distance * math.cos(angle))


def _check_no_overlap(loops) -> None:
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            _check_pair(i, j, loops[i], loops[j])


def _check_pair(i, j, a, b) -> None:
    """GeometryError if loops i and j coincide or cross."""
    dzij = a.center[2] - b.center[2]
    rho = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
    scale = a.radius + b.radius
    if abs(dzij) > 1e-9 * scale:
        return  # distinct planes never intersect
    if rho < 1e-9 * scale and abs(a.radius - b.radius) < 1e-9 * scale:
        raise GeometryError(
            f"loops {i} and {j} are coincident (same center and radius)"
        )
    overlap = (a.radius + b.radius) - rho
    nested = abs(a.radius - b.radius) - rho
    # exact tangency is allowed (the planar presets need it), true
    # crossings are not
    if overlap > 1e-9 * scale and nested < -1e-9 * scale:
        raise GeometryError(
            f"coplanar loops {i} and {j} intersect "
            f"(center distance {rho:.6g} m, radii {a.radius:.6g}"
            f"/{b.radius:.6g} m)"
        )


# ---------------------------------------------------------------------------
# loop electrical parameters
# ---------------------------------------------------------------------------

def loop_self_inductance(loop: Loop) -> float:
    """Thin-wire self-inductance mu0 r (ln(8r/a) - 2)."""
    return MU0 * loop.radius * (math.log(8.0 * loop.radius / loop.wire_radius) - 2.0)


def loop_resistance(loop: Loop, omega: float, wavelength: float) -> float:
    """Skin-effect plus radiation resistance of a single-turn loop."""
    surface = math.sqrt(omega * MU0 / (2.0 * loop.conductivity))
    r_ohmic = (loop.radius / loop.wire_radius) * surface
    circumference = 2.0 * np.pi * loop.radius
    r_rad = 20.0 * np.pi**2 * (circumference / wavelength) ** 4
    return r_ohmic + r_rad


# ---------------------------------------------------------------------------
# mutual inductance quadrature
# ---------------------------------------------------------------------------

_N_LO, _N_HI = 12, 24  # the embedded Gauss-Legendre pair of every panel
_FIRST_PANELS = 8  # panels of the first stage on every range
_MAX_PANELS = 4000
_RTOL = 1e-10  # relative tolerance of every mutual inductance
_DELTA = 0.5  # near-tangent pairs: graded on [0, delta], plain on [delta, pi]
_CHUNK_NODES = 2048  # nodes per first-stage integrand call, at most; bounds peak RSS
_CACHE_SIZE = 8192  # pair keys kept, least recently used out first


@functools.cache
def _rule():
    """Nodes of both rules on [-1, 1], 12 then 24, and the two weight
    vectors; built on first use, since numpy.polynomial is slow to import."""
    x_lo, w_lo = np.polynomial.legendre.leggauss(_N_LO)
    x_hi, w_hi = np.polynomial.legendre.leggauss(_N_HI)
    return np.concatenate([x_lo, x_hi]), w_lo, w_hi


def _series_coeffs(kmax: int = 14) -> np.ndarray:
    # w(m) = [(2-m)K - 2E]/m = (pi/2) sum_{k>=2} d_k m^{k-1}
    c = np.zeros(kmax + 1)
    c[0] = 1.0
    for k in range(1, kmax + 1):
        c[k] = c[k - 1] * ((2 * k - 1) / (2 * k)) ** 2
    d = np.zeros(kmax + 1)
    for k in range(2, kmax + 1):
        d[k] = c[k] * 4 * k / (2 * k - 1) - c[k - 1]
    return d


_WM_SERIES = _series_coeffs()


# [(2-m)K - 2E]/m**2 = A(p) - log(p) B(p) on p = 1 - m in [0, 0.95]: the Cody
# form of K and E (Math. Comp. 19, 1965; Cephes ellpk/ellpe) fitted to the
# quotient itself, which avoids the cancellation of (2-m)K - 2E at small m.
# Coefficients in increasing powers of p, from `tools/fit_wm.py` (relative
# error 5e-17; 1e-14 after rounding, against 1.7e-12 for scipy's K and E).
_WM_A = (
    -0.613705638880109,
    -0.6308376874179643,
    -0.6341212911478412,
    -0.6352218809791073,
    -0.6342066384692662,
    -0.5996288530510945,
    -0.2923564739913972,
    0.7540007833980616,
    1.825991753237785,
    1.3300750948390956,
    0.31100127202560424,
    0.015359101285591892,
)
_WM_B = (
    0.5,
    1.124999999993098,
    1.7578124854255652,
    2.3925735243880792,
    3.027710938365374,
    3.651781952834638,
    4.141429222867191,
    3.9762677112002214,
    2.604107819636519,
    0.8925036996794604,
    0.11663769365176387,
    0.003159729501600177,
)
_WM_AB = np.array([_WM_A, _WM_B])


def _w_over_m(m: np.ndarray, one_minus_m: np.ndarray) -> np.ndarray:
    """[(2-m)K(m) - 2E(m)] / m**2, stable at both ends of m in [0, 1].

    The direct expression cancels catastrophically for small m and K(m)
    needs the complementary parameter near m = 1; both regimes matter
    (far pairs, tangent pairs).  Small m takes the power series, the rest
    the fitted log-polynomial form.  The fitted form runs on the whole
    array and is then overwritten where m is small, which spares the
    masked copies whenever no m is.
    """
    small = m < 0.05
    if small.all():
        return _wm_series(m)
    p = np.maximum(one_minus_m, 5e-324).ravel()
    # rows p**0 .. p**11, then A and B in one matrix product
    powers = np.empty((_WM_AB.shape[1], p.size))
    powers[0] = 1.0
    powers[1] = p
    for k in range(2, len(powers)):
        np.multiply(powers[k - 1], p, out=powers[k])
    a, b = _WM_AB @ powers
    out = (a - np.log(p) * b).reshape(m.shape)
    if small.any():
        out[small] = _wm_series(m[small])
    return out


def _wm_series(m):
    """The small-m branch: (pi/2) sum_k d_k m^(k-2) by Horner's rule."""
    acc = np.zeros_like(m)
    for k in range(len(_WM_SERIES) - 1, 1, -1):
        acc = acc * m + _WM_SERIES[k]
    return 0.5 * np.pi * acc


def _pair_terms(ra, rb, rho, h):
    """The psi-free factors of the reduced Neumann integrand of one pair.

    Computed once per pair from Python floats: libm's ``x ** 2`` and numpy's
    square differ in the last bit on about one argument in a thousand, so a
    batch must not recompute these on arrays.
    """
    return (
        ra,
        rb,
        rho,
        h * h,
        (rho - rb) ** 2,
        4.0 * rho * rb,
        (ra + rb - rho) * (ra + rho - rb),
        4.0 * ra,
        MU0 * ra * rb / np.pi,
    )


def _neumann_reduced(psi, terms):
    """Neumann integrand after closed-form azimuthal integration.

    ``psi`` is measured from the closest-approach azimuth of the field
    loop; the full mutual inductance is 2 * integral over [0, pi].
    ``terms`` are one pair's `_pair_terms` as scalars, with values shaped
    as ``psi``, or the terms of many pairs as (pairs, 1) columns, with
    values of shape (pairs, nodes): the functions of psi alone are then
    computed once for all of them.
    """
    ra, rb, rho, h2, rho_rb2, c_s2, c_diff, ra4, scale = terms
    s2 = np.sin(0.5 * psi) ** 2
    rf = np.sqrt(rho_rb2 + c_s2 * s2)
    S2 = (ra + rf) ** 2 + h2
    # ra - rf in product form: exact at tangency, no cancellation
    diff2 = c_diff - c_s2 * s2
    one_minus_m = ((diff2 / (ra + rf)) ** 2 + h2) / S2
    m = np.minimum(ra4 * rf / S2, 1.0)
    wm = _w_over_m(m, one_minus_m)
    return scale * wm * (ra4 / S2) * (rb - rho * np.cos(psi)) / np.sqrt(S2)


def _graded(s, terms):
    """The integrand of a near-tangent pair on psi = delta s**4, s in [0, 1]:
    the graded substitution tames the log singularity at psi = 0."""
    return _neumann_reduced(_DELTA * s**4, terms) * 4.0 * _DELTA * s**3


def _stage(f, a, b, terms):
    """(lo, hi) rule sums over the panels [a[i], b[i]], of shape (pairs,
    panels): of one pair with scalar ``terms`` (pairs = 1), or of many with
    (pairs, 1) columns.

    The nodes of the panels are made once, with shape (nodes,), and one
    call of ``f`` covers every pair.  Each panel's sum is its own dot
    product over a contiguous slice of the values, in the same order as a
    panel-at-a-time loop: a matrix product could sum in another order and
    move the last bit of M.
    """
    x, w_lo, w_hi = _rule()
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    psi = (xm[:, None] + xr[:, None] * x).ravel()
    vals = f(psi, terms).reshape(-1, len(a), x.size)
    return xr * np.vecdot(vals[..., :_N_LO], w_lo), xr * np.vecdot(vals[..., _N_LO:], w_hi)


def _refine(f, terms, edges, lo, hi, total, err, rtol, atol):
    """Globally adaptive continuation of one range from its first-stage
    panels (``edges``, rule sums ``lo``/``hi``, their ``total`` and ``err``):
    split the panel with the largest error estimate until the estimate meets
    the tolerance.  Returns (integral, error estimate)."""
    heap = [(-e, i, (edges[i], edges[i + 1], hi[i], e)) for i, e in enumerate(abs(hi - lo))]
    heapq.heapify(heap)
    uid = panels = len(heap)
    while err > max(rtol * abs(total), atol) and panels < _MAX_PANELS and heap:
        _, _, (a, b, hi, e) = heapq.heappop(heap)
        total -= hi
        err -= e
        mid = 0.5 * (a + b)
        halves = ((a, mid), (mid, b))
        lo2, hi2 = _stage(f, np.array([a, mid]), np.array([mid, b]), terms)
        for (s, t), l2, h2 in zip(halves, lo2[0], hi2[0]):
            total += h2
            e2 = abs(h2 - l2)
            err += e2
            heapq.heappush(heap, (-e2, uid, (s, t, h2, e2)))
            uid += 1
        panels += 1
    return total, err


# the ranges of the outer integral: (graded integrand?, start, end)
_FULL = (False, 0.0, np.pi)
_NEAR = (True, 0.0, 1.0)  # [0, delta] in psi = delta s**4
_REST = (False, _DELTA, np.pi)


def _first_stage(kind, rows, terms, columns, atol, rtol):
    """(integral, error estimate) arrays of one range kind over the keys
    ``rows``, each with absolute tolerance ``atol``.

    The first stage, 8 panels on the range, runs for `_CHUNK_NODES` // 288
    keys per `_stage` call, on the (9, keys, 1) ``columns`` of their
    `_pair_terms`; its tolerance test runs on the whole arrays.  A key that
    fails the test is refined alone, from the scalar ``terms`` of its pair.
    """
    graded, x0, x1 = kind
    f = _graded if graded else _neumann_reduced
    edges = np.linspace(x0, x1, _FIRST_PANELS + 1)
    chunk = max(1, _CHUNK_NODES // (_FIRST_PANELS * (_N_LO + _N_HI)))
    stages = [
        _stage(f, edges[:-1], edges[1:], tuple(columns[:, rows[c0:c0 + chunk]]))
        for c0 in range(0, len(rows), chunk)
    ]
    lo, hi = (np.concatenate(sums) for sums in zip(*stages))
    total = err = 0.0
    for i in range(_FIRST_PANELS):  # in panel order, as one range alone sums
        total = total + hi[:, i]
        err = err + abs(hi[:, i] - lo[:, i])
    for j in np.flatnonzero(err > np.maximum(rtol * abs(total), atol)).tolist():
        k = rows[j]
        total[j], err[j] = _refine(
            f, terms[k], edges, lo[j], hi[j], total[j], err[j], rtol, atol[j]
        )
    return total, err


def _quadrature(keys, rtol):
    """Mutual inductances of distinct (ra, rb, rho, h) pair keys.

    The outer Neumann integral runs over [0, pi], or for a near-tangent pair
    over [0, delta] graded and [delta, pi] plain.  The first stage of every
    range, 8 panels, is taken by `_first_stage` for all ranges of one kind
    together: each integrand call covers up to `_CHUNK_NODES` values, on
    nodes shared by all its pairs.  Only a range whose error estimate then
    fails the tolerance goes on to `_refine`.  Each value is bit for bit
    what a panel-at-a-time adaptive quadrature of its pair alone gives.
    """
    terms = [_pair_terms(*key) for key in keys]
    near = []
    for ra, rb, rho, h in keys:
        rf0 = abs(rho - rb)
        p0 = ((ra - rf0) ** 2 + h * h) / ((ra + rf0) ** 2 + h * h)
        # near-tangent pair: graded substitution tames the log singularity
        # at psi = 0
        near.append(p0 < 1e-5)
    near = np.array(near, dtype=bool)
    arr = np.array(keys, dtype=float).reshape(-1, 4)
    atol = 1e-15 * MU0 * np.minimum(arr[:, 0], arr[:, 1])
    columns = np.array(terms, dtype=float).reshape(-1, 9).T[:, :, None]
    full, tangent = np.flatnonzero(~near), np.flatnonzero(near)
    total, err = np.empty(len(keys)), np.empty(len(keys))
    if full.size:
        total[full], err[full] = _first_stage(_FULL, full, terms, columns, atol[full], rtol)
    if tangent.size:
        half = atol[tangent] / 2
        t_near, e_near = _first_stage(_NEAR, tangent, terms, columns, half, rtol)
        t_rest, e_rest = _first_stage(_REST, tangent, terms, columns, half, rtol)
        total[tangent], err[tangent] = t_near + t_rest, e_near + e_rest
    values = 2.0 * total
    for k in np.flatnonzero(
        2.0 * err > np.maximum(10.0 * rtol * abs(values), 10.0 * atol)
    ).tolist():
        warnings.warn(
            f"mutual inductance quadrature stopped at estimated relative error "
            f"{2.0 * err[k] / max(abs(values[k]), atol[k]):.2e}",
            RuntimeWarning,
            stacklevel=4,
        )
    return list(values)


_cache = collections.OrderedDict()  # (ra, rb, rho, h) -> M, oldest use first
_cache_lock = threading.Lock()


def _mutual_values(keys):
    """M of every pair key, read from the cache or computed in one
    `_quadrature` pass to `_RTOL` over the distinct keys it lacks, which then
    fill it."""
    found = {}
    with _cache_lock:
        for key in keys:
            if key not in found and key in _cache:
                _cache.move_to_end(key)
                found[key] = _cache[key]
    missing = [key for key in dict.fromkeys(keys) if key not in found]
    if missing:
        found.update(zip(missing, _quadrature(missing, _RTOL)))
        with _cache_lock:
            for key in missing:
                _cache[key] = found[key]
            while len(_cache) > _CACHE_SIZE:
                _cache.popitem(last=False)
    return [found[key] for key in keys]


def _pair_key(loop_a: Loop, loop_b: Loop):
    dz = abs(loop_a.center[2] - loop_b.center[2])
    rho = math.hypot(
        loop_a.center[0] - loop_b.center[0], loop_a.center[1] - loop_b.center[1]
    )
    ra, rb = sorted((loop_a.radius, loop_b.radius))
    # canonical argument order keeps Z exactly symmetric and makes the
    # mirror/rotation symmetries structural
    return ra, rb, rho, dz


def mutual_inductance(loop_a: Loop, loop_b: Loop) -> float:
    """Mutual inductance of two parallel circular loops, in henries.

    Evaluates the Neumann double line integral with the inner (source
    loop) integral in closed form and the outer one by adaptive
    Gauss-Legendre quadrature to relative tolerance `_RTOL`.
    """
    return _mutual_values([_pair_key(loop_a, loop_b)])[0]


# ---------------------------------------------------------------------------
# impedance matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpedanceMatrix:
    """Symmetric N-port impedance matrix of an unloaded link.

    The last port is the receiver.  ``entries`` is complex, exactly
    symmetric as stored, with positive-definite real part (strictly
    passive, lossy).
    """

    entries: np.ndarray
    frequency: float

    def __post_init__(self):
        z = checked_entries(self.entries)
        z.flags.writeable = False
        object.__setattr__(self, "entries", z)
        object.__setattr__(self, "frequency", float(self.frequency))
        if not self.frequency > 0.0:
            raise SchemaError("frequency must be positive")

    @classmethod
    def _checked(cls, entries, frequency: float) -> "ImpedanceMatrix":
        """The link of entries and a frequency that have passed the checks
        of `__post_init__`, without running them again."""
        link = object.__new__(cls)
        object.__setattr__(link, "entries", entries)
        object.__setattr__(link, "frequency", frequency)
        return link

    @property
    def n_ports(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.n_ports - 1

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.frequency


def checked_entries(entries, stacked=False) -> np.ndarray:
    """Complex copy of an impedance matrix's entries after the checks every
    link must pass: square with at least two ports, symmetric as stored,
    finite and strictly passive.  Raises SchemaError or PassivityError.

    With ``stacked``, ``entries`` is a (K, N, N) stack checked at once (one
    matrix is the K = 1 case), and the first failing matrix raises the
    error it raises alone.  A stack that is already a complex array is
    returned as it is, not copied."""
    z = np.array(entries, dtype=complex, copy=None if stacked else True)
    stack = z if stacked else z[None]
    shape = stack.shape[1:]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise SchemaError(f"impedance matrix must be square, got shape {shape}")
    if shape[0] < 2:
        raise SchemaError("need at least 2 ports (one transmitter, one receiver)")
    symmetric = (stack == stack.mT).all(axis=(1, 2))  # False on NaN, as array_equal
    finite = np.isfinite(stack.view(float)).all(axis=(1, 2))
    ok = symmetric & finite
    # the passivity test, on an identity in place of a matrix that failed
    real = stack.real if ok.all() else np.where(ok[:, None, None], stack.real, np.eye(shape[0]))
    eig_min = np.linalg.eigvalsh(real)[:, 0]
    failed = ~ok | (eig_min <= 0.0)
    if failed.any():
        k = failed.argmax()
        if not symmetric[k]:
            raise SchemaError("impedance matrix must be symmetric as stored")
        if not finite[k]:
            raise SchemaError("impedance matrix contains non-finite entries")
        raise PassivityError(
            f"impedance matrix is not strictly passive: Re(Z) has eigenvalue "
            f"{eig_min[k]:.6g} <= 0"
        )
    return z


def matrix_bytes(z: ImpedanceMatrix) -> bytes:
    """The bytes that identify Z in a hash: its entries, then its frequency."""
    return np.ascontiguousarray(z.entries).tobytes() + np.float64(z.frequency).tobytes()


def partition(z: ImpedanceMatrix | np.ndarray):
    """Split Z into (Z_t, z_tr, z_r): transmit block, coupling column,
    receiver self-impedance."""
    m = z.entries if isinstance(z, ImpedanceMatrix) else np.asarray(z)
    return m[:-1, :-1], m[:-1, -1], m[-1, -1]


def _self_impedance(loop: Loop, omega: float, wavelength: float) -> complex:
    return loop_resistance(loop, omega, wavelength) + 1j * omega * loop_self_inductance(loop)


@functools.cache
def _loop_pairs(n):
    """The loop indices (i, j > i) of the pairs of n loops, in row-major
    order, as two read-only arrays."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _loop_systems(diag, omega, mutuals, frequencies) -> list[ImpedanceMatrix]:
    """The checked links of K arrangements of N loops at their frequencies.

    Z has the self-impedances ``diag`` ((N,) or (K, N)) on its diagonals and
    j omega M off them, from the (K, N(N-1)/2) mutual inductances of the
    `_loop_pairs`; ``omega`` is a scalar or a (K, 1) column.  The K matrices
    are assembled as one stack and checked by one stacked `checked_entries`,
    so the first failing arrangement raises its own error.
    """
    n = np.shape(diag)[-1]
    z = np.empty((len(mutuals), n, n), dtype=complex)
    i, j = _loop_pairs(n)
    z[:, i, j] = z[:, j, i] = 1j * omega * mutuals
    z[:, range(n), range(n)] = diag
    try:
        checked_entries(z, stacked=True)
    except PassivityError as exc:
        raise PassivityError(f"constructed loop system failed validation: {exc}") from exc
    z.flags.writeable = False
    return [ImpedanceMatrix._checked(entries, float(f)) for entries, f in zip(z, frequencies)]


def build_loop_systems(geoms) -> list[ImpedanceMatrix]:
    """Impedance matrices of loop arrangements at their design frequencies.

    The mutual inductances of all arrangements come from one quadrature
    pass over the distinct loop pairs the cache lacks; each matrix is bit
    for bit what the arrangement alone gives.  ``geoms`` is read once and
    may be a generator, so the arrangements need not all be held at once.
    """
    index = {}  # distinct pair key -> its position
    shells = []  # per arrangement: frequency, omega, diagonal, pair positions
    for geom in geoms:
        omega = 2.0 * np.pi * geom.frequency
        loops = geom.loops
        diag = [_self_impedance(loop, omega, geom.wavelength) for loop in loops]
        pairs = [
            index.setdefault(_pair_key(a, b), len(index))
            for i, a in enumerate(loops)
            for b in loops[i + 1:]
        ]
        shells.append((geom.frequency, omega, diag, pairs))
    mutuals = np.array(_mutual_values(list(index)))
    systems = []
    # one stack per run of arrangements with the same number of loops, so
    # that the runs, and the arrangements in each, are checked in order
    for _, run in itertools.groupby(shells, key=lambda shell: len(shell[2])):
        frequency, omega, diag, pairs = zip(*run)
        systems += _loop_systems(
            np.array(diag), np.array(omega)[:, None], mutuals[list(pairs)], frequency
        )
    return systems


def build_loop_system(geom: GeometrySpec) -> ImpedanceMatrix:
    """Impedance matrix of a loop arrangement at its design frequency."""
    return build_loop_systems([geom])[0]


def build_preset_systems(name, points) -> list[ImpedanceMatrix]:
    """`build_loop_systems` of ``GeometrySpec.preset(name, distance, angle)``
    at each (distance, angle) of ``points``, bit for bit, raising what the
    first failing point raises.

    The transmitter loops, the self-impedances and the transmitter pairs'
    keys are made once.  Each point adds only its receiver loop, its overlap
    test against the transmitters and its transmitter-receiver keys.
    """
    frequency = PRESET_FREQUENCY
    centers, r_loop, a = _preset_layout(name, frequency)
    tx = tuple(Loop(c, r_loop, a) for c in centers)
    _check_no_overlap(tx)
    n = len(tx)
    index = {}  # distinct pair key -> its position
    tx_pairs = [
        index.setdefault(_pair_key(p, q), len(index)) for i, p in enumerate(tx) for q in tx[i + 1:]
    ]
    rx_pairs = []
    for distance, angle in points:
        rx = Loop(_receiver_center(distance, angle), r_loop, a)
        for i, loop in enumerate(tx):
            _check_pair(i, n, loop, rx)
        rx_pairs.append([index.setdefault(_pair_key(loop, rx), len(index)) for loop in tx])
    if not rx_pairs:
        return []
    omega = 2.0 * np.pi * frequency
    # every loop of a preset has one size, so one receiver stands for all
    diag = [_self_impedance(loop, omega, C0 / frequency) for loop in tx + (rx,)]
    _, j = _loop_pairs(n + 1)
    pairs = np.empty((len(rx_pairs), len(j)), dtype=np.intp)
    pairs[:, j < n] = tx_pairs
    pairs[:, j == n] = rx_pairs
    mutuals = np.array(_mutual_values(list(index)))
    return _loop_systems(diag, omega, mutuals[pairs], itertools.repeat(frequency))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def matrix_to_json(z: ImpedanceMatrix) -> dict:
    return {
        "frequency_hz": z.frequency,
        "n_ports": z.n_ports,
        "re": z.entries.real.tolist(),
        "im": z.entries.imag.tolist(),
    }


def matrix_from_json(doc: dict) -> ImpedanceMatrix:
    """Build an ImpedanceMatrix from its JSON document.

    Slight asymmetry (relative magnitude above 1e-9) is symmetrized with
    a warning; gross asymmetry (above 1e-3) is rejected.
    """
    try:
        freq = float(doc["frequency_hz"])
        n = int(doc["n_ports"])
        re = np.array(doc["re"], dtype=float)
        im = np.array(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed impedance document: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise SchemaError(
            f"impedance entries must be {n}x{n} to match n_ports, got "
            f"{re.shape} and {im.shape}"
        )
    z = re + 1j * im
    scale = np.abs(z).max() or 1.0
    asym = np.abs(z - z.T).max() / scale
    if asym > 1e-3:
        raise SchemaError(
            f"impedance matrix asymmetry {asym:.3e} exceeds 1e-3; refusing to "
            f"symmetrize a non-reciprocal matrix"
        )
    if asym > 1e-9:
        warnings.warn(
            f"symmetrizing impedance matrix with relative asymmetry {asym:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    if asym > 0.0:
        # averaging an already-symmetric matrix would still flip the signs
        # of negative zeros, breaking bit-stable round trips
        z = 0.5 * (z + z.T)
    return ImpedanceMatrix(z, freq)


def read_json(path):
    """The JSON document in a file; SchemaError when it is not valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def load_impedance_file(path) -> ImpedanceMatrix:
    return matrix_from_json(read_json(path))


def save_impedance_file(z: ImpedanceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(z), fh, indent=1)
        fh.write("\n")
