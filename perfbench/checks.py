"""Output checks computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
The reference figures come from numpy alone: the unconstrained minimum-loss
QP is solved here as a dense KKT system, and mutual inductances come from
the fixed-rule Neumann integral in ``families``.  ``self_test`` corrupts a
copy of real outputs and confirms the checks catch each corruption.
"""

import copy
import csv

import numpy as np

import families

TOL_QP = 1e-12  # closed-form eta against the independent QP, relative
TOL_POWER = -1e-9  # watts; lowest transmit power allowed on a constrained row
TOL_BALANCE = 1e-10  # |sum(p_t) * eta - 1| at 1 W received
TOL_TIGHT = 1e-8  # the paper's rank-one test on epsilon
TOL_MUTUAL = 1e-10  # program M against the fixed 64-node rule, relative ...
TOL_MUTUAL_ABS = 1e-13  # ... plus this share of the loop self-inductance
TOL_FIXED = 1e-12  # program Z block against presets.json, relative


def min_loss_eta(z, r_load):
    """Efficiency of the unconstrained minimum-loss design at ``r_load``.

    Variables are the realified transmit currents x = [Re i_t; Im i_t]; the
    receiver current is sqrt(2/R_L) (1 W into the load) and the only
    constraint is the real part of the receiver KVL.  The imaginary part is
    absorbed by the receiver reactance, which is free.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0] - 1
    rt, ztr, rr = z[:n, :n].real, z[:n, n], z[n, n].real
    i_r = np.sqrt(2.0 / r_load)
    d = np.zeros((2 * n, 2 * n))
    d[:n, :n] = d[n:, n:] = rt
    q = np.concatenate([i_r * ztr.real, np.zeros(n)])
    g = np.concatenate([ztr.real, -ztr.imag])
    kkt = np.zeros((2 * n + 1, 2 * n + 1))
    kkt[:-1, :-1] = d
    kkt[:-1, -1] = kkt[-1, :-1] = g
    rhs = np.concatenate([-q, [-(rr + r_load) * i_r]])
    x = np.linalg.solve(kkt, rhs)[:-1]
    p_loss = 0.5 * x @ d @ x + q @ x + 0.5 * rr * i_r * i_r
    return 1.0 / (1.0 + p_loss)


def read_sweep(path):
    """Rows of a sweep.csv with numbers parsed (shortest round-trip text)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for r in rows:
        powers = [float(v) for k, v in r.items() if k.startswith("p_t_")]
        out.append(
            {
                "theta_deg": float(r["theta_deg"]),
                "d_frac": float(r["d_frac"]),
                "status": r["status"],
                "skipped": r["skipped"] == "true",
                "tight": r["tight"] == "true",
                "epsilon": float(r["epsilon"]),
                "eta": float(r["eta"]),
                "r_load": float(r["r_load_ohm"]),
                "powers": powers,
            }
        )
    return out


def check_rows(rows):
    """Per-row checks on solved rows that carry their matrix under ``z``.

    Every row here is solved under nonnegative transmit powers.
    """
    bad = []
    for r in rows:
        label = r["label"]
        eta_qp = min_loss_eta(r["z"], r["r_load"])
        eta = r["eta"]
        if r["skipped"]:
            if not abs(eta - eta_qp) <= TOL_QP * eta_qp:
                bad.append(f"{label}: closed-form eta {eta!r} != QP {eta_qp!r}")
        else:
            if not eta <= eta_qp * (1.0 + TOL_QP):
                bad.append(f"{label}: SDR eta {eta!r} beats the unconstrained QP {eta_qp!r}")
            if not (r["tight"] and r["epsilon"] <= TOL_TIGHT):
                bad.append(f"{label}: not tight (tight={r['tight']}, eps={r['epsilon']!r})")
        if not min(r["powers"]) >= TOL_POWER:
            bad.append(f"{label}: negative transmit power {min(r['powers'])!r} W")
        balance = sum(r["powers"]) * eta - 1.0
        if not abs(balance) <= TOL_BALANCE:
            bad.append(f"{label}: power balance off by {balance!r}")
    return bad


def check_closed_form(rows):
    """Quasi-static points are closed-form feasible; none may reach the SDR."""
    return [
        f"{r['label']}: quasi-static row went to {r['status']!r}"
        for r in rows
        if not (r["skipped"] and r["status"] == "closed-form")
    ]


def check_load_search(rows):
    """The searched load is a maximum: no worse than R* (1 -+ 1 %).

    ``near`` on each row holds the program's efficiencies at those loads.
    """
    bad = []
    for r in rows:
        near = r["near"]
        if near is None or not r["eta"] >= max(near) * (1.0 - TOL_QP):
            bad.append(f"{r['label']}: eta {r['eta']!r} below a neighbour load {near}")
    return bad


def check_mutuals(rows, preset):
    """Program quasi-static matrices against presets.json and the fixed rule.

    Each row carries the program's matrix ``z`` for its angle and distance.
    The transmitter-receiver entries must be j omega M with M from the
    64-node rule, to ``TOL_MUTUAL`` relative plus ``TOL_MUTUAL_ABS`` of the
    loop self-inductance (near the coupling nulls M itself is tiny); the
    rest must equal the stored fixed part.  Transmitter pairs are not
    integrated here: adjacent ones are tangent or closely stacked and need
    an adaptive rule, so they are compared with presets.json only.
    """
    bad = []
    omega = 2.0 * np.pi * preset["frequency"]
    lam = families.C0 / preset["frequency"]
    l_self = preset["fixed"][-1, -1].imag / omega
    rx = [families.receiver_center(r["d_frac"] * lam, r["theta_deg"]) for r in rows]
    m_ref = [
        families.neumann_mutual(c, preset["radius"], rx, preset["radius"])
        for c in preset["centers"]
    ] if rows else []
    for k, r in enumerate(rows):
        z = r["z"]
        fixed = z.copy()
        fixed[:-1, -1] = fixed[-1, :-1] = 0.0
        dev = np.abs(fixed - preset["fixed"]).max() / np.abs(preset["fixed"]).max()
        if not dev <= TOL_FIXED:
            bad.append(f"{r['label']}: fixed block off by {dev:.3e}")
        for i, ref in enumerate(m_ref):
            m = z[i, -1].imag / omega
            if z[i, -1].real != 0.0 or not (
                abs(m - ref[k]) <= TOL_MUTUAL * abs(ref[k]) + TOL_MUTUAL_ABS * l_self
            ):
                bad.append(f"{r['label']} tx{i}: M {m!r} vs fixed rule {ref[k]!r}")
    return bad


def self_test(rows):
    """Corrupt one row at a time; every corruption must fail ``check_rows``.

    Returns a list of corruptions the checks missed (empty: all caught).
    Uses the first SDR row and the first closed-form row present.
    """
    missed = []
    picks = [r for r in rows if not r["skipped"]][:1] + [r for r in rows if r["skipped"]][:1]
    for row in picks:
        kind = "closed-form" if row["skipped"] else "SDR"
        neg = copy.deepcopy(row)
        k = int(np.argmax(neg["powers"]))
        neg["powers"][k] = -neg["powers"][k]
        if not check_rows([neg]):
            missed.append(f"{kind} row with one transmit power negated")
        up = copy.deepcopy(row)
        up["eta"] += 1e-6
        if not check_rows([up]):
            missed.append(f"{kind} row with eta raised by 1e-6")
    if not picks:
        missed.append("no row to corrupt")
    return missed
