"""Command-line front end for operating-point solves, sweeps and validation.

Subcommands
-----------
solve       one operating point (preset geometry or ingested matrix file)
sweep       theta sweep over a preset, or an ingested point family; writes
            sweep.csv plus polar-ready pattern CSVs and a provenance JSON
validate    identity and agreement battery over all presets
gen-matrix  serialize a preset impedance matrix to the JSON schema

Exit codes: 0 ok, 2 validation failure (bad arguments, schema or geometry
errors, failed validate battery), 3 solver failure (including a certified
infeasibility under power caps), 4 I/O failure.

Angles are degrees at this interface and radians internally.  Distances are
fractions of the operating wavelength.  Output files use a fixed column
order and shortest round-trip float formatting, so identical inputs produce
byte-identical files; every sweep row carries the load, constraint mode and
matrix hash needed to re-solve it in isolation.  Sweep rows are solved one
after another in input order.
"""

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from .circuit import (
    C0,
    PRESET_FREQUENCY,
    PRESETS,
    GeometryError,
    GeometrySpec,
    PassivityError,
    SchemaError,
    build_loop_system,
    hash_matrix,
    load_impedance_file,
    matrix_from_json,
    save_impedance_file,
)
from .closedform import max_pte, solve_closed_form, solve_min_loss_qp
from .oracle import verify_identities
from .pipeline import (
    PipelineOptions,
    RelaxationError,
    build_problem,
    cap_r,
    full_pipeline,
    optimize_load,
    result_record,
    solve_relaxation,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SWEEP_COLUMNS = (
    "theta_deg",
    "d_frac",
    "source",
    "matrix_sha256",
    "constraint_mode",
    "form",
    "r_load_ohm",
    "status",
    "skipped",
    "tight",
    "epsilon",
    "eta",
    "p_relax_w",
    "x_r_ohm",
    "c_r_farad",
    "delta_eta_db",
    "delta_cr_rel",
    "iterations",
)


class CommandError(Exception):
    """Input problem detected at the CLI level; maps to exit code 2."""


def _fmt(value) -> str:
    """One stable text form per value; floats print shortest round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "nan" if math.isnan(v) else repr(v)
    return str(value)


# ---------------------------------------------------------------- parsing


def _parse_rl(text: str):
    if text in ("auto", "optimize"):
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--rl takes 'auto', 'optimize' or a resistance in ohms, got {text!r}"
        )
    if not value > 0.0:
        raise argparse.ArgumentTypeError("load resistance must be positive")
    return value


def _parse_constraints(text: str):
    """Return (label, constrain_powers, caps)."""
    if text == "none":
        return text, False, None
    if text == "nonneg":
        return text, True, None
    if text.startswith("caps="):
        try:
            caps = tuple(float(tok) for tok in text[5:].split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad caps list in {text!r}; expected caps=<watts>,<watts>,..."
            )
        if not caps:
            raise argparse.ArgumentTypeError("caps list is empty")
        if not all(math.isfinite(cap) for cap in caps):
            raise argparse.ArgumentTypeError(f"caps must be finite, got {text!r}")
        return text, True, caps
    raise argparse.ArgumentTypeError(
        f"--constraints takes none, nonneg or caps=<w,...>, got {text!r}"
    )


def _parse_theta_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--theta-range takes START:STOP:STEP in degrees, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric theta range {text!r}")
    if step <= 0.0:
        raise argparse.ArgumentTypeError("theta step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("theta range is empty")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(n))


def _parse_d_list(text: str):
    try:
        ds = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--d takes wavelength fractions separated by commas, got {text!r}"
        )
    if not ds or any(not d > 0.0 for d in ds):
        raise argparse.ArgumentTypeError("distances must be positive")
    return ds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptopt",
        description="Optimal operating points of multiple-input wireless power links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--preset", choices=PRESETS, help="built-in loop arrangement")
    source.add_argument("--matrix", metavar="FILE", help="impedance matrix JSON file")

    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument(
        "--rl",
        type=_parse_rl,
        default="auto",
        help="load policy: auto (closed-form optimum), a value in ohms, or optimize",
    )
    opts.add_argument(
        "--constraints",
        type=_parse_constraints,
        default=_parse_constraints("nonneg"),
        help="transmit-power constraints: none, nonneg or caps=<w,...>",
    )
    opts.add_argument("--out", metavar="DIR", help="output directory")

    p_solve = sub.add_parser("solve", parents=[source, opts], help="one operating point")
    p_solve.add_argument("--d", type=float, default=0.1, help="distance in wavelengths")
    p_solve.add_argument("--theta", type=float, default=0.0, help="angle in degrees")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[source, opts], help="theta sweep")
    p_sweep.add_argument(
        "--d", type=_parse_d_list, default=(0.1,), help="distances in wavelengths, comma list"
    )
    p_sweep.add_argument(
        "--theta-range", type=_parse_theta_range, help="START:STOP:STEP in degrees"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="identity and agreement battery")
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen-matrix", help="write a preset impedance matrix")
    p_gen.add_argument("--preset", choices=PRESETS, required=True)
    p_gen.add_argument("--d", type=float, required=True, help="distance in wavelengths")
    p_gen.add_argument("--theta", type=float, default=0.0, help="angle in degrees")
    p_gen.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p_gen.set_defaults(func=cmd_gen_matrix)

    return parser


# ---------------------------------------------------------------- helpers


def _preset_system(name: str, d_frac: float, theta_deg: float):
    lam = C0 / PRESET_FREQUENCY
    geom = GeometrySpec.preset(name, d_frac * lam, angle=math.radians(theta_deg))
    return build_loop_system(geom)


def _load_family(path):
    """Ingested sweep family: list of {theta_deg, d_frac?, matrix} points."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("points", data)
    if not isinstance(data, list):
        raise SchemaError(
            "sweep ingestion needs a list of {theta_deg, matrix} points; "
            "single matrices are for `solve --matrix`"
        )
    points = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "matrix" not in entry or "theta_deg" not in entry:
            raise SchemaError(f"family point {k} needs 'theta_deg' and 'matrix' keys")
        z = matrix_from_json(entry["matrix"])
        points.append((float(entry["theta_deg"]), float(entry.get("d_frac", "nan")), z))
    return points


def _pipeline_options(args) -> PipelineOptions:
    _, constrain, caps = args.constraints
    return PipelineOptions(power_caps=caps, constrain_powers=constrain)


def _check_caps(caps, n_tx: int):
    if caps is not None and len(caps) != n_tx:
        raise CommandError(
            f"caps list has {len(caps)} entries but the system has {n_tx} transmitters"
        )


def _solve_point(z, rl_policy, opts: PipelineOptions):
    """Return (result, LoadSearch or None); the search only for 'optimize'."""
    if rl_policy == "optimize":
        search = optimize_load(z, options=opts)
        return search.result, search
    r_load = None if rl_policy == "auto" else float(rl_policy)
    return full_pipeline(z, r_load, opts), None


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------- solve


def _describe(
    res, search, z, source: str, theta_deg: float, d_frac: float, args
) -> str:
    cf = res.closed_form
    label, _, _ = args.constraints
    lines = [
        f"system        : {source}  ({z.n_tx} tx + 1 rx port)",
        f"operating pt  : theta = {_fmt(theta_deg)} deg, d = {_fmt(d_frac)} lambda",
        f"constraints   : {label}   path: {res.form}",
        f"R_L           : {_fmt(res.r_load)} ohm (policy: {args.rl})",
    ]
    if search is not None:
        lines.append(
            f"load search   : {search.method}, {search.evaluations} evaluations"
        )
    lines += [
        f"eta           : {_fmt(res.eta)}   loss at 1 W received: {_fmt(res.p_relax)} W",
        f"x_r           : {_fmt(res.x_r)} ohm   C_r: {_fmt(cap_r(res.x_r, z.omega))} F",
        "tx powers [W] : " + " ".join(_fmt(float(p)) for p in res.transmit_powers),
    ]
    if res.skipped:
        lines.append("status        : closed-form optimum already feasible; relaxation skipped")
    else:
        lines.append(
            f"status        : {res.status}, tight = {_fmt(res.tight)}, "
            f"eps = {_fmt(res.epsilon)}, iterations = {res.iterations}"
        )
        lines.append(
            f"vs closed form: delta_eta = {_fmt(res.delta_eta_db)} dB, "
            f"delta_Cr/Cr = {_fmt(res.delta_cr_rel)}"
        )
    if cf is not None and z.n_tx == 1:
        lines.append(
            f"siso figures  : U = {_fmt(cf.u)}, eta_max = {_fmt(cf.eta_max)}, "
            f"R_L* = {_fmt(cf.r_load_opt)} ohm"
        )
    return "\n".join(lines)


def _get_system(args):
    """Resolve the source flags into (z, source label, theta_deg, d_frac)."""
    if (args.preset is None) == (args.matrix is None):
        raise CommandError("pass exactly one of --preset or --matrix")
    if args.matrix is not None:
        z = load_impedance_file(args.matrix)
        return z, f"file:{args.matrix}", float("nan"), float("nan")
    theta = getattr(args, "theta", 0.0)
    z = _preset_system(args.preset, args.d, theta)
    return z, f"preset:{args.preset}", theta, args.d


def cmd_solve(args) -> int:
    z, source, theta_deg, d_frac = _get_system(args)
    _, _, caps = args.constraints
    _check_caps(caps, z.n_tx)
    opts = _pipeline_options(args)
    res, search = _solve_point(z, args.rl, opts)
    print(_describe(res, search, z, source, theta_deg, d_frac, args))
    record = result_record(res, z)
    record.update(
        {
            "source": source,
            "theta_deg": theta_deg,
            "d_frac": d_frac,
            "matrix_sha256": hash_matrix(hashlib.sha256(), z).hexdigest(),
            "constraint_mode": args.constraints[0],
            "form": res.form,
            "rl_policy": str(args.rl),
        }
    )
    if search is not None:
        record["load_search_method"] = search.method
        record["load_search_evaluations"] = search.evaluations
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        path = os.path.join(_ensure_out(args.out), "solve.json")
        _write_text(path, [text])
        print(f"record        : {path}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------- sweep


def _sweep_tasks(args):
    """Expand the source flags into ordered (theta_deg, d_frac, z) triples."""
    if (args.preset is None) == (args.matrix is None):
        raise CommandError("pass exactly one of --preset or --matrix")
    if args.matrix is not None:
        if args.theta_range is not None:
            raise CommandError(
                "--theta-range applies to presets; ingested families carry their own angles"
            )
        points = _load_family(args.matrix)
        source = f"file:{args.matrix}"
    else:
        if args.theta_range is None:
            raise CommandError("preset sweeps need --theta-range START:STOP:STEP")
        points = [
            (theta, d, _preset_system(args.preset, d, theta))
            for d in args.d
            for theta in args.theta_range
        ]
        source = f"preset:{args.preset}"
    if not points:
        raise CommandError("sweep is empty")
    n_tx = points[0][2].n_tx
    for _, _, z in points:
        if z.n_tx != n_tx:
            raise CommandError("all sweep points must have the same port count")
    return points, source, n_tx


def _sweep_row(theta_deg, d_frac, z, source, args, opts):
    """Solve one point; never raises.

    Returns (row dict, eta, total tx power, failure detail, per-port powers).
    """
    nan = float("nan")
    base = {
        "theta_deg": theta_deg,
        "d_frac": d_frac,
        "source": source,
        "matrix_sha256": hash_matrix(hashlib.sha256(), z).hexdigest(),
        "constraint_mode": args.constraints[0],
        "form": "",
    }
    try:
        res, _ = _solve_point(z, args.rl, opts)
    except RelaxationError as exc:
        row = _failed_row(base, f"error:{exc.status}")
        return row, None, None, str(exc), [nan] * z.n_tx
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        row = _failed_row(base, f"error:{type(exc).__name__}")
        return row, None, None, str(exc), [nan] * z.n_tx
    total = float(np.sum(res.transmit_powers))
    base.update(
        {
            "form": res.form,
            "r_load_ohm": res.r_load,
            "status": res.status,
            "skipped": res.skipped,
            "tight": res.tight,
            "epsilon": res.epsilon,
            "eta": res.eta,
            "p_relax_w": res.p_relax,
            "x_r_ohm": res.x_r,
            "c_r_farad": cap_r(res.x_r, z.omega),
            "delta_eta_db": res.delta_eta_db,
            "delta_cr_rel": res.delta_cr_rel,
            "iterations": res.iterations,
        }
    )
    powers = [float(p) for p in res.transmit_powers]
    return base, res.eta, total, None, powers


def _failed_row(base, status):
    nan = float("nan")
    base.update(
        {
            "r_load_ohm": nan,
            "status": status,
            "skipped": False,
            "tight": False,
            "epsilon": nan,
            "eta": nan,
            "p_relax_w": nan,
            "x_r_ohm": nan,
            "c_r_farad": nan,
            "delta_eta_db": nan,
            "delta_cr_rel": nan,
            "iterations": 0,
        }
    )
    return base


def cmd_sweep(args) -> int:
    points, source, n_tx = _sweep_tasks(args)
    mode_label, _, caps = args.constraints
    _check_caps(caps, n_tx)
    opts = _pipeline_options(args)
    outcomes = [_sweep_row(theta, d, z, source, args, opts) for theta, d, z in points]

    out_dir = _ensure_out(args.out or ".")
    power_cols = tuple(f"p_t_{k + 1}_w" for k in range(n_tx))
    header = ",".join(SWEEP_COLUMNS + power_cols)
    csv_lines = [header]
    failures = []
    for row, _, _, detail, powers in outcomes:
        if detail is not None:
            failures.append((row["theta_deg"], row["status"], detail))
        values = [row[c] for c in SWEEP_COLUMNS] + list(powers)
        csv_lines.append(",".join(_fmt(v) for v in values))
    _write_text(os.path.join(out_dir, "sweep.csv"), csv_lines)

    _write_patterns(out_dir, outcomes)
    provenance = {
        "columns": list(SWEEP_COLUMNS + power_cols),
        "constraint_mode": mode_label,
        "inputs_sha256": _sweep_hash(points, args),
        "n_rows": len(outcomes),
        "rl_policy": str(args.rl),
        "source": source,
        "version": _version(),
    }
    _write_text(
        os.path.join(out_dir, "sweep.json"),
        [json.dumps(provenance, indent=2, sort_keys=True)],
    )

    for theta, status, detail in failures:
        print(f"warning: theta={_fmt(theta)} deg failed ({status}): {detail}", file=sys.stderr)
    print(
        f"{len(outcomes)} rows -> {os.path.join(out_dir, 'sweep.csv')}"
        + (f"  ({len(failures)} failed)" if failures else "")
    )
    return EXIT_OK


def _write_patterns(out_dir, outcomes):
    """Polar-ready (theta, radius) files: efficiency and total transmit power."""
    ds = sorted({o[0]["d_frac"] for o in outcomes})
    split = len(ds) > 1 and all(math.isfinite(d) for d in ds)
    groups = {d: [] for d in ds} if split else {None: outcomes}
    if split:
        for o in outcomes:
            groups[o[0]["d_frac"]].append(o)
    for key, group in groups.items():
        tag = "" if key is None else f"_d{key:g}"
        eta_lines = ["theta_deg,radius"]
        pow_lines = ["theta_deg,radius"]
        for o in group:
            theta = o[0]["theta_deg"]
            eta = o[1] if o[1] is not None else float("nan")
            total = o[2] if o[2] is not None else float("nan")
            eta_lines.append(f"{_fmt(theta)},{_fmt(eta)}")
            pow_lines.append(f"{_fmt(theta)},{_fmt(total)}")
        _write_text(os.path.join(out_dir, f"pattern_eta{tag}.csv"), eta_lines)
        _write_text(os.path.join(out_dir, f"pattern_power{tag}.csv"), pow_lines)


def _sweep_hash(points, args) -> str:
    h = hashlib.sha256()
    for theta, d, z in points:
        h.update(np.float64(theta).tobytes())
        h.update(np.float64(d).tobytes())
        hash_matrix(h, z)
    h.update(repr((args.constraints[0], str(args.rl))).encode())
    return h.hexdigest()


def _version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------- validate


def _check(checks, name, passed, detail=""):
    checks.append((name, bool(passed), detail))


def cmd_validate(args) -> int:
    checks = []
    _check(
        checks,
        "spot:max-pte-u2",
        abs(max_pte(2.0) - 0.3819660112501051) <= 1e-12,
        "eta_max(U=2)",
    )
    for name in PRESETS:
        z = _preset_system(name, 0.1, 18.0)
        rep = verify_identities(z)
        _check(
            checks,
            f"{name}:identities",
            rep.all_pass,
            "; ".join(c.name for c in rep.failures()),
        )
        cf = solve_closed_form(z)
        _, p_qp, _ = solve_min_loss_qp(z, cf.r_load)
        rel = abs(cf.p_loss - p_qp) / abs(p_qp)
        _check(checks, f"{name}:qp-agreement", rel <= 1e-9, f"rel={rel:.3e}")
        problem = build_problem(z, cf.r_load)
        try:
            res = solve_relaxation(problem, constrain_powers=False)
            rel = abs(res.p_relax - p_qp) / abs(p_qp)
            ok = rel <= 1e-6 and res.tight and res.kkt.max_residual() <= 1e-8
            detail = f"rel={rel:.3e} eps={res.epsilon:.3e} kkt={res.kkt.max_residual():.3e}"
        except RelaxationError as exc:
            ok, detail = False, str(exc)
        _check(checks, f"{name}:sdr-unconstrained", ok, detail)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            save_impedance_file(z, path)
            z2 = load_impedance_file(path)
        _check(
            checks,
            f"{name}:roundtrip",
            np.array_equal(z.entries, z2.entries) and z.frequency == z2.frequency,
            "serialization must be bit-stable",
        )
    failed = 0
    for name, passed, detail in checks:
        mark = "PASS" if passed else "FAIL"
        failed += not passed
        suffix = f"  ({detail})" if (detail and not passed) else ""
        print(f"{mark}  {name}{suffix}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------- gen-matrix


def cmd_gen_matrix(args) -> int:
    z = _preset_system(args.preset, args.d, args.theta)
    out_dir = _ensure_out(args.out)
    name = f"{args.preset}_d{args.d:g}_theta{args.theta:g}.json"
    path = os.path.join(out_dir, name)
    save_impedance_file(z, path)
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------- entry


def _join_theta_range(argv):
    """Glue ``--theta-range -90:90:2`` into ``--theta-range=-90:90:2``.

    argparse takes a token that starts with '-' and is not a plain number for
    an option, so a range with a negative start needs the '=' spelling.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--theta-range" and re.match(r"-[\d.]", token):
            out[-1] = f"--theta-range={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_theta_range(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GeometryError, SchemaError, PassivityError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RelaxationError as exc:
        if exc.status == "infeasible":
            print(
                "infeasible: no transmit-current vector satisfies the power "
                f"constraints at this operating point ({exc.residuals})",
                file=sys.stderr,
            )
        else:
            print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
