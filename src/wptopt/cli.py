"""Command-line front end for operating-point solves, sweeps and validation.

Subcommands
-----------
solve       one preset or matrix-file point, the one-point case of sweep: its
            record is the point's sweep row plus inputs hash, currents, policy
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
matrix hash needed to re-solve it in isolation.  A sweep builds the
matrices of its preset points in one batched pass (see
``circuit.build_preset_systems``), and solves its rows in blocks of
``pipeline.STACK_ROWS``: the closed forms in stacked passes,
then the binding rows of each port count together, their dual ascents in
lockstep (under ``--rl optimize``, each row's load search, one after
another).  Rows come out in input order, and every row is bit for bit what
its point gives swept alone.  Both `sweep` and `solve` take their row
values from one column builder, `_columns`, with no record per row.  Output
files are formatted a column at a time, by the rule `_fmt` gives each
value; a column that is the same in every row is formatted once.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .circuit import (
    C0,
    PRESET_FREQUENCY,
    PRESETS,
    GeometryError,
    PassivityError,
    SchemaError,
    build_preset_systems,
    matrix_bytes,
    load_impedance_file,
    matrix_from_json,
    read_json,
    save_impedance_file,
)
from .closedform import (
    NoCouplingError, NonFiniteError, max_pte, solve_closed_form, solve_min_loss_qp
)
from .oracle import verify_identities
from .pipeline import (
    ROW_ERRORS,
    PipelineOptions,
    RelaxationError,
    cap_r,
    optimize_load,
    solve_relaxation,
    solve_rows,
)
from .qcqp import build_problem

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

MAX_THETAS = 100_000  # angles one --theta-range may ask for
CSV_BLOCK_ROWS = 128  # rows formatted at once when writing a CSV file

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


# RFC 4180: a field holding a comma, a quote or a line break is quoted
_needs_quotes = re.compile('[,"\r\n]').search


def _fmt(value) -> str:
    """One stable text form per value; floats print shortest round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # repr of every NaN is 'nan'
    text = str(value)
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt_column(values) -> list[str]:
    """`_fmt` of each value of a column; a column of Python and numpy floats
    takes `_fmt`'s float rule in one pass."""
    if set(map(type, values)) <= {float, np.float64}:
        return list(map(repr, map(float, values)))
    return list(map(_fmt, values))


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
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"load resistance must be positive and finite, got {text!r}"
        )
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
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"theta range must be finite, got {text!r}")
    if step <= 0.0:
        raise argparse.ArgumentTypeError("theta step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("theta range is empty")
    # floor(span) + 1 angles; counted in floats, where a huge range is inf
    span = (stop - start) / step + 1e-9
    if not span < MAX_THETAS:
        raise argparse.ArgumentTypeError(
            f"theta range {text!r} gives more than {MAX_THETAS} angles"
        )
    return tuple(start + k * step for k in range(int(math.floor(span)) + 1))


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


def _preset_systems(name: str, grid):
    """The impedance matrices of a preset at (theta_deg, d_frac) points, from
    one quadrature pass."""
    lam = C0 / PRESET_FREQUENCY
    return build_preset_systems(
        name, [(d_frac * lam, math.radians(theta_deg)) for theta_deg, d_frac in grid]
    )


def _read_matrix_file(path, family: bool):
    """The (theta_deg, d_frac, z) points of a --matrix file: a family of
    {theta_deg, d_frac?, matrix} points, or one matrix at theta = d = NaN."""
    data = read_json(path)
    if isinstance(data, dict):
        data = data.get("points", data)
    if isinstance(data, list) != family:
        raise SchemaError(
            "families (lists of {theta_deg, matrix} points) are for `sweep --matrix`, "
            "single matrices for `solve --matrix`"
        )
    if not family:
        return [(float("nan"), float("nan"), matrix_from_json(data))]
    points = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "matrix" not in entry or "theta_deg" not in entry:
            raise SchemaError(f"family point {k} needs 'theta_deg' and 'matrix' keys")
        try:
            theta, d_frac = float(entry["theta_deg"]), float(entry.get("d_frac", "nan"))
        except (TypeError, ValueError):
            raise SchemaError(
                f"family point {k}: 'theta_deg' and 'd_frac' must be numbers"
            ) from None
        points.append((theta, d_frac, matrix_from_json(entry["matrix"])))
    return points


def _points(args):
    """Resolve the source flags into ((theta_deg, d_frac, z) points, source
    label, transmitter count).  `solve` is the one-point case of `sweep`: the
    grid [(--theta, --d)] of a preset, or one --matrix file at theta = d = NaN.
    """
    if (args.preset is None) == (args.matrix is None):
        raise CommandError("pass exactly one of --preset or --matrix")
    sweep = args.command == "sweep"
    if args.matrix is not None:
        if sweep and args.theta_range is not None:
            raise CommandError(
                "--theta-range applies to presets; ingested families carry their own angles"
            )
        points = _read_matrix_file(args.matrix, family=sweep)
        source = f"file:{args.matrix}"
    else:
        if not sweep:
            grid = [(args.theta, args.d)]
        elif args.theta_range is None:
            raise CommandError("preset sweeps need --theta-range START:STOP:STEP")
        else:
            grid = [(theta, d) for d in args.d for theta in args.theta_range]
        systems = _preset_systems(args.preset, grid)
        points = [(theta, d, z) for (theta, d), z in zip(grid, systems)]
        source = f"preset:{args.preset}"
    if not points:
        raise CommandError("sweep is empty")
    n_tx = points[0][2].n_tx
    if any(z.n_tx != n_tx for _, _, z in points):
        raise CommandError("all sweep points must have the same port count")
    caps = args.constraints[2]
    if caps is not None and len(caps) != n_tx:
        raise CommandError(
            f"caps list has {len(caps)} entries but the system has {n_tx} transmitters"
        )
    return points, source, n_tx


def _pipeline_options(args) -> PipelineOptions:
    _, constrain, caps = args.constraints
    return PipelineOptions(power_caps=caps, constrain_powers=constrain)


def _solve_rows(zs, rl_policy, opts: PipelineOptions):
    """Each link's (SdrResult or the `ROW_ERRORS` exception it raised,
    LoadSearch or None), in input order.

    A fixed or 'auto' load solves the links together (:func:`solve_rows`);
    'optimize' searches the load of one link after another.
    """
    if rl_policy == "optimize":
        for z in zs:
            try:
                search = optimize_load(z, options=opts)
            except ROW_ERRORS as exc:
                yield exc, None
            else:
                yield search.result, search
    else:
        r_load = None if rl_policy == "auto" else float(rl_policy)
        for res in solve_rows(zs, r_load, opts):
            yield res, None


# the `SWEEP_COLUMNS` a row's result gives, "form" to "iterations"
_RESULT_COLUMNS = SWEEP_COLUMNS[5:]


def _result_values(res, z):
    """The `_RESULT_COLUMNS` values of a point's result, or of the
    exception it raised."""
    if isinstance(res, Exception):
        nan = float("nan")
        status = res.status if isinstance(res, RelaxationError) else type(res).__name__
        return ("", nan, f"error:{status}", False, False) + (nan,) * 7 + (0,)
    return (
        res.form,
        res.r_load,
        res.status,
        res.skipped,
        res.tight,
        res.epsilon,
        res.eta,
        res.p_relax,
        res.x_r,
        cap_r(res.x_r, z.omega),
        res.delta_eta_db,
        res.delta_cr_rel,
        res.iterations,
    )


def _columns(points, results, blobs, n_tx):
    """The rows of (theta_deg, d_frac, z) points from their results (each
    an SdrResult or the exception it raised), by column: ({name: values}
    for every `SWEEP_COLUMNS` name but "source" and "constraint_mode", the
    same in every row; the (rows, n_tx) transmit powers, NaN in a failed
    row; {row: failure text}).  blobs are `matrix_bytes` of each z."""
    values, powers, errors = [], [], {}
    failed = np.full(n_tx, np.nan)
    for k, ((_, _, z), res) in enumerate(zip(points, results)):
        values.append(_result_values(res, z))
        if isinstance(res, Exception):
            errors[k] = str(res)
            powers.append(failed)
        else:
            powers.append(res.transmit_powers)
    columns = {
        "theta_deg": [theta for theta, _, _ in points],
        "d_frac": [d for _, d, _ in points],
        "matrix_sha256": [hashlib.sha256(z_bytes).hexdigest() for z_bytes in blobs],
    }
    columns.update(zip(_RESULT_COLUMNS, map(list, zip(*values))))
    return columns, np.array(powers), errors


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------- solve


def _describe(res, search, z, source: str, theta_deg: float, d_frac: float, args) -> str:
    cf = res.closed_form
    lines = [
        f"system        : {source}  ({z.n_tx} tx + 1 rx port)",
        f"operating pt  : theta = {_fmt(theta_deg)} deg, d = {_fmt(d_frac)} lambda",
        f"constraints   : {args.constraints[0]}   path: {res.form}",
        f"R_L           : {_fmt(res.r_load)} ohm (policy: {args.rl})",
    ]
    if search is not None:
        lines.append(f"load search   : {search.method}, {search.evaluations} evaluations")
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


def cmd_solve(args) -> int:
    points, source, n_tx = _points(args)
    ((theta_deg, d_frac, z),) = points
    ((res, search),) = _solve_rows([z], args.rl, _pipeline_options(args))
    if isinstance(res, Exception):
        raise res
    print(_describe(res, search, z, source, theta_deg, d_frac, args))
    z_bytes = matrix_bytes(z)
    columns, powers, _ = _columns(points, [res], [z_bytes], n_tx)
    inputs = hashlib.sha256(z_bytes)  # the matrix, then the load
    inputs.update(np.float64(res.r_load).tobytes())
    record = {name: values[0] for name, values in columns.items()} | {
        "source": source,
        "constraint_mode": args.constraints[0],
        "inputs_sha256": inputs.hexdigest(),
        "transmit_powers_w": powers[0].tolist(),
        "currents_re": res.currents.real.tolist(),
        "currents_im": res.currents.imag.tolist(),
        "rl_policy": str(args.rl),
    }
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


def cmd_sweep(args) -> int:
    points, source, n_tx = _points(args)
    results = _solve_rows([z for _, _, z in points], args.rl, _pipeline_options(args))
    blobs = [matrix_bytes(z) for _, _, z in points]  # each matrix serialized once
    columns, powers, errors = _columns(points, (res for res, _ in results), blobs, n_tx)

    out_dir = _ensure_out(args.out or ".")
    power_cols = tuple(f"p_t_{k + 1}_w" for k in range(n_tx))
    columns.update(zip(power_cols, powers.T.tolist()))
    # one text for every row
    columns["source"] = _fmt(source)
    columns["constraint_mode"] = _fmt(args.constraints[0])
    names = SWEEP_COLUMNS + power_cols
    lines = _csv_lines(",".join(names), [columns[name] for name in names])
    _write_text(os.path.join(out_dir, "sweep.csv"), lines)

    _write_patterns(
        out_dir,
        columns["theta_deg"],
        columns["d_frac"],
        {"eta": columns["eta"], "power": powers.sum(axis=1).tolist()},
    )
    provenance = {
        "columns": list(names),
        "constraint_mode": args.constraints[0],
        "inputs_sha256": _sweep_hash(points, blobs, args),
        "n_rows": len(points),
        "rl_policy": str(args.rl),
        "source": source,
        "version": __version__,
    }
    _write_text(
        os.path.join(out_dir, "sweep.json"),
        [json.dumps(provenance, indent=2, sort_keys=True)],
    )

    for k, error in errors.items():
        print(
            f"warning: theta={_fmt(columns['theta_deg'][k])} deg failed "
            f"({columns['status'][k]}): {error}",
            file=sys.stderr,
        )
    print(
        f"{len(points)} rows -> {os.path.join(out_dir, 'sweep.csv')}"
        + (f"  ({len(errors)} failed)" if errors else "")
    )
    return EXIT_OK


def _csv_lines(header, columns):
    """The lines of a CSV file: the header, then the rows of the columns,
    each formatted by `_fmt_column` a block of `CSV_BLOCK_ROWS` rows at a
    time, so that one block's texts are held at once.  A column given as a
    str is that text in every row."""
    yield header
    n_rows = next(len(column) for column in columns if not isinstance(column, str))
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = (
            itertools.repeat(column) if isinstance(column, str)
            else _fmt_column(column[start:start + CSV_BLOCK_ROWS])
            for column in columns
        )
        yield from map(",".join, zip(*block))


def _write_patterns(out_dir, thetas, ds, radii):
    """Polar-ready (theta, radius) files, one per {name: radius column} of
    radii: efficiency and total transmit power.

    A sweep over several finite distances, some of which hold more than one
    row, writes one file per name and distance, tagged with the distance's
    `_d_tag`.  A family whose every point has its own distance writes one
    file per name."""
    distinct = set(ds)
    groups = {None: range(len(ds))}
    if 1 < len(distinct) < len(ds) and all(map(math.isfinite, distinct)):
        groups = {d: [] for d in sorted(distinct)}
        for k, d in enumerate(ds):
            groups[d].append(k)
    for key, group in groups.items():
        tag = "" if key is None else f"_d{_d_tag(key)}"
        theta = [thetas[k] for k in group]
        for name, radius in radii.items():
            lines = _csv_lines("theta_deg,radius", [theta, [radius[k] for k in group]])
            _write_text(os.path.join(out_dir, f"pattern_{name}{tag}.csv"), lines)


def _d_tag(d: float) -> str:
    """A distance's text in pattern file names: six significant digits
    (``:g``) where they read back as d, else the shortest round-trip text,
    so distinct distances never share a name."""
    text = f"{d:g}"
    return text if float(text) == d else repr(d)


def _sweep_hash(points, blobs, args) -> str:
    """The sweep's inputs hash: each point's angle, distance and
    `matrix_bytes` (blobs), then the constraint mode and load policy."""
    h = hashlib.sha256()
    for (theta, d, _), z_bytes in zip(points, blobs):
        h.update(np.float64(theta).tobytes())
        h.update(np.float64(d).tobytes())
        h.update(z_bytes)
    h.update(repr((args.constraints[0], str(args.rl))).encode())
    return h.hexdigest()


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
        (z,) = _preset_systems(name, [(18.0, 0.1)])
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
        problem = build_problem(z, cf.r_load, constrain_powers=False)
        try:
            res = solve_relaxation(problem)
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
    (z,) = _preset_systems(args.preset, [(args.theta, args.d)])
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
    except (GeometryError, SchemaError, PassivityError, NoCouplingError, NonFiniteError) as exc:
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
