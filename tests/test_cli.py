"""CLI behavior: exit codes, file round trips, determinism, pattern shapes."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wptopt
from retarded import retarded_loop_system
from test_dual import NOT_TIGHT_IM, NOT_TIGHT_RE
from wptopt import cli
from wptopt.circuit import (
    C0,
    PRESET_FREQUENCY,
    GeometrySpec,
    ImpedanceMatrix,
    build_loop_system,
    load_impedance_file,
    matrix_from_json,
    matrix_to_json,
    save_impedance_file,
)
from wptopt.pipeline import optimize_load

LAM = C0 / PRESET_FREQUENCY


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    """Three retarded off-axis points; two of them need the relaxation."""
    path = tmp_path_factory.mktemp("fam") / "family.json"
    points = []
    for theta in (-45.0, 20.0, 60.0):
        geom = GeometrySpec.preset("miso-2p", 0.1 * LAM, angle=math.radians(theta))
        z = retarded_loop_system(geom)
        points.append({"theta_deg": theta, "d_frac": 0.1, "matrix": matrix_to_json(z)})
    path.write_text(json.dumps({"points": points}))
    return str(path)


class TestExitCodes:
    def test_no_source(self, capsys):
        assert cli.main(["solve"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_both_sources(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{}")
        assert cli.main(["solve", "--preset", "siso", "--matrix", str(path)]) == 2

    def test_unknown_preset_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--preset", "bogus"])
        assert exc.value.code == 2

    def test_missing_matrix_file(self):
        assert cli.main(["solve", "--matrix", "/no/such/file.json"]) == 4

    def test_malformed_matrix_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"frequency_hz": 1.0}')
        assert cli.main(["solve", "--matrix", str(path)]) == 2

    def test_family_file_rejected_by_solve(self, family_file, capsys):
        assert cli.main(["solve", "--matrix", family_file]) == 2
        err = capsys.readouterr().err
        assert "are for `sweep --matrix`" in err and "frequency_hz" not in err

    def test_caps_below_feasibility(self, capsys):
        code = cli.main(
            ["solve", "--preset", "miso-2p", "--d", "0.1", "--theta", "18",
             "--constraints", "caps=0.2,0.2"]
        )
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_caps_length_mismatch(self, capsys):
        code = cli.main(
            ["solve", "--preset", "miso-2p", "--d", "0.1", "--constraints", "caps=1.0"]
        )
        assert code == 2
        assert "transmitters" in capsys.readouterr().err

    @pytest.mark.parametrize("caps", ["caps=nan,1", "caps=inf,1"])
    def test_non_finite_caps_are_argparse_errors(self, caps, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--preset", "miso-2p", "--theta", "30",
                      "--constraints", caps])
        assert exc.value.code == 2
        assert "caps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rl", ["inf", "1e400", "nan"])
    def test_non_finite_load_is_an_argparse_error(self, rl, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                cli.main(["solve", "--preset", "miso-2p", "--rl", rl])
        assert exc.value.code == 2
        assert "load resistance must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "nan:10:1", "0:10:inf"])
    def test_non_finite_theta_range(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "siso", f"--theta-range={spec}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "theta range must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["0:1e308:1e-300", "0:1e9:1e-3"])
    def test_theta_range_with_too_many_angles(self, spec, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "siso", f"--theta-range={spec}", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"more than {cli.MAX_THETAS} angles" in err and "Traceback" not in err
        assert not out.exists()

    def test_theta_range_bound_is_inclusive(self):
        top = cli.MAX_THETAS - 1
        assert len(cli._parse_theta_range(f"0:{top}:1")) == cli.MAX_THETAS
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_theta_range(f"0:{top + 1}:1")

    @pytest.mark.parametrize(
        "key, value", [("theta_deg", "abc"), ("theta_deg", None), ("d_frac", "abc"),
                       ("d_frac", None), ("theta_deg", [1.0])],
    )
    def test_family_point_that_is_not_a_number(
        self, family_file, key, value, tmp_path, capsys
    ):
        with open(family_file, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        points[1][key] = value
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"points": points}))
        code = cli.main(["sweep", "--matrix", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "family point 1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--theta", "inf"], "angle must be finite, got inf"),
         (["--theta", "nan"], "angle must be finite, got nan"),
         (["--d", "inf"], "distance must be positive and finite, got inf")],
    )
    def test_non_finite_geometry(self, flags, message, capsys):
        assert cli.main(["solve", "--preset", "miso-2p", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_uncoupled_matrix_is_invalid_input(self, tmp_path, capsys):
        z = build_loop_system(GeometrySpec.preset("siso", 0.1 * LAM))
        dead = matrix_to_json(z)
        dead["re"] = [[0.02, 0.0], [0.0, 0.02]]
        dead["im"] = [[56.0, 0.0], [0.0, 56.0]]  # zero mutual: uncoupled
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(dead))
        assert cli.main(["solve", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid input: receiver is uncoupled" in err and "Traceback" not in err

    @pytest.mark.parametrize("theta", ["0", "90"])
    def test_receiver_beyond_the_separation_bound(self, theta, capsys):
        # once an OverflowError (90 deg) and an inf / inf in the quadrature (0 deg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", "--preset", "siso", "--d", "1e300", "--theta", theta])
        assert code == 2
        err = capsys.readouterr().err
        assert "at most 1e+150 m from the origin" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--preset", "siso", "--d", "1e100", "--theta", "90"], "coupling underflows"),
         (["--preset", "miso-2p", "--rl", "1e154"], "overflows at R_L = 1e+154 ohm"),
         (["--preset", "miso-2p", "--rl", "1e155"], "overflows at R_L = 1e+155 ohm")],
    )
    def test_closed_form_out_of_double_range(self, flags, message, capsys):
        # once a ZeroDivisionError, an OverflowError and an infinite loss
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["solve", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid input: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--form", "conic"], ["--tol", "1e-8"]])
    def test_solver_knobs_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "siso", "--theta-range", "0:10:10", *flag])
        assert exc.value.code == 2

    def test_sweep_needs_theta_range(self):
        assert cli.main(["sweep", "--preset", "siso"]) == 2

    def test_family_sweep_rejects_theta_range(self, family_file):
        code = cli.main(
            ["sweep", "--matrix", family_file, "--theta-range", "0:10:10"]
        )
        assert code == 2


class TestSolve:
    def test_siso_summary_reports_figures(self, capsys):
        assert cli.main(["solve", "--preset", "siso", "--d", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "U = " in out and "R_L* = " in out and "eta" in out
        assert "relaxation skipped" in out

    def test_record_written(self, tmp_path, capsys):
        code = cli.main(
            ["solve", "--preset", "miso-3c", "--d", "0.1", "--theta", "30",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rec = json.loads((tmp_path / "solve.json").read_text())
        for key in ("eta", "r_load_ohm", "matrix_sha256", "constraint_mode",
                    "transmit_powers_w", "inputs_sha256"):
            assert key in rec
        assert rec["skipped"] is True
        assert len(rec["transmit_powers_w"]) == 3

    def test_fixed_load_is_used(self, tmp_path):
        cli.main(
            ["solve", "--preset", "siso", "--d", "0.1", "--rl", "0.05",
             "--out", str(tmp_path)]
        )
        rec = json.loads((tmp_path / "solve.json").read_text())
        assert rec["r_load_ohm"] == 0.05

    def test_matrix_file_matches_preset(self, tmp_path, capsys):
        assert cli.main(
            ["gen-matrix", "--preset", "miso-2p", "--d", "0.1", "--theta", "18",
             "--out", str(tmp_path)]
        ) == 0
        path = capsys.readouterr().out.strip()
        cli.main(["solve", "--preset", "miso-2p", "--d", "0.1", "--theta", "18",
                  "--out", str(tmp_path / "a")])
        cli.main(["solve", "--matrix", path, "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "solve.json").read_text())
        b = json.loads((tmp_path / "b" / "solve.json").read_text())
        skip = {"source", "theta_deg", "d_frac"}  # invocation provenance
        for key in set(a) - skip:
            assert a[key] == b[key], key

    @pytest.mark.parametrize("theta, method", [(0.0, "closed-form"), (45.0, "brent")])
    def test_optimize_reports_the_load_search(self, theta, method, tmp_path, capsys):
        # quasi-static presets are closed-form feasible; a retarded matrix binds
        if method == "closed-form":
            source = ["--preset", "miso-2p", "--theta", str(theta)]
        else:
            geom = GeometrySpec.preset("miso-2p", 0.1 * LAM, angle=math.radians(theta))
            save_impedance_file(retarded_loop_system(geom), tmp_path / "m.json")
            source = ["--matrix", str(tmp_path / "m.json")]
        argv = ["solve", *source, "--rl", "optimize", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        rec = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert rec["load_search_method"] == method
        n = rec["load_search_evaluations"]
        assert (n == 1) if method == "closed-form" else (1 < n <= 29)
        out = capsys.readouterr().out
        assert f"load search   : {method}, {n} evaluations" in out

    def test_fixed_load_has_no_load_search(self, tmp_path, capsys):
        assert cli.main(["solve", "--preset", "siso", "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "solve.json").read_text())
        assert not any(key.startswith("load_search") for key in rec)
        assert "load search" not in capsys.readouterr().out


class TestResultRecord:
    def test_record_roundtrip_and_hash(self, tmp_path):
        def record(run, *flags):
            out = tmp_path / run
            assert cli.main(["solve", "--preset", "miso-2p", *flags, "--out", str(out)]) == 0
            text = (out / "solve.json").read_text()
            return text, json.loads(text)

        text, rec = record("a")
        for key in (
            "inputs_sha256",
            "r_load_ohm",
            "eta",
            "epsilon",
            "skipped",
            "transmit_powers_w",
            "currents_re",
            "currents_im",
            "x_r_ohm",
            "c_r_farad",
            "iterations",
        ):
            assert key in rec
        assert json.loads(json.dumps(rec)) == rec
        assert json.dumps(rec, indent=2, sort_keys=True) + "\n" == text
        assert record("b")[1]["inputs_sha256"] == rec["inputs_sha256"]
        _, other = record("c", "--rl", repr(2.0 * rec["r_load_ohm"]))
        assert other["inputs_sha256"] != rec["inputs_sha256"]
        assert other["matrix_sha256"] == rec["matrix_sha256"]


class TestSolveIsTheOnePointSweep:
    """solve.json agrees with the point's sweep.csv row on every shared key."""

    @staticmethod
    def assert_record_is_row(rec, row):
        def field(value):  # the value as sweep.csv holds it, read back
            return next(csv.reader([cli._fmt(value)]))[0]

        assert set(cli.SWEEP_COLUMNS) <= set(rec)
        for key in cli.SWEEP_COLUMNS:
            assert field(rec[key]) == row[key], key
        powers = [row[f"p_t_{k + 1}_w"] for k in range(len(rec["transmit_powers_w"]))]
        assert [field(p) for p in rec["transmit_powers_w"]] == powers

    def test_preset_point(self, tmp_path):
        assert cli.main(["solve", "--preset", "miso-3p", "--theta", "30", "--d", "0.1",
                         "--out", str(tmp_path / "solve")]) == 0
        assert cli.main(["sweep", "--preset", "miso-3p", "--theta-range=30:30:1",
                         "--d", "0.1", "--out", str(tmp_path / "sweep")]) == 0
        rec = json.loads((tmp_path / "solve" / "solve.json").read_text())
        (row,) = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert rec["form"] == "closed-form"
        self.assert_record_is_row(rec, row)

    @pytest.mark.parametrize(
        "flags", [["--rl", "optimize"], ["--constraints", "caps=1e6,1e6"]]
    )
    def test_binding_family_point(self, flags, tmp_path):
        geom = GeometrySpec.preset("miso-2p", 0.1 * LAM, angle=math.radians(45.0))
        doc = matrix_to_json(retarded_loop_system(geom))
        path = tmp_path / "point.json"  # one name for both files: rows carry the source
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--matrix", str(path), *flags,
                         "--out", str(tmp_path / "solve")]) == 0
        # solve --matrix knows no angle or distance: the family point has none
        path.write_text(json.dumps([{"theta_deg": math.nan, "matrix": doc}]))
        assert cli.main(["sweep", "--matrix", str(path), *flags,
                         "--out", str(tmp_path / "sweep")]) == 0
        rec = json.loads((tmp_path / "solve" / "solve.json").read_text())
        (row,) = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert rec["skipped"] is False
        self.assert_record_is_row(rec, row)


class TestGenMatrix:
    def test_port_count(self, tmp_path, capsys):
        cli.main(["gen-matrix", "--preset", "miso-2p", "--d", "0.1",
                  "--out", str(tmp_path)])
        path = capsys.readouterr().out.strip()
        doc = json.loads(open(path).read())
        assert doc["n_ports"] == 3
        assert np.array(doc["re"]).shape == (3, 3)

    def test_roundtrip_bit_stable(self, tmp_path, capsys):
        cli.main(["gen-matrix", "--preset", "miso-3p", "--d", "0.07",
                  "--theta", "33", "--out", str(tmp_path)])
        path = capsys.readouterr().out.strip()
        z = load_impedance_file(path)
        second = tmp_path / "again.json"
        save_impedance_file(z, second)
        assert open(path, "rb").read() == second.read_bytes()


class TestSweep:
    def test_91_rows_all_tight(self, tmp_path):
        code = cli.main(
            ["sweep", "--preset", "miso-3c", "--d", "0.1",
             "--theta-range=-90:90:2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 91
        for row in rows:
            if row["skipped"] == "false":
                assert float(row["epsilon"]) <= 1e-8

    def test_rows_are_self_sufficient(self, tmp_path):
        cli.main(["sweep", "--preset", "siso", "--d", "0.1",
                  "--theta-range", "0:20:10", "--out", str(tmp_path)])
        for row in read_rows(tmp_path / "sweep.csv"):
            assert float(row["r_load_ohm"]) > 0.0
            assert row["constraint_mode"] == "nonneg"
            assert len(row["matrix_sha256"]) == 64
            assert row["form"] == "closed-form"

    def test_family_ingestion_runs_relaxation(self, family_file, tmp_path):
        code = cli.main(["sweep", "--matrix", family_file, "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert [float(r["theta_deg"]) for r in rows] == [-45.0, 20.0, 60.0]
        solved = [r for r in rows if r["skipped"] == "false"]
        assert solved, "retarded off-axis points should need the relaxation"
        for row in solved:
            assert row["status"] == "optimal"
            assert float(row["epsilon"]) <= 1e-8
            assert float(row["delta_eta_db"]) >= 0.0

    def test_optimize_rows_match_the_library(self, family_file, tmp_path):
        code = cli.main(
            ["sweep", "--matrix", family_file, "--rl", "optimize", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert list(rows[0]) == list(cli.SWEEP_COLUMNS) + ["p_t_1_w", "p_t_2_w"]
        with open(family_file) as fh:
            points = json.load(fh)["points"]
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            assert row["tight"] == "true"
            search = optimize_load(matrix_from_json(point["matrix"]))
            assert float(row["r_load_ohm"]) == search.r_load

    def test_form_column_names_the_path(self, tmp_path, relaxation_only):
        # 68 degrees: the dual certifies the row; the relaxation runs on demand
        points = []
        for theta in (0.0, 68.0):
            geom = GeometrySpec.preset("miso-2p", 0.1 * LAM, angle=math.radians(theta))
            z = retarded_loop_system(geom)
            points.append({"theta_deg": theta, "d_frac": 0.1, "matrix": matrix_to_json(z)})
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"points": points}))

        def forms(out):
            assert cli.main(["sweep", "--matrix", str(family), "--out", str(out)]) == 0
            rows = read_rows(out / "sweep.csv")
            assert rows[0]["status"] == "closed-form"
            provenance = json.loads((out / "sweep.json").read_text())
            assert "form" not in provenance and "tol" not in provenance
            return [r["form"] for r in rows]

        assert forms(tmp_path / "dual") == ["closed-form", "dual"]
        with relaxation_only():
            assert forms(tmp_path / "sdr") == ["closed-form", "conic"]

    def test_solve_reports_the_form_used(self, tmp_path, capsys, relaxation_only):
        geom = GeometrySpec.preset("miso-2p", 0.1 * LAM, angle=math.radians(68.0))
        path = tmp_path / "m.json"
        save_impedance_file(retarded_loop_system(geom), path)

        def used(out):
            assert cli.main(["solve", "--matrix", str(path), "--out", str(out)]) == 0
            record = json.loads((out / "solve.json").read_text())
            assert f"path: {record['form']}" in capsys.readouterr().out
            return record["form"]

        assert used(tmp_path / "dual") == "dual"
        with relaxation_only():
            assert used(tmp_path / "sdr") == "conic"

    def test_byte_identical_across_runs(self, family_file, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["sweep", "--matrix", family_file,
                             "--out", str(out)]) == 0
            outs.append(out)
        for name in ("sweep.csv", "sweep.json", "pattern_eta.csv",
                     "pattern_power.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_negative_theta_start_both_spellings(self, tmp_path):
        for argv, run in ((["--theta-range", "-90:90:30"], "a"),
                          (["--theta-range=-90:90:30"], "b")):
            assert cli.main(["sweep", "--preset", "siso", *argv,
                             "--out", str(tmp_path / run)]) == 0
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        assert a == (tmp_path / "b" / "sweep.csv").read_bytes()
        assert len(a.splitlines()) == 8

    def test_partial_failure_keeps_going(self, tmp_path, capsys):
        good = [
            {"theta_deg": theta,
             "matrix": matrix_to_json(build_loop_system(GeometrySpec.preset(
                 "siso", 0.1 * LAM, angle=math.radians(theta))))}
            for theta in (0.0, 20.0)
        ]
        dead = json.loads(json.dumps(good[0]["matrix"]))
        dead["re"] = [[0.02, 0.0], [0.0, 0.02]]
        dead["im"] = [[56.0, 0.0], [0.0, 56.0]]  # zero mutual: uncoupled
        bad = {"theta_deg": 10.0, "matrix": dead}

        family = tmp_path / "family.json"  # one name: rows carry the source

        def sweep(points, name):
            family.write_text(json.dumps(points))
            out = tmp_path / name
            # the masked stack arithmetic must not warn
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["sweep", "--matrix", str(family), "--out", str(out)]) == 0
            return (out / "sweep.csv").read_text().splitlines()

        mixed = sweep([good[0], bad, good[1]], "mixed")
        clean = sweep(good, "clean")
        assert len(mixed) == 4
        assert mixed[:2] + mixed[3:] == clean
        row = dict(zip(cli.SWEEP_COLUMNS, mixed[2].split(",")))
        assert row["status"] == "error:NoCouplingError"
        assert row["eta"] == "nan"
        assert row["form"] == ""
        assert "theta=10.0" in capsys.readouterr().err

    def test_capped_sweep_is_rfc4180_csv(self, family_file, tmp_path):
        # the caps label and a family path holding a comma are quoted fields;
        # caps keep every transmit power nonnegative
        path = tmp_path / "a,b" / "family.json"
        path.parent.mkdir()
        path.write_text(open(family_file, encoding="utf-8").read())
        out = tmp_path / "out"
        assert cli.main(["sweep", "--matrix", str(path), "--constraints", "caps=1e6,1e6",
                         "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 3 and {len(row) for row in rows} == {len(header)}
        for row in rows:
            rec = dict(zip(header, row))
            assert rec["source"] == f"file:{path}"
            assert rec["constraint_mode"] == "caps=1e6,1e6"
            p = np.array([float(rec["p_t_1_w"]), float(rec["p_t_2_w"])])
            assert p.min() >= -1e-9 * max(1.0, np.abs(p).max())
        assert all(rec["skipped"] == "false" for rec in read_rows(out / "sweep.csv"))

    def test_a_sweep_writes_the_rows_of_its_points_swept_alone(self, tmp_path):
        assert cli.main(["sweep", "--preset", "miso-3p", "--theta-range=-90:90:10",
                         "--d", "0.05,0.3", "--out", str(tmp_path / "all")]) == 0
        header, *rows = (tmp_path / "all" / "sweep.csv").read_bytes().splitlines()
        alone = []
        for d in ("0.05", "0.3"):
            for theta in range(-90, 91, 10):
                out = tmp_path / f"{d}_{theta}"
                assert cli.main(["sweep", "--preset", "miso-3p",
                                 f"--theta-range={theta}:{theta}:1", "--d", d,
                                 "--out", str(out)]) == 0
                head, row = (out / "sweep.csv").read_bytes().splitlines()
                assert head == header
                alone.append(row)
        assert rows == alone

    def test_a_coupling_out_of_double_range_fails_its_rows_alone(self, tmp_path, capsys):
        def sweep(d, out):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["sweep", "--preset", "siso", "--d", d,
                                 "--theta-range=0:90:45", "--out", str(out)]) == 0
            return read_rows(out / "sweep.csv")

        mixed = sweep("0.1,1e100", tmp_path / "mixed")
        assert mixed[:3] == sweep("0.1", tmp_path / "near")
        assert [row["status"] for row in mixed[3:]] == ["error:NoCouplingError"] * 3
        assert "6 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["retarded", "quasi-static"])
    def test_mirrored_rows_agree(self, source, tmp_path):
        """Rows at theta and -theta share form and status, and their eta
        agrees within 1e-12 relative (README, "Sweeps"): the retarded
        miso-3p family at d = 0.1 lambda and the quasi-static miso-3p grid."""
        thetas = range(-90, 91, 2)
        if source == "retarded":
            points = []
            for theta in thetas:
                geom = GeometrySpec.preset("miso-3p", 0.1 * LAM, angle=math.radians(theta))
                z = retarded_loop_system(geom)
                points.append({"theta_deg": theta, "d_frac": 0.1, "matrix": matrix_to_json(z)})
            family = tmp_path / "family.json"
            family.write_text(json.dumps({"points": points}))
            args = ["--matrix", str(family)]
        else:
            args = ["--preset", "miso-3p", "--theta-range=-90:90:2",
                    "--d", "0.05,0.075,0.1,0.15,0.2,0.3"]
        assert cli.main(["sweep", *args, "--out", str(tmp_path / "out")]) == 0
        rows = {
            (row["d_frac"], float(row["theta_deg"])): row
            for row in read_rows(tmp_path / "out" / "sweep.csv")
        }
        pairs = [(row, rows[d, -theta]) for (d, theta), row in rows.items() if theta > 0]
        assert len(pairs) == (45 if source == "retarded" else 270)
        forms = set()
        for row, mirror in pairs:
            label = (row["d_frac"], row["theta_deg"])
            assert (row["form"], row["status"]) == (mirror["form"], mirror["status"]), label
            eta, eta_mirror = float(row["eta"]), float(mirror["eta"])
            assert abs(eta - eta_mirror) <= 1e-12 * eta, label
            forms.add(row["form"])
        assert forms == ({"dual"} if source == "retarded" else {"closed-form"})

    def test_pattern_split_per_distance(self, tmp_path):
        cli.main(["sweep", "--preset", "siso", "--d", "0.05,0.1",
                  "--theta-range", "0:20:20", "--out", str(tmp_path)])
        assert (tmp_path / "pattern_eta_d0.05.csv").exists()
        assert (tmp_path / "pattern_eta_d0.1.csv").exists()
        assert (tmp_path / "pattern_power_d0.05.csv").exists()
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 4

    def test_close_distances_get_their_own_pattern_files(self, tmp_path):
        # 0.1 and 0.1000001 agree to six significant digits; each keeps its rows
        assert cli.main(["sweep", "--preset", "siso", "--d", "0.1,0.1000001",
                         "--theta-range=0:90:45", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 6
        for tag, d in (("0.1", "0.1"), ("0.1000001", "0.1000001")):
            want = [(r["theta_deg"], r["eta"]) for r in rows if r["d_frac"] == d]
            got = read_rows(tmp_path / f"pattern_eta_d{tag}.csv")
            assert [(r["theta_deg"], r["radius"]) for r in got] == want
            assert len(read_rows(tmp_path / f"pattern_power_d{tag}.csv")) == 3
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["sweep.csv", "sweep.json"]
            + [f"pattern_{k}_d{t}.csv" for k in ("eta", "power") for t in ("0.1", "0.1000001")]
        )

    @pytest.mark.parametrize("repeat", [False, True])
    def test_a_family_of_distinct_distances_writes_one_pattern_pair(self, repeat, tmp_path):
        # each point at its own distance: no distance holds a polar pattern,
        # so one pair of files holds every row; once a distance holds two
        # rows, the files are split by distance
        fracs = [0.1, 0.2, 0.1 if repeat else 0.15]
        points = [
            {"theta_deg": theta, "d_frac": d,
             "matrix": matrix_to_json(build_loop_system(
                 GeometrySpec.preset("siso", d * LAM, angle=math.radians(theta))))}
            for theta, d in zip((0.0, 30.0, 60.0), fracs)
        ]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"points": points}))
        assert cli.main(["sweep", "--matrix", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        tags = ["_d0.1", "_d0.2"] if repeat else [""]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(
            ["sweep.csv", "sweep.json"]
            + [f"pattern_{kind}{tag}.csv" for kind in ("eta", "power") for tag in tags]
        )
        got = []
        for tag in tags:
            got += [(r["theta_deg"], r["radius"])
                    for r in read_rows(tmp_path / "out" / f"pattern_eta{tag}.csv")]
        assert sorted(got) == sorted((r["theta_deg"], r["eta"]) for r in rows)

    def test_distance_tags(self):
        assert [cli._d_tag(d) for d in (0.05, 0.1, 2.0, 1e100, 1e-05, 0.1000001, 1234567.0)] == [
            "0.05", "0.1", "2", "1e+100", "1e-05", "0.1000001", "1234567.0"
        ]


class TestColumnWriter:
    """_fmt_column writes every value as _fmt does."""

    COLUMNS = [
        [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2e-308, 0.1, 1e100],
        [np.float64(0.1), np.float64(-0.0), np.float64(np.nan), 2.5, np.float64(-np.inf)],
        [np.float32(0.1), np.float32(-0.0), np.float32(np.nan)],
        [True, False, True],
        [0, -3, 2**70, 0],
        ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", "", "plain"],
        [True, 1, 1.0, np.float64(1.0), "1", np.int64(1)],
        [0.0, -0.0, False, 0],
        ["\r", '"', "needs no quotes", "a\rb", 'x"'],
    ]

    @pytest.mark.parametrize("column", COLUMNS)
    def test_matches_fmt(self, column):
        texts = cli._fmt_column(column)
        assert texts == [cli._fmt(v) for v in column]
        assert not any("np." in text for text in texts)

    def test_text_of_each_kind(self):
        assert cli._fmt_column([math.nan, -0.0, np.float64(2.5), 5e-324]) == [
            "nan", "-0.0", "2.5", "5e-324"
        ]
        assert cli._fmt_column([True, False]) == ["true", "false"]
        assert cli._fmt_column(['a,"b"']) == ['"a,""b"""']
        # a carriage return alone, a lone quote, and a text with none of the
        # four characters
        assert cli._fmt_column(["\r", '"', "preset:miso-3p"]) == [
            '"\r"', '""""', "preset:miso-3p"
        ]

    def test_pattern_power_is_the_row_sum(self):
        rng = np.random.default_rng(7)
        powers = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-12, 12, (500, 3))
        powers[::7, 1] = -0.0
        rows = powers.tolist()
        assert np.sum(rows, axis=1).tolist() == [float(np.sum(r)) for r in rows]


class TestPatternShapes:
    def test_siso_power_spikes_near_weak_coupling(self, tmp_path):
        cli.main(["sweep", "--preset", "siso", "--d", "0.1",
                  "--theta-range=-90:90:6", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "pattern_power.csv")
        radii = {float(r["theta_deg"]): float(r["radius"]) for r in rows}
        peak = max(radii, key=radii.get)
        assert 0.0 < abs(peak) < 90.0, "spike should sit at an interior angle"
        assert radii[peak] > 10.0 * radii[0.0]
        assert radii[-peak] == pytest.approx(radii[peak], rel=1e-9)

    def test_planar_miso_beats_siso_everywhere(self, tmp_path):
        etas = {}
        for name in ("siso", "miso-2p", "miso-3p"):
            out = tmp_path / name
            cli.main(["sweep", "--preset", name, "--d", "0.1",
                      "--theta-range=-90:90:10", "--out", str(out)])
            etas[name] = [float(r["eta"]) for r in read_rows(out / "sweep.csv")]
        for name in ("miso-2p", "miso-3p"):
            for e_m, e_s in zip(etas[name], etas["siso"]):
                assert e_m >= e_s - 1e-12


class TestValidate:
    def test_battery_passes(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20


def run_python(code):
    """Run code in a fresh interpreter that imports this checkout's wptopt."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(wptopt.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_import_leaves_out_scipy_optimize():
    code = "import sys, wptopt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_out_the_interior_point_solver():
    # the relaxation runs on the dual's barrier; the interior-point method
    # is a test oracle only
    code = (
        "import sys, wptopt.cli; "
        "print(sorted(m for m in sys.modules if 'sdp' in m or 'oracles' in m))"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_paths_run_without_scipy(family_file, tmp_path):
    # scipy is a test dependency only: with every scipy import made to fail,
    # a binding family sweep, a row that reaches the relaxation's barrier
    # and the validation battery still run
    not_tight = tmp_path / "not_tight.json"
    save_impedance_file(
        ImpedanceMatrix(np.array(NOT_TIGHT_RE) + 1j * np.array(NOT_TIGHT_IM), 1e7),
        not_tight,
    )
    code = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from wptopt import cli
from wptopt.circuit import load_impedance_file
from wptopt.pipeline import full_pipeline
assert cli.main(["sweep", "--matrix", {family_file!r}, "--out", {str(tmp_path)!r}]) == 0
res = full_pipeline(load_impedance_file({str(not_tight)!r}))
assert res.form == "conic", res.form  # the relaxation ran
assert cli.main(["validate"]) == 0
print(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod))
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert "dual" in {row["form"] for row in read_rows(tmp_path / "sweep.csv")}


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ("1", "1", "1")), ({"OPENBLAS_NUM_THREADS": "2"}, ("2", "1", "1"))],
)
def test_import_pins_blas_threads_unless_set(monkeypatch, preset, expected):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in preset.items():
        monkeypatch.setenv(var, value)
    code = f"import os, wptopt; print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == expected


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wptopt.cli", "gen-matrix", "--preset", "siso",
         "--d", "0.1", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith(".json")
