"""CLI behavior: exit codes, file round trips, determinism, pattern shapes."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from retarded import retarded_loop_system
from wptopt import cli
from wptopt.circuit import (
    C0,
    PRESET_FREQUENCY,
    GeometrySpec,
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

    def test_family_file_rejected_by_solve(self, family_file):
        assert cli.main(["solve", "--matrix", family_file]) == 2

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
        # 68 degrees: the conic form retries and keeps the affine attempt
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
            assert forms(tmp_path / "sdr") == ["closed-form", "affine"]

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
            assert used(tmp_path / "sdr") == "affine"

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
        geom = GeometrySpec.preset("siso", 0.1 * LAM)
        from wptopt.circuit import build_loop_system

        good = matrix_to_json(build_loop_system(geom))
        dead = json.loads(json.dumps(good))
        dead["re"] = [[0.02, 0.0], [0.0, 0.02]]
        dead["im"] = [[56.0, 0.0], [0.0, 56.0]]  # zero mutual: uncoupled
        family = tmp_path / "mixed.json"
        family.write_text(json.dumps([
            {"theta_deg": 0.0, "matrix": good},
            {"theta_deg": 10.0, "matrix": dead},
        ]))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--matrix", str(family), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "closed-form"
        assert rows[1]["status"].startswith("error:")
        assert rows[1]["eta"] == "nan"
        assert [r["form"] for r in rows] == ["closed-form", ""]
        assert "theta=10.0" in capsys.readouterr().err

    def test_pattern_split_per_distance(self, tmp_path):
        cli.main(["sweep", "--preset", "siso", "--d", "0.05,0.1",
                  "--theta-range", "0:20:20", "--out", str(tmp_path)])
        assert (tmp_path / "pattern_eta_d0.05.csv").exists()
        assert (tmp_path / "pattern_eta_d0.1.csv").exists()
        assert (tmp_path / "pattern_power_d0.05.csv").exists()
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 4


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


def test_import_leaves_out_scipy_optimize():
    code = "import sys, wptopt.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
