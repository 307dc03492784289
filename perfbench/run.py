"""Benchmark of wptopt on three workloads, with output checks.

    python3 perfbench/run.py --workload retarded-sweep --seed 0 --seconds 25 --trace 0

Workloads (see README.md for the inputs and why each is here):

retarded-sweep      ``wptopt.cli.main(["sweep", "--matrix", family])`` once per
                    preset family of retarded-coupling matrices (455 rows,
                    359 of which bind and go to the SDR)
quasi-static-sweep  ``wptopt.cli.main(["sweep", "--preset", p, ...])`` over all
                    five presets and six distances (2730 closed-form rows)
load-search         ``wptopt.optimize_load(z)`` on 28 points sampled from the
                    retarded families, on a pool the size of the CLI's

One round runs the workload's operations once in a fresh interpreter
(``worker.py``); a run makes as many whole rounds as fill ``--seconds``
(planned from the first round's length, at least one).  With
``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run with spans around every layer.
BLAS is pinned to one thread; the CLI keeps its default sweep pool.
"""

import os

# before numpy loads, here and (through the environment) in every worker
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import families  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("retarded-sweep", "quasi-static-sweep", "load-search")
# The SDR workloads run the plain retarded grid whatever the seed: on
# jittered points the solver now and then certifies a feasible problem
# infeasible (see CHANGES.md), and an operation that fails on some seeds
# only cannot stay in a workload.  The seed varies the quasi-static grid.
SDR_SEED = 0
SEARCH_POINTS = range(8, 455, 16)  # stride sample of the 455 retarded points
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB", "call_ms_p50": "ms"}
PER_LAYER_UNITS = {"calls": "count", "iterations": "count", "evaluations": "count",
                   "useful_ratio": "ratio", "s": "s", "self_s": "s",
                   "ms_p50": "ms", "ms_p90": "ms"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _worker_env():
    env = dict(os.environ)  # carries BLAS_ENV
    env["PYTHONPATH"] = SRC
    env.pop("WPTOPT_WORKERS", None)  # the CLI's default pool
    return env


def _spawn(args, env):
    """Start a worker; return (process, seconds from spawn to ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def _finish(proc):
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    return proc.returncode


# ---------------------------------------------------------------- workloads


class Workload:
    """Job for the worker, and the checks on what one round produced."""

    def __init__(self, name, seed, tmp):
        self.name = name
        self.tmp = tmp
        self.presets = families.load_presets()
        self.job = {"workload": name}
        getattr(self, "_prepare_" + name.replace("-", "_"))(seed)

    def _prepare_retarded_sweep(self, seed):
        fams = families.retarded_families(SDR_SEED, self.presets)
        self.n_rows, self.inputs, self.job["ops"] = {}, {}, []
        for name, points in fams.items():
            path = os.path.join(self.tmp, f"family-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"points": points}, fh)
            out = os.path.join(self.tmp, "out", name)
            self.job["ops"].append(["sweep", "--matrix", path, "--out", out])
            self.n_rows[out] = len(points)
            self.inputs[out] = [(p["theta_deg"], _z(p["matrix"])) for p in points]

    def _prepare_quasi_static_sweep(self, seed):
        theta_text, distances = families.quasi_static_grid(seed)
        self.n_rows, self.job["ops"] = {}, []
        for name in families.PRESETS:
            out = os.path.join(self.tmp, "out", name)
            self.job["ops"].append(
                ["sweep", "--preset", name, f"--theta-range={theta_text}",
                 "--d", ",".join(repr(d) for d in distances), "--out", out]
            )
            self.n_rows[out] = len(distances) * len(families.THETAS)

    def _prepare_load_search(self, seed):
        fams = families.retarded_families(SDR_SEED, self.presets)
        flat = [(name, p) for name in families.PRESETS for p in fams[name]]
        picked = [flat[k] for k in SEARCH_POINTS]
        self.job["matrices"] = [p["matrix"] for _, p in picked]
        self.labels = [f"{name} theta={p['theta_deg']!r}" for name, p in picked]

    def job_for_round(self, k, trace):
        job = dict(self.job, trace=bool(trace))
        job["check_data"] = k == 0
        job["result"] = os.path.join(self.tmp, f"result-{k}.json")
        job["spans"] = os.path.join(WORK, f"spans-{self.name}-round{k}.jsonl")
        return job

    def outcome(self, result, k_round):
        """(attempted, failed, solved rows, failure messages) of one round.

        Round 0 gets every check.  Later rounds ran the same inputs, so their
        outputs must equal round 0's exactly.
        """
        if self.name == "load-search":
            attempted, rows, bad = len(result["searches"]), self._search_rows(result), []
        else:
            attempted, rows, bad = self._sweep_rows(result)
        key = [(r["label"], r["status"], r["r_load"], r["eta"], r["epsilon"], r["powers"])
               for r in rows]
        if k_round == 0:
            self.first_outputs = key
            bad += checks.check_rows(rows)
            if self.name == "quasi-static-sweep":
                bad += checks.check_closed_form(rows)
                for name in families.PRESETS:
                    bad += checks.check_mutuals(
                        [r for r in rows if r["preset"] == name], self.presets[name]
                    )
            if self.name == "load-search":
                bad += checks.check_load_search(rows)
        elif key != self.first_outputs:
            bad.append(f"round {k_round}: outputs differ from round 0 on the same inputs")
        return attempted, attempted - len(rows), rows, bad

    def _sweep_rows(self, result):
        attempted, rows, bad = 0, [], []
        for argv, rc in zip(self.job["ops"], result["exit_codes"]):
            out = argv[argv.index("--out") + 1]
            name = os.path.basename(out)
            got = checks.read_sweep(os.path.join(out, "sweep.csv")) if rc == 0 else []
            if rc == 0 and len(got) != self.n_rows[out]:
                bad.append(f"{name}: {len(got)} rows, expected {self.n_rows[out]}")
            for r in got:
                r["label"] = f"{name} theta={r['theta_deg']!r} d={r['d_frac']!r}"
                r["preset"] = name
            if self.name == "retarded-sweep":
                for r, (theta, z) in zip(got, self.inputs[out]):
                    if r["theta_deg"] != theta:
                        bad.append(f"{r['label']}: expected the family point at {theta!r}")
                    r["z"] = z
            elif "matrices" in result:
                for r, doc in zip(got, result["matrices"][out]):
                    r["z"] = _z(doc)
            attempted += self.n_rows[out]
            rows += [r for r in got if not r["status"].startswith("error")]
        return attempted, rows, bad

    def _search_rows(self, result):
        rows = []
        for k, (rec, doc) in enumerate(zip(result["searches"], self.job["matrices"])):
            if "error" not in rec:
                near = result["neighbour_eta"][k] if "neighbour_eta" in result else None
                rows.append(dict(rec, z=_z(doc), label=self.labels[k], near=near))
        return rows


def _z(doc):
    return np.array(doc["re"]) + 1j * np.array(doc["im"])


# ---------------------------------------------------------------- the run


def run(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    env = _worker_env()
    try:
        wl = Workload(workload, seed, tmp)
        _finish(_spawn(["--probe"], env)[0])  # compiles bytecode; not timed
        rounds, setup, bad, all_rows = [], [], [], []
        attempted = failed = 0
        n_rounds = 1  # planned from the first round: whole rounds filling --seconds
        while len(rounds) < n_rounds:
            job = wl.job_for_round(len(rounds), trace)
            job_path = os.path.join(tmp, f"job-{len(rounds)}.json")
            with open(job_path, "w", encoding="utf-8") as fh:
                json.dump(job, fh)
            proc, setup_s = _spawn([job_path], env)
            if _finish(proc) != 0:
                raise BenchError(f"worker exited with code {proc.returncode}")
            setup.append(setup_s)
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            n, f, rows, msgs = wl.outcome(result, len(rounds))
            attempted, failed = attempted + n, failed + f
            bad += msgs
            if not all_rows:
                all_rows = rows
            for bulky in ("matrices", "searches", "neighbour_eta"):
                result.pop(bulky, None)
            rounds.append(result)
            if len(rounds) == 1:
                n_rounds = max(1, round(seconds / result["round_s"]))
        while len(setup) < SETUP_SAMPLES:
            proc, setup_s = _spawn(["--probe"], env)
            _finish(proc)
            setup.append(setup_s)
        missed = checks.self_test(all_rows)
        bad += [f"self-test: checks missed a {m}" for m in missed]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return rounds, setup, attempted, failed, bad


def _end_to_end(rounds, setup):
    ops = [s for r in rounds for s in r["op_s"]]
    return {
        "setup_s": statistics.median(setup),
        "sweep_s": statistics.median(r["round_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "call_ms_p50": 1e3 * statistics.median(ops),
    }


def _per_layer(rounds):
    names = list(rounds[0]["layers"])
    values = {n: statistics.median(r["layers"][n] for r in rounds) for n in names}
    unsteady = [
        n for n in names
        if _unit(n) == "count" and len({r["layers"][n] for r in rounds}) > 1
    ]
    return values, unsteady


def _unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None):
    ap = argparse.ArgumentParser(description="wptopt benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="0: the plain grids")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "wptopt", "cli.py")):
        sys.exit(f"error: no wptopt sources under {SRC}")

    try:
        rounds, setup, attempted, failed, bad = run(
            args.workload, args.seed, args.seconds, args.trace
        )
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    for msg in bad[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    sweeps = [r["round_s"] for r in rounds]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  attempted {attempted}  failed {failed}  "
          f"checks {'pass' if not bad else f'{len(bad)} FAILED'}")
    print("round wall s: " + " ".join(f"{s:.3f}" for s in sweeps))
    if args.trace:
        values, unsteady = _per_layer(rounds)
        print(f"traced sweep_s (median round): {statistics.median(sweeps):.4f} s")
        for name, value in values.items():
            print(f"  {name:40s} {value:14.6g} {_unit(name)}")
        for name in unsteady:
            print(f"note: count {name} differs between rounds", file=sys.stderr)
        metrics = {n: {"value": v, "unit": _unit(n)} for n, v in values.items()}
    else:
        values = _end_to_end(rounds, setup)
        print("setup samples s: " + " ".join(f"{s:.4f}" for s in setup))
        for name, value in values.items():
            print(f"  {name:14s} {value:12.6g} {END_TO_END[name]}")
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}

    record = {"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(
        os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as fh:
        json.dump(dict(record, rounds=sweeps, op_s=[r["op_s"] for r in rounds], setup=setup), fh)
    print(json.dumps(record))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
