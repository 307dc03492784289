"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py JOB.json      run the job's operations once
    python3 perfbench/worker.py --probe       stop once wptopt.cli is ready

The first thing imported is ``wptopt.cli``; ``ready`` goes to stdout as soon
as it is usable, so the parent's clock from spawn to that line is the cold
start every ``wptopt`` call pays.  Every round runs in its own process, so
the quadrature cache and any other in-process state start cold, as they do
for a user's CLI call.  The timed section holds only calls into wptopt;
inputs are made before it and check data after it.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import wptopt.cli  # noqa: E402  (cold start ends when this is usable)

if not os.path.abspath(wptopt.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"wptopt was imported from {wptopt.cli.__file__}, not from {SRC}")
print("ready", flush=True)

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

import wptopt  # noqa: E402


def _matrix(doc):
    z = np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
    return wptopt.ImpedanceMatrix(z, doc["frequency_hz"])


def _run_ops(job, zs):
    """The timed section: returns (seconds per op, outputs per op)."""
    op_s, outputs = [], []
    if job["workload"] == "load-search":

        def search(z):
            t0 = time.perf_counter()
            try:
                res = wptopt.optimize_load(z)
            except Exception as exc:  # a failed call is counted, not fatal
                res = exc
            return time.perf_counter() - t0, res

        # the CLI's default pool size, as `wptopt sweep --rl optimize` runs it
        with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
            for seconds, res in pool.map(search, zs):
                op_s.append(seconds)
                outputs.append(res)
    else:
        sink = io.StringIO()
        for argv in job["ops"]:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                rc = wptopt.cli.main(argv)
            op_s.append(time.perf_counter() - t0)
            outputs.append(rc)
    return op_s, outputs


def _peak_rss_mb():
    """High-water resident set of this process image.

    Not ``getrusage``: Linux carries ``ru_maxrss`` over from the parent
    across fork and exec, so it would report the benchmark's own size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _search_record(res):
    if isinstance(res, Exception):
        return {"error": f"{type(res).__name__}: {res}"}
    r = res.result
    return {
        "r_load": res.r_load,
        "evaluations": res.evaluations,
        "method": res.method,
        "status": r.status,
        "skipped": bool(r.skipped),
        "tight": bool(r.tight),
        "epsilon": float(r.epsilon),
        "eta": float(r.eta),
        "powers": [float(p) for p in r.transmit_powers],
    }


def _check_data(job, zs, outputs):
    """Program outputs the parent checks but that the timed section lacks.

    For preset sweeps: the program's impedance matrix of every row, built
    from the row's own angle and distance as the CLI builds it.
    """
    data = {}
    if not job["check_data"]:
        return data
    if job["workload"] == "quasi-static-sweep":
        from wptopt.circuit import C0, PRESET_FREQUENCY, GeometrySpec, build_loop_system

        lam = C0 / PRESET_FREQUENCY
        data["matrices"] = {}
        for argv in job["ops"]:
            name, out = argv[argv.index("--preset") + 1], argv[argv.index("--out") + 1]
            with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            mats = []
            for r in rows:
                angle = math.radians(float(r["theta_deg"]))
                geom = GeometrySpec.preset(name, float(r["d_frac"]) * lam, angle=angle)
                z = build_loop_system(geom).entries
                mats.append({"re": z.real.tolist(), "im": z.imag.tolist()})
            data["matrices"][out] = mats
    if job["workload"] == "load-search":
        from wptopt.pipeline import full_pipeline

        data["neighbour_eta"] = [
            [full_pipeline(z, res.r_load * f).eta for f in (0.99, 1.01)]
            if not isinstance(res, Exception)
            else None
            for z, res in zip(zs, outputs)
        ]
    return data


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    zs = [_matrix(doc) for doc in job.get("matrices", ())]

    t0 = time.perf_counter()
    op_s, outputs = _run_ops(job, zs)
    round_s = time.perf_counter() - t0
    rss_mb = _peak_rss_mb()
    spans = list(tracer.spans) if tracer else None

    result = {"round_s": round_s, "op_s": op_s, "rss_mb": rss_mb}
    if job["workload"] == "load-search":
        result["searches"] = [_search_record(r) for r in outputs]
    else:
        result["exit_codes"] = outputs
    result.update(_check_data(job, zs, outputs))
    if tracer:
        from spans import layer_metrics, write_spans

        result["layers"] = layer_metrics(spans)
        write_spans(job["spans"], spans)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:] != ["--probe"]:
        main(sys.argv[1])
