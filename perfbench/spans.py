"""In-memory spans around calls into each wptopt layer.

The wrappers go on the names the callers look up, because the modules
import one another's functions by name (``cli`` calls its own
``full_pipeline``, ``pipeline`` its own ``solve``).  A span records name,
start, end, parent and thread; a span opened in a sweep pool thread with
nothing open on that thread takes the open main-thread span (``cli.main``)
as parent, so self times subtract child work done on either thread.
"""

import importlib
import itertools
import json
import statistics
import threading
import time

# (module, attribute looked up by the caller, span name)
CALL_SITES = (
    ("wptopt.cli", "main", "cli.main"),
    ("wptopt.cli", "build_loop_system", "circuit.build_loop_system"),
    ("wptopt.circuit", "mutual_inductance", "circuit.mutual_inductance"),
    ("wptopt.cli", "matrix_from_json", "circuit.matrix_from_json"),
    ("wptopt.pipeline", "solve_closed_form", "closedform.solve_closed_form"),
    ("wptopt.closedform", "port_impedance_matrices", "pims.port_impedance_matrices"),
    ("wptopt.qcqp", "port_impedance_matrices", "pims.port_impedance_matrices"),
    ("wptopt.pipeline", "build_problem", "qcqp.build_problem"),
    ("wptopt.cli", "full_pipeline", "pipeline.full_pipeline"),
    ("wptopt.pipeline", "full_pipeline", "pipeline.full_pipeline"),
    ("wptopt.pipeline", "solve_relaxation", "pipeline.solve_relaxation"),
    ("wptopt.pipeline", "recover_operating_point", "pipeline.recover_operating_point"),
    ("wptopt", "optimize_load", "pipeline.optimize_load"),
    ("wptopt.pipeline", "solve", "sdp.solve"),
    ("wptopt.pipeline", "check_kkt", "sdp.check_kkt"),
)

# counts read off a call's return value: span name -> attribute
RESULT_COUNTS = {"sdp.solve": "iterations", "pipeline.optimize_load": "evaluations"}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._main = threading.get_ident()

    def wrap(self, name, fn):
        count_attr = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = not stack and threading.get_ident() == self._main
            if is_root:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            count = getattr(result, count_attr, 0) if count_attr else 0
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), int(count))
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every call site that exists (a missing one reads 0)."""
        for module, attr, name in CALL_SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.wrap(name, fn))


def write_spans(path, spans):
    """One JSON object per line: id, name, start, end, parent, thread, count."""
    keys = ("id", "name", "start", "end", "parent", "thread", "count")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))))
            fh.write("\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans):
    """Per-layer figures of one round: counts, busy and self seconds, ms tails."""
    children = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    by_name = {}
    for sid, name, start, end, _, _, count in spans:
        rec = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": [], "count": 0})
        dur = end - start
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += dur - _covered(children.get(sid, ()))
        rec["ms"].append(1e3 * dur)
        rec["count"] += count

    def get(name, key):
        rec = by_name.get(name)
        if rec is None:
            return 0
        if key == "ms_p50":
            return _percentile(rec["ms"], 50)
        if key == "ms_p90":
            return _percentile(rec["ms"], 90)
        return rec[key]

    out = {
        "cli.main.self_s": get("cli.main", "self_s"),
        "circuit.build_loop_system.s": get("circuit.build_loop_system", "s"),
        "circuit.build_loop_system.calls": get("circuit.build_loop_system", "calls"),
        "circuit.mutual_inductance.s": get("circuit.mutual_inductance", "s"),
        "circuit.mutual_inductance.calls": get("circuit.mutual_inductance", "calls"),
        "circuit.matrix_from_json.s": get("circuit.matrix_from_json", "s"),
        "closedform.solve_closed_form.s": get("closedform.solve_closed_form", "s"),
        "closedform.solve_closed_form.calls": get("closedform.solve_closed_form", "calls"),
        "pims.port_impedance_matrices.s": get("pims.port_impedance_matrices", "s"),
        "pims.port_impedance_matrices.calls": get("pims.port_impedance_matrices", "calls"),
        "qcqp.build_problem.s": get("qcqp.build_problem", "s"),
        "qcqp.build_problem.calls": get("qcqp.build_problem", "calls"),
        "pipeline.full_pipeline.calls": get("pipeline.full_pipeline", "calls"),
        "pipeline.full_pipeline.ms_p50": get("pipeline.full_pipeline", "ms_p50"),
        "pipeline.full_pipeline.ms_p90": get("pipeline.full_pipeline", "ms_p90"),
        "pipeline.solve_relaxation.calls": get("pipeline.solve_relaxation", "calls"),
        "pipeline.solve_relaxation.self_s": get("pipeline.solve_relaxation", "self_s"),
        "pipeline.recover_operating_point.s": get("pipeline.recover_operating_point", "s"),
        "pipeline.optimize_load.evaluations": get("pipeline.optimize_load", "count"),
        "sdp.solve.calls": get("sdp.solve", "calls"),
        "sdp.solve.s": get("sdp.solve", "s"),
        "sdp.solve.ms_p50": get("sdp.solve", "ms_p50"),
        "sdp.solve.iterations": get("sdp.solve", "count"),
        "sdp.check_kkt.s": get("sdp.check_kkt", "s"),
    }
    solves = out["sdp.solve.calls"]
    # no SDP solve at all wastes none
    out["sdp.solve.useful_ratio"] = (
        out["pipeline.solve_relaxation.calls"] / solves if solves else 1.0
    )
    return out
