"""Check that a change leaves every CLI output byte-identical to a base revision.

Unpacks the base revision's ``src/`` with ``git archive`` (no worktree is
left behind), writes the retarded benchmark families of the requested
seeds once with ``perfbench/families.py`` (which only reads ``perfbench/``),
and runs the same CLI jobs under the base tree and under this checkout,
BLAS on one thread:

- ``wptopt sweep`` of every family of every seed;
- the quasi-static grid ``perfbench/families.quasi_static_grid(seed)`` of
  every seed, for all 5 presets: seed 0 is the CI grid (theta -90:90:2, six
  distances), other seeds jitter the angle step and the distances;
- the seed-0 miso-3p family with ``--rl optimize`` and with
  ``--constraints none``, and the seed-0 miso-2p family with
  ``--constraints caps=1e6,1e6``;
- ``wptopt solve`` of a preset point (closed form), and of the first point
  of the seed-0 miso-3p family, which binds: as it is, with ``--rl
  optimize``, with ``--rl 0.05`` and with ``--constraints none``;
- ``wptopt gen-matrix`` of a preset point, and ``wptopt validate``.

Each tree runs its jobs in one process, in the same order, with relative
output paths.  A job's exit code, stdout and stderr (warnings without
their source location, every time they occur) go to ``logs/<job>.txt``
next to its output files.  Every file of the two output trees is then
compared byte for byte; the first differing line of each file that
differs is printed, and the exit code is 1 on any difference.

Run from anywhere in the repository::

    python3 tools/same_outputs.py BASE [--seeds 0,11-40] [--work DIR]

BASE is any git revision, for example ``HEAD~1``.  Without ``--work`` the
unpacked tree and the outputs go to a temporary directory that is removed
at the end.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import families  # noqa: E402  (reads only perfbench/)

# runs in each tree: every job through wptopt.cli.main, its log beside it
WORKER = r"""
import contextlib, io, json, os, sys, warnings
from wptopt.cli import main

def show(message, category, *args, **kwargs):
    print(f"{category.__name__}: {message}", file=sys.stderr)

with open(sys.argv[1], encoding="utf-8") as fh:
    todo = json.load(fh)
warnings.simplefilter("always")
warnings.showwarning = show
os.makedirs("logs", exist_ok=True)
for name, argv in todo:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    path = os.path.join("logs", name.replace("/", "__") + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
"""


def parse_seeds(text):
    """'0,11-40' -> [0, 11, 12, ..., 40]."""
    seeds = []
    for tok in text.split(","):
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def unpack_src(rev, dest):
    """The ``src/`` of a git revision, unpacked under dest."""
    blob = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def write_inputs(seeds, inputs):
    """Family files per seed, and the binding point as a single-matrix file."""
    paths = {}
    for seed in sorted(set(seeds) | {0}):
        paths[seed] = families.write_families(seed, os.path.join(inputs, f"seed{seed}"))
    with open(paths[0]["miso-3p"], encoding="utf-8") as fh:
        first = json.load(fh)["points"][0]["matrix"]
    binding = os.path.join(inputs, "binding.json")
    with open(binding, "w", encoding="utf-8") as fh:
        json.dump(first, fh)
    return paths, binding


def jobs(seeds, paths, binding):
    """(name, argv) of every CLI run; each name is also its output directory."""
    out = []
    for seed in seeds:
        for preset, path in paths[seed].items():
            out.append((f"seed{seed}/{preset}", ["sweep", "--matrix", path]))
    for seed in seeds:
        thetas, distances = families.quasi_static_grid(seed)
        for preset in families.PRESETS:
            out.append((f"qs{seed}/{preset}", [
                "sweep", "--preset", preset, f"--theta-range={thetas}",
                "--d", ",".join(map(repr, distances)),
            ]))
    family = paths[0]["miso-3p"]
    out.append(("seed0/miso-3p-rl-optimize", ["sweep", "--matrix", family, "--rl", "optimize"]))
    out.append(("seed0/miso-3p-constraints-none",
                ["sweep", "--matrix", family, "--constraints", "none"]))
    out.append(("seed0/miso-2p-caps",
                ["sweep", "--matrix", paths[0]["miso-2p"], "--constraints", "caps=1e6,1e6"]))
    out.append(("solve-preset", ["solve", "--preset", "miso-3p", "--theta", "30"]))
    out.append(("solve-binding", ["solve", "--matrix", binding]))
    out.append(("solve-binding-rl-optimize",
                ["solve", "--matrix", binding, "--rl", "optimize"]))
    out.append(("solve-binding-rl-ohms", ["solve", "--matrix", binding, "--rl", "0.05"]))
    out.append(("solve-binding-constraints-none",
                ["solve", "--matrix", binding, "--constraints", "none"]))
    out.append(("gen-matrix", ["gen-matrix", "--preset", "miso-3p", "--d", "0.07",
                               "--theta", "33"]))
    out = [(name, argv + ["--out", name]) for name, argv in out]
    out.append(("validate", ["validate"]))
    return out


def run_trees(trees, job_file):
    """Run the jobs under every (src, output dir) pair at once; the exit codes."""
    procs = []
    for src, out_dir in trees:
        os.makedirs(out_dir)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        procs.append(subprocess.Popen(
            [sys.executable, "-c", WORKER, job_file], cwd=out_dir, env=env
        ))
    return [proc.wait() for proc in procs]


def first_difference(a, b):
    """(line number, line of a, line of b) of the first line that differs."""
    la, lb = a.splitlines(), b.splitlines()
    for k in range(max(len(la), len(lb))):
        x = la[k] if k < len(la) else b"<end of file>"
        y = lb[k] if k < len(lb) else b"<end of file>"
        if x != y:
            return k + 1, x, y
    return None, b"<line ends differ>", b""


def compare(base_dir, head_dir):
    """Print every file that differs; the number of files compared and of
    those that differ."""
    def files(top):
        return {
            os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names
        }

    names = sorted(files(base_dir) | files(head_dir))
    differ = 0
    for name in names:
        pa, pb = os.path.join(base_dir, name), os.path.join(head_dir, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            differ += 1
            print(f"DIFFER {name}: only in {'base' if os.path.exists(pa) else 'head'}")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            differ += 1
            line, x, y = first_difference(a, b)
            print(f"DIFFER {name} line {line}:")
            print(f"  base: {x[:200].decode(errors='replace')}")
            print(f"  head: {y[:200].decode(errors='replace')}")
    return len(names), differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--seeds", type=parse_seeds, default="0,11-40",
                    help="family seeds, commas and ranges (default 0,11-40)")
    ap.add_argument("--work", help="keep the base tree and outputs here (must not exist)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        os.makedirs(work, exist_ok=args.work is None)
        base_src = unpack_src(args.base, os.path.join(work, "base-tree"))
        paths, binding = write_inputs(args.seeds, os.path.join(work, "inputs"))
        job_file = os.path.join(work, "jobs.json")
        with open(job_file, "w", encoding="utf-8") as fh:
            json.dump(jobs(args.seeds, paths, binding), fh)
        out_base, out_head = os.path.join(work, "out-base"), os.path.join(work, "out-head")
        codes = run_trees([(base_src, out_base), (os.path.join(ROOT, "src"), out_head)], job_file)
        if any(codes):
            print(f"a worker failed: exit codes {codes} (base, head)")
            return 1
        n_files, differ = compare(out_base, out_head)
    if differ:
        print(f"{differ} of {n_files} files differ")
        return 1
    print(f"all {n_files} files identical ({len(args.seeds)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
