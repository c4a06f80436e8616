#!/usr/bin/env python3
"""quiveralg benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports quiveralg from
``src/`` there and from nowhere else.

Load model: one closed-loop client.  A single process runs the
workload's ops one after another, each starting when the previous one
finishes; it starts no threads or processes during the passes (OpenBLAS
keeps its own default thread count, which the environment record
reports).  A pass
runs every op once; passes repeat until ``--seconds`` have been spent,
and there is always at least one.  An ``analyze`` op makes the calls of
``quiveralg analyze --format json``; a ``construct`` op those of
``quiveralg family``.

``--trace 0`` reports the end-to-end metrics (medians over passes),
timed in reference seconds (speed.py) so that the host's changes of CPU
speed do not show as changes of the program; ``--trace 1`` wraps the
program's boundary functions (see tracer.py) and reports the per-layer
metrics instead, timed in wall seconds.  Every op's output is checked
after its pass (check.py); an op that raises or fails a check counts in
``failed``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from speed import ReferenceClock  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 9
ANALYZE_CAP = 32     # quiveralg analyze defaults: --cap 32, and
LOAD_CAP = 64          # load_algebra gets max(--cap, 64)

END_TO_END = [("wall_s", "s"), ("slowest_op_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up: import the program and load every input spec
# ---------------------------------------------------------------------------

def setup(ops):
    if not os.path.isfile(os.path.join(SRC, "quiveralg", "__init__.py")):
        raise SetupError(f"no quiveralg sources under {SRC}")
    sys.path.insert(0, SRC)
    import quiveralg
    from quiveralg import checks, cli
    if not os.path.abspath(quiveralg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"quiveralg imported from {quiveralg.__file__}, "
                         f"not from {SRC}")
    texts = {}
    for op in ops:
        if op.kind == "analyze":
            with open(op.spec_path()) as fh:
                texts[op.key] = fh.read()
            cli.load_algebra(texts[op.key], None, cap=LOAD_CAP)
    return cli, checks, texts


def probe_setup(workload, seed):
    """Median seconds from spawning a fresh interpreter until it has done
    set-up (import plus loading every input spec).  The child,
    setup_probe.py, starts a reference clock (speed.py) right after the
    interpreter starts; that start counts in wall seconds, the rest in
    reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: " + proc.stderr.strip())
        clock_start, reference_s = map(float, proc.stdout.split()[-2:])
        times.append(clock_start - t0 + reference_s)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# ops and passes
# ---------------------------------------------------------------------------

def _plain(name, fn, *args):
    return fn(*args)


def execute(op, cli, checks, texts, span):
    """Run one op; return its output text and the (vertices, dim) of the
    algebra it produced (analyze: the loaded input, construct: the
    constructed algebra)."""
    if op.kind == "analyze":
        text = texts[op.key]
        A = cli.load_algebra(text, None, cap=LOAD_CAP)
        rep = checks.analyze(
            A, op.n, cap=ANALYZE_CAP,
            algebra_id=getattr(A, "meta", {}).get("name", "algebra"), seed=0)
        out = span("cli.report_json", lambda: cli.emit_report(
            cli._envelope(asdict(rep), text, 0), "json"))
        return out, (A.quiver.n_vertices, A.dim)
    field = cli._field_from_string(op.field)
    A, name = cli.build_family(op.family, list(op.params), field)
    return cli.serialize_spec(A, name=name), (A.quiver.n_vertices, A.dim)


def run_pass(ops, cli, checks, texts, tracer, pass_no=0,
             clock=time.perf_counter):
    """Run every op once; times are differences of ``clock()``."""
    span = tracer.span if tracer else _plain
    gc.collect()
    results = []
    cpu0 = _cpu_s()
    t_pass = clock()
    for i, op in enumerate(ops):
        if tracer:
            tracer.set_op(pass_no * len(ops) + i)
        t0 = clock()
        try:
            out = span("bench.op", execute, op, cli, checks, texts, span)
        except Exception:
            out = traceback.format_exc()
            results.append((op, None, clock() - t0, out))
            continue
        results.append((op, out, clock() - t0, None))
    wall = clock() - t_pass
    cpu = _cpu_s() - cpu0
    return results, wall, cpu


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(workload, seed, trace):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "git_rev": _git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ops = workloads.ops_for(args.workload, args.seed)

    try:
        # setup_s is an end-to-end metric; a traced run reports none
        setup_s = None if args.trace else probe_setup(args.workload,
                                                      args.seed)
        cli, checks, texts = setup(ops)
    except (SetupError, OSError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    # untraced passes are timed in reference seconds (speed.py), traced
    # ones in wall seconds
    tracer = clock = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    else:
        clock = ReferenceClock().start()

    passes = []
    raw_walls = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not passes or time.perf_counter() < deadline:
            before = tracer.metrics() if tracer else None
            t_raw = time.perf_counter()
            results, wall, cpu = run_pass(
                ops, cli, checks, texts, tracer, len(passes),
                clock.now if clock else time.perf_counter)
            raw_walls.append(time.perf_counter() - t_raw)
            layer = None
            if tracer:
                after = tracer.metrics()
                layer = {k: after[k] - before[k] for k in after}
                layer["process.cpu_s"] = cpu
                layer["trace.wall_s"] = wall
            passes.append((results, wall, layer))
    finally:
        if tracer:
            tracer.uninstall()
        else:
            clock.stop()

    attempted = failed = 0
    op_log = []
    for p, (results, wall, _) in enumerate(passes):
        for op, out, dt, error in results:
            attempted += 1
            problems = [error] if error else check.check_op(op, *out)
            failed += bool(problems)
            for msg in problems:
                print(f"FAILED {op.key} (pass {p}): {msg}", file=sys.stderr)
            op_log.append({"pass": p, "op": op.key, "s": dt,
                           "problems": problems})

    if tracer:
        from tracer import PER_LAYER
        units = dict(PER_LAYER)
        metrics = {k: {"value": statistics.median(l[k] for _, _, l in passes),
                       "unit": units[k]} for k in units}
    else:
        values = {
            "wall_s": statistics.median(w for _, w, _ in passes),
            "slowest_op_s": statistics.median(
                max(r[2] for r in res) for res, _, _ in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    env = environment(args.workload, args.seed, args.trace)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "passes": len(passes),
                   "raw_wall_s": raw_walls, "ops": op_log,
                   "result": result}, fh, indent=1)
    if tracer:
        tracer.write_spans(stem + ".spans.jsonl")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)}")
    print(f"raw_wall_s {statistics.median(raw_walls):.6g} s (median, "
          "wall clock)")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"failed_ops {failed} count")
    print(f"ops {attempted} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
