"""The traced mode's count metrics repeat exactly.

    python3 -m pytest perfbench/test_perfbench.py

Runs one traced pass twice over a few small ops, each time with a fresh
tracer, and requires every count (calls, rref cells, matmul m*n*k,
hom_space unknowns, object fallbacks) to be identical, so that a change
in a count can be cited as a change in work done.
"""

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from speed import ReferenceClock  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import GF, Q, Op  # noqa: E402

SMALL = [
    Op("analyze", "linear_nakayama", ("4",), GF, 2),
    Op("analyze", "thm39_type2", ("2", "gamma"), Q, 2),
    Op("construct", "auslander", ("A3",), GF),
]
COUNTS = [name for name, unit in PER_LAYER if unit != "s"]


def traced_counts(cli, checks, texts):
    tracer = Tracer().install()
    try:
        results, _, _ = run.run_pass(SMALL, cli, checks, texts, tracer)
    finally:
        tracer.uninstall()
    assert all(error is None for _, _, _, error in results), results
    metrics = tracer.metrics()
    return {name: metrics[name] for name in COUNTS}


def test_counts_repeat_exactly():
    cli, checks, texts = run.setup(SMALL)
    first = traced_counts(cli, checks, texts)
    second = traced_counts(cli, checks, texts)
    assert first == second
    for name in ("exactla.rref.calls", "exactla.rref.cells",
                 "exactla.matmul.mnk", "modules.hom_space.unknowns",
                 "findim.table.calls", "quivers.basis_between.calls",
                 "homology.global_dimension.calls"):
        assert first[name] > 0, name
    assert first["exactla.matmul.object_fallbacks"] == 0


def test_uninstall_restores_the_program():
    cli, checks, texts = run.setup(SMALL[:1])
    before = (checks.analyze, checks.global_dimension, cli.load_algebra)
    Tracer().install().uninstall()
    assert (checks.analyze, checks.global_dimension,
            cli.load_algebra) == before


def test_reference_clock_runs_probes_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    clock = ReferenceClock().start()
    t0 = time.perf_counter()
    readings = []
    while time.perf_counter() - t0 < 0.5:
        readings.append(clock.now())
    elapsed = clock.stop()
    wall = time.perf_counter() - t0
    assert readings == sorted(readings)
    assert clock.probes > 20
    # the host is at most a few times slower than its fast state
    assert wall / 10 < elapsed < wall * 2
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(run.workloads.WORKLOADS)


if __name__ == "__main__":
    test_counts_repeat_exactly()
    test_uninstall_restores_the_program()
    test_reference_clock_runs_probes_and_restores_sigalrm()
    test_benchmark_json_lists_what_run_reports()
    print("ok")
