#!/usr/bin/env python3
"""Tracing overhead: untraced and traced passes alternating in one process.

    python3 perfbench/overhead.py corpus

On a shared host the CPU's speed can drift over minutes, so comparing
the medians of separate traced and untraced runs mostly measures the
drift; adjacent passes share it.  Runs PAIRS pairs on seed 0 and prints
each pair's walls and the median traced minus untraced wall, in seconds
and as a share of the untraced wall.
"""

import argparse
import json
import statistics

import run
import workloads
from tracer import Tracer

PAIRS = 2
SEED = 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    ops = workloads.ops_for(args.workload, SEED)
    cli, checks, texts = run.setup(ops)
    pairs = []
    for _ in range(PAIRS):
        _, plain, _ = run.run_pass(ops, cli, checks, texts, None)
        tracer = Tracer().install()
        try:
            _, traced, _ = run.run_pass(ops, cli, checks, texts, tracer)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
    extra = statistics.median(t - p for p, t in pairs)
    print(json.dumps({
        "workload": args.workload, "seed": SEED,
        "untraced_traced_wall_s": [[round(p, 3), round(t, 3)]
                                   for p, t in pairs],
        "overhead_s": round(extra, 3),
        "overhead_share": round(extra / statistics.median(
            p for p, _ in pairs), 3),
    }))


if __name__ == "__main__":
    main()
