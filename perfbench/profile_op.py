#!/usr/bin/env python3
"""One traced ``analyze`` op on Aus(A5) at n=2, outside the workloads.

    python3 perfbench/profile_op.py

Builds the Aus(A5) spec over GF(32003) as ``quiveralg family auslander
A5`` would (untimed), runs one analyze op under the tracer and prints its
per-layer metrics, the stage table among them, as JSON.  The op takes
about 215 s untraced, too long to gate on.
"""

import json
import sys

import run
from tracer import PER_LAYER, Tracer
from workloads import GF, Op

OP = Op("analyze", "auslander", ("A5",), GF, 2)


def main():
    cli, checks, _ = run.setup([])
    A, name = cli.build_family(OP.family, list(OP.params),
                               cli._field_from_string(OP.field))
    texts = {OP.key: cli.serialize_spec(A, name=name)}
    tracer = Tracer().install()
    try:
        results, wall, cpu = run.run_pass([OP], cli, checks, texts, tracer)
    finally:
        tracer.uninstall()
    _, out, _, error = results[0]
    if error:
        print(error, file=sys.stderr)
        return 1
    metrics = tracer.metrics()
    metrics["process.cpu_s"] = cpu
    metrics["trace.wall_s"] = wall
    print(json.dumps({
        "op": OP.key,
        "per_layer": {k: metrics[k] for k, _ in PER_LAYER},
        "problems": run.check.check_report(json.loads(out[0])["report"]),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
