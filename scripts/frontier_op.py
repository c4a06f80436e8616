#!/usr/bin/env python3
"""One ``analyze`` op on an input too large for the benchmark workloads.

    python3 scripts/frontier_op.py auslander A6 --n 2
    python3 scripts/frontier_op.py canonical_2222 2 --n 2 --field Q
    python3 scripts/frontier_op.py auslander A6 --n 2 --max-rss-mb 600

Builds the algebra as ``quiveralg family FAMILY PARAMS`` does and reads it
back from its spec, untimed.  Then it runs one ``analyze`` at degree n and
prints its stage table: one row per call that ``analyze`` makes to a
stage function of ``checks``, in call order, with the seconds of the call
and the peak RSS of the process after it.  The second
``quiver_presentation`` and ``global_dimension`` rows are Gamma's.  Then
come the seconds of the op (spec load and analyze), its plain wall
seconds as ``raw_wall_s`` and the peak RSS in MB.  The stage and op
seconds are reference seconds, read from ``perfbench/speed.py``'s
``ReferenceClock``, so that the host's changes of CPU speed do not show
as changes of the program.  With ``--max-rss-mb`` it exits with status 1
when the peak is above that ceiling.
"""

import argparse
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from quiveralg import checks  # noqa: E402
from quiveralg.cli import (_field_from_string, build_family,  # noqa: E402
                           load_algebra, serialize_spec)
from speed import ReferenceClock  # noqa: E402

# the functions of the checks namespace that analyze calls
STAGES = ["global_dimension", "is_n_rep_finite", "is_tau_n_finite",
          "vosnex", "preprojective_module", "preprojective_algebra",
          "quiver_presentation", "is_self_injective",
          "iwanaga_gorenstein_dim", "rigidity",
          "amiot_hom", "stable_endomorphism", "cy_spot_check"]


def _peak_mb() -> float:
    # ru_maxrss is in KB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(name, fn, rows, depth, clock):
    """fn, recording (name, reference seconds, peak MB after it) in
    ``rows`` when it is not called from inside another stage."""
    def wrapper(*a, **kw):
        depth[0] += 1
        t0 = clock.now()
        try:
            return fn(*a, **kw)
        finally:
            depth[0] -= 1
            if not depth[0]:
                rows.append((name, clock.now() - t0, _peak_mb()))
    return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family")
    parser.add_argument("params", nargs="+")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--field", default="GF(32003)")
    parser.add_argument("--max-rss-mb", type=float, default=None)
    args = parser.parse_args(argv)

    A, name = build_family(args.family, args.params,
                           _field_from_string(args.field))
    text = serialize_spec(A, name=name)

    rows: list[tuple[str, float, float]] = []
    depth = [0]
    clock = ReferenceClock()
    saved = {s: getattr(checks, s) for s in STAGES}
    for s, fn in saved.items():
        setattr(checks, s, _timed(s, fn, rows, depth, clock))
    clock.start()
    try:
        t0 = time.perf_counter()
        checks.analyze(load_algebra(text), args.n)
        raw_wall = time.perf_counter() - t0
    finally:
        wall = clock.stop()
        for s, fn in saved.items():
            setattr(checks, s, fn)
    peak_mb = _peak_mb()
    print(f"op: analyze {name} n={args.n} over {args.field}")
    print(f"{'stage':<24}{'s':>8}{'peak_rss_mb':>13}")
    for s, secs, mb in rows:
        print(f"{s:<24}{secs:>8.2f}{mb:>13.0f}")
    print(f"wall_s: {wall:.2f}")
    print(f"raw_wall_s: {raw_wall:.2f}")
    print(f"peak_rss_mb: {peak_mb:.0f}")
    if args.max_rss_mb is not None and peak_mb > args.max_rss_mb:
        print(f"peak RSS {peak_mb:.0f} MB is above the ceiling of "
              f"{args.max_rss_mb:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
