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
``quiver_presentation`` and ``global_dimension`` rows are Gamma's.  Each
``preprojective.ext_bimodule`` call inside a stage (E, which
``preprojective_algebra`` builds first) gets an indented row under that
stage's row, timed the same way.  Then come the seconds of the op (spec
load and analyze), its plain wall seconds as ``raw_wall_s`` and the peak
RSS in MB.  The stage and op
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

from quiveralg import checks, preprojective  # noqa: E402
from quiveralg.cli import (_field_from_string, build_family,  # noqa: E402
                           load_algebra, serialize_spec)
from speed import ReferenceClock  # noqa: E402

# the functions of the checks namespace that analyze calls
STAGES = ["global_dimension", "is_n_rep_finite", "is_tau_n_finite",
          "vosnex", "preprojective_module", "preprojective_algebra",
          "quiver_presentation", "is_self_injective",
          "iwanaga_gorenstein_dim", "rigidity",
          "amiot_hom", "stable_endomorphism", "cy_spot_check"]
# the functions of the preprojective module timed inside a stage
SUBSTAGES = ["ext_bimodule"]


def _peak_mb() -> float:
    # ru_maxrss is in KB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(name, fn, rows, depth, clock, subs, sub=False):
    """fn, recording (name, reference seconds, peak MB after it, its
    sub-stage rows) in ``rows`` when it is not called from inside another
    stage.  A sub-stage (``sub``) called inside a stage records (name,
    seconds, peak MB) in ``subs`` instead, for that stage's row."""
    def wrapper(*a, **kw):
        depth[0] += 1
        t0 = clock.now()
        try:
            return fn(*a, **kw)
        finally:
            depth[0] -= 1
            row = (name, clock.now() - t0, _peak_mb())
            if sub and depth[0]:
                subs.append(row)
            elif not depth[0]:
                rows.append(row + (subs[:],))
                subs.clear()
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

    rows: list[tuple] = []
    subs: list[tuple[str, float, float]] = []
    depth = [0]
    clock = ReferenceClock()
    saved = [(checks, s, getattr(checks, s)) for s in STAGES] + \
        [(preprojective, s, getattr(preprojective, s)) for s in SUBSTAGES]
    for mod, s, fn in saved:
        setattr(mod, s, _timed(s, fn, rows, depth, clock, subs,
                               sub=mod is preprojective))
    clock.start()
    try:
        t0 = time.perf_counter()
        checks.analyze(load_algebra(text), args.n)
        raw_wall = time.perf_counter() - t0
    finally:
        wall = clock.stop()
        for mod, s, fn in saved:
            setattr(mod, s, fn)
    peak_mb = _peak_mb()
    print(f"op: analyze {name} n={args.n} over {args.field}")
    print(f"{'stage':<24}{'s':>8}{'peak_rss_mb':>13}")
    for s, secs, mb, inner in rows:
        print(f"{s:<24}{secs:>8.2f}{mb:>13.0f}")
        for sub, secs, mb in inner:
            print(f"  {sub:<22}{secs:>8.2f}{mb:>13.0f}")
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
