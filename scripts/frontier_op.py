#!/usr/bin/env python3
"""One ``analyze`` op on an input too large for the benchmark workloads.

    python3 scripts/frontier_op.py auslander A6 --n 2
    python3 scripts/frontier_op.py canonical_2222 2 --n 2 --field Q
    python3 scripts/frontier_op.py auslander A6 --n 2 --max-rss-mb 600

Builds the algebra as ``quiveralg family FAMILY PARAMS`` does and reads it
back from its spec, untimed.  Then it runs one ``analyze`` at degree n and
prints three lines: the wall seconds of the op (spec load and analyze),
the seconds of its ``stable_endomorphism`` call (the Gamma stage without
its presentation), and the peak RSS of the process in MB.  With
``--max-rss-mb`` it exits with status 1 when the peak is above that
ceiling.
"""

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from quiveralg import checks  # noqa: E402
from quiveralg.cli import (_field_from_string, build_family,  # noqa: E402
                           load_algebra, serialize_spec)


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

    gamma_s = []
    stable_endomorphism = checks.stable_endomorphism

    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return stable_endomorphism(*a, **kw)
        finally:
            gamma_s.append(time.perf_counter() - t0)

    checks.stable_endomorphism = timed
    try:
        t0 = time.perf_counter()
        checks.analyze(load_algebra(text), args.n)
        wall = time.perf_counter() - t0
    finally:
        checks.stable_endomorphism = stable_endomorphism
    # ru_maxrss is in KB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"op: analyze {name} n={args.n} over {args.field}")
    print(f"wall_s: {wall:.2f}")
    print(f"stable_endomorphism_s: {sum(gamma_s):.2f}")
    print(f"peak_rss_mb: {peak_mb:.0f}")
    if args.max_rss_mb is not None and peak_mb > args.max_rss_mb:
        print(f"peak RSS {peak_mb:.0f} MB is above the ceiling of "
              f"{args.max_rss_mb:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
