#!/usr/bin/env python3
"""One set-up probe: the fresh interpreter run.py times for ``setup_s``.

    python3 perfbench/setup_probe.py corpus 0

Starts a reference clock (speed.py) first thing, then does the
benchmark's set-up for the workload and seed: import quiveralg from
``src/`` and load every input spec.  Prints the wall time at which the
clock started and the reference seconds the set-up took.  The imports
sit inside main() so that the clock times them.
"""

import sys
import time


def main(workload, seed):
    clock_start = time.time()
    from speed import ReferenceClock
    clock = ReferenceClock().start()
    import run
    import workloads
    try:
        run.setup(workloads.ops_for(workload, int(seed)))
    except (run.SetupError, OSError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(repr(clock_start), repr(clock.stop()))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
