#!/usr/bin/env python3
"""Regenerate the benchmark's input specs and reference outputs.

    python3 perfbench/make_reference.py

For every op any seed can draw (workloads.all_ops), writes the input
spec as ``quiveralg family`` emits it to ``inputs/`` (analyze ops), then
runs the op exactly as the benchmark does and writes its output to
``reference/``.  Run it only when a change to the program is meant to
change outputs; the references are what the benchmark checks against.
"""

import os
import sys

import check
import run
import workloads


def main():
    ops = workloads.all_ops()
    sys.path.insert(0, run.SRC)
    from quiveralg import checks, cli
    os.makedirs(workloads.INPUTS, exist_ok=True)
    os.makedirs(check.REFERENCE, exist_ok=True)
    texts = {}
    for op in ops:
        if op.kind == "analyze":
            field = cli._field_from_string(op.field)
            A, name = cli.build_family(op.family, list(op.params), field)
            texts[op.key] = cli.serialize_spec(A, name=name)
            with open(op.spec_path(), "w") as fh:
                fh.write(texts[op.key])
        out, shape = run.execute(op, cli, checks, texts, run._plain)
        with open(check.reference_path(op), "w") as fh:
            fh.write(out)
        problems = check.check_op(op, out, shape)
        print(op.key, "ok" if not problems else problems, flush=True)


if __name__ == "__main__":
    main()
