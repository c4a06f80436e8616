"""Output checks for the benchmark's ops.

Every op's output is compared byte for byte with the committed reference
under ``reference/`` (one file per op that any seed can draw, written by
make_reference.py).  Independently of the references, these invariants
must hold:

- analyze: no verdict is "unknown"; the three routes to dim of the
  preprojective algebra agree (module split = tensor algebra = Amiot Hom
  total); and, since gldim <= n, A is n-RF exactly when the
  preprojective algebra is self-injective;
- Aus(A_s), as input or as output, has s(s+1)/2 vertices;
- ``higher_auslander_chain 4 2`` ends at an algebra of dimension 84, the
  last of the chain's dimensions 10, 35, 84 (the op only returns the last
  algebra; the reference pins all of it).
"""

from __future__ import annotations

import json
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")
CHAIN_DIMS = {("4", "2"): 84}


def reference_path(op) -> str:
    return os.path.join(REFERENCE, op.key + (
        ".json" if op.kind == "analyze" else ".spec"))


def check_op(op, out: str, shape: tuple[int, int]) -> list[str]:
    """Problems with one op's output; empty when it is correct."""
    problems = []
    try:
        with open(reference_path(op)) as fh:
            if fh.read() != out:
                problems.append("output differs from the reference")
    except FileNotFoundError:
        problems.append("no reference output")
    vertices, dim = shape
    s = op.auslander_rank()
    if s is not None and vertices != s * (s + 1) // 2:
        problems.append(f"Aus(A{s}) has {vertices} vertices, "
                        f"not {s * (s + 1) // 2}")
    if op.family == "higher_auslander_chain" and op.kind == "construct" \
            and dim != CHAIN_DIMS[op.params]:
        problems.append(f"chain ends at dim {dim}, "
                        f"not {CHAIN_DIMS[op.params]}")
    if op.kind == "analyze":
        problems += check_report(json.loads(out)["report"])
    return problems


def check_report(rep: dict) -> list[str]:
    problems = []
    verdicts = {
        "gldim": rep["gldim"],
        "tau_n_finite": rep["tau_n_finite"]["value"],
        "n_rep_finite": rep["n_rep_finite"]["value"],
        "self_injective_tilde": rep["self_injective_tilde"]["value"],
        "vosnex": rep["vosnex"]["value"],
        "ig_dimension": rep["ig_dimension"],
        "gamma.gldim": rep["gamma"].get("gldim", "missing"),
    }
    for k, v in verdicts.items():
        if v == "unknown" or v == "missing":
            problems.append(f"{k} is {v}")
    cv = rep["cross_validation"]
    dims = [cv.get("preprojective_module_dim"),
            cv.get("preprojective_algebra_dim"), cv.get("amiot_hom_total")]
    if None in dims or len(set(dims)) != 1:
        problems.append(f"dim of the preprojective algebra: module {dims[0]}"
                        f", tensor algebra {dims[1]}, Amiot Hom {dims[2]}")
    if isinstance(rep["gldim"], int) and rep["gldim"] <= rep["n"] and \
            verdicts["n_rep_finite"] != verdicts["self_injective_tilde"]:
        problems.append(
            f"n-RF is {verdicts['n_rep_finite']} but the preprojective "
            f"algebra's self-injectivity is {verdicts['self_injective_tilde']}")
    return problems
