#!/usr/bin/env python3
"""Reproduce the closing worked example: the Auslander algebra of the
non-linearly oriented A3 quiver, its tau_2^- table, the preprojective
module split, and the stable endomorphism algebra."""

import sys

sys.path.insert(0, "src")

from quiveralg.checks import (is_n_rep_finite, is_self_injective,
                              iwanaga_gorenstein_dim)
from quiveralg.families import auslander_algebra, dynkin_path_algebra
from quiveralg.findim import quiver_presentation
from quiveralg.homology import tau_n_inv
from quiveralg.modules import projective
from quiveralg.preprojective import (preprojective_algebra,
                                     preprojective_module,
                                     stable_endomorphism)


def dims_str(m):
    return "-" if m.is_zero() else "(" + ",".join(map(str, m.dims)) + ")"


def main():
    H = dynkin_path_algebra(3, ["f", "b"])
    L = auslander_algebra(H)
    print(f"Lambda = Auslander algebra of A3 (1 -> 2 <- 3): dim {L.dim}, "
          f"{L.quiver.n_vertices} vertices, {L.quiver.n_arrows} arrows")
    print()
    print("tau_2^- iterates of the indecomposable projectives:")
    mods = [projective(L, v) for v in range(6)]
    print("  P_v:     ", "  ".join(dims_str(m) for m in mods))
    it = 0
    while any(not m.is_zero() for m in mods):
        mods = [tau_n_inv(m, 2) if not m.is_zero() else m for m in mods]
        it += 1
        print(f"  tau^-{it}:  ", "  ".join(dims_str(m) for m in mods))
    print()
    split = preprojective_module(L, 2)
    parts = [r for r, g in zip(split.summand_reps, split.summand_grades)
             if g > 0]
    print(f"preprojective module: dim {split.dim}; non-projective part has "
          f"{len(parts)} summands of dims "
          f"{sorted(r.total_dim for r in parts)}")
    talg = preprojective_algebra(L, 2)
    pres = quiver_presentation(talg)
    print(f"preprojective algebra: dim {talg.dim}; quiver "
          f"{pres.quiver.n_vertices} vertices / {pres.quiver.n_arrows} arrows")
    print(f"self-injective: {is_self_injective(pres).value}; "
          f"Iwanaga-Gorenstein dimension: {iwanaga_gorenstein_dim(pres)}")
    print(f"2-representation-finite: {is_n_rep_finite(L, 2).value}")
    gamma = stable_endomorphism(L, 2)
    gp = quiver_presentation(gamma)
    arrows = ", ".join(f"{gp.quiver.vertices[s]} -> {gp.quiver.vertices[t]}"
                       for _, s, t in gp.quiver.arrows)
    print(f"stable endomorphism algebra: dim {gamma.dim}; quiver on "
          f"{gp.quiver.n_vertices} vertices with arrows [{arrows}] "
          f"(the path algebra of o -> o <- o)")


if __name__ == "__main__":
    main()
