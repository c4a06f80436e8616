"""Generators for the concrete algebra families used throughout.

Linear Nakayama algebras with one long zero relation, the two-parameter
family with a commutativity relation and gamma/delta choices, canonical
(2,2,2,2) algebras, Dynkin path algebras, AR-quiver knitting for
hereditary representation-finite algebras, and (higher) Auslander
algebra constructions.
"""

from __future__ import annotations

from .errors import QuiverAlgError
from .exactla import DEFAULT_FIELD, Field
from .findim import quiver_presentation
from .homology import global_dimension, tau_inv
from .modules import projective
from .preprojective import end_algebra, preprojective_module
from .quivers import (BoundQuiverAlgebra, Path, PathElement, Quiver,
                      complete_basis)

__all__ = ["linear_nakayama", "thm39_type2", "canonical_2222",
           "dynkin_path_algebra", "knit_indecomposables", "auslander_algebra",
           "higher_auslander_chain"]


def linear_nakayama(v: int, field: Field = DEFAULT_FIELD) -> BoundQuiverAlgebra:
    """Linear quiver on v vertices with the full composite path as the one
    relation; rejects v < 3 where the relation would degenerate to an
    arrow."""
    if v < 3:
        raise QuiverAlgError(
            "linear_nakayama needs v >= 3: for v = 2 the relation "
            "degenerates to a single arrow")
    verts = [str(i + 1) for i in range(v)]
    arrows = [(f"a{i + 1}", verts[i], verts[i + 1]) for i in range(v - 1)]
    q = Quiver(verts, arrows)
    rel = PathElement(q, {Path(0, tuple(range(v - 1))): 1})
    return complete_basis(q, field, [rel])


def thm39_type2(v: int, choices, field: Field = DEFAULT_FIELD
                ) -> BoundQuiverAlgebra:
    """Commutativity family: main row r_1..r_v, top vertex t with
    alpha_1: r_1 -> t, alpha_2: t -> r_v, betas along the row, and per
    position exactly one of gamma_i: b_i -> r_i or delta_i: r_{i+1} -> b_i.

    Relations: alpha_1 alpha_2 = beta_1 ... beta_{v-1}, and the zero
    relations gamma_i beta_i resp. beta_i delta_i.  For v = 2 the single
    beta equals alpha_1 alpha_2 and is eliminated, leaving length-3 zero
    relations.
    """
    choices = list(choices)
    if v < 2:
        raise QuiverAlgError("v >= 2 required")
    if len(choices) != v - 1 or any(c not in ("gamma", "delta")
                                    for c in choices):
        raise QuiverAlgError(
            f"choices must be a list over {{gamma, delta}} of length {v - 1}")
    rverts = [f"r{i + 1}" for i in range(v)]
    bverts = [f"b{i + 1}" for i in range(v - 1)]
    verts = rverts + ["t"] + bverts
    arrows = []
    if v >= 3:
        arrows += [(f"beta{i + 1}", rverts[i], rverts[i + 1])
                   for i in range(v - 1)]
    arrows += [("alpha1", rverts[0], "t"), ("alpha2", "t", rverts[-1])]
    for i, c in enumerate(choices):
        if c == "gamma":
            arrows.append((f"gamma{i + 1}", bverts[i], rverts[i]))
        else:
            arrows.append((f"delta{i + 1}", rverts[i + 1], bverts[i]))
    q = Quiver(verts, arrows)
    a = q.aindex
    rels = []
    if v >= 3:
        betas = tuple(a[f"beta{i + 1}"] for i in range(v - 1))
        rels.append(PathElement(q, {
            Path(q.vindex[rverts[0]], (a["alpha1"], a["alpha2"])): 1,
            Path(q.vindex[rverts[0]], betas): -1}))
        for i, c in enumerate(choices):
            if c == "gamma":
                rels.append(PathElement(q, {Path(
                    q.vindex[bverts[i]],
                    (a[f"gamma{i + 1}"], a[f"beta{i + 1}"])): 1}))
            else:
                rels.append(PathElement(q, {Path(
                    q.vindex[rverts[i]],
                    (a[f"beta{i + 1}"], a[f"delta{i + 1}"])): 1}))
    else:
        # beta_1 = alpha_1 alpha_2 substituted into the zero relations
        if choices[0] == "gamma":
            rels.append(PathElement(q, {Path(
                q.vindex[bverts[0]],
                (a["gamma1"], a["alpha1"], a["alpha2"])): 1}))
        else:
            rels.append(PathElement(q, {Path(
                q.vindex[rverts[0]],
                (a["alpha1"], a["alpha2"], a["delta1"])): 1}))
    return complete_basis(q, field, rels)


def canonical_2222(lam, field: Field = DEFAULT_FIELD) -> BoundQuiverAlgebra:
    """Canonical algebra of weight type (2,2,2,2) with parameter lambda:
    four length-2 arms from source to sink, arm relations
    arm3 = arm1 + arm2 and arm4 = arm1 + lambda arm2."""
    lam = field.el(lam)
    if lam == field.zero or lam == field.one:
        raise QuiverAlgError("lambda must avoid 0 and 1")
    verts = ["s"] + [f"m{i}" for i in range(1, 5)] + ["z"]
    arrows = []
    for i in range(1, 5):
        arrows.append((f"x{i}", "s", f"m{i}"))
        arrows.append((f"y{i}", f"m{i}", "z"))
    q = Quiver(verts, arrows)
    a = q.aindex
    s = q.vindex["s"]

    def arm(i):
        return Path(s, (a[f"x{i}"], a[f"y{i}"]))

    rels = [
        PathElement(q, {arm(3): 1, arm(1): -1, arm(2): -1}),
        PathElement(q, {arm(4): 1, arm(1): -1, arm(2): field.neg(lam)}),
    ]
    A = complete_basis(q, field, rels)
    A.meta = {"presentation": "arm_3 = arm_1 + arm_2, arm_4 = arm_1 + "
                              "lambda*arm_2; the third weight's parameter "
                              "is normalized to 1, lambda avoids 0 and 1"}
    return A


def dynkin_path_algebra(s: int, orientation=None,
                        field: Field = DEFAULT_FIELD) -> BoundQuiverAlgebra:
    """Path algebra of an A_s quiver; orientation is a list over
    {'f','b'} per edge ('f' = i -> i+1), default all 'f' (linear)."""
    if s < 1:
        raise QuiverAlgError("s >= 1 required")
    if orientation is None:
        orientation = ["f"] * (s - 1)
    if len(orientation) != s - 1 or any(o not in ("f", "b")
                                        for o in orientation):
        raise QuiverAlgError("orientation must be a list over {f, b} of "
                             f"length {s - 1}")
    verts = [str(i + 1) for i in range(s)]
    arrows = []
    for i, o in enumerate(orientation):
        if o == "f":
            arrows.append((f"a{i + 1}", verts[i], verts[i + 1]))
        else:
            arrows.append((f"a{i + 1}", verts[i + 1], verts[i]))
    return complete_basis(Quiver(verts, arrows), field, [])


def knit_indecomposables(A: BoundQuiverAlgebra, cap: int = 200):
    """All indecomposables of a hereditary representation-finite algebra,
    by tau^- iteration from the indecomposable projectives.

    A module was seen when a module found has its dimension vector.  That
    is exact: every module found is some tau^{-i} P, so preprojective, and
    a preprojective indecomposable over a hereditary algebra is directing,
    so determined by its dimension vector (Ringel, *Tame Algebras and
    Integral Quadratic Forms*, LNM 1099, 1984)."""
    if A.relations:
        raise QuiverAlgError("knitting requires a hereditary algebra "
                             "(no relations)")
    gl = global_dimension(A, 4)
    if not isinstance(gl, int) or gl > 1:
        raise QuiverAlgError("knitting requires gldim <= 1")
    found = []

    def seen(m):
        return any(m.dims == x.dims for x in found)

    frontier = []
    for v in range(A.quiver.n_vertices):
        p = projective(A, v)
        if not seen(p):
            found.append(p)
            frontier.append(p)
    while frontier:
        nxt = []
        for m in frontier:
            t = tau_inv(m)
            if t.is_zero() or seen(t):
                continue
            found.append(t)
            nxt.append(t)
            if len(found) > cap:
                raise QuiverAlgError(
                    f"more than {cap} indecomposables; input is not "
                    "representation-finite")
        frontier = nxt
    return found


def auslander_algebra(A: BoundQuiverAlgebra,
                      cap: int = 200) -> BoundQuiverAlgebra:
    """quiver_presentation of End of the sum of all indecomposables."""
    return quiver_presentation(end_algebra(A, knit_indecomposables(A, cap)))


def higher_auslander_chain(s: int, m: int, field: Field = DEFAULT_FIELD,
                           cap: int = 32) -> list[BoundQuiverAlgebra]:
    """[A^0 = linear kA_s, A^1, ..., A^m] with A^{j+1} the (j+1)-Auslander
    algebra of A^j; each stage must pass the representation-finiteness
    criterion first."""
    from .checks import is_n_rep_finite
    if s < 2 or m < 1:
        raise QuiverAlgError("s >= 2 and m >= 1 required")
    chain = [dynkin_path_algebra(s, None, field)]
    for j in range(1, m + 1):
        prev = chain[-1]
        verdict = is_n_rep_finite(prev, j, cap)
        if verdict.value is not True:
            raise QuiverAlgError(
                f"stage {j}: algebra is not {j}-representation-finite "
                f"({verdict.witness})")
        split = preprojective_module(prev, j, cap)
        chain.append(quiver_presentation(end_algebra(prev,
                                                     split.summand_reps)))
    return chain
