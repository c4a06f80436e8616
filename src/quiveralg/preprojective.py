"""The Ext-bimodule, higher preprojective algebras, and stable End.

The bimodule E = Ext^n(D A, A) is computed from a minimal resolution of
D A with its two A-actions realized exactly: the left action by
postcomposition with left multiplication on the regular module, the
right action by precomposition with a comparison lift of left
multiplication on D A.  Only the trivial paths and the arrows take that
route; every longer basis path acts by the product of its prefix's and
its last arrow's matrices.

The tensor algebra over A is built iteratively as quotients
T_g = T_{g-1} (x)_A E.  A is generated by its arrows over A_0 = k^{Q_0},
so T_{g-1} (x)_A E is T_{g-1} (x)_{A_0} E modulo the relations of the
arrows alone.  The bases of E and of each grade are vertex-adapted, so
(x)_{A_0} keeps only the matched pairs x (x) y with right(x) = left(y),
and each grade is a quotient of the span of those, with a projection
onto the quotient and a pure tensor representing each of its basis
elements.  The structure constants are computed grade by grade, once:
the products into grade g_i + g_j come from the products into grade
g_i + g_j - 1, tensored with E and projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GldimTooLarge, NotTauFinite, AboveCap
from .exactla import QuotientBasis
from .findim import FinDimAlgebra, vertex_labels
from .homology import (ProjResolution, ext_data, global_dimension,
                       hom_matrix, min_proj_resolution, op_element,
                       tau_n_orbit)
from .modules import (ModuleMap, Representation, coregular, decompose,
                      direct_sum, dual_map, hom_space, injective,
                      is_isomorphic, map_from_projectives, op_algebra,
                      projective, projective_cover, regular, zero_rep)
from .quivers import BoundQuiverAlgebra, Path, trivial

__all__ = ["ExtBimodule", "ext_bimodule", "PreprojectiveSplit",
           "preprojective_module", "preprojective_algebra", "stable_hom",
           "stable_endomorphism", "end_algebra"]


# ---------------------------------------------------------------------------
# left/right multiplication as module maps
# ---------------------------------------------------------------------------

def left_mult_map(A: BoundQuiverAlgebra, elem: dict[int, object],
                  R: Representation | None = None) -> ModuleMap:
    """Left multiplication by an algebra element on the regular module.

    Row/column order at each vertex follows the slot-major layout of
    projectives_sum, which is how the regular module is materialized.
    """
    if R is None:
        R = regular(A)
    f = A.field
    q = A.quiver
    blocks = []
    for v in range(q.n_vertices):
        rows = [b for w in R.summands for b in A.basis_between(w, v)]
        pos = {b: k for k, b in enumerate(rows)}
        m = f.zeros(len(rows), len(rows))
        for col, x in enumerate(rows):
            for bi, c in elem.items():
                if A.basis[bi].target(q) != A.basis[x].source:
                    continue
                for t, c2 in A.mult_basis(bi, x).items():
                    v2 = m[pos[t], col] + c * c2
                    m[pos[t], col] = v2 % f.p if f.kind == "GF" else v2
        blocks.append(m)
    return ModuleMap(R, R, blocks)


def left_mult_on_coregular(A: BoundQuiverAlgebra, elem: dict[int, object],
                           DL: Representation,
                           Rop: Representation | None = None) -> ModuleMap:
    """Left multiplication by an element on D(A) as a right-module map;
    ``Rop`` is the regular module of A^op, built when not given."""
    Aop = op_algebra(A)
    mu = left_mult_map(Aop, op_element(A, elem), Rop)
    lam = dual_map(mu)
    return ModuleMap(DL, DL, lam.blocks)


def lift_through_resolution(res: ProjResolution, g: ModuleMap,
                            depth: int) -> list[ModuleMap]:
    """Chain lifts g_i: P_i -> P_i of g: M -> M along a minimal resolution.

    The generator images of all slots at one vertex come from one solve;
    each column gets the particular solution it would get alone."""
    f = g.field
    lifts = []
    for i in range(depth + 1):
        P = res.terms[i]
        # g_i lifts rhs = g_{i-1} d along d: P_i -> P_{i-1} (P_0 -> M at 0)
        d = res.differentials[i - 1] if i else res.augmentation
        rhs = d.compose(lifts[-1] if i else g)
        gen_images = [None] * len(P.summands)
        for v in dict.fromkeys(P.summands):
            slots = [s for s, w in enumerate(P.summands) if w == v]
            cols = [P.offsets[s][v] for s in slots]
            x = f.solve(d.blocks[v], rhs.blocks[v][:, cols])
            assert x is not None, "comparison lift must exist"
            for k, s in enumerate(slots):
                gen_images[s] = x[:, k:k + 1]
        lifts.append(map_from_projectives(P, P, gen_images))
    return lifts


@dataclass
class ExtBimodule:
    """E = Ext^n(D A, A) with the action of each basis path of A.

    ``left_mats[b]`` and ``right_mats[b]`` are the left and right actions
    of basis path b (columns are images).  Only the trivial paths and the
    arrows go through the resolution; each longer path p = p' a gets its
    matrices from its prefix, L_p = L_{p'} L_a and R_p = R_a R_{p'}.  The
    basis of E is vertex-adapted: each vertex idempotent acts on either
    side by a 0/1 diagonal matrix.
    """
    algebra: BoundQuiverAlgebra
    n: int
    dim: int
    left_mats: list[np.ndarray]   # action of each algebra basis element
    right_mats: list[np.ndarray]


def _path_actions(A: BoundQuiverAlgebra, action, left: bool
                  ) -> list[np.ndarray]:
    """The matrix of every basis path acting on one side of a bimodule.

    ``action(b)`` gives it for the trivial paths and the arrows.  A longer
    basis path p = p' a comes after its prefix p' in the (length-ordered,
    prefix-closed) basis, and its matrix is one product: L_{p'} L_a on
    the left, R_a R_{p'} on the right."""
    f = A.field
    q = A.quiver
    mats: list[np.ndarray] = []
    for b, p in enumerate(A.basis):
        if len(p.arrows) < 2:
            mats.append(action(b))
            continue
        pre = mats[A.bindex[Path(p.source, p.arrows[:-1])]]
        last = mats[A.bindex[Path(q.source(p.arrows[-1]), p.arrows[-1:])]]
        mats.append(f.matmul(pre, last) if left else f.matmul(last, pre))
    return mats


def _ext_actions(A: BoundQuiverAlgebra, n: int):
    """dim Ext^n(D A, A) and two functions giving the left and the right
    action matrix of one basis element through the resolution of D A
    (``(0, None, None)`` when Ext vanishes)."""
    gl = global_dimension(A, cap=n + 1)
    if isinstance(gl, AboveCap) or gl > n:
        raise GldimTooLarge(f"gldim(A) = {gl} exceeds n = {n}")
    f = A.field
    DL = coregular(A)
    R = regular(A)
    res = min_proj_resolution(DL, n + 1)
    dim, cocycles, (res, cob) = ext_data(DL, R, n, res)
    Pn = res.terms[n] if n <= res.length else None
    if dim == 0 or Pn is None:
        return 0, None, None
    ext = QuotientBasis(f, cob, cocycles)
    basis_rows = ext.comp
    assert ext.dim == dim
    # the columns of the generator image of each slot of P_n in a cocycle
    offs = np.cumsum([0] + [R.dims[v] for v in Pn.summands])
    Rop = regular(op_algebra(A))

    def action(images: np.ndarray) -> np.ndarray:
        """Matrix whose column r is the class of row r of `images`."""
        assert ext.spans(images).all(), "vector must be a cocycle"
        return ext.coords(images).T

    def left(b: int) -> np.ndarray:
        # postcompose with left multiplication on R, slot by slot
        lm = left_mult_map(A, {b: f.one}, R)
        images = f.zeros(dim, int(offs[-1]))
        for s, v in enumerate(Pn.summands):
            images[:, offs[s]:offs[s + 1]] = f.matmul(
                basis_rows[:, offs[s]:offs[s + 1]], lm.blocks[v].T)
        return action(images)

    def right(b: int) -> np.ndarray:
        # precompose with the lift of left multiplication on D(A)
        lam = left_mult_on_coregular(A, {b: f.one}, DL, Rop)
        lift_n = lift_through_resolution(res, lam, n)[n]
        return action(f.matmul(basis_rows, hom_matrix(lift_n, R).T))

    return dim, left, right


def ext_bimodule(A: BoundQuiverAlgebra, n: int) -> ExtBimodule:
    dim, left, right = _ext_actions(A, n)
    if dim == 0:
        f = A.field
        return ExtBimodule(A, n, 0, [f.zeros(0, 0)] * A.dim,
                           [f.zeros(0, 0)] * A.dim)
    return ExtBimodule(A, n, dim, _path_actions(A, left, left=True),
                       _path_actions(A, right, left=False))


# ---------------------------------------------------------------------------
# the preprojective module
# ---------------------------------------------------------------------------

@dataclass
class PreprojectiveSplit:
    whole: Representation
    projective_part: Representation
    P_free: Representation
    I_free: Representation
    summand_reps: list[Representation]
    summand_grades: list[int]
    grade_dims: list[int]
    incls: list[ModuleMap]
    projs: list[ModuleMap]

    @property
    def dim(self) -> int:
        return self.whole.total_dim


def preprojective_module(A: BoundQuiverAlgebra, n: int,
                         cap: int = 32) -> PreprojectiveSplit:
    """The split of the preprojective module, the sum of the iterates
    tau_n^{-i} A up to the first zero one; NotTauFinite when iterate
    cap + 1 is nonzero.  Kept in the algebra's memo per (n, cap), so
    callers share one split and must not change it; a call that raises
    keeps nothing."""
    hit = A.memo.get(("split", n, cap))
    if hit is not None:
        return hit
    gl = global_dimension(A, cap=n + 1)
    if isinstance(gl, AboveCap) or gl > n:
        raise GldimTooLarge(f"gldim(A) = {gl} exceeds n = {n}")
    reps: list[Representation] = []
    grades: list[int] = []
    grade_dims: list[int] = []
    for v in range(A.quiver.n_vertices):
        reps.append(projective(A, v))
        grades.append(0)
    grade_dims.append(sum(r.total_dim for r in reps))
    i = 0
    while True:
        i += 1
        cur = tau_n_orbit(A, n, i)
        if cur.is_zero():
            break
        if i > cap:
            raise NotTauFinite(cap, cur.total_dim)
        grade_dims.append(cur.total_dim)
        for rep, mult in decompose(cur):
            for _ in range(mult):
                reps.append(rep)
                grades.append(i)
    whole, incls, projs = direct_sum(reps)
    proj_part, _, _ = direct_sum(reps[:A.quiver.n_vertices])
    nonproj = [r for r, g in zip(reps, grades) if g > 0]
    if nonproj:
        p_free, _, _ = direct_sum(nonproj)
    else:
        p_free = zero_rep(A)
    injs = [injective(A, v) for v in range(A.quiver.n_vertices)]
    noninj = [r for r in reps
              if not any(r.dims == i0.dims and is_isomorphic(r, i0)
                         for i0 in injs)]
    if noninj:
        i_free, _, _ = direct_sum(noninj)
    else:
        i_free = zero_rep(A)
    hit = A.memo[("split", n, cap)] = PreprojectiveSplit(
        whole, proj_part, p_free, i_free, reps, grades, grade_dims, incls,
        projs)
    return hit


# ---------------------------------------------------------------------------
# the tensor algebra
# ---------------------------------------------------------------------------

class MatchedPairs(NamedTuple):
    """The pairs (x, y) with right(x) = left(y) of a basis x of T_{g-1}
    and a basis y of E, in the order x * dim E + y of T_{g-1} (x)_k E.
    Every other pure tensor x (x) y lies in the balancing relations."""
    index: np.ndarray    # x * dim E + y of each matched pair
    pos: np.ndarray      # (dim T_{g-1}, dim E): position of (x, y), or -1


def _matched_pairs(right: np.ndarray, left: np.ndarray) -> MatchedPairs:
    match = right[:, None] == left[None, :]
    pos = np.full(match.shape, -1, dtype=np.int64)
    pos[match] = np.arange(int(match.sum()))
    return MatchedPairs(np.flatnonzero(match), pos)


def _arrow_relations(A: BoundQuiverAlgebra, alpha: int, R: np.ndarray,
                     L: np.ndarray, right: np.ndarray, left: np.ndarray,
                     pairs: MatchedPairs) -> np.ndarray:
    """The relations x alpha (x) y - x (x) alpha y of the arrow
    alpha = e_a alpha e_b, which acts by ``R`` on T_{g-1} and by ``L`` on
    E, on the matched pairs.

    Only the rows with right(x) = a and left(y) = b are nonzero there; the
    first term lies in the block of vertex b, the second in that of a."""
    f = A.field
    a, b = A.quiver.source(alpha), A.quiver.target(alpha)
    xa, xb = np.flatnonzero(right == a), np.flatnonzero(right == b)
    ya, yb = np.flatnonzero(left == a), np.flatnonzero(left == b)
    pos, width = pairs.pos, len(pairs.index)
    w = f.zeros(len(xa) * len(yb), width).reshape(len(xa), len(yb), width)
    i = np.arange(len(xa))[:, None, None]
    j = np.arange(len(yb))[None, :, None]
    # x alpha = sum of R[x', x] x' over right(x') = b
    w[i, j, pos[np.ix_(xb, yb)].T[None]] = R[np.ix_(xb, xa)].T[:, None, :]
    # alpha y = sum of L[y', y] y' over left(y') = a
    k = pos[np.ix_(xa, ya)][:, None, :]
    w[i, j, k] = f.sub(w[i, j, k], L[np.ix_(ya, yb)].T[None])
    return w.reshape(len(xa) * len(yb), width)


def _balancing_relations(A: BoundQuiverAlgebra, E: ExtBimodule,
                         R: list[np.ndarray]
                         ) -> tuple[np.ndarray, MatchedPairs]:
    """Row basis of the relations of T_{g-1} (x)_A E on the matched pairs,
    where ``R`` is the right action of A on T_{g-1}, and those pairs.

    A is generated over A_0 = k^{Q_0} by its arrows, and the relation of a
    path p q at (x, y) is that of q at (x p, y) plus that of p at
    (x, q y), so the relations of the arrows, with the pure tensors of the
    unmatched pairs, span them all."""
    f = A.field
    q = A.quiver
    idems = [A.bindex[trivial(v)] for v in range(q.n_vertices)]
    right = vertex_labels(f, R, idems, "previous grade")
    left = vertex_labels(f, E.left_mats, idems, "Ext bimodule")
    pairs = _matched_pairs(right, left)
    rows = [f.zeros(0, len(pairs.index))]
    for a in range(q.n_arrows):
        lam = A.bindex[Path(q.source(a), (a,))]
        w = _arrow_relations(A, a, R[lam], E.left_mats[lam], right, left,
                             pairs)
        rows.append(w[np.any(w != f.zero, axis=1)])
    return f.row_space(np.concatenate(rows)), pairs


def _on_pairs(f, size: int, rows: np.ndarray, vals: np.ndarray
              ) -> np.ndarray:
    """Vectors on the matched pairs, one per column k: entry
    ``vals[i, k, ...]`` goes to the pair at ``rows[i, k]``.  Entries at
    unmatched pairs (``rows[i, k] == -1``) vanish on a vertex-adapted
    basis and are dropped."""
    out = f.zeros(size, int(np.prod(vals.shape[1:])))
    out = out.reshape((size,) + vals.shape[1:])
    ok = rows >= 0
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    out[rows[ok], cols[ok]] = vals[ok]
    return out


def preprojective_algebra(A: BoundQuiverAlgebra, n: int,
                          cap: int = 32) -> FinDimAlgebra:
    """T_A E as a graded algebra: degree-i part is E^{(x)_A i}.

    Grade g > 0 is T_{g-1} (x)_k E modulo the balancing relations
    x lam (x) y - x (x) lam y.  The bases of T_{g-1} and E are
    vertex-adapted, so every pure tensor x (x) y with right(x) != left(y)
    is a relation, and the rest are spanned by the relations of the arrows
    on the matched pairs right(x) = left(y).  Those give ``proj``, the
    coordinates of the grade on the matched pairs.  The complement picks
    unit vectors, so basis element k of the grade is the class of the pure
    tensor x_k (x) y_k, and ``xs``, ``ys`` record the pairs.

    The right action of each grade comes from E's, for the trivial paths
    and the arrows; a longer path's is a product, as in ``ExtBimodule``.
    The products are computed grade by grade: x y with y = x_k (x) y_k in
    grade g > 0 is the class of (x x_k) (x) y_k, where the products x x_k
    into grade g-1 are already known.
    """
    E = ext_bimodule(A, n)
    f = A.field
    adim = A.dim

    # degree 0: A itself with its right regular action
    rmats0 = []
    for b in range(adim):
        rm = f.zeros(adim, adim)
        for j in range(adim):
            for t, c in A.mult_basis(j, b).items():
                rm[t, j] = c
        rmats0.append(rm)

    grades = [{"dim": adim, "R": rmats0}]
    if E.dim > 0:
        while True:
            prev = grades[-1]
            W, pairs = _balancing_relations(A, E, prev["R"])
            width = len(pairs.index)
            newdim = width - W.shape[0]
            if newdim == 0:
                break
            if len(grades) > cap:
                raise NotTauFinite(cap, newdim)
            quot = QuotientBasis(f, W, f.eye(width))
            proj = quot.proj
            xs, ys = np.divmod(pairs.index[np.nonzero(quot.comp)[1]], E.dim)
            del quot  # frees the echelon form

            def right(b: int) -> np.ndarray:
                # (x_k (x) y_k) b = x_k (x) (y_k b)
                tens = _on_pairs(f, width, pairs.pos[xs].T,
                                 E.right_mats[b][:, ys])
                return f.matmul(proj, tens)

            grades.append({"dim": newdim, "proj": proj, "pos": pairs.pos,
                           "xs": xs, "ys": ys,
                           "R": _path_actions(A, right, left=False)})

    dims = [g["dim"] for g in grades]
    offsets = np.cumsum([0] + dims)
    total_dim = int(offsets[-1])
    grading = []
    for gi, d in enumerate(dims):
        grading.extend([gi] * d)

    # prods[gi][gj][li, :, lj]: coordinates in grade gi + gj of the product
    # of basis element li of grade gi with basis element lj of grade gj
    prods = []
    for gi in range(len(grades)):
        row = [np.stack(grades[gi]["R"], axis=2).transpose(1, 0, 2)]
        for gj in range(1, len(grades) - gi):
            g, h = grades[gj], grades[gi + gj]
            # (b_li x_k) (x) y_k for every li and k, on the pairs of h
            lower = row[gj - 1][:, :, g["xs"]].transpose(1, 2, 0)
            tens = _on_pairs(f, h["proj"].shape[1], h["pos"][:, g["ys"]],
                             lower)
            tens = f.matmul(h["proj"], tens.reshape(tens.shape[0], -1))
            row.append(tens.reshape(-1, g["dim"], dims[gi])
                       .transpose(2, 0, 1))
        prods.append(row)

    def mult(i: int) -> np.ndarray:
        gi = int(np.searchsorted(offsets, i, side="right") - 1)
        li = i - int(offsets[gi])
        row = f.zeros(total_dim, total_dim)
        for gj in range(len(grades) - gi):
            row[offsets[gj]:offsets[gj + 1],
                offsets[gi + gj]:offsets[gi + gj + 1]] = prods[gi][gj][li].T
        return row

    idems = []
    for v in range(A.quiver.n_vertices):
        vec = f.zeros(1, total_dim)[0]
        for k, c in A.idempotent(v).items():
            vec[k] = c
        idems.append(vec)

    return FinDimAlgebra(f, total_dim, mult, idems, grading)


# ---------------------------------------------------------------------------
# stable Hom and the stable endomorphism algebra
# ---------------------------------------------------------------------------

def _hom_quotient(M: Representation, N: Representation,
                  modulo_projectives: bool):
    """Hom(M, N), modulo the maps that factor through the projective cover
    of N when asked: the quotient basis on flattened maps, and its basis
    maps."""
    f = M.field
    homs = hom_space(M, N)
    width = sum(m * n for m, n in zip(M.dims, N.dims))
    flat = np.stack([h.flatten()[0] for h in homs]) if homs else \
        f.zeros(0, width)
    frows = f.zeros(0, width)
    if modulo_projectives and homs:
        cov = projective_cover(N)
        rows = [t.compose(cov).flatten()[0]
                for t in hom_space(M, cov.source)]
        if rows:
            frows = f.row_space(np.stack(rows))
    quot = QuotientBasis(f, frows, flat)
    maps = []
    for row in quot.comp:
        blocks = []
        off = 0
        for v in range(len(M.dims)):
            sz = N.dims[v] * M.dims[v]
            blocks.append(row[off:off + sz].reshape(N.dims[v], M.dims[v]))
            off += sz
        maps.append(ModuleMap(M, N, blocks))
    return quot, maps


def stable_hom(M: Representation, N: Representation) -> list[ModuleMap]:
    """Basis of Hom(M,N) modulo maps factoring through projectives."""
    return _hom_quotient(M, N, modulo_projectives=True)[1]


def _hom_algebra(X: Representation, modulo_projectives: bool):
    """End(X) or stable End(X) as a FinDimAlgebra, with idempotents from
    the block structure of X (X must carry block incls/projs)."""
    f = X.field
    quot, basis_maps = _hom_quotient(X, X, modulo_projectives)
    dim = quot.dim
    # the blocks at v of every basis map, one above the other
    stacks = [(v, np.concatenate([phi.blocks[v] for phi in basis_maps]))
              for v in range(len(X.dims)) if X.dims[v] and dim]

    def express(phi: ModuleMap) -> np.ndarray:
        return quot.coords(phi.flatten())[0]

    def mult(i: int) -> np.ndarray:
        # b_i b_j = b_j after b_i (covariant composition order): at each
        # vertex, every B_j^v @ B_i^v at once, flattened like ModuleMap
        parts = [f.matmul(stack, basis_maps[i].blocks[v]).reshape(dim, -1)
                 for v, stack in stacks]
        return quot.coords(np.concatenate(parts, axis=1))

    return express, mult, dim


def end_algebra(X: Representation, incls: list[ModuleMap],
                projs: list[ModuleMap],
                keep: list[bool] | None = None,
                modulo_projectives: bool = False) -> FinDimAlgebra:
    express, mult, dim = _hom_algebra(X, modulo_projectives)
    idems = []
    for k, (inc, prj) in enumerate(zip(incls, projs)):
        if keep is not None and not keep[k]:
            continue
        idems.append(express(prj.compose(inc)))
    return FinDimAlgebra(X.field, dim, mult, idems)


def stable_endomorphism(A: BoundQuiverAlgebra, n: int,
                        cap: int = 32) -> FinDimAlgebra:
    """Stable endomorphism algebra of the preprojective module.

    When no map from the non-projective part back to the algebra exists
    (checked), that part has no nonzero maps factoring through projectives,
    so its plain endomorphism algebra has the same dimension; this is
    asserted.
    """
    split = preprojective_module(A, n, cap)
    X = split.whole
    keep = [g > 0 for g in split.summand_grades]
    gamma = end_algebra(X, split.incls, split.projs, keep=keep,
                        modulo_projectives=True)
    gamma.split = split
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    if nonproj and not hom_space(split.P_free, regular(A)):
        Xp = direct_sum(nonproj)[0]
        assert _hom_quotient(Xp, Xp, False)[0].dim == gamma.dim, \
            "stable End must agree with End of the projective-free part"
    return gamma
