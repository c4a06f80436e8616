"""The Ext-bimodule, higher preprojective algebras, and stable End.

The bimodule E = Ext^n(D A, A) is computed from a minimal resolution of
D A with its two A-actions realized exactly: the left action by
postcomposition with left multiplication on the regular module, the
right action by precomposition with a comparison lift of left
multiplication on D A.  The tensor algebra over A is built iteratively
as quotients T_i = T_{i-1} (x)_A E with explicit projection/section
pairs.  Its structure constants are computed grade by grade, once: the
products into grade g_i + g_j come from the products into grade
g_i + g_j - 1, concatenated with E and projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GldimTooLarge, NotTauFinite, AboveCap
from .exactla import QuotientBasis
from .findim import FinDimAlgebra
from .homology import (ProjResolution, ext_data, global_dimension,
                       min_proj_resolution, op_element, tau_n_inv)
from .modules import (ModuleMap, Representation, coregular, decompose,
                      direct_sum, dual_map, hom_space, injective,
                      is_isomorphic, map_from_projectives, op_algebra,
                      projective, projective_cover, regular, zero_rep)
from .quivers import BoundQuiverAlgebra

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
                           DL: Representation) -> ModuleMap:
    """Left multiplication by an element on D(A) as a right-module map."""
    Aop = op_algebra(A)
    mu = left_mult_map(Aop, op_element(A, elem))
    lam = dual_map(mu)
    return ModuleMap(DL, DL, lam.blocks)


def lift_through_resolution(res: ProjResolution, g: ModuleMap,
                            depth: int) -> list[ModuleMap]:
    """Chain lifts g_i: P_i -> P_i of g: M -> M along a minimal resolution."""
    f = g.field
    lifts = []
    prev = None
    for i in range(depth + 1):
        P = res.terms[i]
        gen_images = []
        if i == 0:
            for s, v in enumerate(P.summands):
                gen = f.zeros(P.dims[v], 1)
                gen[P.offsets[s][v], 0] = f.one
                target_vec = f.matmul(g.blocks[v], f.matmul(
                    res.augmentation.blocks[v], gen))
                x = f.solve(res.augmentation.blocks[v], target_vec)
                assert x is not None, "augmentation is surjective"
                gen_images.append(x)
        else:
            d = res.differentials[i - 1]
            rhs = d.compose(prev)  # P_i -> P_{i-1}
            for s, v in enumerate(P.summands):
                gen = f.zeros(P.dims[v], 1)
                gen[P.offsets[s][v], 0] = f.one
                target_vec = f.matmul(rhs.blocks[v], gen)
                x = f.solve(d.blocks[v], target_vec)
                assert x is not None, "comparison lift must exist"
                gen_images.append(x)
        lift = map_from_projectives(P, P, gen_images)
        lifts.append(lift)
        prev = lift
    return lifts


def _yoneda_eval(P: Representation, ys: list[np.ndarray], v: int,
                 vec: np.ndarray, N: Representation) -> np.ndarray:
    """Evaluate the map with Yoneda data ys at an element of P at vertex v."""
    A = P.algebra
    f = P.field
    out = f.zeros(N.dims[v], 1)
    for s, sv in enumerate(P.summands):
        paths = A.basis_between(sv, v)
        off = P.offsets[s][v]
        for k, b in enumerate(paths):
            c = vec[off + k, 0]
            if c == f.zero:
                continue
            p = A.basis[b]
            out = f.add(out, f.smul(c, f.matmul(
                N.act_word(p.arrows, sv), ys[s])))
    return out


@dataclass
class ExtBimodule:
    algebra: BoundQuiverAlgebra
    n: int
    dim: int
    left_mats: list[np.ndarray]   # action of each algebra basis element
    right_mats: list[np.ndarray]


def ext_bimodule(A: BoundQuiverAlgebra, n: int) -> ExtBimodule:
    gl = global_dimension(A, cap=n + 1)
    if isinstance(gl, AboveCap) or gl > n:
        raise GldimTooLarge(f"gldim(A) = {gl} exceeds n = {n}")
    f = A.field
    DL = coregular(A)
    R = regular(A)
    res = min_proj_resolution(DL, n + 1)
    dim, cocycles, (res, cob) = ext_data(DL, R, n, res)
    if dim == 0:
        return ExtBimodule(A, n, 0, [f.zeros(0, 0)] * A.dim,
                           [f.zeros(0, 0)] * A.dim)
    ext = QuotientBasis(f, cob, cocycles)
    basis_rows = ext.comp
    assert ext.dim == dim

    def action(images: np.ndarray) -> np.ndarray:
        """Matrix whose column r is the class of row r of `images`."""
        assert ext.spans(images).all(), "vector must be a cocycle"
        return ext.coords(images).T

    Pn = res.terms[n] if n <= res.length else None
    if Pn is None:
        return ExtBimodule(A, n, 0, [f.zeros(0, 0)] * A.dim,
                           [f.zeros(0, 0)] * A.dim)

    def split_coords(row: np.ndarray) -> list[np.ndarray]:
        ys = []
        off = 0
        for v in Pn.summands:
            d = R.dims[v]
            ys.append(row[off:off + d].reshape(-1, 1))
            off += d
        return ys

    def join_coords(ys: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([y[:, 0] for y in ys]) if ys else \
            f.zeros(1, 0)[0]

    # left action: postcompose with left multiplication on R
    left_mats = []
    for b in range(A.dim):
        lm = left_mult_map(A, {b: f.one}, R)
        images = []
        for r in range(dim):
            ys = split_coords(basis_rows[r])
            ys2 = [f.matmul(lm.blocks[v], y)
                   for v, y in zip(Pn.summands, ys)]
            images.append(join_coords(ys2))
        left_mats.append(action(np.stack(images)))

    # right action: precompose with the lift of left multiplication on D(A)
    right_mats = []
    for b in range(A.dim):
        lam = left_mult_on_coregular(A, {b: f.one}, DL)
        lift_n = lift_through_resolution(res, lam, n)[n]
        images = []
        for r in range(dim):
            ys = split_coords(basis_rows[r])
            ys2 = []
            for s, v in enumerate(Pn.summands):
                gen = f.zeros(Pn.dims[v], 1)
                gen[Pn.offsets[s][v], 0] = f.one
                moved = f.matmul(lift_n.blocks[v], gen)
                ys2.append(_yoneda_eval(Pn, ys, v, moved, R))
            images.append(join_coords(ys2))
        right_mats.append(action(np.stack(images)))

    return ExtBimodule(A, n, dim, left_mats, right_mats)


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
    cur = regular(A)
    i = 0
    while True:
        cur = tau_n_inv(cur, n)
        i += 1
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
    return PreprojectiveSplit(whole, proj_part, p_free, i_free, reps, grades,
                              grade_dims, incls, projs)


# ---------------------------------------------------------------------------
# the tensor algebra
# ---------------------------------------------------------------------------

def preprojective_algebra(A: BoundQuiverAlgebra, n: int,
                          cap: int = 32) -> FinDimAlgebra:
    """T_A E as a graded algebra: degree-i part is E^{(x)_A i}.

    Grade g > 0 is the quotient of T_{g-1} (x)_k E by the balancing
    relations, with a section ``sigma`` and a projection ``proj``.  The
    products are computed grade by grade: x y with y in grade g > 0 is the
    projection of (x u) (x) e summed over the lift u (x) e of y, where the
    products x u into grade g-1 are already known.
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
            t, e = prev["dim"], E.dim
            V = t * e
            # the balancing relations of each lam, all (x, y) at once: row
            # (x, y) is R_lam[:, x] (x) e_y - e_x (x) L_lam[:, y], as
            # broadcast products indexed [x, y, a, b] (einsum takes object
            # arrays only from numpy 1.25)
            eye_t = f.eye(t)[:, None, :, None]
            eye_e = f.eye(e)[None, :, None, :]
            rows = []
            for lam in range(adim):
                w = f.sub(prev["R"][lam].T[:, None, :, None] * eye_e,
                          eye_t * E.left_mats[lam].T[None, :, None, :])
                w = w.reshape(V, V)
                rows.append(w[np.any(w != f.zero, axis=1)])
            rows = np.concatenate(rows)
            W = f.row_space(rows) if rows.shape[0] else f.zeros(0, V)
            newdim = V - W.shape[0]
            if newdim == 0:
                break
            if len(grades) > cap:
                raise NotTauFinite(cap, newdim)
            quot = QuotientBasis(f, W, f.eye(V))
            proj = quot.proj
            sigma = quot.comp.T  # columns: representatives of the new basis
            del quot  # frees the V x 2V echelon form
            # (u (x) y) b = u (x) (y b), on all representatives at once
            reps = sigma.reshape(t, e, newdim).transpose(0, 2, 1)
            R = []
            for b in range(adim):
                rv = f.matmul(reps.reshape(t * newdim, e), E.right_mats[b].T)
                rv = rv.reshape(t, newdim, e).transpose(0, 2, 1)
                R.append(f.matmul(proj, rv.reshape(V, newdim)))
            grades.append({"dim": newdim, "R": R, "proj": proj,
                           "sigma": sigma})

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
            t_prev, d = dims[gj - 1], dims[gj]
            sig = grades[gj]["sigma"].reshape(t_prev, E.dim * d)
            proj = grades[gi + gj]["proj"]
            row.append(np.stack([
                f.matmul(proj, f.matmul(lower, sig).reshape(-1, d))
                for lower in row[gj - 1]]))
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
    (checked), the plain endomorphism algebra of that part is computed as
    well and the two are verified to agree in dimension; the comparison
    is recorded on the returned algebra.
    """
    split = preprojective_module(A, n, cap)
    X = split.whole
    keep = [g > 0 for g in split.summand_grades]
    gamma = end_algebra(X, split.incls, split.projs, keep=keep,
                        modulo_projectives=True)
    gamma.split = split
    gamma.alt = None
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    if nonproj and not hom_space(split.P_free, regular(A)):
        Xp, incls, projs = direct_sum(nonproj)
        alt = end_algebra(Xp, incls, projs)
        assert alt.dim == gamma.dim, \
            "stable End must agree with End of the projective-free part"
        gamma.alt = alt
    return gamma
