"""The Ext-bimodule, higher preprojective algebras, and stable End.

The bimodule E = Ext^n(D A, A) is computed from a minimal resolution of
D A with its two A-actions realized exactly: the left action by
postcomposition with left multiplication on the regular module, the
right action by precomposition with a comparison lift of left
multiplication on D A.  Both multiplications are read off structure
constants: on A those of A, on D A, the k-dual of regular(A^op), those of
A^op.  ``derived._strict_lift`` lifts the multiplications by all the
trivial paths and arrows along the resolution at once, with one solve per
degree and vertex, and keeps only their generator images.  Every longer
basis path acts by the product of its prefix's and its last arrow's
actions, each kept as the nonzero entries of its matrix.

The tensor algebra over A is built iteratively as quotients
T_g = T_{g-1} (x)_A E.  A is generated by its arrows over A_0 = k^{Q_0},
so T_{g-1} (x)_A E is T_{g-1} (x)_{A_0} E modulo the relations of the
arrows alone.  The bases of E and of each grade are vertex-adapted, so
(x)_{A_0} keeps only the matched pairs x (x) y with right(x) = left(y),
and each grade is a quotient of the span of those, with a projection
onto the quotient and a pure tensor representing each of its basis
elements.  One pass per grade builds the grade and every product into
it, from the nonzero structure constants into the grade before and E's
actions alone: each product is a sum of pure tensors on the matched
pairs, projected onto the grade; only the nonzero constants are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .derived import _strict_lift, module_complex, proj_resolve_complex
from .errors import NotTauFinite
from .findim import (FinDimAlgebra, _scatter, algebra_from_bqa,
                     sparse_entries, sparse_join, vertex_labels)
from .homology import (_gen_offsets, _slot_paths, gldim_at_most, hom_matrix,
                       op_element, tau_n_orbit)
from .modules import (ModuleMap, Representation, _free_columns, coregular,
                      decompose, hom_space, op_algebra, projective, regular)
from .quivers import BoundQuiverAlgebra, Path, trivial

__all__ = ["ExtBimodule", "ext_bimodule", "PreprojectiveSplit",
           "preprojective_module", "preprojective_algebra",
           "stable_endomorphism", "end_algebra"]


# ---------------------------------------------------------------------------
# the Ext bimodule
# ---------------------------------------------------------------------------

@dataclass
class ExtBimodule:
    """E = Ext^n(D A, A) with the action of each basis path of A.

    ``left`` and ``right`` are the entries (b, y', y, c) of the left and
    right actions, in order of b: b y, or y b, has c at y'.  Only the
    trivial paths and the arrows go through the resolution, all in one
    batched lift; each longer path p = p' a gets its entries from its
    prefix's, L_p = L_{p'} L_a and R_p = R_a R_{p'}.  The basis of E is
    vertex-adapted: each vertex idempotent acts on either side by a 0/1
    diagonal matrix.
    """
    algebra: BoundQuiverAlgebra
    n: int
    dim: int
    left: tuple
    right: tuple


def _path_actions(A: BoundQuiverAlgebra, dim: int, short: list[int],
                  entries: tuple, left: bool) -> tuple:
    """The entries (b, y', y, c), in order of b, of every basis path b
    acting on one side of a bimodule of dimension ``dim``.

    ``entries`` (e, y', y, c), in order of e, give the action of the
    trivial path or arrow ``short[e]``.  A longer basis path p = p' a
    follows its prefix p' in the basis, and its entries are one product
    joined on the middle index: L_{p'} L_a on the left, R_a R_{p'} on the
    right."""
    f = A.field
    q = A.quiver
    e, *rest = entries
    cuts = np.searchsorted(e, np.arange(len(short) + 1))
    given = {b: tuple(a[lo:hi] for a in rest)
             for b, lo, hi in zip(short, cuts, cuts[1:])}
    acts: list[tuple] = []
    for b, p in enumerate(A.basis):
        if len(p.arrows) < 2:
            acts.append(given[b])
            continue
        pre = acts[A.bindex[Path(p.source, p.arrows[:-1])]]
        last = acts[A.bindex[Path(q.source(p.arrows[-1]), p.arrows[-1:])]]
        (o2, o1, oc), (i2, i1, ic) = (pre, last) if left else (last, pre)
        s, t = sparse_join(o1, i2)
        acts.append(sparse_entries(f, dim, o2[s], i1[t], oc[s] * ic[t]))
    b = np.repeat(np.arange(A.dim), [len(a[0]) for a in acts])
    return (b,) + tuple(np.concatenate(a) for a in zip(*acts))


def _regular_coords(B: BoundQuiverAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """``pos``, the coordinate of each basis path of B in ``regular(B)`` at
    its target vertex, and ``at``, the basis path at each (vertex,
    coordinate)."""
    R = regular(B)
    pos = np.zeros(B.dim, dtype=np.int64)
    at = np.full((B.quiver.n_vertices, max(R.dims, default=0)), -1)
    for v in range(B.quiver.n_vertices):
        paths = _slot_paths(R, v)[1]
        pos[paths] = np.arange(len(paths))
        at[v, :len(paths)] = paths
    return pos, at


def _lift_targets(A: BoundQuiverAlgebra, paths: list[int], P0, eps0
                  ) -> np.ndarray:
    """Column e: the generator images in D A of lam eps_0, for lam the left
    multiplication by ``paths[e]`` on D A and eps_0: P_0 -> D A the cover.

    D A = coregular(A) is D regular(A^op), so lam at vertex v is the
    transpose of left multiplication by op(b) on regular(A^op): its entry
    (x, c) is the coefficient of c in op(b) x, read off the constants of
    A^op.  The image of slot s is lam applied to phi_s, its image under
    eps_0."""
    f = A.field
    Aop = op_algebra(A)
    ci, cj, ck, cc = algebra_from_bqa(Aop).constants
    pos, _ = _regular_coords(Aop)
    ends = np.array([p.target(Aop.quiver) for p in Aop.basis], dtype=np.int64)
    # op(b) of each element, in A^op coordinates
    oe, oi, oc = (np.array(a) for a in zip(*[
        (e, i, c) for e, b in enumerate(paths)
        for i, c in op_element(A, {b: f.one}).items()]))
    s, t = sparse_join(oi, ci)
    e, col, row = oe[s], pos[cj[t]], pos[ck[t]]
    coef = f.reduce(oc[s] * cc[t])
    # each entry of lam at vertex v, on phi_s for each slot s at v
    toff = _gen_offsets(P0, eps0.target)
    phis = np.concatenate([f.zeros(0, 1)[:, 0]] + [
        eps0.blocks[w][:, P0.offsets[slot][w]]
        for slot, w in enumerate(P0.summands)])
    u, slot = sparse_join(ends[cj[t]], np.array(P0.summands))
    return _scatter(f, f.zeros(int(toff[-1]), len(paths)),
                    (toff[slot] + col[u], e[u]),
                    coef[u] * phis[toff[slot] + row[u]])


def _ext_actions(A: BoundQuiverAlgebra, n: int, paths: list[int]):
    """dim Ext^n(D A, A) and the entries (e, y', y, c), in order of
    (e, y', y), of the left and the right action of each basis path
    ``paths[e]`` (no entries when Ext vanishes).

    D A is resolved as a complex P, with P_j in degree -j.  gldim A <= n,
    so P ends at P_n and every cochain in Hom(P_n, A) is a cocycle: E is
    the cochains modulo the coboundaries, and one ``kernel_rref`` of the
    coboundaries gives the class of each cochain on the unit cochains at
    its pivots, the basis of E.  The unit cochain y sends the generator of
    one slot t to one basis path q of A and the others to 0.

    The left action of b is postcomposition with left multiplication by b
    on A: b y sends slot t to b q.  The right action of b is precomposition
    with the chain map g_b: P -> P over left multiplication by b on D A:
    y g_b sends slot s to the sum of q p over the terms p of the image of
    the generator of s in slot t.  ``derived._strict_lift`` lifts every
    b at once and returns only the generator images of the g_b.  Both
    products are read off the structure constants of A, each image is
    kept only where it is nonzero, and one product with the projection
    onto E gives the classes of all of them."""
    gldim_at_most(A, n)
    f = A.field
    none = (np.zeros(0, dtype=np.int64),) * 3 + (f.zeros(1, 0)[0],)
    P, eps = proj_resolve_complex(module_complex(coregular(A)))
    if P.lo > -n:
        return 0, none, none
    assert P.lo == -n, "the resolution of D A must end at P_n"
    Pn, R = P.term(-n), regular(A)
    # the columns of the generator image of each slot of P_n in a cochain
    offs = _gen_offsets(Pn, R)
    cob = hom_matrix(P.diffs[-n], R).T if n else \
        f.zeros(0, int(offs[-1]))
    proj, units = f.kernel_rref(cob)
    dim = len(units)
    if dim == 0:
        return 0, none, none
    k = len(paths)
    ci, cj, ck, cc = algebra_from_bqa(A).constants
    pos, at = _regular_coords(A)
    slots = np.array(Pn.summands, dtype=np.int64)
    ut = np.searchsorted(offs, units, side="right") - 1
    uq = at[slots[ut], units - offs[ut]]
    elem = np.full(A.dim, -1)
    elem[paths] = np.arange(k)

    # left: the constants b q, for b an element and q a unit's path
    s, y = sparse_join(cj[elem[ci] >= 0], uq)
    sel = np.flatnonzero(elem[ci] >= 0)[s]
    left = (elem[ci[sel]], y, offs[ut[y]] + pos[ck[sel]], cc[sel])

    # right: in the generator images of the g_b at P_n, row r is the
    # coefficient of p gen_t in the image of gen_s, for (s, t, p) = (rs[r],
    # rt[r], rp[r]); a unit of slot t sends p gen_t to q p.  Its values are
    # reduced before the product with proj: over GF(p) an int64 holds a
    # product of two field elements, not of three
    gens = _strict_lift(P, eps, {0: _lift_targets(A, paths, P.term(0),
                                                   eps.parts[0])}, k)[-n]
    layout = {v: _slot_paths(Pn, v) for v in dict.fromkeys(Pn.summands)}
    rs = np.repeat(np.arange(len(Pn.summands)),
                   [Pn.dims[v] for v in Pn.summands])
    rt, rp = (np.concatenate([layout[v][h] for v in Pn.summands])
              for h in (0, 1))
    r, e = np.nonzero(gens != f.zero)
    s, y = sparse_join(rt[r], ut)
    r, e = r[s], e[s]
    s, j = sparse_join(uq[y] * A.dim + rp[r], ci * A.dim + cj)
    right = (e[s], y[s], offs[rs[r[s]]] + pos[ck[j]],
             f.reduce(gens[r[s], e[s]] * cc[j]))

    # one product with proj for the images of both sides, term by term:
    # the entry (y', col) of proj sends the image entry (y, col) to y'
    side = np.repeat([0, 1], [len(left[0]), len(right[0])])
    e, y, col, val = (np.concatenate(a) for a in zip(left, right))
    pr, pc = np.nonzero(proj != f.zero)
    s, t = sparse_join(col, pc)
    key, y, c = sparse_entries(f, dim, (side[s] * k + e[s]) * dim + pr[t],
                               y[s], val[s] * proj[pr[t], pc[t]])
    side, e, y2 = key // (k * dim), key // dim % k, key % dim
    return dim, *((e[side == h], y2[side == h], y[side == h], c[side == h])
                  for h in (0, 1))


def ext_bimodule(A: BoundQuiverAlgebra, n: int) -> ExtBimodule:
    short = [b for b, p in enumerate(A.basis) if len(p.arrows) < 2]
    dim, left, right = _ext_actions(A, n, short)
    return ExtBimodule(A, n, dim, _path_actions(A, dim, short, left, True),
                       _path_actions(A, dim, short, right, False))


# ---------------------------------------------------------------------------
# the preprojective module
# ---------------------------------------------------------------------------

@dataclass
class PreprojectiveSplit:
    """The preprojective module M, the sum of the nonzero iterates
    ``orbit[i]`` = tau_n^{-i} A (the modules that ``tau_n_orbit`` keeps,
    not copies), and its indecomposable summands, each with the index i of
    its iterate."""
    orbit: list[Representation]
    summand_reps: list[Representation]
    summand_grades: list[int]

    @property
    def grade_dims(self) -> list[int]:
        return [M.total_dim for M in self.orbit]

    @property
    def dim(self) -> int:
        return sum(self.grade_dims)


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
    gldim_at_most(A, n)
    orbit = [tau_n_orbit(A, n, 0)]
    reps = [projective(A, v) for v in range(A.quiver.n_vertices)]
    grades = [0] * len(reps)
    while True:
        cur = tau_n_orbit(A, n, len(orbit))
        if cur.is_zero():
            break
        if len(orbit) > cap:
            raise NotTauFinite(cap, cur.total_dim)
        for rep, mult in decompose(cur):
            reps += [rep] * mult
            grades += [len(orbit)] * mult
        orbit.append(cur)
    hit = A.memo[("split", n, cap)] = PreprojectiveSplit(orbit, reps, grades)
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


def _arrow_relations(A: BoundQuiverAlgebra, alpha: int, R: tuple,
                     L: tuple, right: np.ndarray, left: np.ndarray,
                     pairs: MatchedPairs) -> np.ndarray:
    """The relations x alpha (x) y - x (x) alpha y of the arrow
    alpha = e_a alpha e_b, which acts on T_{g-1} and on E by the entries
    (dst, src, c) of ``R`` and ``L``, on the matched pairs: the rows with
    right(x) = a, left(y) = b and a term, and only their terms, in the
    block of vertex b for the first and of a for the second."""
    f = A.field
    a, b = A.quiver.source(alpha), A.quiver.target(alpha)
    xa, yb = np.flatnonzero(right == a), np.flatnonzero(left == b)
    (x2, x, xc), (y2, y, yc) = R, L
    pos = pairs.pos
    # the row (x, y), the pair and the coefficient of each term
    terms = (np.broadcast_arrays(x[:, None], yb, pos[x2[:, None], yb],
                                 xc[:, None]),
             np.broadcast_arrays(xa[:, None], y, pos[xa[:, None], y2],
                                 f.neg(yc)))
    rx, ry, at, c = (np.concatenate([t.ravel() for t in z])
                     for z in zip(*terms))
    keys, row = np.unique(rx * len(left) + ry, return_inverse=True)
    w = f.zeros(len(keys), len(pairs.index))
    np.add.at(w, (row, at), c)
    return f.reduce(w)


def _balancing_relations(A: BoundQuiverAlgebra, E: ExtBimodule,
                         action: tuple, dim: int
                         ) -> tuple[np.ndarray, MatchedPairs]:
    """Rows spanning the relations of T_{g-1} (x)_A E on the matched
    pairs, where T_{g-1} has dimension ``dim`` and the entries
    (b, x', x, c) of ``action`` give the right action on it of each basis
    path b of A: the relations of each arrow, stacked, with no
    elimination, so they may be dependent.

    A is generated over A_0 = k^{Q_0} by its arrows, and the relation of a
    path p q at (x, y) is that of q at (x p, y) plus that of p at
    (x, q y), so the relations of the arrows, with the pure tensors of the
    unmatched pairs, span them all."""
    f = A.field
    q = A.quiver

    def of(entries: tuple, b: int) -> tuple:
        sel = entries[0] == b
        return tuple(a[sel] for a in entries[1:])

    idems = [A.bindex[trivial(v)] for v in range(q.n_vertices)]
    right = vertex_labels(f, dim, [of(action, b) for b in idems],
                          "previous grade")
    left = vertex_labels(f, E.dim, [of(E.left, b) for b in idems],
                         "Ext bimodule")
    pairs = _matched_pairs(right, left)
    rows = [f.zeros(0, len(pairs.index))]
    for a in range(q.n_arrows):
        lam = A.bindex[Path(q.source(a), (a,))]
        rows.append(_arrow_relations(A, a, of(action, lam), of(E.left, lam),
                                     right, left, pairs))
    return np.concatenate(rows), pairs


def preprojective_algebra(A: BoundQuiverAlgebra, n: int,
                          cap: int = 32) -> FinDimAlgebra:
    """T_A E as a graded algebra: degree-i part is E^{(x)_A i}.

    Grade g > 0 is T_{g-1} (x)_k E modulo the balancing relations
    x lam (x) y - x (x) lam y.  The bases of T_{g-1} and E are
    vertex-adapted, so every pure tensor x (x) y with right(x) != left(y)
    is a relation, and the rest are spanned by the relations W of the
    arrows on the matched pairs right(x) = left(y).  The grade is one
    ``kernel_rref`` of W: ``proj`` maps the matched pairs onto the grade,
    and basis element k is the class of the pure tensor x_k (x) y_k at
    its k-th pivot (``xs``, ``ys`` record the pairs).

    One pass per grade g builds the grade and every product into it from
    the entries of the constants into grade g-1 and of E's actions: the
    idempotents and arrows act there by the constants whose right factor
    is theirs, u (x_k (x) y_k) is (u x_k) (x) y_k for k in grades 1..g,
    and (x_k (x) y_k) b is x_k (x) (y_k b) for k in grade g.  ``proj``
    sends these pure tensors to the grade; only nonzero sums are kept.
    """
    E = ext_bimodule(A, n)
    f = A.field
    base = algebra_from_bqa(A)
    eb, ey2, ey, ec = E.right
    # parts[g]: the constants into grade g; offsets[g]: where grade g
    # starts; xg, yg: the global x_k and the y_k of grades 1, 2, ...
    parts = [base.constants]
    offsets = [0, A.dim]
    xg = yg = np.zeros(0, dtype=np.int64)
    while E.dim > 0:
        lo, top = offsets[-2], offsets[-1]
        i, j, k, c = parts[-1]
        # the right action on grade g-1 of a basis path j of A is the
        # constants into it with right factor j
        W, pairs = _balancing_relations(A, E, (j, k - lo, i - lo, c), top - lo)
        proj, units = f.kernel_rref(W)
        newdim = len(units)
        if newdim == 0:
            break
        if len(parts) > cap:
            raise NotTauFinite(cap, newdim)
        xs, ys = np.divmod(pairs.index[units], E.dim)
        xg, yg = np.concatenate([xg, lo + xs]), np.concatenate([yg, ys])
        # the terms (left factor, right factor, matched pair, coefficient)
        # of u (x_k (x) y_k) and of (x_k (x) y_k) b
        s, t = sparse_join(j, xg)
        u, v = sparse_join(ys, ey)
        left, right, at, coef = (np.concatenate(a) for a in zip(
            (i[s], A.dim + t, pairs.pos[k[s] - lo, yg[t]], c[s]),
            (top + u, eb[v], pairs.pos[xs[u], ey2[v]], ec[v])))
        # each term times the entries of proj in its pair's column; a pure
        # tensor at an unmatched pair (at = -1) is zero and joins none
        r, col = np.nonzero(proj != f.zero)
        s, t = sparse_join(at, col)
        size = top + newdim
        key, kk, vals = sparse_entries(f, newdim, left[s] * size + right[s],
                                       r[t], coef[s] * proj[r[t], col[t]])
        parts.append((key // size, key % size, top + kk, vals))
        offsets.append(size)

    grading = [g for g in range(len(parts))
               for _ in range(offsets[g + 1] - offsets[g])]
    i, j, k, c = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((k, j, i))
    idems = [np.concatenate([e, f.zeros(1, offsets[-1] - A.dim)[0]])
             for e in base.idempotents]
    return FinDimAlgebra(f, offsets[-1], idems, grading, constants=(
        i[order], j[order], k[order], f.array(c[order])))


# ---------------------------------------------------------------------------
# End algebras corner by corner, and the stable endomorphism algebra
# ---------------------------------------------------------------------------

class _Corner(NamedTuple):
    """A basis of e_i End e_j = Hom(X_j, X_i): ``maps[v]`` stacks the basis
    maps' blocks at v, and the coordinates of a map are its entries at
    ``places``, (v, row, column) arrays."""
    maps: list[np.ndarray]
    places: tuple


def _places(pos: np.ndarray, di: np.ndarray, dj: np.ndarray):
    """(v, row, column) of flat positions of maps X_j -> X_i, in the
    layout of ``ModuleMap.flatten``."""
    ends = np.cumsum(di * dj)
    v = np.searchsorted(ends, pos, side="right")
    r, c = np.divmod(pos - (ends - di * dj)[v], dj[v])
    return v, r, c


def _corner(f, homs: list[ModuleMap], di, dj):
    """The corner spanned by ``homs``, a ``hom_space`` basis; None if it
    is empty.  A map of the span has its coordinates at the basis's free
    columns: they are its values there."""
    if not homs:
        return None
    rows = np.stack([h.flatten()[0] for h in homs])
    maps = np.split(rows, np.cumsum(di * dj)[:-1], axis=1)
    return _Corner([a.reshape(len(rows), di[v], dj[v])
                    for v, a in enumerate(maps)],
                   _places(_free_columns(f, rows), di, dj))


def end_algebra(A: BoundQuiverAlgebra,
                summands: list[Representation]) -> FinDimAlgebra:
    """End(X) of X = the sum of ``summands``, with the summands'
    identities as idempotents.

    End(X) is the matrix of the corners e_i End e_j = Hom(X_j, X_i)
    (Auslander-Reiten-Smalo, *Representation Theory of Artin Algebras*,
    1995).  Hom(X, X) solved in one system gives the same basis: each of
    its equations involves one summand pair, so each kernel vector lies in
    one corner, and the corner bases merge in the order of their free
    columns in X's flattened coordinates.

    The products through a middle summand b take one matmul per vertex v:
    the blocks at v of the basis maps out of b, one above the other, times
    those of the maps into b, side by side.  b_x b_y is b_y after b_x.
    """
    f = A.field
    m, nv = len(summands), A.quiver.n_vertices
    dims = np.array([X.dims for X in summands], dtype=np.int64).reshape(m, nv)
    starts = np.cumsum(dims, axis=0) - dims      # where X_i starts at v
    total = dims.sum(axis=0)
    flat_start = np.cumsum(total ** 2) - total ** 2
    corners: dict[tuple[int, int], _Corner] = {}
    places = [np.zeros(0, dtype=np.int64)]
    for j, Xj in enumerate(summands):
        for i, Xi in enumerate(summands):
            corner = _corner(f, hom_space(Xj, Xi), dims[i], dims[j])
            if corner is not None:
                corners[(i, j)] = corner
                v, r, c = corner.places
                places.append(flat_start[v] + (starts[i][v] + r) * total[v]
                              + starts[j][v] + c)
    # each corner's basis numbers, in the order of its free columns in X
    number = np.argsort(np.argsort(np.concatenate(places)))
    index = dict(zip(corners, np.split(number, np.cumsum(
        [len(c.maps[0]) for c in corners.values()])[:-1])))
    dim = len(number)

    idems = [f.zeros(1, dim)[0] for _ in range(m)]
    for s, e in enumerate(idems):
        if (s, s) in corners:
            _, r, c = corners[(s, s)].places
            e[index[(s, s)]] = np.where(r == c, f.one, f.zero)

    parts = [(number[:0],) * 3 + (f.zeros(1, 0)[0],)]
    for b in range(m):
        outs = [i for i in range(m) if (i, b) in corners]
        ins = [j for j in range(m) if (b, j) in corners]
        if not outs or not ins:
            continue
        # rows (i, y, r) of the out blocks at v, columns (j, x, c) of the
        # in blocks; every vertex's product in one flat array
        height = np.array([[a.shape[0] * a.shape[1]
                            for a in corners[(i, b)].maps] for i in outs])
        width = np.array([[a.shape[0] * a.shape[2]
                           for a in corners[(b, j)].maps] for j in ins])
        row0, col0 = np.cumsum(height, 0) - height, np.cumsum(width, 0) - width
        row_len = width.sum(0)
        size = height.sum(0) * row_len
        base = np.cumsum(size) - size
        prods = np.concatenate([f.matmul(
            np.concatenate([corners[(i, b)].maps[v].reshape(h[v], dims[b][v])
                            for i, h in zip(outs, height)]),
            np.concatenate([corners[(b, j)].maps[v].transpose(1, 0, 2)
                            .reshape(dims[b][v], w[v])
                            for j, w in zip(ins, width)], axis=1)).reshape(-1)
            for v in range(nv)])
        for p, i in enumerate(outs):
            for q, j in enumerate(ins):
                if (i, j) not in corners:
                    continue
                v, r, c = corners[(i, j)].places
                ny, nx = len(index[(i, b)]), len(index[(b, j)])
                y = np.arange(ny)[:, None]
                x = np.arange(nx)[:, None, None]
                at = (base[v] + col0[q][v] + x * dims[j][v] + c
                      + (row0[p][v] + y * dims[i][v] + r) * row_len[v])
                vals = prods[at].reshape(-1, len(r))
                xy, k = np.nonzero(vals != f.zero)
                parts.append((index[(b, j)][xy // ny], index[(i, b)][xy % ny],
                              index[(i, j)][k], vals[xy, k]))
    i, j, k, c = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((k, j, i))
    return FinDimAlgebra(f, dim, idems, constants=(
        i[order], j[order], k[order], f.array(c[order])))


def stable_endomorphism(A: BoundQuiverAlgebra, n: int,
                        cap: int = 32) -> FinDimAlgebra:
    """Stable endomorphism algebra of the preprojective module, the plain
    End of its non-projective summands.

    No map between them factors through a projective, as none maps to A.
    A non-projective summand lies in tau_n^- M = Tr Z for some M, with
    Z = Omega^{n-1} D M over A^op, and Hom_A(Tr Z, A) = Omega^2 Z
    (Auslander-Reiten-Smalo, 1995), so Hom(tau_n^- M, A) = Omega^{n+1} D M.
    That is zero, since ``preprojective_module`` refuses gldim A > n."""
    split = preprojective_module(A, n, cap)
    gamma = end_algebra(
        A, [r for r, g in zip(split.summand_reps, split.summand_grades)
            if g > 0])
    gamma.split = split
    return gamma
