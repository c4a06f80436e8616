"""Abstract finite-dimensional algebras and quiver presentations.

A FinDimAlgebra is a basis, its structure constants and a complete list
of orthogonal idempotents, optionally graded.  Only the nonzero
constants c_{ij}^k are kept, as four flat arrays, which every builder
passes directly (``sparse_constants`` makes them from a list of
entries).  Products, and each action of an element as the entries
(dst, src, c) of its matrix, are scatter-adds over them, and the trace
form that gives the radical is one sparse join of them with themselves.
``quiver_presentation`` recovers a bound
quiver algebra from it: Gabriel quiver from rad/rad^2, arrow lifts, and
relation generators of the kernel I of the induced path algebra
surjection, computed degree by degree.  The basis must be
vertex-adapted: each idempotent acts by a 0/1 diagonal matrix, so every
basis element lies in one corner e_i B e_j and the corners are index
sets (``vertex_labels`` reads them off the idempotents' entries).  Each
corner is worked in the coordinates of its own basis elements: e_i rad
e_j is the kernel of the trace form's block between the corners (j, i)
and (i, j), and rad^2 is built corner by corner from the products
(e_i rad e_k)(e_k rad e_j), read off the constants between those
corners.  The arrow lifts and the new relation generators are
complements picked by ``exactla.complement_rows``; only the lifts are
padded to dim B coordinates.  With K_d = I on the paths of length 2..d,
the relations found so far generate K_{d-1} + arrows K_{d-1} + K_{d-1}
arrows there (u g w = a (u' g w) for u = a u'), and the new relations
complement that span in K_d.  The loop stops at the first degree whose
paths all vanish, or earlier, once the relations found so far present an
algebra of dimension dim B (a bounded completion checks this after each
degree that adds relations).  The returned algebra must match in
dimension; anything else raises.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NonAdmissible, NotBasic, NotSplit
from .exactla import Field, complement_rows
from .quivers import (BoundQuiverAlgebra, Path, PathElement, Quiver,
                      complete_basis)

__all__ = ["FinDimAlgebra", "quiver_presentation", "vertex_labels"]


class FinDimAlgebra:
    """Associative unital algebra given by structure constants.

    The nonzero constants c_{ij}^k are four flat arrays
    ``constants = (i, j, k, c)``, in order of (i, j, k), and every product
    is a scatter-add over them.

    ``quiver_presentation`` needs a vertex-adapted basis: the entries of
    each idempotent's ``left_action`` and ``right_action`` are diagonal
    ones, so each basis element b has one left label i and one right label
    j with b = e_i b e_j.  Every builder in the package gives such a basis.
    """

    def __init__(self, field: Field, dim: int, idempotents: list[np.ndarray],
                 grading: list[int] | None = None, *, constants: tuple):
        self.field = field
        self.dim = dim
        self.idempotents = [np.array(e) for e in idempotents]
        self.grading = grading
        self.constants = constants

    def __repr__(self):
        return f"FinDimAlgebra(dim={self.dim}, e={len(self.idempotents)})"

    def table(self, i: int) -> np.ndarray:
        """Products of basis element i, from the constants: row j holds the
        coordinates of b_i b_j."""
        a, j, k, c = self.constants
        lo, hi = np.searchsorted(a, [i, i + 1])
        return _dense(self.field, self.dim, (j[lo:hi], k[lo:hi], c[lo:hi]))

    def mult_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        i, j, k, c = self.constants
        xy = self.field.reduce(x[i] * y[j])
        return _scatter(self.field, self.field.zeros(1, self.dim)[0], k,
                        xy * c)

    def unit(self) -> np.ndarray:
        f = self.field
        out = f.zeros(1, self.dim)[0]
        for e in self.idempotents:
            out = f.add(out, e)
        return out

    def left_action(self, x: np.ndarray) -> tuple:
        """Entries (k, j, c) of y -> x y: x b_j has c at k, summed over the
        constants c_{ij}^k with x_i nonzero (``sparse_entries``)."""
        i, j, k, c = self.constants
        sel = x[i] != self.field.zero
        return sparse_entries(self.field, self.dim, k[sel], j[sel],
                              x[i[sel]] * c[sel])

    def right_action(self, x: np.ndarray) -> tuple:
        """Entries (k, i, c) of y -> y x: b_i x has c at k."""
        i, j, k, c = self.constants
        sel = x[j] != self.field.zero
        return sparse_entries(self.field, self.dim, k[sel], i[sel],
                              x[j[sel]] * c[sel])

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y on basis coordinates (columns = images)."""
        return _dense(self.field, self.dim, self.left_action(x))


def _scatter(f: Field, out: np.ndarray, index, vals: np.ndarray) -> np.ndarray:
    """out[index] += vals, each value and each sum reduced mod p."""
    np.add.at(out, index, f.reduce(vals))
    return f.reduce(out)


def _dense(f: Field, n: int, entries: tuple) -> np.ndarray:
    dst, src, c = entries
    out = f.zeros(n, n)
    out[dst, src] = c
    return out


def _act(f: Field, n: int, entries: tuple, rows: np.ndarray) -> np.ndarray:
    """rows @ M.T for the n x n matrix M with the entries (dst, src, c):
    one product with the block of the columns src and dst they touch."""
    dst, src, c = entries
    cols, i = np.unique(src, return_inverse=True)
    outs, k = np.unique(dst, return_inverse=True)
    block = f.zeros(len(cols), len(outs))
    block[i, k] = c
    out = f.zeros(len(rows), n)
    out[:, outs] = f.matmul(rows[:, cols], block)
    return out


def algebra_from_bqa(A: BoundQuiverAlgebra) -> FinDimAlgebra:
    """The structure-constant view of a bound quiver algebra.

    b_i b_j is zero unless b_j starts where b_i ends, so only those pairs
    are multiplied, each j in increasing order."""
    f = A.field
    q = A.quiver
    starts: list[list[int]] = [[] for _ in range(q.n_vertices)]
    for j, p in enumerate(A.basis):
        starts[p.source].append(j)
    idems = []
    for v in range(A.quiver.n_vertices):
        e = f.zeros(1, A.dim)[0]
        for k, c in A.idempotent(v).items():
            e[k] = c
        idems.append(e)
    grading = [A.path_degree(p) for p in A.basis] \
        if A.arrow_degrees is not None else None

    return FinDimAlgebra(f, A.dim, idems, grading, constants=(
        sparse_constants(f, (
            (i, j, k, c) for i, p in enumerate(A.basis)
            for j in starts[p.target(q)]
            for k, c in sorted(A.mult_basis(i, j).items())))))


def sparse_constants(f: Field, entries) -> tuple:
    """``FinDimAlgebra.constants`` from the entries (i, j, k, c) of the
    products b_i b_j in order of (i, j, k), less the zero ones."""
    kept = [e for e in entries if e[3] != f.zero]
    i, j, k = (np.array([e[s] for e in kept], dtype=np.int64)
               for s in range(3))
    return i, j, k, f.array([e[3] for e in kept])


def sparse_entries(f: Field, n: int, dst: np.ndarray, src: np.ndarray,
                   vals: np.ndarray) -> tuple:
    """Entries (dst, src, c), in order of (dst, src), of the n x n matrix
    with the terms ``vals`` at (dst, src), summed, zero sums dropped."""
    key, at = np.unique(dst * n + src, return_inverse=True)
    sums = _scatter(f, f.zeros(1, len(key))[0], at, vals)
    nz = sums != f.zero
    return key[nz] // n, key[nz] % n, sums[nz]


def sparse_join(a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of positions (s, t) with a[s] == b[t], in order of s and
    then of t: b sorted once, and each a[s] repeated over its run."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, side="left")
    cnt = np.searchsorted(b[order], a, side="right") - lo
    s = np.repeat(np.arange(len(a)), cnt)
    t = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
              + np.arange(int(cnt.sum()))]
    return s, t


def vertex_labels(f, dim: int, actions: list, what: str) -> np.ndarray:
    """The vertex of each of ``dim`` basis elements: the one v whose
    idempotent, acting by the entries (dst, src, c) of ``actions[v]``,
    fixes it.  The basis must be vertex-adapted: every entry is a diagonal
    1 and each element is fixed by exactly one idempotent, or it raises."""
    fixed = np.zeros((len(actions), dim), dtype=bool)
    for v, (dst, src, c) in enumerate(actions):
        if np.any(dst != src) or np.any(c != f.one):
            raise ValueError(f"vertex {v} does not act on the {what} by a "
                             "0/1 diagonal matrix")
        fixed[v, src] = True
    if not np.all(fixed.sum(axis=0) == 1):
        raise ValueError(f"a basis element of the {what} is not fixed by "
                         "exactly one vertex idempotent")
    return fixed.argmax(axis=0)


def _runs(keys: np.ndarray) -> dict[int, np.ndarray]:
    """The positions of each value of ``keys``, in order, by value."""
    order = np.argsort(keys, kind="stable")
    vals, starts = np.unique(keys[order], return_index=True)
    return dict(zip(vals.tolist(), np.split(order, starts[1:])))


def _corner_index(B: FinDimAlgebra) -> tuple:
    """(label, members, pos) for B's vertex-adapted basis: the corner
    i * m + j of each basis element b = e_i b e_j (m vertices), the basis
    elements ``members[(i, j)]`` of each corner e_i B e_j in order, and the
    place of each basis element in its corner.  Raises a ValueError when
    the basis is not vertex-adapted, or when a product leaves its factors'
    corners: b_a b_b = e_i b_a e_k b_b e_j lies in e_i B e_j, and is 0
    unless b_b lies in e_k B."""
    f = B.field
    n = B.dim
    idems = B.idempotents
    m = len(idems)
    left = vertex_labels(f, n, [B.left_action(e) for e in idems], "basis")
    right = vertex_labels(f, n, [B.right_action(e) for e in idems], "basis")
    label = left * m + right
    runs = _runs(label)
    empty = np.zeros(0, dtype=np.int64)
    members = {(i, j): runs.get(i * m + j, empty)
               for i in range(m) for j in range(m)}
    pos = np.zeros(n, dtype=np.int64)
    for at in runs.values():
        pos[at] = np.arange(len(at))
    i, j, k, _ = B.constants
    if np.any(right[i] != left[j]) or \
            np.any(label[k] != left[i] * m + right[j]):
        raise ValueError("a product of basis elements leaves the corner "
                         "e_i B e_j of its factors' vertices")
    return label, members, pos


def _radical_corners(B: FinDimAlgebra, label: np.ndarray, members: dict,
                     pos: np.ndarray) -> dict:
    """e_i rad e_j for every pair of vertices (i, j), as the rref of a row
    basis in the coordinates of the basis elements ``members[(i, j)]``
    (see ``_corner_index``).

    rad B is the kernel of the trace form tr(L_a L_b) of the regular
    representation, valid for char 0 or p > dim B.  For a in e_i B e_j,
    L_a L_b = L_{ab} has trace zero unless b lies in e_j B e_i, so e_j rad
    e_i is the kernel of the form's block between those two corners."""
    f = B.field
    n = B.dim
    m = len(B.idempotents)
    if f.kind == "GF" and f.p <= n:
        raise NotSplit("field characteristic too small for the trace-form "
                       "radical; use a larger prime")
    # tr(L_a L_b) = sum over j, k of c_{aj}^k c_{bk}^j: pair each stored
    # constant (a, j, k) with every stored constant (b, k, j)
    i, j, k, c = B.constants
    x, y = sparse_join(j * n + k, k * n + j)
    a, b, g = sparse_entries(f, n, i[x], i[y], c[x] * c[y])
    runs = _runs(label[a])
    out = {}
    for (r, s), rows in members.items():
        cols = members[(s, r)]
        block = f.zeros(len(rows), len(cols))
        at = runs.get(r * m + s)
        if at is not None:
            block[pos[a[at]], pos[b[at]]] = g[at]
        out[(s, r)] = f.kernel_rref(block)[0]
    return out


def _arrows(B: FinDimAlgebra) -> tuple[Quiver, list[np.ndarray],
                                      list[int] | None]:
    """The Gabriel quiver of B, the arrow lifts in dim B coordinates and
    their degrees (None for an ungraded B), each corner worked in its own
    coordinates (see ``quiver_presentation``)."""
    f = B.field
    n = B.dim
    m = len(B.idempotents)
    label, members, pos = _corner_index(B)

    # -- basic & split checks on S = B/rad --------------------------------
    corners = _radical_corners(B, label, members, pos)
    for (i, j), rows in members.items():
        excess = len(rows) - corners[(i, j)].shape[0]
        if i == j and excess != 1:
            raise NotBasic(
                f"e_{i} B e_{i} mod rad has dimension {excess}, not 1")
        if i != j and excess != 0:
            raise NotBasic(
                f"e_{i} B e_{j} mod rad is nonzero; B is not basic split")

    # -- rad^2 = sum over k of (e_i rad e_k)(e_k rad e_j), corner by corner,
    # from the constants c_{ab}^c with b_a in e_i B e_k and b_b in e_k B e_j
    ci, cj, ck, cc = B.constants
    prods: dict[tuple[int, int], list[np.ndarray]] = {}
    for key, at in _runs(label[ci] * m + label[cj] % m).items():
        (i, k), j = divmod(key // m, m), key % m
        xs, ys = corners[(i, k)], corners[(k, j)]
        if not xs.shape[0] or not ys.shape[0]:
            continue
        # xs[s] b_b is the sum of the constants c_{ab}^c xs[s, a] at c; put
        # them at (s, b, c), and ys times that is every product of two rows
        nb, nc = ys.shape[1], len(members[(i, j)])
        table = f.zeros(xs.shape[0], nb * nc)
        np.add.at(table, (slice(None), pos[cj[at]] * nc + pos[ck[at]]),
                  f.reduce(xs[:, pos[ci[at]]] * cc[at]))
        table = f.reduce(table).reshape(-1, nb, nc).transpose(1, 0, 2)
        prods.setdefault((i, j), []).append(
            f.matmul(ys, table.reshape(nb, -1)).reshape(-1, nc))
    corners2 = {key: f.row_space(np.concatenate(rows))
                for key, rows in prods.items()}

    # -- arrows: lifts of rad/rad^2 inside each corner, homogeneous for
    # each degree of B's grading (an ungraded B has the one degree 0) -----
    vertices = [str(i + 1) for i in range(m)]
    arrow_list, arrow_elems, arrow_degs = [], [], []
    grading = np.array(B.grading or [0] * n)
    degrees = sorted(set(grading.tolist()))
    for (i, j), at in members.items():
        corner = corners[(i, j)]
        if not corner.shape[0]:
            continue
        base = corners2.get((i, j), f.zeros(0, len(at)))
        # rad^2 is an ideal, so its corner lies in rad's corner
        want = corner.shape[0] - base.shape[0]
        # the corner's homogeneous rows in order of degree: a row is picked
        # iff it lies outside rad^2 and the rows before it, which span what
        # rad^2 and the picks of the lower degrees span
        deg, support = grading[at], corner != f.zero
        lifts = complement_rows(f, base, np.concatenate(
            [corner[~np.any(support & (deg != dg), axis=1)]
             for dg in degrees]))
        if len(lifts) != want:
            raise NotSplit("radical corner is not graded; cannot "
                           "choose homogeneous arrow lifts")
        for r in lifts:
            arrow_list.append((f"a{len(arrow_list) + 1}",
                               vertices[i], vertices[j]))
            x = f.zeros(1, n)[0]
            x[at] = r
            arrow_elems.append(x)
            arrow_degs.append(int(deg[np.argmax(r != f.zero)]))
    return (Quiver(vertices, arrow_list), arrow_elems,
            arrow_degs if B.grading is not None else None)


def quiver_presentation(B: FinDimAlgebra, cap: int = 64) -> BoundQuiverAlgebra:
    """Bound quiver algebra isomorphic to the basic split algebra B.

    B's basis must be vertex-adapted, so each corner e_i B e_j is spanned
    by the basis elements with labels (i, j); ``vertex_labels`` raises a
    ValueError naming the vertex otherwise.  Each corner is worked in the
    coordinates of those elements: e_i rad e_j is the kernel of one block
    of the trace form, and rad^2 is built corner by corner from the
    products (e_i rad e_k)(e_k rad e_j), read off the constants between
    those corners.  The arrows of corner (i, j) lift a basis of it modulo
    rad^2, picked from its rows that are homogeneous for B's grading, in
    order of degree, so a graded B gets homogeneous arrows; a corner whose
    lifts cannot all be homogeneous raises NotSplit.  Only the lifts are
    padded to dim B coordinates, as ``arrow_elements``.  Relations are
    found degree by degree: at degree d, the new ones complement K_{d-1},
    a K_{d-1} and K_{d-1} a (a an arrow) in K_d, where K_d is the kernel of
    evaluation on the paths of length 2..d.  The loop stops at the first
    degree d whose paths all vanish (rad^d = 0), or earlier, after a degree
    that adds relations, once the relations so far present an algebra of
    dimension dim B: kQ/I -> B is onto, so I is then the whole kernel.
    """
    f = B.field
    n = B.dim
    quiver, arrow_elems, arrow_degrees = _arrows(B)

    # -- kernel of the presentation map, degree by degree -------------------
    # a path's value is its prefix's times its last arrow, on the right
    arrow_right = [B.right_action(x) for x in arrow_elems]
    paths = [Path(s, (a,)) for a, (_, s, _) in enumerate(quiver.arrows)]
    # the lifts lie in e_s B, so e_s a = a
    values = np.stack(arrow_elems) if arrow_elems else f.zeros(0, n)
    relations: list[PathElement] = []
    # the index of each path of length 2..d, in order, their values, and
    # the kernel K_{d-1} on the first ker.shape[1] of them
    pool: dict[Path, int] = {}
    pool_values = []
    ker = f.zeros(0, 0)
    out = None
    for d in itertools.count(2):
        longer = []
        # for each last arrow: the new paths' rows and their prefixes' rows
        extend: dict[int, tuple[list[int], list[int]]] = {}
        for r, p in enumerate(paths):
            for a in quiver.arrows_from(p.target(quiver)):
                rows, prefixes = extend.setdefault(a, ([], []))
                rows.append(len(longer))
                prefixes.append(r)
                longer.append(Path(p.source, p.arrows + (a,)))
        prev, values = values, f.zeros(len(longer), n)
        for a, (rows, prefixes) in extend.items():
            values[rows] = _act(f, n, arrow_right[a], prev[prefixes])
        paths = longer
        # the paths of length d span rad^d: d is the nilpotency degree
        # once they all vanish, and this is the last degree
        last = f.is_zero(values)
        if not last and d >= n + 2:
            raise NotSplit("radical is not nilpotent; trace-form radical "
                           "computation is invalid here")
        for p in paths:
            pool[p] = len(pool)
        pool_values.append(values)
        if not pool:
            break
        # the ideal that the relations so far generate in the span of the
        # pool: K_{d-1} + arrows K_{d-1} + K_{d-1} arrows, 0 while K_{d-1} = 0
        ideal = (_ideal_rows(f, quiver, pool, ker) if ker.shape[0]
                 else f.zeros(0, len(pool)))
        # K_d: kernel of evaluation on the pool
        ker = f.kernel(np.concatenate(pool_values).T)
        new = ker[:0]
        if ker.shape[0]:
            new = complement_rows(f, ideal, ker)
            relations.extend(
                PathElement(quiver, {p: r[k] for p, k in pool.items()
                                     if r[k] != f.zero}) for r in new)
        if last:
            break
        if new.shape[0]:
            out = _presentation_of_dim(quiver, f, relations, n, cap,
                                       arrow_degrees)
            if out is not None:
                break

    if out is None:
        out = complete_basis(quiver, f, relations, cap=cap,
                             arrow_degrees=arrow_degrees)
    if out.dim != B.dim:
        raise NotSplit(
            f"presentation dimension {out.dim} differs from algebra "
            f"dimension {B.dim}; input violated the basic/split contract")
    out.arrow_elements = arrow_elems
    return out


def _ideal_rows(f: Field, quiver: Quiver, pool: dict[Path, int],
                ker: np.ndarray) -> np.ndarray:
    """Row basis of the span of ker, a ker and ker a for every arrow a,
    on the paths of ``pool`` (each mapped to its index), where ker ranges
    over the first ker.shape[1] of them.  Each product is one column
    gather: the column of a path p = a q of the pool is the column of q
    in ker when the first arrow of p is a, and the zero column appended
    to ker otherwise; the same holds on the right with the last arrow."""
    width = ker.shape[1]
    first = np.array([p.arrows[0] for p in pool])
    final = np.array([p.arrows[-1] for p in pool])
    tail = np.array([pool.get(Path(quiver.target(p.arrows[0]),
                                   p.arrows[1:]), width) for p in pool])
    head = np.array([pool.get(Path(p.source, p.arrows[:-1]), width)
                     for p in pool])
    gathers = [np.minimum(np.arange(len(pool)), width)]
    for a in range(quiver.n_arrows):
        gathers.append(np.where(first == a, tail, width))
        gathers.append(np.where(final == a, head, width))
    padded = np.concatenate([ker, f.zeros(ker.shape[0], 1)], axis=1)
    support = padded != f.zero
    # only the rows of ker that a gather keeps nonzero
    return f.row_space(np.concatenate(
        [padded[np.ix_(np.flatnonzero(support[:, g].any(axis=1)), g)]
         for g in gathers]))


def _presentation_of_dim(quiver: Quiver, f: Field,
                         relations: list[PathElement], n: int, cap: int,
                         arrow_degrees: list[int] | None
                         ) -> BoundQuiverAlgebra | None:
    """kQ/(relations) if it has dimension n, else None.

    A quotient of dimension n has no irreducible path of length >= n, so
    the completion runs with the cap min(cap, n) and stops once it has
    enumerated more than n irreducible paths; the NonAdmissible that
    either bound raises means "not yet"."""
    try:
        out = complete_basis(quiver, f, relations, cap=min(cap, n),
                             arrow_degrees=arrow_degrees, _max_paths=n)
    except NonAdmissible:
        return None
    return out if out.dim == n else None
