"""Finite-dimensional modules over a bound quiver algebra.

A module is a quiver representation: one exact matrix per arrow, acting
source -> target on column vectors, with every algebra relation
evaluating to the zero matrix.  Arrow matrices compose along a path in
path order (first arrow acts first).

A submodule is kept on echelon bases: the basis B_v at each vertex is a
transposed RREF with pivot rows piv_v, so B_v[piv_v] is the identity and
an arrow acts on the submodule by its image read at those rows, with one
product to check that the image lies in the span.  Every syzygy step
Omega M = ker(P(M) -> M) goes this way: its kernel costs one elimination
(``Field.kernel_rref``) per vertex where the cover is nonzero, and the
cover, the kernel and the walk that builds the cover's blocks make no
product at an arrow with a zero end, since that product is zero.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import NonSplitEndo
from .exactla import complement_units
from .findim import FinDimAlgebra, sparse_constants
from .quivers import BoundQuiverAlgebra, opposite

__all__ = ["Representation", "ModuleMap", "zero_rep", "simple", "projective",
           "injective", "projectives_sum", "injectives_sum", "regular",
           "coregular", "direct_sum", "hom_space", "dual", "socle",
           "projective_cover", "decompose", "is_isomorphic", "op_algebra"]


def op_algebra(A: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Opposite algebra, cached so that op(op(A)) is A itself."""
    cached = getattr(A, "_op", None)
    if cached is None:
        cached = opposite(A)
        A._op = cached
        cached._op = A
    return cached


class Representation:
    def __init__(self, algebra: BoundQuiverAlgebra, dims, action):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.action = tuple(action)
        q = algebra.quiver
        for a, m in enumerate(self.action):
            want = (self.dims[q.target(a)], self.dims[q.source(a)])
            if m.shape != want:
                raise ValueError(f"arrow {a}: matrix shape {m.shape}, "
                                 f"expected {want}")
        # optional bookkeeping for sums of projectives/injectives
        self.summands: tuple[int, ...] | None = None
        self.offsets: list[dict[int, int]] | None = None
        self.tag_kind: str | None = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep{self.dims}"

    def check_relations(self):
        for rel in self.algebra.relations:
            some = next(iter(rel.terms))
            s = some.source
            t = some.target(self.algebra.quiver)
            acc = self.field.zeros(self.dims[t], self.dims[s])
            for p, c in rel.terms.items():
                acc = self.field.add(acc, self.field.smul(
                    self.field.el(c), self.act_word(p.arrows, p.source)))
            if not self.field.is_zero(acc):
                raise ValueError("relations do not annihilate the module")

    def act_word(self, word: tuple[int, ...], source: int) -> np.ndarray:
        """Matrix of a path given by its arrow word (first arrow acts first)."""
        q = self.algebra.quiver
        m = self.field.eye(self.dims[source])
        for a in word:
            m = self.field.matmul(self.action[a], m)
        return m


class ModuleMap:
    def __init__(self, source: Representation, target: Representation,
                 blocks):
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)
        for v, b in enumerate(self.blocks):
            want = (target.dims[v], source.dims[v])
            if b.shape != want:
                raise ValueError(f"vertex {v}: block {b.shape}, want {want}")

    @property
    def field(self):
        return self.source.field

    def is_morphism(self) -> bool:
        q = self.source.algebra.quiver
        f = self.field
        for a in range(q.n_arrows):
            s, t = q.source(a), q.target(a)
            lhs = f.matmul(self.blocks[t], self.source.action[a])
            rhs = f.matmul(self.target.action[a], self.blocks[s])
            if not f.equal(lhs, rhs):
                return False
        return True

    def is_zero(self) -> bool:
        return all(self.field.is_zero(b) for b in self.blocks)

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """self followed by `then` (matrix product then_v @ self_v)."""
        f = self.field
        return ModuleMap(self.source, then.target,
                         [f.matmul(then.blocks[v], self.blocks[v])
                          for v in range(len(self.blocks))])

    def add(self, other: "ModuleMap") -> "ModuleMap":
        f = self.field
        return ModuleMap(self.source, self.target,
                         [f.add(a, b) for a, b in
                          zip(self.blocks, other.blocks)])

    def scale(self, c) -> "ModuleMap":
        f = self.field
        return ModuleMap(self.source, self.target,
                         [f.smul(c, b) for b in self.blocks])

    def flatten(self) -> np.ndarray:
        f = self.field
        parts = [b.reshape(1, -1) for b in self.blocks if b.size]
        if not parts:
            return f.zeros(1, 0)
        return np.concatenate(parts, axis=1)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_rep(A: BoundQuiverAlgebra) -> Representation:
    q = A.quiver
    f = A.field
    dims = [0] * q.n_vertices
    action = [f.zeros(0, 0) for _ in range(q.n_arrows)]
    return Representation(A, dims, action)


def simple(A: BoundQuiverAlgebra, v: int) -> Representation:
    q = A.quiver
    f = A.field
    dims = [1 if j == v else 0 for j in range(q.n_vertices)]
    action = [f.zeros(dims[q.target(a)], dims[q.source(a)])
              for a in range(q.n_arrows)]
    return Representation(A, dims, action)


def projectives_sum(A: BoundQuiverAlgebra, vertices) -> Representation:
    """Direct sum of indecomposable projectives e_v A, with bookkeeping.

    Vertex-j basis: concatenation over summand slots s of the reduced
    paths vertices[s] -> j.  Each arrow matrix holds the algebra's
    ``projective_blocks`` on its diagonal.  Built once per (algebra,
    vertices) and kept in the algebra's memo under ("P", vertices): every
    call returns the same module, whose arrays are read-only, so callers
    share it and must not change it.
    """
    vertices = tuple(map(int, vertices))
    key = ("P", vertices)
    hit = A.memo.get(key)
    if hit is not None:
        return hit
    q = A.quiver
    f = A.field
    projs = [A.projective_blocks(v) for v in vertices]
    offsets = []
    dims = [0] * q.n_vertices
    for pb in projs:
        offsets.append(dict(enumerate(dims)))
        dims = [d + e for d, e in zip(dims, pb.dims)]
    action = [f.zeros(dims[q.target(a)], dims[q.source(a)])
              for a in range(q.n_arrows)]
    for off, pb in zip(offsets, projs):
        for a, s, t, blk in pb.blocks:
            r, c = off[t], off[s]
            action[a][r:r + blk.shape[0], c:c + blk.shape[1]] = blk
    for m in action:
        m.setflags(write=False)
    rep = A.memo[key] = Representation(A, dims, action)
    rep.summands = vertices
    rep.offsets = offsets
    rep.tag_kind = "P"
    return rep


def projective(A: BoundQuiverAlgebra, v: int) -> Representation:
    return projectives_sum(A, [v])


def regular(A: BoundQuiverAlgebra) -> Representation:
    """A as a module over itself: sum of all indecomposable projectives."""
    return projectives_sum(A, range(A.quiver.n_vertices))


def injectives_sum(A: BoundQuiverAlgebra, vertices) -> Representation:
    """Direct sum of indecomposable injectives D(A e_v), with bookkeeping:
    the k-dual of the tagged projective sum over A^op, with its summands
    and offsets.  Built once per (algebra, vertices) and kept in the
    algebra's memo under ("I", vertices); its arrow matrices are the
    transposed, read-only views of that projective sum's."""
    vertices = tuple(map(int, vertices))
    key = ("I", vertices)
    hit = A.memo.get(key)
    if hit is not None:
        return hit
    P = projectives_sum(op_algebra(A), vertices)
    rep = A.memo[key] = Representation(A, P.dims, [m.T for m in P.action])
    rep.summands, rep.offsets, rep.tag_kind = P.summands, P.offsets, "I"
    return rep


def injective(A: BoundQuiverAlgebra, v: int) -> Representation:
    return injectives_sum(A, [v])


def coregular(A: BoundQuiverAlgebra) -> Representation:
    """D(A): sum of all indecomposable injectives."""
    return injectives_sum(A, range(A.quiver.n_vertices))


def map_from_projectives(P: Representation, M: Representation,
                         gen_images) -> ModuleMap:
    """Module map out of a tagged projective sum, from generator images.

    gen_images[s]: column vector in M at vertex P.summands[s].  The column
    of basis path p from v is M(p) applied to that image.  Basis paths are
    prefix-closed and sorted by length, so each path's value is one matmul
    of its last arrow with its prefix's value, for all slots at v at once,
    along the ``steps`` of the algebra's ``projective_blocks(v)``.  A
    vertex whose slots all have zero images keeps its zero columns, and
    the walk goes no further along a path that reaches a vertex where M is
    zero: that path, and every path through it, acts by zero.
    """
    A = P.algebra
    f = P.field
    nv = A.quiver.n_vertices
    blocks = [f.zeros(M.dims[j], P.dims[j]) for j in range(nv)]
    for v in dict.fromkeys(P.summands):
        slots = [s for s, w in enumerate(P.summands) if w == v]
        gens = np.concatenate([gen_images[s] for s in slots], axis=1)
        if not gens.any():
            continue
        values = {}
        for b, j, k, prefix, a in A.projective_blocks(v).steps:
            if a is None:
                values[b] = gens
            elif M.dims[j] and prefix in values:
                values[b] = f.matmul(M.action[a], values[prefix])
            else:
                continue
            blocks[j][:, [P.offsets[s][j] + k for s in slots]] = values[b]
    return ModuleMap(P, M, blocks)


def direct_sum(reps: list[Representation]) -> Representation:
    """The direct sum, each summand's block after the previous ones' at
    every vertex."""
    assert reps
    A = reps[0].algebra
    q = A.quiver
    f = A.field
    dims = [sum(r.dims[v] for r in reps) for v in range(q.n_vertices)]
    action = []
    for a in range(q.n_arrows):
        s, t = q.source(a), q.target(a)
        m = f.zeros(dims[t], dims[s])
        ro = co = 0
        for r in reps:
            m[ro:ro + r.dims[t], co:co + r.dims[s]] = r.action[a]
            ro += r.dims[t]
            co += r.dims[s]
        action.append(m)
    return Representation(A, dims, action)


# ---------------------------------------------------------------------------
# sub/quotient machinery
# ---------------------------------------------------------------------------

def _column_echelon(field, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(B, piv): the columns of B are a basis of the column space of m,
    and B.T is in RREF with pivot columns piv, so B[piv] is the
    identity."""
    if m.size == 0:
        return field.zeros(m.shape[0], 0), []
    r, piv = field.rref(m.T)
    return r[:len(piv)].copy().T, piv


def _echelon_subrepresentation(M: Representation, echelon):
    """The subrepresentation on the column spans of the bases of
    ``echelon``, with its inclusion; each echelon[v] is a pair (B_v, piv_v)
    with B_v[piv_v] the identity.

    Then a vector of the span at t is its own coordinates read at piv_t,
    so an arrow a: s -> t acts by its image of B_s read there, and that
    image lies in the span iff B_t times those rows gives it back (else
    ValueError).  An arrow with a zero space at s, or with M zero at t,
    acts by a zero block and costs no product."""
    A = M.algebra
    q = A.quiver
    f = M.field
    bases = [b for b, _ in echelon]
    pivots = [p for _, p in echelon]
    dims = [len(p) for p in pivots]
    action = []
    for a in range(q.n_arrows):
        s, t = q.source(a), q.target(a)
        if not dims[s] or not M.dims[t]:
            action.append(f.zeros(dims[t], dims[s]))
            continue
        img = f.matmul(M.action[a], bases[s])
        x = img[pivots[t]]
        if not f.equal(f.matmul(bases[t], x), img):
            raise ValueError("subspaces are not arrow-stable")
        action.append(x)
    rep = Representation(A, dims, action)
    return rep, ModuleMap(rep, M, bases)


def subrepresentation(M: Representation, spaces):
    """Subrepresentation from arrow-stable column-span subspaces.

    spaces[v]: matrix (dims[v] x k_v) whose columns span the subspace;
    its basis is the transposed RREF of one elimination per vertex.
    Returns (rep, inclusion); ValueError if the spaces are not
    arrow-stable.
    """
    return _echelon_subrepresentation(
        M, [_column_echelon(M.field, m) for m in spaces])


def kernel_subrepresentation(M: Representation, maps):
    """The subrepresentation whose space at v is ker(maps[v]), with its
    inclusion; maps[v] has dims[v] columns, and those at a vertex where M
    is zero may be any 0-column matrix.  Each basis is the transposed
    ``kernel_rref``, one elimination per vertex where M is nonzero.
    ValueError if the kernels are not arrow-stable."""
    return _echelon_subrepresentation(
        M, [(basis.T, piv) for basis, piv in map(M.field.kernel_rref, maps)])


def quotient(M: Representation, spaces):
    """Quotient by the arrow-stable column-span subspaces; (rep, projection).

    At each vertex v one ``kernel_rref`` of the spanning columns, read as
    rows, gives the projection of M_v onto M_v / S_v in the coordinates of
    the classes of the unit vectors at its pivots, which complete S_v; an
    arrow acts on the quotient by its columns at the source's pivots,
    projected at the target."""
    A = M.algebra
    q = A.quiver
    f = M.field
    quots = [f.kernel_rref(m.T) for m in spaces]
    action = []
    for a in range(q.n_arrows):
        s, t = q.source(a), q.target(a)
        action.append(f.matmul(quots[t][0], M.action[a][:, quots[s][1]]))
    rep = Representation(A, [len(units) for _, units in quots], action)
    return rep, ModuleMap(M, rep, [proj for proj, _ in quots])


def map_kernel(phi: ModuleMap):
    """Kernel subrepresentation with inclusion."""
    return kernel_subrepresentation(phi.source, phi.blocks)


def map_image(phi: ModuleMap):
    """Image subrepresentation (of the target) with inclusion."""
    return subrepresentation(phi.target, list(phi.blocks))


def map_cokernel(phi: ModuleMap):
    return quotient(phi.target, list(phi.blocks))


# ---------------------------------------------------------------------------
# Hom, duality, socle series
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast product, without
    np.kron's per-call overhead on the small blocks of ``hom_space``."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def hom_space(M: Representation, N: Representation) -> list[ModuleMap]:
    """k-basis of the intertwiner space Hom(M, N)."""
    if M.algebra is not N.algebra:
        raise ValueError("modules over different algebras")
    A = M.algebra
    q = A.quiver
    f = M.field
    sizes = [N.dims[v] * M.dims[v] for v in range(q.n_vertices)]
    offs = np.cumsum([0] + sizes)
    U = int(offs[-1])
    if U == 0:
        return []
    rows = []
    for a in range(q.n_arrows):
        s, t = q.source(a), q.target(a)
        r = N.dims[t] * M.dims[s]
        if r == 0:
            continue
        block = f.zeros(r, U)
        # vec_rowmajor(phi_t @ M_a) = kron(I, M_a^T) vec(phi_t)
        if sizes[t]:
            block[:, offs[t]:offs[t + 1]] = _kron(
                f.eye(N.dims[t]), M.action[a].T)
        if sizes[s]:
            block[:, offs[s]:offs[s + 1]] = f.sub(
                block[:, offs[s]:offs[s + 1]],
                _kron(N.action[a], f.eye(M.dims[s])))
        rows.append(block)
    if rows:
        sys = np.concatenate(rows, axis=0)
        ker = f.kernel(sys)
    else:
        ker = f.eye(U)
    out = []
    for r in range(ker.shape[0]):
        blocks = []
        for v in range(q.n_vertices):
            blocks.append(ker[r, offs[v]:offs[v + 1]].reshape(
                N.dims[v], M.dims[v]))
        out.append(ModuleMap(M, N, blocks))
    return out


def _free_columns(f, flat: np.ndarray) -> np.ndarray:
    """The free column of each ``hom_space`` basis map flattened into a
    row of ``flat``: its last nonzero entry, where it is 1 and the other
    basis maps are 0.  So the coordinates of a map of the span in that
    basis are its entries at these columns."""
    return flat.shape[1] - 1 - np.argmax((flat != f.zero)[:, ::-1], axis=1)


def dual(M: Representation) -> Representation:
    """k-dual over the opposite algebra: transposed arrow actions.

    The dual of a tagged projective sum is the tagged injective sum over
    the opposite algebra with the same summands, and the reverse; both are
    the algebra's own read-only sums, found by lookup, so D(D(P)) is P.
    The dual of any other module holds transposed copies."""
    if M.tag_kind is not None:
        make = injectives_sum if M.tag_kind == "P" else projectives_sum
        return make(op_algebra(M.algebra), M.summands)
    return Representation(op_algebra(M.algebra), M.dims,
                          [m.T.copy() for m in M.action])


def radical_series(M: Representation):
    """(radical subrep with inclusion)."""
    q = M.algebra.quiver
    f = M.field
    spaces = []
    for v in range(q.n_vertices):
        ins = [M.action[a] for a in q.arrows_into(v)]
        spaces.append(np.concatenate(ins, axis=1) if ins
                      else f.zeros(M.dims[v], 0))
    return subrepresentation(M, spaces)


def socle(M: Representation):
    """soc M, the vectors killed by every arrow, with its inclusion."""
    q = M.algebra.quiver
    f = M.field
    outs = []
    for v in range(q.n_vertices):
        ms = [M.action[a] for a in q.arrows_from(v)]
        outs.append(np.concatenate(ms, axis=0) if ms
                    else f.zeros(0, M.dims[v]))
    return kernel_subrepresentation(M, outs)


def projective_cover(M: Representation) -> ModuleMap:
    """Minimal surjection from a sum of indecomposable projectives.

    At each vertex v the generators are the unit vectors that
    ``complement_units`` picks to extend rad M at v, the column space of
    the arrows into v; their classes are a basis of the top at v.
    """
    A = M.algebra
    f = M.field
    q = A.quiver
    slots = []
    gens = []
    for v in range(q.n_vertices):
        d = M.dims[v]
        if not d:
            continue
        ins = [M.action[a] for a in q.arrows_into(v)]
        rad = np.concatenate(ins, axis=1).T if ins else f.zeros(0, d)
        for i in complement_units(f, rad, d):
            gen = f.zeros(d, 1)
            gen[i, 0] = f.one
            slots.append(v)
            gens.append(gen)
    P = projectives_sum(A, slots)
    return map_from_projectives(P, M, gens)


# ---------------------------------------------------------------------------
# endomorphism rings, idempotent splitting, isomorphism testing
# ---------------------------------------------------------------------------

def _trace_form(f, flat: np.ndarray, dims) -> np.ndarray:
    """The trace form tr(B_i B_j) on End(M), for the basis maps whose
    blocks (at vertex dimensions ``dims``) are flattened into the rows of
    ``flat``; its kernel is rad End(M) when char k = 0 or > dim M."""
    # tr(B_i B_j) = <vec B_i, vec B_j^T>: one product with the columns of
    # flat permuted so that each block is read transposed
    perm, off = [], 0
    for d in dims:
        perm.append(off + np.arange(d * d).reshape(d, d).T.ravel())
        off += d * d
    return f.matmul(flat, flat[:, np.concatenate(perm)].T)


# -- univariate polynomial helpers (coefficient lists, low degree first) ----

def _pnorm(f, c):
    while len(c) > 1 and c[-1] == f.zero:
        c.pop()
    return c

def _pmul(f, a, b):
    reduce = f.reduce
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == f.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = reduce(out[i + j] + x * y)
    return _pnorm(f, out)

def _pdivmod(f, a, b):
    """Quotient and remainder of the polynomial long division a / b."""
    reduce = f.reduce
    a = list(a)
    quo = [f.zero] * max(1, len(a) - len(b) + 1)
    inv = f.inv_el(b[-1])
    while len(a) >= len(b) and any(x != f.zero for x in a):
        c = reduce(a[-1] * inv)
        k = len(a) - len(b)
        quo[k] = c
        for i in range(len(b)):
            a[k + i] = reduce(a[k + i] - c * b[i])
        a = _pnorm(f, a)
    return _pnorm(f, quo), _pnorm(f, a)

def _pgcd(f, a, b):
    a, b = _pnorm(f, list(a)), _pnorm(f, list(b))
    while any(x != f.zero for x in b):
        a, b = b, _pdivmod(f, a, b)[1]
    if any(x != f.zero for x in a):
        inv = f.inv_el(a[-1])
        a = [f.smul(inv, x) for x in a]
    return a

def _pderiv(f, a):
    out = [f.smul(f.el(i), a[i]) for i in range(1, len(a))]
    return _pnorm(f, out or [f.zero])

def _ppowmod(f, base, e, mod):
    result = [f.one]
    base = _pdivmod(f, base, mod)[1]
    while e > 0:
        if e & 1:
            result = _pdivmod(f, _pmul(f, result, base), mod)[1]
        e >>= 1
        base = _pdivmod(f, _pmul(f, base, base), mod)[1]
    return result


def _coprime_split(f, m, rng):
    """A pair (f1, f2) of coprime monic nonunits with f1*f2 = m, or None."""
    if len(m) <= 2:
        return None
    d = _pderiv(f, m)
    if all(x == f.zero for x in d):
        return None  # p-th power; excluded by the p > dim guard in practice
    g = _pgcd(f, m, d)
    if 1 < len(g) < len(m):
        res = _lift_split(f, m, g)
        if res is not None:
            return res
    u = _pdivmod(f, m, g)[0]  # squarefree part
    if len(u) <= 2:
        return None  # m is a power of a single irreducible
    if f.kind != "GF":
        return _rational_root_split(f, m, u)
    # distinct-degree filtration on the squarefree part
    p = f.p
    x = [f.zero, f.one]
    h = list(x)
    for deg in range(1, len(u) - 1):
        h = _ppowmod(f, h, p, u)
        g2 = _pgcd(f, _psub(f, h, x), u)
        if 1 < len(g2) < len(u):
            return _lift_split(f, m, g2)
        if len(g2) == len(u):
            # every irreducible factor of u has degree exactly `deg`
            if len(u) - 1 == deg:
                return None  # u irreducible
            for _ in range(60):  # Cantor-Zassenhaus equal-degree split
                r = [f.el(rng.randrange(p)) for _ in range(2 * deg)] + [f.one]
                w = _ppowmod(f, r, (p ** deg - 1) // 2, u)
                g3 = _pgcd(f, _psub(f, w, [f.one]), u)
                if 1 < len(g3) < len(u):
                    return _lift_split(f, m, g3)
            return None
    return None


def _lift_split(f, m, g):
    """Given g | m nontrivial with gcd(g, m/g) possibly nontrivial, produce
    a coprime split of m by saturating g."""
    g1 = g
    while True:
        rest = _pdivmod(f, m, g1)[0]
        h = _pgcd(f, g1, rest)
        if len(h) == 1:
            return g1, rest
        g1 = _pmul(f, g1, h)
        if len(g1) >= len(m):
            return None


def _rational_root_split(f, m, sf):
    # try small integer roots on the squarefree part
    for num in range(-12, 13):
        val = sf[-1]
        for c in reversed(sf[:-1]):
            val = val * f.el(num) + c
        if val == f.zero:
            return _lift_split(f, m, [-f.el(num), f.one])
    return None


def decompose(M: Representation,
              _depth: int = 0) -> list[tuple[Representation, int]]:
    """Indecomposable direct summands with multiplicities.

    The splitting elements of End/rad (``_end_rad``) are drawn from a
    generator seeded with 11 plus the recursion depth, so the summands,
    and their bases, are the same on every run.  After 32 random draws,
    the basis elements of End/rad are tried in turn: over Q the minimal
    polynomial of a random element of M_k(Q) rarely has a root in
    [-12, 12], the only roots tried, but that of a matrix unit E_ii is
    x^2 - x.  Raises NonSplitEndo when a split into matrix algebras over
    k cannot be certified (division-algebra quotient bigger than k
    suspected).
    """
    if M.is_zero():
        return []
    f = M.field
    if f.kind == "GF" and f.p <= M.total_dim:
        raise NonSplitEndo("field characteristic too small for the "
                           "trace-form radical; use a larger prime")
    basis = hom_space(M, M)
    end_rad = _end_rad(M, basis)
    if end_rad is None:
        return [(M, 1)]
    S_alg, units = end_rad
    idem = _splitting_idempotent(S_alg, random.Random(11 + _depth))

    # lift to an exact idempotent of End(M) by Newton iteration
    coeffs = f.zeros(1, len(basis))[0]
    coeffs[units] = idem
    phi = _combine(M, basis, coeffs)
    for _ in range(2 * M.total_dim + 4):
        sq = phi.compose(phi)
        if all(f.equal(a, b) for a, b in zip(sq.blocks, phi.blocks)):
            break
        # x <- 3x^2 - 2x^3
        cube = sq.compose(phi)
        phi = sq.scale(f.el(3)).add(cube.scale(f.el(-2)))
    else:
        raise NonSplitEndo("idempotent lifting did not converge")

    img1, _ = map_image(phi)
    phic = ModuleMap(M, M, [f.eye(d) for d in M.dims]).add(
        phi.scale(f.el(-1)))
    img2, _ = map_image(phic)
    assert img1.total_dim + img2.total_dim == M.total_dim
    if img1.is_zero() or img2.is_zero():
        raise NonSplitEndo("degenerate idempotent split")
    parts = decompose(img1, _depth + 1) + decompose(img2, _depth + 1)
    # group isomorphic summands; each part is indecomposable
    grouped: list[tuple[Representation, int]] = []
    for rep, mult in parts:
        for k, (r0, m0) in enumerate(grouped):
            if _has_iso(rep, r0):
                grouped[k] = (r0, m0 + mult)
                break
        else:
            grouped.append((rep, mult))
    return grouped


def _end_rad(M: Representation, basis: list[ModuleMap]):
    """(S, units): S = End(M)/rad from its structure constants, on the
    classes of the picks, the basis maps ``basis[c]`` for c in ``units``;
    None when S is k, so that M is indecomposable.

    The row space of the trace form is the orthogonal of the radical, so
    its rref, read as a map on columns, projects End(M) onto S, and its
    pivots are the units.  A map of End(M) has its ``hom_space``
    coordinates at the basis's free columns.  The product b_i b_j of two
    picks is b_j after b_i: one matmul per vertex gives those of b_i with
    every pick."""
    f = M.field
    flat = np.concatenate([b.flatten() for b in basis])
    proj, units = f.rref(_trace_form(f, flat, M.dims))
    sdim = len(units)
    if sdim == 1:
        return None
    proj = proj[:sdim]
    free = _free_columns(f, flat)
    # the blocks at v of every pick, one above the other
    stacks = [(v, np.concatenate([basis[c].blocks[v] for c in units]))
              for v, d in enumerate(M.dims) if d]

    def to_S(vecs: np.ndarray) -> np.ndarray:
        coords = vecs[:, free]
        assert f.equal(f.matmul(coords, flat), vecs), "not in End(M)"
        return f.matmul(coords, proj.T)

    def products(i: int) -> np.ndarray:
        # row j: b_i b_j, every B_j^v @ B_i^v at once, flattened as maps
        return to_S(np.concatenate(
            [f.matmul(stack, basis[units[i]].blocks[v]).reshape(sdim, -1)
             for v, stack in stacks], axis=1))

    one = ModuleMap(M, M, [f.eye(d) for d in M.dims])
    return FinDimAlgebra(f, sdim, [to_S(one.flatten())[0]], constants=(
        sparse_constants(f, (
            (i, j, k, row[j, k]) for i in range(sdim)
            for row in [products(i)]
            for j, k in zip(*np.nonzero(row != f.zero)))))), units


def _splitting_idempotent(S: FinDimAlgebra, rng) -> np.ndarray:
    """A nontrivial idempotent of the semisimple algebra S, from the
    minimal polynomial of an element split into coprime factors: 32
    elements drawn from ``rng``, then S's basis elements."""
    f = S.field
    draws = (f.array([f.rand_el(rng) for _ in range(S.dim)])
             for _ in range(32))
    for svec in itertools.chain(draws, f.eye(S.dim)):
        m = _minpoly_in(S, svec)
        split = _coprime_split(f, m, rng)
        if split is None:
            continue
        e = _crt_idempotent(S, svec, m, *split)
        if e is not None:
            return e
    raise NonSplitEndo("no splitting idempotent found in End/rad after "
                       "32 random trials and its basis")


def _combine(M, basis, coeffs) -> ModuleMap:
    f = M.field
    blocks = [f.zeros(d, d) for d in M.dims]
    out = ModuleMap(M, M, blocks)
    for i, c in enumerate(coeffs):
        if c != f.zero:
            out = out.add(basis[i].scale(c))
    return out


def _minpoly_in(alg, s):
    """Minimal polynomial of s in the FinDimAlgebra alg: each power times
    the matrix of x -> x s, whose row i, the coordinates of b_i s, is
    s @ table(i), until one rref of the powers as columns finds s^k
    dependent on the powers before it, with its coordinates in column k."""
    f = alg.field
    n = alg.dim
    right = f.matmul(s[None], np.concatenate(
        [alg.table(i) for i in range(n)], axis=1)).reshape(n, n)
    powers = [alg.unit()]
    for k in range(1, n + 2):
        powers.append(f.matmul(powers[-1][None], right)[0])
        r, pivots = f.rref(np.stack(powers).T)
        if len(pivots) == k:
            assert pivots == list(range(k))
            return _pnorm(f, [f.neg(c) for c in r[:k, k]] + [f.one])
    raise AssertionError("minpoly search exceeded algebra dimension")


def _crt_idempotent(alg, s, m, f1, f2):
    """e = v*f2 evaluated at s in the FinDimAlgebra alg, where
    u*f1 + v*f2 = 1."""
    f = alg.field
    one = alg.unit()
    g, u, v = _pxgcd(f, f1, f2)
    if len(g) != 1:
        return None
    inv = f.inv_el(g[0])
    v = [f.smul(inv, c) for c in v]
    e_poly = _pdivmod(f, _pmul(f, v, f2), m)[1]
    # evaluate by horner in the algebra
    acc = np.zeros_like(one)
    for c in reversed(e_poly):
        acc = alg.mult_vec(acc, s)
        if c != f.zero:
            acc = f.add(acc, f.smul(c, one))
    ee = alg.mult_vec(acc, acc)
    if not f.equal(ee, acc):
        return None
    if f.is_zero(acc) or f.equal(acc, one):
        return None
    return acc


def _pxgcd(f, a, b):
    a0, b0 = _pnorm(f, list(a)), _pnorm(f, list(b))
    r0, r1 = a0, b0
    s0, s1 = [f.one], [f.zero]
    t0, t1 = [f.zero], [f.one]
    while any(x != f.zero for x in r1):
        q, r = _pdivmod(f, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(f, s0, _pmul(f, q, s1))
        t0, t1 = t1, _psub(f, t0, _pmul(f, q, t1))
    return r0, s0, t0


def _psub(f, a, b):
    out = [f.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = f.sub(out[i], x)
    return _pnorm(f, out)


def _invertible(phi: ModuleMap) -> bool:
    f = phi.field
    return all(f.rank(b) == b.shape[0] for b in phi.blocks)


def _has_iso(M: Representation, N: Representation) -> bool:
    """Whether M and N have one dimension vector and some basis map of
    Hom(M, N) is invertible.

    This decides whether M and N are isomorphic, exactly, when M or N is
    indecomposable: End(M) is then local, so if s: M -> N is an
    isomorphism, the non-isomorphisms s rad End(M) form a proper subspace
    of Hom(M, N), which no basis lies in.  For decomposable modules a
    False may be wrong."""
    return M.dims == N.dims and any(map(_invertible, hom_space(M, N)))


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Whether M and N are isomorphic, decided exactly.

    Equal dimension vectors and an invertible basis map of Hom(M, N)
    decide most pairs (``_has_iso``).  Otherwise M and N are isomorphic
    only if dim Hom(M, N) = dim End(M) and M is decomposable; then their
    indecomposable summands are matched with multiplicities.  Raises
    NonSplitEndo where ``decompose`` does."""
    if M.algebra is not N.algebra:
        raise ValueError("modules over different algebras")
    if M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    homs = hom_space(M, N)
    if any(map(_invertible, homs)):
        return True
    if len(homs) != len(hom_space(M, M)):
        return False
    dm = decompose(M)
    if dm == [(M, 1)]:
        return False
    dn = decompose(N)
    if sorted(m for _, m in dm) != sorted(m for _, m in dn):
        return False
    used = [False] * len(dn)
    for rep, mult in dm:
        for j, (rep2, mult2) in enumerate(dn):
            if not used[j] and mult == mult2 and _has_iso(rep, rep2):
                used[j] = True
                break
        else:
            return False
    return True
