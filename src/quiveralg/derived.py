"""Bounded complexes, derived Hom, Serre powers, and orbit Hom sums.

Derived-category objects travel in two forms: concrete bounded complexes
of modules, and symbolic complexes whose terms are sums of indecomposable
projectives e_v A with differentials recorded as algebra elements.
Projective resolutions of arbitrary bounded complexes are built by
iterated mapping cones with strict comparison lifts through
degreewise-surjective quasi-isomorphisms, and contractible summands are
stripped by Gaussian cancellation on unit entries.

The symbolic and concrete forms convert through ``homology``'s
``elements_of_map`` and ``map_of_elements``, which alone know how an
algebra element lies in the blocks of a map between tagged projective
sums.  A chain map is a quasi-isomorphism iff its mapping cone is
acyclic, which is checked from the ranks of the cone blocks at each
vertex.

Every other object comes from two dualities on complexes of tagged
projectives: the k-dual D, which carries the tags, and ``transposed``,
Hom_A(-, A) over A^op, which moves each entry through
``homology.transpose_entries``.  The Nakayama functor is
nu = D Hom(-, A), and S_n^{-1} X = nu^{-1}(I)[n] for an injective
resolution I = D P of X is Hom(P, A^op)[n] for a projective resolution P
of D X, so the Serre orbit is computed with projective complexes only.
A complex whose terms are tagged injective sums (every step of S_n)
resolves term by term from ``homology``'s per-summand resolutions of the
indecomposable injectives, each computed once per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AboveCap, AboveCapError, TermNotInjective,
    TermNotProjective, WindowInconclusive)
from .exactla import QuotientBasis
from .homology import (ProjResolution, elements_of_map, global_dimension,
                       hom_matrix, injectives_sum_resolution,
                       map_of_elements, min_proj_resolution,
                       transpose_entries)
from .modules import (ModuleMap, Representation, dual,
                      map_from_projectives, op_algebra, projectives_sum,
                      zero_rep)
from .quivers import BoundQuiverAlgebra, Path

__all__ = ["ComplexOfModules", "ChainMap", "module_complex",
           "proj_resolve_complex", "resolution_complex", "SymbolicComplex",
           "to_symbolic", "transposed", "nakayama", "nakayama_inv",
           "amiot_hom", "hom_d", "GradedHom", "SerreContext",
           "serre_context"]


class ComplexOfModules:
    """Bounded cochain complex: d^i: X^i -> X^{i+1}, d.d = 0 exactly."""

    def __init__(self, algebra: BoundQuiverAlgebra,
                 terms: dict[int, Representation],
                 diffs: dict[int, ModuleMap], check: bool = True):
        self.algebra = algebra
        self.terms = {i: t for i, t in terms.items() if t.total_dim > 0}
        self._zero = None  # the term of every missing degree, built once
        self._cohomology = None  # cohomology_dims, computed once
        self.diffs = {}
        for i, d in diffs.items():
            if i in self.terms and (i + 1) in self.terms:
                self.diffs[i] = d
        if check:
            self.check_d_squared()

    @property
    def lo(self) -> int:
        return min(self.terms) if self.terms else 0

    @property
    def hi(self) -> int:
        return max(self.terms) if self.terms else 0

    def term(self, i: int) -> Representation:
        t = self.terms.get(i)
        if t is not None:
            return t
        if self._zero is None:
            self._zero = zero_rep(self.algebra)
        return self._zero

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if self.is_zero():
            return "Complex(0)"
        bits = ", ".join(f"{i}:{self.terms[i].total_dim}"
                         for i in sorted(self.terms))
        return f"Complex({bits})"

    def check_d_squared(self):
        for i in self.diffs:
            if i + 1 in self.diffs:
                comp = self.diffs[i].compose(self.diffs[i + 1])
                if not comp.is_zero():
                    raise ValueError("d.d != 0")

    def cohomology_dims(self) -> dict[int, int]:
        """The nonzero total dimensions of H^i: at each vertex v,
        dim ker d^i_v - rank d^{i-1}_v, after checking d^i_v d^{i-1}_v = 0
        so that the boundaries lie in the cycles.  Computed on the first
        call; each call returns a copy."""
        if self._cohomology is None:
            self._cohomology = self._compute_cohomology_dims()
        return dict(self._cohomology)

    def _compute_cohomology_dims(self) -> dict[int, int]:
        f = self.algebra.field
        ranks = {i: [f.rank(b) for b in d.blocks]
                 for i, d in self.diffs.items()}
        out = {}
        for i in range(self.lo, self.hi + 1):
            d, dprev = self.diffs.get(i), self.diffs.get(i - 1)
            h = self.term(i).total_dim
            if d is not None:
                h -= sum(ranks[i])
            if dprev is not None:
                h -= sum(ranks[i - 1])
            if d is not None and dprev is not None:
                assert all(f.is_zero(f.matmul(a, b)) for a, b in
                           zip(d.blocks, dprev.blocks)), \
                    "image must lie inside the kernel"
            if h:
                out[i] = h
        return out

    def support_bounds(self) -> tuple[int, int] | None:
        dims = self.cohomology_dims()
        if not dims:
            return None
        return min(dims), max(dims)

    def shift(self, k: int) -> "ComplexOfModules":
        """X[k]: terms (X[k])^i = X^{i+k}, differentials scaled by (-1)^k."""
        f = self.algebra.field
        terms = {i - k: t for i, t in self.terms.items()}
        sign = f.one if k % 2 == 0 else f.neg(f.one)
        diffs = {i - k: d.scale(sign) for i, d in self.diffs.items()}
        return ComplexOfModules(self.algebra, terms, diffs, check=False)


class ChainMap:
    def __init__(self, source: ComplexOfModules, target: ComplexOfModules,
                 parts: dict[int, ModuleMap], check: bool = True):
        self.source = source
        self.target = target
        self.parts = dict(parts)
        if check:
            assert self.is_chain_map()

    def is_chain_map(self) -> bool:
        for i in range(min(self.source.lo, self.target.lo) - 1,
                       max(self.source.hi, self.target.hi) + 1):
            ds = self.source.diffs.get(i)
            dt = self.target.diffs.get(i)
            fi = self.parts.get(i)
            fi1 = self.parts.get(i + 1)
            # d_t . f_i == f_{i+1} . d_s whenever both sides are nonzero maps
            lhs = None
            if fi is not None and dt is not None:
                lhs = fi.compose(dt)
            rhs = None
            if ds is not None and fi1 is not None:
                rhs = ds.compose(fi1)
            if lhs is None and rhs is None:
                continue
            if lhs is None:
                if not rhs.is_zero():
                    return False
            elif rhs is None:
                if not lhs.is_zero():
                    return False
            else:
                f = lhs.field
                if not all(f.equal(a, b)
                           for a, b in zip(lhs.blocks, rhs.blocks)):
                    return False
        return True

    def induces_cohomology_iso(self) -> bool:
        """Quasi-isomorphism test: the mapping cone is acyclic.  At every
        vertex v, after checking d^i_v d^{i-1}_v = 0 for the cone
        differentials, dim cone^i_v = rank d^i_v + rank d^{i-1}_v."""
        X, Y = self.source, self.target
        f = X.algebra.field
        for v in range(X.algebra.quiver.n_vertices):
            prev, prev_rank = None, 0
            for i in range(min(X.lo - 1, Y.lo), max(X.hi - 1, Y.hi) + 1):
                d = _cone_block(self, i, v)
                if prev is not None:
                    assert f.is_zero(f.matmul(d, prev)), \
                        "cone differential must square to zero"
                rank = f.rank(d)
                if d.shape[1] != rank + prev_rank:
                    return False
                prev, prev_rank = d, rank
        return True


def _cohomology_basis(C: ComplexOfModules, i: int, v: int):
    """H^i(C) at vertex v: the cocycles modulo the coboundaries, as a
    QuotientBasis whose ``comp`` rows are cocycle representatives."""
    f = C.algebra.field
    dim = C.term(i).dims[v]
    d = C.diffs.get(i)
    cycles = f.kernel(d.blocks[v]) if d is not None else f.eye(dim)
    dprev = C.diffs.get(i - 1)
    bounds = f.row_space(dprev.blocks[v].T) if dprev is not None else \
        f.zeros(0, dim)
    H = QuotientBasis(f, bounds, cycles)
    assert bounds.shape[0] + H.dim == cycles.shape[0], \
        "boundaries must lie in the cycles"
    return H


def module_complex(M: Representation, degree: int = 0) -> ComplexOfModules:
    return ComplexOfModules(M.algebra, {degree: M}, {}, check=False)


def dual_complex(X: ComplexOfModules) -> ComplexOfModules:
    """D X over A^op: (D X)^i = D(X^{-i}), tags carried by ``dual``."""
    terms = {-i: dual(t) for i, t in X.terms.items()}
    diffs = {-i - 1: ModuleMap(terms[-i - 1], terms[-i],
                               [b.T.copy() for b in d.blocks])
             for i, d in X.diffs.items()}
    return ComplexOfModules(op_algebra(X.algebra), terms, diffs, check=False)


def dual_chain_map(phi: ChainMap) -> ChainMap:
    src = dual_complex(phi.target)
    tgt = dual_complex(phi.source)
    parts = {}
    for i, p in phi.parts.items():
        parts[-i] = ModuleMap(src.term(-i), tgt.term(-i),
                              [b.T.copy() for b in p.blocks])
    return ChainMap(src, tgt, parts, check=False)


# ---------------------------------------------------------------------------
# projective resolution of a bounded complex (iterated cones, strict lifts)
# ---------------------------------------------------------------------------

def resolution_complex(res: ProjResolution, M: Representation,
                       degree: int = 0):
    """(P, eps): the resolution ``res`` of M as a complex P with term j of
    ``res`` in degree ``degree - j``, and its augmentation eps: P -> M,
    with M placed in ``degree``."""
    terms = {degree - j: t for j, t in enumerate(res.terms)}
    diffs = {degree - j - 1: d for j, d in enumerate(res.differentials)}
    P = ComplexOfModules(M.algebra, terms, diffs, check=False)
    eps = ChainMap(P, module_complex(M, degree),
                   {degree: res.augmentation}, check=False)
    return P, eps


def _single_module_resolution(M: Representation, degree: int, cap: int):
    res = (injectives_sum_resolution(M, cap) if M.tag_kind == "I"
           else min_proj_resolution(M, cap))
    if res.truncated:
        raise AboveCapError(cap)
    return resolution_complex(res, M, degree)


def _stupid_truncate_above(X: ComplexOfModules, lo: int) -> ComplexOfModules:
    terms = {i: t for i, t in X.terms.items() if i > lo}
    diffs = {i: d for i, d in X.diffs.items() if i > lo}
    return ComplexOfModules(X.algebra, terms, diffs, check=False)


def _strict_lift(C: ComplexOfModules, f_map: ChainMap,
                 eps: ChainMap) -> ChainMap:
    """Strict chain lift g: C -> P of f: C -> X through a degreewise
    surjective quasi-isomorphism eps: P -> X (C bounded, projective terms).
    Built descending from the top degree: the generator images of all
    slots at one vertex solve one [d_P; eps]-stacked system, one column
    per slot, each column getting the solution it would get alone."""
    P = eps.source
    X = eps.target
    fld = C.algebra.field
    parts: dict[int, ModuleMap] = {}
    for i in range(C.hi, C.lo - 1, -1):
        Ct = C.term(i)
        if Ct.total_dim == 0:
            continue
        Pt = P.term(i)
        gen_images = [None] * len(Ct.summands)
        dP = P.diffs.get(i)
        gnext = parts.get(i + 1)
        dC = C.diffs.get(i)
        fi = f_map.parts.get(i)
        for v in dict.fromkeys(Ct.summands):
            slots = [s for s, w in enumerate(Ct.summands) if w == v]
            cols = [Ct.offsets[s][v] for s in slots]
            if not Pt.total_dim:
                x = fld.zeros(0, len(slots))
            else:
                # the targets: f under eps, h = g_{i+1} d_C under d_P
                tvec = fi.blocks[v][:, cols] if fi is not None else \
                    fld.zeros(X.term(i).dims[v], len(slots))
                if dC is not None and gnext is not None:
                    hvec = fld.matmul(gnext.blocks[v], dC.blocks[v][:, cols])
                else:
                    hvec = fld.zeros(P.term(i + 1).dims[v], len(slots))
                rows, rhs = [], []
                if dP is not None:
                    rows.append(dP.blocks[v])
                    rhs.append(hvec)
                elif np.count_nonzero(hvec):
                    raise AssertionError("no differential to hit")
                rows.append(eps.parts[i].blocks[v] if i in eps.parts else
                            fld.zeros(X.term(i).dims[v], Pt.dims[v]))
                rhs.append(tvec)
                x = fld.solve(np.concatenate(rows, axis=0),
                              np.concatenate(rhs, axis=0))
                assert x is not None, "comparison lift system must be solvable"
            for k, s in enumerate(slots):
                gen_images[s] = x[:, k:k + 1]
        parts[i] = map_from_projectives(Ct, Pt, gen_images)
    return ChainMap(C, P, parts, check=False)


def _cone_block(phi: ChainMap, i: int, v: int) -> np.ndarray:
    """d^i of cone(phi: X -> Y) at vertex v, on X^{i+1}_v (+) Y^i_v:
    [[-d_X^{i+1}, 0], [phi^{i+1}, d_Y^i]]."""
    X, Y = phi.source, phi.target
    f = X.algebra.field

    def dim(C, j):  # without building a zero module for a missing term
        return C.terms[j].dims[v] if j in C.terms else 0

    a_rows, a_cols = dim(X, i + 2), dim(X, i + 1)
    m = f.zeros(a_rows + dim(Y, i + 1), a_cols + dim(Y, i))
    dX, part, dY = X.diffs.get(i + 1), phi.parts.get(i + 1), Y.diffs.get(i)
    if dX is not None:
        m[:a_rows, :a_cols] = f.neg(dX.blocks[v])
    if part is not None:
        m[a_rows:, :a_cols] = part.blocks[v]
    if dY is not None:
        m[a_rows:, a_cols:] = dY.blocks[v]
    return m


def _cone(v: ChainMap) -> tuple[ComplexOfModules, dict]:
    """cone(v: A -> B): term^i = A^{i+1} (+) B^i, d(a,b) = (-da, v(a)+db).

    All terms must be tagged projective sums; returns the cone with tagged
    terms and the degreewise embeddings for bookkeeping.
    """
    A_cx, B_cx = v.source, v.target
    alg = A_cx.algebra
    terms = {}
    layout = {}
    for i in range(min(A_cx.lo - 1, B_cx.lo), max(A_cx.hi - 1, B_cx.hi) + 1):
        At = A_cx.term(i + 1)
        Bt = B_cx.term(i)
        verts = list(At.summands or ()) + list(Bt.summands or ())
        if not verts:
            continue
        terms[i] = projectives_sum(alg, verts)
        layout[i] = (At, Bt)
    diffs = {i: ModuleMap(terms[i], terms[i + 1],
                          [_cone_block(v, i, vx)
                           for vx in range(alg.quiver.n_vertices)])
             for i in terms if i + 1 in terms}
    return ComplexOfModules(alg, terms, diffs, check=False), layout


def _is_projective(X: ComplexOfModules) -> bool:
    """Is every term of X a tagged projective sum?"""
    return all(getattr(t, "tag_kind", None) == "P" for t in X.terms.values())


def proj_resolve_complex(X: ComplexOfModules, cap: int = 32,
                         verify: bool = True):
    """(P, eps): bounded complex of projectives with a degreewise
    surjective quasi-isomorphism eps: P -> X."""
    if X.is_zero():
        P = ComplexOfModules(X.algebra, {}, {}, check=False)
        return P, ChainMap(P, X, {}, check=False)
    if _is_projective(X):
        ident = {i: ModuleMap(t, t, [X.algebra.field.eye(d)
                                     for d in t.dims])
                 for i, t in X.terms.items()}
        return X, ChainMap(X, X, ident, check=False)
    lo = X.lo
    M = X.term(lo)
    if len(X.terms) == 1:
        return _single_module_resolution(M, lo, cap)
    Xp = _stupid_truncate_above(X, lo)
    Pp, epsp = proj_resolve_complex(Xp, cap, verify=False)
    R, epsR = _single_module_resolution(M, lo + 1, cap)
    # u: M<lo+1> -> X' is the chain map given by d^{lo}
    dlo = X.diffs.get(lo)
    u_parts = {}
    if dlo is not None:
        u_parts[lo + 1] = dlo
    u = ChainMap(module_complex(M, lo + 1), Xp, u_parts, check=False)
    # strict lift of u . epsR through epsp
    f_parts = {}
    if dlo is not None:
        f_parts[lo + 1] = epsR.parts[lo + 1].compose(dlo)
    f_map = ChainMap(R, Xp, f_parts, check=False)
    vlift = _strict_lift(R, f_map, epsp)
    P, layout = _cone(vlift)
    # eps: cone(vlift) -> cone(u) = X, componentwise
    fld = X.algebra.field
    parts = {}
    for i, t in P.terms.items():
        At, Bt = layout[i]
        Xt = X.term(i)
        m_blocks = []
        for vx in range(X.algebra.quiver.n_vertices):
            m = fld.zeros(Xt.dims[vx], t.dims[vx])
            a_cols = At.dims[vx]
            # A-part: epsR at degree i+1 lands in M placed at degree lo
            if i == lo and i + 1 in epsR.parts and a_cols:
                m[:, :a_cols] = epsR.parts[i + 1].blocks[vx]
            # B-part: eps' covers X' = X in degrees above lo only
            if i > lo and i in epsp.parts and Bt.dims[vx]:
                m[:, a_cols:] = epsp.parts[i].blocks[vx]
            m_blocks.append(m)
        parts[i] = ModuleMap(t, Xt, m_blocks)
    eps = ChainMap(P, X, parts, check=False)
    if verify:
        assert eps.is_chain_map(), "resolution augmentation must be a chain map"
        assert eps.induces_cohomology_iso(), \
            "resolution must be a quasi-isomorphism"
    return P, eps


# ---------------------------------------------------------------------------
# symbolic complexes of projectives
# ---------------------------------------------------------------------------

@dataclass
class SymbolicComplex:
    """Terms are sums of e_v A; the differential entry from summand u in
    degree i (vertex b) to summand w in degree i+1 (vertex c) is an
    algebra element in e_c A e_b."""

    algebra: BoundQuiverAlgebra
    terms: dict[int, tuple[int, ...]]
    diffs: dict[int, dict[tuple[int, int], dict[int, object]]]

    def copy(self) -> "SymbolicComplex":
        return SymbolicComplex(self.algebra,
                               {i: tuple(v) for i, v in self.terms.items()},
                               {i: {k: dict(e) for k, e in d.items()}
                                for i, d in self.diffs.items()})

    def materialize(self) -> ComplexOfModules:
        A = self.algebra
        terms = {i: projectives_sum(A, verts)
                 for i, verts in self.terms.items() if verts}
        diffs = {i: map_of_elements(A, entries, terms[i], terms[i + 1])
                 for i, entries in self.diffs.items()
                 if i in terms and i + 1 in terms}
        return ComplexOfModules(A, terms, diffs, check=True)

    def shift(self, k: int) -> "SymbolicComplex":
        """X[k], as ``ComplexOfModules.shift``: terms (X[k])^i = X^{i+k},
        every entry scaled by (-1)^k."""
        f = self.algebra.field
        diffs = self.diffs
        if k % 2:
            diffs = {i: {key: {b: f.neg(c) for b, c in elem.items()}
                         for key, elem in entries.items()}
                     for i, entries in diffs.items()}
        return SymbolicComplex(self.algebra,
                               {i - k: vs for i, vs in self.terms.items()},
                               {i - k: e for i, e in diffs.items()})

    def minimize(self) -> "SymbolicComplex":
        """Strip contractible summands by unit-entry Gaussian cancellation.

        Degrees are cleared in increasing order.  A cancellation in degree
        i only removes entries of degrees i - 1 and i + 1, so a degree
        that has no unit entry never gains one later.  Within a degree the
        pivot is the first unit entry in dict order, and each cancellation
        leaves the entries in (w, u) order."""
        A = self.algebra
        f = A.field
        out = self.copy()
        for i in sorted(out.diffs):
            while True:
                entries = out.diffs[i]
                hit = None
                for (w, u), elem in entries.items():
                    vtx = out.terms[i][u]
                    if vtx == out.terms[i + 1][w] and \
                            _trivial_coeff(A, elem, vtx) != f.zero:
                        hit = (w, u, elem, vtx)
                        break
                if hit is None:
                    break
                w0, u0, x, vtx = hit
                xinv = _local_inverse(A, x, vtx)
                # Gaussian cancellation: e' = e - c . x^{-1} . b where
                # b = entry (w0, u), c = entry (w, u0); only the pairs with
                # both change
                new_entries = {key: elem for key, elem in entries.items()
                               if key[0] != w0 and key[1] != u0 and elem}
                b_parts = [(u, b) for (w, u), b in entries.items()
                           if w == w0 and u != u0 and b]
                c_parts = [(w, c) for (w, u), c in entries.items()
                           if u == u0 and w != w0 and c]
                for w, c in c_parts:
                    cx = A.mult(c, xinv)
                    for u, b in b_parts:
                        elem = _elem_sub(f, new_entries.get((w, u), {}),
                                         A.mult(cx, b))
                        if elem:
                            new_entries[(w, u)] = elem
                        else:
                            new_entries.pop((w, u), None)
                out.diffs[i] = dict(sorted(new_entries.items()))
                _drop_summand(out, i, u0)
                _drop_summand(out, i + 1, w0)
        # drop empty degrees
        out.terms = {i: v for i, v in out.terms.items() if v}
        out.diffs = {i: d for i, d in out.diffs.items()
                     if d and i in out.terms and i + 1 in out.terms}
        return out


def _trivial_coeff(A, elem, vtx):
    idx = A.bindex.get(Path(vtx, ()))
    return elem.get(idx, A.field.zero)


def _local_inverse(A, x, vtx):
    """Inverse of x in e_v A e_v when its trivial-path coefficient is a unit."""
    f = A.field
    e = {A.bindex[Path(vtx, ())]: f.one}
    lam = _trivial_coeff(A, x, vtx)
    lam_inv = f.inv_el(lam)
    n = {k: f.neg(c * lam_inv)
         for k, c in x.items() if k != A.bindex[Path(vtx, ())]}
    # x = lam (e - n);  x^{-1} = lam^{-1} (e + n + n^2 + ...)
    acc = dict(e)
    powed = dict(n)
    guard = 0
    while powed:
        f.accumulate(acc, powed.items())
        powed = A.mult(powed, n)
        guard += 1
        if guard > A.dim + 2:
            raise AssertionError("nilpotent expansion did not terminate")
    return {k: f.smul(lam_inv, c) for k, c in acc.items()}


def _elem_sub(f, a, b):
    return f.accumulate(dict(a), ((k, -c) for k, c in b.items()))


def _drop_summand(sym: SymbolicComplex, degree: int, slot: int):
    verts = list(sym.terms[degree])
    del verts[slot]
    sym.terms[degree] = tuple(verts)

    def fix(entries, as_source: bool):
        out = {}
        for (w, u), e in entries.items():
            if as_source:
                if u == slot:
                    continue
                out[(w, u - 1 if u > slot else u)] = e
            else:
                if w == slot:
                    continue
                out[(w - 1 if w > slot else w, u)] = e
        return out

    if degree in sym.diffs:
        sym.diffs[degree] = fix(sym.diffs[degree], True)
    if degree - 1 in sym.diffs:
        sym.diffs[degree - 1] = fix(sym.diffs[degree - 1], False)


def to_symbolic(X: ComplexOfModules) -> SymbolicComplex:
    """The symbolic form of a complex of tagged projective sums."""
    A = X.algebra
    for i, t in X.terms.items():
        if t.tag_kind != "P":
            raise TermNotProjective(
                f"term at degree {i} is not a tagged projective sum")
    return SymbolicComplex(
        A, {i: t.summands for i, t in X.terms.items()},
        {i: elements_of_map(A, d, X.terms[i], X.terms[i + 1])
         for i, d in X.diffs.items()})


def transposed(P: ComplexOfModules) -> SymbolicComplex:
    """Hom_B(P, B) over B^op for a complex P of tagged projective sums over
    B: term -i holds the summands of P^i, and the differential from degree
    -i-1 is Hom(d^i, B), with the entries of ``transpose_entries``."""
    B = P.algebra
    sym = to_symbolic(P)
    return SymbolicComplex(
        op_algebra(B), {-i: vs for i, vs in sym.terms.items()},
        {-i - 1: transpose_entries(B, e) for i, e in sym.diffs.items()})


# ---------------------------------------------------------------------------
# Nakayama functor on complexes
# ---------------------------------------------------------------------------

def nakayama(X: ComplexOfModules) -> ComplexOfModules:
    """nu = D Hom(-, A) on a complex of tagged projective sums: a complex
    of tagged injective sums."""
    return dual_complex(transposed(X).materialize())


def nakayama_inv(X: ComplexOfModules) -> ComplexOfModules:
    """nu^{-1} = Hom(-, A^op) D on a complex of tagged injective sums: a
    complex of tagged projective sums."""
    for t in X.terms.values():
        if t.tag_kind != "I":
            raise TermNotInjective("nakayama_inv needs tagged injective terms")
    return transposed(dual_complex(X)).materialize()


# ---------------------------------------------------------------------------
# Serre powers
# ---------------------------------------------------------------------------

class SerreContext:
    """Deterministic, memoized single steps of S_n^{+-1} so that iterated
    objects are literally shared (needed to compose orbit morphisms).

    ``serre_context`` keeps one context per (A, n, cap) in the algebra's
    memo, so every caller walks the same objects: the regular complex,
    the minimized negative steps ``next_neg`` and the literal orbit
    ``orbit_neg``.  They are shared, so callers must not change them.

    ``next_neg`` minimizes Hom(P, A^op)[n] in its symbolic form, straight
    from ``transposed``, and ``minimized`` takes a complex of tagged
    projective sums as its own resolution.  Each complex computes its
    ``cohomology_dims`` once, so the support checks of the callers reuse
    the dimensions that the minimization check measured."""

    def __init__(self, A: BoundQuiverAlgebra, n: int, cap: int = 32):
        self.A = A
        self.n = n
        self.cap = cap
        self._neg: list[ComplexOfModules] = []
        self._regular: ComplexOfModules | None = None
        # id(X) -> (X, next_neg(X)); holding X keeps its id from reuse
        self._next_neg: dict[int, tuple] = {}

    # -- single steps -------------------------------------------------------
    def step_neg(self, X: ComplexOfModules) -> ComplexOfModules:
        """S_n^{-1} X = nu^{-1}(I)[n] for an injective resolution I = D P
        of X, that is Hom(P, A^op)[n] for a projective resolution P of
        D X over A^op."""
        return self._symbolic_step_neg(X).materialize()

    def _symbolic_step_neg(self, X: ComplexOfModules) -> SymbolicComplex:
        P, _ = proj_resolve_complex(dual_complex(X), self.cap)
        return transposed(P).shift(self.n)

    def step_pos(self, X: ComplexOfModules) -> ComplexOfModules:
        """S_n X = nu(projective resolution of X) [ -n ]."""
        P, _ = proj_resolve_complex(X, self.cap)
        return nakayama(P).shift(-self.n)

    def minimized(self, X: ComplexOfModules) -> ComplexOfModules:
        """The minimized complex of projectives quasi-isomorphic to X, so
        support concentrated in degree 0 certifies a projective module.
        A complex of tagged projective sums is its own resolution."""
        P = X if _is_projective(X) else proj_resolve_complex(X, self.cap)[0]
        return _minimized(to_symbolic(P), P)

    def next_neg(self, X: ComplexOfModules) -> ComplexOfModules:
        """minimized(step_neg(X)), computed once per object X.  The step
        stays symbolic up to the minimization; it is materialized once,
        for the cohomology that the minimization must keep."""
        hit = self._next_neg.get(id(X))
        if hit is None:
            step = self._symbolic_step_neg(X)
            hit = self._next_neg[id(X)] = (
                X, _minimized(step, step.materialize()))
        return hit[1]

    # -- the memoized orbit of the regular module ---------------------------
    def regular_complex(self) -> ComplexOfModules:
        """A as a complex in degree 0, the same object on every call."""
        if self._regular is None:
            from .modules import regular
            self._regular = module_complex(regular(self.A))
        return self._regular

    def orbit_neg(self, k: int) -> ComplexOfModules:
        """The literal iterate S_n^{-k}(A-as-complex), not minimized (the
        minimized steps are ``next_neg``)."""
        assert k >= 0
        if not self._neg:
            self._neg.append(self.regular_complex())
        while len(self._neg) <= k:
            self._neg.append(self.step_neg(self._neg[-1]))
        return self._neg[k]

    # -- transport of chain maps through one negative step -------------------
    def transport_neg(self, g: ChainMap) -> ChainMap:
        """S_n^{-1}(g): step_neg(U) -> step_neg(V) for g: U -> V, computed
        through the same construction as step_neg itself."""
        U, V = g.source, g.target
        DU, DV = dual_complex(U), dual_complex(V)
        PDU, epsU = proj_resolve_complex(DU, self.cap, verify=False)
        PDV, epsV = proj_resolve_complex(DV, self.cap, verify=False)
        Dg = dual_chain_map(g)  # DV -> DU
        fmap = ChainMap(PDV, DU, _compose_chain(epsV, Dg), check=False)
        lifted = _strict_lift(PDV, fmap, epsU)  # PDV -> PDU
        # Hom(lifted, A^op): Hom(PDU, A^op) -> Hom(PDV, A^op), shifted
        src = transposed(PDU).materialize().shift(self.n)
        tgt = transposed(PDV).materialize().shift(self.n)
        Aop = PDU.algebra
        parts = {}
        for j, p in lifted.parts.items():
            if j not in PDU.terms or j not in PDV.terms:
                continue
            entries = transpose_entries(Aop, elements_of_map(
                Aop, p, PDV.terms[j], PDU.terms[j]))
            i = -j - self.n
            parts[i] = map_of_elements(self.A, entries, src.term(i),
                                       tgt.term(i))
        return ChainMap(src, tgt, parts, check=False)


def _minimized(sym: SymbolicComplex,
               P: ComplexOfModules) -> ComplexOfModules:
    """``sym.minimize()`` materialized, for the symbolic form ``sym`` of
    the complex of projectives P, checked to keep the cohomology of P."""
    out = sym.minimize().materialize()
    assert out.cohomology_dims() == P.cohomology_dims(), \
        "minimization must preserve cohomology"
    return out


def serre_context(A: BoundQuiverAlgebra, n: int,
                  cap: int = 32) -> SerreContext:
    """The one SerreContext of (A, n, cap), kept in the algebra's memo."""
    ctx = A.memo.get(("serre", n, cap))
    if ctx is None:
        ctx = A.memo[("serre", n, cap)] = SerreContext(A, n, cap)
    return ctx


def _compose_chain(first: ChainMap, then: ChainMap) -> dict[int, ModuleMap]:
    parts = {}
    for i, p in first.parts.items():
        q = then.parts.get(i)
        if q is not None:
            parts[i] = p.compose(q)
    return parts


# ---------------------------------------------------------------------------
# derived Hom
# ---------------------------------------------------------------------------

def hom_d(X: ComplexOfModules, Y: ComplexOfModules, j: int,
          cap: int = 32) -> int:
    """dim Hom_D(X, Y[j]) via the total Hom complex from a projective
    resolution of X."""
    if X.is_zero() or Y.is_zero():
        return 0
    P, _ = proj_resolve_complex(X, cap, verify=False)
    lay_prev, lay, lay_next = (_hom_total_spaces(P, Y, m)
                               for m in (j - 1, j, j + 1))
    cols = sum(x[3] for x in lay)
    if cols == 0:
        return 0
    f = P.algebra.field
    # dim H^j = dim C^j - rank delta^j - rank delta^{j-1}
    return cols - f.rank(_hom_delta(P, Y, j, lay, lay_next)) \
        - f.rank(_hom_delta(P, Y, j - 1, lay_prev, lay))


def _hom_total_spaces(P: ComplexOfModules, Y: ComplexOfModules, m: int):
    """Coordinate layout of C^m = sum_i Hom(P^i, Y^{i+m}) in Yoneda coords."""
    layout = []
    for i in sorted(P.terms):
        Yt = Y.terms.get(i + m)
        if Yt is None:
            continue
        Pt = P.terms[i]
        for s, v in enumerate(Pt.summands):
            layout.append((i, s, v, Yt.dims[v]))
    return layout


def _hom_delta(P: ComplexOfModules, Y: ComplexOfModules, m: int,
               lay_m: list, lay_m1: list) -> np.ndarray:
    """Matrix of delta^m: C^m -> C^{m+1}, delta f = d_Y f - (-1)^m f d_P,
    on the layouts ``_hom_total_spaces`` of C^m and C^{m+1}."""
    f = P.algebra.field
    cols = sum(x[3] for x in lay_m)
    rows = sum(x[3] for x in lay_m1)
    out = f.zeros(rows, cols)
    if rows == 0 or cols == 0:
        return out
    coff = {}
    off = 0
    for (i, s, v, d) in lay_m:
        coff[(i, s)] = (off, v, d)
        off += d
    roff = {}
    off = 0
    for (i, s, v, d) in lay_m1:
        roff[(i, s)] = (off, v, d)
        off += d
    sign = f.one if m % 2 == 0 else f.neg(f.one)
    for (i, s), (co, v, dcol) in coff.items():
        # d_Y . f_i : stays at complex degree i, Yoneda slot (i, s)
        dY = Y.diffs.get(i + m)
        if dY is not None and (i, s) in roff:
            ro, v2, drow = roff[(i, s)]
            out[ro:ro + drow, co:co + dcol] = f.add(
                out[ro:ro + drow, co:co + dcol], dY.blocks[v])
    # the second summand - (-1)^m f_{i+1} d_P maps the degree-(i+1)
    # columns to the degree-i rows by Hom(d_P^i, Y^{i+m+1}); both runs of
    # slots are contiguous and miss the d_Y blocks above
    for i, dP in sorted(P.diffs.items()):
        if i not in P.terms or (i + 1, 0) not in coff:
            continue
        block = hom_matrix(dP, Y.terms[i + m + 1])
        if block.size:
            ro, co = roff[(i, 0)][0], coff[(i + 1, 0)][0]
            out[ro:ro + block.shape[0], co:co + block.shape[1]] = \
                f.smul(f.neg(sign), block)
    return out


# ---------------------------------------------------------------------------
# orbit Hom sums (Amiot cluster category Hom spaces)
# ---------------------------------------------------------------------------

@dataclass
class GradedHom:
    pieces: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.pieces.values())


def amiot_hom(A: BoundQuiverAlgebra, n: int, X: ComplexOfModules,
              Y: ComplexOfModules, window_cap: int = 64,
              cap: int = 32) -> GradedHom:
    """Graded pieces Hom_D(X, S_n^{-i} Y) of the orbit-category Hom.

    Scans i >= 0 and i < 0 until cohomological support separation makes
    all further pieces vanish; WindowInconclusive if the cap is reached
    first.  The orbit composition on the regular object is
    ``amiot_endomorphism_algebra``.
    """
    gl = _gldim(A, cap)
    ctx = serre_context(A, n, cap)
    out = GradedHom()
    xb = X.support_bounds()
    if xb is None:
        return out
    xmin, xmax = xb
    cur = Y
    i = 0
    while True:
        yb = cur.support_bounds()
        if yb is None:
            break
        ymin, ymax = yb
        if ymax < xmin - gl:
            break  # Hom(X, -) vanishes on D^{<= xmin-gl-1} forever after
        d = hom_d(X, cur, 0, cap)
        if d:
            out.pieces[i] = d
        if i >= window_cap:
            raise WindowInconclusive(window_cap)
        cur = ctx.next_neg(cur)
        i += 1
    cur = Y
    i = 0
    while True:
        cur = ctx.minimized(ctx.step_pos(cur))
        i -= 1
        yb = cur.support_bounds()
        if yb is None:
            break
        ymin, ymax = yb
        if ymin > xmax:
            break  # Hom(D^{<= xmax}, D^{>= xmax+1}) = 0, and S_n keeps rising
        d = hom_d(X, cur, 0, cap)
        if d:
            out.pieces[i] = d
        if -i >= window_cap:
            raise WindowInconclusive(window_cap)
    return out


# ---------------------------------------------------------------------------
# the orbit endomorphism algebra of the regular object
# ---------------------------------------------------------------------------

class _H0Coords:
    """Per-vertex H^0 coordinates of a complex, for classes of chain maps
    out of the regular module."""

    def __init__(self, C: ComplexOfModules):
        self.H = [_cohomology_basis(C, 0, v)
                  for v in range(C.algebra.quiver.n_vertices)]

    def dim(self) -> int:
        return sum(H.dim for H in self.H)

    def coords(self, gen_images: list[np.ndarray]) -> np.ndarray:
        """H^0 class of the chain map with the given generator images."""
        outs = []
        for H, img in zip(self.H, gen_images):
            assert H.spans(img.T).all(), "image must be a cocycle"
            outs.append(H.coords(img.T)[0])
        return np.concatenate(outs)

    def representative(self, v: int, k: int) -> np.ndarray:
        """Generator image (at vertex v) of the k-th basis class there."""
        return self.H[v].comp[k].reshape(-1, 1)


def amiot_endomorphism_algebra(A: BoundQuiverAlgebra, n: int,
                               window_cap: int = 64, cap: int = 32):
    """End of the regular object in the orbit category, as a graded
    FinDimAlgebra: degree-i piece Hom_D(A, S_n^{-i} A), composition via
    transported chain maps."""
    from .findim import FinDimAlgebra, sparse_constants
    f = A.field
    ctx = serre_context(A, n, cap)
    nv = A.quiver.n_vertices
    # collect pieces until support separation (as in amiot_hom)
    gl = _gldim(A, cap)
    coords = []
    k = 0
    while True:
        C = ctx.orbit_neg(k)
        hb = C.support_bounds()
        if hb is None or hb[1] < -gl:
            break
        coords.append(_H0Coords(C))
        if k >= window_cap:
            raise WindowInconclusive(window_cap)
        k += 1
    while coords and coords[-1].dim() == 0:
        coords.pop()
    piece_dims = [c.dim() for c in coords]
    offsets = np.cumsum([0] + piece_dims)
    total = int(offsets[-1])
    grading = []
    basis_info = []  # (grade, vertex, local index within vertex block)
    for g, c in enumerate(coords):
        for v in range(nv):
            for k2 in range(c.H[v].dim):
                grading.append(g)
                basis_info.append((g, v, k2))

    # transported maps cache: (grade_j, basis idx, steps) -> ChainMap
    tcache: dict[tuple[int, int], ChainMap] = {}

    def chain_of(idx: int) -> ChainMap:
        g, v, k2 = basis_info[idx]
        C = ctx.orbit_neg(g)
        C0 = C.term(0)
        gen_images = [f.zeros(C0.dims[w], 1) for w in range(nv)]
        gen_images[v] = coords[g].representative(v, k2)
        from .modules import regular
        R = regular(A)
        part0 = map_from_projectives(R, C0, gen_images)
        return ChainMap(module_complex(R), C, {0: part0}, check=False)

    def transported(idx: int, steps: int) -> ChainMap:
        hit = tcache.get((idx, steps))
        if hit is None:
            cm = chain_of(idx)
            for _ in range(steps):
                cm = ctx.transport_neg(cm)
            tcache[(idx, steps)] = cm
            hit = cm
        return hit

    def products(i: int):
        """Products x_i x_j as entries (i, j, k, c), in order of (j, k), in
        the tensor-algebra orientation: x_j acts first, x_i is transported
        past it by S_n^{-deg(x_j)}."""
        gi = basis_info[i][0]
        for j in range(total):
            gj = basis_info[j][0]
            if gi + gj >= len(coords):
                continue
            fmap = chain_of(j)
            gmap = transported(i, gj)  # S^{-gj}(x_i): C_gj -> C_{gi+gj}
            g0 = gmap.parts.get(0)
            if g0 is None or fmap.parts.get(0) is None:
                continue
            comp = fmap.parts[0].compose(
                ModuleMap(gmap.source.term(0), gmap.target.term(0),
                          g0.blocks))
            R = fmap.parts[0].source
            gen_imgs = []
            for w in range(nv):
                col = R.offsets[w][w]
                gen_imgs.append(comp.blocks[w][:, col:col + 1])
            for t, c in enumerate(coords[gi + gj].coords(gen_imgs)):
                yield i, j, int(offsets[gi + gj]) + t, c

    idems = []
    for v in range(nv):
        # the class of the idempotent e_v in the degree-0 piece Hom(A, A)
        C0 = ctx.orbit_neg(0).term(0)
        gen_images = [f.zeros(C0.dims[w], 1) for w in range(nv)]
        ev = f.zeros(C0.dims[v], 1)
        ev[_regular_unit_index(A, v), 0] = f.one
        gen_images[v] = ev
        cvec = coords[0].coords(gen_images)
        vec = f.zeros(1, total)[0]
        for t in range(piece_dims[0]):
            vec[t] = cvec[t]
        idems.append(vec)

    alg = FinDimAlgebra(f, total, None, idems, grading, constants=(
        sparse_constants(f, (e for i in range(total) for e in products(i)))))
    alg.piece_dims = piece_dims
    return alg


def _regular_unit_index(A: BoundQuiverAlgebra, v: int) -> int:
    from .modules import regular
    R = regular(A)
    return R.offsets[v][v]  # trivial path is first in basis_between(v, v)


def _gldim(A: BoundQuiverAlgebra, cap: int) -> int:
    g = global_dimension(A, cap)
    if isinstance(g, AboveCap):
        raise AboveCapError(cap)
    return g
