"""Bounded complexes, the Serre orbit of A and its orbit Hom.

Derived-category objects travel in two forms: concrete bounded complexes
of modules, and symbolic complexes whose terms are sums of indecomposable
projectives e_v A with differentials recorded as algebra elements.
A bounded complex X is resolved from its top degree down: each term of
the resolution P is the projective cover of the fiber product of X and
the part of P above it.  Maps lift strictly along a resolution, and
contractible summands are stripped by Gaussian cancellation on unit
entries.

The symbolic and concrete forms convert through ``homology``'s
``elements_of_map`` and ``map_of_elements``, which alone know how an
algebra element lies in the blocks of a map between tagged projective
sums.  A chain map is a quasi-isomorphism iff its mapping cone is
acyclic, which is checked from the ranks of the cone blocks at each
vertex.

The Serre functor is walked one way only, by S_n^{-1}, with two
dualities on complexes of tagged projectives: the k-dual D, which
carries the tags, and ``transposed``, Hom_A(-, A) over A^op, which moves
each entry through ``homology.transpose_entries``.  S_n^{-1} X =
nu^{-1}(I)[n] for an injective resolution I = D P of X is
Hom(P, A^op)[n] for a projective resolution P of D X, so the orbit is
computed with projective complexes only; D X of a complex X of tagged
projective sums has tagged injective sums as terms, resolved like any
other complex.  ``checks.is_n_rep_finite`` walks S_n itself through
D S_n = S_n^{-1} D over A^op, and the orbit Hom of A is the H^0 of the
kept orbit of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .errors import AboveCapError, TermNotProjective, WindowInconclusive
from .homology import (elements_of_map, gldim_at_most, map_of_elements,
                       transpose_entries)
from .modules import (ModuleMap, Representation, direct_sum, dual,
                      kernel_subrepresentation, map_from_projectives,
                      op_algebra, projective_cover, projectives_sum, regular,
                      zero_rep)
from .quivers import BoundQuiverAlgebra, Path

__all__ = ["ComplexOfModules", "ChainMap", "module_complex",
           "proj_resolve_complex", "SymbolicComplex",
           "to_symbolic", "transposed", "amiot_hom", "GradedHom",
           "SerreContext", "serre_context"]


class ComplexOfModules:
    """Bounded cochain complex: d^i: X^i -> X^{i+1}, d.d = 0 exactly.
    The constructor checks nothing; ``check_d_squared`` does."""

    def __init__(self, algebra: BoundQuiverAlgebra,
                 terms: dict[int, Representation],
                 diffs: dict[int, ModuleMap]):
        self.algebra = algebra
        self.terms = {i: t for i, t in terms.items() if t.total_dim > 0}
        self._zero = None  # the term of every missing degree, built once
        self._cohomology = None  # cohomology_dims, computed once
        self.diffs = {}
        for i, d in diffs.items():
            if i in self.terms and (i + 1) in self.terms:
                self.diffs[i] = d

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
        return ComplexOfModules(self.algebra, terms, diffs)


class ChainMap:
    """Maps parts[i]: X^i -> Y^i.  The constructor checks nothing;
    ``is_chain_map`` does."""

    def __init__(self, source: ComplexOfModules, target: ComplexOfModules,
                 parts: dict[int, ModuleMap]):
        self.source = source
        self.target = target
        self.parts = dict(parts)

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
        differentials, dim cone^i_v = rank d^i_v + rank d^{i-1}_v.  A
        vertex where every term of X and Y is zero, where that reads
        0 = 0 + 0, is skipped."""
        X, Y = self.source, self.target
        f = X.algebra.field
        for v in range(X.algebra.quiver.n_vertices):
            if not any(t.dims[v] for C in (X, Y) for t in C.terms.values()):
                continue  # every cone block here is 0 x 0: 0 = 0 + 0
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


def module_complex(M: Representation, degree: int = 0) -> ComplexOfModules:
    return ComplexOfModules(M.algebra, {degree: M}, {})


def dual_complex(X: ComplexOfModules) -> ComplexOfModules:
    """D X over A^op: (D X)^i = D(X^{-i}), tags carried by ``dual``."""
    terms = {-i: dual(t) for i, t in X.terms.items()}
    diffs = {-i - 1: ModuleMap(terms[-i - 1], terms[-i],
                               [b.T.copy() for b in d.blocks])
             for i, d in X.diffs.items()}
    return ComplexOfModules(op_algebra(X.algebra), terms, diffs)


# ---------------------------------------------------------------------------
# projective resolution of a bounded complex, from the top degree down
# ---------------------------------------------------------------------------

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
    return ChainMap(C, P, parts)


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


def proj_resolve_complex(X: ComplexOfModules, cap: int = 32):
    """(P, eps): a bounded complex of tagged projective sums with a
    degreewise surjective quasi-isomorphism eps: P -> X.

    P is built from the top degree of X down.  P^i is the projective
    cover of the fiber product F^i = ker(X^i (+) P^{i+1} -> X^{i+1} (+)
    P^{i+2}), (x, p) -> (d x - eps p, d p), and eps^i and d^i are that
    cover followed by the two projections.  Up to the sign of p,
    F^i is the cocycles of the cone of eps in degree i, so covering it
    makes the cone acyclic; F^{i+1} holds (d x, 0) for each x in X^i, so
    eps^i is onto.  Below X the loop goes on while F^i is nonzero, and
    raises AboveCapError for a term more than ``cap`` degrees below the
    lowest term of X; for a module M in one degree that is pd M > cap,
    and P is the minimal resolution of M."""
    A = X.algebra
    f = A.field
    terms: dict[int, Representation] = {}
    diffs: dict[int, ModuleMap] = {}
    parts: dict[int, ModuleMap] = {}
    for i in count(X.hi, -1):
        Xi, Pn = X.terms.get(i), terms.get(i + 1)
        F = None
        if Xi is not None or Pn is not None:
            S = direct_sum([Xi, Pn]) if Xi is not None and Pn is not None \
                else Xi or Pn
            a = Xi.dims if Xi is not None else (0,) * len(S.dims)
            Xn, Pnn = X.terms.get(i + 1), terms.get(i + 2)
            if Xn is None and Pnn is None:
                F, incl = S, None  # the map has no target: F^i is all of S
            else:
                dX, e, dP = X.diffs.get(i), parts.get(i + 1), diffs.get(i + 1)
                maps = []
                for v, av in enumerate(a):
                    if not S.dims[v]:
                        maps.append(f.zeros(0, 0))
                        continue
                    xr = Xn.dims[v] if Xn is not None else 0
                    m = f.zeros(xr + (Pnn.dims[v] if Pnn is not None else 0),
                                S.dims[v])
                    if dX is not None:
                        m[:xr, :av] = dX.blocks[v]
                    if e is not None:
                        m[:xr, av:] = f.neg(e.blocks[v])
                    if dP is not None:
                        m[xr:, av:] = dP.blocks[v]
                    maps.append(m)
                F, incl = kernel_subrepresentation(S, maps)
        if F is None or F.is_zero():
            if i < X.lo:
                break
            continue
        if i < X.lo - cap:
            raise AboveCapError(cap)
        cover = projective_cover(F)
        if incl is not None:
            cover = cover.compose(incl)
        Pi = terms[i] = cover.source
        if Xi is not None:
            parts[i] = ModuleMap(Pi, Xi, [b[:av] for b, av in
                                          zip(cover.blocks, a)])
        if Pn is not None:
            diffs[i] = ModuleMap(Pi, Pn, [b[av:] for b, av in
                                          zip(cover.blocks, a)])
    P = ComplexOfModules(A, terms, diffs)
    eps = ChainMap(P, X, parts)
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
        X = ComplexOfModules(A, terms, diffs)
        X.check_d_squared()
        return X

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
# the orbit of A under S_n^{-1}
# ---------------------------------------------------------------------------

class SerreContext:
    """The orbit of A under S_n^{-1}, walked once.

    ``serre_context`` keeps one context per (A, n, cap) in the algebra's
    memo.  ``orbit(i)`` is the minimized iterate S_n^{-i} A, built on
    first use and kept in one list, so every caller reads the same
    objects; they are shared, so callers must not change them.

    ``next_neg`` minimizes Hom(P, A^op)[n] in its symbolic form, straight
    from ``transposed``.  Each complex computes its ``cohomology_dims``
    once, so the support checks of the callers reuse the dimensions that
    the minimization check measured."""

    def __init__(self, A: BoundQuiverAlgebra, n: int, cap: int = 32):
        self.A = A
        self.n = n
        self.cap = cap
        self._orbit: list[ComplexOfModules] = []

    def next_neg(self, X: ComplexOfModules) -> ComplexOfModules:
        """S_n^{-1} X = nu^{-1}(I)[n] for an injective resolution I = D P
        of X, that is Hom(P, A^op)[n] for a projective resolution P of
        D X over A^op, minimized.  The step stays symbolic up to the
        minimization; it is materialized once, for the cohomology that
        the minimization must keep."""
        P, _ = proj_resolve_complex(dual_complex(X), self.cap)
        step = transposed(P).shift(self.n)
        return _minimized(step, step.materialize())

    def orbit(self, i: int) -> ComplexOfModules:
        """S_n^{-i} A, minimized: A as a complex in degree 0 at i = 0, then
        ``next_neg`` of the iterate before."""
        if not self._orbit:
            self._orbit.append(module_complex(regular(self.A)))
        while len(self._orbit) <= i:
            self._orbit.append(self.next_neg(self._orbit[-1]))
        return self._orbit[i]


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


# ---------------------------------------------------------------------------
# the orbit Hom of A (Amiot cluster category Hom spaces)
# ---------------------------------------------------------------------------

@dataclass
class GradedHom:
    pieces: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.pieces.values())


def amiot_hom(A: BoundQuiverAlgebra, n: int, window_cap: int = 64,
              cap: int = 32) -> GradedHom:
    """Graded pieces Hom_D(A, S_n^{-i} A) = H^0(S_n^{-i} A), i >= 0, of the
    orbit-category Hom of A, read off the kept orbit.

    The walk stops at the first iterate with no cohomology or with all of
    it below -gldim A, past which every piece vanishes; WindowInconclusive
    if the window cap is reached first.  The pieces i < 0 vanish when
    gldim A <= n: S_n A = D A[-n] lies in degree n > 0, and S_n sends
    D^{>= k} into D^{>= k + n - gldim A}; so GldimTooLarge when
    gldim A > n, and AboveCapError when it exceeds the length cap."""
    gl = gldim_at_most(A, n, cap)
    ctx = serre_context(A, n, cap)
    out = GradedHom()
    i = 0
    while True:
        dims = ctx.orbit(i).cohomology_dims()
        if not dims or max(dims) < -gl:
            break  # Hom(A, -) vanishes on D^{<= -gl-1} forever after
        if dims.get(0):
            out.pieces[i] = dims[0]
        if i >= window_cap:
            raise WindowInconclusive(window_cap)
        i += 1
    return out

