"""Minimal resolutions, syzygies, Ext, transpose and the AR translates.

The transpose is taken from a minimal projective presentation, so tau
and tau_inv kill projective (resp. injective) direct summands without
any explicit stripping; the higher translates are the composites
tau . syzygy^(n-1) and tau^- . cosyzygy^(n-1) with minimal steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AboveCap
from .modules import (ModuleMap, Representation, decompose, dual, injective_envelope, is_isomorphic,
                      map_cokernel, map_from_projectives, map_kernel,
                      op_algebra, projective, projectives_sum,
                      projective_cover, zero_rep)
from .quivers import BoundQuiverAlgebra

__all__ = ["ProjResolution", "min_proj_resolution", "syzygy", "ext",
           "ext_data", "transpose", "tau", "tau_inv", "tau_n", "tau_n_inv",
           "global_dimension", "injective_dimension", "proj_dimension"]


@dataclass
class ProjResolution:
    """... -> P1 -> P0 -> M -> 0 with tagged projective terms."""

    module: Representation
    terms: list[Representation]
    augmentation: ModuleMap              # P0 -> M
    differentials: list[ModuleMap]       # differentials[i]: P(i+1) -> P(i)
    minimal: bool
    truncated: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def element_matrix(self, i: int) -> dict[tuple[int, int], dict]:
        """Differential i as algebra elements: (target slot, source slot)
        -> element of e_{a_v} A e_{b_u}."""
        d = self.differentials[i]
        P1, P0 = d.source, d.target
        A = P0.algebra
        out: dict[tuple[int, int], dict] = {}
        for u, bu in enumerate(P1.summands):
            col = P1.offsets[u][bu]  # generator position of slot u
            for v, av in enumerate(P0.summands):
                paths = A.basis_between(av, bu)
                if not paths:
                    continue
                start = P0.offsets[v][bu]
                elem = {}
                for k, bidx in enumerate(paths):
                    c = d.blocks[bu][start + k, col]
                    if c != A.field.zero:
                        elem[bidx] = c
                if elem:
                    out[(v, u)] = elem
        return out


def min_proj_resolution(M: Representation, length_cap: int = 32) -> ProjResolution:
    aug = projective_cover(M)
    terms = [aug.source]
    diffs: list[ModuleMap] = []
    ker, incl = map_kernel(aug)  # kernel inside the last term, with inclusion
    truncated = False
    while not ker.is_zero():
        if len(terms) > length_cap:
            truncated = True
            break
        cov = projective_cover(ker)
        diffs.append(cov.compose(incl))
        terms.append(cov.source)
        ker, incl = map_kernel(cov)
    return ProjResolution(M, terms, aug, diffs, True, truncated)


def strip_projectives(M: Representation) -> Representation:
    from .modules import direct_sum
    if M.is_zero():
        return M
    A = M.algebra
    projs = [projective(A, v) for v in range(A.quiver.n_vertices)]
    keep = []
    for rep, mult in decompose(M):
        if any(is_isomorphic(rep, p) for p in projs
               if p.dims == rep.dims):
            continue
        keep.extend([rep] * mult)
    if not keep:
        return zero_rep(A)
    return direct_sum(keep)[0]


def syzygy(M: Representation, i: int) -> Representation:
    """Omega^i for i>0, Omega^{-|i|} via cosyzygies for i<0.

    Each step uses the minimal cover/envelope, so projective (resp.
    injective) summands of M itself never propagate; a kernel can still
    be projective (Omega S_1 = P_2 over the A2 quiver) and is returned
    as-is.  i=0 strips projective summands.
    """
    if i == 0:
        return strip_projectives(M)
    if i > 0:
        cur = M
        for _ in range(i):
            cov = projective_cover(cur)
            cur, _ = map_kernel(cov)
        return cur
    cur = M
    for _ in range(-i):
        env = injective_envelope(cur)
        cur, _ = map_cokernel(env)
    return cur


# ---------------------------------------------------------------------------
# Ext groups via Hom(resolution, N) in Yoneda coordinates
# ---------------------------------------------------------------------------

def _hom_complex_matrices(res: ProjResolution, N: Representation):
    """Coordinate spaces Hom(P_i, N) = sum_slots N_{a_slot} and the induced
    differential matrices D_i: Hom(P_i,N) -> Hom(P_{i+1},N)."""
    f = N.field
    spaces = []
    for P in res.terms:
        spaces.append([N.dims[v] for v in P.summands])
    mats = []
    for i, d in enumerate(res.differentials):
        P1, P0 = d.source, d.target
        rows = sum(N.dims[v] for v in P1.summands)
        cols = sum(N.dims[v] for v in P0.summands)
        m = f.zeros(rows, cols)
        elems = res.element_matrix(i)
        roff = [0]
        for v in P1.summands:
            roff.append(roff[-1] + N.dims[v])
        coff = [0]
        for v in P0.summands:
            coff.append(coff[-1] + N.dims[v])
        for (v, u), elem in elems.items():
            av, bu = P0.summands[v], P1.summands[u]
            block = N.act_element(elem, av, bu)
            m[roff[u]:roff[u + 1], coff[v]:coff[v + 1]] = block
        mats.append(m)
    return spaces, mats


def ext_data(M: Representation, N: Representation, i: int,
             res: ProjResolution | None = None):
    """(dimension, cocycle row-basis, context) of Ext^i(M, N).

    Cocycles are coordinate vectors in Hom(P_i, N) = sum over slots of
    N at the slot vertex; the context carries the resolution and the
    coboundary row space for reduction.
    """
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    f = N.field
    if res is None or (res.truncated and res.length < i + 1):
        res = min_proj_resolution(M, length_cap=i + 1)
    if i > res.length:
        return 0, None, (res, None)
    spaces, mats = _hom_complex_matrices(res, N)
    dim_i = sum(spaces[i])
    if dim_i == 0:
        return 0, f.zeros(0, 0), (res, f.zeros(0, 0))
    if i < len(mats):
        cocycles = f.kernel(mats[i])  # rows
    else:
        cocycles = f.eye(dim_i)
    if i == 0:
        return cocycles.shape[0], cocycles, (res, f.zeros(0, dim_i))
    cob = f.row_space(mats[i - 1].T)  # rows spanning the coboundaries
    dim = cocycles.shape[0] - cob.shape[0]
    return dim, cocycles, (res, cob)


def ext(M: Representation, N: Representation, i: int,
        res: ProjResolution | None = None) -> int:
    return ext_data(M, N, i, res)[0]


def proj_dimension(M: Representation, cap: int = 32):
    if M.is_zero():
        return 0
    res = min_proj_resolution(M, cap)
    if res.truncated:
        return AboveCap(cap)
    return res.length


def global_dimension(A: BoundQuiverAlgebra, cap: int = 32):
    from .modules import simple
    best = 0
    for v in range(A.quiver.n_vertices):
        pd = proj_dimension(simple(A, v), cap)
        if isinstance(pd, AboveCap):
            return pd
        best = max(best, pd)
    return best


def injective_dimension(M: Representation, cap: int = 32):
    return proj_dimension(dual(M), cap)


# ---------------------------------------------------------------------------
# transpose and the AR translates
# ---------------------------------------------------------------------------

def op_element(A: BoundQuiverAlgebra, elem: dict[int, object]) -> dict[int, object]:
    """Image of an algebra element under the anti-isomorphism A -> A^op."""
    Aop = op_algebra(A)
    f = A.field
    out: dict[int, object] = {}
    for bidx, c in elem.items():
        p = A.basis[bidx]
        word = tuple(reversed(p.arrows))
        src = p.target(A.quiver)
        from .quivers import Path
        red = Aop.reduce_path(Path(src, word))
        for j, c2 in red.items():
            v = out.get(j, f.zero) + c * c2
            if f.kind == "GF":
                v = v % f.p
            if v == f.zero:
                out.pop(j, None)
            else:
                out[j] = v
    return out


def transpose(M: Representation) -> Representation:
    """Cokernel of Hom(P0, A) -> Hom(P1, A) over the opposite algebra."""
    A = M.algebra
    Aop = op_algebra(A)
    if M.is_zero():
        return zero_rep(Aop)
    aug = projective_cover(M)
    P0 = aug.source
    ker, incl = map_kernel(aug)
    if ker.is_zero():
        return zero_rep(Aop)
    cov1 = projective_cover(ker)
    d = cov1.compose(incl)
    P1 = cov1.source
    res = ProjResolution(M, [P0, P1], aug, [d], True, False)
    elems = res.element_matrix(0)
    P0op = projectives_sum(Aop, P0.summands)
    P1op = projectives_sum(Aop, P1.summands)
    f = A.field
    gen_images = []
    for v, av in enumerate(P0.summands):
        img = f.zeros(P1op.dims[av], 1)
        for u, bu in enumerate(P1.summands):
            elem = elems.get((v, u))
            if not elem:
                continue
            opel = op_element(A, elem)
            paths = Aop.basis_between(bu, av)
            pos = {b: k for k, b in enumerate(paths)}
            start = P1op.offsets[u][av]
            for bidx, c in opel.items():
                img[start + pos[bidx], 0] = img[start + pos[bidx], 0] + c
        if f.kind == "GF":
            img = img % f.p
        gen_images.append(img)
    F = map_from_projectives(P0op, P1op, gen_images)
    coker, _ = map_cokernel(F)
    return coker


def tau(M: Representation) -> Representation:
    return dual(transpose(M))


def tau_inv(M: Representation) -> Representation:
    return transpose(dual(M))


def tau_n(M: Representation, n: int) -> Representation:
    if n < 1:
        raise ValueError("n must be >= 1")
    cur = M
    for _ in range(n - 1):
        cov = projective_cover(cur)
        cur, _ = map_kernel(cov)
    return tau(cur)


def tau_n_inv(M: Representation, n: int) -> Representation:
    if n < 1:
        raise ValueError("n must be >= 1")
    cur = M
    for _ in range(n - 1):
        env = injective_envelope(cur)
        cur, _ = map_cokernel(env)
    return tau_inv(cur)
