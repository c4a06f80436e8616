"""Minimal resolutions, syzygies, Ext, transpose and the AR translates.

The transpose is taken from a minimal projective presentation, so tau
and tau_inv kill projective (resp. injective) direct summands without
any explicit stripping.  Every step goes through a projective cover:
the cosyzygy is Omega^{-k} M = D Omega^k D M, a syzygy over A^op, and
the higher translates are tau_n = D Tr Omega^{n-1} and
tau_n^- = tau^- Omega^{-(n-1)} = Tr Omega^{n-1} D.

A map between sums of indecomposable projectives is a matrix of algebra
elements.  ``_slot_paths`` gives the slot and basis path at each position
of a tagged projective sum, and ``_gen_offsets`` where each slot's
generator image starts in a map out of it; ``elements_of_map`` reads the
matrix off the blocks of a map between tagged projective sums and
``map_of_elements`` writes it back.  ``transpose_entries`` turns the
entries of d into those of Hom_A(d, A) over A^op.  Maps between tagged
injective sums are the k-duals of maps between tagged projective sums
over A^op, and the Nakayama functor is nu = D Hom(-, A): the transpose
Tr M is the cokernel of Hom(d, A) for the minimal projective
presentation d of M.

The global dimension and the tau_n^- orbit of A are kept in the
algebra's ``memo``, so each is computed once per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AboveCap, AboveCapError, GldimTooLarge
from .modules import (ModuleMap, Representation, dual, map_cokernel,
                      map_from_projectives, map_kernel, op_algebra,
                      projectives_sum, projective_cover)
from .quivers import BoundQuiverAlgebra, Path

__all__ = ["ProjResolution", "min_proj_resolution", "syzygy", "ext",
           "transpose", "tau", "tau_inv", "tau_n", "tau_n_inv",
           "tau_n_orbit", "global_dimension", "gldim_at_most",
           "injective_dimension", "proj_dimension", "hom_matrix"]


@dataclass
class ProjResolution:
    """P_{L} -> ... -> P1 -> P0 -> M -> 0 with tagged projective terms,
    L = ``length``, kept as each kernel's cover and inclusion.  The walk
    stopped at the kernel Omega^{L+1} M, the source of the last
    inclusion: zero unless the walk hit its length cap."""

    terms: list[Representation]
    augmentation: ModuleMap              # P0 -> M
    covers: list[ModuleMap]              # covers[i]: P(i+1) -> Omega^{i+1} M
    inclusions: list[ModuleMap]          # inclusions[i]: Omega^{i+1} M -> P(i)
    _diffs: dict[int, ModuleMap] = field(default_factory=dict, repr=False)

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    @property
    def kernel(self) -> Representation:
        """Omega^{L+1} M."""
        return self.inclusions[-1].source

    @property
    def truncated(self) -> bool:
        return not self.kernel.is_zero()

    def differential(self, i: int) -> ModuleMap:
        """d_i: P(i+1) -> P(i), composed on first use and kept."""
        d = self._diffs.get(i)
        if d is None:
            d = self._diffs[i] = self.covers[i].compose(self.inclusions[i])
        return d


# ---------------------------------------------------------------------------
# maps between tagged sums as matrices of algebra elements
# ---------------------------------------------------------------------------

def _slot_paths(P: Representation, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The slot and the basis path (its index in the algebra's basis) at
    each position of the tagged projective sum P at vertex v: slot after
    slot, each slot's paths in ``basis_between`` order."""
    between = [P.algebra.basis_between(c, v) for c in P.summands]
    slots = np.repeat(np.arange(len(between), dtype=np.int64),
                      [len(b) for b in between])
    paths = np.array([b for bs in between for b in bs], dtype=np.int64)
    return slots, paths


def _gen_offsets(P: Representation, N: Representation) -> np.ndarray:
    """Where the generator image of each slot of the tagged projective sum
    P starts in a map P -> N: the images are vectors of N at the slots'
    vertices, slot after slot."""
    return np.cumsum([0] + [N.dims[v] for v in P.summands])


def elements_of_map(A: BoundQuiverAlgebra, d: ModuleMap,
                    src: Representation, tgt: Representation
                    ) -> dict[tuple[int, int], dict]:
    """The nonzero entries (w, u) of a map d: src -> tgt between tagged
    projective sums, in the order of u, then of w.  The entry from source
    slot u (vertex b) to target slot w (vertex c) is the element x of
    e_c A e_b, in basis coordinates, by which that component e_b A -> e_c A
    multiplies on the left.  It is read off the image of the generator of
    slot u: one column of the block at b, which holds every target slot."""
    where = {}
    found = {}
    for u, bu in enumerate(src.summands):
        line = d.blocks[bu][:, src.offsets[u][bu]]
        if bu not in where:
            where[bu] = [a.tolist() for a in _slot_paths(tgt, bu)]
        slots, paths = where[bu]
        for k in line.nonzero()[0]:
            found.setdefault((slots[k], u), {})[paths[k]] = line[k]
    return found


def transpose_entries(A: BoundQuiverAlgebra,
                      entries: dict[tuple[int, int], dict]
                      ) -> dict[tuple[int, int], dict]:
    """The entries of Hom_A(d, A) over A^op, for the entries of a map d
    between tagged projective sums over A: entry (w, u) becomes (u, w),
    its element mapped by ``op_element``, in the order in which
    ``elements_of_map`` reads the transposed map (its source slot w,
    then its target slot u)."""
    out = {}
    for (w, u), elem in sorted(entries.items()):
        op = op_element(A, elem)
        if op:
            out[(u, w)] = op
    return out


def map_of_elements(A: BoundQuiverAlgebra,
                    entries: dict[tuple[int, int], dict],
                    src: Representation, tgt: Representation) -> ModuleMap:
    """The map src -> tgt between tagged projective sums with the given
    entries, laid out as ``elements_of_map`` reads them back: each entry
    is written into the generator image of its source slot, and the map
    extends from the generators."""
    gens = [A.field.zeros(tgt.dims[bu], 1) for bu in src.summands]
    for (w, u), elem in entries.items():
        bu = src.summands[u]
        start = tgt.offsets[w][bu]
        paths = A.basis_between(tgt.summands[w], bu)
        for b, c in elem.items():
            gens[u][start + paths.index(b), 0] = c
    return map_from_projectives(src, tgt, gens)


def min_proj_resolution(M: Representation, length_cap: int = 32) -> ProjResolution:
    """The minimal projective resolution of M, walked by projective covers
    and kernels until a kernel is zero or the resolution has length
    ``length_cap``; that last kernel, Omega^{L+1} M, stays in the result.
    This is the one walk of a module's resolution: syzygies, the
    presentations behind Tr and tau_n^{+-}, and Ext are read off it."""
    aug = projective_cover(M)
    terms = [aug.source]
    covers: list[ModuleMap] = []
    # each kernel inside the last term, with its inclusion
    inclusions = [map_kernel(aug)[1]]
    while not inclusions[-1].source.is_zero() and len(terms) <= length_cap:
        cov = projective_cover(inclusions[-1].source)
        covers.append(cov)
        terms.append(cov.source)
        inclusions.append(map_kernel(cov)[1])
    return ProjResolution(terms, aug, covers, inclusions)


def syzygy(M: Representation, i: int) -> Representation:
    """Omega^i M for i >= 0, the kernel at which a resolution of length
    i - 1 stops, and Omega^{-|i|} M = D Omega^{|i|} D M for i < 0: D turns
    a minimal injective envelope of M into a minimal projective cover of
    D M over A^op, so each cosyzygy is the k-dual of a syzygy there.

    Each step uses the minimal cover, so projective (resp. injective)
    summands of M itself never propagate; a kernel can still be
    projective (Omega S_1 = P_2 over the A2 quiver) and is returned
    as-is.
    """
    if i < 0:
        return dual(syzygy(dual(M), -i))
    if i == 0:
        return M
    return min_proj_resolution(M, i - 1).kernel


# ---------------------------------------------------------------------------
# Ext groups via Hom(resolution, N) in Yoneda coordinates
# ---------------------------------------------------------------------------

def _act_columns(N: Representation, elem: dict, y: np.ndarray,
                 acc: np.ndarray) -> np.ndarray:
    """acc plus c p y for each term c p of the algebra element ``elem``:
    p acts on the columns y, vectors of N at its source, arrow by arrow."""
    f = N.field
    for b, c in elem.items():
        z = y
        for a in N.algebra.basis[b].arrows:
            z = f.matmul(N.action[a], z)
        acc = f.add(acc, f.smul(f.el(c), z))
    return acc


def hom_matrix(d: ModuleMap, N: Representation) -> np.ndarray:
    """Hom(d, N): Hom(P0, N) -> Hom(P1, N), y -> y d, for a map d: P1 -> P0
    between tagged projective sums.  A map out of a tagged projective sum
    is given by its generator images (``_gen_offsets``); the matrix acts
    on such columns, and its block (u, w) is the entry (w, u) of d acting
    on N."""
    P1, P0 = d.source, d.target
    f = N.field
    roff, coff = _gen_offsets(P1, N), _gen_offsets(P0, N)
    m = f.zeros(int(roff[-1]), int(coff[-1]))
    for (w, u), elem in elements_of_map(N.algebra, d, P1, P0).items():
        rows, cols = slice(roff[u], roff[u + 1]), slice(coff[w], coff[w + 1])
        m[rows, cols] = _act_columns(N, elem, f.eye(N.dims[P0.summands[w]]),
                                     m[rows, cols])
    return m


def _hom_apply(d: ModuleMap, N: Representation, ys: np.ndarray
               ) -> np.ndarray:
    """``hom_matrix(d, N) @ ys`` without the matrix: the generator images
    of y d for each column y of ``ys``, each entry (w, u) of d acting on
    the images of slot w and adding to those of slot u."""
    P1, P0 = d.source, d.target
    roff, coff = _gen_offsets(P1, N), _gen_offsets(P0, N)
    out = N.field.zeros(int(roff[-1]), ys.shape[1])
    for (w, u), elem in elements_of_map(N.algebra, d, P1, P0).items():
        rows = slice(roff[u], roff[u + 1])
        out[rows] = _act_columns(N, elem, ys[coff[w]:coff[w + 1]], out[rows])
    return out


def ext(M: Representation, N: Representation, i: int,
        res: ProjResolution | None = None) -> int:
    """dim Ext^i(M, N) = dim Hom(P_i, N) - rank Hom(d_i, N)
    - rank Hom(d_{i-1}, N), from ``res`` when it reaches P_{i+1} or is
    not truncated, else from a resolution of M of length i + 1."""
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    if res is None or (res.truncated and res.length < i + 1):
        res = min_proj_resolution(M, length_cap=i + 1)
    if i > res.length:
        return 0
    f = N.field
    dim = sum(N.dims[v] for v in res.terms[i].summands)
    if dim and i < res.length:
        dim -= f.rank(hom_matrix(res.differential(i), N))
    if dim and i:
        dim -= f.rank(hom_matrix(res.differential(i - 1), N))
    return dim


def proj_dimension(M: Representation, cap: int = 32):
    if M.is_zero():
        return 0
    res = min_proj_resolution(M, cap)
    if res.truncated:
        return AboveCap(cap)
    return res.length


def global_dimension(A: BoundQuiverAlgebra, cap: int = 32):
    """gldim A if it is at most cap, else AboveCap(cap).

    gldim A is the largest pd of a simple module, and pd of a direct sum
    is the largest pd of its summands, so it is pd of the top of A, the
    sum of the simples, from one resolution.  The algebra's memo keeps
    either the exact value or the largest cap known to be exceeded
    (pd > cap is what truncates a resolution at that cap), so only a cap
    above every cap seen so far computes."""
    known = A.memo.get(("gldim",))
    if known is None or isinstance(known, AboveCap) and cap > known.cap:
        f = A.field
        q = A.quiver
        top = Representation(A, [1] * q.n_vertices,
                             [f.zeros(1, 1) for _ in range(q.n_arrows)])
        known = A.memo[("gldim",)] = proj_dimension(top, cap)
    if isinstance(known, AboveCap) or known > cap:
        return AboveCap(cap)
    return known


def gldim_at_most(A: BoundQuiverAlgebra, n: int,
                  cap: int | None = None) -> int:
    """gldim A, or GldimTooLarge when it exceeds n.  Given a length cap,
    gldim A is computed up to that cap, and AboveCapError raised past it."""
    gl = global_dimension(A, n + 1 if cap is None else cap)
    if isinstance(gl, AboveCap):
        if cap is not None:
            raise AboveCapError(cap)
        raise GldimTooLarge(f"gldim(A) is above {n + 1}, so it exceeds "
                            f"n = {n}")
    if gl > n:
        raise GldimTooLarge(f"gldim(A) = {gl} exceeds n = {n}")
    return gl


def injective_dimension(M: Representation, cap: int = 32):
    return proj_dimension(dual(M), cap)


# ---------------------------------------------------------------------------
# transpose and the AR translates
# ---------------------------------------------------------------------------

def op_element(A: BoundQuiverAlgebra, elem: dict[int, object]) -> dict[int, object]:
    """Image of an algebra element under the anti-isomorphism A -> A^op.

    The image of each basis path, its reversal reduced over A^op, is
    kept in the algebra's memo (key ``("op_paths",)``) once it is first
    asked for."""
    table = A.memo.setdefault(("op_paths",), {})
    terms = []
    for bidx, c in elem.items():
        image = table.get(bidx)
        if image is None:
            p = A.basis[bidx]
            image = table[bidx] = op_algebra(A).reduce_path(
                Path(p.target(A.quiver), tuple(reversed(p.arrows))))
        terms.extend((j, c * c2) for j, c2 in image.items())
    return A.field.accumulate({}, terms)


def _hom_presentation(res: ProjResolution) -> ModuleMap:
    """Hom(d, A): Hom(P0, A) -> Hom(P1, A), a map of tagged projective
    sums over A^op, for the minimal projective presentation d: P1 -> P0
    of Omega^L M, L = ``res.length``: the cover of the kernel at which
    ``res`` stopped, followed by its inclusion into P_L.  Its cokernel is
    Tr Omega^L M; Hom(P1, A) is zero when Omega^L M is projective, and
    every term is zero when Omega^L M is (the walk stopped before L)."""
    A = res.kernel.algebra
    d = projective_cover(res.kernel).compose(res.inclusions[-1])
    P1, P0 = d.source, d.target
    Aop = op_algebra(A)
    return map_of_elements(
        Aop, transpose_entries(A, elements_of_map(A, d, P1, P0)),
        projectives_sum(Aop, P0.summands), projectives_sum(Aop, P1.summands))


def transpose(M: Representation) -> Representation:
    """Tr M: the cokernel of Hom(P0, A) -> Hom(P1, A) over A^op."""
    return map_cokernel(_hom_presentation(min_proj_resolution(M, 0)))[0]


def tau(M: Representation) -> Representation:
    return dual(transpose(M))


def tau_inv(M: Representation) -> Representation:
    return transpose(dual(M))


def tau_n(M: Representation, n: int) -> Representation:
    """tau_n M = tau Omega^{n-1} M = D Tr Omega^{n-1} M, from one
    resolution of M of length n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    res = min_proj_resolution(M, n - 1)
    return dual(map_cokernel(_hom_presentation(res))[0])


def tau_n_inv(M: Representation, n: int) -> Representation:
    """tau_n^- M = tau^- Omega^{-(n-1)} M = Tr Omega^{n-1} D M, from one
    resolution of D M of length n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    res = min_proj_resolution(dual(M), n - 1)
    return map_cokernel(_hom_presentation(res))[0]


def tau_n_orbit(A: BoundQuiverAlgebra, n: int, i: int) -> Representation:
    """tau_n^{-i}(A), the regular module at i = 0.  The iterates are kept
    in the algebra's memo and built one at a time, on first use; the
    modules are shared, so callers must not change them."""
    from .modules import regular
    orbit = A.memo.setdefault(("tau_orbit", n), [])
    if not orbit:
        orbit.append(regular(A))
    while len(orbit) <= i:
        orbit.append(tau_n_inv(orbit[-1], n))
    return orbit[i]
