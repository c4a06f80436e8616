"""Reference routes that the package no longer runs, kept as test oracles.

- ``hom_quotient`` and ``whole_end_algebra`` solve Hom(X, X) over all of
  X in one system and take coordinates with one ``QuotientBasis`` on the
  flattened maps.  ``preprojective.end_algebra`` builds the same algebra
  corner by corner.
- ``stable_hom`` is Hom(M, N) modulo the maps that factor through
  projectives, on the same route.
- ``top`` is M / rad M with its projection.
- ``cohomology`` is H^i of a complex of modules as a representation.
- ``hom_delta_entrywise`` is the differential of the total Hom complex
  with its f d_P term filled one pair of slots at a time; ``hom_delta``
  places one ``hom_matrix`` block per degree.
- ``indecomposables_isomorphic`` decides M = N for indecomposable M and
  N from the products of Hom(M, N) and Hom(N, M) basis maps;
  ``modules._has_iso`` tests the Hom(M, N) basis maps alone.
- ``ideal_span`` is the part of the ideal that given relations generate
  inside the span of some paths, from every product u g w of a relation
  g with paths u and w, with ``paths_into`` and ``paths_from``;
  ``findim.quiver_presentation`` takes it from the previous degree's
  kernel and its products with one arrow.  ``is_homog`` tests one row
  of a graded algebra for homogeneity.
- ``prime_rref`` is the mod-p elimination written out with ``% p``, which
  ``Field.rref`` now does through ``Field.reduce``.
- ``self_injective_by_isomorphism`` decides P_v = I_w with
  ``is_isomorphic`` on the injective I_w; ``checks._self_injective``
  compares their dimension vectors.
- ``ig_dim_by_resolution`` is max(id A_A, id _A A) from the injective
  resolutions of A and of its opposite algebra, also when A is
  self-injective; ``checks.iwanaga_gorenstein_dim`` returns 0 then.
- ``fraction_matmul`` is numpy's dense object product of Fraction
  matrices; ``RationalField.matmul`` skips the zero terms.
- ``cy_spot_check_by_isomorphism`` compares nu S with Omega^{-(n+2)} S
  after stripping projective summands by ``decompose`` and
  ``is_isomorphic``, over the opposite algebra for nu and the injective
  envelopes; ``checks.cy_spot_check`` compares Omega^{n+2} of the simple
  that nu sends to S_v with S_v by dimension vectors.
- ``preprojective_algebra_by_blocks`` keeps the right action of every
  basis path of A on every grade as dense matrices and each grade pair's
  products as a dense block, and reads the constants off the blocks;
  ``preprojective.preprojective_algebra`` builds each grade and the
  products into it from the constants into the grade before.
- ``left_mult_map`` and ``left_mult_on_coregular`` are left
  multiplication by an algebra element on A and on D A, filled one
  ``mult_basis`` product at a time; ``ext_actions_per_element`` writes
  the first with ``homology.map_of_elements`` and the second as the
  k-dual of its transpose over A^op, and ``preprojective._ext_actions``
  reads both off the structure constants of A and of A^op.
- ``ext_actions_per_element`` and ``ext_bimodule_per_element`` give E's
  actions with one ``strict_lift`` and one product with the projection
  onto E per trivial path and arrow; ``preprojective._ext_actions`` lifts
  them all at once, with one solve per degree and vertex, and reads every
  class with one product.  ``strict_lift`` is the single-map lift as a
  ``ChainMap``: ``derived._strict_lift`` with k = 1, its generator images
  extended to maps.  ``dual_map``, the k-dual of a module map, has no
  caller in the package since then.
- ``complement_rows_greedy`` feeds rows one at a time into an
  ``EchelonState`` and keeps those that extend the span;
  ``exactla.complement_rows`` picks the same rows with one rref.
- ``complete_basis_by_scan`` completes relations with a ``ScanReducer``,
  which tests each term against the leading term of every generator,
  keeps every generator it makes and tries every ordered pair of them;
  ``quivers.complete_basis`` keeps the generators interreduced, indexed
  by tip, and pairs only tips that overlap.
- ``arrows_by_meet`` works each corner of a presentation in dim B
  coordinates: ``corners_by_meet`` meets the span of its basis elements
  with the kernel of the whole trace form (``radical_rows``), and rad^2
  comes from dim-B-wide products, and the lifts of a graded algebra are
  picked one degree at a time, the span grown by ``sum_rows`` after each;
  ``findim._arrows`` works each corner in the coordinates of its own
  basis elements and picks its lifts with one ``complement_rows`` of its
  homogeneous rows in order of degree.
- ``algebra_from_rows`` builds a FinDimAlgebra from a callback that gives
  the products of one basis element at a time, as ``FinDimAlgebra``
  itself did for End/rad; every builder in the package passes the
  constants.  ``end_rad_by_compositions`` is End/rad built that way: the
  projection from ``kernel_rref`` of the trace form's kernel, and one
  ``ModuleMap.compose`` per pair of picks; ``minpoly_by_mult_vec`` and
  ``splitting_idempotent_by_mult_vec`` take each power of an element by
  one ``mult_vec``.  ``modules._end_rad`` takes one ``rref`` of the trace
  form and one matmul per vertex per pick, and ``modules._minpoly_in``
  multiplies each power by the matrix of x -> x s, read from ``table``.
- ``projectives_sum_fresh`` builds a tagged projective sum into fresh,
  writable arrays, every arrow block of e_v A from ``mult_basis`` one
  basis pair at a time; ``map_from_projectives_by_paths`` walks every
  basis path from v, through the vertices where M is zero too, finding
  each prefix with a ``Path`` lookup in ``bindex``; ``dual_by_transpose``
  transposes every arrow matrix into a copy, tagged sums too.  ``modules.projectives_sum`` and
  ``injectives_sum`` build each tagged sum once per algebra, read-only,
  from the nonzero blocks; ``map_from_projectives`` walks the
  ``ProjectiveBlocks.steps`` made with the projective; ``dual`` of a
  tagged sum looks up the sum over the opposite algebra.
- ``elements_of_injective_map`` reads a map between tagged injective sums
  one row per target slot from its dual over the opposite algebra, and
  ``map_of_injective_elements`` writes one as the k-dual of a map over
  the opposite algebra.  ``nakayama_by_flip`` and ``nakayama_inv_by_flip``
  keep the entries of a complex and swap its terms between e_v A and
  D(A e_v), and ``step_neg_by_injective_resolution`` is
  nu^{-1}(I)[n] for the injective resolution I of X.  ``nakayama`` is
  D Hom(-, A), and ``derived`` computes S_n^{-1} X as Hom(P, A^op)[n]
  for a projective resolution P of D X, through ``transpose_entries``.
- ``injective_envelope`` is the k-dual of the projective cover of D M
  over A^op, and ``cosyzygy_by_envelopes`` and ``tau_n_inv_by_envelopes``
  take Omega^{-k} M and tau_n^- M = tau^- Omega^{-(n-1)} M from the
  cokernels of envelopes.  ``homology.syzygy`` takes Omega^{-k} M as
  D Omega^k D M, and ``homology.tau_n_inv`` is Tr Omega^{n-1} D, through
  projective covers over A^op only.  ``TermNotInjective`` is raised by
  ``nakayama_inv`` alone, and ``_gldim`` is gldim A under a length cap.
- ``syzygy_by_loop`` takes Omega^i M by covers and kernels with no
  resolution kept, and ``hom_presentation_by_cover`` takes the minimal
  presentation of M from its own cover, kernel and cover;
  ``transpose_by_presentation``, ``tau_n_by_loop`` and
  ``tau_n_inv_by_loop`` chain them.  ``homology.min_proj_resolution`` is
  the package's only walk of a module's resolution: ``syzygy`` is the
  kernel a resolution stops at, and the presentation of Omega^L M is the
  cover of that kernel followed by its inclusion.
- ``ext_by_cocycles`` is Ext^i(M, N) with a cocycle basis and the
  coboundary rows; ``homology.ext`` reads its dimension off two ranks.
- ``resolution_complex`` places a module's resolution in a complex;
  ``preprojective._ext_actions`` resolves D A with
  ``proj_resolve_complex``.
- ``is_zero_by_all`` and ``equal_by_all`` compare with ``np.all``, and
  ``eye_by_numpy`` is ``np.eye``; ``Field.is_zero`` and ``Field.equal``
  count nonzero entries and ``PrimeField.eye`` writes a diagonal.
  ``complement_rows_of_identity`` is the identity branch of
  ``complement_rows`` written out, which ``exactla.complement_units``
  now answers with indices.
- ``algebra_from_bqa_all_pairs`` calls ``mult_basis`` on every pair of
  basis paths; ``findim.algebra_from_bqa`` multiplies only the pairs where
  b_j starts at the end of b_i.
- ``knit_indecomposables_by_isomorphism`` knits with ``is_isomorphic``
  deciding whether a module was seen; ``families.knit_indecomposables``
  compares dimension vectors, which is exact there.
- ``quotient_by_complement`` is ``modules.quotient`` with each vertex's
  subspace put in echelon form by ``row_space``, then taken modulo with a
  whole-space ``QuotientBasis``, its arrows acting through the unit
  columns that complete it.
- ``QuotientBasis`` takes rowspace(sub) + rowspace(total) modulo
  rowspace(sub), for independent rows ``sub``, with up to three
  eliminations: ``complement_rows`` (or ``complement_units``), and an
  augmented-inverse rref of ``[sub; comp | I]``.  The package takes every
  quotient with one ``Field.kernel_rref``.
- ``kernel_rref_by_row_space`` is ``row_space(kernel(a))`` with the
  pivots of a second rref, two eliminations where ``Field.kernel_rref``
  makes one.  ``subrepresentation_by_solve`` takes each basis with
  ``row_space`` and each arrow action with a ``solve``, whose None case
  raises; ``modules.subrepresentation`` and
  ``kernel_subrepresentation`` read the action at the pivots of each
  echelon basis and skip the arrows with a zero end.
  ``global_dimension_by_simples`` takes pd of each simple from its own
  resolution; ``homology.global_dimension`` resolves their sum once.
- ``minimized_by_resolution`` minimizes a complex of tagged projective
  sums, or else its ``proj_resolve_complex`` resolution, and
  ``next_neg_by_step_neg`` minimizes S_n^{-1} X materialized before its
  shift; ``SerreContext.next_neg`` shifts the symbolic step and
  minimizes it.  ``SerreSteps.minimized`` takes the same route as
  ``minimized_by_resolution``, so the tests compare it with the
  minimized resolution by cones.
  ``op_element_by_reduce_path`` reduces every reversed path on each
  call; ``homology.op_element`` keeps each reduction in the memo.
- ``rigidity_per_degree`` resolves M again for each Ext^i(M, M); with
  M the ``direct_sum`` of some parts it is the whole-module route, and
  ``checks.rigidity`` resolves each part once and tests every pair.
- ``proj_resolve_complex_by_cones`` resolves a complex by iterated
  mapping cones: the minimal resolution of its lowest term, a resolution
  of the rest, and the cone of a strict lift between them.
  ``derived.proj_resolve_complex`` builds each term from the top degree
  down, as the projective cover of one fiber product.
- ``inj_resolve_complex``, ``serre_n_power`` and ``u_window``
  (injective resolutions of complexes, powers S_n^e and windows of the
  Serre orbit of each e_v A), ``nu_module`` (the Nakayama functor on
  modules), ``hereditary_maximality_check`` (every indecomposable of a
  representation-finite hereditary algebra is a summand of the
  preprojective module, by knitting), ``right_mult_matrix``,
  ``check_associativity``, ``random_module`` and
  ``nakayama_presentation`` (nu d for the minimal projective
  presentation d of M) have no caller in the package; only tests use
  them.
- ``SerreSteps`` is a ``SerreContext`` that also steps forward by S_n
  (``step_pos``, ``nakayama``), takes unminimized steps (``step_neg``),
  minimizes any complex, keeps the literal orbit of A (``orbit_neg``)
  and transports chain maps through one negative step.  The package
  walks S_n^{-1} only.  ``is_n_rep_finite_forward`` is the
  n-representation-finiteness test by S_n itself, from each I_v;
  ``checks.is_n_rep_finite`` walks D S_n^l I_v = S_n^{-l} D I_v over
  A^op.  ``amiot_hom`` is the orbit Hom of any two complexes X and Y,
  from the total Hom complex of ``hom_d`` and a scan of S_n^i Y in both
  directions; ``derived.amiot_hom`` is the case X = Y = A, the H^0 of
  the kept orbit.  ``amiot_endomorphism_algebra`` composes the orbit
  Hom of A through ``transport_neg``; no program code reads it.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from quiveralg import derived
from quiveralg.checks import Verdict, is_self_injective, socle_vertex
from quiveralg.derived import (ChainMap, ComplexOfModules, GradedHom,
                               SerreContext, SymbolicComplex, _cone_block,
                               _minimized, dual_complex, module_complex,
                               proj_resolve_complex, to_symbolic, transposed)
from quiveralg.errors import (AboveCap, AboveCapError, NonAdmissible,
                              NonSplitEndo, NotTauFinite, QuiverAlgError,
                              WindowInconclusive)
from quiveralg.exactla import (QQ, Field, complement_rows,
                               complement_units)
from quiveralg.families import knit_indecomposables
from quiveralg.findim import (FinDimAlgebra, _act, _dense,
                              algebra_from_bqa, sparse_constants,
                              sparse_join, vertex_labels)
from quiveralg.homology import (ProjResolution, _act_columns, _gen_offsets,
                                elements_of_map, ext, gldim_at_most,
                                global_dimension, hom_matrix,
                                injective_dimension, map_of_elements,
                                min_proj_resolution, op_element, syzygy,
                                tau_inv, transpose, transpose_entries)
from quiveralg.modules import (ModuleMap, Representation, _coprime_split,
                               _crt_idempotent, _free_columns, _pnorm,
                               _trace_form, coregular, decompose, direct_sum,
                               dual, hom_space, injective,
                               injectives_sum, is_isomorphic, map_cokernel,
                               map_from_projectives, map_kernel, op_algebra,
                               projective, projective_cover, projectives_sum,
                               quotient, radical_series, regular, simple,
                               subrepresentation, zero_rep)
from quiveralg.preprojective import (ExtBimodule, _balancing_relations,
                                     _path_actions, ext_bimodule,
                                     preprojective_module)
from quiveralg.quivers import Path, PathElement, Quiver, ordkey


def dual_map(phi: ModuleMap) -> ModuleMap:
    """D phi: D N -> D M over A^op for phi: M -> N, blocks transposed."""
    return ModuleMap(dual(phi.target), dual(phi.source),
                     [b.T.copy() for b in phi.blocks])


def hom_quotient(M: Representation, N: Representation,
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
    return hom_quotient(M, N, modulo_projectives=True)[1]


def whole_end_algebra(summands: list[Representation],
                      keep: list[bool] | None = None,
                      modulo_projectives: bool = False) -> FinDimAlgebra:
    """End(X), or its stable End, of X = the sum of ``summands``, from one
    Hom(X, X); the idempotents are the identities of the summands that
    ``keep`` marks (all by default)."""
    X = direct_sum(summands)
    f = X.field
    quot, basis_maps = hom_quotient(X, X, modulo_projectives)
    dim = quot.dim
    # the blocks at v of every basis map, one above the other
    stacks = [(v, np.concatenate([phi.blocks[v] for phi in basis_maps]))
              for v in range(len(X.dims)) if X.dims[v] and dim]

    def mult(i: int) -> np.ndarray:
        # b_i b_j = b_j after b_i (covariant composition order): at each
        # vertex, every B_j^v @ B_i^v at once, flattened like ModuleMap
        parts = [f.matmul(stack, basis_maps[i].blocks[v]).reshape(dim, -1)
                 for v, stack in stacks]
        return quot.coords(np.concatenate(parts, axis=1))

    idems = []
    start = [0] * len(X.dims)
    for k, r in enumerate(summands):
        # the identity of summand k, zero on the others
        blocks = [f.zeros(d, d) for d in X.dims]
        for v, d in enumerate(r.dims):
            blocks[v][start[v]:start[v] + d, start[v]:start[v] + d] = \
                f.eye(d)
            start[v] += d
        if keep is None or keep[k]:
            idems.append(quot.coords(ModuleMap(X, X, blocks).flatten())[0])
    return algebra_from_rows(f, dim, mult, idems)


def algebra_from_rows(f: Field, dim: int, mult, idempotents,
                      grading=None) -> FinDimAlgebra:
    """The FinDimAlgebra whose products ``mult(i)`` gives one basis element
    at a time: a dim x dim array whose row j holds the coordinates of
    b_i b_j, called once per i."""
    return FinDimAlgebra(f, dim, idempotents, grading, constants=(
        sparse_constants(f, (
            (i, j, k, row[j, k]) for i in range(dim) for row in [mult(i)]
            for j, k in zip(*np.nonzero(row != f.zero))))))


def end_rad_by_compositions(M: Representation, basis: list[ModuleMap]):
    """``modules._end_rad`` built a row at a time: the radical as the
    kernel of the trace form, End/rad as the ``kernel_rref`` of that
    kernel, and each row i from the compositions b_j after b_i, one
    ``ModuleMap.compose`` per pair."""
    f = M.field
    flat = np.concatenate([b.flatten() for b in basis])
    proj, units = f.kernel_rref(f.kernel(_trace_form(f, flat, M.dims)))
    sdim = len(units)
    if sdim == 1:
        return None
    free = _free_columns(f, flat)
    picks = [basis[c] for c in units]

    def to_S(maps: list[ModuleMap]) -> np.ndarray:
        vecs = np.concatenate([phi.flatten() for phi in maps])
        coords = vecs[:, free]
        assert f.equal(f.matmul(coords, flat), vecs), "not in End(M)"
        return f.matmul(coords, proj.T)

    one = ModuleMap(M, M, [f.eye(d) for d in M.dims])
    return algebra_from_rows(
        f, sdim, lambda i: to_S([picks[i].compose(b) for b in picks]),
        [to_S([one])[0]]), units


def minpoly_by_mult_vec(alg: FinDimAlgebra, s: np.ndarray) -> list:
    """The minimal polynomial of s in alg, each power taken by one
    ``mult_vec`` over all the constants."""
    f = alg.field
    rows = [alg.unit()]
    while True:
        cur = alg.mult_vec(rows[-1], s)
        if f.rank(np.stack(rows + [cur])) < len(rows) + 1:
            x = f.solve(np.stack(rows).T, cur.reshape(-1, 1))
            return _pnorm(f, [f.neg(x[i, 0]) for i in range(len(rows))]
                          + [f.one])
        rows.append(cur)


def splitting_idempotent_by_mult_vec(S: FinDimAlgebra, rng) -> np.ndarray:
    """``modules._splitting_idempotent`` with ``minpoly_by_mult_vec``."""
    f = S.field
    draws = (f.array([f.rand_el(rng) for _ in range(S.dim)])
             for _ in range(32))
    for svec in itertools.chain(draws, f.eye(S.dim)):
        m = minpoly_by_mult_vec(S, svec)
        split = _coprime_split(f, m, rng)
        if split is None:
            continue
        e = _crt_idempotent(S, svec, m, *split)
        if e is not None:
            return e
    raise NonSplitEndo("no splitting idempotent found")


def top(M: Representation):
    """M/rad M, with the projection onto it."""
    _, rad_incl = radical_series(M)
    return quotient(M, [ri for ri in rad_incl.blocks])


def injective_envelope(M: Representation) -> ModuleMap:
    """Minimal embedding of M into a sum of indecomposable injectives: the
    k-dual of the projective cover of D M over the opposite algebra."""
    emb = dual_map(projective_cover(dual(M)))
    # D(D(M)) equals M, and is M itself only when M is a tagged sum
    return ModuleMap(M, emb.target, emb.blocks)


def cosyzygy_by_envelopes(M: Representation, k: int) -> Representation:
    """Omega^{-k} M, the cokernel of k minimal injective envelopes."""
    for _ in range(k):
        M, _ = map_cokernel(injective_envelope(M))
    return M


def tau_n_inv_by_envelopes(M: Representation, n: int) -> Representation:
    """tau_n^- M = tau^- Omega^{-(n-1)} M = Tr D of the cosyzygy."""
    return transpose(dual(cosyzygy_by_envelopes(M, n - 1)))


def syzygy_by_loop(M: Representation, i: int) -> Representation:
    """Omega^i M by i covers and kernels, keeping no resolution, and
    Omega^{-|i|} M = D Omega^{|i|} D M."""
    if i < 0:
        return dual(syzygy_by_loop(dual(M), -i))
    for _ in range(i):
        M, _ = map_kernel(projective_cover(M))
    return M


def hom_presentation_by_cover(M: Representation) -> ModuleMap:
    """Hom(d, A): Hom(P0, A) -> Hom(P1, A) over A^op for the minimal
    projective presentation d: P1 -> P0 of M, from a cover of M, its
    kernel and a cover of that."""
    A = M.algebra
    aug = projective_cover(M)
    ker, incl = map_kernel(aug)
    d = projective_cover(ker).compose(incl)
    P1, P0 = d.source, aug.source
    Aop = op_algebra(A)
    return map_of_elements(
        Aop, transpose_entries(A, elements_of_map(A, d, P1, P0)),
        projectives_sum(Aop, P0.summands), projectives_sum(Aop, P1.summands))


def transpose_by_presentation(M: Representation) -> Representation:
    """Tr M, the cokernel of ``hom_presentation_by_cover(M)``."""
    return map_cokernel(hom_presentation_by_cover(M))[0]


def tau_n_by_loop(M: Representation, n: int) -> Representation:
    """tau_n M = D Tr Omega^{n-1} M, the syzygy by ``syzygy_by_loop``."""
    return dual(transpose_by_presentation(syzygy_by_loop(M, n - 1)))


def tau_n_inv_by_loop(M: Representation, n: int) -> Representation:
    """tau_n^- M = Tr Omega^{n-1} D M, the syzygy by ``syzygy_by_loop``."""
    return transpose_by_presentation(syzygy_by_loop(dual(M), n - 1))


def ext_by_cocycles(M: Representation, N: Representation, i: int,
                    res: ProjResolution | None = None):
    """(dimension, cocycle row-basis, (resolution, coboundary rows)) of
    Ext^i(M, N): the cocycles are a kernel of Hom(d_i, N), in coordinates
    of Hom(P_i, N) = the sum over the slots of N at the slot vertex, and
    the coboundaries the row space of Hom(d_{i-1}, N)."""
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    f = N.field
    if res is None or (res.truncated and res.length < i + 1):
        res = min_proj_resolution(M, length_cap=i + 1)
    if i > res.length:
        return 0, None, (res, None)
    dim_i = sum(N.dims[v] for v in res.terms[i].summands)
    if dim_i == 0:
        return 0, f.zeros(0, 0), (res, f.zeros(0, 0))
    if i < res.length:
        cocycles = f.kernel(hom_matrix(res.differential(i), N))
    else:
        cocycles = f.eye(dim_i)
    if i == 0:
        return cocycles.shape[0], cocycles, (res, f.zeros(0, dim_i))
    cob = f.row_space(hom_matrix(res.differential(i - 1), N).T)
    return cocycles.shape[0] - cob.shape[0], cocycles, (res, cob)


def cohomology(C, i: int) -> Representation:
    """H^i of the complex of modules C."""
    f = C.algebra.field
    X = C.term(i)
    if X.total_dim == 0:
        return zero_rep(C.algebra)
    d = C.diffs.get(i)
    if d is not None:
        kspaces = [f.kernel(b).T for b in d.blocks]
    else:
        kspaces = [f.eye(dv) for dv in X.dims]
    K, incl = subrepresentation(X, kspaces)
    dprev = C.diffs.get(i - 1)
    if dprev is None:
        return K
    # boundaries land inside the kernel; express them in K-coordinates
    bspaces = []
    for v in range(len(X.dims)):
        img = dprev.blocks[v]
        x = f.solve(incl.blocks[v], img)
        assert x is not None, "image must lie inside the kernel"
        bspaces.append(x)
    H, _ = quotient(K, bspaces)
    return H


def indecomposables_isomorphic(M: Representation,
                               N: Representation) -> bool:
    """Whether indecomposable M and N of equal dimension vectors are
    isomorphic.

    End(M) is local, so its non-units form a subspace.  If M = N, the
    identity of M lies in the span of the products g h, with h in a basis
    of Hom(M, N) and g in one of Hom(N, M); so some g h is invertible.
    Conversely, an invertible g h makes h injective, hence bijective."""
    f = M.field
    back = hom_space(N, M)
    return any(all(f.rank(b) == b.shape[0] for b in h.compose(g).blocks)
               for h in hom_space(M, N) for g in back)


def prime_rref(field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) by fused mod-p elimination that
    touches only the rows with a nonzero entry in the pivot column."""
    a = a.copy()
    p = field.p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if len(rows):
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def hom_delta_entrywise(P, Y, m: int) -> np.ndarray:
    """delta^m: C^m -> C^{m+1} of Hom(P, Y), delta f = d_Y f - (-1)^m f d_P,
    in the Yoneda coordinates of ``hom_total_spaces``."""
    f = P.algebra.field
    lay_m = hom_total_spaces(P, Y, m)
    lay_m1 = hom_total_spaces(P, Y, m + 1)
    out = f.zeros(sum(x[3] for x in lay_m1), sum(x[3] for x in lay_m))
    if out.size == 0:
        return out
    coff, roff = {}, {}
    for lay, offs in ((lay_m, coff), (lay_m1, roff)):
        off = 0
        for (i, s, v, d) in lay:
            offs[(i, s)] = (off, v, d)
            off += d
    sign = f.one if m % 2 == 0 else f.neg(f.one)
    for (i, s), (co, v, dcol) in coff.items():
        dY = Y.diffs.get(i + m)
        if dY is not None and (i, s) in roff:
            ro, _, drow = roff[(i, s)]
            out[ro:ro + drow, co:co + dcol] = f.add(
                out[ro:ro + drow, co:co + dcol], dY.blocks[v])
    for (i1, w), (co, vw, dcol) in coff.items():
        i = i1 - 1
        dP = P.diffs.get(i)
        if dP is None or i not in P.terms:
            continue
        comps = elements_of_map(P.algebra, dP, P.terms[i], P.terms[i1])
        for s, v in enumerate(P.terms[i].summands):
            elem = comps.get((w, s))
            if (i, s) not in roff or not elem:
                continue
            ro, _, drow = roff[(i, s)]
            N = Y.terms[i + m + 1]
            act = _act_columns(N, elem, f.eye(N.dims[vw]),
                               f.zeros(N.dims[v], N.dims[vw]))
            out[ro:ro + drow, co:co + dcol] = f.add(
                out[ro:ro + drow, co:co + dcol], f.smul(f.neg(sign), act))
    return out


def is_homog(f, B, row: np.ndarray, deg: int) -> bool:
    if B.grading is None:
        return True
    return all(c == f.zero or B.grading[k] == deg
               for k, c in enumerate(row))


def ideal_span(f, quiver: Quiver, relations: list[PathElement],
               pool: list[Path], idx: dict[Path, int]) -> np.ndarray:
    """Row span, inside the coordinate space of `pool`, of all u.g.w that
    stay inside the pool's path lengths."""
    if not relations:
        return f.zeros(0, len(pool))
    maxlen = max(len(p.arrows) for p in pool)
    rows = []
    for g in relations:
        glen = max(len(p.arrows) for p in g.terms)
        # enumerate left/right path extensions within the length budget
        buds = maxlen - min(len(p.arrows) for p in g.terms)
        some = next(iter(g.terms))
        gsrc = some.source
        gtgt = some.target(quiver)
        lefts = paths_into(quiver, gsrc, buds)
        for lp in lefts:
            rights = paths_from(quiver, gtgt, buds - len(lp.arrows))
            for rp in rights:
                vec = f.zeros(1, len(pool))[0]
                ok = True
                for p, c in g.terms.items():
                    w = Path(lp.source if lp.arrows else p.source,
                             lp.arrows + p.arrows + rp.arrows)
                    if w not in idx:
                        # for mixed-length generators a shifted copy can
                        # stick out of the pool; it then spans nothing here
                        # (a conservative under-approximation: extra
                        # generators stay correct, dimension is enforced)
                        ok = False
                        break
                    vec[idx[w]] = vec[idx[w]] + c
                if ok and np.any(vec != f.zero):
                    rows.append(f.reduce(vec))
    if not rows:
        return f.zeros(0, len(pool))
    return f.row_space(np.stack(rows))


def paths_into(quiver: Quiver, v: int, maxlen: int) -> list[Path]:
    out = [Path(v, ())]
    frontier = [Path(v, ())]
    for _ in range(maxlen):
        nxt = []
        for p in frontier:
            for a in quiver.arrows_into(p.source):
                nxt.append(Path(quiver.source(a), (a,) + p.arrows))
        out.extend(nxt)
        frontier = nxt
    return out


def paths_from(quiver: Quiver, v: int, maxlen: int) -> list[Path]:
    out = [Path(v, ())]
    frontier = [Path(v, ())]
    for _ in range(maxlen):
        nxt = []
        for p in frontier:
            at = p.target(quiver)
            for a in quiver.arrows_from(at):
                nxt.append(Path(p.source, p.arrows + (a,)))
        out.extend(nxt)
        frontier = nxt
    return out


def self_injective_by_isomorphism(A) -> Verdict:
    """Every P_v has a simple socle S_w and is isomorphic to the injective
    I_w, and v -> w is a permutation; the verdict and witness of
    ``checks._self_injective``."""
    perm = {}
    for v in range(A.quiver.n_vertices):
        P = projective(A, v)
        w = socle_vertex(A, P)
        if w is None:
            return Verdict(False, {"projective": v,
                                   "reason": "socle not simple"})
        if not is_isomorphic(P, injective(A, w)):
            return Verdict(False, {"projective": v, "socle_vertex": w,
                                   "reason": "not injective"})
        perm[v] = w
    if sorted(perm.values()) != list(range(A.quiver.n_vertices)):
        return Verdict(False, {"reason": "socle map not a permutation",
                               "map": perm})
    return Verdict(True, {"nakayama_permutation": perm})


def ig_dim_by_resolution(A, cap: int = 32):
    """max(id A_A, id _A A) of a bound quiver algebra, or the ``AboveCap``
    of the first resolution that does not end within ``cap``."""
    right = injective_dimension(regular(A), cap)
    if isinstance(right, AboveCap):
        return right
    left = injective_dimension(regular(op_algebra(A)), cap)
    if isinstance(left, AboveCap):
        return left
    return max(right, left)


def fraction_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of object-dtype Fraction matrices by numpy's dense product, a
    Fraction multiply and add for every term, zeros included."""
    if 0 in (a.shape[0], a.shape[1], b.shape[1]):
        return QQ.zeros(a.shape[0], b.shape[1])
    return a @ b


def strip_projectives(M: Representation) -> Representation:
    """M without its projective summands, by ``decompose`` and an
    ``is_isomorphic`` test of each summand against the projectives of its
    dimension vector."""
    if M.is_zero():
        return M
    A = M.algebra
    keep = []
    for rep, mult in decompose(M):
        if any(is_isomorphic(rep, projective(A, v))
               for v in range(A.quiver.n_vertices)
               if A.projective_blocks(v).dims == rep.dims):
            continue
        keep.extend([rep] * mult)
    if not keep:
        return zero_rep(A)
    return direct_sum(keep)


def cy_spot_check_by_isomorphism(A, n: int) -> dict[int, bool]:
    """nu S_v = Omega^{-(n+2)} S_v up to projective summands, for each
    vertex v of a self-injective bound quiver algebra A: the dict of
    ``checks.cy_spot_check``."""
    if is_self_injective(A).value is not True:
        raise ValueError("cy_spot_check requires a self-injective algebra")
    out = {}
    for v in range(A.quiver.n_vertices):
        S = simple(A, v)
        lhs = strip_projectives(nu_module(S))
        rhs = strip_projectives(syzygy(S, -(n + 2)))
        out[v] = (lhs.dims == rhs.dims) and \
            (lhs.is_zero() or is_isomorphic(lhs, rhs))
    return out


def _on_pairs(f, size: int, rows: np.ndarray, vals: np.ndarray
              ) -> np.ndarray:
    """Vectors on the matched pairs, one per column k: entry
    ``vals[i, k, ...]`` goes to the pair at ``rows[i, k]``; entries at
    unmatched pairs (``rows[i, k] == -1``) are dropped."""
    out = f.zeros(size, int(np.prod(vals.shape[1:])))
    out = out.reshape((size,) + vals.shape[1:])
    ok = rows >= 0
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    out[rows[ok], cols[ok]] = vals[ok]
    return out


def action_entries(f, mats: list[np.ndarray]) -> tuple:
    """The entries (b, y', y, c), in order of b, of an action given by the
    dense matrix ``mats[b]`` of each basis element b."""
    stacked = np.stack(mats)
    b, y2, y = np.nonzero(stacked != f.zero)
    return b, y2, y, stacked[b, y2, y]


def dense_actions(f, entries: tuple, count: int, dim: int
                  ) -> list[np.ndarray]:
    """The dense dim x dim matrix of each of ``count`` basis elements, from
    the entries (b, y', y, c) of an action."""
    b, y2, y, c = entries
    out = f.zeros(count * dim, dim).reshape(count, dim, dim)
    out[b, y2, y] = c
    return list(out)


def vertex_labels_dense(f, mats: list[np.ndarray], what: str) -> np.ndarray:
    """``findim.vertex_labels`` on the dense matrix of each idempotent's
    action: each must be 0/1 diagonal, and fix each basis element once."""
    fixed = []
    for v, mat in enumerate(mats):
        off = mat.copy()
        diag = np.diagonal(mat)
        np.fill_diagonal(off, f.zero)
        if not (f.is_zero(off) and
                np.all((diag == f.zero) | (diag == f.one))):
            raise ValueError(f"vertex {v} does not act on the {what} by a "
                             "0/1 diagonal matrix")
        fixed.append(diag == f.one)
    fixed = np.stack(fixed)
    if not np.all(fixed.sum(axis=0) == 1):
        raise ValueError(f"a basis element of the {what} is not fixed by "
                         "exactly one vertex idempotent")
    return fixed.argmax(axis=0)


def preprojective_algebra_by_blocks(A, n: int,
                                    cap: int = 32) -> FinDimAlgebra:
    """T_A E with the right action of every basis path on each grade, and
    the products of grades g_i and g_j as a dense block: the products of
    g_i with grade g_j - 1, tensored with y_k and projected."""
    E = ext_bimodule(A, n)
    f = A.field
    adim = A.dim
    base = algebra_from_bqa(A)
    grades = [{"dim": adim,
               "R": [right_mult_matrix(base, e) for e in f.eye(adim)]}]
    E_right = dense_actions(f, E.right, adim, E.dim)
    short = _short_paths(A)
    if E.dim > 0:
        while True:
            prev = grades[-1]
            relations, pairs = _balancing_relations(
                A, E, action_entries(f, prev["R"]), prev["dim"])
            W = f.row_space(relations)
            width = len(pairs.index)
            newdim = width - W.shape[0]
            if newdim == 0:
                break
            if len(grades) > cap:
                raise NotTauFinite(cap, newdim)
            quot = QuotientBasis(f, W, f.eye(width))
            proj = quot.proj
            xs, ys = np.divmod(pairs.index[np.nonzero(quot.comp)[1]], E.dim)

            def right(b, proj=proj, pairs=pairs, xs=xs, ys=ys):
                # (x_k (x) y_k) b = x_k (x) (y_k b)
                tens = _on_pairs(f, len(pairs.index), pairs.pos[xs].T,
                                 E_right[b][:, ys])
                return f.matmul(proj, tens)

            grades.append({"dim": newdim, "proj": proj, "pos": pairs.pos,
                           "xs": xs, "ys": ys,
                           "R": dense_actions(f, _path_actions(
                               A, newdim, short, action_entries(
                                   f, [right(b) for b in short]),
                               left=False), adim, newdim)})

    dims = [g["dim"] for g in grades]
    offsets = np.cumsum([0] + dims)
    total_dim = int(offsets[-1])
    grading = [gi for gi, d in enumerate(dims) for _ in range(d)]
    # row[gj][li, k, lj]: coordinate k in grade gi + gj of the product of
    # basis element li of grade gi with basis element lj of grade gj
    parts = [(offsets[:0],) * 3 + (f.zeros(1, 0)[0],)]
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
        for gj, block in enumerate(row):
            li, k, lj = np.nonzero(block != f.zero)
            parts.append((offsets[gi] + li, offsets[gj] + lj,
                          offsets[gi + gj] + k, block[li, k, lj]))
    i, j, k, c = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((k, j, i))
    idems = [np.concatenate([e, f.zeros(1, total_dim - adim)[0]])
             for e in base.idempotents]
    return FinDimAlgebra(f, total_dim, idems, grading, constants=(
        i[order], j[order], k[order], f.array(c[order])))


def left_mult_map(A, elem: dict[int, object],
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
            src = A.basis[x].source
            prod = f.accumulate({}, (
                (t, c * c2) for bi, c in elem.items()
                if A.basis[bi].target(q) == src
                for t, c2 in A.mult_basis(bi, x).items()))
            for t, v2 in prod.items():
                m[pos[t], col] = v2
        blocks.append(m)
    return ModuleMap(R, R, blocks)


def left_mult_on_coregular(A, elem: dict[int, object],
                           DL: Representation) -> ModuleMap:
    """Left multiplication by an element on D(A) as a right-module map:
    the k-dual of left multiplication by its image on A^op."""
    lam = dual_map(left_mult_map(op_algebra(A), op_element(A, elem)))
    return ModuleMap(DL, DL, lam.blocks)


def _short_paths(A) -> list[int]:
    """The trivial paths and the arrows, by basis index."""
    return [b for b, p in enumerate(A.basis) if len(p.arrows) < 2]


def ext_actions_per_element(A, n: int):
    """dim Ext^n(D A, A) and two functions giving the dense left and right
    action matrix of one basis element through the resolution of D A (0
    and 0 x 0 matrices when Ext vanishes), one element at a time.

    The left action postcomposes each unit cochain with left
    multiplication on A, written by ``map_of_elements``; the right action
    precomposes it with one ``strict_lift`` of left multiplication on
    D A, the k-dual of its transpose over A^op, and takes the Hom matrix
    of the lift's last part."""
    gldim_at_most(A, n)
    f = A.field
    DL = coregular(A)
    R = regular(A)
    Aop = op_algebra(A)
    Rop = regular(Aop)  # its dual is DL itself
    P, eps = proj_resolve_complex(module_complex(DL))
    vanishing = 0, *[lambda b: f.zeros(0, 0)] * 2
    if P.lo > -n:
        return vanishing
    Pn = P.term(-n)
    offs = _gen_offsets(Pn, R)
    cob = hom_matrix(P.diffs[-n], R).T if n else \
        f.zeros(0, int(offs[-1]))
    proj, units = f.kernel_rref(cob)
    dim = len(units)
    if dim == 0:
        return vanishing
    basis_rows = f.zeros(dim, int(offs[-1]))
    basis_rows[np.arange(dim), units] = f.one

    def mult(b: int) -> dict:
        # the one entry of left multiplication by b, from slot t to slot s
        p = A.basis[b]
        return {(p.source, p.target(A.quiver)): {b: f.one}}

    def left(b: int) -> np.ndarray:
        lm = map_of_elements(A, mult(b), R, R)
        images = f.zeros(dim, int(offs[-1]))
        for s, v in enumerate(Pn.summands):
            images[:, offs[s]:offs[s + 1]] = f.matmul(
                basis_rows[:, offs[s]:offs[s + 1]], lm.blocks[v].T)
        return f.matmul(proj, images.T)

    def right(b: int) -> np.ndarray:
        lam = dual_map(map_of_elements(Aop, transpose_entries(A, mult(b)),
                                       Rop, Rop))
        lift = strict_lift(P, ChainMap(P, eps.target, {
            0: eps.parts[0].compose(lam)}), eps)
        return f.matmul(proj, f.matmul(
            basis_rows, hom_matrix(lift.parts[-n], R).T).T)

    return dim, left, right


def ext_bimodule_per_element(A, n: int) -> ExtBimodule:
    """E with the action of each trivial path and arrow from
    ``ext_actions_per_element`` and of each longer path from its prefix's,
    as ``preprojective.ext_bimodule`` builds it from one batched lift."""
    dim, left, right = ext_actions_per_element(A, n)
    short = _short_paths(A)
    return ExtBimodule(A, n, dim, *(
        _path_actions(A, dim, short, action_entries(
            A.field, [act(b) for b in short]), side)
        for act, side in ((left, True), (right, False))))


class EchelonState:
    """Incremental row-echelon tracker: feed rows, learn which extend the
    span; reduction against accumulated pivots is a vector operation."""

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        f = self.field
        v = vec.copy()
        for r, c in zip(self.rows, self.pivots):
            coef = v[c]
            if coef != f.zero:
                v = f.sub(v, f.smul(coef, r))
        return v

    def add(self, vec: np.ndarray) -> bool:
        """Reduce and absorb; True iff the row enlarged the span."""
        f = self.field
        v = self.reduce(vec)
        nz = np.nonzero(v != f.zero)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        v = f.smul(f.inv_el(v[c]), v)
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def complement_rows_greedy(field: Field, sub: np.ndarray,
                           total: np.ndarray) -> np.ndarray:
    """The rows of `total` that extend rowspace(sub), picked one at a time
    in order with an ``EchelonState``."""
    st = EchelonState(field, total.shape[1])
    for row in sub:
        st.add(row)
    out = [row for row in total if st.add(row)]
    return np.stack(out) if out else field.zeros(0, total.shape[1])


# ---------------------------------------------------------------------------
# the relation completion that scans every generator, and the corners of
# the presentation taken as meets with one echelon form of rad
# ---------------------------------------------------------------------------

def _lt(poly: dict[Path, object]) -> Path:
    return max(poly, key=ordkey)


def _find_subword(word: tuple[int, ...], sub: tuple[int, ...]) -> int:
    n, m = len(word), len(sub)
    if m > n:
        return -1
    for i in range(n - m + 1):
        if word[i:i + m] == sub:
            return i
    return -1


class ScanReducer:
    """Two-sided normal forms modulo a list of monic generators, each term
    tested against the leading term of every generator."""

    def __init__(self, quiver: Quiver, field: Field):
        self.q = quiver
        self.field = field
        self.gens: list[dict[Path, object]] = []

    def _addmul(self, f: dict, coef, left: tuple, g: dict, right: tuple,
                src: int):
        # f += coef * (left . g . right); left/right are arrow words
        words = ((left + p.arrows + right, c) for p, c in g.items())
        self.field.accumulate(f, (
            (Path(self.q.source(w[0]) if w else src, w), coef * c)
            for w, c in words))

    def reduce(self, f: dict[Path, object]) -> dict[Path, object]:
        f = dict(f)
        while True:
            hit = None
            for p in sorted(f, key=ordkey, reverse=True):
                for g in self.gens:
                    lt = _lt(g)
                    pos = _find_subword(p.arrows, lt.arrows)
                    if pos < 0:
                        continue
                    hit = (p, g, pos, len(lt.arrows))
                    break
                if hit:
                    break
            if not hit:
                return f
            p, g, pos, m = hit
            coef = f[p]
            left, right = p.arrows[:pos], p.arrows[pos + m:]
            self._addmul(f, -coef, left, g, right, p.source)

    def add(self, f: dict[Path, object]) -> bool:
        f = self.reduce(f)
        if not f:
            return False
        inv = self.field.inv_el(f[_lt(f)])
        self.gens.append({p: self.field.smul(inv, c) for p, c in f.items()})
        return True


def _overlaps(w1: tuple, w2: tuple):
    """Proper overlaps: nonempty suffix of w1 = prefix of w2 (not containment)."""
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] == w2[:k]:
            yield k


def complete_by_scan(reducer: ScanReducer, cap: int):
    """Every ordered pair of generators ever made, overlaps and
    containments, until no new generator appears."""
    q, field = reducer.q, reducer.field
    queue = list(range(len(reducer.gens)))
    pairs = [(i, j) for i in queue for j in queue]
    while pairs:
        i, j = pairs.pop()
        if i >= len(reducer.gens) or j >= len(reducer.gens):
            continue
        g1, g2 = reducer.gens[i], reducer.gens[j]
        w1, w2 = _lt(g1).arrows, _lt(g2).arrows
        news = []
        for k in _overlaps(w1, w2):
            # g1 * v - u * g2 with w1 = u.o, w2 = o.v
            u, v = w1[:len(w1) - k], w2[k:]
            s: dict[Path, object] = {}
            src1 = _lt(g1).source
            src2 = q.source(u[0]) if u else _lt(g2).source
            reducer._addmul(s, field.one, (), g1, v, src1)
            reducer._addmul(s, -field.one, u, g2, (), src2)
            news.append(s)
        # containment of w2 inside w1 (as a subword, distinct generators)
        if i != j and len(w2) <= len(w1):
            pos = _find_subword(w1, w2)
            if pos >= 0:
                s = dict(g1)
                u, v = w1[:pos], w1[pos + len(w2):]
                src2 = q.source(u[0]) if u else _lt(g2).source
                reducer._addmul(s, -field.one, u, g2, v, src2)
                news.append(s)
        for s in news:
            if reducer.add(s):
                newidx = len(reducer.gens) - 1
                if len(_lt(reducer.gens[-1]).arrows) > cap:
                    raise NonAdmissible(cap)
                pairs.extend((newidx, t) for t in range(len(reducer.gens)))
                pairs.extend((t, newidx) for t in range(len(reducer.gens) - 1))


def irreducible_paths_by_scan(q: Quiver, reducer: ScanReducer,
                              cap: int) -> list[Path]:
    """The paths with no leading term as a subword, longer ones grown
    from shorter ones, each tested against every leading term."""
    lts = [_lt(g).arrows for g in reducer.gens]
    basis = [Path(v, ()) for v in range(q.n_vertices)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for p in frontier:
            for a in q.arrows_from(p.target(q)):
                word = p.arrows + (a,)
                if any(_find_subword(word, lt) >= 0 for lt in lts):
                    continue
                if len(word) > cap:
                    raise NonAdmissible(cap)
                nxt.append(Path(p.source, word))
        basis.extend(nxt)
        frontier = nxt
    basis.sort(key=ordkey)
    return basis


def complete_basis_by_scan(quiver: Quiver, field: Field,
                           relations: list[PathElement], cap: int = 64):
    """(reducer, basis) of kQ/(relations) by the scanning completion."""
    reducer = ScanReducer(quiver, field)
    for rel in relations:
        reducer.add({p: field.el(c) for p, c in rel.terms.items()})
    complete_by_scan(reducer, cap)
    return reducer, irreducible_paths_by_scan(quiver, reducer, cap)


def radical_rows(B: FinDimAlgebra) -> np.ndarray:
    """Row basis of rad B: the kernel of the whole dim B x dim B trace
    form of the regular representation."""
    f = B.field
    n = B.dim
    i, j, k, c = B.constants
    left, right = sparse_join(j * n + k, k * n + j)
    g = f.zeros(n, n)
    np.add.at(g, (i[left], i[right]), f.reduce(c[left] * c[right]))
    return f.kernel(f.reduce(g))


def meet(f: Field, rows: np.ndarray, space: QuotientBasis) -> np.ndarray:
    """Canonical row basis (rref) of rowspace(rows) ∩ the span of `space`.

    ``rows`` must be independent.  The combinations x with x @ rows in the
    span are the kernel of the residual of `rows` modulo `space`'s echelon
    form, so rows.shape[0] minus the result's rank is the dimension of
    rowspace(rows) modulo that span.
    """
    ker = f.kernel(space.residual(rows).T)
    return f.row_space(f.matmul(ker, rows))


def corners_by_meet(B: FinDimAlgebra) -> dict:
    """e_i rad e_j in dim B coordinates: the span of the basis elements
    labelled (i, j) met with rad."""
    f = B.field
    n = B.dim
    idems = B.idempotents
    m = len(idems)
    rad_space = QuotientBasis(f, radical_rows(B), f.zeros(0, n))
    left = vertex_labels(f, n, [B.left_action(e) for e in idems], "basis")
    right = vertex_labels(f, n, [B.right_action(e) for e in idems], "basis")
    units = f.eye(n)
    return {(i, j): meet(f, units[(left == i) & (right == j)], rad_space)
            for i in range(m) for j in range(m)}


def sum_rows(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """row_space of the rows of a and b, each possibly empty."""
    if a.shape[0] == 0:
        return f.row_space(b) if b.shape[0] else b
    if b.shape[0] == 0:
        return f.row_space(a)
    return f.row_space(np.concatenate([a, b], axis=0))


def arrows_by_meet(B: FinDimAlgebra):
    """``findim._arrows`` in dim B coordinates throughout: corners met with
    rad, rad^2 from dim-B-wide corner products, lifts picked among dim B
    rows."""
    f = B.field
    n = B.dim
    m = len(B.idempotents)
    corners = corners_by_meet(B)
    prods: dict[tuple[int, int], list[np.ndarray]] = {}
    for k in range(m):
        outs = [j for j in range(m) if corners[(k, j)].shape[0]]
        if not outs:
            continue
        ys = np.concatenate([corners[(k, j)] for j in outs])
        ends = np.cumsum([corners[(k, j)].shape[0] for j in outs])[:-1]
        for i in range(m):
            if not corners[(i, k)].shape[0]:
                continue
            xy = np.stack([_act(f, n, B.left_action(x), ys)
                           for x in corners[(i, k)]])
            for j, rows in zip(outs, np.split(xy, ends, axis=1)):
                prods.setdefault((i, j), []).append(rows.reshape(-1, n))
    corners2 = {key: f.row_space(np.concatenate(rows))
                for key, rows in prods.items()}
    vertices = [str(i + 1) for i in range(m)]
    arrow_list, arrow_elems, arrow_degs = [], [], []
    grading = np.array(B.grading or [0] * n)
    degrees = sorted(set(grading.tolist()))
    for i in range(m):
        for j in range(m):
            corner = corners[(i, j)]
            base = corners2.get((i, j), f.zeros(0, n))
            support = corner != f.zero
            lifts = []
            for k, dg in enumerate(degrees):
                rows = corner[~np.any(support & (grading != dg), axis=1)]
                if not rows.shape[0]:
                    continue
                ext = complement_rows(f, base, rows)
                lifts.extend((r, dg) for r in ext)
                if k < len(degrees) - 1:
                    base = sum_rows(f, base, ext)
            for r, dg in lifts:
                arrow_list.append((f"a{len(arrow_list) + 1}",
                                   vertices[i], vertices[j]))
                arrow_elems.append(r)
                arrow_degs.append(dg)
    return (Quiver(vertices, arrow_list), arrow_elems,
            arrow_degs if B.grading is not None else None)


def projectives_sum_fresh(A, vertices) -> Representation:
    """The tagged sum of the e_v A, v in ``vertices``, in fresh writable
    arrays: every arrow block of every summand filled from ``mult_basis``,
    one basis pair at a time, zero blocks included."""
    q, f = A.quiver, A.field
    per_slot = [[A.basis_between(v, j) for j in range(q.n_vertices)]
                for v in vertices]
    offsets, dims = [], [0] * q.n_vertices
    for rows in per_slot:
        offsets.append(dict(enumerate(dims)))
        dims = [d + len(r) for d, r in zip(dims, rows)]
    action = []
    for a in range(q.n_arrows):
        s_v, t_v = q.source(a), q.target(a)
        m = f.zeros(dims[t_v], dims[s_v])
        apath = A.bindex[Path(s_v, (a,))]
        for s, rows in enumerate(per_slot):
            tgt_pos = {b: k for k, b in enumerate(rows[t_v])}
            for col, b in enumerate(rows[s_v]):
                for tb, c in A.mult_basis(b, apath).items():
                    m[offsets[s][t_v] + tgt_pos[tb],
                      offsets[s][s_v] + col] = f.el(c)
        action.append(m)
    rep = Representation(A, dims, action)
    rep.summands, rep.offsets, rep.tag_kind = tuple(vertices), offsets, "P"
    return rep


def map_from_projectives_by_paths(P: Representation, M: Representation,
                                  gen_images) -> ModuleMap:
    """The map out of the tagged sum P with the given generator images,
    each basis path's column its last arrow applied to its prefix's, the
    prefix found by a ``Path`` lookup in ``bindex``."""
    A, f = P.algebra, P.field
    nv = A.quiver.n_vertices
    blocks = [f.zeros(M.dims[j], P.dims[j]) for j in range(nv)]
    for v in dict.fromkeys(P.summands):
        slots = [s for s, w in enumerate(P.summands) if w == v]
        gens = np.concatenate([gen_images[s] for s in slots], axis=1)
        if not gens.any():
            continue
        values = {}
        for b, j, k in sorted((b, j, k) for j in range(nv)
                              for k, b in enumerate(A.basis_between(v, j))):
            word = A.basis[b].arrows
            if word:
                prefix = A.bindex[Path(v, word[:-1])]
                values[b] = f.matmul(M.action[word[-1]], values[prefix])
            else:
                values[b] = gens
            blocks[j][:, [P.offsets[s][j] + k for s in slots]] = values[b]
    return ModuleMap(P, M, blocks)


def dual_by_transpose(M: Representation) -> Representation:
    """The k-dual over the opposite algebra as transposed copies; a tagged
    sum keeps its summands and offsets and swaps its kind."""
    D = Representation(op_algebra(M.algebra), M.dims,
                       [m.T.copy() for m in M.action])
    if M.tag_kind is not None:
        D.summands, D.offsets = M.summands, M.offsets
        D.tag_kind = "I" if M.tag_kind == "P" else "P"
    return D


def elements_of_injective_map(A, d: ModuleMap, src: Representation,
                              tgt: Representation) -> dict:
    """The nonzero entries (w, u) of a map d: src -> tgt between tagged
    injective sums, in the order of u, then of w: the entry from slot u
    (vertex b) to slot w (vertex c) is the x in e_c A e_b whose image
    under the Nakayama functor is that component.  Each target slot w is
    read as one row of the block at its vertex, over A^op, and each
    element is mapped back to A with ``op_element``."""
    B = op_algebra(A)
    where, found = {}, {}
    for w, cw in enumerate(tgt.summands):
        line = d.blocks[cw][tgt.offsets[w][cw], :]
        if cw not in where:
            where[cw] = {src.offsets[s][cw] + k: (s, b)
                         for s, sv in enumerate(src.summands)
                         for k, b in enumerate(B.basis_between(sv, cw))}
        for k in np.flatnonzero(line):
            s, b = where[cw][k]
            found.setdefault((w, s), {})[b] = line[k]
    entries = {}
    for key in sorted(found, key=lambda wu: (wu[1], wu[0])):
        elem = op_element(B, found[key])
        if elem:
            entries[key] = elem
    return entries


def map_of_injective_elements(A, entries: dict, src: Representation,
                              tgt: Representation) -> ModuleMap:
    """The map src -> tgt between tagged injective sums with the given
    entries: the k-dual of the map D(tgt) -> D(src) over A^op whose entry
    (u, w) is the image of entry (w, u) under ``op_element``."""
    swapped = {(u, w): op_element(A, elem)
               for (w, u), elem in entries.items()}
    m = map_of_elements(op_algebra(A), swapped, dual(tgt), dual(src))
    return ModuleMap(src, tgt, [b.T.copy() for b in m.blocks])


def nakayama_by_flip(P: ComplexOfModules) -> ComplexOfModules:
    """nu P: the entries of P written between the tagged injective sums
    with the same summands."""
    A = P.algebra
    sym = to_symbolic(P)
    terms = {i: injectives_sum(A, vs) for i, vs in sym.terms.items()}
    diffs = {i: map_of_injective_elements(A, e, terms[i], terms[i + 1])
             for i, e in sym.diffs.items()}
    X = ComplexOfModules(A, terms, diffs)
    X.check_d_squared()
    return X


def nakayama_inv_by_flip(I: ComplexOfModules) -> ComplexOfModules:
    """nu^{-1} I: the entries of I, read by ``elements_of_injective_map``,
    written between the tagged projective sums with the same summands."""
    A = I.algebra
    return SymbolicComplex(
        A, {i: t.summands for i, t in I.terms.items()},
        {i: elements_of_injective_map(A, d, I.terms[i], I.terms[i + 1])
         for i, d in I.diffs.items()}).materialize()


def step_neg_by_injective_resolution(X: ComplexOfModules, n: int,
                                     cap: int = 32) -> ComplexOfModules:
    """S_n^{-1} X = nu^{-1}(I)[n] for the injective resolution I of X."""
    I, _ = inj_resolve_complex(X, cap)
    return nakayama_inv_by_flip(I).shift(n)


def is_zero_by_all(field: Field, a: np.ndarray) -> bool:
    return bool(np.all(a == field.zero))


def equal_by_all(field: Field, a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


def eye_by_numpy(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def complement_rows_of_identity(field: Field, sub: np.ndarray,
                                n: int) -> np.ndarray:
    """The rows of the n x n identity that extend rowspace(sub): e_i is
    picked iff no vector of rowspace(sub) has its last nonzero entry at
    i, read off one rref of `sub` with its columns reversed."""
    if n == 0:
        return field.zeros(0, 0)
    last = {n - 1 - c for c in field.rref(sub[:, ::-1])[1]}
    return field.eye(n)[[i for i in range(n) if i not in last]]


def kernel_rref_by_row_space(field: Field, a: np.ndarray
                             ) -> tuple[np.ndarray, list[int]]:
    """The RREF of ker(a) as ``row_space(kernel(a))``, and its pivots
    from one more rref."""
    basis = field.row_space(field.kernel(a))
    return basis, field.rref(basis)[1] if basis.size else []


def subrepresentation_by_solve(M: Representation, spaces):
    """The subrepresentation on the column spans ``spaces`` with its
    inclusion: each basis the transposed ``row_space``, each arrow action
    the ``solve`` of basis_t x = M_a basis_s, at every arrow."""
    q, f = M.algebra.quiver, M.field
    bases = [f.row_space(m.T).T if m.size else f.zeros(m.shape[0], 0)
             for m in spaces]
    action = []
    for a in range(q.n_arrows):
        s, t = q.source(a), q.target(a)
        x = f.solve(bases[t], f.matmul(M.action[a], bases[s]))
        if x is None:
            raise ValueError("subspaces are not arrow-stable")
        action.append(x)
    rep = Representation(M.algebra, [b.shape[1] for b in bases], action)
    return rep, ModuleMap(rep, M, bases)


def global_dimension_by_simples(A, cap: int = 32):
    """The largest pd of a simple, each from its own resolution, or
    AboveCap(cap) at the first one above the cap."""
    known = 0
    for v in range(A.quiver.n_vertices):
        res = min_proj_resolution(simple(A, v), cap)
        if res.truncated:
            return AboveCap(cap)
        known = max(known, res.length)
    return known


def _is_projective(X: ComplexOfModules) -> bool:
    """Is every term of X a tagged projective sum?"""
    return all(getattr(t, "tag_kind", None) == "P" for t in X.terms.values())


def minimized_by_resolution(ctx, X: ComplexOfModules) -> ComplexOfModules:
    """The minimized complex of projectives quasi-isomorphic to X: X
    itself minimized when its terms are tagged projective sums, else its
    resolution."""
    P = X if _is_projective(X) else proj_resolve_complex(X, ctx.cap)[0]
    before = P.cohomology_dims()
    out = to_symbolic(P).minimize().materialize()
    assert out.cohomology_dims() == before
    return out


def next_neg_by_step_neg(ctx, X: ComplexOfModules) -> ComplexOfModules:
    """minimized(S_n^{-1} X), from the step Hom(P, A^op) materialized and
    then shifted by n."""
    P, _ = proj_resolve_complex(dual_complex(X), ctx.cap)
    return minimized_by_resolution(
        ctx, transposed(P).materialize().shift(ctx.n))


def op_element_by_reduce_path(A, elem: dict[int, object]) -> dict[int, object]:
    """Image of an algebra element under A -> A^op, reducing the reversal
    of each of its basis paths over A^op."""
    Aop = op_algebra(A)
    paths = ((A.basis[bidx], c) for bidx, c in elem.items())
    return A.field.accumulate({}, (
        (j, c * c2) for p, c in paths
        for j, c2 in Aop.reduce_path(
            Path(p.target(A.quiver), tuple(reversed(p.arrows)))).items()))


def rigidity_per_degree(M: Representation, n: int) -> bool:
    return all(ext(M, M, i) == 0 for i in range(1, n))


def resolution_complex(res: ProjResolution, M: Representation,
                       degree: int = 0):
    """(P, eps): the resolution ``res`` of M as a complex P with term j of
    ``res`` in degree ``degree - j``, and its augmentation eps: P -> M,
    with M placed in ``degree``."""
    terms = {degree - j: t for j, t in enumerate(res.terms)}
    diffs = {degree - j - 1: res.differential(j) for j in range(res.length)}
    P = ComplexOfModules(M.algebra, terms, diffs)
    eps = ChainMap(P, module_complex(M, degree), {degree: res.augmentation})
    return P, eps


def _single_module_resolution(M: Representation, degree: int, cap: int):
    res = min_proj_resolution(M, cap)
    if res.truncated:
        raise AboveCapError(cap)
    return resolution_complex(res, M, degree)


def _stupid_truncate_above(X: ComplexOfModules, lo: int) -> ComplexOfModules:
    terms = {i: t for i, t in X.terms.items() if i > lo}
    diffs = {i: d for i, d in X.diffs.items() if i > lo}
    return ComplexOfModules(X.algebra, terms, diffs)


def strict_lift(C: ComplexOfModules, f_map: ChainMap,
                eps: ChainMap) -> ChainMap:
    """The strict chain lift g: C -> P of one chain map f: C -> X through
    eps: P -> X, as a ``ChainMap``: ``derived._strict_lift`` with k = 1,
    its generator images extended to maps."""
    P, X = eps.source, eps.target
    targets = {}
    for i, part in f_map.parts.items():
        Ct = C.term(i)
        targets[i] = np.concatenate([C.algebra.field.zeros(0, 1)] + [
            part.blocks[v][:, Ct.offsets[s][v]:Ct.offsets[s][v] + 1]
            for s, v in enumerate(Ct.summands)])
    gens = derived._strict_lift(C, eps, targets, 1)
    parts = {}
    for i, g in gens.items():
        Ct = C.term(i)
        off = _gen_offsets(Ct, P.term(i))
        parts[i] = map_from_projectives(Ct, P.term(i), [
            g[off[s]:off[s + 1]] for s in range(len(Ct.summands))])
    return ChainMap(C, P, parts)


def _cone(v: ChainMap) -> tuple[ComplexOfModules, dict]:
    """cone(v: A -> B): term^i = A^{i+1} (+) B^i, d(a,b) = (-da, v(a)+db),
    for terms that are tagged projective sums; with the pair of terms
    (A^{i+1}, B^i) of each degree."""
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
    return ComplexOfModules(alg, terms, diffs), layout


def proj_resolve_complex_by_cones(X: ComplexOfModules, cap: int = 32):
    """(P, eps) for a bounded complex X by iterated mapping cones: the
    minimal resolution R of the lowest term M, one degree up, and a
    resolution P' of the rest X' of X, joined as the cone of the strict
    lift R -> P' of the map M[-lo-1] -> X' that d^{lo} gives.  Each term
    is resolved under the length cap."""
    if X.is_zero():
        P = ComplexOfModules(X.algebra, {}, {})
        return P, ChainMap(P, X, {})
    if _is_projective(X):
        ident = {i: ModuleMap(t, t, [X.algebra.field.eye(d)
                                     for d in t.dims])
                 for i, t in X.terms.items()}
        return X, ChainMap(X, X, ident)
    lo = X.lo
    M = X.term(lo)
    if len(X.terms) == 1:
        return _single_module_resolution(M, lo, cap)
    Xp = _stupid_truncate_above(X, lo)
    Pp, epsp = proj_resolve_complex_by_cones(Xp, cap)
    R, epsR = _single_module_resolution(M, lo + 1, cap)
    dlo = X.diffs.get(lo)
    f_parts = {}
    if dlo is not None:
        f_parts[lo + 1] = epsR.parts[lo + 1].compose(dlo)
    vlift = strict_lift(R, ChainMap(R, Xp, f_parts), epsp)
    P, layout = _cone(vlift)
    # eps: cone(vlift) -> cone(M[-lo-1] -> X') = X, componentwise
    fld = X.algebra.field
    parts = {}
    for i, t in P.terms.items():
        At, Bt = layout[i]
        Xt = X.term(i)
        m_blocks = []
        for vx in range(X.algebra.quiver.n_vertices):
            m = fld.zeros(Xt.dims[vx], t.dims[vx])
            a_cols = At.dims[vx]
            # the R part: epsR at degree i+1 lands in M placed at degree lo
            if i == lo and i + 1 in epsR.parts and a_cols:
                m[:, :a_cols] = epsR.parts[i + 1].blocks[vx]
            # the P' part: eps' covers X' = X in degrees above lo only
            if i > lo and i in epsp.parts and Bt.dims[vx]:
                m[:, a_cols:] = epsp.parts[i].blocks[vx]
            m_blocks.append(m)
        parts[i] = ModuleMap(t, Xt, m_blocks)
    return P, ChainMap(P, X, parts)


def inj_resolve_complex(X: ComplexOfModules, cap: int = 32):
    """(I, eta): bounded complex of injectives with quasi-iso eta: X -> I."""
    DP, Deps = proj_resolve_complex(dual_complex(X), cap)
    I = dual_complex(DP)  # tagged injective sums over A
    eta_parts = {-i: ModuleMap(X.term(-i), I.term(-i),
                               [b.T.copy() for b in p.blocks])
                 for i, p in Deps.parts.items()}
    eta = ChainMap(X, I, eta_parts)
    assert eta.is_chain_map()
    assert eta.induces_cohomology_iso(), \
        "coresolution must be a quasi-isomorphism"
    return I, eta


def serre_n_power(A, n: int, X: ComplexOfModules, e: int,
                  cap: int = 32) -> ComplexOfModules:
    """S_n^e X, reduced (contractible summands stripped)."""
    ctx = SerreSteps(A, n, cap)
    cur = X
    for _ in range(abs(e)):
        cur = ctx.minimized(ctx.step_pos(cur)) if e > 0 else ctx.next_neg(cur)
    return cur


def u_window(A, n: int, lo: int, hi: int,
             cap: int = 32) -> list[tuple[int, int, ComplexOfModules]]:
    """The objects S_n^i(e_v A) for i in [lo, hi], one indecomposable
    complex per (i, vertex): (i, vertex, complex)."""
    ctx = SerreSteps(A, n, cap)
    out = []
    for v in range(A.quiver.n_vertices):
        base = module_complex(projectives_sum(A, [v]))
        cur = base
        for i in range(0, hi + 1):
            if i >= lo:
                out.append((i, v, cur))
            cur = ctx.minimized(ctx.step_pos(cur))
        cur = base
        for i in range(-1, lo - 1, -1):
            cur = ctx.next_neg(cur)
            if i <= hi:
                out.append((i, v, cur))
    return out


def nakayama_presentation(M: Representation) -> ModuleMap:
    """nu d = D Hom(d, A): nu P1 -> nu P0, a map of tagged injective sums
    over A, for the minimal projective presentation d: P1 -> P0 of M.  Its
    cokernel is nu M; nu P1 is zero when M is projective."""
    return dual_map(hom_presentation_by_cover(M))


def nu_module(M: Representation) -> Representation:
    """Module-level Nakayama functor: coker of nu applied to a minimal
    projective presentation (nu is right exact)."""
    nu_d = nakayama_presentation(M)
    if nu_d.source.is_zero():
        return nu_d.target
    out, _ = map_cokernel(nu_d)
    return out


def hereditary_maximality_check(A, cap: int = 200) -> Verdict:
    """For a hereditary representation-finite algebra: verify that the
    cluster-tilting module contains every indecomposable (full maximality
    by AR-quiver knitting, instead of the criterion-based inference)."""
    indecs = knit_indecomposables(A, cap)
    split = preprojective_module(A, 1, cap)
    missing = []
    for m in indecs:
        if not any(m.dims == r.dims and is_isomorphic(m, r)
                   for r in split.summand_reps):
            missing.append(m.dims)
    if missing:
        return Verdict(False, {"missing_indecomposables": missing})
    extra = len(split.summand_reps) - len(indecs)
    if extra:
        return Verdict(False, {"extra_summands": extra})
    return Verdict(True, {"indecomposables": len(indecs)})


def right_mult_matrix(B: FinDimAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> y*x on basis coordinates (columns = images)."""
    return _dense(B.field, B.dim, B.right_action(x))


def check_associativity(B: FinDimAlgebra) -> bool:
    """L_{e_i e_j} = L_{e_i} L_{e_j} for every pair of basis elements."""
    f = B.field
    basis = f.eye(B.dim)
    lmats = [B.left_mult_matrix(e) for e in basis]
    return all(
        f.equal(B.left_mult_matrix(B.mult_vec(basis[i], basis[j])),
                f.matmul(lmats[i], lmats[j]))
        for i in range(B.dim) for j in range(B.dim))


def random_module(A, rng: random.Random,
                  max_gens: int = 3) -> Representation:
    """A random quotient of a small sum of projectives (always a module)."""
    nv = A.quiver.n_vertices
    slots = [rng.randrange(nv) for _ in range(rng.randint(1, max_gens))]
    P = projectives_sum(A, slots)
    f = A.field
    rad, rad_incl = radical_series(P)
    # random submodule of rad P: generated by a few random elements
    k = rng.randint(0, 2)
    gens = []
    for _ in range(k):
        v = rng.randrange(nv)
        if rad.dims[v] == 0:
            continue
        col = f.zeros(rad.dims[v], 1)
        for r in range(rad.dims[v]):
            col[r, 0] = f.rand_el(rng)
        gens.append((v, f.matmul(rad_incl.blocks[v], col)))
    spaces = _generated_submodule_spaces(P, gens)
    rep, _ = quotient(P, spaces)
    return rep


def _generated_submodule_spaces(M: Representation, gens):
    """Arrow-stable subspaces generated by (vertex, column) seeds."""
    q = M.algebra.quiver
    f = M.field
    spaces = [f.zeros(M.dims[v], 0) for v in range(q.n_vertices)]
    frontier = []
    for v, col in gens:
        spaces[v] = np.concatenate([spaces[v], col], axis=1)
        frontier.append((v, col))
    while frontier:
        v, col = frontier.pop()
        for a in q.arrows_from(v):
            t = q.target(a)
            img = f.matmul(M.action[a], col)
            if f.is_zero(img):
                continue
            test = np.concatenate([spaces[t], img], axis=1)
            if f.rank(test.T) > f.rank(spaces[t].T):
                spaces[t] = test
                frontier.append((t, img))
    return spaces


# ---------------------------------------------------------------------------
# the Serre functor walked both ways, and the derived Hom
# ---------------------------------------------------------------------------

class TermNotInjective(QuiverAlgError):
    """A complex that must be made of tagged injective sums is not."""


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


class SerreSteps(SerreContext):
    """A SerreContext with the single steps that the package does not
    take: S_n^{-1} and S_n unminimized, the minimized form of any complex,
    the literal orbit of A (not minimized) and the transport of chain maps
    through one negative step."""

    def __init__(self, A, n: int, cap: int = 32):
        super().__init__(A, n, cap)
        self._neg: list[ComplexOfModules] = []

    def step_neg(self, X: ComplexOfModules) -> ComplexOfModules:
        """S_n^{-1} X = Hom(P, A^op)[n] for a projective resolution P of
        D X over A^op."""
        P, _ = proj_resolve_complex(dual_complex(X), self.cap)
        return transposed(P).shift(self.n).materialize()

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

    def orbit_neg(self, k: int) -> ComplexOfModules:
        """The literal iterate S_n^{-k}(A-as-complex), not minimized."""
        assert k >= 0
        if not self._neg:
            self._neg.append(self.orbit(0))
        while len(self._neg) <= k:
            self._neg.append(self.step_neg(self._neg[-1]))
        return self._neg[k]

    def transport_neg(self, g: ChainMap) -> ChainMap:
        """S_n^{-1}(g): step_neg(U) -> step_neg(V) for g: U -> V, computed
        through the same construction as step_neg itself."""
        U, V = g.source, g.target
        DU, DV = dual_complex(U), dual_complex(V)
        PDU, epsU = proj_resolve_complex(DU, self.cap)
        PDV, epsV = proj_resolve_complex(DV, self.cap)
        Dg = dual_chain_map(g)  # DV -> DU
        fmap = ChainMap(PDV, DU, _compose_chain(epsV, Dg))
        lifted = strict_lift(PDV, fmap, epsU)  # PDV -> PDU
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
        return ChainMap(src, tgt, parts)


def dual_chain_map(phi: ChainMap) -> ChainMap:
    src = dual_complex(phi.target)
    tgt = dual_complex(phi.source)
    parts = {}
    for i, p in phi.parts.items():
        parts[-i] = ModuleMap(src.term(-i), tgt.term(-i),
                              [b.T.copy() for b in p.blocks])
    return ChainMap(src, tgt, parts)


def _compose_chain(first: ChainMap, then: ChainMap) -> dict[int, ModuleMap]:
    parts = {}
    for i, p in first.parts.items():
        q = then.parts.get(i)
        if q is not None:
            parts[i] = p.compose(q)
    return parts


def is_n_rep_finite_forward(A, n: int, cap: int = 32) -> Verdict:
    """``checks.is_n_rep_finite`` by S_n itself: each I_v minimized, then
    stepped by S_n and minimized until the complex is one projective in
    degree 0."""
    gl = global_dimension(A, cap=max(n + 1, 4))
    if isinstance(gl, AboveCap) or gl > n:
        return Verdict(False, {"reason": "gldim", "gldim": str(gl)})
    ctx = SerreSteps(A, n, cap)
    witnesses = {}
    for v in range(A.quiver.n_vertices):
        cur = ctx.minimized(module_complex(injectives_sum(A, [v])))
        found = None
        for ell in range(cap + 1):
            hdims = cur.cohomology_dims()
            if set(hdims) - {0}:
                return Verdict(False, {
                    "injective": v, "iterate": ell,
                    "cohomology": hdims,
                    "reason": "iterate left module territory"})
            if sorted(cur.terms) == [0]:
                found = ell
                break
            cur = ctx.minimized(ctx.step_pos(cur))
        if found is None:
            return Verdict("unknown", {"injective": v, "cap": cap})
        witnesses[v] = found
    return Verdict(True, {"serre_power_to_projective": witnesses})


def hom_d(X: ComplexOfModules, Y: ComplexOfModules, j: int,
          cap: int = 32) -> int:
    """dim Hom_D(X, Y[j]) via the total Hom complex from a projective
    resolution of X."""
    if X.is_zero() or Y.is_zero():
        return 0
    P, _ = proj_resolve_complex(X, cap)
    lay_prev, lay, lay_next = (hom_total_spaces(P, Y, m)
                               for m in (j - 1, j, j + 1))
    cols = sum(x[3] for x in lay)
    if cols == 0:
        return 0
    f = P.algebra.field
    # dim H^j = dim C^j - rank delta^j - rank delta^{j-1}
    return cols - f.rank(hom_delta(P, Y, j, lay, lay_next)) \
        - f.rank(hom_delta(P, Y, j - 1, lay_prev, lay))


def hom_total_spaces(P: ComplexOfModules, Y: ComplexOfModules, m: int):
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


def hom_delta(P: ComplexOfModules, Y: ComplexOfModules, m: int,
              lay_m: list, lay_m1: list) -> np.ndarray:
    """Matrix of delta^m: C^m -> C^{m+1}, delta f = d_Y f - (-1)^m f d_P,
    on the layouts ``hom_total_spaces`` of C^m and C^{m+1}."""
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


def _gldim(A, cap: int) -> int:
    """gldim A, or AboveCapError when it exceeds the length cap."""
    g = global_dimension(A, cap)
    if isinstance(g, AboveCap):
        raise AboveCapError(cap)
    return g


def amiot_hom(A, n: int, X: ComplexOfModules, Y: ComplexOfModules,
              window_cap: int = 64, cap: int = 32) -> GradedHom:
    """Graded pieces Hom_D(X, S_n^{-i} Y) of the orbit-category Hom.

    Scans i >= 0 and i < 0 until cohomological support separation makes
    all further pieces vanish; WindowInconclusive if the cap is reached
    first.  ``derived.amiot_hom`` is the case X = Y = A."""
    gl = _gldim(A, cap)
    ctx = SerreSteps(A, n, cap)
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

def cohomology_basis(C: ComplexOfModules, i: int, v: int):
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


class _H0Coords:
    """Per-vertex H^0 coordinates of a complex, for classes of chain maps
    out of the regular module."""

    def __init__(self, C: ComplexOfModules):
        self.H = [cohomology_basis(C, 0, v)
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


def amiot_endomorphism_algebra(A, n: int, window_cap: int = 64,
                               cap: int = 32):
    """End of the regular object in the orbit category, as a graded
    FinDimAlgebra: degree-i piece Hom_D(A, S_n^{-i} A), composition via
    transported chain maps."""
    f = A.field
    ctx = SerreSteps(A, n, cap)
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
        R = regular(A)
        part0 = map_from_projectives(R, C0, gen_images)
        return ChainMap(module_complex(R), C, {0: part0})

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

    alg = FinDimAlgebra(f, total, idems, grading, constants=(
        sparse_constants(f, (e for i in range(total) for e in products(i)))))
    alg.piece_dims = piece_dims
    return alg


def _regular_unit_index(A, v: int) -> int:
    R = regular(A)
    return R.offsets[v][v]  # trivial path is first in basis_between(v, v)


class QuotientBasis:
    """Coordinates on rowspace(sub) + rowspace(total) modulo rowspace(sub).

    ``sub`` must have independent rows.  ``comp`` holds the rows of
    ``total`` that extend them (``complement_rows``); their classes are the
    basis of the quotient.  Without ``total`` the quotient is of the whole
    space: ``comp`` holds the unit vectors that ``complement_units`` names,
    and no identity is built.  One rref of ``[sub; comp | I]`` gives the
    pivot columns ``piv`` of ``[sub; comp]`` and the inverse of that pivot
    block, so coordinates cost one matmul: ``vecs[:, piv] @ inv``.
    """

    def __init__(self, field: Field, sub: np.ndarray,
                 total: np.ndarray | None = None):
        self.field = field
        if total is None:
            units = complement_units(field, sub, sub.shape[1])
            self.comp = field.zeros(len(units), sub.shape[1])
            self.comp[np.arange(len(units)), units] = field.one
        else:
            self.comp = complement_rows(field, sub, total)
        full = np.concatenate([sub, self.comp])
        k, n = full.shape
        aug = field.zeros(k, n + k)
        aug[:, :n] = full
        aug[:, n:] = field.eye(k)
        r, piv = field.rref(aug)
        if piv and piv[-1] >= n:
            raise ValueError("the rows of sub are linearly dependent")
        self.piv = piv
        self._echelon = r[:, :n]
        # columns of the pivot-block inverse that give comp coordinates
        self.inv = r[:, n + sub.shape[0]:]

    @property
    def dim(self) -> int:
        """Dimension of the quotient."""
        return self.comp.shape[0]

    def coords(self, vecs: np.ndarray) -> np.ndarray:
        """comp coordinates of each row of `vecs`, which must lie in the
        span (see ``spans``); one row of coordinates per row."""
        return self.field.matmul(vecs[:, self.piv], self.inv)

    @property
    def proj(self) -> np.ndarray:
        """The map of ``coords`` as a matrix acting on columns:
        ``proj @ vecs.T == coords(vecs).T``."""
        out = self.field.zeros(self.dim, self._echelon.shape[1])
        out[:, self.piv] = self.inv.T
        return out

    def residual(self, vecs: np.ndarray) -> np.ndarray:
        """Each row of `vecs` reduced against the echelon form of
        ``[sub; comp]``: zero at its pivot columns, and zero exactly on the
        rows that lie in its span.  A linear map with kernel that span."""
        f = self.field
        return f.sub(vecs, f.matmul(vecs[:, self.piv], self._echelon))

    def spans(self, vecs: np.ndarray) -> np.ndarray:
        """For each row of `vecs`: does it lie in rowspace([sub; comp])?"""
        return np.all(self.residual(vecs) == self.field.zero, axis=1)


def algebra_from_bqa_all_pairs(A) -> FinDimAlgebra:
    """``findim.algebra_from_bqa`` with ``mult_basis`` called on all
    dim A ** 2 pairs of basis paths."""
    f = A.field
    idems = [f.array([A.idempotent(v).get(k, 0) for k in range(A.dim)])
             for v in range(A.quiver.n_vertices)]
    grading = [A.path_degree(p) for p in A.basis] \
        if A.arrow_degrees is not None else None
    return FinDimAlgebra(f, A.dim, idems, grading, constants=(
        sparse_constants(f, (
            (i, j, k, c) for i in range(A.dim) for j in range(A.dim)
            for k, c in sorted(A.mult_basis(i, j).items())))))


def knit_indecomposables_by_isomorphism(A, cap: int = 200):
    """``families.knit_indecomposables`` with a module seen when it is
    isomorphic to one found, tested by ``is_isomorphic``."""
    found = []

    def seen(m):
        return any(m.dims == x.dims and is_isomorphic(m, x) for x in found)

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
                raise QuiverAlgError(f"more than {cap} indecomposables")
        frontier = nxt
    return found


def quotient_by_complement(M: Representation, spaces):
    """``modules.quotient`` through a ``row_space`` and a whole-space
    ``QuotientBasis`` per vertex."""
    q = M.algebra.quiver
    f = M.field
    projs, sections = [], []
    for v in range(q.n_vertices):
        m = spaces[v]
        S = f.row_space(m.T) if m.size else f.zeros(0, M.dims[v])
        quot = QuotientBasis(f, S)
        projs.append(quot.proj)
        sections.append(quot.comp.T)
    action = [f.matmul(projs[q.target(a)],
                       f.matmul(M.action[a], sections[q.source(a)]))
              for a in range(q.n_arrows)]
    rep = Representation(M.algebra, [c.shape[1] for c in sections], action)
    return rep, ModuleMap(M, rep, projs)
