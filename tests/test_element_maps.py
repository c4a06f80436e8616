"""The element <-> map correspondence for tagged projective and injective
sums, the shared nu / Tr presentation and the cone-rank quasi-isomorphism
test, each against a per-entry reference over GF(32003) and QQ."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quiveralg.derived import (ChainMap, ComplexOfModules, module_complex,
                               proj_resolve_complex)
from quiveralg.exactla import GF, QQ
from quiveralg.families import auslander_algebra, dynkin_path_algebra
from quiveralg.homology import (elements_of_map, map_of_elements, op_element,
                                transpose, transpose_entries)
from quiveralg.modules import (ModuleMap, dual, dual_map, injective,
                               injectives_sum, map_cokernel,
                               map_from_projectives, map_kernel, op_algebra,
                               projective, projective_cover, projectives_sum,
                               simple, zero_rep)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import QuotientBasis, nu_module, random_module

FIELDS = {"GF": GF(32003), "QQ": QQ}


@functools.lru_cache(maxsize=None)
def algebra(name, fname):
    f = FIELDS[fname]
    if name == "nak_a3":
        q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
        return complete_basis(q, f, [PathElement(q, {Path(0, (0, 1)): 1})])
    if name == "aus_a3_nonlinear":
        return auslander_algebra(dynkin_path_algebra(3, ["f", "b"], f))
    return dynkin_path_algebra(4, field=f)


CASES = [(a, f) for a in ("nak_a3", "aus_a3_nonlinear", "A4")
         for f in FIELDS]
IDS = [f"{a}-{f}" for a, f in CASES]


# ---------------------------------------------------------------------------
# references: one entry at a time
# ---------------------------------------------------------------------------

def _component_map(A, kind, bvert, cvert, elem):
    """Map P_b -> P_c (resp. I_b -> I_c) given by x in e_c A e_b, built
    from two one-summand modules."""
    f = A.field
    if kind == "P":
        src = projectives_sum(A, [bvert])
        tgt = projectives_sum(A, [cvert])
        img = f.zeros(tgt.dims[bvert], 1)
        paths = A.basis_between(cvert, bvert)
        pos = {b: k for k, b in enumerate(paths)}
        for b, c in elem.items():
            img[pos[b], 0] = c
        return map_from_projectives(src, tgt, [img])
    Aop = op_algebra(A)
    srcop = projectives_sum(Aop, [cvert])
    tgtop = projectives_sum(Aop, [bvert])
    opel = op_element(A, elem)
    img = f.zeros(tgtop.dims[cvert], 1)
    paths = Aop.basis_between(bvert, cvert)
    pos = {b: k for k, b in enumerate(paths)}
    for b, c in opel.items():
        img[pos[b], 0] = c
    m = map_from_projectives(srcop, tgtop, [img])
    return dual_map(m)  # I_b -> I_c over A


def _add_block(f, blocks, src, u, tgt, w, comp):
    for v in range(len(blocks)):
        b = comp.blocks[v]
        if b.size == 0:
            continue
        ro = tgt.offsets[w][v]
        co = src.offsets[u][v]
        blocks[v][ro:ro + b.shape[0], co:co + b.shape[1]] = f.add(
            blocks[v][ro:ro + b.shape[0], co:co + b.shape[1]], b)


def write_ref(A, kind, entries, src, tgt):
    f = A.field
    blocks = [f.zeros(tgt.dims[v], src.dims[v])
              for v in range(A.quiver.n_vertices)]
    for (w, u), elem in entries.items():
        comp = _component_map(A, kind, src.summands[u], tgt.summands[w],
                              elem)
        _add_block(f, blocks, src, u, tgt, w, comp)
    return ModuleMap(src, tgt, blocks)


def element_matrix_ref(d):
    """A map between tagged projective sums as (target slot, source slot)
    -> element of e_{a_v} A e_{b_u}, read one entry at a time."""
    P1, P0 = d.source, d.target
    A = P0.algebra
    out = {}
    for u, bu in enumerate(P1.summands):
        col = P1.offsets[u][bu]
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


def _presentation(M):
    aug = projective_cover(M)
    ker, incl = map_kernel(aug)
    if ker.is_zero():
        return aug.source, None
    cov1 = projective_cover(ker)
    return aug.source, cov1.compose(incl)


def transpose_ref(M):
    """Cokernel of Hom(P0, A) -> Hom(P1, A), built generator by generator."""
    A = M.algebra
    Aop = op_algebra(A)
    if M.is_zero():
        return zero_rep(Aop)
    P0, d = _presentation(M)
    if d is None:
        return zero_rep(Aop)
    P1 = d.source
    elems = element_matrix_ref(d)
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
    return map_cokernel(F)[0]


def nu_module_ref(M):
    """coker nu(d), with nu(d) assembled one entry at a time."""
    A = M.algebra
    if M.is_zero():
        return zero_rep(A)
    P0, d = _presentation(M)
    I0 = injectives_sum(A, P0.summands)
    if d is None:
        return I0
    I1 = injectives_sum(A, d.source.summands)
    nu_d = write_ref(A, "I", element_matrix_ref(d), I1, I0)
    return map_cokernel(nu_d)[0]


def quasi_iso_ref(phi):
    """At every degree and vertex the induced map on cocycles modulo
    coboundaries is square and of full rank."""
    X, Y = phi.source, phi.target
    f = X.algebra.field

    def cohomology(C, i, v):
        d, dprev = C.diffs.get(i), C.diffs.get(i - 1)
        dim = C.term(i).dims[v]
        cycles = f.kernel(d.blocks[v]) if d is not None else f.eye(dim)
        bounds = f.row_space(dprev.blocks[v].T) if dprev is not None else \
            f.zeros(0, dim)
        return QuotientBasis(f, bounds, cycles)

    for i in range(min(X.lo, Y.lo), max(X.hi, Y.hi) + 1):
        part = phi.parts.get(i)
        for v in range(X.algebra.quiver.n_vertices):
            hs, ht = cohomology(X, i, v), cohomology(Y, i, v)
            if hs.dim != ht.dim:
                return False
            if hs.dim == 0:
                continue
            if part is None:
                return False
            images = f.matmul(part.blocks[v], hs.comp.T).T
            if f.rank(ht.coords(images)) < ht.dim:
                return False
    return True


# ---------------------------------------------------------------------------
# the writer and the reader
# ---------------------------------------------------------------------------

def _random_entries(A, rng, src_verts, tgt_verts):
    """Random entries in the order the reader returns them: u, then w."""
    f = A.field
    entries = {}
    for u, b in enumerate(src_verts):
        for w, c in enumerate(tgt_verts):
            if rng.random() < 0.3:
                continue
            elem = {}
            for p in A.basis_between(c, b):
                if rng.random() < 0.7:
                    elem[p] = f.rand_el(rng)
            elem = {p: x for p, x in elem.items() if x != f.zero}
            if elem:
                entries[(w, u)] = elem
    return entries


def _same_map(m1, m2):
    f = m1.field
    assert m1.source is m2.source and m1.target is m2.target
    for b1, b2 in zip(m1.blocks, m2.blocks):
        assert b1.dtype == b2.dtype
        assert f.equal(b1, b2)


@pytest.mark.parametrize("name,fname", CASES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_the_per_entry_writer_and_reads_back(name, fname,
                                                            seed):
    A = algebra(name, fname)
    Aop = op_algebra(A)
    rng = random.Random(seed)
    nv = A.quiver.n_vertices
    for kind, make in (("P", projectives_sum), ("I", injectives_sum)):
        src_verts = [rng.randrange(nv) for _ in range(rng.randint(1, 4))]
        tgt_verts = [rng.randrange(nv) for _ in range(rng.randint(1, 4))]
        src, tgt = make(A, src_verts), make(A, tgt_verts)
        entries = _random_entries(A, rng, src_verts, tgt_verts)
        if kind == "P":
            got = map_of_elements(A, entries, src, tgt)
            back = elements_of_map(A, got, src, tgt)
        else:
            # an injective map is the k-dual of the transposed projective
            # map over A^op, and is read back through its dual
            got = dual_map(map_of_elements(
                Aop, transpose_entries(A, entries), dual(tgt), dual(src)))
            Dgot = dual_map(got)
            back = transpose_entries(Aop, elements_of_map(
                Aop, Dgot, Dgot.source, Dgot.target))
        _same_map(got, write_ref(A, kind, entries, src, tgt))
        assert list(back.items()) == list(entries.items())
        if kind == "P":
            assert back == element_matrix_ref(got)


# ---------------------------------------------------------------------------
# nu and Tr from the shared presentation
# ---------------------------------------------------------------------------

def _same_module(M1, M2):
    f = M1.field
    assert M1.algebra is M2.algebra
    assert M1.dims == M2.dims
    assert all(f.equal(a, b) for a, b in zip(M1.action, M2.action))


@pytest.mark.parametrize("name,fname", CASES, ids=IDS)
def test_transpose_and_nu_match_their_references(name, fname):
    A = algebra(name, fname)
    nv = A.quiver.n_vertices
    rng = random.Random(19)
    mods = [zero_rep(A)]
    mods += [make(A, v) for make in (simple, projective, injective)
             for v in range(nv)]
    mods += [random_module(A, rng) for _ in range(6)]
    for M in mods:
        Tr = transpose(M)
        assert Tr.algebra is op_algebra(A)
        _same_module(Tr, transpose_ref(M))
        _same_module(nu_module(M), nu_module_ref(M))


# ---------------------------------------------------------------------------
# quasi-isomorphisms by cone ranks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fname", list(FIELDS))
def test_cone_rank_quasi_iso_matches_the_cohomology_reference(fname):
    A = algebra("nak_a3", fname)
    f = A.field
    rng = random.Random(7)
    cases = []
    for M in [simple(A, v) for v in range(3)] + \
            [random_module(A, rng) for _ in range(4)]:
        X = module_complex(M)
        P, eps = proj_resolve_complex(X)
        cases.append(eps)
        # the zero map from the resolution
        cases.append(ChainMap(P, X, {}))
        ident = {i: ModuleMap(t, t, [f.eye(d) for d in t.dims])
                 for i, t in P.terms.items()}
        cases.append(ChainMap(P, P, ident))
        double = {i: p.scale(f.el(2)) for i, p in ident.items()}
        cases.append(ChainMap(P, P, double))
    p0 = projective(A, 0)
    ident = ModuleMap(p0, p0, [f.eye(d) for d in p0.dims])
    acyclic = ComplexOfModules(A, {0: p0, 1: p0}, {0: ident})
    acyclic.check_d_squared()
    zero = {i: ModuleMap(t, t, [f.zeros(d, d) for d in t.dims])
            for i, t in acyclic.terms.items()}
    checked = [ChainMap(acyclic, acyclic, zero),
               ChainMap(module_complex(zero_rep(A)), acyclic, {})]
    # X zero at every vertex and Y not: the vertices of Y decide
    checked += [ChainMap(module_complex(zero_rep(A)), module_complex(M), {})
                for M in [simple(A, v) for v in range(3)] + [p0]]
    assert all(phi.is_chain_map() for phi in checked)
    cases += checked
    verdicts = [phi.induces_cohomology_iso() for phi in cases]
    assert verdicts == [quasi_iso_ref(phi) for phi in cases]
    assert True in verdicts and False in verdicts
