import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quiveralg import modules
from quiveralg.errors import NonSplitEndo
from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, linear_nakayama,
                                thm39_type2)
from quiveralg.modules import (Representation, _has_iso, coregular, decompose,
                               direct_sum, dual, hom_space, injective,
                               injectives_sum, is_isomorphic,
                               kernel_subrepresentation,
                               map_from_projectives, map_kernel,
                               op_algebra, projective,
                               projective_cover, projectives_sum,
                               quotient, radical_series, regular, simple,
                               socle, subrepresentation, zero_rep)
from quiveralg.quivers import PathElement, Path, Quiver, complete_basis
from quiveralg.preprojective import preprojective_module
from references import (_generated_submodule_spaces, dual_by_transpose,
                        end_rad_by_compositions, indecomposables_isomorphic,
                        injective_envelope, map_from_projectives_by_paths,
                        minpoly_by_mult_vec, projectives_sum_fresh,
                        quotient_by_complement, random_module,
                        splitting_idempotent_by_mult_vec,
                        subrepresentation_by_solve, top)
from test_end_corners import _corpus
from test_presentation import bound_quiver_algebras

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3(field=F):
    """Linear A3 with the length-2 relation a1*a2 = 0."""
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    rel = PathElement(q, {Path(0, (0, 1)): 1})
    return complete_basis(q, field, [rel])


def test_projective_dims_a2():
    A = a2()
    assert projective(A, 0).dims == (1, 1)
    assert projective(A, 1).dims == (0, 1)


def test_injective_dims_a2():
    A = a2()
    assert injective(A, 0).dims == (1, 0)
    assert injective(A, 1).dims == (1, 1)


def test_projective_truncated_by_relation():
    A = nak_a3()
    assert projective(A, 0).dims == (1, 1, 0)


def test_modules_satisfy_relations():
    A = nak_a3()
    for v in range(3):
        projective(A, v).check_relations()
        injective(A, v).check_relations()
    regular(A).check_relations()


def test_hom_schur():
    A = a2()
    s1 = simple(A, 0)
    assert len(hom_space(s1, s1)) == 1


def test_hom_top_projection():
    A = a2()
    assert len(hom_space(projective(A, 0), simple(A, 0))) == 1


def test_hom_simple_into_projective_vanishes():
    A = a2()
    assert len(hom_space(simple(A, 0), projective(A, 0))) == 0


def test_projective_yoneda():
    A = nak_a3()
    rng = random.Random(5)
    for _ in range(10):
        m = random_module(A, rng)
        for v in range(3):
            assert len(hom_space(projective(A, v), m)) == m.dims[v]


def test_injective_coyoneda():
    A = nak_a3()
    rng = random.Random(6)
    for _ in range(10):
        m = random_module(A, rng)
        for v in range(3):
            assert len(hom_space(m, injective(A, v))) == m.dims[v]


def test_dual_projective_is_injective_of_opposite():
    A = a2()
    d = dual(projective(A, 0))
    iop = injective(op_algebra(A), 0)
    assert d.dims == iop.dims
    assert is_isomorphic(d, iop)


def test_dual_duality_hom_dims():
    A = nak_a3()
    rng = random.Random(7)
    for _ in range(6):
        m, n = random_module(A, rng), random_module(A, rng)
        assert len(hom_space(m, n)) == len(hom_space(dual(n), dual(m)))


def test_structure_simple():
    A = a2()
    S = simple(A, 0)
    assert radical_series(S)[0].total_dim == 0
    assert top(S)[0].dims == (1, 0)
    assert socle(S)[0].dims == (1, 0)


def test_structure_p1_a2():
    A = a2()
    P = projective(A, 0)
    assert top(P)[0].dims == (1, 0)
    assert radical_series(P)[0].dims == (0, 1)
    assert socle(P)[0].dims == (0, 1)


def test_projective_cover_of_simple():
    A = a2()
    cov = projective_cover(simple(A, 0))
    assert cov.source.dims == (1, 1)
    ker, _ = map_kernel(cov)
    assert ker.dims == (0, 1)
    assert cov.is_morphism()


def test_projective_cover_of_projective_is_iso():
    A = nak_a3()
    cov = projective_cover(projective(A, 1))
    ker, _ = map_kernel(cov)
    assert ker.total_dim == 0


def test_cover_of_zero():
    A = a2()
    cov = projective_cover(zero_rep(A))
    assert cov.source.total_dim == 0


def test_injective_envelope_of_simple():
    A = a2()
    env = injective_envelope(simple(A, 1))
    assert env.target.dims == (1, 1)
    assert env.is_morphism()
    assert env.target.summands == (1,)


def test_decompose_indecomposable():
    A = a2()
    p1 = projective(A, 0)
    assert decompose(p1) == [(p1, 1)]


def test_decompose_square():
    A = a2()
    p1 = projective(A, 0)
    m = direct_sum([p1, p1])
    parts = decompose(m)
    assert len(parts) == 1
    assert parts[0][1] == 2
    assert parts[0][0].dims == (1, 1)


def test_decompose_regular_nak_a3():
    A = nak_a3()
    parts = decompose(regular(A))
    assert sorted(sum(r.dims) for r, _ in parts) == [1, 2, 2]
    assert all(m == 1 for _, m in parts)


def test_decompose_mixed_multiplicities():
    A = a2()
    m = direct_sum([projective(A, 0), simple(A, 0), projective(A, 0),
                          simple(A, 1)])
    parts = decompose(m)
    out = sorted((r.dims, mult) for r, mult in parts)
    assert out == [((0, 1), 1), ((1, 0), 1), ((1, 1), 2)]


def test_is_isomorphic_basic():
    A = a2()
    assert is_isomorphic(projective(A, 0), projective(A, 0))
    assert not is_isomorphic(simple(A, 0), simple(A, 1))
    assert is_isomorphic(projective(A, 0), injective(A, 1))


def test_direct_sum_reassembly():
    A = nak_a3()
    rng = random.Random(9)
    m = random_module(A, rng)
    parts = decompose(m)
    reps = []
    for rep, mult in parts:
        reps.extend([rep] * mult)
    if reps:
        total = direct_sum(reps)
        assert is_isomorphic(total, m)


def test_coregular_is_sum_of_injectives():
    A = nak_a3()
    d = coregular(A)
    assert d.total_dim == A.dim
    parts = decompose(d)
    assert len(parts) == 3


# -- per-algebra projective blocks, against the per-call constructions ----

FIELDS = pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])


def _algebras(field):
    return [canonical_2222(3, field), linear_nakayama(4, field)]


def _map_from_projectives_reference(P, M, gen_images):
    """Each basis path's column from its own act_word matmul chain."""
    A, f = P.algebra, P.field
    nv = A.quiver.n_vertices
    blocks = [f.zeros(M.dims[j], P.dims[j]) for j in range(nv)]
    for s, v in enumerate(P.summands):
        for j in range(nv):
            for k, b in enumerate(A.basis_between(v, j)):
                vec = f.matmul(M.act_word(A.basis[b].arrows, v),
                               gen_images[s])
                blocks[j][:, P.offsets[s][j] + k] = vec[:, 0]
    return blocks


def _projective_cover_reference(M):
    """The unit basis of M/rad M, lifted back to M by a solve."""
    A, f = M.algebra, M.field
    top_M, top_proj = top(M)
    slots, gens = [], []
    for v in range(A.quiver.n_vertices):
        mu = top_M.dims[v]
        if mu:
            sec = f.solve(top_proj.blocks[v], f.eye(mu))
            slots += [v] * mu
            gens += [sec[:, r:r + 1] for r in range(mu)]
    P = projectives_sum(A, slots)
    return map_from_projectives(P, M, gens)


def _random_column(f, rng, n):
    col = f.zeros(n, 1)
    for r in range(n):
        col[r, 0] = f.rand_el(rng)
    return col


def _twist(M, rng):
    """M with a random change of basis at every vertex, so that rad M is
    not spanned by unit vectors."""
    f, q = M.field, M.algebra.quiver
    gs = []
    for d in M.dims:
        while True:
            g = f.zeros(d, d)
            for r in range(d):
                g[r] = _random_column(f, rng, d)[:, 0]
            if f.rank(g) == d:
                break
        gs.append(g)
    inv = [f.solve(g, f.eye(g.shape[0])) for g in gs]
    out = Representation(M.algebra, M.dims, [
        f.matmul(gs[q.target(a)], f.matmul(m, inv[q.source(a)]))
        for a, m in enumerate(M.action)])
    out.check_relations()
    return out


def _equal_blocks(f, got, want):
    return len(got) == len(want) and all(
        a.dtype == b.dtype and f.equal(a, b) for a, b in zip(got, want))


@FIELDS
def test_projectives_sum_matches_mult_basis_reference(field):
    for A in _algebras(field):
        nv = A.quiver.n_vertices
        for verts in ([0], list(range(nv)), [nv - 1, 0, nv - 1, 1]):
            P = projectives_sum(A, verts)
            want = projectives_sum_fresh(A, verts)
            assert P.dims == want.dims and P.offsets == want.offsets
            assert _equal_blocks(field, P.action, want.action)
            assert P.summands == tuple(verts)


@FIELDS
def test_map_from_projectives_matches_act_word_reference(field):
    rng = random.Random(41)
    for A in _algebras(field):
        nv = A.quiver.n_vertices
        for _ in range(6):
            M = _twist(random_module(A, rng), rng)
            slots = [rng.randrange(nv) for _ in range(rng.randint(1, 4))]
            P = projectives_sum(A, slots)
            gens = [_random_column(field, rng, M.dims[v]) for v in slots]
            phi = map_from_projectives(P, M, gens)
            assert _equal_blocks(field, phi.blocks,
                                 _map_from_projectives_reference(P, M, gens))
            assert phi.is_morphism()


@FIELDS
def test_projective_cover_matches_top_and_solve_reference(field):
    rng = random.Random(43)
    for A in _algebras(field):
        mods = [regular(A), coregular(A), zero_rep(A)]
        for _ in range(6):
            M = random_module(A, rng)
            mods += [M, _twist(M, rng)]
        mods.append(direct_sum(mods[-3:]))
        for M in mods:
            got, want = projective_cover(M), _projective_cover_reference(M)
            assert got.source.summands == want.source.summands
            assert _equal_blocks(field, got.blocks, want.blocks)
            assert _equal_blocks(field, got.source.action,
                                 want.source.action)


@FIELDS
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tagged_sums_match_the_fresh_references(field, data):
    """The shared sums equal sums built afresh, the injective sum is the
    transposed projective sum over the opposite algebra, the precomputed
    walk gives the Path-lookup walk's map, and D(D(X)) is X."""
    A = data.draw(bound_quiver_algebras(field))
    nv = A.quiver.n_vertices
    vs = tuple(data.draw(st.lists(st.integers(0, nv - 1), max_size=4)))
    P, I = projectives_sum(A, vs), injectives_sum(A, vs)
    pairs = ((P, projectives_sum_fresh(A, vs)),
             (I, dual_by_transpose(projectives_sum_fresh(op_algebra(A), vs))))
    for got, want in pairs:
        assert got.algebra is want.algebra
        assert (got.dims, got.offsets, got.summands, got.tag_kind) == (
            want.dims, want.offsets, want.summands, want.tag_kind)
        assert _equal_blocks(field, got.action, want.action)
        assert dual(dual(got)) is got
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M = random_module(A, rng)
    gens = [_random_column(field, rng, M.dims[v]) if data.draw(st.booleans())
            else field.zeros(M.dims[v], 1) for v in vs]
    assert _equal_blocks(field, map_from_projectives(P, M, gens).blocks,
                         map_from_projectives_by_paths(P, M, gens).blocks)


@FIELDS
def test_writing_to_a_projective_leaves_the_next_one_unchanged(field):
    """A tagged sum is built once per algebra and shared by every caller,
    so a write made through one caller must not reach the next: every
    arrow matrix refuses writes, and the next call returns the same module
    with the same values."""
    A = canonical_2222(3, field)
    for make in (projectives_sum, injectives_sum):
        first = make(A, [0, 1])
        kept = [m.copy() for m in first.action]
        written = [m for m in first.action if m.size]
        assert written
        for m in written:
            with pytest.raises(ValueError):
                m[...] = field.one
        again = make(A, [0, 1])
        assert again is first
        assert _equal_blocks(field, again.action, kept)
    blocks = A.projective_blocks(0).blocks
    assert blocks
    for _, _, _, blk in blocks:
        with pytest.raises(ValueError):
            blk[0, 0] = field.one


def truncated_polynomials(length, field):
    """k[x]/(x^length)."""
    q = Quiver(["1"], [("x", "1", "1")])
    return complete_basis(
        q, field, [PathElement(q, {Path(0, (0,) * length): 1})])


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("length", [5, 6])
def test_is_isomorphic_without_random_trials(field, length):
    """Hom(P, P) of P = k[x]/(x^L) has the identity as its L-th basis map,
    past the first four; the basis-map test must look at all of them."""
    P = projective(truncated_polynomials(length, field), 0)
    assert len(hom_space(P, P)) == length
    assert is_isomorphic(P, P)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
def test_is_isomorphic_refuses_nonisomorphic_indecomposables(field):
    """On k<x, y>/(x, y)^2, the modules of dimension 2 on which x, resp.
    y, acts by a nonzero nilpotent are indecomposable and not isomorphic,
    though each maps to the other (top onto socle)."""
    f = field
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    A = complete_basis(q, f, [PathElement(q, {Path(0, w): 1})
                              for w in [(0, 0), (0, 1), (1, 0), (1, 1)]])
    nil = f.array([[0, 0], [1, 0]])
    Mx = Representation(A, [2], [nil, f.zeros(2, 2)])
    My = Representation(A, [2], [f.zeros(2, 2), nil])
    Mx.check_relations()
    My.check_relations()
    assert len(hom_space(Mx, My)) == len(hom_space(My, Mx)) == 1
    assert [m for _, m in decompose(Mx)] == [1]
    assert not is_isomorphic(Mx, My)
    assert is_isomorphic(Mx, Mx)


def _cubic_modules(field):
    """P = k[x]/(x^3), Q2 = k[x]/(x^2) and S = k over k[x]/(x^3)."""
    A = truncated_polynomials(3, field)
    Q2 = Representation(A, [2], [field.array([[0, 0], [1, 0]])])
    Q2.check_relations()
    return {"P": projective(A, 0), "Q2": Q2, "S": simple(A, 0)}


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("left, right, iso", [
    ("P P", "P P", True),
    ("Q2 S", "S Q2", True),
    ("P P Q2", "P Q2 P", True),
    ("P", "Q2 S", False),
    ("Q2 S", "P", False),
    # dim Hom(S^3, Q2+S) = 6 < 9 = dim End(S^3), so S^3 is refused
    # before any decompose
    ("S S S", "Q2 S", False),
])
def test_is_isomorphic_on_sums_over_cubic_polynomials(field, left, right,
                                                      iso):
    mods = _cubic_modules(field)
    M = direct_sum([mods[k] for k in left.split()])
    N = direct_sum([mods[k] for k in right.split()])
    assert is_isomorphic(M, N) is iso


@pytest.mark.parametrize("summand", ["S", "Q2", "P"])
def test_decompose_splits_a_cube_over_rationals(summand):
    """End/rad of X^3 is M_3(Q), whose random elements rarely have a
    minimal polynomial with a root in [-12, 12]; decompose then splits
    with a basis element of End/rad, such as a matrix unit (x^2 - x)."""
    X = _cubic_modules(QQ)[summand]
    parts = decompose(direct_sum([X, X, X]))
    assert [(Y.dims, m) for Y, m in parts] == [(X.dims, 3)]
    assert _has_iso(parts[0][0], X)


def test_is_isomorphic_refuses_decomposable_modules_over_small_fields():
    """Over GF(5) no basis map of End(P+P) is invertible, so the summands
    must be matched, and decompose refuses p <= dim M."""
    P = _cubic_modules(GF(5))["P"]
    with pytest.raises(NonSplitEndo):
        is_isomorphic(direct_sum([P, P]), direct_sum([P, P]))


def _summand_algebras(field):
    return [nak_a3(field),
            auslander_algebra(dynkin_path_algebra(3, ["f", "b"], field)),
            thm39_type2(2, ["gamma"], field)]


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("k", range(3), ids=["nak_a3", "aus_A3-nonlinear",
                                             "thm39_type2_2"])
def test_basis_map_test_equals_product_test_on_indecomposables(field, k):
    """The summands of the preprojective module (n = 2), with the
    indecomposable injectives and simples, which repeat some of them as
    other objects."""
    A = _summand_algebras(field)[k]
    nv = A.quiver.n_vertices
    reps = (preprojective_module(A, 2).summand_reps
            + [injective(A, v) for v in range(nv)]
            + [simple(A, v) for v in range(nv)])
    pairs = [(X, Y) for X in reps for Y in reps if X.dims == Y.dims]
    assert len(pairs) > len(reps)
    for X, Y in pairs:
        assert _has_iso(X, Y) == indecomposables_isomorphic(X, Y)


# -- the k-dual of a tagged sum carries its tags -----------------------------

def aus_a3_nonlinear(field):
    """The Auslander algebra of A3 with one sink and one source inside,
    from its presentation."""
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [("a1", "1", "5"), ("a2", "2", "1"), ("a3", "2", "3"),
                ("a4", "3", "5"), ("a5", "5", "4"), ("a6", "5", "6")])
    return complete_basis(q, field, [
        PathElement(q, {Path(0, (0, 4)): 1}),
        PathElement(q, {Path(1, (1, 0)): 1, Path(1, (2, 3)): 1}),
        PathElement(q, {Path(2, (3, 5)): 1})])


FIELD_NAMED = {"GF": GF(32003), "QQ": QQ}
BUILDERS = {
    "nak_a3": nak_a3,
    "aus_a3_nonlinear": aus_a3_nonlinear,
    "canonical_2222_2": lambda f: canonical_2222(2, f),
    "thm39_type2_3": lambda f: thm39_type2(3, ["gamma", "delta"], f),
}
CASES = [pytest.param(name, fname, id=f"{name}-{fname}")
         for name in BUILDERS for fname in FIELD_NAMED]


def _sum_vertices(A):
    """Every vertex once, then the last and the first again, so that
    repeated summands and slot shifts are exercised."""
    n = A.quiver.n_vertices
    return list(range(n)) + [n - 1, 0]


def _same_tagged(X, Y):
    f = X.field
    return (X.algebra is Y.algebra and X.dims == Y.dims
            and X.summands == Y.summands and X.offsets == Y.offsets
            and X.tag_kind == Y.tag_kind
            and all(f.equal(a, b) for a, b in zip(X.action, Y.action)))


@pytest.mark.parametrize("name,fname", CASES)
def test_dual_carries_the_tags(name, fname):
    A = BUILDERS[name](FIELD_NAMED[fname])
    Aop = op_algebra(A)
    vs = _sum_vertices(A)
    P = projectives_sum(A, vs)
    assert _same_tagged(dual(P), injectives_sum(Aop, vs))
    assert _same_tagged(dual(dual(P)), P)
    I = injectives_sum(A, vs)
    assert I.tag_kind == "I" and I.summands == tuple(vs)
    assert _same_tagged(dual(I), projectives_sum(Aop, vs))
    assert _same_tagged(dual(dual(I)), I)


# -- the syzygy step on the module's support ---------------------------------

def _assert_same_subrep(f, got, want):
    (rep, incl), (rep2, incl2) = got, want
    assert rep.dims == rep2.dims
    assert _equal_blocks(f, rep.action, rep2.action)
    assert _equal_blocks(f, incl.blocks, incl2.blocks)


def _kernels(f, maps):
    return [f.kernel(m).T for m in maps]


def _outs_and_ins(M):
    """The stacked arrows out of and into each vertex, as ``socle`` and
    ``radical_series`` stack them."""
    q, f = M.algebra.quiver, M.field
    outs, ins = [], []
    for v in range(q.n_vertices):
        o = [M.action[a] for a in q.arrows_from(v)]
        i = [M.action[a] for a in q.arrows_into(v)]
        outs.append(np.concatenate(o) if o else f.zeros(0, M.dims[v]))
        ins.append(np.concatenate(i, axis=1) if i
                   else f.zeros(M.dims[v], 0))
    return outs, ins


def _assert_support_routes(M, steps=2):
    """The cover of M and of its first syzygies, their kernels, the socle
    and the radical equal the parent's routes: the cover from the top and
    a solve, every subrepresentation by ``row_space`` and ``solve``."""
    f = M.field
    outs, ins = _outs_and_ins(M)
    _assert_same_subrep(f, socle(M),
                        subrepresentation_by_solve(M, _kernels(f, outs)))
    _assert_same_subrep(f, radical_series(M),
                        subrepresentation_by_solve(M, ins))
    for _ in range(steps):
        cov = projective_cover(M)
        want = _projective_cover_reference(M)
        assert cov.source.summands == want.source.summands
        assert _equal_blocks(f, cov.blocks, want.blocks)
        got = map_kernel(cov)
        _assert_same_subrep(f, got, subrepresentation_by_solve(
            cov.source, _kernels(f, cov.blocks)))
        M = got[0]


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_support_routes_match_the_solve_routes_on_drawn_algebras(field,
                                                                 data):
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M = random_module(A, rng)
    for X in (regular(A), coregular(A), zero_rep(A), M, _twist(M, rng)):
        _assert_support_routes(X)


CORPUS_MODULES = [pytest.param(make, id=label)
                  for label, make, _ in _corpus(F)] + [
    pytest.param(make, id=label + "-QQ")
    for label, make, _ in _corpus(QQ)[:6]]


@pytest.mark.parametrize("make", CORPUS_MODULES)
def test_support_routes_match_the_solve_routes_on_the_corpus(make):
    A = make()
    for X in [regular(A), coregular(A)] + [
            simple(A, v) for v in range(A.quiver.n_vertices)]:
        _assert_support_routes(X, steps=3)


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subrepresentation_raises_where_solve_finds_no_action(field, data):
    """Spaces that a few random vectors generate are arrow-stable; one
    more random column at a vertex where some arrow out of it acts by a
    nonzero matrix mostly makes them unstable.  The pivot route raises
    exactly where a solve has no solution, and gives the solve's answer
    everywhere else."""
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M = random_module(A, rng)
    q = A.quiver
    nz = [v for v in range(q.n_vertices) if M.dims[v]]
    gens = [(v, _random_column(field, rng, M.dims[v]))
            for v in (rng.choice(nz) for _ in range(rng.randint(0, 2)))]
    spaces = _generated_submodule_spaces(M, gens)
    acting = [v for v in nz if any(M.action[a].any()
                                   for a in q.arrows_from(v))]
    if acting and data.draw(st.booleans()):
        v = rng.choice(acting)
        spaces[v] = np.concatenate(
            [spaces[v], _random_column(field, rng, M.dims[v])], axis=1)
    try:
        want = subrepresentation_by_solve(M, spaces)
    except ValueError:
        with pytest.raises(ValueError, match="not arrow-stable"):
            subrepresentation(M, spaces)
        return
    _assert_same_subrep(field, subrepresentation(M, spaces), want)


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_equals_the_complement_route_on_drawn_modules(field, data):
    """One ``kernel_rref`` per vertex gives the blocks and dtypes of the
    route through ``row_space`` and ``QuotientBasis``: modulo a drawn
    submodule spanned with a repeated and a zero column, modulo the
    radical, spanned by the arrows into each vertex, and modulo nothing
    and everything."""
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M = random_module(A, rng)
    if data.draw(st.booleans()):
        M = _twist(M, rng)
    nz = [v for v in range(A.quiver.n_vertices) if M.dims[v]]
    gens = [(v, _random_column(field, rng, M.dims[v]))
            for v in (rng.choice(nz) for _ in range(rng.randint(0, 3)))]
    sub = [np.concatenate([s, s[:, :1], field.zeros(s.shape[0], 1)], axis=1)
           for s in _generated_submodule_spaces(M, gens)]
    for spaces in (sub, _outs_and_ins(M)[1],
                   [field.zeros(d, 0) for d in M.dims],
                   [field.eye(d) for d in M.dims]):
        (rep, pi), (want, want_pi) = (quotient(M, spaces),
                                      quotient_by_complement(M, spaces))
        assert rep.dims == want.dims
        for x, y in zip(rep.action + tuple(pi.blocks),
                        want.action + tuple(want_pi.blocks)):
            assert x.dtype == y.dtype and field.equal(x, y)


@FIELDS
def test_decompose_checks_each_product_against_its_end_coordinates(
        field, monkeypatch):
    """End(M) is read at the free columns of its Hom basis, and each
    product of End/rad is checked to be the combination those entries
    give; read at the first nonzero entries instead, the check fails."""
    M = _twist(regular(dynkin_path_algebra(3, None, field)),
               random.Random(3))
    assert len(decompose(M)) == 3
    monkeypatch.setattr(modules, "_free_columns",
                        lambda f, flat: np.argmax(flat != f.zero, axis=1))
    with pytest.raises(AssertionError, match="not in End"):
        decompose(M)


def _assert_end_rad_as_by_compositions(M):
    """For M and every module that decompose(M) splits on the way: End/rad
    from constants has the constants, idempotents and units of the route
    that composes every pair of picks; a drawn element and each basis
    element have the minimal polynomial that ``mult_vec`` powers give; and
    the splitting idempotent is the one that route finds from the same
    generator state, or both routes raise."""
    found, splits = [], {}
    real_end_rad, real_split = modules._end_rad, modules._splitting_idempotent

    def end_rad(N, basis):
        found.append((N, basis, real_end_rad(N, basis)))
        return found[-1][2]

    def split(S, rng):
        state = rng.getstate()
        try:
            splits[id(S)] = (state, real_split(S, rng))
        except NonSplitEndo:
            splits[id(S)] = (state, None)
            raise
        return splits[id(S)][1]

    with mock.patch.object(modules, "_end_rad", side_effect=end_rad), \
            mock.patch.object(modules, "_splitting_idempotent",
                              side_effect=split):
        try:
            decompose(M)
        except NonSplitEndo:
            pass
    assert found
    for N, basis, got in found:
        want = end_rad_by_compositions(N, basis)
        if want is None:
            assert got is None
            continue
        (S, units), (R, want_units) = got, want
        f = S.field
        assert units == want_units and S.dim == R.dim
        for x, y in zip(S.constants + tuple(S.idempotents),
                        R.constants + tuple(R.idempotents)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        rng = random.Random(S.dim)
        for s in [f.array([f.rand_el(rng) for _ in range(S.dim)])] + \
                list(f.eye(S.dim)):
            assert modules._minpoly_in(S, s) == minpoly_by_mult_vec(R, s)
        state, idem = splits[id(S)]
        rng.setstate(state)
        try:
            ref = splitting_idempotent_by_mult_vec(R, rng)
        except NonSplitEndo:
            ref = None
        assert (idem is None) == (ref is None)
        assert idem is None or np.array_equal(idem, ref)


@pytest.mark.parametrize("make, n", [
    pytest.param(make, n, id=label) for label, make, n in _corpus(F)])
def test_end_rad_from_constants_is_the_composition_route_on_the_orbit(make,
                                                                      n):
    """On tau_n^{-i} A for each i, over the corpus algebras."""
    A = make()
    for M in preprojective_module(A, n).orbit:
        if not M.is_zero():
            _assert_end_rad_as_by_compositions(M)


def _drawn_sum(field, data, gens):
    """M + N + M for modules M and N drawn over a drawn algebra, each a
    quotient of a sum of at most ``gens`` projectives."""
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M, N = random_module(A, rng, gens), random_module(A, rng, gens)
    return direct_sum([M, N, M])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_end_rad_from_constants_is_the_composition_route_on_drawn_modules(
        data):
    _assert_end_rad_as_by_compositions(_drawn_sum(F, data, 3))


# over Q the repeated summand makes End/rad a matrix algebra whose drawn
# elements rarely split, so most splits try all 32 draws, on Fractions
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_end_rad_from_constants_is_the_composition_route_over_q(data):
    _assert_end_rad_as_by_compositions(_drawn_sum(QQ, data, 2))


@FIELDS
def test_spaces_that_are_not_arrow_stable_raise(field):
    """On 1 -> 2: the generator of P_1 spans a space whose image under the
    arrow leaves the space at 2, when that space is 0 and when it is
    another line of P_1 + P_1."""
    A = complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), field, [])
    P, PP = projective(A, 0), projectives_sum(A, [0, 0])
    e1, e2 = field.array([[1], [0]]), field.array([[0], [1]])
    cases = [(P, [field.eye(1), field.zeros(1, 0)],
              [field.zeros(0, 1), field.eye(1)]),
             (PP, [e1, e2], [e2.T, e1.T])]
    for M, spaces, maps in cases:
        for make, arg in ((subrepresentation, spaces),
                          (subrepresentation_by_solve, spaces),
                          (kernel_subrepresentation, maps)):
            with pytest.raises(ValueError, match="not arrow-stable"):
                make(M, arg)
    # the same spaces one arrow earlier are stable
    rep, _ = subrepresentation(PP, [e1, e1])
    assert rep.dims == (1, 1) and field.equal(rep.action[0], field.eye(1))


@pytest.mark.parametrize("make", CORPUS_MODULES[:4] + CORPUS_MODULES[-3:])
def test_the_syzygy_step_makes_no_empty_product(monkeypatch, make):
    """A cover, its kernel and a socle multiply only where both ends of
    an arrow are nonzero: no product they make has an empty result."""
    A = make()
    f = A.field
    mods = [regular(A), coregular(A)] + [
        simple(A, v) for v in range(A.quiver.n_vertices)]
    shapes = []
    real = type(f).matmul

    def recording(self, a, b):
        shapes.append((a.shape[0], b.shape[1]))
        return real(self, a, b)

    monkeypatch.setattr(type(f), "matmul", recording)
    for M in mods:
        socle(M)
        for _ in range(3):
            M, _ = map_kernel(projective_cover(M))
    assert shapes and all(m and n for m, n in shapes)
