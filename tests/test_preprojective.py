
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quiveralg import preprojective as pp
from quiveralg.errors import NotTauFinite
from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, higher_auslander_chain,
                                linear_nakayama, thm39_type2)
from quiveralg.findim import quiver_presentation, vertex_labels
from quiveralg.homology import (global_dimension, min_proj_resolution,
                                tau_n_inv)
from quiveralg.modules import (coregular, direct_sum, map_from_projectives,
                               projective, regular, simple)
from quiveralg.preprojective import (ext_bimodule, preprojective_algebra,
                                     preprojective_module, stable_endomorphism)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import (QuotientBasis, action_entries, algebra_from_rows,
                        check_associativity, dense_actions, ext_by_cocycles,
                        ext_bimodule_per_element, left_mult_map,
                        left_mult_on_coregular,
                        preprojective_algebra_by_blocks, stable_hom)
from test_presentation import bound_quiver_algebras

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1})])


def semisimple2():
    return complete_basis(Quiver(["1", "2"], []), F, [])


def test_ext_bimodule_semisimple_is_zero():
    E = ext_bimodule(semisimple2(), 1)
    assert E.dim == 0


def test_ext_bimodule_a2():
    A = a2()
    E = ext_bimodule(A, 1)
    assert E.dim == 1
    assert E.dim == tau_n_inv(regular(A), 1).total_dim


def test_ext_bimodule_dim_matches_translate_nak_a3():
    A = nak_a3()
    E = ext_bimodule(A, 2)
    assert E.dim == tau_n_inv(regular(A), 2).total_dim == 1


def test_ext_bimodule_actions_commute():
    A = a2()
    E = ext_bimodule(A, 1)
    f = A.field
    L, R = (dense_actions(f, a, A.dim, E.dim) for a in (E.left, E.right))
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f.matmul(L[i], R[j])
            rhs = f.matmul(R[j], L[i])
            assert f.equal(lhs, rhs)


def projective_free_part(split):
    return direct_sum([r for r, g in zip(split.summand_reps,
                                         split.summand_grades) if g > 0])


def test_preprojective_module_a2():
    A = a2()
    split = preprojective_module(A, 1)
    assert split.dim == 4
    assert split.grade_dims == [3, 1]
    assert len(split.summand_reps) == 3
    dims = sorted(r.dims for r in split.summand_reps)
    assert dims == [(0, 1), (1, 0), (1, 1)]
    assert projective_free_part(split).dims == (1, 0)


def test_preprojective_module_nak_a3():
    A = nak_a3()
    split = preprojective_module(A, 2)
    assert split.dim == 6
    assert split.grade_dims == [5, 1]
    assert projective_free_part(split).dims == (1, 0, 0)
    # P1, P2, P3 and the simple S1
    assert len(split.summand_reps) == 4


def test_preprojective_module_not_tau_finite():
    # self-injective 2-cycle with rad^2 = 0 has gldim infinity, so the
    # gldim precondition already rejects it
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [PathElement(q, {Path(0, (0, 1)): 1}),
            PathElement(q, {Path(1, (1, 0)): 1})]
    A = complete_basis(q, F, rels)
    from quiveralg.errors import GldimTooLarge
    with pytest.raises(GldimTooLarge):
        preprojective_module(A, 2, cap=6)


def test_preprojective_algebra_a2():
    A = a2()
    B = preprojective_algebra(A, 1)
    assert B.dim == 4
    assert B.grading == [0, 0, 0, 1]
    assert check_associativity(B)
    # quiver presentation: 1 <-> 2 with both length-2 cycles zero
    P = quiver_presentation(B)
    assert P.quiver.n_vertices == 2
    assert P.quiver.n_arrows == 2
    assert P.dim == 4
    srcs = sorted((P.quiver.vertices[s], P.quiver.vertices[t])
                  for _, s, t in P.quiver.arrows)
    assert srcs == [("1", "2"), ("2", "1")]


def test_preprojective_algebra_nak_a3():
    A = nak_a3()
    B = preprojective_algebra(A, 2)
    assert B.dim == 6
    assert B.grading == [0] * 5 + [1]
    assert check_associativity(B)
    P = quiver_presentation(B)
    assert P.quiver.n_vertices == 3
    assert P.quiver.n_arrows == 3
    assert P.dim == 6
    # cyclic triangle: every vertex has exactly one outgoing arrow
    outs = sorted(s for _, s, t in P.quiver.arrows)
    ins = sorted(t for _, s, t in P.quiver.arrows)
    assert outs == [0, 1, 2] and ins == [0, 1, 2]


def test_grading_matches_translate_dims():
    for A, n in [(a2(), 1), (nak_a3(), 2)]:
        B = preprojective_algebra(A, n)
        split = preprojective_module(A, n)
        by_grade = {}
        for g in B.grading:
            by_grade[g] = by_grade.get(g, 0) + 1
        assert [by_grade[i] for i in sorted(by_grade)] == split.grade_dims


def test_stable_hom_into_projective_vanishes():
    A = a2()
    s1 = simple(A, 0)
    assert stable_hom(s1, projective(A, 0)) == []


def test_stable_end_of_simple():
    A = a2()
    s1 = simple(A, 0)
    assert len(stable_hom(s1, s1)) == 1


def test_stable_hom_quotient_dim():
    A = nak_a3()
    s2 = simple(A, 1)
    p2 = projective(A, 1)
    assert len(stable_hom(p2, p2)) == 0
    assert len(stable_hom(s2, s2)) == 1


def test_stable_endomorphism_a2():
    A = a2()
    gamma = stable_endomorphism(A, 1)
    assert gamma.dim == 1
    assert len(gamma.idempotents) == 1


def test_stable_endomorphism_nak_a3():
    A = nak_a3()
    gamma = stable_endomorphism(A, 2)
    assert gamma.dim == 1
    P = quiver_presentation(gamma)
    assert P.quiver.n_vertices == 1
    assert P.quiver.n_arrows == 0


def test_ext_bimodule_dim_on_knitted_auslander():
    from quiveralg.families import auslander_algebra, dynkin_path_algebra
    L = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    E = ext_bimodule(L, 2)
    assert E.dim == 5


# ---------------------------------------------------------------------------
# the tensor grades from the arrows, against the dense construction
# ---------------------------------------------------------------------------

def _nak_a3(field):
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1})])


def _aus_a3_nonlinear(field):
    return auslander_algebra(dynkin_path_algebra(3, ["f", "b"], field))


def _linear_nakayama_4(field):
    return linear_nakayama(4, field)


def _linear_nakayama_5(field):
    return linear_nakayama(5, field)


def _a4(field):
    return dynkin_path_algebra(4, None, field)


# (algebra, n).  A3 and A4 at n = 1 have three and four grades, the others
# two; on A4 a path of length 2 acts nonzero on E and on grade 1.
W_CASES = [(_nak_a3, 2), (_aus_a3_nonlinear, 2),
           (lambda field: thm39_type2(2, ["gamma"], field), 2),
           (lambda field: dynkin_path_algebra(3, None, field), 1),
           (_a4, 1)]
W_IDS = ["nak_a3", "aus_a3_nonlinear", "thm39_type2_2", "A3_n1", "A4_n1"]
FIELDS = [pytest.param(F, id="GF32003"), pytest.param(QQ, id="QQ")]


def _lift_one_generator_at_a_time(res, g, depth):
    """Chain lifts of g along a resolution, one solve per generator."""
    f = g.field
    lifts = []
    prev = None
    for i in range(depth + 1):
        P = res.terms[i]
        gen_images = []
        for s, v in enumerate(P.summands):
            gen = f.zeros(P.dims[v], 1)
            gen[P.offsets[s][v], 0] = f.one
            if i == 0:
                a = res.augmentation.blocks[v]
                x = f.solve(a, f.matmul(g.blocks[v], f.matmul(a, gen)))
            else:
                d = res.differential(i - 1)
                x = f.solve(d.blocks[v],
                            f.matmul(d.compose(prev).blocks[v], gen))
            assert x is not None
            gen_images.append(x)
        prev = map_from_projectives(P, P, gen_images)
        lifts.append(prev)
    return lifts


def _yoneda_eval(P, ys, v, vec, N):
    """The map with generator images ys, at an element of P at vertex v:
    every basis path acts on the image of its slot, one path at a time."""
    A = P.algebra
    f = P.field
    out = f.zeros(N.dims[v], 1)
    for s, sv in enumerate(P.summands):
        off = P.offsets[s][v]
        for k, b in enumerate(A.basis_between(sv, v)):
            c = vec[off + k, 0]
            if c != f.zero:
                out = f.add(out, f.smul(c, f.matmul(
                    N.act_word(A.basis[b].arrows, sv), ys[s])))
    return out


def _row_by_row_actions(A, n):
    """dim Ext^n(D A, A) and the left and right action of each basis
    element, one Ext basis row at a time: the left action by left
    multiplication on each slot, the right action by evaluating each row
    at the lift of left multiplication on D A."""
    f = A.field
    DL, R = coregular(A), regular(A)
    res = min_proj_resolution(DL, n + 1)
    dim, cocycles, (res, cob) = ext_by_cocycles(DL, R, n, res)
    Pn = res.terms[n]
    ext = QuotientBasis(f, cob, cocycles)
    offs = np.cumsum([0] + [R.dims[v] for v in Pn.summands])

    def split(row):
        return [row[offs[s]:offs[s + 1]].reshape(-1, 1)
                for s in range(len(Pn.summands))]

    def classes(images):
        assert ext.spans(images).all()
        return ext.coords(images).T

    def left(b):
        lm = left_mult_map(A, {b: f.one}, R)
        return classes(np.stack([
            np.concatenate([f.matmul(lm.blocks[v], y)[:, 0] for v, y in
                            zip(Pn.summands, split(row))])
            for row in ext.comp]))

    def right(b):
        lam = left_mult_on_coregular(A, {b: f.one}, DL)
        lift_n = _lift_one_generator_at_a_time(res, lam, n)[n]
        images = []
        for row in ext.comp:
            ys = split(row)
            parts = []
            for s, v in enumerate(Pn.summands):
                gen = f.zeros(Pn.dims[v], 1)
                gen[Pn.offsets[s][v], 0] = f.one
                moved = f.matmul(lift_n.blocks[v], gen)
                parts.append(_yoneda_eval(Pn, ys, v, moved, R)[:, 0])
            images.append(np.concatenate(parts))
        return classes(np.stack(images))

    return dim, left, right


@functools.lru_cache(maxsize=None)
def _route_bimodule(make, n, field):
    """One algebra A of a case, and E with the actions of every basis
    element taken through the resolution of D A, one Ext row at a time."""
    A = make(field)
    dim, left, right = _row_by_row_actions(A, n)
    return A, pp.ExtBimodule(
        A, n, dim, action_entries(field, [left(b) for b in range(A.dim)]),
        action_entries(field, [right(b) for b in range(A.dim)]))


def _right_regular(A):
    f = A.field
    mats = []
    for b in range(A.dim):
        rm = f.zeros(A.dim, A.dim)
        for j in range(A.dim):
            for t, c in A.mult_basis(j, b).items():
                rm[t, j] = c
        mats.append(rm)
    return mats


def _dense_relations(f, E, R):
    """Row-reduced balancing relations on all of T (x)_k E, one dense
    V x V block per basis element lam of A: row (x, y) of a block is
    x lam (x) y - x (x) lam y."""
    t, e = R[0].shape[0], E.dim
    eye_t = f.eye(t)[:, None, :, None]
    eye_e = f.eye(e)[None, :, None, :]
    L = dense_actions(f, E.left, len(R), e)
    blocks = [f.sub(R[lam].T[:, None, :, None] * eye_e,
                    eye_t * L[lam].T[None, :, None, :])
              .reshape(t * e, t * e) for lam in range(len(R))]
    rows = np.concatenate([w[np.any(w != f.zero, axis=1)] for w in blocks])
    return f.row_space(rows)


def _embedded(f, W, pairs, V):
    """Row-reduced W on all of T (x)_k E: the unit vectors of the unmatched
    pairs together with W placed on the matched ones."""
    unmatched = np.setdiff1d(np.arange(V), pairs.index)
    full = f.zeros(W.shape[0], V)
    full[:, pairs.index] = W
    return f.row_space(np.concatenate([f.eye(V)[unmatched], full]))


@functools.lru_cache(maxsize=None)
def _reference(make, n, field):
    """One algebra A of a case, T_A E built from the dense relations of
    every basis element with proj and sigma on all of T (x)_k E, and the
    row-reduced relations W of each grade it tried."""
    A, E = _route_bimodule(make, n, field)
    f = A.field
    grades = [{"dim": A.dim, "R": _right_regular(A)}]
    right_mats = dense_actions(f, E.right, A.dim, E.dim)
    Ws = []
    while True:
        prev = grades[-1]
        t, e = prev["dim"], E.dim
        V = t * e
        W = _dense_relations(f, E, prev["R"])
        Ws.append(W)
        newdim = V - W.shape[0]
        if newdim == 0:
            break
        quot = QuotientBasis(f, W, f.eye(V))
        proj, sigma = quot.proj, quot.comp.T
        reps = sigma.reshape(t, e, newdim).transpose(0, 2, 1)
        R = []
        for b in range(A.dim):
            rv = f.matmul(reps.reshape(t * newdim, e), right_mats[b].T)
            rv = rv.reshape(t, newdim, e).transpose(0, 2, 1)
            R.append(f.matmul(proj, rv.reshape(V, newdim)))
        grades.append({"dim": newdim, "R": R, "proj": proj,
                       "sigma": sigma})
    dims = [g["dim"] for g in grades]
    offsets = np.cumsum([0] + dims)
    total = int(offsets[-1])
    prods = []
    for gi in range(len(grades)):
        row = [np.stack(grades[gi]["R"], axis=2).transpose(1, 0, 2)]
        for gj in range(1, len(grades) - gi):
            sig = grades[gj]["sigma"].reshape(dims[gj - 1], e * dims[gj])
            proj = grades[gi + gj]["proj"]
            row.append(np.stack([
                f.matmul(proj, f.matmul(lower, sig).reshape(-1, dims[gj]))
                for lower in row[gj - 1]]))
        prods.append(row)

    def mult(i):
        gi = int(np.searchsorted(offsets, i, side="right") - 1)
        out = f.zeros(total, total)
        for gj in range(len(grades) - gi):
            out[offsets[gj]:offsets[gj + 1],
                offsets[gi + gj]:offsets[gi + gj + 1]] = \
                prods[gi][gj][i - offsets[gi]].T
        return out

    idems = [f.eye(total)[k] for v in range(A.quiver.n_vertices)
             for k in A.idempotent(v)]
    grading = [gi for gi, d in enumerate(dims) for _ in range(d)]
    return A, algebra_from_rows(f, total, mult, idems, grading), Ws


def _same_constants(B, C):
    return (B.dim == C.dim and B.grading == C.grading and
            all(np.array_equal(x, y)
                for x, y in zip(B.constants, C.constants)))


def _spy_grades(monkeypatch):
    """Record (E, dim, W, pairs) of every grade that preprojective_algebra
    builds, where dim is that of the grade before."""
    seen = []
    build = pp._balancing_relations

    def spy(A, E, action, dim):
        W, pairs = build(A, E, action, dim)
        seen.append((E, dim, W, pairs))
        return W, pairs

    monkeypatch.setattr(pp, "_balancing_relations", spy)
    return seen


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make,n", W_CASES, ids=W_IDS)
def test_w_from_arrows_equals_dense_relations(make, n, field, monkeypatch):
    A, reference, dense = _reference(make, n, field)
    f = A.field
    seen = _spy_grades(monkeypatch)
    B = pp.preprojective_algebra(A, n)
    # every grade, and the last, empty one
    assert len(seen) == len(dense) == max(B.grading) + 1
    for (E, dim, W, pairs), W_ref in zip(seen, dense):
        V = dim * E.dim
        assert f.equal(_embedded(f, W, pairs, V), W_ref)
    assert _same_constants(B, reference)


def _drop_arrow(monkeypatch, alpha, contributes):
    """Leave out the relations of arrow alpha; record in `contributes`
    whether any of them was nonzero."""
    build = pp._arrow_relations

    def dropped(A, a, *rest):
        rows = build(A, a, *rest)
        if a != alpha:
            return rows
        contributes.append(bool(np.any(rows != A.field.zero)))
        return rows[:0]

    monkeypatch.setattr(pp, "_arrow_relations", dropped)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make,n", W_CASES, ids=W_IDS)
def test_dropping_one_arrow_breaks_w(make, n, field, monkeypatch):
    """Leaving out the relations of any arrow that has some on the first
    grade changes W there; for the first such arrow, the algebra too."""
    A, reference, (dense, *_) = _reference(make, n, field)
    f = A.field
    E = ext_bimodule(A, n)
    R = _right_regular(A)
    broken = []
    for alpha in range(A.quiver.n_arrows):
        contributes = []
        with monkeypatch.context() as m:
            _drop_arrow(m, alpha, contributes)
            W, pairs = pp._balancing_relations(
                A, E, action_entries(f, R), A.dim)
            same = f.equal(_embedded(f, W, pairs, R[0].shape[0] * E.dim),
                           dense)
            assert same != contributes[0], alpha
            if not same and not broken:
                try:
                    B = pp.preprojective_algebra(A, n, cap=4)
                except NotTauFinite:
                    B = None
                assert B is None or not _same_constants(B, reference), alpha
        if not same:
            broken.append(alpha)
    assert broken


def _aus(s, field=F):
    return auslander_algebra(dynkin_path_algebra(s, None, field))


@pytest.mark.parametrize("make,n", [
    (lambda: _aus(4), 2), (lambda: linear_nakayama(9, F), 2),
    (lambda: higher_auslander_chain(3, 3, F)[-1], 4), (lambda: _aus(5), 2),
    (lambda: canonical_2222(Fraction(2), QQ), 2)],
    ids=["aus_A4", "nak_9", "3_aus_A3_n4", "aus_A5", "canonical_2222_2_QQ"])
def test_grade_loop_equals_the_dense_blocks(make, n):
    """The same constants (values, order and dtype), idempotents and
    grading as the builder that keeps every right action and product
    block dense, on inputs too large for the dense ``_reference``."""
    A = make()
    B = preprojective_algebra(A, n)
    ref = preprojective_algebra_by_blocks(A, n)
    assert B.dim == ref.dim and B.grading == ref.grading
    for x, y in zip(B.constants, ref.constants):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(B.idempotents) == len(ref.idempotents)
    for e, e_ref in zip(B.idempotents, ref.idempotents):
        assert e.dtype == e_ref.dtype and np.array_equal(e, e_ref)


def test_preprojective_algebra_peak_memory():
    """With no dense right action of each basis path on each grade and no
    dense product block, Aus(A5) at n = 2 peaks at about 5 MB (17 MB with
    them)."""
    A = _aus(5)
    tracemalloc.start()
    try:
        preprojective_algebra(A, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_vertex_labels_refuse_a_basis_that_is_not_vertex_adapted():
    f = F

    def entries(*rows):
        return action_entries(f, [f.array(rows)])[1:]

    e0, e1 = entries([1, 0], [0, 0]), entries([0, 0], [0, 1])
    assert list(vertex_labels(f, 2, [e0, e1], "test")) == [0, 1]
    with pytest.raises(ValueError, match="0/1 diagonal"):
        vertex_labels(f, 2, [entries([1, 1], [0, 0]), e1], "test")
    with pytest.raises(ValueError, match="0/1 diagonal"):
        vertex_labels(f, 2, [entries([2, 0], [0, 0]), e1], "test")
    with pytest.raises(ValueError, match="exactly one"):
        vertex_labels(f, 2, [e0, entries([1, 0], [0, 1])], "test")
    with pytest.raises(ValueError, match="exactly one"):
        vertex_labels(f, 2, [e0, e0], "test")


# ---------------------------------------------------------------------------
# the Ext actions from prefixes, against the resolution route
# ---------------------------------------------------------------------------

# on linear_nakayama 5 and A4, unlike the first two, a path of length 2
# acts nonzero on E, so the order of the prefix products matters there
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make,n", [(_aus_a3_nonlinear, 2),
                                    (_linear_nakayama_4, 2),
                                    (_linear_nakayama_5, 2), (_a4, 1)],
                         ids=["aus_a3_nonlinear", "linear_nakayama_4",
                              "linear_nakayama_5", "A4_n1"])
def test_ext_actions_from_prefixes_equal_the_resolution_route(make, n,
                                                              field):
    A, ref = _route_bimodule(make, n, field)
    f = A.field
    assert any(len(p.arrows) >= 2 for p in A.basis)
    E = ext_bimodule(A, n)
    assert E.dim == ref.dim > 0
    for side in ("left", "right"):
        mats, ref_mats = (dense_actions(f, getattr(X, side), A.dim, E.dim)
                          for X in (E, ref))
        for b in range(A.dim):
            assert f.equal(mats[b], ref_mats[b]), (side, b)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make,n", [(_aus_a3_nonlinear, 2),
                                    (_linear_nakayama_4, 2),
                                    (_linear_nakayama_5, 2), (_a4, 1)],
                         ids=["aus_a3_nonlinear", "linear_nakayama_4",
                              "linear_nakayama_5", "A4_n1"])
def test_batched_ext_actions_equal_the_row_by_row_route(make, n, field):
    A = make(field)
    f = A.field
    dim, left, right = pp._ext_actions(A, n, list(range(A.dim)))
    ref_dim, ref_left, ref_right = _row_by_row_actions(A, n)
    assert dim == ref_dim > 0
    left, right = (dense_actions(f, s, A.dim, dim) for s in (left, right))
    for b in range(A.dim):
        assert f.equal(left[b], ref_left(b)), b
        assert f.equal(right[b], ref_right(b)), b


def test_ext_bimodule_actions_commute_aus_a3_nonlinear():
    A = _aus_a3_nonlinear(F)
    E = ext_bimodule(A, 2)
    f = A.field
    L, R = (dense_actions(f, a, A.dim, E.dim) for a in (E.left, E.right))
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f.matmul(L[i], R[j])
            rhs = f.matmul(R[j], L[i])
            assert f.equal(lhs, rhs)


# ---------------------------------------------------------------------------
# one batched lift for every trivial path and arrow
# ---------------------------------------------------------------------------

def _same_bimodule(E, ref):
    assert E.dim == ref.dim
    for side in ("left", "right"):
        for x, y in zip(getattr(E, side), getattr(ref, side)):
            assert x.dtype == y.dtype and np.array_equal(x, y), side


@pytest.mark.parametrize("field", FIELDS + [
    pytest.param(GF(2147483647), id="GF2147483647")])
@pytest.mark.parametrize("make,n", W_CASES + [
    (lambda field: higher_auslander_chain(3, 2, field)[-1], 3),
    (lambda field: auslander_algebra(dynkin_path_algebra(4, None, field)),
     2), (lambda field: canonical_2222(2 ** 30 + 7, field), 2)],
    ids=W_IDS + ["2_aus_A3_n3", "aus_A4", "canonical_2222_big_lambda"])
def test_batched_lift_equals_one_lift_per_element(make, n, field):
    """The entries, values, order and dtypes of both actions equal those
    of one ``strict_lift`` per trivial path and arrow.  Over GF(2^31 - 1)
    a product of two field elements nearly fills an int64, so every
    product must be reduced before it meets a third factor."""
    A = make(field)
    E = ext_bimodule(A, n)
    assert E.dim > 0
    _same_bimodule(E, ext_bimodule_per_element(A, n))


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_lift_equals_one_lift_per_element_on_drawn_algebras(field,
                                                                    data):
    """On drawn algebras with gldim A <= n <= 3 and E != 0 (n = gldim A,
    the one degree where E is nonzero)."""
    A = data.draw(bound_quiver_algebras(field))
    n = global_dimension(A)
    assume(n <= 3)
    E = ext_bimodule(A, n)
    assert E.dim > 0
    _same_bimodule(E, ext_bimodule_per_element(A, n))


def test_ext_bimodule_peak_memory():
    """The batched lift carries only the generator images of the elements'
    chain maps, not their blocks: on 2-Aus(A5) at n = 3 ext_bimodule peaks
    at about 2.6 MB, against 10.4 MB when each element's lift kept its
    dense blocks."""
    A = higher_auslander_chain(5, 2, F)[-1]
    global_dimension(A)
    tracemalloc.start()
    try:
        ext_bimodule(A, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
