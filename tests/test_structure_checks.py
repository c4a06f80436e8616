"""Cross-cutting structural verifications on the corpus."""


from quiveralg.checks import (is_n_rep_finite, is_self_injective, vosnex)
from quiveralg.exactla import GF
from quiveralg.families import (auslander_algebra, dynkin_path_algebra,
                                higher_auslander_chain, linear_nakayama)
from quiveralg.findim import quiver_presentation
from quiveralg.homology import ext, global_dimension, tau_n
from quiveralg.modules import (coregular, direct_sum, injective,
                               is_isomorphic, projective)
from quiveralg.preprojective import (preprojective_algebra,
                                     preprojective_module,
                                     stable_endomorphism)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import amiot_endomorphism_algebra, check_associativity

F = GF(32003)


def digraph_isomorphic(q1, q2) -> bool:
    """Brute-force digraph isomorphism with degree pruning (small quivers)."""
    if q1.n_vertices != q2.n_vertices or q1.n_arrows != q2.n_arrows:
        return False
    n = q1.n_vertices

    def adj(q):
        m = [[0] * n for _ in range(n)]
        for _, s, t in q.arrows:
            m[s][t] += 1
        return m

    def deg_sig(m):
        return [(sum(m[i]), sum(r[i] for r in m)) for i in range(n)]

    a1, a2 = adj(q1), adj(q2)
    s1, s2 = deg_sig(a1), deg_sig(a2)
    if sorted(s1) != sorted(s2):
        return False
    candidates = [[j for j in range(n) if s2[j] == s1[i]] for i in range(n)]

    def backtrack(i, used, perm):
        if i == n:
            return all(a1[x][y] == a2[perm[x]][perm[y]]
                       for x in range(n) for y in range(n))
        for j in candidates[i]:
            if used[j]:
                continue
            perm.append(j)
            used[j] = True
            ok = all(a1[x][i] == a2[perm[x]][j] and a1[i][x] == a2[j][perm[x]]
                     for x in range(i + 1))
            if ok and backtrack(i + 1, used, perm):
                return True
            used[j] = False
            perm.pop()
        return False

    return backtrack(0, [False] * n, [])


def rad2_zero_linear(s: int):
    verts = [str(i + 1) for i in range(s)]
    arrows = [(f"a{i+1}", verts[i], verts[i + 1]) for i in range(s - 1)]
    q = Quiver(verts, arrows)
    rels = [PathElement(q, {Path(i, (i, i + 1)): 1}) for i in range(s - 2)]
    return complete_basis(q, F, rels)


def test_orbit_end_matches_tensor_algebra_nak3():
    """The orbit-category endomorphism algebra of the regular object agrees
    with the tensor algebra in dimension, graded dimension, and quiver
    presentation."""
    A = linear_nakayama(3)
    orbit = amiot_endomorphism_algebra(A, 2)
    tensor = preprojective_algebra(A, 2)
    assert orbit.dim == tensor.dim == 6
    assert check_associativity(orbit)
    tg = {}
    for g in tensor.grading:
        tg[g] = tg.get(g, 0) + 1
    assert orbit.piece_dims == [tg[i] for i in sorted(tg)]
    p1 = quiver_presentation(orbit)
    p2 = quiver_presentation(tensor)
    assert digraph_isomorphic(p1.quiver, p2.quiver)
    assert len(p1.relations) == len(p2.relations)


def test_orbit_end_matches_tensor_algebra_aus_a3():
    A = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    orbit = amiot_endomorphism_algebra(A, 2)
    tensor = preprojective_algebra(A, 2)
    assert orbit.dim == tensor.dim == 20
    assert check_associativity(orbit)
    p1 = quiver_presentation(orbit)
    p2 = quiver_presentation(tensor)
    assert digraph_isomorphic(p1.quiver, p2.quiver)


def test_tilde_contains_regular_and_coregular_when_rep_finite():
    # the unique basic cluster-tilting module contains all projectives and
    # all injectives as summands
    for A, n in [(linear_nakayama(3), 2), (dynkin_path_algebra(2), 1)]:
        split = preprojective_module(A, n)
        for v in range(A.quiver.n_vertices):
            p = projective(A, v)
            i0 = injective(A, v)
            assert any(r.dims == p.dims and is_isomorphic(r, p)
                       for r in split.summand_reps)
            assert any(r.dims == i0.dims and is_isomorphic(r, i0)
                       for r in split.summand_reps)


def test_tau_n_bijection_on_rep_finite_summands():
    # non-projective summands of the cluster-tilting module biject onto
    # non-injective summands under tau_n
    for A, n in [(linear_nakayama(3), 2), (dynkin_path_algebra(2), 1)]:
        split = preprojective_module(A, n)
        injs = [injective(A, v) for v in range(A.quiver.n_vertices)]
        nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
                   if g > 0]
        noninj = [r for r in split.summand_reps
                  if not any(r.dims == i0.dims and is_isomorphic(r, i0)
                             for i0 in injs)]
        images = [tau_n(m, n) for m in nonproj]
        assert len(images) == len(noninj)
        used = [False] * len(noninj)
        for t in images:
            assert not t.is_zero()
            hit = next(j for j, m in enumerate(noninj)
                       if not used[j] and t.dims == m.dims and
                       is_isomorphic(t, m))
            used[hit] = True


def test_rad2_zero_a4_is_3_rep_finite_with_vosnex():
    A = rad2_zero_linear(4)
    assert global_dimension(A) == 3
    assert is_n_rep_finite(A, 3).value is True
    v = vosnex(A, 3)
    assert v.value is True and not v.witness.get("vacuous")
    split = preprojective_module(A, 3)
    talg = preprojective_algebra(A, 3)
    assert split.dim == talg.dim == 8
    assert is_self_injective(quiver_presentation(talg)).value is True
    # vanishing of Ext^i(D A, tilde) in the vosnex range 2 <= i <= n-1
    DL = coregular(A)
    M = direct_sum(split.orbit)
    assert ext(DL, M, 2) == 0
    # rigidity through degrees 1..n-1
    assert all(ext(M, M, i) == 0 for i in (1, 2))


def test_stable_auslander_recursion():
    # the stable 2-Auslander algebra of 1-Aus(A_s) is 2-Aus(A_{s-1})
    for s in (3, 4):
        L = auslander_algebra(dynkin_path_algebra(s))
        gamma = stable_endomorphism(L, 2)
        gp = quiver_presentation(gamma)
        target = higher_auslander_chain(s - 1, 2)[2]
        assert gp.dim == target.dim
        assert digraph_isomorphic(gp.quiver, target.quiver)


def test_stable_end_identified_with_end_of_projective_free_part():
    from quiveralg.modules import hom_space, regular
    from quiveralg.preprojective import end_algebra
    A = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    gamma = stable_endomorphism(A, 2)
    assert gamma.dim == 5
    split = gamma.split
    # no map back to A, so no endomorphism factors through a projective
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    assert not hom_space(direct_sum(nonproj), regular(A))
    end = end_algebra(A, nonproj)
    assert end.dim == 5
    p1 = quiver_presentation(gamma)
    p2 = quiver_presentation(end)
    assert digraph_isomorphic(p1.quiver, p2.quiver)


def test_projective_layer_shapes_of_auslander_a3():
    """The radical filtrations of the six projectives have exactly the
    column shapes of the worked example: two simples, one 1/2 column,
    two uniserial 1/1/1 columns, one 1/2/1 column."""
    from quiveralg.modules import projective, radical_series
    L = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    shapes = []
    for v in range(6):
        M = projective(L, v)
        layers = []
        while M.total_dim:
            rad, _ = radical_series(M)
            layers.append(M.total_dim - rad.total_dim)
            M = rad
        shapes.append(tuple(layers))
    assert sorted(shapes) == sorted(
        [(1,), (1,), (1, 2), (1, 1, 1), (1, 1, 1), (1, 2, 1)])
