import random


from quiveralg.exactla import GF
from quiveralg.modules import (coregular, decompose, direct_sum, dual,
                               hom_space, injective, injective_envelope,
                               is_isomorphic, map_kernel, op_algebra,
                               projective, projective_cover, radical_series,
                               random_module, regular, simple, socle, top,
                               zero_rep)
from quiveralg.quivers import PathElement, Path, Quiver, complete_basis

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3():
    """Linear A3 with the length-2 relation a1*a2 = 0."""
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    rel = PathElement(q, {Path(0, (0, 1)): 1})
    return complete_basis(q, F, [rel])


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
    m, _, _ = direct_sum([p1, p1])
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
    m, _, _ = direct_sum([projective(A, 0), simple(A, 0), projective(A, 0),
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
        total, _, _ = direct_sum(reps)
        assert is_isomorphic(total, m)


def test_coregular_is_sum_of_injectives():
    A = nak_a3()
    d = coregular(A)
    assert d.total_dim == A.dim
    parts = decompose(d)
    assert len(parts) == 3
