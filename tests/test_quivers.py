import pytest

from quiveralg.errors import NonAdmissible, RelationIllFormed
from quiveralg.exactla import GF, QQ
from quiveralg.quivers import (Path, PathElement, Quiver,
                               complete_basis, opposite)

F = GF(32003)


def a2():
    return Quiver(["1", "2"], [("a", "1", "2")])


def linear_a3():
    return Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])


def rel(q, *terms):
    """terms: (coeff, arrow-name list) pairs."""
    d = {}
    for c, names in terms:
        arrows = tuple(q.aindex[n] for n in names)
        d[Path(q.source(arrows[0]), arrows)] = c
    return PathElement(q, d)


def test_a2_no_relations():
    A = complete_basis(a2(), F, [])
    assert A.dim == 3
    words = sorted(tuple(p.arrows) for p in A.basis)
    assert words == [(), (), (0,)]


def test_linear_a3_with_relation():
    q = linear_a3()
    A = complete_basis(q, F, [rel(q, (1, ["a1", "a2"]))])
    assert A.dim == 5
    lens = sorted(len(p.arrows) for p in A.basis)
    assert lens == [0, 0, 0, 1, 1]


def test_cyclic_triangle_rad_square_zero():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    rels = [rel(q, (1, ["a", "b"])), rel(q, (1, ["b", "c"])),
            rel(q, (1, ["c", "a"]))]
    A = complete_basis(q, F, rels)
    assert A.dim == 6


def test_non_admissible_detected():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(NonAdmissible):
        complete_basis(q, F, [], cap=8)


def test_loop_with_nilpotency_admissible():
    q = Quiver(["1"], [("x", "1", "1")])
    A = complete_basis(q, F, [rel(q, (1, ["x", "x", "x"]))])
    assert A.dim == 3


def test_relation_length_one_rejected():
    q = linear_a3()
    with pytest.raises(RelationIllFormed):
        complete_basis(q, F, [rel(q, (1, ["a1"]))])


def test_non_composable_rejected():
    q = linear_a3()
    with pytest.raises(RelationIllFormed):
        rel(q, (1, ["a2", "a1"]))


def test_mixed_source_rejected():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "3"), ("b", "2", "3")])
    with pytest.raises(RelationIllFormed):
        PathElement(q, {Path(0, (0,)): 1, Path(1, (1,)): 1})


def test_idempotents():
    A = complete_basis(a2(), F, [])
    e1, e2 = A.idempotent(0), A.idempotent(1)
    assert A.mult(e1, e1) == e1
    assert A.mult(e1, e2) == {}
    one = A.unit()
    x = {A.bindex[Path(0, (0,))]: F.one}
    assert A.mult(one, x) == x
    assert A.mult(x, one) == x


def test_relation_product_zero():
    q = linear_a3()
    A = complete_basis(q, F, [rel(q, (1, ["a1", "a2"]))])
    a1 = {A.bindex[Path(0, (0,))]: F.one}
    a2_ = {A.bindex[Path(1, (1,))]: F.one}
    assert A.mult(a1, a2_) == {}


def test_mixed_length_relation():
    # commutative square with one diagonal identified to the long path:
    # a: 1->2, b: 2->4, c: 1->3, d: 3->4, e: 1->4 is NOT present;
    # instead relation a*b - c*d, a genuinely 2-term commutativity relation,
    # plus a mixed-length one on a 4-chain: x*y - u*v*w.
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y", "2", "4"),
                ("u", "1", "3"), ("v", "3", "2"), ("w", "2", "4")])
    # leading term is u*v*w (length 3); completion must handle the overlap
    # with nothing else present
    A = complete_basis(q, F, [rel(q, (1, ["x", "y"]), (-1, ["u", "v", "w"]))])
    # basis: e1..e4, x, y, u, v, w, x*y (=uvw), u*v, v*w, v*y, u*v*y? compute:
    # irreducible words: all words avoiding subword uvw.
    assert A.dim == 4 + 5 + len([1 for p in A.basis if len(p.arrows) == 2]) + \
        len([1 for p in A.basis if len(p.arrows) == 3])
    # algebra dimension is presentation-order independent
    B = complete_basis(q, F, [rel(q, (-1, ["u", "v", "w"]), (1, ["x", "y"]))])
    assert A.dim == B.dim


def test_opposite_involution_dims():
    q = linear_a3()
    A = complete_basis(q, F, [rel(q, (1, ["a1", "a2"]))])
    Aop = opposite(A)
    assert Aop.dim == A.dim == 5
    Aopop = opposite(Aop)
    assert Aopop.dim == A.dim
    assert [a[1:] for a in Aopop.quiver.arrows] == [a[1:] for a in A.quiver.arrows]


def test_opposite_a2():
    A = complete_basis(a2(), F, [])
    Aop = opposite(A)
    (name, s, t) = Aop.quiver.arrows[0]
    assert (Aop.quiver.vertices[s], Aop.quiver.vertices[t]) == ("2", "1")


def test_dim_partition_by_source_target():
    q = linear_a3()
    A = complete_basis(q, F, [rel(q, (1, ["a1", "a2"]))])
    total = sum(len(A.basis_between(i, j))
                for i in range(3) for j in range(3))
    assert total == A.dim


def two_parallel_pairs():
    """1 -> 2 -> 3 with arrows a, c: 1 -> 2 and b, d: 2 -> 3."""
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                    ("c", "1", "2"), ("d", "2", "3")])


@pytest.mark.parametrize("field", [F, QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("coef", [0, 32003])
def test_a_term_that_vanishes_in_the_field_is_no_term(field, coef):
    """ab = 0 cd is the monomial relation ab, whatever the field; over
    GF(32003), 32003 cd vanishes too.  With no vanishing term, the paths
    cd and ad, cb stay: dim 3 + 4 + 3 = 10."""
    q = two_parallel_pairs()
    A = complete_basis(q, field, [rel(q, (1, ["a", "b"]), (coef, ["c", "d"]))])
    words = {p.arrows for p in A.basis}
    assert A.dim == 10
    if field == QQ and coef:
        # over Q, 32003 cd is a term, and the larger: cd = -ab / 32003
        assert (0, 1) in words and (2, 3) not in words
    else:
        assert (0, 1) not in words and (2, 3) in words


@pytest.mark.parametrize("field", [F, QQ], ids=["GF32003", "QQ"])
def test_a_relation_that_vanishes_in_the_field_is_no_relation(field):
    q = two_parallel_pairs()
    A = complete_basis(q, field, [rel(q, (0, ["a", "b"]))])
    assert A.dim == complete_basis(q, field, []).dim == 11


def test_zero_has_no_inverse_in_a_prime_field():
    with pytest.raises(ZeroDivisionError):
        F.inv_el(F.zero)
    with pytest.raises(ZeroDivisionError):
        F.inv_el(32003)
    assert F.inv_el(2) * 2 % 32003 == 1
