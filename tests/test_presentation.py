import pytest

from quiveralg.errors import NotBasic
from quiveralg.exactla import GF
from quiveralg.findim import (FinDimAlgebra, algebra_from_bqa,
                              quiver_presentation)
from quiveralg.modules import direct_sum, projective
from quiveralg.preprojective import end_algebra
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis

F = GF(32003)


def nak_a3():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1})])


def test_k_times_k():
    A = complete_basis(Quiver(["1", "2"], []), F, [])
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.quiver.n_vertices == 2
    assert P.quiver.n_arrows == 0
    assert P.dim == 2


def test_roundtrip_preserves_dim_and_quiver():
    A = nak_a3()
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == A.dim
    assert P.quiver.n_vertices == A.quiver.n_vertices
    assert P.quiver.n_arrows == A.quiver.n_arrows
    assert len(P.relations) == 1


def test_non_basic_rejected():
    # End(P1 + P1) over kA2 contains a 2x2 matrix corner
    A = complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])
    p1 = projective(A, 0)
    total, incls, projs = direct_sum([p1, p1])
    B = end_algebra(total, incls, projs)
    with pytest.raises(NotBasic):
        quiver_presentation(B)


def test_matrix_algebra_with_only_the_unit_rejected():
    # M_2(k) on the matrix units E_ab = b[2a + b]: E_ab E_cd = d_bc E_ad
    def mult(i):
        a, b = divmod(i, 2)
        row = F.zeros(4, 4)
        for d in range(2):
            row[2 * b + d, 2 * a + d] = F.one
        return row

    B = FinDimAlgebra(F, 4, mult, [F.array([1, 0, 0, 1])])
    with pytest.raises(NotBasic, match="dimension 4, not 1"):
        quiver_presentation(B)


def test_loop_algebra_presentation():
    q = Quiver(["1"], [("x", "1", "1")])
    A = complete_basis(q, F, [PathElement(q, {Path(0, (0, 0, 0)): 1})])
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == 3
    assert P.quiver.n_arrows == 1
    # one relation: x^3
    assert len(P.relations) == 1
    assert all(len(p.arrows) == 3 for p in P.relations[0].terms)


def test_mixed_length_relation_presentation():
    # commutative square with a composite identified to a longer path
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y", "2", "4"),
                ("u", "1", "3"), ("v", "3", "2"), ("w", "2", "4")])
    A = complete_basis(q, F, [PathElement(
        q, {Path(0, (0, 1)): 1, Path(0, (2, 3, 4)): -1})])
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == A.dim
    assert P.quiver.n_arrows == 5
