import itertools

import pytest

from quiveralg.errors import QuiverAlgError
from quiveralg.exactla import GF
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, higher_auslander_chain,
                                knit_indecomposables, linear_nakayama,
                                thm39_type2)
from quiveralg.homology import global_dimension
from references import knit_indecomposables_by_isomorphism

F = GF(32003)


def test_linear_nakayama_dims():
    assert linear_nakayama(3).dim == 5
    assert linear_nakayama(4).dim == 9


def test_linear_nakayama_rejects_v2():
    with pytest.raises(QuiverAlgError):
        linear_nakayama(2)


def test_thm39_type2_shapes():
    A = thm39_type2(2, ["gamma"])
    assert A.quiver.n_vertices == 4
    assert A.quiver.n_arrows == 3
    B = thm39_type2(3, ["gamma", "delta"])
    assert B.quiver.n_vertices == 6
    assert B.quiver.n_arrows == 2 + 2 + 2


def test_thm39_type2_malformed():
    with pytest.raises(QuiverAlgError):
        thm39_type2(3, ["gamma"])
    with pytest.raises(QuiverAlgError):
        thm39_type2(2, ["x"])


def test_canonical_2222_shape():
    A = canonical_2222(2)
    assert A.quiver.n_vertices == 6
    assert A.quiver.n_arrows == 8
    assert A.dim == 16
    assert global_dimension(A) == 2


def test_canonical_2222_rejects_degenerate():
    with pytest.raises(QuiverAlgError):
        canonical_2222(0)
    with pytest.raises(QuiverAlgError):
        canonical_2222(1)


def test_dynkin_dims():
    assert dynkin_path_algebra(2).dim == 3
    assert dynkin_path_algebra(4).dim == 10
    assert dynkin_path_algebra(3, ["f", "b"]).dim == 5


def test_knit_counts_match_positive_roots():
    for s in (2, 3, 4):
        A = dynkin_path_algebra(s)
        assert len(knit_indecomposables(A)) == s * (s + 1) // 2
    B = dynkin_path_algebra(3, ["f", "b"])
    assert len(knit_indecomposables(B)) == 6


@pytest.mark.parametrize("s", range(1, 7))
def test_knitting_by_dimension_vector_equals_the_isomorphism_route(s):
    """On every orientation of A_s: the same modules, in the same order,
    with the same arrow blocks."""
    for orientation in itertools.product("fb", repeat=s - 1):
        A = dynkin_path_algebra(s, list(orientation), F)
        got = knit_indecomposables(A)
        want = knit_indecomposables_by_isomorphism(A)
        assert len(got) == len(want) == s * (s + 1) // 2
        for M, N in zip(got, want):
            assert M.dims == N.dims
            assert all(F.equal(x, y) for x, y in zip(M.action, N.action))


def test_knit_rejects_bound_algebra():
    with pytest.raises(QuiverAlgError):
        knit_indecomposables(linear_nakayama(3))


def test_auslander_a2():
    A = auslander_algebra(dynkin_path_algebra(2))
    assert A.quiver.n_vertices == 3
    assert A.quiver.n_arrows == 2
    assert len(A.relations) == 1
    assert global_dimension(A) <= 2


def test_auslander_a3_nonlinear():
    H = dynkin_path_algebra(3, ["f", "b"])
    A = auslander_algebra(H)
    assert A.quiver.n_vertices == 6
    assert A.quiver.n_arrows == 6
    assert global_dimension(A) <= 2
    assert A.dim == 15  # sum of Hom dims between the 6 indecomposables


def test_auslander_a4_linear():
    A = auslander_algebra(dynkin_path_algebra(4))
    assert A.quiver.n_vertices == 10
    assert A.quiver.n_arrows == 12
    assert global_dimension(A) <= 2


def test_higher_auslander_chain_a2():
    chain = higher_auslander_chain(2, 1)
    assert chain[1].quiver.n_vertices == 3
    assert chain[1].quiver.n_arrows == 2


def test_higher_auslander_chain_matches_auslander():
    chain = higher_auslander_chain(4, 1)
    aus = auslander_algebra(dynkin_path_algebra(4))
    assert chain[1].quiver.n_vertices == aus.quiver.n_vertices == 10
    assert chain[1].quiver.n_arrows == aus.quiver.n_arrows == 12
    assert chain[1].dim == aus.dim
