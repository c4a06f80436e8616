"""The sparse structure-constant core of FinDimAlgebra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quiveralg import findim
from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, knit_indecomposables,
                                linear_nakayama)
from quiveralg.findim import (FinDimAlgebra, algebra_from_bqa,
                              quiver_presentation, vertex_labels)
from quiveralg.modules import direct_sum
from quiveralg.preprojective import (end_algebra, preprojective_algebra,
                                     preprojective_module,
                                     stable_endomorphism)
from references import (QuotientBasis, algebra_from_bqa_all_pairs,
                        amiot_endomorphism_algebra, check_associativity,
                        hom_quotient, meet, right_mult_matrix,
                        vertex_labels_dense)
from test_end_corners import _corpus
from test_presentation import bound_quiver_algebras

P31 = 2**31 - 1

ALGEBRAS = {
    "canonical_2222(3)": lambda: canonical_2222(3),
    "linear_nakayama(4)": lambda: linear_nakayama(4),
    "linear_nakayama(4) over Q": lambda: linear_nakayama(4, QQ),
}


@pytest.fixture(params=sorted(ALGEBRAS), scope="module")
def bqa_and_view(request):
    A = ALGEBRAS[request.param]()
    return A, algebra_from_bqa(A)


def test_stored_constants_match_mult_basis(bqa_and_view):
    A, B = bqa_and_view
    stored = {}
    for i, j, k, c in zip(*B.constants):
        stored.setdefault((int(i), int(j)), {})[int(k)] = c
    for i in range(A.dim):
        for j in range(A.dim):
            want = {k: c for k, c in A.mult_basis(i, j).items()
                    if c != A.field.zero}
            assert stored.get((i, j), {}) == want


def _assert_same_view(A, B, C):
    f = A.field
    assert B.dim == C.dim and B.grading == C.grading
    for x, y in zip(B.constants, C.constants):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(B.idempotents) == len(C.idempotents)
    assert all(f.equal(e, g) for e, g in zip(B.idempotents, C.idempotents))


@pytest.mark.parametrize("make", [
    pytest.param(make, id=f"{label}-{field}")
    for field in (GF(32003), QQ) for label, make, _ in _corpus(field)])
def test_constants_of_the_composable_pairs_equal_all_pairs_on_the_corpus(
        make):
    A = make()
    _assert_same_view(A, algebra_from_bqa(A), algebra_from_bqa_all_pairs(A))


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF", "QQ"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_constants_of_the_composable_pairs_equal_all_pairs_when_drawn(
        field, data):
    A = data.draw(bound_quiver_algebras(field))
    _assert_same_view(A, algebra_from_bqa(A), algebra_from_bqa_all_pairs(A))


def test_left_right_and_vector_products_agree(bqa_and_view):
    A, B = bqa_and_view
    f = B.field
    basis = f.eye(B.dim)
    rmats = [right_mult_matrix(B, e) for e in basis]
    for i in range(B.dim):
        lm = B.left_mult_matrix(basis[i])
        for j in range(B.dim):
            prod = B.mult_vec(basis[i], basis[j])
            assert f.equal(lm[:, j], prod)
            assert f.equal(rmats[j][:, i], prod)


def test_mult_vec_exact_near_the_prime_bound():
    """Entries and constants near 2^31 must not overflow int64."""
    A = canonical_2222(-2, GF(P31))
    B = algebra_from_bqa(A)
    assert max(int(c) for c in B.constants[3]) > 2**30
    rng = random.Random(5)
    for _ in range(20):
        x = [rng.randrange(P31) for _ in range(B.dim)]
        y = [rng.randrange(P31) for _ in range(B.dim)]
        want = [0] * B.dim
        for i in range(B.dim):
            for j in range(B.dim):
                for k, c in A.mult_basis(i, j).items():
                    want[k] = (want[k] + x[i] * y[j] * int(c)) % P31
        got = B.mult_vec(np.array(x, dtype=np.int64),
                         np.array(y, dtype=np.int64))
        assert [int(v) for v in got] == want


def test_check_associativity_detects_non_associative_table():
    # e0 e0 = e1 and e1 e0 = e1, all else 0: (e0 e0) e0 = e1 but
    # e0 (e0 e0) = e0 e1 = 0
    f = GF(32003)
    # row j of mult(i) is e_i e_j: both rows have e_i e0 = e1, e_i e1 = 0
    B = FinDimAlgebra(f, 2, lambda i: f.array([[0, 1], [0, 0]]),
                      [f.eye(2)[0], f.eye(2)[1]])
    assert check_associativity(B) is False


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF", "QQ"])
def test_end_algebra_rows_match_pairwise_compositions(field):
    """Aus(A3): each constant of End(X), built a row at a time, is the
    coordinate of one composition of basis maps."""
    A = dynkin_path_algebra(3, None, field)
    reps = knit_indecomposables(A)
    X = direct_sum(reps)
    B = end_algebra(A, reps)
    quot, maps = hom_quotient(X, X, modulo_projectives=False)
    assert B.dim == quot.dim == len(maps)
    stored = {}
    for i, j, k, c in zip(*B.constants):
        stored.setdefault((int(i), int(j)), {})[int(k)] = c
    for i in range(B.dim):
        for j in range(B.dim):
            # b_i b_j is b_j after b_i
            coords = quot.coords(maps[i].compose(maps[j]).flatten())[0]
            want = {k: c for k, c in enumerate(coords) if c != field.zero}
            assert stored.get((i, j), {}) == want


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF", "QQ"])
@pytest.mark.parametrize("make", [
    lambda f: linear_nakayama(4, f),
    lambda f: auslander_algebra(dynkin_path_algebra(3, ["f", "b"], f)),
    lambda f: linear_nakayama(3, f),
], ids=["linear_nakayama(4)", "Aus(A3-nonlinear)", "linear_nakayama(3)"])
def test_builders_pass_constants_in_the_row_format(make, field):
    """Each builder's constants are what the rows of its own table give:
    nonzero, in order of (i, j, k), with the field's dtype; and no row
    callback outlives the build."""
    A = make(field)
    for B in (preprojective_algebra(A, 2),
              end_algebra(A, preprojective_module(A, 2).summand_reps),
              algebra_from_bqa(A), amiot_endomorphism_algebra(A, 2)):
        rows = FinDimAlgebra(field, B.dim, B.table, B.idempotents, B.grading)
        for got, want in zip(rows.constants, B.constants):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert not any(callable(v) for v in vars(B).values())


def _random_rows(f, rng, rows, cols):
    return f.array([[rng.randrange(-3, 4) for _ in range(cols)]
                    for _ in range(rows)]).reshape(rows, cols)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF", "QQ"])
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_corner_meet_is_the_intersection(field, shared, only_c, only_r, cols,
                                         seed):
    f = field
    rng = random.Random(seed)
    common = _random_rows(f, rng, shared, cols)
    C = f.row_space(np.concatenate(
        [common, _random_rows(f, rng, only_c, cols)]))
    R = f.row_space(np.concatenate(
        [common, _random_rows(f, rng, only_r, cols)]))
    inter = meet(f, C, QuotientBasis(f, R, f.zeros(0, cols)))
    both = f.rank(np.concatenate([C, R]))
    assert inter.shape[0] == C.shape[0] + R.shape[0] - both
    # inside both spaces, and already the canonical rref
    assert f.rank(np.concatenate([C, inter])) == C.shape[0]
    assert f.rank(np.concatenate([R, inter])) == R.shape[0]
    assert f.equal(f.row_space(inter), inter)


def _scattered(B, x, left):
    """The dense matrix of y -> x y (left) or y -> y x, with every structure
    constant scattered into it."""
    f = B.field
    i, j, k, c = B.constants
    by, src = (i, j) if left else (j, i)
    out = f.zeros(B.dim, B.dim)
    np.add.at(out, (k, src), f.reduce(x[by] * c))
    return f.reduce(out)


def _spread_idempotent(B):
    """B with the basis element e_v of the first vertex v whose corner
    e_v B e_v has a second basis element r replaced by e_v - r, or None:
    still vertex-adapted, and the idempotent e_v = (e_v - r) + r has two
    nonzero coordinates."""
    f = B.field
    left, right = (vertex_labels_dense(
        f, [_scattered(B, e, side) for e in B.idempotents], "basis")
        for side in (True, False))
    for v, e in enumerate(B.idempotents):
        p = int(np.flatnonzero(e != f.zero)[0])
        rest = np.flatnonzero((left == v) & (right == v))
        rest = rest[rest != p]
        if len(rest):
            break
    else:
        return None
    # the new basis in old coordinates, and its inverse
    new, back = f.eye(B.dim), f.eye(B.dim)
    new[p, rest[0]], back[p, rest[0]] = f.neg(f.one), f.one

    def mult(a):
        return f.matmul(np.stack([B.mult_vec(new[a], y) for y in new]), back)

    return FinDimAlgebra(f, B.dim, mult,
                         [f.matmul(e[None], back)[0] for e in B.idempotents])


@pytest.mark.parametrize("label, make, n", [
    pytest.param(*case, id=case[0]) for case in _corpus(GF(32003))])
def test_vertex_labels_from_entries_equal_the_dense_route(label, make, n):
    """The labels that ``vertex_labels`` reads off the entries of each
    idempotent's action equal those of the dense 0/1 diagonal matrices,
    on Pi~, Gamma and, where a corner e_v Pi~ e_v has two basis elements,
    Pi~ in a basis whose idempotent e_v has two nonzero coordinates."""
    A = make()
    tilde = preprojective_algebra(A, n)
    algebras = [tilde, stable_endomorphism(A, n)]
    spread = _spread_idempotent(tilde)
    assert (spread is not None) == label.startswith(("canonical", "1-aus"))
    if spread is not None:
        assert max(int(np.sum(e != tilde.field.zero))
                   for e in spread.idempotents) == 2
        algebras.append(spread)
    for B in algebras:
        f = B.field
        for left in (True, False):
            dense = [_scattered(B, e, left) for e in B.idempotents]
            entries = [B.left_action(e) if left else B.right_action(e)
                       for e in B.idempotents]
            assert list(vertex_labels(f, B.dim, entries, "basis")) == \
                list(vertex_labels_dense(f, dense, "basis"))
            mats = [B.left_mult_matrix(e) if left else right_mult_matrix(B, e)
                    for e in B.idempotents]
            assert all(f.equal(m, d) for m, d in zip(mats, dense))


def test_quiver_presentation_builds_no_dense_action(monkeypatch):
    """The presentations of Pi~ and Gamma of Aus(A4), and of Pi~ in a basis
    whose idempotent e_v has two nonzero coordinates, read every action
    off the entries."""
    A = auslander_algebra(dynkin_path_algebra(4, None, GF(32003)))
    tilde = preprojective_algebra(A, 2)
    algebras = [tilde, stable_endomorphism(A, 2), _spread_idempotent(tilde)]

    def dense(*args):
        raise AssertionError("dense action built")

    monkeypatch.setattr(FinDimAlgebra, "left_mult_matrix", dense)
    monkeypatch.setattr(findim, "_dense", dense)
    for B in algebras:
        assert quiver_presentation(B).dim == B.dim
