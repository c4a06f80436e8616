import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiveralg.exactla import GF, QQ, Matrix, kernel, rref, solve

F = GF(32003)


def test_rref_identity():
    m = Matrix.from_array(F.eye(2))
    r, pivots, rank = rref(m, F)
    assert r == m
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_zero():
    m = Matrix(2, 2, (0, 0, 0, 0))
    r, pivots, rank = rref(m, F)
    assert r == m
    assert pivots == []
    assert rank == 0


def test_rref_rank_one_over_q():
    m = Matrix(2, 2, (Fraction(1), Fraction(2), Fraction(2), Fraction(4)))
    r, pivots, rank = rref(m, QQ)
    assert rank == 1
    assert r.entries == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))


def test_kernel_injective():
    assert kernel(Matrix.from_array(F.eye(3)), F).rows == 0


def test_kernel_zero_map():
    k = kernel(Matrix(3, 3, (0,) * 9), F)
    assert k.rows == 3
    assert QQ is not None


def test_kernel_rank_one_over_q():
    m = Matrix(2, 2, (Fraction(1), Fraction(2), Fraction(2), Fraction(4)))
    k = kernel(m, QQ)
    assert k.rows == 1
    v = k.entries
    # spanned by (-2, 1) up to scalar
    assert v[0] * 1 == v[1] * -2


def test_solve_identity():
    b = Matrix(2, 1, (5, 7))
    x = solve(Matrix.from_array(F.eye(2)), b, F)
    assert x == b


def test_solve_absent():
    assert solve(Matrix(2, 2, (0,) * 4), Matrix(2, 1, (1, 0)), F) is None


def test_solve_back_substitution_over_q():
    m = Matrix(2, 2, (Fraction(1), Fraction(1), Fraction(0), Fraction(1)))
    b = Matrix(2, 1, (Fraction(3), Fraction(1)))
    x = solve(m, b, QQ)
    assert x.entries == (Fraction(2), Fraction(1))


def test_solve_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve(Matrix(2, 2, (1, 0, 0, 1)), Matrix(3, 1, (1, 1, 1)), F)


def _random_matrix(field, rng, rows, cols):
    a = field.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = field.rand_el(rng)
    return a


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_rref_idempotent_and_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    a = _random_matrix(F, rng, rows, cols)
    r, pivots = F.rref(a)
    r2, pivots2 = F.rref(r)
    assert F.equal(r, r2) and pivots == pivots2
    ker = F.kernel(a)
    assert len(pivots) + ker.shape[0] == cols
    if ker.shape[0] and rows:
        assert F.is_zero(F.matmul(a, ker.T))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_solve_exactness(rows, cols, k, seed):
    rng = random.Random(seed)
    a = _random_matrix(F, rng, rows, cols)
    x0 = _random_matrix(F, rng, cols, k)
    b = F.matmul(a, x0)
    x = F.solve(a, b)
    assert x is not None
    assert F.equal(F.matmul(a, x), b)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_over_q(rows, cols, seed):
    rng = random.Random(seed)
    a = _random_matrix(QQ, rng, rows, cols)
    assert QQ.rank(a) + QQ.kernel(a).shape[0] == cols


def test_prime_just_below_int64_bound_gives_exact_kernels():
    p = 2**31 - 1
    f = GF(p)
    rng = random.Random(11)
    for _ in range(20):
        a = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
        k = f.kernel(f.array(a))
        assert k.shape[0] >= 1
        for row in k.tolist():
            assert any(row)
            assert all(sum(x * y for x, y in zip(r, row)) % p == 0
                       for r in a)


def test_prime_above_int64_bound_is_refused():
    with pytest.raises(ValueError, match="2\\^31"):
        GF(4294967311)
