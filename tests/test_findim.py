"""The sparse structure-constant core of FinDimAlgebra."""

import random

import numpy as np
import pytest

from quiveralg.exactla import GF, QQ
from quiveralg.families import canonical_2222, linear_nakayama
from quiveralg.findim import FinDimAlgebra, algebra_from_bqa

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


def test_left_right_and_vector_products_agree(bqa_and_view):
    A, B = bqa_and_view
    f = B.field
    basis = f.eye(B.dim)
    rmats = [B.right_mult_matrix(e) for e in basis]
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
    table = {(0, 0): {1: f.one}, (1, 0): {1: f.one}}
    B = FinDimAlgebra(f, 2, lambda i, j: table.get((i, j), {}),
                      [f.eye(2)[0], f.eye(2)[1]])
    assert B.check_associativity() is False
