import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quiveralg import exactla
from quiveralg.exactla import (GF, QQ, PrimeField, complement_rows,
                               complement_units)
from references import (QuotientBasis, complement_rows_greedy,
                        complement_rows_of_identity, equal_by_all,
                        eye_by_numpy, fraction_matmul, is_zero_by_all,
                        kernel_rref_by_row_space, prime_rref)

F = GF(32003)


def test_rref_identity():
    r, pivots = F.rref(F.eye(2))
    assert F.equal(r, F.eye(2))
    assert pivots == [0, 1]
    assert len(pivots) == 2


def test_rref_zero():
    m = F.zeros(2, 2)
    r, pivots = F.rref(m)
    assert F.equal(r, m)
    assert pivots == []
    assert len(pivots) == 0


def test_rref_rank_one_over_q():
    m = QQ.array([[1, 2], [2, 4]])
    r, pivots = QQ.rref(m)
    assert len(pivots) == 1
    assert r.reshape(-1).tolist() == [Fraction(1), Fraction(2),
                                      Fraction(0), Fraction(0)]


def test_kernel_injective():
    assert F.kernel(F.eye(3)).shape[0] == 0


def test_kernel_zero_map():
    k = F.kernel(F.zeros(3, 3))
    assert k.shape[0] == 3
    assert QQ is not None


def test_kernel_rank_one_over_q():
    k = QQ.kernel(QQ.array([[1, 2], [2, 4]]))
    assert k.shape[0] == 1
    v = k.reshape(-1).tolist()
    # spanned by (-2, 1) up to scalar
    assert v[0] * 1 == v[1] * -2


def test_solve_identity():
    b = F.array([[5], [7]])
    x = F.solve(F.eye(2), b)
    assert F.equal(x, b)


def test_solve_absent():
    assert F.solve(F.zeros(2, 2), F.array([[1], [0]])) is None


def test_solve_back_substitution_over_q():
    m = QQ.array([[1, 1], [0, 1]])
    b = QQ.array([[3], [1]])
    x = QQ.solve(m, b)
    assert x.reshape(-1).tolist() == [Fraction(2), Fraction(1)]


def test_solve_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        F.solve(F.eye(2), F.array([[1], [1], [1]]))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_solve_with_zero_right_hand_side_runs_no_rref(field, monkeypatch):
    """a @ x = 0 gets the zero solution that the rref of [a | 0] gives,
    with no rref: for a of rank 2 below its width 4, and for a with no
    columns.  A nonzero b still goes through the rref."""
    a = field.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    cases = [(a, 1), (a, 3), (field.zeros(2, 0), 2), (field.zeros(0, 3), 1)]
    wants = []
    for m, k in cases:
        n = m.shape[1]
        r, piv = field.rref(np.concatenate([m, field.zeros(len(m), k)], 1))
        want = field.zeros(n, k)
        for i, c in enumerate(piv):
            want[c] = r[i, n:]
        wants.append(want)

    def no_rref(self, m):
        raise AssertionError("rref ran")

    with monkeypatch.context() as patch:
        # on the class: undoing a patch of the instance would leave the
        # bound method behind as an instance attribute
        patch.setattr(type(field), "rref", no_rref)
        for (m, k), want in zip(cases, wants):
            x = field.solve(m, field.zeros(len(m), k))
            assert x.dtype == want.dtype and field.equal(x, want)
    b = field.array([[1], [2], [1]])
    assert field.equal(field.matmul(a, field.solve(a, b)), b)
    assert field.solve(field.zeros(2, 0), field.array([[1], [0]])) is None


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


def _independent_rows(field, rng, rows, cols):
    """`rows` random, linearly independent rows (needs rows <= cols)."""
    while True:
        a = _random_matrix(field, rng, rows, cols)
        if field.rank(a) == rows:
            return a


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quotient_basis_coords_proj_spans(field, nsub, ntotal, cols, seed):
    rng = random.Random(seed)
    nsub = min(nsub, cols)
    sub = _independent_rows(field, rng, nsub, cols)
    total = _random_matrix(field, rng, ntotal, cols)
    if ntotal > 1:
        # a repeated row is never picked twice
        total[-1] = total[0]
    quot = QuotientBasis(field, sub, total)
    full = np.concatenate([sub, quot.comp])
    assert field.rank(full) == full.shape[0]
    assert field.rank(np.concatenate([sub, total])) == full.shape[0]
    # vectors inside the span: random combinations of sub and comp rows
    vecs = field.matmul(_random_matrix(field, rng, 3, full.shape[0]), full)
    assert quot.spans(vecs).all()
    x = field.solve(full.T, vecs.T)
    assert field.equal(quot.coords(vecs), x[nsub:].T)
    assert field.equal(field.matmul(quot.proj, vecs.T), quot.coords(vecs).T)
    # a unit vector lies in the span iff it leaves the rank unchanged
    units = field.eye(cols)
    inside = [field.rank(np.concatenate([full, units[j:j + 1]]))
              == full.shape[0] for j in range(cols)]
    assert quot.spans(units).tolist() == inside
    assert all(inside) == (full.shape[0] == cols)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_quotient_basis_refuses_dependent_sub(field):
    sub = field.array([[1, 2, 0], [2, 4, 0]])
    with pytest.raises(ValueError):
        QuotientBasis(field, sub, field.eye(3))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_row_space_owns_its_rows(field):
    # a view would keep the whole rref buffer alive
    basis = field.row_space(field.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert basis.shape == (2, 3)
    assert basis.base is None


def test_complement_rows_of_e0_in_identity():
    comp = complement_rows(F, F.eye(3)[:1], F.eye(3))
    assert F.equal(comp, F.eye(3)[1:])


def _sparse_low_rank(field, rng, rows, cols, rank):
    """A product of two sparse random factors: rank at most `rank`, with
    zero columns and repeated pivots that dense random matrices lack."""
    def factor(r, c):
        a = field.zeros(r, c)
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.5:
                    a[i, j] = field.rand_el(rng)
        return a
    return field.matmul(factor(rows, rank), factor(rank, cols))


def _kernel_loop(field, a):
    """Field.kernel's basis filled one entry at a time, the reference."""
    r, pivots = field.rref(a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    out = field.zeros(len(free), a.shape[1])
    for i, fc in enumerate(free):
        out[i, fc] = field.one
        for j, pc in enumerate(pivots):
            out[i, pc] = field.neg(r[j, fc])
    return out


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_loop_reference(field, rows, cols, rank, seed):
    a = _sparse_low_rank(field, random.Random(seed), rows, cols, rank)
    got, want = field.kernel(a), _kernel_loop(field, a)
    assert got.dtype == want.dtype and field.equal(got, want)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@given(st.integers(0, 5), st.integers(1, 6), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_complement_of_identity_matches_greedy_loop(field, rows, cols, rank,
                                                    seed):
    sub = _sparse_low_rank(field, random.Random(seed), rows, cols, rank)
    comp = complement_rows(field, sub, field.eye(cols))
    want = complement_rows_greedy(field, sub, field.eye(cols))
    assert comp.dtype == want.dtype and field.equal(comp, want)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 6),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_complement_rows_matches_greedy_loop(field, sub_rows, total_rows,
                                             cols, rank, seed):
    # rows of `total` outside rowspace(sub), inside it, and dependent ones
    rng = random.Random(seed)
    sub = _sparse_low_rank(field, rng, sub_rows, cols, rank)
    total = np.concatenate([
        _sparse_low_rank(field, rng, total_rows, cols, rank),
        field.matmul(_sparse_low_rank(field, rng, total_rows, sub_rows,
                                      sub_rows), sub)])
    total = total[rng.sample(range(len(total)), len(total))]
    got = complement_rows(field, sub, total)
    want = complement_rows_greedy(field, sub, total)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert field.equal(got, want)


def _rref_every_row(field, a):
    """Gauss-Jordan elimination that subtracts a multiple of the pivot row
    from every row at every pivot, the reference for Field.rref."""
    a = a.copy()
    m, n = a.shape
    pivots, r = [], 0
    for c in range(n):
        nz = [i for i in range(r, m) if a[i, c] != field.zero]
        if r == m or not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = field.smul(field.inv_el(a[r, c]), a[r])
        for i in range(m):
            if i != r:
                a[i] = field.sub(a[i], field.smul(a[i, c], a[r]))
        pivots.append(c)
        r += 1
    return a, pivots


def _straddling(limit, dims):
    """Shapes of `dims` sides: small ones, empty ones among them, and ones
    whose cell count lies just below or just above `limit`."""
    side = round(limit ** (1 / dims))
    small = st.tuples(*[st.integers(0, 7)] * dims)
    near = st.tuples(*[st.integers(side - 1, side + 1)] * dims)
    return st.one_of(small, near)


_rref_shapes = _straddling(exactla._ROW_RREF_CELLS, 2)


@given(_rref_shapes, st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rational_rref_matches_every_row_elimination(shape, rank, seed):
    rows, cols = shape
    a = _sparse_low_rank(QQ, random.Random(seed), rows, cols, rank)
    (got, gp), (want, wp) = QQ.rref(a), _rref_every_row(QQ, a)
    assert gp == wp and got.dtype == want.dtype and QQ.equal(got, want)


@pytest.mark.parametrize("p", [32003, 3, 2, 2**31 - 1])
@given(_rref_shapes, st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prime_rref_matches_the_fused_mod_p_reference(p, shape, rank, seed):
    rows, cols = shape
    field = GF(p)
    a = _sparse_low_rank(field, random.Random(seed), rows, cols, rank)
    (got, gp), (want, wp) = field.rref(a), prime_rref(field, a)
    assert gp == wp and got.dtype == want.dtype and field.equal(got, want)


@pytest.mark.parametrize("p", [32003, 3, 2, 2**31 - 1])
@given(_straddling(exactla._INT64_MATMUL_MNK, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prime_matmul_matches_the_object_product(p, shape, seed):
    m, k, n = shape
    field = GF(p)
    rng = random.Random(seed)
    a, b = _random_matrix(field, rng, m, k), _random_matrix(field, rng, k, n)
    got = field.matmul(a, b)
    want = (a.astype(object) @ b.astype(object)) % p
    assert got.dtype == np.int64 and got.shape == (m, n)
    assert (got == want).all()


_fractions = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))


@st.composite
def _rational_matrices(draw, rows, cols):
    """A rows x cols Fraction matrix: either dense, with no zero entry, or
    with small integers (zero among them), large non-integer fractions and
    some rows and columns set to zero."""
    dense = draw(st.booleans())
    entry = _fractions.filter(bool) if dense else _fractions
    a = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = draw(entry)
    if not dense:
        a[[i for i in draw(st.sets(st.integers(0, 6))) if i < rows]] = \
            Fraction(0)
        a[:, [j for j in draw(st.sets(st.integers(0, 6))) if j < cols]] = \
            Fraction(0)
    return a


@given(st.tuples(*[st.integers(0, 6)] * 3), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_matmul_matches_the_fraction_product(shape, data):
    m, k, n = shape
    a = data.draw(_rational_matrices(m, k))
    b = data.draw(_rational_matrices(k, n))
    a_before, b_before = a.tolist(), b.tolist()
    got = QQ.matmul(a, b)
    assert got.shape == (m, n) and got.dtype == object
    assert all(type(x) is Fraction for x in got.flat)
    assert got.tolist() == fraction_matmul(a, b).tolist()
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
    assert a.tolist() == a_before and b.tolist() == b_before


def test_int64_product_is_guarded_against_overflow():
    # 3 * (p - 1)^2 exceeds 2^63, so an unguarded int64 product wraps
    p = 2**31 - 1
    a = np.full((3, 3), p - 1, dtype=np.int64)
    assert (GF(p).matmul(a, a) == 3 * (p - 1) ** 2 % p).all()


_ints = st.integers(-10**6, 10**6)


@pytest.mark.parametrize("p", [32003, 3, 2])
@given(st.lists(_ints, min_size=1, max_size=6), _ints, _ints)
@settings(max_examples=60, deadline=None)
def test_prime_field_ops_match_python_mod(p, xs, y, c):
    """reduce, neg, add, sub and smul on arrays and scalars give Python's
    int % p, negative inputs included."""
    field = GF(p)
    a = np.array(xs, dtype=np.int64)
    ra = [x % p for x in xs]
    assert field.reduce(a).tolist() == ra
    assert int(field.reduce(np.int64(y))) == y % p == field.reduce(y)
    b = field.reduce(a[::-1])
    rb = [x % p for x in reversed(xs)]
    a = field.reduce(a)
    assert field.neg(a).tolist() == [-x % p for x in ra]
    assert field.add(a, b).tolist() == [(x + z) % p for x, z in zip(ra, rb)]
    assert field.sub(a, b).tolist() == [(x - z) % p for x, z in zip(ra, rb)]
    assert field.smul(field.el(c), a).tolist() == [c * x % p for x in ra]
    assert all(0 <= v < p for v in field.sub(a, b).tolist())


_fracs = st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10**6)


@given(st.lists(_fracs, min_size=1, max_size=6), _fracs)
@settings(max_examples=60, deadline=None)
def test_rational_field_ops_match_fraction(xs, c):
    a = QQ.array(xs)
    b = a[::-1]
    rb = list(reversed(xs))
    assert list(QQ.reduce(a)) == xs and QQ.reduce(c) == c
    assert list(QQ.neg(a)) == [-x for x in xs]
    assert list(QQ.add(a, b)) == [x + z for x, z in zip(xs, rb)]
    assert list(QQ.sub(a, b)) == [x - z for x, z in zip(xs, rb)]
    assert list(QQ.smul(c, a)) == [c * x for x in xs]
    assert all(isinstance(v, Fraction) for v in QQ.sub(a, b))


@pytest.mark.parametrize("field", [F, GF(2), QQ], ids=["GF", "GF2", "QQ"])
@given(st.lists(st.tuples(st.integers(0, 4), _ints), max_size=12),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_accumulate_matches_a_summed_dict(field, terms, seed):
    """accumulate adds each term in place, keeps only nonzero sums and
    returns the dict it was given."""
    rng = random.Random(seed)
    start = {k: field.rand_el(rng) for k in range(3) if rng.random() < 0.7}
    start = {k: v for k, v in start.items() if v != field.zero}
    terms = [(k, field.el(c)) for k, c in terms]
    exact = int if field.kind == "GF" else Fraction
    sums = {}
    for k, c in list(start.items()) + terms:
        sums[k] = sums.get(k, 0) + exact(c)
    want = {k: field.el(v) for k, v in sums.items()
            if field.el(v) != field.zero}
    out = dict(start)
    assert field.accumulate(out, iter(terms)) is out
    assert out == want


def _drawn_matrix(field, data, rows, cols):
    """A rows x cols matrix with entries drawn from a few small values,
    half of them zero."""
    m = field.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = field.el(data.draw(st.sampled_from([0, 0, 0, 1, -1, 2])))
    return m


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_zero_and_equality_tests_match_np_all(field, data):
    """is_zero and equal count nonzero entries; they answer as np.all of
    the comparisons does, on empty matrices and on shapes that differ
    (broadcastable ones too)."""
    shape = (data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
    a = _drawn_matrix(field, data, *shape)
    kind = data.draw(st.sampled_from(["copy", "changed", "other shape"]))
    if kind == "other shape":
        b = _drawn_matrix(field, data, data.draw(st.integers(0, 4)),
                          data.draw(st.integers(0, 4)))
    else:
        b = a.copy()
        if kind == "changed" and a.size:
            i = data.draw(st.integers(0, a.shape[0] - 1))
            j = data.draw(st.integers(0, a.shape[1] - 1))
            b[i, j] = field.add(b[i, j], field.one)
    for m in (a, b):
        assert field.is_zero(m) is is_zero_by_all(field, m)
    assert field.equal(a, b) is equal_by_all(field, a, b)
    assert field.equal(b, a) is equal_by_all(field, b, a)


@pytest.mark.parametrize("n", range(9))
def test_prime_field_eye_is_numpy_eye(n):
    got, want = F.eye(n), eye_by_numpy(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_complement_units_match_the_identity_branch(field, data):
    """The unit vectors complement_units names are the rows that the
    identity branch of complement_rows picked, the rows complement_rows
    picks from the identity, and the rows picked one at a time from it."""
    n = data.draw(st.integers(0, 5))
    sub = _drawn_matrix(field, data, data.draw(st.integers(0, 4)), n)
    rows = field.eye(n)[complement_units(field, sub, n)]
    assert field.equal(rows, complement_rows_of_identity(field, sub, n))
    assert field.equal(rows, complement_rows(field, sub, field.eye(n)))
    assert field.equal(rows, complement_rows_greedy(field, sub, field.eye(n)))


def test_complement_units_of_no_columns_make_no_rref(monkeypatch):
    def no_rref(self, a):
        raise AssertionError("rref called")
    monkeypatch.setattr(PrimeField, "rref", no_rref)
    assert complement_units(F, F.zeros(0, 0), 0) == []
    assert complement_units(F, F.zeros(3, 0), 0) == []


# -- the RREF of a kernel from one elimination --------------------------------

def _assert_kernel_rref(field, a):
    """kernel_rref(a) is row_space(kernel(a)), with that RREF's pivots: a
    basis of ker(a) that is the identity at its pivots."""
    got, piv = field.kernel_rref(a)
    want, want_piv = kernel_rref_by_row_space(field, a)
    assert got.dtype == want.dtype and field.equal(got, want)
    assert piv == want_piv
    n = a.shape[1]
    assert got.shape == ((n - field.rank(a), n) if n else (0, 0))
    assert field.equal(got[:, piv], field.eye(len(piv)))
    assert field.is_zero(field.matmul(a, got.T))
    # the inline form it replaced in the tensor algebra's grade loop
    assert field.equal(got, field.kernel(a[:, ::-1])[::-1, ::-1])


def _invertible(field, n, seed):
    rng = random.Random(seed)
    while True:
        m = field.array([[rng.randrange(-3, 4) for _ in range(n)]
                         for _ in range(n)])
        if field.rank(m) == n:
            return m


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@pytest.mark.parametrize("shape, kind", [
    ((0, 4), "zero"), ((3, 0), "zero"), ((0, 0), "zero"), ((3, 5), "zero"),
    ((4, 4), "full rank"), ((3, 5), "full rank"), ((6, 4), "full rank"),
    ((1, 1), "full rank")])
def test_kernel_rref_on_empty_zero_and_full_rank_matrices(field, shape,
                                                         kind):
    m, n = shape
    a = field.zeros(m, n)
    if kind == "full rank":
        k = min(m, n)
        a[:k, :k] = _invertible(field, k, m * 10 + n)
        a = a[::-1] if m > n else a
    _assert_kernel_rref(field, a)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_rref_is_the_row_space_of_the_kernel(field, data):
    """Drawn matrices up to 6 x 7, half their entries zero; above 1024
    cells a GF(p) rref takes the numpy route, so a tall drawn matrix is
    stacked on itself until it does."""
    a = _drawn_matrix(field, data, data.draw(st.integers(0, 6)),
                      data.draw(st.integers(0, 7)))
    _assert_kernel_rref(field, a)
    if field is F and a.size and data.draw(st.booleans()):
        _assert_kernel_rref(field, np.concatenate(
            [a] * (exactla._ROW_RREF_CELLS // a.size + 1)))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_rref_is_the_quotient_of_the_whole_space(field, data):
    """kernel_rref(S), for rows S with dependent rows, zero rows and zero
    columns, is the whole-space QuotientBasis of rowspace(S): its pivots
    are the unit vectors that complete rowspace(S), and it maps each
    vector to the coordinates of its class on them."""
    n = data.draw(st.integers(0, 5))
    S = _drawn_matrix(field, data, data.draw(st.integers(0, 4)), n)
    if n and data.draw(st.booleans()):
        S[:, data.draw(st.integers(0, n - 1))] = field.zero
    if S.shape[0] and data.draw(st.booleans()):
        # a repeated row, a sum of two rows and a zero row
        S = np.concatenate([S, S[:1], field.add(S[:1], S[-1:]),
                            field.zeros(1, n)])
    proj, units = field.kernel_rref(S)
    want = QuotientBasis(field, field.row_space(S))
    assert units == complement_units(field, S, n)
    assert field.equal(field.eye(n)[units], want.comp)
    assert proj.dtype == want.proj.dtype and field.equal(proj, want.proj)
    assert field.is_zero(field.matmul(proj, S.T))
    assert field.equal(proj[:, units], field.eye(len(units)))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_rref_pivots_are_the_greedy_picks_of_a_kernel_basis(field,
                                                                  data):
    """Rows S in the span of a kernel basis K have their K coordinates at
    its free columns, and the pivots of kernel_rref of those coordinates
    name the rows of K that complement_rows picks to extend rowspace(S)."""
    a = _drawn_matrix(field, data, data.draw(st.integers(0, 4)),
                      data.draw(st.integers(1, 6)))
    K = field.kernel(a)
    free = [c for c in range(a.shape[1]) if c not in field.rref(a)[1]]
    C = _drawn_matrix(field, data, data.draw(st.integers(0, 4)), len(free))
    S = field.matmul(C, K)
    assert field.equal(S[:, free], C)
    proj, units = field.kernel_rref(S[:, free])
    assert field.equal(K[units], complement_rows(field, field.row_space(S), K))
