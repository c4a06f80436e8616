import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quiveralg.errors import AboveCap, AboveCapError, GldimTooLarge
from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, dynkin_path_algebra,
                                higher_auslander_chain)
from quiveralg.homology import (_hom_apply, ext, gldim_at_most,
                                global_dimension, hom_matrix,
                                injective_dimension, min_proj_resolution,
                                proj_dimension, syzygy, tau, tau_inv, tau_n,
                                tau_n_inv, tau_n_orbit, transpose)
from quiveralg.modules import (coregular, hom_space, injective,
                               is_isomorphic, op_algebra, projective, regular,
                               simple)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import (cosyzygy_by_envelopes, ext_by_cocycles,
                        global_dimension_by_simples, random_module,
                        stable_hom, syzygy_by_loop, tau_n_by_loop,
                        tau_n_inv_by_envelopes, tau_n_inv_by_loop,
                        transpose_by_presentation)
from test_end_corners import _corpus
from test_presentation import bound_quiver_algebras

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1})])


def semisimple2():
    return complete_basis(Quiver(["1", "2"], []), F, [])


def test_resolution_of_projective_has_length_zero():
    A = a2()
    res = min_proj_resolution(projective(A, 0))
    assert res.length == 0 and not res.truncated


def test_resolution_of_s1_a2():
    A = a2()
    res = min_proj_resolution(simple(A, 0))
    assert res.length == 1
    assert res.terms[0].summands == (0,)
    assert res.terms[1].summands == (1,)


def test_resolution_of_s1_nak_a3_has_pd_2():
    A = nak_a3()
    res = min_proj_resolution(simple(A, 0))
    assert res.length == 2
    assert [t.summands for t in res.terms] == [(0,), (1,), (2,)]


def test_syzygy_of_projective_is_zero():
    A = nak_a3()
    assert syzygy(projective(A, 0), 1).is_zero()


def test_syzygy_s1_a2():
    A = a2()
    om = syzygy(simple(A, 0), 1)
    assert is_isomorphic(om, simple(A, 1))


def test_cosyzygy_s3_nak_a3():
    A = nak_a3()
    om = syzygy(simple(A, 2), -1)
    assert is_isomorphic(om, simple(A, 1))


def test_ext_projective_vanishes():
    A = nak_a3()
    rng = random.Random(3)
    p = projective(A, 0)
    for _ in range(5):
        n = random_module(A, rng)
        for i in (1, 2, 3):
            assert ext(p, n, i) == 0


def test_ext_dim0_is_hom():
    A = nak_a3()
    rng = random.Random(4)
    for _ in range(8):
        m, n = random_module(A, rng), random_module(A, rng)
        assert ext(m, n, 0) == len(hom_space(m, n))


def test_ext2_on_nakayama():
    A = nak_a3()
    assert ext(simple(A, 0), simple(A, 2), 2) == 1
    assert ext(simple(A, 0), simple(A, 1), 1) == 1
    assert ext(simple(A, 0), simple(A, 0), 1) == 0


def test_transpose_of_projective_is_zero():
    A = a2()
    assert transpose(projective(A, 0)).is_zero()


def test_transpose_s1_a2():
    A = a2()
    t = transpose(simple(A, 0))
    # Tr S1 is the simple at vertex 2 over the opposite algebra (its dual
    # is tau S1 = S2)
    assert t.dims == (0, 1)
    assert t.algebra is op_algebra(A)


def test_dtr_is_tau_on_a2():
    A = a2()
    t = tau(simple(A, 0))
    assert is_isomorphic(t, simple(A, 1))


def test_tau_of_projective_zero():
    A = nak_a3()
    for v in range(3):
        assert tau(projective(A, v)).is_zero()


def test_tau_inv_of_injective_zero():
    A = nak_a3()
    for v in range(3):
        assert tau_inv(injective(A, v)).is_zero()


def test_tau_inv_s2_nak_a3():
    A = nak_a3()
    assert is_isomorphic(tau_inv(simple(A, 1)), simple(A, 0))


def test_tau_tau_inv_identity_on_middle():
    # over the Nakayama A3 algebra, S2 is neither projective nor injective
    A = nak_a3()
    s2 = simple(A, 1)
    assert is_isomorphic(tau(tau_inv(s2)), s2)
    assert is_isomorphic(tau_inv(tau(s2)), s2)


def test_tau_1_equals_tau():
    A = nak_a3()
    s2 = simple(A, 1)
    assert is_isomorphic(tau_n(s2, 1), tau(s2))
    assert is_isomorphic(tau_n_inv(s2, 1), tau_inv(s2))


def test_tau_2_inv_p3_nak_a3():
    A = nak_a3()
    p3 = projective(A, 2)
    t = tau_n_inv(p3, 2)
    assert is_isomorphic(t, simple(A, 0))


def test_global_dimension():
    assert global_dimension(semisimple2()) == 0
    assert global_dimension(a2()) == 1
    assert global_dimension(nak_a3()) == 2
    assert global_dimension(complete_basis(Quiver([], []), F, [])) == 0


def _assert_gldim_is_the_simples_route(A, caps):
    """gldim from one resolution of the top equals the largest pd of a
    simple, at each cap in turn on A, so that the memo answers some of
    them, and at each cap alone on a copy of A with an empty memo."""
    def fresh():
        return complete_basis(A.quiver, A.field, A.relations)

    for cap in caps:
        want = global_dimension_by_simples(fresh(), cap)
        assert global_dimension(A, cap) == want, cap
        assert global_dimension(fresh(), cap) == want, cap


def _loop_algebra(field=F):
    """1 <-> 2 with both paths of length 2 zero: self-injective, infinite
    gldim."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1}),
                                     PathElement(q, {Path(1, (1, 0)): 1})])


GLDIM_CASES = [pytest.param(make, id=label) for label, make, _ in
               _corpus(F)] + [
    pytest.param(lambda: higher_auslander_chain(4, 2)[-1], id="2-aus-A4"),
    pytest.param(_loop_algebra, id="loop"),
    pytest.param(lambda: _loop_algebra(QQ), id="loop-QQ"),
    pytest.param(lambda: complete_basis(Quiver([], []), F, []),
                 id="no-vertices")]


@pytest.mark.parametrize("make", GLDIM_CASES)
def test_gldim_is_the_largest_pd_of_a_simple(make):
    """Caps below, at and above gldim A, rising and then falling."""
    _assert_gldim_is_the_simples_route(make(), [0, 1, 2, 3, 5, 4, 2, 0, 6])


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gldim_is_the_largest_pd_of_a_simple_on_drawn_algebras(field, data):
    A = data.draw(bound_quiver_algebras(field))
    caps = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    _assert_gldim_is_the_simples_route(A, caps)


def test_injective_dimension():
    A = nak_a3()
    assert injective_dimension(injective(A, 0)) == 0
    assert injective_dimension(injective(A, 2)) == 0
    assert injective_dimension(simple(A, 2), 8) == 2
    assert injective_dimension(projective(A, 0), 8) == 0  # P1 = I2 here


def test_ext_vanishes_above_gldim():
    A = nak_a3()
    rng = random.Random(12)
    for _ in range(6):
        m, n = random_module(A, rng), random_module(A, rng)
        assert ext(m, n, 3) == 0
        assert ext(m, n, 4) == 0


def test_ar_duality_dims():
    # dim Ext^1(X, Y) = dim stable Hom(tau^- Y, X) on the Nakayama corpus
    A = nak_a3()
    rng = random.Random(13)
    for _ in range(10):
        x, y = random_module(A, rng), random_module(A, rng)
        lhs = ext(x, y, 1)
        rhs = len(stable_hom(tau_inv(y), x))
        assert lhs == rhs


def test_proj_dimension_above_cap():
    A = _loop_algebra()
    pd = proj_dimension(simple(A, 0), 6)
    assert pd == AboveCap(6)


def test_gldim_at_most_names_the_gldim_or_the_cap():
    """The finite gldim in the error line, else the cap it is above; with
    a length cap, AboveCapError past that cap."""
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    A = complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1}),
                              PathElement(q, {Path(1, (1, 2)): 1})])
    assert gldim_at_most(A, 3) == 3
    with pytest.raises(GldimTooLarge, match=r"^gldim\(A\) = 3 exceeds n = 2$"):
        gldim_at_most(A, 2)
    with pytest.raises(GldimTooLarge,
                       match=r"^gldim\(A\) is above 2, so it exceeds n = 1$"):
        gldim_at_most(A, 1)
    with pytest.raises(GldimTooLarge, match=r"= 3 exceeds n = 1$"):
        gldim_at_most(A, 1, cap=32)
    with pytest.raises(AboveCapError, match="length cap 2$"):
        gldim_at_most(A, 1, cap=2)


def _same_module(X, Y) -> bool:
    """X and Y over one algebra, with equal dimension vectors and arrow
    matrices."""
    f = X.field
    return (X.algebra is Y.algebra and X.dims == Y.dims
            and all(f.equal(a, b) for a, b in zip(X.action, Y.action)))


def _assert_cover_route_is_the_envelope_route(M, n):
    """Omega^{-k} M for k <= n, and tau_n^- M, taken through projective
    covers over A^op, equal the cokernels of injective envelopes entry by
    entry."""
    for k in range(1, n + 1):
        assert _same_module(syzygy(M, -k), cosyzygy_by_envelopes(M, k)), k
    assert _same_module(tau_n_inv(M, n), tau_n_inv_by_envelopes(M, n))


ENVELOPE_CASES = [pytest.param(make, n, id=label)
                  for label, make, n in _corpus(F)] + [
    pytest.param(lambda: auslander_algebra(dynkin_path_algebra(5)), 2,
                 id="Aus(A5)"),
    pytest.param(lambda: higher_auslander_chain(4, 2)[-1], 3,
                 id="2-aus-A4"),
    pytest.param(lambda: auslander_algebra(
        dynkin_path_algebra(3, ["f", "b"], QQ)), 2,
        id="aus-A3-nonlinear-QQ"),
]


@pytest.mark.parametrize("make, n", ENVELOPE_CASES)
def test_cosyzygies_and_tau_n_inv_are_the_envelope_route(make, n):
    """On the regular module, the simples and the iterates tau_n^{-i} A
    up to the first zero one."""
    A = make()
    mods = [regular(A)] + [simple(A, v) for v in range(A.quiver.n_vertices)]
    for i in range(1, 16):
        it = tau_n_orbit(A, n, i)
        if it.is_zero():
            break
        mods.append(it)
    for M in mods:
        _assert_cover_route_is_the_envelope_route(M, n)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cosyzygies_and_tau_n_inv_are_the_envelope_route_on_drawn_algebras(
        field, data):
    A = data.draw(bound_quiver_algebras(field))
    n = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    for _ in range(2):
        _assert_cover_route_is_the_envelope_route(random_module(A, rng), n)


def _assert_one_walk_is_the_loop_route(M, N, n):
    """Ext^i(M, N) for i <= 3, read off ranks, equals the cocycle route,
    from a fresh resolution and from one of length 1, truncated when
    pd M > 1; Omega^k M for |k| <= n + 1, Tr M, tau_n M and tau_n^- M,
    each read off one resolution, equal the route by covers and kernels
    with its own presentation, entry by entry."""
    short = min_proj_resolution(M, 1)
    for i in range(4):
        want = ext_by_cocycles(M, N, i)[0]
        assert ext(M, N, i) == want == ext(M, N, i, short), i
    for k in range(-n - 1, n + 2):
        assert _same_module(syzygy(M, k), syzygy_by_loop(M, k)), k
    assert _same_module(transpose(M), transpose_by_presentation(M))
    assert _same_module(tau_n(M, n), tau_n_by_loop(M, n))
    assert _same_module(tau_n_inv(M, n), tau_n_inv_by_loop(M, n))


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_resolution_walk_is_the_loop_route_on_drawn_algebras(field,
                                                                 data):
    A = data.draw(bound_quiver_algebras(field))
    n = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    M, N = random_module(A, rng), random_module(A, rng)
    for X in (M, simple(A, 0), regular(A)):
        _assert_one_walk_is_the_loop_route(X, N, n)


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
def test_ext_from_a_truncated_resolution_is_the_cocycle_route(field):
    """Over the loop algebra every simple has infinite pd, so the
    resolution of length 1 stops at a nonzero kernel and Ext^i for
    i >= 1 needs a longer one."""
    A = _loop_algebra(field)
    rng = random.Random(5)
    for M in [simple(A, 0), simple(A, 1), random_module(A, rng)]:
        res = min_proj_resolution(M, 1)
        assert res.truncated and res.length == 1
        assert not res.kernel.is_zero()
        assert isinstance(proj_dimension(M, 6), AboveCap)
        for N in [simple(A, 0), regular(A), random_module(A, rng)]:
            _assert_one_walk_is_the_loop_route(M, N, 2)
            for i in range(4):
                assert ext(M, N, i, res) == ext_by_cocycles(M, N, i, res)[0]


@pytest.mark.parametrize("field", [F, QQ], ids=["GF", "QQ"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hom_apply_is_hom_matrix_times_the_columns(field, data):
    """On the differentials of the resolutions of D A and of a drawn
    module, into the regular module and into another drawn module, for
    several columns."""
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    for M in (coregular(A), random_module(A, rng)):
        res = min_proj_resolution(M, 3)
        for i in range(res.length):
            d = res.differential(i)
            for N in (regular(A), random_module(A, rng)):
                H = hom_matrix(d, N)
                ys = field.array([[rng.randrange(-3, 4) for _ in range(3)]
                                  for _ in range(H.shape[1])]).reshape(-1, 3)
                assert field.equal(_hom_apply(d, N, ys), field.matmul(H, ys))
