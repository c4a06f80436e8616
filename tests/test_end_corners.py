"""End algebras built corner by corner against the whole-X reference.

``preprojective.end_algebra`` builds End(X) and the stable End from the
summand-pair Hom spaces.  ``references.whole_end_algebra`` solves Hom(X, X)
over all of X in one system.  The two must give the same basis, so the
same ``constants``, ``idempotents`` and dimension, over GF(32003) and Q.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, knit_indecomposables,
                                linear_nakayama, thm39_type2)
from quiveralg.homology import tau_inv
from quiveralg.modules import (direct_sum, hom_space, projective,
                               projective_cover, quotient, regular, simple,
                               socle)
from quiveralg.preprojective import _corner, end_algebra, stable_endomorphism
from references import hom_quotient, whole_end_algebra

FIELDS = [pytest.param(GF(32003), id="GF"), pytest.param(QQ, id="QQ")]


def assert_same(B, R):
    assert B.dim == R.dim
    for got, want in zip(B.constants, R.constants):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert len(B.idempotents) == len(R.idempotents)
    for got, want in zip(B.idempotents, R.idempotents):
        assert np.array_equal(got, want)
    # the corner build passes constants, so its rows come from them
    for i in range(B.dim):
        assert np.array_equal(B.table(i), R.table(i))


# (m, orientation): A_m path algebras whose indecomposables are summed
ORIENTATIONS = [(2, None), (3, None), (3, ["f", "b"]), (3, ["b", "f"]),
                (4, None), (4, ["b", "f", "b"])]


@pytest.mark.parametrize("m, orientation", ORIENTATIONS,
                         ids=[f"A{m}-{''.join(o or 'f' * (m - 1))}"
                              for m, o in ORIENTATIONS])
def test_end_of_all_indecomposables_equals_whole_route(m, orientation):
    A = dynkin_path_algebra(m, orientation)
    reps = knit_indecomposables(A)
    assert_same(end_algebra(A, reps), whole_end_algebra(reps))


@pytest.mark.parametrize("field", FIELDS)
def test_end_of_permuted_and_repeated_summands_over_both_fields(field):
    # M + M puts a 2 x 2 matrix block into the corner of M
    A = dynkin_path_algebra(3, ["f", "b"], field)
    reps = knit_indecomposables(A)
    for summands in (reps, reps[::-1], [reps[2], reps[0], reps[2]]):
        assert_same(end_algebra(A, summands), whole_end_algebra(summands))


@pytest.mark.parametrize("field", FIELDS)
def test_a_corner_modulo_one_basis_map_keeps_the_others(field):
    """Hom(A, A) modulo each of its basis maps in turn: the corner's basis
    is the other basis maps, a map reads as its quotient coordinates, and
    a map outside Hom(A, A) is refused."""
    X = regular(dynkin_path_algebra(3, None, field))
    d = np.array(X.dims)
    homs = hom_space(X, X)
    rows = np.stack([h.flatten()[0] for h in homs])
    assert len(homs) == 6
    for k in range(len(homs)):
        corner = _corner(field, homs, [rows[k]], d, d)
        others = [j for j in range(len(homs)) if j != k]
        got = np.concatenate([m.reshape(len(others), -1)
                              for m in corner.maps], axis=1)
        assert field.equal(got, rows[others])
        v, r, c = corner.read
        for j, h in enumerate(homs):
            vals = np.array([[h.blocks[x][y, z] for x, y, z in zip(v, r, c)]],
                            dtype=rows.dtype)
            want = field.zeros(1, len(others))
            if j != k:
                want[0, others.index(j)] = field.one
            assert field.equal(field.matmul(vals, corner.to_coords), want)
    outside = field.zeros(1, rows.shape[1])[0]
    outside[[c for c in range(rows.shape[1]) if not rows[:, c].any()][0]] = \
        field.one
    with pytest.raises(AssertionError):
        _corner(field, homs, [outside], d, d)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_end_of_any_order_and_repeats_equals_whole_route(data):
    m, orientation = data.draw(st.sampled_from(ORIENTATIONS[:4]))
    A = dynkin_path_algebra(m, orientation)
    reps = knit_indecomposables(A)
    order = data.draw(st.permutations(range(len(reps))))
    extra = data.draw(st.lists(st.integers(0, len(reps) - 1), max_size=2))
    summands = [reps[i] for i in list(order) + extra]
    assert_same(end_algebra(A, summands), whole_end_algebra(summands))


def _corpus(field):
    """The 11 algebras of scripts/corpus_report.py, with their n."""
    return [
        ("kA2", lambda: dynkin_path_algebra(2, None, field), 1),
        ("nakayama-3", lambda: linear_nakayama(3, field), 2),
        ("nakayama-4", lambda: linear_nakayama(4, field), 2),
        ("thm39-2-gamma", lambda: thm39_type2(2, ["gamma"], field), 2),
        ("thm39-2-delta", lambda: thm39_type2(2, ["delta"], field), 2),
        ("thm39-3-gamma.gamma",
         lambda: thm39_type2(3, ["gamma", "gamma"], field), 2),
        ("thm39-3-gamma.delta",
         lambda: thm39_type2(3, ["gamma", "delta"], field), 2),
        ("canonical-lam2", lambda: canonical_2222(2, field), 2),
        ("canonical-lam3", lambda: canonical_2222(3, field), 2),
        ("aus-A3-nonlinear", lambda: auslander_algebra(
            dynkin_path_algebra(3, ["f", "b"], field)), 2),
        ("1-aus-A4", lambda: auslander_algebra(
            dynkin_path_algebra(4, None, field)), 2),
    ]


# over Q the reference's dense Fraction products take 5 s on Gamma of
# canonical (dim 16) and 22 s on 1-aus-A4 (dim 28), so Q leaves those out
CORPUS = [pytest.param(make, n, id=f"{label}-GF")
          for label, make, n in _corpus(GF(32003))] + \
         [pytest.param(make, n, id=f"{label}-QQ")
          for label, make, n in _corpus(QQ)
          if not label.startswith(("canonical", "1-aus"))]


@pytest.mark.parametrize("make, n", CORPUS)
def test_gamma_equals_whole_route(make, n):
    A = make()
    gamma = stable_endomorphism(A, n)
    split = gamma.split
    keep = [g > 0 for g in split.summand_grades]
    assert_same(gamma, whole_end_algebra(split.summand_reps, keep=keep,
                                         modulo_projectives=True))


@pytest.mark.parametrize("make, n", [p for p in CORPUS if "GF" in p.id])
def test_stable_end_is_end_of_projective_free_part_without_maps_to_A(
        make, n):
    """When no summand of the projective-free part maps to A, no map
    between them factors through a projective: Gamma is the plain End
    of that part, on the whole-X route as well."""
    A = make()
    gamma = stable_endomorphism(A, n)
    split = gamma.split
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    X = direct_sum(nonproj)
    if hom_space(X, regular(A)):
        pytest.skip("the projective-free part maps to A")
    assert_same(gamma, end_algebra(A, nonproj))
    assert hom_quotient(X, X, modulo_projectives=False)[0].dim == gamma.dim


@pytest.mark.parametrize("field", FIELDS)
def test_stable_corner_modulo_nonzero_projective_maps(field):
    """A corner with 0 < dim P(X_j, X_i) < dim Hom(X_j, X_i): over
    thm39_type2(3, gamma delta), X = tau^- S(r3) maps to A, and of its two
    maps to T = P(r1)/soc P(r1), one factors through a projective."""
    A = thm39_type2(3, ["gamma", "delta"], field)
    P = projective(A, 0)
    T = quotient(P, socle(P)[1].blocks)[0]
    X = tau_inv(simple(A, 2))
    assert hom_space(X, regular(A))
    assert len(hom_space(X, T)) == 2
    assert hom_quotient(X, T, modulo_projectives=True)[0].dim == 1
    summands = [X, T, X, simple(A, 1)]
    stable = end_algebra(A, summands, modulo_projectives=True)
    assert_same(stable, whole_end_algebra(summands, modulo_projectives=True))
    assert stable.dim < end_algebra(A, summands).dim


def test_stable_end_with_projective_summands_has_zero_idempotents():
    """Every corner of a projective summand factors through it; the
    quotient drops the corner, and the summand's identity is zero."""
    A = dynkin_path_algebra(3, ["f", "b"])
    reps = knit_indecomposables(A)
    stable = end_algebra(A, reps, modulo_projectives=True)
    assert_same(stable, whole_end_algebra(reps, modulo_projectives=True))
    projective_summand = [projective_cover(r).source.dims == r.dims
                          for r in reps]
    assert sum(projective_summand) == 3
    assert [not e.any() for e in stable.idempotents] == projective_summand
