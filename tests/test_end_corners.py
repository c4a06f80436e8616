"""End algebras built corner by corner against the whole-X reference.

``preprojective.end_algebra`` builds End(X) from the summand-pair Hom
spaces, and Gamma as the End of the non-projective summands of the
preprojective module.  ``references.whole_end_algebra`` solves Hom(X, X)
over all of X in one system, modulo projectives when asked.  The two must
give the same basis, so the same ``constants``, ``idempotents`` and
dimension, over GF(32003) and Q.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, knit_indecomposables,
                                linear_nakayama, thm39_type2)
from quiveralg.homology import global_dimension, tau_n_inv, tau_n_orbit
from quiveralg.modules import direct_sum, hom_space, regular
from quiveralg.preprojective import _corner, end_algebra, stable_endomorphism
from references import hom_quotient, random_module, whole_end_algebra
from test_presentation import bound_quiver_algebras

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
def test_a_corner_reads_each_basis_map_as_a_unit_vector(field):
    """Hom(A, A) as one corner: its maps are the Hom basis rows, and each
    basis map reads as a unit vector at the corner's places."""
    X = regular(dynkin_path_algebra(3, None, field))
    d = np.array(X.dims)
    homs = hom_space(X, X)
    rows = np.stack([h.flatten()[0] for h in homs])
    assert len(homs) == 6
    corner = _corner(field, homs, d, d)
    got = np.concatenate([m.reshape(len(homs), -1) for m in corner.maps],
                         axis=1)
    assert field.equal(got, rows)
    v, r, c = corner.places
    for j, h in enumerate(homs):
        vals = np.array([[h.blocks[x][y, z] for x, y, z in zip(v, r, c)]],
                        dtype=rows.dtype)
        want = field.zeros(1, len(homs))
        want[0, j] = field.one
        assert field.equal(vals, want)


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
    """No summand of the projective-free part maps to A, so no map
    between them factors through a projective: Gamma is the plain End
    of that part, on the whole-X route as well."""
    A = make()
    gamma = stable_endomorphism(A, n)
    split = gamma.split
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    X = direct_sum(nonproj)
    assert not hom_space(X, regular(A))
    assert_same(gamma, end_algebra(A, nonproj))
    assert hom_quotient(X, X, modulo_projectives=False)[0].dim == gamma.dim


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tau_n_inverse_has_no_map_to_A_when_gldim_is_at_most_n(field,
                                                                data):
    """Hom(tau_n^- M, A) = Omega^{n+1} D M = 0 when gldim A <= n, for a
    drawn module M and for each nonzero iterate tau_n^{-i} A, i <= 3: the
    premise under which Gamma is a plain End.  On a wild quiver the
    iterates grow about tenfold a step, so a module of more than 100
    dimensions is not tested and its orbit is left there."""
    A = data.draw(bound_quiver_algebras(field))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    R = regular(A)
    for n in range(max(global_dimension(A), 1), 4):
        X = tau_n_inv(random_module(A, rng), n)
        if X.total_dim <= 100:
            assert not hom_space(X, R)
        for i in range(1, 4):
            X = tau_n_orbit(A, n, i)
            if X.is_zero() or X.total_dim > 100:
                break
            assert not hom_space(X, R)
