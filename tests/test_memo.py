"""The invariants kept in an algebra's memo answer as a fresh algebra does.

Global dimension, the tau_n^- orbit, the preprojective split, the Serre
context and the self-injectivity verdict are computed once per algebra
object.  Every answer read from the memo must equal the one a fresh
object computes, whatever was asked before.
"""

import json
from dataclasses import asdict

import pytest

from quiveralg.checks import (analyze, is_self_injective, is_tau_n_finite,
                              vosnex)
from quiveralg.derived import (SerreContext, amiot_hom, module_complex,
                               serre_context)
from quiveralg.errors import AboveCap, NotTauFinite
from quiveralg.exactla import GF, QQ
from quiveralg.families import higher_auslander_chain
from quiveralg.homology import global_dimension, tau_n_inv, tau_n_orbit
from quiveralg.modules import regular
from quiveralg.preprojective import preprojective_module
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis

FIELDS = [pytest.param(GF(32003), id="GF32003"), pytest.param(QQ, id="QQ")]


def aus_a3_nonlinear(field):
    """The Auslander algebra of A3 with one sink and one source inside,
    from its presentation (building it by knitting is slow over Q)."""
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [("a1", "1", "5"), ("a2", "2", "1"), ("a3", "2", "3"),
                ("a4", "3", "5"), ("a5", "5", "4"), ("a6", "5", "6")])
    return complete_basis(q, field, [
        PathElement(q, {Path(0, (0, 4)): 1}),
        PathElement(q, {Path(1, (1, 0)): 1, Path(1, (2, 3)): 1}),
        PathElement(q, {Path(2, (3, 5)): 1})])


def two_cycle(field):
    """Self-injective, rad^2 = 0: infinite global dimension."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1}),
                                     PathElement(q, {Path(1, (1, 0)): 1})])


def nak_a3(field):
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1})])


def kronecker(field):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return complete_basis(q, field, [])


def chain_2_2(field):
    """The 2-Auslander algebra of A2, 3-representation-finite."""
    return higher_auslander_chain(2, 2, field)[-1]


# ---------------------------------------------------------------------------
# global dimension
# ---------------------------------------------------------------------------

CAP_ORDERS = [[0, 1, 2, 3, 6], [6, 3, 2, 1, 0], [1, 4, 0, 2, 1, 5],
              [2, 0, 3, 1]]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make,gldim", [(aus_a3_nonlinear, 2),
                                        (two_cycle, None)],
                         ids=["aus_a3_nonlinear", "two_cycle"])
@pytest.mark.parametrize("caps", CAP_ORDERS)
def test_global_dimension_answers_every_cap_order_as_fresh(make, gldim,
                                                           caps, field):
    A = make(field)
    for cap in caps:
        got = global_dimension(A, cap)
        assert got == global_dimension(make(field), cap), cap
        if gldim is not None and cap >= gldim:
            assert got == gldim
        else:
            assert got == AboveCap(cap)


# ---------------------------------------------------------------------------
# the tau_n^- orbit and the preprojective split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_orbit_iterates_are_the_translates(field):
    A = nak_a3(field)
    cur = regular(A)
    assert tau_n_orbit(A, 2, 0).dims == cur.dims
    for i in range(1, 4):
        cur = tau_n_inv(cur, 2) if not cur.is_zero() else cur
        assert tau_n_orbit(A, 2, i).dims == cur.dims
    assert tau_n_orbit(A, 2, 2) is tau_n_orbit(A, 2, 2)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("tau_first", [True, False],
                         ids=["tau_first", "split_first"])
def test_split_reads_one_iterate_past_the_tau_cap(field, tau_first):
    m = is_tau_n_finite(nak_a3(field), 2).witness["vanishing_index"]
    assert m >= 2
    A = nak_a3(field)
    fresh = preprojective_module(nak_a3(field), 2, cap=m - 1)
    if tau_first:
        assert is_tau_n_finite(A, 2, cap=m - 1).value == "unknown"
        split = preprojective_module(A, 2, cap=m - 1)
    else:
        split = preprojective_module(A, 2, cap=m - 1)
        assert is_tau_n_finite(A, 2, cap=m - 1).value == "unknown"
    assert split.grade_dims == fresh.grade_dims
    assert split.summand_grades == fresh.summand_grades
    assert is_tau_n_finite(A, 2, cap=m).value is True


# over Q, decomposing the iterates up to tau^{-6} A takes minutes
@pytest.mark.parametrize("field,cap", [(GF(32003), 5), (QQ, 1)],
                         ids=["GF32003", "QQ"])
def test_kronecker_split_still_raises_below_a_larger_cap(field, cap):
    A = kronecker(field)
    with pytest.raises(NotTauFinite):
        preprojective_module(A, 1, cap=cap + 1)
    with pytest.raises(NotTauFinite):
        preprojective_module(A, 1, cap=cap)
    assert is_tau_n_finite(A, 1, cap=cap).value == "unknown"


def test_split_is_shared_per_n_and_cap():
    A = nak_a3(GF(32003))
    split = preprojective_module(A, 2)
    assert preprojective_module(A, 2) is split
    assert preprojective_module(A, 2, cap=5) is not split


@pytest.mark.parametrize("make, value", [(two_cycle, True), (nak_a3, False)],
                         ids=["two_cycle", "nak_a3"])
def test_self_injective_verdict_is_kept_per_object(make, value):
    A = make(GF(32003))
    verdict = is_self_injective(A)
    assert verdict.value is value
    assert is_self_injective(A) is verdict
    assert is_self_injective(make(GF(32003))) == verdict


# ---------------------------------------------------------------------------
# the shared Serre context
# ---------------------------------------------------------------------------

def _shape(X):
    return ({i: t.summands for i, t in X.terms.items()},
            X.cohomology_dims())


@pytest.mark.parametrize("field", FIELDS)
def test_orbit_is_kept_once_per_index(field, monkeypatch):
    """orbit(k) is one object per k, each next_neg of the one before, as a
    fresh algebra computes it; vosnex and amiot_hom read the same objects,
    so no iterate is stepped twice."""
    A = chain_2_2(field)
    ctx = serre_context(A, 3)
    stepped = []
    real = SerreContext.next_neg

    def spy(self, X):
        if self is ctx:
            stepped.append(X)
        return real(self, X)

    monkeypatch.setattr(SerreContext, "next_neg", spy)
    assert serre_context(A, 3) is ctx
    assert serre_context(A, 3, cap=5) is not ctx
    assert vosnex(A, 3).value is True
    assert len(stepped) >= 2
    assert amiot_hom(A, 3).total == preprojective_module(A, 3).dim
    orbit = [ctx.orbit(k) for k in range(len(stepped) + 1)]
    assert all(ctx.orbit(k) is X for k, X in enumerate(orbit))
    # each iterate was stepped from once, in order
    assert all(X is orbit[k] for k, X in enumerate(stepped))
    assert _shape(orbit[0]) == _shape(module_complex(regular(A)))
    B = chain_2_2(field)
    fresh = SerreContext(B, 3)
    cur = module_complex(regular(B))
    for X in orbit[1:]:
        cur = fresh.next_neg(cur)
        assert _shape(X) == _shape(cur)


# over Q, analyze of Aus(A3-nonlinear) takes seconds (Fraction products in
# the quiver presentations), so nak_a3 stands in for it there
@pytest.mark.parametrize("make,n,field", [
    (chain_2_2, 3, GF(32003)), (chain_2_2, 3, QQ),
    (aus_a3_nonlinear, 2, GF(32003)), (nak_a3, 2, QQ)],
    ids=["chain_2_2_n3-GF32003", "chain_2_2_n3-QQ",
         "aus_a3_nonlinear_n2-GF32003", "nak_a3_n2-QQ"])
def test_analyze_twice_on_one_object_equals_fresh(make, n, field):
    def report(A):
        return json.dumps(asdict(analyze(A, n)), sort_keys=True)

    A = make(field)
    first = report(A)
    assert report(A) == first == report(make(field))
