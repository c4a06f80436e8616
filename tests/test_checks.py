
import random

import pytest

from quiveralg.checks import (_self_injective, analyze, cy_spot_check, is_cm,
                              is_n_rep_finite, is_self_injective,
                              is_tau_n_finite, iwanaga_gorenstein_dim,
                              rigidity, vosnex)
from quiveralg import checks, homology
from quiveralg.errors import AboveCapError
from quiveralg.exactla import GF, QQ
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, higher_auslander_chain,
                                linear_nakayama)
from quiveralg.findim import quiver_presentation
from quiveralg.modules import (direct_sum, injective, is_isomorphic,
                               projective, simple)
from quiveralg.preprojective import (preprojective_algebra,
                                     preprojective_module)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import (cy_spot_check_by_isomorphism,
                        hereditary_maximality_check, ig_dim_by_resolution,
                        is_n_rep_finite_forward,
                        nu_module, random_module, rigidity_per_degree,
                        self_injective_by_isomorphism)
from test_end_corners import _corpus

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1})])


def semisimple2():
    return complete_basis(Quiver(["1", "2"], []), F, [])


def cyclic3_rad2():
    """The 3-preprojective algebra of nak_a3 as an explicit bound quiver."""
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    rels = [PathElement(q, {Path(0, (0, 1)): 1}),
            PathElement(q, {Path(1, (1, 2)): 1}),
            PathElement(q, {Path(2, (2, 0)): 1})]
    return complete_basis(q, F, rels)


def pi_a2():
    """Classical preprojective algebra of A2: 1 <-> 2, both 2-cycles zero."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [PathElement(q, {Path(0, (0, 1)): 1}),
            PathElement(q, {Path(1, (1, 0)): 1})]
    return complete_basis(q, F, rels)


def loop_x3():
    q = Quiver(["1"], [("x", "1", "1")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 0, 0)): 1})])


def test_tau_finite_a2():
    v = is_tau_n_finite(a2(), 1)
    assert v.value is True
    assert v.witness["vanishing_index"] == 2


def test_tau_finite_semisimple():
    v = is_tau_n_finite(semisimple2(), 1)
    assert v.value is True
    assert v.witness["vanishing_index"] == 1


def test_tau_finite_nak_a3():
    v = is_tau_n_finite(nak_a3(), 2)
    assert v.value is True
    assert v.witness["vanishing_index"] == 2


def test_n_rep_finite_positive():
    assert is_n_rep_finite(nak_a3(), 2).value is True
    assert is_n_rep_finite(a2(), 1).value is True


def test_n_rep_finite_gldim_obstruction():
    # nak_a3 has gldim 2 > 1
    v = is_n_rep_finite(nak_a3(), 1)
    assert v.value is False
    assert v.witness["reason"] == "gldim"


def _aus(m, orientation=None):
    return auslander_algebra(dynkin_path_algebra(m, orientation))


# beyond the corpus: True, False with a cohomology witness, "unknown" and
# the length-cap error all occur at the caps below
N_RF_CASES = [(label, make, n) for label, make, n in _corpus(GF(32003))] + [
    ("Aus(A4)", lambda: _aus(4), 2), ("Aus(A5)", lambda: _aus(5), 2),
    ("nakayama-9", lambda: linear_nakayama(9), 2),
    ("3-aus-A3", lambda: higher_auslander_chain(3, 3)[-1], 4),
    ("2-aus-A4", lambda: higher_auslander_chain(4, 2)[-1], 3),
    ("A3", lambda: dynkin_path_algebra(3), 1),
    ("A4", lambda: dynkin_path_algebra(4), 2),
    ("aus-A3-nonlinear-n1", lambda: _aus(3, ["f", "b"]), 1),
    ("aus-A3-nonlinear-n3", lambda: _aus(3, ["f", "b"]), 3),
    ("nakayama-4-n3", lambda: linear_nakayama(4), 3),
    ("nakayama-5-n3", lambda: linear_nakayama(5), 3),
    ("canonical-lam2-n3", lambda: canonical_2222(2), 3),
]


def _n_rf_outcome(route, A, n, cap):
    try:
        v = route(A, n, cap)
    except AboveCapError as e:
        return type(e), str(e)
    return v.value, v.witness


def test_n_rep_finite_over_the_opposite_equals_the_forward_route():
    """D S_n^l I_v walked as S_n^{-l} D I_v over A^op gives the value and
    witness, or the cap error, of S_n stepped from each I_v."""
    kinds = set()
    for label, make, n in N_RF_CASES:
        A = make()
        for cap in (32, 0, 1, 2, 3):
            got = _n_rf_outcome(is_n_rep_finite, A, n, cap)
            want = _n_rf_outcome(is_n_rep_finite_forward, A, n, cap)
            assert got == want, (label, cap)
            if got[0] is False and "cohomology" in got[1]:
                # in degree order, as the report prints it
                assert list(got[1]["cohomology"].items()) == \
                    list(want[1]["cohomology"].items()), (label, cap)
            kinds.add(got[0] if got[0] is not False
                      else ("False", got[1]["reason"]))
    assert kinds == {True, "unknown", AboveCapError, ("False", "gldim"),
                     ("False", "iterate left module territory")}


def test_self_injective_cyclic3():
    v = is_self_injective(cyclic3_rad2())
    assert v.value is True
    perm = v.witness["nakayama_permutation"]
    # the permutation is a 3-cycle
    assert sorted(perm.values()) == [0, 1, 2]
    assert all(perm[k] != k for k in perm)


def test_self_injective_pi_a2():
    v = is_self_injective(pi_a2())
    assert v.value is True
    assert v.witness["nakayama_permutation"] == {0: 1, 1: 0}


def test_not_self_injective_a2():
    assert is_self_injective(a2()).value is False


# the preprojective algebras of scripts/corpus_report.py, and of Aus(A3)
# in the other non-linear orientation; the two Aus(A3) ones are not
# self-injective
TILDES = [pytest.param(make, n, not label.startswith("aus-A3"), id=label)
          for label, make, n in _corpus(F) + [
              ("aus-A3-bf", lambda: auslander_algebra(
                  dynkin_path_algebra(3, ["b", "f"], F)), 2)]]


@pytest.mark.parametrize("make, n, value", TILDES)
def test_self_injective_by_dimensions_matches_isomorphism_reference(
        make, n, value):
    A = quiver_presentation(preprojective_algebra(make(), n))
    verdict = _self_injective(A)
    assert verdict == self_injective_by_isomorphism(A)
    assert verdict.value is value
    if not value:
        assert verdict.witness["reason"] == "not injective"
    # the dimension vector of I_w is that of e_j A e_w at each vertex j
    verts = range(A.quiver.n_vertices)
    for w in verts:
        assert injective(A, w).dims == \
            tuple(len(A.basis_between(j, w)) for j in verts)


@pytest.mark.parametrize("make, n, value", TILDES)
def test_ig_dimension_matches_the_resolution_reference(make, n, value):
    A = quiver_presentation(preprojective_algebra(make(), n))
    ig = iwanaga_gorenstein_dim(A)
    assert ig == ig_dim_by_resolution(A)
    assert (ig == 0) is value


@pytest.mark.parametrize("orientation", [None, ["f", "b"], ["b", "f"]])
def test_simple_socle_but_not_injective_hereditary(orientation):
    """Path algebras of A3: some P_v has a simple socle S_w but is not
    I_w."""
    A = dynkin_path_algebra(3, orientation, F)
    verdict = _self_injective(A)
    assert verdict == self_injective_by_isomorphism(A)
    assert verdict.witness["reason"] == "not injective"


def test_vosnex_vacuous():
    assert vosnex(a2(), 1).value is True
    assert vosnex(nak_a3(), 2).value is True


def test_ig_dimension_self_injective_is_zero():
    assert iwanaga_gorenstein_dim(cyclic3_rad2()) == 0
    assert iwanaga_gorenstein_dim(pi_a2()) == 0


def test_ig_dimension_hereditary_a2():
    assert iwanaga_gorenstein_dim(a2()) == 1


def test_is_cm():
    A = cyclic3_rad2()
    assert is_cm(A, projective(A, 0))
    # over a self-injective algebra every module is CM (d = 0)
    assert is_cm(A, simple(A, 0))
    B = a2()
    assert is_cm(B, projective(B, 0))
    # S2 = P2 is projective; S1 has Ext^1(S1, A) = 0? check via the tool
    assert is_cm(B, simple(B, 1))


def test_rigidity():
    A = nak_a3()
    split = preprojective_module(A, 2)
    assert rigidity(split.orbit, 2)
    assert rigidity([simple(A, 0)], 1)  # vacuous


def test_rigidity_sees_the_cross_terms():
    """Over kA2, S_0 and S_1 are each rigid at n = 2, but
    Ext^1(S_0, S_1) = 1, so their sum is not."""
    A = dynkin_path_algebra(2)
    S0, S1 = simple(A, 0), simple(A, 1)
    assert rigidity([S0], 2) and rigidity([S1], 2)
    assert not rigidity([S0, S1], 2)
    assert not rigidity_per_degree(direct_sum([S0, S1]), 2)


@pytest.mark.parametrize("label, make, n", [
    pytest.param(*case, id=case[0]) for case in _corpus(GF(32003))])
def test_rigidity_of_the_orbit_equals_the_whole_module_route(label, make, n):
    A = make()
    parts = preprojective_module(A, n).orbit
    assert rigidity(parts, n) is rigidity_per_degree(direct_sum(parts), n)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF", "QQ"])
def test_rigidity_of_random_parts_equals_the_whole_module_route(field):
    rng = random.Random(7)
    algebras = [linear_nakayama(4, field),
                auslander_algebra(dynkin_path_algebra(3, None, field)),
                dynkin_path_algebra(3, ["f", "b"], field)]
    seen = set()
    for A in algebras:
        for _ in range(6):
            parts = [random_module(A, rng)
                     for _ in range(rng.randint(1, 3))]
            parts = [M for M in parts if not M.is_zero()] or [simple(A, 0)]
            n = rng.choice((2, 3))
            got = rigidity(parts, n)
            assert got is rigidity_per_degree(direct_sum(parts), n)
            seen.add(got)
    assert seen == {True, False}


def test_is_cm_past_its_cap_names_the_length_cap():
    """Aus(A3-nonlinear) has IG-dimension 2, so its injective resolutions
    do not fit under the cap 0."""
    B = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    assert iwanaga_gorenstein_dim(B) == 2
    with pytest.raises(AboveCapError,
                       match="a resolution exceeded the length cap 0"):
        is_cm(B, simple(B, 0), cap=0)


def test_rigidity_resolves_m_once(monkeypatch):
    """Ext^1..Ext^{n-1} of a sum of k parts from one resolution of each
    part at cap n, with the verdicts of a resolution of the whole sum per
    degree; a nonzero Ext ends the test before the later parts."""
    calls = []
    real = homology.min_proj_resolution

    def counted(M, length_cap=32):
        calls.append(length_cap)
        return real(M, length_cap)

    A = linear_nakayama(4)
    orbit = preprojective_module(A, 2).orbit
    assert len(orbit) > 1
    cases = [orbit, [simple(A, 0)], [simple(A, 3)], [injective(A, 1)],
             [simple(A, 3), simple(A, 2)]]
    want = [rigidity_per_degree(direct_sum(parts), n)
            for parts in cases for n in (1, 2, 4)]
    assert True in want and False in want
    monkeypatch.setattr(checks, "min_proj_resolution", counted)
    monkeypatch.setattr(homology, "min_proj_resolution", counted)
    for parts in cases:
        for n in (1, 2, 4):
            calls.clear()
            got = rigidity(parts, n)
            assert got is want.pop(0)
            if n == 1:
                assert calls == []
            elif got:
                assert calls == [n] * len(parts)
            else:
                assert 0 < len(calls) <= len(parts) and set(calls) == {n}


def test_nu_module_on_projectives():
    A = nak_a3()
    from quiveralg.modules import injective
    for v in range(3):
        assert is_isomorphic(nu_module(projective(A, v)), injective(A, v))


def test_cy_spot_check_pi_a2():
    out = cy_spot_check(pi_a2(), 1)
    assert out == {0: True, 1: True}


def test_cy_spot_check_cyclic3():
    out = cy_spot_check(cyclic3_rad2(), 2)
    assert out == {0: True, 1: True, 2: True}


def test_cy_spot_check_negative_control():
    # k[x]/x^3 is self-injective with nu = id but Omega^{-3} S != S
    out = cy_spot_check(loop_x3(), 1)
    assert out == {0: False}


def truncated_loops(*lengths):
    """The product of the k[x]/(x^m) over the entries m; m = 1 gives k."""
    loops = [i for i, m in enumerate(lengths) if m > 1]
    q = Quiver([str(i) for i in range(len(lengths))],
               [(f"x{i}", str(i), str(i)) for i in loops])
    rels = [PathElement(q, {Path(i, (a,) * lengths[i]): 1})
            for a, i in enumerate(loops)]
    return complete_basis(q, F, rels)


SMALL_SELF_INJECTIVE = [
    pytest.param(make, n, id=f"{label}-n{n}")
    for label, make in [("pi_a2", pi_a2), ("cyclic3_rad2", cyclic3_rad2),
                        ("loop_x3", loop_x3),
                        ("k", lambda: truncated_loops(1)),
                        ("k-x2", lambda: truncated_loops(1, 2)),
                        ("x2-y3", lambda: truncated_loops(2, 3))]
    for n in (1, 2, 3)]


@pytest.mark.parametrize("make, n", SMALL_SELF_INJECTIVE)
def test_cy_spot_check_matches_isomorphism_reference_small(make, n):
    A = make()
    assert cy_spot_check(A, n) == cy_spot_check_by_isomorphism(A, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cy_spot_check_on_products_of_truncated_loops(n):
    # S of k is projective; over k[x]/(x^2) Omega S = S, and over
    # k[y]/(y^3) Omega^2 S = S, so its vertex passes at even n only
    assert cy_spot_check(truncated_loops(1), n) == {0: True}
    assert cy_spot_check(truncated_loops(1, 2), n) == {0: True, 1: True}
    assert cy_spot_check(truncated_loops(2, 3), n) == \
        {0: True, 1: n % 2 == 0}


# the self-injective preprojective algebras of scripts/corpus_report.py,
# and that of the Auslander algebra of A4 in the orientation bbb
CY_TILDES = [pytest.param(make, n, id=label)
             for label, make, n in _corpus(F) + [
                 ("aus-A4-bbb", lambda: auslander_algebra(
                     dynkin_path_algebra(4, ["b", "b", "b"], F)), 2)]
             if not label.startswith("aus-A3")]


@pytest.mark.parametrize("make, n", CY_TILDES)
def test_cy_spot_check_matches_isomorphism_reference(make, n):
    A = quiver_presentation(preprojective_algebra(make(), n))
    assert is_self_injective(A).value is True
    out = cy_spot_check(A, n)
    assert out == cy_spot_check_by_isomorphism(A, n)
    assert all(out.values())


def test_analyze_builds_no_opposite_of_the_preprojective_algebra(
        monkeypatch):
    import quiveralg.checks as checks
    presentations = []

    def capture(B):
        pres = quiver_presentation(B)
        presentations.append(pres)
        return pres

    monkeypatch.setattr(checks, "quiver_presentation", capture)
    rep = analyze(linear_nakayama(3), 2)
    assert rep.self_injective_tilde["value"] is True
    assert rep.cy_spot_check == {"0": True, "1": True, "2": True}
    # the first presentation analyze asks for is that of the tilde algebra
    tilde = presentations[0]
    assert is_self_injective(tilde).value is True
    assert getattr(tilde, "_op", None) is None


def test_analyze_report_a2():
    rep = analyze(a2(), 1, algebra_id="kA2")
    assert rep.dim == 3
    assert rep.gldim == 1
    assert rep.tau_n_finite["value"] is True
    assert rep.n_rep_finite["value"] is True
    assert rep.self_injective_tilde["value"] is True
    assert rep.cross_validation["preprojective_module_dim"] == 4
    assert rep.cross_validation["preprojective_algebra_dim"] == 4
    assert rep.cross_validation["amiot_hom_total"] == 4
    assert rep.ig_dimension == 0
    assert rep.gamma["dim"] == 1
    assert rep.gamma["gldim"] == 0
    assert rep.rigidity is True
    assert all(rep.cy_spot_check.values())


def test_hereditary_maximality_by_knitting():
    for orient in (None, ["f", "b"]):
        A = dynkin_path_algebra(3 if orient else 2, orient)
        v = hereditary_maximality_check(A)
        assert v.value is True
        assert v.witness["indecomposables"] == (6 if orient else 3)


def test_cm_examples_on_ig_dim_one():
    from quiveralg.errors import AboveCap
    from quiveralg.families import auslander_algebra, dynkin_path_algebra
    from quiveralg.findim import quiver_presentation
    from quiveralg.homology import syzygy, ext
    from quiveralg.modules import regular
    from quiveralg.preprojective import preprojective_algebra
    import random as _random
    L = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    B = quiver_presentation(preprojective_algebra(L, 2))
    assert iwanaga_gorenstein_dim(B) == 1
    # every first syzygy is Cohen-Macaulay over an IG <= 1 algebra
    rng = _random.Random(99)
    for _ in range(6):
        m = random_module(B, rng)
        om = syzygy(m, 1)
        if not om.is_zero():
            assert is_cm(B, om)
    # and some simple fails the Ext test against the algebra
    R = regular(B)
    bad = [v for v in range(B.quiver.n_vertices)
           if ext(simple(B, v), R, 1) != 0]
    assert bad, "an IG-dimension-1 non-selfinjective algebra has a "\
        "non-CM simple"
    assert not is_cm(B, simple(B, bad[0]))


def test_decompose_regular_of_auslander_algebra():
    from quiveralg.families import auslander_algebra, dynkin_path_algebra
    from quiveralg.modules import decompose, regular
    L = auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))
    parts = decompose(regular(L))
    assert sum(m for _, m in parts) == 6
    assert all(m == 1 for _, m in parts)


def test_vosnex_failure_detected_with_witness():
    # a gldim-2 algebra probed at n = 3 is tau_3-finite but has nonzero
    # negative-degree cohomology in its Serre orbit, so the vanishing
    # fails with a concrete (i, orbit index) witness
    A = nak_a3()
    assert is_tau_n_finite(A, 3).value is True
    v = vosnex(A, 3)
    assert v.value is False
    assert v.witness == {"i": 1, "orbit_index": 1}
