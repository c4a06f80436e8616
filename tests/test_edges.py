"""Cap/error paths and hand-derived oracles off the main corpus."""

import pytest

from quiveralg.checks import is_tau_n_finite
from quiveralg.derived import amiot_hom, module_complex, proj_resolve_complex
from quiveralg.errors import (AboveCapError, NotTauFinite,
                              QuiverAlgError, WindowInconclusive)
from quiveralg.exactla import GF
from quiveralg.families import dynkin_path_algebra, knit_indecomposables
from quiveralg.modules import regular, simple
from quiveralg.preprojective import preprojective_module
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
import references as ref

F = GF(32003)


def kronecker():
    return complete_basis(
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), F, [])


def self_injective_cycle():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [PathElement(q, {Path(0, (0, 1)): 1}),
            PathElement(q, {Path(1, (1, 0)): 1})]
    return complete_basis(q, F, rels)


def test_kronecker_tau_finiteness_unknown_not_false():
    A = kronecker()
    v = is_tau_n_finite(A, 1, cap=6)
    assert v.value == "unknown"
    assert v.witness["cap"] == 6
    # the iterate dimensions grow along the preprojective component
    assert v.witness["trace"][0] < v.witness["trace"][-1]


def test_kronecker_preprojective_module_raises():
    with pytest.raises(NotTauFinite):
        preprojective_module(kronecker(), 1, cap=5)


def test_kronecker_knitting_cap():
    with pytest.raises(QuiverAlgError):
        knit_indecomposables(kronecker(), cap=12)


def test_resolution_above_cap_on_infinite_gldim():
    A = self_injective_cycle()
    with pytest.raises(AboveCapError):
        proj_resolve_complex(module_complex(simple(A, 0)), cap=5)


def test_amiot_window_inconclusive():
    with pytest.raises(WindowInconclusive):
        amiot_hom(kronecker(), 1, window_cap=4)


def test_amiot_hom_mixed_arguments_oracle():
    """Hand-derived orbit Hom over kA2: the pieces of Hom(S1, regular) are
    0 in degree 0 and Hom(S1,S1) + Ext^1(S1,S2) = 2 in degree 1."""
    A = dynkin_path_algebra(2)
    s1 = module_complex(simple(A, 0))
    lam = module_complex(regular(A))
    gh = ref.amiot_hom(A, 1, s1, lam)
    assert gh.pieces == {1: 2}
    assert gh.total == 2


def test_amiot_multiplication_attached():
    """The orbit composition on the regular object of kA2 is a
    4-dimensional algebra, the size of its orbit Hom."""
    A = dynkin_path_algebra(2)
    assert ref.amiot_endomorphism_algebra(A, 1).dim == 4
    assert amiot_hom(A, 1).total == 4


def test_mesh_reversal_structure_of_tilde():
    """Every degree-1 arrow of the preprojective presentation reverses a
    degree-0 path: its endpoints are connected by an original path in the
    opposite direction."""
    from quiveralg.families import auslander_algebra
    from quiveralg.findim import quiver_presentation
    from quiveralg.preprojective import preprojective_algebra
    for base in (dynkin_path_algebra(4),
                 dynkin_path_algebra(3, ["f", "b"])):
        L = auslander_algebra(base)
        pres = quiver_presentation(preprojective_algebra(L, 2))
        deg0 = [(s, t) for (n_, s, t), d in
                zip(pres.quiver.arrows, pres.arrow_degrees) if d == 0]
        import collections
        reach = collections.defaultdict(set)
        for s, t in deg0:
            reach[s].add(t)
        for (n_, s, t), d in zip(pres.quiver.arrows, pres.arrow_degrees):
            if d != 1:
                continue
            # a reverse chain of degree-0 arrows from t back to s exists
            frontier = {t}
            seen = set()
            found = False
            while frontier:
                cur = frontier.pop()
                if cur == s:
                    found = True
                    break
                seen.add(cur)
                frontier |= reach[cur] - seen
            assert found, f"degree-1 arrow {n_} does not reverse a mesh"
