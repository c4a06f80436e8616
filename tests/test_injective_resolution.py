"""Resolutions of tagged injective sums assembled from the memoized
resolution of each indecomposable injective, and the tagged k-dual, over
GF(32003) and QQ."""

import pytest

from quiveralg import homology
from quiveralg.derived import ChainMap, ComplexOfModules, module_complex
from quiveralg.exactla import GF, QQ
from quiveralg.families import canonical_2222, thm39_type2
from quiveralg.homology import (elements_of_map, injectives_sum_resolution,
                                min_proj_resolution)
from quiveralg.modules import (dual, injectives_sum, op_algebra,
                               projectives_sum)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis

FIELDS = {"GF": GF(32003), "QQ": QQ}


def nak_a3(field):
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1})])


def aus_a3_nonlinear(field):
    """The Auslander algebra of A3 with one sink and one source inside,
    from its presentation."""
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [("a1", "1", "5"), ("a2", "2", "1"), ("a3", "2", "3"),
                ("a4", "3", "5"), ("a5", "5", "4"), ("a6", "5", "6")])
    return complete_basis(q, field, [
        PathElement(q, {Path(0, (0, 4)): 1}),
        PathElement(q, {Path(1, (1, 0)): 1, Path(1, (2, 3)): 1}),
        PathElement(q, {Path(2, (3, 5)): 1})])


BUILDERS = {
    "nak_a3": nak_a3,
    "aus_a3_nonlinear": aus_a3_nonlinear,
    "canonical_2222_2": lambda f: canonical_2222(2, f),
    "thm39_type2_3": lambda f: thm39_type2(3, ["gamma", "delta"], f),
}
CASES = [pytest.param(name, fname, id=f"{name}-{fname}")
         for name in BUILDERS for fname in FIELDS]


def _sum_vertices(A):
    """Every vertex once, then the last and the first again, so that
    repeated summands and slot shifts are exercised."""
    n = A.quiver.n_vertices
    return list(range(n)) + [n - 1, 0]


def _as_complex(A, res):
    terms = {-j: t for j, t in enumerate(res.terms)}
    diffs = {-j - 1: d for j, d in enumerate(res.differentials)}
    return ComplexOfModules(A, terms, diffs, check=True)


@pytest.mark.parametrize("name,fname", CASES)
def test_injectives_sum_resolution_is_a_minimal_resolution(name, fname):
    A = BUILDERS[name](FIELDS[fname])
    f = A.field
    M = injectives_sum(A, _sum_vertices(A))
    res = injectives_sum_resolution(M)
    assert not res.truncated and res.length >= 1
    assert res.augmentation.is_morphism()
    assert all(d.is_morphism() for d in res.differentials)
    # d^2 = 0 (checked by the complex) and d_0 lands in the kernel of eps
    P = _as_complex(A, res)
    if res.differentials:
        assert res.differentials[0].compose(res.augmentation).is_zero()
    # the augmentation is onto at every vertex
    assert [f.rank(b) for b in res.augmentation.blocks] == list(M.dims)
    # exact: the cone of eps: P -> M is acyclic
    eps = ChainMap(P, module_complex(M), {0: res.augmentation})
    assert eps.induces_cohomology_iso()
    # minimal: no entry has a trivial-path coefficient
    for d in res.differentials:
        for (w, u), elem in elements_of_map(A, d, d.source,
                                            d.target).items():
            c = d.target.summands[w]
            if c == d.source.summands[u]:
                assert A.bindex[Path(c, ())] not in elem


@pytest.mark.parametrize("name,fname", CASES)
def test_injectives_sum_resolution_terms_match_min_proj_resolution(
        name, fname):
    A = BUILDERS[name](FIELDS[fname])
    M = injectives_sum(A, _sum_vertices(A))
    got = injectives_sum_resolution(M)
    ref = min_proj_resolution(M)
    assert [sorted(t.summands) for t in got.terms] == \
        [sorted(t.summands) for t in ref.terms]


@pytest.mark.parametrize("name,fname", CASES)
def test_second_resolution_reads_the_memo(monkeypatch, name, fname):
    A = BUILDERS[name](FIELDS[fname])
    f = A.field
    calls = []
    real = homology.min_proj_resolution

    def counting(M, length_cap=32):
        calls.append(M)
        return real(M, length_cap)

    monkeypatch.setattr(homology, "min_proj_resolution", counting)
    M = injectives_sum(A, _sum_vertices(A))
    first = injectives_sum_resolution(M)
    assert len(calls) == A.quiver.n_vertices
    del calls[:]
    second = injectives_sum_resolution(injectives_sum(A, _sum_vertices(A)))
    assert calls == []
    assert [t.summands for t in first.terms] == \
        [t.summands for t in second.terms]
    for d1, d2 in zip([first.augmentation] + first.differentials,
                      [second.augmentation] + second.differentials):
        assert all(f.equal(a, b) for a, b in zip(d1.blocks, d2.blocks))


def _same_tagged(X, Y):
    f = X.field
    return (X.algebra is Y.algebra and X.dims == Y.dims
            and X.summands == Y.summands and X.offsets == Y.offsets
            and X.tag_kind == Y.tag_kind
            and all(f.equal(a, b) for a, b in zip(X.action, Y.action)))


@pytest.mark.parametrize("name,fname", CASES)
def test_dual_carries_the_tags(name, fname):
    A = BUILDERS[name](FIELDS[fname])
    Aop = op_algebra(A)
    vs = _sum_vertices(A)
    P = projectives_sum(A, vs)
    assert _same_tagged(dual(P), injectives_sum(Aop, vs))
    assert _same_tagged(dual(dual(P)), P)
    I = injectives_sum(A, vs)
    assert I.tag_kind == "I" and I.summands == tuple(vs)
    assert _same_tagged(dual(I), projectives_sum(Aop, vs))
    assert _same_tagged(dual(dual(I)), I)
