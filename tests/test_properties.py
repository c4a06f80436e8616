"""Randomized property suites with fixed seeds, >= 200 cases each.

Exact arithmetic everywhere: zero failures tolerated.
"""

import random


from quiveralg.derived import module_complex, proj_resolve_complex
from quiveralg.exactla import GF
from quiveralg.homology import tau_n, tau_n_inv
from quiveralg.modules import hom_space, injective, is_isomorphic, projective
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import (SerreSteps, cohomology, hom_d, random_module,
                        serre_n_power)

F = GF(32003)


def a2():
    return complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])


def nak_a3():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, F, [PathElement(q, {Path(0, (0, 1)): 1})])


def hereditary_a3():
    return complete_basis(
        Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]), F, [])


ALGEBRAS = None


def corpus():
    global ALGEBRAS
    if ALGEBRAS is None:
        ALGEBRAS = [(a2(), 1), (nak_a3(), 2), (hereditary_a3(), 1)]
    return ALGEBRAS


def test_rank_nullity_200():
    rng = random.Random(801)
    for case in range(220):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        a = F.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                a[i, j] = F.rand_el(rng)
        r, pivots = F.rref(a)
        ker = F.kernel(a)
        assert len(pivots) + ker.shape[0] == cols, f"case {case}"
        r2, p2 = F.rref(r)
        assert F.equal(r, r2) and pivots == p2


def test_yoneda_dimension_identities_200():
    rng = random.Random(802)
    algebras = corpus()
    for case in range(200):
        A, _ = algebras[case % len(algebras)]
        m = random_module(A, rng)
        for v in range(A.quiver.n_vertices):
            assert len(hom_space(projective(A, v), m)) == m.dims[v]
            assert len(hom_space(m, injective(A, v))) == m.dims[v]


def test_serre_duality_dimensions_200():
    rng = random.Random(803)
    algebras = corpus()
    for case in range(200):
        A, _ = algebras[case % len(algebras)]
        x = random_module(A, rng)
        y = random_module(A, rng)
        X, Y = module_complex(x), module_complex(y)
        SX = serre_n_power(A, 0, X, 1)
        assert hom_d(X, Y, 0) == hom_d(Y, SX, 0), f"case {case}"


def test_h0_serre_power_is_translate_200():
    rng = random.Random(804)
    algebras = corpus()
    for case in range(200):
        A, n = algebras[case % len(algebras)]
        m = random_module(A, rng)
        if case % 2 == 0:
            S = serre_n_power(A, n, module_complex(m), 1)
            t = tau_n(m, n)
        else:
            S = serre_n_power(A, n, module_complex(m), -1)
            t = tau_n_inv(m, n)
        h0 = cohomology(S, 0)
        assert h0.total_dim == t.total_dim, f"case {case}"
        if not t.is_zero():
            assert is_isomorphic(h0, t), f"case {case}"


def test_derived_applications_verified_200():
    """d^2 = 0 and quasi-isomorphism checks fire on every application.

    proj_resolve_complex asserts its augmentation is a chain map inducing
    cohomology isomorphisms; the SerreSteps minimizer
    asserts cohomology preservation; materialization validates d^2 = 0.
    """
    rng = random.Random(805)
    algebras = corpus()
    for case in range(200):
        A, n = algebras[case % len(algebras)]
        ctx = SerreSteps(A, n)
        m = random_module(A, rng)
        X = module_complex(m)
        P, eps = proj_resolve_complex(X)
        assert eps.is_chain_map()
        assert eps.induces_cohomology_iso()
        step = ctx.step_pos(X) if case % 2 else ctx.step_neg(X)
        step.check_d_squared()
        out = ctx.minimized(step)  # asserts cohomology preservation
        out.check_d_squared()
