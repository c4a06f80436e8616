"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one pass/fail line (pytest -s shows them; the assertion
itself is authoritative).  All expected values are frozen from
independent small-scale derivations in the unit-test modules.
"""

import sys
import time

import pytest

from quiveralg.checks import (cy_spot_check, is_n_rep_finite,
                              is_self_injective, is_tau_n_finite,
                              iwanaga_gorenstein_dim, vosnex)
from quiveralg.derived import amiot_hom
from quiveralg.exactla import GF
from quiveralg.families import (auslander_algebra, canonical_2222,
                                dynkin_path_algebra, linear_nakayama,
                                thm39_type2)
from quiveralg.findim import quiver_presentation
from quiveralg.homology import global_dimension, tau_n_inv
from quiveralg.modules import decompose, direct_sum, projective
from quiveralg.preprojective import (end_algebra, preprojective_algebra,
                                     preprojective_module,
                                     stable_endomorphism)
from quiveralg.quivers import Path

F = GF(32003)


def _report(label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.stderr)
    assert ok, label


@pytest.fixture(scope="module")
def aus_a3():
    return auslander_algebra(dynkin_path_algebra(3, ["f", "b"]))


@pytest.fixture(scope="module")
def aus_a4():
    return auslander_algebra(dynkin_path_algebra(4))


@pytest.fixture(scope="module")
def ka2():
    return dynkin_path_algebra(2)


@pytest.fixture(scope="module")
def corpus(aus_a3, aus_a4, ka2):
    """(label, algebra, n) for criteria 1-4 plus kA2 with n = 1."""
    items = [("aus-A3-nonlinear", aus_a3, 2),
             ("1-aus-A4", aus_a4, 2),
             ("linear_nakayama-3", linear_nakayama(3), 2),
             ("linear_nakayama-4", linear_nakayama(4), 2),
             ("canonical-2", canonical_2222(2), 2),
             ("canonical-3", canonical_2222(3), 2),
             ("kA2", ka2, 1)]
    for v in (2, 3):
        from itertools import product
        for choice in product(["gamma", "delta"], repeat=v - 1):
            items.append((f"thm39-{v}-{'.'.join(choice)}",
                          thm39_type2(v, list(choice)), 2))
    return items


def test_criterion_1_final_example(aus_a3):
    t0 = time.time()
    L = aus_a3
    tots = sorted(tau_n_inv(projective(L, v), 2).total_dim
                  for v in range(L.quiver.n_vertices))
    ok = tots == [0, 0, 0, 1, 1, 3]
    split = preprojective_module(L, 2)
    nonproj = [r for r, g in zip(split.summand_reps, split.summand_grades)
               if g > 0]
    pf = [r for r, m in decompose(direct_sum(nonproj)) for _ in range(m)]
    ok = ok and sorted(r.total_dim for r in pf) == [1, 1, 3]
    gamma = stable_endomorphism(L, 2)
    ok = ok and gamma.dim == 5
    gp = quiver_presentation(gamma)
    # the quiver o -> o <- o: three vertices, two arrows, common target
    targets = {t for _, s, t in gp.quiver.arrows}
    sources = {s for _, s, t in gp.quiver.arrows}
    ok = ok and gp.quiver.n_vertices == 3 and gp.quiver.n_arrows == 2
    ok = ok and len(targets) == 1 and len(sources) == 2
    _report(f"criterion 1: final-example reproduction ({time.time()-t0:.1f}s)",
            ok)


def test_criterion_2_a4_example(aus_a4):
    t0 = time.time()
    L = aus_a4
    talg = preprojective_algebra(L, 2)
    pres = quiver_presentation(talg)
    ok = is_self_injective(pres).value is True
    q = pres.quiver
    ok = ok and q.n_vertices == 10 and q.n_arrows == 18
    # brute-force kernel verification of the relation structure: group
    # length-2 quiver paths by endpoints and compare against the algebra
    pools = {}
    for a in range(q.n_arrows):
        for b in q.arrows_from(q.target(a)):
            key = (q.source(a), q.target(b))
            pools.setdefault(key, []).append((a, b))
    squares = 0
    cuts = 0
    consistent = True
    for (i, j), paths in pools.items():
        red = [pres.reduce_path(Path(i, p)) for p in paths]
        ev = pres.field.zeros(len(paths), pres.dim)
        for r, elem in enumerate(red):
            for k, c in elem.items():
                ev[r, k] = c
        kdim = pres.field.kernel(ev.T).shape[0]
        if len(paths) >= 2:
            squares += 1
            consistent = consistent and kdim == len(paths) - 1
        else:
            if kdim == 1:
                cuts += 1
    # every relation generator is quadratic and the generator count matches
    quadratic = all(all(len(p.arrows) == 2 for p in rel.terms)
                    for rel in pres.relations)
    ok = ok and consistent and quadratic
    ok = ok and len(pres.relations) == squares + cuts
    _report(f"criterion 2: 1-Aus(A4) preprojective ({squares} squares, "
            f"{cuts} border cuts, {time.time()-t0:.1f}s)", ok)


def test_criterion_3_classification_forward(aus_a3, corpus):
    t0 = time.time()
    ok = True
    for label, A, n in corpus:
        if not (label.startswith("linear_nakayama") or
                label.startswith("thm39")):
            continue
        nrf = is_n_rep_finite(A, 2)
        split_alg = preprojective_algebra(A, 2)
        si = is_self_injective(quiver_presentation(split_alg))
        ok = ok and nrf.value is True and si.value is True
    # self-injectivity of the 3-preprojective algebra is equivalent to
    # 2-representation-finiteness; check both directions on every generated
    # test algebra with gldim <= 2, including the negative instance
    for label, A, n in corpus:
        if n != 2:
            continue
        nrf = is_n_rep_finite(A, 2)
        si = is_self_injective(quiver_presentation(
            preprojective_algebra(A, 2)))
        ok = ok and (nrf.value is True) == (si.value is True)
    nrf_neg = is_n_rep_finite(aus_a3, 2)
    ok = ok and nrf_neg.value is False
    _report("criterion 3: classification forward + self-injectivity "
            f"equivalence ({time.time()-t0:.1f}s)", ok)


def test_criterion_4_canonical_family():
    t0 = time.time()
    dims = []
    ok = True
    for lam in (2, 3):
        A = canonical_2222(lam)
        ok = ok and global_dimension(A) == 2
        ok = ok and is_n_rep_finite(A, 2).value is True
        dims.append(preprojective_algebra(A, 2).dim)
    ok = ok and dims[0] == dims[1]
    _report(f"criterion 4: canonical (2,2,2,2) family, dim(L~) = {dims[0]} "
            f"({time.time()-t0:.1f}s)", ok)


def test_criterion_5_triple_cross_validation(corpus):
    t0 = time.time()
    ok = True
    for label, A, n in corpus:
        split = preprojective_module(A, n)
        talg = preprojective_algebra(A, n)
        gh = amiot_hom(A, n)
        agree = split.dim == talg.dim == gh.total
        if label == "kA2":
            agree = agree and gh.total == 4
        ok = ok and agree
    _report(f"criterion 5: triple cross-validation on {len(corpus)} "
            f"algebras ({time.time()-t0:.1f}s)", ok)


def test_criterion_6_homological_bounds(aus_a3, corpus):
    t0 = time.time()
    ok = True
    for label, A, n in corpus:
        split = preprojective_module(A, n)
        B = end_algebra(A, split.summand_reps)
        g1 = global_dimension(quiver_presentation(B))
        ok = ok and isinstance(g1, int) and g1 <= n + 1
        gamma = stable_endomorphism(A, n)
        if gamma.dim:
            g2 = global_dimension(quiver_presentation(gamma))
            ok = ok and isinstance(g2, int) and g2 <= n + 1
    # IG bounds on the n = 2 corpus, with pinned exact values
    ig_neg = iwanaga_gorenstein_dim(
        quiver_presentation(preprojective_algebra(aus_a3, 2)))
    ok = ok and ig_neg == 1
    for label, A, n in corpus:
        if not (label.startswith("linear_nakayama") or
                label.startswith("thm39")):
            continue
        ig = iwanaga_gorenstein_dim(
            quiver_presentation(preprojective_algebra(A, 2)))
        ok = ok and ig == 0
    _report(f"criterion 6: gldim End <= n+1, IG bounds "
            f"({time.time()-t0:.1f}s)", ok)


def test_criterion_7_calabi_yau_spot_check(ka2):
    t0 = time.time()
    pi_a2 = quiver_presentation(preprojective_algebra(ka2, 1))
    out1 = cy_spot_check(pi_a2, 1)
    ok = all(out1.values()) and len(out1) == 2
    tilde = quiver_presentation(preprojective_algebra(linear_nakayama(3), 2))
    out2 = cy_spot_check(tilde, 2)
    ok = ok and all(out2.values()) and len(out2) == 3
    _report(f"criterion 7: Calabi-Yau spot checks ({time.time()-t0:.1f}s)", ok)


def test_criterion_8_property_suites():
    t0 = time.time()
    import test_properties as props
    props.test_rank_nullity_200()
    props.test_yoneda_dimension_identities_200()
    props.test_serre_duality_dimensions_200()
    props.test_h0_serre_power_is_translate_200()
    props.test_derived_applications_verified_200()
    _report(f"criterion 8: five property suites, >= 200 seeded cases each, "
            f"zero failures ({time.time()-t0:.1f}s)", True)


def test_criterion_9_negative_controls(aus_a3, ka2, corpus):
    t0 = time.time()
    pi_a2 = quiver_presentation(preprojective_algebra(ka2, 1))
    ok = is_self_injective(pi_a2).value is True
    tilde_neg = quiver_presentation(preprojective_algebra(aus_a3, 2))
    ok = ok and is_self_injective(tilde_neg).value is False
    for label, A, n in corpus:
        if n != 2:
            continue
        gl = global_dimension(A)
        if isinstance(gl, int) and gl <= 2 and \
                is_tau_n_finite(A, 2).value is True:
            ok = ok and vosnex(A, 2).value is True
    verdict = is_n_rep_finite(aus_a3, 2)
    ok = ok and verdict.value is False  # false, not "unknown"
    _report(f"criterion 9: negative controls ({time.time()-t0:.1f}s)", ok)
