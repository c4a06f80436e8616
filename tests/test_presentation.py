import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quiveralg import findim, quivers
from quiveralg.errors import NotBasic
from quiveralg.exactla import GF, QQ, complement_rows
from quiveralg.families import linear_nakayama, thm39_type2
from quiveralg.findim import algebra_from_bqa, quiver_presentation
from quiveralg.modules import is_isomorphic, projective, simple
from quiveralg.preprojective import (end_algebra, preprojective_algebra,
                                     stable_endomorphism)
from quiveralg.quivers import Path, PathElement, Quiver, complete_basis
from references import (QuotientBasis, algebra_from_rows,
                        amiot_endomorphism_algebra, arrows_by_meet,
                        complete_basis_by_scan, corners_by_meet, ideal_span,
                        is_homog, meet, radical_rows, right_mult_matrix,
                        sum_rows)

F = GF(32003)


def nak_a3(field=F):
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 1)): 1})])


def test_k_times_k():
    A = complete_basis(Quiver(["1", "2"], []), F, [])
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.quiver.n_vertices == 2
    assert P.quiver.n_arrows == 0
    assert P.dim == 2


def test_roundtrip_preserves_dim_and_quiver():
    A = nak_a3()
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == A.dim
    assert P.quiver.n_vertices == A.quiver.n_vertices
    assert P.quiver.n_arrows == A.quiver.n_arrows
    assert len(P.relations) == 1


def test_non_basic_rejected():
    # End(P1 + P1) over kA2 contains a 2x2 matrix corner
    A = complete_basis(Quiver(["1", "2"], [("a", "1", "2")]), F, [])
    p1 = projective(A, 0)
    B = end_algebra(A, [p1, p1])
    with pytest.raises(NotBasic):
        quiver_presentation(B)


def test_matrix_algebra_with_only_the_unit_rejected():
    # M_2(k) on the matrix units E_ab = b[2a + b]: E_ab E_cd = d_bc E_ad
    def mult(i):
        a, b = divmod(i, 2)
        row = F.zeros(4, 4)
        for d in range(2):
            row[2 * b + d, 2 * a + d] = F.one
        return row

    B = algebra_from_rows(F, 4, mult, [F.array([1, 0, 0, 1])])
    with pytest.raises(NotBasic, match="dimension 4, not 1"):
        quiver_presentation(B)


def test_loop_algebra_presentation():
    A = cube_loop(F)
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == 3
    assert P.quiver.n_arrows == 1
    # one relation: x^3
    assert len(P.relations) == 1
    assert all(len(p.arrows) == 3 for p in P.relations[0].terms)


def test_mixed_length_relation_presentation():
    A = mixed_square(F)
    P = quiver_presentation(algebra_from_bqa(A))
    assert P.dim == A.dim
    assert P.quiver.n_arrows == 5


# ---------------------------------------------------------------------------
# the presentation against the full-loop reference
# ---------------------------------------------------------------------------

_irreducible_paths = quivers._irreducible_paths


def _limit_paths(monkeypatch, limit, counts=None):
    """Make each enumeration of irreducible paths fail at once when it
    makes more than `limit` paths, rather than run on: without its bound,
    an incomplete ideal has exponentially many.  Appends each
    enumeration's count of paths to `counts`."""
    def spy(*args):
        made = 0

        def counting_path(*fields):
            nonlocal made
            made += 1
            if made > limit:
                raise AssertionError(f"more than {limit} irreducible paths "
                                     "enumerated")
            return Path(*fields)

        quivers.Path = counting_path
        try:
            return _irreducible_paths(*args)
        finally:
            quivers.Path = Path
            if counts is not None:
                counts.append(made)

    monkeypatch.setattr(quivers, "_irreducible_paths", spy)


@pytest.fixture(autouse=True)
def _bounded_enumeration(monkeypatch):
    _limit_paths(monkeypatch, 1000)


FIELDS = [pytest.param(GF(32003), id="GF32003"), pytest.param(QQ, id="QQ")]


def _reference_presentation(B, cap=64):
    """The presentation as the full degree loop finds it: corners from
    L_{e_i} R_{e_j}, the radical powers rad . rad^k until they vanish, and
    relations at every degree up to the nilpotency degree.  The reference
    for ``quiver_presentation``."""
    f = B.field
    n = B.dim
    idems = B.idempotents
    m = len(idems)
    rad = radical_rows(B)
    rad_space = QuotientBasis(f, rad, f.zeros(0, n))
    corners = {}
    rmats = [right_mult_matrix(B, e) for e in idems]
    for i in range(m):
        Li = B.left_mult_matrix(idems[i])
        for j in range(m):
            rows = f.row_space(f.matmul(Li, rmats[j]).T)
            corners[(i, j)] = meet(f, rows, rad_space)
            excess = rows.shape[0] - corners[(i, j)].shape[0]
            if excess != (1 if i == j else 0):
                raise NotBasic(f"corner ({i}, {j}) mod rad has dimension "
                               f"{excess}")

    def mult_spaces(rows_a, rows_b):
        if not len(rows_a) or not len(rows_b):
            return f.zeros(0, n)
        prods = [f.matmul(B.left_mult_matrix(ra), rows_b.T).T
                 for ra in rows_a]
        return f.row_space(np.concatenate(prods))

    rad_pows = [rad]
    while rad_pows[-1].shape[0]:
        rad_pows.append(mult_spaces(rad, rad_pows[-1]))
        assert len(rad_pows) <= n + 2
    nilp = len(rad_pows)
    rad2 = rad_pows[1] if len(rad_pows) > 1 else f.zeros(0, n)
    rad2_space = QuotientBasis(f, rad2, f.zeros(0, n))

    vertices = [str(i + 1) for i in range(m)]
    arrow_list, arrow_elems, arrow_degs = [], [], []
    graded = B.grading is not None
    for i in range(m):
        for j in range(m):
            corner = corners[(i, j)]
            corner2 = meet(f, corner, rad2_space)
            lifts = complement_rows(f, corner2, corner)
            picked = [(r, None) for r in lifts]
            if graded:
                picked = []
                base = corner2
                for dg in sorted(set(B.grading)):
                    rows = [r for r in corner if is_homog(f, B, r, dg)]
                    if not rows:
                        continue
                    ext = complement_rows(f, base, np.stack(rows))
                    picked.extend((r, dg) for r in ext)
                    base = sum_rows(f, base, ext)
                assert len(picked) == lifts.shape[0]
            for r, dg in picked:
                arrow_list.append((f"a{len(arrow_list) + 1}", vertices[i],
                                   vertices[j]))
                arrow_elems.append(r)
                arrow_degs.append(dg)
    quiver = Quiver(vertices, arrow_list)

    arrow_rmats = [right_mult_matrix(B, x) for x in arrow_elems]
    paths_by_len = {0: [Path(v, ()) for v in range(m)], 1: []}
    for a, (_, s, t) in enumerate(arrow_list):
        paths_by_len[1].append(Path(quiver.vindex[s], (a,)))
    values = {1: np.stack(arrow_elems) if arrow_elems else f.zeros(0, n)}
    relations = []
    for d in range(2, nilp + 1):
        paths_by_len[d] = []
        prefix_rows = []
        for r, p in enumerate(paths_by_len[d - 1]):
            for a in quiver.arrows_from(p.target(quiver)):
                prefix_rows.append((r, a))
                paths_by_len[d].append(Path(p.source, p.arrows + (a,)))
        values[d] = f.zeros(len(paths_by_len[d]), n)
        for k, (r, a) in enumerate(prefix_rows):
            values[d][k] = f.matmul(values[d - 1][r:r + 1],
                                    arrow_rmats[a].T)[0]
        pool = [p for dd in range(2, d + 1) for p in paths_by_len[dd]]
        if not pool:
            break
        ev = np.concatenate([values[dd] for dd in range(2, d + 1)])
        ker = f.kernel(ev.T)
        if ker.shape[0] == 0:
            continue
        idx = {p: k for k, p in enumerate(pool)}
        ideal_rows = ideal_span(f, quiver, relations, pool, idx)
        for r in complement_rows(f, ideal_rows, ker):
            relations.append(PathElement(quiver, {
                p: r[k] for k, p in enumerate(pool) if r[k] != f.zero}))
    out = complete_basis(quiver, f, relations, cap=cap,
                         arrow_degrees=arrow_degs if graded else None)
    assert out.dim == B.dim
    out.arrow_elements = arrow_elems
    return out


def _assert_same_presentation(P, R):
    f = P.field
    assert P.quiver.vertices == R.quiver.vertices
    assert P.quiver.arrows == R.quiver.arrows
    assert len(P.arrow_elements) == len(R.arrow_elements)
    for x, y in zip(P.arrow_elements, R.arrow_elements):
        assert f.equal(x, y)
    assert ([list(r.terms.items()) for r in P.relations]
            == [list(r.terms.items()) for r in R.relations])
    assert P.basis == R.basis
    assert P.arrow_degrees == R.arrow_degrees


def cube_loop(field):
    q = Quiver(["1"], [("x", "1", "1")])
    return complete_basis(q, field, [PathElement(q, {Path(0, (0, 0, 0)): 1})])


def mixed_square(field):
    """A square with a composite identified to a longer path."""
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y", "2", "4"),
                ("u", "1", "3"), ("v", "3", "2"), ("w", "2", "4")])
    return complete_basis(q, field, [PathElement(
        q, {Path(0, (0, 1)): 1, Path(0, (2, 3, 4)): -1})])


def x_squared_and_words(length, field):
    """k<x, y>/(x^2, every word of the given length)."""
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [PathElement(q, {Path(0, (0, 0)): 1})]
    rels += [PathElement(q, {Path(0, w): 1})
             for w in itertools.product((0, 1), repeat=length)]
    return complete_basis(q, field, rels)


def aus_a3_nonlinear(field):
    """Aus(A3) with one sink and one source inside, from its presentation."""
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [("a1", "1", "5"), ("a2", "2", "1"), ("a3", "2", "3"),
                ("a4", "3", "5"), ("a5", "5", "4"), ("a6", "5", "6")])
    return complete_basis(q, field, [
        PathElement(q, {Path(0, (0, 4)): 1}),
        PathElement(q, {Path(1, (1, 0)): 1, Path(1, (2, 3)): 1}),
        PathElement(q, {Path(2, (3, 5)): 1})])


ALGEBRAS = {
    "nak_a3": lambda f: algebra_from_bqa(nak_a3(f)),
    "x^3 loop": lambda f: algebra_from_bqa(cube_loop(f)),
    "mixed-length square": lambda f: algebra_from_bqa(mixed_square(f)),
    **{f"x^2 and words of length {L}":
       (lambda f, L=L: algebra_from_bqa(x_squared_and_words(L, f)))
       for L in (4, 5, 6, 7)},
    "tilde Pi linear_nakayama 3":
        lambda f: preprojective_algebra(linear_nakayama(3, f), 2),
    "tilde Pi linear_nakayama 4":
        lambda f: preprojective_algebra(linear_nakayama(4, f), 2),
    "tilde Pi thm39_type2 2":
        lambda f: preprojective_algebra(thm39_type2(2, ["gamma"], f), 2),
    "tilde Pi Aus(A3-nonlinear)":
        lambda f: preprojective_algebra(aus_a3_nonlinear(f), 2),
    "Gamma Aus(A3-nonlinear)":
        lambda f: stable_endomorphism(aus_a3_nonlinear(f), 2),
    "orbit algebra linear_nakayama 3":
        lambda f: amiot_endomorphism_algebra(linear_nakayama(3, f), 2),
}


CASES = [pytest.param(name, field, id=f"{name}-{field.id}")
         for name in ALGEBRAS for field in FIELDS]


@pytest.mark.parametrize("name, field", CASES)
def test_presentation_equals_the_full_loop_reference(name, field):
    B = ALGEBRAS[name](field.values[0])
    _assert_same_presentation(quiver_presentation(B),
                              _reference_presentation(B))


@pytest.mark.parametrize("field", FIELDS)
def test_arrow_lifts_are_taken_in_order_of_degree(field):
    """A radical corner whose lifts modulo rad^2 come in two degrees: the
    arrows b (degree 1) and a (degree 0) from 1 to 2, b first in the quiver
    and in the basis, with c: 2 -> 3 and the relation a c.  The lifts are
    taken in order of degree, so a1 lifts a, a2 lifts b, and the one
    relation of the presentation is a1 a3."""
    f = field
    q = Quiver(["1", "2", "3"],
               [("b", "1", "2"), ("a", "1", "2"), ("c", "2", "3")])
    A = complete_basis(q, f, [PathElement(q, {Path(0, (1, 2)): 1})],
                       arrow_degrees=[1, 0, 1])
    B = algebra_from_bqa(A)
    P = quiver_presentation(B)
    assert P.quiver.arrows == [("a1", 0, 1), ("a2", 0, 1), ("a3", 1, 2)]
    assert P.arrow_degrees == [0, 1, 1]
    assert [A.basis[int(np.flatnonzero(x != f.zero)[0])]
            for x in P.arrow_elements] == [Path(0, (1,)), Path(0, (0,)),
                                           Path(1, (2,))]
    assert [list(r.terms.items()) for r in P.relations] == \
        [[(Path(0, (0, 2)), f.one)]]
    _assert_same_presentation(P, _reference_presentation(B))


@st.composite
def bound_quiver_algebras(draw, field=F):
    """kQ/I over ``field``, for an acyclic quiver Q on 2-4 vertices with at
    most two parallel arrows per pair of vertices; I is generated by some
    paths of length 2 and one relation p + c r between a path p of length
    2 and another path r of length 2 (commutativity) or 3 (mixed length)
    with the same ends, when Q has such a pair; the monomial relations
    leave p and r nonzero."""
    nv = draw(st.integers(2, 4))
    arrows = []
    for i, j in itertools.combinations(range(nv), 2):
        for _ in range(draw(st.integers(0, 2))):
            arrows.append((f"a{len(arrows) + 1}", str(i + 1), str(j + 1)))
    q = Quiver([str(v + 1) for v in range(nv)], arrows)
    by_len = [[Path(v, ()) for v in range(nv)]]
    for _ in range(3):
        by_len.append([Path(p.source, p.arrows + (a,)) for p in by_len[-1]
                       for a in q.arrows_from(p.target(q))])
    # the pairs (p, r) of each kind: r of length 2, r of length 3
    kinds = [[(p, r) for p in by_len[2] for r in by_len[length]
              if r != p and (r.source, r.target(q)) == (p.source, p.target(q))]
             for length in (2, 3)]
    kinds = [pairs for pairs in kinds if pairs]
    rels, kept = [], set()
    if kinds:
        p, r = draw(st.sampled_from(draw(st.sampled_from(kinds))))
        c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        rels.append(PathElement(q, {p: 1, r: c}))
        # no monomial relation kills p or r
        kept = {p, Path(r.source, r.arrows[:2]),
                Path(q.target(r.arrows[0]), r.arrows[1:])}
    rels += [PathElement(q, {p: 1}) for p in by_len[2]
             if p not in kept and draw(st.booleans())]
    return complete_basis(q, field, rels)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bound_quiver_algebras())
def test_presentation_of_random_bound_quiver_algebras(A):
    B = algebra_from_bqa(A)
    P = quiver_presentation(B)
    assert P.dim == A.dim
    _assert_same_presentation(P, _reference_presentation(B))


@pytest.mark.parametrize("field", FIELDS)
def test_early_check_enumerates_at_most_dim_plus_one_paths(monkeypatch,
                                                           field):
    """k<x, y>/(x^2, words of length 6) has dim 32, but x^2 alone leaves
    about 1.6^L irreducible words of each length L.  Every completion that
    the presentation runs, the intermediate check included, may enumerate
    at most dim B + 1 paths."""
    B = algebra_from_bqa(x_squared_and_words(6, field))
    assert B.dim == 32
    counts = []
    _limit_paths(monkeypatch, B.dim + 1, counts)
    P = quiver_presentation(B)
    # the check after degree 2 (x^2) stops at dim B + 1 paths; degree 6,
    # the last, then enumerates exactly the 32 basis paths
    assert counts == [B.dim + 1, B.dim]
    # x^2 and the 21 words of length 6 without xx
    assert P.dim == B.dim and len(P.relations) == 22


def _inverse(f, T):
    n = T.shape[0]
    r, pivots = f.rref(np.concatenate([T, f.eye(n)], axis=1))
    assert list(pivots[:n]) == list(range(n))
    return r[:, n:]


@pytest.mark.parametrize("field", FIELDS)
def test_basis_that_is_not_vertex_adapted_is_refused(field):
    """A random change of basis b'_i = sum_k T_ik b_k of nak_a3: the
    idempotents no longer act by 0/1 diagonal matrices."""
    f = field
    B = algebra_from_bqa(nak_a3(f))
    rng = random.Random(3)
    while True:
        T = f.array([[rng.randrange(-3, 4) for _ in range(B.dim)]
                     for _ in range(B.dim)])
        if f.rank(T) == B.dim:
            break
    Tinv = _inverse(f, T)

    def mult(i):
        # row j: coordinates of b'_i b'_j in the new basis
        P = f.zeros(B.dim, B.dim)
        for a in range(B.dim):
            P = f.add(P, f.smul(T[i, a], B.table(a)))
        return f.matmul(f.matmul(T, P), Tinv)

    C = algebra_from_rows(f, B.dim, mult, [f.matmul(e[None, :], Tinv)[0]
                                           for e in B.idempotents])
    with pytest.raises(ValueError, match=r"vertex \d does not act on the "
                                         "basis by a 0/1 diagonal matrix"):
        quiver_presentation(C)


# ---------------------------------------------------------------------------
# the tip-indexed completion and the corner coordinates against the routes
# they replace
# ---------------------------------------------------------------------------

def _assert_same_completion(A, longest=None):
    """A's basis, and the normal form of every path of length at most
    ``longest`` (dim A + 1 by default) and of every product of two basis
    paths, equal those of the completion that scans every generator."""
    q, f = A.quiver, A.field
    reducer, basis = complete_basis_by_scan(q, f, A.relations)
    assert A.basis == basis

    def normal_form(p):
        return {A.bindex[t]: c for t, c in reducer.reduce({p: f.one}).items()}

    paths = frontier = [Path(v, ()) for v in range(q.n_vertices)]
    for _ in range(A.dim + 1 if longest is None else longest):
        frontier = [Path(p.source, p.arrows + (a,)) for p in frontier
                    for a in q.arrows_from(p.target(q))]
        paths = paths + frontier
    for p in paths:
        assert A.reduce_path(p) == normal_form(p)
    for i, p1 in enumerate(A.basis):
        for j, p2 in enumerate(A.basis):
            want = normal_form(Path(p1.source, p1.arrows + p2.arrows)) \
                if p1.target(q) == p2.source else {}
            assert A.mult_basis(i, j) == want


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_completion_equals_the_scanning_reference(field, data):
    _assert_same_completion(data.draw(bound_quiver_algebras(field)))


def tip_inside_tip(field, order):
    """Two paths d e f and a b c from 1 to 4, with abc = def and ab = 0,
    given in ``order``: the tip abc of the first relation contains the tip
    ab of the second, so def = abc = 0 as well."""
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [("d", "1", "5"), ("e", "5", "6"), ("f", "6", "4"),
                ("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    rels = [PathElement(q, {Path(0, (3, 4, 5)): 1, Path(0, (0, 1, 2)): -1}),
            PathElement(q, {Path(0, (3, 4)): 1})]
    return complete_basis(q, field, rels[::order])


def overlapping_loops(field):
    """k<x, y>/(xyx - yy, every word of length 6): the tip xyx overlaps
    itself in x, and that overlap gives xyyy - yyyx."""
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [PathElement(q, {Path(0, (0, 1, 0)): 1, Path(0, (1, 1)): -1})]
    rels += [PathElement(q, {Path(0, w): 1})
             for w in itertools.product((0, 1), repeat=6)]
    return complete_basis(q, field, rels)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", [
    cube_loop, mixed_square, aus_a3_nonlinear,
    lambda f: x_squared_and_words(4, f), lambda f: linear_nakayama(4, f),
    lambda f: tip_inside_tip(f, 1), lambda f: tip_inside_tip(f, -1),
    overlapping_loops],
    ids=["x^3 loop", "mixed-length square", "Aus(A3-nonlinear)",
         "x^2 and words of length 4", "nak-4", "tip inside tip",
         "tip inside tip, reversed", "overlapping loops"])
def test_completion_with_cycles_equals_the_scanning_reference(make, field):
    A = make(field)
    _assert_same_completion(A, 6 if A.quiver.n_vertices == 1 else None)


def _projectives_and_simples(A):
    """The indecomposable projectives and the simples of A, each once."""
    out = []
    for M in [projective(A, v) for v in range(A.quiver.n_vertices)] + \
            [simple(A, v) for v in range(A.quiver.n_vertices)]:
        if not any(M.dims == N.dims and is_isomorphic(M, N) for N in out):
            out.append(M)
    return out


BUILDERS = {
    "preprojective_algebra": lambda A: preprojective_algebra(A, 2),
    "end_algebra": lambda A: end_algebra(A, _projectives_and_simples(A)),
    "algebra_from_bqa": algebra_from_bqa,
    "amiot_endomorphism_algebra": lambda A: amiot_endomorphism_algebra(A, 2),
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", [lambda f: linear_nakayama(4, f),
                                  aus_a3_nonlinear],
                         ids=["nak-4", "Aus(A3-nonlinear)"])
@pytest.mark.parametrize("build", BUILDERS)
def test_corners_arrows_and_relations_equal_the_meet_reference(
        monkeypatch, build, make, field):
    f = field
    B = BUILDERS[build](make(f))
    label, members, pos = findim._corner_index(B)
    corners = findim._radical_corners(B, label, members, pos)
    for key, want in corners_by_meet(B).items():
        got = f.zeros(corners[key].shape[0], B.dim)
        got[:, members[key]] = corners[key]
        assert f.equal(got, want)
    P = quiver_presentation(B)
    monkeypatch.setattr(findim, "_arrows", arrows_by_meet)
    _assert_same_presentation(P, quiver_presentation(B))
