"""Quivers, path algebras and admissible ideals.

A path is stored as ``(source vertex index, tuple of arrow indices)``;
arrows compose left to right, so the path ``(i, (a, b))`` means "first a,
then b".  Relations are two-sided ideal generators; ``complete_basis``
runs a Buchberger-style completion under the length-then-lex path order
and returns the finite basis of irreducible paths, or raises
``NonAdmissible`` if paths longer than the cap survive reduction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonAdmissible, RelationIllFormed
from .exactla import Field

__all__ = ["Quiver", "Path", "PathElement", "BoundQuiverAlgebra",
           "ProjectiveBlocks", "complete_basis", "opposite"]


class Quiver:
    def __init__(self, vertices: list[str], arrows: list[tuple[str, str, str]]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be unique")
        names = [a[0] for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow labels must be unique")
        self.vertices = list(vertices)
        self.vindex = {v: i for i, v in enumerate(vertices)}
        self.arrows = []
        for name, s, t in arrows:
            if s not in self.vindex or t not in self.vindex:
                raise ValueError(f"arrow {name}: undeclared vertex")
            self.arrows.append((name, self.vindex[s], self.vindex[t]))
        self.aindex = {a[0]: i for i, a in enumerate(self.arrows)}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def source(self, a: int) -> int:
        return self.arrows[a][1]

    def target(self, a: int) -> int:
        return self.arrows[a][2]

    def arrows_from(self, v: int) -> list[int]:
        return [i for i, a in enumerate(self.arrows) if a[1] == v]

    def arrows_into(self, v: int) -> list[int]:
        return [i for i, a in enumerate(self.arrows) if a[2] == v]

    def opposite(self) -> "Quiver":
        return Quiver(list(self.vertices),
                      [(n, self.vertices[t], self.vertices[s])
                       for n, s, t in self.arrows])

    def __repr__(self):
        arrs = ", ".join(f"{n}:{self.vertices[s]}->{self.vertices[t]}"
                         for n, s, t in self.arrows)
        return f"Quiver({self.vertices}; {arrs})"


class Path(NamedTuple):
    source: int
    arrows: tuple[int, ...]

    def target(self, q: Quiver) -> int:
        return q.target(self.arrows[-1]) if self.arrows else self.source

    def __len__(self):
        return len(self.arrows)


def trivial(v: int) -> Path:
    return Path(v, ())


def path_ok(q: Quiver, p: Path) -> bool:
    at = p.source
    for a in p.arrows:
        if q.source(a) != at:
            return False
        at = q.target(a)
    return True


def ordkey(p: Path):
    # length-lexicographic with arrow-index tiebreak; source breaks ties
    # among trivial paths only
    return (len(p.arrows), p.arrows, p.source)


class PathElement:
    """A k-linear combination of parallel paths (same source and target)."""

    def __init__(self, quiver: Quiver, terms: dict[Path, object]):
        self.quiver = quiver
        self.terms = {p: c for p, c in terms.items()}
        srcs = {p.source for p in self.terms}
        tgts = {p.target(quiver) for p in self.terms}
        if len(srcs) > 1 or len(tgts) > 1:
            raise RelationIllFormed(
                "all paths in a relation must share source and target")
        for p in self.terms:
            if not path_ok(quiver, p):
                raise RelationIllFormed(f"non-composable path {p}")

    def __repr__(self):
        bits = []
        for p, c in sorted(self.terms.items(), key=lambda t: ordkey(t[0])):
            word = "*".join(self.quiver.arrows[a][0] for a in p.arrows) or \
                f"e_{self.quiver.vertices[p.source]}"
            bits.append(f"{c}*{word}")
        return " + ".join(bits) or "0"


# ---------------------------------------------------------------------------
# Buchberger-style completion for two-sided path-algebra ideals
# ---------------------------------------------------------------------------

def _lt(poly: dict[Path, object]) -> Path:
    return max(poly, key=ordkey)


def _monic(field: Field, poly: dict[Path, object]) -> dict[Path, object]:
    lt = _lt(poly)
    inv = field.inv_el(poly[lt])
    return {p: field.smul(inv, c) for p, c in poly.items()}


def _find_subword(word: tuple[int, ...], sub: tuple[int, ...]) -> int:
    n, m = len(word), len(sub)
    if m > n:
        return -1
    for i in range(n - m + 1):
        if word[i:i + m] == sub:
            return i
    return -1


class _Reducer:
    """Two-sided normal forms modulo a set of monic generators."""

    def __init__(self, quiver: Quiver, field: Field):
        self.q = quiver
        self.field = field
        self.gens: list[dict[Path, object]] = []

    def _addmul(self, f: dict, coef, left: tuple, g: dict, right: tuple,
                src: int):
        # f += coef * (left . g . right); left/right are arrow words
        words = ((left + p.arrows + right, c) for p, c in g.items())
        self.field.accumulate(f, (
            (Path(self.q.source(w[0]) if w else src, w), coef * c)
            for w, c in words))

    def reduce(self, f: dict[Path, object]) -> dict[Path, object]:
        f = dict(f)
        while True:
            hit = None
            for p in sorted(f, key=ordkey, reverse=True):
                for g in self.gens:
                    lt = _lt(g)
                    pos = _find_subword(p.arrows, lt.arrows)
                    if pos < 0:
                        continue
                    hit = (p, g, pos, len(lt.arrows))
                    break
                if hit:
                    break
            if not hit:
                return f
            p, g, pos, m = hit
            coef = f[p]
            left, right = p.arrows[:pos], p.arrows[pos + m:]
            self._addmul(f, -coef, left, g, right, p.source)

    def add(self, f: dict[Path, object]) -> bool:
        f = self.reduce(f)
        if not f:
            return False
        self.gens.append(_monic(self.field, f))
        return True


def _overlaps(w1: tuple, w2: tuple):
    """Proper overlaps: nonempty suffix of w1 = prefix of w2 (not containment)."""
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] == w2[:k]:
            yield k


def _complete(reducer: _Reducer, cap: int):
    q, field = reducer.q, reducer.field
    queue = list(range(len(reducer.gens)))
    pairs = [(i, j) for i in queue for j in queue]
    while pairs:
        i, j = pairs.pop()
        if i >= len(reducer.gens) or j >= len(reducer.gens):
            continue
        g1, g2 = reducer.gens[i], reducer.gens[j]
        w1, w2 = _lt(g1).arrows, _lt(g2).arrows
        news = []
        for k in _overlaps(w1, w2):
            # g1 * v - u * g2 with w1 = u.o, w2 = o.v
            u, v = w1[:len(w1) - k], w2[k:]
            s: dict[Path, object] = {}
            src1 = _lt(g1).source
            src2 = q.source(u[0]) if u else _lt(g2).source
            reducer._addmul(s, field.one, (), g1, v, src1)
            reducer._addmul(s, -field.one, u, g2, (), src2)
            news.append(s)
        # containment of w2 inside w1 (as a subword, distinct generators)
        if i != j and len(w2) <= len(w1):
            pos = _find_subword(w1, w2)
            if pos >= 0:
                s = dict(g1)
                u, v = w1[:pos], w1[pos + len(w2):]
                src2 = q.source(u[0]) if u else _lt(g2).source
                reducer._addmul(s, -field.one, u, g2, v, src2)
                news.append(s)
        for s in news:
            if reducer.add(s):
                newidx = len(reducer.gens) - 1
                if len(_lt(reducer.gens[-1]).arrows) > cap:
                    raise NonAdmissible(cap)
                pairs.extend((newidx, t) for t in range(len(reducer.gens)))
                pairs.extend((t, newidx) for t in range(len(reducer.gens) - 1))


def _irreducible_paths(q: Quiver, reducer: _Reducer, cap: int,
                       max_paths: int | None = None) -> list[Path]:
    lts = [_lt(g).arrows for g in reducer.gens]

    def reducible(word: tuple) -> bool:
        return any(_find_subword(word, lt) >= 0 for lt in lts)

    basis = [trivial(v) for v in range(q.n_vertices)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for p in frontier:
            for a in q.arrows_from(p.target(q)):
                word = p.arrows + (a,)
                # a word all of whose proper subwords are irreducible is
                # irreducible iff no leading term is a suffix-aligned subword
                if reducible(word):
                    continue
                if len(word) > cap:
                    raise NonAdmissible(cap)
                nxt.append(Path(p.source, word))
                if max_paths is not None and len(basis) + len(nxt) > max_paths:
                    raise NonAdmissible(cap)
        basis.extend(nxt)
        frontier = nxt
    basis.sort(key=ordkey)
    return basis


class ProjectiveBlocks(NamedTuple):
    """An indecomposable projective e_v A, as stored by its algebra."""
    dims: tuple[int, ...]
    # one read-only matrix per arrow
    action: tuple[np.ndarray, ...]
    # (b, j, k) for each basis path b from v, in basis order:
    # b = basis_between(v, j)[k]
    paths: tuple[tuple[int, int, int], ...]


class BoundQuiverAlgebra:
    """Finite-dimensional path algebra modulo an admissible ideal.

    ``basis`` lists the irreducible paths; elements are dicts mapping
    basis paths to coefficients, or coordinate vectors in basis order.
    """

    def __init__(self, quiver: Quiver, field: Field,
                 relations: list[PathElement], reducer: _Reducer,
                 basis: list[Path], arrow_degrees: list[int] | None = None):
        self.quiver = quiver
        self.field = field
        self.relations = relations
        self._reducer = reducer
        self.basis = basis
        self.bindex = {p: i for i, p in enumerate(basis)}
        between: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(basis):
            between.setdefault((p.source, p.target(quiver)), []).append(i)
        self._between = {k: tuple(v) for k, v in between.items()}
        self.arrow_degrees = arrow_degrees
        self._mult_cache: dict[tuple[int, int], dict[int, object]] = {}
        self._projective_blocks: dict[int, ProjectiveBlocks] = {}
        # invariants computed once per algebra, by the function that owns
        # each key: global_dimension, tau_n_orbit, preprojective_module
        # and serre_context
        self.memo: dict[tuple, object] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (f"BoundQuiverAlgebra(dim={self.dim}, |Q0|="
                f"{self.quiver.n_vertices}, |Q1|={self.quiver.n_arrows}, "
                f"{self.field})")

    # -- bookkeeping -------------------------------------------------------
    def basis_between(self, s: int, t: int) -> tuple[int, ...]:
        """Indices of the basis paths from s to t, in basis order; a lookup
        in an index built with the algebra."""
        return self._between.get((s, t), ())

    def path_degree(self, p: Path) -> int:
        if self.arrow_degrees is None:
            return len(p.arrows)
        return sum(self.arrow_degrees[a] for a in p.arrows)

    # -- arithmetic on elements (dict basis-path -> coefficient) -----------
    def reduce_path(self, p: Path) -> dict[int, object]:
        """Normal form of an arbitrary composable path, in basis coords."""
        red = self._reducer.reduce({p: self.field.one})
        out = {}
        for pp, c in red.items():
            out[self.bindex[pp]] = c
        return out

    def mult_basis(self, i: int, j: int) -> dict[int, object]:
        """Product of basis paths i and j in basis coordinates (sparse)."""
        key = (i, j)
        hit = self._mult_cache.get(key)
        if hit is not None:
            return hit
        p1, p2 = self.basis[i], self.basis[j]
        out: dict[int, object] = {}
        if p1.target(self.quiver) == p2.source:
            out = self.reduce_path(Path(p1.source, p1.arrows + p2.arrows))
        self._mult_cache[key] = out
        return out

    def projective_blocks(self, v: int) -> ProjectiveBlocks:
        """The indecomposable projective e_v A, whose basis at vertex j is
        ``basis_between(v, j)``.

        Computed from ``mult_basis`` on first use and kept for the life of
        the algebra, so the arrays are read-only: copy before writing."""
        hit = self._projective_blocks.get(v)
        if hit is not None:
            return hit
        f = self.field
        q = self.quiver
        between = [self.basis_between(v, j) for j in range(q.n_vertices)]
        action = []
        for a in range(q.n_arrows):
            s, t = q.source(a), q.target(a)
            apath = self.bindex[Path(s, (a,))]
            pos = {b: k for k, b in enumerate(between[t])}
            m = f.zeros(len(between[t]), len(between[s]))
            for col, b in enumerate(between[s]):
                for tb, c in self.mult_basis(b, apath).items():
                    m[pos[tb], col] = f.el(c)
            m.setflags(write=False)
            action.append(m)
        paths = sorted((b, j, k) for j, bs in enumerate(between)
                       for k, b in enumerate(bs))
        hit = self._projective_blocks[v] = ProjectiveBlocks(
            tuple(map(len, between)), tuple(action), tuple(paths))
        return hit

    def mult(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        return self.field.accumulate({}, (
            (t, ci * cj * c) for i, ci in x.items() for j, cj in y.items()
            for t, c in self.mult_basis(i, j).items()))

    def unit(self) -> dict[int, object]:
        return {self.bindex[trivial(v)]: self.field.one
                for v in range(self.quiver.n_vertices)}

    def idempotent(self, v: int) -> dict[int, object]:
        return {self.bindex[trivial(v)]: self.field.one}


def complete_basis(quiver: Quiver, field: Field,
                   relations: list[PathElement], cap: int = 64,
                   arrow_degrees: list[int] | None = None, *,
                   _max_paths: int | None = None) -> BoundQuiverAlgebra:
    """Bound quiver algebra with explicit finite path basis.

    Raises NonAdmissible(cap) when irreducible paths of length > cap keep
    appearing, RelationIllFormed for malformed relations.  The private
    ``_max_paths`` also raises NonAdmissible(cap) once more irreducible
    paths than that have been enumerated.
    """
    for rel in relations:
        for p in rel.terms:
            if len(p.arrows) < 2:
                raise RelationIllFormed(
                    "relations must be combinations of paths of length >= 2")
    reducer = _Reducer(quiver, field)
    for rel in relations:
        reducer.add({p: field.el(c) for p, c in rel.terms.items()})
    _complete(reducer, cap)
    basis = _irreducible_paths(quiver, reducer, cap, _max_paths)
    return BoundQuiverAlgebra(quiver, field, relations, reducer, basis,
                              arrow_degrees)


def opposite(algebra: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """The opposite algebra: arrows reversed, relations path-reversed."""
    qop = algebra.quiver.opposite()
    rels = []
    for rel in algebra.relations:
        terms = {}
        for p, c in rel.terms.items():
            terms[Path(p.target(algebra.quiver), tuple(reversed(p.arrows)))] = c
        rels.append(PathElement(qop, terms))
    return complete_basis(qop, algebra.field, rels,
                          arrow_degrees=algebra.arrow_degrees)
