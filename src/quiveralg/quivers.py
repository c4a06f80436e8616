"""Quivers, path algebras and admissible ideals.

A path is stored as ``(source vertex index, tuple of arrow indices)``;
arrows compose left to right, so the path ``(i, (a, b))`` means "first a,
then b".  Relations are two-sided ideal generators; ``complete_basis``
runs a Buchberger-style completion under the length-then-lex path order
and returns the finite basis of irreducible paths, or raises
``NonAdmissible`` if paths longer than the cap survive reduction.  The
generators are kept interreduced and indexed by the word of their tip
(leading path): a path is reduced by looking up its subwords among the
tips, and a new generator is paired only with the generators whose tips
overlap its own, the overlap criterion of E. L. Green ("Noncommutative
Gröbner bases, and projective resolutions", Progr. Math. 173, 1999).
For a fixed ideal the reduced Gröbner basis, the irreducible paths and
every normal form are unique, so none of them depends on the order in
which the completion meets its pairs.
"""

from __future__ import annotations

import heapq
import itertools
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
        self._from = tuple(tuple(i for i, a in enumerate(self.arrows)
                                 if a[1] == v) for v in range(len(vertices)))
        self._into = tuple(tuple(i for i, a in enumerate(self.arrows)
                                 if a[2] == v) for v in range(len(vertices)))

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

    def arrows_from(self, v: int) -> tuple[int, ...]:
        return self._from[v]

    def arrows_into(self, v: int) -> tuple[int, ...]:
        return self._into[v]

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

def _monic(field: Field, poly: dict[Path, object]
           ) -> tuple[Path, dict[Path, object]]:
    """The tip (largest path under ``ordkey``) of a nonzero poly, and the
    poly scaled so that the tip's coefficient is one."""
    tip = max(poly, key=ordkey)
    inv = field.inv_el(poly[tip])
    return tip, {p: field.smul(inv, c) for p, c in poly.items()}


def _find_subword(word: tuple[int, ...], sub: tuple[int, ...]) -> int:
    n, m = len(word), len(sub)
    for i in range(n - m + 1):
        if word[i:i + m] == sub:
            return i
    return -1


class _Reducer:
    """Two-sided normal forms modulo a set of monic generators, none of
    whose tips contains another's.

    ``gens`` maps each generator's tip word to the generator; a tip has
    length at least 2, so its word fixes its source.  ``lengths`` counts
    the tips of each length.  A path is reducible iff one of its subwords
    of those lengths is a key of ``gens``.  ``_prefixes`` and
    ``_suffixes`` map each proper prefix (suffix) of a tip to the tips
    that start (end) with it: the tips whose overlaps with a new tip
    ``_complete`` must resolve."""

    def __init__(self, quiver: Quiver, field: Field):
        self.q = quiver
        self.field = field
        self.gens: dict[tuple[int, ...], dict[Path, object]] = {}
        self.lengths: dict[int, int] = {}
        self._prefixes: dict[tuple, set[tuple]] = {}
        self._suffixes: dict[tuple, set[tuple]] = {}

    def _addmul(self, f: dict, coef, left: tuple, g: dict, right: tuple,
                src: int):
        # f += coef * (left . g . right); left/right are arrow words
        words = ((left + p.arrows + right, c) for p, c in g.items())
        self.field.accumulate(f, (
            (Path(self.q.source(w[0]) if w else src, w), coef * c)
            for w, c in words))

    def divisor(self, word: tuple[int, ...]) -> tuple[int, tuple] | None:
        """(position, tip word) of a tip inside ``word``, or None."""
        gens = self.gens
        for m in self.lengths:
            for pos in range(len(word) - m + 1):
                if word[pos:pos + m] in gens:
                    return pos, word[pos:pos + m]
        return None

    def reduce(self, f: dict[Path, object]) -> dict[Path, object]:
        """The normal form of f: its largest reducible term is rewritten
        until none is left.  A rewrite adds only terms below the one it
        removes, so a term found irreducible stays in f as it is."""
        f = dict(f)
        done: set[Path] = set()
        while True:
            todo = [p for p in f if p not in done]
            if not todo:
                return f
            p = max(todo, key=ordkey)
            hit = self.divisor(p.arrows)
            if hit is None:
                done.add(p)
                continue
            pos, tip = hit
            left, right = p.arrows[:pos], p.arrows[pos + len(tip):]
            self._addmul(f, -f[p], left, self.gens[tip], right, p.source)

    def add(self, f: dict[Path, object]) -> list[tuple[int, ...]]:
        """Keep the normal form of f, unless it is zero, as a monic
        generator.  Each generator whose tip contains the new tip is
        retired and added again, reduced.  Returns the tip words of the
        generators kept, in order."""
        f = self.reduce(f)
        if not f:
            return []
        tip, g = _monic(self.field, f)
        word = tip.arrows
        retired = [w for w in self.gens if len(w) > len(word)
                   and _find_subword(w, word) >= 0]
        olds = [self._retire(w) for w in retired]
        self.gens[word] = g
        self.lengths[len(word)] = self.lengths.get(len(word), 0) + 1
        for k in range(1, len(word)):
            self._prefixes.setdefault(word[:k], set()).add(word)
            self._suffixes.setdefault(word[-k:], set()).add(word)
        kept = [word]
        for old in olds:
            kept.extend(self.add(old))
        return kept

    def _retire(self, word: tuple[int, ...]) -> dict[Path, object]:
        self.lengths[len(word)] -= 1
        if not self.lengths[len(word)]:
            del self.lengths[len(word)]
        for k in range(1, len(word)):
            self._prefixes[word[:k]].discard(word)
            self._suffixes[word[-k:]].discard(word)
        return self.gens.pop(word)

    def overlaps(self, word: tuple[int, ...]):
        """(w1, w2, k) for each live tip pair with a proper overlap of k
        arrows, the last k arrows of w1 being the first k of w2, where w1
        or w2 is ``word``."""
        for k in range(1, len(word)):
            for w2 in self._prefixes.get(word[-k:], ()):
                yield word, w2, k
            for w1 in self._suffixes.get(word[:k], ()):
                if w1 != word:
                    yield w1, word, k


def _complete(reducer: _Reducer, cap: int):
    """Complete the reducer's generators to a Gröbner basis.

    No tip contains another, so by the overlap criterion for path algebras
    (E. L. Green, "Noncommutative Gröbner bases, and projective
    resolutions", 1999) the generators are a Gröbner basis once, for each
    pair of tips with w1 = u o and w2 = o v (o nonempty, u and v
    nonempty), g1 v - u g2 reduces to zero.  The overlaps of each new tip
    with the live ones are queued, shortest overlap word first; a pair
    whose generator has been retired meanwhile is skipped, since the
    generator that replaced it brings its own pairs."""
    q, field = reducer.q, reducer.field
    queue: list = []
    seen: set = set()
    count = itertools.count()

    def push(words):
        for w in words:
            for pair in reducer.overlaps(w):
                if pair not in seen:
                    seen.add(pair)
                    w1, w2, k = pair
                    heapq.heappush(queue, (len(w1) + len(w2) - k,
                                           next(count), pair))

    push(list(reducer.gens))
    while queue:
        w1, w2, k = heapq.heappop(queue)[2]
        g1, g2 = reducer.gens.get(w1), reducer.gens.get(w2)
        if g1 is None or g2 is None:
            continue
        # g1 * v - u * g2 with w1 = u.o, w2 = o.v
        u, v = w1[:len(w1) - k], w2[k:]
        s: dict[Path, object] = {}
        reducer._addmul(s, field.one, (), g1, v, q.source(w1[0]))
        reducer._addmul(s, -field.one, u, g2, (), q.source(u[0]))
        added = reducer.add(s)
        if any(len(w) > cap for w in added):
            raise NonAdmissible(cap)
        push(added)


def _irreducible_paths(q: Quiver, reducer: _Reducer, cap: int,
                       max_paths: int | None = None) -> list[Path]:
    tips, lengths = reducer.gens, sorted(reducer.lengths)
    basis = [trivial(v) for v in range(q.n_vertices)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for p in frontier:
            for a in q.arrows_from(p.target(q)):
                word = p.arrows + (a,)
                # p is irreducible, so word is irreducible iff no tip is
                # a suffix of it
                if any(word[-m:] in tips for m in lengths
                       if m <= len(word)):
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
    # (a, source, target, matrix) for each arrow a whose read-only matrix
    # on e_v A has a nonzero entry; every other arrow acts by zero
    blocks: tuple[tuple[int, int, int, np.ndarray], ...]
    # (b, j, k, prefix, last) for each basis path b from v, in basis
    # order: b = basis_between(v, j)[k], and b is the basis path prefix
    # followed by the arrow last (both None for the trivial path e_v)
    steps: tuple[tuple[int, int, int, int | None, int | None], ...]


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
        # each key: global_dimension ("gldim",), tau_n_orbit ("tau_orbit",
        # n), preprojective_module ("split", n, cap), serre_context
        # ("serre", n, cap), is_self_injective ("self_injective",),
        # homology.op_element ("op_paths",), and modules.projectives_sum
        # and injectives_sum ("P", vertices) and ("I", vertices)
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
        the algebra, so the arrays are read-only: copy before writing.
        ``blocks`` holds only the arrows that act by a nonzero matrix, and
        ``steps`` walks the basis paths from v, each after its prefix."""
        hit = self._projective_blocks.get(v)
        if hit is not None:
            return hit
        f = self.field
        q = self.quiver
        between = [self.basis_between(v, j) for j in range(q.n_vertices)]
        blocks = []
        for a in range(q.n_arrows):
            s, t = q.source(a), q.target(a)
            apath = self.bindex[Path(s, (a,))]
            pos = {b: k for k, b in enumerate(between[t])}
            m = f.zeros(len(between[t]), len(between[s]))
            for col, b in enumerate(between[s]):
                for tb, c in self.mult_basis(b, apath).items():
                    m[pos[tb], col] = f.el(c)
            if not f.is_zero(m):
                m.setflags(write=False)
                blocks.append((a, s, t, m))
        steps = []
        for b, j, k in sorted((b, j, k) for j, bs in enumerate(between)
                              for k, b in enumerate(bs)):
            word = self.basis[b].arrows
            if word:
                steps.append((b, j, k, self.bindex[Path(v, word[:-1])],
                              word[-1]))
            else:
                steps.append((b, j, k, None, None))
        hit = self._projective_blocks[v] = ProjectiveBlocks(
            tuple(map(len, between)), tuple(blocks), tuple(steps))
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
        # a coefficient can vanish in the field without vanishing in Q;
        # such a term is no term, and a relation of only such terms none
        terms = ((p, field.el(c)) for p, c in rel.terms.items())
        reducer.add({p: c for p, c in terms if c != field.zero})
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
