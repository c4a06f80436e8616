"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (module homomorphism spaces, resolutions, derived
Hom complexes) reduces to the ``Field`` kernels ``rref``, ``kernel``,
``kernel_rref`` and ``solve``.  ``kernel_rref`` gives the unique RREF of
a kernel, with its pivots, from one rref.  That is a submodule's echelon
basis, and it is also every quotient the package takes (cokernels,
End/rad, Ext, the tensor-algebra grades): for rows S of
width n, ``kernel_rref(S)`` is the map of k^n onto k^n / rowspace(S) in
the coordinates of the classes of the unit vectors at its pivots, which
complete rowspace(S).

Arithmetic is exact everywhere; no floating point result is ever
returned.  The prime-field path stores entries as int64 numpy arrays and
takes one of three routes to a product of inner dimension k: int64
``matmul`` for small products (m*n*k at most ``_INT64_MATMUL_MNK``),
exact while ``k * (p-1)**2 < 2**63``; float64 BLAS, exact while
``k * (p-1)**2 <= 2**53``; and object-dtype Python ints when neither
applies (each bound checked at every product).  A product over Q runs
on Python rows: each row of the right factor keeps its nonzero entries,
and each nonzero entry of a left row adds its multiple of that row into
a Python accumulator, so the zeros that fill the algebra's matrices cost
no Fraction arithmetic.  ``rref`` over Q, and over GF(p) of a matrix of
at most ``_ROW_RREF_CELLS`` cells, runs on Python rows (Fractions, or
ints mod p), which is exact at any size; a row update leaves an entry
as it is where the pivot row is zero, and over Q so does the scaling of
the pivot row.  Larger GF(p) matrices use numpy row operations.

Most matrices here are tiny: a pass over the corpus eliminates about 38
cells per rref.  At that size numpy's per-call wrapping costs more than
the arithmetic, so ``is_zero`` and ``equal`` count nonzero entries with
``np.count_nonzero`` (0.8 us on a 6 x 5 block, against 5.5 us for
``np.all(a == 0)``), which reads a ``Fraction(0)`` as zero too, and
``PrimeField.eye`` writes the diagonal of a zero matrix.

Only this module knows how a field stores its values.  ``Field.reduce``
brings any value built from field values with +, - and * back into that
form: ``% p`` for GF(p), nothing for Q.  The field operations, ``rref``
and the sparse-element ``accumulate`` are written once on top of it, and
the rest of the package calls these or ``reduce`` instead of reducing
values itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["Field", "PrimeField", "RationalField", "GF", "QQ",
           "complement_rows", "complement_units"]

# Size switches of the two kernels, below which numpy's per-call overhead
# outweighs the arithmetic (timings in CHANGES.md).  int64 products stop
# winning near 4096 = m*n*k.  Over GF(p), Python rows win on the sparse
# matrices the algebra produces up to about 4096 cells, but on dense ones
# only up to about 256; 1024 keeps nearly all of the gain and bounds the
# dense loss.  Over Q they win at every size, so Q ignores the switch.
_ROW_RREF_CELLS = 1024      # GF(p) rref on Python rows up to this m * n
_INT64_MATMUL_MNK = 4096    # GF(p) products in int64 up to this m * n * k


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 64 bits of input
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rref_rows(a: np.ndarray, p: int | None) -> tuple[np.ndarray, list[int]]:
    """``Field.rref`` of a Q matrix or a small GF(p) one, eliminated on
    the Python rows of ``a.tolist()``: ints reduced mod ``p`` over GF(p),
    the Fractions as they are over Q (``p`` is None).

    Rows at or below the current one are zero left of the pivot column, so
    each row update starts at that column."""
    m, n = a.shape
    rows = a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        if p is None:
            inv = 1 / prow[c]
            tail = prow[c:] = [x * inv if x else x for x in prow[c:]]
            for row in rows:
                x = row[c]
                if x and row is not prow:
                    row[c:] = [y - x * z if z else y
                               for y, z in zip(row[c:], tail)]
        else:
            inv = pow(prow[c], p - 2, p)
            tail = prow[c:] = [x * inv % p for x in prow[c:]]
            for row in rows:
                x = row[c]
                if x and row is not prow:
                    row[c:] = [(y - x * z) % p if z else y
                               for y, z in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return np.array(rows, dtype=a.dtype).reshape(m, n), pivots


class Field:
    """Common interface of the two coefficient fields.

    Matrices are plain numpy arrays: int64 reduced mod p, or object-dtype
    Fraction.  All methods are pure.  A subclass says only how values are
    stored: ``el``, ``array``, ``zeros``, ``eye``, ``matmul``, ``inv_el``,
    ``rand_el`` and ``reduce``.  Everything else is written once, on top of
    ``reduce``.
    """

    kind: str

    # -- element/array plumbing ------------------------------------------
    def el(self, x):
        raise NotImplementedError

    def array(self, data) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        raise NotImplementedError

    def eye(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reduce(self, x):
        """The canonical value of a scalar or array that +, - and * of
        field values produced."""
        raise NotImplementedError

    def inv_el(self, x):
        raise NotImplementedError

    def rand_el(self, rng):
        raise NotImplementedError

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and not np.count_nonzero(a != b)

    def is_zero(self, a: np.ndarray) -> bool:
        return not np.count_nonzero(a)

    def neg(self, a):
        return self.reduce(-a)

    def add(self, a, b):
        return self.reduce(a + b)

    def sub(self, a, b):
        return self.reduce(a - b)

    def smul(self, c, a):
        """Scalar times array."""
        return self.reduce(c * a)

    def accumulate(self, out: dict, terms) -> dict:
        """Add each ``(key, c)`` of ``terms`` into the sparse element
        ``out`` in place; a key whose sum is zero is dropped.  Returns
        ``out``."""
        reduce, zero = self.reduce, self.zero
        for k, c in terms:
            v = reduce(out.get(k, zero) + c)
            if v == zero:
                out.pop(k, None)
            else:
                out[k] = v
        return out

    # -- gaussian elimination --------------------------------------------
    def rref(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and pivot column indices.

        A matrix over Q, or one of at most ``_ROW_RREF_CELLS`` cells, is
        eliminated on Python rows (``_rref_rows``): object-dtype numpy row
        operations on Fractions are slower at every size measured.  A
        larger GF(p) matrix is eliminated with numpy row operations.  Both
        take the first nonzero entry at or below the current row as the
        pivot and clear the rest of its column, and the RREF is unique, so
        both give the same matrix and pivots."""
        m, n = a.shape
        if m * n <= _ROW_RREF_CELLS or self.kind == "Q":
            return _rref_rows(a, self.p if self.kind == "GF" else None)
        a = a.copy()
        reduce = self.reduce
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if len(nz) == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            a[r] = reduce(a[r] * self.inv_el(a[r, c]))
            # only the rows with a nonzero entry in the pivot column change
            rows = np.nonzero(a[:, c])[0]
            rows = rows[rows != r]
            if len(rows):
                a[rows] = reduce(a[rows] - np.outer(a[rows, c], a[r]))
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self, a: np.ndarray) -> int:
        if a.size == 0:
            return 0
        return len(self.rref(a)[1])

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Basis of {v : a @ v = 0}, one basis vector per row: the vector
        of each free column c of ``rref(a)`` is 1 at c, 0 at the other free
        columns, and its last nonzero entry is at c."""
        return self._kernel_free(a)[0]

    def kernel_rref(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The RREF of a row basis of {v : a @ v = 0} and its pivot
        columns, from one rref of ``a`` with its columns reversed: there
        each kernel vector has its last nonzero entry at its free column
        and 0 at the other free ones, so read back in the original order
        it leads with 1 at that column, which is 0 in every other row.
        Equal to ``row_space(kernel(a))``, as an RREF is unique, without a
        second elimination.

        Read as a map on columns, the result K is the quotient map of
        k^n onto k^n / rowspace(a), for any rows ``a``, dependent or zero
        ones too: each row of K is orthogonal to the rows of ``a``, K has
        rank n - rank(a), and its column at a pivot c is a unit vector.
        So K x is the coordinates of the class of x on the unit vectors
        e_c of the pivots, which are the units that ``complement_units``
        picks to complete rowspace(a)."""
        if not a.size:  # 0 x 0, or the identity: already in RREF
            return self._kernel_free(a)
        n = a.shape[1]
        basis, free = self._kernel_free(a[:, ::-1])
        return basis[::-1, ::-1].copy(), [n - 1 - c for c in reversed(free)]

    def _kernel_free(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """``kernel(a)`` and the free columns of ``rref(a)``, in order."""
        m, n = a.shape
        if n == 0:
            return self.zeros(0, 0), []
        if m == 0:
            return self.eye(n), list(range(n))
        r, pivots = self.rref(a)
        free = [c for c in range(n) if c not in pivots]
        out = self.zeros(len(free), n)
        out[np.arange(len(free)), free] = self.one
        out[:, pivots] = self.neg(r[:len(pivots), free].T)
        return out, free

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One particular solution of a @ x = b (column-wise), or None."""
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"dimension mismatch: {a.shape[0]} rows vs {b.shape[0]} rows")
        m, n = a.shape
        k = b.shape[1]
        if self.is_zero(b):  # the rref's answer, without the rref
            return self.zeros(n, k)
        aug = self.zeros(m, n + k)
        aug[:, :n] = a
        aug[:, n:] = b
        r, pivots = self.rref(aug)
        if any(p >= n for p in pivots):
            return None
        x = self.zeros(n, k)
        for i, pc in enumerate(pivots):
            x[pc, :] = r[i, n:]
        return x

    def row_space(self, a: np.ndarray) -> np.ndarray:
        """Row-reduced basis of the row space (rref with zero rows dropped).

        A copy, so that a kept basis does not pin the whole rref buffer."""
        r, pivots = self.rref(a)
        return r[: len(pivots)].copy()


class PrimeField(Field):
    kind = "GF"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 2**31:
            # rref and the structure-constant kernels multiply two entries
            # in int64, which holds (p-1)^2 only for p < 2^31
            raise ValueError(f"GF({p}): the prime must be below 2^31")
        self.p = p
        self.zero = np.int64(0)
        self.one = np.int64(1)
        # float64 matmul stays exact while inner*(p-1)^2 <= 2^53, int64
        # matmul while inner*(p-1)^2 < 2^63
        self._max_inner = int(2**53 // (p - 1) ** 2) if p > 1 else 2**53
        self._max_inner_int64 = (2**63 - 1) // (p - 1) ** 2

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def el(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return np.int64(x.numerator * pow(x.denominator, -1, self.p) % self.p)
        return np.int64(int(x) % self.p)

    def array(self, data):
        return np.array(data, dtype=np.int64) % self.p

    def zeros(self, rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n):
        m = np.zeros((n, n), dtype=np.int64)
        m.flat[::n + 1] = 1
        return m

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.shape[1] == 0 or a.shape[0] == 0 or b.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        m, k = a.shape
        if (m * k * b.shape[1] <= _INT64_MATMUL_MNK
                and k <= self._max_inner_int64):
            return (a.astype(np.int64, copy=False)
                    @ b.astype(np.int64, copy=False)) % self.p
        if k <= self._max_inner:
            # exact: every partial sum is an integer of at most 2^53
            c = a.astype(np.float64) @ b.astype(np.float64)
            return c.astype(np.int64) % self.p
        # exact fallback when the float64 bound is exceeded
        c = a.astype(object) @ b.astype(object)
        return (c % self.p).astype(np.int64)

    def reduce(self, x):
        return x % self.p

    def inv_el(self, x):
        x = int(x) % self.p
        if not x:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return np.int64(pow(x, self.p - 2, self.p))

    def rand_el(self, rng):
        return np.int64(rng.randrange(self.p))

    # its own entry, so that PrimeField.rref can be looked up and wrapped
    # apart from the rational one
    rref = Field.rref


class RationalField(Field):
    kind = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def el(self, x):
        return Fraction(x)

    def array(self, data):
        a = np.array(data, dtype=object)
        flat = a.reshape(-1)
        for i, v in enumerate(flat):
            flat[i] = Fraction(v)
        return flat.reshape(a.shape)

    def zeros(self, rows, cols):
        a = np.empty((rows, cols), dtype=object)
        a[...] = Fraction(0)
        return a

    def eye(self, n):
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = Fraction(1)
        return a

    def matmul(self, a, b):
        """a @ b on Python rows: each row of b keeps only its nonzero
        entries, and a row of a adds x * b[k] only where its entry x is
        nonzero, so the zeros that fill these matrices cost no Fraction
        arithmetic.  Every accumulator starts at one shared Fraction(0),
        so each entry is a Fraction without a second wrap."""
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        m, n = a.shape[0], b.shape[1]
        brows = [[(j, y) for j, y in enumerate(row) if y]
                 for row in b.tolist()]
        zero = Fraction(0)
        out = []
        for arow in a.tolist():
            acc = [zero] * n
            for x, brow in zip(arow, brows):
                if x:
                    for j, y in brow:
                        acc[j] += x * y
            out.append(acc)
        return np.array(out, dtype=object).reshape(m, n)

    def reduce(self, x):
        return x

    def inv_el(self, x):
        return 1 / x

    def rand_el(self, rng):
        return Fraction(rng.randrange(-9, 10))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


DEFAULT_FIELD = GF(32003)


def complement_units(field: Field, sub: np.ndarray, n: int) -> list[int]:
    """The indices i of the unit vectors e_i that ``complement_rows``
    picks from the n x n identity to extend rowspace(sub).

    e_i is picked iff no vector of rowspace(sub) has its last nonzero
    entry at i, so the picks are the columns that are not pivots of one
    rref of `sub` with its columns reversed."""
    if n == 0:
        return []
    last = {n - 1 - c for c in field.rref(sub[:, ::-1])[1]}
    return [i for i in range(n) if i not in last]


def complement_rows(field: Field, sub: np.ndarray,
                    total: np.ndarray) -> np.ndarray:
    """Rows of `total` extending rowspace(sub) to rowspace(sub) +
    rowspace(total), picked greedily in order: a row is picked iff it lies
    outside the span of `sub` and the rows of `total` before it, that is,
    iff its column is a pivot of one rref of [sub; total] transposed.
    When `total` would be the identity, ``complement_units`` names the
    same rows from a smaller rref."""
    n = total.shape[1]
    if total.shape[0] == 0:
        return field.zeros(0, n)
    k = sub.shape[0]
    # a column that is zero in every row is a zero row of the transpose,
    # which changes no pivot
    both = np.concatenate([sub, total])
    picks = [c - k for c in field.rref(both[:, both.any(axis=0)].T)[1]
             if c >= k]
    return total[picks] if picks else field.zeros(0, n)

