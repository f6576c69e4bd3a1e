"""Exact linear algebra over the rational numbers.

Everything downstream (chain complexes, group actions, operads, weight
decompositions) reduces to solving, kernels, images and eigenspace
splittings of matrices with ``fractions.Fraction`` entries.  All
arithmetic is exact; no floating point is ever introduced.

Matrices are immutable and hashable, and stored as sparse rows: each
row is the tuple of its nonzero ``(col, Fraction)`` pairs, sorted by
column.  A vector is one such row, ``()`` the zero vector, wherever
one is passed, here and in every caller; ``Matrix.data`` is only a
dense view.  ``Matrix.images`` applies a block to many vectors from one
transpose, reading each image as a sum of columns; ``Matrix.apply``
reads a one-entry vector's column off the rows.  Subspaces carry a
canonical reduced-echelon basis so equality of subspaces is syntactic.
Every sum of rows goes through ``_accumulate``: ``Matrix.__mul__``,
``_combine`` (so ``Matrix.__add__``), ``images``, ``apply``,
``Subspace._split`` and the composition tables.  It, ``rref`` and
``sandwich_horner`` compute on Python integers over a common denominator
and make one ``Fraction`` per output entry they touch; entries that no
term touches keep theirs.  ``solve``, ``solve_matrix`` and
``solve_with_kernel`` share one elimination of the augmented rows
[m | b] (``_solve_augmented``), which makes a ``Fraction`` only for the
solution's entries.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def sparse_row(entries) -> tuple:
    """The sorted nonzero ``(col, value)`` pairs of a ``{col: value}``
    dict of ``Fraction``s: a vector, or one row of ``Matrix.sparse``."""
    return tuple(sorted((j, x) for j, x in entries.items() if x))


def _check_indices(vec, n):
    """Raise ValueError unless every index of the sparse vector vec lies
    in range(n)."""
    if vec and (vec[0][0] < 0 or vec[-1][0] >= n):
        raise ValueError(f"vector index out of range for dimension {n}")


def _accumulate(base, terms):
    """The sparse row base + sum (n / d) row over the terms ``(n, d, row)``:
    each entry a term touches sums its numerators over a common
    denominator and becomes one ``Fraction``; the other entries of base
    keep theirs."""
    acc = {}  # entry -> (numerator, denominator), not reduced
    for cn, cd, row in terms:
        for j, x in row:
            n, d = cn * x.numerator, cd * x.denominator
            v = acc.get(j)
            if v is not None:
                n, d = (v[0] + n, d) if v[1] == d else \
                    (v[0] * d + n * v[1], v[1] * d)
            acc[j] = n, d
    if not acc:
        return base
    out = dict(base)
    for j, (n, d) in acc.items():
        v = out.get(j)
        if v is not None:
            n, d = n * v.denominator + v.numerator * d, d * v.denominator
        if n:
            out[j] = Fraction(n, d)
        elif v is not None:
            del out[j]
    return tuple(sorted(out.items()))


def _combine(a, b, c):
    """The sparse row a + c * b."""
    return _accumulate(a, ((c.numerator, c.denominator, b),))


class Matrix:
    """Sparse rational matrix; rows*cols may be zero.

    ``sparse[i]`` is row i as its nonzero ``(col, Fraction)`` pairs,
    sorted by column; that is the only storage, and every operation
    reads only nonzeros.  Vectors are sparse rows too.  ``data`` is a
    dense tuple-of-rows view, built on each read, for display.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows, cols, data):
        """From dense rows; each entry goes through ``Fraction``."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        sparse = []
        for row in data:
            row = [x if type(x) is Fraction else Fraction(x) for x in row]
            if len(row) != cols:
                raise ValueError(
                    f"matrix data does not match shape {rows}x{cols}")
            sparse.append(tuple((j, x) for j, x in enumerate(row) if x))
        if len(sparse) != rows:
            raise ValueError(f"matrix data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.sparse = tuple(sparse)

    @classmethod
    def _trusted(cls, rows, cols, sparse):
        """From a tuple of rows that are already sparse (sorted nonzero
        ``(col, Fraction)`` pairs, in range); nothing is checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.sparse = sparse
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n):
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return cls.diagonal([F1] * n)

    @classmethod
    def diagonal(cls, entries):
        entries = [_frac(x) for x in entries]
        return cls._trusted(len(entries), len(entries), tuple(
            ((i, x),) if x else () for i, x in enumerate(entries)))

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_cols(cls, cols, rows):
        """From sparse columns, as ``columns()`` returns them."""
        cols = tuple(cols)
        for col in cols:
            _check_indices(col, rows)
        return cls._trusted(len(cols), rows, cols).transpose()

    # -- basics -----------------------------------------------------------

    @property
    def data(self):
        rows = [dict(row) for row in self.sparse]
        return tuple(tuple(r.get(j, F0) for j in range(self.cols))
                     for r in rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.rows, self.cols, self.sparse))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, idx):
        i, j = idx
        if not 0 <= i < self.rows:
            raise IndexError("matrix row out of range")
        if not 0 <= j < self.cols:
            raise IndexError("matrix column out of range")
        for k, x in self.sparse[i]:
            if k == j:
                return x
        return F0

    def is_zero(self):
        return not any(self.sparse)

    def columns(self):
        """The columns, as sparse vectors."""
        return self.transpose().sparse

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix._trusted(self.cols, self.rows, tuple(map(tuple, cols)))

    def __neg__(self):
        return Matrix._trusted(self.rows, self.cols, tuple(
            tuple((j, -x) for j, x in row) for row in self.sparse))

    def _plus(self, other, c):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix._trusted(self.rows, self.cols, tuple(
            _combine(r1, r2, c) for r1, r2 in zip(self.sparse, other.sparse)))

    def __add__(self, other):
        return self._plus(other, F1)

    def __sub__(self, other):
        return self._plus(other, -F1)

    def scale(self, c):
        c = _frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._trusted(self.rows, self.cols, tuple(
            tuple((j, c * x) for j, x in row) for row in self.sparse))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        brows = other.sparse
        out = []
        for row in self.sparse:
            if len(row) == 1 and row[0][1] in (1, -1):
                # a signed row of other, already sorted and nonzero
                k, a = row[0]
                out.append(brows[k] if a == 1
                           else tuple((j, -b) for j, b in brows[k]))
                continue
            out.append(_accumulate((), ((a.numerator, a.denominator, brows[k])
                                        for k, a in row)))
        return Matrix._trusted(self.rows, other.cols, tuple(out))

    __rmul__ = scale

    def apply(self, vec):
        """Matrix times a sparse column vector, as a sparse vector."""
        _check_indices(vec, self.cols)
        if not vec:
            return ()
        if len(vec) > 1:
            return self.images([vec])[0]
        (k, x), = vec  # x times column k: a product per row holding k
        col = [(i, a) for i, row in enumerate(self.sparse)
               for j, a in row if j == k]
        return tuple(col) if x == 1 else tuple((i, a * x) for i, a in col)

    def images(self, vecs):
        """``[self.apply(v) for v in vecs]``, read off one transpose: each
        image is the sum of the columns its vector meets, and a unit
        vector with coefficient 1 gives the column itself."""
        cols = self.transpose().sparse
        out = []
        for vec in vecs:
            _check_indices(vec, self.cols)
            if len(vec) == 1 and vec[0][1] == 1:
                out.append(cols[vec[0][0]])
                continue
            out.append(_accumulate((), ((x.numerator, x.denominator, cols[k])
                                        for k, x in vec)))
        return out

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return block_matrix([[self, other]])

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Matrix._trusted(self.rows + other.rows, self.cols,
                               self.sparse + other.sparse)

    def submatrix(self, row_idx, col_idx):
        if not all(0 <= i < self.rows for i in row_idx):
            raise IndexError("matrix row out of range")
        where = {}
        for new, j in enumerate(col_idx):
            if not 0 <= j < self.cols:
                raise IndexError("matrix column out of range")
            where.setdefault(j, []).append(new)
        return Matrix._trusted(len(row_idx), len(col_idx), tuple(
            tuple(sorted((new, x) for j, x in self.sparse[i] if j in where
                         for new in where[j]))
            for i in row_idx))

    def to_lists(self):
        return [list(row) for row in self.data]


def block_matrix(blocks):
    """Assemble a matrix from a 2d list of Matrix blocks (shapes must agree)."""
    widths = {sum(b.cols for b in brow) for brow in blocks if brow[0].rows}
    if len(widths) > 1:
        raise ValueError("inconsistent block widths")
    rows = []
    for brow in blocks:
        height = brow[0].rows
        if any(b.rows != height for b in brow):
            raise ValueError("inconsistent block heights")
        offsets = list(accumulate((b.cols for b in brow[:-1]), initial=0))
        for i in range(height):
            rows.append(tuple((j + off, x) for b, off in zip(brow, offsets)
                              for j, x in b.sparse[i]))
    ncols = widths.pop() if widths else sum(b.cols for b in blocks[0])
    return Matrix._trusted(len(rows), ncols, tuple(rows))


def _int_rows(m):
    """``(rows, den)`` with m = rows / den: integer sparse rows over the
    lcm of m's denominators."""
    den = lcm(*(x.denominator for row in m.sparse for _, x in row))
    return [tuple((j, x.numerator * (den // x.denominator)) for j, x in row)
            for row in m.sparse], den


def _int_product(arows, brows):
    """The integer sparse rows of arows * brows."""
    out = []
    for row in arows:
        if len(row) == 1:  # a multiple of one row of brows
            k, a = row[0]
            out.append(brows[k] if a == 1
                       else tuple((j, a * b) for j, b in brows[k]))
            continue
        acc = {}
        for k, a in row:
            for j, b in brows[k]:
                acc[j] = acc.get(j, 0) + a * b
        out.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return out


def sandwich_horner(x: Matrix, pairs, stages) -> Matrix:
    """x after each stage ``(m, k)`` in turn: y starts at x and becomes
    x + L y R for each ``(L, R)`` of the first m pairs in order, and x
    becomes y / k.  The sums and products run on integer rows over one
    denominator, divided by the gcd of all of them once per stage; a
    ``Fraction`` is made once per nonzero entry of the result."""
    ints = [(_int_rows(left), _int_rows(right)) for left, right in pairs]
    xrows, xden = _int_rows(x)
    for m, k in stages:
        rows, den = xrows, xden
        for (lrows, lden), (rrows, rden) in ints[:m]:
            prod = _int_product(lrows, _int_product(rows, rrows))
            pden = lden * den * rden
            den = lcm(xden, pden)
            a, b = den // xden, den // pden
            # a x + b (L y R), each row as the product [a b] [x_i; (LyR)_i]
            rows = [_int_product((((0, a), (1, b)),), (r1, r2))[0]
                    for r1, r2 in zip(xrows, prod)]
        g = gcd(den * k, *(v for row in rows for _, v in row))
        xrows = [tuple((j, v // g) for j, v in row) for row in rows]
        xden = den * k // g
    return Matrix._trusted(x.rows, x.cols, tuple(
        tuple((j, Fraction(v, xden)) for j, v in row) for row in xrows))


class MatrixEquations:
    """Linear equations in the entries of unknown matrices X_key, and the
    one place that numbers them: row by row, key after key in the order
    of ``shapes`` (key -> (rows, cols)).  ``system()`` is the ``Matrix``
    of the rows added so far and its sparse right-hand side."""

    def __init__(self, shapes):
        self.layout, self.rows, self.rhs = {}, [], []
        self.unknowns = 0
        for key, (rows, cols) in shapes.items():
            self.layout[key] = (self.unknowns, rows, cols)
            self.unknowns += rows * cols

    def add(self, terms, target):
        """The rows of sum A X_key B = target, row by row of target; each
        term ``(A, key, B)`` has one identity factor, given as None.
        Entries go straight into the row, summed where terms share a key."""
        parts = []  # (is A X, row step, each entry's unknown at r = c = 0)
        for a, key, b in sorted(terms, key=lambda t: self.layout[t[1]][0]):
            off, _, cols = self.layout[key]
            if b is None:  # (A X)[r, c] = sum_k A[r, k] X[k, c], by r
                parts.append((True, 0, [[(off + k * cols, x) for k, x in row]
                                        for row in a.sparse]))
            else:  # (X B)[r, c] = sum_k X[r, k] B[k, c], by c
                parts.append((False, cols, [[(off + k, x) for k, x in col]
                                            for col in b.columns()]))
        merge = len({t[1] for t in terms}) < len(terms)
        for r, want in enumerate(target.sparse):
            self.rhs += [(len(self.rows) + c, x) for c, x in want]
            for c in range(target.cols):
                row = []
                for left, step, entries in parts:
                    shift, at = (c, entries[r]) if left else (r * step,
                                                              entries[c])
                    row += [(j + shift, x) for j, x in at]
                if merge:
                    acc = {}
                    for j, x in row:
                        acc[j] = acc[j] + x if j in acc else x
                    row = sparse_row(acc)
                self.rows.append(tuple(row))

    def add_rows(self, rows, values):
        """Rows given as {unknown: coefficient}, values their sparse
        right-hand side."""
        self.rhs += [(len(self.rows) + i, x) for i, x in values]
        self.rows += map(sparse_row, rows)

    def system(self):
        return (Matrix._trusted(len(self.rows), self.unknowns,
                                tuple(self.rows)), tuple(self.rhs))

    def blocks(self, sol):
        """``{key: X_key}`` of the sparse solution sol, zero ones dropped."""
        out = {}
        for key, (off, rows, cols) in self.layout.items():
            lo = bisect_left(sol, (off,))
            hi = bisect_left(sol, (off + rows * cols,), lo)
            if lo < hi:
                entries = [[] for _ in range(rows)]
                for j, x in sol[lo:hi]:
                    entries[(j - off) // cols].append(((j - off) % cols, x))
                out[key] = Matrix._trusted(rows, cols,
                                           tuple(map(tuple, entries)))
        return out


def _clear(row, prow, c):
    """row = (p/g) row - (f/g) prow, p and f the entries of prow and row
    at c and g = gcd(p, f), then row divided by the gcd of its entries."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, x in prow.items():
        v = row.get(k, 0) - b * x
        if v:
            row[k] = v
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def rref(m: Matrix):
    """Reduced row echelon form ``(R, pivots, rank)``, ``pivots`` the tuple
    of pivot columns.  Fraction-free Gauss-Jordan (Bareiss 1968) on sparse
    ``{col: int}`` rows, each input row scaled by the lcm of its
    denominators: each pivot comes from the shortest row holding its
    column (R is unique, so the choice is free) and clears (``_clear``)
    only the rows that hold it.  At the end each pivot row is divided by
    its pivot, the only ``Fraction``s made: one per nonzero entry of R.
    """
    done = _eliminate(_leading(m.sparse), m.cols)
    sparse = _reduced(done) + ((),) * (m.rows - len(done))
    return Matrix._trusted(m.rows, m.cols, sparse), tuple(done), len(done)


def _leading(sparse):
    """{column: the nonzero rows whose first entry is there}, each row of
    sparse as ``{col: int}`` scaled by the lcm of its denominators."""
    lead = {}
    for r in sparse:
        if r:
            den = lcm(*(x.denominator for _, x in r))
            lead.setdefault(r[0][0], []).append(
                {j: x.numerator for j, x in r} if den == 1 else
                {j: x.numerator * (den // x.denominator) for j, x in r})
    return lead


def _eliminate(lead, cols):
    """The fraction-free Gauss-Jordan of ``rref`` on the integer rows of
    lead (``_leading``; the rows are consumed): {pivot column: its
    integer row}, in increasing pivot order.  A pivot row holds no other
    pivot column."""
    done = {}  # pivot column -> its integer row
    for c in range(cols):
        # the pending rows hold no column before c: the holders of c lead
        holders = lead.pop(c, None)
        if not holders:
            continue
        prow = min(holders, key=len)
        for row in holders:
            if row is not prow:
                _clear(row, prow, c)
                if row:
                    lead.setdefault(min(row), []).append(row)
        for row in done.values():
            if c in row:
                _clear(row, prow, c)
        done[c] = prow
    return done


def _reduced(done):
    """The rows of R from ``_eliminate``'s integer rows, each divided by
    its pivot: the only ``Fraction``s made, one per nonzero entry."""
    return tuple(tuple((j, F1 if j == c else Fraction(x) if row[c] == 1
                        else Fraction(x, row[c]))
                       for j, x in sorted(row.items()))
                 for c, row in done.items())


def rank(m: Matrix) -> int:
    return rref(m)[2]


class _Frozen:
    """Base of the immutable value classes: ``__init__`` sets each field
    once with ``_setfield``; assigning or deleting an attribute
    afterwards raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# sets one field of a _Frozen instance in its __init__; bound once here,
# since looking up object.__setattr__ on each call costs about as much as
# the rest of a small __init__ such as Tree's
_setfield = object.__setattr__


class Subspace(_Frozen):
    """Subspace of Q^n with a canonical reduced-echelon basis.

    ``basis`` is an ``ambient_dim x dim`` matrix whose columns are the
    rows of a reduced row echelon form, ordered by pivot; two equal
    subspaces have identical bases.  ``pivots`` holds the pivot index of
    each column.  Membership, the residual and the complement projection
    are read off the pivots, with no new elimination.  Equality and the
    hash read only ``ambient_dim`` and ``basis``.
    """

    def __init__(self, ambient_dim, basis):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows do not match the ambient dimension")
        _setfield(self, "ambient_dim", ambient_dim)
        _setfield(self, "basis", basis)
        entries = basis.transpose().sparse
        pivots = []
        for nonzero in entries:
            if not nonzero or nonzero[0][1] != 1 \
                    or (pivots and nonzero[0][0] <= pivots[-1]):
                raise ValueError("subspace basis is not in reduced echelon form")
            pivots.append(nonzero[0][0])
        if any(len(self.basis.sparse[p]) != 1 for p in pivots):
            raise ValueError("subspace basis is not in reduced echelon form")
        _setfield(self, "pivots", tuple(pivots))
        _setfield(self, "_entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient_dim == other.ambient_dim
                    and self.basis == other.basis)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @classmethod
    def _trusted(cls, ambient_dim, entries, pivots):
        """From the nonzero rows of a reduced row echelon form and their
        pivot columns; nothing is checked."""
        sub = object.__new__(cls)
        basis = Matrix._trusted(len(entries), ambient_dim, entries).transpose()
        for name, value in (("ambient_dim", ambient_dim), ("basis", basis),
                            ("pivots", pivots), ("_entries", entries)):
            _setfield(sub, name, value)
        return sub

    @classmethod
    def from_spanning(cls, ambient_dim, vectors):
        """Canonicalize a spanning set (an iterable of sparse vectors)."""
        vecs = tuple(vectors)
        for vec in vecs:
            _check_indices(vec, ambient_dim)
        return _span(ambient_dim, Matrix._trusted(len(vecs), ambient_dim, vecs))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self):
        return self.basis.cols

    def _split(self, vec):
        """(coordinates along the basis, residual) of the sparse vector
        vec, both sparse.  Basis column i is zero at every pivot but its
        own, so its coordinate is vec's entry at pivot i."""
        _check_indices(vec, self.ambient_dim)
        pivots = self.pivots
        coords, terms = [], []
        for r, c in vec:
            i = bisect_left(pivots, r)
            if i < len(pivots) and pivots[i] == r:
                coords.append((i, c))
                terms.append((-c.numerator, c.denominator, self._entries[i]))
        return tuple(coords), _accumulate(vec, terms)

    def reduce(self, vec):
        """Residual of vec against the pivots: zero at every pivot, and
        zero everywhere exactly when vec lies in the subspace."""
        return self._split(vec)[1]

    def contains(self, vec):
        return not self.reduce(vec)

    def complement_projection(self):
        """``(proj, section)`` for the complement spanned by the unit
        vectors off the pivots: section (n x c) includes it, proj (c x n)
        has kernel the subspace and proj * section = id."""
        n = self.ambient_dim
        pivot_set = set(self.pivots)
        free = [r for r in range(n) if r not in pivot_set]
        where = {f: j for j, f in enumerate(free)}
        section = tuple(((where[r], F1),) if r in where else ()
                        for r in range(n))
        proj = [{f: F1} for f in free]
        # e_p is its basis column minus that column's entries off p
        for p, nonzero in zip(self.pivots, self._entries):
            for r, x in nonzero:
                if r != p:
                    proj[where[r]][p] = -x
        return (Matrix._trusted(len(free), n, tuple(map(sparse_row, proj))),
                Matrix._trusted(n, len(free), section))

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return image(self.basis.hstack(other.basis))


def _span(ambient_dim, m: Matrix) -> Subspace:
    """The span of the rows of m, with canonical basis; no elimination
    runs when m has no rows."""
    if not m.rows:
        return Subspace.zero(ambient_dim)
    red, pivots, rk = rref(m)
    return Subspace._trusted(ambient_dim, red.sparse[:rk], pivots)


def kernel(m: Matrix) -> Subspace:
    """Null space of m, with canonical basis."""
    return solve_with_kernel(m, ())[1]


def image(m: Matrix) -> Subspace:
    """Column space of m, with canonical basis."""
    return _span(m.rows, m.transpose())


def solve(m: Matrix, b):
    """Solve m x = b exactly; return a solution or None.

    ``b`` and the solution are sparse vectors.  ``None`` means b is not
    in the image of m (used upstream as the "obstruction is nonzero"
    signal).
    """
    x = solve_matrix(m, Matrix.from_cols((b,), m.rows))
    return None if x is None else x.columns()[0]


def solve_with_kernel(m: Matrix, b):
    """``(solve(m, b), kernel(m))`` from one elimination of [m | b]
    (``_solve_augmented``).  The kernel is spanned by one vector per free
    column j of m, e_j minus R's column j on the pivots, R the reduced
    echelon form of m; each is scaled to integers straight from the
    elimination's integer rows and eliminated once more for the
    canonical basis."""
    n = m.cols
    rows, x = _solve_augmented(m, Matrix.from_cols((b,), m.rows))
    sol = None if x is None else x.columns()[0]
    # off its pivot, a row holds only free columns, each after the pivot:
    # so each vector's pivot entries come in increasing order, before j
    terms = {j: [] for j in range(n) if j not in rows}
    for p, row in rows.items():
        d = row[p]
        for j, v in row.items():
            if j != p and j < n:
                terms[j].append((p, v, d))
    lead = {}
    for j, ts in terms.items():
        scale = lcm(*(d for _, _, d in ts))
        vec = {p: -v * (scale // d) for p, v, d in ts}
        vec[j] = scale
        lead.setdefault(ts[0][0] if ts else j, []).append(vec)
    done = _eliminate(lead, n)
    if not done:
        return sol, Subspace.zero(n)
    return sol, Subspace._trusted(n, _reduced(done), tuple(done))


def solve_matrix(m: Matrix, b: Matrix):
    """Solve m X = b columnwise; return X or None if any column fails."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    return _solve_augmented(m, b)[1]


def _solve_augmented(m: Matrix, b: Matrix):
    """``(rows, X)`` from one elimination of [m | b]: rows maps each
    pivot column to its integer row (``_eliminate``), and X solves
    m X = b with every free variable zero, or is None when a pivot lands
    in b's columns.  A ``Fraction`` is made only for X's entries."""
    n = m.cols
    aug = [r + tuple((n + j, v) for j, v in s) if s else r
           for r, s in zip(m.sparse, b.sparse)]
    rows = _eliminate(_leading(aug), n + b.cols)
    if max(rows, default=-1) >= n:
        return rows, None
    x = [()] * n
    for p, row in rows.items():
        d = row[p]
        x[p] = tuple(sorted((j - n, Fraction(v, d))
                            for j, v in row.items() if j >= n))
    return rows, Matrix._trusted(n, b.cols, tuple(x))


# -- characteristic polynomial (for reports) and primary decomposition ------


def char_poly(m: Matrix):
    """Characteristic polynomial det(t*I - m) by Faddeev-LeVerrier.

    Returned as a tuple of coefficients, lowest degree first; monic of
    degree n.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [F0] * (n + 1)
    coeffs[n] = F1
    mk = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk + ident.scale(coeffs[n - k + 1])
        am = m * mk
        tr = sum((am[i, i] for i in range(n)), F0)
        coeffs[n - k] = -tr / k
    return tuple(coeffs)


class EigenSplit(_Frozen):
    """Primary decomposition over Q at given eigenvalues.

    ``pairs`` lists (eigenvalue, generalized eigenspace) for each given
    eigenvalue that occurs, in increasing order; ``residual`` pools the
    primary components of every other eigenvalue, rational or not: the
    m-invariant complement of the pairs.
    """

    def __init__(self, pairs, residual):
        _setfield(self, "pairs", pairs)
        _setfield(self, "residual", residual)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs and self.residual == other.residual
        return NotImplemented

    def __hash__(self):
        return hash((self.pairs, self.residual))

    def __repr__(self):
        return f"EigenSplit(pairs={self.pairs!r}, residual={self.residual!r})"


def rational_eigen_split(m: Matrix, eigenvalues) -> EigenSplit:
    """Split off the generalized eigenspaces of the given eigenvalues.

    For each eigenvalue, in increasing order, with A = m - eigenvalue:
    the kernels of A, A^2, ... grow until they stop, and the last one is
    the generalized eigenspace (Fitting: Q^n = ker A^k + im A^k for the
    stable power A^k).  An eigenvalue with ker A = 0 does not occur, and
    probing stops once the eigenspaces fill the space.  The residual is
    the image of the product of the stable powers, formed only when they
    do not.  No characteristic polynomial is built and no roots are
    searched.
    """
    if m.rows != m.cols:
        raise ValueError("eigen split of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    pairs = []
    powers = []
    filled = 0
    for lam in sorted({_frac(x) for x in eigenvalues}):
        if filled == n:
            break
        shifted = m - ident.scale(lam)
        power, space = shifted, kernel(shifted)
        if not space.dim:
            continue
        # the eigenspace cannot outgrow what the others leave
        while filled + space.dim < n:
            nxt = power * shifted
            grown = kernel(nxt)
            if grown.dim == space.dim:
                break
            power, space = nxt, grown
        pairs.append((lam, space))
        powers.append(power)
        filled += space.dim
    if filled == n:
        residual = Subspace.zero(n)
    else:
        product = ident
        for power in powers:
            product = product * power
        residual = image(product)
    if filled + residual.dim != n:
        raise AssertionError("primary components do not fill the ambient space")
    return EigenSplit(tuple(pairs), residual)
