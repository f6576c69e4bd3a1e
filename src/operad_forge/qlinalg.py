"""Exact linear algebra over the rational numbers.

Everything downstream (chain complexes, group actions, operads, weight
decompositions) reduces to solving, kernels, images and eigenspace
splittings of matrices with ``fractions.Fraction`` entries.  All
arithmetic is exact; no floating point is ever introduced.

Matrices are immutable (tuple-of-rows) and hashable.  Subspaces carry a
canonical reduced-echelon basis so equality of subspaces is syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

F0 = Fraction(0)
F1 = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Matrix:
    """Dense rational matrix; rows*cols may be zero."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                           for x in row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"matrix data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        row = (F0,) * cols
        return cls(rows, cols, (row,) * rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(F1 if i == j else F0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def diagonal(cls, entries):
        entries = [_frac(x) for x in entries]
        n = len(entries)
        return cls(n, n, tuple(tuple(entries[i] if i == j else F0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_cols(cls, cols, rows=None):
        cols = [list(c) for c in cols]
        if rows is None:
            if not cols:
                raise ValueError("from_cols with no columns needs explicit row count")
            rows = len(cols[0])
        return cls(rows, len(cols),
                   [[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    @classmethod
    def column(cls, vec):
        return cls(len(vec), 1, [[x] for x in vec])

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def row(self, i):
        return self.data[i]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.data[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def __neg__(self):
        return Matrix(self.rows, self.cols,
                      tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _frac(c)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * x for x in row) for row in self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            # each row of other as its nonzero (j, b) pairs, built once;
            # every entry sums its terms in increasing k
            sparse = [[(j, b) for j, b in enumerate(brow) if b]
                      for brow in other.data]
            out = [[F0] * other.cols for _ in range(self.rows)]
            for row, orow in zip(self.data, out):
                for a, brow in zip(row, sparse):
                    if a:
                        for j, b in brow:
                            orow[j] += a * b
            return Matrix(self.rows, other.cols, out)
        return self.scale(other)

    __rmul__ = scale

    def apply(self, vec):
        """Matrix times column vector, as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [F0] * self.rows
        for k, x in enumerate(vec):
            if x == 0:
                continue
            x = _frac(x)
            for i in range(self.rows):
                a = self.data[i][k]
                if a != 0:
                    out[i] += a * x
        return tuple(out)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols, self.data + other.data)

    def submatrix(self, row_idx, col_idx):
        return Matrix(len(row_idx), len(col_idx),
                      tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx))

    def to_lists(self):
        return [list(row) for row in self.data]


def block_matrix(blocks):
    """Assemble a matrix from a 2d list of Matrix blocks (shapes must agree)."""
    rows = []
    for brow in blocks:
        height = brow[0].rows
        if any(b.rows != height for b in brow):
            raise ValueError("inconsistent block heights")
        for i in range(height):
            row = []
            for b in brow:
                row.extend(b.data[i])
            rows.append(tuple(row))
    ncols = len(rows[0]) if rows else sum(b.cols for b in blocks[0])
    return Matrix(len(rows), ncols, rows)


def rref(m: Matrix):
    """Reduced row echelon form ``(R, pivots, rank)``, ``pivots`` the tuple
    of pivot columns.  Gauss-Jordan on sparse ``{col: value}`` rows: each
    pivot comes from the shortest row holding its column (R is unique, so
    the choice is free) and clears only the rows that hold that column.
    """
    pending = [{j: x for j, x in enumerate(r) if x} for r in m.data]
    done = {}  # pivot column -> its row, kept without the pivot entry 1
    for c in range(m.cols):
        holders = [row for row in pending if c in row]
        if not holders:
            continue
        prow = min(holders, key=len)
        inv = F1 / prow.pop(c)
        for k in prow:
            prow[k] *= inv
        for row in holders + [row for row in done.values() if c in row]:
            if row is not prow:
                f = row.pop(c)
                for k, x in prow.items():
                    v = row.get(k, F0) - f * x
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        done[c] = prow
        pending = [row for row in pending if row and row is not prow]
    for c, row in done.items():
        row[c] = F1
    data = [[row.get(j, F0) for j in range(m.cols)] for row in done.values()]
    data += [[F0] * m.cols] * (m.rows - len(done))
    return Matrix(m.rows, m.cols, data), tuple(done), len(done)


def rank(m: Matrix) -> int:
    return rref(m)[2]


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n with a canonical reduced-echelon basis.

    ``basis`` is an ``ambient_dim x dim`` matrix whose columns are the
    rows of a reduced row echelon form, ordered by pivot; two equal
    subspaces have identical bases.  ``pivots`` holds the pivot index of
    each column.  Membership, coordinates, insertion and the complement
    projection are read off the pivots, with no new elimination.
    """

    ambient_dim: int
    basis: Matrix
    pivots: tuple = field(init=False, repr=False, compare=False)
    _entries: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows do not match the ambient dimension")
        pivots, entries = [], []
        for col in self.basis.columns():
            nonzero = tuple((r, x) for r, x in enumerate(col) if x != 0)
            if not nonzero or nonzero[0][1] != 1 \
                    or (pivots and nonzero[0][0] <= pivots[-1]):
                raise ValueError("subspace basis is not in reduced echelon form")
            pivots.append(nonzero[0][0])
            entries.append(nonzero)
        for p in pivots:
            if sum(1 for x in self.basis.data[p] if x != 0) != 1:
                raise ValueError("subspace basis is not in reduced echelon form")
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_entries", tuple(entries))

    @classmethod
    def from_spanning(cls, ambient_dim, vectors):
        """Canonicalize a spanning set (an iterable of length-n vectors)."""
        vecs = [tuple(v) for v in vectors]
        if not vecs:
            return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))
        red, pivots, rk = rref(Matrix.from_rows(vecs))
        cols = [tuple(red.data[i][j] for j in range(ambient_dim)) for i in range(rk)]
        return cls(ambient_dim, Matrix.from_cols(cols, rows=ambient_dim))

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
        """(coordinates along the basis, residual) of vec."""
        v = [_frac(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        coords = tuple(v[p] for p in self.pivots)
        for c, nonzero in zip(coords, self._entries):
            if c != 0:
                for r, x in nonzero:
                    v[r] -= c * x
        return coords, v

    def reduce(self, vec):
        """Residual of vec against the pivots: zero at every pivot, and
        zero everywhere exactly when vec lies in the subspace."""
        return tuple(self._split(vec)[1])

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coordinates of vec in the basis, or None if vec is outside."""
        coords, residual = self._split(vec)
        return None if any(residual) else coords

    def insert(self, vec):
        """``(span of self and vec, whether the dimension grew)``; the
        basis is the canonical one ``from_spanning`` would give."""
        residual = self._split(vec)[1]
        lead = next((r for r, x in enumerate(residual) if x != 0), None)
        if lead is None:
            return self, False
        inv = F1 / residual[lead]
        new = [x * inv for x in residual]
        cols = []
        for col in self.basis.columns():
            c = col[lead]
            cols.append([a - c * b for a, b in zip(col, new)] if c != 0 else col)
        at = sum(1 for p in self.pivots if p < lead)
        cols.insert(at, new)
        return Subspace(self.ambient_dim,
                        Matrix.from_cols(cols, rows=self.ambient_dim)), True

    def complement_projection(self):
        """``(proj, section)`` for the complement spanned by the unit
        vectors off the pivots: section (n x c) includes it, proj (c x n)
        has kernel the subspace and proj * section = id."""
        n = self.ambient_dim
        pivot_set = set(self.pivots)
        free = [r for r in range(n) if r not in pivot_set]
        section = [[F1 if r == f else F0 for f in free] for r in range(n)]
        proj = [[F1 if r == f else F0 for r in range(n)] for f in free]
        # e_p is its basis column minus that column's entries off p
        where = {f: j for j, f in enumerate(free)}
        for p, nonzero in zip(self.pivots, self._entries):
            for r, x in nonzero:
                if r != p:
                    proj[where[r]][p] = -x
        return Matrix(len(free), n, proj), Matrix(n, len(free), section)

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_spanning(
            self.ambient_dim, self.basis.columns() + other.basis.columns())


def kernel(m: Matrix) -> Subspace:
    """Null space of m, with canonical basis."""
    red, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vecs = []
    for fcol in free:
        v = [F0] * m.cols
        v[fcol] = F1
        for r, pcol in enumerate(pivots):
            v[pcol] = -red.data[r][fcol]
        vecs.append(tuple(v))
    return Subspace.from_spanning(m.cols, vecs)


def image(m: Matrix) -> Subspace:
    """Column space of m, with canonical basis."""
    return Subspace.from_spanning(m.rows, m.columns())


def solve(m: Matrix, b):
    """Solve m x = b exactly; return a solution tuple or None.

    ``None`` means b is not in the image of m (used upstream as the
    "obstruction is nonzero" signal).
    """
    b = tuple(b)
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    x = solve_matrix(m, Matrix.column(b))
    return None if x is None else x.col(0)


def solve_matrix(m: Matrix, b: Matrix):
    """Solve m X = b columnwise; return X or None if any column fails."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    red, pivots, rk = rref(m.hstack(b))
    # a pivot beyond m.cols signals inconsistency
    if pivots and pivots[-1] >= m.cols:
        return None
    cols = []
    for j in range(b.cols):
        x = [F0] * m.cols
        for r, pcol in enumerate(pivots):
            x[pcol] = red.data[r][m.cols + j]
        cols.append(tuple(x))
    return Matrix.from_cols(cols, rows=m.cols)


# -- characteristic polynomial and primary decomposition -------------------


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
        tr = sum((am.data[i][i] for i in range(n)), F0)
        coeffs[n - k] = -tr / k
    return tuple(coeffs)


def poly_eval(coeffs, x):
    acc = F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_matrix(coeffs, m: Matrix) -> Matrix:
    n = m.rows
    acc = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    for c in reversed(coeffs):
        acc = m * acc + ident.scale(c)
    return acc


def _poly_divide_linear(coeffs, root):
    """Divide polynomial by (t - root); requires root to be a root."""
    n = len(coeffs) - 1
    out = [F0] * n
    acc = F0
    for k in range(n, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    rem = coeffs[0] + acc * root
    if rem != 0:
        raise ValueError("not a root")
    return out


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs):
    """All rational roots of the polynomial with multiplicities.

    Classical p/q divisor test on the cleared-denominator polynomial.
    Returns a dict root -> multiplicity.
    """
    coeffs = [(_frac(c)) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    roots = {}
    # strip t^e
    zero_mult = 0
    while coeffs and coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[F0] = zero_mult
    if len(coeffs) <= 1:
        return roots
    denom = lcm(*[c.denominator for c in coeffs]) if len(coeffs) > 1 else 1
    ints = [int(c * denom) for c in coeffs]
    candidates = set()
    lead = ints[-1]
    const = ints[0]
    for p in _divisors(const):
        for q in _divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        while len(coeffs) > 1 and poly_eval(coeffs, cand) == 0:
            coeffs = _poly_divide_linear(coeffs, cand)
            roots[cand] = roots.get(cand, 0) + 1
    return roots


@dataclass(frozen=True)
class EigenSplit:
    """Primary decomposition over Q.

    ``pairs`` lists (rational eigenvalue, generalized eigenspace); the
    primary components of irreducible factors of degree >= 2 are pooled
    into ``residual``.
    """

    pairs: tuple
    residual: Subspace


def rational_eigen_split(m: Matrix) -> EigenSplit:
    if m.rows != m.cols:
        raise ValueError("eigen split of a non-square matrix")
    n = m.rows
    poly = list(char_poly(m))
    roots = rational_roots(poly)
    ident = Matrix.identity(n)
    pairs = []
    remaining = list(poly)
    for lam in sorted(roots):
        mult = roots[lam]
        shifted = m - ident.scale(lam)
        power = ident
        for _ in range(mult):
            power = power * shifted
        space = kernel(power)
        pairs.append((lam, space))
        for _ in range(mult):
            remaining = _poly_divide_linear(remaining, lam)
    if len(remaining) == 1:
        residual = Subspace.zero(n)
    else:
        residual = kernel(poly_eval_matrix(remaining, m))
    total = sum(s.dim for _, s in pairs) + residual.dim
    if total != n:
        raise AssertionError("primary components do not fill the ambient space")
    return EigenSplit(tuple(pairs), residual)
