"""Finite-type chain complexes of rational vector spaces.

Complexes have a differential of degree -1 and finite support; d*d = 0
is checked at construction time.  Tensor products follow the Koszul
sign rule, and mapping cones use d(a, b) = (d a + eta b, -d b).
"""

from __future__ import annotations

import itertools

from .qlinalg import (
    F0,
    F1,
    Matrix,
    MatrixEquations,
    Subspace,
    block_matrix,
    image,
    kernel,
    rank,
    rref,
    solve,
    solve_matrix,
    sparse_row,
)


class ChainComplex:
    """Graded rational vector space with a degree -1 differential.

    ``dims`` maps degree -> dimension (only nonzero degrees stored);
    ``diff`` maps degree i -> matrix of d_i : degree i -> degree i-1.
    Zero differentials may be omitted from ``diff``.  A complex is not
    changed after construction, so it keeps its homology record.
    """

    __slots__ = ("dims", "diff", "_homology")

    def __init__(self, dims, diff=None, check=True):
        self.dims = {int(k): int(v) for k, v in dims.items() if v}
        self._homology = None
        diff = diff or {}
        self.diff = {}
        for i, m in diff.items():
            i = int(i)
            if m.is_zero():
                continue
            if m.cols != self.dims.get(i, 0) or m.rows != self.dims.get(i - 1, 0):
                raise ValueError(f"differential at degree {i} has wrong shape")
            self.diff[i] = m
        if check:
            for i in list(self.diff):
                if i - 1 in self.diff:
                    if not (self.diff[i - 1] * self.diff[i]).is_zero():
                        raise ValueError(f"d*d != 0 at degree {i}")

    # -- basics -----------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def concentrated(cls, degree, dim):
        return cls({degree: dim})

    def dim(self, i):
        return self.dims.get(i, 0)

    @property
    def support(self):
        return tuple(sorted(self.dims))

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return not self.dims

    @property
    def homology(self):
        """This complex's HomologyRecord: ``homology(self)``, computed on
        first read and kept."""
        if self._homology is None:
            self._homology = homology(self)
        return self._homology

    def d(self, i):
        """Differential leaving degree i, zero-filled."""
        if i in self.diff:
            return self.diff[i]
        return Matrix.zeros(self.dim(i - 1), self.dim(i))

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.dims == other.dims
                and self.diff == other.diff)

    def __hash__(self):
        return hash((tuple(sorted(self.dims.items())),
                     tuple(sorted(self.diff.items()))))

    def __repr__(self):
        dims = ", ".join(f"{i}:{n}" for i, n in sorted(self.dims.items()))
        return f"ChainComplex({{{dims}}})"


class ChainMap:
    """Degreewise linear map commuting with the differentials."""

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src, dst, blocks, check=True):
        self.src = src
        self.dst = dst
        self.blocks = {}
        for i, m in blocks.items():
            i = int(i)
            if m.cols != src.dim(i) or m.rows != dst.dim(i):
                raise ValueError(f"chain map block at degree {i} has wrong shape")
            if not m.is_zero():
                self.blocks[i] = m
        if check:
            self.assert_chain()

    def assert_chain(self):
        for i in set(self.src.dims) | set(self.dst.dims):
            lhs = self.dst.d(i) * self.block(i)
            rhs = self.block(i - 1) * self.src.d(i)
            if lhs != rhs:
                raise ValueError(f"map does not commute with d at degree {i}")

    @classmethod
    def identity(cls, c):
        return cls(c, c, {i: Matrix.identity(n) for i, n in c.dims.items()},
                   check=False)

    @classmethod
    def zero_map(cls, src, dst):
        return cls(src, dst, {}, check=False)

    def block(self, i):
        if i in self.blocks:
            return self.blocks[i]
        return Matrix.zeros(self.dst.dim(i), self.src.dim(i))

    def compose(self, other):
        """self o other."""
        if other.dst is not self.src and other.dst != self.src:
            raise ValueError("composition mismatch")
        blocks = {}
        for i in set(other.blocks) | set(self.blocks):
            blocks[i] = self.block(i) * other.block(i)
        return ChainMap(other.src, self.dst, blocks, check=False)

    def __add__(self, other):
        blocks = {i: self.block(i) + other.block(i)
                  for i in set(self.blocks) | set(other.blocks)}
        return ChainMap(self.src, self.dst, blocks, check=False)

    def __sub__(self, other):
        blocks = {i: self.block(i) - other.block(i)
                  for i in set(self.blocks) | set(other.blocks)}
        return ChainMap(self.src, self.dst, blocks, check=False)

    def scale(self, c):
        return ChainMap(self.src, self.dst,
                        {i: m.scale(c) for i, m in self.blocks.items()}, check=False)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        for i in set(self.blocks) | set(other.blocks):
            if self.block(i) != other.block(i):
                return False
        return True

    def __hash__(self):
        return hash((self.src, self.dst, tuple(sorted(self.blocks.items()))))

    def is_zero(self):
        return not self.blocks

    def is_iso(self):
        for i in set(self.src.dims) | set(self.dst.dims):
            if self.src.dim(i) != self.dst.dim(i):
                return False
            if rank(self.block(i)) != self.src.dim(i):
                return False
        return True

    def __repr__(self):
        return f"ChainMap({self.src!r} -> {self.dst!r})"


# -- homology ---------------------------------------------------------------


class HomologyRecord:
    """Homology of a complex with chosen cycle data.

    Per degree i with H_i nonzero: a canonical list of representative
    cycles (the reduced-echelon lift of a basis of Z/B, as sparse
    vectors) and the classifier K_i, the dim H_i x dim C_i matrix sending
    each cycle to its homology coordinates.  K_i is zero off the pivots
    of the cycles' echelon basis, where a cycle's entries are its
    coordinates along that basis.
    """

    def __init__(self, complex, dims, representatives, classifiers):
        self.complex = complex
        self.dims = dims
        self.representatives = representatives
        self.classifiers = classifiers

    def dim(self, i):
        return self.dims.get(i, 0)

    def rep_matrix(self, i):
        """Ambient x dim(H_i) matrix of representative cycles."""
        reps = self.representatives.get(i, [])
        return Matrix.from_cols(reps, rows=self.complex.dim(i))

    def classifier(self, i):
        """K_i: dim H_i x dim C_i, exact on cycles, zero off the pivots."""
        k = self.classifiers.get(i)
        return k if k is not None else Matrix.zeros(0, self.complex.dim(i))

    def classify(self, i, vec):
        """Homology coordinates of an ambient cycle, both sparse vectors;
        None if not a cycle."""
        if self.complex.d(i).apply(vec):
            return None
        return self.classifier(i).apply(vec)

    def homology_complex(self):
        return ChainComplex({i: d for i, d in self.dims.items()})


def homology(c: ChainComplex) -> HomologyRecord:
    dims, reps, classifiers = {}, {}, {}
    for i in c.support:
        z = kernel(c.d(i))
        b = image(c.d(i + 1)) if c.dim(i + 1) else Subspace.zero(c.dim(i))
        h = z.dim - b.dim
        if h < 0:
            raise AssertionError("boundaries exceed cycles")
        if h == 0:
            continue
        dims[i] = h
        # in the echelon of [B | Z] the pivots past B are the cycle basis
        # vectors, in order, that are independent modulo B and the earlier
        # ones; the rows past B send a cycle's coordinates along Z, its
        # entries at Z's pivots, to its homology coordinates
        red, pivots, _ = rref(b.basis.hstack(z.basis))
        reps[i] = [z._entries[p - b.dim] for p in pivots[b.dim:]]
        classifiers[i] = Matrix._trusted(h, c.dim(i), tuple(
            tuple((z.pivots[j - b.dim], x) for j, x in row)
            for row in red.sparse[b.dim:z.dim]))
    return HomologyRecord(c, dims, reps, classifiers)


def homology_dims(c: ChainComplex) -> dict:
    return dict(c.homology.dims)


def induced_map(f: ChainMap):
    """Induced map on homology, as degree -> matrix: K_i f_i R_i, R_i the
    source's representatives and K_i the target's classifier."""
    hs, hd = f.src.homology, f.dst.homology
    out = {}
    for i in set(hs.dims) | set(hd.dims):
        img = f.block(i) * hs.rep_matrix(i)
        if not (f.dst.d(i) * img).is_zero():
            raise AssertionError("chain map sent a cycle to a non-cycle")
        out[i] = hd.classifier(i) * img
    return out


def is_weak_equivalence(f: ChainMap) -> bool:
    if f.src.homology.dims != f.dst.homology.dims:
        return False
    ind = induced_map(f)
    return all(m.rows == m.cols and rank(m) == m.rows for m in ind.values())


# -- functors ---------------------------------------------------------------


def shift(c: ChainComplex, n: int) -> ChainComplex:
    """Degree shift: result_i = c_{i-n}, differential scaled by (-1)^n."""
    sign = F1 if n % 2 == 0 else -F1
    return ChainComplex(
        {i + n: d for i, d in c.dims.items()},
        {i + n: m.scale(sign) for i, m in c.diff.items()},
        check=False)


def mapping_cone(eta: ChainMap):
    """Mapping cone of eta : B -> A.

    Returns (cone, inclusion of A, projection onto B[1]); the cone in
    degree i is A_i + B_{i-1} with d(a, b) = (d a + eta b, -d b).
    """
    a, b = eta.dst, eta.src
    degrees = set(a.dims) | {i + 1 for i in b.dims}
    dims = {i: a.dim(i) + b.dim(i - 1) for i in degrees}
    diff = {}
    for i in degrees | {i + 1 for i in degrees}:
        rows = dims.get(i - 1, 0)
        cols = dims.get(i, 0)
        if rows == 0 or cols == 0:
            continue
        blocks_top = []
        blocks_bot = []
        blocks_top.append(a.d(i))
        blocks_top.append(eta.block(i - 1))
        blocks_bot.append(Matrix.zeros(b.dim(i - 2), a.dim(i)))
        blocks_bot.append(b.d(i - 1).scale(-1))
        diff[i] = block_matrix([blocks_top, blocks_bot])
    cone = ChainComplex(dims, diff)
    incl = ChainMap(a, cone, {
        i: Matrix.identity(a.dim(i)).vstack(Matrix.zeros(b.dim(i - 1), a.dim(i)))
        for i in a.dims}, check=False)
    bshift = shift(b, 1)
    proj = ChainMap(cone, bshift, {
        i: Matrix.zeros(b.dim(i - 1), a.dim(i)).hstack(Matrix.identity(b.dim(i - 1)))
        for i in degrees if b.dim(i - 1)}, check=False)
    incl.assert_chain()
    proj.assert_chain()
    return cone, incl, proj


def subcomplex(c: ChainComplex, bases):
    """The subcomplex of c spanned in each degree d by the independent
    columns of the ambient matrix ``bases[d]``; empty ones are dropped.

    Returns (subcomplex, inclusion).  Raises AssertionError when d
    leaves the span, into a present degree or an absent one.
    """
    bases = {d: m for d, m in bases.items() if m.cols}
    diff = {}
    for d, m in bases.items():
        prev = bases.get(d - 1, Matrix.zeros(c.dim(d - 1), 0))
        diff[d] = solve_matrix(prev, c.d(d) * m)
        if diff[d] is None:
            raise AssertionError(f"span is not d-closed at degree {d}")
    sub = ChainComplex({d: m.cols for d, m in bases.items()}, diff)
    return sub, ChainMap(sub, c, bases)


def canonical_truncation(c: ChainComplex, n: int):
    """Subcomplex: cycles in degree n, everything above, zero below.

    Returns (truncated complex, inclusion).
    """
    bases = {i: Matrix.identity(d) for i, d in c.dims.items() if i > n}
    bases[n] = kernel(c.d(n)).basis
    return subcomplex(c, bases)


# -- tensor products --------------------------------------------------------


class TensorData:
    """Tensor product of several complexes with explicit basis labels.

    The basis in total degree n is the list of tuples
    ((d_1, k_1), ..., (d_m, k_m)) with sum d_j = n, ordered
    lexicographically; this ordering is the contract other modules rely
    on for composition tables.
    """

    __slots__ = ("factors", "complex", "_basis", "_index")

    def __init__(self, factors):
        self.factors = tuple(factors)
        self._basis = {}
        self._index = {}
        if any(f.is_zero() for f in self.factors):
            self.complex = ChainComplex.zero()
            return
        per_factor = []
        for f in self.factors:
            pairs = [(d, k) for d in sorted(f.dims) for k in range(f.dim(d))]
            per_factor.append(pairs)
        if not per_factor:
            # empty tensor product: the unit, one dimensional in degree 0
            self._basis[0] = [()]
            self._index[()] = (0, 0)
            self.complex = ChainComplex({0: 1})
            return
        for combo in itertools.product(*per_factor):
            n = sum(d for d, _ in combo)
            self._basis.setdefault(n, []).append(combo)
        for n, items in self._basis.items():
            items.sort()
            for pos, label in enumerate(items):
                self._index[label] = (n, pos)
        dims = {n: len(items) for n, items in self._basis.items()}
        # the columns of each factor's differentials, as sparse rows
        dcols = {}
        for j, f in enumerate(self.factors):
            for d in f.dims:
                dcols[j, d] = f.d(d).transpose().sparse
        diff = {}
        for n, items in self._basis.items():
            rows = len(self._basis.get(n - 1, []))
            if rows == 0:
                continue
            out = [{} for _ in range(rows)]
            for colpos, label in enumerate(items):
                sign = F1
                for j, (d, k) in enumerate(label):
                    for r, coef in dcols[j, d][k]:
                        newlabel = label[:j] + ((d - 1, r),) + label[j + 1:]
                        row = out[self._index[newlabel][1]]
                        row[colpos] = row.get(colpos, F0) + sign * coef
                    if d % 2:
                        sign = -sign
            diff[n] = Matrix._trusted(rows, len(items),
                                      tuple(map(sparse_row, out)))
        self.complex = ChainComplex(dims, diff)

    def basis(self, degree):
        return self._basis.get(degree, [])

    def index(self, label):
        """(total degree, position) of a basis label."""
        return self._index[label]


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    return TensorData((x, y)).complex


# -- homotopies --------------------------------------------------------------


def homotopy_solve(f: ChainMap, g: ChainMap):
    """Find h with f - g = d h + h d, or None.

    ``h`` is returned as a dict degree -> matrix, h_i : X_i -> Y_{i+1}.
    None is a legitimate outcome: the maps are not chain homotopic.
    """
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("homotopy between maps with different endpoints")
    x, y = f.src, f.dst
    # h_i : X_i -> Y_{i+1}, its unknowns after those of h_{i-1}
    h = MatrixEquations({i: (y.dim(i + 1), x.dim(i)) for i in sorted(x.dims)})
    for i in set(x.dims) | set(y.dims):
        if i in x.dims:  # d h_i + h_{i-1} d = f_i - g_i; X_i = 0 has no rows
            terms = [(y.d(i + 1), i, None)]
            if i - 1 in x.dims:
                terms.append((None, i - 1, x.d(i)))
            h.add(terms, f.block(i) - g.block(i))
    sol = solve(*h.system())
    return None if sol is None else h.blocks(sol)


def check_homotopy(f: ChainMap, g: ChainMap, h) -> bool:
    """Verify f - g = d h + h d exactly."""
    x, y = f.src, f.dst
    for i in set(x.dims) | set(y.dims):
        target = f.block(i) - g.block(i)
        acc = Matrix.zeros(y.dim(i), x.dim(i))
        if i in h:
            acc = acc + y.d(i + 1) * h[i]
        if i - 1 in h:
            acc = acc + h[i - 1] * x.d(i)
        if acc != target:
            return False
    return True
