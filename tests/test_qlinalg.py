import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge.qlinalg import (
    EigenSplit,
    Matrix,
    Subspace,
    block_matrix,
    char_poly,
    image,
    kernel,
    rank,
    rational_eigen_split,
    _combine,
    rref,
    solve,
    solve_matrix,
    solve_with_kernel,
)

from operad_forge import chain as chain_module
from operad_forge import free as free_module
from operad_forge import minimal as minimal_module
from operad_forge import qlinalg as qlinalg_module
from operad_forge import weight as weight_module
from operad_forge.chain import ChainComplex, HomologyRecord
from operad_forge.cubical import CubicChain, interval
from operad_forge.free import FreeOperadBuilder
from operad_forge.minimal import MinimalModel, PrincipalExtension
from operad_forge.operad import (
    CompTable,
    OperadIdeal,
    OperadMorphism,
)
from operad_forge.sigma import GroupAction
from operad_forge.weight import (
    FormalityWitness,
    PureEndomorphism,
    TFunctorResult,
    WeightDecomposition,
    WeightFunction,
    formality_check,
)

from fixtures_ops import hypercommutative, moduli_quotient
from helpers import (
    assert_same_kernel,
    assert_value_semantics,
    charpoly_eigen_split,
    column_order_kernel,
    dense_apply,
    dense_col,
    dense_cols,
    dense_table_apply,
    dense_row,
    dense_solve,
    dense_split,
    fraction_combine,
    fraction_solve_with_kernel,
    poly_eval_matrix,
    rational_roots,
    to_dense,
    to_sparse,
)


def M(rows):
    return Matrix.from_rows(rows)


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(M)))


class TestRref:
    def test_identity(self):
        m = Matrix.identity(3)
        red, pivots, rk = rref(m)
        assert red == m
        assert rk == 3
        assert pivots == (0, 1, 2)

    def test_zero(self):
        m = Matrix.zeros(2, 4)
        red, pivots, rk = rref(m)
        assert red == m
        assert rk == 0

    def test_rank_one(self):
        # hand row reduction: R2 <- R2 - 2 R1
        red, pivots, rk = rref(M([[1, 2], [2, 4]]))
        assert red == M([[1, 2], [0, 0]])
        assert rk == 1
        assert pivots == (0,)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert kernel(m).dim + rank(m) == m.cols

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilated(self, m):
        ker = kernel(m)
        for j in range(ker.dim):
            assert all(x == 0 for x in to_dense(
                m.apply(ker.basis.columns()[j]), m.rows))


class TestKernel:
    def test_identity_kernel_zero(self):
        assert kernel(Matrix.identity(4)).dim == 0

    def test_zero_map_full_kernel(self):
        k = kernel(Matrix.zeros(2, 3))
        assert k == Subspace.full(3)

    def test_one_equation(self):
        # x + y = 0 has solution line spanned by (1, -1)
        k = kernel(M([[1, 1]]))
        assert k.dim == 1
        assert k.contains(to_sparse((1, -1)))
        assert k.contains(to_sparse((Fraction(-3), Fraction(3))))
        assert not k.contains(to_sparse((1, 1)))


class TestSolve:
    def test_identity(self):
        assert to_dense(solve(Matrix.identity(3), to_sparse((1, 2, 3))),
                        3) == (1, 2, 3)

    def test_zero_map_inconsistent(self):
        assert solve(Matrix.zeros(2, 2), to_sparse((1, 0))) is None

    def test_one_dimensional(self):
        assert to_dense(solve(M([[2]]), to_sparse((3,))), 1) \
            == (Fraction(3, 2),)

    def test_solve_matrix_roundtrip(self):
        m = M([[1, 2], [0, 1]])
        b = M([[3, 0], [1, 1]])
        x = solve_matrix(m, b)
        assert m * x == b

    def test_solve_matrix_inconsistent(self):
        assert solve_matrix(Matrix.zeros(2, 2), Matrix.identity(2)) is None

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_solution_exact(self, m):
        b = m.apply(to_sparse(Fraction(1) for _ in range(m.cols)))
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == tuple(b)


class TestCharPoly:
    def test_diagonal(self):
        # (t-2)(t-3) = 6 - 5t + t^2
        assert char_poly(Matrix.diagonal([2, 3])) == (6, -5, 1)

    def test_zero_matrix(self):
        assert char_poly(Matrix.zeros(3, 3)) == (0, 0, 0, 1)

    def test_rotation(self):
        # 2x2 determinant oracle: det(tI - m) = t^2 + 1
        assert char_poly(M([[0, -1], [1, 0]])) == (1, 0, 1)

    @given(matrices(max_dim=4).filter(lambda m: m.rows == m.cols))
    @settings(max_examples=40, deadline=None)
    def test_cayley_hamilton(self, m):
        assert poly_eval_matrix(char_poly(m), m).is_zero()


class TestRationalRoots:
    """The test-side reference root search (helpers.rational_roots)."""

    def test_simple(self):
        # (t-2)(t-3)
        assert rational_roots((6, -5, 1)) == {Fraction(2): 1, Fraction(3): 1}

    def test_multiplicity_and_fraction(self):
        # (2t-1)^2 (t) = t(4t^2 -4t + 1) = 4t^3 - 4t^2 + t
        assert rational_roots((0, 1, -4, 4)) == {Fraction(0): 1, Fraction(1, 2): 2}

    def test_irrational(self):
        assert rational_roots((1, 0, 1)) == {}


def split_at_roots(m):
    return rational_eigen_split(m, rational_roots(char_poly(m)))


class TestEigenSplit:
    def test_diagonal(self):
        split = split_at_roots(Matrix.diagonal([2, 2, 5]))
        assert [(lam, s.dim) for lam, s in split.pairs] == [(2, 2), (5, 1)]
        assert split.residual.dim == 0

    def test_rotation_all_residual(self):
        split = split_at_roots(M([[0, -1], [1, 0]]))
        assert split.pairs == ()
        assert split.residual == Subspace.full(2)

    def test_jordan_block(self):
        split = split_at_roots(M([[3, 1], [0, 3]]))
        assert [(lam, s.dim) for lam, s in split.pairs] == [(3, 2)]
        assert split.residual.dim == 0

    @given(matrices(max_dim=4).filter(lambda m: m.rows == m.cols))
    @settings(max_examples=40, deadline=None)
    def test_direct_sum_and_invariance(self, m):
        split = split_at_roots(m)
        spaces = [s for _, s in split.pairs] + [split.residual]
        # dimensions fill the ambient and stack to full rank
        vectors = [v for s in spaces for v in s.basis.columns()]
        assert len(vectors) == m.rows
        if vectors:
            assert rank(Matrix.from_cols(vectors, rows=m.rows)) == m.rows
        # each generalized eigenspace is m-invariant
        for _, s in split.pairs:
            for v in s.basis.columns():
                assert s.contains(m.apply(v))

    @given(matrices(max_dim=4).filter(lambda m: m.rows == m.cols),
           st.lists(st.fractions(min_value=-6, max_value=6,
                                 max_denominator=3), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_non_roots_change_nothing(self, m, extra):
        roots = rational_roots(char_poly(m))
        split = rational_eigen_split(m, roots)
        assert [(lam, s.dim) for lam, s in split.pairs] == \
            sorted(roots.items())
        padded = rational_eigen_split(
            m, list(roots) + [x for x in extra if x not in roots])
        assert padded == split


# -- the kernel-chain split against the characteristic-polynomial one ------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def square_matrices(entries, max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(M))


@st.composite
def conjugated_blocks(draw):
    """P J P^-1 for J block diagonal with Jordan blocks (repeated
    eigenvalues allowed) and possibly the companion block of t^2 - 2, P
    a lower times an upper unitriangular integer matrix."""
    blocks = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 0, 1, 2,
                                                      Fraction(1, 2)]),
                                     st.integers(1, 3)),
                           min_size=1, max_size=3))
    irrational = draw(st.booleans())
    n = sum(size for _, size in blocks) + 2 * irrational
    grid = [[0] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for k in range(size):
            grid[at + k][at + k] = lam
            if k:
                grid[at + k - 1][at + k] = 1
        at += size
    if irrational:
        grid[at][at + 1], grid[at + 1][at] = 2, 1
    xs = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    lower = M([[1 if i == j else xs[i * n + j] if j < i else 0
                for j in range(n)] for i in range(n)])
    upper = M([[1 if i == j else xs[i * n + j] if j > i else 0
                for j in range(n)] for i in range(n)])
    p = lower * upper
    return p * M(grid) * solve_matrix(p, Matrix.identity(n))


def eigenvalue_lists(m):
    """The rational roots of m's characteristic polynomial, values that
    are not roots, and duplicates, in any order."""
    pool = sorted(set(rational_roots(char_poly(m)))
                  | {Fraction(k) for k in range(-3, 4)} | {Fraction(1, 2)})
    return st.lists(st.sampled_from(pool), max_size=8)


def _agree(data, m):
    eigenvalues = data.draw(eigenvalue_lists(m))
    assert rational_eigen_split(m, eigenvalues) \
        == charpoly_eigen_split(m, eigenvalues)


class TestEigenSplitReference:
    """The kernel-chain split equals the split by the characteristic
    polynomial (helpers.charpoly_eigen_split) that it replaced: the same
    eigenvalues, and the same canonical bases of every generalized
    eigenspace and of the residual."""

    @given(square_matrices(small_entries), st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_matrices(self, m, data):
        _agree(data, m)

    @given(square_matrices(small_fractions, max_dim=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fractional_matrices(self, m, data):
        _agree(data, m)

    @given(conjugated_blocks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_conjugated_jordan_blocks(self, m, data):
        _agree(data, m)

    def test_zero_by_zero(self):
        m = Matrix.zeros(0, 0)
        for eigenvalues in ([], [1], [2, 2, 0]):
            split = rational_eigen_split(m, eigenvalues)
            assert split == charpoly_eigen_split(m, eigenvalues)
            assert split == EigenSplit((), Subspace.zero(0))

    def test_chain_past_the_first_kernel(self):
        # a 3x3 Jordan block at 2 beside t^2 - 2: ker A has dimension 1,
        # the generalized eigenspace 3, and the residual is the t^2 - 2 part
        m = M([[2, 1, 0, 0, 0], [0, 2, 1, 0, 0], [0, 0, 2, 0, 0],
               [0, 0, 0, 0, 2], [0, 0, 0, 1, 0]])
        split = rational_eigen_split(m, [2, 2, 3])
        assert split == charpoly_eigen_split(m, [2, 2, 3])
        assert [(lam, s.dim) for lam, s in split.pairs] == [(2, 3)]
        assert split.residual == Subspace.from_spanning(
            5, [to_sparse((0, 0, 0, 1, 0)), to_sparse((0, 0, 0, 0, 1))])


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.from_spanning(3, map(to_sparse, [(1, 0, 1), (0, 1, 1)]))
        b = Subspace.from_spanning(3, map(to_sparse, [(1, 1, 2), (1, -1, 0)]))
        assert a == b
        assert a.basis == b.basis

    def test_rationals_stay_exact(self):
        s = Subspace.from_spanning(
            2, [to_sparse((Fraction(1, 3), Fraction(1, 7)))])
        v = to_sparse((Fraction(1), Fraction(3, 7)))
        assert s.contains(v)


# -- value semantics ---------------------------------------------------------


def _line():
    return Subspace.from_spanning(2, [to_sparse((1, 1))])


# one instance of each frozen value class, a second built from equal
# fields, one that differs, and the pinned repr
VALUES = {
    "subspace": (_line, lambda: Subspace.full(2),
                 "Subspace(ambient_dim=2, basis=Matrix(2x1))"),
    "eigensplit": (lambda: EigenSplit(((Fraction(2), _line()),),
                                      Subspace.zero(2)),
                   lambda: EigenSplit((), Subspace.zero(2)),
                   "EigenSplit(pairs=((Fraction(2, 1), Subspace(ambient_dim=2, "
                   "basis=Matrix(2x1))),), residual=Subspace(ambient_dim=2, "
                   "basis=Matrix(2x0)))"),
    "weight": (lambda: WeightFunction(2), lambda: WeightFunction(3),
               "WeightFunction(base=Fraction(2, 1))"),
}


class TestValueClasses:
    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_value_semantics(self, name):
        assert_value_semantics(*VALUES[name])

    def test_subspace_compares_ambient_and_basis_only(self):
        line = _line()
        basis = Matrix.from_cols([to_sparse((1, 1))], rows=2)
        assert Subspace(ambient_dim=2, basis=basis) == line
        assert hash(line) == hash((2, basis))
        assert line.pivots == (0,)
        assert Subspace.zero(2) != Subspace.zero(3)

    def test_hash_of_field_tuple(self):
        assert hash(WeightFunction(2)) == hash((Fraction(2),))
        split = EigenSplit((), Subspace.zero(2))
        assert hash(split) == hash(((), Subspace.zero(2)))

    def test_checks_kept(self):
        with pytest.raises(ValueError):
            Subspace(3, Matrix.identity(2))
        with pytest.raises(ValueError):
            Subspace(2, Matrix.from_rows([[2], [0]]))
        for base in (0, 1, -1):
            with pytest.raises(ValueError):
                WeightFunction(base)
        w = WeightFunction(base="1/2")
        assert type(w.base) is Fraction and w.base == Fraction(1, 2)
        split = EigenSplit(pairs=(), residual=Subspace.full(1))
        assert split.residual.dim == 1


# each former record class outside sigma and trees, with its field names
RECORDS = [
    (HomologyRecord, ("complex", "dims", "representatives", "classifiers")),
    (PrincipalExtension, ("base", "level", "generators", "attachment",
                          "result")),
    (MinimalModel, ("operad", "morphism", "tower", "seed")),
    (OperadMorphism, ("src", "dst", "maps")),
    (OperadIdeal, ("operad", "spans")),
    (WeightDecomposition, ("complex", "endomorphism", "weight_function",
                           "pure", "residual")),
    (PureEndomorphism, ("subject", "endomorphism", "weight_function",
                        "homology_eigenvalues")),
    (TFunctorResult, ("complex", "inclusion", "projection", "weight_tags")),
    (FormalityWitness, ("arrows", "t_operad", "automorphism")),
]


class TestRecordClasses:
    @pytest.mark.parametrize("cls, fields", RECORDS,
                             ids=[cls.__name__ for cls, _ in RECORDS])
    def test_keyword_fields(self, cls, fields):
        values = {name: object() for name in fields}
        rec = cls(**values)
        for name in fields:
            assert getattr(rec, name) is values[name]

    def test_formality_witness_default(self):
        assert FormalityWitness(arrows=[], t_operad=None).automorphism is None

    def test_computed_fields(self):
        # a free builder's summand records: offsets are running sums in
        # layout order, and dims holds their totals
        c = ChainComplex({0: 2, 1: 1})
        builder = FreeOperadBuilder({2: GroupAction.trivial(2, c)}, 3)
        records = builder.summands[3]
        assert len(records) == 3
        assert [rec.place for rec in records] == sorted(
            rec.place for rec in records)
        totals = {}
        for rec in records:
            assert rec.offsets == {d: totals.get(d, 0)
                                   for d in rec.complex.dims}
            for d, n in rec.complex.dims.items():
                totals[d] = totals.get(d, 0) + n
        assert builder.dims[3] == totals == {0: 12, 1: 12, 2: 3}
        space = interval()
        cube = space.cubes(1)[0]
        chain = CubicChain(space=space, dim=1, coeffs={cube: 3})
        assert (chain.space, chain.dim, chain.coeffs) == \
            (space, 1, {cube: Fraction(3)})


# -- Subspace fast paths against the elimination they replace ---------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def spans_and_vector(draw):
    """(n, spanning vectors, test vector); the spanning vectors are
    combinations of at most ``cap`` base vectors, so the set is often
    rank-deficient, and the test vector is often inside the span."""
    n = draw(st.integers(1, 5))
    vec = st.lists(rationals, min_size=n, max_size=n)
    cap = draw(st.integers(0, n))
    base = draw(st.lists(vec, min_size=cap, max_size=cap))
    combos = draw(st.lists(st.lists(rationals, min_size=cap, max_size=cap),
                           max_size=5))
    vecs = [tuple(sum((c * b[i] for c, b in zip(cs, base)), Fraction(0))
                  for i in range(n)) for cs in combos]
    if vecs and draw(st.booleans()):
        cs = draw(st.lists(rationals, min_size=len(vecs),
                           max_size=len(vecs)))
        v = tuple(sum((c * u[i] for c, u in zip(cs, vecs)), Fraction(0))
                  for i in range(n))
    else:
        v = tuple(draw(vec))
    return n, vecs, v


def _unit(n, r):
    return tuple(Fraction(int(i == r)) for i in range(n))


def complement_projection_by_solves(sub):
    """Reference: solve [span | section] (a, b) = e_r once per unit vector."""
    n, span = sub.ambient_dim, sub.basis
    if span.cols == 0:
        return Matrix.identity(n), Matrix.identity(n)
    pivots = set(rref(span.transpose())[1])
    free = [r for r in range(n) if r not in pivots]
    section = Matrix(n, len(free), [[int(r == f) for f in free]
                                    for r in range(n)])
    stacked = span.hstack(section)
    cols = [dense_solve(stacked, _unit(n, r))[span.cols:] for r in range(n)]
    return dense_cols(cols), section


class TestSubspaceFastPaths:
    @given(spans_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_contains_matches_solve(self, case):
        n, vecs, v = case
        sub = Subspace.from_spanning(n, map(to_sparse, vecs))
        v = to_sparse(v)
        expected = solve(sub.basis, v)
        assert sub.contains(v) == (expected is not None)
        residual = to_dense(sub.reduce(v), n)
        assert all(residual[p] == 0 for p in sub.pivots)
        assert any(residual) == (expected is None)

    @given(spans_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_unchecked_span_matches_checked(self, case):
        n, vecs, _ = case
        sub = Subspace.from_spanning(n, map(to_sparse, vecs))
        checked = Subspace(n, sub.basis)
        assert sub == checked
        assert sub.pivots == checked.pivots
        assert sub._entries == checked._entries

    @given(spans_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_complement_projection_matches_solves(self, case):
        n, vecs, _ = case
        sub = Subspace.from_spanning(n, map(to_sparse, vecs))
        proj, section = sub.complement_projection()
        assert (proj, section) == complement_projection_by_solves(sub)
        assert proj * section == Matrix.identity(n - sub.dim)
        assert (proj * sub.basis).is_zero()

    @given(matrices(max_dim=4))
    @settings(max_examples=100, deadline=None)
    def test_only_canonical_bases_accepted(self, m):
        canonical = Subspace.from_spanning(m.rows, m.columns()).basis
        if m == canonical:
            assert Subspace(m.rows, m).basis == m
        else:
            with pytest.raises(ValueError):
                Subspace(m.rows, m)

    def test_non_rref_bases_rejected(self):
        for cols in ([(2, 0)], [(0, 1), (1, 0)], [(1, 1), (0, 1)],
                     [(0, 0)]):
            with pytest.raises(ValueError):
                Subspace(2, dense_cols(cols))


# -- the sparse-row product against the triple loop -------------------------


@st.composite
def product_operands(draw):
    """(a, b) with a.cols == b.rows; each operand is dense, rank-deficient
    (a product of thin factors), all zero, or a signed permutation."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))

    def operand(rows, cols):
        kind = draw(st.sampled_from(["dense", "low-rank", "zero",
                                     "signed-permutation"]))
        if kind == "zero":
            return Matrix.zeros(rows, cols)
        if kind == "signed-permutation" and rows == cols:
            perm = draw(st.permutations(range(rows)))
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rows,
                                  max_size=rows))
            return Matrix(rows, cols, [[signs[i] * int(perm[i] == j)
                                        for j in range(cols)]
                                       for i in range(rows)])
        if kind == "low-rank":
            s = draw(st.integers(0, 2))
            u = draw(st.lists(st.lists(rationals, min_size=s, max_size=s),
                              min_size=rows, max_size=rows))
            v = draw(st.lists(st.lists(rationals, min_size=cols,
                                       max_size=cols),
                              min_size=s, max_size=s))
            return Matrix(rows, cols, [[sum((u[i][t] * v[t][j]
                                             for t in range(s)), Fraction(0))
                                        for j in range(cols)]
                                       for i in range(rows)])
        entries = st.one_of(st.just(Fraction(0)), rationals)
        return Matrix(rows, cols, draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return operand(r, k), operand(k, c)


def product_by_triple_loop(a, b):
    return tuple(tuple(sum((a.data[i][t] * b.data[t][j]
                            for t in range(a.cols)), Fraction(0))
                       for j in range(b.cols))
                 for i in range(a.rows))


class TestIndexRange:
    """An entry or submatrix index outside the matrix raises, rows as
    well as columns; a negative index does not wrap round."""

    @pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_entry(self, i, j):
        with pytest.raises(IndexError):
            M([[1, 2], [3, 4]])[i, j]

    @pytest.mark.parametrize("rows, cols", [([-1], [0]), ([2], [0]),
                                            ([0], [-1]), ([0], [2])])
    def test_submatrix(self, rows, cols):
        with pytest.raises(IndexError):
            M([[1, 2], [3, 4]]).submatrix(rows, cols)

    def test_in_range(self):
        a = M([[1, 2], [3, 4]])
        assert a[1, 0] == 3
        assert a.submatrix([1], [0]) == M([[3]])


class TestProduct:
    @given(product_operands())
    @settings(max_examples=200, deadline=None)
    def test_matches_triple_loop(self, case):
        a, b = case
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod.data == product_by_triple_loop(a, b)
        assert all(type(x) is Fraction for row in prod.data for x in row)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


# -- every sparse-row operation against a dense reference --------------------


def assert_sparse_row(row, n):
    """Sorted distinct indices in range(n), only nonzero Fractions."""
    cols = [j for j, _ in row]
    assert cols == sorted(set(cols))
    assert all(0 <= j < n for j in cols)
    assert all(type(x) is Fraction and x != 0 for _, x in row)


def assert_sparse_invariants(m):
    """Rows sorted by column, in range, no stored zero, only Fractions."""
    assert len(m.sparse) == m.rows
    for row in m.sparse:
        assert_sparse_row(row, m.cols)


def dense(grid):
    return tuple(tuple(Fraction(x) for x in row) for row in grid)


def dense_product(a, b, cols):
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))),
                           Fraction(0)) for j in range(cols))
                 for i in range(len(a)))


def dense_transpose(a, cols):
    return tuple(tuple(row[j] for row in a) for j in range(cols))


@st.composite
def mostly_zero_operands(draw):
    """Grids (lists of int and Fraction entries, about three quarters
    zero) of shapes a: r x k, b: k x c, same: r x k, below: s x k,
    right: r x c, corner: s x c; a length-k vector and a scalar."""
    r, k, c, s = (draw(st.integers(0, 5)) for _ in range(4))
    entries = st.one_of(st.just(0), st.just(Fraction(0)), st.just(0),
                        st.integers(-2, 2), rationals)

    def grid(rows, cols):
        return _grid(draw, rows, cols, entries)

    shapes = {"a": (r, k), "b": (k, c), "same": (r, k), "below": (s, k),
              "right": (r, c), "corner": (s, c)}
    grids = {name: grid(*shape) for name, shape in shapes.items()}
    vec = draw(st.lists(entries, min_size=k, max_size=k))
    return shapes, grids, vec, draw(st.one_of(st.just(0), rationals))


class TestSparseAgainstDense:
    @given(mostly_zero_operands())
    @settings(max_examples=150, deadline=None)
    def test_every_operation_matches_dense(self, case):
        shapes, grids, vec, scalar = case
        m = {name: Matrix(*shapes[name], grids[name]) for name in shapes}
        d = {name: dense(g) for name, g in grids.items()}
        a, da = m["a"], d["a"]
        (r, k), c = shapes["a"], shapes["b"][1]
        zero = Fraction(0)
        odd = list(range(1, k, 2))
        results = {
            "data": (a, da),
            "mul": (a * m["b"], dense_product(da, d["b"], c)),
            "add": (a + m["same"], tuple(
                tuple(x + y for x, y in zip(u, v))
                for u, v in zip(da, d["same"]))),
            "sub": (a - m["same"], tuple(
                tuple(x - y for x, y in zip(u, v))
                for u, v in zip(da, d["same"]))),
            "neg": (-a, tuple(tuple(-x for x in u) for u in da)),
            "scale": (a.scale(scalar), tuple(
                tuple(Fraction(scalar) * x for x in u) for u in da)),
            "transpose": (a.transpose(), dense_transpose(da, k)),
            "hstack": (a.hstack(m["right"]),
                       tuple(u + v for u, v in zip(da, d["right"]))),
            "vstack": (a.vstack(m["below"]), da + d["below"]),
            "block": (block_matrix([[a, m["right"]],
                                    [m["below"], m["corner"]]]),
                      tuple(u + v for u, v in zip(da, d["right"]))
                      + tuple(u + v for u, v in zip(d["below"],
                                                    d["corner"]))),
            "identity": (Matrix.identity(k), tuple(
                tuple(Fraction(int(i == j)) for j in range(k))
                for i in range(k))),
            "zeros": (Matrix.zeros(r, k), ((zero,) * k,) * r),
            "diagonal": (Matrix.diagonal(vec), tuple(
                tuple(Fraction(vec[i]) if i == j else zero
                      for j in range(k)) for i in range(k))),
            "from_cols": (Matrix.from_cols(map(to_sparse, da), rows=k),
                          dense_transpose(da, k)),
            # rows reversed, odd columns twice over
            "submatrix": (a.submatrix(range(r)[::-1], odd * 2),
                          tuple(tuple(u[j] for j in odd * 2)
                                for u in da[::-1])),
        }
        for name, (got, want) in results.items():
            assert_sparse_invariants(got)
            assert got.data == want, name
            assert all(type(x) is Fraction for row in got.data for x in row)
            assert got.is_zero() == all(x == 0 for row in want for x in row)
            # equal matrices, however built, are equal and hash equally
            again = Matrix(got.rows, got.cols, want)
            assert got == again and hash(got) == hash(again), name
        assert to_dense(a.apply(to_sparse(vec)), r) == tuple(
            sum((x * Fraction(y) for x, y in zip(u, vec)), zero) for u in da)
        assert all(type(x) is Fraction for _, x in a.apply(to_sparse(vec)))
        columns = [to_dense(v, r) for v in a.columns()]
        assert columns == list(dense_transpose(da, k))
        assert [dense_col(a, j) for j in range(k)] == columns
        assert [dense_row(a, i) for i in range(r)] == list(da)
        assert all(a[i, j] == da[i][j] for i in range(r) for j in range(k))
        assert a.to_lists() == [list(u) for u in da]
        assert (a == m["same"]) == (da == d["same"])
        assert a - a == Matrix.zeros(r, k) and (a - a).is_zero()

    @given(mostly_zero_operands())
    @settings(max_examples=100, deadline=None)
    def test_columns_worked_out_once(self, case):
        """A matrix, built from dense rows or from sparse ones (its
        transpose), keeps the columns it works out: a second read is the
        same object, equal to its dense columns and its transpose's rows;
        reading them changes neither equality nor the hash."""
        shapes, grids, _, _ = case
        for name, grid in grids.items():
            built = Matrix(*shapes[name], grid)
            for m in (built, built.transpose()):
                cols = m.columns()
                assert m.columns() is cols, name
                assert cols == m.transpose().sparse, name
                assert [to_dense(v, m.rows) for v in cols] \
                    == [dense_col(m, j) for j in range(m.cols)], name
                if m.cols:
                    assert dense_cols([dense_col(m, j)
                                       for j in range(m.cols)]) == m, name
                fresh = Matrix(m.rows, m.cols, m.data)
                assert m == fresh and hash(m) == hash(fresh), name

    def test_constructor_checks(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [[1, 0]])
        with pytest.raises(ValueError):
            Matrix(1, 2, [[1, 0, 0]])
        with pytest.raises(ValueError):
            Matrix(-1, 0, [])
        with pytest.raises(TypeError):
            Matrix(1, 2, [[None, 1]])
        with pytest.raises(ValueError):
            Matrix.zeros(1, 2) + Matrix.zeros(2, 1)


# -- the sparse-row elimination against the dense one it replaced -----------


def dense_rref(m: Matrix):
    """Reference: the dense Gauss-Jordan ``rref`` as it was before the
    sparse-row kernel, kept verbatim."""
    F1 = Fraction(1)
    data = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if data[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        pv = data[r][c]
        if pv != 1:
            inv = F1 / pv
            data[r] = [x * inv for x in data[r]]
        for i in range(m.rows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                row_r = data[r]
                data[i] = [a - f * b for a, b in zip(data[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.rows, m.cols, data), tuple(pivots), r


def dense_solve_matrix(m: Matrix, b: Matrix):
    """Reference: ``solve_matrix`` through ``dense_rref``."""
    red, pivots, rk = dense_rref(m.hstack(b))
    if pivots and pivots[-1] >= m.cols:
        return None
    cols = []
    for j in range(b.cols):
        x = [Fraction(0)] * m.cols
        for r, pcol in enumerate(pivots):
            x[pcol] = red.data[r][m.cols + j]
        cols.append(tuple(x))
    return Matrix(m.cols, b.cols, [[x[i] for x in cols]
                                   for i in range(m.cols)])


def _grid(draw, rows, cols, entries):
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


# entries of large height: numerators and denominators up to 2^70, drawn
# independently, so one row mixes denominators
large = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                  st.integers(1, 2 ** 70))
# integers with no unit among them: every pivot is non-unit, some are
# negative, and pivot and entry often share a factor
non_units = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -12])


@st.composite
def elimination_inputs(draw):
    """Matrices of the kinds the kernel meets: dense rationals,
    rank-deficient (rows that are sums of other rows), wide, tall, with
    no rows or no columns, sparse Kronecker systems
    (I_p x A) + (B^T x I_a) like the ones ``homotopy_solve`` builds,
    entries of large height, and integers with non-unit pivots."""
    kind = draw(st.sampled_from(["dense", "rank-deficient", "wide", "tall",
                                 "empty", "kronecker", "large-height",
                                 "integer"]))
    sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                       st.sampled_from([Fraction(1), Fraction(-1)]),
                       rationals)
    if kind in ("large-height", "integer"):
        r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        entries = (st.one_of(st.just(0), large) if kind == "large-height"
                   else non_units)
        rows = _grid(draw, r, c, entries)
        if draw(st.booleans()):
            # a combination of two rows, so the rank drops
            i, j = (draw(st.integers(0, r - 1)) for _ in range(2))
            x, y = draw(entries), draw(entries)
            rows.append([x * u + y * v for u, v in zip(rows[i], rows[j])])
        return Matrix(len(rows), c, rows)
    if kind == "empty":
        n = draw(st.integers(0, 6))
        return draw(st.sampled_from([Matrix.zeros(0, n), Matrix.zeros(n, 0)]))
    if kind == "kronecker":
        a, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        A = _grid(draw, a, a, sparse)
        B = _grid(draw, p, p, sparse)
        # vec(A X + X B) for X of shape a x p, X stored column by column
        rows = [[(A[i][k] if j == l else 0) + (B[l][j] if i == k else 0)
                 for l in range(p) for k in range(a)]
                for j in range(p) for i in range(a)]
        return Matrix(a * p, a * p, rows)
    r, c = {"dense": (draw(st.integers(1, 6)), draw(st.integers(1, 6))),
            "rank-deficient": (draw(st.integers(1, 4)),
                               draw(st.integers(1, 7))),
            "wide": (draw(st.integers(1, 3)), draw(st.integers(6, 12))),
            "tall": (draw(st.integers(6, 12)), draw(st.integers(1, 3)))}[kind]
    rows = _grid(draw, r, c, sparse if draw(st.booleans()) else rationals)
    if kind == "rank-deficient":
        for _ in range(draw(st.integers(1, 4))):
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                  max_size=3))
            rows.append([sum((rows[i][j] for i in picks), Fraction(0))
                         for j in range(c)])
        rows = draw(st.permutations(rows))
    return Matrix(len(rows), c, rows)


class TestRrefAgainstDense:
    @given(elimination_inputs())
    @settings(max_examples=200, deadline=None)
    def test_identical_to_dense(self, m):
        red, pivots, rk = rref(m)
        assert (red, pivots, rk) == dense_rref(m)
        assert_sparse_invariants(red)

    @given(elimination_inputs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_matrix_identical_to_dense(self, m, data):
        k = data.draw(st.integers(0, 2))
        # each column of b is m times a drawn solution (consistent) or
        # drawn freely (often not); "mixed" draws the first one way and
        # the second the other
        kind = data.draw(st.sampled_from(["consistent", "free", "mixed"]))
        cols = []
        for j in range(k):
            if m.cols and (kind == "consistent" or kind == "mixed" and j == 0):
                cols.append(dense_apply(m, data.draw(st.lists(
                    rationals, min_size=m.cols, max_size=m.cols))))
            else:
                cols.append(data.draw(st.lists(rationals, min_size=m.rows,
                                               max_size=m.rows)))
        b = Matrix(m.rows, k, [[c[i] for c in cols] for i in range(m.rows)])
        x = solve_matrix(m, b)
        assert x == dense_solve_matrix(m, b)
        if x is not None:
            assert_sparse_invariants(x)

    def test_solve_matrix_cases(self):
        m = M([[1, 2], [2, 4]])
        # the first column of b is in the image of m, the second is not
        b = M([[1, 1], [2, 0]])
        assert solve_matrix(m, b) is None and dense_solve_matrix(m, b) is None
        # no columns in b, and no rows or no columns in m
        for a in (m, Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(0, 0),
                  M([[1, 2, 3]])):
            for b in (Matrix.zeros(a.rows, 0), Matrix.zeros(a.rows, 2)):
                assert solve_matrix(a, b) == dense_solve_matrix(a, b) \
                    == Matrix.zeros(a.cols, b.cols)
        b = M([[1], [0], [0]])
        assert solve_matrix(Matrix.zeros(3, 0), b) is None \
            and dense_solve_matrix(Matrix.zeros(3, 0), b) is None

    def test_homotopy_sized_system(self):
        # a 72 x 72 Kronecker system with about 5% nonzeros, rank 65
        rng = random.Random(7)
        a, p = 9, 8
        A = [[rng.choice([0] * 8 + [1, -1]) for _ in range(a)]
             for _ in range(a)]
        B = [[rng.choice([0] * 8 + [1, -2]) for _ in range(p)]
             for _ in range(p)]
        rows = [[(A[i][k] if j == l else 0) + (B[l][j] if i == k else 0)
                 for l in range(p) for k in range(a)]
                for j in range(p) for i in range(a)]
        m = Matrix(a * p, a * p, rows)
        assert rref(m) == dense_rref(m)


@st.composite
def large_product_operands(draw):
    """Grids a: r x k and b: k x c of entries of large height or non-unit
    integers; some rows of a hold one +1 or -1 entry, the rows the
    product copies or negates."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.one_of(st.just(0), large, non_units)
    a = _grid(draw, r, k, entries)
    if k:
        for i in draw(st.lists(st.integers(0, r - 1), max_size=r)
                      if r else st.just([])):
            a[i] = [0] * k
            a[i][draw(st.integers(0, k - 1))] = draw(st.sampled_from([1, -1]))
    return (r, k, c), a, _grid(draw, k, c, entries)


class TestLargeHeightProduct:
    @given(large_product_operands())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense(self, case):
        (r, k, c), a, b = case
        prod = Matrix(r, k, a) * Matrix(k, c, b)
        assert_sparse_invariants(prod)
        assert prod.data == dense_product(dense(a), dense(b), c)


# -- sparse vectors against the dense references -----------------------------

vector_entries = st.one_of(st.just(0), st.just(0), non_units, rationals)


@st.composite
def matrix_and_vector(draw):
    """(m, dense vector of length m.cols): m holds zero rows, non-unit
    integers and fractions; the vector is often all zero."""
    r, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = _grid(draw, r, k, vector_entries)
    for i in draw(st.lists(st.integers(0, r - 1), max_size=r)
                  if r else st.just([])):
        rows[i] = [0] * k
    return Matrix(r, k, rows), draw(dense_vectors(k))


def dense_vectors(n):
    return st.one_of(st.just([0] * n),
                     st.lists(vector_entries, min_size=n, max_size=n))


@st.composite
def tables_and_vectors(draw):
    """(two-source table, one-source table, target dimension, v1, v2):
    both tables have cells in degree 0 only, v1 and v2 are dense vectors
    of the two source dimensions."""
    n1, n2, nt = (draw(st.integers(1, 4)) for _ in range(3))
    comp, contr = CompTable(), CompTable()
    for _ in range(draw(st.integers(0, 8))):
        comp.add(0, draw(st.integers(0, n1 - 1)), 0,
                 draw(st.integers(0, n2 - 1)), draw(st.integers(0, nt - 1)),
                 draw(vector_entries))
    for _ in range(draw(st.integers(0, 8))):
        contr.add(0, draw(st.integers(0, n1 - 1)),
                  draw(st.integers(0, nt - 1)), draw(vector_entries))
    return comp, contr, nt, draw(dense_vectors(n1)), draw(dense_vectors(n2))


class TestSparseVectorsAgainstDense:
    """Each vector routine equals the sparse row of its dense reference."""

    @given(matrix_and_vector())
    @settings(max_examples=150, deadline=None)
    def test_apply(self, case):
        m, vec = case
        got = m.apply(to_sparse(vec))
        assert got == to_sparse(dense_apply(m, vec))
        assert all(type(x) is Fraction for _, x in got)

    @given(matrix_and_vector(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_images(self, case, data):
        # zero, unit, non-unit and repeated vectors, or none at all
        m, vec = case
        k = m.cols
        units = [((j, Fraction(c)),) for j in range(k) for c in (1, -1, 3)]
        pool = [(), to_sparse(vec)] + units
        vecs = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        vecs += data.draw(st.lists(dense_vectors(k), max_size=3).map(
            lambda vs: [to_sparse(v) for v in vs]))
        assert m.images(vecs) == [m.apply(v) for v in vecs]
        assert m.images([]) == []

    def test_images_index_out_of_range(self):
        m = M([[1, 2], [3, 4], [5, 6]])
        one = Fraction(1)
        for bad in (((2, one),), ((0, one), (5, one)), ((-1, one),),
                    ((-1, Fraction(2)), (0, one))):
            with pytest.raises(ValueError):
                m.images([((0, one),), bad])
        assert m.images([((1, one),), ((1, one),)]) \
            == [to_sparse((2, 4, 6))] * 2

    @given(tables_and_vectors(), st.integers(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_tables(self, case, d):
        # degree d = 1 holds no cells, so both images are zero there
        comp, contr, nt, v1, v2 = case
        assert comp.apply(0, to_sparse(v1), d, to_sparse(v2)) \
            == to_sparse(dense_table_apply(comp, nt, 0, v1, d, v2))
        assert contr.apply(d, to_sparse(v1)) \
            == to_sparse(dense_table_apply(contr, nt, d, v1))

    @given(spans_and_vector())
    @settings(max_examples=150, deadline=None)
    def test_split(self, case):
        n, vecs, v = case
        sub = Subspace.from_spanning(n, map(to_sparse, vecs))
        coords, residual = dense_split(sub, v)
        assert sub._split(to_sparse(v)) == (to_sparse(coords),
                                            to_sparse(residual))

    @given(matrix_and_vector(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, case, data):
        m, x = case
        # consistent (m times a vector) or drawn right-hand sides
        b = dense_apply(m, x) if data.draw(st.booleans()) \
            else data.draw(dense_vectors(m.rows))
        want = dense_solve(m, b)
        got = solve(m, to_sparse(b))
        assert got == (None if want is None else to_sparse(want))

    def test_zero_vector(self):
        m = M([[2, 0, 3], [0, 0, 0]])
        assert m.apply(()) == ()
        assert Subspace.full(3)._split(()) == ((), ())
        assert solve(m, ()) == ()

    def test_index_past_dimension_rejected(self):
        m = M([[1, 2], [3, 4], [5, 6]])
        sub = Subspace.from_spanning(2, [to_sparse((1, 1))])
        one = Fraction(1)
        for bad in (((2, one),), ((0, one), (5, one)), ((-1, one),)):
            with pytest.raises(ValueError):
                m.apply(bad)
            with pytest.raises(ValueError):
                sub._split(bad)
        for bad in (((3, one),), ((-1, one),)):
            with pytest.raises(ValueError):
                solve(m, bad)
        # the last index is in range
        assert m.apply(((1, one),)) == to_sparse((2, 4, 6))
        assert solve(m, ((2, one),)) is None


# -- the one structure-map table against the dense reference ----------------


def _table_args(degrees, items):
    """``d1, x1, d2, x2, ...``: the arguments of a table's methods."""
    return [x for pair in zip(degrees, items) for x in pair]


@st.composite
def structure_tables(draw):
    """(table, its cells worked out by hand, source dimensions, target
    dimension): a CompTable of one source (a contraction) or two (a
    composition) filled by adds in degrees 0 and 1.  A last add cancels
    one drawn entry to zero, and sometimes every entry of degrees
    (1, ...) is cancelled, which leaves that degree key an empty block."""
    n = draw(st.sampled_from([1, 2]))
    dims = [draw(st.integers(1, 3)) for _ in range(n)]
    nt = draw(st.integers(1, 3))
    table, want = CompTable(), {}

    def add(degrees, indices, row, coeff):
        table.add(*_table_args(degrees, indices), row, Fraction(coeff))
        cell = want.setdefault((degrees, indices), {})
        cell[row] = cell.get(row, 0) + Fraction(coeff)

    adds = draw(st.lists(st.tuples(
        st.tuples(*(st.integers(0, 1) for _ in dims)),
        st.tuples(*(st.integers(0, d - 1) for d in dims)),
        st.integers(0, nt - 1), vector_entries), max_size=10))
    for entry in adds:
        add(*entry)
    if adds:
        degrees, indices, row, _ = draw(st.sampled_from(adds))
        add(degrees, indices, row, -want[degrees, indices][row])
    if draw(st.booleans()):
        for (degrees, indices), cell in list(want.items()):
            if degrees == (1,) * n:
                for row, coeff in list(cell.items()):
                    add(degrees, indices, row, -coeff)
    want = {key: {row: c for row, c in cell.items() if c}
            for key, cell in want.items()}
    return table, want, dims, nt


class TestOneStructureTable:
    """``CompTable`` with one source and with two: ``image`` gives the
    cells the adds made, ``apply`` equals the dense reference, and
    degrees with an empty block or none at all map to zero."""

    @given(structure_tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_dense(self, case, data):
        table, want, dims, nt = case
        # degree 2 has no key in the table
        for degrees in itertools.product(range(3), repeat=len(dims)):
            for indices in itertools.product(*map(range, dims)):
                assert table.image(*_table_args(degrees, indices)) \
                    == want.get((degrees, indices), {})
            vectors = [data.draw(dense_vectors(d)) for d in dims]
            got = table.apply(*_table_args(degrees, map(to_sparse, vectors)))
            assert got == to_sparse(dense_table_apply(
                table, nt, *_table_args(degrees, vectors)))
            assert_sparse_row(got, nt)
        assert table.is_zero() == (not any(want.values()))

    @pytest.mark.parametrize("entry", [(1, 0), (1, 0, 0, 1)],
                             ids=["one-source", "two-sources"])
    def test_cancelled_cell_leaves_an_empty_block(self, entry):
        table = CompTable()
        table.add(*entry, 0, Fraction(2))
        table.add(*entry, 0, Fraction(-2))
        degrees = entry[::2]
        assert table.entries == {degrees: {}}
        assert table.is_zero()
        assert table.image(*entry) == {}
        units = [((k, Fraction(1)),) for k in entry[1::2]]
        assert table.apply(*_table_args(degrees, units)) == ()
        assert table.apply(*_table_args([0] * len(units), units)) == ()


# -- the kernel from one elimination of the reversed columns ----------------


@st.composite
def kernel_inputs(draw):
    """Matrices for ``kernel``: those of ``elimination_inputs``, zero ones
    (with or without rows or columns), ones of full row or full column
    rank (an echelon form mixed by an invertible lower triangular
    matrix, transposed or not), and single rows of up to 30 entries, many
    of them zero; entries are non-integer rationals wherever drawn."""
    kind = draw(st.sampled_from(["elimination", "zero", "full-rank", "row"]))
    if kind == "elimination":
        return draw(elimination_inputs())
    if kind == "zero":
        return Matrix.zeros(draw(st.integers(0, 5)), draw(st.integers(0, 8)))
    if kind == "row":
        n = draw(st.integers(1, 30))
        return Matrix(1, n, [draw(st.lists(
            st.one_of(st.just(0), st.just(0), rationals), min_size=n,
            max_size=n))])
    r = draw(st.integers(1, 6))
    c = draw(st.integers(r, 8))
    pivots = sorted(draw(st.permutations(range(c)))[:r])
    echelon = [[Fraction(j == p) if j <= p else draw(rationals)
                for j in range(c)] for p in pivots]
    nonzero = rationals.filter(bool)
    lower = [[draw(nonzero) if j == i else draw(rationals) if j < i else 0
              for j in range(r)] for i in range(r)]
    m = M(lower) * Matrix(r, c, echelon)
    return m.transpose() if draw(st.booleans()) else m


class TestKernelAgainstColumnOrder:
    """``kernel`` reads its basis off one rref of the reversed columns;
    it equals the column-order route that eliminates its null vectors a
    second time (``helpers.column_order_kernel``), entry for entry."""

    @given(kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_identical_to_column_order(self, m):
        got = kernel(m)
        assert_same_kernel(got, column_order_kernel(m))
        assert got.dim + rank(m) == m.cols
        assert all(not m.apply(vec) for vec in got._entries)

    def test_cases(self):
        # no rows: every unit vector; no columns: the zero space of Q^0
        assert_same_kernel(kernel(Matrix.zeros(0, 3)), Subspace.full(3))
        assert_same_kernel(kernel(Matrix.zeros(2, 0)), Subspace.zero(0))
        assert_same_kernel(kernel(Matrix.identity(3)), Subspace.zero(3))
        # one row: its last nonzero column is the one pivot of the
        # reversed elimination, and each other column leads one vector
        ker = kernel(M([[0, 2, Fraction(1, 2), 0, -3]]))
        assert ker.pivots == (0, 1, 2, 3)
        assert ker._entries == (((0, Fraction(1)),),
                                ((1, Fraction(1)), (4, Fraction(2, 3))),
                                ((2, Fraction(1)), (4, Fraction(1, 6))),
                                ((3, Fraction(1)),))


# -- one elimination for a solution and the kernel ---------------------------


@st.composite
def level_systems(draw):
    """(m, b): m may have no rows; b is m times a drawn vector (a
    consistent system) or drawn freely (often inconsistent)."""
    r, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    m = Matrix(r, k, _grid(draw, r, k, vector_entries))
    if draw(st.booleans()):
        b = m.apply(to_sparse(draw(st.lists(rationals, min_size=k,
                                            max_size=k))))
    else:
        b = to_sparse(draw(dense_vectors(r)))
    return m, b


class TestSolveWithKernel:
    @given(level_systems())
    @settings(max_examples=200, deadline=None)
    def test_equals_solve_and_kernel(self, case):
        m, b = case
        assert solve_with_kernel(m, b) == (solve(m, b), kernel(m))

    def test_cases(self):
        # no rows: the zero solution and the whole space
        assert solve_with_kernel(Matrix.zeros(0, 3), ()) \
            == ((), Subspace.full(3))
        m = M([[1, 2], [2, 4]])
        one = Fraction(1)
        assert solve_with_kernel(m, ((0, one), (1, Fraction(2)))) \
            == (((0, one),), kernel(m))
        sol, ker = solve_with_kernel(m, ((0, one),))
        assert sol is None and ker == kernel(m) and ker.dim == 1
        # the columns of a two-column b, the first in the image of m and
        # the second not, one at a time
        first, second = M([[1, 1], [2, 0]]).columns()
        assert solve_with_kernel(m, first) == (((0, one),), kernel(m))
        assert solve_with_kernel(m, second) == (None, kernel(m))
        # no columns, or no rows and no columns
        for a, b, want in ((Matrix.zeros(2, 0), (), ()),
                           (Matrix.zeros(2, 0), ((1, one),), None),
                           (Matrix.zeros(0, 0), (), ())):
            assert solve_with_kernel(a, b) == fraction_solve_with_kernel(a, b) \
                == (want, Subspace.zero(0))

    @given(level_systems())
    @settings(max_examples=200, deadline=None)
    def test_equals_fraction_route(self, case):
        m, b = case
        assert solve_with_kernel(m, b) == fraction_solve_with_kernel(m, b)

    def test_captured_systems_equal_fraction_route(self, monkeypatch):
        """The level systems of formality witnesses (``minimal``'s solver)
        and every kernel taken on the way (homology, weight splits): the
        null space from the integer rows is the Fraction route's basis,
        entry for entry, and each kernel is the column-order route's."""
        levels, kernels = [], []

        def level(m, b):
            levels.append((m, b))
            return solve_with_kernel(m, b)

        def recorded_kernel(m):
            kernels.append((m, ()))
            return kernel(m)
        monkeypatch.setattr(minimal_module, "solve_with_kernel", level)
        for module in (chain_module, weight_module, free_module,
                       qlinalg_module):
            monkeypatch.setattr(module, "kernel", recorded_kernel)
        for p, window in ((hypercommutative(4), 4), (moduli_quotient(2), 2)):
            assert formality_check(p, window, seed=3).verify() is True
        monkeypatch.undo()
        assert len(levels) == 8 and len(kernels) > 300
        assert sum(m.cols > 100 for m, _ in levels) == 2
        assert sum(kernel(m).dim > 0 for m, _ in kernels) > 100
        for m, b in levels + kernels:
            got = solve_with_kernel(m, b)
            want = fraction_solve_with_kernel(m, b)
            assert got == want
            assert got[1].basis.sparse == want[1].basis.sparse
            assert got[1].pivots == want[1].pivots
        for m, _ in kernels:
            assert_same_kernel(kernel(m), column_order_kernel(m))


# -- integer kernels against their Fraction references -----------------------

mixed = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    bool)


@st.composite
def sparse_vectors(draw, n):
    """A sparse vector of length n with mixed denominators."""
    keys = draw(st.sets(st.integers(0, n - 1)))
    return tuple((j, draw(mixed)) for j in sorted(keys))


class TestIntegerKernels:
    """Integer accumulation over a common denominator gives the rows of
    one Fraction per product and sum (the Fraction references in
    helpers): mixed denominators, negative coefficients, exact
    cancellation."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_combine(self, data):
        n = data.draw(st.integers(1, 6))
        b = data.draw(sparse_vectors(n))
        c = data.draw(mixed)
        # a cancels c * b at some (or all) of its entries
        cancel = data.draw(st.sets(st.sampled_from([j for j, _ in b]))
                           if b else st.just(set()))
        a = dict(data.draw(sparse_vectors(n)))
        a.update((j, -c * x) for j, x in b if j in cancel)
        a = tuple(sorted(a.items()))
        got = _combine(a, b, c)
        assert got == fraction_combine(a, b, c)
        assert_sparse_row(got, n)
        assert not any(j in cancel for j, _ in got)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_apply(self, data):
        r, k = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
        rows = [data.draw(sparse_vectors(k)) for _ in range(r)]
        vec = data.draw(sparse_vectors(k))
        if vec and r:
            # a row orthogonal to vec: its entry of the image cancels
            (j0, x0), rest = vec[0], vec[1:]
            row = dict(data.draw(sparse_vectors(k)))
            row.pop(j0, None)
            dot = sum((row[j] * x for j, x in rest if j in row), Fraction(0))
            if dot:
                row[j0] = -dot / x0
            rows[0] = tuple(sorted(row.items()))
        m = Matrix._trusted(r, k, tuple(rows))
        got = m.apply(vec)
        assert got == to_sparse(dense_apply(m, to_dense(vec, k)))
        assert_sparse_row(got, r)

    @given(spans_and_vector())
    @settings(max_examples=200, deadline=None)
    def test_split(self, case):
        n, vecs, v = case
        sub = Subspace.from_spanning(n, map(to_sparse, vecs))
        vec = to_sparse(v)
        coords, residual = sub._split(vec)
        want = dense_split(sub, v)
        assert (coords, residual) == (to_sparse(want[0]), to_sparse(want[1]))
        assert_sparse_row(residual, n)
        assert not any(j in sub.pivots for j, _ in residual)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_comp_apply(self, data):
        n1, n2, nt = (data.draw(st.integers(1, 4)) for _ in range(3))
        table = CompTable()
        for _ in range(data.draw(st.integers(0, 10))):
            table.add(0, data.draw(st.integers(0, n1 - 1)), 0,
                      data.draw(st.integers(0, n2 - 1)),
                      data.draw(st.integers(0, nt - 1)), data.draw(mixed))
        v1, v2 = data.draw(sparse_vectors(n1)), data.draw(sparse_vectors(n2))
        if len(v1) > 1 and v2 and data.draw(st.booleans()):
            # two pairs with opposite images at row 0: it cancels
            (k1, a1), (k1b, b1) = v1[:2]
            k2, c2 = v2[0]
            table.entries.get((0, 0), {}).pop((k1, k2), None)
            table.entries.get((0, 0), {}).pop((k1b, k2), None)
            table.add(0, k1, 0, k2, 0, 1 / a1)
            table.add(0, k1b, 0, k2, 0, -1 / b1)
        got = table.apply(0, v1, 0, v2)
        assert got == to_sparse(dense_table_apply(
            table, nt, 0, to_dense(v1, n1), 0, to_dense(v2, n2)))
        assert_sparse_row(got, nt)
