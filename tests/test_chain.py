import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge import chain, document
from operad_forge.chain import (
    ChainComplex,
    ChainMap,
    TensorData,
    canonical_truncation,
    check_homotopy,
    homology,
    homology_dims,
    homotopy_solve,
    induced_map,
    is_weak_equivalence,
    mapping_cone,
    shift,
    subcomplex,
    tensor,
)
from operad_forge.qlinalg import (F0, F1, Matrix, image, kernel, solve,
                                  solve_matrix)

from helpers import (
    dense_col,
    direct_sum,
    greedy_homology,
    random_chain_map,
    random_complex,
    reference_homotopy_blocks,
    reference_homotopy_system,
    reorder_map,
    to_dense,
    to_sparse,
)

Q = ChainComplex.concentrated(0, 1)


def two_term(scalar, top=1):
    """0 -> Q -> Q -> 0 with d = multiplication by scalar, top degree `top`."""
    return ChainComplex({top: 1, top - 1: 1},
                        {top: Matrix.from_rows([[scalar]])})


class TestConstruction:
    def test_dd_zero_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex({2: 1, 1: 1, 0: 1},
                         {2: Matrix.from_rows([[1]]), 1: Matrix.from_rows([[1]])})

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex({1: 2, 0: 1}, {1: Matrix.from_rows([[1]])})

    def test_chain_map_commutes(self):
        c = two_term(2)
        with pytest.raises(ValueError):
            ChainMap(c, c, {1: Matrix.from_rows([[1]]),
                            0: Matrix.from_rows([[3]])})


class TestHomology:
    def test_zero_differential(self):
        c = ChainComplex({0: 2, 3: 1})
        assert homology_dims(c) == {0: 2, 3: 1}

    def test_multiplication_by_two_is_acyclic(self):
        # kernel and cokernel of x2 on Q both vanish
        assert homology_dims(two_term(2)) == {}

    def test_cone_of_identity_acyclic(self):
        for seed in range(3):
            c = random_complex(random.Random(seed))
            cone, _, _ = mapping_cone(ChainMap.identity(c))
            assert homology_dims(cone) == {}

    def test_classify(self):
        c = ChainComplex({1: 1, 0: 2}, {1: Matrix.from_rows([[1], [0]])})
        h = homology(c)
        assert h.dims == {0: 1}
        assert h.classify(0, to_sparse((0, 1))) is not None
        # the boundary (1, 0) classifies to zero
        assert all(x == 0
                   for x in to_dense(h.classify(0, to_sparse((1, 0))), 1))


class TestShift:
    def test_shift_zero(self):
        c = two_term(3)
        assert shift(c, 0) == c

    def test_shift_concentrated(self):
        assert shift(Q, 1) == ChainComplex.concentrated(1, 1)

    def test_double_shift_signs(self):
        c = two_term(5)
        assert shift(shift(c, 1), 1) == shift(c, 2)
        assert shift(c, 1).d(2) == Matrix.from_rows([[-5]])


class TestCone:
    def test_cone_of_zero_map(self):
        a = two_term(2, top=1)
        b = ChainComplex({0: 3})
        cone, incl, proj = mapping_cone(ChainMap.zero_map(b, a))
        assert cone.dim(1) == a.dim(1) + b.dim(0)
        assert homology_dims(cone) == {1: 3}  # HA=0, HB[1] in degree 1

    def test_cone_multiplication_by_two(self):
        f = ChainMap(Q, Q, {0: Matrix.from_rows([[2]])})
        cone, _, _ = mapping_cone(f)
        assert homology_dims(cone) == {}

    def test_long_exact_sequence_rank_bookkeeping(self):
        # H(cone) = 0 iff the map is a weak equivalence
        for seed in range(6):
            rng = random.Random(seed)
            src = random_complex(rng)
            f = ChainMap.identity(src) + random_chain_map(rng, src, src)
            cone, _, _ = mapping_cone(f)
            assert is_weak_equivalence(f) == (homology_dims(cone) == {})


def spanned_subcomplex(c, bases):
    """The per-site loop that ``subcomplex`` replaced, kept as reference:
    d is solved only into degrees whose span is present."""
    dims = {d: m.cols for d, m in bases.items() if m.cols}
    diff = {}
    for d in dims:
        if d - 1 in dims:
            sol = solve_matrix(bases[d - 1], c.d(d) * bases[d])
            if sol is None:
                raise AssertionError("not a subcomplex")
            diff[d] = sol
    sub = ChainComplex(dims, diff)
    return sub, ChainMap(sub, c, {d: bases[d] for d in dims})


def truncated_by_hand(c, n):
    """The hand-built canonical truncation ``subcomplex`` replaced:
    d copied above n + 1, solved into the cycles at n + 1."""
    z = kernel(c.d(n))
    dims = {i: d for i, d in c.dims.items() if i > n}
    if z.dim:
        dims[n] = z.dim
    blocks = {i: Matrix.identity(d) if i > n else z.basis
              for i, d in dims.items()}
    diff = {}
    for i in dims:
        if i - 1 == n:
            diff[i] = solve_matrix(z.basis, c.d(i) * blocks[i])
        elif i - 1 in dims:
            diff[i] = c.d(i)
    trunc = ChainComplex(dims, diff)
    return trunc, ChainMap(trunc, c, blocks)


class TestSubcomplex:
    def test_images_of_chain_maps_match_reference(self):
        nonzero = 0
        for seed in range(40):
            rng = random.Random(seed)
            c = random_complex(rng, degree_span=(0, 3), max_cells=5)
            if seed % 2:
                f = ChainMap.identity(c) + random_chain_map(rng, c, c)
            else:
                src = random_complex(rng, degree_span=(0, 3), max_cells=5)
                f = random_chain_map(rng, src, c)
            bases = {d: image(f.block(d)).basis for d in c.dims}
            sub, incl = subcomplex(c, bases)
            ref, ref_incl = spanned_subcomplex(c, bases)
            assert sub == ref
            assert incl.blocks == ref_incl.blocks
            nonzero += bool(sub.diff)
        assert nonzero >= 10

    def test_truncations_match_reference(self):
        for seed in range(20):
            c = random_complex(random.Random(seed), degree_span=(0, 3),
                               max_cells=5)
            for n in range(-1, 5):
                trunc, incl = canonical_truncation(c, n)
                ref, ref_incl = truncated_by_hand(c, n)
                assert trunc == ref
                assert incl.blocks == ref_incl.blocks

    def test_d_leaving_into_present_degree(self):
        c = ChainComplex({1: 1, 0: 2}, {1: Matrix.from_rows([[1], [0]])})
        with pytest.raises(AssertionError, match="not d-closed"):
            subcomplex(c, {1: Matrix.identity(1),
                           0: Matrix.from_rows([[0], [1]])})

    def test_d_leaving_into_absent_degree(self):
        c = two_term(1)
        with pytest.raises(AssertionError, match="not d-closed"):
            subcomplex(c, {1: Matrix.identity(1), 0: Matrix.zeros(1, 0)})


class TestTruncation:
    def test_zero_differential(self):
        c = ChainComplex({0: 1, 1: 2, 2: 1})
        t, incl = canonical_truncation(c, 1)
        assert t.dims == {1: 2, 2: 1}

    def test_truncating_an_iso_kills_it(self):
        t, _ = canonical_truncation(two_term(1), 1)
        assert t.is_zero()

    def test_below_support(self):
        c = two_term(7)
        t, incl = canonical_truncation(c, -5)
        assert t.dims == c.dims
        assert is_weak_equivalence(incl)

    def test_homology_interface(self):
        for seed in range(4):
            c = random_complex(random.Random(seed), degree_span=(0, 3))
            n = 1
            t, incl = canonical_truncation(c, n)
            hd_src = homology_dims(t)
            hd_dst = homology_dims(c)
            assert hd_src == {i: d for i, d in hd_dst.items() if i >= n}
            ind = induced_map(incl)
            for i, m in ind.items():
                if i >= n:
                    assert m.rows == m.cols


class TestTensor:
    def test_unit(self):
        c = two_term(2)
        assert tensor(c, Q).dims == c.dims
        assert tensor(Q, c).dims == c.dims

    def test_square_dims(self):
        c = ChainComplex({0: 1, 1: 1})
        t = tensor(c, c)
        assert t.dims == {0: 1, 1: 2, 2: 1}

    def test_kunneth_on_random_complexes(self):
        for seed in range(5):
            rng = random.Random(seed)
            x = random_complex(rng, degree_span=(0, 2))
            y = random_complex(rng, degree_span=(0, 2))
            hx, hy = homology_dims(x), homology_dims(y)
            expected = {}
            for i, a in hx.items():
                for j, b in hy.items():
                    expected[i + j] = expected.get(i + j, 0) + a * b
            expected = {k: v for k, v in expected.items() if v}
            assert homology_dims(tensor(x, y)) == expected

    def test_symmetry_is_chain_map_and_involution(self):
        rng = random.Random(11)
        x = random_complex(rng, degree_span=(0, 2))
        y = random_complex(rng, degree_span=(0, 2))
        _, s = reorder_map(TensorData((x, y)), (1, 0))
        _, s2 = reorder_map(TensorData((y, x)), (1, 0))
        assert s2.compose(s) == ChainMap.identity(s.src)

    def test_leibniz_differential(self):
        c = two_term(3)
        td = TensorData((c, c))
        # d(e1 (x) e1) = d e1 (x) e1 - e1 (x) d e1 with deg e1 = 1
        col = td.index(((1, 0), (1, 0)))[1]
        d = td.complex.d(2)
        vec = dense_col(d, col)
        basis1 = td.basis(1)
        assert vec[basis1.index(((0, 0), (1, 0)))] == 3
        assert vec[basis1.index(((1, 0), (0, 0)))] == -3


class TestDirectSum:
    def test_sum_homology(self):
        a = two_term(2)
        b = ChainComplex({0: 1})
        total, incls, projs = direct_sum([a, b])
        assert homology_dims(total) == {0: 1}
        assert projs[1].compose(incls[1]) == ChainMap.identity(b)


class TestHomotopySolve:
    def test_equal_maps(self):
        c = two_term(2)
        f = ChainMap.identity(c)
        h = homotopy_solve(f, f)
        # the system has unknowns and a zero target: its particular
        # solution is h = 0, every block dropped
        assert h == {}
        assert check_homotopy(f, f, h)

    def test_no_unknowns(self):
        # a complex in one degree leaves h no entries: equal maps give
        # the empty homotopy, different ones none
        c = ChainComplex({0: 1})
        one = ChainMap.identity(c)
        assert homotopy_solve(one, one) == {}
        two = ChainMap(c, c, {0: Matrix.identity(1).scale(2)})
        assert homotopy_solve(one, two) is None

    def test_null_homotopic(self):
        for seed in range(5):
            rng = random.Random(seed)
            src = random_complex(rng)
            f = random_chain_map(rng, src, src)  # built as dh + hd
            h = homotopy_solve(f, ChainMap.zero_map(src, src))
            assert h is not None
            assert check_homotopy(f, ChainMap.zero_map(src, src), h)

    def test_different_homology_no_solution(self):
        c = ChainComplex({0: 1})
        f = ChainMap.identity(c)
        g = ChainMap.zero_map(c, c)
        assert homotopy_solve(f, g) is None

    def test_homotopic_iff_equal_on_homology(self):
        # over a field, f ~ g exactly when Hf = Hg
        for seed in range(6):
            rng = random.Random(seed + 20)
            src = random_complex(rng)
            f = random_chain_map(rng, src, src)
            g = random_chain_map(rng, src, src)
            hf = induced_map(f)
            hg = induced_map(g)
            same = all(hf[i] == hg[i] for i in hf)
            assert (homotopy_solve(f, g) is not None) == same


# -- homology from one elimination against the greedy insert loops ------------


@st.composite
def complexes(draw):
    """Conjugated spheres and disks; three-term complexes whose
    differentials are products of thin factors, so often rank-deficient;
    and zero-width ones, with zero differentials or empty degrees."""
    kind = draw(st.sampled_from(("cells", "thin", "zero-width")))
    if kind == "cells":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        return random_complex(rng, (0, draw(st.integers(1, 3))),
                              draw(st.integers(1, 5)))
    if kind == "zero-width":
        return ChainComplex(draw(st.dictionaries(
            st.integers(-1, 2), st.integers(0, 3), max_size=3)))
    entries = st.integers(-2, 2)

    def grid(rows, cols):
        return Matrix(rows, cols, draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    a, b, c, r = (draw(st.integers(0, 4)) for _ in range(4))
    d2 = grid(b, r) * grid(r, c)
    # d1 = W A, the rows of A spanning the vectors that kill im d2
    ann = kernel(d2.transpose()).basis.transpose()
    d1 = grid(a, ann.rows) * ann
    return ChainComplex({0: a, 1: b, 2: c}, {1: d1, 2: d2})


@st.composite
def chain_map_pairs(draw):
    """(f, g) between complexes from ``complexes()``: maps d h + h d for
    random h with entries in {-1, 0, 1} (null-homotopic, often
    rank-deficient), the zero map and, on one complex, the identity, its
    double and the identity plus a null-homotopic map, so that some
    pairs are homotopic and some are not."""
    src = draw(complexes())
    dst = src if draw(st.booleans()) else draw(complexes())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kinds = ("null", "zero") + (("identity", "double", "identity+null")
                                if dst is src else ())

    def one():
        kind = draw(st.sampled_from(kinds))
        null = random_chain_map(rng, src, dst, bound=1)
        if kind == "null":
            return null
        if kind == "zero":
            return ChainMap.zero_map(src, dst)
        scale = 2 if kind == "double" else 1
        return ChainMap(src, src, {
            i: Matrix.identity(n).scale(scale)
            + (null.block(i) if kind == "identity+null" else
               Matrix.zeros(n, n)) for i, n in src.dims.items()})

    return one(), one()


class TestHomotopySystem:
    """homotopy_solve writes its rows through qlinalg.MatrixEquations;
    the system, its right-hand side and the homotopy must be those of
    the hand-built Kronecker rows and their unflatten readback."""

    @given(chain_map_pairs())
    @settings(max_examples=150, deadline=None)
    def test_same_system_as_hand_built_rows(self, pair):
        f, g = pair
        with mock.patch.object(chain, "solve", wraps=chain.solve) as spy:
            h = homotopy_solve(f, g)
        system, rhs, hoffsets = reference_homotopy_system(f, g)
        (call,) = spy.call_args_list
        assert call.args == (system, rhs)
        sol = solve(system, rhs)
        if sol is None:
            assert h is None
        else:
            assert h == reference_homotopy_blocks(sol, hoffsets, f.src, f.dst)
            assert check_homotopy(f, g, h)


def _fixture_components():
    """Every component complex of every golden fixture."""
    folder = os.path.join(os.path.dirname(__file__), "fixtures")
    out = []
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".json"):
            continue
        obj = document.load(os.path.join(folder, name))[0]
        module = getattr(obj, "module", obj)
        out += [pytest.param(ga.complex, id=f"{name}-{key}")
                for key, ga in sorted(module.components.items())]
    return out


def _assert_matches_greedy(c):
    rec = homology(c)
    reps, projections = greedy_homology(c)
    assert rec.representatives == reps
    assert set(rec.classifiers) == set(projections)
    for d in c.support:
        z = kernel(c.d(d))
        k = rec.classifier(d)
        assert k * z.basis == projections.get(d, Matrix.zeros(0, z.dim))
        off_pivots = [r for r in range(c.dim(d)) if r not in z.pivots]
        assert k.submatrix(range(k.rows), off_pivots).is_zero()


class TestHomologyAgainstGreedy:
    """Representatives and the projection of cycle coordinates to
    homology are unique, so one elimination must give the insert loops'
    bytes; the classifier K carries that projection on Z's pivots and is
    zero off them."""

    @given(complexes())
    @settings(max_examples=150, deadline=None)
    def test_random_complexes(self, c):
        _assert_matches_greedy(c)

    @pytest.mark.parametrize("c", _fixture_components())
    def test_golden_fixture_components(self, c):
        _assert_matches_greedy(c)


class TestHomologyOwnedByComplex:
    """``c.homology`` is computed by ``homology(c)`` on first read and
    kept: the same record on every read, equal to a fresh one."""

    @given(complexes())
    @settings(max_examples=100, deadline=None)
    def test_record_kept_and_fresh(self, c):
        rec = c.homology
        assert c.homology is rec and rec.complex is c
        fresh = homology(c)
        assert fresh is not rec
        assert rec.dims == fresh.dims
        assert rec.representatives == fresh.representatives
        assert rec.classifiers == fresh.classifiers

    def test_computed_on_first_read_only(self):
        c = ChainComplex({0: 2, 1: 1}, {1: Matrix.from_rows([[1], [1]])})
        with mock.patch.object(chain, "homology", wraps=chain.homology) as spy:
            assert homology_dims(c) == {0: 1}
            assert is_weak_equivalence(ChainMap.identity(c))
            assert spy.call_count == 1
