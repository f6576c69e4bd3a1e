import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from operad_forge.chain import (
    ChainComplex,
    ChainMap,
    homology_dims,
    subcomplex,
    tensor,
)
from operad_forge.free import endomorphism_modular_operad, free_operad
from operad_forge.operad import OperadMorphism, weak_equivalence_test
from operad_forge.qlinalg import Matrix
from operad_forge.sigma import GroupAction, SigmaModule
from operad_forge.weight import (
    FormalityWitness,
    PurityError,
    WeightFunction,
    _suboperad_from_components,
    formality_check,
    formality_witness_from_pure,
    grading_automorphism,
    purity_check,
    t_functor,
    weight_decompose,
)

from fixtures_ops import commutative_style_operad
from helpers import (
    dense_cols,
    direct_sum,
    leibniz_containment,
    leibniz_holds,
    operad_grading_automorphism,
)
from test_minimal import fixture_document, massey_minimal_operad

W2 = WeightFunction(Fraction(2))


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWeightFunction:
    def test_rejects_roots_of_unity(self):
        for bad in (0, 1, -1):
            with pytest.raises(ValueError):
                WeightFunction(Fraction(bad))

    def test_weight_of(self):
        # eigenvalue alpha^n lands in weight n; 3 and 0 are no powers of 2
        c = ChainComplex({0: 5})
        f = ChainMap(c, c, {0: Matrix.diagonal([8, Fraction(1, 4), 1, 3, 0])})
        d = weight_decompose(c, f, W2)
        assert d.weights() == [-2, 0, 3]
        assert d.pure[3][0] == dense_cols([(1, 0, 0, 0, 0)])
        assert d.pure[-2][0] == dense_cols([(0, 1, 0, 0, 0)])
        assert d.pure[0][0] == dense_cols([(0, 0, 1, 0, 0)])
        assert d.residual[0] == dense_cols([(0, 0, 0, 1, 0),
                                            (0, 0, 0, 0, 1)])

    def test_fractional_base(self):
        w = WeightFunction(Fraction(3, 2))
        c = ChainComplex({0: 1})
        f = ChainMap(c, c, {0: Matrix.diagonal([Fraction(9, 4)])})
        d = weight_decompose(c, f, w)
        assert d.weights() == [2] and d.pure_dim(2, 0) == 1


class TestWeightDecompose:
    def test_grading_automorphism_splits_by_degree(self):
        c = ChainComplex({0: 2, 1: 1, 3: 1})
        f = grading_automorphism(c, 2)
        d = weight_decompose(c, f, W2)
        assert d.weights() == [0, 1, 3]
        assert d.pure_dim(0, 0) == 2
        assert d.pure_dim(1, 1) == 1
        assert d.pure_dim(3, 3) == 1
        assert all(d.residual_dim(i) == 0 for i in c.dims)

    def test_identity_everything_weight_zero(self):
        c = ChainComplex({0: 2, 2: 1})
        f = ChainMap.identity(c)
        d = weight_decompose(c, f, W2)
        assert d.weights() == [0]
        assert d.pure_dim(0, 0) == 2 and d.pure_dim(0, 2) == 1

    def test_eigenvalue_three_lands_in_residual(self):
        c = ChainComplex({0: 2})
        f = ChainMap(c, c, {0: Matrix.diagonal([3, 2])})
        d = weight_decompose(c, f, W2)
        assert d.residual_dim(0) == 1
        assert d.pure_dim(1, 0) == 1

    def test_large_constant_term_splits_at_once(self):
        # H_6(f) = 2^6 id on Q^16: the characteristic polynomial's
        # constant term is 2^96, far past any divisor search
        c = ChainComplex({6: 16})
        f = grading_automorphism(c, 2)
        with time_limit(10):
            cert = purity_check(c, f, W2)
            d = weight_decompose(c, f, W2)
        assert cert.homology_eigenvalues == {None: {6: [64]}}
        assert d.weights() == [6] and d.pure_dim(6, 6) == 16
        assert d.residual == {}

    def test_parts_are_subcomplexes(self):
        # nontrivial differential: acyclic pair with compatible weights
        c = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
        f = ChainMap(c, c, {1: Matrix.from_rows([[2]]),
                            0: Matrix.from_rows([[2]])})
        d = weight_decompose(c, f, W2)
        part, incl = d.weight_part(1)
        assert part.dims == {1: 1, 0: 1}
        incl.assert_chain()


class TestPurity:
    def test_grading_automorphism_pure(self):
        com = commutative_style_operad(3)
        phi = operad_grading_automorphism(com, 2)
        cert = purity_check(com, phi, W2)
        assert cert.weight_function is W2

    def test_identity_fails_on_degree_one_homology(self):
        c = ChainComplex({1: 1})
        f = ChainMap.identity(c)
        with pytest.raises(PurityError) as err:
            purity_check(c, f, W2)
        assert "degree 1" in str(err.value)

    def test_failure_gives_characteristic_polynomial(self):
        c = ChainComplex({1: 1})
        f = ChainMap(c, c, {1: Matrix.from_rows([[3]])})
        with pytest.raises(PurityError) as err:
            purity_check(c, f, W2)
        assert err.value.failures == [
            "degree 1: H_1(f) has characteristic polynomial t - 3, "
            "not (t - 2)^1"]

    def test_failure_names_irrational_factor(self):
        c = ChainComplex({0: 2})
        f = ChainMap(c, c, {0: Matrix.from_rows([[0, 2], [1, 0]])})
        with pytest.raises(PurityError) as err:
            purity_check(c, f, W2)
        assert "t^2 - 2," in str(err.value)

    def test_acyclic_mixing_is_ignored(self):
        # mixing weights across an acyclic summand is invisible to H:
        # f has eigenvalue 3 on the exact pair, and mixes the surviving
        # class into the boundary line, but H(f) is still the identity
        c = ChainComplex({1: 1, 0: 2}, {1: Matrix.from_rows([[1], [0]])})
        f = ChainMap(c, c, {1: Matrix.from_rows([[3]]),
                            0: Matrix.from_rows([[3, 7], [0, 1]])})
        cert = purity_check(c, f, W2)
        assert cert is not None


class TestTFunctor:
    def test_zero_differential_identity(self):
        c = ChainComplex({0: 2, 1: 1})
        f = grading_automorphism(c, 2)
        res = t_functor(c, f, W2)
        assert res.complex.dims == c.dims
        # projection is the identity on homology
        assert homology_dims(res.complex) == homology_dims(c)
        res.projection.assert_chain()

    def test_acyclic_truncates_to_zero(self):
        c = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
        f = ChainMap(c, c, {1: Matrix.from_rows([[2]]),
                            0: Matrix.from_rows([[2]])})
        res = t_functor(c, f, W2)
        assert res.complex.is_zero()

    def test_direct_sum_additivity(self):
        a = ChainComplex({0: 1, 1: 1})
        b = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
        total, _, _ = direct_sum([a, b])
        fa = grading_automorphism(a, 2)
        fb = ChainMap(b, b, {1: Matrix.from_rows([[2]]),
                             0: Matrix.from_rows([[2]])})
        blocks = {}
        for i in total.dims:
            na, nb = a.dim(i), b.dim(i)
            grid = [[Fraction(0)] * (na + nb) for _ in range(na + nb)]
            for r in range(na):
                for c2 in range(na):
                    grid[r][c2] = fa.block(i).data[r][c2]
            for r in range(nb):
                for c2 in range(nb):
                    grid[na + r][na + c2] = fb.block(i).data[r][c2]
            blocks[i] = Matrix(na + nb, na + nb, grid)
        ftot = ChainMap(total, total, blocks)
        res_tot = t_functor(total, ftot, W2)
        res_a = t_functor(a, fa, W2)
        res_b = t_functor(b, fb, W2)
        for i in set(res_tot.complex.dims) | set(res_a.complex.dims):
            assert res_tot.complex.dim(i) == (res_a.complex.dim(i)
                                              + res_b.complex.dim(i))

    def test_idempotent_where_literally_true(self):
        c = ChainComplex({0: 2, 1: 1})
        f = grading_automorphism(c, 2)
        res = t_functor(c, f, W2)
        # induced endomorphism on TP in the ambient basis
        res2 = t_functor(res.complex, grading_automorphism(res.complex, 2), W2)
        assert res2.complex.dims == res.complex.dims

    def test_arrows_are_weak_equivalences(self):
        rng = random.Random(3)
        from helpers import random_complex
        from operad_forge.chain import is_weak_equivalence
        c = random_complex(rng, degree_span=(0, 3))
        # pure endomorphism: multiply degree i by 2^i; only a chain map
        # when it commutes with d, so act by 2^i on homology-split parts.
        # use the grading automorphism trick on a zero-differential complex
        # plus an acyclic pure piece
        f_blocks = {}
        # build f = 2^deg id on a zero-d complex instead
        c = ChainComplex({0: 2, 2: 1})
        f = grading_automorphism(c, 2)
        res = t_functor(c, f, W2)
        assert is_weak_equivalence(res.inclusion)
        hproj = res.projection
        assert homology_dims(hproj.dst) == homology_dims(c)

    def test_rejects_non_pure(self):
        c = ChainComplex({1: 1})
        with pytest.raises(PurityError):
            t_functor(c, ChainMap.identity(c), W2)


class TestLeibnizContainment:
    def test_on_pure_pairs(self):
        a = ChainComplex({0: 1, 1: 1})
        b = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[2]])})
        fa = grading_automorphism(a, 2)
        fb = ChainMap(b, b, {1: Matrix.from_rows([[2]]),
                             0: Matrix.from_rows([[2]])})
        assert leibniz_containment(a, fa, a, fa, W2)
        assert leibniz_containment(a, fa, b, fb, W2)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", ["commutative_window3.json",
                                      "endomorphism_dim1.json"])
    def test_on_golden_witnesses(self, name, seed):
        # the weight truncation is monoidal on every pair of model
        # components that a composition joins
        wit = formality_check(fixture_document(name), seed=seed)
        assert wit is not None and wit.verify() is True
        assert leibniz_holds(wit)


class TestFormalityWitness:
    def test_zero_differential_witness(self):
        com = commutative_style_operad(3)
        phi = operad_grading_automorphism(com, 2)
        wit = formality_witness_from_pure(com, phi, W2)
        assert wit.verify()
        # TP = P when the differential vanishes
        for key in com.arities:
            assert wit.t_operad.component(key).dims \
                == com.component(key).dims

    def test_acyclic_summand_shrinks(self):
        from fixtures_ops import one_dim_operad_with_acyclic_component
        op = one_dim_operad_with_acyclic_component()
        # pure endomorphism: grading on homology part, 2^deg on the
        # acyclic tail (degrees 1 and 0 with d identity-like)
        maps = {}
        for key in op.arities:
            comp = op.component(key)
            blocks = {}
            for d in comp.dims:
                blocks[d] = Matrix.identity(comp.dim(d)).scale(
                    Fraction(2) ** d)
            maps[key] = ChainMap(comp, comp, blocks, check=False)
        # fix the arity-2 component: d(e_top) = e_1 requires f(e_1) = 2 e_1
        c2 = op.component(2)
        f2 = ChainMap(c2, c2, {0: Matrix.diagonal([1, 2]),
                               1: Matrix.from_rows([[2]])})
        maps[2] = f2
        f = OperadMorphism(op, op, maps)
        assert f.validate() == []
        wit = formality_witness_from_pure(op, f, W2)
        assert wit.verify()
        assert wit.t_operad.component(2).total_dim \
            < op.component(2).total_dim

    def test_free_operad_witness(self):
        op = free_operad(SigmaModule(
            {2: GroupAction.trivial(2, ChainComplex({0: 1, 1: 1}))}), 3)
        phi = operad_grading_automorphism(op, 2)
        wit = formality_witness_from_pure(op, phi, W2)
        assert wit.verify()


class TestFormalityCheck:
    def test_zero_differential_formal(self):
        com = commutative_style_operad(3)
        wit = formality_check(com, up_to=3, alpha=2)
        assert wit is not None and wit.verify()
        labels = [label for label, _ in wit.arrows]
        assert labels == ["model", "inclusion", "projection"]

    def test_weakly_equivalent_to_homology_by_construction(self):
        # operad with an acyclic cone attached: formal with known zigzag
        from fixtures_ops import one_dim_operad_with_acyclic_component
        op = one_dim_operad_with_acyclic_component()
        wit = formality_check(op, up_to=3, alpha=2)
        assert wit is not None and wit.verify()

    def test_modular_formality(self):
        E = endomorphism_modular_operad(ChainComplex({0: 1}),
                                        Matrix.from_rows([[1]]), 1)
        wit = formality_check(E, up_to=1, alpha=2)
        assert wit is not None and wit.verify()

    def test_generators_in_genus_zero_and_one(self):
        # the (1, 1) component also holds the looped (0, 3) vertex; the
        # lift must solve for the (1, 1) corolla, not for that graph
        from operad_forge.free import free_modular_operad
        from operad_forge.sigma import ModularSigmaModule
        op = free_modular_operad(ModularSigmaModule({
            (0, 3): GroupAction.trivial(3, ChainComplex({0: 1})),
            (1, 1): GroupAction.trivial(1, ChainComplex({0: 1}))}), 1)
        wit = formality_check(op, alpha=2)
        assert wit is not None and wit.verify()

    def test_obstructed_fixture_is_inconclusive(self):
        # minimal operad with an odd binary generator and the ternary
        # generator killing the symmetrized double composite: every
        # candidate automorphism acts by alpha^3 on the arity-4 homology
        # class in degree 4, so the linear obstruction system (which
        # parameterizes all candidate lifts in the window) is infeasible
        M = massey_minimal_operad()
        for alpha in (2, 3, Fraction(1, 2)):
            assert formality_check(M, up_to=4, alpha=alpha) is None

    def test_seeded_search_still_finds_witness(self):
        com = commutative_style_operad(3)
        wit = formality_check(com, up_to=3, alpha=2, seed=4)
        assert wit is not None and wit.verify()


class TestSuboperadRejects:
    """A candidate that is not closed under one of the structure maps is
    refused on its way to a suboperad: under d by ``subcomplex`` (as in
    ``t_functor``), under the others by _suboperad_from_components."""

    @staticmethod
    def _full(op, keys):
        return {k: {d: Matrix.identity(n)
                    for d, n in op.component(k).dims.items()} for k in keys}

    @staticmethod
    def _suboperad(op, cand):
        return _suboperad_from_components(
            op, {k: subcomplex(op.component(k), bases)[1]
                 for k, bases in cand.items()})

    def test_not_closed_under_d(self):
        from fixtures_ops import one_dim_operad_with_acyclic_component
        op = one_dim_operad_with_acyclic_component()
        # d(top) = e_1, but degree 0 keeps only e_0
        cand = self._full(op, [3])
        cand[2] = {1: Matrix.from_rows([[1]]),
                   0: Matrix.from_rows([[1], [0]])}
        with pytest.raises(AssertionError, match="not d-closed"):
            self._suboperad(op, cand)

    def test_d_into_a_missing_degree(self):
        from fixtures_ops import one_dim_operad_with_acyclic_component
        op = one_dim_operad_with_acyclic_component()
        # d(top) = e_1 is nonzero, and the candidate has no degree 0
        cand = self._full(op, [3])
        cand[2] = {1: Matrix.from_rows([[1]])}
        with pytest.raises(AssertionError, match="not d-closed"):
            self._suboperad(op, cand)

    def test_not_action_closed(self):
        c = ChainComplex({0: 2})
        swap = ChainMap(c, c, {0: Matrix.from_rows([[0, 1], [1, 0]])})
        op = free_operad(SigmaModule({2: GroupAction(2, c, [swap])}), 3)
        cand = {2: {0: Matrix.from_rows([[1], [0]])}}
        with pytest.raises(AssertionError, match="not action-closed"):
            self._suboperad(op, cand)

    def test_composition_leaves_span(self):
        op = free_operad(SigmaModule(
            {2: GroupAction.trivial(2, ChainComplex({0: 1}))}), 3)
        # the sum of the three binary trees is Sigma_3-stable, but a
        # single composite is one tree
        assert op.component(3).dims == {0: 3}
        cand = self._full(op, [2])
        cand[3] = {0: Matrix.from_rows([[1], [1], [1]])}
        with pytest.raises(AssertionError, match=r"closure fails at composition \(2, 1, 2\)"):
            self._suboperad(op, cand)

    def test_composition_into_vanished_component(self):
        op = free_operad(SigmaModule(
            {2: GroupAction.trivial(2, ChainComplex({0: 1}))}), 3)
        with pytest.raises(AssertionError, match=r"closure fails at composition \(2, 1, 2\)"):
            self._suboperad(op, self._full(op, [2]))

    def test_contraction_leaves_span(self):
        E = endomorphism_modular_operad(ChainComplex({0: 2}),
                                        Matrix.identity(2), 1)
        cand = self._full(E, [(0, 3), (0, 4)])
        # xi(v1 v2 v3) = <v1, v2> v3 reaches all of V, not only e_1
        cand[(1, 1)] = {0: Matrix.from_rows([[1], [0]])}
        with pytest.raises(AssertionError, match=r"closure fails at contraction \(\(0, 3\), 1, 2\)"):
            self._suboperad(E, cand)
