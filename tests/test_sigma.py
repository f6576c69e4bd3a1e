import itertools
import random
from fractions import Fraction

import pytest

from operad_forge import minimal
from operad_forge.chain import ChainComplex, ChainMap, homology_dims
from operad_forge.free import endomorphism_modular_operad
from operad_forge.qlinalg import Matrix
from operad_forge.sigma import (
    Coinvariants,
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    all_permutations,
    coinvariants,
    modular_dimension,
    reynolds_average,
    stable_pairs_up_to,
    stable_pairs_with_dimension,
    validate_action,
)

from helpers import (
    assert_value_semantics,
    dense_col,
    group_average,
    permutation_matrix,
    reference_reynolds,
    word_action,
)


class TestPermutation:
    def test_compose_and_inverse(self):
        p = Permutation((2, 3, 1))
        q = Permutation((2, 1, 3))
        pq = p.compose(q)
        assert pq.images == tuple(p(q(k)) for k in (1, 2, 3))
        assert p.compose(p.inverse()).is_identity()

    def test_sign_multiplicative(self):
        rng = random.Random(0)
        perms = all_permutations(4)
        for _ in range(20):
            p, q = rng.choice(perms), rng.choice(perms)
            assert p.compose(q).sign() == p.sign() * q.sign()

    def test_adjacent_word_reconstructs(self):
        for p in all_permutations(4):
            acc = Permutation.identity(4)
            for j in p.adjacent_word():
                acc = acc.compose(Permutation.transposition(4, j))
            # word gives p = s_{j1} o s_{j2} o ... applied left to right
            word = p.adjacent_word()
            acc = Permutation.identity(4)
            for j in word:
                acc = acc.compose(Permutation.transposition(4, j))
            assert acc == p

    def test_permutation_matrix_right_action(self):
        # R(p o q) = R(q) R(p)
        for p in all_permutations(3):
            for q in all_permutations(3):
                assert (permutation_matrix(q) * permutation_matrix(p)
                        == permutation_matrix(p.compose(q)))

    def test_cycle_to_front(self):
        c = Permutation.cycle_to_front(5, 3)
        assert c(1) == 3
        assert [c(k) for k in range(1, 6)] == [3, 1, 2, 4, 5]


def regular_rep(n):
    """The right regular representation of Sigma_n in degree 0."""
    perms = all_permutations(n)
    index = {p.images: i for i, p in enumerate(perms)}
    c = ChainComplex({0: len(perms)})
    gens = []
    for j in range(1, n):
        s = Permutation.transposition(n, j)
        grid = [[Fraction(0)] * len(perms) for _ in range(len(perms))]
        for i, p in enumerate(perms):
            grid[index[p.compose(s).images]][i] = Fraction(1)
        gens.append(ChainMap(c, c, {0: Matrix(len(perms), len(perms), grid)}))
    return GroupAction(n, c, gens)


class TestPermutationValue:
    def test_value_semantics(self):
        assert_value_semantics(lambda: Permutation((2, 1, 3)),
                               lambda: Permutation((1, 2, 3)),
                               "Permutation(images=(2, 1, 3))")

    def test_hash_of_field_tuple(self):
        assert hash(Permutation((2, 1, 3))) == hash(((2, 1, 3),))

    def test_checks_images(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        assert Permutation(images=(1, 2)).images == (1, 2)

    def test_list_and_tuple_images(self):
        perm = Permutation([2, 1, 3])
        assert perm == Permutation((2, 1, 3))
        assert hash(perm) == hash(Permutation((2, 1, 3)))
        assert repr(perm) == "Permutation(images=(2, 1, 3))"
        ga = GroupAction.trivial(3, ChainComplex({0: 1}))
        assert ga.action(perm) == ga.action(Permutation((2, 1, 3)))


class TestCoinvariantsRecord:
    def test_keyword_fields(self):
        c = ChainComplex({0: 1})
        ident = ChainMap.identity(c)
        res = Coinvariants(complex=c, projection=ident, inclusion=ident)
        assert (res.complex, res.projection, res.inclusion) == (c, ident, ident)


class TestGroupAction:
    def test_trivial_action_ok(self):
        ga = GroupAction.trivial(3, ChainComplex({0: 2}))
        assert ga.validate() == []

    def test_regular_rep_ok(self):
        ga = regular_rep(2)
        assert ga.validate() == []
        assert ga.action(Permutation((2, 1))).block(0) == Matrix.from_rows(
            [[0, 1], [1, 0]])

    def test_non_involution_rejected(self):
        c = ChainComplex({0: 2})
        bad = ChainMap(c, c, {0: Matrix.from_rows([[1, 1], [0, 1]])})
        with pytest.raises(ValueError):
            GroupAction(2, c, [bad])

    def test_word_action_matches_matrix_action(self):
        # random words in generators act like the evaluated permutation
        for n in (3, 4, 5):
            ga = regular_rep(n)
            perms = all_permutations(n)
            index = {p.images: i for i, p in enumerate(perms)}
            rng = random.Random(n)
            for _ in range(6):
                word = [rng.randint(1, n - 1) for _ in range(5)]
                evaluated = Permutation.identity(n)
                acc = ChainMap.identity(ga.complex)
                for j in word:
                    evaluated = evaluated.compose(Permutation.transposition(n, j))
                    acc = ga.generators[j - 1].compose(acc)
                assert acc == ga.action(evaluated)
                # and the action permutes the regular basis correctly:
                # e_p . s = e_{p o s}
                m = acc.block(0)
                for i, p in enumerate(perms):
                    target = index[p.compose(evaluated).images]
                    assert m.data[target][i] == 1


def standard_over_permutation_rep():
    """Sigma_4 on Q^4 in degree 1 and on its standard quotient Q^4 / (1,1,1,1)
    in degree 0 (basis e_1, e_2, e_3, so e_4 = -e_1 - e_2 - e_3), with
    the quotient map as differential: s_3 is not monomial in degree 0."""
    c = ChainComplex({0: 3, 1: 4}, {1: Matrix.from_rows(
        [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])})
    standard = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                [[1, 0, -1], [0, 1, -1], [0, 0, -1]])
    gens = []
    for j, rows in enumerate(standard):
        swap = Permutation.transposition(4, j + 1)
        gens.append(ChainMap(c, c, {0: Matrix.from_rows(rows),
                                    1: permutation_matrix(swap)}))
    return GroupAction(4, c, gens)


class TestActionAgainstWordProduct:
    """One product per permutation equals the product along its word."""

    @pytest.mark.parametrize("build", [lambda: regular_rep(4),
                                       standard_over_permutation_rep],
                             ids=["regular", "standard-over-permutation"])
    def test_every_permutation_of_s4(self, build):
        for order in (1, -1):
            ga = build()
            for p in all_permutations(4)[::order]:
                assert ga.action(p) == word_action(ga, p), p

    def test_non_monomial(self):
        ga = standard_over_permutation_rep()
        s3 = ga.action(Permutation.transposition(4, 3)).block(0)
        assert any(len(row) > 1 for row in s3.sparse)


def permutation_rep(n, sign=False):
    """Sigma_n on Q^n in degree 0 by permutation matrices, times the
    sign character if asked."""
    c = ChainComplex({0: n})
    gens = []
    for j in range(1, n):
        m = permutation_matrix(Permutation.transposition(n, j))
        gens.append(ChainMap(c, c, {0: -m if sign else m}))
    return GroupAction(n, c, gens)


def random_blocks(rng, left, right):
    """A random rational map from right's complex to left's in each
    degree of right's."""
    return {d: Matrix(left.complex.dim(d), h,
                      [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(h)]
                       for _ in range(left.complex.dim(d))])
            for d, h in right.complex.dims.items()}


def model_section_actions(seed):
    """The (cone action, V action) pairs whose Reynolds average
    minimal_model takes on the window-2 dim-1 endomorphism modular
    operad."""
    seen = []

    def recording(left, right, blocks):
        seen.append((left, right))
        return reynolds_average(left, right, blocks)

    p = endomorphism_modular_operad(ChainComplex({0: 1}),
                                    Matrix.from_rows([[1]]), 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimal, "reynolds_average", recording)
        minimal.minimal_model(p, seed=seed)
    return seen


class TestReynoldsAverage:
    """The Horner recursion along adjacent generators equals the n!-term
    average of the action on maps."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_actions(self, n):
        rng = random.Random(n)
        cases = [(permutation_rep(n), permutation_rep(n)),
                 (permutation_rep(n), permutation_rep(n, True)),
                 (permutation_rep(n, True), permutation_rep(n))]
        if n <= 3:
            cases.append((regular_rep(n), permutation_rep(n, True)))
        for left, right in cases:
            for _ in range(2):
                x = random_blocks(rng, left, right)
                got = reynolds_average(left, right, x)
                assert got == reference_reynolds(left, right, x)
                for lg, rg in zip(left.generators, right.generators):
                    assert lg.block(0) * got[0] == got[0] * rg.block(0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_actions_of_a_minimal_model(self, seed):
        pairs = model_section_actions(seed)
        assert pairs and all(left.n <= 5 for left, _ in pairs)
        # some of the actions are not signed permutations
        assert any(len(row) > 1
                   for left, right in pairs
                   for ga in (left, right) for g in ga.generators
                   for m in g.blocks.values() for row in m.sparse)
        rng = random.Random(seed)
        for left, right in pairs:
            x = random_blocks(rng, left, right)
            assert reynolds_average(left, right, x) \
                == reference_reynolds(left, right, x)


class TestCoinvariants:
    def test_trivial_action_identity_projection(self):
        c = ChainComplex({0: 2})
        res = coinvariants(c, [ChainMap.identity(c)])
        assert res.complex.dims == c.dims
        assert res.projection.block(0) == Matrix.identity(2)

    def test_swap_action(self):
        c = ChainComplex({0: 2})
        swap = ChainMap(c, c, {0: Matrix.from_rows([[0, 1], [1, 0]])})
        res = coinvariants(c, [ChainMap.identity(c), swap])
        assert res.complex.dims == {0: 1}
        # projection of e1 equals projection of e2
        assert dense_col(res.projection.block(0), 0) == \
            dense_col(res.projection.block(0), 1)

    def test_sign_rep_kills_everything(self):
        c = ChainComplex({0: 1})
        minus = ChainMap(c, c, {0: Matrix.from_rows([[-1]])})
        res = coinvariants(c, [ChainMap.identity(c), minus])
        assert res.complex.is_zero()

    def test_average_is_idempotent_and_projects(self):
        ga = regular_rep(3)
        avg = group_average(ga)
        assert avg.compose(avg) == avg
        res = coinvariants(ga.complex,
                           [ga.action(p) for p in all_permutations(3)])
        assert res.complex.dims == {0: 1}
        assert res.projection.compose(res.inclusion) == ChainMap.identity(res.complex)

    def test_coinvariants_commute_with_homology(self):
        # two-term complex with the swap action in both degrees
        c = ChainComplex({1: 2, 0: 2}, {1: Matrix.from_rows([[2, 0], [0, 2]])})
        swap = Matrix.from_rows([[0, 1], [1, 0]])
        g = ChainMap(c, c, {1: swap, 0: swap})
        res = coinvariants(c, [ChainMap.identity(c), g])
        assert homology_dims(res.complex) == {}
        c2 = ChainComplex({1: 2, 0: 2})
        res2 = coinvariants(c2, [ChainMap.identity(c2),
                                 ChainMap(c2, c2, {1: swap, 0: swap})])
        assert homology_dims(res2.complex) == {1: 1, 0: 1}


class TestModules:
    def test_validate_action_ok(self):
        m = SigmaModule({2: regular_rep(2), 3: GroupAction.trivial(3, ChainComplex({0: 1}))})
        assert validate_action(m) == []

    def test_violation_pinpoints_arity(self):
        c = ChainComplex({0: 2})
        bad = ChainMap(c, c, {0: Matrix.from_rows([[1, 1], [0, 1]])})
        m = SigmaModule({2: GroupAction(2, c, [bad], check=False)}, check=False)
        report = validate_action(m)
        assert report
        assert "component 2" in report[0]

    def test_modular_stability_enforced(self):
        with pytest.raises(ValueError):
            ModularSigmaModule({(0, 2): GroupAction.trivial(2, ChainComplex({0: 1}))})

    def test_modular_dimension_table(self):
        assert modular_dimension(0, 3) == 0
        assert stable_pairs_with_dimension(0) == [(0, 3)]
        assert stable_pairs_with_dimension(1) == [(0, 4), (1, 1)]
        assert stable_pairs_with_dimension(2) == [(0, 5), (1, 2)]
        assert stable_pairs_with_dimension(3) == [(0, 6), (1, 3), (2, 0)]
        assert stable_pairs_up_to(1) == [(0, 3), (0, 4), (1, 1)]
