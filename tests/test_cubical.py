import itertools
import math
import random
from fractions import Fraction

import pytest

from operad_forge.chain import homology_dims
from operad_forge.cubical import (
    CubicChain,
    FiniteCubicalSet,
    ProductCubicalSet,
    act,
    alt,
    boundary,
    chain_complex,
    compose_maps,
    cross,
    delta_map,
    interval,
    interval_power,
    kappa,
    perm_map,
    point,
    sigma_tau_r_i,
    torus,
)
from operad_forge.qlinalg import Matrix
from operad_forge.sigma import Permutation, all_permutations

from helpers import (
    face_permutation_decomposition,
    reference_alt,
    reference_boundary,
    reference_copy,
    reference_orbit,
)


def random_chain(rng, space, dim, size=3):
    cubes = [c for c in space.cubes(dim)]
    coeffs = {}
    for _ in range(size):
        coeffs[rng.choice(cubes)] = Fraction(rng.randint(-3, 3))
    return CubicChain(space, dim, coeffs)


def pinched_square():
    """A square whose face (1, 0) is the degenerate 1-cube ``c0`` and
    whose other faces are the loop ``id``, all at one vertex ``0``: a
    nondegenerate cube with a degenerate face, named like the
    interval's cubes."""
    return FiniteCubicalSet(
        {0: ["0"], 1: ["id", "c0"], 2: ["s"]},
        {("id", 1, 0): "0", ("id", 1, 1): "0",
         ("c0", 1, 0): "0", ("c0", 1, 1): "0",
         ("s", 1, 0): "c0", ("s", 1, 1): "id",
         ("s", 2, 0): "id", ("s", 2, 1): "id"},
        degenerate={"c0"})


def flatten(space, cube, coords=None):
    """Normal form of an iterated interval-product cube: the interval
    letter read by each global coordinate, plus the constant letters."""
    if coords is None:
        coords = tuple(range(1, space.dim_of(cube) + 1))
    if isinstance(space, ProductCubicalSet):
        a, b, S = cube
        sset = set(S)
        a_coords = tuple(coords[s - 1] for s in S)
        b_coords = tuple(coords[j - 1] for j in range(1, len(coords) + 1)
                         if j not in sset)
        return flatten(space.left, a, a_coords) \
            + flatten(space.right, b, b_coords)
    return ((cube, coords),)


class TestFaceAlgebra:
    def test_cubical_identities_validated(self):
        with pytest.raises(ValueError):
            FiniteCubicalSet({0: ["p", "q"], 1: ["e"], 2: ["s"]},
                             {("e", 1, 0): "p", ("e", 1, 1): "q",
                              ("s", 1, 0): "e", ("s", 1, 1): "e",
                              ("s", 2, 0): "e", ("s", 2, 1): "e"})
        # same data with consistent faces is fine
        FiniteCubicalSet({0: ["p"], 1: ["e"]},
                         {("e", 1, 0): "p", ("e", 1, 1): "p"})

    def test_interval_power_needs_a_factor(self):
        assert interval_power(1).dims() == interval().dims() == [0, 1]
        assert interval_power(2).dims() == [0, 1, 2]
        for n in (0, -1):
            with pytest.raises(ValueError):
                interval_power(n)

    def test_product_faces_commute(self):
        X = interval_power(3)
        for cube in X.cubes(3):
            for j in range(1, 3):
                for i in range(1, j + 1):
                    for eps, eta in itertools.product((0, 1), repeat=2):
                        left = X.face(X.face(cube, i, eps), j, eta)
                        right = X.face(X.face(cube, j + 1, eta), i, eps)
                        assert left == right

    def test_action_is_right_action(self):
        X = interval_power(3)
        rng = random.Random(0)
        perms = all_permutations(3)
        for cube in X.cubes(3)[:6]:
            for _ in range(5):
                s, t = rng.choice(perms), rng.choice(perms)
                one, sg1 = X.act(cube, s)
                two, sg2 = X.act(one, t)
                direct, sg3 = X.act(cube, s.compose(t))
                assert two == direct and sg1 * sg2 == sg3


class TestSigmaTauRI:
    def test_trivial_case(self):
        # tau = id, r = i: the identity face relation
        for n in (2, 3, 4):
            tau = Permutation.identity(n - 1)
            for i in range(1, n + 1):
                sigma = sigma_tau_r_i(tau, i, i)
                for eps in (0, 1):
                    assert compose_maps(perm_map(sigma),
                                        delta_map(n, i, eps)) \
                        == delta_map(n, i, eps)

    def test_defining_identity(self):
        for n in (2, 3, 4):
            for tau in all_permutations(n - 1):
                for r in range(1, n + 1):
                    for i in range(1, n + 1):
                        sigma = sigma_tau_r_i(tau, r, i)
                        for eps in (0, 1):
                            lhs = compose_maps(perm_map(sigma),
                                               delta_map(n, i, eps))
                            rhs = compose_maps(delta_map(n, r, eps),
                                               perm_map(tau))
                            assert lhs == rhs

    def test_n2_table_bijective(self):
        # 1 * 2 * 2 = 4 triples onto 4 distinct (sigma, i) pairs
        pairs = set()
        for tau in all_permutations(1):
            for r in (1, 2):
                for i in (1, 2):
                    pairs.add((sigma_tau_r_i(tau, r, i).images, i))
        assert len(pairs) == 4

    def test_uniqueness_small(self):
        for n in (2, 3):
            for tau in all_permutations(n - 1):
                for r in range(1, n + 1):
                    for i in range(1, n + 1):
                        matches = []
                        for sigma in all_permutations(n):
                            if all(compose_maps(perm_map(sigma),
                                                delta_map(n, i, eps))
                                   == compose_maps(delta_map(n, r, eps),
                                                   perm_map(tau))
                                   for eps in (0, 1)):
                                matches.append(sigma)
                        assert len(matches) == 1
                        assert matches[0] == sigma_tau_r_i(tau, r, i)

    def test_sign_identity(self):
        for n in (2, 3, 4):
            for tau in all_permutations(n - 1):
                for r in range(1, n + 1):
                    for i in range(1, n + 1):
                        sigma = sigma_tau_r_i(tau, r, i)
                        assert sigma.sign() * (-1) ** i \
                            == tau.sign() * (-1) ** r

    def test_decomposition_inverts(self):
        for n in (3, 4):
            for sigma in all_permutations(n):
                for i in range(1, n + 1):
                    r, tau = face_permutation_decomposition(sigma, i)
                    assert sigma_tau_r_i(tau, r, i) == sigma


class TestBoundary:
    def test_point(self):
        p = point()
        ch = CubicChain.of_cube(p, "*")
        assert ch.dim == 0

    def test_interval_endpoints(self):
        I = interval()
        ch = CubicChain.of_cube(I, "id")
        b = boundary(ch)
        # d(c) = sum (-1)^{i+eps} faces = -face(1,0) + face(1,1)
        assert b.coeffs == {"0": Fraction(-1), "1": Fraction(1)}

    def test_square_dd_zero(self):
        X = interval_power(2)
        for cube in X.cubes(2):
            ch = CubicChain.of_cube(X, cube)
            if ch.is_zero():
                continue
            assert boundary(boundary(ch)).is_zero()
            assert len(boundary(ch).coeffs) <= 4

    def test_degenerate_cubes_are_zero(self):
        I = interval()
        ch = CubicChain(I, 1, {"c0": Fraction(5)})
        assert ch.is_zero()

    def test_degenerate_face_dropped(self):
        X = pinched_square()
        ch = CubicChain.of_cube(X, "s")
        assert boundary(ch).coeffs == {"id": Fraction(1)}
        assert boundary(ch) == reference_boundary(ch)
        I = interval()
        for P in (ProductCubicalSet(X, I), ProductCubicalSet(I, X)):
            dropped = 0
            for p in P.dims():
                for cube in P.cubes(p):
                    if P.is_degenerate(cube):
                        continue
                    chain = CubicChain.of_cube(P, cube)
                    assert boundary(chain) == reference_boundary(chain)
                    dropped += sum(map(P.is_degenerate, P._faces(cube, p)))
            # c0 x id at each of the three S of s x id, c0 x each endpoint
            assert dropped == 3 + 2


class TestCross:
    def test_unit(self):
        I = interval()
        P = point()
        ch = CubicChain.of_cube(I, "id")
        pt = CubicChain.of_cube(P, "*")
        prod = cross(ch, pt)
        assert len(prod.coeffs) == 1 and prod.dim == 1

    def test_interval_square(self):
        I = interval()
        ch = CubicChain.of_cube(I, "id")
        sq = cross(ch, ch)
        assert sq.dim == 2
        assert list(sq.coeffs.values()) == [Fraction(1)]

    def test_leibniz(self):
        rng = random.Random(2)
        I2 = interval_power(2)
        for _ in range(5):
            cx = random_chain(rng, I2, 1)
            cy = random_chain(rng, I2, 2)
            prod_space = ProductCubicalSet(I2, I2)
            lhs = boundary(cross(cx, cy, prod_space))
            rhs = cross(boundary(cx), cy, prod_space) \
                + cross(cx, boundary(cy), prod_space).scale((-1) ** cx.dim)
            assert lhs == rhs

    def test_sums_of_cross_results(self):
        # cross builds its product space on each call; products of the
        # same factor spaces are one space
        I = interval()
        c = CubicChain.of_cube(I, "id")
        assert cross(c, c) + cross(c, c) == cross(c, c).scale(2)
        assert ProductCubicalSet(I, I) == ProductCubicalSet(I, I)
        assert hash(ProductCubicalSet(I, I)) == hash(ProductCubicalSet(I, I))
        other = CubicChain.of_cube(interval(), "id")
        assert ProductCubicalSet(I, I) != ProductCubicalSet(I, other.space)
        with pytest.raises(ValueError, match="chain mismatch"):
            cross(c, c) + cross(c, other)


class TestAlt:
    def test_dimension_one_identity(self):
        I = interval()
        ch = CubicChain.of_cube(I, "id")
        assert alt(ch) == ch

    def test_dimension_two_expansion(self):
        X = interval_power(2)
        cube = next(c for c in X.cubes(2) if not X.is_degenerate(c))
        ch = CubicChain.of_cube(X, cube)
        swap = Permutation((2, 1))
        expected = (ch - act(ch, swap)).scale(Fraction(1, 2))
        assert alt(ch) == expected

    def test_chain_map_up_to_dim_4(self):
        # exhaustive over the nondegenerate cubes of interval powers
        for n in (2, 3, 4):
            X = interval_power(n)
            for cube in X.cubes(n):
                if X.is_degenerate(cube):
                    continue
                ch = CubicChain.of_cube(X, cube)
                assert boundary(alt(ch)) == alt(boundary(ch))

    def test_idempotent(self):
        rng = random.Random(4)
        X = interval_power(3)
        for _ in range(4):
            ch = random_chain(rng, X, 3)
            assert alt(alt(ch)) == alt(ch)

    def test_kills_degenerate(self):
        X = interval_power(2)
        degenerate = next(c for c in X.cubes(2) if X.is_degenerate(c))
        ch = CubicChain(X, 2, {degenerate: Fraction(1)})
        assert alt(ch).is_zero()


class TestKappa:
    def test_zero_dim_factor_reduces_to_cross(self):
        I = interval()
        P = point()
        c = CubicChain.of_cube(I, "id")
        d = CubicChain.of_cube(P, "*")
        assert kappa(c, d) == cross(c, d)

    def test_two_intervals_antisymmetrized(self):
        I = interval()
        c = CubicChain.of_cube(I, "id")
        out = kappa(c, c)
        assert out.dim == 2
        values = sorted(out.coeffs.values())
        assert values == [Fraction(-1, 2), Fraction(1, 2)]

    def test_symmetry_with_koszul_sign(self):
        rng = random.Random(5)
        I = interval()
        X = interval_power(2)
        for (cx_dim, cy_dim) in [(1, 1), (1, 2), (2, 2)]:
            cx = random_chain(rng, X, cx_dim)
            cy = random_chain(rng, X, cy_dim)
            k1 = kappa(cx, cy)
            k2 = kappa(cy, cx)
            sign = (-1) ** (cx_dim * cy_dim)
            flat1 = {}
            for cube, coeff in k1.coeffs.items():
                flat1[flatten(k1.space, cube)] = coeff
            flat2 = {}
            for cube, coeff in k2.coeffs.items():
                key = flatten(k2.space, cube)
                # swap the factor blocks: Y-part then X-part
                na = len(flatten(X, cube[0]))
                key = key[na:] + key[:na] if False else key
                flat2[key] = coeff
            # compare via leaf normal form: kappa(y,x) leaves are
            # (y-leaves, x-leaves); reorder to (x-leaves, y-leaves)
            flat2_reordered = {}
            for cube, coeff in k2.coeffs.items():
                b, a, S = cube  # cube of Y x X: left = cy-part
                p = k2.space.dim_of(cube)
                comp = tuple(j for j in range(1, p + 1) if j not in S)
                key = flatten(X, a, comp) + flatten(X, b, S)
                flat2_reordered[key] = coeff
            flat1_keys = {}
            for cube, coeff in k1.coeffs.items():
                a, b, S = cube
                p = k1.space.dim_of(cube)
                comp = tuple(j for j in range(1, p + 1) if j not in S)
                key = flatten(X, a, S) + flatten(X, b, comp)
                flat1_keys[key] = coeff
            assert flat1_keys == {k: sign * v
                                  for k, v in flat2_reordered.items()}

    def test_associativity(self):
        rng = random.Random(6)
        I = interval()
        for trial in range(3):
            a = random_chain(rng, I, 1, size=2)
            b = random_chain(rng, I, 1, size=2)
            c = random_chain(rng, I, 1, size=2)
            left = kappa(kappa(a, b), c)
            right = kappa(a, kappa(b, c))
            flat_left = {}
            for cube, coeff in left.coeffs.items():
                flat_left[flatten(left.space, cube)] = coeff
            flat_right = {}
            for cube, coeff in right.coeffs.items():
                flat_right[flatten(right.space, cube)] = coeff
            assert flat_left == flat_right


class TestHomology:
    def test_interval_contractible(self):
        assert homology_dims(chain_complex(interval())) == {0: 1}

    def test_torus(self):
        assert homology_dims(chain_complex(torus())) == {0: 1, 1: 2, 2: 1}

    def test_square_combinatorial_model(self):
        # the symmetrized product contains both parametrizations of the
        # square; their sum is a 2-cycle with no 3-cube to bound it, so
        # this finite model has an extra class on top of the point
        assert homology_dims(chain_complex(interval_power(2))) \
            == {0: 1, 2: 1}

    @pytest.mark.parametrize("name", ["I^1", "I^2", "I^3", "I^4", "torus"])
    def test_sparse_columns_match_dense_grid(self, name):
        # chain_complex assembles sparse columns; a dense grid filled
        # entry by entry is the reference
        space = torus() if name == "torus" else interval_power(int(name[2:]))
        c = chain_complex(space)
        assert c.dims
        for p, n in c.dims.items():
            assert n == sum(1 for cube in space.cubes(p)
                            if not space.is_degenerate(cube))
            if p - 1 not in c.dims:
                continue
            faces = [f for f in space.cubes(p - 1)
                     if not space.is_degenerate(f)]
            cubes = [q for q in space.cubes(p) if not space.is_degenerate(q)]
            index = {f: k for k, f in enumerate(faces)}
            grid = [[Fraction(0)] * len(cubes) for _ in faces]
            for col, cube in enumerate(cubes):
                bd = boundary(CubicChain.of_cube(space, cube))
                for f, coeff in bd.coeffs.items():
                    grid[index[f]][col] += coeff
            assert c.d(p) == Matrix(len(faces), len(cubes), grid)


# -- the flat action against the nested-Permutation path it replaced -----------


def outcome(space, cube, sigma):
    """``space.act(cube, sigma)``, or the exception class it raised."""
    try:
        return space.act(cube, sigma)
    except ValueError:
        return ValueError


class TestFlatAction:
    def test_every_cube_of_i4_under_every_permutation(self):
        X = interval_power(4)
        R = reference_copy(X)
        assert len(X.cubes(4)) == 1944
        for p in X.dims():
            assert R.cubes(p) == X.cubes(p)
            perms = all_permutations(p)
            for cube in X.cubes(p):
                for sigma in perms:
                    assert X.act(cube, sigma) == R.act(cube, sigma)

    def test_nondegenerate_cubes_of_i5_against_reference_and_flat_form(self):
        X = interval_power(5)
        R = reference_copy(X)
        for p in X.dims():
            cubes = [c for c in X.cubes(p) if not X.is_degenerate(c)]
            flats = [flatten(X, c) for c in cubes]
            for sigma in all_permutations(p):
                inv = sigma.inverse()
                for cube, flat in zip(cubes, flats):
                    new, sign = X.act(cube, sigma)
                    assert (new, sign) == R.act(cube, sigma)
                    # each interval letter moves to coordinate sigma^{-1}(c)
                    assert flatten(X, new) == tuple(
                        (leaf, tuple(inv(c) for c in coords))
                        for leaf, coords in flat)
        assert len([c for c in X.cubes(5) if not X.is_degenerate(c)]) == 120

    def test_faces_of_every_cube_of_i4(self):
        X = interval_power(4)
        R = reference_copy(X)
        for p in X.dims():
            for cube in X.cubes(p):
                for i in range(1, p + 1):
                    for eps in (0, 1):
                        assert X.face(cube, i, eps) == R.face(cube, i, eps)

    def test_torus_factor_rejects_a_swap_in_both_paths(self):
        P = ProductCubicalSet(torus(), interval())
        R = reference_copy(P)
        cube = ("s", "id", (1, 2))
        swap = Permutation.transposition(3, 1)
        assert outcome(P, cube, swap) is ValueError
        assert outcome(R, cube, swap) is ValueError
        for space in (P, R):
            with pytest.raises(ValueError):
                space.act(cube, Permutation.identity(2))
        # the two paths agree on every cube and permutation
        for p in P.dims():
            for cube in P.cubes(p):
                for sigma in all_permutations(p):
                    assert outcome(P, cube, sigma) == outcome(R, cube, sigma)

    def test_dim_of(self):
        X = interval()
        with pytest.raises(KeyError):
            X.dim_of("zz")
        # a cube listed in two degrees has the first one
        Y = FiniteCubicalSet({1: ["e", "p"], 0: ["p"]}, {}, check=False)
        assert Y.dim_of("p") == reference_copy(Y).dim_of("p") == 1
        assert [X.dim_of(c) for c in ("0", "id", "c1")] == [0, 1, 1]

    def test_alt_rejects_a_cube_of_the_wrong_dimension(self):
        X = interval_power(3)
        chain = CubicChain(X, 2, {X.cubes(3)[0]: 1, X.cubes(2)[0]: 1})
        with pytest.raises(ValueError):
            alt(chain)

    def test_alt_against_reference_action(self):
        X = interval_power(4)
        R = reference_copy(X)
        rng = random.Random(7)
        for p in (2, 3, 4):
            chain = random_chain(rng, X, p, size=5)
            expected = {}
            for sigma in all_permutations(p):
                for cube, coeff in chain.coeffs.items():
                    new, sgn = R.act(cube, sigma)
                    expected[new] = expected.get(new, Fraction(0)) \
                        + sigma.sign() * sgn * coeff
            assert alt(chain) == CubicChain(X, p, expected).scale(
                Fraction(1, math.factorial(p)))


# -- alt by shuffles and boundary by one pass of faces against the -------------
# -- per-permutation and per-face paths they replaced --------------------------


SPACES = {
    "I^4": lambda: interval_power(4),
    "(IxI)x(IxI)": lambda: ProductCubicalSet(interval_power(2),
                                             interval_power(2)),
    "IxI^3": lambda: ProductCubicalSet(interval(), interval_power(3)),
}


def assert_cube_matches_references(X, R, cube, p):
    assert X._faces(cube, p) == [R.face(cube, i, eps)
                                 for i in range(1, p + 1) for eps in (0, 1)]
    if X.is_degenerate(cube):
        # a chain drops a degenerate cube, so its orbit is compared as is
        assert X._orbit(cube, p) == reference_orbit(X, cube, p)
        return
    chain = CubicChain.of_cube(X, cube)
    assert alt(chain) == reference_alt(chain)
    assert boundary(chain) == reference_boundary(chain)


class TestShuffleAltAndFacePass:
    @pytest.mark.parametrize("name", list(SPACES))
    def test_every_cube(self, name):
        X = SPACES[name]()
        R = reference_copy(X)
        for p in X.dims():
            for cube in X.cubes(p):
                assert_cube_matches_references(X, R, cube, p)
        assert len(X.cubes(4)) == 1944

    def test_nondegenerate_cubes_of_i5(self):
        X = interval_power(5)
        R = reference_copy(X)
        checked = 0
        for p in X.dims():
            for cube in X.cubes(p):
                if not X.is_degenerate(cube):
                    assert_cube_matches_references(X, R, cube, p)
                    checked += 1
        assert checked == 872

    @pytest.mark.parametrize("name", ["I^4", "I^5", "(IxI)x(IxI)"])
    def test_seeded_rational_chains(self, name):
        X = interval_power(5) if name == "I^5" else SPACES[name]()
        R = reference_copy(X)
        rng = random.Random(32)
        for p in X.dims():
            cubes = [c for c in X.cubes(p) if not X.is_degenerate(c)]
            for size in (1, 2, 5, 9):
                chain = CubicChain(X, p, {
                    rng.choice(cubes): Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 12))
                    for _ in range(size)})
                assert any(x.denominator > 1 for x in chain.coeffs.values()) \
                    or size == 1
                assert alt(chain) == reference_alt(chain)
                assert boundary(chain) == reference_boundary(chain)
                sigma = Permutation(tuple(rng.sample(range(1, p + 1), p)))
                expected = {}
                for cube, x in chain.coeffs.items():
                    new, sgn = R.act(cube, sigma)
                    expected[new] = expected.get(new, Fraction(0)) + sgn * x
                assert act(chain, sigma) == CubicChain(X, p, expected)

    def test_torus_factor(self):
        P = ProductCubicalSet(torus(), interval())
        R = reference_copy(P)
        with pytest.raises(ValueError, match="no symmetry structure"):
            alt(CubicChain.of_cube(P, ("s", "id", (1, 2))))
        raised = 0
        for p in P.dims():
            for cube in P.cubes(p):
                chain = CubicChain.of_cube(P, cube)
                assert boundary(chain) == reference_boundary(chain)
                assert P._faces(cube, p) == [
                    R.face(cube, i, eps)
                    for i in range(1, p + 1) for eps in (0, 1)]
                try:
                    expected = reference_alt(chain)
                except ValueError:
                    with pytest.raises(ValueError):
                        alt(chain)
                    raised += 1
                else:
                    assert alt(chain) == expected
        # the square times a vertex, and times "id" at each of three S
        assert raised == 2 + 3

    def test_face_index_out_of_range(self):
        for X in (interval(), torus(), interval_power(3),
                  ProductCubicalSet(torus(), interval())):
            for p in X.dims():
                for cube in X.cubes(p):
                    for i, eps in ((0, 0), (0, 1), (p + 1, 0), (p + 1, 1),
                                   (1, 2)):
                        with pytest.raises(KeyError):
                            X.face(cube, i, eps)

    def test_finite_act_checks_the_permutation_size(self):
        I = interval()
        assert I.act("id", Permutation.identity(1)) == ("id", 1)
        for space, cube in ((I, "id"), (I, "0"), (torus(), "s")):
            with pytest.raises(ValueError, match="wrong size"):
                space.act(cube, Permutation.identity(3))
        with pytest.raises(ValueError, match="wrong size"):
            act(CubicChain.of_cube(I, "id"), Permutation.identity(3))


# -- the face and orbit tables of a product ------------------------------------


def product_levels(space):
    """A product and its nested product factors."""
    if not isinstance(space, ProductCubicalSet):
        return []
    return [space] + product_levels(space.left) + product_levels(space.right)


def check_faces(X, R, cube, p):
    keys = [(i, eps) for i in range(1, p + 1) for eps in (0, 1)]
    faces = [R.face(cube, i, eps) for i, eps in keys]
    assert X._faces(cube, p) == faces
    assert [X.face(cube, i, eps) for i, eps in keys] == faces
    # each face with its sign in d, or with 0 if it is degenerate
    assert X._boundary(cube, p) == tuple(
        (f, 0 if R.is_degenerate(f) else (-1) ** (i + eps))
        for f, (i, eps) in zip(faces, keys))


def check_reads(X, R, cube, p):
    check_faces(X, R, cube, p)
    assert X._orbit(cube, p) == reference_orbit(X, cube, p)


def check_operators(X, R, cube, p):
    if not X.is_degenerate(cube):
        chain = CubicChain.of_cube(X, cube)
        assert alt(chain) == reference_alt(chain)
        assert boundary(chain) == reference_boundary(chain)


class TestFaceAndOrbitTables:
    @pytest.mark.parametrize("n", [4, 5])
    def test_first_and_second_reads(self, n):
        # every cube of I^4, the nondegenerate ones of I^5; half of them
        # enter the tables through alt and boundary, half through the reads
        X = interval_power(n)
        R = reference_copy(X)
        for p in X.dims():
            cubes = [c for c in X.cubes(p) if n == 4 or not X.is_degenerate(c)]
            for k, cube in enumerate(cubes):
                checks = [check_reads, check_operators]
                if k % 2:
                    checks.reverse()
                for check in checks + checks:
                    check(X, R, cube, p)
        expected = sum(map(len, map(X.cubes, X.dims()))) if n == 4 else 872
        assert len(X._face_entries) == len(X._orbits) == expected

    def test_no_table_holds_a_degenerate_cube(self):
        X = interval_power(5)
        nondegenerate = [c for p in (4, 5) for c in X.cubes(p)
                         if not X.is_degenerate(c)]
        for cube in nondegenerate:
            chain = CubicChain.of_cube(X, cube)
            boundary(chain)
            alt(chain)
        assert len(X._face_entries) == len(X._orbits) \
            == len(nondegenerate) == 120 + 240
        levels = product_levels(X)
        assert len(levels) == 4
        for Y in levels:
            assert Y._face_entries and Y._orbits
            for cube, signed in Y._face_entries.items():
                # every face of a nondegenerate cube of I^5 is nondegenerate
                faces = [f for f, _ in signed]
                assert not any(map(Y.is_degenerate, [cube] + faces))
                assert all(sign for _, sign in signed)
            for cube, orbit in Y._orbits.items():
                assert not any(map(Y.is_degenerate, (cube, *orbit)))

    def test_each_product_keeps_its_own_tables(self):
        # the pinched square reuses the interval's cube names, so a cube
        # such as ("id", "id", (1,)) lies in both products, with other faces
        I = interval()
        spaces = [ProductCubicalSet(pinched_square(), I),
                  ProductCubicalSet(I, I)]
        for P in spaces + spaces:
            R = reference_copy(P)
            for cube in P.cubes(2):
                check_faces(P, R, cube, 2)
                chain = CubicChain.of_cube(P, cube)
                assert boundary(chain) == reference_boundary(chain)


class TestNondegenerateCubes:
    """A product cube is degenerate when a factor is, so the nondegenerate
    cubes come from the factors' own: the list of filtering every cube
    through ``is_degenerate``, in its order."""

    @pytest.mark.parametrize("space", [
        interval(), torus(), point(), interval_power(2), interval_power(5),
        ProductCubicalSet(torus(), interval_power(2)),
        ProductCubicalSet(interval(), ProductCubicalSet(torus(), interval())),
    ], ids=["interval", "torus", "point", "square", "I^5", "torus-x-I^2",
            "I-x-torus-x-I"])
    def test_same_list_as_filtering(self, space):
        for p in range(max(space.dims()) + 2):
            assert space.nondegenerate_cubes(p) == [
                c for c in space.cubes(p) if not space.is_degenerate(c)]

    def test_count_on_interval_powers(self):
        # the nondegenerate n-cubes of I^n: one per ordering of the n
        # identity factors' coordinates
        for n in range(1, 6):
            assert len(interval_power(n).nondegenerate_cubes(n)) \
                == math.factorial(n)
