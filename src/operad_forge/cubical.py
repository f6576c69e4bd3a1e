"""Cubic chains of finite cubical sets.

Cubes are combinatorial: a cubical set provides its p-cubes, face
assignments c |-> c o delta_i^eps, and degeneracy flags; chains are
rational combinations of cubes with degenerate cubes identified with
zero (normalized on read).  Product sets carry the coordinate
permutation action by precomposition; ``alt`` sums its signed orbits,
a product's built from its factors' by shuffles, so kappa(c, d) =
alt(c x d) is defined on products of symmetric sets.  ``boundary``
reads each cube's faces in one pass.  A product keeps each cube's faces
and orbit once worked out.  A chain holds integer numerators over one
denominator, in lowest terms; both operators sum those integers into
output cubes, none of them degenerate, and make no ``Fraction``.

The permutation bijection sending (tau, r, i) to the unique sigma with
sigma o delta_i^eps = delta_r^eps o tau is implemented directly on
index maps, together with its sign identity.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import factorial, gcd, lcm

from .chain import ChainComplex
from .qlinalg import Matrix, sparse_row
from .sigma import Permutation


# -- index maps I^m -> I^n -----------------------------------------------------


def delta_map(n, i, eps):
    """The face map I^{n-1} -> I^n inserting eps at coordinate i."""
    out = []
    for j in range(1, n + 1):
        if j == i:
            out.append(("const", eps))
        elif j < i:
            out.append(("in", j))
        else:
            out.append(("in", j - 1))
    return tuple(out)


def perm_map(sigma: Permutation):
    """The coordinate permutation map: output j reads input sigma^{-1}(j)."""
    inv = sigma.inverse()
    return tuple(("in", inv(j)) for j in range(1, sigma.n + 1))


def compose_maps(outer, inner):
    """outer o inner as index maps (inner feeds outer)."""
    out = []
    for entry in outer:
        if entry[0] == "const":
            out.append(entry)
        else:
            out.append(inner[entry[1] - 1])
    return tuple(out)


def cycle_up(r, n):
    """The cycle r -> r+1 -> ... -> n -> r, fixing 1..r-1."""
    images = []
    for k in range(1, n + 1):
        if k < r:
            images.append(k)
        elif k < n:
            images.append(k + 1)
        else:
            images.append(r)
    return Permutation(images)


def sigma_tau_r_i(tau: Permutation, r: int, i: int) -> Permutation:
    """The unique permutation with sigma o delta_i^eps = delta_r^eps o tau.

    tau lives in Sigma_{n-1}; r, i in 1..n; the composition is of
    coordinate maps I^{n-1} -> I^n.  Satisfies the sign identity
    (-1)^{|sigma| + i} = (-1)^{|tau| + r}.
    """
    n = tau.n + 1
    if not (1 <= r <= n and 1 <= i <= n):
        raise ValueError("face indices out of range")
    tau_bar = Permutation(tau.images + (n,))
    return cycle_up(r, n).compose(tau_bar).compose(cycle_up(i, n).inverse())


# -- cubical sets --------------------------------------------------------------


class FiniteCubicalSet:
    """Finite table of cubes with explicit faces and degeneracy flags.

    ``cube_table``: dict p -> list of hashable cube names;
    ``face_table``: dict (cube, i, eps) -> cube of one dimension lower;
    ``degenerate``: set of cube names.  Each cube listed once, each face
    a listed cube and c o delta_i o delta_j = c o delta_{j+1} o delta_i
    (i <= j) are validated at construction.
    """

    def __init__(self, cube_table, face_table, degenerate=()):
        self.cube_table = {p: list(cs) for p, cs in cube_table.items() if cs}
        self.face_table = dict(face_table)
        self.degenerate = set(degenerate)
        self._dims = {c: p for p, cs in self.cube_table.items() for c in cs}
        self._validate()

    def _validate(self):
        listed = [c for cs in self.cube_table.values() for c in cs]
        if len(listed) != len(self._dims):
            twice = next(c for c in listed if listed.count(c) > 1)
            raise ValueError(f"cube {twice!r} is listed twice")
        for p, cs in self.cube_table.items():
            if p == 0:
                continue
            for c in cs:
                for i in range(1, p + 1):
                    for eps in (0, 1):
                        if (c, i, eps) not in self.face_table:
                            raise ValueError(f"missing face ({c}, {i}, {eps})")
                        if self._dims.get(self.face(c, i, eps)) != p - 1:
                            raise ValueError(f"face ({c}, {i}, {eps}) is not "
                                             f"a listed {p - 1}-cube")
        for p, cs in self.cube_table.items():
            if p < 2:
                continue
            for c in cs:
                for j in range(1, p):
                    for i in range(1, j + 1):
                        for eps, eta in itertools.product((0, 1), repeat=2):
                            left = self.face(self.face(c, i, eps), j, eta)
                            right = self.face(self.face(c, j + 1, eta), i, eps)
                            if left != right:
                                raise ValueError(
                                    f"cubical identity fails at {c}")

    def dims(self):
        return sorted(self.cube_table)

    def cubes(self, p):
        return self.cube_table.get(p, [])

    def nondegenerate_cubes(self, p):
        return [c for c in self.cubes(p) if c not in self.degenerate]

    def dim_of(self, cube):
        return self._dims[cube]

    def face(self, cube, i, eps):
        return self.face_table[(cube, i, eps)]

    def _faces(self, cube, n):
        return [self.face_table[cube, i, eps]
                for i in range(1, n + 1) for eps in (0, 1)]

    def _boundary(self, cube, n):
        """The faces in (i, eps) order, each with its sign (-1)^{i+eps}
        in the boundary, or with 0 if it is degenerate."""
        return [(f, 0 if f in self.degenerate
                 else (-1) ** (k // 2 + 1 + k % 2))
                for k, f in enumerate(self._faces(cube, n))]

    def is_degenerate(self, cube):
        return cube in self.degenerate

    def act(self, cube, sigma: Permutation):
        """Right action by coordinate permutation; only trivial here."""
        if sigma.n != self.dim_of(cube):
            raise ValueError("permutation has the wrong size")
        return self._act(cube, sigma.images)

    def _act(self, cube, inv):
        if inv != tuple(range(1, len(inv) + 1)):
            raise ValueError("this cubical set carries no symmetry structure")
        return cube, 1

    def _orbit(self, cube, n):
        """The signed orbit of an n-cube, defined only for trivial Sigma_n."""
        if n > 1:
            raise ValueError("this cubical set carries no symmetry structure")
        return {cube: 1}


def point() -> FiniteCubicalSet:
    return FiniteCubicalSet({0: ["*"]}, {})


def interval() -> FiniteCubicalSet:
    """The unit interval: two endpoints, the identity 1-cube, and the
    two degenerate constant 1-cubes."""
    cubes = {0: ["0", "1"], 1: ["id", "c0", "c1"]}
    faces = {("id", 1, 0): "0", ("id", 1, 1): "1",
             ("c0", 1, 0): "0", ("c0", 1, 1): "0",
             ("c1", 1, 0): "1", ("c1", 1, 1): "1"}
    return FiniteCubicalSet(cubes, faces, degenerate={"c0", "c1"})


def torus() -> FiniteCubicalSet:
    """The square with all sides glued: one vertex, two loops, one
    square; H has dimensions 1, 2, 1."""
    cubes = {0: ["v"], 1: ["a", "b"], 2: ["s"]}
    faces = {("a", 1, 0): "v", ("a", 1, 1): "v",
             ("b", 1, 0): "v", ("b", 1, 1): "v",
             ("s", 1, 0): "a", ("s", 1, 1): "a",
             ("s", 2, 0): "b", ("s", 2, 1): "b"}
    return FiniteCubicalSet(cubes, faces)


class ProductCubicalSet:
    """Product of two cubical sets, closed under coordinate permutations.

    A p-cube is (a, b, S) where S is the sorted tuple of coordinate
    positions feeding a; this is the smallest cube collection containing
    the products a x b and stable under faces and the permutation
    action.  Products of the same factors are equal; each keeps the
    faces and orbits it is asked for (``_face_entries``, ``_orbits``).
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._face_entries = {}
        self._orbits = {}

    def __eq__(self, other):
        return (isinstance(other, ProductCubicalSet)
                and (self.left, self.right) == (other.left, other.right))

    def __hash__(self):
        return hash((self.left, self.right))

    def dims(self):
        return sorted({p + q for p in self.left.dims()
                       for q in self.right.dims()})

    def cubes(self, p):
        return self._products(p, self.left.cubes, self.right.cubes)

    def nondegenerate_cubes(self, p):
        """``cubes(p)`` less the degenerate ones, in the same order: a
        product cube is degenerate when one of its factors is, so it is
        built from the factors' nondegenerate cubes."""
        return self._products(p, self.left.nondegenerate_cubes,
                              self.right.nondegenerate_cubes)

    def _products(self, p, left_cubes, right_cubes):
        """The p-cubes (a, b, S), a from left_cubes(|S|) and b from
        right_cubes(p - |S|)."""
        out = []
        right_dims = self.right.dims()
        for pa in self.left.dims():
            pb = p - pa
            if pb < 0 or pb not in right_dims:
                continue
            for a in left_cubes(pa):
                for b in right_cubes(pb):
                    for S in itertools.combinations(range(1, p + 1), pa):
                        out.append((a, b, S))
        return out

    def dim_of(self, cube):
        """p + q, for S a sorted p-subset of 1..p+q; else KeyError."""
        a, b, S = cube
        p = self.left.dim_of(a)
        n = p + self.right.dim_of(b)
        if len(S) != p or S != tuple(sorted(set(S) & set(range(1, n + 1)))):
            raise KeyError(cube)
        return n

    def is_degenerate(self, cube):
        a, b, _ = cube
        return self.left.is_degenerate(a) or self.right.is_degenerate(b)

    def face(self, cube, i, eps):
        n = self.dim_of(cube)
        if not (1 <= i <= n and eps in (0, 1)):
            raise KeyError((cube, i, eps))
        return self._boundary(cube, n)[2 * i - 2 + eps][0]

    def _faces(self, cube, n):
        return [f for f, _ in self._boundary(cube, n)]

    def _boundary(self, cube, n):
        """As for a finite set, kept: coordinate i of (a, b, S) is a's k-th
        if S[k - 1] = i, else b's (i - k)-th, k entries of S below.  Like
        an orbit, an entry depends on the cube alone, not on n."""
        entry = self._face_entries.get(cube)
        if entry is not None:
            return entry
        a, b, S = cube
        p, q = len(S), self.right.dim_of(b)
        fa, fb = self.left._boundary(a, p), self.right._boundary(b, q)
        # x * t: the factor's sign of a face made (-1)^{i+eps}, or 0 when
        # the factor's face or the other factor's cube is degenerate
        keep_a = 0 if self.right.is_degenerate(b) else 1
        keep_b = 0 if self.left.is_degenerate(a) else 1
        out, k = [], 0
        for i in range(1, p + q + 1):
            if k < p and S[k] == i:
                S2 = S[:k] + tuple([s - 1 for s in S[k + 1:]])
                t = keep_a * (-1) ** (i + k + 1)
                out += [((f, b, S2), x * t) for f, x in fa[2 * k:2 * k + 2]]
                k += 1
            else:
                S2, j = S[:k] + tuple([s - 1 for s in S[k:]]), 2 * (i - k)
                t = keep_b * (-1) ** k
                out += [((a, f, S2), x * t) for f, x in fb[j - 2:j]]
        entry = self._face_entries[cube] = tuple(out)
        return entry

    def act(self, cube, sigma: Permutation):
        """Right action by precomposition: the new cube reads its a-part
        at the positions sigma^{-1}(S), reordered inside each factor."""
        if sigma.n != self.dim_of(cube):
            raise ValueError("permutation has the wrong size")
        return self._act(cube, sigma.inverse().images)

    def _act(self, cube, inv):
        """``act`` for inv[j - 1] = sigma^{-1}(j); each factor gets the
        inverse tuple of the permutation sorting its new positions."""
        a, b, S = cube
        new_a = [inv[s - 1] for s in S]
        S2 = sorted(new_a)
        inv_a = tuple([bisect_left(S2, x) + 1 for x in new_a])
        inv_b = tuple([x - bisect_left(S2, x)
                       for j, x in enumerate(inv, 1) if j not in S])
        a2, sa = self.left._act(a, inv_a)
        b2, sb = self.right._act(b, inv_b)
        return (a2, b2, tuple(S2)), sa * sb

    def _orbit(self, cube, n):
        """Sum of (-1)^{|sigma|} (a, b, S) o sigma over Sigma_n, {cube: int}:
        Sigma_n = Sh(p, q) (Sigma_p x Sigma_q) gives orbit(a) x orbit(b)
        at each p-set T, signed by the shuffles placing S and T."""
        orbit = self._orbits.get(cube)
        if orbit is not None:
            return orbit
        a, b, S = cube
        p, q = len(S), self.right.dim_of(b)
        pairs = [(a2, b2, x * y) for a2, x in self.left._orbit(a, p).items()
                 for b2, y in self.right._orbit(b, q).items()]
        orbit = self._orbits[cube] = {
            (a2, b2, T): -x if (sum(S) + sum(T)) % 2 else x
            for T in itertools.combinations(range(1, p + q + 1), p)
            for a2, b2, x in pairs}
        return orbit


def interval_power(n: int):
    """n-fold product of intervals (n >= 1), fully symmetric."""
    if n < 1:
        raise ValueError(f"interval_power needs n >= 1, got {n}")
    x = interval()
    for _ in range(n - 1):
        x = ProductCubicalSet(x, interval())
    return x


# -- cubic chains --------------------------------------------------------------


class CubicChain:
    """Formal rational combination of cubes of one dimension: nonzero
    integer numerators ``num`` over one ``den > 0``, in lowest terms, so
    equal chains have equal (dim, den, num).  Degenerate cubes are zero;
    the constructor drops them and refuses a cube of another dimension
    or one the space does not hold."""

    def __init__(self, space, dim, coeffs):
        clean = {}
        for cube, coeff in coeffs.items():
            try:
                if space.dim_of(cube) != dim:
                    raise KeyError(cube)
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{cube!r} is not a {dim}-cube of the space")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff and not space.is_degenerate(cube):
                clean[cube] = coeff
        self.space, self.dim = space, dim
        # lowest terms: a prime of den divides some denominator fully
        self.den = den = lcm(*(x.denominator for x in clean.values()))
        self.num = {cube: x.numerator * (den // x.denominator)
                    for cube, x in clean.items()}

    @classmethod
    def _normal(cls, space, dim, num, den):
        """The chain num / den, for num nonzero integers on nondegenerate
        cubes of dimension dim and den > 0; reduced by one gcd."""
        g = gcd(den, *num.values())
        if g > 1:
            num, den = {cube: x // g for cube, x in num.items()}, den // g
        chain = cls.__new__(cls)
        chain.space, chain.dim, chain.num, chain.den = space, dim, num, den
        return chain

    @classmethod
    def of_cube(cls, space, cube):
        return cls(space, space.dim_of(cube), {cube: 1})

    @property
    def coeffs(self):
        """The chain as ``{cube: Fraction}``, built on each read."""
        return {cube: Fraction(x, self.den) for cube, x in self.num.items()}

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        if other.dim != self.dim or other.space != self.space:
            raise ValueError("chain mismatch")
        num = {cube: x * other.den for cube, x in self.num.items()}
        for cube, y in other.num.items():
            num[cube] = num.get(cube, 0) + y * self.den
        return CubicChain._normal(self.space, self.dim, {
            cube: x for cube, x in num.items() if x}, self.den * other.den)

    def scale(self, c):
        c = Fraction(c)
        return CubicChain._normal(self.space, self.dim, {
            cube: x * c.numerator for cube, x in self.num.items() if c},
            self.den * c.denominator)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, CubicChain) and self.dim == other.dim
                and self.den == other.den and self.num == other.num)


def _expand(chain, dim, terms, scale=1):
    """Sum of x * k / scale t over (c, x) in chain, (t, k) in terms(c), on
    the integer numerators; every t with k != 0 must be nondegenerate."""
    out = {}
    for cube, m in chain.num.items():
        for t, k in terms(cube):
            out[t] = out.get(t, 0) + k * m
    return CubicChain._normal(chain.space, dim, {
        t: v for t, v in out.items() if v}, chain.den * scale)


def boundary(chain: CubicChain) -> CubicChain:
    """d(c) = sum over (i, eps) of (-1)^{i+eps} c o delta_i^eps."""
    n, space = chain.dim, chain.space
    return _expand(chain, n - 1, lambda c: space._boundary(c, n))


def cross(cx: CubicChain, cy: CubicChain, product=None) -> CubicChain:
    """Cartesian concatenation of cubes, bilinearly extended, on the
    product of the two chains' spaces.  A caller may pass that product,
    so that its chains share one space's tables; any other raises
    ``ValueError``."""
    own = ProductCubicalSet(cx.space, cy.space)
    if product is None:
        product = own
    elif product != own:
        raise ValueError("cross: product is not the product of the chains' "
                         "spaces")
    S = tuple(range(1, cx.dim + 1))
    return CubicChain._normal(product, cx.dim + cy.dim, {
        (a, b, S): xa * xb for a, xa in cx.num.items()
        for b, xb in cy.num.items()}, cx.den * cy.den)


def act(chain: CubicChain, sigma: Permutation) -> CubicChain:
    return _expand(chain, chain.dim,
                   lambda cube: [chain.space.act(cube, sigma)])


def alt(chain: CubicChain) -> CubicChain:
    """The alternating projector (1/n!) sum of (-1)^{|sigma|} c o sigma."""
    n, space = chain.dim, chain.space
    if n <= 1:
        return chain
    return _expand(chain, n, lambda cube: space._orbit(cube, n).items(),
                   factorial(n))


def kappa(cx: CubicChain, cy: CubicChain, product=None) -> CubicChain:
    """The symmetrized cross product alt(c x d); product as in ``cross``."""
    return alt(cross(cx, cy, product))


def chain_complex(space) -> ChainComplex:
    """Boundary complex on the nondegenerate cubes."""
    basis = {}
    for p in space.dims():
        cubes = space.nondegenerate_cubes(p)
        if cubes:
            basis[p] = cubes
    dims = {p: len(cs) for p, cs in basis.items()}
    diff = {}
    for p in dims:
        if p - 1 not in dims:
            continue
        index = {c: k for k, c in enumerate(basis[p - 1])}
        cols = []
        for cube in basis[p]:
            bd = boundary(CubicChain.of_cube(space, cube))
            cols.append(sparse_row({index[f]: Fraction(x, bd.den)
                                    for f, x in bd.num.items()}))
        diff[p] = Matrix.from_cols(cols, dims[p - 1])
    return ChainComplex(dims, diff)
