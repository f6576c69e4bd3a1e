"""Symmetric groups acting on chain complexes.

Actions are stored on adjacent transpositions only; the defining
relations are validated once.  Every longer permutation p acts through
one product, R(p) = R(s o p) R(s) with s the first letter of its
adjacent word: s o p is shorter, and its map is cached.  Right-action
convention: matrices satisfy R(p o q) = R(q) * R(p).

Coinvariants are computed with the averaging idempotent (1/|G|) sum(g),
legitimate because the ground field has characteristic zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chain import ChainComplex, ChainMap, subcomplex
from .qlinalg import _Frozen, _setfield, image, sandwich_horner


class Permutation(_Frozen):
    """Bijection of {1..n}; images[k] is the image of k+1, kept as a
    tuple whatever sequence is given."""

    _fields = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        _setfield(self, "images", images)

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n, i):
        """The adjacent transposition s_i = (i i+1)."""
        imgs = list(range(1, n + 1))
        imgs[i - 1], imgs[i] = i + 1, i
        return Permutation(imgs)

    @classmethod
    def cycle_to_front(cls, n, q):
        """Sends 1 -> q and shifts 2..q down; fixes q+1..n."""
        imgs = [q] + list(range(1, q)) + list(range(q + 1, n + 1))
        return cls(imgs)

    @property
    def n(self):
        return len(self.images)

    def __call__(self, k):
        return self.images[k - 1]

    def compose(self, other):
        """self o other: apply other first."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self(other(k)) for k in range(1, self.n + 1))

    def inverse(self):
        inv = [0] * self.n
        for k in range(1, self.n + 1):
            inv[self(k) - 1] = k
        return Permutation(inv)

    def sign(self):
        seen = [False] * self.n
        sign = 1
        for k in range(self.n):
            if seen[k]:
                continue
            length = 0
            j = k
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def is_identity(self):
        return self.images == tuple(range(1, len(self.images) + 1))

    def adjacent_word(self):
        """Indices j with self = s_{j1} o s_{j2} o ... (function composition)."""
        imgs = list(self.images)
        word = []
        # bubble sort imgs back to the identity; each swap of positions
        # (j, j+1) multiplies by s_j on the right, so collecting the
        # swaps in order gives self = s_{j_1} o ... o s_{j_k} reversed.
        swaps = []
        changed = True
        while changed:
            changed = False
            for j in range(self.n - 1):
                if imgs[j] > imgs[j + 1]:
                    imgs[j], imgs[j + 1] = imgs[j + 1], imgs[j]
                    swaps.append(j + 1)
                    changed = True
        # imgs sorted: self o s_{k_1} o ... o s_{k_m} = id, so
        # self = s_{k_m} o ... o s_{k_1}
        return list(reversed(swaps))


def all_permutations(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class GroupAction:
    """Right action of Sigma_n on a chain complex, stored on generators.

    ``generators[j]`` is the chain map by which the adjacent
    transposition s_{j+1} = (j+1, j+2) acts.
    """

    __slots__ = ("n", "complex", "generators", "_cache")

    def __init__(self, n, complex, generators, check=True):
        self.n = n
        self.complex = complex
        self.generators = tuple(generators)
        if len(self.generators) != max(n - 1, 0):
            raise ValueError(f"expected {max(n - 1, 0)} generators for arity {n}")
        self._cache = {}
        if check:
            report = self.validate()
            if report:
                raise ValueError("; ".join(report))

    @classmethod
    def trivial(cls, n, complex):
        ident = ChainMap.identity(complex)
        return cls(n, complex, [ident] * max(n - 1, 0), check=False)

    def validate(self):
        violations = []
        gens = self.generators
        ident = ChainMap.identity(self.complex)
        for j, g in enumerate(gens):
            try:
                g.assert_chain()
            except ValueError as exc:
                violations.append(f"s_{j + 1} is not a chain map: {exc}")
            if g.compose(g) != ident:
                violations.append(f"s_{j + 1} squared is not the identity")
        for j in range(len(gens) - 1):
            a, b = gens[j], gens[j + 1]
            ab = a.compose(b)
            if ab.compose(a) != b.compose(ab):
                violations.append(f"braid relation fails at s_{j + 1}, s_{j + 2}")
        for j in range(len(gens)):
            for k in range(j + 2, len(gens)):
                a, b = gens[j], gens[k]
                if a.compose(b) != b.compose(a):
                    violations.append(
                        f"commutation fails at s_{j + 1}, s_{k + 1}")
        return violations

    def action(self, perm: Permutation) -> ChainMap:
        """Chain map by which ``perm`` acts; R(p o q) = R(q) R(p)."""
        if perm.n != self.n:
            raise ValueError("permutation arity mismatch")
        acc = self._cache.get(perm.images)
        if acc is None:
            word = perm.adjacent_word()
            if not word:
                acc = ChainMap.identity(self.complex)
            elif len(word) == 1:
                acc = self.generators[word[0] - 1]
            else:
                # perm = s_{w0} o rest  =>  R(perm) = R(rest) R(s_{w0})
                s = Permutation.transposition(self.n, word[0])
                acc = self.action(s.compose(perm)).compose(
                    self.generators[word[0] - 1])
            self._cache[perm.images] = acc
        return acc


def reynolds_average(left: GroupAction, right: GroupAction, blocks):
    """The Reynolds average (1/n!) sum_g R_left(g) x R_right(g)^-1 of each
    block x (degree -> Matrix from right's complex to left's).

    Coset recursion over Sigma_k / Sigma_{k-1}, k = n, ..., 2, with the
    transversal g_j = s_j s_{j+1} ... s_{k-1} (j <= k), which maps k to j
    as (j k) does.  As R(g_j) = R(s_{k-1}) ... R(s_j), stage k is a Horner
    sum over s_1, ..., s_{k-1}: x + R(s_{k-1}) (x + ...) R(s_{k-1}), over k
    (qlinalg.sandwich_horner, on integer rows)."""
    stages = [(k - 1, k) for k in range(left.n, 1, -1)]
    return {d: sandwich_horner(x, [(lg.block(d), rg.block(d)) for lg, rg
                                   in zip(left.generators, right.generators)],
                               stages)
            for d, x in blocks.items()}


class _IndexedModule:
    """Family of chain complexes with group actions, keyed by index."""

    def __init__(self, components):
        self.components = dict(components)
        for key, ga in self.components.items():
            if not isinstance(ga, GroupAction):
                raise TypeError(f"component {key} is not a GroupAction")

    def keys(self):
        return sorted(self.components)

    def component(self, key) -> ChainComplex:
        if key in self.components:
            return self.components[key].complex
        return ChainComplex.zero()

    def group_action(self, key) -> GroupAction:
        return self.components[key]

    def action(self, key, perm) -> ChainMap:
        if key not in self.components:
            zero = ChainComplex.zero()
            return ChainMap.zero_map(zero, zero)
        return self.components[key].action(perm)

    def dim(self, key, degree):
        return self.component(key).dim(degree)

    def is_zero(self):
        return all(ga.complex.is_zero() for ga in self.components.values())

    def validate_action(self):
        """Generator relations and chain-map property of every action."""
        report = []
        for key in self.keys():
            for v in self.components[key].validate():
                report.append(f"component {key}: {v}")
        return report


class SigmaModule(_IndexedModule):
    """Arity-indexed chain complexes with right symmetric-group actions."""

    def __init__(self, components):
        super().__init__(components)
        for key, ga in self.components.items():
            if key < 1:
                raise ValueError(f"arity {key} is below 1")
            if ga.n != key:
                raise ValueError(f"component {key} carries a Sigma_{ga.n} action")

    @property
    def arities(self):
        return self.keys()


def modular_dimension(g, l):
    """Induction grading for modular truncations: 3g - 3 + l."""
    return 3 * g - 3 + l


def is_stable(g, l):
    return g >= 0 and l >= 0 and 2 * g - 2 + l > 0


def stable_pairs_with_dimension(n):
    """All stable (g, l) with modular dimension exactly n."""
    out = []
    g = 0
    while True:
        l = n + 3 - 3 * g
        if l < 0:
            break
        if is_stable(g, l):
            out.append((g, l))
        g += 1
    return out


def stable_pairs_up_to(n):
    out = []
    for k in range(0, n + 1):
        out.extend(stable_pairs_with_dimension(k))
    return sorted(out)


class ModularSigmaModule(_IndexedModule):
    """(g, l)-indexed chain complexes, stable indices only."""

    def __init__(self, components):
        super().__init__(components)
        for (g, l), ga in self.components.items():
            if not is_stable(g, l):
                raise ValueError(f"unstable index ({g}, {l})")
            if ga.n != l:
                raise ValueError(f"component ({g}, {l}) carries a Sigma_{ga.n} action")

    @property
    def indices(self):
        return self.keys()


def validate_action(module) -> list:
    """Generator relations and chain-map property; empty report = ok."""
    return module.validate_action()


class Coinvariants:
    """Coinvariant complex with the projection and a canonical inclusion."""

    def __init__(self, complex, projection, inclusion):
        self.complex = complex
        self.projection = projection
        self.inclusion = inclusion


def coinvariants(complex: ChainComplex, elements) -> Coinvariants:
    """Image of the averaging idempotent, with projection and inclusion.

    ``elements`` lists every element of a finite group of chain maps of
    ``complex``, the identity included (or the image of every element of
    a group under a homomorphism: the average is the same).  Over the
    rationals the coinvariants of a finite group action are canonically
    the invariants, and we return that subcomplex: in each degree the
    span of the average's echelon basis.  The average is an idempotent
    onto that span, so the projection is the average's rows at the
    basis's pivots, with no solve.
    """
    if len(elements) == 1:
        return Coinvariants(complex, ChainMap.identity(complex),
                            ChainMap.identity(complex))
    avg = None
    for m in elements:
        avg = m if avg is None else avg + m
    avg = avg.scale(Fraction(1, len(elements)))
    spans = {i: image(avg.block(i)) for i in complex.dims}
    sub, incl = subcomplex(complex, {i: s.basis for i, s in spans.items()})
    proj = ChainMap(complex, sub, {
        i: avg.block(i).submatrix(s.pivots, range(complex.dim(i)))
        for i, s in spans.items()})
    return Coinvariants(sub, proj, incl)
