"""dg pseudo-operads (P(1) = 0) and dg modular operads.

Each structure map is one sparse table (``CompTable``), keyed by the
degrees and basis indices of its sources: two for a composition
(l, i, m) (resp. ((g,l), i, (h,m))), one for a contraction
((g,l), i, j).  ``structure_maps`` lists both kinds, so code that walks
structure maps is written once.

Composition convention: ``a o_i b`` glues leg i of a to b, and its legs
are a(1..i-1), the legs b keeps, a(i+1..l).  ``glue`` is the number of
b's legs the gluing uses up: 0 for an operad, where b's output is glued
and b keeps legs 1..m, and 1 for a modular operad, where b's leg 1 is
glued and b keeps legs 2..m.  Contractions xi_{ij} glue legs i and j of
the same element and keep the remaining legs in order.  Leg x of a.sigma
is leg sigma(x) of a.  Signs come from Koszul-reordering the glued slots
to adjacency; alternate conventions give isomorphic operads.

``validate`` states each axiom once for both kinds and checks it on
every basis instance whose targets stay inside the finite window:
- the Sigma-action of each component;
- each o_i is a chain map, equivariant in a and in the legs b keeps;
- nested and disjoint associativity;
- commutation, a o_i b = +-(b o_1 a.c_i).rho (modular operads only);
- each xi_{ij} is a chain map and equivariant, and two contractions
  commute;
- xi after o_i, with both contracted legs on a, both on b, or one on
  each (the two-edge axiom).  These are the o/xi axioms of
  Getzler-Kapranov, "Modular operads" (1998).
An operad has no contractions, so the last two items are empty for it.
Ideals are closed and checked under one list of images (``_Images``).
"""

from __future__ import annotations

import itertools

from .chain import (
    ChainComplex,
    ChainMap,
    is_weak_equivalence,
)
from .qlinalg import (
    F0,
    F1,
    Matrix,
    Subspace,
    _accumulate,
    _combine,
)
from .sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    is_stable,
    modular_dimension,
    stable_pairs_up_to,
)


# -- sparse structure-map tables ---------------------------------------------


class CompTable:
    """Sparse multilinear map from one or two graded spaces to a graded
    space: a composition a o_i b has two sources, a contraction xi_ij one.

    ``entries[degrees][indices]`` is a dict row -> coefficient, the image
    in degree ``sum(degrees)`` of the basis elements ``indices``, one per
    source, of those degrees.  Arguments name each source in turn by a
    degree and an index (or a sparse vector): ``add(d1, k1, d2, k2, row,
    coeff)`` for a composition, ``add(d, k, row, coeff)`` for a
    contraction.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = {}

    def add(self, *args):
        """add(d1, k1, ..., row, coeff): coeff more at row of the image."""
        row, coeff = args[-2:]
        if coeff == 0:
            return
        indices = args[1:-2:2]
        block = self.entries.setdefault(args[0:-2:2], {})
        cell = block.setdefault(indices, {})
        cell[row] = cell.get(row, F0) + coeff
        if cell[row] == 0:
            del cell[row]
            if not cell:
                del block[indices]

    def image(self, *args):
        """image(d1, k1, ...): the image of basis elements, as a dict
        row -> coeff."""
        return self.entries.get(args[::2], {}).get(args[1::2], {})

    def apply(self, *args):
        """apply(d1, v1, ...): the image of sparse vectors, as a sparse
        vector."""
        block = self.entries.get(args[::2])
        if not block:
            return ()
        # (indices, numerator, denominator) of each product of entries
        terms = [((k,), c.numerator, c.denominator) for k, c in args[1]]
        for v in args[3::2]:
            terms = [(ks + (k,), n * c.numerator, m * c.denominator)
                     for ks, n, m in terms for k, c in v]
        return _accumulate((), [(n, m, block[ks].items())
                                for ks, n, m in terms if ks in block])

    def is_zero(self):
        return not any(self.entries.values())


# -- leg relabels for the axioms ----------------------------------------------


def _comp_legs(l: int, i: int, m: int, glue: int) -> list:
    """The legs of a o_i b in order: ``(0, x)`` is a's leg x and ``(1, y)``
    b's leg y.  a's leg i and b's first ``glue`` legs are glued away."""
    return ([(0, x) for x in range(1, i)]
            + [(1, y) for y in range(glue + 1, m + 1)]
            + [(0, x) for x in range(i + 1, l + 1)])


def _relabel(legs, target) -> Permutation:
    """The permutation sending the position of each leg in ``legs`` to its
    position in ``target``."""
    return Permutation(target.index(leg) + 1 for leg in legs)


def comp_relabel(sigma: Permutation, i: int, tau: Permutation,
                 glue: int) -> Permutation:
    """(a.sigma) o_i (b.tau) = (a o_{sigma(i)} b) . (this permutation);
    tau fixes b's glued legs.  Leg x of a.sigma is leg sigma(x) of a."""
    l, m = sigma.n, tau.n
    moved = [(f, sigma(x) if f == 0 else tau(x))
             for f, x in _comp_legs(l, i, m, glue)]
    return _relabel(moved, _comp_legs(l, sigma(i), m, glue))


def modular_contr_relabel(sigma: Permutation, i: int, j: int):
    """xi_{ij}(a.sigma) = xi_{sigma(i) sigma(j)}(a) . rho; returns
    (sigma(i), sigma(j), rho)."""
    l = sigma.n
    lhs_rest = [p for p in range(1, l + 1) if p not in (i, j)]
    si, sj = sigma(i), sigma(j)
    rhs_rest = [p for p in range(1, l + 1) if p not in (si, sj)]
    images = [rhs_rest.index(sigma(r)) + 1 for r in lhs_rest]
    return si, sj, Permutation(images)


def modular_commutation_relabel(i: int, l: int, m: int) -> Permutation:
    """a o_i b = sign * (b o_1 (a.cycle_to_front(i))) . (this permutation)."""
    images = []
    for p in range(1, l + m - 1):
        if p < i:
            images.append(p)
        elif p <= i + m - 2:
            images.append(l + p - i)
        else:
            images.append(p - m + 1)
    return Permutation(images)


# -- operads ------------------------------------------------------------------


class _OperadCore:
    """Shared structure of operads and modular operads.

    The subclasses own the key arithmetic: ``keys()`` lists the window,
    ``legs(key)`` is the number of legs (the symmetric group acting on
    the component), ``level(key)`` is the grading that truncations cut
    at, ``window`` is the top level, and ``remake`` builds an operad of
    the same kind.  An operad has no contractions (``contr_keys()`` is
    empty), so code written against this interface serves both kinds.
    ``glue`` is the number of legs of the second factor that a
    composition uses up: 0 for an operad (b's output is glued to a's
    input i), 1 for a modular operad (b's leg 1 is glued to a's leg i).
    """

    def __init__(self, module, comp, contr, cut=None):
        self.module = module
        self.comp = comp
        self.contr = contr
        self.cut = cut
        self.free = None  # the free builder, set by _FreeBuilder.finish

    def component(self, key) -> ChainComplex:
        return self.module.component(key)

    def group_action(self, key):
        return self.module.components.get(key)

    def action(self, key, perm) -> ChainMap:
        return self.module.action(key, perm)

    def comp_table(self, key1, i, key2) -> CompTable:
        return self.comp.get((key1, i, key2), _EMPTY)

    def compose(self, key1, i, key2, d1, v1, d2, v2):
        """Vector-level composition of sparse vectors."""
        return self.comp_table(key1, i, key2).apply(d1, v1, d2, v2)

    def contr_table(self, key, i, j) -> CompTable:
        if i == j:
            raise ValueError("contraction needs distinct legs")
        if i > j:
            i, j = j, i
        return self.contr.get((key, i, j), _EMPTY)

    def contract(self, key, i, j, d, v):
        return self.contr_table(key, i, j).apply(d, v)

    def structure_maps(self):
        """Compositions, then contractions, each as (name, tables, keys,
        sources, target, apply): ``keys()`` lists the in-window trips,
        ``sources(*trip)`` the component keys a map reads and
        ``target(*trip)`` the one it writes, and ``apply(*trip, d1, v1,
        ...)`` is the map on sparse vectors of the sources."""
        return (("composition", self.comp, self.comp_keys,
                 lambda key1, i, key2: (key1, key2), self.comp_target,
                 self.compose),
                ("contraction", self.contr, self.contr_keys,
                 lambda key, i, j: (key,),
                 lambda key, i, j: self.contr_target(key), self.contract))

    def is_zero(self):
        return all(self.component(k).is_zero() for k in self.keys())

    def total_dims(self):
        return {k: dict(self.component(k).dims) for k in self.keys()
                if not self.component(k).is_zero()}


_EMPTY = CompTable()


class DGOperad(_OperadCore):
    """dg pseudo-operad with P(1) = 0, stored on arities 2..max_arity."""

    kind = "operad"
    glue = 0

    def __init__(self, module: SigmaModule, comp, max_arity, cut=None):
        super().__init__(module, comp, {}, cut)
        self.max_arity = max_arity
        for l in module.keys():
            if l < 2 or l > max_arity:
                raise ValueError(f"arity {l} outside window [2, {max_arity}]")

    def keys(self):
        return list(range(2, self.max_arity + 1))

    @property
    def arities(self):
        return self.keys()

    @property
    def window(self):
        return self.max_arity

    def legs(self, l):
        return l

    def level(self, l):
        return l

    def remake(self, actions, comp, contr, window, cut):
        return DGOperad(SigmaModule(actions, check=False), comp, window,
                        cut=cut)

    def comp_target(self, l, i, m):
        return l + m - 1

    def comp_keys(self):
        out = []
        for l in range(2, self.max_arity + 1):
            for m in range(2, self.max_arity + 1):
                if l + m - 1 <= self.max_arity:
                    for i in range(1, l + 1):
                        out.append((l, i, m))
        return out

    def contr_keys(self):
        return []


class ModularOperad(_OperadCore):
    """dg modular operad on the window of modular dimension <= max_dim."""

    kind = "modular"
    glue = 1

    def __init__(self, module: ModularSigmaModule, comp, contr, max_dim, cut=None):
        super().__init__(module, comp, contr, cut)
        self.max_dim = max_dim
        for (g, l) in module.keys():
            if modular_dimension(g, l) > max_dim:
                raise ValueError(f"index ({g},{l}) outside window")

    def keys(self):
        return stable_pairs_up_to(self.max_dim)

    @property
    def indices(self):
        return self.keys()

    @property
    def window(self):
        return self.max_dim

    def legs(self, key):
        return key[1]

    def level(self, key):
        return modular_dimension(*key)

    def remake(self, actions, comp, contr, window, cut):
        return ModularOperad(ModularSigmaModule(actions, check=False), comp,
                             contr, window, cut=cut)

    def comp_target(self, key1, i, key2):
        (g, l), (h, m) = key1, key2
        return (g + h, l + m - 2)

    def comp_keys(self):
        out = []
        for key1 in self.indices:
            g, l = key1
            for key2 in self.indices:
                h, m = key2
                if l < 1 or m < 1:
                    continue
                tg, tl = g + h, l + m - 2
                if not is_stable(tg, tl):
                    continue
                if modular_dimension(tg, tl) <= self.max_dim:
                    for i in range(1, l + 1):
                        out.append((key1, i, key2))
        return out

    def contr_target(self, key):
        g, l = key
        return (g + 1, l - 2)

    def contr_keys(self):
        out = []
        for (g, l) in self.indices:
            if l < 2:
                continue
            tg, tl = g + 1, l - 2
            if not is_stable(tg, tl):
                continue
            if modular_dimension(tg, tl) <= self.max_dim:
                for i in range(1, l + 1):
                    for j in range(i + 1, l + 1):
                        out.append(((g, l), i, j))
        return out


# -- validation ---------------------------------------------------------------


def _units(c: ChainComplex) -> list:
    """(degree, unit vector) for each basis element of c."""
    return [(d, ((k, F1),)) for d in c.support for k in range(c.dim(d))]


def _koszul(v, d1, d2):
    """(-1)^(d1 d2) v."""
    return tuple((j, -x) for j, x in v) if d1 % 2 and d2 % 2 else v


def _apply_all(block, items):
    """``[block(d).apply(v) for d, v in items]``, with one
    ``Matrix.images`` call per degree."""
    by_degree = {}
    for d, v in items:
        by_degree.setdefault(d, []).append(v)
    images = {d: iter(block(d).images(vs)) for d, vs in by_degree.items()}
    return [next(images[d]) for d, _ in items]


def _collapse(p, a, b):
    """The position of leg p once legs a and b are contracted away."""
    return p - sum(1 for x in (a, b) if x < p)


class _Validator:
    """Each axiom stated once, checked on every in-window basis instance.

    Compositions read ``op.glue`` (the legs of b that a o_i b uses up);
    contractions, compatibility and the two-edge axiom run over
    ``op.contr_keys()``, which is empty for an operad; commutation needs
    b's glued leg to be an ordinary leg, so it runs only when glue is 1.
    """

    def __init__(self, op, max_report):
        self.op = op
        self.glue = op.glue
        self.report = []
        self.max_report = max_report
        comps = op.comp_keys()
        # composable (key1, key2), in the order of comp_keys
        self.pairs = dict.fromkeys((key1, key2) for key1, _, key2 in comps)
        self.contracted = {key for key, _, _ in op.contr_keys()}
        factors = {key for pair in self.pairs for key in pair}
        self.units = {key: _units(op.component(key))
                      for key in factors | self.contracted}

    def fail(self, msg):
        if len(self.report) < self.max_report:
            self.report.append(msg)

    def done(self):
        return len(self.report) >= self.max_report

    # compositions ------------------------------------------------------------

    def compositions(self, key1, key2):
        """Every axiom about a o_i b, for each leg i of a."""
        op = self.op
        units1, units2 = self.units[key1], self.units[key2]
        if not units1 or not units2:
            return
        # (d1, a, d2, b, a o_i b) over the basis pairs, by i
        prods = {i: [(d1, a, d2, b, op.compose(key1, i, key2, d1, a, d2, b))
                     for d1, a in units1 for d2, b in units2]
                 for i in range(1, op.legs(key1) + 1)}
        for i in prods:
            self.chain_map(key1, i, key2, prods[i])
            for j in range(1, op.legs(key1)):
                self.equivariance(key1, i, key2, 0, j, prods)
            for j in range(self.glue + 1, op.legs(key2)):
                self.equivariance(key1, i, key2, 1, j, prods)
            if self.glue:
                self.commutation(key1, i, key2, prods[i])
            mid = op.comp_target(key1, i, key2)
            for key3 in op.keys():
                if self.done():
                    return
                if (mid, key3) in self.pairs and self.units[key3]:
                    self.nested_associativity(key1, i, key2, key3, prods[i])
                    self.disjoint_associativity(key1, i, key2, key3, prods[i])
            if mid in self.contracted:
                if key1 in self.contracted:
                    self.compatibility_first(key1, i, key2, prods[i])
                if key2 in self.contracted:
                    self.compatibility_second(key1, i, key2, prods[i])
                self.two_edge(key1, i, key2, prods[i])

    def chain_map(self, key1, i, key2, prods):
        """d(a o_i b) = da o_i b + (-1)^|a| a o_i db."""
        op = self.op
        c1, c2 = op.component(key1), op.component(key2)
        ct = op.component(op.comp_target(key1, i, key2))
        das = _apply_all(c1.d, [(d1, a) for d1, a, _, _, _ in prods])
        dbs = _apply_all(c2.d, [(d2, b) for _, _, d2, b, _ in prods])
        dabs = _apply_all(ct.d, [(d1 + d2, ab) for d1, _, d2, _, ab in prods])
        for (d1, a, d2, b, ab), da, db, dab in zip(prods, das, dbs, dabs):
            rhs = _combine(
                op.compose(key1, i, key2, d1 - 1, da, d2, b),
                _koszul(op.compose(key1, i, key2, d1, a, d2 - 1, db), d1, 1),
                F1)
            if dab != rhs:
                self.fail(f"composition {key1} o_{i} {key2} is not a chain map "
                          f"at degrees ({d1},{d2})")
                return

    def equivariance(self, key1, i, key2, factor, j, prods):
        """(a.sigma) o_i (b.tau) = (a o_{sigma(i)} b).rho with s_j as sigma
        (factor 0) or as tau (factor 1, j > glue)."""
        op = self.op
        keys = (key1, key2)
        perms = [Permutation.identity(op.legs(key)) for key in keys]
        perms[factor] = Permutation.transposition(op.legs(keys[factor]), j)
        sigma, tau = perms
        act = op.action(keys[factor], perms[factor])
        act_t = op.action(op.comp_target(key1, i, key2),
                          comp_relabel(sigma, i, tau, self.glue))
        vectors = [[u for _, u in self.units[key]] for key in keys]
        vectors[factor] = _apply_all(act.block, self.units[keys[factor]])
        rhs = _apply_all(act_t.block, [
            (d1 + d2, ab) for d1, _, d2, _, ab in prods[sigma(i)]])
        for (a, b), (d1, _, d2, _, _), ab in zip(itertools.product(*vectors),
                                                 prods[sigma(i)], rhs):
            if op.compose(key1, i, key2, d1, a, d2, b) != ab:
                self.fail(f"equivariance ({('first', 'second')[factor]} "
                          f"factor, s_{j}) fails for {key1} o_{i} {key2}")
                return

    def commutation(self, key1, i, key2, prods):
        """a o_i b = (-1)^{|a||b|} (b o_1 (a.cycle_to_front(i))).rho."""
        op = self.op
        l, m = op.legs(key1), op.legs(key2)
        act = op.action(key1, Permutation.cycle_to_front(l, i))
        act_t = op.action(op.comp_target(key1, i, key2),
                          modular_commutation_relabel(i, l, m))
        acted = _apply_all(act.block, [(d1, a) for d1, a, _, _, _ in prods])
        rhs = _apply_all(act_t.block, [
            (d1 + d2, op.compose(key2, 1, key1, d2, b, d1, a_c))
            for (d1, _, d2, b, _), a_c in zip(prods, acted)])
        for (d1, _, d2, _, ab), ba in zip(prods, rhs):
            if ab != _koszul(ba, d1, d2):
                self.fail(f"commutation fails for {key1} o_{i} {key2} "
                          f"at degrees ({d1},{d2})")
                return

    def nested_associativity(self, key1, i, key2, key3, prods):
        """(a o_i b) o_{i+q-1-glue} c = a o_i (b o_q c) for each leg q
        that b keeps."""
        op, glue = self.op, self.glue
        mid = op.comp_target(key1, i, key2)
        for q in range(glue + 1, op.legs(key2) + 1):
            bc_key = op.comp_target(key2, q, key3)
            for (d1, a, d2, b, ab), (d3, c) in itertools.product(
                    prods, self.units[key3]):
                lhs = op.compose(mid, i + q - 1 - glue, key3, d1 + d2, ab,
                                 d3, c)
                bc = op.compose(key2, q, key3, d2, b, d3, c)
                if lhs != op.compose(key1, i, bc_key, d1, a, d2 + d3, bc):
                    self.fail(f"nested associativity fails: {key1} o_{i} "
                              f"{key2}, q={q}, {key3}")
                    return

    def disjoint_associativity(self, key1, i, key2, key3, prods):
        """(a o_i b) o_p c = (-1)^{|b||c|} (a o_p c) o_{i+n-1-glue} b for
        a's leg p < i, with n the legs of c.  The case p > i is this one
        with b and c swapped."""
        op, glue = self.op, self.glue
        mid = op.comp_target(key1, i, key2)
        n = op.legs(key3)
        for p in range(1, i):
            ac_key = op.comp_target(key1, p, key3)
            for (d1, a, d2, b, ab), (d3, c) in itertools.product(
                    prods, self.units[key3]):
                lhs = op.compose(mid, p, key3, d1 + d2, ab, d3, c)
                ac = op.compose(key1, p, key3, d1, a, d3, c)
                rhs = op.compose(ac_key, i + n - 1 - glue, key2, d1 + d3, ac,
                                 d2, b)
                if lhs != _koszul(rhs, d2, d3):
                    self.fail(f"disjoint associativity fails: {key1} o_{i} "
                              f"{key2}, p={p}, {key3}")
                    return

    def compatibility_first(self, key1, i, key2, prods):
        """xi_{P,Q}(a o_i b) = xi_{pq}(a) o_{i'} b for a's legs p and q at
        positions P and Q in a o_i b, with i' the position of leg i once
        p and q are gone."""
        op = self.op
        mid = op.comp_target(key1, i, key2)
        xkey = op.contr_target(key1)
        legs = _comp_legs(op.legs(key1), i, op.legs(key2), self.glue)
        free = [x for f, x in legs if f == 0]
        for p, q in itertools.combinations(free, 2):
            P, Q = legs.index((0, p)) + 1, legs.index((0, q)) + 1
            for d1, a, d2, b, ab in prods:
                xa = op.contract(key1, p, q, d1, a)
                if op.contract(mid, P, Q, d1 + d2, ab) != op.compose(
                        xkey, _collapse(i, p, q), key2, d1, xa, d2, b):
                    self.fail(f"compatibility (xi on first factor) fails "
                              f"{key1} o_{i} {key2}, pair ({p},{q})")
                    return

    def compatibility_second(self, key1, i, key2, prods):
        """xi_{P,Q}(a o_i b) = a o_i xi_{pq}(b) for b's legs p and q at
        positions P and Q in a o_i b."""
        op = self.op
        mid = op.comp_target(key1, i, key2)
        xkey = op.contr_target(key2)
        legs = _comp_legs(op.legs(key1), i, op.legs(key2), self.glue)
        free = [y for f, y in legs if f == 1]
        for p, q in itertools.combinations(free, 2):
            P, Q = legs.index((1, p)) + 1, legs.index((1, q)) + 1
            for d1, a, d2, b, ab in prods:
                xb = op.contract(key2, p, q, d2, b)
                if op.contract(mid, P, Q, d1 + d2, ab) != op.compose(
                        key1, i, xkey, d1, a, d2, xb):
                    self.fail(f"compatibility (xi on second factor) fails "
                              f"{key1} o_{i} {key2}, pair ({p},{q})")
                    return

    def two_edge(self, key1, i, key2, prods):
        """xi_{P,Q}(a o_i b) = xi_{I,J}(a o_p (b.c_q)).rho for a's leg p
        and b's leg q (at positions P and Q), with c_q = cycle_to_front(q):
        on the right b's leg q is glued to a's leg p, and a's leg i (at I)
        is contracted with b's leg 1 (at J); rho sends the position of each
        remaining leg on the left to its position on the right.  Only
        modular operads contract, so b's glued leg is its leg 1."""
        op = self.op
        l, m = op.legs(key1), op.legs(key2)
        mid = op.comp_target(key1, i, key2)
        left = _comp_legs(l, i, m, 1)
        for p, q in itertools.product(range(1, l + 1), range(2, m + 1)):
            if p == i:
                continue
            cyc = Permutation.cycle_to_front(m, q)
            right = [(f, cyc(x) if f else x) for f, x in _comp_legs(l, p, m, 1)]
            P, Q = left.index((0, p)) + 1, left.index((1, q)) + 1
            I, J = right.index((0, i)) + 1, right.index((1, 1)) + 1
            rho = _relabel([leg for leg in left if leg not in ((0, p), (1, q))],
                           [leg for leg in right
                            if leg not in ((0, i), (1, 1))])
            act = op.action(key2, cyc)
            act_t = op.action(op.contr_target(mid), rho)
            acted = _apply_all(act.block,
                               [(d2, b) for _, _, d2, b, _ in prods])
            rhs = _apply_all(act_t.block, [
                (d1 + d2, op.contract(mid, I, J, d1 + d2, op.compose(
                    key1, p, key2, d1, a, d2, b_c)))
                for (d1, a, d2, _, _), b_c in zip(prods, acted)])
            for (d1, _, d2, _, ab), xi in zip(prods, rhs):
                if op.contract(mid, P, Q, d1 + d2, ab) != xi:
                    self.fail(f"two-edge axiom fails: {key1} o_{i} {key2}, "
                              f"legs ({p},{q})")
                    return

    # contractions ------------------------------------------------------------

    def contractions(self, key, i, j):
        """Every axiom about xi_{ij} alone."""
        if self.units[key]:
            self.contraction_chain_map(key, i, j)
            self.contraction_equivariance(key, i, j)
            if self.op.contr_target(key) in self.contracted:
                self.double_contractions(key, i, j)

    def contraction_chain_map(self, key, i, j):
        """d xi_{ij} = xi_{ij} d."""
        op = self.op
        c = op.component(key)
        ct = op.component(op.contr_target(key))
        units = self.units[key]
        lhs = _apply_all(ct.d, [(d, op.contract(key, i, j, d, v))
                                for d, v in units])
        for (d, _), x, dv in zip(units, lhs, _apply_all(c.d, units)):
            if x != op.contract(key, i, j, d - 1, dv):
                self.fail(f"contraction xi_({i},{j}) on {key} is not a chain map")
                return

    def contraction_equivariance(self, key, i, j):
        """xi_{ij}(v.sigma) = xi_{sigma(i) sigma(j)}(v).rho for sigma = s_g."""
        op = self.op
        l = op.legs(key)
        for g in range(1, l):
            sigma = Permutation.transposition(l, g)
            si, sj, rho = modular_contr_relabel(sigma, i, j)
            act = op.action(key, sigma)
            act_t = op.action(op.contr_target(key), rho)
            units = self.units[key]
            rhs = _apply_all(act_t.block, [
                (d, op.contract(key, si, sj, d, v)) for d, v in units])
            acted = _apply_all(act.block, units)
            for (d, _), v_s, x in zip(units, acted, rhs):
                if op.contract(key, i, j, d, v_s) != x:
                    self.fail(f"contraction equivariance fails: {key}, "
                              f"xi_({i},{j}), s_{g}")
                    return

    def double_contractions(self, key, i, j):
        """Contracting (i, j) then (i2, j2) equals the other order."""
        op = self.op
        tkey = op.contr_target(key)
        rest = [p for p in range(1, op.legs(key) + 1) if p not in (i, j)]
        for i2, j2 in itertools.combinations(rest, 2):
            for d, v in self.units[key]:
                lhs = op.contract(tkey, _collapse(i2, i, j), _collapse(j2, i, j),
                                  d, op.contract(key, i, j, d, v))
                rhs = op.contract(tkey, _collapse(i, i2, j2),
                                  _collapse(j, i2, j2), d,
                                  op.contract(key, i2, j2, d, v))
                if lhs != rhs:
                    self.fail(f"double contractions disagree on {key}: "
                              f"({i},{j}) vs ({i2},{j2})")
                    return


def validate(op, max_report=25) -> list:
    """The axioms of op's kind on every in-window basis instance; an empty
    report means op is valid."""
    v = _Validator(op, max_report)
    v.report.extend(f"underlying module: {m}"
                    for m in op.module.validate_action())
    for key1, key2 in v.pairs:
        if v.done():
            return v.report
        v.compositions(key1, key2)
    for trip in op.contr_keys():
        if v.done():
            return v.report
        v.contractions(*trip)
    return v.report


# -- morphisms ----------------------------------------------------------------


class OperadMorphism:
    """Componentwise chain maps commuting with all structure maps."""

    def __init__(self, src, dst, maps):
        self.src = src
        self.dst = dst
        self.maps = maps

    def block(self, key) -> ChainMap:
        if key in self.maps:
            return self.maps[key]
        return ChainMap.zero_map(self.src.component(key), self.dst.component(key))

    @classmethod
    def identity(cls, op):
        return cls(op, op, {k: ChainMap.identity(op.component(k))
                            for k in op.keys() if not op.component(k).is_zero()})

    def compose(self, other):
        maps = {}
        keys = set(self.maps) | set(other.maps)
        for k in keys:
            maps[k] = self.block(k).compose(other.block(k))
        return OperadMorphism(other.src, self.dst, maps)

    def is_iso(self):
        return all(self.block(k).is_iso() for k in self.src.keys())

    def validate(self, max_report=25) -> list:
        report = []
        src, dst = self.src, self.dst
        for key in src.keys():
            f = self.block(key)
            try:
                f.assert_chain()
            except ValueError as exc:
                report.append(f"component {key}: not a chain map ({exc})")
            ga = src.group_action(key)
            n_gens = len(ga.generators) if ga else 0
            for j in range(1, n_gens + 1):
                sigma = Permutation.transposition(src.legs(key), j)
                lhs = f.compose(src.action(key, sigma))
                rhs = dst.action(key, sigma).compose(f)
                if lhs != rhs:
                    report.append(f"component {key}: not equivariant at s_{j}")
            if len(report) >= max_report:
                return report
        # key -> ((d, v), (d, f(v))) for each basis vector v of degree d
        images = {}
        for (name, _, keys, sources, target, apply), (*_, dst_apply) in zip(
                src.structure_maps(), dst.structure_maps()):
            for trip in keys():
                ends = sources(*trip)
                for key in ends:
                    if key not in images:
                        f = self.block(key)
                        images[key] = [((d, v), (d, f.block(d).apply(v)))
                                       for d, v in _units(src.component(key))]
                ft = self.block(target(*trip))
                for units in itertools.product(*map(images.get, ends)):
                    a, fa = zip(*units)
                    lhs = ft.block(sum(d for d, _ in a)).apply(
                        apply(*trip, *itertools.chain(*a)))
                    if lhs != dst_apply(*trip, *itertools.chain(*fa)):
                        report.append(f"does not commute with {name} {trip}")
                        break
                if len(report) >= max_report:
                    return report
        return report


def weak_equivalence_test(f: OperadMorphism):
    """Componentwise homology-isomorphism check.

    Returns (verdict, per-component homology dimension table).
    """
    table = {}
    for key in f.src.keys():
        blk = f.block(key)
        table[key] = {"source": dict(blk.src.homology.dims),
                      "target": dict(blk.dst.homology.dims),
                      "isomorphism": is_weak_equivalence(blk)}
    return all(row["isomorphism"] for row in table.values()), table


# -- structure transfer -------------------------------------------------------


def transfer(op, complexes, section, project):
    """The operad of op's kind on new component complexes, with op's
    structure maps carried across.

    ``complexes``: key -> ChainComplex, the nonzero new components;
    ``section(key, d)``: the matrix whose columns are the new basis of
    degree d inside op's component; ``project(key, d, m)``: the matrix
    of coordinates in the new basis of the columns of m (the sparse
    images of the new basis vectors under a structure map), or None
    when a column lies outside that basis.  It is
    also called for target keys and degrees outside ``complexes``, where
    the new basis is empty, so every image is checked.  Raises
    AssertionError when the action, a composition or a contraction
    leaves the new complexes.
    """
    basis = {key: {d: section(key, d) for d in c.dims}
             for key, c in complexes.items()}
    # key -> degree -> (d, v) for each new basis vector v
    units = {key: {d: [(d, v) for v in m.columns()] for d, m in per.items()}
             for key, per in basis.items()}
    actions = {}
    for key, c in complexes.items():
        n = op.legs(key)
        gens = []
        for act in op.group_action(key).generators:
            blocks = {}
            for d in c.dims:
                blocks[d] = project(key, d, act.block(d) * basis[key][d])
                if blocks[d] is None:
                    raise AssertionError(f"not action-closed at {key}")
            gens.append(ChainMap(c, c, blocks, check=False))
        actions[key] = GroupAction(n, c, gens, check=False)
    tables = []
    for name, _, keys, sources, target, apply in op.structure_maps():
        carried = {}
        for trip in keys():
            ends = sources(*trip)
            if not all(key in complexes for key in ends):
                continue
            tkey = target(*trip)
            table = CompTable()
            # each choice of source degrees is one block of the table
            for choice in itertools.product(*(units[key].items()
                                              for key in ends)):
                degrees = [d for d, _ in choice]
                block = [us for _, us in choice]
                images = [apply(*trip, *itertools.chain(*args))
                          for args in itertools.product(*block)]
                coords = project(tkey, sum(degrees), Matrix.from_cols(
                    images, rows=op.component(tkey).dim(sum(degrees))))
                if coords is None:
                    raise AssertionError(f"closure fails at {name} {trip}")
                cells = list(itertools.product(*map(range, map(len, block))))
                for row, line in enumerate(coords.sparse):
                    for col, coeff in line:
                        table.add(*itertools.chain(*zip(degrees, cells[col])),
                                  row, coeff)
            if not table.is_zero():
                carried[trip] = table
        tables.append(carried)
    comp, contr = tables
    return op.remake(actions, comp, contr, op.window, op.cut)


# -- homology operad ----------------------------------------------------------


def homology_operad(op):
    """The operad H(P): zero differentials, induced structure maps.

    Raises AssertionError when a structure map sends cycles to a
    non-cycle."""
    records = {key: op.component(key).homology for key in op.keys()}

    def classify(key, d, m):
        rec = records[key]
        if not (rec.complex.d(d) * m).is_zero():
            return None
        return rec.classifier(d) * m

    return transfer(op, {key: rec.homology_complex()
                         for key, rec in records.items() if rec.dims},
                    lambda key, d: records[key].rep_matrix(d), classify)


# -- truncations --------------------------------------------------------------


def truncate(op, n):
    """t_n: restrict to levels <= n (arity, resp. modular dimension)."""
    keys = {k for k in op.keys() if op.level(k) <= n}
    module_components = {k: ga for k, ga in op.module.components.items()
                         if k in keys}
    comp = {trip: t for trip, t in op.comp.items()
            if trip[0] in keys and trip[2] in keys
            and op.comp_target(*trip) in keys}
    contr = {trip: t for trip, t in op.contr.items()
             if trip[0] in keys and op.contr_target(trip[0]) in keys}
    return op.remake(module_components, comp, contr, n, n)


def extend_by_zero(op, window=None):
    """t_*: extend a truncated operad by zero components."""
    if op.cut is None:
        raise ValueError("extend_by_zero expects a truncated operad")
    window = window if window is not None else op.cut
    return op.remake(op.module.components, dict(op.comp), dict(op.contr),
                     window, None)


# -- ideals and quotients -----------------------------------------------------


class OperadIdeal:
    """Per-component, per-degree spans, each kept as its echelon."""

    def __init__(self, operad, spans):
        self.operad = operad
        self.spans = spans  # key -> dict degree -> Subspace of the component

    def subspace(self, key, degree) -> Subspace:
        sub = self.spans.get(key, {}).get(degree)
        if sub is None:
            return Subspace.zero(self.operad.component(key).dim(degree))
        return sub

    def dim(self, key, degree):
        return self.subspace(key, degree).dim


class _Images:
    """The images that an ideal holding a vector must also hold: its d,
    each s_j, its composition with every basis element on either side,
    and each contraction.  Each comes as (phrase, where, key, degree,
    vector); the phrase and place name the image in a report."""

    def __init__(self, op):
        self.op = op
        self.as_first, self.as_second, self.contr = {}, {}, {}
        for trip in op.comp_keys():
            self.as_first.setdefault(trip[0], []).append(trip)
            self.as_second.setdefault(trip[2], []).append(trip)
        for trip in op.contr_keys():
            self.contr.setdefault(trip[0], []).append(trip)
        self.units = {key: _units(op.component(key))
                      for key in set(self.as_first) | set(self.as_second)}

    def __call__(self, key, degree, vecs):
        """The images of each vector of vecs in turn; the d and s_j
        images of all of them come from one ``Matrix.images`` per block."""
        op = self.op
        blocks = [op.component(key).d(degree)] + [
            g.block(degree) for g in op.group_action(key).generators]
        for vec, dv, *acted in zip(vecs, *(m.images(vecs) for m in blocks)):
            yield "closed under d", key, key, degree - 1, dv
            for img in acted:
                yield "action-stable", key, key, degree, img
            for trip in self.as_first.get(key, ()):
                tkey = op.comp_target(*trip)
                for d2, e in self.units[trip[2]]:
                    yield ("closed under o_i", trip, tkey, degree + d2,
                           op.compose(*trip, degree, vec, d2, e))
            for trip in self.as_second.get(key, ()):
                tkey = op.comp_target(*trip)
                for d1, e in self.units[trip[0]]:
                    yield ("closed under o_i", trip, tkey, d1 + degree,
                           op.compose(*trip, d1, e, degree, vec))
            for trip in self.contr.get(key, ()):
                yield ("xi-stable", key, op.contr_target(key), degree,
                       op.contract(*trip, degree, vec))


def ideal_closure(op, seeds) -> OperadIdeal:
    """Smallest ideal containing the seed vectors.

    ``seeds``: dict key -> dict degree -> list of sparse vectors.  Works
    in rounds: per (key, degree), one elimination spans the old echelon
    rows with the round's new vectors, and the next round takes the
    images (``_Images``) of the new rows at pivots the old span lacked,
    until no span grows.  Pivot sets of nested spans are nested, so
    those rows are independent modulo the old span and, with it, span
    the new one.  A seed with an index at or past the dimension of its
    component raises ValueError.
    """
    ideal = OperadIdeal(op, {})
    images = _Images(op)
    new = {}
    for key, per_degree in seeds.items():
        for degree, vecs in per_degree.items():
            new.setdefault((key, degree), []).extend(vecs)
    while new:
        grown = []
        for (key, degree), vecs in new.items():
            old = ideal.subspace(key, degree)
            sub = Subspace.from_spanning(old.ambient_dim,
                                         old._entries + tuple(vecs))
            if sub.dim == old.dim:
                continue
            ideal.spans.setdefault(key, {})[degree] = sub
            old_pivots = set(old.pivots)
            grown.append((key, degree, [
                row for p, row in zip(sub.pivots, sub._entries)
                if p not in old_pivots]))
        new = {}
        for key, degree, vecs in grown:
            for _, _, tkey, tdeg, img in images(key, degree, vecs):
                if img:
                    new.setdefault((tkey, tdeg), []).append(img)
    return ideal


def validate_ideal(ideal: OperadIdeal, max_report=25) -> list:
    """Each image (``_Images``) of each spanning vector lies in the spans."""
    op = ideal.operad
    images = _Images(op)
    report = []
    for key in op.keys():
        for degree, sub in sorted(ideal.spans.get(key, {}).items()):
            for phrase, where, tkey, tdeg, img in images(key, degree,
                                                         sub._entries):
                if not img or ideal.subspace(tkey, tdeg).contains(img):
                    continue
                msg = f"ideal not {phrase} at {where}"
                if msg not in report:
                    report.append(msg)
                    if len(report) >= max_report:
                        return report
    return report


def quotient(op, ideal: OperadIdeal):
    """Componentwise quotient by a validated ideal.

    Returns (quotient operad, projection morphism).
    """
    bad = validate_ideal(ideal)
    if bad:
        raise ValueError("not an ideal: " + "; ".join(bad[:3]))
    projs, sections, complexes = {}, {}, {}
    for key in op.keys():
        c = op.component(key)
        pj, sec = {}, {}
        for degree in c.dims:
            p, s = ideal.subspace(key, degree).complement_projection()
            if p.rows:
                pj[degree], sec[degree] = p, s
        if not pj:
            continue
        complexes[key] = ChainComplex(
            {d: p.rows for d, p in pj.items()},
            {d: pj[d - 1] * c.d(d) * sec[d] for d in pj if d - 1 in pj})
        projs[key], sections[key] = pj, sec

    def project(key, d, m):
        p = projs.get(key, {}).get(d)
        return Matrix.zeros(0, m.cols) if p is None else p * m

    q = transfer(op, complexes, lambda key, d: sections[key][d], project)
    return q, OperadMorphism(op, q, {
        key: ChainMap(op.component(key), complexes[key], projs[key],
                      check=False) for key in projs})
