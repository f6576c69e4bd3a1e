"""dg pseudo-operads (P(1) = 0) and dg modular operads.

Structure maps are stored as sparse tables: for each composition
(l, i, m) (resp. ((g,l), i, (h,m))) a table keyed by degree pairs and
basis pairs, and for each contraction ((g,l), i, j) a table keyed by
degree and basis index.  Validation checks the axioms on all basis
instances whose targets stay inside the finite support window.

Composition convention (modular case): ``a o_i b`` glues leg i of a to
leg 1 of b; the output legs are ordered a(1..i-1), b(2..m), a(i+1..l).
Contractions xi_{ij} glue legs i and j of the same element and keep the
remaining legs in order.  Signs come from Koszul-reordering the glued
slots to adjacency; alternate conventions give isomorphic operads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chain import (
    ChainComplex,
    ChainMap,
    homology,
    induced_map,
)
from .qlinalg import F0, F1, Matrix, Subspace, rank, sparse_row
from .sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    is_stable,
    modular_dimension,
    stable_pairs_up_to,
)


# -- sparse composition tables ------------------------------------------------


class CompTable:
    """Sparse bilinear map tensor(X, Y) -> Z between graded spaces.

    ``entries[(d1, d2)][(k1, k2)]`` is a tuple of (row, coefficient)
    pairs describing the image of the basis pair in degree d1 + d2.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = {}

    def add(self, d1, k1, d2, k2, row, coeff):
        if coeff == 0:
            return
        block = self.entries.setdefault((d1, d2), {})
        cell = block.setdefault((k1, k2), {})
        cell[row] = cell.get(row, F0) + coeff
        if cell[row] == 0:
            del cell[row]
            if not cell:
                del block[(k1, k2)]

    def pair_image(self, d1, k1, d2, k2):
        """Image of a basis pair as a dict row -> coeff."""
        return self.entries.get((d1, d2), {}).get((k1, k2), {})

    def apply(self, d1, v1, d2, v2, target_dim):
        """Image of a pair of vectors (tuples) as a dense tuple."""
        out = [F0] * target_dim
        block = self.entries.get((d1, d2))
        if not block:
            return tuple(out)
        nz1 = [(k, c) for k, c in enumerate(v1) if c != 0]
        nz2 = [(k, c) for k, c in enumerate(v2) if c != 0]
        for k1, c1 in nz1:
            for k2, c2 in nz2:
                cell = block.get((k1, k2))
                if cell:
                    c12 = c1 * c2
                    for row, coeff in cell.items():
                        out[row] += c12 * coeff
        return tuple(out)

    def is_zero(self):
        return not any(self.entries.values())


class ContrTable:
    """Sparse linear map X -> Z between graded spaces (degree 0)."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = {}

    def add(self, d, k, row, coeff):
        if coeff == 0:
            return
        block = self.entries.setdefault(d, {})
        cell = block.setdefault(k, {})
        cell[row] = cell.get(row, F0) + coeff
        if cell[row] == 0:
            del cell[row]
            if not cell:
                del block[k]

    def basis_image(self, d, k):
        return self.entries.get(d, {}).get(k, {})

    def is_zero(self):
        return not any(self.entries.values())

    def apply(self, d, v, target_dim):
        out = [F0] * target_dim
        block = self.entries.get(d)
        if not block:
            return tuple(out)
        for k, c in enumerate(v):
            if c == 0:
                continue
            cell = block.get(k)
            if cell:
                for row, coeff in cell.items():
                    out[row] += c * coeff
        return tuple(out)

    def matrix(self, d, target_dim, source_dim):
        rows = [{} for _ in range(target_dim)]
        for k, cell in self.entries.get(d, {}).items():
            for row, coeff in cell.items():
                rows[row][k] = coeff
        return Matrix._trusted(target_dim, source_dim,
                               tuple(map(sparse_row, rows)))


# -- block permutations for equivariance axioms -------------------------------


def operadic_block_perm(sigma: Permutation, i: int, tau: Permutation) -> Permutation:
    """The permutation by which (a.sigma) o_i (b.tau) differs from
    a o_{sigma(i)} b; inputs i..i+m-1 form the tau-permuted block."""
    l, m = sigma.n, tau.n
    images = []
    for x in range(1, l + m):
        if x < i or x >= i + m:
            j = x if x < i else x - m + 1
            t = sigma(j)
            images.append(t + (m - 1 if t > sigma(i) else 0))
        else:
            p = x - i + 1
            images.append(sigma(i) - 1 + tau(p))
    return Permutation(tuple(images))


def modular_first_relabel(sigma: Permutation, i: int, m: int) -> Permutation:
    """(a.sigma) o_i b = (a o_{sigma(i)} b) . (this permutation)."""
    l = sigma.n
    si = sigma(i)

    def pos_a(j):
        return j if j < si else j + m - 2

    images = []
    for p in range(1, l + m - 1):
        if p < i:
            images.append(pos_a(sigma(p)))
        elif p <= i + m - 2:
            images.append(si + p - i)
        else:
            images.append(pos_a(sigma(p - m + 2)))
    return Permutation(tuple(images))


def modular_second_relabel(i: int, l: int, tau: Permutation) -> Permutation:
    """a o_i (b.tau) = (a o_i b) . (this permutation); tau must fix 1."""
    m = tau.n
    if tau(1) != 1:
        raise ValueError("second-factor relabel requires tau(1) = 1")
    images = []
    for p in range(1, l + m - 1):
        if i <= p <= i + m - 2:
            images.append(i + tau(p - i + 2) - 2)
        else:
            images.append(p)
    return Permutation(tuple(images))


def modular_contr_relabel(sigma: Permutation, i: int, j: int):
    """xi_{ij}(a.sigma) = xi_{sigma(i) sigma(j)}(a) . rho; returns
    (sigma(i), sigma(j), rho)."""
    l = sigma.n
    lhs_rest = [p for p in range(1, l + 1) if p not in (i, j)]
    si, sj = sigma(i), sigma(j)
    rhs_rest = [p for p in range(1, l + 1) if p not in (si, sj)]
    images = [rhs_rest.index(sigma(r)) + 1 for r in lhs_rest]
    return si, sj, Permutation(tuple(images))


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
    return Permutation(tuple(images))


# -- operads ------------------------------------------------------------------


class _OperadCore:
    """Shared structure of operads and modular operads.

    The subclasses own the key arithmetic: ``keys()`` lists the window,
    ``legs(key)`` is the number of legs (the symmetric group acting on
    the component), ``level(key)`` is the grading that truncations cut
    at, ``window`` is the top level, and ``remake`` builds an operad of
    the same kind.  An operad has no contractions (``contr_keys()`` is
    empty), so code written against this interface serves both kinds.
    """

    def __init__(self, module, comp, contr, cut=None):
        self.module = module
        self.comp = comp
        self.contr = contr
        self.cut = cut
        self.free = None      # free-construction data, set by builders
        self.tower = None     # principal-extension bookkeeping

    def component(self, key) -> ChainComplex:
        return self.module.component(key)

    def group_action(self, key):
        return self.module.components.get(key)

    def action(self, key, perm) -> ChainMap:
        if key in self.module.components:
            return self.module.components[key].action(perm)
        zero = self.component(key)
        return ChainMap.identity(zero)

    def comp_table(self, key1, i, key2) -> CompTable:
        return self.comp.get((key1, i, key2), _EMPTY_COMP)

    def compose(self, key1, i, key2, d1, v1, d2, v2):
        """Vector-level composition; target component inferred by caller."""
        tkey = self.comp_target(key1, i, key2)
        dim = self.component(tkey).dim(d1 + d2)
        return self.comp_table(key1, i, key2).apply(d1, v1, d2, v2, dim)

    def basis_compose(self, key1, i, key2, d1, k1, d2, k2):
        return self.comp_table(key1, i, key2).pair_image(d1, k1, d2, k2)

    def is_zero(self):
        return all(self.component(k).is_zero() for k in self.keys())

    def total_dims(self):
        return {k: dict(self.component(k).dims) for k in self.keys()
                if not self.component(k).is_zero()}


_EMPTY_COMP = CompTable()
_EMPTY_CONTR = ContrTable()


class DGOperad(_OperadCore):
    """dg pseudo-operad with P(1) = 0, stored on arities 2..max_arity."""

    kind = "operad"

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

    def contr_table(self, key, i, j) -> ContrTable:
        if i == j:
            raise ValueError("contraction needs distinct legs")
        if i > j:
            i, j = j, i
        return self.contr.get((key, i, j), _EMPTY_CONTR)

    def contract(self, key, i, j, d, v):
        dim = self.component(self.contr_target(key)).dim(d)
        return self.contr_table(key, i, j).apply(d, v, dim)

    def basis_contract(self, key, i, j, d, k):
        return self.contr_table(key, i, j).basis_image(d, k)


# -- validation ---------------------------------------------------------------


def _basis_elements(c: ChainComplex):
    for d in c.support:
        for k in range(c.dim(d)):
            yield d, k


def _unit_vec(dim, k):
    v = [F0] * dim
    v[k] = F1
    return tuple(v)


def _vec_eq(v1, v2):
    return tuple(v1) == tuple(v2)


def _scale_vec(v, c):
    return tuple(c * x for x in v)


def _add_vec(v1, v2):
    return tuple(a + b for a, b in zip(v1, v2))


class _Validator:
    def __init__(self, op, max_report=25):
        self.op = op
        self.report = []
        self.max_report = max_report

    def fail(self, msg):
        if len(self.report) < self.max_report:
            self.report.append(msg)

    def done(self):
        return len(self.report) >= self.max_report

    # shared checks ---------------------------------------------------------

    def check_chain_comp(self, key1, i, key2):
        op = self.op
        tkey = op.comp_target(key1, i, key2)
        c1, c2, ct = op.component(key1), op.component(key2), op.component(tkey)
        for d1, k1 in _basis_elements(c1):
            v1 = _unit_vec(c1.dim(d1), k1)
            dv1 = c1.d(d1).apply(v1)
            for d2, k2 in _basis_elements(c2):
                v2 = _unit_vec(c2.dim(d2), k2)
                dv2 = c2.d(d2).apply(v2)
                lhs = ct.d(d1 + d2).apply(
                    op.compose(key1, i, key2, d1, v1, d2, v2))
                rhs = op.compose(key1, i, key2, d1 - 1, dv1, d2, v2)
                term2 = op.compose(key1, i, key2, d1, v1, d2 - 1, dv2)
                if d1 % 2:
                    term2 = _scale_vec(term2, -1)
                rhs = _add_vec(rhs, term2)
                if not _vec_eq(lhs, rhs):
                    self.fail(f"composition {key1} o_{i} {key2} is not a chain map "
                              f"at degrees ({d1},{d2})")
                    return

    def check_comp_equivariance_first(self, key1, i, key2, gen_index,
                                      relabel_fn):
        op = self.op
        sigma = Permutation.transposition(op.legs(key1), gen_index)
        tkey = op.comp_target(key1, i, key2)
        c1, c2, ct = op.component(key1), op.component(key2), op.component(tkey)
        rho = relabel_fn(sigma, i)
        act1 = op.action(key1, sigma)
        act_t = op.action(tkey, rho)
        si = sigma(i)
        for d1, k1 in _basis_elements(c1):
            v1s = act1.block(d1).apply(_unit_vec(c1.dim(d1), k1))
            for d2, k2 in _basis_elements(c2):
                v2 = _unit_vec(c2.dim(d2), k2)
                lhs = op.compose(key1, i, key2, d1, v1s, d2, v2)
                inner = op.compose(key1, si, key2, d1,
                                   _unit_vec(c1.dim(d1), k1), d2, v2)
                rhs = act_t.block(d1 + d2).apply(inner)
                if not _vec_eq(lhs, rhs):
                    self.fail(f"equivariance (first factor, s_{gen_index}) fails "
                              f"for {key1} o_{i} {key2}")
                    return

    def check_comp_equivariance_second(self, key1, i, key2, gen_index,
                                       relabel_fn):
        op = self.op
        tau = Permutation.transposition(op.legs(key2), gen_index)
        tkey = op.comp_target(key1, i, key2)
        c1, c2 = op.component(key1), op.component(key2)
        rho = relabel_fn(i, tau)
        act2 = op.action(key2, tau)
        act_t = op.action(tkey, rho)
        for d1, k1 in _basis_elements(c1):
            v1 = _unit_vec(c1.dim(d1), k1)
            for d2, k2 in _basis_elements(c2):
                v2t = act2.block(d2).apply(_unit_vec(c2.dim(d2), k2))
                lhs = op.compose(key1, i, key2, d1, v1, d2, v2t)
                inner = op.compose(key1, i, key2, d1, v1, d2,
                                   _unit_vec(c2.dim(d2), k2))
                rhs = act_t.block(d1 + d2).apply(inner)
                if not _vec_eq(lhs, rhs):
                    self.fail(f"equivariance (second factor, s_{gen_index}) fails "
                              f"for {key1} o_{i} {key2}")
                    return


def validate_operad(op: DGOperad, max_report=25) -> list:
    """Axioms of a dg pseudo-operad on all in-window basis instances."""
    v = _Validator(op, max_report)
    report = v.report
    report.extend(f"underlying module: {m}" for m in op.module.validate_action())
    for (l, i, m) in op.comp_keys():
        if v.done():
            return report
        v.check_chain_comp(l, i, m)
        for j in range(1, l):
            v.check_comp_equivariance_first(
                l, i, m, j,
                lambda sigma, ii: operadic_block_perm(
                    sigma, ii, Permutation.identity(m)))
        for j in range(1, m):
            v.check_comp_equivariance_second(
                l, i, m, j,
                lambda ii, tau: operadic_block_perm(
                    Permutation.identity(l), ii, tau))
    # associativity
    for l in range(2, op.max_arity + 1):
        for m in range(2, op.max_arity + 1):
            for n in range(2, op.max_arity + 1):
                if l + m + n - 2 > op.max_arity:
                    continue
                _check_operadic_associativity(v, l, m, n)
                if v.done():
                    return report
    return report


def _check_operadic_associativity(v, l, m, n):
    op = v.op
    cl, cm, cn = op.component(l), op.component(m), op.component(n)
    if cl.is_zero() or cm.is_zero() or cn.is_zero():
        return
    for i in range(1, l + 1):
        # nested: (a o_i b) o_{i+q-1} c = a o_i (b o_q c)
        for q in range(1, m + 1):
            for (d1, k1), (d2, k2), (d3, k3) in itertools.product(
                    _basis_elements(cl), _basis_elements(cm), _basis_elements(cn)):
                a = _unit_vec(cl.dim(d1), k1)
                b = _unit_vec(cm.dim(d2), k2)
                c = _unit_vec(cn.dim(d3), k3)
                ab = op.compose(l, i, m, d1, a, d2, b)
                lhs = op.compose(l + m - 1, i + q - 1, n, d1 + d2, ab, d3, c)
                bc = op.compose(m, q, n, d2, b, d3, c)
                rhs = op.compose(l, i, m + n - 1, d1, a, d2 + d3, bc)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"nested associativity fails: arities ({l},{m},{n}), "
                           f"slots (i={i}, q={q})")
                    return
        # disjoint: p < i: (a o_i b) o_p c = (-1)^{|b||c|} (a o_p c) o_{i+n-1} b
        for p in range(1, i):
            for (d1, k1), (d2, k2), (d3, k3) in itertools.product(
                    _basis_elements(cl), _basis_elements(cm), _basis_elements(cn)):
                a = _unit_vec(cl.dim(d1), k1)
                b = _unit_vec(cm.dim(d2), k2)
                c = _unit_vec(cn.dim(d3), k3)
                ab = op.compose(l, i, m, d1, a, d2, b)
                lhs = op.compose(l + m - 1, p, n, d1 + d2, ab, d3, c)
                ac = op.compose(l, p, n, d1, a, d3, c)
                rhs = op.compose(l + n - 1, i + n - 1, m, d1 + d3, ac, d2, b)
                if (d2 % 2) and (d3 % 2):
                    rhs = _scale_vec(rhs, -1)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"disjoint associativity fails: arities ({l},{m},{n}), "
                           f"slots (i={i}, p={p})")
                    return


def validate_modular_operad(op: ModularOperad, max_report=25) -> list:
    """Axioms of a dg modular operad on all in-window basis instances."""
    v = _Validator(op, max_report)
    report = v.report
    report.extend(f"underlying module: {m}" for m in op.module.validate_action())
    for (key1, i, key2) in op.comp_keys():
        if v.done():
            return report
        l, m = key1[1], key2[1]
        v.check_chain_comp(key1, i, key2)
        for j in range(1, l):
            v.check_comp_equivariance_first(
                key1, i, key2, j,
                lambda sigma, ii: modular_first_relabel(sigma, ii, m))
        for j in range(2, m):
            v.check_comp_equivariance_second(
                key1, i, key2, j,
                lambda ii, tau: modular_second_relabel(ii, l, tau))
    _check_modular_contractions(v)
    _check_modular_associativity(v)
    _check_modular_commutation(v)
    _check_modular_compatibility(v)
    return report


def _check_modular_contractions(v):
    op = v.op
    for (key, i, j) in op.contr_keys():
        g, l = key
        tkey = op.contr_target(key)
        c, ct = op.component(key), op.component(tkey)
        # chain map
        for d, k in _basis_elements(c):
            vec = _unit_vec(c.dim(d), k)
            lhs = ct.d(d).apply(op.contract(key, i, j, d, vec))
            rhs = op.contract(key, i, j, d - 1, c.d(d).apply(vec))
            if not _vec_eq(lhs, rhs):
                v.fail(f"contraction xi_({i},{j}) on {key} is not a chain map")
                break
        # equivariance on generators
        for gidx in range(1, l):
            sigma = Permutation.transposition(l, gidx)
            si, sj, rho = modular_contr_relabel(sigma, i, j)
            act = op.action(key, sigma)
            act_t = op.action(tkey, rho)
            ok = True
            for d, k in _basis_elements(c):
                vec = act.block(d).apply(_unit_vec(c.dim(d), k))
                lhs = op.contract(key, i, j, d, vec)
                inner = op.contract(key, min(si, sj), max(si, sj), d,
                                    _unit_vec(c.dim(d), k))
                rhs = act_t.block(d).apply(inner)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"contraction equivariance fails: {key}, "
                           f"xi_({i},{j}), s_{gidx}")
                    ok = False
                    break
            if not ok:
                break
        # double contractions commute (with index shifts)
        for (i2, j2) in itertools.combinations(
                [p for p in range(1, l + 1) if p not in (i, j)], 2):
            tg, tl = g + 1, l - 2
            if tl < 2 or modular_dimension(g + 2, l - 4) > op.max_dim \
                    or not is_stable(g + 2, l - 4):
                continue

            def collapse(p, a, b):
                return p - sum(1 for q in (a, b) if q < p)

            for d, k in _basis_elements(c):
                vec = _unit_vec(c.dim(d), k)
                first = op.contract(key, i, j, d, vec)
                lhs = op.contract((g + 1, l - 2), collapse(i2, i, j),
                                  collapse(j2, i, j), d, first)
                second = op.contract(key, i2, j2, d, vec)
                rhs = op.contract((g + 1, l - 2), collapse(i, i2, j2),
                                  collapse(j, i2, j2), d, second)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"double contractions disagree on {key}: "
                           f"({i},{j}) vs ({i2},{j2})")
                    break


def _check_modular_associativity(v):
    op = v.op
    for (key1, i, key2) in op.comp_keys():
        g1, l = key1
        g2, m = key2
        mid = op.comp_target(key1, i, key2)
        for key3 in op.indices:
            g3, n = key3
            if n < 1:
                continue
            final_g, final_l = g1 + g2 + g3, l + m + n - 4
            if not is_stable(final_g, final_l) \
                    or modular_dimension(final_g, final_l) > op.max_dim:
                continue
            c1, c2, c3 = (op.component(key1), op.component(key2),
                          op.component(key3))
            if c1.is_zero() or c2.is_zero() or c3.is_zero():
                continue
            # nested: q >= 2
            for q in range(2, m + 1):
                for (d1, k1), (d2, k2), (d3, k3) in itertools.product(
                        _basis_elements(c1), _basis_elements(c2),
                        _basis_elements(c3)):
                    a = _unit_vec(c1.dim(d1), k1)
                    b = _unit_vec(c2.dim(d2), k2)
                    c = _unit_vec(c3.dim(d3), k3)
                    ab = op.compose(key1, i, key2, d1, a, d2, b)
                    lhs = op.compose(mid, i + q - 2, key3, d1 + d2, ab, d3, c)
                    bc = op.compose(key2, q, key3, d2, b, d3, c)
                    rhs = op.compose(key1, i, (g2 + g3, m + n - 2),
                                     d1, a, d2 + d3, bc)
                    if not _vec_eq(lhs, rhs):
                        v.fail(f"modular nested associativity fails "
                               f"{key1} o_{i} {key2} o_q={q} {key3}")
                        return
            # disjoint p != i (legs of a)
            for p in range(1, l + 1):
                if p == i:
                    continue
                pos = p if p < i else p + m - 2
                tgt_i = i if p > i else i + n - 2
                for (d1, k1), (d2, k2), (d3, k3) in itertools.product(
                        _basis_elements(c1), _basis_elements(c2),
                        _basis_elements(c3)):
                    a = _unit_vec(c1.dim(d1), k1)
                    b = _unit_vec(c2.dim(d2), k2)
                    c = _unit_vec(c3.dim(d3), k3)
                    ab = op.compose(key1, i, key2, d1, a, d2, b)
                    lhs = op.compose(mid, pos, key3, d1 + d2, ab, d3, c)
                    ac = op.compose(key1, p, key3, d1, a, d3, c)
                    rhs = op.compose((g1 + g3, l + n - 2), tgt_i, key2,
                                     d1 + d3, ac, d2, b)
                    if (d2 % 2) and (d3 % 2):
                        rhs = _scale_vec(rhs, -1)
                    if not _vec_eq(lhs, rhs):
                        v.fail(f"modular disjoint associativity fails "
                               f"{key1} o_{i} {key2}, p={p}, {key3}")
                        return


def _check_modular_commutation(v):
    op = v.op
    for (key1, i, key2) in op.comp_keys():
        g1, l = key1
        g2, m = key2
        c1, c2 = op.component(key1), op.component(key2)
        if c1.is_zero() or c2.is_zero():
            continue
        tkey = op.comp_target(key1, i, key2)
        rho = modular_commutation_relabel(i, l, m)
        cyc = Permutation.cycle_to_front(l, i)
        act1 = op.action(key1, cyc)
        act_t = op.action(tkey, rho)
        for (d1, k1), (d2, k2) in itertools.product(
                _basis_elements(c1), _basis_elements(c2)):
            a = _unit_vec(c1.dim(d1), k1)
            b = _unit_vec(c2.dim(d2), k2)
            lhs = op.compose(key1, i, key2, d1, a, d2, b)
            a_cyc = act1.block(d1).apply(a)
            ba = op.compose(key2, 1, key1, d2, b, d1, a_cyc)
            rhs = act_t.block(d1 + d2).apply(ba)
            if (d1 % 2) and (d2 % 2):
                rhs = _scale_vec(rhs, -1)
            if not _vec_eq(lhs, rhs):
                v.fail(f"commutation fails for {key1} o_{i} {key2} "
                       f"at degrees ({d1},{d2})")
                return


def _check_modular_compatibility(v):
    """xi after o equals o after xi (contracted legs on one factor)."""
    op = v.op
    for (key1, i, key2) in op.comp_keys():
        g1, l = key1
        g2, m = key2
        mid = op.comp_target(key1, i, key2)
        gm, lm = mid
        c1, c2 = op.component(key1), op.component(key2)
        if c1.is_zero() or c2.is_zero():
            continue
        tkey = (gm + 1, lm - 2)
        if not is_stable(*tkey) or modular_dimension(*tkey) > op.max_dim:
            continue
        # both contracted legs from a
        for (p, q) in itertools.combinations(
                [x for x in range(1, l + 1) if x != i], 2):
            if not is_stable(g1 + 1, l - 2):
                continue
            pos_p = p if p < i else p + m - 2
            pos_q = q if q < i else q + m - 2
            new_i = i - sum(1 for x in (p, q) if x < i)
            for (d1, k1), (d2, k2) in itertools.product(
                    _basis_elements(c1), _basis_elements(c2)):
                a = _unit_vec(c1.dim(d1), k1)
                b = _unit_vec(c2.dim(d2), k2)
                ab = op.compose(key1, i, key2, d1, a, d2, b)
                lhs = op.contract(mid, pos_p, pos_q, d1 + d2, ab)
                xa = op.contract(key1, p, q, d1, a)
                rhs = op.compose((g1 + 1, l - 2), new_i, key2, d1, xa, d2, b)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"compatibility (xi on first factor) fails "
                           f"{key1} o_{i} {key2}, pair ({p},{q})")
                    return
        # both contracted legs from b
        for (p, q) in itertools.combinations(range(2, m + 1), 2):
            if not is_stable(g2 + 1, m - 2):
                continue
            pos_p, pos_q = i + p - 2, i + q - 2
            for (d1, k1), (d2, k2) in itertools.product(
                    _basis_elements(c1), _basis_elements(c2)):
                a = _unit_vec(c1.dim(d1), k1)
                b = _unit_vec(c2.dim(d2), k2)
                ab = op.compose(key1, i, key2, d1, a, d2, b)
                lhs = op.contract(mid, pos_p, pos_q, d1 + d2, ab)
                xb = op.contract(key2, p, q, d2, b)
                rhs = op.compose(key1, i, (g2 + 1, m - 2), d1, a, d2, xb)
                if not _vec_eq(lhs, rhs):
                    v.fail(f"compatibility (xi on second factor) fails "
                           f"{key1} o_{i} {key2}, pair ({p},{q})")
                    return


def validate(op, max_report=25) -> list:
    """Dispatch to the right axiom checker; empty report = ok."""
    if isinstance(op, ModularOperad):
        return validate_modular_operad(op, max_report)
    return validate_operad(op, max_report)


# -- morphisms ----------------------------------------------------------------


@dataclass
class OperadMorphism:
    """Componentwise chain maps commuting with all structure maps."""

    src: _OperadCore
    dst: _OperadCore
    maps: dict

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
        for (key1, i, key2) in src.comp_keys():
            tkey = src.comp_target(key1, i, key2)
            f1, f2, ft = self.block(key1), self.block(key2), self.block(tkey)
            c1, c2 = src.component(key1), src.component(key2)
            for (d1, k1), (d2, k2) in itertools.product(
                    _basis_elements(c1), _basis_elements(c2)):
                a = _unit_vec(c1.dim(d1), k1)
                b = _unit_vec(c2.dim(d2), k2)
                lhs = ft.block(d1 + d2).apply(
                    src.compose(key1, i, key2, d1, a, d2, b))
                rhs = dst.compose(key1, i, key2,
                                  d1, f1.block(d1).apply(a),
                                  d2, f2.block(d2).apply(b))
                if not _vec_eq(lhs, rhs):
                    report.append(
                        f"does not commute with composition {key1} o_{i} {key2}")
                    break
            if len(report) >= max_report:
                return report
        for (key, i, j) in src.contr_keys():
            f, ft = self.block(key), self.block(src.contr_target(key))
            c = src.component(key)
            for d, k in _basis_elements(c):
                vec = _unit_vec(c.dim(d), k)
                lhs = ft.block(d).apply(src.contract(key, i, j, d, vec))
                rhs = dst.contract(key, i, j, d, f.block(d).apply(vec))
                if not _vec_eq(lhs, rhs):
                    report.append(
                        f"does not commute with contraction {key} xi_({i},{j})")
                    break
        return report


def weak_equivalence_test(f: OperadMorphism):
    """Componentwise homology-isomorphism check.

    Returns (verdict, per-component homology dimension table).
    """
    table = {}
    ok = True
    for key in f.src.keys():
        blk = f.block(key)
        hs, hd = homology(blk.src), homology(blk.dst)
        iso = hs.dims == hd.dims
        if iso:
            ind = induced_map(blk, hs, hd)
            iso = all(m.rows == m.cols and rank(m) == m.rows
                      for m in ind.values())
        table[key] = {"source": dict(hs.dims), "target": dict(hd.dims),
                      "isomorphism": iso}
        ok = ok and iso
    return ok, table


# -- structure transfer -------------------------------------------------------


def transfer(op, complexes, section, project):
    """The operad of op's kind on new component complexes, with op's
    structure maps carried across.

    ``complexes``: key -> ChainComplex, the nonzero new components;
    ``section(key, d)``: the matrix whose columns are the new basis of
    degree d inside op's component; ``project(key, d, m)``: the
    coordinates in the new basis of the columns of m (vectors of op's
    component), or None when a column lies outside that basis.  It is
    also called for target keys and degrees outside ``complexes``, where
    the new basis is empty, so every image is checked.  Raises
    AssertionError when the action, a composition or a contraction
    leaves the new complexes.
    """
    basis = {key: {d: section(key, d) for d in c.dims}
             for key, c in complexes.items()}
    vectors = {key: {d: m.columns() for d, m in per.items()}
               for key, per in basis.items()}
    actions = {}
    for key, c in complexes.items():
        n = op.legs(key)
        ga = op.group_action(key)
        gens = []
        for j in range(1, n):
            act = ga.action(Permutation.transposition(n, j))
            blocks = {}
            for d in c.dims:
                blocks[d] = project(key, d, act.block(d) * basis[key][d])
                if blocks[d] is None:
                    raise AssertionError(f"not action-closed at {key}")
            gens.append(ChainMap(c, c, blocks, check=False))
        actions[key] = GroupAction(n, c, gens, check=False)
    comp = {}
    for trip in op.comp_keys():
        key1, i, key2 = trip
        if key1 not in complexes or key2 not in complexes:
            continue
        tkey = op.comp_target(*trip)
        table = CompTable()
        for d1, vs1 in vectors[key1].items():
            for d2, vs2 in vectors[key2].items():
                images = [op.compose(key1, i, key2, d1, v1, d2, v2)
                          for v1 in vs1 for v2 in vs2]
                coords = project(tkey, d1 + d2, Matrix.from_cols(
                    images, rows=op.component(tkey).dim(d1 + d2)))
                if coords is None:
                    raise AssertionError(f"closure fails at {trip}")
                for row, line in enumerate(coords.sparse):
                    for col, coeff in line:
                        k1, k2 = divmod(col, len(vs2))
                        table.add(d1, k1, d2, k2, row, coeff)
        if not table.is_zero():
            comp[trip] = table
    contr = {}
    for trip in op.contr_keys():
        key, i, j = trip
        if key not in complexes:
            continue
        tkey = op.contr_target(key)
        table = ContrTable()
        for d, vs in vectors[key].items():
            images = [op.contract(key, i, j, d, v) for v in vs]
            coords = project(tkey, d, Matrix.from_cols(
                images, rows=op.component(tkey).dim(d)))
            if coords is None:
                raise AssertionError(f"closure fails at xi {key}")
            for row, line in enumerate(coords.sparse):
                for k, coeff in line:
                    table.add(d, k, row, coeff)
        if not table.is_zero():
            contr[trip] = table
    return op.remake(actions, comp, contr, op.window, op.cut)


# -- homology operad ----------------------------------------------------------


@dataclass
class HomologyTransfer:
    """The homology operad together with the cycle bookkeeping used to
    transfer elements and morphisms."""

    operad: _OperadCore
    records: dict

    def classify(self, key, degree, vec):
        return self.records[key].classify(degree, vec)

    def representative(self, key, degree, h_index):
        return self.records[key].rep_matrix(degree).col(h_index)


def homology_operad(op) -> HomologyTransfer:
    """The operad H(P): zero differentials, induced structure maps.

    Raises AssertionError when a structure map sends cycles to a
    non-cycle."""
    records = {key: homology(op.component(key)) for key in op.keys()}

    def classify(key, d, m):
        cols = [records[key].classify(d, v) for v in m.columns()]
        if None in cols:
            return None
        return Matrix.from_cols(cols, rows=records[key].dim(d))

    hop = transfer(op, {key: rec.homology_complex()
                        for key, rec in records.items() if rec.dims},
                   lambda key, d: records[key].rep_matrix(d), classify)
    return HomologyTransfer(hop, records)


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


@dataclass
class OperadIdeal:
    """Per-component, per-degree spans, each kept as its echelon."""

    operad: _OperadCore
    spans: dict  # key -> dict degree -> Subspace of the component

    def subspace(self, key, degree) -> Subspace:
        sub = self.spans.get(key, {}).get(degree)
        if sub is None:
            return Subspace.zero(self.operad.component(key).dim(degree))
        return sub

    def dim(self, key, degree):
        return self.subspace(key, degree).dim

    def insert(self, key, degree, vec):
        """Add vec to the span at (key, degree); True if it grew."""
        sub, grew = self.subspace(key, degree).insert(vec)
        if grew:
            self.spans.setdefault(key, {})[degree] = sub
        return grew


def ideal_closure(op, seeds) -> OperadIdeal:
    """Smallest ideal containing the seed vectors.

    ``seeds``: dict key -> dict degree -> list of vectors.  Saturates
    under the differential, the symmetric-group action, compositions on
    both sides and (modular case) contractions, until ranks stabilize.
    """
    ideal = OperadIdeal(op, {})
    frontier = []
    for key, per_degree in seeds.items():
        for degree, vecs in per_degree.items():
            for vec in vecs:
                if ideal.insert(key, degree, tuple(vec)):
                    frontier.append((key, degree, tuple(vec)))
    comp_by_source = {}
    for trip in op.comp_keys():
        comp_by_source.setdefault(trip[0], []).append(trip)
        comp_by_source.setdefault(trip[2], []).append(trip)
    while frontier:
        key, degree, vec = frontier.pop()
        c = op.component(key)
        n = op.legs(key)
        produced = []
        dvec = c.d(degree).apply(vec)
        produced.append((key, degree - 1, dvec))
        for j in range(1, n):
            sigma = Permutation.transposition(n, j)
            produced.append((key, degree,
                             op.action(key, sigma).block(degree).apply(vec)))
        for trip in comp_by_source.get(key, []):
            key1, i, key2 = trip
            tkey = op.comp_target(key1, i, key2)
            if key1 == key:
                other = op.component(key2)
                for d2, k2 in _basis_elements(other):
                    e2 = _unit_vec(other.dim(d2), k2)
                    produced.append((tkey, degree + d2,
                                     op.compose(key1, i, key2, degree, vec,
                                                d2, e2)))
            if key2 == key:
                other = op.component(key1)
                for d1, k1 in _basis_elements(other):
                    e1 = _unit_vec(other.dim(d1), k1)
                    produced.append((tkey, degree + d1,
                                     op.compose(key1, i, key2, d1, e1,
                                                degree, vec)))
        for (ckey, i, j) in op.contr_keys():
            if ckey == key:
                produced.append((op.contr_target(key), degree,
                                 op.contract(key, i, j, degree, vec)))
        for (tkey, tdeg, tvec) in produced:
            if not tvec or all(x == 0 for x in tvec):
                continue
            if ideal.insert(tkey, tdeg, tuple(tvec)):
                frontier.append((tkey, tdeg, tuple(tvec)))
    return ideal


def validate_ideal(ideal: OperadIdeal, max_report=25) -> list:
    """Closure of the spans under d, the action, products and xi."""
    op = ideal.operad
    report = []

    def inside(key, degree, vec):
        sub = ideal.spans.get(key, {}).get(degree)
        return not any(vec) or (sub is not None and sub.contains(vec))

    def spanned(key):
        """(degree, basis vector) over the spans of key, by degree."""
        for degree, sub in sorted(ideal.spans.get(key, {}).items()):
            for vec in sub.basis.columns():
                yield degree, vec

    for key in op.keys():
        c = op.component(key)
        n = op.legs(key)
        for degree, vec in spanned(key):
            if not inside(key, degree - 1, c.d(degree).apply(vec)):
                report.append(f"ideal not closed under d at {key}")
            for j in range(1, n):
                sigma = Permutation.transposition(n, j)
                if not inside(key, degree,
                              op.action(key, sigma).block(degree).apply(vec)):
                    report.append(f"ideal not action-stable at {key}")
    for trip in op.comp_keys():
        key1, i, key2 = trip
        tkey = op.comp_target(*trip)
        c1, c2 = op.component(key1), op.component(key2)
        for d1, vec in spanned(key1):
            for d2, k2 in _basis_elements(c2):
                img = op.compose(key1, i, key2, d1, vec, d2,
                                 _unit_vec(c2.dim(d2), k2))
                if not inside(tkey, d1 + d2, img):
                    report.append(f"ideal not closed under o_i at {trip}")
        for d2, vec in spanned(key2):
            for d1, k1 in _basis_elements(c1):
                img = op.compose(key1, i, key2, d1,
                                 _unit_vec(c1.dim(d1), k1), d2, vec)
                if not inside(tkey, d1 + d2, img):
                    report.append(f"ideal not closed under o_i at {trip}")
        if len(report) >= max_report:
            return report
    for (key, i, j) in op.contr_keys():
        tkey = op.contr_target(key)
        for degree, vec in spanned(key):
            if not inside(tkey, degree, op.contract(key, i, j, degree, vec)):
                report.append(f"ideal not xi-stable at {key}")
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
