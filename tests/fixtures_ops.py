"""Shared operad fixtures for the test suite."""

from fractions import Fraction

from operad_forge.chain import ChainComplex, ChainMap
from operad_forge.free import free_modular_operad, free_operad
from operad_forge.operad import CompTable, DGOperad, ideal_closure, quotient
from operad_forge.qlinalg import Matrix, sparse_row
from operad_forge.sigma import (
    GroupAction,
    ModularSigmaModule,
    SigmaModule,
    stable_pairs_up_to,
)


def commutative_style_operad(max_arity):
    """One-dimensional trivial component in every arity, compositions the
    canonical isomorphisms."""
    actions = {l: GroupAction.trivial(l, ChainComplex({0: 1}))
               for l in range(2, max_arity + 1)}
    comp = {}
    for l in range(2, max_arity + 1):
        for m in range(2, max_arity + 1):
            if l + m - 1 > max_arity:
                continue
            for i in range(1, l + 1):
                table = CompTable()
                table.add(0, 0, 0, 0, 0, Fraction(1))
                comp[(l, i, m)] = table
    return DGOperad(SigmaModule(actions), comp, max_arity)


def one_dim_operad_with_acyclic_component(max_arity=3):
    """Commutative-style operad with an acyclic two-term summand glued
    into the arity-2 component; compositions vanish on the extra part."""
    base = commutative_style_operad(max_arity)
    c2 = ChainComplex({0: 2, 1: 1},
                      {1: Matrix.from_rows([[0], [1]])})
    actions = dict(base.module.components)
    actions[2] = GroupAction.trivial(2, c2)
    comp = {}
    for key, table in base.comp.items():
        comp[key] = table
    return DGOperad(SigmaModule(actions), comp, max_arity)


def acyclic_operad():
    """Single arity-2 component which is exact: Q -> Q with d = id."""
    c = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
    actions = {2: GroupAction.trivial(2, c)}
    return DGOperad(SigmaModule(actions), {}, 2)


def hypercommutative(max_arity):
    """The genus-0 part of H_*(M-bar): arity n is H_*(M-bar_{0,n+1}).

    Getzler (1995): the free operad on one generator nu_n of degree
    2(n - 2) with trivial action in each arity n >= 2, divided by the
    ideal of the relations
        sum nu(nu(a, b, x_S1), c, x_S2) = sum nu(a, nu(b, c, x_S1), x_S2).
    """
    free, seeds = hypercommutative_presentation(max_arity)
    return quotient(free, ideal_closure(free, seeds))[0]


def hypercommutative_presentation(max_arity):
    """(free operad, ideal seeds) of ``hypercommutative``.

    Each term of a relation is a two-vertex tree fixed by the leaf set T
    of its inner vertex, so one seed per arity n >= 3 (a, b, c = 1, 2, 3)
    is enough: the ideal closure adds the permuted copies.
    """
    module = SigmaModule({
        n: GroupAction.trivial(n, ChainComplex({2 * (n - 2): 1}))
        for n in range(2, max_arity + 1)})
    free = free_operad(module, max_arity)
    seeds = {}
    for n in range(3, max_arity + 1):
        deg = 2 * (n - 3)
        layout = free.free.layouts[n]
        vec = [Fraction(0)] * layout.dim(deg)
        for s, (tree, _) in enumerate(free.free.summands[n]):
            verts = tree.vertices()
            if len(verts) != 2:
                continue
            inner = set(verts[1].leaves())
            if {1, 2} <= inner and 3 not in inner:
                vec[layout.offset(s, deg)] += 1
            if {2, 3} <= inner and 1 not in inner:
                vec[layout.offset(s, deg)] -= 1
        seeds[n] = {deg: [sparse_row(dict(enumerate(vec)))]}
    return free, seeds


def moduli_quotient(window):
    """H_*(M-bar) of fundamental classes up to modular dimension window.

    The free modular operad on one fundamental class nu_{g,l} of degree
    2(3g - 3 + l) with trivial action per stable (g, l), divided by the
    ideal of one WDVV seed per (0, l), l >= 4.  The seed is the relation
    of ``hypercommutative_presentation`` with leg l as the root: each
    two-vertex term is read off the leaf set T on the side without leg l.
    """
    module = ModularSigmaModule({
        (g, l): GroupAction.trivial(l, ChainComplex({2 * (3 * g - 3 + l): 1}))
        for g, l in stable_pairs_up_to(window)})
    free = free_modular_operad(module, window)
    seeds = {}
    for (g, l), items in free.free.summands.items():
        if g or l < 4:
            continue
        deg = 2 * (l - 4)
        layout = free.free.layouts[(g, l)]
        vec = {}
        for s, (graph, *_) in enumerate(items):
            if graph.n_vertices != 2:
                continue
            inner = {j for j, v in enumerate(graph.legs, 1)
                     if v != graph.legs[l - 1]}
            sign = ({1, 2} <= inner and 3 not in inner) \
                - ({2, 3} <= inner and 1 not in inner)
            if sign:
                vec[layout.offset(s, deg)] = Fraction(sign)
        seeds[(g, l)] = {deg: [sparse_row(vec)]}
    return quotient(free, ideal_closure(free, seeds))[0]
