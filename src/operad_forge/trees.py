"""Combinatorial indexing objects for free constructions.

Reduced trees with distinctly labelled leaves, and stable genus-decorated
graphs with labelled legs, both enumerated up to isomorphism by
canonical-form deduplication.  Trees with distinct leaf labels have no
nontrivial label-fixing automorphisms, so their summands need no
coinvariants; stable graphs carry explicit automorphism data.

Vertex ordering for tensor purposes is the canonical-form preorder
(trees) or the vertex index order (graphs); per-vertex input slots are
ordered by minimal leaf label (trees) or legs-then-edges (graphs).
A tree is described by the leaf sets of its vertices' children
(``Tree.slot_masks``), which is all the free builder needs to match a
rearranged tree onto this catalogue, where it is found by its clade
code, an int (``tree_tables``); stable graphs are matched here
(``match_graph``).  The trees on each set of labels are built once, so
catalogue trees share their subtrees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .qlinalg import _Frozen, _setfield
from .sigma import Permutation, is_stable


# -- labelled reduced trees ---------------------------------------------------


class Tree(_Frozen):
    """Canonical reduced tree; leaves carry labels, children are sorted
    by minimal leaf label."""

    _fields = ("label", "children")

    def __init__(self, label, children):
        _setfield(self, "label", label)
        _setfield(self, "children", children)

    @property
    def is_leaf(self):
        return self.label is not None

    @property
    def min_leaf(self):
        if self.is_leaf:
            return self.label
        return self.children[0].min_leaf

    def leaves(self):
        if self.is_leaf:
            return [self.label]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    @property
    def arity(self):
        return len(self.leaves())

    def vertices(self):
        """Internal vertices in preorder (roots first)."""
        if self.is_leaf:
            return []
        out = [self]
        for c in self.children:
            out.extend(c.vertices())
        return out

    def vertex_valences(self):
        return [len(v.children) for v in self.vertices()]

    def sort_key(self):
        """The flat preorder code: (0, label) for a leaf, (1, k) then
        the children's codes for a vertex with k children.  Codes are
        prefix-free, so they order trees as the nested codes do."""
        if self.is_leaf:
            return (0, self.label)
        return sum(map(Tree.sort_key, self.children), (1, len(self.children)))

    def slot_masks(self):
        """The leaf sets of each vertex's children as bitmasks (leaf j is
        bit j - 1): vertices in preorder, children in slot order.  Their
        sums, the vertices' clades, determine the tree."""
        out = []

        def walk(t):
            if t.is_leaf:
                return 1 << (t.label - 1)
            p = len(out)
            out.append(None)
            out[p] = tuple(walk(c) for c in t.children)
            return sum(out[p])

        walk(self)
        return out


def leaf(label: int) -> Tree:
    return Tree(label, ())


def node(children) -> Tree:
    """Internal vertex; canonicalizes the child order."""
    children = tuple(sorted(children, key=lambda t: t.min_leaf))
    if len(children) < 2:
        raise ValueError("reduced trees have no unary vertices")
    return Tree(None, children)


def _set_partitions(items):
    """All partitions of a list, as lists of blocks (in canonical order)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@lru_cache(maxsize=None)
def _trees_on(labels):
    """The trees on a sorted tuple of leaf labels, built once per tuple,
    so every tree is made of the shared trees on its vertices' clades."""
    if len(labels) == 1:
        return (leaf(labels[0]),)
    return tuple(node(combo) for part in _set_partitions(list(labels))
                 if len(part) > 1
                 for combo in itertools.product(
                     *(_trees_on(tuple(block)) for block in part)))


@lru_cache(maxsize=None)
def enumerate_trees(n: int):
    """Isomorphism classes of reduced trees with leaves 1..n.

    n = 1 yields the empty tuple (no unary vertices); counts follow the
    total-partition numbers 1, 4, 26, 236, ...  Equal subtrees, across
    the catalogues of every arity, are one object (``_trees_on``).
    """
    if n < 2:
        return ()
    return tuple(sorted(_trees_on(tuple(range(1, n + 1))), key=Tree.sort_key))


@lru_cache(maxsize=None)
def tree_tables(n: int):
    """Catalogue facts of ``enumerate_trees(n)`` by position: each tree's
    vertex types (child counts, preorder), slot masks
    (``Tree.slot_masks``) and vertex clades in preorder (a clade's place
    is its index); and the position of each tree by its clade code
    (``clade_code``).  Equal type tuples, and equal mask tuples of a
    vertex, are one object."""
    shared = {}
    masks = tuple(tuple(shared.setdefault(f, f) for f in t.slot_masks())
                  for t in enumerate_trees(n))
    types = tuple(shared.setdefault(ty, ty) for ty in (
        tuple(len(f) for f in m) for m in masks))
    clades = tuple(tuple(sum(f) for f in m) for m in masks)
    index = {clade_code(c): pos for pos, c in enumerate(clades)}
    return types, masks, clades, index


def clade_code(clades):
    """The int with bit c set for each vertex clade c (``tree_tables``)."""
    return sum(1 << c for c in clades)


# -- stable graphs ------------------------------------------------------------


class StableGraph(_Frozen):
    """Connected genus-decorated graph with labelled external legs.

    ``legs[j-1]`` is the vertex carrying leg j; ``edges`` are ordered
    pairs (u, v) with half-edge 0 at u and half-edge 1 at v (self loops
    allowed).  Total genus = sum of vertex genera + first Betti number.
    The fields, and each edge, are kept as tuples whatever sequences are
    given.
    """

    _fields = ("genera", "legs", "edges")

    def __init__(self, genera, legs, edges):
        _setfield(self, "genera", tuple(genera))
        _setfield(self, "legs", tuple(legs))
        _setfield(self, "edges", tuple(map(tuple, edges)))

    @property
    def n_vertices(self):
        return len(self.genera)

    @property
    def n_legs(self):
        return len(self.legs)

    @property
    def genus(self):
        return sum(self.genera) + len(self.edges) - self.n_vertices + 1

    def valence(self, v):
        return self.legs.count(v) + sum((a == v) + (b == v)
                                        for a, b in self.edges)

    def leg_order(self, v):
        """Slots at v: external legs by label, then edge halves in edge
        order (half 0 before half 1)."""
        slots = [("leg", j + 1) for j, x in enumerate(self.legs) if x == v]
        for e, (a, b) in enumerate(self.edges):
            if a == v:
                slots.append(("edge", e, 0))
            if b == v:
                slots.append(("edge", e, 1))
        return tuple(slots)

    def vertex_type(self, v):
        return (self.genera[v], self.valence(v))

    def is_connected(self):
        seen = {0} if self.n_vertices else set()
        grew = True
        while grew:
            grew = False
            for a, b in self.edges:
                if (a in seen) != (b in seen):
                    seen |= {a, b}
                    grew = True
        return bool(seen) and len(seen) == self.n_vertices

    def is_stable(self):
        return all(2 * self.genera[v] - 2 + self.valence(v) > 0
                   for v in range(self.n_vertices))

    def permuted(self, perm):
        """Relabel vertices by v -> perm[v]; edges re-sorted canonically."""
        n = self.n_vertices
        genera = [0] * n
        for v in range(n):
            genera[perm[v]] = self.genera[v]
        legs = tuple(perm[x] for x in self.legs)
        edges = sorted(tuple(sorted((perm[a], perm[b]))) for (a, b) in self.edges)
        return StableGraph(genera, legs, edges)

    def canonical_key(self):
        """The least (genera, legs, edges) of ``permuted(perm)`` over all
        vertex relabellings perm, by refinement: the least genera are the
        sorted ones, so each vertex keeps to its genus block; the least
        legs give each leg-carrying vertex, in leg order, the smallest
        free label of its block; only the leg-free vertices are left to
        permute, inside their blocks, for the least edges."""
        genera = tuple(sorted(self.genera))
        free = {gv: genera.index(gv) for gv in genera}
        label = [None] * self.n_vertices
        for v in self.legs:
            if label[v] is None:
                label[v] = free[self.genera[v]]
                free[self.genera[v]] += 1
        legs = tuple(label[v] for v in self.legs)
        rest = [[v for v in range(self.n_vertices)
                 if label[v] is None and self.genera[v] == gv] for gv in free]
        best = None
        for images in itertools.product(*(
                itertools.permutations(range(free[gv], free[gv] + len(vs)))
                for gv, vs in zip(free, rest))):
            for vs, labels in zip(rest, images):
                for v, x in zip(vs, labels):
                    label[v] = x
            edges = tuple(sorted((label[a], label[b]) if label[a] <= label[b]
                                 else (label[b], label[a])
                                 for a, b in self.edges))
            if best is None or edges < best:
                best = edges
        return genera, legs, best

def graph_isomorphisms(g1: StableGraph, g2: StableGraph):
    """All decorated isomorphisms g1 -> g2 fixing external legs.

    Yields (vertex_map, slot_map) where slot_map sends each slot
    descriptor of g1 to one of g2, in lexicographic order of vertex_map
    and then of the edge and orientation choices.  The legs fix the image
    of every leg-carrying vertex; only the others are permuted.
    """
    n = g1.n_vertices
    if (n != g2.n_vertices or len(g1.edges) != len(g2.edges)
            or g1.n_legs != g2.n_legs):
        return
    fixed = dict(zip(g1.legs, g2.legs))
    if (len(set(fixed.values())) != len(fixed)
            or any(fixed[a] != b for a, b in zip(g1.legs, g2.legs))):
        return
    rest = [v for v in range(n) if v not in fixed]
    # group g2 edges by their endpoint pair
    targets = {}
    for e2, (a, b) in enumerate(g2.edges):
        targets.setdefault(tuple(sorted((a, b))), []).append(e2)
    for images in itertools.permutations(
            sorted(set(range(n)) - set(fixed.values()))):
        perm = [fixed.get(v) for v in range(n)]
        for v, x in zip(rest, images):
            perm[v] = x
        if any(g1.genera[v] != g2.genera[perm[v]] for v in range(n)):
            continue
        # group g1 edges by their image endpoint pair
        groups = {}
        ok = True
        for e1, (a, b) in enumerate(g1.edges):
            key = tuple(sorted((perm[a], perm[b])))
            if key not in targets:
                ok = False
                break
            groups.setdefault(key, []).append(e1)
        if not ok:
            continue
        if any(len(groups[k]) != len(targets[k]) for k in groups):
            continue
        if set(targets) != set(groups):
            continue
        keys = sorted(groups)
        assignments = [itertools.permutations(targets[k]) for k in keys]
        for assignment in itertools.product(*assignments):
            edge_map = {}
            for k, images in zip(keys, assignment):
                for e1, e2 in zip(groups[k], images):
                    edge_map[e1] = e2
            # orientation choices per edge
            orientation_options = []
            for e1, (a, b) in enumerate(g1.edges):
                e2 = edge_map[e1]
                a2, b2 = g2.edges[e2]
                opts = []
                if (perm[a], perm[b]) == (a2, b2):
                    opts.append((0, 1))
                if (perm[a], perm[b]) == (b2, a2):
                    opts.append((1, 0))
                opts = list(dict.fromkeys(opts))
                if not opts:
                    break
                orientation_options.append(opts)
            else:
                for orient in itertools.product(*orientation_options):
                    slot_map = {("leg", j + 1): ("leg", j + 1)
                                for j in range(g1.n_legs)}
                    for e1 in range(len(g1.edges)):
                        e2 = edge_map[e1]
                        h0, h1 = orient[e1]
                        slot_map[("edge", e1, 0)] = ("edge", e2, h0)
                        slot_map[("edge", e1, 1)] = ("edge", e2, h1)
                    yield tuple(perm), slot_map


def graph_automorphisms(g: StableGraph):
    return list(graph_isomorphisms(g, g))


def _leg_tuples(need, l):
    """Every l-tuple of vertices in which vertex v occurs at least
    need[v] times: a prefix grows while the legs it still owes its
    vertices fit in the positions left."""
    prefixes = [((), tuple(need), sum(k for k in need if k > 0))]
    for left in range(l - 1, -1, -1):
        prefixes = [(p + (v,), n[:v] + (k - 1,) + n[v + 1:], d - (k > 0))
                    for p, n, d in prefixes for v, k in enumerate(n)
                    if d - (k > 0) <= left]
    return [p for p, _, d in prefixes if not d]


@lru_cache(maxsize=None)
def enumerate_stable_graphs(g: int, l: int):
    """Isomorphism classes of stable l-labelled graphs of genus g, sorted
    by canonical key; every returned graph is canonical.

    Requires 2g - 2 + l > 0.  Each connected edge multiset on sorted
    genera gets every leg tuple that makes all its vertices stable, and
    the canonical keys deduplicate them.
    """
    if not is_stable(g, l):
        raise ValueError(f"({g}, {l}) is unstable")
    found = {}
    vmax = max(1, 2 * g - 2 + l)
    for nv in range(1, vmax + 1):
        for genera in itertools.combinations_with_replacement(range(g + 1), nv):
            total_vertex_genus = sum(genera)
            if total_vertex_genus > g:
                continue
            n_edges = g - total_vertex_genus + nv - 1
            if n_edges < 0:
                continue
            pairs = [(a, b) for a in range(nv) for b in range(a, nv)]
            for edges in itertools.combinations_with_replacement(pairs, n_edges):
                # connectivity and edge valences do not depend on the legs
                bare = StableGraph(genera, (), edges)
                if not bare.is_connected():
                    continue
                # vertex v is stable when 2 g_v - 2 + valence > 0
                need = [3 - 2 * genera[v] - bare.valence(v) for v in range(nv)]
                for legs in _leg_tuples(need, l):
                    key = StableGraph(genera, legs, edges).canonical_key()
                    if key not in found:
                        found[key] = StableGraph(*key)
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def graph_types(g: int, l: int):
    """The vertex types (genus, valence) of each graph of
    ``enumerate_stable_graphs(g, l)``, by position."""
    return tuple(tuple(gr.vertex_type(v) for v in range(gr.n_vertices))
                 for gr in enumerate_stable_graphs(g, l))


@lru_cache(maxsize=None)
def _catalog_index(g: int, l: int):
    """Position of each graph of ``enumerate_stable_graphs(g, l)`` by its
    canonical key."""
    return {(gr.genera, gr.legs, gr.edges): i
            for i, gr in enumerate(enumerate_stable_graphs(g, l))}


# -- concrete graphs (intermediate states of structure maps) -----------------


class ConcreteGraph(_Frozen):
    """Graph produced mid-computation, before matching to the catalog.

    ``slot_orders[v]`` lists, in the order of the tensor slots of the
    element sitting at v, the descriptors those slots currently occupy.
    Each rearrangement substitutes graphs into a small outer graph
    (``expand_vertex``): a corolla relabels legs, the two-vertex graph
    of a composition grafts, the one-vertex graph with a loop glues.  A
    value: equal graphs (all four fields tuples) compare and hash alike.
    """

    _fields = ("genera", "legs", "edges", "slot_orders")

    def __init__(self, genera, legs, edges, slot_orders):
        _setfield(self, "genera", genera)
        _setfield(self, "legs", legs)
        _setfield(self, "edges", edges)
        _setfield(self, "slot_orders", slot_orders)

    @property
    def genus(self):
        return sum(self.genera) + len(self.edges) - len(self.genera) + 1

    def as_stable_graph(self):
        return StableGraph(self.genera, self.legs, self.edges)


def concrete_from_canonical(g: StableGraph) -> ConcreteGraph:
    return ConcreteGraph(g.genera, g.legs, g.edges,
                         tuple(g.leg_order(v) for v in range(g.n_vertices)))


def expand_vertex(c: ConcreteGraph, v: int, sub: ConcreteGraph) -> ConcreteGraph:
    """Substitute a graph for vertex v; its legs take over v's slots.

    The k-th slot of v (in slot_orders[v]) is wired to external leg k of
    ``sub``; sub must have genus equal to the decoration of v.  Sub's
    vertices take v's place and its edges follow c's.  The one rewiring
    of a concrete graph: relabelling, grafting and gluing call it.
    """
    slots = c.slot_orders[v]
    if len(sub.legs) != len(slots):
        raise ValueError("substituted graph has wrong number of legs")
    # the vertex of the result at each of v's slots, and at each vertex
    at = {s: v + u for s, u in zip(slots, sub.legs)}
    moved = [w + (len(sub.genera) - 1) * (w > v) for w in range(len(c.genera))]
    legs = tuple(at["leg", j] if w == v else moved[w]
                 for j, w in enumerate(c.legs, 1))
    edges = tuple((at["edge", e, 0] if a == v else moved[a],
                   at["edge", e, 1] if b == v else moved[b])
                  for e, (a, b) in enumerate(c.edges))
    inner = tuple(tuple(slots[s[1] - 1] if s[0] == "leg"
                        else ("edge", s[1] + len(c.edges), s[2]) for s in so)
                  for so in sub.slot_orders)
    return ConcreteGraph(c.genera[:v] + sub.genera + c.genera[v + 1:], legs,
                         edges + tuple((v + a, v + b) for a, b in sub.edges),
                         c.slot_orders[:v] + inner + c.slot_orders[v + 1:])


def graft_graphs(c1: ConcreteGraph, i: int, c2: ConcreteGraph) -> ConcreteGraph:
    """Glue leg i of the first graph to leg 1 of the second.

    The second graph, then the first, is substituted into the two-vertex
    graph of the composition: its edge, edge 0 of the result, has half 0
    on the first graph, and its legs are first 1..i-1, second 2..m,
    first i+1..l, in that order.
    """
    l, m = len(c1.legs), len(c2.legs)
    if not 1 <= i <= l or not m:
        raise ValueError("grafting needs leg i of c1 and a leg of c2")
    # the slots of the outer vertices that c1 (a) and c2 (b) fill
    a = tuple(("leg", k + (m - 2) * (k > i)) if k != i else ("edge", 0, 0)
              for k in range(1, l + 1))
    b = (("edge", 0, 1),) + tuple(("leg", i + q - 2) for q in range(2, m + 1))
    legs = (0,) * (i - 1) + (1,) * (m - 1) + (0,) * (l - i)
    outer = ConcreteGraph((c1.genus, c2.genus), legs, ((0, 1),), (a, b))
    return expand_vertex(expand_vertex(outer, 1, c2), 0, c1)


def self_glue(c: ConcreteGraph, i: int, j: int) -> ConcreteGraph:
    """Glue legs i and j of the same graph; remaining legs keep order.

    The graph is substituted into the one-vertex graph whose loop, edge 0
    of the result, has half 0 at slot i and half 1 at slot j."""
    l = len(c.legs)
    if i == j or not (1 <= i <= l and 1 <= j <= l):
        raise ValueError("contraction needs two distinct legs")
    loop = {i: ("edge", 0, 0), j: ("edge", 0, 1)}
    outer = ConcreteGraph((c.genus,), (0,) * (l - 2), ((0, 0),), (tuple(
        loop.get(p, ("leg", p - (p > i) - (p > j))) for p in range(1, l + 1)),))
    return expand_vertex(outer, 0, c)


def relabel_legs(c: ConcreteGraph, sigma: Permutation) -> ConcreteGraph:
    """Right action on legs: new leg p sits where old leg sigma(p) was.

    The graph is substituted into the corolla whose slot k carries leg
    sigma^-1(k)."""
    if sigma.n != len(c.legs):
        raise ValueError("permutation and graph have different leg counts")
    corolla = ConcreteGraph((c.genus,), (0,) * sigma.n, (), (tuple(
        ("leg", k) for k in sigma.inverse().images),))
    return expand_vertex(corolla, 0, c)


class GraphMatch:
    """Result of matching a concrete graph against the catalog: the
    catalog position, the vertex map onto that graph and, by concrete
    vertex, the slot permutation (canonical slot -> factor slot)."""

    __slots__ = ("index", "vertex_map", "slot_perms")

    def __init__(self, index, vertex_map, slot_perms):
        self.index = index
        self.vertex_map = vertex_map
        self.slot_perms = slot_perms


def match_graph(c: ConcreteGraph) -> GraphMatch:
    """Match c against ``enumerate_stable_graphs(genus, legs)`` of its own
    genus and leg count: the catalog graph with c's canonical key, by the
    first isomorphism onto it.  Catalog graphs are pairwise
    non-isomorphic, so no other entry could match.  The free builder
    remembers the matches it asks for (``free._MATCHES``)."""
    underlying = c.as_stable_graph()
    g, l = underlying.genus, underlying.n_legs
    idx = _catalog_index(g, l).get(underlying.canonical_key())
    if idx is None:
        raise LookupError("graph not found in catalog")
    cand = enumerate_stable_graphs(g, l)[idx]
    vertex_map, slot_map = next(graph_isomorphisms(underlying, cand))
    slot_perms = {}
    for v, slots in enumerate(c.slot_orders):
        image_slots = [slot_map[s] for s in slots]
        slot_perms[v] = _slot_perm(tuple(
            image_slots.index(d) + 1 for d in cand.leg_order(vertex_map[v])))
    return GraphMatch(idx, vertex_map, slot_perms)


# one Permutation object for each slot permutation of a graph or tree
# match the free builder makes; its twist columns are kept by them
_slot_perm = lru_cache(maxsize=None)(Permutation)
