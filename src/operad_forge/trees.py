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
rearranged tree onto this catalogue; stable graphs are matched here
(``match_graph``).
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

    def __init__(self, label, children):
        _setfield(self, "label", label)
        _setfield(self, "children", children)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.label == other.label and self.children == other.children
        return NotImplemented

    def __hash__(self):
        return hash((self.label, self.children))

    def __repr__(self):
        return f"Tree(label={self.label!r}, children={self.children!r})"

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
        if self.is_leaf:
            return (0, self.label)
        return (1, len(self.children), tuple(c.sort_key() for c in self.children))

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


def _trees_on(labels):
    labels = tuple(labels)
    if len(labels) == 1:
        return [leaf(labels[0])]
    out = []
    for part in _set_partitions(list(labels)):
        if len(part) < 2:
            continue
        block_choices = [_trees_on(tuple(block)) for block in part]
        for combo in itertools.product(*block_choices):
            out.append(node(combo))
    return out


@lru_cache(maxsize=None)
def enumerate_trees(n: int):
    """Isomorphism classes of reduced trees with leaves 1..n.

    n = 1 yields the empty tuple (no unary vertices); counts follow the
    total-partition numbers 1, 4, 26, 236, ...
    """
    if n < 2:
        return ()
    trees = _trees_on(tuple(range(1, n + 1)))
    return tuple(sorted(trees, key=Tree.sort_key))


@lru_cache(maxsize=None)
def tree_tables(n: int):
    """Catalogue facts of ``enumerate_trees(n)`` by position: each tree's
    vertex types (child counts, preorder), slot masks
    (``Tree.slot_masks``) and preorder place of each vertex clade; and
    the position of each set of vertex clades."""
    masks = tuple(tuple(t.slot_masks()) for t in enumerate_trees(n))
    types = tuple(tuple(len(f) for f in m) for m in masks)
    places = tuple({sum(f): p for p, f in enumerate(m)} for m in masks)
    index = {frozenset(place): pos for pos, place in enumerate(places)}
    return types, masks, places, index


# -- stable graphs ------------------------------------------------------------


class StableGraph(_Frozen):
    """Connected genus-decorated graph with labelled external legs.

    ``legs[j-1]`` is the vertex carrying leg j; ``edges`` are ordered
    pairs (u, v) with half-edge 0 at u and half-edge 1 at v (self loops
    allowed).  Total genus = sum of vertex genera + first Betti number.
    """

    def __init__(self, genera, legs, edges):
        _setfield(self, "genera", genera)
        _setfield(self, "legs", legs)
        _setfield(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genera == other.genera and self.legs == other.legs
                    and self.edges == other.edges)
        return NotImplemented

    def __hash__(self):
        return hash((self.genera, self.legs, self.edges))

    def __repr__(self):
        return (f"StableGraph(genera={self.genera!r}, legs={self.legs!r}, "
                f"edges={self.edges!r})")

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
        return StableGraph(tuple(genera), legs, tuple(edges))

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
    A value: equal graphs (all four fields tuples) compare and hash
    alike.
    """

    def __init__(self, genera, legs, edges, slot_orders):
        _setfield(self, "genera", genera)
        _setfield(self, "legs", legs)
        _setfield(self, "edges", edges)
        _setfield(self, "slot_orders", slot_orders)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genera == other.genera and self.legs == other.legs
                    and self.edges == other.edges
                    and self.slot_orders == other.slot_orders)
        return NotImplemented

    def __hash__(self):
        return hash((self.genera, self.legs, self.edges, self.slot_orders))

    def __repr__(self):
        return (f"ConcreteGraph(genera={self.genera!r}, legs={self.legs!r}, "
                f"edges={self.edges!r}, slot_orders={self.slot_orders!r})")

    def as_stable_graph(self):
        return StableGraph(self.genera, self.legs, self.edges)


def concrete_from_canonical(g: StableGraph) -> ConcreteGraph:
    return ConcreteGraph(g.genera, g.legs, g.edges,
                         tuple(g.leg_order(v) for v in range(g.n_vertices)))


def _relabel_slot(slot, leg_map, edge_offset):
    kind = slot[0]
    if kind == "leg":
        return leg_map[slot[1]]
    return ("edge", slot[1] + edge_offset, slot[2])


def graft_graphs(c1: ConcreteGraph, i: int, c2: ConcreteGraph) -> ConcreteGraph:
    """Glue leg i of the first graph to leg 1 of the second.

    Result legs: first 1..i-1, second 2..m, first i+1..l, in that order;
    the new edge is appended last with half 0 on the first graph.
    """
    l, m = len(c1.legs), len(c2.legs)
    off = len(c1.genera)
    e_off1, e_off2 = 0, len(c1.edges)
    new_edge = len(c1.edges) + len(c2.edges)
    leg_map1 = {}
    for j in range(1, l + 1):
        if j < i:
            leg_map1[j] = ("leg", j)
        elif j == i:
            leg_map1[j] = ("edge", new_edge, 0)
        else:
            leg_map1[j] = ("leg", j + m - 2)
    leg_map2 = {1: ("edge", new_edge, 1)}
    for q in range(2, m + 1):
        leg_map2[q] = ("leg", i + q - 2)
    genera = c1.genera + c2.genera
    legs = [None] * (l + m - 2)
    for j in range(1, l + 1):
        if j != i:
            slot = leg_map1[j]
            legs[slot[1] - 1] = c1.legs[j - 1]
    for q in range(2, m + 1):
        slot = leg_map2[q]
        legs[slot[1] - 1] = c2.legs[q - 1] + off
    edges = list(c1.edges)
    edges.extend((a + off, b + off) for (a, b) in c2.edges)
    edges.append((c1.legs[i - 1], c2.legs[0] + off))
    slot_orders = []
    for v in range(len(c1.genera)):
        slot_orders.append(tuple(_relabel_slot(s, leg_map1, e_off1)
                                 for s in c1.slot_orders[v]))
    for v in range(len(c2.genera)):
        slot_orders.append(tuple(_relabel_slot(s, leg_map2, e_off2)
                                 for s in c2.slot_orders[v]))
    return ConcreteGraph(genera, tuple(legs), tuple(edges), tuple(slot_orders))


def self_glue(c: ConcreteGraph, i: int, j: int) -> ConcreteGraph:
    """Glue legs i and j of the same graph; remaining legs keep order."""
    l = len(c.legs)
    if i == j or not (1 <= i <= l and 1 <= j <= l):
        raise ValueError("contraction needs two distinct legs")
    new_edge = len(c.edges)
    leg_map = {}
    shift = 0
    for p in range(1, l + 1):
        if p == i:
            leg_map[p] = ("edge", new_edge, 0)
            shift += 1
        elif p == j:
            leg_map[p] = ("edge", new_edge, 1)
            shift += 1
        else:
            leg_map[p] = ("leg", p - sum(1 for q in (i, j) if q < p))
    legs = [None] * (l - 2)
    for p in range(1, l + 1):
        if p not in (i, j):
            legs[leg_map[p][1] - 1] = c.legs[p - 1]
    edges = list(c.edges) + [(c.legs[i - 1], c.legs[j - 1])]
    slot_orders = tuple(tuple(_relabel_slot(s, leg_map, 0) for s in so)
                        for so in c.slot_orders)
    return ConcreteGraph(c.genera, tuple(legs), tuple(edges), slot_orders)


def relabel_legs(c: ConcreteGraph, sigma: Permutation) -> ConcreteGraph:
    """Right action on legs: new leg p sits where old leg sigma(p) was."""
    l = len(c.legs)
    legs = tuple(c.legs[sigma(p) - 1] for p in range(1, l + 1))
    inv = sigma.inverse()
    leg_map = {j: ("leg", inv(j)) for j in range(1, l + 1)}
    slot_orders = tuple(tuple(_relabel_slot(s, leg_map, 0) for s in so)
                        for so in c.slot_orders)
    return ConcreteGraph(c.genera, legs, c.edges, slot_orders)


def expand_vertex(c: ConcreteGraph, v: int, sub: ConcreteGraph) -> ConcreteGraph:
    """Substitute a graph for vertex v; its legs take over v's slots.

    The k-th slot of v (in slot_orders[v]) is wired to external leg k of
    ``sub``; sub must have genus equal to the decoration of v.
    """
    kv = len(c.slot_orders[v])
    if len(sub.legs) != kv:
        raise ValueError("substituted graph has wrong number of legs")
    nv_sub = len(sub.genera)
    e_off = len(c.edges)

    def vmap(w):
        return w if w < v else w + nv_sub - 1

    def sub_vmap(u):
        return v + u

    # where does slot k of v end up attaching?
    anchors = {k + 1: c.slot_orders[v][k] for k in range(kv)}
    genera = (tuple(c.genera[w] for w in range(v)) + sub.genera
              + tuple(c.genera[w] for w in range(v + 1, len(c.genera))))
    # edges of c keep indices; endpoints at v are redirected into sub
    edges = []
    for e, (a, b) in enumerate(c.edges):
        na, nb = None, None
        for (end, vert) in ((0, a), (1, b)):
            if vert == v:
                # find which slot of v this half occupies
                k = next(k for k, d in anchors.items() if d == ("edge", e, end))
                target = sub_vmap(sub.legs[k - 1])
            else:
                target = vmap(vert)
            if end == 0:
                na = target
            else:
                nb = target
        edges.append((na, nb))
    edges.extend((sub_vmap(a), sub_vmap(b)) for (a, b) in sub.edges)
    legs = []
    for j, vert in enumerate(c.legs):
        if vert == v:
            k = next(k for k, d in anchors.items() if d == ("leg", j + 1))
            legs.append(sub_vmap(sub.legs[k - 1]))
        else:
            legs.append(vmap(vert))
    # slot orders: untouched vertices keep descriptors verbatim
    slot_orders = []
    for w in range(v):
        slot_orders.append(c.slot_orders[w])
    for u in range(nv_sub):
        slots = []
        for s in sub.slot_orders[u]:
            if s[0] == "leg":
                slots.append(anchors[s[1]])
            else:
                slots.append(("edge", s[1] + e_off, s[2]))
        slot_orders.append(tuple(slots))
    for w in range(v + 1, len(c.genera)):
        slot_orders.append(c.slot_orders[w])
    return ConcreteGraph(genera, tuple(legs), tuple(edges), tuple(slot_orders))


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
