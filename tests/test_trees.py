import itertools
import random

import pytest

from operad_forge.chain import ChainComplex
from operad_forge.free import FreeOperadBuilder
from operad_forge.sigma import (
    GroupAction,
    Permutation,
    SigmaModule,
    modular_dimension,
    stable_pairs_up_to,
)
from operad_forge.trees import (
    ConcreteGraph,
    GraphMatch,
    StableGraph,
    Tree,
    clade_code,
    concrete_from_canonical,
    enumerate_stable_graphs,
    enumerate_trees,
    expand_vertex,
    graft_graphs,
    graph_automorphisms,
    graph_isomorphisms,
    leaf,
    match_graph,
    node,
    relabel_legs,
    self_glue,
    tree_tables,
)

from helpers import (PlanarNode, assert_value_semantics, brute_canonical_key,
                     brute_graph_isomorphisms, graph_space_data,
                     normalize_planar, planar_substitute_leaf,
                     reference_enumerate_trees, tree_space_data,
                     tree_to_planar)


# -- oracles ------------------------------------------------------------------


def oracle_trees(n):
    """Recursive generation by root valence without canonical forms,
    deduplicated by exhaustive isomorphism testing."""

    def gen(labels):
        labels = tuple(labels)
        if len(labels) == 1:
            return [("leaf", labels[0])]
        out = []
        # choose the block containing the smallest label for each part
        def partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], list(items[1:])
            for k in range(len(rest) + 1):
                for block_rest in itertools.combinations(rest, k):
                    block = [first] + list(block_rest)
                    remaining = [x for x in rest if x not in block_rest]
                    for others in partitions(remaining):
                        yield [block] + others
        for part in partitions(list(labels)):
            if len(part) < 2:
                continue
            choices = [gen(tuple(b)) for b in part]
            for combo in itertools.product(*choices):
                out.append(("node", tuple(combo)))
        return out

    def iso(t1, t2):
        if t1[0] != t2[0]:
            return False
        if t1[0] == "leaf":
            return t1[1] == t2[1]
        c1, c2 = list(t1[1]), list(t2[1])
        if len(c1) != len(c2):
            return False
        if not c2:
            return True
        used = [False] * len(c2)

        def backtrack(i):
            if i == len(c1):
                return True
            for j in range(len(c2)):
                if not used[j] and iso(c1[i], c2[j]):
                    used[j] = True
                    if backtrack(i + 1):
                        return True
                    used[j] = False
            return False

        return backtrack(0)

    classes = []
    for t in gen(tuple(range(1, n + 1))):
        if not any(iso(t, c) for c in classes):
            classes.append(t)
    return classes


def oracle_stable_graphs(g, l):
    """Adjacency-matrix generation + pairwise isomorphism dedup, by the
    all-permutations reference isomorphisms."""
    classes = []
    vmax = max(1, 2 * g - 2 + l)
    for nv in range(1, vmax + 1):
        for genera in itertools.product(range(g + 1), repeat=nv):
            e_needed = g - sum(genera) + nv - 1
            if e_needed < 0:
                continue
            cells = [(a, b) for a in range(nv) for b in range(a, nv)]
            for counts in itertools.product(range(e_needed + 1), repeat=len(cells)):
                if sum(counts) != e_needed:
                    continue
                edges = []
                for (a, b), c in zip(cells, counts):
                    edges.extend([(a, b)] * c)
                for legs in itertools.product(range(nv), repeat=l):
                    cand = StableGraph(genera, legs, tuple(edges))
                    if not cand.is_connected() or not cand.is_stable():
                        continue
                    if not any(next(brute_graph_isomorphisms(cand, c), None)
                               for c in classes):
                        classes.append(cand)
    return classes


# -- trees --------------------------------------------------------------------


class TestEnumerateTrees:
    def test_small_counts(self):
        assert len(enumerate_trees(1)) == 0
        assert len(enumerate_trees(2)) == 1
        assert len(enumerate_trees(3)) == 4
        assert len(enumerate_trees(4)) == 26

    def test_against_oracle(self):
        for n in (2, 3, 4):
            assert len(enumerate_trees(n)) == len(oracle_trees(n))

    def test_shared_subtrees_against_reference(self):
        """The catalogue builds each tree from shared subtrees: the same
        trees in the same order as the unshared recursion, every equal
        subtree one object, and each tree found again by its clade
        code."""
        for n in range(2, 7):
            assert enumerate_trees(n) == reference_enumerate_trees(n)
        subtrees = []

        def walk(t):
            subtrees.append(t)
            for c in t.children:
                walk(c)

        for t in enumerate_trees(6):
            walk(t)
        assert len({id(t) for t in subtrees}) == len(set(subtrees))
        for n in range(2, 7):
            trees = enumerate_trees(n)
            codes = [clade_code(sum(f) for f in t.slot_masks()) for t in trees]
            assert len(set(codes)) == len(trees)
            assert tree_tables(n)[3] == {c: pos for pos, c in enumerate(codes)}

    def test_pairwise_distinct_canonical(self):
        for n in (2, 3, 4):
            trees = enumerate_trees(n)
            assert len(set(trees)) == len(trees)

    def test_three_leaf_shapes(self):
        trees = enumerate_trees(3)
        corollas = [t for t in trees if len(t.vertices()) == 1]
        binaries = [t for t in trees if len(t.vertices()) == 2]
        assert len(corollas) == 1 and len(binaries) == 3

    def test_leaves_and_valences(self):
        for t in enumerate_trees(4):
            assert sorted(t.leaves()) == [1, 2, 3, 4]
            assert all(v >= 2 for v in t.vertex_valences())

    def test_slot_masks(self):
        # children in slot order (by least leaf), leaf j as bit j - 1
        t = node([leaf(2), node([leaf(3), leaf(1)])])
        assert t.slot_masks() == [(0b101, 0b010), (0b001, 0b100)]
        for n in (2, 3, 4, 5):
            clade_sets = {frozenset(sum(f) for f in tree.slot_masks())
                          for tree in enumerate_trees(n)}
            assert len(clade_sets) == len(enumerate_trees(n))


class TestNormalize:
    def test_roundtrip_canonical(self):
        for t in enumerate_trees(4):
            match = normalize_planar(tree_to_planar(t))
            assert match.tree == t
            assert match.factor_order == tuple(range(len(t.vertices())))
            assert all(p.is_identity() for p in match.input_perms.values())

    def test_swapped_children(self):
        # planar node with children out of canonical order
        p = PlanarNode(0, (PlanarNode(1, (2, 3)), 1))
        match = normalize_planar(p)
        assert match.tree == node([leaf(1), node([leaf(2), leaf(3)])])
        assert match.input_perms[0] == Permutation((2, 1))

    def test_substitution_grafts(self):
        corolla = enumerate_trees(2)[0]
        p = tree_to_planar(corolla)
        sub = tree_to_planar(corolla, factor_offset=1, relabel={1: 2, 2: 3})
        grafted = planar_substitute_leaf(p, 2, sub)
        match = normalize_planar(grafted)
        assert match.tree == node([leaf(1), node([leaf(2), leaf(3)])])


class TestTreeSpace:
    def setup_method(self):
        self.module = SigmaModule({
            2: GroupAction.trivial(2, ChainComplex({0: 1})),
            3: GroupAction.trivial(3, ChainComplex({1: 1})),
        })

    def test_single_vertex(self):
        corolla = enumerate_trees(2)[0]
        assert tree_space_data(corolla, self.module).complex.dims == {0: 1}

    def test_degree_additivity(self):
        deg1 = SigmaModule({2: GroupAction.trivial(2, ChainComplex({1: 1}))})
        two_vertex = node([leaf(1), node([leaf(2), leaf(3)])])
        assert tree_space_data(two_vertex, deg1).complex.dims == {2: 1}

    def test_unsupported_valence_gives_zero(self):
        four = enumerate_trees(4)[0:1][0]
        # corolla with 4 inputs is not in the module support
        corolla4 = [t for t in enumerate_trees(4) if len(t.vertices()) == 1][0]
        assert tree_space_data(corolla4, self.module).complex.is_zero()


# -- stable graphs ------------------------------------------------------------


class TestEnumerateGraphs:
    def test_zero_three(self):
        graphs = enumerate_stable_graphs(0, 3)
        assert len(graphs) == 1
        g = graphs[0]
        assert g.n_vertices == 1 and g.genera == (0,) and g.edges == ()

    def test_one_one(self):
        graphs = enumerate_stable_graphs(1, 1)
        assert len(graphs) == 2
        kinds = sorted((g.genera, len(g.edges)) for g in graphs)
        assert kinds == [((0,), 1), ((1,), 0)]

    def test_zero_four(self):
        graphs = enumerate_stable_graphs(0, 4)
        assert len(graphs) == 4
        two_vertex = [g for g in graphs if g.n_vertices == 2]
        assert len(two_vertex) == 3

    def test_against_oracle(self):
        for (g, l) in [(0, 3), (0, 4), (1, 1), (1, 2), (0, 5), (2, 0), (1, 3)]:
            graphs = enumerate_stable_graphs(g, l)
            oracle = oracle_stable_graphs(g, l)
            assert len(graphs) == len(oracle)
            assert ({brute_canonical_key(gr) for gr in graphs}
                    == {brute_canonical_key(gr) for gr in oracle})
        # the seven stable graphs of M_2-bar, one per boundary stratum
        assert len(enumerate_stable_graphs(2, 0)) == 7

    def test_genus_zero_against_trees(self):
        # a genus-0 stable graph with l legs is a reduced tree with l - 1
        # leaves, rooted at leg l
        for l in range(3, 7):
            graphs = enumerate_stable_graphs(0, l)
            assert len(graphs) == len(enumerate_trees(l - 1))
            for gr in graphs:
                assert set(gr.genera) == {0}
                assert len(gr.edges) == gr.n_vertices - 1

    def test_genus_and_stability_recomputed(self):
        for (g, l) in [(0, 4), (1, 1), (1, 2), (2, 0)]:
            for gr in enumerate_stable_graphs(g, l):
                assert gr.genus == g
                assert gr.n_legs == l
                assert gr.is_stable() and gr.is_connected()

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            enumerate_stable_graphs(0, 2)


class TestAutomorphisms:
    def test_loop_swap(self):
        loop = [g for g in enumerate_stable_graphs(1, 1) if g.edges][0]
        auts = graph_automorphisms(loop)
        assert len(auts) == 2
        for _, slot_map in auts:
            assert slot_map[("leg", 1)] == ("leg", 1)

    def test_two_vertex_trivial(self):
        for g in enumerate_stable_graphs(0, 4):
            if g.n_vertices == 2:
                assert len(graph_automorphisms(g)) == 1

    def test_banana_has_edge_swap(self):
        graphs = enumerate_stable_graphs(1, 2)
        bananas = [g for g in graphs
                   if g.n_vertices == 2 and len(g.edges) == 2 and
                   all(a != b for a, b in g.edges)]
        assert len(bananas) == 1
        assert len(graph_automorphisms(bananas[0])) == 2

    def test_automorphisms_fix_graph(self):
        for (g, l) in [(1, 1), (1, 2), (0, 4)]:
            for gr in enumerate_stable_graphs(g, l):
                for perm, _ in graph_automorphisms(gr):
                    assert gr.permuted(perm).canonical_key() == gr.canonical_key()


def scrambled(gr, rng):
    """gr with its vertices relabelled by a random permutation, its edges
    shuffled and each edge turned round at random."""
    perm = list(range(gr.n_vertices))
    rng.shuffle(perm)
    h = gr.permuted(perm)
    edges = [e[::-1] if rng.random() < 0.5 else e for e in h.edges]
    rng.shuffle(edges)
    return StableGraph(h.genera, h.legs, tuple(edges))


class TestGraphKernelsAgainstReference:
    def test_scrambled_catalogue_up_to_dimension_three(self):
        rng = random.Random(23)
        for key in stable_pairs_up_to(3):
            catalog = enumerate_stable_graphs(*key)
            for gr in catalog:
                h = scrambled(gr, rng)
                key_of = (gr.genera, gr.legs, gr.edges)
                assert h.canonical_key() == brute_canonical_key(h) == key_of
                other = scrambled(rng.choice(catalog), rng)
                for a, b in ((h, h), (h, gr), (gr, h), (gr, gr),
                             (h, scrambled(gr, rng)), (h, other), (other, h)):
                    assert (list(graph_isomorphisms(a, b))
                            == list(brute_graph_isomorphisms(a, b)))


class TestConcreteOperations:
    def test_graft_two_corollas(self):
        c03 = enumerate_stable_graphs(0, 3)[0]
        a = concrete_from_canonical(c03)
        b = concrete_from_canonical(c03)
        grafted = graft_graphs(a, 2, b)
        assert grafted.as_stable_graph().genus == 0
        assert len(grafted.legs) == 4
        match = match_graph(grafted)
        target = enumerate_stable_graphs(0, 4)[match.index]
        assert target.n_vertices == 2

    def test_self_glue_gives_loop(self):
        c03 = concrete_from_canonical(enumerate_stable_graphs(0, 3)[0])
        glued = self_glue(c03, 2, 3)
        sg = glued.as_stable_graph()
        assert sg.genus == 1 and sg.n_legs == 1
        match = match_graph(glued)
        assert enumerate_stable_graphs(1, 1)[match.index].edges

    def test_relabel_legs(self):
        c03 = concrete_from_canonical(enumerate_stable_graphs(0, 3)[0])
        out = relabel_legs(c03, Permutation((2, 3, 1)))
        assert out.as_stable_graph().n_legs == 3
        # slots still enumerate all legs
        assert sorted(out.slot_orders[0]) == [("leg", 1), ("leg", 2), ("leg", 3)]

    def test_graft_rejects_bad_legs(self):
        # leg i of the first graph must exist, and the second needs a leg
        c03 = concrete_from_canonical(enumerate_stable_graphs(0, 3)[0])
        c20 = concrete_from_canonical(enumerate_stable_graphs(2, 0)[0])
        for i, c2 in ((0, c03), (4, c03), (1, c20)):
            with pytest.raises(ValueError):
                graft_graphs(c03, i, c2)

    def test_relabel_rejects_wrong_leg_count(self):
        c03 = concrete_from_canonical(enumerate_stable_graphs(0, 3)[0])
        for images in ((2, 1), (2, 3, 4, 1)):
            with pytest.raises(ValueError):
                relabel_legs(c03, Permutation(images))

    def test_expand_vertex(self):
        # substitute the 2-vertex (0,4) graph into the (0,4) corolla slot
        corolla = [g for g in enumerate_stable_graphs(0, 4) if g.n_vertices == 1][0]
        twov = [g for g in enumerate_stable_graphs(0, 4) if g.n_vertices == 2][0]
        host = concrete_from_canonical(corolla)
        out = expand_vertex(host, 0, concrete_from_canonical(twov))
        sg = out.as_stable_graph()
        assert sg.n_vertices == 2 and sg.genus == 0 and sg.n_legs == 4
        match = match_graph(out)

    def test_match_identity(self):
        for gr in enumerate_stable_graphs(1, 2):
            match = match_graph(concrete_from_canonical(gr))
            assert enumerate_stable_graphs(1, 2)[match.index] == gr


def linear_scan_match(c, catalog):
    """Reference: the first isomorphism onto the first catalog entry that
    admits one, scanning the catalog in order with the all-permutations
    reference isomorphisms."""
    underlying = c.as_stable_graph()
    for idx, cand in enumerate(catalog):
        for vertex_map, slot_map in brute_graph_isomorphisms(underlying, cand):
            slot_perms = {}
            for v in range(len(c.genera)):
                image_slots = [slot_map[s] for s in c.slot_orders[v]]
                slot_perms[v] = Permutation(tuple(
                    image_slots.index(d) + 1
                    for d in cand.leg_order(vertex_map[v])))
            return idx, vertex_map, slot_perms
    raise LookupError("graph not found in catalog")


def concrete_graphs_up_to(max_dim):
    """Every concrete graph one relabel_legs (adjacent transpositions and
    the cycle), graft_graphs or self_glue away from a catalog graph,
    with the key of its target catalog, within modular dimension max_dim."""
    keys = stable_pairs_up_to(max_dim)
    for (g, l) in keys:
        for gr in enumerate_stable_graphs(g, l):
            c = concrete_from_canonical(gr)
            sigmas = [Permutation.transposition(l, j) for j in range(1, l)]
            if l > 2:
                sigmas.append(Permutation(tuple(range(2, l + 1)) + (1,)))
            for sigma in sigmas:
                yield (g, l), relabel_legs(c, sigma)
            for i in range(1, l + 1):
                for j in range(i + 1, l + 1):
                    if modular_dimension(g + 1, l - 2) <= max_dim:
                        yield (g + 1, l - 2), self_glue(c, i, j)
            for (g2, l2) in keys:
                if l2 == 0 or modular_dimension(g + g2, l + l2 - 2) > max_dim:
                    continue
                for gr2 in enumerate_stable_graphs(g2, l2):
                    for i in range(1, l + 1):
                        yield ((g + g2, l + l2 - 2),
                               graft_graphs(c, i, concrete_from_canonical(gr2)))


class TestMatchAgainstLinearScan:
    def test_every_concrete_graph_up_to_dimension_three(self):
        seen = 0
        for key, c in concrete_graphs_up_to(3):
            match = match_graph(c)
            assert ((match.index, match.vertex_map, match.slot_perms)
                    == linear_scan_match(c, enumerate_stable_graphs(*key)))
            seen += 1
        assert seen > 1000

    def test_shared_match_is_read_only(self):
        c = concrete_from_canonical(enumerate_stable_graphs(1, 2)[1])
        with pytest.raises(AttributeError):
            c.legs = ()

    def test_unstable_graph_not_found(self):
        # a genus-0 vertex with two legs is unstable, so in no catalog
        c = ConcreteGraph((0, 0), (0, 0, 1, 1), ((0, 1),),
                          ((("leg", 1), ("leg", 2), ("edge", 0, 0)),
                           (("leg", 3), ("leg", 4), ("edge", 0, 1))))
        assert match_graph(c).index >= 0
        lonely = ConcreteGraph((0, 0), (0, 0, 0, 1), ((0, 1),),
                               ((("leg", 1), ("leg", 2), ("leg", 3),
                                 ("edge", 0, 0)),
                                (("leg", 4), ("edge", 0, 1))))
        with pytest.raises(LookupError):
            match_graph(lonely)


class TestSummandIndex:
    def test_own_index_and_missing_tree(self):
        gens = {2: GroupAction.trivial(2, ChainComplex({0: 1}))}
        builder = FreeOperadBuilder(gens, 5)
        for n in range(2, 6):
            assert builder.summands[n]
            for s, (tree, _) in enumerate(builder.summands[n]):
                assert builder.summand_index(n, tree) == s
        # trees with a ternary vertex carry no generators: not summands
        ternary = [t for t in enumerate_trees(4)
                   if 3 in t.vertex_valences()]
        assert ternary
        for tree in ternary:
            with pytest.raises(KeyError):
                builder.summand_index(4, tree)
        with pytest.raises(KeyError):
            builder.summand_index(3, enumerate_trees(4)[0])


class TestGraphSpace:
    def test_single_vertex_space(self):
        from operad_forge.sigma import ModularSigmaModule
        mod = ModularSigmaModule({
            (0, 3): GroupAction.trivial(3, ChainComplex({0: 2})),
        })
        corolla = enumerate_stable_graphs(0, 3)[0]
        assert graph_space_data(corolla, mod).complex.dims == {0: 2}

    def test_self_loop_space_dims(self):
        from operad_forge.sigma import ModularSigmaModule
        mod = ModularSigmaModule({
            (0, 3): GroupAction.trivial(3, ChainComplex({0: 3})),
        })
        loop = [g for g in enumerate_stable_graphs(1, 1) if g.edges][0]
        # legs of the loop are inputs of the same vertex
        assert graph_space_data(loop, mod).complex.dims == {0: 3}

    def test_two_vertex_tensor(self):
        from operad_forge.sigma import ModularSigmaModule
        mod = ModularSigmaModule({
            (0, 3): GroupAction.trivial(3, ChainComplex({0: 2})),
        })
        twov = [g for g in enumerate_stable_graphs(0, 4) if g.n_vertices == 2][0]
        assert graph_space_data(twov, mod).complex.dims == {0: 4}


# -- value semantics ----------------------------------------------------------

# one instance of each frozen value class, a second built from equal
# fields, one that differs, and the pinned repr
VALUES = {
    "tree": (lambda: Tree(None, (Tree(1, ()), Tree(2, ()))),
             lambda: Tree(None, (Tree(1, ()), Tree(3, ()))),
             "Tree(label=None, children=(Tree(label=1, children=()), "
             "Tree(label=2, children=())))"),
    "graph": (lambda: StableGraph((0, 1), (0, 0, 1), ((0, 1),)),
              lambda: StableGraph((1, 0), (0, 0, 1), ((0, 1),)),
              "StableGraph(genera=(0, 1), legs=(0, 0, 1), edges=((0, 1),))"),
    "concrete": (lambda: ConcreteGraph((0,), (0, 0, 0), (),
                                       ((("leg", 1), ("leg", 2), ("leg", 3)),)),
                 lambda: ConcreteGraph((0,), (0, 0, 0), (),
                                       ((("leg", 2), ("leg", 1), ("leg", 3)),)),
                 "ConcreteGraph(genera=(0,), legs=(0, 0, 0), edges=(), "
                 "slot_orders=((('leg', 1), ('leg', 2), ('leg', 3)),))"),
}


class TestValueClasses:
    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_value_semantics(self, name):
        assert_value_semantics(*VALUES[name])

    def test_hash_of_field_tuple(self):
        t = Tree(None, (Tree(1, ()), Tree(2, ())))
        assert hash(t) == hash((None, t.children))
        g = StableGraph((0,), (0, 0, 0), ())
        assert hash(g) == hash(((0,), (0, 0, 0), ()))
        slots = ((("leg", 1), ("leg", 2), ("leg", 3)),)
        c = ConcreteGraph((0,), (0, 0, 0), (), slots)
        assert hash(c) == hash(((0,), (0, 0, 0), (), slots))

    def test_list_and_tuple_fields(self):
        g = StableGraph([1, 0], [1, 1, 1], [[0, 1]])
        want = StableGraph((1, 0), (1, 1, 1), ((0, 1),))
        assert g == want and hash(g) == hash(want)
        assert repr(g) == repr(want) == \
            "StableGraph(genera=(1, 0), legs=(1, 1, 1), edges=((0, 1),))"

    def test_same_fields_other_class_unequal(self):
        assert Tree(1, ()) != PlanarNode(1, ())
        assert PlanarNode(1, ()) != Tree(1, ())

    def test_keyword_fields(self):
        assert Tree(label=None, children=(leaf(1), leaf(2))) \
            == node([leaf(1), leaf(2)])
        assert StableGraph(genera=(0,), legs=(0, 0, 0), edges=()) \
            == enumerate_stable_graphs(0, 3)[0]


class TestRecordClasses:
    def test_keyword_fields(self):
        perms = {0: Permutation((1, 2))}
        c = ConcreteGraph(genera=(0,), legs=(0, 0, 0), edges=(),
                          slot_orders=((("leg", 1), ("leg", 2), ("leg", 3)),))
        assert c.as_stable_graph() == enumerate_stable_graphs(0, 3)[0]
        assert c.slot_orders[0][2] == ("leg", 3)
        g = GraphMatch(index=0, vertex_map=(0,), slot_perms=perms)
        assert (g.index, g.vertex_map, g.slot_perms) == (0, (0,), perms)
