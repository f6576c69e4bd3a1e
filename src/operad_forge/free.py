"""Free (modular) operads and the constructions built on them.

Components of the free operad are indexed by reduced labelled trees,
those of the free modular operad by stable graphs with coinvariants
under graph automorphisms.  All structure maps reduce to one routine:
build the combinatorially grafted/expanded object, match it against the
catalog of canonical representatives, and push basis labels through the
induced per-vertex slot permutations and the Koszul factor reordering.

Operads built here carry ``free`` (layout bookkeeping) and ``tower``
(generator levels and attachment maps) data used by the minimal-model
machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chain import ChainComplex, ChainMap, TensorData, koszul_reorder_sign
from .qlinalg import F0, F1, Matrix, kernel
from .sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    coinvariants,
    modular_dimension,
    stable_pairs_up_to,
)
from .operad import CompTable, ContrTable, DGOperad, ModularOperad, OperadMorphism
from . import trees as T


# -- shared assembly ----------------------------------------------------------


def push_label(factor_actions, sigmas, label, perm_images, target_td, scale, out):
    """Push one basis label of a factor sequence into a target tensor.

    Each factor is first twisted by its slot permutation (as a right
    action), then the factors are reordered into the target order with
    the Koszul sign; contributions accumulate in ``out`` keyed by
    (degree, target index).
    """
    degs = [d for d, _ in label]
    sign = koszul_reorder_sign(degs, perm_images)
    per_factor = []
    for ga, sig, (d, k) in zip(factor_actions, sigmas, label):
        if sig.is_identity():
            per_factor.append(((k, F1),))
        else:
            col = ga.action(sig).block(d).col(k)
            per_factor.append(tuple((r, c) for r, c in enumerate(col) if c != 0))
    base = scale * sign
    m = len(label)
    for combo in itertools.product(*per_factor):
        coeff = base
        for (_, c) in combo:
            coeff = coeff * c
        newlabel = [None] * m
        for p in range(m):
            newlabel[perm_images[p]] = (degs[p], combo[p][0])
        tdeg, pos = target_td.index(tuple(newlabel))
        key = (tdeg, pos)
        out[key] = out.get(key, F0) + coeff
        if out[key] == 0:
            del out[key]


@dataclass
class Layout:
    """Offsets of a direct sum of complexes, per degree."""

    complexes: list

    def __post_init__(self):
        self.offsets = {}
        self.dims = {}
        for s, c in enumerate(self.complexes):
            for deg, d in c.dims.items():
                self.offsets[(s, deg)] = self.dims.get(deg, 0)
                self.dims[deg] = self.dims.get(deg, 0) + d

    def dim(self, degree):
        return self.dims.get(degree, 0)

    def offset(self, summand, degree):
        return self.offsets.get((summand, degree), 0)

    def locate(self, degree, index):
        for s, c in enumerate(self.complexes):
            d = c.dim(degree)
            off = self.offset(s, degree)
            if off <= index < off + d:
                return s, index - off
        raise IndexError("index outside layout")


@dataclass
class TowerData:
    """Generator levels and attachment maps of a free-based operad."""

    levels: tuple
    gen_actions: dict    # level key(s) -> GroupAction of the generators
    attachments: dict    # level key(s) -> dict degree -> Matrix (component coords)


class _FreeBuilder:
    """What both free builders offer the constructions built on them.

    Subclasses keep ``summands`` and ``layouts`` per component key and
    say, per summand, which generator key decorates each vertex
    (``vertex_types``) and what a basis vector evaluates to in another
    operad (``evaluate_basis``).
    """

    def corolla_summand(self, key):
        """The summand of a component holding its own generators (one
        vertex, of type key), or None.  A one-vertex graph with a loop
        is not the corolla: its vertex has another type."""
        for s in range(len(self.summands[key])):
            if self.vertex_types(key, s) == [key]:
                return s
        return None

    def evaluation(self, dst, images, key, select=None):
        """Evaluation matrices (degree -> Matrix) of the component at
        key in dst, the generators sent along ``images``.

        ``select(s)``, when given, picks the summands to evaluate; the
        columns of the others stay zero.
        """
        layout = self.layouts[key]
        target = dst.component(key)
        blocks = {deg: [[F0] * layout.dim(deg) for _ in range(target.dim(deg))]
                  for deg in layout.dims}
        for s, cc in enumerate(layout.complexes):
            if select is not None and not select(s):
                continue
            for deg in cc.dims:
                for col in range(cc.dim(deg)):
                    gcol = layout.offset(s, deg) + col
                    res = self.evaluate_basis(dst, images, key, s, deg, col)
                    for d, vec in res.items():
                        if d != deg:
                            raise AssertionError("degree drift in evaluation")
                        for r, x in enumerate(vec):
                            blocks[d][r][gcol] = x
        return {d: Matrix(target.dim(d), layout.dim(d), g)
                for d, g in blocks.items()}


# -- free operads on trees ----------------------------------------------------


class FreeOperadBuilder(_FreeBuilder):
    """Gamma(V) on a finite window of arities.

    ``gens`` maps arity -> GroupAction (the generator module); the
    differential is the derivation extending the generators' internal
    differential plus the optional attachment maps (used by principal
    extensions and minimal models).
    """

    def __init__(self, gens, max_arity):
        self.gens = dict(gens)
        self.max_arity = max_arity
        self.summands = {}
        self.layouts = {}
        self._summand_of = {}
        for n in range(2, max_arity + 1):
            items = []
            for tree in T.enumerate_trees(n):
                factors = tuple(self._gen_complex(len(v.children))
                                for v in tree.vertices())
                td = TensorData(factors)
                if td.complex.is_zero():
                    continue
                items.append((tree, td))
            self.summands[n] = items
            self._summand_of[n] = {tree: s for s, (tree, _) in enumerate(items)}
            self.layouts[n] = Layout([td.complex for _, td in items])

    def _gen_complex(self, arity):
        ga = self.gens.get(arity)
        return ga.complex if ga else ChainComplex.zero()

    def _gen_action(self, arity):
        ga = self.gens.get(arity)
        if ga is None:
            raise KeyError(f"no generators in arity {arity}")
        return ga

    def summand_index(self, n, tree):
        try:
            return self._summand_of[n][tree]
        except KeyError:
            raise KeyError("tree summand not present") from None

    def vertex_types(self, n, s):
        return [len(v.children) for v in self.summands[n][s][0].vertices()]

    def evaluate_basis(self, dst, images, n, s, deg, col):
        tree, td = self.summands[n][s]
        d, vec = evaluate_tree_basis(dst, tree, images, td.basis(deg)[col])
        return {d: vec}

    # -- normalized pushes ----------------------------------------------------

    def _push_planar(self, n, planar, factor_actions, label, scale, out):
        """Normalize a planar tree and push a label into the component."""
        match = T.normalize_planar(planar)
        s = self.summand_index(n, match.tree)
        td = self.summands[n][s][1]
        perm_images = [0] * len(match.factor_order)
        for pos, fid in enumerate(match.factor_order):
            perm_images[fid] = pos
        sigmas = [match.input_perms[fid] for fid in range(len(factor_actions))]
        local = {}
        push_label(factor_actions, sigmas, label, perm_images, td, scale, local)
        layout = self.layouts[n]
        for (deg, pos), coeff in local.items():
            key = (deg, layout.offset(s, deg) + pos)
            out[key] = out.get(key, F0) + coeff

    # -- component construction ----------------------------------------------

    def component_complex(self, n, attachments=None):
        layout = self.layouts[n]
        dims = dict(layout.dims)
        diff_entries = {deg: {} for deg in dims}
        for s, (tree, td) in enumerate(self.summands[n]):
            verts = tree.vertices()
            factor_actions = [self._gen_action(len(v.children)) for v in verts]
            for deg in td.complex.dims:
                dmat = td.complex.d(deg)
                for col in range(td.complex.dim(deg)):
                    gcol = layout.offset(s, deg) + col
                    coldict = diff_entries[deg].setdefault(gcol, {})
                    # internal tensor differential (block diagonal)
                    if not dmat.is_zero():
                        for r in range(dmat.rows):
                            c = dmat.data[r][col]
                            if c != 0:
                                grow = layout.offset(s, deg - 1) + r
                                coldict[grow] = coldict.get(grow, F0) + c
                    # attachment derivation terms
                    if attachments:
                        label = td.basis(deg)[col]
                        self._derivation_terms(n, s, tree, verts, factor_actions,
                                               label, attachments, coldict)
        diff = {}
        for deg in dims:
            rows = layout.dim(deg - 1)
            if rows == 0:
                continue
            grid = [[F0] * dims[deg] for _ in range(rows)]
            any_entry = False
            for col, coldict in diff_entries[deg].items():
                for row, coeff in coldict.items():
                    if coeff != 0:
                        grid[row][col] = coeff
                        any_entry = True
            if any_entry:
                diff[deg] = Matrix(rows, dims[deg], grid)
        return ChainComplex(dims, diff)

    def _derivation_terms(self, n, s, tree, verts, factor_actions, label,
                          attachments, coldict):
        sign = F1
        for fv, vert in enumerate(verts):
            kv = len(vert.children)
            att = attachments.get(kv)
            dv, kk = label[fv]
            if att and (dv in att) and not att[dv].is_zero():
                col = att[dv].col(kk)
                sub_layout = self.layouts[kv]
                for row, coeff in enumerate(col):
                    if coeff == 0:
                        continue
                    ssub, local = sub_layout.locate(dv - 1, row)
                    sub_tree, sub_td = self.summands[kv][ssub]
                    sub_label = sub_td.basis(dv - 1)[local]
                    planar, actions, big_label = self._expanded_planar(
                        tree, fv, sub_tree, label, sub_label, factor_actions)
                    out = {}
                    self._push_planar(n, planar, actions, big_label,
                                      sign * coeff, out)
                    for key, c in out.items():
                        grow = key[1]
                        coldict[grow] = coldict.get(grow, F0) + c
            if dv % 2:
                sign = -sign
        return coldict

    def _expanded_planar(self, tree, fv, sub_tree, label, sub_label,
                         factor_actions):
        """Planar tree with vertex fv replaced by sub_tree.

        Factor ids follow the sequence order: tree's vertices with the
        slot of fv replaced by the block of sub_tree's vertices.
        """
        n_old = len(factor_actions)
        n_sub = len(sub_tree.vertices())

        def remap(fid):
            if fid < fv:
                return fid
            if fid == fv:
                return None
            return fid + n_sub - 1

        counter = [0]

        def walk(t):
            if t.is_leaf:
                return t.label
            fid = counter[0]
            counter[0] += 1
            children = tuple(walk(c) for c in t.children)
            if fid == fv:
                # paste sub_tree: its leaves 1..kv wire to these children
                sub_planar = T.tree_to_planar(sub_tree, factor_offset=0)

                def paste(p):
                    if isinstance(p, int):
                        return children[p - 1]
                    return T.PlanarNode(fv + p.factor,
                                        tuple(paste(c) for c in p.children))

                return paste(sub_planar)
            return T.PlanarNode(remap(fid), children)

        planar = walk(tree)
        sub_actions = [self._gen_action(len(v.children))
                       for v in sub_tree.vertices()]
        actions = (factor_actions[:fv] + sub_actions + factor_actions[fv + 1:])
        big_label = label[:fv] + tuple(sub_label) + label[fv + 1:]
        return planar, actions, big_label

    # -- structure maps --------------------------------------------------------

    def action_generator(self, n, j, component):
        """ChainMap of the adjacent transposition s_j on component n."""
        sigma = Permutation.transposition(n, j)
        inv = sigma  # adjacent transpositions are involutions
        blocks_entries = {}
        for s, (tree, td) in enumerate(self.summands[n]):
            verts = tree.vertices()
            factor_actions = [self._gen_action(len(v.children)) for v in verts]
            planar = T.tree_to_planar(tree)
            relabeled = T.planar_relabel(
                planar, {lbl: inv(lbl) for lbl in range(1, n + 1)})
            for deg in td.complex.dims:
                for col in range(td.complex.dim(deg)):
                    label = td.basis(deg)[col]
                    out = {}
                    self._push_planar(n, relabeled, factor_actions, label,
                                      F1, out)
                    gcol = self.layouts[n].offset(s, deg) + col
                    for (tdeg, grow), coeff in out.items():
                        blocks_entries.setdefault(tdeg, {}).setdefault(
                            gcol, {})[grow] = coeff
        blocks = {}
        for deg, cols in blocks_entries.items():
            dim = self.layouts[n].dim(deg)
            grid = [[F0] * dim for _ in range(dim)]
            for col, rows in cols.items():
                for row, coeff in rows.items():
                    grid[row][col] = coeff
            blocks[deg] = Matrix(dim, dim, grid)
        return ChainMap(component, component, blocks, check=False)

    def composition_table(self, l, i, m):
        table = CompTable()
        n = l + m - 1
        layout_l, layout_m = self.layouts[l], self.layouts[m]
        for s1, (t1, td1) in enumerate(self.summands[l]):
            verts1 = t1.vertices()
            for s2, (t2, td2) in enumerate(self.summands[m]):
                verts2 = t2.vertices()
                planar1 = T.tree_to_planar(t1)
                relabel1 = {j: (j if j < i else (i if j == i else j + m - 1))
                            for j in range(1, l + 1)}
                planar1 = T.planar_relabel(planar1, relabel1)
                planar2 = T.tree_to_planar(
                    t2, factor_offset=len(verts1),
                    relabel={p: p + i - 1 for p in range(1, m + 1)})
                grafted = T.planar_substitute_leaf(planar1, i, planar2)
                factor_actions = (
                    [self._gen_action(len(v.children)) for v in verts1]
                    + [self._gen_action(len(v.children)) for v in verts2])
                for deg1 in td1.complex.dims:
                    for c1 in range(td1.complex.dim(deg1)):
                        lab1 = td1.basis(deg1)[c1]
                        k1 = layout_l.offset(s1, deg1) + c1
                        for deg2 in td2.complex.dims:
                            for c2 in range(td2.complex.dim(deg2)):
                                lab2 = td2.basis(deg2)[c2]
                                k2 = layout_m.offset(s2, deg2) + c2
                                out = {}
                                self._push_planar(n, grafted, factor_actions,
                                                  lab1 + lab2, F1, out)
                                for (tdeg, grow), coeff in out.items():
                                    table.add(deg1, k1, deg2, k2, grow, coeff)
        return table

    def finish(self, attachments=None, check_actions=False) -> DGOperad:
        attachments = attachments or {}
        actions = {}
        for n in range(2, self.max_arity + 1):
            comp = self.component_complex(n, attachments)
            if comp.is_zero():
                continue
            gens = [self.action_generator(n, j, comp) for j in range(1, n)]
            actions[n] = GroupAction(n, comp, gens, check=check_actions)
        comp_tables = {}
        for l in range(2, self.max_arity + 1):
            for m in range(2, self.max_arity + 1):
                if l + m - 1 > self.max_arity:
                    continue
                if l not in actions or m not in actions:
                    continue
                for i in range(1, l + 1):
                    tab = self.composition_table(l, i, m)
                    if not tab.is_zero():
                        comp_tables[(l, i, m)] = tab
        op = DGOperad(SigmaModule(actions, check=False), comp_tables,
                      self.max_arity)
        op.free = self
        op.tower = TowerData(
            levels=tuple(sorted(self.gens)),
            gen_actions=dict(self.gens),
            attachments={k: dict(v) for k, v in attachments.items()})
        return op


def free_operad(module: SigmaModule, max_arity: int,
                run_validation=False) -> DGOperad:
    """Free dg operad on an arity-indexed module with V(1) = 0."""
    if 1 in module.components and not module.component(1).is_zero():
        raise ValueError("free operad requires V(1) = 0")
    gens = {l: ga for l, ga in module.components.items() if l >= 2}
    op = FreeOperadBuilder(gens, max_arity).finish()
    if run_validation:
        from .operad import validate
        report = validate(op)
        if report:
            raise AssertionError("free operad failed validation: "
                                 + "; ".join(report[:3]))
    return op


# -- free modular operads on stable graphs ------------------------------------


class FreeModularBuilder(_FreeBuilder):
    """M(V) on the window of modular dimension <= max_dim.

    Component summands are the coinvariants of graph spaces under graph
    automorphisms; structure maps are computed at graph-space level and
    sandwiched between the coinvariant inclusions and projections.
    """

    def __init__(self, gens, max_dim):
        self.gens = dict(gens)
        self.max_dim = max_dim
        self.summands = {}   # (g,l) -> list of (graph, TensorData, Coinvariants)
        self.layouts = {}
        self._summand_of = {}
        for key in stable_pairs_up_to(max_dim):
            items = []
            for graph in T.enumerate_stable_graphs(*key):
                td = TensorData(tuple(self._gen_complex(graph.vertex_type(v))
                                      for v in range(graph.n_vertices)))
                if td.complex.is_zero():
                    continue
                coin = coinvariants(td.complex,
                                    self._automorphism_maps(graph, td))
                if coin.complex.is_zero():
                    continue
                items.append((graph, td, coin))
            self.summands[key] = items
            self._summand_of[key] = {graph: s for s, (graph, _, _)
                                     in enumerate(items)}
            self.layouts[key] = Layout([c.complex for _, _, c in items])

    def _gen_complex(self, key):
        ga = self.gens.get(key)
        return ga.complex if ga else ChainComplex.zero()

    def _gen_action(self, key):
        ga = self.gens.get(key)
        if ga is None:
            raise KeyError(f"no generators at {key}")
        return ga

    def _automorphism_maps(self, graph, td):
        maps = []
        for vperm, slot_map in T.graph_automorphisms(graph):
            if all(vperm[v] == v for v in range(graph.n_vertices)) \
                    and all(slot_map[s] == s for s in slot_map):
                continue
            maps.append(self._iso_chain_map(graph, td, graph, td, vperm,
                                            slot_map))
        if not maps:
            maps.append(ChainMap.identity(td.complex))
        return maps

    def _iso_chain_map(self, g1, td1, g2, td2, vperm, slot_map):
        factor_actions = [self._gen_action(g1.vertex_type(v))
                          for v in range(g1.n_vertices)]
        sigmas = []
        for v in range(g1.n_vertices):
            target_order = g2.leg_order(vperm[v])
            image_slots = [slot_map[s] for s in g1.leg_order(v)]
            sigmas.append(Permutation(tuple(
                image_slots.index(d) + 1 for d in target_order)))
        perm_images = list(vperm)
        blocks_entries = {}
        for deg in td1.complex.dims:
            dim_t = td2.complex.dim(deg)
            grid = [[F0] * td1.complex.dim(deg) for _ in range(dim_t)]
            for col in range(td1.complex.dim(deg)):
                out = {}
                push_label(factor_actions, sigmas, td1.basis(deg)[col],
                           perm_images, td2, F1, out)
                for (tdeg, row), coeff in out.items():
                    grid[row][col] = coeff
            blocks_entries[deg] = Matrix(dim_t, td1.complex.dim(deg), grid)
        return ChainMap(td1.complex, td2.complex, blocks_entries, check=False)

    # -- pushing through a concrete graph --------------------------------------

    def _push_concrete(self, key, concrete, factor_actions, vlevel_vectors,
                       scale, out):
        """Map graph-space vectors through the match to the catalog.

        ``vlevel_vectors``: dict (deg, label) -> coeff at graph-space
        level, with labels in the concrete factor sequence order.
        Accumulates component coordinates (after coinvariant projection)
        into ``out``.  Targets whose coinvariants vanished contribute
        nothing.
        """
        match = T.match_graph(concrete)
        target_graph = T.enumerate_stable_graphs(*key)[match.index]
        index = self._summand_of[key].get(target_graph)
        if index is None:
            return
        graph, td, coin = self.summands[key][index]
        match = T.GraphMatch(index, match.vertex_map, match.slot_perms)
        sigmas = [match.slot_perms[v] for v in range(len(factor_actions))]
        perm_images = list(match.vertex_map)
        vout = {}
        for (label, coeff) in vlevel_vectors:
            push_label(factor_actions, sigmas, label, perm_images, td,
                       scale * coeff, vout)
        layout = self.layouts[key]
        for deg in set(d for d, _ in vout):
            dim = td.complex.dim(deg)
            vec = [F0] * dim
            for (d, pos), coeff in vout.items():
                if d == deg:
                    vec[pos] = coeff
            proj = coin.projection.block(deg).apply(vec)
            for row, coeff in enumerate(proj):
                if coeff != 0:
                    gkey = (deg, layout.offset(match.index, deg) + row)
                    out[gkey] = out.get(gkey, F0) + coeff

    def _lift_component_basis(self, key, summand, deg, col):
        """Inclusion of a coinvariant basis vector: list of (label, coeff)."""
        graph, td, coin = self.summands[key][summand]
        vec = coin.inclusion.block(deg).col(col)
        basis = td.basis(deg)
        return [(basis[r], c) for r, c in enumerate(vec) if c != 0]

    def vertex_types(self, key, s):
        graph = self.summands[key][s][0]
        return [graph.vertex_type(v) for v in range(graph.n_vertices)]

    def evaluate_basis(self, dst, images, key, s, deg, col):
        return evaluate_graph_basis(dst, self.summands[key][s][0], images,
                                    self._lift_component_basis(key, s, deg, col))

    # -- components -------------------------------------------------------------

    def component_complex(self, key, attachments=None):
        layout = self.layouts[key]
        dims = dict(layout.dims)
        diff_cols = {deg: {} for deg in dims}
        for s, (graph, td, coin) in enumerate(self.summands[key]):
            cc = coin.complex
            for deg in cc.dims:
                dmat = cc.d(deg)
                for col in range(cc.dim(deg)):
                    gcol = layout.offset(s, deg) + col
                    coldict = diff_cols[deg].setdefault(gcol, {})
                    if not dmat.is_zero():
                        for r in range(dmat.rows):
                            c = dmat.data[r][col]
                            if c != 0:
                                grow = layout.offset(s, deg - 1) + r
                                coldict[grow] = coldict.get(grow, F0) + c
                    if attachments:
                        self._modular_derivation(key, s, deg, col, attachments,
                                                 coldict)
        diff = {}
        for deg in dims:
            rows = layout.dim(deg - 1)
            if rows == 0:
                continue
            grid = [[F0] * dims[deg] for _ in range(rows)]
            nonzero = False
            for col, coldict in diff_cols[deg].items():
                for row, coeff in coldict.items():
                    if coeff != 0:
                        grid[row][col] = coeff
                        nonzero = True
            if nonzero:
                diff[deg] = Matrix(rows, dims[deg], grid)
        return ChainComplex(dims, diff)

    def _modular_derivation(self, key, s, deg, col, attachments, coldict):
        graph, td, coin = self.summands[key][s]
        lifted = self._lift_component_basis(key, s, deg, col)
        factor_actions = [self._gen_action(graph.vertex_type(v))
                          for v in range(graph.n_vertices)]
        for v in range(graph.n_vertices):
            vkey = graph.vertex_type(v)
            att = attachments.get(vkey)
            if not att:
                continue
            for (label, lcoeff) in lifted:
                dv, kk = label[v]
                if dv not in att or att[dv].is_zero():
                    continue
                sign = F1
                for p in range(v):
                    if label[p][0] % 2:
                        sign = -sign
                colvec = att[dv].col(kk)
                sub_layout = self.layouts[vkey]
                for row, coeff in enumerate(colvec):
                    if coeff == 0:
                        continue
                    ssub, local = sub_layout.locate(dv - 1, row)
                    sub_graph, sub_td, sub_coin = self.summands[vkey][ssub]
                    concrete = T.expand_vertex(
                        T.concrete_from_canonical(graph), v,
                        T.concrete_from_canonical(sub_graph))
                    sub_lift = self._lift_component_basis(vkey, ssub,
                                                          dv - 1, local)
                    combined = [
                        (label[:v] + tuple(sl) + label[v + 1:], lc)
                        for (sl, lc) in sub_lift]
                    actions = (factor_actions[:v]
                               + [self._gen_action(sub_graph.vertex_type(u))
                                  for u in range(sub_graph.n_vertices)]
                               + factor_actions[v + 1:])
                    out = {}
                    self._push_concrete(key, concrete, actions, combined,
                                        sign * lcoeff * coeff, out)
                    for (tdeg, grow), c in out.items():
                        coldict[grow] = coldict.get(grow, F0) + c

    def action_generator(self, key, j, component):
        g, l = key
        sigma = Permutation.transposition(l, j)
        blocks_entries = {}
        layout = self.layouts[key]
        for s, (graph, td, coin) in enumerate(self.summands[key]):
            factor_actions = [self._gen_action(graph.vertex_type(v))
                              for v in range(graph.n_vertices)]
            concrete = T.relabel_legs(T.concrete_from_canonical(graph), sigma)
            cc = coin.complex
            for deg in cc.dims:
                for col in range(cc.dim(deg)):
                    lifted = self._lift_component_basis(key, s, deg, col)
                    out = {}
                    self._push_concrete(key, concrete, factor_actions, lifted,
                                        F1, out)
                    gcol = layout.offset(s, deg) + col
                    for (tdeg, grow), coeff in out.items():
                        blocks_entries.setdefault(tdeg, {}).setdefault(
                            gcol, {})[grow] = coeff
        blocks = {}
        for deg, cols in blocks_entries.items():
            dim = layout.dim(deg)
            grid = [[F0] * dim for _ in range(dim)]
            for col, rows in cols.items():
                for row, coeff in rows.items():
                    grid[row][col] = coeff
            blocks[deg] = Matrix(dim, dim, grid)
        return ChainMap(component, component, blocks, check=False)

    def composition_table(self, key1, i, key2):
        table = CompTable()
        tkey = (key1[0] + key2[0], key1[1] + key2[1] - 2)
        layout1, layout2 = self.layouts[key1], self.layouts[key2]
        for s1, (g1, td1, coin1) in enumerate(self.summands[key1]):
            actions1 = [self._gen_action(g1.vertex_type(v))
                        for v in range(g1.n_vertices)]
            for s2, (g2, td2, coin2) in enumerate(self.summands[key2]):
                actions2 = [self._gen_action(g2.vertex_type(v))
                            for v in range(g2.n_vertices)]
                concrete = T.graft_graphs(T.concrete_from_canonical(g1), i,
                                          T.concrete_from_canonical(g2))
                actions = actions1 + actions2
                cc1, cc2 = coin1.complex, coin2.complex
                for deg1 in cc1.dims:
                    for c1 in range(cc1.dim(deg1)):
                        lift1 = self._lift_component_basis(key1, s1, deg1, c1)
                        k1 = layout1.offset(s1, deg1) + c1
                        for deg2 in cc2.dims:
                            for c2 in range(cc2.dim(deg2)):
                                lift2 = self._lift_component_basis(
                                    key2, s2, deg2, c2)
                                k2 = layout2.offset(s2, deg2) + c2
                                combined = [(l1 + l2, a * b)
                                            for (l1, a) in lift1
                                            for (l2, b) in lift2]
                                out = {}
                                self._push_concrete(tkey, concrete, actions,
                                                    combined, F1, out)
                                for (tdeg, grow), coeff in out.items():
                                    table.add(deg1, k1, deg2, k2, grow, coeff)
        return table

    def contraction_table(self, key, i, j):
        table = ContrTable()
        tkey = (key[0] + 1, key[1] - 2)
        layout = self.layouts[key]
        for s, (graph, td, coin) in enumerate(self.summands[key]):
            actions = [self._gen_action(graph.vertex_type(v))
                       for v in range(graph.n_vertices)]
            concrete = T.self_glue(T.concrete_from_canonical(graph), i, j)
            cc = coin.complex
            for deg in cc.dims:
                for col in range(cc.dim(deg)):
                    lifted = self._lift_component_basis(key, s, deg, col)
                    out = {}
                    self._push_concrete(tkey, concrete, actions, lifted, F1,
                                        out)
                    k = layout.offset(s, deg) + col
                    for (tdeg, grow), coeff in out.items():
                        table.add(deg, k, grow, coeff)
        return table

    def finish(self, attachments=None, check_actions=False) -> ModularOperad:
        attachments = attachments or {}
        actions = {}
        for key in stable_pairs_up_to(self.max_dim):
            comp = self.component_complex(key, attachments)
            if comp.is_zero():
                continue
            l = key[1]
            gens = [self.action_generator(key, j, comp) for j in range(1, l)]
            actions[key] = GroupAction(l, comp, gens, check=check_actions)
        comp_tables, contr_tables = {}, {}
        probe = ModularOperad(ModularSigmaModule(actions, check=False), {}, {},
                              self.max_dim)
        for trip in probe.comp_keys():
            key1, i, key2 = trip
            if key1 not in actions or key2 not in actions:
                continue
            tkey = probe.comp_target(key1, i, key2)
            if tkey not in actions:
                continue
            tab = self.composition_table(key1, i, key2)
            if not tab.is_zero():
                comp_tables[trip] = tab
        for (key, i, j) in probe.contr_keys():
            if key not in actions:
                continue
            if (key[0] + 1, key[1] - 2) not in actions:
                continue
            tab = self.contraction_table(key, i, j)
            if tab.entries:
                contr_tables[(key, i, j)] = tab
        op = ModularOperad(ModularSigmaModule(actions, check=False),
                           comp_tables, contr_tables, self.max_dim)
        op.free = self
        op.tower = TowerData(
            levels=tuple(sorted({modular_dimension(*k) for k in self.gens})),
            gen_actions=dict(self.gens),
            attachments={k: dict(v) for k, v in attachments.items()})
        return op


def free_modular_operad(module: ModularSigmaModule, max_dim: int,
                        run_validation=False) -> ModularOperad:
    """Free dg modular operad on a modular module, within the window."""
    gens = dict(module.components)
    op = FreeModularBuilder(gens, max_dim).finish()
    if run_validation:
        from .operad import validate
        report = validate(op)
        if report:
            raise AssertionError("free modular operad failed validation: "
                                 + "; ".join(report[:3]))
    return op


# -- endomorphism modular operad ----------------------------------------------


def _normalize_pairing(v: ChainComplex, pairing):
    if isinstance(pairing, Matrix):
        pairing = {0: pairing}
    out = {}
    for i, m in pairing.items():
        if not m.is_zero():
            out[int(i)] = m
    for i in v.dims:
        if v.dim(-i) != v.dim(i):
            raise ValueError("inner product needs dim V_i = dim V_{-i}")
        if i not in out and v.dim(i):
            raise ValueError(f"missing pairing block in degree {i}")
        if out[i].rows != v.dim(i) or out[i].cols != v.dim(-i):
            raise ValueError(f"pairing block at degree {i} has wrong shape")
    return out


def _validate_pairing(v: ChainComplex, b):
    from .qlinalg import rank as _rank
    for i, m in b.items():
        if m.rows != m.cols or _rank(m) != m.rows:
            raise ValueError("inner product is degenerate")
        sign = -F1 if i % 2 else F1
        other = b.get(-i)
        if other is None or other != m.transpose().scale(sign):
            raise ValueError("inner product is not graded symmetric")
    # compatibility with the differential: B(dx, y) + (-1)^|x| B(x, dy) = 0
    for i in v.dims:
        j = 1 - i
        if v.dim(j) == 0:
            continue
        di = v.d(i)
        dj = v.d(j)
        for a in range(v.dim(i)):
            for bidx in range(v.dim(j)):
                lhs = F0
                if v.dim(i - 1) and (i - 1) in b and v.dim(j):
                    col = di.col(a)
                    for r, c in enumerate(col):
                        if c != 0:
                            lhs += c * b[i - 1].data[r][bidx]
                rhs = F0
                if v.dim(j - 1) and i in b:
                    col = dj.col(bidx)
                    for r, c in enumerate(col):
                        if c != 0:
                            rhs += c * b[i].data[a][r]
                total = lhs + (rhs if i % 2 == 0 else -rhs)
                if total != 0:
                    raise ValueError("inner product is not a chain map")


def endomorphism_modular_operad(v: ChainComplex, pairing,
                                max_dim: int) -> ModularOperad:
    """E[V]: components V^(x)l with contractions along the inner product.

    ``pairing`` is a matrix (V concentrated in degree 0) or a dict
    degree -> matrix with B(e_a^(i), e_b^(-i)) = pairing[i][a][b]; it
    must be graded symmetric, non-degenerate and compatible with the
    differential.  Compositions contract slot i of the first factor
    with slot 1 of the second; contractions pair two slots of the same
    factor, with Koszul signs from reordering the slots to adjacency.
    """
    b = _normalize_pairing(v, pairing)
    _validate_pairing(v, b)
    tds = {}
    actions = {}
    for key in stable_pairs_up_to(max_dim):
        g, l = key
        td = TensorData((v,) * l)
        if td.complex.is_zero():
            continue
        tds[key] = td
        gens = []
        from .chain import reorder_map
        for j in range(1, l):
            sigma = Permutation.transposition(l, j)
            images = [sigma(q) - 1 for q in range(1, l + 1)]
            _, rmap = reorder_map(td, images)
            gens.append(ChainMap(td.complex, td.complex, rmap.blocks,
                                 check=False))
        actions[key] = GroupAction(l, td.complex, gens, check=False)
    comp = {}
    contr = {}
    probe = ModularOperad(ModularSigmaModule(actions, check=False), {}, {},
                          max_dim)
    for trip in probe.comp_keys():
        key1, i, key2 = trip
        if key1 not in tds or key2 not in tds:
            continue
        tkey = probe.comp_target(key1, i, key2)
        if tkey not in tds:
            continue
        td1, td2, tdt = tds[key1], tds[key2], tds[tkey]
        l, m = key1[1], key2[1]
        table = CompTable()
        for deg1 in td1.complex.dims:
            for k1, lab1 in enumerate(td1.basis(deg1)):
                for deg2 in td2.complex.dims:
                    for k2, lab2 in enumerate(td2.basis(deg2)):
                        di, ki = lab1[i - 1]
                        dj, kj = lab2[0]
                        if di + dj != 0 or di not in b:
                            continue
                        coeff = b[di].data[ki][kj]
                        if coeff == 0:
                            continue
                        tail_a = sum(d for d, _ in lab1[i:])
                        rest_b = sum(d for d, _ in lab2[1:])
                        if (di % 2) and (tail_a % 2):
                            coeff = -coeff
                        if (tail_a % 2) and (rest_b % 2):
                            coeff = -coeff
                        newlab = lab1[:i - 1] + lab2[1:] + lab1[i:]
                        tdeg, pos = tdt.index(newlab)
                        table.add(deg1, k1, deg2, k2, pos, coeff)
        if not table.is_zero():
            comp[trip] = table
    for (key, i, j) in probe.contr_keys():
        if key not in tds:
            continue
        tkey = (key[0] + 1, key[1] - 2)
        if tkey not in tds:
            continue
        td, tdt = tds[key], tds[tkey]
        table = ContrTable()
        for deg in td.complex.dims:
            for k, lab in enumerate(td.basis(deg)):
                di, ki = lab[i - 1]
                dj, kj = lab[j - 1]
                if di + dj != 0 or di not in b:
                    continue
                coeff = b[di].data[ki][kj]
                if coeff == 0:
                    continue
                before_i = sum(d for d, _ in lab[:i - 1])
                before_j = sum(d for d, _ in lab[:j - 1]) - di
                if (di % 2) and (before_i % 2):
                    coeff = -coeff
                if (dj % 2) and (before_j % 2):
                    coeff = -coeff
                newlab = tuple(x for p, x in enumerate(lab)
                               if p not in (i - 1, j - 1))
                tdeg, pos = tdt.index(newlab)
                table.add(deg, k, pos, coeff)
        if table.entries:
            contr[(key, i, j)] = table
    op = ModularOperad(ModularSigmaModule(actions, check=False), comp, contr,
                       max_dim)
    return op


# -- morphisms out of free operads --------------------------------------------


def _eval_tree(dst, tree, elements):
    """Compose decorated-vertex elements along a tree inside dst.

    ``elements``: iterator of (degree, vector) per preorder vertex;
    returns (arity, degree, vector) before the final leg relabel.
    """

    def walk(node):
        deg, vec = next(elements)
        arity = len(node.children)
        pos = 1
        for child in node.children:
            if child.is_leaf:
                pos += 1
                continue
            sub_ar, sub_deg, sub_vec = walk(child)
            vec = dst.compose(arity, pos, sub_ar, deg, vec, sub_deg, sub_vec)
            arity = arity + sub_ar - 1
            deg = deg + sub_deg
            pos += sub_ar
        return arity, deg, vec

    return walk(tree)


def evaluate_tree_basis(dst, tree, images, label):
    """Image in dst of one summand basis label of the free operad.

    ``images``: dict arity -> ChainMap from the generator complex into
    dst.component(arity).  Returns (degree, vector).
    """
    verts = tree.vertices()
    pieces = []
    for (d, k), vert in zip(label, verts):
        arity = len(vert.children)
        img = images[arity].block(d)
        col = img.col(k) if img.cols else ()
        pieces.append((d, tuple(col)))
    n = tree.arity
    ar, deg, vec = _eval_tree(dst, tree, iter(pieces))
    lam = Permutation(tuple(tree.leaves()))
    sigma = lam.inverse()
    if not sigma.is_identity():
        vec = dst.action(n, sigma).block(deg).apply(vec)
    return deg, vec


def _eval_graph(dst, graph, elements_by_vertex):
    """Glue decorated-vertex elements along a stable graph inside dst.

    Deterministic order: vertices in index order via a BFS spanning
    tree, then the remaining edges by index.  Returns (genus, legs
    descriptor list, degree, vector) before the final leg relabel.
    """
    nv = graph.n_vertices
    visit_order = [0]
    visited = {0}
    tree_edges = []
    while len(visited) < nv:
        found = None
        for e, (a, bb) in enumerate(graph.edges):
            if e in tree_edges:
                continue
            if (a in visited) != (bb in visited):
                cand = (e, a, bb)
                if found is None or cand < found:
                    found = cand
        if found is None:
            raise AssertionError("graph is not connected")
        e, a, bb = found
        w = bb if a in visited else a
        tree_edges.append(e)
        visit_order.append(w)
        visited.add(w)
    # Koszul sign from reordering index order -> visit order
    degs = [elements_by_vertex[v][0] for v in range(nv)]
    perm_images = [0] * nv
    for pos, vtx in enumerate(visit_order):
        perm_images[vtx] = pos
    sign = koszul_reorder_sign(degs, perm_images)
    v0 = visit_order[0]
    g_cur = graph.genera[v0]
    deg, vec = elements_by_vertex[v0]
    vec = tuple(sign * x for x in vec)
    slots = list(graph.leg_order(v0))
    glued = set()
    for e in tree_edges:
        a, bb = graph.edges[e]
        if ("edge", e, 0) in slots:
            d_blob, w, d_w = ("edge", e, 0), bb, ("edge", e, 1)
        else:
            d_blob, w, d_w = ("edge", e, 1), a, ("edge", e, 0)
        worder = list(graph.leg_order(w))
        q = worder.index(d_w) + 1
        wkey = graph.vertex_type(w)
        wdeg, wvec = elements_by_vertex[w]
        cyc = Permutation.cycle_to_front(wkey[1], q)
        if not cyc.is_identity():
            wvec = dst.action(wkey, cyc).block(wdeg).apply(wvec)
        pos = slots.index(d_blob) + 1
        lcur = len(slots)
        vec = dst.compose((g_cur, lcur), pos, wkey, deg, vec, wdeg, wvec)
        slots = (slots[:pos - 1]
                 + [s for s in worder if s != d_w]
                 + slots[pos:])
        g_cur += wkey[0]
        deg += wdeg
        glued.add(e)
    for e in range(len(graph.edges)):
        if e in glued:
            continue
        p1 = slots.index(("edge", e, 0)) + 1
        p2 = slots.index(("edge", e, 1)) + 1
        vec = dst.contract((g_cur, len(slots)), min(p1, p2), max(p1, p2),
                           deg, vec)
        slots = [s for s in slots if s[:2] != ("edge", e)]
        g_cur += 1
    return g_cur, slots, deg, vec


def evaluate_graph_basis(dst, graph, images, vlevel_entries):
    """Image in dst of a graph-space vector given per-vertex images.

    ``vlevel_entries``: list of (label, coeff) in the graph-space basis;
    ``images``: dict (g,l) -> ChainMap into dst components.  Returns a
    dict (degree -> vector) accumulated over the entries.
    """
    out = {}
    key = (graph.genus, graph.n_legs)
    target = dst.component(key)
    for label, lcoeff in vlevel_entries:
        pieces = []
        for v in range(graph.n_vertices):
            d, k = label[v]
            img = images[graph.vertex_type(v)].block(d)
            pieces.append((d, tuple(img.col(k))))
        g_cur, slots, deg, vec = _eval_graph(dst, graph, pieces)
        if g_cur != key[0] or len(slots) != key[1]:
            raise AssertionError("graph evaluation lost track of the type")
        sigma = Permutation(tuple(slots.index(("leg", q)) + 1
                                  for q in range(1, key[1] + 1)))
        if not sigma.is_identity():
            vec = dst.action(key, sigma).block(deg).apply(vec)
        if any(x != 0 for x in vec):
            cur = out.get(deg)
            if cur is None:
                cur = [F0] * target.dim(deg)
            else:
                cur = list(cur)
            for r, x in enumerate(vec):
                cur[r] += lcoeff * x
            out[deg] = tuple(cur)
    return out


def morphism_from_generators(src, dst, images, check=True) -> OperadMorphism:
    """The operad morphism out of a free-based operad determined by
    generator images.

    ``images``: dict level-key -> ChainMap from the generator module
    component into the matching dst component.
    """
    builder = src.free
    if builder is None:
        raise ValueError("source operad carries no free-construction data")
    maps = {}
    for key in src.keys():
        comp = src.component(key)
        if not comp.is_zero():
            maps[key] = ChainMap(comp, dst.component(key),
                                 builder.evaluation(dst, images, key),
                                 check=check)
    return OperadMorphism(src, dst, maps)


# -- free extension of a truncated operad (t_!) -------------------------------


def extend_freely(op, up_to: int, strict=True):
    """t_!: extend a truncated operad freely up to the given level.

    Builds the free operad on all components of the truncation, divides
    by the ideal generated by the kernel of the evaluation back onto the
    truncation, and returns the quotient with its presentation attached.
    """
    from .operad import ideal_closure, quotient
    if op.cut is None:
        raise ValueError("extend_freely expects a truncated operad")
    cut = op.cut
    if up_to < cut:
        raise ValueError("extension window below the truncation cut")
    gens = {k: ga for k, ga in op.module.components.items()
            if not ga.complex.is_zero()}
    if isinstance(op, ModularOperad):
        builder = FreeModularBuilder(gens, up_to)
    else:
        builder = FreeOperadBuilder(gens, up_to)
    free_op = builder.finish()
    images = {k: ChainMap.identity(op.component(k)) for k in gens}
    seeds = {}
    keys_in_cut = [k for k in free_op.keys() if free_op.level(k) <= cut]
    for key in keys_in_cut:
        if free_op.component(key).is_zero():
            continue
        for deg, ev in builder.evaluation(op, images, key).items():
            ker = kernel(ev)
            if ker.dim:
                seeds.setdefault(key, {}).setdefault(deg, []).extend(
                    ker.basis.columns())
    ideal = ideal_closure(free_op, seeds)
    q, proj = quotient(free_op, ideal)
    if strict:
        for key in keys_in_cut:
            if q.component(key).dims != op.component(key).dims:
                raise AssertionError(
                    f"free extension does not restrict to the input at {key}")
    q.presentation = {"free": free_op, "ideal": ideal, "projection": proj}
    return q
