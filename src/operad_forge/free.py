"""Free (modular) operads and the constructions built on them.

Components of the free operad are indexed by reduced labelled trees,
those of the free modular operad by stable graphs with coinvariants
under graph automorphisms.  All structure maps reduce to one routine:
rearrange the object by substitution (into a corolla to relabel legs,
into the object of o_i to graft, into the loop graph to glue, into the
object itself to expand a vertex), match the result against the
catalog of canonical representatives, and push basis labels through
the induced per-vertex slot permutations and the Koszul factor
reordering, ``push_labels``: graph automorphisms and the endomorphism
operad's Sigma_n action reorder through it too (``_factor_map``).  A
rearranged tree is the leaf sets of its vertices' children, matched by
its set of vertex clades; a rearranged stable graph is a concrete graph
(``trees.expand_vertex``), matched by ``trees.match_graph``; each match
is made once per process (``_MATCHES``), and equal parts of two matches
are one object (``_shared``).
Morphisms out of a free operad take one route too: each summand is
composed in the target along a plan built once per summand (along the
tree's nesting, or along the stable graph's spanning tree and then its
other edges) and run by one executor, ``evaluate_tree_basis``.

An operad built here carries its builder as ``free``: the one record of
its generators (``gens``) and of the attachment maps it was finished
with (``attachments``), which the minimal-model machinery reads.
"""

from __future__ import annotations

from functools import cache

from .chain import ChainComplex, ChainMap, TensorData
from .qlinalg import F0, F1, Matrix, _combine, kernel, rank, sparse_row
from .sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    coinvariants,
    stable_pairs_up_to,
)
from .operad import (
    CompTable,
    DGOperad,
    ModularOperad,
    OperadMorphism,
    ideal_closure,
    quotient,
)
from . import trees as T


# -- shared assembly ----------------------------------------------------------


# rearrangement -> its match (``_matched``), for the process: ("image",
# key, pos, j), ("graft", key1, pos1, i, key2, pos2), ("expand", key,
# pos, v, vkey, subpos) or ("glue", key, pos, i, j), in catalogue positions
_MATCHES = {}


@cache
def _shared(part):
    """One object for each distinct tuple that a match holds
    (``_matched``): the match records share their parts."""
    return part


@cache
def _inversions(perm_images):
    """The pairs (p, q), p < q, of factors whose order the placing
    ``perm_images`` (a tuple, factor p to place ``perm_images[p]``)
    reverses; worked out once per placing."""
    m = len(perm_images)
    return _shared(tuple((p, q) for p in range(m) for q in range(p + 1, m)
                         if perm_images[p] > perm_images[q]))


@cache
def _twisted(sigmas):
    """The factors whose slot permutation is not the identity."""
    return _shared(tuple(p for p, sig in enumerate(sigmas)
                         if not sig.is_identity()))


def _odd(label, inversions):
    """Whether moving the factors of a tensor label across these
    inversions (``_inversions``) costs a Koszul sign."""
    return sum(label[p][0] * label[q][0] for p, q in inversions) % 2


def _matched(pos, sigmas, perm_images):
    """A match as the memo holds it: the target's catalogue position,
    each factor's slot permutation and place in the target, the pairs
    of factors the placing reverses and the factors whose slot
    permutation is not the identity; equal parts of two matches are one
    object (``_shared``)."""
    sigmas, perm_images = _shared(tuple(sigmas)), _shared(tuple(perm_images))
    return (pos, sigmas, perm_images, _inversions(perm_images),
            _twisted(sigmas))


def _twist(store, action, sigma):
    """degree -> the columns of sigma's action on a vertex's generators
    (``action``), worked out once per ``store``."""
    cols = store.get((action, sigma))
    if cols is None:
        act = action.action(sigma)
        cols = store[action, sigma] = {d: act.block(d).columns()
                                       for d in action.complex.dims}
    return cols


def push_labels(match, twists, target_td, labels, out):
    """Push basis labels [(label, coeff)] of a factor sequence into a
    target tensor along a match (``_matched``).

    Factor p is first twisted by its slot permutation (as a right
    action, of columns ``twists[p][d]`` in degree d, ``_twist``), then
    moved to position ``perm_images[p]`` of the target, with the Koszul
    sign of the reordering; contributions accumulate in ``out`` keyed by
    (degree, target index).
    """
    _, _, perm_images, inversions, twisted = match
    m = len(perm_images)
    for label, coeff in labels:
        if _odd(label, inversions):
            coeff = -coeff
        moved = [None] * m
        for p, entry in enumerate(label):
            moved[perm_images[p]] = entry
        terms = [(moved, coeff)]
        for p in twisted:
            d, k = label[p]
            pos = perm_images[p]
            terms = [(t[:pos] + [(d, r)] + t[pos + 1:], c * x)
                     for t, c in terms for r, x in twists[p][d][k]]
        for t, c in terms:
            key = target_td.index(tuple(t))
            if key in out:
                c += out.pop(key)
            if c:
                out[key] = c


def _factor_map(td1, td2, actions, sigmas, perm_images):
    """The chain map td1 -> td2 that twists factor p by its slot
    permutation ``sigmas[p]`` (through ``actions[p]``) and moves it to
    place ``perm_images[p]``, with the Koszul sign (``push_labels``)."""
    match = _matched(None, sigmas, perm_images)
    twists = {p: _twist({}, actions[p], sigmas[p]) for p in match[4]}
    blocks = {}
    for deg in td1.complex.dims:
        cols = {}
        for col, label in enumerate(td1.basis(deg)):
            out = {}
            push_labels(match, twists, td2, [(label, F1)], out)
            cols[col] = sparse_row({row: c for (_, row), c in out.items()})
        blocks[deg] = _assemble(td2.complex.dim(deg),
                                td1.complex.dim(deg), cols)
    return ChainMap(td1.complex, td2.complex, blocks, check=False)


def _assemble(rows, cols, entries):
    """The rows x cols Matrix of the sparse columns {col: sparse vector};
    the columns not given are zero."""
    columns = [()] * cols
    for col, column in entries.items():
        columns[col] = column
    return Matrix._trusted(cols, rows, tuple(columns)).transpose()


class Layout:
    """Offsets of a direct sum of complexes, per degree."""

    def __init__(self, complexes):
        self.complexes = complexes
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


class _Summand:
    """One summand of a component: ``item`` is the summand tuple (the
    catalogue object first, what carries its complex last), ``key`` its
    component, ``pos`` and ``place`` the object's places in the catalogue
    and in the layout order (``_catalogue``), ``types`` and ``actions``
    the generator key and action of each vertex, and ``s`` its place in
    the component's current layout.  The builder keys the work done on
    the summand, in its own coordinates, by this record."""

    __slots__ = ("key", "pos", "place", "item", "types", "actions", "s")

    def __init__(self, key, pos, place, item, types, actions):
        self.key = key
        self.pos = pos
        self.place = place
        self.item = item
        self.types = types
        self.actions = actions
        self.s = None


class _FreeBuilder:
    """The free (modular) operad on ``gens`` over the window of ``shape``.

    ``shape`` is an empty operad of the result's kind; it supplies the
    key arithmetic.  The component at a key is a direct sum of
    summands, one per catalogue object (tree or stable graph) whose
    vertices all carry generators: ``summands[key]`` lists them, each a
    tuple with the object first and, last, what carries the summand's
    complex (the tensor data, or the coinvariants); ``layouts[key]``
    places those complexes.
    Every structure map takes one route: rearrange the object (by
    substitution into a corolla, into the object of o_i, into the loop
    graph or into the object itself), match the result onto its summand,
    then lift each basis vector to tensor labels and push them there.

    A match depends only on the catalogues, not on the generators, so
    each is made once per process (``_found``): ``_MATCHES`` keeps, by
    the rearrangement in catalogue positions, the target's position,
    slot permutations and factor places (``_matched``).  Whether a
    summand sits at that position depends on the generators (its tensor
    or coinvariants may vanish), so each builder looks it up (``_at``).

    Generators can be added key by key (``add``), as a minimal model
    attaches them level by level.  A key's generators and attachments
    are set once, so the work done on a summand, in its own coordinates,
    stays valid as later summands join the layouts; each structure map
    places it through the current layout.

    Subclasses say what a summand is: the catalogue at a key with the
    generator key of each vertex of each object (``_canonical``), an
    object's position in it (``_position``), the summand tuple
    (``_summand``, None when it vanishes), the lift of a basis vector
    (``_lift``), the match of a rearranged object (``_match``) with the
    projection back onto the summand (``_project``), the rearrangements
    ``_swapped`` (legs j and j + 1 swapped), ``_grafted`` and
    ``_expanded`` of summand records, and the plan along which
    ``evaluation`` composes a summand in a target (``_plan``).
    """

    def __init__(self, gens, shape):
        self.gens = {}
        self.shape = shape
        # what the generators are attached along:
        # key -> degree -> {summand object: Matrix}
        self.attachments = {}
        self.summands = {}
        self.layouts = {}
        self._records = {}  # key -> the _Summand of each summand, in order
        self._at = {}       # key -> {catalogue position: _Summand}
        # key -> the catalogue entries (place, pos, object, types) some of
        # whose vertices carry no generators yet
        self._waiting = {}
        self._plans = {}    # _Summand -> its evaluation plan
        self._tensors = {}  # vertex types -> their TensorData
        # (vertex action, slot permutation) -> degree -> the columns of
        # the permutation's action
        self._twists = {}
        # until finish: the attachment blocks by column, and the work of
        # each summand that finish uses again, in the summand's own
        # coordinates: (_Summand, j) -> its columns under s_j, and
        # _Summand -> the attachment terms of d on its columns
        self._att_cols = None
        self._images = {}
        self._terms = {}
        for key in shape.keys():
            objects, types = self._canonical(key)
            catalogue = self._catalogue(key)
            self._waiting[key] = []
            for place, obj in enumerate(catalogue):
                pos = (place if catalogue is objects
                       else self._position(key, obj))
                self._waiting[key].append((place, pos, obj, types[pos]))
            self._records[key] = []
            self._at[key] = {}
            self.summands[key] = []
            self.layouts[key] = Layout([])
        self.add(gens)

    def add(self, gens, attachments=None):
        """Add generators (key -> GroupAction) and the attachment maps of
        their keys in summand coordinates (key -> degree d -> {summand
        object: Matrix}, rows the summand's basis in d - 1).  Each
        catalogue object whose vertices now all carry generators joins
        its component, in catalogue order, unless its summand vanishes.
        A key's generators and attachments are set once, together."""
        attachments = attachments or {}
        if gens.keys() & self.gens.keys() \
                or not attachments.keys() <= gens.keys():
            raise ValueError("a key's generators and attachments are set "
                             "once, together")
        self.gens.update(gens)
        for key, waiting in self._waiting.items():
            ready = [e for e in waiting if self.gens.keys() >= set(e[3])]
            if not ready:
                continue
            self._waiting[key] = [e for e in waiting
                                  if not self.gens.keys() >= set(e[3])]
            records = self._records[key]
            for place, pos, obj, types in ready:
                td = self._tensors.get(types)
                if td is None:
                    td = self._tensors[types] = TensorData(
                        tuple(self.gens[t].complex for t in types))
                item = None if td.complex.is_zero() else self._summand(obj, td)
                if item is not None:
                    rec = _Summand(key, pos, place, item, list(types),
                                   [self._gen_action(t) for t in types])
                    records.append(rec)
                    self._at[key][pos] = rec
            records.sort(key=lambda rec: rec.place)
            for s, rec in enumerate(records):
                rec.s = s
            self.summands[key] = [rec.item for rec in records]
            self.layouts[key] = Layout([item[-1].complex
                                        for item in self.summands[key]])
        if attachments:
            self.attachments.update(attachments)
            self._att_cols = None

    def _attachment_columns(self):
        """key -> degree -> [(_Summand, columns)]: the attachment blocks
        by column, built when first needed after attachments are added."""
        if self._att_cols is None:
            self._att_cols = {
                k: {d: [(self._record(k, obj), m.transpose().sparse)
                        for obj, m in blocks.items()]
                    for d, blocks in v.items()}
                for k, v in self.attachments.items()}
        return self._att_cols

    def _catalogue(self, key):
        """The catalogue at key in layout order: by default its own."""
        return self._canonical(key)[0]

    def _gen_action(self, key):
        return self.gens[key]

    def _record(self, key, obj):
        rec = self._at[key].get(self._position(key, obj))
        if rec is None:
            raise KeyError("summand not present")
        return rec

    def summand_index(self, key, obj):
        return self._record(key, obj).s

    def vertex_types(self, key, s):
        return self._records[key][s].types

    def corolla_summand(self, key):
        """The summand of a component holding its own generators (one
        vertex, of type key), or None.  A one-vertex graph with a loop
        is not the corolla: its vertex has another type."""
        for s in range(len(self.summands[key])):
            if self.vertex_types(key, s) == [key]:
                return s
        return None

    def summand_blocks(self, key, degree, m):
        """The nonzero row blocks {summand object: Matrix} of m, whose
        rows are the component at key in the given degree."""
        layout = self.layouts[key]
        blocks = {}
        for s, (obj, *_) in enumerate(self.summands[key]):
            off = layout.offset(s, degree)
            rows = m.sparse[off:off + layout.complexes[s].dim(degree)]
            if any(rows):
                blocks[obj] = Matrix._trusted(len(rows), m.cols, rows)
        return blocks

    def placed(self, key, degree, blocks):
        """One matrix on the component at key in the given degree from
        its row blocks {summand object: Matrix}."""
        layout = self.layouts[key]
        rows = [()] * layout.dim(degree)
        for obj, m in blocks.items():
            off = layout.offset(self.summand_index(key, obj), degree)
            rows[off:off + m.rows] = m.sparse
        return Matrix._trusted(len(rows), m.cols, tuple(rows))

    def placed_without_corolla(self, key, degree, blocks):
        """``placed`` without the rows of the corolla (key must carry
        generators): the matrix in the layout of the component at key
        before its own generators were added, whose summands are these
        but the corolla, in this order."""
        m = self.placed(key, degree, blocks)
        corolla = self.corolla_summand(key)
        layout = self.layouts[key]
        off = layout.offset(corolla, degree)
        end = off + layout.complexes[corolla].dim(degree)
        rows = m.sparse[:off] + m.sparse[end:]
        return Matrix._trusted(len(rows), m.cols, rows)

    def _columns(self, key, s):
        """(degree, summand column, component column) of each basis
        vector of summand s."""
        layout = self.layouts[key]
        for deg, dim in layout.complexes[s].dims.items():
            off = layout.offset(s, deg)
            for col in range(dim):
                yield deg, col, off + col

    def _found(self, key, how, rearranged):
        """(_Summand, match) of a rearranged object at key, None when its
        summand vanished here.  ``how`` names the rearrangement in
        catalogue positions; ``rearranged()`` makes the object, matched
        (``_match``) the first time the process meets ``how``."""
        match = _MATCHES.get(how)
        if match is None:
            match = _MATCHES[how] = self._match(key, rearranged())
        rec = self._at[key].get(match[0])
        return None if rec is None else (rec, match)

    def _local(self, key, found, actions, labels):
        """The tensor labels [(label, coeff)] of a rearranged object,
        matched onto its summand as ``found`` (``_found``), in that
        summand's own coordinates: (its _Summand, [((degree, row),
        coeff)]); an object whose summand vanished (``found`` None) gives
        (None, [])."""
        if found is None:
            return None, []
        rec, match = found
        sigmas = match[1]
        local = {}
        push_labels(match, {p: _twist(self._twists, actions[p], sigmas[p])
                            for p in match[4]}, rec.item[1], labels, local)
        return rec, list(self._project(key, rec.s, local))

    def _push(self, key, found, actions, labels):
        """``_local`` in component coordinates {(degree, row): coeff}."""
        rec, local = self._local(key, found, actions, labels)
        if rec is None:
            return {}
        layout = self.layouts[key]
        return {(deg, layout.offset(rec.s, deg) + pos): coeff
                for (deg, pos), coeff in local}

    # -- components and structure maps -----------------------------------------

    def component_complex(self, key):
        """The component at key; its differential is the summands' own
        plus the derivation extending the attachment maps."""
        return self._component_complex(key, keep=True)

    def _component_complex(self, key, keep):
        layout = self.layouts[key]
        cols = {deg: {} for deg in layout.dims}
        for s, cc in enumerate(layout.complexes):
            dcols = {d: m.transpose().sparse for d, m in cc.diff.items()}
            terms = self._kept(self._terms, self._records[key][s], keep,
                               lambda: self._attachment_terms(key, s))
            for deg, col, gcol in self._columns(key, s):
                column = cols[deg].setdefault(gcol, {})
                if deg in dcols:
                    off = layout.offset(s, deg - 1)
                    for r, c in dcols[deg][col]:
                        column[off + r] = column.get(off + r, F0) + c
                for target, local in terms.get((deg, col), ()):
                    for (d, pos), c in local:
                        r = layout.offset(target.s, d) + pos
                        column[r] = column.get(r, F0) + c
        # ChainComplex drops the zero ones
        diff = {deg: _assemble(layout.dim(deg - 1), layout.dim(deg), {
            gcol: sparse_row(column) for gcol, column in entries.items()})
            for deg, entries in cols.items()}
        return ChainComplex(dict(layout.dims), diff)

    @staticmethod
    def _kept(store, k, keep, work):
        """``store[k]``, else ``work()``; left in the store for finish
        when ``keep``, else taken out of it."""
        value = store.pop(k, None)
        if value is None:
            value = work()
        if keep:
            store[k] = value
        return value

    def _attachment_terms(self, key, s):
        """The attachment terms of d on each basis vector of summand s:
        each vertex in turn expanded into the attachment image of its
        generator, with the Koszul sign of the vertices before it.
        Returns {(degree, column): [(_Summand, local terms)]}."""
        rec = self._records[key][s]
        att_cols = self._attachment_columns()
        if all(t not in att_cols for t in rec.types):
            return {}
        terms = {}
        for deg, dim in rec.item[-1].complex.dims.items():
            for col in range(dim):
                lifted = self._lift(key, s, deg, col)
                found = []
                for v, vkey in enumerate(rec.types):
                    att = att_cols.get(vkey)
                    if not att:
                        continue
                    for label, lcoeff in lifted:
                        dv, kk = label[v]
                        if dv not in att:
                            continue
                        sign = -F1 if sum(d for d, _ in label[:v]) % 2 else F1
                        for sub, cols in att[dv]:
                            expanded = self._found(key, (
                                "expand", key, rec.pos, v, vkey, sub.pos),
                                lambda: self._expanded(rec, v, sub))
                            for local, coeff in cols[kk]:
                                scale = sign * lcoeff * coeff
                                labels = [(label[:v] + tuple(sl)
                                           + label[v + 1:], c * scale)
                                          for sl, c in self._lift(
                                              vkey, sub.s, dv - 1, local)]
                                target, out = self._local(
                                    key, expanded,
                                    rec.actions[:v] + sub.actions
                                    + rec.actions[v + 1:], labels)
                                if target is not None:
                                    found.append((target, out))
                if found:
                    terms[deg, col] = found
        return terms

    def action_generator(self, key, j, component):
        """ChainMap of the adjacent transposition s_j on the component:
        each summand's columns pushed through its one image
        (``_swapped``)."""
        return self._action_generator(key, j, component, keep=True)

    def _action_generator(self, key, j, component, keep):
        """``action_generator``; each summand's columns under s_j, in
        its image's own coordinates, are kept for finish when ``keep``,
        else taken out of the store."""
        layout = self.layouts[key]
        cols = {}
        for s, rec in enumerate(self._records[key]):
            image = self._kept(self._images, (rec, j), keep,
                               lambda: self._image_columns(key, s, j))
            for deg, col, (target, local) in image:
                gcol = layout.offset(s, deg) + col
                for (tdeg, pos), c in local:
                    cols.setdefault(tdeg, {}).setdefault(gcol, {})[
                        layout.offset(target.s, tdeg) + pos] = c
        return ChainMap(component, component, {
            deg: _assemble(layout.dim(deg), layout.dim(deg),
                           {gcol: sparse_row(c) for gcol, c in e.items()})
            for deg, e in cols.items()}, check=False)

    def _image_columns(self, key, s, j):
        """[(degree, column, ``_local`` image under s_j)] for each basis
        vector of summand s, through its one image (``_swapped``)."""
        rec = self._records[key][s]
        found = self._found(key, ("image", key, rec.pos, j),
                            lambda: self._swapped(rec, j))
        return [(deg, col, self._local(key, found, rec.actions,
                                       self._lift(key, s, deg, col)))
                for deg, dim in rec.item[-1].complex.dims.items()
                for col in range(dim)]

    def composition_table(self, key1, i, key2):
        table = CompTable()
        tkey = self.shape.comp_target(key1, i, key2)
        for s1, rec1 in enumerate(self._records[key1]):
            lifts1 = [(deg, k, self._lift(key1, s1, deg, c))
                      for deg, c, k in self._columns(key1, s1)]
            for s2, rec2 in enumerate(self._records[key2]):
                lifts2 = [(deg, k, self._lift(key2, s2, deg, c))
                          for deg, c, k in self._columns(key2, s2)]
                found = self._found(
                    tkey, ("graft", key1, rec1.pos, i, key2, rec2.pos),
                    lambda: self._grafted(rec1, i, rec2))
                actions = rec1.actions + rec2.actions
                for deg1, k1, lift1 in lifts1:
                    for deg2, k2, lift2 in lifts2:
                        labels = [(l1 + l2, a * b) for l1, a in lift1
                                  for l2, b in lift2]
                        out = self._push(tkey, found, actions, labels)
                        for (_, row), c in out.items():
                            table.add(deg1, k1, deg2, k2, row, c)
        return table

    def finish(self):
        """The operad on the window, its differential extended by the
        attachment maps added with the generators.  The work kept while
        generators were added is used up."""
        shape = self.shape
        actions = {}
        for key in shape.keys():
            comp = self._component_complex(key, keep=False)
            if comp.is_zero():
                continue
            legs = shape.legs(key)
            gens = [self._action_generator(key, j, comp, keep=False)
                    for j in range(1, legs)]
            actions[key] = GroupAction(legs, comp, gens, check=False)
        comp_tables = {}
        for trip in shape.comp_keys():
            if {trip[0], trip[2], shape.comp_target(*trip)} <= actions.keys():
                tab = self.composition_table(*trip)
                if not tab.is_zero():
                    comp_tables[trip] = tab
        contr_tables = {}
        for trip in shape.contr_keys():
            if {trip[0], shape.contr_target(trip[0])} <= actions.keys():
                tab = self.contraction_table(*trip)
                if tab.entries:
                    contr_tables[trip] = tab
        op = shape.remake(actions, comp_tables, contr_tables, shape.window,
                          None)
        self._att_cols, self._images, self._terms = None, {}, {}
        op.free = self
        return op

    def evaluation(self, dst, images, key):
        """Evaluation matrices (degree -> Matrix) of the component at
        key in dst, the generators sent along ``images``: ``evaluate``
        on the unit vectors."""
        target = dst.component(key)
        return {d: _assemble(target.dim(d), n, dict(enumerate(
            fixed for fixed, _ in self.evaluate(
                dst, images, key, d, [((c, F1),) for c in range(n)]))))
            for d, n in self.layouts[key].dims.items()}

    def evaluate(self, dst, images, key, degree, vectors, gen=None):
        """The images in dst of sparse vectors of the component at key
        in the given degree, the generators sent along ``images`` and
        each summand composed along its plan (``_plan``), built once.
        For each vector a pair: its image with the summands carrying
        generator key ``gen`` left out, and their part linear in gen's
        image g as {(d, i, j): the vector g_d[i, j] multiplies}.  Each
        label of those summands is evaluated once per row i, its gen
        vertex's generator j sent to e_i; no summand may have two
        gen-typed vertices."""
        records = self._records[key]
        if any(rec.types.count(gen) > 1 for rec in records):
            raise ValueError(f"a summand at {key} is not linear in {gen}")
        # the generator images by column, one transpose per (key, degree)
        columns = cache(lambda k, d: images[k].block(d).columns())
        place = {gcol: (s, col) for s in range(len(records))
                 for d, col, gcol in self._columns(key, s) if d == degree}
        out = []
        for vec in vectors:
            lifts = {}  # summand -> its labels, times vec's coefficients
            for gcol, x in vec:
                s, col = place[gcol]
                lifts.setdefault(s, []).extend(
                    (label, c if x == 1 else c * x)
                    for label, c in self._lift(key, s, degree, col))
            acc = {}  # None (gen's summands left out) or (d, i, j) -> image
            for s, lifted in lifts.items():
                rec = records[s]
                if rec not in self._plans:
                    self._plans[rec] = self._plan(key, s)
                parts = [(None, lifted, columns)]
                if gen in rec.types:
                    v, groups = rec.types.index(gen), {}
                    for label, c in lifted:
                        groups.setdefault(label[v], []).append((label, c))
                    parts = [((d, i, j), group, lambda k, e, u={j: ((i, F1),)}:
                              u if k == gen else columns(k, e))
                             for (d, j), group in groups.items()
                             for i in range(dst.component(gen).dim(d))]
                for at, labels, cols in parts:
                    for d, image in evaluate_tree_basis(
                            dst, self._plans[rec], cols, labels).items():
                        if d != degree:
                            raise AssertionError("degree drift in evaluation")
                        acc[at] = _combine(acc[at], image, F1) if at in acc \
                            else image
            fixed = acc.pop(None, ())
            out.append((fixed, {at: w for at, w in acc.items() if w}))
        return out


# -- free operads on trees ----------------------------------------------------


class FreeOperadBuilder(_FreeBuilder):
    """Gamma(V) on arities 2..max_arity: summands are reduced trees.

    ``gens`` maps arity -> GroupAction (the generator module); the
    differential is the derivation extending the generators' internal
    differential plus the optional attachment maps (used by principal
    extensions and minimal models).
    """

    def __init__(self, gens, max_arity):
        super().__init__(gens, DGOperad(SigmaModule({}), {}, max_arity))

    def _canonical(self, n):
        return T.enumerate_trees(n), T.tree_tables(n)[0]

    def _position(self, n, tree):
        return T.tree_tables(n)[3].get(
            T.clade_code(sum(f) for f in tree.slot_masks()))

    def _summand(self, tree, td):
        return tree, td

    def _lift(self, n, s, deg, col):
        return ((self.summands[n][s][1].basis(deg)[col], F1),)

    def _match(self, n, factors):
        """The match (``_matched``) of the rearranged tree of arity n
        given, factor by factor, by the leaf sets of its vertex's
        children in slot order (``Tree.slot_masks``).  The catalogue
        tree is the one with these vertex clades; each factor moves to
        its clade's preorder place, and its slots are sorted by least
        leaf."""
        _, _, clades, index = T.tree_tables(n)
        own = [sum(f) for f in factors]
        pos = index[T.clade_code(own)]
        sigmas = [T._slot_perm(tuple(k for _, k in sorted(
            (c & -c, k) for k, c in enumerate(f, 1)))) for f in factors]
        return _matched(pos, sigmas, [clades[pos].index(c) for c in own])

    def _project(self, n, s, local):
        return local.items()

    @staticmethod
    def _masks(rec):
        return T.tree_tables(rec.key)[1][rec.pos]

    def _swapped(self, rec, j):
        """s_j on a summand's tree: leaves j and j + 1 swapped in every
        mask."""
        pair = 3 << (j - 1)
        return [tuple(c ^ pair if c & pair not in (0, pair) else c
                      for c in f) for f in self._masks(rec)]

    def _grafted(self, rec1, i, rec2):
        """t2 grafted at leaf i of t1, t1's factors first: t1's leaf i
        widens to t2's leaves, now i..i + m - 1, and its later leaves
        move up by m - 1."""
        m = rec2.key
        low, block = (1 << (i - 1)) - 1, ((1 << m) - 1) << (i - 1)
        return ([tuple(c & low | (block if c >> (i - 1) & 1 else 0)
                       | c >> i << (i + m - 1) for c in f)
                 for f in self._masks(rec1)]
                + [tuple(c << (i - 1) for c in f) for f in self._masks(rec2)])

    def _expanded(self, rec, v, sub):
        """Vertex v replaced by sub, whose factors take v's place: sub's
        leaf k stands for the leaf set of v's k-th child."""
        masks = self._masks(rec)
        children = masks[v]
        return [*masks[:v], *(
            tuple(sum(x for k, x in enumerate(children) if c >> k & 1)
                  for c in f)
            for f in self._masks(sub)), *masks[v + 1:]]

    def _plan(self, n, s):
        """Compose each child subtree into its parent as soon as it is
        complete, the vertices pushed in preorder; the composite's legs
        are the tree's leaves in preorder."""
        tree = self.summands[n][s][0]
        vertices = enumerate(self.vertex_types(n, s))
        steps = []

        def walk(node):
            steps.append((*next(vertices), None))
            arity = len(node.children)
            pos = 1
            for child in node.children:
                if child.is_leaf:
                    pos += 1
                    continue
                sub = walk(child)
                steps.append(("compose", arity, pos, sub))
                arity += sub - 1
                pos += sub
            return arity

        walk(tree)
        relabel = Permutation(tree.leaves()).inverse()
        return (steps, (), n,
                None if relabel.is_identity() else relabel)


def free_operad(module: SigmaModule, max_arity: int) -> DGOperad:
    """Free dg operad on an arity-indexed module with V(1) = 0."""
    if 1 in module.components and not module.component(1).is_zero():
        raise ValueError("free operad requires V(1) = 0")
    gens = {l: ga for l, ga in module.components.items() if l >= 2}
    return FreeOperadBuilder(gens, max_arity).finish()


# -- free modular operads on stable graphs ------------------------------------


class FreeModularBuilder(_FreeBuilder):
    """M(V) on the window of modular dimension <= max_dim.

    Summands are the coinvariants of graph spaces under graph
    automorphisms: a basis vector lifts through the coinvariant
    inclusion, and a vector pushed onto a graph space comes back through
    the projection.
    """

    def __init__(self, gens, max_dim):
        self._lifts = {}  # (_Summand, degree) -> columns of the inclusion
        super().__init__(gens, ModularOperad(ModularSigmaModule({}), {}, {},
                                             max_dim))

    def _canonical(self, key):
        return T.enumerate_stable_graphs(*key), T.graph_types(*key)

    def _position(self, key, graph):
        return T._catalog_index(*key).get(
            (graph.genera, graph.legs, graph.edges))

    def _summand(self, graph, td):
        coin = coinvariants(td.complex, self._automorphism_maps(graph, td))
        return None if coin.complex.is_zero() else (graph, td, coin)

    def _automorphism_maps(self, graph, td):
        """The chain maps of every automorphism of the graph on td, the
        identity first."""
        maps = [ChainMap.identity(td.complex)]
        for vperm, slot_map in T.graph_automorphisms(graph):
            if all(vperm[v] == v for v in range(graph.n_vertices)) \
                    and all(slot_map[s] == s for s in slot_map):
                continue
            maps.append(self._iso_chain_map(graph, td, vperm, slot_map))
        return maps

    def _iso_chain_map(self, graph, td, vperm, slot_map):
        """``_factor_map`` on td of the graph automorphism (vperm,
        slot_map), each vertex twisted by the permutation of its slots."""
        sigmas = []
        for v in range(graph.n_vertices):
            image_slots = [slot_map[s] for s in graph.leg_order(v)]
            sigmas.append(Permutation(
                image_slots.index(d) + 1 for d in graph.leg_order(vperm[v])))
        return _factor_map(td, td, [self._gen_action(graph.vertex_type(v))
                                    for v in range(graph.n_vertices)],
                           sigmas, vperm)

    def _lift(self, key, s, deg, col):
        rec = self._records[key][s]
        _, td, coin = rec.item
        if (rec, deg) not in self._lifts:
            self._lifts[rec, deg] = coin.inclusion.block(deg).columns()
        basis = td.basis(deg)
        return [(basis[r], c) for r, c in self._lifts[rec, deg][col]]

    def _match(self, key, concrete):
        match = T.match_graph(concrete)
        return _matched(match.index, match.slot_perms.values(),
                        match.vertex_map)

    def _project(self, key, s, local):
        coin = self.summands[key][s][2]
        for deg in set(d for d, _ in local):
            vec = sparse_row({pos: c for (d, pos), c in local.items()
                              if d == deg})
            for row, c in coin.projection.block(deg).apply(vec):
                yield (deg, row), c

    def _swapped(self, rec, j):
        """s_j on a summand's graph: legs j and j + 1 swapped."""
        return T.relabel_legs(T.concrete_from_canonical(rec.item[0]),
                              Permutation.transposition(rec.key[1], j))

    def _grafted(self, rec1, i, rec2):
        return T.graft_graphs(T.concrete_from_canonical(rec1.item[0]), i,
                              T.concrete_from_canonical(rec2.item[0]))

    def _expanded(self, rec, v, sub):
        return T.expand_vertex(T.concrete_from_canonical(rec.item[0]), v,
                               T.concrete_from_canonical(sub.item[0]))

    def contraction_table(self, key, i, j):
        table = CompTable()
        tkey = self.shape.contr_target(key)
        for s, rec in enumerate(self._records[key]):
            found = self._found(tkey, ("glue", key, rec.pos, i, j),
                                lambda: T.self_glue(T.concrete_from_canonical(
                                    rec.item[0]), i, j))
            for deg, col, k in self._columns(key, s):
                out = self._push(tkey, found, rec.actions,
                                 self._lift(key, s, deg, col))
                for (_, row), c in out.items():
                    table.add(deg, k, row, c)
        return table

    def _plan(self, key, s):
        """Glue the vertices on to vertex 0 along the spanning tree that
        always takes the least edge out of the glued set, each glued
        slot cycled to the front of its vertex; then contract the other
        edges in index order.  Slots are named as in ``leg_order``."""
        graph = self.summands[key][s][0]
        order = [0]  # the vertices in the order they are glued on
        genus, slots = graph.genera[0], list(graph.leg_order(0))
        steps = [(0, graph.vertex_type(0), None)]
        while len(order) < graph.n_vertices:
            e = min((e for e, (a, b) in enumerate(graph.edges)
                     if (a in order) != (b in order)), default=None)
            if e is None:
                raise AssertionError("graph is not connected")
            a, b = graph.edges[e]
            if ("edge", e, 0) in slots:
                blob, w, half = ("edge", e, 0), b, ("edge", e, 1)
            else:
                blob, w, half = ("edge", e, 1), a, ("edge", e, 0)
            order.append(w)
            worder = list(graph.leg_order(w))
            wkey = graph.vertex_type(w)
            cyc = Permutation.cycle_to_front(wkey[1], worder.index(half) + 1)
            pos = slots.index(blob) + 1
            steps.append((w, wkey, None if cyc.is_identity() else cyc))
            steps.append(("compose", (genus, len(slots)), pos, wkey))
            slots[pos - 1:pos] = [x for x in worder if x != half]
            genus += wkey[0]
        for e in range(len(graph.edges)):
            if ("edge", e, 0) in slots:
                p1 = slots.index(("edge", e, 0)) + 1
                p2 = slots.index(("edge", e, 1)) + 1
                steps.append(("contract", (genus, len(slots)), min(p1, p2),
                              max(p1, p2)))
                slots = [x for x in slots if x[:2] != ("edge", e)]
                genus += 1
        if (genus, len(slots)) != key:
            raise AssertionError("graph evaluation lost track of the type")
        # the pairs of vertices that the glue order reverses
        inversions = _inversions(tuple(order.index(v)
                                       for v in range(len(order))))
        relabel = Permutation(slots.index(("leg", q)) + 1
                              for q in range(1, key[1] + 1))
        return (steps, inversions, key,
                None if relabel.is_identity() else relabel)


def free_builder(op, gens, window):
    """The free builder of op's kind on gens over the window."""
    if isinstance(op, ModularOperad):
        return FreeModularBuilder(gens, window)
    return FreeOperadBuilder(gens, max(window, 2))


def free_modular_operad(module: ModularSigmaModule,
                        max_dim: int) -> ModularOperad:
    """Free dg modular operad on a modular module, within the window."""
    return FreeModularBuilder(dict(module.components), max_dim).finish()


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
    for i, m in b.items():
        if m.rows != m.cols or rank(m) != m.rows:
            raise ValueError("inner product is degenerate")
        sign = -F1 if i % 2 else F1
        other = b.get(-i)
        if other is None or other != m.transpose().scale(sign):
            raise ValueError("inner product is not graded symmetric")
    # compatibility with the differential: B(dx, y) + (-1)^|x| B(x, dy) = 0,
    # as the dim V_i x dim V_{1-i} matrix d_i^T B_{i-1} + (-1)^i B_i d_{1-i}
    for i in v.dims:
        j = 1 - i
        if v.dim(j) == 0:
            continue
        total = Matrix.zeros(v.dim(i), v.dim(j))
        if v.dim(i - 1) and (i - 1) in b:
            total = total + v.d(i).transpose() * b[i - 1]
        if v.dim(j - 1) and i in b:
            rhs = b[i] * v.d(j)
            total = total + rhs if i % 2 == 0 else total - rhs
        if not total.is_zero():
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

    def paired(lab, p, q):
        """B on slots p < q of a tensor label, signed by moving them to
        the front (B sees only pairs of degree 0, so only slot q passing
        the slots between counts), and the label without them."""
        (dp, kp), (dq, kq) = lab[p - 1], lab[q - 1]
        coeff = b[dp][kp, kq] if dp + dq == 0 and dp in b else F0
        if dq % 2 and sum(d for d, _ in lab[p:q - 1]) % 2:
            coeff = -coeff
        return coeff, lab[:p - 1] + lab[p:q - 1] + lab[q:]

    tds = {}
    actions = {}
    for key in stable_pairs_up_to(max_dim):
        g, l = key
        td = TensorData((v,) * l)
        if td.complex.is_zero():
            continue
        tds[key] = td
        # s_j swaps the factors at places j - 1 and j (from 0); they
        # have no slots to twist
        gens = [_factor_map(td, td, None, [Permutation.identity(1)] * l,
                            [*range(j - 1), j, j - 1, *range(j + 1, l)])
                for j in range(1, l)]
        actions[key] = GroupAction(l, td.complex, gens, check=False)
    op = ModularOperad(ModularSigmaModule(actions), {}, {}, max_dim)
    for trip in op.comp_keys():
        key1, i, key2 = trip
        tkey = op.comp_target(key1, i, key2)
        if not tds.keys() >= {key1, key2, tkey}:
            continue
        td1, td2, tdt = tds[key1], tds[key2], tds[tkey]
        l1 = key1[1]
        table = CompTable()
        for deg1 in td1.complex.dims:
            for k1, lab1 in enumerate(td1.basis(deg1)):
                for deg2 in td2.complex.dims:
                    for k2, lab2 in enumerate(td2.basis(deg2)):
                        coeff, rest = paired(lab1 + lab2, i, l1 + 1)
                        if coeff == 0:
                            continue
                        # b's remaining slots move ahead of a's tail
                        tail, rest_b = rest[i - 1:l1 - 1], rest[l1 - 1:]
                        if (sum(d for d, _ in tail) % 2
                                and sum(d for d, _ in rest_b) % 2):
                            coeff = -coeff
                        table.add(deg1, k1, deg2, k2,
                                  tdt.index(rest[:i - 1] + rest_b + tail)[1],
                                  coeff)
        if not table.is_zero():
            op.comp[trip] = table
    for (key, i, j) in op.contr_keys():
        tkey = op.contr_target(key)
        if not tds.keys() >= {key, tkey}:
            continue
        td, tdt = tds[key], tds[tkey]
        table = CompTable()
        for deg in td.complex.dims:
            for k, lab in enumerate(td.basis(deg)):
                coeff, rest = paired(lab, i, j)
                if coeff != 0:
                    table.add(deg, k, tdt.index(rest)[1], coeff)
        if table.entries:
            op.contr[(key, i, j)] = table
    return op


# -- morphisms out of free operads --------------------------------------------


def evaluate_tree_basis(dst, plan, columns, labels):
    """Image in dst of one summand vector, given by its tensor labels
    [(label, coeff)] and composed along the summand's plan (``_plan``):
    a tree along its nesting, a stable graph along its spanning tree and
    then its other edges.  The steps run on a stack: ``(v, key, perm)``
    pushes vertex v's generator image (acted on by perm unless None),
    ``("compose", key1, i, key2)`` composes the top two entries and
    ``("contract", key, i, j)`` contracts the top one.  The inversions
    give the Koszul sign, the relabel moves the legs into place.
    ``columns(key, d)``: the columns of the degree-d block of the
    generator image at key.  Returns {degree: sparse vector}.
    """
    steps, inversions, key, relabel = plan
    out = {}
    for label, coeff in labels:
        stack = []
        for step in steps:
            if step[0] == "compose":
                d2, v2 = stack.pop()
                d1, v1 = stack.pop()
                stack.append((d1 + d2, dst.compose(*step[1:], d1, v1, d2, v2)))
            elif step[0] == "contract":
                d, v = stack[-1]
                stack[-1] = d, dst.contract(*step[1:], d, v)
            else:
                v, vkey, perm = step
                d, k = label[v]
                vec = columns(vkey, d)[k]
                if perm is not None:
                    vec = dst.action(vkey, perm).block(d).apply(vec)
                stack.append((d, vec))
        (deg, vec), = stack
        if relabel is not None:
            vec = dst.action(key, relabel).block(deg).apply(vec)
        if _odd(label, inversions):
            coeff = -coeff
        if vec:
            out[deg] = _combine(out.get(deg, ()), vec, coeff)
    return out


def morphism_from_generators(src, dst, images) -> OperadMorphism:
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
                                 builder.evaluation(dst, images, key))
    return OperadMorphism(src, dst, maps)


# -- free extension of a truncated operad (t_!) -------------------------------


def extend_freely(op, up_to: int):
    """t_!: extend a truncated operad freely up to the given level.

    Builds the free operad on all components of the truncation, divides
    by the ideal generated by the kernel of the evaluation back onto the
    truncation, and returns the quotient.
    """
    if op.cut is None:
        raise ValueError("extend_freely expects a truncated operad")
    cut = op.cut
    if up_to < cut:
        raise ValueError("extension window below the truncation cut")
    gens = {k: ga for k, ga in op.module.components.items()
            if not ga.complex.is_zero()}
    builder = free_builder(op, gens, up_to)
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
    q, _ = quotient(free_op, ideal)
    for key in keys_in_cut:
        if q.component(key).dims != op.component(key).dims:
            raise AssertionError(
                f"free extension does not restrict to the input at {key}")
    return q
