"""Principal extensions and minimal models.

The inductive algorithm follows the canonical tower: at each level
(arity for operads, modular dimension for modular operads) the cone of
the current quasi-morphism supplies new generators, an equivariant
section of cycles onto homology supplies the attachment map, and the
tower step is a principal extension.  All arbitrary choices (sections,
generator bases) are drawn from a seeded deterministic source; seed 0
means plain reduced-echelon choices.

Lifting along weak equivalences solves one linear system per level in
the new generator images: the extension condition d g = f xi plus
agreement of induced homology with the prescribed map.  Over a field of
characteristic zero two chain maps are homotopic exactly when they agree
on homology, so the returned componentwise homotopy certificates exist
whenever the system was solvable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chain import (
    ChainComplex,
    ChainMap,
    homotopy_solve,
    induced_map,
    mapping_cone,
)
from .free import extend_freely, free_builder, morphism_from_generators
from .operad import OperadMorphism, truncate
from .qlinalg import (
    F0,
    F1,
    Matrix,
    MatrixEquations,
    _combine,
    block_matrix,
    solve_matrix,
    solve_with_kernel,
    sparse_row,
)
from .sigma import GroupAction, reynolds_average


class ObstructionError(RuntimeError):
    """An extension/lifting system had no solution.

    For lifts along genuine weak equivalences this signals an internal
    inconsistency; formality checks treat it as Inconclusive.
    """


class NotIsomorphicError(RuntimeError):
    """Minimal models with different generator dimensions."""


# -- helpers ------------------------------------------------------------------


def _diagonal_action(n, cone, a_action, b_action, a_complex, b_complex):
    """Sigma_n action on a mapping cone A + B[1] (diagonal blocks)."""
    gens = []
    for j in range(n - 1):
        ra = a_action.generators[j] if a_action else None
        rb = b_action.generators[j] if b_action else None
        blocks = {}
        for i in cone.dims:
            na, nb = a_complex.dim(i), b_complex.dim(i - 1)
            top = ra.block(i) if ra and na else Matrix.identity(na)
            bottom = rb.block(i - 1) if rb and nb else Matrix.identity(nb)
            blocks[i] = block_matrix([[top, Matrix.zeros(na, nb)],
                                      [Matrix.zeros(nb, na), bottom]])
        gens.append(ChainMap(cone, cone, blocks, check=False))
    return GroupAction(n, cone, gens, check=False)


def _random_unimodular(rng, n):
    upper = [[F1 if i == j else (Fraction(rng.randint(-1, 1)) if j > i
                                 else F0) for j in range(n)] for i in range(n)]
    lower = [[F1 if i == j else (Fraction(rng.randint(-1, 1)) if j < i
                                 else F0) for j in range(n)] for i in range(n)]
    return Matrix(n, n, upper) * Matrix(n, n, lower)


def _equivariant_section(cone_action: GroupAction, rng=None):
    """Equivariant section V = H(C) -> cycles of C.

    Starts from the reduced-echelon representatives, optionally applies
    a seeded boundary perturbation and a seeded change of basis on V,
    then averages g . s0 . g^{-1} over the group (sigma.reynolds_average):
    a coset recursion over Sigma_k / Sigma_{k-1} with the transversal
    s_j s_{j+1} ... s_{k-1}, each stage a Horner sum over the adjacent
    generators on integer rows, O(arity^2) sparse products in all
    instead of a factorial sum.  Returns (section blocks, V GroupAction);
    the section classifies to the identity of V in its (possibly mixed)
    basis.
    """
    cone = cone_action.complex
    hrec = cone.homology
    n = cone_action.n
    hdims = hrec.dims
    s0 = {}
    for d, h in hdims.items():
        mat = hrec.rep_matrix(d)
        if rng is not None:
            pert = Matrix(cone.dim(d + 1), h,
                          [[Fraction(rng.randint(-1, 1)) for _ in range(h)]
                           for _ in range(cone.dim(d + 1))])
            mat = mat + cone.d(d + 1) * pert
        s0[d] = mat
    # induced V action from the cone action (in the echelon basis)
    v_complex = ChainComplex(hdims)
    v_gens = [ChainMap(v_complex, v_complex, induced_map(g), check=False)
              for g in cone_action.generators]
    mix = None
    if rng is not None:
        mix = {d: _random_unimodular(rng, h) for d, h in hdims.items()}
        inv = {d: solve_matrix(m, Matrix.identity(m.rows))
               for d, m in mix.items()}
        s0 = {d: s0[d] * mix[d] for d in s0}
        v_gens = [ChainMap(v_complex, v_complex,
                           {d: inv[d] * gmap.block(d) * mix[d] for d in hdims},
                           check=False)
                  for gmap in v_gens]
    v_action = GroupAction(n, v_complex, v_gens, check=False)
    section = reynolds_average(cone_action, v_action, s0)
    # sanity: cycles, classification, and generator equivariance
    for d, h in hdims.items():
        if not (cone.d(d) * section[d]).is_zero():
            raise AssertionError("section does not land in cycles")
        expected = mix[d] if mix is not None else Matrix.identity(h)
        if hrec.classifier(d) * section[d] != expected:
            raise AssertionError("section is not a section")
        for cg, vg in zip(cone_action.generators, v_gens):
            if cg.block(d) * section[d] != section[d] * vg.block(d):
                raise AssertionError("section is not equivariant")
    return section, v_action


# -- principal extensions ------------------------------------------------------


class PrincipalExtension:
    """Result of attaching generators V along xi: V[-1] -> P_level."""

    def __init__(self, base, level, generators, attachment, result):
        self.base = base
        self.level = level
        self.generators = generators    # key -> GroupAction (zero differential)
        self.attachment = attachment    # key -> dict degree -> Matrix into base component
        self.result = result


def _truncated_with_cone(p, level, generators, xi):
    """t_level(p) with the level component replaced by the cone of xi."""
    tr = truncate(p, level)
    actions = dict(tr.module.components)
    for key, v_act in generators.items():
        pc = p.component(key)
        vc = v_act.complex
        xi_blocks = xi.get(key, {})
        shifted = ChainComplex({d - 1: n for d, n in vc.dims.items()},
                               check=False)
        eta = ChainMap(shifted, pc,
                       {d - 1: xi_blocks[d] for d in xi_blocks},
                       check=True)
        cone, _, _ = mapping_cone(eta)
        n = p.legs(key)
        shifted_action = GroupAction(
            n, shifted,
            [ChainMap(shifted, shifted,
                      {d - 1: g.block(d) for d in vc.dims}, check=False)
             for g in v_act.generators], check=False)
        actions[key] = _diagonal_action(
            n, cone, p.group_action(key), shifted_action, pc, shifted)
    # structure maps: the old tables, targets at the level embedded into
    # the cone (the P-part sits first)
    return tr.remake(actions, dict(tr.comp), dict(tr.contr), level, level)


def principal_extension(p, level, generators, xi,
                        window=None) -> PrincipalExtension:
    """Attach generators at the given level along xi and complete freely.

    ``generators``: dict key -> GroupAction concentrated at the level
    (zero differential); ``xi``: dict key -> dict degree -> Matrix
    sending V_degree into cycles of the base component in degree-1,
    equivariantly.  The result is t_!(truncation-with-cone) within the
    window.
    """
    window = window if window is not None else p.window
    for key, v_act in generators.items():
        if p.level(key) != level:
            raise ValueError("generators not concentrated at the level")
        if v_act.complex.diff:
            raise ValueError("generators must carry the zero differential")
        pc = p.component(key)
        n = p.legs(key)
        for d, m in xi.get(key, {}).items():
            if m.rows != pc.dim(d - 1) or m.cols != v_act.complex.dim(d):
                raise ValueError("attachment block has the wrong shape")
            if not (pc.d(d - 1) * m).is_zero():
                raise ValueError("attachment is not a chain map into cycles")
        base_action = p.group_action(key)
        for j in range(n - 1):
            rp = base_action.generators[j] if base_action else None
            for d, m in xi.get(key, {}).items():
                lhs = (rp.block(d - 1) if rp else
                       Matrix.identity(pc.dim(d - 1))) * m
                rhs = m * v_act.generators[j].block(d)
                if lhs != rhs:
                    raise ValueError("attachment is not equivariant")
    x = _truncated_with_cone(p, level, generators, xi)
    result = extend_freely(x, window)
    if any(p.level(k) < level for k in p.keys()):
        lower = truncate(p, level - 1)
        got = truncate(result, level - 1)
        if got.total_dims() != lower.total_dims():
            raise AssertionError("principal extension changed the "
                                 "lower truncation")
    for key, v_act in generators.items():
        pc, rc = p.component(key), result.component(key)
        for d in set(pc.dims) | set(v_act.complex.dims):
            if rc.dim(d) != pc.dim(d) + v_act.complex.dim(d):
                raise AssertionError("cone dimensions violated at the level")
    return PrincipalExtension(p, level, generators, xi, result)


# -- minimal models -----------------------------------------------------------


class MinimalModel:
    def __init__(self, operad, morphism, tower, seed):
        self.operad = operad
        self.morphism = morphism
        # the levels walked, in order, those that gave no generators too;
        # the generators and attachments are operad.free's
        self.tower = tower
        self.seed = seed

    @property
    def generator_dims(self):
        return {key: dict(ga.complex.dims)
                for key, ga in self.operad.free.gens.items()}


def minimal_model(p, up_to=None, seed=0) -> MinimalModel:
    """Inductive minimal model of a dg (modular) operad.

    Levels run over arities 2..up_to (operads) or modular dimensions
    0..up_to (modular operads); each step is a principal extension whose
    generators are the homology of the cone of the current morphism.
    Deterministic for a fixed seed.
    """
    up_to = up_to if up_to is not None else p.window
    if up_to > p.window:
        raise ValueError("requested window exceeds the operad's support")
    # one free builder for the whole tower: each key's generators join it
    # once found, and only a key's corolla holds generators of its level
    builder = free_builder(p, {}, up_to)
    images = {}
    levels = sorted({p.level(k) for k in p.keys() if p.level(k) <= up_to})
    for n in levels:
        for key in [k for k in p.keys() if p.level(k) == n]:
            pc = p.component(key)
            m_complex = builder.component_complex(key)
            arity = p.legs(key)
            if m_complex.is_zero():
                m_action = GroupAction.trivial(arity, m_complex)
                rho_blocks = {}
            else:
                m_action = GroupAction(
                    arity, m_complex,
                    [builder.action_generator(key, j, m_complex)
                     for j in range(1, arity)], check=False)
                rho_blocks = builder.evaluation(p, images, key)
            rho_map = ChainMap(m_complex, pc, rho_blocks, check=True)
            cone, _, _ = mapping_cone(rho_map)
            if cone.is_zero():
                continue
            cone_action = _diagonal_action(
                arity, cone, p.group_action(key), m_action, pc, m_complex)
            hdims = cone.homology.dims
            if not hdims:
                continue
            rng = random.Random(f"{seed}:{n}:{key}") if seed else None
            section, v_action = _equivariant_section(cone_action, rng)
            # split the section into its P and M parts; degrees shift:
            # V_d sits in cone degree d = P_d + M_{d-1}
            xi_blocks = {}
            img_blocks = {}
            for d, h in hdims.items():
                na = pc.dim(d)
                top = section[d].submatrix(range(na), range(h))
                bottom = section[d].submatrix(
                    range(na, na + m_complex.dim(d - 1)), range(h))
                img_blocks[d] = top
                if not bottom.is_zero():
                    xi_blocks[d] = bottom.scale(-1)
            builder.add({key: v_action}, {
                key: {d: builder.summand_blocks(key, d - 1, m)
                      for d, m in xi_blocks.items()}} if xi_blocks else None)
            images[key] = ChainMap(v_action.complex, pc, img_blocks,
                                   check=False)
    m_op = builder.finish()
    rho = morphism_from_generators(m_op, p, images)
    return MinimalModel(m_op, rho, tuple(levels), seed)


def is_minimal(op):
    """Minimality read off the free builder: free on zero-differential
    generators with decomposable attachment maps.

    Returns (True, None) or (False, witness level).  Requires the operad
    to carry its free builder (``op.free``, set by the free constructions
    here).
    """
    builder = op.free
    if builder is None:
        raise ValueError("operad carries no free-construction data")
    for key, ga in builder.gens.items():
        if ga.complex.diff:
            return False, op.level(key)
        corolla = builder.corolla_summand(key)
        if corolla is not None and any(
                builder.summands[key][corolla][0] in blocks
                for blocks in builder.attachments.get(key, {}).values()):
            return False, op.level(key)
    return True, None


# -- lifting ------------------------------------------------------------------


def _count_type_vertices(builder, ckey, gen_key):
    """Max count of gen_key-typed vertices over the summands of ckey."""
    return max((builder.vertex_types(ckey, s).count(gen_key)
                for s in range(len(builder.summands.get(ckey, [])))),
               default=0)


def _assign_c_keys(op, gen_keys):
    """Attach every nonzero component to the generator key that owns its
    homology condition.

    The owner is the last-processed generator key whose images actually
    appear in the component (so the condition rows are nonconstant
    there); components no generator can move are attached to the last
    admissible key as a pure consistency check."""
    builder = op.free
    order = {k: pos for pos, k in enumerate(gen_keys)}
    out = {k: [] for k in gen_keys}
    for ckey in op.keys():
        if op.component(ckey).is_zero():
            continue
        candidates = [k for k in gen_keys if op.level(k) <= op.level(ckey)]
        if not candidates:
            continue
        movers = [k for k in candidates
                  if k == ckey
                  or _count_type_vertices(builder, ckey, k) >= 1]
        pool = movers or candidates
        owner = max(pool, key=lambda k: order[k])
        out[owner].append(ckey)
    return out


def _solve_level(mm, q_operad, post_maps, prescribed, key, images_so_far,
                 m_hom, r_hom, c_keys, seed=0):
    """Solve for the generator images at one key of the tower.

    Conditions: (a) d_Q g = phi_prev(xi), (b) equivariance, and (c) for
    every component in c_keys: the induced homology map, composed with
    the post map, equals the prescribed matrix.  The (c) rows are read
    off _condition_deltas at the representatives of the model's
    homology records ``m_hom``, through the classifiers of the target's
    ``r_hom``.  Returns the blocks of g.
    """
    op = mm.operad
    builder = op.free
    v_act = builder.gens[key]
    vc = v_act.complex
    qc = q_operad.component(key)
    arity = op.legs(key)
    # phi_prev on the decomposable part: every summand but the corolla
    prev_eval = builder.evaluation(
        q_operad, images_so_far, key,
        select=lambda s: key not in builder.vertex_types(key, s)) \
        if images_so_far else {}
    # the unknowns: g_d : V_d -> Q_d for each degree d
    g = MatrixEquations({d: (qc.dim(d), vc.dim(d)) for d in sorted(vc.dims)})
    xi = builder.attachments.get(key, {})
    # (a) d_Q g = phi_prev o xi
    for d in sorted(vc.dims):
        target = prev_eval[d - 1] * builder.placed(key, d - 1, xi[d]) \
            if xi.get(d) and d - 1 in prev_eval \
            else Matrix.zeros(qc.dim(d - 1), vc.dim(d))
        g.add([(qc.d(d), d, None)], target)
    # (b) equivariance: g R_V(s) - R_Q(s) g = 0
    q_ga = q_operad.group_action(key)
    for j in range(arity - 1):
        rv = v_act.generators[j]
        rq = q_ga.generators[j] if q_ga else None
        for d in sorted(vc.dims):
            rqb = rq.block(d) if rq else Matrix.identity(qc.dim(d))
            g.add([(None, d, rv.block(d)), (-rqb, d, None)],
                  Matrix.zeros(qc.dim(d), vc.dim(d)))
    # (c) homology conditions
    for ckey in c_keys:
        if ckey not in r_hom:
            continue
        hm = m_hom[ckey]
        if not hm.dims:
            continue
        base_eval, deltas = _condition_deltas(
            builder, q_operad, images_so_far, key, ckey, g, vc, qc)
        post = post_maps.get(ckey)
        hr = r_hom[ckey]
        presc = prescribed.get(ckey, {})
        qcc = q_operad.component(ckey)
        for d in sorted(hm.dims):
            post_block = post.block(d) if post else Matrix.identity(qcc.dim(d))
            # K is exact only on cycles; a g solving (a) sends z to a
            # cycle, so another extension of K changes these rows only by
            # combinations of (a)'s rows, and not the solution or kernel
            lam = hr.classifier(d) * post_block
            wants = presc[d].columns() if d in presc else None
            for col, z in enumerate(hm.representatives[d]):
                fixed = lam.apply(base_eval[d].apply(z))
                want = wants[col] if wants is not None else ()
                # each unknown's contribution to each homology coordinate
                cond = [{} for _ in range(hr.dim(d))]
                for u, dmat in deltas.items():
                    if d in dmat:
                        for hrow, c in lam.apply(dmat[d].apply(z)):
                            cond[hrow][u] = c
                g.add_rows(cond, _combine(want, fixed, -F1))
    system, rhs = g.system()
    sol, ker = solve_with_kernel(system, rhs)
    if sol is None:
        raise ObstructionError(f"obstruction system unsolvable at {key}")
    if seed:
        rng = random.Random(f"{seed}:lift:{key}")
        if ker.dim:
            # ker.dim draws in index order, the zeros then dropped
            draws = sparse_row({i: Fraction(rng.randint(-1, 1))
                                for i in range(ker.dim)})
            sol = _combine(sol, ker.basis.apply(draws), F1)
    return ChainMap(vc, qc, g.blocks(sol), check=False)


def _condition_deltas(builder, q_operad, images, key, ckey, g, vc, qc):
    """Evaluation of component ckey at g = 0, and the change each unknown
    of g: V -> Q (numbered by the level's equations g) makes to it.  No
    summand has two key-typed vertices (checked by the caller): those
    with one vanish at g = 0 and are linear in g, the others do not
    depend on g."""
    carrying = {s for s in range(len(builder.summands[ckey]))
                if key in builder.vertex_types(ckey, s)}
    base = builder.evaluation(q_operad, images, ckey,
                              select=lambda s: s not in carrying)
    deltas = {}
    for u in range(g.unknowns):
        unit = ChainMap(vc, qc, g.blocks(((u, F1),)), check=False)
        ev = builder.evaluation(q_operad, {**images, key: unit}, ckey,
                                select=carrying.__contains__)
        delta = {deg: m for deg, m in ev.items() if not m.is_zero()}
        if delta:
            deltas[u] = delta
    return base, deltas


def _solve_generators(mm, target, post_maps, prescribed, m_hom, r_hom,
                      seed):
    """The morphism out of mm's operad into target whose generator
    images are solved key by key, in level order (``_solve_level``).

    Each key owns the homology conditions ``_assign_c_keys`` gives it,
    less those of components that depend on its images nonlinearly
    (more than one key-typed vertex in some summand); those are only
    checked post hoc.
    """
    op = mm.operad
    gen_keys = sorted(op.free.gens, key=lambda k: (op.level(k), k))
    assignments = _assign_c_keys(op, gen_keys)
    images = {}
    for key in gen_keys:
        c_keys = [ckey for ckey in assignments[key]
                  if _count_type_vertices(op.free, ckey, key) <= 1]
        images[key] = _solve_level(mm, target, post_maps, prescribed, key,
                                   images, m_hom, r_hom, c_keys, seed=seed)
    return morphism_from_generators(op, target, images)


def lift(rho: OperadMorphism, psi: OperadMorphism, mm: MinimalModel,
         seed=0):
    """Lift psi: M -> R through the weak equivalence rho: Q -> R.

    Returns (phi: M -> Q, certificates) with rho o phi componentwise
    chain homotopic to psi, certified by explicit homotopies.
    """
    op = mm.operad
    if psi.src is not op:
        raise ValueError("psi must start at the minimal model's operad")
    q_operad, r_operad = rho.src, rho.dst
    m_hom, r_hom, prescribed = {}, {}, {}
    for key in op.keys():
        if key not in op.free.gens and op.component(key).is_zero():
            continue
        r_hom[key] = r_operad.component(key).homology
        m_hom[key] = op.component(key).homology
        prescribed[key] = induced_map(psi.block(key))
    phi = _solve_generators(mm, q_operad, rho.maps, prescribed, m_hom, r_hom,
                            seed)
    certificates = {}
    comp = rho.compose(phi)
    for key in op.keys():
        f = comp.block(key)
        g = psi.block(key)
        h = homotopy_solve(f, g)
        if h is None:
            raise ObstructionError(
                f"lift certificate failed at {key}: composite is not "
                "homotopic to psi (is rho a weak equivalence?)")
        certificates[key] = h
    return phi, certificates


def endomorphism_with_prescribed_homology(mm: MinimalModel, h_target,
                                          seed=0):
    """Endomorphism f of the minimal model with H(f) prescribed.

    ``h_target``: dict key -> dict degree -> Matrix on H(M_key).
    Raises ObstructionError when some level system has no solution.
    """
    op = mm.operad
    r_hom = {key: op.component(key).homology for key in op.keys()
             if not op.component(key).is_zero()}
    prescribed = {}
    for key, hr in r_hom.items():
        prescribed[key] = {d: h_target[key][d] for d in hr.dims} \
            if key in h_target else {}
    return _solve_generators(mm, op, {}, prescribed, r_hom, r_hom, seed)


def iso_between_minimal(mm1: MinimalModel, mm2: MinimalModel, seed=0):
    """An isomorphism between two minimal models of the same operad.

    Lifts mm1's quasi-morphism through mm2's and certifies the result is
    a levelwise isomorphism.  Raises NotIsomorphicError when generator
    dimensions differ.
    """
    dims1, dims2 = mm1.generator_dims, mm2.generator_dims
    if dims1 != dims2:
        raise NotIsomorphicError(
            f"generator dimensions differ: {dims1} vs {dims2}")
    if mm1.operad is mm2.operad:
        return OperadMorphism.identity(mm1.operad)
    phi, _ = lift(mm2.morphism, mm1.morphism, mm1, seed=seed)
    if not phi.is_iso():
        raise AssertionError("lift between minimal models is not an "
                             "isomorphism (weak equivalence violated?)")
    return phi
