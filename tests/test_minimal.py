import contextlib
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from operad_forge.chain import (
    ChainComplex,
    ChainMap,
    HomologyRecord,
    check_homotopy,
    homology_dims,
    homotopy_solve,
    mapping_cone,
)
from operad_forge import chain, free, minimal, qlinalg, weight
from operad_forge import document as doc
from operad_forge.document import matrix_to_lists
from operad_forge.cli import main
from operad_forge.free import (
    FreeModularBuilder,
    FreeOperadBuilder,
    endomorphism_modular_operad,
    free_builder,
    free_modular_operad,
    free_operad,
    morphism_from_generators,
)
from operad_forge.minimal import (
    MinimalModel,
    NotIsomorphicError,
    ObstructionError,
    is_minimal,
    iso_between_minimal,
    lift,
    minimal_model,
    principal_extension,
)
from operad_forge.operad import (
    ModularOperad,
    OperadMorphism,
    truncate,
    validate,
    weak_equivalence_test,
)
from operad_forge.qlinalg import (F1, Matrix, _combine, kernel, rref,
                                  sparse_row)
from operad_forge.sigma import GroupAction, ModularSigmaModule, SigmaModule
from operad_forge.trees import enumerate_trees

from operad_forge.weight import formality_check

from fixtures_ops import (
    acyclic_operad,
    commutative_style_operad,
    hypercommutative,
    moduli_quotient,
)
from helpers import (
    assert_same_coinvariants,
    assert_same_homology,
    assert_same_kernel,
    column_order_kernel,
    cone_completion,
    dense_matrix_to_lists,
    echelon_homology,
    greedy_extended_classify,
    leibniz_holds,
    random_chain_map,
    random_complex,
    reference_level_blocks,
    reference_level_rows,
    solved_coinvariants,
    writing_v1,
)


def binary_module(dims={0: 1}):
    return SigmaModule({2: GroupAction.trivial(2, ChainComplex(dims))})


def massey_minimal_operad():
    """Minimal operad whose grading automorphism does not lift: one odd
    generator in arity 2 and one arity-3 generator killing the sum of
    the binary trees."""
    ga2 = GroupAction.trivial(2, ChainComplex({1: 1}))
    ga3 = GroupAction.trivial(3, ChainComplex({3: 1}))
    builder = FreeOperadBuilder({2: ga2}, 4)
    builder.add({3: ga3}, {3: {3: {
        rec.obj: Matrix.from_rows([[1]]) for rec in builder.summands[3]}}})
    return builder.finish()


class TestPrincipalExtension:
    def test_zero_generators_reproduce_base(self):
        P = free_operad(binary_module(), 4)
        ext = principal_extension(P, 3, {}, {}, window=4)
        assert ext.result.total_dims() == P.total_dims()

    def test_zero_base_gives_free(self):
        from operad_forge.operad import DGOperad
        from operad_forge.sigma import SigmaModule as SM
        zero = DGOperad(SM({}), {}, 4)
        gen = GroupAction.trivial(2, ChainComplex({0: 1}))
        ext = principal_extension(zero, 2, {2: gen}, {}, window=4)
        free = free_operad(binary_module(), 4)
        assert ext.result.total_dims() == free.total_dims()

    def test_exact_sequence_dims_at_level(self):
        P = free_operad(binary_module(), 4)
        gen3 = GroupAction.trivial(3, ChainComplex({1: 2}))
        xi = {3: {1: Matrix.from_rows([[1, 1], [1, 1], [1, 1]])}}
        ext = principal_extension(P, 3, {3: gen3}, xi, window=4)
        assert ext.result.component(3).dims == {0: 3, 1: 2}
        # lower truncation untouched
        assert ext.result.component(2).dims == P.component(2).dims
        assert validate(ext.result) == []

    def test_rejects_non_chain_attachment(self):
        # attachment must land in cycles of the base
        ga2 = GroupAction.trivial(2, ChainComplex(
            {1: 1, 0: 1}, {1: Matrix.from_rows([[1]])}))
        P = free_operad(SigmaModule({2: ga2}), 3)
        gen3 = GroupAction.trivial(3, ChainComplex({2: 1}))
        # P(3) in degree 1 has non-cycle vectors; aim xi at one
        pc = P.component(3)
        target = None
        for col in range(pc.dim(2)):
            e = ((col, Fraction(1)),)
            if pc.d(2).apply(e):
                target = e
                break
        xi = {3: {3: Matrix.from_cols([target], rows=pc.dim(2))}}
        with pytest.raises(ValueError):
            principal_extension(P, 3, {3: gen3}, xi, window=3)


class TestConeCompletion:
    def test_zero_b_gives_zeta_mu(self):
        rng = random.Random(1)
        a = random_complex(rng)
        y = a
        x = a
        mu = ChainMap.identity(a)
        zeta = ChainMap.identity(a)
        b = ChainComplex.zero()
        eta = ChainMap.zero_map(b, a)
        czeta, _, _ = mapping_cone(zeta)
        lam = ChainMap(b, ChainComplex(
            {i - 1: n for i, n in czeta.dims.items()}, check=False), {},
            check=False)
        nu, h = cone_completion(lam, mu, eta, zeta)
        for i in a.dims:
            assert nu.block(i) == (zeta.block(i) * mu.block(i))

    def test_all_zero(self):
        b = ChainComplex.zero()
        a = ChainComplex({0: 1})
        nu, h = cone_completion(
            ChainMap(b, ChainComplex({-1: 1}, check=False), {}, check=False),
            ChainMap.zero_map(a, a), ChainMap.zero_map(b, a),
            ChainMap.identity(a))
        assert all(m.is_zero() for m in nu.blocks.values()) or not nu.blocks

    def test_randomized_square_identities(self):
        # B acyclic guarantees the homotopy lambda_X exists
        rng = random.Random(7)
        b = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
        a = random_complex(rng, degree_span=(0, 2))
        y = a
        x = random_complex(rng, degree_span=(0, 2))
        eta = random_chain_map(rng, b, a)
        mu = ChainMap.identity(a)
        zeta = random_chain_map(rng, y, x)
        # assemble lambda = (lambda_X, lambda_Y) with lambda_Y = -mu eta
        # and lambda_X a homotopy for zeta mu eta ~ 0
        zme = zeta.compose(mu).compose(eta)
        hmt = homotopy_solve(zme, ChainMap.zero_map(b, x))
        assert hmt is not None
        czeta, _, _ = mapping_cone(zeta)
        shifted = ChainComplex({i - 1: n for i, n in czeta.dims.items()},
                               {i - 1: m.scale(-1)
                                for i, m in czeta.diff.items()}, check=False)
        blocks = {}
        for i in b.dims:
            rows = czeta.dim(i + 1)
            if rows == 0:
                continue
            grid = [[Fraction(0)] * b.dim(i) for _ in range(rows)]
            hx = hmt.get(i, Matrix.zeros(x.dim(i + 1), b.dim(i)))
            me = mu.compose(eta).block(i)
            for r in range(x.dim(i + 1)):
                for c in range(b.dim(i)):
                    grid[r][c] = hx.data[r][c]
            for r in range(y.dim(i)):
                for c in range(b.dim(i)):
                    grid[x.dim(i + 1) + r][c] = -me.data[r][c]
            blocks[i] = Matrix(rows, b.dim(i), grid)
        lam = ChainMap(b, shifted, blocks, check=False)
        nu, h = cone_completion(lam, mu, eta, zeta)
        # central square: nu restricted to A equals zeta mu (checked inside);
        # the homotopy identity is verified by cone_completion itself
        assert nu is not None

    def test_rejects_non_commuting_square(self):
        a = ChainComplex({0: 1})
        b = ChainComplex({0: 1})
        eta = ChainMap(b, a, {0: Matrix.from_rows([[1]])})
        mu = ChainMap.identity(a)
        zeta = ChainMap.identity(a)
        czeta, _, _ = mapping_cone(zeta)
        shifted = ChainComplex({i - 1: n for i, n in czeta.dims.items()},
                               check=False)
        lam = ChainMap(b, shifted, {}, check=False)  # zero, but mu eta != 0
        with pytest.raises(ValueError):
            cone_completion(lam, mu, eta, zeta)


class TestMinimalModel:
    def test_minimal_input_reproduced(self):
        P = free_operad(binary_module(), 4)
        mm = minimal_model(P, 4)
        assert mm.generator_dims == {2: {0: 1}}
        assert mm.operad.total_dims() == P.total_dims()
        assert is_minimal(mm.operad) == (True, None)
        ok, _ = weak_equivalence_test(mm.morphism)
        assert ok

    def test_acyclic_gives_zero_model(self):
        mm = minimal_model(acyclic_operad(), 2)
        assert mm.operad.is_zero()

    def test_commutative_tower_dims(self):
        # independent expectation: generators (n-1)! in degree n-2
        mm = minimal_model(commutative_style_operad(4), 4)
        assert mm.generator_dims == {2: {0: 1}, 3: {1: 2}, 4: {2: 6}}
        ok, _ = weak_equivalence_test(mm.morphism)
        assert ok
        assert is_minimal(mm.operad) == (True, None)

    def test_modular_model(self):
        E = endomorphism_modular_operad(ChainComplex({0: 1}),
                                        Matrix.from_rows([[1]]), 2)
        mm = minimal_model(E, 2)
        assert mm.generator_dims == {(0, 3): {0: 1}, (0, 4): {1: 2},
                                     (0, 5): {2: 6}}
        ok, _ = weak_equivalence_test(mm.morphism)
        assert ok
        assert is_minimal(mm.operad) == (True, None)

    def test_attachment_derivation_satisfies_axioms(self):
        # the odd binary generator sits before the attached ternary vertex
        # in some trees, so a wrong Koszul sign in the derivation breaks
        # the axioms; seed 5 gives a modular model whose axioms break when
        # the derivation drops the coefficients of a coinvariant lift
        assert validate(massey_minimal_operad()) == []
        E = endomorphism_modular_operad(ChainComplex({0: 1}),
                                        Matrix.from_rows([[1]]), 2)
        assert validate(minimal_model(E, 2, seed=5).operad) == []

    def test_seeds_give_isomorphic_models(self):
        com = commutative_style_operad(4)
        mm0 = minimal_model(com, 4, seed=0)
        mm1 = minimal_model(com, 4, seed=11)
        assert mm0.generator_dims == mm1.generator_dims
        iso = iso_between_minimal(mm0, mm1)
        assert iso.is_iso()
        assert iso.validate() == []

    def test_deterministic_per_seed(self):
        com = commutative_style_operad(3)
        a = minimal_model(com, 3, seed=5)
        b = minimal_model(com, 3, seed=5)
        for key in a.operad.arities:
            assert a.morphism.block(key) == b.morphism.block(key)

    def test_window_monotone_generators(self):
        com4 = commutative_style_operad(4)
        small = minimal_model(truncate(com4, 3).__class__ and com4, 3)
        big = minimal_model(com4, 4)
        for key, dims in small.generator_dims.items():
            assert big.generator_dims[key] == dims


class TestIsMinimal:
    def test_free_zero_differential_minimal(self):
        P = free_operad(binary_module(), 3)
        assert is_minimal(P) == (True, None)

    def test_generator_killed_by_d_not_minimal(self):
        # free operad on a dg module: d maps one generator to another
        c = ChainComplex({1: 1, 0: 1}, {1: Matrix.from_rows([[1]])})
        P = free_operad(SigmaModule({2: GroupAction.trivial(2, c)}), 3)
        flag, level = is_minimal(P)
        assert flag is False and level == 2

    def test_requires_tower(self):
        com = commutative_style_operad(3)
        with pytest.raises(ValueError):
            is_minimal(com)

    def test_minimal_model_output_passes(self):
        mm = minimal_model(commutative_style_operad(3), 3)
        assert is_minimal(mm.operad) == (True, None)

    def test_attachment_onto_corolla_not_minimal(self):
        # d sends the degree-1 generator onto the degree-0 one: a linear
        # attachment, made by hand in summand coordinates
        ga = GroupAction.trivial(2, ChainComplex({0: 1, 1: 1}))
        builder = FreeOperadBuilder({}, 3)
        corolla = enumerate_trees(2)[0]
        builder.add({2: ga}, {2: {1: {corolla: Matrix.from_rows([[1]])}}})
        assert builder.corolla_summand(2).obj == corolla
        P = builder.finish()
        assert validate(P) == []
        assert is_minimal(P) == (False, 2)


class TestTowerDocument:
    """The ``minimal-model`` writer against the layout of each level's
    builder: rebuilt on the generators below the level, its ``placed``
    gives the attachment matrices the document must hold."""

    HYCOM4 = {2: {0: 1}, 3: {1: 2, 2: 1}, 4: {2: 6, 3: 5, 4: 1}}
    MODULI2 = {(0, 3): {0: 1}, (0, 4): {1: 2, 2: 1}, (1, 1): {2: 1},
               (0, 5): {2: 6, 3: 5, 4: 1}, (1, 2): {4: 1}}

    @pytest.mark.parametrize("make, dims", [
        (lambda: hypercommutative(4), HYCOM4),
        (lambda: moduli_quotient(2), MODULI2),
        (acyclic_operad, {}),
    ], ids=["hycom4", "moduli2", "acyclic"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_attachments_in_level_layouts(self, tmp_path, make, dims, seed):
        src, out = tmp_path / "op.json", tmp_path / "mm.json"
        with open(src, "w") as fh:
            doc.dump(doc.to_document(make()), fh)
        assert main(["minimal-model", str(src), "--seed", str(seed),
                     "--out", str(out)]) == 0
        written = json.loads(out.read_text())["tower"]
        p, _ = doc.load(str(src))
        mm = minimal_model(p, seed=seed)
        assert mm.generator_dims == dims
        gens = mm.operad.free.gens
        attachments = mm.operad.free.attachments
        levels = sorted({p.level(k) for k in p.keys()})
        assert mm.tower == tuple(levels)
        expected = []
        for n in levels:
            level_builder = free_builder(
                p, {k: ga for k, ga in gens.items() if p.level(k) < n}, n)
            components = {}
            for key, ga in gens.items():
                if p.level(key) != n:
                    continue
                components[doc._key_to_str(key)] = {
                    "dims": {str(d): k for d, k in ga.complex.dims.items()},
                    "attachment": {
                        str(d): matrix_to_lists(
                            level_builder.placed(key, d - 1, blocks))
                        for d, blocks in attachments.get(key, {}).items()},
                }
            expected.append({"level": n, "components": components})
        assert written == expected
        # each level of these operads gives generators but the acyclic
        # operad's one level
        assert [bool(e["components"]) for e in written] == [bool(dims)] * len(
            levels)
        assert bool(attachments) == bool(dims)


class TestLift:
    def test_lift_against_self_is_homotopic_to_identity(self):
        mm = minimal_model(commutative_style_operad(4), 4)
        phi, certs = lift(mm.morphism, mm.morphism, mm)
        assert phi.is_iso()
        ident = OperadMorphism.identity(mm.operad)
        for key in mm.operad.arities:
            h = homotopy_solve(phi.block(key), ident.block(key))
            assert h is not None

    def test_lift_through_isomorphism(self):
        # rho an isomorphism: the lift is rho^{-1} psi up to homotopy
        mm = minimal_model(commutative_style_operad(3), 3)
        com = commutative_style_operad(3)
        rho = OperadMorphism.identity(com)
        phi, certs = lift(rho, mm.morphism, mm)
        for key in mm.operad.arities:
            h = homotopy_solve(phi.block(key), mm.morphism.block(key))
            assert h is not None

    def test_uniqueness_up_to_homotopy(self):
        mm = minimal_model(commutative_style_operad(4), 4)
        phi1, _ = lift(mm.morphism, mm.morphism, mm, seed=0)
        phi2, _ = lift(mm.morphism, mm.morphism, mm, seed=9)
        for key in mm.operad.arities:
            h = homotopy_solve(phi1.block(key), phi2.block(key))
            assert h is not None
            assert check_homotopy(phi1.block(key), phi2.block(key), h)

    def test_homotopy_bytes_pinned(self):
        # the seeded self-lifts of the commutative window-4 model are the
        # identity at arity 4, so the other end is the identity moved by
        # d h0 + h0 d for a seeded h0: the target is then nonzero, and the
        # free variables of the 661 x 420 system decide which h comes back
        mm = minimal_model(commutative_style_operad(4), 4)
        phi, _ = lift(mm.morphism, mm.morphism, mm, seed=9)
        f = phi.block(4)
        x = f.src
        rng = random.Random(4)
        h0 = {i: Matrix(x.dim(i + 1), x.dim(i),
                        [[rng.randint(-1, 1) for _ in range(x.dim(i))]
                         for _ in range(x.dim(i + 1))]) for i in (0, 1)}
        blocks = {}
        for i in x.dims:
            acc = Matrix.identity(x.dim(i))
            if i in h0:
                acc = acc + x.d(i + 1) * h0[i]
            if i - 1 in h0:
                acc = acc + h0[i - 1] * x.d(i)
            blocks[i] = acc
        g = ChainMap(x, x, blocks)
        assert any(f.block(i) != g.block(i) for i in x.dims)
        h = homotopy_solve(f, g)
        assert check_homotopy(f, g, h) is True
        assert h[0] != -h0[0]
        # sha256 of each block's dense rows as computed by the dense
        # elimination, and of its sparse rows
        digests = {i: tuple(hashlib.sha256(json.dumps(rows(m)).encode())
                            .hexdigest()
                            for rows in (dense_matrix_to_lists,
                                         matrix_to_lists))
                   for i, m in h.items()}
        assert digests == {
            0: ("fbd8442c6007240f2a42d0260a17903cc538f77cbb92f91fd659973b722e874f",
                "44561f46fc711979821558bd318c1d5cad0e554ef4e9589bd431d08b09101391"),
            1: ("5bae48439a3261467d55e23920900800def4dce19af49e2292a8852f4c29d84e",
                "23762e0e68cd89dfc1f142f556de611018cca8c26dfe2e9f3924606efc8c77b1"),
        }

    def test_not_isomorphic_reported(self):
        mm1 = minimal_model(commutative_style_operad(3), 3)
        mm2 = minimal_model(free_operad(binary_module(), 3), 3)
        with pytest.raises(NotIsomorphicError):
            iso_between_minimal(mm1, mm2)


class TestSubEqualsWhole:
    def test_proper_suboperad_inclusion_is_not_weak_equivalence(self):
        # the free suboperad on the binary generator inside the minimal
        # model of the commutative fixture is proper; the checker must
        # refuse to call its inclusion a weak equivalence
        mm = minimal_model(commutative_style_operad(3), 3)
        M = mm.operad
        sub = free_operad(binary_module(), 3)
        # inclusion determined by the arity-2 generator
        gen_c = sub.free.gens[2].complex
        img = ChainMap(gen_c, M.component(2),
                       {0: Matrix.identity(1)})
        incl = morphism_from_generators(sub, M, {2: img})
        ok, _ = weak_equivalence_test(incl)
        assert not ok


class TestFiniteness:
    def test_generators_finite_and_monotone(self):
        com = commutative_style_operad(4)
        mm3 = minimal_model(com, 3)
        mm4 = minimal_model(com, 4)
        assert all(sum(d.values()) < 50 for d in mm4.generator_dims.values())
        for key, dims in mm3.generator_dims.items():
            assert mm4.generator_dims[key] == dims


class TestModularLift:
    def test_lift_into_endomorphism_operad(self):
        # the strongly-homotopy algebra datum: a homotopy class of
        # morphisms from the minimal model into E[V], produced by
        # lifting the quasi-morphism along the identity of E[V]
        E = endomorphism_modular_operad(ChainComplex({0: 1}),
                                        Matrix.from_rows([[1]]), 2)
        mm = minimal_model(E, 2)
        ident = OperadMorphism.identity(E)
        phi, certs = lift(ident, mm.morphism, mm)
        assert phi.validate() == []
        for key in mm.operad.indices:
            assert key in certs
        # the composite along the identity is homotopic to rho
        for key in mm.operad.indices:
            h = homotopy_solve(phi.block(key), mm.morphism.block(key))
            assert h is not None

    def test_modular_uniqueness_up_to_homotopy(self):
        E = endomorphism_modular_operad(ChainComplex({0: 1}),
                                        Matrix.from_rows([[1]]), 2)
        mm = minimal_model(E, 2)
        phi1, _ = lift(mm.morphism, mm.morphism, mm, seed=0)
        phi2, _ = lift(mm.morphism, mm.morphism, mm, seed=5)
        for key in mm.operad.indices:
            assert homotopy_solve(phi1.block(key), phi2.block(key)) is not None


def _unit_g_map(vc, qc, d, r, k):
    unit = tuple(((k, F1),) if i == r else () for i in range(qc.dim(d)))
    return ChainMap(vc, qc, {d: Matrix._trusted(qc.dim(d), vc.dim(d), unit)},
                    check=False)


def reference_condition_deltas(builder, q_operad, images_so_far, key, ckey,
                               vc, qc):
    """The unit-perturbation loop the level solver once ran, kept as the
    reference for its (c) rows: the whole component evaluated with each
    unit (d, r, k) of g, minus the whole component evaluated at g = 0.
    The unknowns are numbered row by row, degree after degree, so each
    delta is keyed by the unit's place in that order."""
    units = [(d, r, k) for d in sorted(vc.dims)
             for r in range(qc.dim(d)) for k in range(vc.dim(d))]
    zero_g = ChainMap(vc, qc, {}, check=False)
    base_images = dict(images_so_far)
    base_images[key] = zero_g
    base_eval = builder.evaluation(q_operad, base_images, ckey)
    deltas = {}
    for u, (d, r, k) in enumerate(units):
        unit_images = dict(images_so_far)
        unit_images[key] = _unit_g_map(vc, qc, d, r, k)
        ev = builder.evaluation(q_operad, unit_images, ckey)
        delta = {deg: ev[deg] - base_eval[deg] for deg in ev
                 if not (ev[deg] - base_eval[deg]).is_zero()}
        if delta:
            deltas[u] = delta
    return base_eval, deltas


def reference_level_system(mm, q_operad, post_maps, prescribed, key,
                           images_so_far, m_hom, r_hom, c_keys):
    """The level system at key by the reference route: its (a) and (b)
    rows from reference_level_rows, whose (a) evaluates with the key's
    image zero, then one (c) row per homology coordinate of each
    representative, read off reference_condition_deltas.  Returns the
    rows, their sparse right-hand side and the number of unknowns."""
    rows, rhs, _, total = reference_level_rows(mm, q_operad, key,
                                               images_so_far)
    builder = mm.operad.free
    vc, qc = builder.gens[key].complex, q_operad.component(key)
    for ckey in c_keys:
        if ckey not in r_hom or not m_hom[ckey].dims:
            continue
        hm, hr, post = m_hom[ckey], r_hom[ckey], post_maps.get(ckey)
        base, deltas = reference_condition_deltas(
            builder, q_operad, images_so_far, key, ckey, vc, qc)
        presc = prescribed.get(ckey, {})
        for d in sorted(hm.dims):
            post_block = post.block(d) if post else Matrix.identity(
                q_operad.component(ckey).dim(d))
            lam = hr.classifier(d) * post_block
            for col, z in enumerate(hm.representatives[d]):
                want = presc[d].columns()[col] if d in presc else ()
                cond = [{} for _ in range(hr.dim(d))]
                for u, dmat in deltas.items():
                    if d in dmat:
                        for hrow, c in lam.apply(dmat[d].apply(z)):
                            cond[hrow][u] = c
                fixed = lam.apply(base[d].apply(z))
                rhs += [(len(rows) + i, x)
                        for i, x in _combine(want, fixed, -F1)]
                rows += map(sparse_row, cond)
    return rows, rhs, total


def fixture_document(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path, encoding="utf-8") as fh:
        return doc.from_document(doc.loads(fh.read()))[0]


GOLDEN = sorted(name for name in os.listdir(
    os.path.join(os.path.dirname(__file__), "fixtures")) if name.endswith(".json"))


def golden_operad(name):
    """The operad of a golden fixture; the free one, in window 3, on a
    fixture that is a Sigma-module."""
    obj = fixture_document(name)
    if isinstance(obj, SigmaModule):
        return free_operad(obj, 3)
    if isinstance(obj, ModularSigmaModule):
        return free_modular_operad(obj, 3)
    return obj


def endomorphism_dim1(window):
    return endomorphism_modular_operad(ChainComplex({0: 1}),
                                       Matrix.from_rows([[1]]), window)


def free_binary_ternary_window4():
    # arity 4 has no generators of its own: its homology rows sit in the
    # arity-3 level, whose generator is the root of some trees and a
    # child in others
    return free_operad(SigmaModule({
        2: GroupAction.trivial(2, ChainComplex({0: 1})),
        3: GroupAction.trivial(3, ChainComplex({1: 1}))}), 4)


def lift_commutative_window4():
    mm = minimal_model(commutative_style_operad(4), 4)
    return lift(mm.morphism, mm.morphism, mm, seed=9)


class TestConditionDeltas:
    """Every level system reads its (a) rows off the attachment's columns
    and its homology rows off the part of the representatives linear in
    the level's generator image g (``_FreeBuilder.evaluate``).  Matrix
    and right-hand side must be those of the reference route: the
    whole component evaluated with the key's image zero for (a), and
    with each unit of g against g = 0 for (c)."""

    @pytest.mark.parametrize("run", [
        lambda: formality_check(fixture_document("commutative_window3.json")),
        lambda: formality_check(fixture_document("endomorphism_dim1.json")),
        lift_commutative_window4,
        lambda: formality_check(endomorphism_dim1(2)),
        lambda: formality_check(hypercommutative(4), 4),
        lambda: formality_check(free_binary_ternary_window4(), 4),
        lambda: formality_check(moduli_quotient(2), 2),
    ], ids=["commutative-window3", "endomorphism-dim1",
            "commutative-window4-lift", "endomorphism-window2",
            "hypercommutative-window4", "free-binary-ternary-window4",
            "moduli-window2"])
    def test_identical_to_whole_component_perturbations(self, run,
                                                        monkeypatch):
        fast = minimal._solve_level
        minimal_solve = minimal.solve_with_kernel
        solved = []
        seen = []

        def recording_solve(m, b):
            solved.append((m, b))
            return minimal_solve(m, b)

        def checked(mm, q_operad, post_maps, prescribed, key, images_so_far,
                    m_hom, r_hom, c_keys, seed=0):
            solved.clear()
            got = fast(mm, q_operad, post_maps, prescribed, key,
                       images_so_far, m_hom, r_hom, c_keys, seed)
            rows, rhs, total = reference_level_system(
                mm, q_operad, post_maps, prescribed, key, images_so_far,
                m_hom, r_hom, c_keys)
            (system, b), = solved
            assert (system.cols, system.sparse, b) == (
                total, tuple(rows), tuple(rhs)), key
            ab = len(reference_level_rows(mm, q_operad, key,
                                          images_so_far)[0])
            seen.append(any(system.sparse[ab:]))
            return got

        monkeypatch.setattr(minimal, "solve_with_kernel", recording_solve)
        monkeypatch.setattr(minimal, "_solve_level", checked)
        assert run() is not None
        # some level's homology rows move with g
        assert any(seen)


def _random_sparse(rng, n):
    """A sparse vector of dimension n with random support and nonzero
    coefficients, not all 1."""
    return sparse_row({k: Fraction(rng.choice([-3, -1, 2, 5]),
                                   rng.choice([1, 2]))
                       for k in range(n) if rng.random() < 0.6})


class TestEvaluate:
    """``_FreeBuilder.evaluate`` on the minimal model of the window-2
    endomorphism operad, in the model itself under random generator
    images: its coinvariant lifts have several labels.  The fixed part is
    the evaluation with gen's image zero, and each linear entry (d, i, j)
    the difference the unit map E_ij makes to it."""

    @pytest.fixture(scope="class")
    def model(self):
        return minimal_model(endomorphism_dim1(2), 2).operad

    @staticmethod
    def random_images(op, rng):
        images = {}
        for k, ga in op.free.gens.items():
            vc, qc = ga.complex, op.component(k)
            images[k] = ChainMap(vc, qc, {d: Matrix(
                qc.dim(d), vc.dim(d),
                [[rng.randint(-2, 2) for _ in range(vc.dim(d))]
                 for _ in range(qc.dim(d))])
                for d in vc.dims if qc.dim(d)}, check=False)
        return images

    @pytest.mark.parametrize("gen, ckey", [
        ((0, 3), (0, 3)), ((0, 3), (1, 1)), ((0, 4), (0, 4)),
        ((0, 4), (1, 2)), ((0, 4), (0, 5)), ((0, 5), (0, 5))], ids=str)
    def test_fixed_and_linear_parts(self, model, gen, ckey):
        rng = random.Random(f"evaluate:{gen}:{ckey}")
        builder = model.free
        images = self.random_images(model, rng)
        vc, qc = builder.gens[gen].complex, model.component(gen)
        zero = builder.evaluation(
            model, {**images, gen: ChainMap(vc, qc, {}, check=False)}, ckey)
        units = [(d, i, j) for d in sorted(vc.dims)
                 for i in range(qc.dim(d)) for j in range(vc.dim(d))]
        moved = {u: builder.evaluation(
            model, {**images, gen: _unit_g_map(vc, qc, *u)}, ckey)
            for u in units}
        linear_seen = False
        for d, n in builder.dims[ckey].items():
            vectors = [_random_sparse(rng, n) for _ in range(4)]
            got = builder.evaluate(model, images, ckey, d, vectors, gen=gen)
            assert len(got) == len(vectors)
            for z, (fixed, linear) in zip(vectors, got):
                assert fixed == zero[d].apply(z)
                assert linear.keys() <= set(units)
                for u in units:
                    assert linear.get(u, ()) == \
                        (moved[u][d] - zero[d]).apply(z), (d, u)
                linear_seen = linear_seen or bool(linear)
        assert linear_seen

    @pytest.mark.parametrize("ckey", [(0, 4), (1, 2)])
    def test_two_gen_vertices_raise(self, model, ckey):
        images = self.random_images(model, random.Random(1))
        with pytest.raises(ValueError, match="not linear"):
            model.free.evaluate(model, images, ckey, 0, [((0, F1),)],
                                gen=(0, 3))


class TestLevelSystems:
    """The level solver writes its rows through qlinalg.MatrixEquations;
    its (a) and (b) rows, its number of unknowns and its seeded solution
    must be those of the hand-built rows and their unflatten readback."""

    # the window-4 lift's level systems have no kernel; the seeded
    # hypercommutative witness has one of dimension 2, so draws move g
    @pytest.mark.parametrize("run", [
        lift_commutative_window4,
        lambda: formality_check(hypercommutative(4), 4, seed=5),
    ], ids=["commutative-window4-lift", "hypercommutative-window4-seed5"])
    def test_same_systems_as_hand_built_rows(self, run, monkeypatch):
        fast = minimal._solve_level
        minimal_solve = minimal.solve_with_kernel
        solved = []
        seen = []

        def recording_solve(m, b):
            solved.append((m, b))
            return minimal_solve(m, b)

        def checked(mm, q_operad, post_maps, prescribed, key, images_so_far,
                    m_hom, r_hom, c_keys, seed=0):
            solved.clear()
            got = fast(mm, q_operad, post_maps, prescribed, key,
                       images_so_far, m_hom, r_hom, c_keys, seed)
            rows, rhs, offsets, total = reference_level_rows(
                mm, q_operad, key, images_so_far)
            (system, b), = solved
            assert system.cols == total
            assert system.sparse[:len(rows)] == tuple(rows)
            assert tuple(e for e in b if e[0] < len(rows)) == tuple(rhs)
            assert got.blocks == reference_level_blocks(
                system, b, offsets, got.src, got.dst, key, seed)
            seen.append((key, len(rows), system.rows, seed))
            return got

        monkeypatch.setattr(minimal, "solve_with_kernel", recording_solve)
        monkeypatch.setattr(minimal, "_solve_level", checked)
        assert run() is not None
        # every level has (a) or (b) rows and homology rows after them,
        # and is solved with a seed
        assert seen and all(0 < n < m and seed for _, n, m, seed in seen)


def _with_greedy_classifiers(records, keys):
    """Copies of the records at keys whose classifiers are the greedy
    extensions (helpers.greedy_extended_classify), which need not vanish
    off Z's pivots."""
    return {key: HomologyRecord(rec.complex, rec.dims, rec.representatives,
                                {d: greedy_extended_classify(rec.complex, d)
                                 for d in rec.dims})
            for key, rec in records.items() if key in keys}


def _augmented_echelon(system, rhs):
    return rref(system.hstack(Matrix.from_cols((rhs,), system.rows)))


def lift_free_on_complex(seed):
    """Lift the model of the free operad on C through the identity.  C is
    Q^2 -> Q, d = (1, -1), so its cycles (1, 1) are no coordinate
    subspace and the level's homology rows meet the non-cycles that
    K and the greedy extension send to different places."""
    c = ChainComplex({1: 2, 0: 1}, {1: Matrix.from_rows([[1, -1]])})
    p = free_operad(SigmaModule({2: GroupAction.trivial(2, c)}), 3)
    mm = minimal_model(p, 3, seed=seed)
    return lift(OperadMorphism.identity(p), mm.morphism, mm, seed=seed)


class TestClassifierExtension:
    """The homology rows of a level system apply the target's classifier
    K, exact only on cycles, to the images of the model's cycles.  A g
    solving the (a) rows sends cycles to cycles, so with another
    extension of the classifying map in K's place (the greedy one the
    solver used before) the augmented system has the same echelon form,
    solution and kernel."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("run", [
        lambda seed: formality_check(
            fixture_document("commutative_window3.json"), seed=seed),
        lambda seed: formality_check(
            fixture_document("endomorphism_dim1.json"), seed=seed),
        lambda seed: formality_check(endomorphism_dim1(2), seed=seed),
        lambda seed: formality_check(hypercommutative(4), 4, seed=seed),
    ], ids=["commutative-window3", "endomorphism-dim1",
            "endomorphism-window2", "hypercommutative-window4"])
    def test_greedy_extension_same_solution(self, run, seed, monkeypatch):
        assert self.check_every_level(lambda: run(seed), monkeypatch)

    def test_commutative_window4_lift(self, monkeypatch):
        assert self.check_every_level(lift_commutative_window4, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_systems_differ_off_the_cycles(self, seed, monkeypatch):
        # the fixtures above only ever classify cycles, so their systems
        # are identical; here every level's system changes
        moved = self.check_every_level(lambda: lift_free_on_complex(seed),
                                       monkeypatch)
        assert moved and all(moved)

    @staticmethod
    def check_every_level(run, monkeypatch):
        """Run, solving each level twice; one flag per level: whether
        the two systems differ."""
        fast = minimal._solve_level
        minimal_solve = minimal.solve_with_kernel
        solved = []
        moved = []

        def recording_solve(m, b):
            out = minimal_solve(m, b)
            solved.append((m, b, out))
            return out

        def twice(mm, q_operad, post_maps, prescribed, key, images_so_far,
                  m_hom, r_hom, c_keys, seed=0):
            greedy = _with_greedy_classifiers(r_hom, c_keys)
            runs = []
            for records in (r_hom, {**r_hom, **greedy}):
                solved.clear()
                got = fast(mm, q_operad, post_maps, prescribed, key,
                           images_so_far, m_hom, records, c_keys, seed)
                (entry,) = solved
                runs.append((entry, got))
            ((m1, b1, out1), got1), ((m2, b2, out2), got2) = runs
            assert _augmented_echelon(m1, b1) == _augmented_echelon(m2, b2)
            assert out1 == out2
            assert got1 == got2
            moved.append((m1, b1) != (m2, b2))
            return got1

        monkeypatch.setattr(minimal, "solve_with_kernel", recording_solve)
        monkeypatch.setattr(minimal, "_solve_level", twice)
        assert run() is not None
        return moved


class TestHypercommutative:
    """H_*(M-bar_{0,n+1}), the genus-0 part of the paper's operad."""

    def test_keel_dimensions(self):
        q = hypercommutative(4)
        assert validate(q) == []
        assert {n: dict(q.component(n).dims) for n in q.arities} == {
            2: {0: 1}, 3: {0: 1, 2: 1}, 4: {0: 1, 2: 5, 4: 1}}

    def test_keel_dimensions_arity_5(self):
        # Poincare polynomial 1 + 16t^2 + 16t^4 + t^6, total 34
        assert dict(hypercommutative(5).component(5).dims) == {
            0: 1, 2: 16, 4: 16, 6: 1}

    def test_minimal_model_generators(self):
        # a generator of degree 2(n - 2) - k counts b_k(M_{0,n+1}), whose
        # Poincare polynomial is the product of (1 + kt) for k = 2..n-1
        mm = minimal_model(hypercommutative(4), 4)
        assert mm.generator_dims == {2: {0: 1}, 3: {1: 2, 2: 1},
                                     4: {2: 6, 3: 5, 4: 1}}
        assert is_minimal(mm.operad) == (True, None)

    def test_minimal_model_generators_window_5(self):
        # arity 5: the coefficients of (1 + 2t)(1 + 3t)(1 + 4t)
        mm = minimal_model(hypercommutative(5), 5)
        assert mm.generator_dims == {2: {0: 1}, 3: {1: 2, 2: 1},
                                     4: {2: 6, 3: 5, 4: 1},
                                     5: {3: 24, 4: 26, 5: 9, 6: 1}}
        assert is_minimal(mm.operad) == (True, None)

    def test_formality_witness(self):
        # the operad has zero differential, so it is formal; arity 4 has
        # generators in the adjacent degrees 2 and 3
        wit = formality_check(hypercommutative(4), 4)
        assert wit is not None and wit.verify()
        assert leibniz_holds(wit)

    @pytest.mark.parametrize("alpha", [3, Fraction(1, 2), -2])
    def test_formality_witness_any_alpha(self, alpha):
        # the characterization of formality does not depend on alpha
        wit = formality_check(hypercommutative(4), 4, alpha=alpha)
        assert wit is not None and wit.verify() is True
        assert leibniz_holds(wit, alpha)


class CorollaFirstTrees(FreeOperadBuilder):
    """Trees with the corolla first in each component's layout."""

    def _catalogue(self, n):
        return sorted(super()._catalogue(n),
                      key=lambda t: len(t.vertices()) > 1)


class CorollaLastGraphs(FreeModularBuilder):
    """Stable graphs with the corolla last in each component's layout."""

    def _catalogue(self, key):
        return sorted(super()._catalogue(key),
                      key=lambda g: g.n_vertices == 1 and not g.edges)


def corolla_moved(op, gens, window):
    if isinstance(op, ModularOperad):
        return CorollaLastGraphs(gens, window)
    return CorollaFirstTrees(gens, max(window, 2))


MODULI_WINDOW_2 = {(0, 3): {0: 1}, (0, 4): {1: 2, 2: 1}, (1, 1): {2: 1},
                   (0, 5): {2: 6, 3: 5, 4: 1}, (1, 2): {4: 1}}


@pytest.fixture(scope="module")
def moduli_window_3():
    return moduli_quotient(3)


class TestModuliQuotient:
    """The free modular operad on fundamental classes modulo WDVV: the
    paper's object.  Its keys have generators in adjacent degrees, and
    each stable graph catalogue puts the corolla first."""

    def test_minimal_model_window_2(self):
        mm = minimal_model(moduli_quotient(2), 2)
        assert mm.generator_dims == MODULI_WINDOW_2
        assert is_minimal(mm.operad) == (True, None)
        assert validate(mm.operad) == []

    @pytest.mark.parametrize("alpha", [2, 3, Fraction(1, 2), -2])
    def test_formality_witness_window_2(self, alpha):
        # the characterization of formality does not depend on alpha
        wit = formality_check(moduli_quotient(2), 2, alpha=alpha)
        assert wit is not None and wit.verify() is True
        assert leibniz_holds(wit, alpha)

    def test_minimal_model_window_3(self, moduli_window_3):
        # genus 0: (0, 5) is (1 + 2t)(1 + 3t), (0, 6) the arity-5
        # hypercommutative generators
        mm = minimal_model(moduli_window_3, 3)
        assert mm.generator_dims == {
            **MODULI_WINDOW_2, (0, 6): {3: 24, 4: 26, 5: 9, 6: 1},
            (1, 3): {3: 1, 6: 1}, (2, 0): {6: 1}}
        assert is_minimal(mm.operad) == (True, None)
        assert validate(mm.operad) == []

    def test_known_betti_numbers(self, moduli_window_3):
        # Keel (1992) for genus 0; Petersen (2014), "The structure of the
        # tautological ring in genus one", for (1, l); Mumford (1983),
        # "Towards an enumerative geometry of the moduli space of
        # curves", for (2, 0)
        q = moduli_window_3
        assert validate(q) == []
        known = {(0, 3): {0: 1}, (0, 4): {0: 1, 2: 1},
                 (0, 5): {0: 1, 2: 5, 4: 1},
                 (0, 6): {0: 1, 2: 16, 4: 16, 6: 1},
                 (1, 1): {0: 1, 2: 1}, (1, 2): {0: 1, 2: 2, 4: 1},
                 (1, 3): {0: 1, 2: 5, 4: 5, 6: 1},
                 (2, 0): {0: 1, 2: 2, 4: 2, 6: 1}}
        assert {key: dict(q.component(key).dims) for key in q.keys()} \
            == known
        for (g, l), dims in known.items():
            top = 2 * (3 * g - 3 + l)  # Poincare duality: h_k = h_{top-k}
            assert dims == {top - k: h for k, h in dims.items()}


class TestCatalogueOrder:
    """The model does not depend on where a layout puts the corolla."""

    def test_graph_corolla_last(self, monkeypatch):
        monkeypatch.setattr(minimal, "free_builder", corolla_moved)
        mm = minimal_model(moduli_quotient(2), 2)
        assert type(mm.operad.free) is CorollaLastGraphs
        assert mm.generator_dims == MODULI_WINDOW_2
        assert is_minimal(mm.operad) == (True, None)
        wit = formality_check(moduli_quotient(2), 2)
        assert wit is not None and wit.verify() is True

    def test_tree_corolla_first(self, monkeypatch):
        expected = minimal_model(hypercommutative(4), 4).generator_dims
        monkeypatch.setattr(minimal, "free_builder", corolla_moved)
        mm = minimal_model(hypercommutative(4), 4)
        assert type(mm.operad.free) is CorollaFirstTrees
        assert mm.generator_dims == expected
        assert is_minimal(mm.operad) == (True, None)
        wit = formality_check(hypercommutative(4), 4)
        assert wit is not None and wit.verify() is True


class TestOneBuilderPerModel:
    """A minimal model is built on one free builder, its generators added
    key by key: the per-summand work is done once and placed through the
    layout current at each use."""

    # sha256 of the ``minimal-model`` document: the "operad-forge/1" text,
    # rendered by the reference writer and pinned from the builder that
    # rebuilt the free operad at every level, and the "operad-forge/2"
    # text
    DIGESTS = {
        ("endomorphism-dim1-window2", 0): (
            "bdfc79ede212bd05079dfbdcc601c9b5c65d58e68540908bf7f50d05a228311b",
            "64a63dbf4091a89c2ff563b39d10a499c41a134b509f04718225cbc9beb1897c"),
        ("endomorphism-dim1-window2", 5): (
            "4adacc17939f8e6f61b172f4b2666cf5b207497ba331a6783a761c3a2bda8d56",
            "633a4830edfffcbc2034c48b7d4f69cbaba5c372a485887b600a170165bc4100"),
        ("moduli2", 0): (
            "36f387152156292913219429c29d6f5befc0f560e015d10f4c87a633161bc8ac",
            "e6a4bffd949653ac74ceedbde580641b16c0f0dc9040e540f49f4c33e87a0f1f"),
        ("moduli2", 5): (
            "cf2c516aa5abed462b2d728300735a750272cf7adc59dd604a2514352eb23d16",
            "168944e38e10d45019c3e13eac4e8974015fdd91f4f1842349a587ded2d1d182"),
    }
    MAKE = {"endomorphism-dim1-window2": lambda: endomorphism_dim1(2),
            "moduli2": lambda: moduli_quotient(2)}

    @pytest.mark.parametrize("name, seed", sorted(DIGESTS))
    def test_document_bytes_pinned(self, tmp_path, name, seed):
        src, out = tmp_path / "op.json", tmp_path / "mm.json"
        with open(src, "w") as fh:
            doc.dump(doc.to_document(self.MAKE[name]()), fh)
        digests = []
        for writer in (writing_v1, contextlib.nullcontext):
            with writer():
                assert main(["minimal-model", str(src), "--seed", str(seed),
                             "--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(digests) == self.DIGESTS[name, seed]

    @staticmethod
    def _counted(monkeypatch, cls):
        """Count the columns of s_j images and the attachment terms
        computed, by (key, summand object[, j]).  The match behind an
        image is made once per process (``free._MATCHES``), so the work
        counted is the per-summand column work, done once per model."""
        counts = {}
        image, terms = cls._image_columns, cls._attachment_terms

        def counted_image(self, rec, j):
            k = ("image", rec.key, rec.obj, j)
            counts[k] = counts.get(k, 0) + 1
            return image(self, rec, j)

        def counted_terms(self, rec):
            k = ("derivation", rec.key, rec.obj)
            counts[k] = counts.get(k, 0) + 1
            return terms(self, rec)

        monkeypatch.setattr(cls, "_image_columns", counted_image)
        monkeypatch.setattr(cls, "_attachment_terms", counted_terms)
        return counts

    @pytest.mark.parametrize("make, cls", [
        (lambda: moduli_quotient(2), FreeModularBuilder),
        (lambda: hypercommutative(4), FreeOperadBuilder),
        (lambda: commutative_style_operad(4), FreeOperadBuilder),
    ], ids=["moduli2", "hycom4", "commutative4"])
    def test_each_summand_column_computed_once(self, monkeypatch, make,
                                               cls):
        p = make()
        counts = self._counted(monkeypatch, cls)
        mm = minimal_model(p, seed=5)
        builder = mm.operad.free
        want = set()
        for key, records in builder.summands.items():
            for rec in records:
                want.add(("derivation", key, rec.obj))
                want |= {("image", key, rec.obj, j)
                         for j in range(1, p.legs(key))}
        assert set(counts) == want
        assert set(counts.values()) == {1}
        # placed through the final layouts, the stored columns give the
        # operad a builder given every generator at once gives
        assert any(builder.attachments.values())
        fresh = free_builder(p, {}, p.window)
        fresh.add(builder.gens, builder.attachments)
        fresh = fresh.finish()
        assert fresh.keys() == mm.operad.keys()
        for key in fresh.keys():
            assert mm.operad.component(key) == fresh.component(key), key
            ga, want_ga = mm.operad.group_action(key), fresh.group_action(key)
            assert (ga is None) == (want_ga is None), key
            if ga is not None:
                assert ga.generators == want_ga.generators, key
        assert mm.operad.comp.keys() == fresh.comp.keys()
        assert mm.operad.contr.keys() == fresh.contr.keys()
        # finishing used up the stored columns
        assert builder._images == {} and builder._terms == {}

    def test_generators_and_attachments_set_once(self):
        ga = GroupAction.trivial(2, ChainComplex({0: 1}))
        builder = FreeOperadBuilder({2: ga}, 3)
        with pytest.raises(ValueError, match="set once"):
            builder.add({2: ga})
        # attachments come with their key's generators
        with pytest.raises(ValueError, match="set once"):
            builder.add({}, {2: {}})

    def test_no_module_level_store_grows(self):
        """The per-model store lives on the builder and goes with the
        model: building models leaves every module-level container and
        cache of ``free`` and ``minimal`` as it was."""
        import gc
        import weakref
        from operad_forge import free

        def sizes():
            out = {}
            for mod in (free, minimal):
                for name, value in vars(mod).items():
                    if name.startswith("__"):
                        continue
                    if isinstance(value, (dict, list, set, tuple)):
                        out[mod.__name__, name] = len(value)
                    elif hasattr(value, "cache_info"):
                        out[mod.__name__, name] = value.cache_info().currsize
            return out

        minimal_model(endomorphism_dim1(2), seed=1)
        before = sizes()
        builders = []
        for seed in (2, 3, 4):
            mm = minimal_model(endomorphism_dim1(2), seed=seed)
            builders.append(weakref.ref(mm.operad.free))
        assert sizes() == before
        del mm
        gc.collect()
        assert [ref() for ref in builders] == [None] * 3


class TestHomologyOncePerComplex:
    """A complex owns its homology record (``ChainComplex.homology``):
    ``chain.homology`` runs at most once on any complex object, however
    many consumers read the record."""

    @staticmethod
    def _counted(monkeypatch):
        """Count the calls to chain.homology by complex object, through
        every operad_forge module that holds it by name."""
        import sys
        from operad_forge import chain
        original = chain.homology
        calls = {}

        def counted(c):
            calls.setdefault(id(c), [c, 0])[1] += 1
            return original(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("operad_forge") \
                    and getattr(module, "homology", None) is original:
                monkeypatch.setattr(module, "homology", counted)
        return calls

    @pytest.mark.parametrize("run", [
        lambda: formality_check(
            fixture_document("commutative_window3.json"), seed=5),
        lift_commutative_window4,
    ], ids=["commutative-window3-formality", "commutative-window4-lift"])
    def test_no_complex_computed_twice(self, monkeypatch, run):
        calls = self._counted(monkeypatch)
        assert run() is not None
        assert calls
        repeated = [(c, n) for c, n in calls.values() if n > 1]
        assert repeated == []

    def test_records_read_by_formality_check_are_fresh(self, monkeypatch):
        from operad_forge.chain import homology
        calls = self._counted(monkeypatch)
        formality_check(fixture_document("commutative_window3.json"), seed=5)
        monkeypatch.undo()
        for c, _ in calls.values():
            rec, fresh = c.homology, homology(c)
            assert rec is c.homology and rec.complex is c
            assert rec.dims == fresh.dims
            assert rec.representatives == fresh.representatives
            assert rec.classifiers == fresh.classifiers


class TestGoldenRecordsAgainstEchelon:
    """Every homology record that ``formality_check`` (the minimal model,
    then the lift and the witness) reads on a golden fixture, and every
    coinvariant complex the free operad on a fixture builds, equals the
    record of the eliminations it replaced: one rref of [B | Z]
    (``helpers.echelon_homology``) and a solve for the projection
    (``helpers.solved_coinvariants``)."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_every_record(self, name, monkeypatch):
        records, coins = [], []
        fast_homology, fast_coinvariants = chain.homology, free.coinvariants

        def recording_homology(c):
            records.append(fast_homology(c))
            return records[-1]

        def recording_coinvariants(c, elements):
            coins.append((c, elements, fast_coinvariants(c, elements)))
            return coins[-1][2]

        monkeypatch.setattr(chain, "homology", recording_homology)
        monkeypatch.setattr(free, "coinvariants", recording_coinvariants)
        assert formality_check(golden_operad(name)) is not None
        assert records
        for rec in records:
            assert_same_homology(rec, echelon_homology(rec.complex))
        for c, elements, got in coins:
            assert_same_coinvariants(got, solved_coinvariants(c, elements))


class TestGoldenKernelsAgainstColumnOrder:
    """Every kernel that ``formality_check`` (the minimal model, then the
    lift and the witness) takes on a golden fixture, in homology, the
    weight splits and the free builder, equals the column-order route
    that eliminates its null vectors a second time
    (``helpers.column_order_kernel``), entry for entry."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_every_kernel(self, name, monkeypatch):
        taken = []

        def recording_kernel(m):
            taken.append(m)
            return kernel(m)

        for module in (chain, free, qlinalg, weight):
            monkeypatch.setattr(module, "kernel", recording_kernel)
        assert formality_check(golden_operad(name)) is not None
        monkeypatch.undo()
        assert taken
        for m in taken:
            assert_same_kernel(kernel(m), column_order_kernel(m))
