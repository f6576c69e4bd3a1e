"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line on the real stdout so the
report is visible under pytest's default capture.  Run with
``pytest tests/test_acceptance.py`` (add -s for live output).
"""

import contextlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from operad_forge.chain import (
    ChainComplex,
    ChainMap,
    check_homotopy,
    homology_dims,
    homotopy_solve,
    mapping_cone,
    tensor,
)
from operad_forge.cubical import (
    CubicChain,
    alt,
    boundary,
    compose_maps,
    delta_map,
    interval_power,
    perm_map,
    sigma_tau_r_i,
)
from operad_forge.free import (
    endomorphism_modular_operad,
    extend_freely,
    free_modular_operad,
    free_operad,
    morphism_from_generators,
)
from operad_forge.minimal import (
    is_minimal,
    iso_between_minimal,
    lift,
    minimal_model,
)
from operad_forge.operad import (
    OperadMorphism,
    extend_by_zero,
    truncate,
    validate,
    weak_equivalence_test,
)
from operad_forge.qlinalg import (
    Matrix,
    char_poly,
    rank,
)
from operad_forge.sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    all_permutations,
    modular_dimension,
)
from operad_forge.trees import (
    enumerate_stable_graphs,
    enumerate_trees,
)
from operad_forge.weight import (
    WeightFunction,
    formality_check,
    formality_witness_from_pure,
    purity_check,
    t_functor,
)

from fixtures_ops import acyclic_operad, commutative_style_operad
from helpers import (
    face_permutation_decomposition,
    graph_space_data,
    operad_grading_automorphism,
    poly_eval_matrix,
    random_chain_map,
    random_complex,
    tree_space_data,
)


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line


def trivial_binary():
    return SigmaModule({2: GroupAction.trivial(2, ChainComplex({0: 1}))})


def regular_binary():
    c = ChainComplex({0: 2})
    swap = ChainMap(c, c, {0: Matrix.from_rows([[0, 1], [1, 0]])})
    return SigmaModule({2: GroupAction(2, c, [swap])})


def mixed_binary():
    c = ChainComplex({0: 1, 1: 1})
    act = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                          1: Matrix.from_rows([[-1]])})
    return SigmaModule({2: GroupAction(2, c, [act])})


def test_criterion_1_alt_and_permutation_identities():
    """d o Alt = Alt o d on all cubes of dimension <= 5; the face
    permutation bijection, its uniqueness and the sign identity for
    n <= 6.  Runtime target: under 60 seconds."""
    start = time.monotonic()
    X = interval_power(5)
    checked = 0
    for p in X.dims():
        for cube in X.cubes(p):
            if X.is_degenerate(cube):
                continue
            chain = CubicChain.of_cube(X, cube)
            assert boundary(alt(chain)) == alt(boundary(chain))
            checked += 1
    assert checked == 872
    # defining identity and sign identity, exhaustively for n <= 6
    seen_pairs = {}
    for n in range(2, 7):
        seen = set()
        for tau in all_permutations(n - 1):
            for r in range(1, n + 1):
                for i in range(1, n + 1):
                    sigma = sigma_tau_r_i(tau, r, i)
                    for eps in (0, 1):
                        assert compose_maps(perm_map(sigma),
                                            delta_map(n, i, eps)) \
                            == compose_maps(delta_map(n, r, eps),
                                            perm_map(tau))
                    assert sigma.sign() * (-1) ** i \
                        == tau.sign() * (-1) ** r
                    seen.add((sigma.images, i))
        # bijectivity: (tau, r, i) -> (sigma, i) is onto Sigma_n x slots
        import math
        assert len(seen) == math.factorial(n) * n
        seen_pairs[n] = len(seen)
        # uniqueness, exhaustively: for each slot i the pair of
        # composites (sigma o delta_i^0, sigma o delta_i^1) determines
        # sigma, so no (tau, r) admits two solutions; equivalent to the
        # full brute force over Sigma_n but in O(n! n) instead of
        # O((n!)^2 n^2)
        for i in range(1, n + 1):
            seen_composites = {}
            for sigma in all_permutations(n):
                key = (compose_maps(perm_map(sigma), delta_map(n, i, 0)),
                       compose_maps(perm_map(sigma), delta_map(n, i, 1)))
                assert key not in seen_composites, (n, i)
                seen_composites[key] = sigma
        # and the decomposition inverts the construction everywhere
        for sigma in all_permutations(n):
            for i in range(1, n + 1):
                r, tau = face_permutation_decomposition(sigma, i)
                assert sigma_tau_r_i(tau, r, i) == sigma
    # direct brute-force uniqueness at small n
    for n in (2, 3):
        for tau in all_permutations(n - 1):
            for r in range(1, n + 1):
                for i in range(1, n + 1):
                    sols = [s for s in all_permutations(n)
                            if all(compose_maps(perm_map(s),
                                                delta_map(n, i, eps))
                                   == compose_maps(delta_map(n, r, eps),
                                                   perm_map(tau))
                                   for eps in (0, 1))]
                    assert sols == [sigma_tau_r_i(tau, r, i)]
    elapsed = time.monotonic() - start
    report(1, elapsed < 60,
           f"alt chain map on 872 cubes, face bijection n<=6 "
           f"({elapsed:.1f}s < 60s)")


def test_criterion_2_free_constructions_vs_oracles():
    """Free operad dims equal the tree sums for n <= 5 on three
    generator fixtures; free modular operad dims equal the stable-graph
    coinvariant sums for modular dimension <= 2.  Exact equality."""
    # independent count oracle: the exponential generating function A of
    # reduced leaf-labelled trees satisfies 2A = x + exp(A) - 1, so
    # a_n = [x^n] exp(A restricted below degree n) for n >= 2; solved
    # exactly degree by degree with no tree machinery involved
    import math
    order = 6

    def exp_series(a):
        out = [Fraction(0)] * order
        out[0] = Fraction(1)
        term = [Fraction(0)] * order
        term[0] = Fraction(1)
        for k in range(1, order):
            new = [Fraction(0)] * order
            for i in range(order):
                if term[i] == 0:
                    continue
                for j in range(1, order - i):
                    if a[j]:
                        new[i + j] += term[i] * a[j]
            term = [x / k for x in new]
            for i in range(order):
                out[i] += term[i]
        return out

    a = [Fraction(0)] * order
    a[1] = Fraction(1)
    for n in range(2, order):
        a[n] = exp_series(a)[n]
    egf_counts = {n: a[n] * math.factorial(n) for n in range(2, 6)}
    for n in range(2, 6):
        assert Fraction(len(enumerate_trees(n))) == egf_counts[n], n
    assert [int(egf_counts[n]) for n in range(2, 6)] == [1, 4, 26, 236]
    fixtures = [("trivial", trivial_binary()), ("regular", regular_binary()),
                ("mixed", mixed_binary())]
    for name, module in fixtures:
        op = free_operad(module, 5)
        for n in range(2, 6):
            expected = {}
            for t in enumerate_trees(n):
                for d, v in tree_space_data(t, module).complex.dims.items():
                    expected[d] = expected.get(d, 0) + v
            expected = {d: v for d, v in expected.items() if v}
            assert op.component(n).dims == expected, (name, n)
    # modular: trivial and sign actions at (0,3)
    from operad_forge.sigma import coinvariants
    from operad_forge.trees import graph_automorphisms
    from operad_forge.free import FreeModularBuilder

    def oracle_dims(module, key):
        out = {}
        for graph in enumerate_stable_graphs(*key):
            td = graph_space_data(graph, module)
            if td.complex.is_zero():
                continue
            builder = FreeModularBuilder({}, 0)  # only for the iso maps
            maps = []
            for vperm, slot_map in graph_automorphisms(graph):
                mp = FreeModularBuilder._iso_chain_map(
                    _BuilderShim(module), graph, td, vperm, slot_map)
                maps.append(mp)
            coin = coinvariants(td.complex, maps)
            for d, v in coin.complex.dims.items():
                out[d] = out.get(d, 0) + v
        return {d: v for d, v in out.items() if v}

    class _BuilderShim:
        def __init__(self, module):
            self.module = module

        def _gen_action(self, key):
            return self.module.components[key]

    c = ChainComplex({0: 1, 1: 1})
    act = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                          1: Matrix.from_rows([[-1]])})
    modular_fixtures = [
        ModularSigmaModule({(0, 3): GroupAction.trivial(
            3, ChainComplex({0: 1}))}),
        ModularSigmaModule({(0, 3): GroupAction(3, c, [act, act])}),
    ]
    for module in modular_fixtures:
        op = free_modular_operad(module, 2)
        for key in [(0, 3), (0, 4), (1, 1), (0, 5), (1, 2)]:
            assert op.component(key).dims == oracle_dims(module, key), key
    report(2, True, "free operad via tree sums (3 fixtures, n<=5); "
                    "free modular operad via graph coinvariant sums (d<=2)")


def test_criterion_3_truncation_adjunctions():
    """Triangle identities for t_* and t_! and Hom-set dimensions on
    three fixtures.  Exact."""
    fixtures = [
        commutative_style_operad(4),
        free_operad(trivial_binary(), 4),
        free_operad(mixed_binary(), 4),
    ]
    for op in fixtures:
        for n in (2, 3):
            tn = truncate(op, n)
            # t_n o t_* = Id
            back = truncate(extend_by_zero(tn, window=4), n)
            assert back.total_dims() == tn.total_dims()
            # t_n o t_! = Id (extend_freely asserts it; double-check)
            ext = extend_freely(tn, 4)
            assert truncate(ext, n).total_dims() == tn.total_dims()
    # Hom-set bijections through the adjunction: morphisms from a free
    # operad into t_* images are determined by equivariant chain maps on
    # the generators, counted on both sides
    module = trivial_binary()
    fr = free_operad(module, 3)
    com = commutative_style_operad(3)
    tstar = extend_by_zero(truncate(com, 2), window=3)
    for scale in (0, 1, Fraction(1, 2)):
        img = ChainMap(module.component(2), tstar.component(2),
                       {0: Matrix.from_rows([[scale]])})
        mor = morphism_from_generators(fr, tstar, {2: img})
        assert mor.validate() == []
    assert truncate(fr, 2).component(2).dims \
        == truncate(com, 2).component(2).dims
    report(3, True, "t_n t_* = Id and t_n t_! = Id on 3 fixtures; "
                    "Hom-set dimensions agree")


def test_criterion_4_filtration_laws():
    """Composites land strictly above each factor's level; contractions
    raise modular dimension by one.  All basis instances, exact."""
    instances = 0
    fixtures = [free_operad(trivial_binary(), 5),
                free_operad(mixed_binary(), 4),
                commutative_style_operad(4)]
    for op in fixtures:
        for (l, i, m) in op.comp:
            assert l + m - 1 >= max(l, m) + 1
            instances += 1
    E = endomorphism_modular_operad(ChainComplex({0: 2}),
                                    Matrix.from_rows([[0, 1], [1, 0]]), 2)
    M = free_modular_operad(ModularSigmaModule(
        {(0, 3): GroupAction.trivial(3, ChainComplex({0: 1}))}), 2)
    for op in (E, M):
        for (key1, i, key2), table in op.comp.items():
            tkey = op.comp_target(key1, i, key2)
            assert modular_dimension(*tkey) >= max(
                modular_dimension(*key1), modular_dimension(*key2)) + 1
            assert not table.is_zero()
            instances += 1
        for (key, i, j), table in op.contr.items():
            tkey = (key[0] + 1, key[1] - 2)
            assert modular_dimension(*tkey) \
                == modular_dimension(*key) + 1
            instances += 1
    assert instances > 50
    report(4, True, f"filtration laws on {instances} structure maps "
                    "(operadic and modular)")


def test_criterion_5_minimal_model_contract():
    """For four fixtures: the model passes is_minimal, rho is a weak
    equivalence in every window component, and two seeds produce
    isomorphic models.  Runtime target: under 5 minutes total."""
    start = time.monotonic()
    fixtures = [
        ("minimal", free_operad(trivial_binary(), 4), 4),
        ("acyclic", acyclic_operad(), 2),
        ("truncated-commutative", commutative_style_operad(4), 4),
        ("modular-endomorphism",
         endomorphism_modular_operad(ChainComplex({0: 1}),
                                     Matrix.from_rows([[1]]), 2), 2),
    ]
    for name, op, window in fixtures:
        mm_a = minimal_model(op, window, seed=0)
        flag, witness_level = is_minimal(mm_a.operad)
        assert flag, (name, witness_level)
        ok, table = weak_equivalence_test(mm_a.morphism)
        assert ok, (name, table)
        mm_b = minimal_model(op, window, seed=23)
        iso = iso_between_minimal(mm_a, mm_b)
        assert iso.is_iso(), name
        assert iso.validate() == [], name
    elapsed = time.monotonic() - start
    report(5, elapsed < 300,
           f"4 fixtures: is_minimal, rho weak equivalence, seeds 0/23 "
           f"isomorphic ({elapsed:.1f}s < 300s)")


def test_criterion_6_weight_formality_pipeline():
    """On every fixture carrying a grading automorphism: purity holds,
    the weight-truncation arrows are weak equivalences, the witness
    zigzag passes, and formality_check with alpha = 2 reproduces the
    witness through the minimal model.  Exact certification."""
    w = WeightFunction(Fraction(2))
    fixtures = [
        ("commutative", commutative_style_operad(3), 3),
        ("free-mixed", free_operad(mixed_binary(), 3), 3),
        ("modular-endomorphism",
         endomorphism_modular_operad(ChainComplex({0: 1}),
                                     Matrix.from_rows([[1]]), 1), 1),
    ]
    for name, op, window in fixtures:
        phi = operad_grading_automorphism(op, 2)
        purity_check(op, phi, w)
        keys = op.indices if hasattr(op, "indices") else op.arities
        for key in keys:
            comp = op.component(key)
            if comp.is_zero():
                continue
            res = t_functor(comp, phi.block(key), w)
            from operad_forge.chain import is_weak_equivalence
            assert is_weak_equivalence(res.inclusion), (name, key)
            assert homology_dims(res.projection.dst) == homology_dims(comp)
        witness = formality_witness_from_pure(op, phi, w)
        assert witness.verify(), name
        full = formality_check(op, up_to=window, alpha=2)
        assert full is not None and full.verify(), name
        labels = [label for label, _ in full.arrows]
        assert labels == ["model", "inclusion", "projection"], name
    report(6, True, "purity, weight truncation, witness zigzags and "
                    "formality_check(alpha=2) on 3 fixtures")


def test_criterion_7_homological_kernel():
    """Cayley-Hamilton (dim <= 6), cone-of-identity acyclicity, Kunneth
    dimensions (total dim <= 12), homotopy_solve round trips.  Exact."""
    rng = random.Random(2024)
    for dim in range(1, 7):
        m = Matrix(dim, dim, [[Fraction(rng.randint(-3, 3))
                               for _ in range(dim)] for _ in range(dim)])
        assert poly_eval_matrix(char_poly(m), m).is_zero()
    for seed in range(5):
        c = random_complex(random.Random(seed), degree_span=(0, 3))
        cone, _, _ = mapping_cone(ChainMap.identity(c))
        assert homology_dims(cone) == {}
    for seed in range(5):
        r = random.Random(100 + seed)
        x = random_complex(r, degree_span=(0, 2))
        y = random_complex(r, degree_span=(0, 2))
        assert x.total_dim + y.total_dim <= 24
        hx, hy = homology_dims(x), homology_dims(y)
        expected = {}
        for i, a in hx.items():
            for j, b in hy.items():
                expected[i + j] = expected.get(i + j, 0) + a * b
        expected = {k: v for k, v in expected.items() if v}
        assert homology_dims(tensor(x, y)) == expected
    for seed in range(6):
        r = random.Random(200 + seed)
        src = random_complex(r)
        f = random_chain_map(r, src, src)
        g = ChainMap.zero_map(src, src)
        h = homotopy_solve(f, g)
        assert h is not None
        assert check_homotopy(f, g, h)
    report(7, True, "Cayley-Hamilton to dim 6, acyclic cones, Kunneth "
                    "dims, homotopy round trips")


def test_criterion_8_determinism_and_round_trip(tmp_path):
    """Byte-identical outputs for a fixed seed; parse o serialize is the
    identity on every "operad-forge/2" golden fixture, and on every
    "operad-forge/1" golden when written by the reference writer."""
    import glob
    import os
    from operad_forge import document as doc
    from operad_forge.cli import main
    from helpers import writing_v1
    fixtures_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    files = sorted(glob.glob(os.path.join(fixtures_dir, "*.json")))
    v2_files = sorted(glob.glob(os.path.join(fixtures_dir, "v2", "*.json")))
    assert files and len(v2_files) == len(files)
    for path, writer in [(p, writing_v1) for p in files] + [
            (p, contextlib.nullcontext) for p in v2_files]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        obj, meta = doc.from_document(doc.loads(text))
        with writer():
            again = doc.dumps(doc.to_document(
                obj, name=meta.get("name", ""), seed=meta.get("seed", 0)))
        assert again == text, path
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    fixture = os.path.join(fixtures_dir, "commutative_window3.json")
    for out in (out1, out2):
        assert main(["minimal-model", fixture, "--max", "3",
                     "--seed", "17", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    wit1 = tmp_path / "w1.json"
    wit2 = tmp_path / "w2.json"
    for out in (wit1, wit2):
        assert main(["check-formality", fixture, "--alpha", "2",
                     "--max", "3", "--seed", "3", "--out", str(out)]) == 0
    assert wit1.read_bytes() == wit2.read_bytes()
    report(8, True, f"{len(files) + len(v2_files)} golden fixtures "
                    "round-trip byte-identically; CLI outputs byte-"
                    "identical per seed")
