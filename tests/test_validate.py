"""The axiom checker and the ideal checks, each shown to reject what
breaks one axiom, and the leg relabel against the relabels it replaced."""

import hashlib
import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from operad_forge.chain import ChainComplex, ChainMap
from operad_forge.free import (
    endomorphism_modular_operad,
    free_modular_operad,
    free_operad,
)
from operad_forge.operad import (
    CompTable,
    comp_relabel,
    ideal_closure,
    validate,
    validate_ideal,
)
from operad_forge.qlinalg import Matrix, Subspace
from operad_forge.sigma import (
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
)

from fixtures_ops import hypercommutative_presentation
from helpers import (
    modular_first_relabel,
    modular_second_relabel,
    operadic_block_perm,
    table_cells,
    to_dense,
    to_sparse,
)


def _cone():
    """Q in degree 1 sent onto Q in degree 0."""
    return ChainComplex({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})


def _swap_action():
    c = ChainComplex({0: 2})
    swap = ChainMap(c, c, {0: Matrix.from_rows([[0, 1], [1, 0]])})
    return GroupAction(2, c, [swap])


def _standard_rep_03():
    """The standard 2-dimensional representation of Sigma_3 at (0, 3)."""
    c = ChainComplex({0: 2})
    s1 = ChainMap(c, c, {0: Matrix.from_rows([[-1, 1], [0, 1]])})
    s2 = ChainMap(c, c, {0: Matrix.from_rows([[1, 0], [1, -1]])})
    return ModularSigmaModule({(0, 3): GroupAction(3, c, [s1, s2])})


_BUILDERS = {
    "free-binary": lambda: free_operad(SigmaModule({
        2: GroupAction.trivial(2, ChainComplex({0: 1}))}), 4),
    "free-cone": lambda: free_operad(SigmaModule({
        2: GroupAction.trivial(2, _cone())}), 3),
    "free-swap": lambda: free_operad(SigmaModule({2: _swap_action()}), 3),
    "free-modular": lambda: free_modular_operad(ModularSigmaModule({
        (0, 3): GroupAction.trivial(3, ChainComplex({0: 1}))}), 1),
    "free-modular-cone": lambda: free_modular_operad(ModularSigmaModule({
        (0, 3): GroupAction.trivial(3, _cone())}), 1),
    "free-modular-standard": lambda: free_modular_operad(
        _standard_rep_03(), 2),
    "end-q": lambda: endomorphism_modular_operad(
        ChainComplex({0: 1}), Matrix.from_rows([[1]]), 2),
    "end-q-window3": lambda: endomorphism_modular_operad(
        ChainComplex({0: 1}), Matrix.from_rows([[1]]), 3),
    "end-q2": lambda: endomorphism_modular_operad(
        ChainComplex({0: 2}), Matrix.from_rows([[0, 1], [1, 0]]), 1),
}


@lru_cache(maxsize=None)
def _operad(name):
    return _BUILDERS[name]()


def _tampered(op, kind, trip, entry):
    """op with 1 added to one entry of a structure map: (d1, k1, d2, k2,
    row) of the composition ``trip``, or (d, k, row) of the contraction."""
    table = CompTable()
    if kind == "comp":
        old = op.comp_table(*trip)
        comp, contr = {**op.comp, trip: table}, dict(op.contr)
    else:
        old = op.contr_table(*trip)
        comp, contr = dict(op.comp), {**op.contr, trip: table}
    for args in table_cells(old):
        table.add(*args)
    table.add(*entry, Fraction(1))
    return op.remake(op.module.components, comp, contr, op.window, op.cut)


class TestEachAxiomRejects:
    """One tampered operad per axiom and kind; the report names the axiom."""

    @pytest.mark.parametrize("name,kind,trip,entry,phrase", [
        ("free-cone", "comp", (2, 1, 2), (0, 0, 0, 0, 1),
         "is not a chain map"),
        ("free-binary", "comp", (2, 1, 2), (0, 0, 0, 0, 1),
         "equivariance (first factor"),
        ("free-binary", "comp", (2, 1, 3), (0, 0, 0, 0, 0),
         "equivariance (second factor"),
        ("free-binary", "comp", (2, 2, 2), (0, 0, 0, 0, 0),
         "nested associativity"),
        ("free-binary", "comp", (3, 1, 2), (0, 0, 0, 0, 0),
         "disjoint associativity"),
        ("free-modular-cone", "comp", ((0, 3), 1, (0, 3)), (0, 0, 0, 0, 0),
         "is not a chain map"),
        ("free-modular-cone", "contr", ((0, 3), 1, 2), (0, 0, 0),
         "is not a chain map"),
        ("end-q2", "comp", ((0, 3), 1, (0, 3)), (0, 0, 0, 0, 0),
         "equivariance (first factor"),
        ("end-q2", "comp", ((0, 3), 3, (0, 3)), (0, 0, 0, 0, 1),
         "equivariance (second factor"),
        ("end-q", "comp", ((0, 3), 1, (0, 4)), (0, 0, 0, 0, 0),
         "nested associativity"),
        ("end-q", "comp", ((0, 4), 3, (0, 3)), (0, 0, 0, 0, 0),
         "disjoint associativity"),
        ("end-q2", "contr", ((0, 3), 1, 2), (0, 0, 0),
         "contraction equivariance"),
        ("end-q-window3", "contr", ((0, 4), 1, 2), (0, 0, 0),
         "double contractions"),
        ("end-q", "comp", ((1, 1), 1, (0, 3)), (0, 0, 0, 0, 0),
         "commutation"),
        ("end-q", "contr", ((0, 3), 1, 2), (0, 0, 0),
         "compatibility (xi on first factor"),
        ("end-q", "contr", ((0, 4), 1, 2), (0, 0, 0),
         "compatibility (xi on second factor"),
    ], ids=["operad-chain-map", "operad-first-factor",
            "operad-second-factor", "operad-nested", "operad-disjoint",
            "modular-chain-map", "modular-contraction-chain-map",
            "modular-first-factor", "modular-second-factor",
            "modular-nested", "modular-disjoint",
            "modular-contraction-equivariance", "modular-double-contraction",
            "modular-commutation", "modular-compatibility-first",
            "modular-compatibility-second"])
    def test_tampered_operad_rejected(self, name, kind, trip, entry, phrase):
        op = _operad(name)
        assert validate(op) == []
        report = validate(_tampered(op, kind, trip, entry), max_report=10 ** 6)
        assert any(phrase in line for line in report), report

    def test_two_edge_axiom(self):
        # xi on one leg of each factor of a o_i b: Getzler-Kapranov's
        # fourth o/xi axiom, which the other checks do not imply.  Each
        # xi on (0, 4) gets two extra entries in row 2 of degree 0; the
        # tampered operad breaks only this axiom.
        op = _operad("free-modular-standard")
        assert validate(op) == []
        columns = {(1, 2): (7, 11), (1, 3): (3, 11), (1, 4): (3, 7),
                   (2, 3): (3, 7), (2, 4): (3, 11), (3, 4): (7, 11)}
        for (i, j), cols in columns.items():
            for col in cols:
                op = _tampered(op, "contr", ((0, 4), i, j), (0, col, 2))
        report = validate(op, max_report=10 ** 6)
        assert report
        assert all("two-edge" in line for line in report), report


class TestTamperedActionRejected:
    """One wrong entry in one action generator of a built free operad is
    reported as an equivariance failure: each image of a batch is paired
    with the instance it belongs to."""

    @pytest.mark.parametrize("name,key,j,entry", [
        ("free-binary", 3, 1, (0, 0, 0)),
        ("free-swap", 3, 2, (0, 5, 7)),
        ("free-modular-standard", (0, 4), 3, (0, 11, 0)),
        ("free-modular-cone", (0, 4), 2, (1, 0, 5)),
    ], ids=["operad", "operad-swap", "modular", "modular-degree-1"])
    def test_reported_as_equivariance(self, name, key, j, entry):
        op = _operad(name)
        assert validate(op) == []
        ga = op.group_action(key)
        d, row, col = entry
        grid = [list(r) for r in ga.generators[j - 1].block(d).data]
        grid[row][col] += 1
        gens = list(ga.generators)
        gens[j - 1] = ChainMap(ga.complex, ga.complex, {
            **gens[j - 1].blocks, d: Matrix.from_rows(grid)}, check=False)
        actions = {**op.module.components,
                   key: GroupAction(ga.n, ga.complex, gens, check=False)}
        bad = op.remake(actions, op.comp, op.contr, op.window, op.cut)
        report = validate(bad, max_report=10 ** 6)
        assert any(line.startswith("equivariance") for line in report), report


def _permutations(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class TestCompRelabel:
    def test_matches_the_relabels_it_replaced(self):
        checked = 0
        for l, m in itertools.product(range(1, 5), repeat=2):
            for sigma, i in itertools.product(_permutations(l),
                                              range(1, l + 1)):
                for tau in _permutations(m):
                    assert comp_relabel(sigma, i, tau, 0) \
                        == operadic_block_perm(sigma, i, tau)
                    checked += 1
                assert comp_relabel(sigma, i, Permutation.identity(m), 1) \
                    == modular_first_relabel(sigma, i, m)
                checked += 1
            for i, tau in itertools.product(range(1, l + 1),
                                            _permutations(m)):
                if tau(1) == 1:
                    assert comp_relabel(Permutation.identity(l), i, tau, 1) \
                        == modular_second_relabel(i, l, tau)
                    checked += 1
        assert checked > 4000


def _span(n, vectors):
    return Subspace.from_spanning(n, [to_sparse(v) for v in vectors])


def _products(op, x, side):
    """The Sigma_3-stable span in arity 3 of x o_i e (side 0) or e o_i x
    (side 1) over every arity-2 basis vector e and slot i."""
    units = [((k, Fraction(1)),) for k in range(2)]
    out = []
    for i, e, sigma in itertools.product((1, 2), units, _permutations(3)):
        a, b = (to_sparse(x), e) if side == 0 else (e, to_sparse(x))
        out.append(to_dense(op.action(3, sigma).block(0).apply(
            op.compose(2, i, 2, 0, a, 0, b)), op.component(3).dim(0)))
    return out


class TestIdealRejects:
    """A closed ideal with part of one span removed, so that one kind of
    image leaves it; the report names that kind and no other."""

    @staticmethod
    def _cut(name, seeds, key, degree, keep):
        op = _operad(name)
        ideal = ideal_closure(op, {
            k: {d: [to_sparse(v) for v in vecs] for d, vecs in per.items()}
            for k, per in seeds.items()})
        assert validate_ideal(ideal) == []
        if keep is None:
            del ideal.spans[key][degree]
        else:
            ideal.spans[key][degree] = keep(op)
        return ideal

    @pytest.mark.parametrize("name,seeds,key,degree,keep,phrase", [
        ("free-cone", {2: {1: [(1,)]}}, 2, 0, None, "closed under d"),
        ("free-swap", {2: {0: [(1, 0)]}}, 2, 0,
         lambda op: _span(2, [(1, 0)]), "action-stable"),
        # keep only the products with the ideal's vector as second factor
        ("free-swap", {2: {0: [(1, -1)]}}, 3, 0,
         lambda op: _span(12, _products(op, (1, -1), 1)), "closed under o_i"),
        # keep only the products with it as first factor
        ("free-swap", {2: {0: [(1, -1)]}}, 3, 0,
         lambda op: _span(12, _products(op, (1, -1), 0)), "closed under o_i"),
        ("free-modular", {(0, 4): {0: [(1, 0, 0)]}}, (0, 4), 0,
         lambda op: _span(3, [(1, 0, 0)]), "action-stable"),
        ("free-modular", {(0, 3): {0: [(1,)]}}, (0, 4), 0, None,
         "closed under o_i"),
        ("free-modular", {(0, 3): {0: [(1,)]}}, (1, 1), 0, None,
         "xi-stable"),
    ], ids=["d", "action", "composition-first-factor",
            "composition-second-factor", "modular-action",
            "modular-composition", "contraction"])
    def test_report_names_the_image(self, name, seeds, key, degree, keep,
                                    phrase):
        report = validate_ideal(self._cut(name, seeds, key, degree, keep))
        assert report
        assert all(phrase in line for line in report), report

    def test_closure_spans_pinned(self):
        # sha256 of the spans as computed before the closure and the
        # membership check shared one list of images
        free, seeds = hypercommutative_presentation(5)
        ideal = ideal_closure(free, seeds)
        text = repr(sorted(
            (key, degree, [tuple(map(str, to_dense(col, sub.ambient_dim)))
                           for col in sub.basis.columns()])
            for key, per in ideal.spans.items()
            for degree, sub in per.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "f44fe84fc87232050176bf3959958e39b4fc8d84455a79c50fe84c6e7d493077"
