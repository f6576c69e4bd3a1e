import copy
import glob
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge import document as doc
from operad_forge.chain import ChainComplex, ChainMap
from operad_forge.cli import main
from operad_forge.document import DocumentError
from operad_forge.free import endomorphism_modular_operad, free_operad
from operad_forge.operad import DGOperad, ModularOperad, truncate, validate
from operad_forge.qlinalg import Matrix
from operad_forge.sigma import GroupAction, ModularSigmaModule, SigmaModule

from fixtures_ops import commutative_style_operad
from helpers import v1_dumps

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# the "operad-forge/2" twin of each "operad-forge/1" golden, by name
V2_FIXTURES = os.path.join(FIXTURES, "v2")


def fixture_files():
    """The "operad-forge/1" goldens."""
    return sorted(glob.glob(os.path.join(FIXTURES, "*.json")))


def v2_fixture_files():
    return sorted(glob.glob(os.path.join(V2_FIXTURES, "*.json")))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _rewritten(text, v1=False):
    """The text of the document read from text, written again: in
    "operad-forge/2", or in "/1" by the reference writer."""
    obj, meta = doc.from_document(doc.loads(text))

    def make():
        return doc.to_document(obj, name=meta.get("name", ""),
                               seed=meta.get("seed", 0))
    return v1_dumps(make) if v1 else doc.dumps(make())


class TestRationals:
    def test_integer_form(self):
        assert doc.rational_to_str(Fraction(5)) == "5"
        assert doc.rational_to_str(Fraction(-2)) == "-2"

    def test_fraction_form(self):
        assert doc.rational_to_str(Fraction(3, 2)) == "3/2"
        assert doc.rational_from_str("3/2") == Fraction(3, 2)
        assert doc.rational_from_str("-7") == Fraction(-7)

    def test_bad_rationals(self):
        with pytest.raises(DocumentError):
            doc.rational_from_str("1.5")
        with pytest.raises(DocumentError):
            doc.rational_from_str("1/0")
        with pytest.raises(DocumentError):
            doc.rational_from_str(3)


BAD_CELLS = ["0.0", "", "1/0", "+1", 0]
BAD_CELL_IDS = ["decimal-zero", "empty", "zero-denominator", "plus-sign",
                "integer-zero"]


class TestMatrixCells:
    """The "operad-forge/1" reader: rows of every cell."""

    @pytest.mark.parametrize("cell", BAD_CELLS, ids=BAD_CELL_IDS)
    def test_bad_cells_raise(self, cell):
        # only the exact string "0" skips the parser
        with pytest.raises(DocumentError):
            doc.matrix_from_dense_lists([["1", cell]], 1, 2)

    def test_other_zero_spellings_store_no_entry(self):
        m = doc.matrix_from_dense_lists(
            [["0", "-0", "0/3", "-3/2"], ["00"] * 4], 2, 4)
        assert m.sparse == (((3, Fraction(-3, 2)),), ())
        assert doc.matrix_to_lists(m) == [[[3, "-3/2"]], []]


class TestSparseRows:
    """The "operad-forge/2" rows of nonzero [column, "p/q"] pairs; the
    rows the reader rejects are the CLI cases of
    ``test_bad_sparse_matrix_exit_2_without_traceback``."""

    def test_round_trip(self):
        m = Matrix.from_rows([[0, Fraction(-3, 2), 0], [0, 0, 0],
                              [5, 0, Fraction(1, 7)]])
        rows = doc.matrix_to_lists(m)
        assert rows == [[[1, "-3/2"]], [], [[0, "5"], [2, "1/7"]]]
        assert doc.matrix_from_lists(rows, 3, 3) == m

    def test_empty_shapes(self):
        assert doc.matrix_to_lists(Matrix.zeros(2, 0)) == [[], []]
        assert doc.matrix_from_lists([[], []], 2, 0) == Matrix.zeros(2, 0)
        assert doc.matrix_from_lists([], 0, 4) == Matrix.zeros(0, 4)


class TestRoundTrip:
    def test_golden_fixtures_byte_identical(self):
        """Each "/2" twin round-trips byte for byte; its "/1" golden reads
        to the same operad and is the reference writer's text of it."""
        names = [os.path.basename(p) for p in fixture_files()]
        assert len(names) == 7, "golden fixtures missing"
        assert [os.path.basename(p) for p in v2_fixture_files()] == names
        for name in names:
            v1 = _read(os.path.join(FIXTURES, name))
            v2 = _read(os.path.join(V2_FIXTURES, name))
            assert '"format": "operad-forge/2"' in v2, name
            assert _rewritten(v2) == v2, name
            assert _rewritten(v1) == v2, name
            assert _rewritten(v2, v1=True) == v1, name

    def test_operad_semantics_survive(self):
        path = os.path.join(FIXTURES, "commutative_window3.json")
        op, meta = doc.load(path)
        assert isinstance(op, DGOperad)
        assert validate(op) == []
        assert op.component(2).dims == {0: 1}
        img = op.comp_table(2, 1, 2).image(0, 0, 0, 0)
        assert img == {0: Fraction(1)}

    def test_modular_semantics_survive(self):
        op, meta = doc.load(os.path.join(FIXTURES, "endomorphism_dim1.json"))
        assert isinstance(op, ModularOperad)
        assert validate(op) == []
        assert op.contr_table((0, 3), 1, 2).image(0, 0) == {0: Fraction(1)}

    def test_truncated_round_trip(self):
        op, meta = doc.load(os.path.join(FIXTURES,
                                         "commutative_truncated2.json"))
        assert op.cut == 2

    def test_mixed_degree_operad_round_trip(self):
        c = ChainComplex({0: 1, 1: 1})
        from operad_forge.chain import ChainMap
        act = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                              1: Matrix.from_rows([[-1]])})
        module = SigmaModule({2: GroupAction(2, c, [act])})
        op = free_operad(module, 3)
        d = doc.to_document(op, name="mixed")
        op2, meta = doc.from_document(d)
        assert op2.total_dims() == op.total_dims()
        for trip, table in op.comp.items():
            assert op2.comp[trip].entries == table.entries
        assert doc.dumps(doc.to_document(op2, name="mixed")) \
            == doc.dumps(d)


class TestMalformed:
    def test_wrong_format_version(self):
        with pytest.raises(DocumentError, match="unsupported format"):
            doc.from_document({"format": "other/9", "kind": "operad"})

    @pytest.mark.parametrize("fmt", [["operad-forge/2"], None, 2],
                             ids=["list", "null", "integer"])
    def test_format_not_a_version_string(self, fmt):
        with pytest.raises(DocumentError, match="unsupported format"):
            doc.from_document({"format": fmt, "kind": "operad"})

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            doc.from_document({"format": doc.FORMAT_VERSION, "kind": "x"})

    def test_missing_dims(self):
        bad = {"format": doc.FORMAT_VERSION, "kind": "sigma-module",
               "indexing": "arity", "components": {"2": {}}}
        with pytest.raises(DocumentError):
            doc.from_document(bad)

    def test_non_chain_differential_rejected(self):
        bad = {"format": doc.FORMAT_VERSION, "kind": "sigma-module",
               "indexing": "arity",
               "components": {"2": {
                   "dims": {"0": 1, "1": 1, "2": 1},
                   "differential": {"1": [[[0, "1"]]], "2": [[[0, "1"]]]},
                   "action": [{}]}}}
        with pytest.raises(DocumentError):
            doc.from_document(bad)

    @staticmethod
    def one_generator(sign):
        """Arity 2, d_1 = 1, s_1 = -1 in degree 1 and sign in degree 0: a
        chain map only for sign -1."""
        return {"format": doc.FORMAT_VERSION, "kind": "sigma-module",
                "indexing": "arity",
                "components": {"2": {
                    "dims": {"0": 1, "1": 1},
                    "differential": {"1": [[[0, "1"]]]},
                    "action": [{"0": [[[0, str(sign)]]],
                                "1": [[[0, "-1"]]]}]}}}

    def test_action_not_a_chain_map_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.one_generator(1)))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed input" in err and "s_1 is not a chain map" in err

    def test_action_checked_once(self, monkeypatch):
        # the reader builds each generator unchecked, and the group
        # action's validate checks it, once
        checked = []
        real = ChainMap.assert_chain

        def counting(self):
            checked.append(self)
            return real(self)

        monkeypatch.setattr(ChainMap, "assert_chain", counting)
        module = doc.from_document(self.one_generator(-1))[0]
        assert checked == list(module.components[2].generators)

    def test_matrix_shape_mismatch(self):
        bad = {"format": doc.FORMAT_VERSION, "kind": "sigma-module",
               "indexing": "arity",
               "components": {"2": {
                   "dims": {"0": 2},
                   "action": [{"0": [[[0, "1"]]]}]}}}
        with pytest.raises(DocumentError, match="shape mismatch"):
            doc.from_document(bad)

    def test_truncated_without_cut(self):
        bad = {"format": doc.FORMAT_VERSION, "kind": "truncated",
               "indexing": "arity", "window": {"max_arity": 2},
               "components": {}}
        with pytest.raises(DocumentError):
            doc.from_document(bad)

    @pytest.mark.parametrize("name,section,phrase", [
        ("commutative_window3.json", "compositions",
         r"composition \(2, 1, 2\) listed twice"),
        ("endomorphism_dim1.json", "contractions",
         r"contraction \(\(0, 3\), 1, 2\) listed twice"),
    ], ids=["composition", "contraction"])
    def test_source_listed_twice(self, name, section, phrase):
        # read silently, the second table would replace the first
        payload = _fixture_payload(name)
        again = copy.deepcopy(payload[section][0])
        next(iter(next(iter(again["blocks"].values())).values()))[0][1] = "-1"
        payload[section].append(again)
        with pytest.raises(DocumentError, match=phrase):
            doc.from_document(payload)

    @pytest.mark.parametrize("name,section,phrase", [
        ("commutative_window3.json", "compositions",
         r"composition \(2, 1, 2\): row 0 listed twice in cell '0,0'"),
        ("endomorphism_dim1.json", "contractions",
         r"contraction \(\(0, 3\), 1, 2\): row 0 listed twice in cell '0'"),
    ], ids=["composition", "contraction"])
    def test_row_listed_twice_in_a_cell(self, name, section, phrase):
        # read silently, the two listings' coefficients would add up
        payload = _fixture_payload(name)
        cell = next(iter(next(iter(
            payload[section][0]["blocks"].values())).values()))
        cell.append(list(cell[0]))
        with pytest.raises(DocumentError, match=phrase):
            doc.from_document(payload)


class TestDeterminism:
    def test_dumps_is_canonical(self):
        com = commutative_style_operad(3)
        a = doc.dumps(doc.to_document(com, name="x", seed=1))
        b = doc.dumps(doc.to_document(com, name="x", seed=1))
        assert a == b


# strings with non-ASCII characters, quotes, backslashes and control
# characters; matrix-like rows of rationals; mixed lists
json_strings = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé€😀ab', max_size=8),
    st.sampled_from(["0", "1", "-1", "3/2", "-7/4"]))
json_scalars = st.one_of(st.none(), st.booleans(),
                         st.integers(-10**20, 10**20), st.floats(),
                         json_strings)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(json_strings, max_size=6),
        st.dictionaries(json_strings, inner, max_size=5)),
    max_leaves=40)


def dumped(value):
    """The text that ``doc.dump`` streams for value."""
    fh = io.StringIO()
    doc.dump(value, fh)
    return fh.getvalue()


class TestWriter:
    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_dumps_is_a_fixed_point(self, value):
        text = doc.dumps(value)
        assert doc.dumps(doc.loads(text)) == text

    def test_edge_values(self):
        class Cell(str):
            pass

        # string rows: dense "/1" rows, and rows whose last cell needs
        # escaping
        rows = [["1", "0"], ["-1/2", "3", " ", "a~{}"], ["0"] * 1000,
                ["0"] * 999 + ["\x7f"], ["0"] * 999 + ["\n"], ["0", "\x1f"],
                ["0", "\u2028"], ["0", '"'], ["0", "\\"], ["0", "é"], ["0", ""],
                [""], ["", ""], ("1", "0"), [Cell("1"), Cell("\t")],
                [Cell("1"), Cell("2")]]
        for value in ({}, [], [[]], {"": {}}, {"a": [], "b": [[], {}]},
                      ["x", 1, None, True, False, ["y"]], [["1", "0"]],
                      {"ä\n\"\\": ["\u2028", "\x00"]}, "", 0, None,
                      (1, ("a",)), {"b": 1, "a": 2, "B": 3, "é": 4},
                      *rows, {"rows": rows}, ["0", 1], [1, "0"]):
            for write in (doc.dumps, dumped):
                text = write(value)
                assert doc.dumps(doc.loads(text)) == text, write

    def test_golden_fixture_bytes(self):
        for path in fixture_files() + v2_fixture_files():
            want = _read(path)
            for write in (doc.dumps, dumped):
                assert write(doc.loads(want)) == want, (path, write)

    def test_dump_streams(self):
        """``dump`` passes the text to the stream in many short pieces,
        never whole."""
        class Recorder:
            def __init__(self):
                self.pieces = []

            def write(self, piece):
                self.pieces.append(piece)

        for path in v2_fixture_files():
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            fh = Recorder()
            doc.dump(payload, fh)
            assert "".join(fh.pieces) == doc.dumps(payload), path
            assert len(fh.pieces) > 1, path
            assert max(map(len, fh.pieces)) <= 64, path


def _fixture_payload(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


class TestIndexRangeValidation:
    def test_out_of_range_composition_rejected(self):
        with open(os.path.join(FIXTURES, "commutative_window3.json")) as fh:
            payload = json.load(fh)
        cells = next(iter(payload["compositions"][0]["blocks"].values()))
        first = next(iter(cells.values()))
        first[0][0] = 7  # target row beyond the 1-dim component
        with pytest.raises(DocumentError):
            doc.from_document(payload)

    def test_out_of_range_slot_rejected(self):
        with open(os.path.join(FIXTURES, "commutative_window3.json")) as fh:
            payload = json.load(fh)
        payload["compositions"][0]["source"][1] = 9
        with pytest.raises(DocumentError):
            doc.from_document(payload)

    def _contraction(self, blocks=None, legs=None):
        """endomorphism_dim1.json (every component one-dimensional in
        degree 0) with the blocks or legs of its first contraction,
        xi_12 on (0,3), replaced."""
        payload = _fixture_payload("endomorphism_dim1.json")
        entry = payload["contractions"][0]
        assert entry["source"] == [[0, 3], 1, 2]
        if blocks is not None:
            entry["blocks"] = blocks
        if legs is not None:
            entry["source"][1:] = legs
        return payload

    @pytest.mark.parametrize("blocks,phrase", [
        ({"0": {"1": [[0, "1"]]}}, "basis index out of range at degrees"),
        ({"1": {"0": [[0, "1"]]}}, "basis index out of range at degrees"),
        ({"0": {"0": [[1, "1"]]}}, "target row out of range at degree 0"),
    ], ids=["basis-index", "empty-degree", "target-row"])
    def test_out_of_range_contraction_rejected(self, blocks, phrase):
        with pytest.raises(DocumentError, match=phrase):
            doc.from_document(self._contraction(blocks=blocks))

    @pytest.mark.parametrize("legs", [[2, 1], [2, 2], [1, 4], [0, 2]],
                             ids=["reversed", "equal", "past-legs", "zero"])
    def test_contraction_legs_rejected(self, legs):
        with pytest.raises(DocumentError,
                           match="keys or legs out of range"):
            doc.from_document(self._contraction(legs=legs))
