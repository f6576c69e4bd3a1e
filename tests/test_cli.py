import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def python_env(**env):
    """The environment of a fresh interpreter that imports the package
    from this checkout's src/, with env added."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*args, **env):
    """Run a fresh interpreter that imports the package from this
    checkout's src/; extra keyword arguments go to its environment."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=python_env(**env))


def run_cli(*args, **env):
    return run_python("-m", "operad_forge.cli", *args, **env)


# the CLI with the document writer rendering "operad-forge/1" through the
# reference writer of tests/helpers.py (its folder is the first argument)
V1_CLI = """import sys
sys.path.insert(0, sys.argv.pop(1))
from helpers import writing_v1
from operad_forge.cli import main
with writing_v1():
    code = main(sys.argv[1:])
sys.exit(code)
"""


def run_cli_v1(*args, **env):
    return run_python("-c", V1_CLI, os.path.dirname(__file__), *args, **env)


class TestValidate:
    def test_golden_fixture_ok(self, capsys):
        assert main(["validate", fx("commutative_window3.json")]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_modular_fixture_ok(self):
        assert main(["validate", fx("endomorphism_dim1.json")]) == 0

    def test_sigma_module_ok(self):
        assert main(["validate", fx("binary_generator.json")]) == 0

    def test_tampered_fixture_fails(self, tmp_path, capsys):
        with open(fx("commutative_window3.json")) as fh:
            payload = json.load(fh)
        entry = payload["compositions"][0]
        first_block = next(iter(entry["blocks"].values()))
        first_cell = next(iter(first_block.values()))
        first_cell[0][1] = "-1"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert main(["validate", str(bad)]) == 1

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_wrong_schema_exit_2(self, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"format": "nope"}))
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["validate", "no_such_file.json"]) == 2


def _set(path, value):
    """Mutation of a generator document: set the entry at path to value."""
    def mutate(payload):
        node = payload
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
    return mutate


BIN, MOD = "binary_generator.json", "modular_generator_03.json"
FREE3 = "free_binary_window3.json"
# the folder of the "operad-forge/2" twins of the goldens
V2 = "v2/"
# a component with no action generators, valid at any arity 1 or below
BARE = {"action": [], "dims": {"0": 1}}
# the sign representation of Sigma_2 in degree 0
SIGN = {"action": [{"0": [["-1"]]}], "dims": {"0": 1}}


@pytest.mark.parametrize("name,mutate", [
    (BIN, _set(("components", "2", "action"), None)),
    (BIN, _set(("components",), [])),
    (BIN, _set(("metadata",), None)),
    (BIN, _set(("components", "2", "dims", "0"), 1.5)),
    (BIN, _set(("metadata", "seed"), "7")),
    # these exited 1 (the module was built outside the document checks)
    (MOD, _set(("components", "0,1"), BARE)),
    # these were accepted
    (BIN, _set(("components", "-3"), BARE)),
    # these were read as arity-indexed whatever their indexing said
    (BIN, _set(("indexing",), "bogus")),
    (BIN, _set(("indexing",), 7)),
    (BIN, _set(("indexing",), None)),
    # a kind that does not fit the indexing
    (BIN, _set(("kind",), "modular")),
    (MOD, _set(("kind",), "operad")),
    # another spelling of a key the document has: it replaced that
    # component, degree or generator block
    (BIN, _set(("components", "+2"), SIGN)),
    (BIN, _set(("components", " 2"), SIGN)),
    (BIN, _set(("components", "02"), SIGN)),
    (BIN, _set(("components", "\u0662"), SIGN)),
    (BIN, _set(("components", "2", "dims"), {"0": 1, "-0": 1})),
    (BIN, _set(("components", "2", "action"), [{"+0": [["-1"]]}])),
    (MOD, _set(("components", "0, 3"), BARE)),
    (MOD, _set(("components", "0,+3"), BARE)),
    # not a key the writer spells: read as 20
    (BIN, _set(("components", "2_0"), BARE)),
], ids=["null-action", "list-components", "null-metadata", "float-dim",
        "string-seed", "unstable-modular-key", "nonpositive-arity",
        "bogus-indexing", "integer-indexing", "null-indexing",
        "modular-kind-arity-indexing", "operad-kind-modular-indexing",
        "plus-key", "space-key", "leading-zero-key", "arabic-indic-key",
        "minus-zero-degree", "plus-action-degree", "space-modular-key",
        "plus-modular-key", "underscore-key"])
def test_malformed_document_exit_2_without_traceback(name, mutate, tmp_path):
    with open(fx(name)) as fh:
        payload = json.load(fh)
    mutate(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    window = ["--max-arity", "3"] if name == BIN else ["--max-dim", "2"]
    for args in (["validate"], ["homology"], ["free", *window]):
        run = run_cli(args[0], str(bad), *args[1:])
        stderr = run.stderr.decode()
        assert run.returncode == 2, (args, stderr)
        assert "malformed input" in stderr
        assert "Traceback" not in stderr


@pytest.mark.parametrize("payload", [
    b"\xff\xfe{}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "nested-100000-deep"])
def test_malformed_bytes_exit_2_without_traceback(payload, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    for command in ("validate", "homology"):
        run = run_cli(command, str(bad))
        stderr = run.stderr.decode()
        assert run.returncode == 2, (command, stderr)
        assert "malformed input" in stderr
        assert "Traceback" not in stderr


def _truncated(cut):
    """Mutation of an operad document: make it truncated at cut."""
    def mutate(payload):
        payload["kind"] = "truncated"
        payload["truncation_cut"] = cut
    return mutate


COM, ENDO = "commutative_window3.json", "endomorphism_dim1.json"
CELL = ("compositions", 0, "blocks", "0,0", "0,0")


@pytest.mark.parametrize("name,mutate", [
    # these raised a traceback
    (COM, _set(("compositions",), None)),
    (ENDO, _set(("contractions",), None)),
    (COM, _set(("compositions", 0), [[2, 1, 2], {}])),
    (COM, _set(("compositions", 0, "blocks"), [])),
    (COM, _set(("compositions", 0, "blocks", "0,0"), [])),
    (COM, _set(CELL, "0")),
    (ENDO, _set(("contractions", 0, "blocks", "0", "0"), [5])),
    (COM, _set(("compositions", 0, "source", 1), "1")),
    (COM, _set(("compositions", 0, "source", 0), "2")),
    (ENDO, _set(("compositions", 0, "source", 0), ["0", 3])),
    (COM, _set(("window", "max_arity"), "3")),
    (ENDO, _set(("window", "max_dim"), "1")),
    # these ended with a bare "error:" line
    (COM, _set(("compositions", 0, "blocks"), {"0,x": {"0,0": [[0, "1"]]}})),
    (ENDO, _set(("contractions", 0, "blocks"), {"x": {"0": [[0, "1"]]}})),
    (COM, _set(CELL, [["x", "1"]])),
    (COM, _set(CELL, [[0, "1", 5]])),
    (COM, _set(("window", "max_arity"), 2)),
    (ENDO, _set(("window", "max_dim"), 0)),
    # these were accepted
    (COM, _set(CELL, [[-1, "1"]])),
    (COM, _set(CELL, [[0.5, "1"]])),
    (COM, _set(("compositions", 0, "blocks", "0,0"), {"-1,0": [[0, "1"]]})),
    (ENDO, _set(("contractions", 0, "blocks", "0"), {"-1": [[0, "1"]]})),
    (COM, _truncated("3")),
    # the endomorphism section: two tracebacks and a bare "error:" line
    (COM, _set(("endomorphism",), [])),
    (COM, _set(("endomorphism",), {"2": []})),
    (COM, _set(("endomorphism",), {"2": {"x": [["1"]]}})),
    # a component's degree keys: a bare "error:" line
    (COM, _set(("components", "2", "differential"), {"x": []})),
    (COM, _set(("components", "2", "action"), [{"x": [["1"]]}])),
    # a kind its indexing does not match: read as arity-indexed
    (COM, _set(("kind",), "modular")),
    # another spelling of a key: it replaced the component, block, cell
    # or endomorphism block of that key; "+2" was read with the sign
    # action, and validate exited 1
    (COM, _set(("components", "+2"), SIGN)),
    (COM, _set(("compositions", 0, "blocks"), {"0, 0": {"0,0": [[0, "1"]]}})),
    (COM, _set(("compositions", 0, "blocks", "0,0"), {"0,+0": [[0, "1"]]})),
    (ENDO, _set(("contractions", 0, "blocks"), {"00": {"0": [[0, "1"]]}})),
    (ENDO, _set(("contractions", 0, "blocks", "0"), {"+0": [[0, "1"]]})),
    (COM, _set(("endomorphism",), {"+2": {"0": [["1"]]}})),
    (COM, _set(("endomorphism",), {"2": {" 0": [["1"]]}})),
    # a non-ASCII digit: read as 3
    (COM, _set(CELL, [[0, "\u0663"]])),
    # table coefficients that are not rationals' texts: a cell is parsed
    # once per read, and one that is not a string is never looked up
    (COM, _set(CELL, [[0, 1]])),
    (COM, _set(CELL, [[0, ["1"]]])),
    (COM, _set(CELL, [[0, "1/0"]])),
], ids=["null-compositions", "null-contractions", "list-entry", "list-blocks",
        "list-block", "string-cell", "non-list-pair", "string-slot",
        "string-source-key", "string-modular-key", "string-max-arity",
        "string-max-dim", "bad-degree-key", "bad-contraction-degree",
        "string-row", "three-element-pair", "window-below-component",
        "modular-window-below-component", "negative-row", "float-row",
        "negative-basis-index", "negative-contraction-index",
        "string-truncation-cut", "list-endomorphism", "list-endomorphism-blocks",
        "bad-endomorphism-degree", "bad-differential-degree",
        "bad-action-degree", "modular-kind-arity-indexing",
        "plus-component-key", "space-block-key", "plus-cell-key",
        "leading-zero-contraction-block", "plus-contraction-cell",
        "plus-endomorphism-key", "space-endomorphism-degree",
        "arabic-indic-rational", "int-coefficient", "list-coefficient",
        "zero-denominator-coefficient"])
def test_malformed_tables_exit_2_without_traceback(name, mutate, tmp_path):
    with open(fx(name)) as fh:
        payload = json.load(fh)
    mutate(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for command in ("validate", "homology"):
        run = run_cli(command, str(bad))
        stderr = run.stderr.decode()
        assert run.returncode == 2, (command, stderr)
        assert "malformed input" in stderr
        assert "Traceback" not in stderr


def _first_cell(entry):
    return next(iter(next(iter(entry["blocks"].values())).values()))


def _source_twice(payload):
    """List the first composition again, its first coefficient negated."""
    again = copy.deepcopy(payload["compositions"][0])
    _first_cell(again)[0][1] = "-1"
    payload["compositions"].append(again)


def _row_twice(payload):
    """List the first row of the first contraction's first cell again."""
    cell = _first_cell(payload["contractions"][0])
    cell.append(list(cell[0]))


@pytest.mark.parametrize("name,mutate", [
    (COM, _source_twice),
    (ENDO, _row_twice),
], ids=["composition-source", "contraction-row"])
def test_structure_map_data_listed_twice_exit_2(name, mutate, tmp_path,
                                                capsys):
    # read silently, the later table would replace the earlier one and
    # the repeated row's coefficients would add up
    with open(fx(name)) as fh:
        payload = json.load(fh)
    mutate(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for command in ("validate", "homology"):
        assert main([command, str(bad)]) == 2, command
        assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["0.0", "", "1/0", "+1", 0],
                         ids=["decimal-zero", "empty", "zero-denominator",
                              "plus-sign", "integer-zero"])
def test_bad_matrix_cell_exit_2_without_traceback(cell, tmp_path):
    with open(fx("binary_generator.json")) as fh:
        payload = json.load(fh)
    payload["components"]["2"]["action"][0]["0"][0][0] = cell
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for command in ("validate", "homology"):
        run = run_cli(command, str(bad))
        stderr = run.stderr.decode()
        assert run.returncode == 2, (command, stderr)
        assert "malformed input" in stderr
        assert "Traceback" not in stderr


# the 3x3 action of s_1 on the arity-3 component of the "operad-forge/2"
# twin of free_binary_window3.json, [[[2, "1"]], [[1, "1"]], [[0, "1"]]]
SPARSE_MATRIX = ("components", "3", "action", 0, "0")


SHAPE, PAIRS = "matrix shape mismatch", "expected [column, coefficient] pairs"
ORDER, ZERO = "out of order or out of range", "zero coefficient"


@pytest.mark.parametrize("rows,phrase", [
    ([[[2, "1"]], [[1, "1"]]], SHAPE),
    ([[[2, "1"]], [[1, "1"]], [[0, "1"]], []], SHAPE),
    ("[]", SHAPE),
    ([[[2, "1"]], "1", [[0, "1"]]], "matrix row 1: expected list"),
    ([[[2, "1"]], {}, [[0, "1"]]], "matrix row 1: expected list"),
    ([[[2, "1"]], [1, "1"], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [[1]], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [[1, "1", 0]], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [["1", "1"]], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [[1.0, "1"]], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [[True, "1"]], [[0, "1"]]], PAIRS),
    ([[[2, "1"]], [[1, 1]], [[0, "1"]]], "bad rational 1"),
    ([[[2, "1"]], [[1, "1"], [1, "1"]], [[0, "1"]]], ORDER),
    ([[[2, "1"]], [[2, "1"], [1, "1"]], [[0, "1"]]], ORDER),
    ([[[2, "1"]], [[-1, "1"]], [[0, "1"]]], ORDER),
    ([[[3, "1"]], [[1, "1"]], [[0, "1"]]], ORDER),
    ([[[2, "1"]], [[1, "1"], [2, "0"]], [[0, "1"]]], ZERO),
    ([[[2, "1"]], [[1, "1"], [2, "-0"]], [[0, "1"]]], ZERO),
    ([[[2, "1"]], [[1, "1"], [2, "0/5"]], [[0, "1"]]], ZERO),
    ([[[2, "1"]], [[1, "1/0"]], [[0, "1"]]], "bad rational '1/0'"),
], ids=["row-short", "row-over", "string-matrix", "string-row",
        "object-row", "bare-pair", "one-element-pair", "three-element-pair",
        "string-column", "float-column", "bool-column", "int-coefficient",
        "repeated-column", "decreasing-columns", "negative-column",
        "column-past-width", "zero", "minus-zero", "zero-over-five",
        "zero-denominator"])
def test_bad_sparse_matrix_exit_2_without_traceback(rows, phrase, tmp_path):
    # the "operad-forge/2" reader takes one spelling of each matrix: dims
    # rows of [column, coefficient] pairs, columns strictly increasing
    # and in range, coefficients nonzero rationals' texts; each rule
    # names itself, before any check of the action could
    with open(fx(V2 + FREE3)) as fh:
        payload = json.load(fh)
    _set(SPARSE_MATRIX, rows)(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    run = run_cli("validate", str(bad))
    stderr = run.stderr.decode()
    assert run.returncode == 2, stderr
    assert "malformed input" in stderr and phrase in stderr, stderr
    assert "Traceback" not in stderr


# the values a mutation may put in place of an entry of a document
FUZZ_VALUES = (None, -1, "a", [], {}, 1.5, "1/0", True)
GENERATOR_WINDOWS = {BIN: ["--max-arity", "3"], MOD: ["--max-dim", "1"]}


@st.composite
def mutated_documents(draw):
    """(fixture name, golden document with one entry deleted or replaced
    by a value of FUZZ_VALUES), drawn from the "operad-forge/1" goldens
    and their "/2" twins.  The entry is found by descending from the
    top, so top-level fields are drawn as often as deep cells."""
    names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))
    name = draw(st.sampled_from(names + [V2 + n for n in names]))
    with open(fx(name)) as fh:
        payload = json.load(fh)
    node = payload
    while True:
        at = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                  else range(len(node))))
        child = node[at]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.booleans())):
            break
        node = child
    if draw(st.booleans()):
        del node[at]
    else:
        node[at] = draw(st.sampled_from(FUZZ_VALUES))
    return name, payload


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_exit_0_1_or_2(case):
    """Every command that reads a document ends with an exit code on a
    mutated golden document; no exception escapes ``cli.main``."""
    name, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        commands = [["validate"], ["homology"]]
        window = GENERATOR_WINDOWS.get(name.removeprefix(V2))
        if window:
            commands.append(["free", *window,
                             "--out", os.path.join(tmp, "free.json")])
        for command in commands:
            assert main([command[0], path, *command[1:]]) in (0, 1, 2), \
                command


@pytest.mark.parametrize("args", [
    ["alt-check", "--dim", "-1"],
    ["alt-check", "--dim", "0"],
    ["alt-check", "--dim", "2", "--trials", "-3"],
    ["check-formality", fx("commutative_window3.json"), "--alpha", "1/0"],
    ["check-formality", fx("commutative_window3.json"), "--alpha", "two"],
    ["check-formality", fx("commutative_window3.json"), "--alpha", "0"],
    ["check-formality", fx("commutative_window3.json"), "--alpha", "1"],
    ["check-formality", fx("commutative_window3.json"), "--alpha", "-1"],
    ["validate", FIXTURES],
    ["free", fx("binary_generator.json"), "--max-arity", "-3"],
    ["free", fx("modular_generator_03.json"), "--max-dim", "-1"],
    ["minimal-model", fx("commutative_window3.json"), "--max", "-2"],
    ["enumerate", "--trees", "-2"],
    ["enumerate", "--stable-graphs", "-1", "2"],
    ["enumerate", "--stable-graphs", "0", "2"],
    ["enumerate", "--stable-graphs", "1", "0"],
    ["minimal-model", fx("commutative_window3.json"), "--max", "9"],
    ["check-formality", fx("commutative_window3.json"), "--max", "9"],
], ids=["negative-dim", "zero-dim", "negative-trials", "alpha-zero-denominator",
        "alpha-not-rational", "alpha-zero", "alpha-one", "alpha-minus-one",
        "directory", "free-negative-arity",
        "free-negative-dim", "model-negative-window", "negative-trees",
        "negative-genus", "unstable-genus-0", "unstable-genus-1",
        "model-window-past-support", "formality-window-past-support"])
def test_malformed_argument_exit_2_without_traceback(args):
    run = run_cli(*args)
    stderr = run.stderr.decode()
    assert run.returncode == 2, stderr
    assert "Traceback" not in stderr
    assert len(stderr.splitlines()) == 1, stderr
    assert run.stdout == b""


# sha256 of the stdout of `free` on the generator fixtures, as written
# before the writer and the summand and graph lookups were rewritten, and
# of seeded `minimal-model` runs (the only pinned runs of the attachment
# derivation), as written before the two free builders were merged: the
# "operad-forge/1" text, rendered by the reference writer, and the
# "operad-forge/2" text the CLI writes
FREE_DIGESTS = [
    (["free", "binary_generator.json", "--max-arity", "4"],
     "405434c8b02813b2545e2ec97a93b406e22a6a7df57f19ce0ff7d9685754005a",
     "3592826969c71b16de018765d11908104f6e00c497ab922e77a52b21bf0698c8"),
    (["free", "modular_generator_03.json", "--max-dim", "2"],
     "d9a67201747703f6c3ca02c0139a7a02cbc72365b75d8458fa2b50d9d28b2a13",
     "7dddd5e06510137de2d4616138c9484004177ef5087302bb99141b6f0fd2aefd"),
    (["free", "binary_generator.json", "--max-arity", "5"],
     "771a6fc1d54350705aaa0b0aa93834754a46b71a1246fd5820dc9b4f11d8a0a8",
     "ea94680aeb141c6cbc02ac3ac8c8626e82cc6d83b98a9ee18ea55e36b454220c"),
    # 714 341 bytes at "/1": 37 composition and 20 contraction tables,
    # cell indices up to 14, the widest pin on the structure-map table
    # writer
    (["free", "modular_generator_03.json", "--max-dim", "3"],
     "5f3ebf2a646211211cdd032fabb35c0da474f32a6ca08c6b8cba38d0b4916d35",
     "8532c550d23c20419ef80c35403b615e954481d399aca9061ad3ea6f4a63131d"),
    (["minimal-model", "commutative_window3.json", "--max", "3",
      "--seed", "9"],
     "2a575fbb502fdea6dbe20f5f9721f51bdde7e2cbd4a299ec33fa44afac7ef800",
     "655fa561bd4efa3adad8a7d828f9095b2a4ce5b7d51f6a575101b92ffbe39a05"),
    (["minimal-model", "endomorphism_dim1.json", "--seed", "5"],
     "aa7f6189b421d2eaef559bfc05681fbdd13460d6d1459aac906d76882b73d251",
     "2ebfdf7dcf4b2fb76b8d3eaec073cf778767ddbe13fbf30e70e41f8830da279c"),
]


@pytest.mark.parametrize("hash_seed", ["0", "123"])
@pytest.mark.parametrize("args,v1_digest,v2_digest", FREE_DIGESTS,
                         ids=["arity-4", "dim-2", "arity-5", "dim-3",
                              "model-commutative", "model-endomorphism"])
def test_free_output_bytes_unchanged(args, v1_digest, v2_digest, hash_seed):
    for run_with, digest in ((run_cli_v1, v1_digest), (run_cli, v2_digest)):
        run = run_with(args[0], fx(args[1]), *args[2:],
                       PYTHONHASHSEED=hash_seed)
        assert run.returncode == 0, run.stderr
        assert hashlib.sha256(run.stdout).hexdigest() == digest, run_with


class TestHomology:
    def test_cone_of_identity_all_zero(self, capsys):
        assert main(["homology", fx("acyclic_arity2.json")]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("2")]
        assert line == ["2\t-\t0"]

    def test_commutative_table(self, capsys):
        assert main(["homology", fx("commutative_window3.json")]) == 0
        out = capsys.readouterr().out
        assert "2\t0\t1" in out and "3\t0\t1" in out


class TestFree:
    def test_free_operad_from_generators(self, tmp_path, capsys):
        out = tmp_path / "free.json"
        assert main(["free", fx("binary_generator.json"),
                     "--max-arity", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "operad"
        assert payload["components"]["3"]["dims"] == {"0": "3"} \
            or payload["components"]["3"]["dims"] == {"0": 3}

    def test_free_modular_from_generators(self, tmp_path):
        out = tmp_path / "freemod.json"
        assert main(["free", fx("modular_generator_03.json"),
                     "--max-dim", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "modular"
        assert payload["components"]["0,4"]["dims"] == {"0": 3}

    def test_free_requires_matching_flag(self, capsys):
        assert main(["free", fx("binary_generator.json")]) == 1

    def test_failed_build_leaves_no_file(self, tmp_path):
        out = tmp_path / "free.json"
        assert main(["free", fx("binary_generator.json"),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_closed_stdout_pipe_ends_quietly(self):
        """A reader that stops early (as `| head -c 20` does) ends the
        streamed document with exit code 0 and nothing on stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "operad_forge.cli", "free",
             fx("binary_generator.json"), "--max-arity", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
        try:
            assert proc.stdout.read(20) == b'{\n "components": {\n '
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0, err
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

    def test_free_on_operad_document_fails(self):
        assert main(["free", fx("commutative_window3.json"),
                     "--max-arity", "3"]) == 1


class TestMinimalModel:
    def test_model_with_tower(self, tmp_path):
        out = tmp_path / "mm.json"
        assert main(["minimal-model", fx("commutative_window3.json"),
                     "--max", "3", "--seed", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "operad"
        assert "tower" in payload
        levels = {entry["level"]: entry["components"]
                  for entry in payload["tower"]}
        assert levels[2]["2"]["dims"] == {"0": 1}
        assert levels[3]["3"]["dims"] == {"1": 2}

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["minimal-model", fx("commutative_window3.json"),
                         "--max", "3", "--seed", "9", "--out",
                         str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCheckFormality:
    def test_witness_for_formal_fixture(self, tmp_path):
        out = tmp_path / "wit.json"
        assert main(["check-formality", fx("commutative_window3.json"),
                     "--alpha", "2", "--max", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "formality-witness"
        assert [a["label"] for a in payload["arrows"]] \
            == ["model", "inclusion", "projection"]

    def test_modular_witness(self, capsys):
        assert main(["check-formality", fx("endomorphism_dim1.json"),
                     "--alpha", "2", "--max", "1"]) == 0
        out = capsys.readouterr().out
        assert "formality-witness" in out


class TestEnumerate:
    def test_stable_graphs_03(self, capsys):
        assert main(["enumerate", "--stable-graphs", "0", "3"]) == 0
        out = capsys.readouterr().out
        assert "stable graphs of genus 0 with 3 legs: 1" in out

    def test_trees_listing(self, capsys):
        assert main(["enumerate", "--trees", "3"]) == 0
        out = capsys.readouterr().out
        assert "reduced trees with 3 leaves: 4" in out

    def test_json_listing(self, capsys):
        assert main(["enumerate", "--stable-graphs", "1", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert sorted(item["automorphisms"] for item in payload) == [1, 2]


class TestAltCheck:
    def test_pass_report(self, capsys):
        assert main(["alt-check", "--dim", "2", "--trials", "3",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "alt-check passed" in out

    def test_deterministic_output(self, capsys):
        main(["alt-check", "--dim", "2", "--trials", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["alt-check", "--dim", "2", "--trials", "2", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_dim_5_output_bytes(self):
        # the seeded chains draw from the 120 nondegenerate 5-cubes
        run = run_cli("alt-check", "--dim", "5", "--trials", "20")
        assert run.returncode == 0, run.stderr
        assert run.stdout == b"alt-check passed: dim=5 trials=20 seed=0\n"


class TestFixtureDirOverride:
    def test_env_var_resolution(self, monkeypatch, capsys):
        monkeypatch.setenv("OPERAD_FORGE_FIXTURES", FIXTURES)
        assert main(["validate", "commutative_window3.json"]) == 0


class TestColdStart:
    def test_cli_import_loads_no_dataclasses(self):
        """Each CLI call is a fresh process; importing the CLI must not
        load dataclasses or inspect, which only cost start-up time."""
        proc = run_python("-c", "import sys, operad_forge.cli; print(sorted("
                          "m for m in ('dataclasses', 'inspect') "
                          "if m in sys.modules))",
                          PYTHONDONTWRITEBYTECODE="1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"
