"""The design guards of tests/guards.py: the tree passes them all, the
checker imports nothing from operad_forge, and one break of each guard,
made in a copy of the tree, fails that guard and no other."""

import pathlib
import shutil
import subprocess
import sys

import pytest

import guards

ROOT = pathlib.Path(__file__).resolve().parent.parent

# guard -> (file of src/operad_forge, text replaced once or None to append
# a line, the replacement or the line): a forbidden line, a count pushed
# out of bounds, or a required call dropped
BREAKS = {
    "One matrix and vector representation":
        ("chain.py", None, "_dense = [F0] * 3"),
    "No characteristic polynomial on a success path":
        ("chain.py", None, "_poly = char_poly(m)"),
    "One axiom checker":
        ("operad.py", None, "_modular = isinstance(op, ModularOperad)"),
    "One structure table": ("operad.py", None, "_table = ContrTable()"),
    "Spans from one elimination": ("qlinalg.py", None, "_rows.insert(0, ())"),
    "Plain classes": ("sigma.py", None, "from dataclasses import dataclass"),
    "One value-class implementation":
        ("sigma.py", '        _setfield(self, "images", images)\n',
         '        _setfield(self, "images", images)\n\n'
         '    def __hash__(self):\n        return hash(self.images)\n'),
    "Attachments in summand coordinates":
        ("minimal.py", None, "_at = layout.offset(summand)"),
    "One summand record": ("minimal.py", None, "_layout = op.free.layouts"),
    "One tower record": ("minimal.py", None, "_gens = op.tower.gens"),
    "One evaluation route":
        ("free.py", "    def evaluation(self, dst, images, key):",
         "    def evaluation(self, dst, images, key, select=None):"),
    "One layout of matrix unknowns": ("chain.py", None, "_x = unflatten(s)"),
    "One free builder per model":
        ("minimal.py", None, "_builder = free_builder(p)"),
    "Rearrangements matched once":
        ("free.py", "= self._match(key, rearranged())", "= None"),
    "One factor reorder":
        ("trees.py", None, "_sign = koszul_reorder_sign(p)"),
    "One graph substitution":
        ("trees.py", "    return expand_vertex(outer, 0, c)\n",
         "    return outer\n"),
    "One tree match": ("free.py", None, "_tree = PlanarNode(())"),
    "Group averages along adjacent generators":
        ("sigma.py", None, "_t = transposition(n, 0, 1)"),
    "One homology classifier": ("chain.py", None, "_z = record.cycles"),
    "Homology from kernels": ("chain.py", None, "_b = image(m)"),
    "One homology per complex": ("weight.py", None, "_h = homology(c)"),
    "Alternation by shuffles":
        ("cubical.py", None, "from .sigma import all_permutations"),
    "Cubical chains on integer numerators":
        ("cubical.py", None, "_den = lcm(*(x.denominator for x in xs))"),
    "One matrix writer": ("document.py", None, '_row = ["0"] * n'),
    "One document writer":
        ("document.py", None, "from json.encoder import encode_basestring"),
    "One solve route":
        ("qlinalg.py", "_accumulate((), ((a.numerator,",
         "_sum((), ((a.numerator,"),
    "One kernel route":
        ("qlinalg.py",
         "return Subspace._trusted(n, entries, tuple(v[0][0] for v in "
         "entries))",
         "return _span(n, Matrix._trusted(len(entries), n, entries))"),
    "Columns worked out once":
        ("free.py", None, "_cols = m.transpose().sparse"),
    "Stable graphs canonicalised by refinement":
        ("trees.py", None,
         "_perms = itertools.permutations(range(self.n_vertices))"),
    "Every src/ definition has a caller":
        ("cubical.py", None, "def _orphan():\n    pass"),
}


def test_tree_passes_without_the_package():
    code = ("import runpy, sys\n"
            "found = runpy.run_path(sys.argv[1])['main']()\n"
            "sys.exit(found or any(m.split('.')[0] == 'operad_forge'\n"
            "                      for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code,
                          str(ROOT / "tests" / "guards.py")],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "")


def test_every_guard_has_one_break():
    assert list(BREAKS) == [guard.name for guard in guards.GUARDS]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of the files the guards read: src/, bench/ and demos/."""
    root = tmp_path_factory.mktemp("tree")
    for top in ("src", "bench", "demos"):
        shutil.copytree(ROOT / top, root / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert guards.failures(root) == []
    return root


@pytest.mark.parametrize("name", list(BREAKS))
def test_break_fails_exactly_its_guard(tree, name):
    file, old, new = BREAKS[name]
    path = tree / guards.PKG / file
    text = path.read_text()
    if old is None:
        broken = text + new + "\n"
    else:
        assert text.count(old) == 1
        broken = text.replace(old, new)
    path.write_text(broken)
    try:
        found = guards.failures(tree)
    finally:
        path.write_text(text)
    assert {guard for guard, _, _ in found} == {name}
    assert all(hits for _, hits, _ in found)
