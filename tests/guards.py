"""The design guards of ``src/operad_forge`` in one table, and their checker.

A guard has a name, the reason it exists, the message a failure prints
and its rules (``absent``, ``count``, ``calls``, ``overrides`` and
``callers`` below); patterns are Python regular expressions matched line
by line, as ``grep -E`` does.  ``python tests/guards.py`` takes no
options: it prints each failing guard with its ``file:line`` hits and
message and exits 1, or exits 0.  It imports nothing from
``operad_forge``.  A rule is a pair (check, message): check(root) lists
the hits that break it, and message, when not None, replaces its
guard's.
"""

import ast
import pathlib
import re
import sys
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = "src/operad_forge/"
SRC = PKG + "*.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
Guard = namedtuple("Guard", "name reason message rules")


def _lines(root, pattern, files, skip=()):
    """``file:line: text`` of each line of files that matches pattern."""
    return [f"{path.relative_to(root)}:{no}: {text.strip()}"
            for path in sorted(root.glob(files)) if path.name not in skip
            for no, text in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, text)]


def absent(pattern, files=SRC, skip=(), unless=None, message=None):
    """No line of files, less the file names in skip, matches pattern; a
    line that also matches unless does not count."""
    return (lambda root: [hit for hit in _lines(root, pattern, files, skip)
                          if not (unless and re.search(unless, hit))],
            message)


def count(pattern, file, low, high=None):
    """From low to high (None: no bound) lines of file match pattern."""
    def check(root):
        found = _lines(root, pattern, file)
        if low <= len(found) and (high is None or len(found) <= high):
            return []
        return [f"{file}: {len(found)} lines match {pattern!r}, want "
                f"{low}..{'' if high is None else high}"] + found
    return check, None


def calls(file, function, callee, message=None, never=False):
    """The body of function (``name`` or ``Class.name``) in file calls
    callee as written there (``expand_vertex``, ``self._match``); with
    never, it does not."""
    def check(root):
        node = ast.parse((root / file).read_text())
        for name in function.split("."):
            node = next((n for n in getattr(node, "body", ())
                         if isinstance(n, DEFS) and n.name == name), None)
        if node is None:
            return [f"{file}: no definition {function}"]
        if never != any(isinstance(n, ast.Call)
                        and ast.unparse(n.func) == callee
                        for n in ast.walk(node)):
            return []
        verb = "calls" if never else "does not call"
        return [f"{file}:{node.lineno}: {function} {verb} {callee}"]
    return check, message


def overrides(base, names, files=SRC):
    """No class of files with base among its bases defines a method
    named in names."""
    def check(root):
        return [f"{path.relative_to(root)}:{node.lineno}: "
                f"{cls.name}.{node.name}"
                for path in sorted(root.glob(files))
                for cls in ast.walk(ast.parse(path.read_text()))
                if isinstance(cls, ast.ClassDef)
                and base in map(ast.unparse, cls.bases)
                for node in cls.body
                if isinstance(node, DEFS) and node.name in names]
    return check, None


def callers():
    """Each top-level def or class of the package is named, as a whole
    word, in src/, bench/ or demos/ off its line and the ``__init__.py``."""
    def check(root):
        init = root / PKG / "__init__.py"
        where = {}
        for top in ("src", "bench", "demos"):
            for path in set((root / top).rglob("*.py")) - {init}:
                for no, text in enumerate(path.read_text().splitlines(), 1):
                    for word in re.findall(r"\w+", text):
                        where.setdefault(word, set()).add((path, no))
        return [f"{path.relative_to(root)}:{node.lineno}: {node.name}"
                for path in sorted(root.glob(SRC)) if path != init
                for node in ast.parse(path.read_text()).body
                if isinstance(node, DEFS) and not (
                    where.get(node.name, set()) - {(path, node.lineno)})]
    return check, None


GUARDS = [
    Guard("One matrix and vector representation",
          "outside qlinalg, code reads Matrix.sparse rows and passes sparse "
          "vectors; no dense view, dense column, dense row or dense grid",
          "read Matrix.sparse rows and sparse vectors, not Matrix.data, .col( "
          "or .row(; build sparse rows or columns, not a [F0] * grid",
          [absent(r"\.data\b|\.col\(|\.row\(|\[F0\] \*",
                  skip=("qlinalg.py",))]),
    Guard("No characteristic polynomial on a success path",
          "rational_eigen_split takes kernel chains; char_poly is called once "
          "in src/, in weight.purity_check's failure message",
          "split eigenspaces by kernel chains; char_poly only reports a "
          "purity failure",
          [absent("poly_eval"),
           absent(r"char_poly\(", skip=("weight.py",),
                  unless=r"def char_poly\("),
           count(r"char_poly\(", PKG + "weight.py", 1, 1),
           count(r"polynomial {_poly_text\(char_poly\(m\)\)}, not",
                 PKG + "weight.py", 1)]),
    Guard("One axiom checker",
          "operad.py reads kind-specific facts off the operad object (glue, "
          "contr_keys), never by testing its class",
          "read kind facts off the operad (glue, contr_keys), not its class",
          [absent(r"isinstance\(", PKG + "operad.py")]),
    Guard("One structure table",
          "compositions and contractions share one table (operad.CompTable, "
          "one (degree, index) pair per source), and the document, transfer "
          "and morphism code walks both kinds through op.structure_maps",
          "keep every structure map in the one CompTable and walk both kinds "
          "through structure_maps; no contraction-only table or walker",
          [absent("ContrTable|pair_image|basis_image|basis_compose|"
                  "basis_contract|_contr_tables_")]),
    Guard("Spans from one elimination",
          "every Subspace comes out of one elimination; none is grown one "
          "vector at a time",
          "take a span from one rref, not by inserting vectors",
          [absent(r"\.insert\(")]),
    Guard("Plain classes",
          "every value and record class is a plain class with its own "
          "__init__; dataclasses costs each fresh CLI process start-up time",
          "write a plain class with an explicit __init__, not a dataclass",
          [absent("dataclass")]),
    Guard("One value-class implementation",
          "equality, the hash and the repr of every frozen value class come "
          "from qlinalg._Frozen, which reads each class's _fields; no "
          "subclass writes them out again",
          "declare the value's fields in _fields; do not define __eq__, "
          "__hash__ or __repr__ in a _Frozen subclass",
          [overrides("_Frozen", ("__eq__", "__hash__", "__repr__"))]),
    Guard("Attachments in summand coordinates",
          "an attachment block is keyed by its summand object; only the free "
          "builder turns a summand into offsets of its own layout",
          "key attachment blocks by summand object; let the free builder "
          "place them",
          [absent(r"locate\("), absent(r"\.offset\(", PKG + "minimal.py")]),
    Guard("One summand record",
          "a free builder's summand has one handle, its _Summand record "
          "(object, tensor data, coinvariants, complex and offsets in the "
          "component); summands[key] lists the records and dims[key] the "
          "component's dimensions, and every per-summand method takes the "
          "record, not a (key, index) pair",
          "keep a summand's facts on its _Summand record and pass the record; "
          "no Layout, layouts, _records, summand tuple (.item), "
          "vertex_types or summand_index",
          [absent(r"class Layout\b|\.layouts\b|\b_records\b|\.item\b|"
                  r"def vertex_types\b|def summand_index\b")]),
    Guard("One tower record",
          "a model's generators and attachments are its free builder's "
          "(op.free.gens, op.free.attachments); no second record keeps them",
          "read generators and attachments off op.free, not a tower record",
          [absent(r"TowerData|LevelRecord|\.tower\.")]),
    Guard("One evaluation route",
          "every summand, tree or stable graph, is composed along its plan "
          "(the builder's _plan) by one executor (free.evaluate_tree_basis), "
          "and vectors reach it through one builder method "
          "(_FreeBuilder.evaluate), which also reads off the part linear in "
          "one generator's image for the level solver; no per-unknown "
          "re-evaluation and no summand filter",
          "evaluate a summand along its _plan with evaluate_tree_basis, and "
          "vectors with _FreeBuilder.evaluate; no second evaluator, "
          "_condition_deltas, evaluate_basis or select= filter",
          [absent("_eval_tree|_eval_graph|_leaf_relabel|evaluate_graph_basis",
                  "src/**/*.py")]
          + [absent(r"_condition_deltas|def evaluate_basis|select=", PKG + f)
             for f in ("free.py", "minimal.py")]),
    Guard("One layout of matrix unknowns",
          "the entries of unknown matrices (the homotopies of homotopy_solve, "
          "the generator images of the level solver) are numbered only by "
          "qlinalg.MatrixEquations (its unknown and blocks); no solver "
          "numbers or reads them by hand, nor reads its layout",
          "number and read matrix unknowns with qlinalg.MatrixEquations "
          "(unknown, blocks), not by hand or through .layout[",
          [absent(r"unflatten|hoffsets|def var\("),
           absent(r"\.layout\[", skip=("qlinalg.py",))]),
    Guard("One free builder per model",
          "minimal_model adds each level's generators to one free builder, so "
          "the work on a summand (its s_j images, its attachment terms) is "
          "done once per model and placed through the current layout",
          "build a minimal model on one free builder; add each level's "
          "generators to it",
          [count(r"free_builder\(", PKG + "minimal.py", 1, 1)]),
    Guard("Rearrangements matched once",
          "the structure maps (action_generator, composition_table, "
          "contraction_table, _attachment_terms) look each rearranged object "
          "up through the memo (_FreeBuilder._found, keyed by catalogue "
          "positions), which matches it (_match) once per process; nothing "
          "else in free.py calls _match",
          "look a rearranged object up with _found, which matches it once per "
          "process; call self._match( nowhere else",
          [count(r"self\._match\(", PKG + "free.py", 1, 1),
           calls(PKG + "free.py", "_FreeBuilder._found", "self._match")]),
    Guard("One factor reorder",
          "tensor factors are permuted only by free.push_labels (through "
          "free._factor_map for graph automorphisms and the endomorphism "
          "operad's action), and graph matches are remembered only in "
          "free._MATCHES: trees.match_graph computes each match directly",
          "permute tensor factors with free.push_labels (_factor_map), and "
          "remember graph matches only in free._MATCHES",
          [absent("reorder_map|koszul_reorder_sign|MappingProxyType",
                  PKG + "**/*.py"),
           absent(r"def _match\(", PKG + "trees.py")]),
    Guard("One graph substitution",
          "trees.expand_vertex is the only code that rewires a concrete "
          "graph: relabel_legs, graft_graphs and self_glue each describe a "
          "small outer graph (a corolla, the two-vertex graph of o_i, the "
          "one-vertex graph with a loop) and substitute into it, with no leg "
          "table or slot relabelling of their own",
          "rewire concrete graphs only in expand_vertex; no _relabel_slot or "
          "leg_map table",
          [absent("_relabel_slot|leg_map", PKG + "trees.py")]
          + [calls(PKG + "trees.py", name, "expand_vertex", f"{name} must "
                   "substitute into its outer graph with expand_vertex(")
             for name in ("graft_graphs", "self_glue", "relabel_legs")]),
    Guard("One tree match",
          "a rearranged tree is matched onto the catalogue by the leaf sets "
          "of its vertices' children (FreeOperadBuilder._match); no planar "
          "tree is built or normalised",
          "match a rearranged tree by its children's leaf sets "
          "(FreeOperadBuilder._match), not as a planar tree",
          [absent("PlanarNode|normalize_planar|tree_to_planar|"
                  "planar_substitute_leaf|TreeMatch|adjacent_children")]),
    Guard("Group averages along adjacent generators",
          "the equivariant section's Reynolds average is a Horner sum over "
          "the adjacent generators (sigma.reynolds_average); no "
          "transposition (j k) is composed and no n!-term average is kept "
          "in src/",
          "average along the adjacent generators with sigma.reynolds_average, "
          "not over composed transpositions or all n! elements",
          [absent(r"transposition\([^)]*,[^)]*,|def average")]),
    Guard("One homology classifier",
          "a HomologyRecord classifies cycles by one matrix per degree, K_i, "
          "the coordinate rows that kill the boundaries placed on Z's pivots, "
          "which homology computes anyway; no cycle Subspace, Z-coordinate "
          "projection or second extension of it",
          "classify cycles with the record's classifier K_i "
          "(HomologyRecord.classifier), not cycle coordinates or an extended "
          "classifier",
          [absent(r"_extended_classify|\.projections\b|\.cycles\b|"
                  r"def coordinates")]),
    Guard("Homology from kernels",
          "homology takes two kernels per degree, Z and the coordinate rows "
          "that kill the boundaries, and coinvariants reads its projection "
          "off the average's rows at its image's pivots; no image of the "
          "boundaries, echelon of [B | Z] or projection solve is left",
          "take homology from kernel(d_i) and the kernel of d_{i+1}'s rows at "
          "Z's pivots, and the coinvariant projection off the average's rows; "
          "no image( or rref( in chain.py, no solve_matrix in sigma.py",
          [absent(r"\b(image|rref)\(", PKG + "chain.py"),
           absent(r"\bsolve_matrix\b", PKG + "sigma.py")]),
    Guard("One homology per complex",
          "a complex owns its homology record: ChainComplex.homology calls "
          "chain.homology once, on first read, and every consumer reads the "
          "record off the complex; no other module computes or passes one",
          "read a complex's homology record as c.homology; only chain.py "
          "calls homology(",
          [absent(r"\bhomology\(", skip=("chain.py",)),
           absent("HomologyTransfer|hsrc|hdst", "src/**/*.py")]),
    Guard("Alternation by shuffles",
          "alt sums each cube's signed orbit, which a product builds from its "
          "factors' orbits by shuffles (ProductCubicalSet._orbit); no loop "
          "over all n! permutations is left in cubical.py",
          "alternate by signed orbits (_orbit) built by shuffles, not by a "
          "loop over all_permutations",
          [absent("all_permutations", PKG + "cubical.py")]),
    Guard("Cubical chains on integer numerators",
          "a CubicChain holds integer numerators over one denominator in "
          "lowest terms; alt, boundary and act sum those integers and reduce "
          "by one gcd (CubicChain._normal), so cubical.py reads no Fraction "
          "view of a chain and takes an lcm only in the constructor",
          "work on a chain's num and den, not .coeffs, and take lcm( only in "
          "CubicChain.__init__",
          [absent(r"\.coeffs\b", PKG + "cubical.py"),
           count(r"\blcm\(", PKG + "cubical.py", 0, 1),
           calls(PKG + "cubical.py", "CubicChain.__init__", "lcm")]),
    Guard("One matrix writer",
          'document.py writes every matrix one way, as its rows of nonzero '
          '[column, "p/q"] pairs ("operad-forge/2"); the dense rows of '
          '"operad-forge/1" are only read there, and written only by the '
          'reference writer in tests/helpers.py',
          'write matrices as sparse rows with document.matrix_to_lists; no '
          'dense row of "0" cells in document.py',
          [absent(r'\["0"\] \*', PKG + "document.py")]),
    Guard("One document writer",
          "a document's text is the standard encoder's: document.dumps is "
          "json.dumps(doc, sort_keys=True, indent=1) and a newline, and "
          "document.dump streams json.dump's pieces; document.py keeps no "
          "encoder of its own to drift from it",
          "write documents with json.dumps / json.dump (sort_keys=True, "
          "indent=1); no encoder of its own in document.py",
          [absent(r"def _write\(|encode_basestring", PKG + "document.py")]),
    Guard("One solve route",
          "solve, solve_matrix and solve_with_kernel share one elimination of "
          "[m | b] (qlinalg._solve_augmented), which makes a Fraction only "
          "for the solution's entries, not one per entry of a full rref; and "
          "Matrix.__mul__ sums its rows through qlinalg._accumulate like "
          "every other sum of sparse rows",
          "solve through qlinalg._solve_augmented, not rref(m.hstack(...))",
          [absent(r"rref\(m\.hstack\(", PKG + "qlinalg.py"),
           calls(PKG + "qlinalg.py", "Matrix.__mul__", "_accumulate",
                 "sum the rows of a product with qlinalg._accumulate in "
                 "Matrix.__mul__")]),
    Guard("One kernel route",
          "kernel runs one rref of m with its columns reversed and reads "
          "its reduced echelon basis off the free columns "
          "(qlinalg._null_vectors, which solve_with_kernel shares); the "
          "null vectors are not eliminated a second time",
          "take kernel(m) from one rref of m's reversed columns through "
          "_null_vectors, not through _span or _null_space",
          [absent(r"_null_space", PKG + "qlinalg.py"),
           calls(PKG + "qlinalg.py", "kernel", "rref"),
           calls(PKG + "qlinalg.py", "kernel", "_span", never=True)]),
    Guard("Columns worked out once",
          "a matrix never changes, so Matrix.columns works its columns out "
          "on the first call and keeps them, and transpose and images read "
          "them; no caller transposes a matrix for its columns, the free "
          "builder keeps no column cache of its own, and only qlinalg sets "
          "a matrix's rows or columns",
          "read a matrix's columns with m.columns(), not .transpose().sparse "
          "or a cache of the caller's; set .sparse and ._columns only in "
          "qlinalg.py",
          [absent(r"\.transpose\(\)\.sparse"),
           absent(r"def _twist\(|\b(_twists|_lifts|_att_cols|"
                  r"_attachment_columns)\b", PKG + "free.py"),
           calls(PKG + "qlinalg.py", "Matrix.images", "self.columns"),
           calls(PKG + "qlinalg.py", "Matrix.transpose", "self.columns"),
           absent(r"\.(sparse|_columns)\s*[-+*/|&]?=(?!=)",
                  skip=("qlinalg.py",))]),
    Guard("Stable graphs canonicalised by refinement",
          "stable graphs are canonicalised by refinement, not by trying every "
          "vertex permutation; the Window-4 catalogue step pins the result",
          "canonicalise stable graphs by refinement, not over every vertex "
          "permutation",
          [absent(r"itertools.permutations\(range\(self.n_vertices\)\)",
                  PKG + "trees.py")]),
    Guard("Every src/ definition has a caller",
          "each top-level def or class of src/operad_forge is named in src/, "
          "bench/ or demos/ off its own definition line and __init__.py; code "
          "that only tests call is a test reference (tests/helpers.py)",
          "call each src/ definition from src/, bench/ or demos/, or move it "
          "to tests/helpers.py",
          [callers()]),
]


def failures(root=ROOT):
    """(guard name, hits, message) for each broken rule, in table order."""
    return [(guard.name, hits, message or guard.message)
            for guard in GUARDS for check, message in guard.rules
            for hits in [check(root)] if hits]


def main():
    found = failures()
    for name, hits, message in found:
        print("\n  ".join([f"FAIL {name}", *hits, message]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
