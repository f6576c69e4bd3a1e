"""The self-describing text format for operads and modules.

One JSON-compatible document format covers dg operads, dg modular
operads, truncated operads and (modular) Sigma-modules; rationals are
serialized as strings "p/q" (or "p" when the denominator is one), so
round trips are exact.  Serialization is canonical: parse(serialize(x))
= x and serialize is byte-deterministic.  The text is the standard
library's ``json.dumps(doc, sort_keys=True, indent=1)`` and a newline;
``dump`` streams it to a file in the pieces the encoder yields.

The writer writes version "operad-forge/2": a matrix is the list of its
rows, each the list of its nonzero [column, "p/q"] pairs in increasing
column order, its shape implied by the component's dims.  The reader
also reads version "operad-forge/1", where a row lists every cell; the
"format" field picks the matrix reader.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .chain import ChainComplex, ChainMap
from .operad import CompTable, DGOperad, ModularOperad
from .qlinalg import Matrix
from .sigma import GroupAction, ModularSigmaModule, SigmaModule

FORMAT_VERSION = "operad-forge/2"


class DocumentError(ValueError):
    """Malformed document (missing fields, bad rationals, bad shapes)."""


def rational_to_str(x) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ASCII digits only; an integer key is spelled as ``str`` writes it (no
# '+', no leading zero, no '-0', no space)
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_INT_RE = re.compile(r"(0|-?[1-9][0-9]*)\Z")


def rational_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise DocumentError(f"bad rational {s!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {s!r}") from exc


def matrix_to_lists(m: Matrix):
    """The rows of m, each the list of its nonzero [column, "p/q"] pairs
    in increasing column order."""
    return [[[j, rational_to_str(x)] for j, x in row] for row in m.sparse]


def _rational(x, parsed):
    """The rational of a cell, each text parsed once per read (``parsed``:
    cell text -> rational); a cell that is not a string is rejected."""
    q = parsed.get(x) if type(x) is str else None
    if q is None:
        q = rational_from_str(x)
        parsed[x] = q
    return q


def matrix_from_lists(data, rows, cols, parsed=None):
    """The Matrix of the rows written by ``matrix_to_lists``.  A read passes
    one dict ``parsed`` (cell text -> rational) to all its matrices and
    tables.  There must be exactly ``rows`` rows, and a row may hold only
    [column, coefficient] pairs with columns strictly increasing below
    ``cols`` and nonzero coefficients: one matrix has one spelling."""
    if type(data) is not list or len(data) != rows:
        raise DocumentError(f"matrix shape mismatch (expected {rows} rows)")
    if parsed is None:
        parsed = {}
    sparse = []
    for i, row in enumerate(data):
        entries = []
        last = -1
        for pair in _expect(row, list, f"matrix row {i}"):
            if type(pair) is not list or len(pair) != 2 \
                    or type(pair[0]) is not int:
                raise DocumentError(f"matrix row {i}: expected "
                                    "[column, coefficient] pairs")
            j, q = pair[0], _rational(pair[1], parsed)
            if not last < j < cols:
                raise DocumentError(
                    f"matrix row {i}: column {j} out of order or out of "
                    f"range (expected {last + 1} to {cols - 1})")
            if not q:
                raise DocumentError(f"matrix row {i}: zero coefficient "
                                    f"{pair[1]!r} at column {j}")
            entries.append((j, q))
            last = j
        sparse.append(tuple(entries))
    return Matrix._trusted(rows, cols, tuple(sparse))


def matrix_from_dense_lists(data, rows, cols, parsed=None):
    """The Matrix of an "operad-forge/1" document's rows of cells."""
    if not isinstance(data, list) or len(data) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in data):
        raise DocumentError(f"matrix shape mismatch (expected {rows}x{cols})")
    if parsed is None:
        parsed = {}
    sparse = []
    for row in data:
        entries = []
        for j, x in enumerate(row):
            # a "0" cell is the common case; any other spelling of zero
            # ("-0", "0/3") is parsed and dropped
            if x != "0":
                q = _rational(x, parsed)
                if q:
                    entries.append((j, q))
        sparse.append(tuple(entries))
    return Matrix._trusted(rows, cols, tuple(sparse))


# format version -> its matrix reader
_MATRIX_READERS = {"operad-forge/1": matrix_from_dense_lists,
                   FORMAT_VERSION: matrix_from_lists}


def _key_to_str(key):
    if isinstance(key, tuple):
        return f"{key[0]},{key[1]}"
    return str(key)


def _key_from_str(s, modular):
    if modular:
        return _ints(s, 2, "component")
    key, = _ints(s, 1, "component")
    return key


def _component_to_doc(ga: GroupAction):
    c = ga.complex
    out = {"dims": {str(d): n for d, n in sorted(c.dims.items())}}
    diff = {str(d): matrix_to_lists(m) for d, m in sorted(c.diff.items())}
    if diff:
        out["differential"] = diff
    action = []
    for gen in ga.generators:
        action.append({str(d): matrix_to_lists(m)
                       for d, m in sorted(gen.blocks.items())})
    if action:
        out["action"] = action
    return out


def _expect(value, kind, what):
    """value if its JSON type is kind (a bool is not an int), else a
    DocumentError naming what was wrong."""
    if type(value) is not kind:
        raise DocumentError(f"{what}: expected {kind.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _component_from_doc(key, doc, matrix):
    """The GroupAction of a component entry; ``matrix(data, rows, cols)``
    reads its matrices."""
    _expect(doc, dict, f"component {key}")
    if "dims" not in doc:
        raise DocumentError(f"component {key}: missing dims")
    dims = {}
    for d, n in _expect(doc["dims"], dict, f"component {key}: dims").items():
        d, = _ints(d, 1, f"component {key}: dims")
        dims[d] = n
    if any(_expect(n, int, f"component {key}: dim") < 0
           for n in dims.values()):
        raise DocumentError(f"component {key}: negative dim")
    diff = {}
    for d, data in _expect(doc.get("differential", {}), dict,
                           f"component {key}: differential").items():
        d, = _ints(d, 1, f"component {key}: differential")
        diff[d] = matrix(data, dims.get(d - 1, 0), dims.get(d, 0))
    try:
        complex_ = ChainComplex(dims, diff)
    except ValueError as exc:
        raise DocumentError(f"component {key}: {exc}") from exc
    n = key[1] if isinstance(key, tuple) else key
    gens = []
    action_doc = _expect(doc.get("action", []), list,
                         f"component {key}: action")
    if action_doc and len(action_doc) != max(n - 1, 0):
        raise DocumentError(f"component {key}: expected {max(n - 1, 0)} "
                            "action generators")
    for gen in action_doc:
        blocks = {}
        for d, data in _expect(gen, dict,
                               f"component {key}: action generator").items():
            d, = _ints(d, 1, f"component {key}: action generator")
            blocks[d] = matrix(data, dims.get(d, 0), dims.get(d, 0))
        # GroupAction.validate checks that each generator is a chain map
        gens.append(ChainMap(complex_, complex_, blocks, check=False))
    if not action_doc:
        gens = [ChainMap.identity(complex_)] * max(n - 1, 0)
    try:
        return GroupAction(n, complex_, gens)
    except ValueError as exc:
        raise DocumentError(f"component {key}: {exc}") from exc


def _tables_to_doc(tables):
    """The document entries of a dict source -> CompTable, compositions
    and contractions alike: a block key joins the sources' degrees with
    commas and a cell key their basis indices."""
    out = []
    for source in sorted(tables, key=str):
        blocks = {}
        for degrees, cells in tables[source].entries.items():
            entry = {",".join(map(str, indices)):
                     [[row, rational_to_str(coeff)]
                      for row, coeff in sorted(cell.items())]
                     for indices, cell in cells.items() if cell}
            if entry:
                blocks[",".join(map(str, degrees))] = entry
        out.append({"source": [list(x) if type(x) is tuple else x
                               for x in source],
                    "blocks": blocks})
    return out


def _ints(s, n, what):
    """The n integers of a comma-separated key string, each spelled as
    the writer spells it; every component, degree and table key is read
    here, so no two spellings name one key."""
    parts = s.split(",") if type(s) is str else ()
    if len(parts) != n or not all(map(_INT_RE.match, parts)):
        raise DocumentError(f"{what}: bad key {s!r}")
    return tuple(map(int, parts))


def _table_key(x, modular, what):
    if not modular:
        return _expect(x, int, what)
    if type(x) is not list or len(x) != 2 or any(type(y) is not int
                                                 for y in x):
        raise DocumentError(f"{what}: expected [genus, legs]")
    return tuple(x)


def _cells(rowlist, what, parsed):
    """(row, coefficient) pairs of one table cell."""
    for pair in _expect(rowlist, list, what):
        if type(pair) is not list or len(pair) != 2:
            raise DocumentError(f"{what}: expected [row, coefficient]")
        yield _expect(pair[0], int, f"{what}: row"), _rational(pair[1], parsed)


def _tables_from_doc(entries, what, places, modular, parsed):
    """{source: CompTable} from the entries of a document's compositions
    or contractions.  ``places`` names the three places of a source: a
    "key" is a component key, one per source of the map, and any other
    place a leg number.  A source listed twice, or a row listed twice in
    one cell, is malformed."""
    n = places.count("key")
    tables = {}
    for item in _expect(entries, list, f"{what}s"):
        src = _expect(item, dict, f"{what} entry").get("source")
        if type(src) is not list or len(src) != len(places):
            raise DocumentError(f"{what} entry needs [{', '.join(places)}]")
        source = tuple(
            _table_key(x, modular, f"{what} source") if place == "key"
            else _expect(x, int, f"{what} {place}")
            for x, place in zip(src, places))
        if source in tables:
            raise DocumentError(f"{what} {source} listed twice")
        table = tables[source] = CompTable()
        for degs, cells in _expect(item.get("blocks", {}), dict,
                                   f"{what} blocks").items():
            degrees = _ints(degs, n, f"{what} block")
            block = {}
            for cell_s, rowlist in _expect(cells, dict,
                                           f"{what} block").items():
                indices = _ints(cell_s, n, f"{what} cell")
                cell = {}
                for row, coeff in _cells(rowlist, f"{what} cell", parsed):
                    if row in cell:
                        raise DocumentError(
                            f"{what} {source}: row {row} listed twice in "
                            f"cell {cell_s!r} of block {degs!r}")
                    cell[row] = coeff
                cell = {row: coeff for row, coeff in cell.items() if coeff}
                if cell:
                    block[indices] = cell
            if block:
                table.entries[degrees] = block
    return tables


def to_document(obj, name="", seed=0, tower=None) -> dict:
    """Serialize an operad, modular operad or (modular) Sigma-module."""
    operad = isinstance(obj, (DGOperad, ModularOperad))
    module = obj.module if operad else obj
    if not isinstance(module, (SigmaModule, ModularSigmaModule)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    modular = isinstance(module, ModularSigmaModule)
    doc = {"format": FORMAT_VERSION,
           "metadata": {"name": name, "seed": seed},
           "kind": "sigma-module",
           "indexing": "modular" if modular else "arity",
           "components": {_key_to_str(k): _component_to_doc(ga)
                          for k, ga in sorted(module.components.items())}}
    if operad:
        doc["kind"] = obj.kind if obj.cut is None else "truncated"
        doc["window"] = {"max_dim" if modular else "max_arity": obj.window}
        if obj.cut is not None:
            doc["truncation_cut"] = obj.cut
        doc["compositions"] = _tables_to_doc(obj.comp)
        if modular:
            doc["contractions"] = _tables_to_doc(obj.contr)
    if tower:
        doc["tower"] = tower
    return doc


# the (kind, indexing) pairs to_document writes
_INDEXINGS = (("operad", "arity"), ("modular", "modular"),
              ("truncated", "arity"), ("truncated", "modular"),
              ("sigma-module", "arity"), ("sigma-module", "modular"))


def from_document(doc):
    """Parse a document; returns (object, metadata dict)."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object")
    fmt = doc.get("format")
    read = _MATRIX_READERS.get(fmt) if type(fmt) is str else None
    if read is None:
        raise DocumentError(f"unsupported format {fmt!r} (expected one of "
                            f"{', '.join(map(repr, _MATRIX_READERS))})")
    kind = doc.get("kind")
    if kind not in ("operad", "modular", "truncated", "sigma-module"):
        raise DocumentError(f"unknown kind {kind!r}")
    indexing = doc.get("indexing", "arity")
    if (kind, indexing) not in _INDEXINGS:
        raise DocumentError(f"{kind} document with indexing {indexing!r}")
    if "truncation_cut" in doc and kind != "truncated":
        raise DocumentError(f"{kind} document with truncation_cut")
    modular = indexing == "modular"
    parsed = {}  # cell text -> its rational, for this read's cells

    def matrix(data, rows, cols):
        return read(data, rows, cols, parsed)

    components = {}
    for key_s, comp_doc in _expect(doc.get("components", {}), dict,
                                   "components").items():
        key = _key_from_str(key_s, modular)
        components[key] = _component_from_doc(key, comp_doc, matrix)
    metadata = dict(_expect(doc.get("metadata", {}), dict, "metadata"))
    if "name" in metadata:
        _expect(metadata["name"], str, "metadata.name")
    if "seed" in metadata:
        _expect(metadata["seed"], int, "metadata.seed")
    metadata["kind"] = kind
    metadata["indexing"] = indexing
    try:
        module = (ModularSigmaModule(components) if modular
                  else SigmaModule(components))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if kind == "sigma-module":
        return module, metadata
    comp = _tables_from_doc(doc.get("compositions", []), "composition",
                            ("key", "slot", "key"), modular, parsed)
    cut = doc.get("truncation_cut")
    if kind == "truncated" and cut is None:
        raise DocumentError("truncated document needs truncation_cut")
    if cut is not None:
        _expect(cut, int, "truncation_cut")
    window = _expect(doc.get("window", {}), dict, "window")
    bound = "max_dim" if modular else "max_arity"
    if window.get(bound) is None:
        raise DocumentError(f"{kind} document needs window.{bound}")
    top = _expect(window[bound], int, f"window.{bound}")
    contr = (_tables_from_doc(doc.get("contractions", []), "contraction",
                              ("key", "leg", "leg"), True, parsed)
             if modular else None)
    try:
        if modular:
            op = ModularOperad(module, comp, contr, max_dim=top, cut=cut)
        else:
            op = DGOperad(module, comp, max_arity=top, cut=cut)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if cut is not None:
        # t_cut leaves no nonzero component above the cut, and cuts
        # within the window
        low = max((op.level(k) for k, ga in module.components.items()
                   if not ga.complex.is_zero()), default=cut)
        if not low <= cut <= top:
            raise DocumentError(f"truncation_cut {cut} outside {low}..{top}: "
                                "the nonzero components' levels to the window")
    _check_table_indices(op)
    if "tower" in doc:
        metadata["tower"] = doc["tower"]
    return op, metadata


def _check_table_indices(op):
    """Every structure-map key must be one of the window's, and every
    referenced basis index and target row in range."""
    for name, tables, keys, sources, target, _ in op.structure_maps():
        window = set(keys())
        for trip, table in tables.items():
            if trip not in window:
                raise DocumentError(f"{name} {trip}: keys or legs out of "
                                    "range for the window")
            dims = [op.component(key).dim for key in sources(*trip)]
            ct = op.component(target(*trip))
            for degrees, cells in table.entries.items():
                for indices, cell in cells.items():
                    if not all(0 <= k < dim(d) for k, dim, d
                               in zip(indices, dims, degrees)):
                        raise DocumentError(
                            f"{name} {trip}: basis index out of range at "
                            f"degrees {degrees}")
                    if not all(0 <= row < ct.dim(sum(degrees))
                               for row in cell):
                        raise DocumentError(
                            f"{name} {trip}: target row out of range at "
                            f"degree {sum(degrees)}")


def dumps(doc) -> str:
    """Canonical byte-deterministic serialization: ``json.dumps(doc,
    sort_keys=True, indent=1)`` and a final newline."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def dump(doc, fh):
    """Write the text of ``dumps(doc)`` to the text stream fh piece by
    piece, as the standard encoder yields it, without holding the whole
    text."""
    json.dump(doc, fh, sort_keys=True, indent=1)
    fh.write("\n")


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc}") from None
    return from_document(loads(text))


def morphism_to_doc(morphism, label=""):
    blocks = {}
    for key, cm in sorted(morphism.maps.items(), key=lambda kv: str(kv[0])):
        blocks[_key_to_str(key)] = {
            str(d): matrix_to_lists(m) for d, m in sorted(cm.blocks.items())}
    return {"label": label, "components": blocks}


def witness_to_document(witness, alpha, name="", seed=0) -> dict:
    """Serialize a formality witness: the zigzag arrows as matrices."""
    return {
        "format": FORMAT_VERSION,
        "kind": "formality-witness",
        "metadata": {"name": name, "seed": seed},
        "alpha": rational_to_str(alpha),
        "arrows": [morphism_to_doc(arrow, label)
                   for label, arrow in witness.arrows],
    }
