"""The self-describing text format for operads and modules.

One JSON-compatible document format (version "operad-forge/1") covers
dg operads, dg modular operads, truncated operads and (modular)
Sigma-modules; rationals are serialized as strings "p/q" (or "p" when
the denominator is one), so round trips are exact.  Serialization is
canonical: parse(serialize(x)) = x and serialize is byte-deterministic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .chain import ChainComplex, ChainMap
from .operad import CompTable, ContrTable, DGOperad, ModularOperad
from .qlinalg import Matrix
from .sigma import GroupAction, ModularSigmaModule, SigmaModule

FORMAT_VERSION = "operad-forge/1"


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
    out = []
    for row in m.sparse:
        line = ["0"] * m.cols
        for j, x in row:
            line[j] = rational_to_str(x)
        out.append(line)
    return out


def matrix_from_lists(data, rows, cols):
    if not isinstance(data, list) or len(data) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in data):
        raise DocumentError(f"matrix shape mismatch (expected {rows}x{cols})")
    sparse = []
    for row in data:
        entries = []
        for j, x in enumerate(row):
            # a "0" cell is the common case; any other spelling of zero
            # ("-0", "0/3") is parsed and dropped
            if x != "0":
                x = rational_from_str(x)
                if x:
                    entries.append((j, x))
        sparse.append(tuple(entries))
    return Matrix._trusted(rows, cols, tuple(sparse))


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


def _component_from_doc(key, doc):
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
        diff[d] = matrix_from_lists(data, dims.get(d - 1, 0), dims.get(d, 0))
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
            blocks[d] = matrix_from_lists(data, dims.get(d, 0), dims.get(d, 0))
        try:
            gens.append(ChainMap(complex_, complex_, blocks))
        except ValueError as exc:
            raise DocumentError(f"component {key}: bad action ({exc})") from exc
    if not action_doc:
        gens = [ChainMap.identity(complex_)] * max(n - 1, 0)
    try:
        return GroupAction(n, complex_, gens)
    except ValueError as exc:
        raise DocumentError(f"component {key}: {exc}") from exc


def _comp_tables_to_doc(comp, modular):
    out = []
    for trip in sorted(comp, key=lambda t: str(t)):
        table = comp[trip]
        key1, i, key2 = trip
        blocks = {}
        for (d1, d2), cells in sorted(table.entries.items(),
                                      key=lambda kv: str(kv[0])):
            entry = {}
            for (k1, k2), cell in sorted(cells.items()):
                for row, coeff in sorted(cell.items()):
                    entry.setdefault(f"{k1},{k2}", []).append(
                        [row, rational_to_str(coeff)])
            if entry:
                blocks[f"{d1},{d2}"] = entry
        out.append({"source": [list(key1) if modular else key1, i,
                               list(key2) if modular else key2],
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


def _cells(rowlist, what):
    """(row, coefficient) pairs of one table cell."""
    for pair in _expect(rowlist, list, what):
        if type(pair) is not list or len(pair) != 2:
            raise DocumentError(f"{what}: expected [row, coefficient]")
        yield _expect(pair[0], int, f"{what}: row"), rational_from_str(pair[1])


def _comp_tables_from_doc(entries, modular):
    comp = {}
    for item in _expect(entries, list, "compositions"):
        src = _expect(item, dict, "composition entry").get("source")
        if not isinstance(src, list) or len(src) != 3:
            raise DocumentError("composition entry needs [key, slot, key]")
        key1 = _table_key(src[0], modular, "composition source")
        key2 = _table_key(src[2], modular, "composition source")
        i = _expect(src[1], int, "composition slot")
        table = CompTable()
        for degs, cells in _expect(item.get("blocks", {}), dict,
                                   "composition blocks").items():
            d1, d2 = _ints(degs, 2, "composition block")
            for pair, rowlist in _expect(cells, dict,
                                         "composition block").items():
                k1, k2 = _ints(pair, 2, "composition cell")
                for row, coeff in _cells(rowlist, "composition cell"):
                    table.add(d1, k1, d2, k2, row, coeff)
        comp[(key1, i, key2)] = table
    return comp


def _contr_tables_to_doc(contr):
    out = []
    for (key, i, j) in sorted(contr, key=str):
        table = contr[(key, i, j)]
        blocks = {}
        for d, cells in sorted(table.entries.items()):
            entry = {}
            for k, cell in sorted(cells.items()):
                for row, coeff in sorted(cell.items()):
                    entry.setdefault(str(k), []).append(
                        [row, rational_to_str(coeff)])
            if entry:
                blocks[str(d)] = entry
        out.append({"source": [list(key), i, j], "blocks": blocks})
    return out


def _contr_tables_from_doc(entries):
    contr = {}
    for item in _expect(entries, list, "contractions"):
        src = _expect(item, dict, "contraction entry").get("source")
        if not isinstance(src, list) or len(src) != 3:
            raise DocumentError("contraction entry needs [key, i, j]")
        key = _table_key(src[0], True, "contraction source")
        i = _expect(src[1], int, "contraction leg")
        j = _expect(src[2], int, "contraction leg")
        table = ContrTable()
        for d, cells in _expect(item.get("blocks", {}), dict,
                                "contraction blocks").items():
            d, = _ints(d, 1, "contraction block")
            for k, rowlist in _expect(cells, dict,
                                      "contraction block").items():
                k, = _ints(k, 1, "contraction cell")
                for row, coeff in _cells(rowlist, "contraction cell"):
                    table.add(d, k, row, coeff)
        contr[(key, i, j)] = table
    return contr


def to_document(obj, name="", seed=0, tower=None) -> dict:
    """Serialize an operad, modular operad or (modular) Sigma-module."""
    doc = {"format": FORMAT_VERSION,
           "metadata": {"name": name, "seed": seed}}
    if isinstance(obj, ModularOperad):
        doc["kind"] = "modular" if obj.cut is None else "truncated"
        doc["indexing"] = "modular"
        doc["window"] = {"max_dim": obj.max_dim}
        if obj.cut is not None:
            doc["truncation_cut"] = obj.cut
        doc["components"] = {
            _key_to_str(k): _component_to_doc(ga)
            for k, ga in sorted(obj.module.components.items())}
        doc["compositions"] = _comp_tables_to_doc(obj.comp, True)
        doc["contractions"] = _contr_tables_to_doc(obj.contr)
    elif isinstance(obj, DGOperad):
        doc["kind"] = "operad" if obj.cut is None else "truncated"
        doc["indexing"] = "arity"
        doc["window"] = {"max_arity": obj.max_arity}
        if obj.cut is not None:
            doc["truncation_cut"] = obj.cut
        doc["components"] = {
            _key_to_str(k): _component_to_doc(ga)
            for k, ga in sorted(obj.module.components.items())}
        doc["compositions"] = _comp_tables_to_doc(obj.comp, False)
    elif isinstance(obj, ModularSigmaModule):
        doc["kind"] = "sigma-module"
        doc["indexing"] = "modular"
        doc["components"] = {
            _key_to_str(k): _component_to_doc(ga)
            for k, ga in sorted(obj.components.items())}
    elif isinstance(obj, SigmaModule):
        doc["kind"] = "sigma-module"
        doc["indexing"] = "arity"
        doc["components"] = {
            _key_to_str(k): _component_to_doc(ga)
            for k, ga in sorted(obj.components.items())}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
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
    if doc.get("format") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format {doc.get('format')!r} "
                            f"(expected {FORMAT_VERSION!r})")
    kind = doc.get("kind")
    if kind not in ("operad", "modular", "truncated", "sigma-module"):
        raise DocumentError(f"unknown kind {kind!r}")
    indexing = doc.get("indexing", "arity")
    if (kind, indexing) not in _INDEXINGS:
        raise DocumentError(f"{kind} document with indexing {indexing!r}")
    modular = indexing == "modular"
    components = {}
    for key_s, comp_doc in _expect(doc.get("components", {}), dict,
                                   "components").items():
        key = _key_from_str(key_s, modular)
        components[key] = _component_from_doc(key, comp_doc)
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
    comp = _comp_tables_from_doc(doc.get("compositions", []), modular)
    cut = doc.get("truncation_cut") if kind == "truncated" else None
    if kind == "truncated" and cut is None:
        raise DocumentError("truncated document needs truncation_cut")
    if cut is not None:
        _expect(cut, int, "truncation_cut")
    window = _expect(doc.get("window", {}), dict, "window")
    bound = "max_dim" if modular else "max_arity"
    if window.get(bound) is None:
        raise DocumentError(f"{kind} document needs window.{bound}")
    top = _expect(window[bound], int, f"window.{bound}")
    contr = (_contr_tables_from_doc(doc.get("contractions", []))
             if modular else None)
    try:
        if modular:
            op = ModularOperad(module, comp, contr, max_dim=top, cut=cut)
        else:
            op = DGOperad(module, comp, max_arity=top, cut=cut)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    _check_table_indices(op)
    if "endomorphism" in doc:
        endo = {}
        for key_s, blocks in _expect(doc["endomorphism"], dict,
                                     "endomorphism").items():
            key = _key_from_str(key_s, modular)
            c = op.component(key)
            endo[key] = {}
            for d, m in _expect(blocks, dict, "endomorphism blocks").items():
                d, = _ints(d, 1, "endomorphism block")
                endo[key][d] = matrix_from_lists(m, c.dim(d), c.dim(d))
        metadata["endomorphism"] = endo
    if "tower" in doc:
        metadata["tower"] = doc["tower"]
    return op, metadata


def _check_table_indices(op):
    """Every referenced degree pair and basis index must be in range."""
    for (key1, i, key2), table in op.comp.items():
        if not (1 <= i <= op.legs(key1)):
            raise DocumentError(f"composition slot {i} out of range for {key1}")
        try:
            tkey = op.comp_target(key1, i, key2)
            c1, c2, ct = (op.component(key1), op.component(key2),
                          op.component(tkey))
        except (ValueError, KeyError) as exc:
            raise DocumentError(f"bad composition source {key1}, {key2}") \
                from exc
        for (d1, d2), cells in table.entries.items():
            for (k1, k2), cell in cells.items():
                if not (0 <= k1 < c1.dim(d1) and 0 <= k2 < c2.dim(d2)):
                    raise DocumentError(
                        f"composition {key1} o_{i} {key2}: basis index out "
                        f"of range at degrees ({d1},{d2})")
                for row in cell:
                    if not 0 <= row < ct.dim(d1 + d2):
                        raise DocumentError(
                            f"composition {key1} o_{i} {key2}: target row "
                            f"out of range at degree {d1 + d2}")
    for (key, i, j), table in op.contr.items():
        c = op.component(key)
        ct = op.component(op.contr_target(key))
        if not (1 <= i < j <= key[1]):
            raise DocumentError(f"contraction legs ({i},{j}) out of range "
                                f"for {key}")
        for d, cells in table.entries.items():
            for k, cell in cells.items():
                if not 0 <= k < c.dim(d):
                    raise DocumentError(f"contraction on {key}: basis index "
                                        f"out of range at degree {d}")
                for row in cell:
                    if not 0 <= row < ct.dim(d):
                        raise DocumentError(f"contraction on {key}: target "
                                            f"row out of range at degree {d}")


def dumps(doc) -> str:
    """Canonical byte-deterministic serialization.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=1) +
    "\\n"`` for a JSON value with string keys, written directly: the
    standard encoder runs in pure Python whenever it indents.  A list of
    strings, such as a matrix row, is written in one join: when the
    strings together are printable ASCII without ``"`` or ``\\``, each
    is its own JSON text between quotes, and otherwise each is encoded.
    """
    out = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def dump(doc, fh):
    """Write the text of ``dumps(doc)`` to the text stream fh piece by
    piece, without holding the whole text."""
    _write(doc, "\n", fh.write)
    fh.write("\n")


_encode_str = json.encoder.encode_basestring_ascii


def _write(x, nl, write):
    """Pass the indented JSON text of x, in pieces, to write; nl is the
    newline plus the indentation of the line x starts on."""
    if isinstance(x, str):
        write(_encode_str(x))
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            write(sep + _encode_str(key) + ": ")
            _write(value, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            write("[]")
            return
        inner = nl + " "
        try:
            text = "".join(x)
        except TypeError:
            pass
        else:
            if (text.isascii() and text.isprintable() and '"' not in text
                    and "\\" not in text):
                write("[" + inner + '"')
                write(('",' + inner + '"').join(x))
                write('"' + nl + "]")
            else:
                write("[" + inner + ("," + inner).join(map(_encode_str, x))
                      + nl + "]")
            return
        sep = "[" + inner
        for value in x:
            write(sep)
            _write(value, inner, write)
            sep = "," + inner
        write(nl + "]")
    elif x is None:
        write("null")
    elif x is True:
        write("true")
    elif x is False:
        write("false")
    elif isinstance(x, int):
        write(int.__repr__(x))
    elif isinstance(x, float):
        write(json.dumps(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} "
                        "is not JSON serializable")


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
