"""Every top-level ``def`` or ``class`` in ``src/operad_forge`` has a caller.

A definition counts as called when its name occurs, as a whole word, in
some ``.py`` file under ``src/``, ``bench/`` or ``demos/`` other than on
its own definition line and in the package ``__init__.py`` (which only
re-exports).  Tests do not count: code that only its tests call belongs
in ``tests/helpers.py``.

Run from the repository root:

    python tests/check_callers.py

It prints each uncalled definition as ``file:line: name`` and exits 1 if
there is one, 0 otherwise.  Standard library only.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "operad_forge"
SEARCHED = ("src", "bench", "demos")


def _definitions():
    """(path, line, name) of every top-level def or class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path, node.lineno, node.name


def _names():
    """Each word of the searched files, with the (path, line) it occurs on."""
    where = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for no, text in enumerate(path.read_text().splitlines(), 1):
                for word in re.findall(r"\w+", text):
                    where.setdefault(word, set()).add((path, no))
    return where


def uncalled():
    """The definitions that no searched line names, in file order."""
    where = _names()
    return [(path, lineno, name) for path, lineno, name in _definitions()
            if not where.get(name, set()) - {(path, lineno)}]


def main():
    missing = uncalled()
    for path, lineno, name in missing:
        print(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
