"""Outside-in tracer for operad-forge's public layer functions.

A ``Tracer`` wraps the functions listed in ``LAYERS`` and rebinds every
alias of each one in the loaded ``operad_forge.*`` module namespaces, so
that ``from .qlinalg import rref``-style imports are traced too.  Each
call records a span ``(name, start, end, parent, job)``; spans stay in
memory until ``spans()`` hands them to the caller.  Work counts are
taken at the same boundary from the call's arguments and result.
Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> public functions ("Class.method" for methods)
LAYERS = {
    "qlinalg": ["rref", "solve", "kernel", "Subspace.contains"],
    "chain": ["homology", "mapping_cone", "homotopy_solve", "check_homotopy"],
    "trees": ["enumerate_trees", "enumerate_stable_graphs",
              "graph_isomorphisms"],
    "free": ["free_operad", "free_modular_operad", "extend_freely",
             "evaluate_tree_basis"],
    "sigma": ["coinvariants", "validate_action"],
    "document": ["to_document", "dumps", "loads", "from_document"],
    "operad": ["validate", "truncate", "ideal_closure", "quotient",
               "validate_ideal"],
    "minimal": ["minimal_model", "lift", "iso_between_minimal",
                "principal_extension"],
    "weight": ["formality_check"],
    "cubical": ["alt", "boundary", "cross"],
    "cli": ["main"],
}

# raw work accumulators; shares and totals are derived from them (and
# from the span call counts) by ``stats.layer_metrics``
RAW_COUNTS = (
    "qlinalg.rref.cells", "qlinalg.rref.nonzero", "qlinalg.solve.solved",
    "qlinalg.Subspace.contains.true", "chain.homotopy_solve.unknowns",
    "chain.homotopy_solve.equations", "trees.graph_isomorphisms.hit",
    "document.dumps.bytes", "minimal.levels", "minimal.generator_dim",
    "weight.formality_check.witness",
)


def _rref_counts(args, result, acc):
    m = args[0]
    acc["qlinalg.rref.cells"] += m.rows * m.cols
    acc["qlinalg.rref.nonzero"] += sum(1 for row in m.data for x in row if x)


def _homotopy_counts(args, result, acc):
    x, y = args[0].src, args[0].dst
    acc["chain.homotopy_solve.unknowns"] += sum(
        x.dim(i) * y.dim(i + 1) for i in x.dims)
    acc["chain.homotopy_solve.equations"] += sum(
        x.dim(i) * y.dim(i) for i in set(x.dims) | set(y.dims))


def _minimal_counts(args, result, acc):
    acc["minimal.levels"] += len(result.tower)
    acc["minimal.generator_dim"] += sum(
        sum(dims.values()) for dims in result.generator_dims.values())


def _dumps_counts(args, result, acc):
    acc["document.dumps.bytes"] += len(result.encode("utf-8"))


def _hit(key, test):
    def count(args, result, acc):
        if test(result):
            acc[key] += 1
    return count


_COUNTERS = {
    "qlinalg.rref": _rref_counts,
    "qlinalg.solve": _hit("qlinalg.solve.solved", lambda r: r is not None),
    "qlinalg.Subspace.contains": _hit("qlinalg.Subspace.contains.true",
                                      bool),
    "chain.homotopy_solve": _homotopy_counts,
    "trees.graph_isomorphisms": _hit("trees.graph_isomorphisms.hit", bool),
    "document.dumps": _dumps_counts,
    "minimal.minimal_model": _minimal_counts,
    "weight.formality_check": _hit("weight.formality_check.witness",
                                   lambda r: r is not None),
}


def import_layers():
    """Import every layer module, so traced and untraced runs load the
    same code."""
    for layer in LAYERS:
        importlib.import_module(f"operad_forge.{layer}")


def function_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Span recorder; ``install`` wraps the layer functions in place.

    Calls are recorded only while ``job`` is set, so checks run between
    jobs leave no spans."""

    def __init__(self):
        self.job = None
        self._spans = []
        self._stack = []
        self._restore = []
        self.acc = dict.fromkeys(RAW_COUNTS, 0)

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(args, result, self.acc)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every listed function and rebind all of its aliases."""
        import_layers()
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "operad_forge"
                                         or key.startswith("operad_forge."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"operad_forge.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original, self.wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                traced = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, traced)

    def _rebind(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def spans(self):
        """Recorded spans as ``(name, start, end, parent, job)`` tuples;
        ``parent`` is the index of the enclosing span or None."""
        return list(self._spans)
