"""Batch command line front end.

Subcommands: validate, homology, free, minimal-model, check-formality,
enumerate, alt-check.  Exit codes: 0 success, 1 validation or semantic
failure, 2 malformed input.  Diagnostics go to stderr; results go to
stdout or to --out.  The environment variable OPERAD_FORGE_FIXTURES
names a directory in which input files are looked up when they are not
found as given.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from . import document as doc_mod
from .chain import homology_dims
from .document import DocumentError
from .free import free_modular_operad, free_operad
from .minimal import minimal_model
from .operad import validate
from .sigma import ModularSigmaModule, SigmaModule, validate_action
from .trees import (enumerate_stable_graphs, enumerate_trees,
                    graph_automorphisms, is_stable)
from .weight import WeightFunction, formality_check

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MALFORMED = 2


class SystemExit2(Exception):
    """Semantic misuse of a command (mapped to exit code 1)."""


class MalformedArgument(Exception):
    """A command-line value out of its domain (mapped to exit code 2)."""


def _resolve_input(path):
    if os.path.exists(path):
        return path
    fixtures = os.environ.get("OPERAD_FORGE_FIXTURES")
    if fixtures:
        candidate = os.path.join(fixtures, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load(path):
    return doc_mod.load(_resolve_input(path))


def _at_least(*checks):
    """Reject the first (flag, value, least) whose value is below least;
    an omitted value (None) passes."""
    for flag, value, least in checks:
        if value is not None and value < least:
            raise MalformedArgument(f"{flag} {value} is below {least}")


def _load_operad(args):
    """The operad document args.file, with --max inside its window."""
    obj, meta = _load(args.file)
    if isinstance(obj, (SigmaModule, ModularSigmaModule)):
        raise SystemExit2(f"{args.command} expects an operad document")
    if args.max is not None and args.max > obj.window:
        raise MalformedArgument(f"--max {args.max} exceeds the window "
                                f"{obj.window}")
    return obj, meta


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_document(doc, out):
    """Stream a document to --out or stdout, never holding its text."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            doc_mod.dump(doc, fh)
        return
    try:
        doc_mod.dump(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (as `| head` does): what is
        # still buffered goes to devnull at exit, and the command ends
        # quietly with its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_validate(args):
    obj, meta = _load(args.file)
    if isinstance(obj, (SigmaModule, ModularSigmaModule)):
        report = validate_action(obj)
    else:
        report = validate(obj)
    if report:
        _emit("\n".join(report) + "\n", args.out)
        return EXIT_FAILURE
    _emit("ok\n", args.out)
    return EXIT_OK


def cmd_homology(args):
    obj, meta = _load(args.file)
    lines = ["component\tdegree\tdim"]
    for key in obj.keys():
        comp = obj.component(key)
        if comp.is_zero():
            continue
        hd = homology_dims(comp)
        if not hd:
            lines.append(f"{doc_mod._key_to_str(key)}\t-\t0")
        for d in sorted(hd):
            lines.append(f"{doc_mod._key_to_str(key)}\t{d}\t{hd[d]}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_free(args):
    _at_least(("--max-arity", args.max_arity, 0), ("--max-dim", args.max_dim, 0))
    obj, meta = _load(args.file)
    if isinstance(obj, ModularSigmaModule):
        if args.max_dim is None:
            raise SystemExit2("--max-dim is required for modular generators")
        op = free_modular_operad(obj, args.max_dim)
    elif isinstance(obj, SigmaModule):
        if args.max_arity is None:
            raise SystemExit2("--max-arity is required for operad generators")
        op = free_operad(obj, args.max_arity)
    else:
        raise SystemExit2("free construction expects a sigma-module document")
    out_doc = doc_mod.to_document(op, name=f"free({meta.get('name', '')})",
                                  seed=meta.get("seed", 0))
    _emit_document(out_doc, args.out)
    return EXIT_OK


def cmd_minimal_model(args):
    _at_least(("--max", args.max, 0))
    obj, meta = _load_operad(args)
    mm = minimal_model(obj, args.max, seed=args.seed)
    # each attachment in the layout of its level, before its generators
    builder = mm.operad.free
    tower_doc = []
    for level in mm.tower:
        entry = {"level": level, "components": {}}
        for key, ga in builder.gens.items():
            if mm.operad.level(key) != level:
                continue
            entry["components"][doc_mod._key_to_str(key)] = {
                "dims": {str(d): n for d, n in sorted(ga.complex.dims.items())},
                "attachment": {
                    str(d): doc_mod.matrix_to_lists(
                        builder.placed_without_corolla(key, d - 1, blocks))
                    for d, blocks in sorted(
                        builder.attachments.get(key, {}).items())},
            }
        tower_doc.append(entry)
    out_doc = doc_mod.to_document(
        mm.operad, name=f"minimal-model({meta.get('name', '')})",
        seed=args.seed, tower=tower_doc)
    _emit_document(out_doc, args.out)
    return EXIT_OK


def cmd_check_formality(args):
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise MalformedArgument(
            f"--alpha {args.alpha!r} is not a rational number") from None
    try:
        WeightFunction(alpha)
    except ValueError as exc:
        raise MalformedArgument(f"--alpha {args.alpha}: {exc}") from None
    _at_least(("--max", args.max, 0))
    obj, meta = _load_operad(args)
    witness = formality_check(obj, up_to=args.max, alpha=alpha,
                              seed=args.seed)
    if witness is None:
        _emit("inconclusive\n", args.out)
        return EXIT_OK
    out_doc = doc_mod.witness_to_document(
        witness, alpha, name=meta.get("name", ""), seed=args.seed)
    _emit_document(out_doc, args.out)
    return EXIT_OK


def _tree_to_text(tree):
    if tree.is_leaf:
        return str(tree.label)
    return "(" + " ".join(_tree_to_text(c) for c in tree.children) + ")"


def cmd_enumerate(args):
    g, l = args.stable_graphs or (None, None)
    _at_least(("--trees", args.trees, 0), ("--stable-graphs G", g, 0),
              ("--stable-graphs L", l, 0))
    if args.trees is not None:
        trees = enumerate_trees(args.trees)
        if args.json:
            payload = [{"leaves": args.trees,
                        "vertices": t.vertex_valences(),
                        "tree": _tree_to_text(t)} for t in trees]
            _emit_document(payload, args.out)
        else:
            lines = [f"reduced trees with {args.trees} leaves: {len(trees)}"]
            lines.extend(_tree_to_text(t) for t in trees)
            _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if not is_stable(g, l):
        raise MalformedArgument(f"--stable-graphs {g} {l} is unstable")
    graphs = enumerate_stable_graphs(g, l)
    if args.json:
        payload = []
        for gr in graphs:
            payload.append({"genera": list(gr.genera),
                            "legs": list(gr.legs),
                            "edges": [list(e) for e in gr.edges],
                            "automorphisms": len(graph_automorphisms(gr))})
        _emit_document(payload, args.out)
    else:
        lines = [f"stable graphs of genus {g} with {l} legs: {len(graphs)}"]
        for gr in graphs:
            lines.append(f"genera={gr.genera} legs={gr.legs} "
                         f"edges={gr.edges} |Aut|={len(graph_automorphisms(gr))}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_alt_check(args):
    from .cubical import (CubicChain, alt, boundary, interval_power,
                          sigma_tau_r_i, compose_maps, perm_map, delta_map)
    from .sigma import all_permutations
    _at_least(("--dim", args.dim, 1), ("--trials", args.trials, 0))
    rng = random.Random(args.seed)
    failures = []
    space = interval_power(args.dim)
    cubes = space.nondegenerate_cubes(args.dim)
    for trial in range(args.trials):
        coeffs = {rng.choice(cubes): Fraction(rng.randint(-3, 3))
                  for _ in range(3)}
        chain = CubicChain(space, args.dim, coeffs)
        if boundary(alt(chain)) != alt(boundary(chain)):
            failures.append(f"trial {trial}: d(alt) != alt(d)")
    n = min(args.dim + 1, 4)
    for tau in all_permutations(n - 1):
        for r in range(1, n + 1):
            for i in range(1, n + 1):
                sigma = sigma_tau_r_i(tau, r, i)
                for eps in (0, 1):
                    lhs = compose_maps(perm_map(sigma), delta_map(n, i, eps))
                    rhs = compose_maps(delta_map(n, r, eps), perm_map(tau))
                    if lhs != rhs:
                        failures.append(
                            f"face identity fails at n={n}, tau={tau.images},"
                            f" r={r}, i={i}")
    if failures:
        _emit("\n".join(failures) + "\n", args.out)
        return EXIT_FAILURE
    _emit(f"alt-check passed: dim={args.dim} trials={args.trials} "
          f"seed={args.seed}\n", args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="operad-forge",
        description="computer algebra for dg operads and modular operads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a document")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="per-component homology dimensions")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("free", help="free operad on a sigma-module")
    p.add_argument("file")
    p.add_argument("--max-arity", type=int)
    p.add_argument("--max-dim", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("minimal-model", help="inductive minimal model")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minimal_model)

    p = sub.add_parser("check-formality",
                       help="search for a formality witness")
    p.add_argument("file")
    p.add_argument("--alpha", default="2")
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_formality)

    p = sub.add_parser("enumerate", help="trees or stable graphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trees", type=int, metavar="N")
    group.add_argument("--stable-graphs", type=int, nargs=2,
                       metavar=("G", "L"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("alt-check",
                       help="alternating-operator identities on products")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_alt_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, MalformedArgument) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
