"""Seeded inputs, job execution and per-job checks for each workload.

``write_inputs`` runs in the set-up process: it builds the workload's
input documents from the seed and writes them with ``plan.json``, the
job list.  ``Session`` runs the library workloads' jobs inside one
worker process; ``check_free_output`` checks a ``free`` CLI document.
Every check runs outside the job's timer.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from fractions import Fraction

from oracles import graph_count_dims, tree_sum_dims

WORKLOADS = ("free-emit", "ideal-quotient", "model-lift", "cubical-alt")
FIXTURES = os.path.join("tests", "fixtures")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- input generators -----------------------------------------------------------


def _action(n, complex_, sign):
    """Trivial or sign action of Sigma_n on a complex."""
    from operad_forge.chain import ChainMap
    from operad_forge.qlinalg import Matrix
    from operad_forge.sigma import GroupAction
    if not sign:
        return GroupAction.trivial(n, complex_)
    neg = ChainMap(complex_, complex_,
                   {d: Matrix.identity(k).scale(-1)
                    for d, k in complex_.dims.items()})
    return GroupAction(n, complex_, [neg] * (n - 1))


def _commutative(window, coeff):
    """Trivial one-dimensional component in every arity; every
    composition is ``coeff`` times the canonical isomorphism."""
    from operad_forge.chain import ChainComplex
    from operad_forge.operad import CompTable, DGOperad
    from operad_forge.sigma import GroupAction, SigmaModule
    actions = {n: GroupAction.trivial(n, ChainComplex({0: 1}))
               for n in range(2, window + 1)}
    comp = {}
    for l in range(2, window + 1):
        for m in range(2, window + 2 - l):
            for i in range(1, l + 1):
                table = CompTable()
                table.add(0, 0, 0, 0, 0, Fraction(coeff))
                comp[(l, i, m)] = table
    return DGOperad(SigmaModule(actions), comp, window)


def _mixed_binary(degree):
    """Binary generator in degrees d and d + 1, acted on by (+1, -1)."""
    from operad_forge.chain import ChainComplex, ChainMap
    from operad_forge.qlinalg import Matrix
    from operad_forge.sigma import GroupAction, SigmaModule
    c = ChainComplex({degree: 1, degree + 1: 1})
    act = ChainMap(c, c, {degree: Matrix.from_rows([[1]]),
                          degree + 1: Matrix.from_rows([[-1]])})
    return SigmaModule({2: GroupAction(2, c, [act])})


def _write_doc(out_dir, name, obj, label, seed):
    from operad_forge import document
    text = document.dumps(document.to_document(obj, name=label, seed=seed))
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _free_emit_inputs(rng, seed, out_dir):
    from operad_forge.chain import ChainComplex
    from operad_forge.sigma import ModularSigmaModule, SigmaModule
    jobs = []
    # the two stress rows run on byte copies of the golden generators
    for name, flag, cap, oracle in (
            ("binary_generator.json", "--max-arity", 6,
             {"tree": {"2": {"0": 1}}}),
            ("modular_generator_03.json", "--max-dim", 3,
             {"graph": {"0,3": 0}})):
        shutil.copyfile(os.path.join(FIXTURES, name),
                        os.path.join(out_dir, name))
        jobs.append({"doc": name, "flag": flag, "cap": cap, "oracle": oracle})
    for rep in range(2):
        for arity in (2, 3):
            for sign in (False, True):
                for cap in (4, 5):
                    degree = rng.choice((0, 1, 2))
                    name = f"op_{rep}_{arity}_{int(sign)}_{cap}.json"
                    module = SigmaModule({arity: _action(
                        arity, ChainComplex({degree: 1}), sign)})
                    _write_doc(out_dir, name, module, name[:-5], seed)
                    jobs.append({"doc": name, "flag": "--max-arity",
                                 "cap": cap, "oracle": {"tree": {
                                     str(arity): {str(degree): 1}}}})
        for types in (((0, 3),), ((1, 1),), ((0, 3), (1, 1))):
            for cap in (1, 2):
                degrees = {t: rng.choice((0, 2)) for t in types}
                tag = "_".join(f"{g}{n}" for g, n in types)
                name = f"mod_{rep}_{tag}_{cap}.json"
                module = ModularSigmaModule({
                    t: _action(t[1], ChainComplex({d: 1}), False)
                    for t, d in degrees.items()})
                _write_doc(out_dir, name, module, name[:-5], seed)
                jobs.append({"doc": name, "flag": "--max-dim", "cap": cap,
                             "oracle": {"graph": {f"{g},{n}": d for (g, n), d
                                                  in degrees.items()}}})
    return jobs


def _ideal_quotient_inputs(rng, seed, out_dir):
    from operad_forge.chain import ChainComplex
    from operad_forge.free import free_operad
    from operad_forge.sigma import SigmaModule
    coeff = rng.choice((1, 2, -1, 3, Fraction(1, 2)))
    families = {
        "commutative.json": (_commutative(5, coeff), 5),
        "free_trivial.json": (free_operad(SigmaModule({2: _action(
            2, ChainComplex({rng.choice((0, 2)): 1}), False)}), 5), 5),
        "free_sign.json": (free_operad(SigmaModule({2: _action(
            2, ChainComplex({rng.choice((0, 2)): 1}), True)}), 5), 5),
        # window 4: at window 5 the mixed document is 37 MB
        "free_mixed.json": (free_operad(
            _mixed_binary(rng.choice((0, 2))), 4), 4),
    }
    jobs = []
    for name, (op, window) in families.items():
        _write_doc(out_dir, name, op, name[:-5], seed)
        for n, up_to in ((2, 4), (3, 4), (2, 5)):
            # (3, 4) on the mixed generator takes 40 s; left out
            if up_to <= window and not (name == "free_mixed.json" and n == 3):
                jobs.append({"kind": "extend", "doc": name, "n": n,
                             "up_to": up_to})
    return jobs


def _model_lift_inputs(rng, seed, out_dir):
    from operad_forge.chain import ChainComplex
    from operad_forge.free import endomorphism_modular_operad
    from operad_forge.qlinalg import Matrix
    for name in ("commutative_window3.json", "endomorphism_dim1.json"):
        shutil.copyfile(os.path.join(FIXTURES, name),
                        os.path.join(out_dir, name))
    _write_doc(out_dir, "endomorphism_dim1_window2.json",
               endomorphism_modular_operad(
                   ChainComplex({0: 1}), Matrix.from_rows([[1]]), 2),
               "endomorphism dim 1 window 2", seed)
    _write_doc(out_dir, "commutative_window4.json", _commutative(4, 1),
               "commutative window 4", seed)
    jobs = []
    # two rounds with fresh model seeds, then one certificate
    for rnd in range(2):
        for doc in ("commutative_window3.json", "endomorphism_dim1.json",
                    "endomorphism_dim1_window2.json"):
            a, b, c = (rng.randrange(1, 10 ** 6) for _ in range(3))
            ma, mb = f"a{rnd}", f"b{rnd}"
            jobs += [
                {"kind": "minimal_model", "doc": doc, "seed": a, "slot": ma},
                {"kind": "minimal_model", "doc": doc, "seed": b, "slot": mb},
                {"kind": "is_minimal", "doc": doc, "model": ma},
                {"kind": "weak_equivalence_test", "doc": doc, "model": ma},
                {"kind": "iso_between_minimal", "doc": doc,
                 "models": [ma, mb]},
                {"kind": "formality_check", "doc": doc, "seed": c},
            ]
    # uniqueness certificate: two lifts of the commutative window-4 model
    doc = "commutative_window4.json"
    jobs.append({"kind": "minimal_model", "doc": doc, "seed": 0,
                 "slot": "m"})
    for slot in ("phi1", "phi2"):
        jobs.append({"kind": "lift", "doc": doc, "model": "m",
                     "seed": rng.randrange(1, 10 ** 6), "slot": slot})
    for arity in (2, 3, 4):
        jobs.append({"kind": "homotopy_solve", "doc": doc, "arity": arity,
                     "maps": ["phi1", "phi2"], "slot": f"h{arity}"})
        jobs.append({"kind": "check_homotopy", "doc": doc, "arity": arity,
                     "maps": ["phi1", "phi2"], "homotopy": f"h{arity}"})
    return jobs


def _chain_spec(rng, space, dim, terms):
    # coefficients +-2^k: no signed sum of them vanishes, so alt(c) never
    # cancels to zero and the output size does not swing with the seed
    return {"space": space, "dim": dim,
            "terms": [[rng.randrange(10 ** 6), rng.choice((-1, 1)) * 2 ** k]
                      for k in range(terms)]}


def _cubical_alt_inputs(rng, seed, out_dir):
    # most jobs in one class (4-chains on I^5), so the median job sits
    # inside a class rather than between two
    jobs = []
    for _ in range(6):
        jobs.append({"kind": "alt", "chain": _chain_spec(rng, 4, 4, 3)})
        jobs.append({"kind": "alt", "chain": _chain_spec(rng, 5, 5, 3)})
        jobs.append({"kind": "cross", "left": _chain_spec(rng, 4, 4, 2),
                     "right": _chain_spec(rng, 1, 1, 1)})
    for _ in range(14):
        jobs.append({"kind": "alt", "chain": _chain_spec(rng, 5, 4, 6)})
    return jobs


_INPUTS = {
    "free-emit": _free_emit_inputs,
    "ideal-quotient": _ideal_quotient_inputs,
    "model-lift": _model_lift_inputs,
    "cubical-alt": _cubical_alt_inputs,
}


def write_inputs(workload, seed, out_dir):
    """Write the seeded input documents and ``plan.json`` to ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _INPUTS[workload](rng, seed, out_dir)
    for index, job in enumerate(jobs):
        job["id"] = index
    with open(os.path.join(out_dir, "plan.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, fh,
                  indent=1, sort_keys=True)


# -- free-emit checks -------------------------------------------------------------


class FreeOracle:
    """Expected component dimensions of ``free`` outputs, memoised."""

    def __init__(self):
        self._memo = {}

    def expected(self, job):
        key = json.dumps([job["oracle"], job["cap"]], sort_keys=True)
        if key not in self._memo:
            self._memo[key] = self._compute(job["oracle"], job["cap"])
        return self._memo[key]

    @staticmethod
    def _compute(oracle, cap):
        if "tree" in oracle:
            gens = {int(k): {int(d): n for d, n in dims.items()}
                    for k, dims in oracle["tree"].items()}
            return {str(k): dims for k, dims in
                    tree_sum_dims(gens, cap).items()}
        from operad_forge.sigma import stable_pairs_up_to
        from operad_forge.trees import enumerate_stable_graphs
        degrees = {tuple(int(x) for x in k.split(",")): d
                   for k, d in oracle["graph"].items()}
        dims = graph_count_dims(degrees, cap, stable_pairs_up_to,
                                enumerate_stable_graphs)
        return {f"{g},{l}": d for (g, l), d in dims.items()}


def check_free_output(data, job, oracle):
    """The emitted document's component dims equal the oracle's."""
    doc = json.loads(data)
    got = {key: {int(d): n for d, n in comp["dims"].items()}
           for key, comp in doc["components"].items() if comp["dims"]}
    return got == oracle.expected(job)


# -- library sessions ---------------------------------------------------------------


def _emitted(doc):
    from operad_forge import document
    return document.dumps(doc).encode("utf-8")


def _canonical(value):
    """Stable bytes for a non-document result."""
    return repr(value).encode("utf-8")


class Session:
    """One library session: runs and checks a workload's jobs.

    ``state`` holds the results of earlier jobs of the same pass, which
    later jobs (``is_minimal`` on a model, ``check_homotopy`` on a
    homotopy) consume."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.ops = {}
        self.state = {}
        if workload == "model-lift":
            from operad_forge import document
            for name in sorted(os.listdir(inputs)):
                if name.endswith(".json") and name != "plan.json":
                    self.ops[name] = document.load(
                        os.path.join(inputs, name))[0]
        if workload == "cubical-alt":
            from operad_forge.cubical import interval_power
            i5 = interval_power(5)
            self.spaces = {5: i5, 4: i5.left, 1: i5.right}
            self._cubes = {}

    def new_pass(self):
        self.state = {}

    # - ideal-quotient

    def _extend(self, job):
        from operad_forge import document
        from operad_forge.free import extend_freely
        from operad_forge.operad import truncate, validate
        with open(os.path.join(self.inputs, job["doc"]), encoding="utf-8") \
                as fh:
            op, _ = document.from_document(document.loads(fh.read()))
        tn = truncate(op, job["n"])
        ext = extend_freely(tn, job["up_to"])
        return tn, ext, validate(ext)

    def _check_extend(self, job, result):
        from operad_forge import document
        from operad_forge.operad import truncate
        tn, ext, report = result
        ok = report == [] and \
            truncate(ext, job["n"]).total_dims() == tn.total_dims()
        return ok, _emitted(document.to_document(ext, name=job["doc"]))

    # - model-lift

    def _model(self, job, name):
        return self.state[(job["doc"], name)]

    def _window(self, op):
        return getattr(op, "max_arity", None) or op.max_dim

    def _run_model_lift(self, job):
        from operad_forge.chain import check_homotopy, homotopy_solve
        from operad_forge.minimal import (is_minimal, iso_between_minimal,
                                          lift, minimal_model)
        from operad_forge.operad import weak_equivalence_test
        from operad_forge.weight import formality_check
        op = self.ops[job["doc"]]
        kind = job["kind"]
        if kind == "minimal_model":
            return minimal_model(op, self._window(op), seed=job["seed"])
        if kind == "is_minimal":
            return is_minimal(self._model(job, job["model"]).operad)
        if kind == "weak_equivalence_test":
            return weak_equivalence_test(self._model(job, job["model"])
                                         .morphism)
        if kind == "iso_between_minimal":
            a, b = (self._model(job, m) for m in job["models"])
            return iso_between_minimal(a, b)
        if kind == "formality_check":
            return formality_check(op, up_to=self._window(op), alpha=2,
                                   seed=job["seed"])
        if kind == "lift":
            mm = self._model(job, job["model"])
            return lift(mm.morphism, mm.morphism, mm, seed=job["seed"])[0]
        f, g = (self._model(job, m).block(job["arity"]) for m in job["maps"])
        if kind == "homotopy_solve":
            return homotopy_solve(f, g)
        return check_homotopy(f, g, self._model(job, job["homotopy"]))

    def _check_model_lift(self, job, result):
        from operad_forge import document
        from operad_forge.minimal import is_minimal
        kind = job["kind"]
        if kind == "minimal_model":
            ok = is_minimal(result.operad)[0]
            data = _emitted(document.to_document(
                result.operad, name=job["doc"], seed=job["seed"]))
        elif kind in ("is_minimal", "weak_equivalence_test"):
            ok = bool(result[0])
            data = _canonical(result)
        elif kind == "iso_between_minimal":
            ok = result.is_iso() and result.validate() == []
            data = _emitted(document.morphism_to_doc(result))
        elif kind == "formality_check":
            ok = result is not None and result.verify()
            data = _emitted(document.witness_to_document(
                result, 2, name=job["doc"], seed=job["seed"])) if ok else b""
        elif kind == "lift":
            ok = result.validate() == []
            data = _emitted(document.morphism_to_doc(result))
        elif kind == "homotopy_solve":
            ok = result is not None
            data = _emitted({str(d): document.matrix_to_lists(m)
                             for d, m in sorted((result or {}).items())})
        else:
            ok = result is True
            data = _canonical(result)
        return ok, data

    # - cubical-alt

    def _chain(self, spec):
        from operad_forge.cubical import CubicChain
        space = self.spaces[spec["space"]]
        key = (spec["space"], spec["dim"])
        if key not in self._cubes:
            self._cubes[key] = [c for c in space.cubes(spec["dim"])
                                if not space.is_degenerate(c)]
        cubes = self._cubes[key]
        coeffs = {}
        for index, coeff in spec["terms"]:
            cube = cubes[index % len(cubes)]
            coeffs[cube] = coeffs.get(cube, 0) + coeff
        return CubicChain(space, spec["dim"], coeffs)

    def _run_cubical(self, job):
        from operad_forge.cubical import alt, boundary, cross
        if job["kind"] == "cross":
            chain = cross(self._chain(job["left"]), self._chain(job["right"]),
                          product=self.spaces[5])
        else:
            chain = self._chain(job["chain"])
        return boundary(alt(chain)), alt(boundary(chain))

    @staticmethod
    def _check_cubical(job, result):
        lhs, rhs = result
        terms = sorted((repr(c), str(x)) for c, x in lhs.coeffs.items())
        return lhs == rhs, _canonical(terms)

    # - dispatch

    def run(self, job):
        """Run one job; its result is kept for later jobs of the pass."""
        if self.workload == "ideal-quotient":
            result = self._extend(job)
        elif self.workload == "model-lift":
            result = self._run_model_lift(job)
        else:
            result = self._run_cubical(job)
        if "slot" in job:
            self.state[(job.get("doc"), job["slot"])] = result
        return result

    def check(self, job, result):
        """``(ok, emitted bytes)`` for a job's result."""
        if self.workload == "ideal-quotient":
            return self._check_extend(job, result)
        if self.workload == "model-lift":
            return self._check_model_lift(job, result)
        return self._check_cubical(job, result)
