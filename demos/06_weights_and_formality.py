#!/usr/bin/env python3
"""Weight decompositions and formality certificates.

A pure endomorphism (all homology eigenvalues in degree i equal to
alpha^i) splits a complex into weight subcomplexes; keeping the
canonical truncation of each weight part yields a subobject weakly
equivalent to both the object and its homology.  Applied componentwise
this certifies formality of an operad; the search direction lifts the
grading automorphism of the homology through the minimal model, and
reports "inconclusive" when every candidate in the window is
obstructed.
"""

from fractions import Fraction

from operad_forge import (
    ChainComplex,
    ChainMap,
    GroupAction,
    Matrix,
    SigmaModule,
    WeightFunction,
    formality_check,
    free_operad,
    grading_automorphism,
    purity_check,
    t_functor,
    weight_decompose,
)
from operad_forge.free import FreeOperadBuilder

w = WeightFunction(Fraction(2))

c = ChainComplex({0: 2, 1: 1, 3: 1})
f = grading_automorphism(c, 2)
decomp = weight_decompose(c, f, w)
print("weights present under the grading automorphism:", decomp.weights())

g = ChainMap(c, c, {0: Matrix.diagonal([3, 1]), 1: Matrix.from_rows([[2]]),
                    3: Matrix.from_rows([[8]])})
decomp = weight_decompose(c, g, w)
print("eigenvalue 3 is not a power of 2; residual dims:",
      {d: decomp.residual_dim(d) for d in c.dims})

res = t_functor(c, f, w)
print("weight truncation of a zero-differential complex is everything:",
      res.complex.dims == c.dims)

# a formal operad: free on a mixed-degree generator, zero differential
mixed = SigmaModule({2: GroupAction.trivial(2, ChainComplex({0: 1, 1: 1}))})
op = free_operad(mixed, 3)
witness = formality_check(op, up_to=3, alpha=2)
print("\nfree operad: witness found:", witness is not None)
print("zigzag:", " -> ".join(label for label, _ in witness.arrows))
print("all arrows are weak equivalences:", witness.verify())

# an obstructed one: odd binary generator, ternary generator killing the
# symmetrized double composite; the candidate automorphism is forced to
# act by alpha^3 on a degree-4 homology class
ga2 = GroupAction.trivial(2, ChainComplex({1: 1}))
ga3 = GroupAction.trivial(3, ChainComplex({3: 1}))
builder = FreeOperadBuilder({2: ga2}, 4)
# the ternary generator's attachment in summand coordinates: 1 on each
# two-vertex tree, the summands of arity 3 before its own corolla
builder.add({3: ga3}, {3: {3: {
    tree: Matrix.from_rows([[1]]) for tree, _ in builder.summands[3]}}})
obstructed = builder.finish()
print("\nobstructed fixture:",
      "inconclusive" if formality_check(obstructed, up_to=4, alpha=2) is None
      else "witness (unexpected)")
