"""Independent dimension oracles for the free constructions.

``tree_sum_dims``: the free operad on a Sigma-module E has, in arity n,
one summand per reduced leaf-labelled tree, of dimension the product of
the vertex dimensions.  Its exponential generating function therefore
satisfies F = x + sum_k e_k F^k / k!, with e_k the Poincare polynomial of
E(k); this is solved degree by degree with no tree machinery.

``graph_count_dims``: for modular generators with trivial action in even
degrees, each stable graph whose vertex types all carry a generator
contributes one dimension, in the sum of the vertex degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def _poly_mul(a, b):
    out = {}
    for da, xa in a.items():
        for db, xb in b.items():
            out[da + db] = out.get(da + db, 0) + xa * xb
    return out


def _series_mul(a, b, order):
    out = [dict() for _ in range(order + 1)]
    for i, pa in enumerate(a):
        if not pa:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                for d, x in _poly_mul(pa, b[j]).items():
                    out[i + j][d] = out[i + j].get(d, 0) + x
    return out


def tree_sum_dims(gen_dims, max_arity):
    """Expected ``{arity: {degree: dim}}`` of the free operad.

    ``gen_dims`` maps an arity k >= 2 to ``{degree: dim}`` of E(k)."""
    order = max_arity
    x = [dict() for _ in range(order + 1)]
    x[1] = {0: Fraction(1)}
    f = x
    # each round fixes one more arity of the fixed point
    for _ in range(order):
        new = [dict(c) for c in x]
        power = f
        for k in range(2, order + 1):
            power = _series_mul(power, f, order)
            for n, coeff in enumerate(power):
                for d, v in _poly_mul(gen_dims.get(k, {}), coeff).items():
                    new[n][d] = new[n].get(d, 0) + v / factorial(k)
        f = new
    out = {}
    for n in range(2, order + 1):
        dims = {d: int(v * factorial(n)) for d, v in f[n].items() if v}
        if dims:
            out[n] = dims
    return out


def graph_count_dims(gen_degrees, max_dim, stable_pairs, stable_graphs):
    """Expected ``{(g, l): {degree: dim}}`` of the free modular operad.

    ``gen_degrees`` maps a vertex type (g, n) to the even degree of its
    one-dimensional, trivially acted generator; ``stable_pairs`` and
    ``stable_graphs`` enumerate the window and its graphs."""
    out = {}
    for g, l in stable_pairs(max_dim):
        dims = {}
        for graph in stable_graphs(g, l):
            types = [graph.vertex_type(v) for v in range(graph.n_vertices)]
            if all(t in gen_degrees for t in types):
                d = sum(gen_degrees[t] for t in types)
                dims[d] = dims.get(d, 0) + 1
        if dims:
            out[(g, l)] = dims
    return out
