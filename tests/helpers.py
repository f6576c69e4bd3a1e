"""Shared test utilities: random complexes and small oracles."""

import contextlib
import functools
import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from math import factorial, lcm

import pytest

from operad_forge import document
from operad_forge.chain import (
    ChainComplex,
    ChainMap,
    HomologyRecord,
    TensorData,
    check_homotopy,
    mapping_cone,
    subcomplex,
)
from operad_forge.cubical import (
    CubicChain,
    FiniteCubicalSet,
    ProductCubicalSet,
    compose_maps,
    delta_map,
    perm_map,
)
from operad_forge.operad import OperadMorphism, _Images
from operad_forge.qlinalg import (
    F0,
    F1,
    EigenSplit,
    Matrix,
    Subspace,
    _combine,
    _eliminate,
    _frac,
    _Frozen,
    _leading,
    _setfield,
    _span,
    char_poly,
    image,
    kernel,
    rref,
    solve,
    solve_matrix,
    sparse_row,
)
from operad_forge.sigma import (
    Coinvariants,
    GroupAction,
    Permutation,
    all_permutations,
)
from operad_forge.trees import (
    ConcreteGraph,
    StableGraph,
    Tree,
    _set_partitions,
    leaf,
    node,
)
from operad_forge.weight import WeightFunction, grading_automorphism, t_functor


# -- dense vectors --------------------------------------------------------
# The engine passes every vector as a sparse row (sorted nonzero
# ``(index, Fraction)`` pairs); tests that state a vector densely convert
# it with these.


def to_sparse(vec):
    """The sparse vector of a dense one."""
    return sparse_row({j: Fraction(x) for j, x in enumerate(vec)})


def to_dense(vec, n):
    """The length-n dense tuple of a sparse vector."""
    out = [F0] * n
    for j, x in vec:
        out[j] = x
    return tuple(out)


def dense_col(m, j):
    """Column j of m as a dense tuple."""
    return tuple(r[j] for r in m.data)


def dense_row(m, i):
    """Row i of m as a dense tuple."""
    return m.data[i]


def dense_cols(cols):
    """The matrix with the given dense columns (at least one)."""
    return Matrix.from_rows(cols).transpose()


# -- dense references -----------------------------------------------------
# The vector routines as they were before every vector became a sparse row;
# the engine's sparse ones must agree with them exactly.


def dense_apply(m, vec):
    """Matrix times a dense column vector, as a dense tuple."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    vec = [x if type(x) is Fraction else Fraction(x) for x in vec]
    out = []
    for r in m.sparse:
        acc = F0
        for k, a in r:
            x = vec[k]
            if x:
                acc += a * x
        out.append(acc)
    return tuple(out)


def dense_table_apply(table, target_dim, *args):
    """``CompTable.apply(d1, v1, ...)`` on dense vectors v1, ..., as a
    dense tuple: one product of coefficients per choice of a nonzero
    entry from each vector."""
    out = [F0] * target_dim
    block = table.entries.get(args[::2])
    if not block:
        return tuple(out)
    nonzeros = [[(k, c) for k, c in enumerate(v) if c] for v in args[1::2]]
    for choice in itertools.product(*nonzeros):
        cell = block.get(tuple(k for k, _ in choice))
        if cell:
            c = F1
            for _, x in choice:
                c *= x
            for r, coeff in cell.items():
                out[r] += c * coeff
    return tuple(out)


def table_cells(table):
    """``(d1, k1, ..., row, coeff)`` for each entry of a ``CompTable``,
    the arguments of the ``add`` calls that rebuild it, sorted by
    degrees, then basis indices, then row."""
    for degrees, block in sorted(table.entries.items()):
        for indices, cell in sorted(block.items()):
            for row, coeff in sorted(cell.items()):
                yield (*(x for pair in zip(degrees, indices) for x in pair),
                       row, coeff)


def dense_split(sub, vec):
    """``Subspace._split`` on a dense vector: (dense coordinates, dense
    residual)."""
    v = [Fraction(x) for x in vec]
    if len(v) != sub.ambient_dim:
        raise ValueError("vector length mismatch")
    coords = tuple(v[p] for p in sub.pivots)
    for c, nonzero in zip(coords, sub._entries):
        if c != 0:
            for r, x in nonzero:
                v[r] -= c * x
    return coords, tuple(v)


def dense_solve(m, b):
    """``solve`` on a dense right-hand side: a dense solution or None."""
    b = tuple(b)
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    x = solve_matrix(m, Matrix(len(b), 1, [[v] for v in b]))
    return None if x is None else dense_col(x, 0)


def random_invertible(rng, n, bound=2):
    """Random invertible integer matrix (unit upper x unit lower triangular)."""
    upper = [[F1 if i == j else (Fraction(rng.randint(-bound, bound)) if j > i else F0)
              for j in range(n)] for i in range(n)]
    lower = [[F1 if i == j else (Fraction(rng.randint(-bound, bound)) if j < i else F0)
              for j in range(n)] for i in range(n)]
    return Matrix(n, n, upper) * Matrix(n, n, lower)


def random_complex(rng, degree_span=(0, 3), max_cells=3):
    """Random finite complex: spheres and disks in a random basis.

    Built as a sum of elementary summands, then conjugated by a random
    invertible change of basis per degree, so d*d = 0 holds exactly
    while the matrices look generic.
    """
    lo, hi = degree_span
    dims = {}
    pieces = []  # (kind, degree): sphere contributes degree; disk degrees (k+1, k)
    for _ in range(rng.randint(1, max_cells)):
        k = rng.randint(lo, hi - 1)
        if rng.random() < 0.5:
            pieces.append(("sphere", rng.randint(lo, hi)))
        else:
            pieces.append(("disk", k))
    for kind, k in pieces:
        dims[k] = dims.get(k, 0) + 1
        if kind == "disk":
            dims[k + 1] = dims.get(k + 1, 0) + 1
    diff = {}
    offsets = {}
    counters = {k: 0 for k in dims}
    spots = {}
    for idx, (kind, k) in enumerate(pieces):
        spots[idx] = {}
        spots[idx][k] = counters[k]
        counters[k] += 1
        if kind == "disk":
            spots[idx][k + 1] = counters[k + 1]
            counters[k + 1] += 1
    for i in sorted(dims):
        rows, cols = dims.get(i - 1, 0), dims[i]
        if rows and cols:
            grid = [[F0] * cols for _ in range(rows)]
            for idx, (kind, k) in enumerate(pieces):
                if kind == "disk" and k + 1 == i:
                    grid[spots[idx][k]][spots[idx][k + 1]] = F1
            diff[i] = Matrix(rows, cols, grid)
    basis = {i: random_invertible(rng, n) for i, n in dims.items()}
    inv = {i: invert(basis[i]) for i in dims}
    newdiff = {}
    for i, m in diff.items():
        newdiff[i] = inv[i - 1] * m * basis[i]
    return ChainComplex(dims, newdiff)


def invert(m):
    out = solve_matrix(m, Matrix.identity(m.rows))
    if out is None:
        raise ValueError("matrix not invertible")
    return out


def random_chain_map(rng, src, dst, bound=2):
    """A random chain map src -> dst (solves the commuting constraints)."""
    from operad_forge.chain import homotopy_solve
    # build as d h + h d for random h (these are always chain maps,
    # null homotopic ones), plus optionally identity-like block when the
    # complexes coincide.
    blocks = {}
    for i in src.dims:
        rows, cols = dst.dim(i + 1), src.dim(i)
        if rows and cols:
            blocks[i] = Matrix(rows, cols,
                               [[Fraction(rng.randint(-bound, bound))
                                 for _ in range(cols)] for _ in range(rows)])
    out = {}
    for i in set(src.dims) | set(dst.dims):
        acc = Matrix.zeros(dst.dim(i), src.dim(i))
        if i in blocks:
            acc = acc + dst.d(i + 1) * blocks[i]
        if i - 1 in blocks:
            acc = acc + blocks[i - 1] * src.d(i)
        out[i] = acc
    return ChainMap(src, dst, out)


# -- hand-built linear systems in unknown matrices --------------------------
# The rows homotopy_solve and the level solver of minimal built by hand
# before qlinalg.MatrixEquations numbered their unknowns, with the
# unflatten readback: a reference for the systems and solutions the
# builder gives.


def unflatten(vec, offset, rows, cols) -> Matrix:
    """The rows x cols Matrix whose entries, row by row, are those of the
    sparse vector vec from index offset on."""
    out = [[] for _ in range(rows)]
    end = offset + rows * cols
    for j, x in vec[bisect_left(vec, (offset,)):]:
        if j >= end:
            break
        r, k = divmod(j - offset, cols)
        out[r].append((k, x))
    return Matrix._trusted(rows, cols, tuple(map(tuple, out)))


def reference_homotopy_system(f, g):
    """(system, rhs, hoffsets) of f - g = d h + h d with the Kronecker
    rows built by hand, h_i : X_i -> Y_{i+1} numbered row by row in
    degree order; None when a block with no unknowns has a nonzero
    target."""
    x, y = f.src, f.dst
    hdegrees = sorted(i for i in x.dims if y.dim(i + 1))
    hoffsets = {}
    total = 0
    for i in hdegrees:
        hoffsets[i] = total
        total += x.dim(i) * y.dim(i + 1)
    rows = []
    rhs = []  # the sparse right-hand side
    for i in set(x.dims) | set(y.dims):
        target = f.block(i) - g.block(i)
        ni, mi = y.dim(i), x.dim(i)
        if ni == 0 or mi == 0:
            if not target.is_zero():
                return None
            continue
        dy = y.d(i + 1).sparse
        dxt = x.d(i).transpose().sparse
        for r in range(ni):
            rhs += [(len(rows) + c, v) for c, v in target.sparse[r]]
            for c in range(mi):
                row = []
                # (h_{i-1} d)[r, c] = sum_k h_{i-1}[r, k] dx[k, c]
                if i - 1 in hoffsets:
                    base = hoffsets[i - 1] + r * x.dim(i - 1)
                    row += [(base + k, v) for k, v in dxt[c]]
                # (d h_i)[r, c] = sum_k dy[r, k] h_i[k, c]; its unknowns
                # come after those of h_{i-1}
                if i in hoffsets:
                    base = hoffsets[i] + c
                    row += [(base + k * mi, v) for k, v in dy[r]]
                rows.append(tuple(row))
    return Matrix._trusted(len(rows), total, tuple(rows)), tuple(rhs), hoffsets


def reference_homotopy_blocks(sol, hoffsets, x, y):
    """The unflatten readback of homotopy_solve: {i: h_i}, zero blocks
    dropped."""
    h = {}
    for i in hoffsets:
        m = unflatten(sol, hoffsets[i], y.dim(i + 1), x.dim(i))
        if not m.is_zero():
            h[i] = m
    return h


def reference_level_rows(mm, q_operad, key, images_so_far):
    """Rows (a) d_Q g = phi_prev o xi and (b) g R_V(s) = R_Q(s) g of the
    level system at key, built by hand, with their sparse right-hand
    side, the offset of each degree's block g_d : V_d -> Q_d (numbered
    row by row in degree order) and the number of unknowns."""
    op = mm.operad
    builder = op.free
    v_act = builder.gens[key]
    vc = v_act.complex
    qc = q_operad.component(key)
    arity = op.legs(key)
    # phi_prev on the decomposable part: the key's own image set to zero
    prev_eval = builder.evaluation(
        q_operad, {**images_so_far, key: ChainMap(vc, qc, {}, check=False)},
        key) if images_so_far else {}
    offsets = {}
    total = 0
    for d in sorted(vc.dims):
        offsets[d] = total
        total += qc.dim(d) * vc.dim(d)

    def var(d, r, k):
        return offsets[d] + r * vc.dim(d) + k

    rows, rhs = [], []
    xi = builder.attachments.get(key, {})
    for d in sorted(vc.dims):
        nv = vc.dim(d)
        dq = qc.d(d)
        target = prev_eval[d - 1] * builder.placed(key, d - 1, xi[d]) \
            if xi.get(d) and d - 1 in prev_eval \
            else Matrix.zeros(qc.dim(d - 1), nv)
        for r in range(qc.dim(d - 1)):
            rhs += [(len(rows) + k, x) for k, x in target.sparse[r]]
            for k in range(nv):
                rows.append(tuple((var(d, rr, k), x)
                                  for rr, x in dq.sparse[r]))
    q_ga = q_operad.group_action(key)
    for j in range(1, arity):
        sigma = Permutation.transposition(arity, j)
        rv = v_act.action(sigma)
        rq = q_ga.action(sigma) if q_ga else None
        for d in sorted(vc.dims):
            nv, nq = vc.dim(d), qc.dim(d)
            rv_cols = rv.block(d).transpose().sparse
            rqb = rq.block(d) if rq else Matrix.identity(nq)
            for r in range(nq):
                for k in range(nv):
                    row = {var(d, r, kk): x for kk, x in rv_cols[k]}
                    for rr, x in rqb.sparse[r]:
                        v = var(d, rr, k)
                        row[v] = row.get(v, F0) - x
                    rows.append(sparse_row(row))
    return rows, rhs, offsets, total


def reference_level_blocks(system, rhs, offsets, vc, qc, key, seed):
    """The level solver's solution of system x = rhs (None when there is
    none), moved by its seeded kernel draws, read back with unflatten:
    {d: g_d}, zero blocks dropped."""
    sol = solve(system, rhs) if system.rows else ()
    if sol is None:
        return None
    if seed:
        rng = random.Random(f"{seed}:lift:{key}")
        ker = kernel(system)
        if ker.dim:
            draws = sparse_row({i: Fraction(rng.randint(-1, 1))
                                for i in range(ker.dim)})
            sol = _combine(sol, ker.basis.apply(draws), F1)
    blocks = {}
    for d in sorted(vc.dims):
        m = unflatten(sol, offsets[d], qc.dim(d), vc.dim(d))
        if not m.is_zero():
            blocks[d] = m
    return blocks


# -- reference eigen split by the characteristic polynomial ----------------
# Multiplicities by exact division of the characteristic polynomial, the
# residual as the kernel of the leftover polynomial at m: a reference for
# the engine's kernel-chain rational_eigen_split, with the polynomial
# helpers the tests use.


def poly_eval(coeffs, x):
    acc = F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_matrix(coeffs, m: Matrix) -> Matrix:
    n = m.rows
    acc = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    for c in reversed(coeffs):
        acc = m * acc + ident.scale(c)
    return acc


def _poly_divide_linear(coeffs, root):
    """Divide polynomial by (t - root); requires root to be a root."""
    n = len(coeffs) - 1
    out = [F0] * n
    acc = F0
    for k in range(n, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    rem = coeffs[0] + acc * root
    if rem != 0:
        raise ValueError("not a root")
    return out


def charpoly_eigen_split(m: Matrix, eigenvalues) -> EigenSplit:
    """Split off the generalized eigenspaces of the given eigenvalues.

    Each multiplicity is the number of exact divisions of the
    characteristic polynomial by (t - eigenvalue); no roots are searched.
    """
    if m.rows != m.cols:
        raise ValueError("eigen split of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    pairs = []
    remaining = list(char_poly(m))
    for lam in sorted({_frac(x) for x in eigenvalues}):
        mult = 0
        while len(remaining) > 1 and poly_eval(remaining, lam) == 0:
            remaining = _poly_divide_linear(remaining, lam)
            mult += 1
        if not mult:
            continue
        shifted = m - ident.scale(lam)
        power = ident
        for _ in range(mult):
            power = power * shifted
        pairs.append((lam, kernel(power)))
    if len(remaining) == 1:
        residual = Subspace.zero(n)
    else:
        residual = kernel(poly_eval_matrix(remaining, m))
    total = sum(s.dim for _, s in pairs) + residual.dim
    if total != n:
        raise AssertionError("primary components do not fill the ambient space")
    return EigenSplit(tuple(pairs), residual)


# -- reference root search --------------------------------------------------
# The engine splits only at the eigenvalues it is given; these find every
# rational root, so tests can hand rational_eigen_split all of them.


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs):
    """All rational roots of the polynomial with multiplicities.

    Classical p/q divisor test on the cleared-denominator polynomial.
    Returns a dict root -> multiplicity.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    roots = {}
    # strip t^e
    zero_mult = 0
    while coeffs and coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[F0] = zero_mult
    if len(coeffs) <= 1:
        return roots
    denom = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * denom) for c in coeffs]
    candidates = set()
    lead = ints[-1]
    const = ints[0]
    for p in _divisors(const):
        for q in _divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        while len(coeffs) > 1 and poly_eval(coeffs, cand) == 0:
            coeffs = _poly_divide_linear(coeffs, cand)
            roots[cand] = roots.get(cand, 0) + 1
    return roots


# -- reference group action ---------------------------------------------------


def word_action(ga, perm):
    """The map by which perm acts, as the product of the generators along
    its whole adjacent word: R(perm) = R(s_{w_last}) ... R(s_{w_0})."""
    acc = ChainMap.identity(ga.complex)
    for j in perm.adjacent_word():
        acc = ga.generators[j - 1].compose(acc)
    return acc


def group_average(ga):
    """The idempotent (1/n!) sum over the group, all n! terms summed."""
    total = None
    count = 0
    for p in all_permutations(ga.n):
        m = ga.action(p)
        total = m if total is None else total + m
        count += 1
    return total.scale(Fraction(1, count))


def hom_action(left, right, degree):
    """Sigma_n acting on the maps x from right's complex to left's in one
    degree, flattened row by row: s_i sends x to R_left(s_i) x R_right(s_i)
    (each s_i is its own inverse), a right action as both factors are."""
    rows, cols = left.complex.dim(degree), right.complex.dim(degree)
    c = ChainComplex({0: rows * cols})
    gens = []
    for lg, rg in zip(left.generators, right.generators):
        # (L x R)[r, k] = sum L[r, a] x[a, b] R[b, k]
        rcols = rg.block(degree).columns()
        kron = tuple(sparse_row({a * cols + b: la * rb
                                 for a, la in lg.block(degree).sparse[r]
                                 for b, rb in rcols[k]})
                     for r in range(rows) for k in range(cols))
        gens.append(ChainMap(c, c, {0: Matrix._trusted(
            rows * cols, rows * cols, kron)}, check=False))
    return GroupAction(left.n, c, gens, check=False)


def reference_reynolds(left, right, blocks):
    """(1/n!) sum_g R_left(g) x R_right(g)^-1 of each block x, as the
    group average of the action on maps (``hom_action``) applied to x."""
    out = {}
    for d, x in blocks.items():
        avg = group_average(hom_action(left, right, d)).block(0)
        flat = dense_apply(avg, [v for row in x.data for v in row])
        out[d] = Matrix(x.rows, x.cols, [flat[r * x.cols:(r + 1) * x.cols]
                                         for r in range(x.rows)])
    return out


# -- Fraction reference for the integer row sum ------------------------------
# _combine as it was when each product and sum made its own Fraction (the
# dense references above serve apply, _split and the tables).


def fraction_combine(a, b, c):
    """``_combine``: the sparse row a + c * b."""
    acc = dict(a)
    for j, x in b:
        v = acc.get(j)
        acc[j] = c * x if v is None else v + c * x
    return sparse_row(acc)


# -- reference leg relabels ---------------------------------------------------
# The three relabels the axiom checker used before one comp_relabel served
# operads and modular operads: the permutation by which a composite of
# permuted factors differs from the composite of the unpermuted ones.


def operadic_block_perm(sigma, i, tau):
    """The permutation by which (a.sigma) o_i (b.tau) differs from
    a o_{sigma(i)} b; inputs i..i+m-1 form the tau-permuted block."""
    l, m = sigma.n, tau.n
    images = []
    for x in range(1, l + m):
        if x < i or x >= i + m:
            j = x if x < i else x - m + 1
            t = sigma(j)
            images.append(t + (m - 1 if t > sigma(i) else 0))
        else:
            p = x - i + 1
            images.append(sigma(i) - 1 + tau(p))
    return Permutation(tuple(images))


def modular_first_relabel(sigma, i, m):
    """(a.sigma) o_i b = (a o_{sigma(i)} b) . (this permutation)."""
    l = sigma.n
    si = sigma(i)

    def pos_a(j):
        return j if j < si else j + m - 2

    images = []
    for p in range(1, l + m - 1):
        if p < i:
            images.append(pos_a(sigma(p)))
        elif p <= i + m - 2:
            images.append(si + p - i)
        else:
            images.append(pos_a(sigma(p - m + 2)))
    return Permutation(tuple(images))


def modular_second_relabel(i, l, tau):
    """a o_i (b.tau) = (a o_i b) . (this permutation); tau must fix 1."""
    m = tau.n
    if tau(1) != 1:
        raise ValueError("second-factor relabel requires tau(1) = 1")
    images = []
    for p in range(1, l + m - 1):
        if i <= p <= i + m - 2:
            images.append(i + tau(p - i + 2) - 2)
        else:
            images.append(p)
    return Permutation(tuple(images))


# -- reference spans grown one vector at a time --------------------------------
# The engine takes every span from one elimination; these are the routines
# it replaced, which grew a Subspace one inserted vector at a time.  Spans,
# representatives and projections are unique, so both must agree exactly.


def insert(sub, vec):
    """``(span of sub and vec, whether the dimension grew)``; the
    basis is the canonical one ``from_spanning`` would give."""
    residual = sub._split(vec)[1]
    if not residual:
        return sub, False
    lead, x = residual[0]
    inv = F1 / x
    new = tuple((r, x * inv) for r, x in residual)
    cols = []
    for col in sub._entries:
        c = next((x for r, x in col if r == lead), None)
        cols.append(_combine(col, new, -c) if c else col)
    cols.insert(bisect_left(sub.pivots, lead), new)
    return _from_columns(sub.ambient_dim, cols), True


def _from_columns(ambient_dim, cols):
    """The Subspace whose basis has the sparse columns ``cols``."""
    return Subspace(ambient_dim, Matrix._trusted(
        len(cols), ambient_dim, tuple(cols)).transpose())


def greedy_homology(c):
    """(representatives, projections) of ``chain.homology``, per degree."""
    reps, projections = {}, {}
    for i in c.support:
        z = kernel(c.d(i))
        b = image(c.d(i + 1)) if c.dim(i + 1) else Subspace.zero(c.dim(i))
        h = z.dim - b.dim
        if h < 0:
            raise AssertionError("boundaries exceed cycles")
        if h == 0:
            continue
        # representatives: the cycle basis vectors, in order, that are
        # independent modulo B and the earlier choices
        chosen = []
        span = b
        for j in range(z.dim):
            cand = z._entries[j]
            span, grew = insert(span, cand)
            if grew:
                chosen.append(cand)
                if len(chosen) == h:
                    break
        reps[i] = chosen
        # projection on cycle coordinates: solve [B | R] (X, Y) = Z
        br = b.basis.hstack(Matrix.from_cols(chosen, rows=c.dim(i)))
        projections[i] = solve_matrix(br, z.basis).submatrix(
            range(b.dim, z.dim), range(z.dim))
    return reps, projections


def greedy_extended_classify(c, degree):
    """A linear extension to all of c_degree of the map sending each
    cycle to its homology coordinates: zero on the unit vectors, in index
    order, outside the span of Z and the earlier choices.  Z and its
    projection to homology come from ``kernel`` and ``greedy_homology``."""
    n = c.dim(degree)
    projection = greedy_homology(c)[1].get(degree)
    if projection is None:
        return Matrix.zeros(0, n)
    z = kernel(c.d(degree))
    ident = Matrix.identity(n)
    chosen = []
    span = z
    for j in range(n):
        span, grew = insert(span, ((j, F1),))
        if grew:
            chosen.append(j)
    stacked = z.basis.hstack(ident.submatrix(range(n), chosen))
    inv = solve_matrix(stacked, ident)
    return projection * inv.submatrix(range(z.dim), range(n))


# -- homology and coinvariants by the eliminations they replaced --------------
# ``chain.homology`` takes two kernels per degree and ``sigma.coinvariants``
# reads its projection off the average's rows; these are the routes they
# replaced: kernel(d_i), image(d_{i+1}) and one rref of [B | Z], and a solve
# of the inclusion against the average.  The reduced echelon form of a
# subspace is unique, so both must agree entry for entry.


def echelon_homology(c):
    """The HomologyRecord of ``c`` read off one rref of [B | Z] per degree."""
    dims, reps, classifiers = {}, {}, {}
    for i in c.support:
        z = kernel(c.d(i))
        b = image(c.d(i + 1)) if c.dim(i + 1) else Subspace.zero(c.dim(i))
        h = z.dim - b.dim
        if h < 0:
            raise AssertionError("boundaries exceed cycles")
        if h == 0:
            continue
        dims[i] = h
        # the pivots past B are the cycle basis vectors, in order, that are
        # independent modulo B and the earlier ones; the rows past B send
        # a cycle's entries at Z's pivots to its homology coordinates
        red, pivots, _ = rref(b.basis.hstack(z.basis))
        reps[i] = [z._entries[p - b.dim] for p in pivots[b.dim:]]
        classifiers[i] = Matrix._trusted(h, c.dim(i), tuple(
            tuple((z.pivots[j - b.dim], x) for j, x in row)
            for row in red.sparse[b.dim:z.dim]))
    return HomologyRecord(c, dims, reps, classifiers)


def assert_same_homology(rec, ref):
    assert rec.complex is ref.complex
    assert rec.dims == ref.dims
    assert rec.representatives == ref.representatives
    assert rec.classifiers == ref.classifiers


def solved_coinvariants(complex, elements):
    """``sigma.coinvariants`` with its projection solved from the
    inclusion and the average (``solve_matrix``)."""
    if len(elements) == 1:
        return Coinvariants(complex, ChainMap.identity(complex),
                            ChainMap.identity(complex))
    avg = functools.reduce(lambda a, b: a + b, elements)
    avg = avg.scale(Fraction(1, len(elements)))
    sub, incl = subcomplex(complex, {i: image(avg.block(i)).basis
                                     for i in complex.dims})
    proj_blocks = {}
    for i in sub.dims:
        m = solve_matrix(incl.block(i), avg.block(i))
        if m is None:
            raise AssertionError("projection failed")
        proj_blocks[i] = m
    return Coinvariants(sub, ChainMap(complex, sub, proj_blocks), incl)


def assert_same_coinvariants(got, ref):
    assert got.complex == ref.complex
    for name in ("projection", "inclusion"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.src, a.dst) == (b.src, b.dst)
        assert a.blocks == b.blocks


def one_vector_closure(op, seeds):
    """The spans (key -> degree -> Subspace) of ``ideal_closure``, each
    image inserted on its own and expanded as soon as it grows a span."""
    spans = {}

    def add(key, degree, vec):
        sub = spans.get(key, {}).get(degree)
        if sub is None:
            sub = Subspace.zero(op.component(key).dim(degree))
        sub, grew = insert(sub, vec)
        if grew:
            spans.setdefault(key, {})[degree] = sub
        return grew

    images = _Images(op)
    frontier = []
    for key, per_degree in seeds.items():
        for degree, vecs in per_degree.items():
            for vec in vecs:
                if add(key, degree, vec):
                    frontier.append((key, degree, vec))
    while frontier:
        key, degree, vec = frontier.pop()
        for _, _, tkey, tdeg, img in images(key, degree, [vec]):
            if img and add(tkey, tdeg, img):
                frontier.append((tkey, tdeg, img))
    return spans


# -- reference stable-graph kernels ------------------------------------------
# The canonical key and the isomorphisms as they were before refinement:
# the least key over every vertex permutation, and every vertex
# permutation tried in lexicographic order.  The engine's refined ones
# must agree exactly, the isomorphisms in the same order.


def brute_canonical_key(graph):
    """The least (genera, legs, edges) over all vertex relabellings."""
    return min((c.genera, c.legs, c.edges) for c in map(
        graph.permuted, itertools.permutations(range(graph.n_vertices))))


def brute_graph_isomorphisms(g1, g2):
    """All decorated isomorphisms g1 -> g2 fixing external legs.

    Yields (vertex_map, slot_map) where slot_map sends each slot
    descriptor of g1 to one of g2.
    """
    n = g1.n_vertices
    if (n != g2.n_vertices or len(g1.edges) != len(g2.edges)
            or g1.n_legs != g2.n_legs):
        return
    for perm in itertools.permutations(range(n)):
        if any(g1.genera[v] != g2.genera[perm[v]] for v in range(n)):
            continue
        if any(perm[g1.legs[j]] != g2.legs[j] for j in range(g1.n_legs)):
            continue
        # group g1 edges by their image endpoint pair
        targets = {}
        for e2, (a, b) in enumerate(g2.edges):
            targets.setdefault(tuple(sorted((a, b))), []).append(e2)
        groups = {}
        ok = True
        for e1, (a, b) in enumerate(g1.edges):
            key = tuple(sorted((perm[a], perm[b])))
            if key not in targets:
                ok = False
                break
            groups.setdefault(key, []).append(e1)
        if not ok:
            continue
        if any(len(groups[k]) != len(targets[k]) for k in groups):
            continue
        if set(targets) != set(groups):
            continue
        keys = sorted(groups)
        assignments = [itertools.permutations(targets[k]) for k in keys]
        for assignment in itertools.product(*assignments):
            edge_map = {}
            for k, images in zip(keys, assignment):
                for e1, e2 in zip(groups[k], images):
                    edge_map[e1] = e2
            # orientation choices per edge
            orientation_options = []
            for e1, (a, b) in enumerate(g1.edges):
                e2 = edge_map[e1]
                a2, b2 = g2.edges[e2]
                opts = []
                if (perm[a], perm[b]) == (a2, b2):
                    opts.append((0, 1))
                if (perm[a], perm[b]) == (b2, a2):
                    opts.append((1, 0))
                opts = list(dict.fromkeys(opts))
                if not opts:
                    break
                orientation_options.append(opts)
            else:
                for orient in itertools.product(*orientation_options):
                    slot_map = {("leg", j + 1): ("leg", j + 1)
                                for j in range(g1.n_legs)}
                    for e1 in range(len(g1.edges)):
                        e2 = edge_map[e1]
                        h0, h1 = orient[e1]
                        slot_map[("edge", e1, 0)] = ("edge", e2, h0)
                        slot_map[("edge", e1, 1)] = ("edge", e2, h1)
                    yield tuple(perm), slot_map


# -- reference stable-graph surgery ------------------------------------------
# The four concrete-graph surgeries as ``trees`` once wrote them, each with
# its own leg bookkeeping; the engine's grafts, gluings and relabellings
# substitute into a small outer graph through ``trees.expand_vertex``.  A
# graft or gluing here numbers the new edge last, so its match may be
# another isomorphism onto the same catalogue graph.


def _relabel_slot(slot, leg_map, edge_offset):
    kind = slot[0]
    if kind == "leg":
        return leg_map[slot[1]]
    return ("edge", slot[1] + edge_offset, slot[2])


def graft_graphs(c1: ConcreteGraph, i: int, c2: ConcreteGraph) -> ConcreteGraph:
    """Glue leg i of the first graph to leg 1 of the second.

    Result legs: first 1..i-1, second 2..m, first i+1..l, in that order;
    the new edge is appended last with half 0 on the first graph.
    """
    l, m = len(c1.legs), len(c2.legs)
    off = len(c1.genera)
    e_off1, e_off2 = 0, len(c1.edges)
    new_edge = len(c1.edges) + len(c2.edges)
    leg_map1 = {}
    for j in range(1, l + 1):
        if j < i:
            leg_map1[j] = ("leg", j)
        elif j == i:
            leg_map1[j] = ("edge", new_edge, 0)
        else:
            leg_map1[j] = ("leg", j + m - 2)
    leg_map2 = {1: ("edge", new_edge, 1)}
    for q in range(2, m + 1):
        leg_map2[q] = ("leg", i + q - 2)
    genera = c1.genera + c2.genera
    legs = [None] * (l + m - 2)
    for j in range(1, l + 1):
        if j != i:
            slot = leg_map1[j]
            legs[slot[1] - 1] = c1.legs[j - 1]
    for q in range(2, m + 1):
        slot = leg_map2[q]
        legs[slot[1] - 1] = c2.legs[q - 1] + off
    edges = list(c1.edges)
    edges.extend((a + off, b + off) for (a, b) in c2.edges)
    edges.append((c1.legs[i - 1], c2.legs[0] + off))
    slot_orders = []
    for v in range(len(c1.genera)):
        slot_orders.append(tuple(_relabel_slot(s, leg_map1, e_off1)
                                 for s in c1.slot_orders[v]))
    for v in range(len(c2.genera)):
        slot_orders.append(tuple(_relabel_slot(s, leg_map2, e_off2)
                                 for s in c2.slot_orders[v]))
    return ConcreteGraph(genera, tuple(legs), tuple(edges), tuple(slot_orders))


def self_glue(c: ConcreteGraph, i: int, j: int) -> ConcreteGraph:
    """Glue legs i and j of the same graph; remaining legs keep order."""
    l = len(c.legs)
    if i == j or not (1 <= i <= l and 1 <= j <= l):
        raise ValueError("contraction needs two distinct legs")
    new_edge = len(c.edges)
    leg_map = {}
    shift = 0
    for p in range(1, l + 1):
        if p == i:
            leg_map[p] = ("edge", new_edge, 0)
            shift += 1
        elif p == j:
            leg_map[p] = ("edge", new_edge, 1)
            shift += 1
        else:
            leg_map[p] = ("leg", p - sum(1 for q in (i, j) if q < p))
    legs = [None] * (l - 2)
    for p in range(1, l + 1):
        if p not in (i, j):
            legs[leg_map[p][1] - 1] = c.legs[p - 1]
    edges = list(c.edges) + [(c.legs[i - 1], c.legs[j - 1])]
    slot_orders = tuple(tuple(_relabel_slot(s, leg_map, 0) for s in so)
                        for so in c.slot_orders)
    return ConcreteGraph(c.genera, tuple(legs), tuple(edges), slot_orders)


def relabel_legs(c: ConcreteGraph, sigma: Permutation) -> ConcreteGraph:
    """Right action on legs: new leg p sits where old leg sigma(p) was."""
    l = len(c.legs)
    legs = tuple(c.legs[sigma(p) - 1] for p in range(1, l + 1))
    inv = sigma.inverse()
    leg_map = {j: ("leg", inv(j)) for j in range(1, l + 1)}
    slot_orders = tuple(tuple(_relabel_slot(s, leg_map, 0) for s in so)
                        for so in c.slot_orders)
    return ConcreteGraph(c.genera, legs, c.edges, slot_orders)


def expand_vertex(c: ConcreteGraph, v: int, sub: ConcreteGraph) -> ConcreteGraph:
    """Substitute a graph for vertex v; its legs take over v's slots.

    The k-th slot of v (in slot_orders[v]) is wired to external leg k of
    ``sub``; sub must have genus equal to the decoration of v.
    """
    kv = len(c.slot_orders[v])
    if len(sub.legs) != kv:
        raise ValueError("substituted graph has wrong number of legs")
    nv_sub = len(sub.genera)
    e_off = len(c.edges)

    def vmap(w):
        return w if w < v else w + nv_sub - 1

    def sub_vmap(u):
        return v + u

    # where does slot k of v end up attaching?
    anchors = {k + 1: c.slot_orders[v][k] for k in range(kv)}
    genera = (tuple(c.genera[w] for w in range(v)) + sub.genera
              + tuple(c.genera[w] for w in range(v + 1, len(c.genera))))
    # edges of c keep indices; endpoints at v are redirected into sub
    edges = []
    for e, (a, b) in enumerate(c.edges):
        na, nb = None, None
        for (end, vert) in ((0, a), (1, b)):
            if vert == v:
                # find which slot of v this half occupies
                k = next(k for k, d in anchors.items() if d == ("edge", e, end))
                target = sub_vmap(sub.legs[k - 1])
            else:
                target = vmap(vert)
            if end == 0:
                na = target
            else:
                nb = target
        edges.append((na, nb))
    edges.extend((sub_vmap(a), sub_vmap(b)) for (a, b) in sub.edges)
    legs = []
    for j, vert in enumerate(c.legs):
        if vert == v:
            k = next(k for k, d in anchors.items() if d == ("leg", j + 1))
            legs.append(sub_vmap(sub.legs[k - 1]))
        else:
            legs.append(vmap(vert))
    # slot orders: untouched vertices keep descriptors verbatim
    slot_orders = []
    for w in range(v):
        slot_orders.append(c.slot_orders[w])
    for u in range(nv_sub):
        slots = []
        for s in sub.slot_orders[u]:
            if s[0] == "leg":
                slots.append(anchors[s[1]])
            else:
                slots.append(("edge", s[1] + e_off, s[2]))
        slot_orders.append(tuple(slots))
    for w in range(v + 1, len(c.genera)):
        slot_orders.append(c.slot_orders[w])
    return ConcreteGraph(genera, tuple(legs), tuple(edges), tuple(slot_orders))


# -- reference factor reorder ---------------------------------------------
# The Koszul reordering of tensor factors as ``chain`` once wrote it; the
# free builder's one reorder (``free._factor_map``, ``push_labels``) must
# agree with it.


def koszul_reorder_sign(degrees, perm_images):
    """Sign for reordering tensor factors.

    ``perm_images[p]`` is the target position (0-based) of factor p; the
    sign is the product of (-1)^(deg_p * deg_q) over inverted pairs.
    """
    sign = 1
    m = len(degrees)
    for p in range(m):
        for q in range(p + 1, m):
            if perm_images[p] > perm_images[q] and degrees[p] % 2 and degrees[q] % 2:
                sign = -sign
    return F1 if sign == 1 else -F1


def reorder_map(td: TensorData, perm_images):
    """Chain map permuting tensor factors with Koszul signs.

    Factor p of the source goes to slot ``perm_images[p]`` (0-based) of
    the target tensor product.
    """
    m = len(td.factors)
    target_factors = [None] * m
    for p in range(m):
        target_factors[perm_images[p]] = td.factors[p]
    target = TensorData(tuple(target_factors))
    blocks = {}
    for n, items in td._basis.items():
        out = [()] * len(target.basis(n))
        for colpos, label in enumerate(items):
            degrees = [d for d, _ in label]
            sign = koszul_reorder_sign(degrees, perm_images)
            newlabel = [None] * m
            for p, entry in enumerate(label):
                newlabel[perm_images[p]] = entry
            _, rowpos = target.index(tuple(newlabel))
            out[rowpos] = ((colpos, sign),)
        blocks[n] = Matrix._trusted(len(out), len(items), tuple(out))
    return target, ChainMap(td.complex, target.complex, blocks)


# -- reference tree enumeration --------------------------------------------
# ``trees.enumerate_trees`` once built every subtree anew for each set
# partition it sat in and sorted by a nested key; kept as the reference
# for the shared-subtree catalogue and its flat sort key.


def _reference_trees_on(labels):
    labels = tuple(labels)
    if len(labels) == 1:
        return [leaf(labels[0])]
    out = []
    for part in _set_partitions(list(labels)):
        if len(part) < 2:
            continue
        block_choices = [_reference_trees_on(tuple(block)) for block in part]
        for combo in itertools.product(*block_choices):
            out.append(node(combo))
    return out


def _nested_sort_key(t):
    """The catalogue order's first key: (0, label) for a leaf, (1, k,
    the tuple of the children's keys) for a vertex with k children."""
    if t.is_leaf:
        return (0, t.label)
    return (1, len(t.children), tuple(_nested_sort_key(c) for c in t.children))


def reference_enumerate_trees(n):
    """The reduced trees with leaves 1..n, sorted by the nested key, with
    no subtree shared."""
    if n < 2:
        return ()
    trees = _reference_trees_on(tuple(range(1, n + 1)))
    return tuple(sorted(trees, key=_nested_sort_key))


# -- reference tree match --------------------------------------------------
# The free operad builder once matched a rearranged tree by building it as
# a planar tree with factor-tagged vertices and normalising that
# recursively; kept verbatim as the reference for its match by the leaf
# sets of each vertex's children (``FreeOperadBuilder._match``).


class PlanarNode(_Frozen):
    """Planar rooted tree with factor-tagged vertices; children are
    PlanarNode or int leaf labels."""

    _fields = ("factor", "children")

    def __init__(self, factor, children):
        _setfield(self, "factor", factor)
        _setfield(self, "children", children)


def tree_to_planar(tree: Tree, factor_offset=0, relabel=None):
    """Planar copy of a canonical tree with factors numbered in preorder."""
    counter = [factor_offset]

    def walk(t):
        if t.is_leaf:
            lbl = t.label
            return relabel[lbl] if relabel else lbl
        fid = counter[0]
        counter[0] += 1
        return PlanarNode(fid, tuple(walk(c) for c in t.children))

    return walk(tree)


def planar_substitute_leaf(pnode, target_label, replacement):
    """Replace the leaf with the given label by a planar subtree."""
    if isinstance(pnode, int):
        return replacement if pnode == target_label else pnode
    return PlanarNode(pnode.factor,
                      tuple(planar_substitute_leaf(c, target_label, replacement)
                            for c in pnode.children))


class TreeMatch:
    """Normalization data of a planar tree against its canonical form.

    ``factor_order[p]`` is the factor id sitting at canonical preorder
    position p; ``input_perms[fid]`` sends canonical input slot c to the
    planar slot it came from.
    """

    def __init__(self, tree, factor_order, input_perms):
        self.tree = tree
        self.factor_order = factor_order
        self.input_perms = input_perms


def normalize_planar(pnode) -> TreeMatch:
    def walk(p):
        if isinstance(p, int):
            return leaf(p), [], {}
        results = [walk(c) for c in p.children]
        k = len(results)
        order = sorted(range(k), key=lambda i: results[i][0].min_leaf)
        t = Tree(None, tuple(results[i][0] for i in order))
        perms = {p.factor: Permutation(tuple(i + 1 for i in order))}
        factors = [p.factor]
        for i in order:
            factors.extend(results[i][1])
            perms.update(results[i][2])
        return t, factors, perms

    t, factors, perms = walk(pnode)
    return TreeMatch(t, tuple(factors), perms)


def planar_match(pnode):
    """(tree, slot permutation of each factor, preorder place of each
    factor) of a planar tree, as the builder read them off
    ``normalize_planar``."""
    match = normalize_planar(pnode)
    perm_images = [0] * len(match.factor_order)
    for pos, fid in enumerate(match.factor_order):
        perm_images[fid] = pos
    sigmas = [match.input_perms[fid] for fid in range(len(perm_images))]
    return match.tree, sigmas, perm_images


def planar_grafted(t1, i, t2):
    """Planar t1 with t2 grafted at leaf i; t1's factors come first."""
    l, m = t1.arity, t2.arity
    first = tree_to_planar(
        t1, relabel={j: (j if j < i else (i if j == i else j + m - 1))
                     for j in range(1, l + 1)})
    second = tree_to_planar(t2, factor_offset=len(t1.vertices()),
                            relabel={p: p + i - 1 for p in range(1, m + 1)})
    return planar_substitute_leaf(first, i, second)


def planar_expanded(tree, v, sub):
    """Planar tree with vertex v replaced by sub.  Factor ids follow
    the sequence order: tree's vertices with the slot of v replaced by
    the block of sub's vertices."""
    shift = len(sub.vertices()) - 1

    def paste(p, children):
        if isinstance(p, int):
            return children[p - 1]
        return PlanarNode(p.factor,
                          tuple(paste(c, children) for c in p.children))

    def walk(p):
        if isinstance(p, int):
            return p
        children = tuple(walk(c) for c in p.children)
        if p.factor == v:
            return paste(tree_to_planar(sub, factor_offset=v), children)
        return PlanarNode(p.factor + shift if p.factor > v else p.factor,
                          children)

    return walk(tree_to_planar(tree))


# -- value semantics -------------------------------------------------------


def assert_value_semantics(make, make_other, text):
    """``make()`` builds a frozen value: two calls give equal objects
    with equal hashes, ``make_other()`` differs, another class compares
    unequal, no attribute can be set or deleted, and the repr is
    ``text``."""
    a, b, other = make(), make(), make_other()
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(vars(a).values())
    for name, value in list(vars(a).items()):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


# -- reference evaluators ---------------------------------------------------
# The two evaluators the free builders had before both took one plan per
# summand (``free.evaluate_tree_basis``), kept verbatim: composition along
# a tree by recursion, along a stable graph by a spanning tree worked out
# again for every label.


def _eval_tree(dst, tree, elements):
    """Compose decorated-vertex elements along a tree inside dst.

    ``elements``: iterator of (degree, vector) per preorder vertex;
    returns (arity, degree, vector) before the final leg relabel.
    """

    def walk(node):
        deg, vec = next(elements)
        arity = len(node.children)
        pos = 1
        for child in node.children:
            if child.is_leaf:
                pos += 1
                continue
            sub_ar, sub_deg, sub_vec = walk(child)
            vec = dst.compose(arity, pos, sub_ar, deg, vec, sub_deg, sub_vec)
            arity = arity + sub_ar - 1
            deg = deg + sub_deg
            pos += sub_ar
        return arity, deg, vec

    return walk(tree)


def _leaf_relabel(tree):
    """The permutation taking the composite along tree to the tree's leaf
    labels (the inverse of its leaves in preorder), or None when it is
    the identity."""
    sigma = Permutation(tuple(tree.leaves())).inverse()
    return None if sigma.is_identity() else sigma


def evaluate_tree_basis(dst, tree, relabel, arities, columns, label):
    """Image in dst of one summand basis label of the free operad.

    ``relabel`` is ``_leaf_relabel(tree)`` and ``arities`` the arity of
    each vertex of tree in preorder; ``columns(arity, d)``: the columns,
    as sparse vectors, of the degree-d block of the ChainMap from the
    generator complex into dst.component(arity).  Returns (degree, sparse
    vector).
    """
    pieces = [(d, columns(ar, d)[k]) for (d, k), ar in zip(label, arities)]
    ar, deg, vec = _eval_tree(dst, tree, iter(pieces))
    if relabel is not None:
        vec = dst.action(tree.arity, relabel).block(deg).apply(vec)
    return deg, vec


def _eval_graph(dst, graph, elements_by_vertex):
    """Glue decorated-vertex elements along a stable graph inside dst.

    Deterministic order: vertices in index order via a BFS spanning
    tree, then the remaining edges by index.  Returns (genus, legs
    descriptor list, degree, vector) before the final leg relabel.
    """
    nv = graph.n_vertices
    visit_order = [0]
    visited = {0}
    tree_edges = []
    while len(visited) < nv:
        found = None
        for e, (a, bb) in enumerate(graph.edges):
            if e in tree_edges:
                continue
            if (a in visited) != (bb in visited):
                cand = (e, a, bb)
                if found is None or cand < found:
                    found = cand
        if found is None:
            raise AssertionError("graph is not connected")
        e, a, bb = found
        w = bb if a in visited else a
        tree_edges.append(e)
        visit_order.append(w)
        visited.add(w)
    # Koszul sign from reordering index order -> visit order
    degs = [elements_by_vertex[v][0] for v in range(nv)]
    perm_images = [0] * nv
    for pos, vtx in enumerate(visit_order):
        perm_images[vtx] = pos
    sign = koszul_reorder_sign(degs, perm_images)
    v0 = visit_order[0]
    g_cur = graph.genera[v0]
    deg, vec = elements_by_vertex[v0]
    vec = tuple((j, sign * x) for j, x in vec)
    slots = list(graph.leg_order(v0))
    glued = set()
    for e in tree_edges:
        a, bb = graph.edges[e]
        if ("edge", e, 0) in slots:
            d_blob, w, d_w = ("edge", e, 0), bb, ("edge", e, 1)
        else:
            d_blob, w, d_w = ("edge", e, 1), a, ("edge", e, 0)
        worder = list(graph.leg_order(w))
        q = worder.index(d_w) + 1
        wkey = graph.vertex_type(w)
        wdeg, wvec = elements_by_vertex[w]
        cyc = Permutation.cycle_to_front(wkey[1], q)
        if not cyc.is_identity():
            wvec = dst.action(wkey, cyc).block(wdeg).apply(wvec)
        pos = slots.index(d_blob) + 1
        lcur = len(slots)
        vec = dst.compose((g_cur, lcur), pos, wkey, deg, vec, wdeg, wvec)
        slots = (slots[:pos - 1]
                 + [s for s in worder if s != d_w]
                 + slots[pos:])
        g_cur += wkey[0]
        deg += wdeg
        glued.add(e)
    for e in range(len(graph.edges)):
        if e in glued:
            continue
        p1 = slots.index(("edge", e, 0)) + 1
        p2 = slots.index(("edge", e, 1)) + 1
        vec = dst.contract((g_cur, len(slots)), min(p1, p2), max(p1, p2),
                           deg, vec)
        slots = [s for s in slots if s[:2] != ("edge", e)]
        g_cur += 1
    return g_cur, slots, deg, vec


def evaluate_graph_basis(dst, graph, columns, vlevel_entries):
    """Image in dst of a graph-space vector given per-vertex images.

    ``vlevel_entries``: list of (label, coeff) in the graph-space basis;
    ``columns((g, l), d)``: the columns, as sparse vectors, of the
    degree-d block of the ChainMap into dst.component((g, l)).  Returns a
    dict (degree -> sparse vector) accumulated over the entries.
    """
    out = {}
    key = (graph.genus, graph.n_legs)
    for label, lcoeff in vlevel_entries:
        pieces = [(d, columns(graph.vertex_type(v), d)[k])
                  for v, (d, k) in enumerate(label)]
        g_cur, slots, deg, vec = _eval_graph(dst, graph, pieces)
        if g_cur != key[0] or len(slots) != key[1]:
            raise AssertionError("graph evaluation lost track of the type")
        sigma = Permutation(tuple(slots.index(("leg", q)) + 1
                                  for q in range(1, key[1] + 1)))
        if not sigma.is_identity():
            vec = dst.action(key, sigma).block(deg).apply(vec)
        if vec:
            out[deg] = _combine(out.get(deg, ()), vec, lcoeff)
    return out


# -- reference cubical operators ----------------------------------------------


class ReferenceFinite(FiniteCubicalSet):
    """Leaf ``dim_of`` and ``act`` as they were before the flat action."""

    def dim_of(self, cube):
        for p, cs in self.cube_table.items():
            if cube in cs:
                return p
        raise KeyError(cube)

    def act(self, cube, sigma: Permutation):
        """Right action by coordinate permutation; only trivial here."""
        if sigma.is_identity():
            return cube, 1
        raise ValueError("this cubical set carries no symmetry structure")


class ReferenceProduct(ProductCubicalSet):
    """``face`` and ``act`` as they were before the flat action: a new
    ``Permutation`` per factor at every level of the product, and one
    recursive call per face."""

    def face(self, cube, i, eps):
        a, b, S = cube
        if i in S:
            k = S.index(i) + 1
            a2 = self.left.face(a, k, eps)
            S2 = tuple(s - 1 if s > i else s for s in S if s != i)
            return (a2, b, S2)
        comp = [j for j in range(1, self.dim_of(cube) + 1) if j not in S]
        k = comp.index(i) + 1
        b2 = self.right.face(b, k, eps)
        S2 = tuple(s - 1 if s > i else s for s in S)
        return (a, b2, S2)

    def act(self, cube, sigma: Permutation):
        """Right action by precomposition: coordinate j of the result
        reads coordinate sigma^{-1}(j)... the new cube reads its a-part
        at the positions sigma^{-1}(S), reordered inside each factor."""
        a, b, S = cube
        p = self.dim_of(cube)
        if sigma.n != p:
            raise ValueError("permutation has the wrong size")
        inv = sigma.inverse()
        new_positions = [inv(s) for s in S]
        order = sorted(range(len(S)), key=lambda k: new_positions[k])
        S2 = tuple(new_positions[k] for k in order)
        tau_a = Permutation(tuple(k + 1 for k in order))
        comp = [j for j in range(1, p + 1) if j not in S]
        new_comp = [inv(s) for s in comp]
        order_b = sorted(range(len(comp)), key=lambda k: new_comp[k])
        tau_b = Permutation(tuple(k + 1 for k in order_b))
        a2, sa = self.left.act(a, tau_a)
        b2, sb = self.right.act(b, tau_b)
        return (a2, b2, S2), sa * sb


def reference_copy(space):
    """The same cubical set, built from the reference classes."""
    if isinstance(space, ProductCubicalSet):
        return ReferenceProduct(reference_copy(space.left),
                                reference_copy(space.right))
    return ReferenceFinite(space.cube_table, space.face_table,
                           space.degenerate)


@functools.lru_cache(maxsize=None)
def _signed_inverses(n):
    return [(sigma.inverse().images, sigma.sign())
            for sigma in all_permutations(n)]


def reference_orbit(space, cube, n):
    """The signed orbit of an n-cube, sum of (-1)^{|sigma|} cube o sigma,
    with one ``_act`` call per sigma in Sigma_n; zero entries dropped."""
    out = {}
    for inv, sign in _signed_inverses(n):
        new, sgn = space._act(cube, inv)
        out[new] = out.get(new, 0) + sign * sgn
    return {c: k for c, k in out.items() if k}


def reference_alt(chain):
    """``cubical.alt`` as it was before orbits by shuffles: one ``_act``
    call per (cube, sigma) over all of Sigma_n, summed in Fractions."""
    n = chain.dim
    if n <= 1:
        return chain
    space = chain.space
    if any(space.dim_of(cube) != n for cube in chain.coeffs):
        raise ValueError("permutation has the wrong size")
    w = Fraction(1, factorial(n))
    terms = [(cube, {1: x * w, -1: -x * w})
             for cube, x in chain.coeffs.items()]
    out = {}
    for sigma in all_permutations(n):
        inv, sign = sigma.inverse().images, sigma.sign()
        for cube, signed in terms:
            newcube, sgn = space._act(cube, inv)
            x = signed[sign * sgn]
            out[newcube] = out[newcube] + x if newcube in out else x
    return CubicChain(space, n, out)


def reference_boundary(chain):
    """``cubical.boundary`` as it was before one pass of faces: one
    ``face`` call per (cube, i, eps), each face read from the reference
    copy of the chain's space, summed in Fractions."""
    space = reference_copy(chain.space)
    out = {}
    for cube, coeff in chain.coeffs.items():
        signed = (coeff, -coeff)
        for i in range(1, chain.dim + 1):
            for eps in (0, 1):
                f, x = space.face(cube, i, eps), signed[(i + eps) % 2]
                out[f] = out[f] + x if f in out else x
    return CubicChain(chain.space, chain.dim - 1, out)


# -- constructions no pipeline runs ----------------------------------------
# The paper's side constructions and the inverse directions of pipeline
# maps, kept verbatim from the library as independent references: the
# tests check the pipeline against them.


def tree_space_data(tree: Tree, module) -> TensorData:
    """Tensor of module components over the vertices in preorder."""
    factors = [module.component(len(v.children)) for v in tree.vertices()]
    return TensorData(tuple(factors))


def graph_space_data(graph: StableGraph, module) -> TensorData:
    """Tensor of module components over vertices in index order."""
    factors = [module.component(graph.vertex_type(v))
               for v in range(graph.n_vertices)]
    return TensorData(tuple(factors))


def direct_sum(complexes):
    """Direct sum with inclusion and projection chain maps."""
    degrees = set()
    for c in complexes:
        degrees |= set(c.dims)
    dims = {i: sum(c.dim(i) for c in complexes) for i in degrees}
    offsets = {i: [] for i in degrees}
    for i in degrees:
        off = 0
        for c in complexes:
            offsets[i].append(off)
            off += c.dim(i)
    diff = {}
    for i in degrees:
        rows, cols = dims.get(i - 1, 0), dims[i]
        if rows == 0 or cols == 0:
            continue
        # the summands' row ranges are disjoint, so each row has one source
        out = [()] * rows
        for k, c in enumerate(complexes):
            ro, co = offsets[i - 1][k], offsets[i][k]
            for r, row in enumerate(c.d(i).sparse):
                out[ro + r] = tuple((co + j, x) for j, x in row)
        diff[i] = Matrix._trusted(rows, cols, tuple(out))
    total = ChainComplex(dims, diff, check=False)
    incls, projs = [], []
    for k, c in enumerate(complexes):
        ib, pb = {}, {}
        for i in c.dims:
            n = c.dim(i)
            off = offsets[i][k]
            ib[i] = Matrix._trusted(dims[i], n, tuple(
                ((r - off, F1),) if off <= r < off + n else ()
                for r in range(dims[i])))
            pb[i] = ib[i].transpose()
        incls.append(ChainMap(c, total, ib, check=False))
        projs.append(ChainMap(total, c, pb, check=False))
    return total, incls, projs


def permutation_matrix(p: Permutation) -> Matrix:
    """Right-action matrix on the regular-ish basis e_1..e_n: e_k -> e_{p^{-1}(k)}.

    Chosen so that word evaluation matches R(p o q) = R(q) R(p).
    """
    return Matrix._trusted(p.n, p.n, tuple(((p(k) - 1, F1),)
                                           for k in range(1, p.n + 1)))


def face_permutation_decomposition(sigma: Permutation, i: int):
    """Write sigma o delta_i^eps as delta_r^eps o tau; returns (r, tau).

    This is the inverse direction of the bijection (tau, r, i) ->
    (sigma, i)."""
    n = sigma.n
    composite = compose_maps(perm_map(sigma), delta_map(n, i, 0))
    r = next(j + 1 for j, e in enumerate(composite) if e[0] == "const")
    images = []
    for j, e in enumerate(composite):
        if e[0] == "in":
            pos = j + 1
            target = pos if pos < r else pos - 1
            images.append((e[1], target))
    images.sort()
    tau = [0] * (n - 1)
    for src, tgt in images:
        tau[src - 1] = tgt
    return r, Permutation(tuple(tau))


def operad_grading_automorphism(op, alpha) -> OperadMorphism:
    """The grading automorphism of an operad with zero differentials."""
    maps = {}
    for key in op.keys():
        comp = op.component(key)
        if comp.is_zero():
            continue
        maps[key] = grading_automorphism(comp, alpha)
    return OperadMorphism(op, op, maps)


def _tensor_vec(td, d1, v1, d2, v2):
    """The sparse vector v1 (x) v2 of td, for sparse vectors v1 and v2 of
    its two factors in degrees d1 and d2."""
    return sparse_row({td.index(((d1, r1), (d2, r2)))[1]: a * b
                       for r1, a in v1 for r2, b in v2})


def leibniz_containment(cx, fx, cy, fy, w) -> bool:
    """Products of the weight truncations land in the truncation of the
    tensor product (the monoidality containment), checked exactly."""
    tx, ty = t_functor(cx, fx, w), t_functor(cy, fy, w)
    td = TensorData((cx, cy))
    fx_cols = {d: m.columns() for d, m in fx.blocks.items()}
    fy_cols = {d: m.columns() for d, m in fy.blocks.items()}
    tensor_f_blocks = {}
    for n in td.complex.dims:
        cols = []
        for (d1, k1), (d2, k2) in td.basis(n):
            cols.append(_tensor_vec(td, d1, fx_cols[d1][k1], d2,
                                    fy_cols[d2][k2])
                        if d1 in fx_cols and d2 in fy_cols else ())
        tensor_f_blocks[n] = Matrix.from_cols(cols, td.complex.dim(n))
    tensor_f = ChainMap(td.complex, td.complex, tensor_f_blocks)
    tt = t_functor(td.complex, tensor_f, w)
    for n in td.complex.dims:
        span = Subspace.from_spanning(
            td.complex.dim(n),
            tt.inclusion.block(n).columns()) if tt.complex.dim(n) else \
            Subspace.zero(td.complex.dim(n))
        for d1 in tx.complex.dims:
            d2 = n - d1
            if ty.complex.dim(d2) == 0:
                continue
            for v1 in tx.inclusion.block(d1).columns():
                for v2 in ty.inclusion.block(d2).columns():
                    prod = _tensor_vec(td, d1, v1, d2, v2)
                    if prod and not span.contains(prod):
                        return False
    return True


def leibniz_holds(witness, alpha=2):
    """Whether leibniz_containment holds on every pair of nonzero
    components of a formality witness's model that a composition joins,
    under the witness's automorphism; False when no composition joins
    two nonzero components."""
    f = witness.automorphism
    op = f.src
    w = WeightFunction(Fraction(alpha))
    pairs = {(k1, k2) for k1, _, k2 in op.comp_keys()
             if not op.component(k1).is_zero()
             and not op.component(k2).is_zero()}
    return bool(pairs) and all(
        leibniz_containment(op.component(k1), f.block(k1),
                            op.component(k2), f.block(k2), w)
        for k1, k2 in sorted(pairs))


def cone_completion(lam: ChainMap, mu: ChainMap, eta: ChainMap,
                    zeta: ChainMap):
    """Complete a commutative square through the cones.

    Input: eta: B -> A, mu: A -> Y, zeta: Y -> X, lam: B -> (C zeta)[-1]
    with -p_Y lam = mu eta.  Returns (nu: C eta -> X, homotopy h) where
    the central square commutes exactly and the right square commutes up
    to h: incl_X nu - lam[1] proj_B = d h + h d.
    """
    b, a = eta.src, eta.dst
    y, x = zeta.src, zeta.dst
    czeta, incl_x, proj_y1 = mapping_cone(zeta)
    # p_Y at shifted degrees: lam lands in (C zeta)[-1]_i = X_{i+1} + Y_i
    for i in set(b.dims):
        if lam.src.dim(i) != b.dim(i):
            raise ValueError("lambda has the wrong source")
        if lam.dst.dim(i) != czeta.dim(i + 1):
            raise ValueError("lambda must land in the shifted cone")
    # check -p_Y lam = mu eta
    for i in b.dims:
        lam_i = lam.block(i)
        py = Matrix.zeros(y.dim(i), x.dim(i + 1)).hstack(
            Matrix.identity(y.dim(i)))
        lhs = py * lam_i
        rhs = mu.block(i) * eta.block(i)
        if lhs.scale(-1) != rhs:
            raise ValueError("input square does not commute")
    ceta, incl_a, proj_b1 = mapping_cone(eta)
    nu_blocks = {}
    for i in ceta.dims:
        na, nb = a.dim(i), b.dim(i - 1)
        left = zeta.block(i) * mu.block(i)
        lam_x = lam.block(i - 1).submatrix(range(x.dim(i)), range(b.dim(i - 1)))
        nu_blocks[i] = left.hstack(lam_x) if nb else left
    nu = ChainMap(ceta, x, nu_blocks)
    # homotopy h(a, b) = (0, mu(a)) : (C eta)_i -> (C zeta)_{i+1}
    h = {}
    for i in ceta.dims:
        rows = czeta.dim(i + 1)
        if rows == 0:
            continue
        na, nb = a.dim(i), b.dim(i - 1)
        h[i] = Matrix.zeros(x.dim(i + 1), na + nb).vstack(
            mu.block(i).hstack(Matrix.zeros(y.dim(i), nb)))
    # verify the right square commutes up to h: lam[1] o proj_b sends
    # (C eta)_i onto B_{i-1} and through lam into (C zeta)_i
    lp_blocks = {}
    for i in ceta.dims:
        lp = Matrix.zeros(czeta.dim(i), a.dim(i))
        lp_blocks[i] = lp.hstack(lam.block(i - 1)) if b.dim(i - 1) else lp
    if not check_homotopy(incl_x.compose(nu),
                          ChainMap(ceta, czeta, lp_blocks, check=False), h):
        raise AssertionError("cone completion homotopy identity failed")
    return nu, h


# -- the "operad-forge/1" reference writer ---------------------------------
# The engine writes "operad-forge/2", every matrix as its rows of nonzero
# [column, "p/q"] pairs.  The first format wrote each row densely, one
# cell per column; the byte pins of documents written before the sparse
# format are checked on this rendering.


def dense_matrix_to_lists(m):
    """The rows of m with every cell written, "0" for a zero."""
    out = []
    for row in m.sparse:
        line = ["0"] * m.cols
        for j, x in row:
            line[j] = document.rational_to_str(x)
        out.append(line)
    return out


@contextlib.contextmanager
def writing_v1():
    """Within the block, the document writer renders "operad-forge/1":
    the same documents, each matrix through ``dense_matrix_to_lists``."""
    saved = document.matrix_to_lists, document.FORMAT_VERSION
    document.matrix_to_lists = dense_matrix_to_lists
    document.FORMAT_VERSION = "operad-forge/1"
    try:
        yield
    finally:
        document.matrix_to_lists, document.FORMAT_VERSION = saved


def v1_dumps(make):
    """The "operad-forge/1" text of the document ``make()`` builds."""
    with writing_v1():
        return document.dumps(make())


# -- reference null spaces --------------------------------------------------


def column_order_kernel(m: Matrix):
    """``qlinalg.kernel`` as it was before it eliminated the reversed
    columns: one elimination of m's rows in column order, one integer
    vector per free column j (e_j minus R's column j on the pivots,
    scaled to integers from the integer rows), and their span
    (``_span``), a second elimination that puts them in echelon form."""
    n = m.cols
    rows = _eliminate(_leading(m.sparse), n)
    terms = {j: [] for j in range(n) if j not in rows}
    for p, row in rows.items():
        d = row[p]
        for j, v in row.items():
            if j != p:
                terms[j].append((p, v, d))
    vecs = []
    for j, ts in terms.items():
        scale = lcm(*(d for _, _, d in ts))
        vecs.append(tuple((p, Fraction(-v * (scale // d))) for p, v, d in ts)
                    + ((j, Fraction(scale)),))
    return _span(n, Matrix._trusted(len(vecs), n, tuple(vecs)))


def assert_same_kernel(got, want):
    """Equal subspaces with identical bases, pivots and basis rows."""
    assert got == want
    assert got.basis.sparse == want.basis.sparse
    assert got.pivots == want.pivots
    assert got._entries == want._entries


def fraction_solve_with_kernel(m: Matrix, b):
    """``qlinalg.solve_with_kernel`` as it was before the null space was
    built from the elimination's integer rows: R's Fractions, negated,
    read back into integers by a second ``rref``."""
    n = m.cols
    aug = list(m.sparse)
    for i, x in b:
        aug[i] += ((n, x),)
    red, pivots, _ = rref(Matrix._trusted(m.rows, n + 1, tuple(aug)))
    rows = dict(zip(pivots, red.sparse))
    sol = None if rows.pop(n, None) else tuple(
        (p, row[-1][1]) for p, row in rows.items() if row[-1][0] == n)
    vecs = {j: [(j, F1)] for j in range(n) if j not in rows}
    for p, row in rows.items():
        for j, x in row:
            if j != p and j != n:
                vecs[j].append((p, -x))
    return sol, _span(n, Matrix._trusted(
        len(vecs), n, tuple(tuple(sorted(v)) for v in vecs.values())))
