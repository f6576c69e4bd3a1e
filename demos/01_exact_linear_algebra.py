#!/usr/bin/env python3
"""Exact rational linear algebra: the kernel everything else runs on.

Echelon forms, kernels, exact solving, characteristic polynomials and
the primary decomposition over Q at given eigenvalues.  No roots are
searched: the caller lists the eigenvalues it asks about (the weights
ask only for the powers of the base alpha), and the primary components
of every other eigenvalue, rational or not, are pooled into a residual.
The split builds no characteristic polynomial: each generalized
eigenspace is where the kernels of (m - eigenvalue)^k stop growing.
"""

from fractions import Fraction

from operad_forge import Matrix, char_poly, kernel, rational_eigen_split, rref, solve

m = Matrix.from_rows([[1, 2, 1], [2, 4, 0], [0, 0, 3]])
red, pivots, rk = rref(m)
print("matrix:", m.to_lists())
print("rref:", red.to_lists())
print("pivots:", pivots, "rank:", rk)

print("\nkernel of [[1, 1]]:", kernel(Matrix.from_rows([[1, 1]])).basis.to_lists())
print("solve 2x = 3 exactly:",
      solve(Matrix.from_rows([[2]]), ((0, Fraction(3)),)))
print("  (a vector is a sparse row: its nonzero (index, value) pairs; "
      "() is zero)")

rot = Matrix.from_rows([[0, -1], [1, 0]])
print("\ncharacteristic polynomial of a rotation:", char_poly(rot))
split = rational_eigen_split(rot, [])
print("residual dimension (no eigenvalue asked about):", split.residual.dim)

jordan = Matrix.from_rows([[3, 1], [0, 3]])
split = rational_eigen_split(jordan, [3])
print("\nJordan block J_2(3): generalized eigenspace dims:",
      [(str(lam), s.dim) for lam, s in split.pairs])

mixed = Matrix.from_rows([[2, 0, 0], [0, 0, -1], [0, 1, 0]])
split = rational_eigen_split(mixed, [2])
print("mixed matrix: eigenvalue 2",
      [(str(lam), s.dim) for lam, s in split.pairs],
      "residual dim", split.residual.dim)
