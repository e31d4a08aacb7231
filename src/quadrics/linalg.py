"""Exact linear algebra: one fraction-free elimination, one 3x3 kernel.

The exact format is a dense list over Z (ints) or Z[i] (GaussRats), low
to high, [] for zero, with the ring operations ``trim``, ``poly_mul``,
``poly_sub`` and ``poly_exquo``.  ``echelon`` (Bareiss 1968, Math. Comp.
22) is the one elimination, on matrices of such lists: Sylvester matrices
over Z[t] for ``polynomials.subresultant``, constants for ``rank`` and
``rref``, which serves ``nullspace`` and ``solve``.  ``cross`` and ``dot``
work on any ring (exact scalars, mpc, Balls and arrays of them); a 3x3
adjugate is the rows' cross products and the determinant r0 . (r1 x r2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .scalars import GaussRat, Scalar, coerce_scalar, integral


def trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_sub(a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return trim(out)


def poly_exquo(a: list, b: list) -> list:
    """a / b where b divides a."""
    db, lead = len(b) - 1, b[-1]
    if lead == 1 and db == 0:
        return a
    a, out = a[:], [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        if a[i + db]:
            c = out[i] = a[i + db] / lead if isinstance(lead, GaussRat) else a[i + db] // lead
            for j in range(max(0, db - i), db):  # a[:db] gives no quotient
                a[i + j] -= c * b[j]
    return out


def echelon(M: List[list]) -> Tuple[List[list], List[int], int]:
    """Fraction-free row echelon form of a matrix of dense lists over Z or
    Z[i]: (rows, pivot columns, sign of the row swaps).  After k pivots,
    entry (i, j) is the minor on the pivot rows and columns with row i and
    column j (Sylvester's identity), so each division by the previous
    pivot is exact."""
    A = [row[:] for row in M]
    n, w = len(A), len(A[0]) if A else 0
    prev, sign, pivots = [1], 1, []
    for c in range(w):
        r = len(pivots)
        if r == n:
            break
        if not A[r][c]:
            swap = next((i for i in range(r + 1, n) if A[i][c]), None)
            if swap is None:
                continue
            A[r], A[swap] = A[swap], A[r]
            sign = -sign
        pivot, row_r = A[r][c], A[r]
        for row in A[r + 1:]:
            for j in range(c + 1, w):
                num = poly_sub(poly_mul(row[j], pivot), poly_mul(row[c], row_r[j]))
                row[j] = poly_exquo(num, prev)
            row[c] = []
        prev = pivot
        pivots.append(c)
    return A, pivots, sign


def mat_copy(M):
    return [[coerce_scalar(x) for x in row] for row in M]


def _integral_rows(M):
    """M's rows scaled to (Gaussian, when one entry is) integers, each
    entry a constant list."""
    A = mat_copy(M)
    gauss = any(isinstance(x, GaussRat) for row in A for x in row)
    return [[[x] if x else [] for x in integral(row, gauss)[0]] for row in A]


def rank(M) -> int:
    return len(echelon(_integral_rows(M))[1])


def rref(M) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form and the list of pivot columns: each pivot
    row of the echelon divided by its pivot, bottom up, and its column
    cleared above it."""
    A, pivots, _ = echelon(_integral_rows(M))
    A = [[x[0] if x else 0 for x in row] for row in A]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        pv = coerce_scalar(A[r][c])
        A[r] = [x / pv for x in A[r]]
        for row in A[:r]:
            f = row[c]
            if f:
                row[:] = [x - f * y for x, y in zip(row, A[r])]
    return mat_copy(A), pivots


def nullspace(M) -> List[List[Scalar]]:
    """Basis of the right kernel."""
    if not M:
        return []
    A, pivots = rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append([coerce_scalar(x) for x in v])
    return basis


def solve(M, rhs) -> Optional[List[Scalar]]:
    """One solution of M x = rhs (free entries 0), or None: the kernel
    vector of [M | -rhs] free in its last column."""
    if not M:
        return [] if all(b == 0 for b in rhs) else None
    ker = nullspace([list(row) + [-b] for row, b in zip(M, rhs)])
    if not ker or ker[-1][-1] == 0:  # the last column has a pivot
        return None
    return ker[-1][:-1]


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def adjugate(M) -> tuple:
    """Adjugate of a 3x3 matrix, adj(M) . M = det(M) . E: its columns are
    the cross products r1 x r2, r2 x r0 and r0 x r1 of the rows."""
    cols = (cross(M[1], M[2]), cross(M[2], M[0]), cross(M[0], M[1]))
    return tuple(tuple(coerce_scalar(c[i]) for c in cols) for i in range(3))


def det(M) -> Scalar:
    """Determinant of a 3x3 matrix: r0 . (r1 x r2)."""
    return coerce_scalar(dot(M[0], cross(M[1], M[2])))
