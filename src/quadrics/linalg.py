"""Tiny exact linear algebra over the (Gaussian) rationals.

Matrices are lists of rows of exact scalars.  ``rref`` (Gauss-Jordan
elimination) serves ``rank``, ``nullspace`` and ``solve``; sizes never
exceed a few dozen rows.  Every 3x3 rule comes from one cross product:
``cross`` and ``dot`` work on any ring (exact scalars, mpc, Balls and
arrays of them), and the adjugate and the determinant of a 3x3 matrix
are its rows' cross products and the first row's dot product with one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .scalars import Scalar, coerce_scalar


def mat_copy(M):
    return [[coerce_scalar(x) for x in row] for row in M]


def rref(M) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    A = mat_copy(M)
    if not A:
        return A, []
    rows, cols = len(A), len(A[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(M) -> int:
    return len(rref(M)[1])


def nullspace(M) -> List[List[Scalar]]:
    """Basis of the right kernel."""
    if not M:
        return []
    A, pivots = rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append([coerce_scalar(x) for x in v])
    return basis


def solve(M, rhs) -> Optional[List[Scalar]]:
    """One solution of M x = rhs, or None when inconsistent."""
    if not M:
        return [] if all(b == 0 for b in rhs) else None
    cols = len(M[0])
    aug = [row + [b] for row, b in zip(mat_copy(M), rhs)]
    A, pivots = rref(aug)
    for row in A:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = A[r][cols]
    return [coerce_scalar(v) for v in x]


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
