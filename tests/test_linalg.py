"""Differential tests of the exact linear algebra against the Gauss-Jordan
elimination it replaced (``exact_reference``) and against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrics.linalg import nullspace, rank, rref, solve
from quadrics.scalars import GaussRat, coerce_scalar

from exact_reference import reference_nullspace, reference_rank, reference_rref, reference_solve

_RATS = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _rows(draw, n, c):
    """n rows of c entries, each row rational or (sometimes) Gaussian."""
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 3)) == 0:
            row = [coerce_scalar(GaussRat(draw(_RATS), draw(_RATS))) for _ in range(c)]
        else:
            row = [draw(_RATS) for _ in range(c)]
        rows.append(row)
    return rows


@st.composite
def _matrices(draw):
    """Matrices of 1-6 rows and 1-7 columns: dense or sparse, products of a
    thinner pair (rank-deficient), with rows or columns zeroed."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        k = draw(st.integers(1, max(1, min(n, c) - 1)))
        B, C = draw(_rows(n, k)), draw(_rows(k, c))
        M = [[coerce_scalar(sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)))
              for j in range(c)] for i in range(n)]
    else:
        M = draw(_rows(n, c))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        M[i] = [Fraction(0)] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in M:
            row[j] = Fraction(0)
    return M


def _sympy(x):
    x = coerce_scalar(x)
    if isinstance(x, GaussRat):
        return sympy.Rational(x.re.numerator, x.re.denominator) \
            + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
    return sympy.Rational(x.numerator, x.denominator)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices(), st.data())
def test_linalg_matches_gauss_jordan_and_sympy(M, data):
    assert repr(rank(M)) == repr(reference_rank(M))
    assert rank(M) == sympy.Matrix([[_sympy(x) for x in row] for row in M]).rank()
    A, pivots = rref(M)
    ref_A, ref_pivots = reference_rref(M)
    assert pivots == ref_pivots and A == ref_A
    assert repr(nullspace(M)) == repr(reference_nullspace(M))
    # a right-hand side in the column space (consistent) or drawn freely
    if data.draw(st.booleans()):
        x = data.draw(_rows(1, len(M[0])))[0]
        rhs = [coerce_scalar(sum((a * b for a, b in zip(row, x)), Fraction(0))) for row in M]
    else:
        rhs = data.draw(_rows(1, len(M)))[0]
    assert repr(solve(M, rhs)) == repr(reference_solve(M, rhs))


def test_empty_and_one_by_one():
    for M in ([], [[Fraction(0)]], [[Fraction(3, 2)]], [[GaussRat(0, 2)]]):
        assert rank(M) == reference_rank(M)
        assert rref(M) == reference_rref(M)
        assert repr(nullspace(M)) == repr(reference_nullspace(M))
    assert solve([], []) == [] and solve([], [Fraction(1)]) is None
    assert solve([[Fraction(0)]], [Fraction(1)]) is None
    assert solve([[GaussRat(0, 2)]], [Fraction(1)]) == [GaussRat(0, Fraction(-1, 2))]
