from collections import Counter
from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrics.scalars import (GaussRat, coerce_scalar, gauss_sqrt, parse_scalar_string,
                              primitive_vector)
from quadrics.univariate import (UniPoly, binary_form_roots,
                                 roots_with_multiplicity, uni_gcd,
                                 yun_squarefree)


def test_unipoly_divmod_and_gcd():
    # (t - 1)(t + 2) and (t - 1)(t - 3)
    a = UniPoly([-1, 1]) * UniPoly([2, 1])
    b = UniPoly([-1, 1]) * UniPoly([-3, 1])
    g = uni_gcd(a, b)
    assert g == UniPoly([-1, 1])


def test_yun_multiplicities():
    # (t - 1)^3 (t + 2)^2 (t - 5)
    p = (UniPoly([-1, 1]) * UniPoly([-1, 1]) * UniPoly([-1, 1])
         * UniPoly([2, 1]) * UniPoly([2, 1]) * UniPoly([-5, 1]))
    parts = dict()
    for f, m in yun_squarefree(p):
        parts[m] = f
    assert set(parts) == {1, 2, 3}
    assert parts[3] == UniPoly([-1, 1])
    assert parts[2] == UniPoly([2, 1])
    assert parts[1] == UniPoly([-5, 1])


def test_roots_with_multiplicity_exact_recognition():
    p = UniPoly([Fraction(-1, 2), 1]) * UniPoly([3, 1]) * UniPoly([3, 1])
    roots = {str(b.exact): b.multiplicity for b in roots_with_multiplicity(p, 128)}
    assert roots == {"1/2": 1, "-3": 2}


def test_gaussian_quadratic_roots():
    # t^2 + 1 over the rationals: roots +/- i, recognized exactly
    p = UniPoly([1, 0, 1])
    roots = roots_with_multiplicity(p, 128)
    vals = {b.exact for b in roots}
    assert GaussRat(0, 1) in vals and GaussRat(0, -1) in vals


def test_irrational_roots_carry_certified_radius():
    p = UniPoly([-2, 0, 1])  # t^2 - 2
    roots = roots_with_multiplicity(p, 192)
    with mp.workprec(220):
        for b in roots:
            assert b.exact is None
            assert b.radius < mp.mpf("1e-30")
            assert min(abs(b.value - mp.sqrt(2)), abs(b.value + mp.sqrt(2))) <= b.radius


def test_binary_form_roots_with_coordinate_roots():
    from quadrics.polynomials import parse_poly
    # z1 * (z1 - z2) * z2^2: roots [0:1], [1:1], [1:0] (double)
    form = parse_poly("z1^2*z2^2 - z1*z2^3")
    roots = binary_form_roots(form, 1, 2, 128)
    as_set = {(str(e[0]), str(e[1]), m) for _, _, m, e, _ in roots if e}
    assert ("0", "1", 1) in as_set
    assert ("1", "0", 2) in as_set
    assert ("1", "1", 1) in as_set


_RATIONAL = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
_ROOT = st.one_of(
    _RATIONAL,
    st.builds(lambda re, im: coerce_scalar(GaussRat(re, im)),
              _RATIONAL, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_ROOT, min_size=1, max_size=4))
def test_roots_with_multiplicity_recovers_linear_factors(roots):
    """Every root of a product of linear factors comes back exactly, with
    its multiplicity (the job of a rational root scan, and more)."""
    p = UniPoly([1])
    for r in roots:
        p = p * UniPoly([-r, 1])
    balls = roots_with_multiplicity(p, 128)
    assert all(b.exact is not None for b in balls)
    assert {b.exact: b.multiplicity for b in balls} == Counter(roots)
    assert len(balls) == len(Counter(roots))


def test_rational_roots_large_coefficients_fast():
    # coefficients with huge prime-ish factors: three irrational roots,
    # none of them reported as exact
    p = UniPoly([-(10 ** 12 + 39), 0, 0, 10 ** 11 + 3])
    balls = roots_with_multiplicity(p, 128)
    assert len(balls) == 3
    assert all(b.exact is None and b.multiplicity == 1 for b in balls)


def test_gauss_sqrt():
    assert gauss_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert gauss_sqrt(-4) == GaussRat(0, 2)
    assert gauss_sqrt(GaussRat(0, 2)) == GaussRat(1, 1)  # (1+i)^2 = 2i
    assert gauss_sqrt(Fraction(2)) is None


def test_parse_scalar_strings():
    assert parse_scalar_string("1.25") == Fraction(5, 4)
    assert parse_scalar_string("-3") == Fraction(-3)
    assert parse_scalar_string("2/5") == Fraction(2, 5)
    assert parse_scalar_string("1+2i") == GaussRat(1, 2)
    assert parse_scalar_string("-i") == GaussRat(0, -1)
    assert parse_scalar_string("0.5-0.25i") == GaussRat(Fraction(1, 2), Fraction(-1, 4))


def test_primitive_vector():
    assert primitive_vector([Fraction(-1, 2), Fraction(1, 4)]) == [Fraction(2), Fraction(-1)]
    assert primitive_vector([Fraction(0), Fraction(-3), Fraction(6)]) == \
        [Fraction(0), Fraction(1), Fraction(-2)]
