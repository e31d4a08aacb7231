import functools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadrics.linalg import poly_mul
from quadrics.scalars import (GaussRat, coerce_scalar, parse_scalar_string, primitive_vector,
                              reconstruct_gauss)
from quadrics import univariate
from quadrics.univariate import (RootFindingError, binary_form_roots,
                                 numeric_roots_squarefree, roots_with_multiplicity, uni_gcd,
                                 yun_squarefree)


def _prod(*factors):
    """The product of polynomials given as coefficient lists, low to high."""
    return functools.reduce(poly_mul, factors, [1])


def test_uni_gcd_is_primitive():
    # (t - 1)(t + 2) and (t - 1)(t - 3), and their multiples by 6 and 1/4
    a = _prod([-1, 1], [2, 1])
    b = _prod([-1, 1], [-3, 1])
    assert uni_gcd(a, b) == [-1, 1]
    assert uni_gcd([6 * c for c in a], [Fraction(c, 4) for c in b]) == [-1, 1]
    assert uni_gcd(_prod([3, 2], a), _prod([3, 2], [2, 0, 1])) == [3, 2]


def test_yun_multiplicities():
    # (t - 1)^3 (t + 2)^2 (t - 5)
    p = _prod([-1, 1], [-1, 1], [-1, 1], [2, 1], [2, 1], [-5, 1])
    parts = dict()
    for f, m in yun_squarefree(p):
        parts[m] = f
    assert set(parts) == {1, 2, 3}
    assert parts[3] == [-1, 1]
    assert parts[2] == [2, 1]
    assert parts[1] == [-5, 1]


def test_roots_with_multiplicity_exact_recognition():
    p = _prod([Fraction(-1, 2), 1], [3, 1], [3, 1])
    roots = {str(b.exact): b.multiplicity for b in roots_with_multiplicity(p, 128)}
    assert roots == {"1/2": 1, "-3": 2}


def test_gaussian_quadratic_roots():
    # t^2 + 1 over the rationals: roots +/- i, recognized exactly
    p = [1, 0, 1]
    roots = roots_with_multiplicity(p, 128)
    vals = {b.exact for b in roots}
    assert GaussRat(0, 1) in vals and GaussRat(0, -1) in vals


def test_irrational_roots_carry_certified_radius():
    p = [-2, 0, 1]  # t^2 - 2
    roots = roots_with_multiplicity(p, 192)
    with mp.workprec(220):
        for b in roots:
            assert b.exact is None
            assert b.radius < mp.mpf("1e-30")
            assert min(abs(b.value - mp.sqrt(2)), abs(b.value + mp.sqrt(2))) <= b.radius


@pytest.mark.parametrize("read_bits", [53, 1024])
def test_radius_is_computed_once_at_the_roots_precision(read_bits):
    """t^3 - 2 at 192 bits: each radius comes with its root, from the
    iteration's last disk at 192 bits, so a read under any working
    precision gives the same mpf; it covers the root found at 1024 bits."""
    p = [-2, 0, 0, 1]
    balls = roots_with_multiplicity(p, 192)
    want = [b.radius for b in balls]
    with mp.workprec(read_bits):
        assert all(b.radius is w for b, w in zip(balls, want))
    with mp.workprec(1024):
        cube = [mp.cbrt(2) * mp.expjpi(mp.mpf(2 * k) / 3) for k in range(3)]
        for b in balls:
            assert min(abs(b.value - r) for r in cube) <= b.radius < mp.mpf("1e-30")


def test_binary_form_roots_with_coordinate_roots():
    from quadrics.polynomials import parse_poly
    # z1 * (z1 - z2) * z2^2: roots [0:1], [1:1], [1:0] (double)
    form = parse_poly("z1^2*z2^2 - z1*z2^3")
    roots, _ = binary_form_roots(form, 1, 2, 128)
    as_set = {(str(e[0]), str(e[1]), m) for _, _, m, e in roots if e}
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
    p = _prod(*([-r, 1] for r in roots))
    balls = roots_with_multiplicity(p, 128)
    assert all(b.exact is not None for b in balls)
    assert {b.exact: b.multiplicity for b in balls} == Counter(roots)
    assert len(balls) == len(Counter(roots))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_ROOT, min_size=1, max_size=5), _ROOT.filter(lambda c: c != 0))
def test_mod_prime_is_a_ring_map(roots, lead):
    """mod_prime maps a Gaussian-rational root of p to a root of p's image
    modulo the prime, which the modular squarefree test of yun_squarefree
    relies on; a nonzero value there proves a scalar is no root."""
    def residue(image, x):
        x, acc = univariate.mod_prime(x), 0
        for c in reversed(image):
            acc = (acc * x + c) % univariate._P
        return acc

    p = _prod([lead], *([-r, 1] for r in roots))
    image = [univariate.mod_prime(c) for c in univariate.integral(p)[0]]
    assert all(residue(image, r) == 0 for r in roots)
    assert residue([univariate.mod_prime(Fraction(c)) for c in (-2, 0, 1)], 1) != 0


def test_yun_with_a_leading_coefficient_divisible_by_the_prime():
    """The modular squarefree test proves nothing when the prime divides
    the leading coefficient; the exact decomposition decides."""
    big = univariate._P
    assert yun_squarefree([-1, 0, big]) == [([-1, 0, big], 1)]
    assert yun_squarefree(_prod([1, big], [1, big])) == [([1, big], 2)]


_GAUSS_INT = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


_GAUSS_FACTOR = st.lists(st.builds(GaussRat, st.integers(-5, 5), st.integers(-5, 5)),
                         min_size=2, max_size=3).filter(lambda f: f[-1] != 0)


def _zz_i(f):
    """f, GaussRats with integer parts low to high, as a sympy Poly over Z[i]."""
    import sympy
    return sympy.Poly([int(c.re) + int(c.im) * sympy.I for c in reversed(f)],
                      sympy.Symbol("t"), domain="ZZ_I")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_GAUSS_FACTOR, st.integers(1, 3)), min_size=1, max_size=3),
       st.builds(GaussRat, st.integers(-6, 6), st.integers(1, 6)))
def test_yun_factors_are_primitive_and_multiply_back(factors, scale):
    """A scalar times Gaussian-integer factors raised to powers: every Yun
    factor has integer parts and content 1 in Z[i], and their product with
    multiplicities is the input's primitive multiple up to a unit (sympy's
    content and primitive part over Z[i])."""
    import sympy
    units = (1, -1, sympy.I, -sympy.I)
    p = _prod([scale], *(f for f, m in factors for _ in range(m)))
    parts = yun_squarefree(p)
    for f, _ in parts:
        assert all(isinstance(c, GaussRat) and c.re.denominator == c.im.denominator == 1
                   for c in f)
        assert _zz_i(f).content() in units
    back = _zz_i(_prod(*(f for f, m in parts for _ in range(m))))
    assert any(back == _zz_i(p).primitive()[1] * u for u in units)


_SCALE = st.builds(lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
                   st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9)).filter(bool)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_GAUSS_INT, min_size=1, max_size=6), _GAUSS_INT.filter(lambda c: c != 0),
       st.booleans(), st.tuples(st.integers(-9, 9), st.integers(1, 9)), _SCALE,
       st.sampled_from([53, 256]))
def test_a_multiple_has_the_same_roots_bit_for_bit(low, lead, real, root, c, prec):
    """F, with a rational root x / b, and c F for a nonzero Gaussian
    rational c: the same values, radii and exact roots, bit for bit, as
    the solve starts from the monic ratios."""
    x, b = root
    q = [coerce_scalar(GaussRat(int(z.real), 0 if real else int(z.imag))) for z in low + [lead]]
    F = _prod(q, [-x, b])
    assume(len(uni_gcd(F, univariate._derivative(F))) == 1)

    def bits(balls):
        return [(z.value._mpc_, z.radius._mpf_, z.exact) for z in balls]

    assert bits(numeric_roots_squarefree(F, prec)) == bits(
        numeric_roots_squarefree([c * a for a in F], prec))


def test_rational_roots_large_coefficients_fast():
    # coefficients with huge prime-ish factors: three irrational roots,
    # none of them reported as exact
    p = [-(10 ** 12 + 39), 0, 0, 10 ** 11 + 3]
    balls = roots_with_multiplicity(p, 128)
    assert len(balls) == 3
    assert all(b.exact is None and b.multiplicity == 1 for b in balls)


_BIG = st.integers(-2 ** 64, 2 ** 64)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_BIG, _BIG, st.integers(1, 2 ** 64)), min_size=1, max_size=3),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 9)),
       st.sampled_from([256, 512]))
def test_gaussian_rational_roots_with_huge_denominators_are_exact(factors, cubic, prec):
    """Each root (x + i y) / b of (b t - x - i y), b up to 2^64, comes back
    exact exactly once, next to the three roots, numeric with finite radii,
    of an Eisenstein cubic at 2 (irreducible over Q, so no root in Q(i));
    the recognizer's bound comes from the leading coefficient and the
    radius, not from a fixed maximal denominator."""
    roots = [coerce_scalar(GaussRat(Fraction(x, b), Fraction(y, b))) for x, y, b in factors]
    assume(len(set(roots)) == len(roots))
    k2, k1, m = cubic
    p = _prod([2 * (2 * m + 1), 2 * k1, 2 * k2, 1], *([-GaussRat(x, y), b] for x, y, b in factors))
    balls = roots_with_multiplicity(p, prec)
    assert Counter(b.exact for b in balls if b.exact is not None) == Counter(roots)
    numeric = [b for b in balls if b.exact is None]
    assert len(numeric) == 3
    assert all(b.multiplicity == 1 and mp.isfinite(b.radius) for b in numeric)


def test_a_root_next_to_an_irrational_one_is_taken_once():
    """-9/11 is the closest rational with denominator at most lc = 11 to
    both -0.8182 and the irrational root -0.7913: only the root within its
    radius of the candidate is exact."""
    balls = roots_with_multiplicity([-27, -60, -24, 11], 256)
    assert [b.exact for b in balls if b.exact is not None] == [Fraction(-9, 11)]
    assert sum(b.exact is None and mp.isfinite(b.radius) for b in balls) == 2


def test_a_small_denominator_under_a_huge_leading_coefficient():
    """(3t - 1)(3^190 t^2 - 2) at 256 bits: lc times the radius is far above
    1/2, so rounding lc t would miss 1/3; the bound (2 R)^(-1/2) keeps it."""
    balls = roots_with_multiplicity(_prod([-1, 3], [-2, 0, 3 ** 190]), 256)
    assert [b.exact for b in balls if b.exact is not None] == [Fraction(1, 3)]


_SMALL_GAUSS = st.builds(GaussRat, st.integers(-7, 7), st.integers(-7, 7))
# the offset of a part from the root's, in units of the radius: inside, on
# the edge, just outside, and anywhere within two radii
_OFFSET = st.one_of(st.sampled_from([0, 1, -1, 1 - Fraction(1, 2 ** 40), 1 + Fraction(1, 2 ** 40),
                                     -1 - Fraction(1, 2 ** 40), 1 + Fraction(1, 2 ** 20)]),
                    st.fractions(-2, 2, max_denominator=2 ** 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SMALL_GAUSS, _SMALL_GAUSS.filter(bool), st.lists(_SMALL_GAUSS, min_size=1, max_size=3),
       _SMALL_GAUSS.filter(bool), st.integers(1, 255), st.integers(24, 90),
       _OFFSET, _OFFSET, st.sampled_from([53, 128, 256]))
def test_the_lattice_filter_never_rejects_a_recognized_root(a, b, low, lead, mant, k,
                                                           dx, dy, prec):
    """z = a / b + (dx + i dy) R, rounded to prec bits, for a root a / b of
    F = (b t - a) q, whose parts have denominators dividing N = N(lc F):
    ``_near_lattice`` is |x N - round(x N)| <= N R for each part x of z,
    computed on Fractions, and wherever the recognizer takes a root of F
    at z (``reconstruct_gauss`` within R, and F vanishing there) the filter
    passes z."""
    F = univariate._primitive(univariate.integral(_prod([-a, b], low + [lead]))[0])
    f = [(int(c.re), int(c.im)) if isinstance(c, GaussRat) else (c, 0) for c in F]
    norm = f[-1][0] ** 2 + f[-1][1] ** 2
    c = a / b
    R = Fraction(mant, 2 ** k)
    with mp.workprec(prec):
        z = mp.mpc(*(mp.mpf(x.numerator) / x.denominator for x in (c.re + dx * R, c.im + dy * R)))
    radius = mp.ldexp(mant, -k)
    re, im = (Fraction(*mp.libmp.to_rational(x)) for x in z._mpc_)
    near = [univariate._near_lattice(x, norm, radius._mpf_) for x in z._mpc_]
    assert near == [abs(x * norm - round(x * norm)) <= norm * R for x in (re, im)]
    den = min(norm, math.isqrt(int(1 / (2 * R))))
    got = reconstruct_gauss(re, im, den, R)
    if got is not None and univariate._vanishes(f, got):
        assert all(near)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_SMALL_GAUSS, _SMALL_GAUSS.filter(bool)), min_size=1, max_size=4),
       st.sampled_from([[-2, 0, 1], [1, 1, 1], [GaussRat(0, 3), 0, 7]]),
       st.sampled_from([53, 128, 256]))
def test_the_lattice_filter_changes_no_root(factors, irreducible, prec):
    """Gaussian-rational roots a / b beside the roots of an irreducible
    quadratic: the values, radii and exact roots with the filter in front
    of the recognizer are those without it, bit for bit."""
    F = _prod(irreducible, *([-a, b] for a, b in factors))
    assume(len(uni_gcd(F, univariate._derivative(F))) == 1)

    def bits(balls):
        return [(z.value._mpc_, z.radius._mpf_, z.exact) for z in balls]

    got = bits(numeric_roots_squarefree(F, prec))
    with mock.patch.object(univariate, "_near_lattice", lambda x, n, r: True):
        assert got == bits(numeric_roots_squarefree(F, prec))


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


# ---------------------------------------------------------------------------
# The seeded solve: companion-matrix seeds against mpmath's own start
# ---------------------------------------------------------------------------

def complex_roots(coeffs, prec):
    """The roots ``_solve`` finds, rounded to ``prec`` bits, in its order."""
    with mp.workprec(prec):
        return [z for z, _ in univariate._solve(coeffs, prec)[1]]


def _default_start_roots(coeffs, prec):
    """mp.polyroots from its fixed start, with complex_roots' settings."""
    with mp.workprec(prec):
        return mp.polyroots([mp.mpc(c) for c in reversed(coeffs)],
                            maxsteps=200, extraprec=prec)


def _assert_same_roots(got, want, prec, tol_exp=None):
    """Equal as multisets, each root within 2^tol_exp * max(1, |z|);
    tol_exp defaults to 4 - prec."""
    tol = mp.mpf(2) ** (4 - prec if tol_exp is None else tol_exp)
    assert len(got) == len(want)
    rest = list(want)
    with mp.workprec(prec + 20):
        for z in got:
            k = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
            assert abs(rest.pop(k) - z) <= tol * max(1, abs(z))


def _product(roots):
    """Coefficients (low to high) of the monic polynomial with these roots."""
    p = [1]
    for r in roots:
        p = [(p[i - 1] if i else 0) - r * (p[i] if i < len(p) else 0)
             for i in range(len(p) + 1)]
    return p


def _seeded_durand_kerner(coeffs, prec):
    """mp.polyroots at 2 prec bits from the numpy.roots seeds, each moved by
    a distinct relative 2^-40, sorted as complex_roots sorts."""
    seeds = np.roots([complex(c) for c in reversed(coeffs)])
    seeds = seeds + (0.4 + 0.9j) ** np.arange(1, len(seeds) + 1) * 2.0 ** -40 * np.abs(seeds)
    with mp.workprec(prec):
        roots = mp.polyroots([mp.mpc(c) for c in reversed(coeffs)], maxsteps=200,
                             extraprec=prec, roots_init=[mp.mpc(z) for z in seeds])
        return sorted(map(mp.mpc, roots), key=lambda z: (abs(z.imag), z.real, z.imag))


def _solve_with_disks(solve, *args):
    """solve(*args), the seeds its root iteration started from and the last
    Henrici disk of each root."""
    seeds, disks = [], []
    real = univariate._aberth

    def spy(a, start, bits):
        seeds.extend(start)
        found = real(a, start, bits)
        disks.extend(r[3] for r in found)
        return found

    with mock.patch.object(univariate, "_aberth", spy):
        got = solve(*args)
    return got, seeds, disks


def _spy_on_polyroots(monkeypatch):
    """Record the roots_init every mp.polyroots call receives."""
    starts = []
    real = mp.polyroots

    def spy(*args, **kwargs):
        starts.append(kwargs.get("roots_init"))
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", spy)
    return starts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_GAUSS_INT, min_size=1, max_size=12),
       _GAUSS_INT.filter(lambda c: c != 0), st.sampled_from([53, 256, 512]))
def test_seeded_roots_match_the_default_start(low, lead, prec):
    """Squarefree Gaussian-integer polynomials of degree 1-12: the seeded
    solve returns the roots mpmath's own start returns."""
    coeffs = low + [lead]
    exact = [GaussRat(int(c.real), int(c.imag)) for c in coeffs]
    assume(len(uni_gcd(exact, univariate._derivative(exact))) == 1)
    _assert_same_roots(complex_roots(coeffs, prec),
                       _default_start_roots(coeffs, prec), prec)


def _in_canonical_order(roots):
    return roots == sorted(roots, key=lambda z: (abs(z.imag), z.real, z.imag))


def _within_one_ulp(x, y, prec):
    """Each part of y within one unit in the last place of x's part."""
    for a, b in ((x.real, y.real), (x.imag, y.imag)):
        if a != b and abs(a - b) > mp.mpf(2) ** (mp.mag(a) - prec):
            return False
    return True


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_GAUSS_INT, min_size=1, max_size=12),
       _GAUSS_INT.filter(lambda c: c != 0), st.sampled_from([53, 256, 512, 1024]))
def test_newton_roots_match_the_seeded_durand_kerner(low, lead, prec):
    """Squarefree Gaussian-integer polynomials of degree 1-12: the roots,
    in canonical order, are the seeded Durand-Kerner roots to one unit in
    the last place."""
    coeffs = low + [lead]
    exact = [GaussRat(int(c.real), int(c.imag)) for c in coeffs]
    assume(len(uni_gcd(exact, univariate._derivative(exact))) == 1)
    with mock.patch.object(mp, "polyroots", wraps=mp.polyroots) as spy:
        got = complex_roots(coeffs, prec)
    assert not spy.called
    want = _seeded_durand_kerner(coeffs, prec)
    assert _in_canonical_order(got) and len(got) == len(want) == len(exact) - 1
    with mp.workprec(prec + 20):
        for z in got:
            k = min(range(len(want)), key=lambda i: abs(want[i] - z))
            assert _within_one_ulp(want.pop(k), z, prec)


def _exact_mpc(c):
    return mp.mpc(int(c.re), int(c.im)) if isinstance(c, GaussRat) else mp.mpc(int(c))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_GAUSS_INT, max_size=10), _GAUSS_INT.filter(lambda c: c != 0), _GAUSS_INT,
       st.integers(20, 120), st.sampled_from([256, 512]))
def test_a_pair_two_to_the_minus_k_apart_is_isolated(low, lead, center, k, prec):
    """Squarefree Gaussian-integer polynomials of degree 2-12 with a pair
    of roots c +- 2^-k / sqrt(2), 2^-k sqrt(2) apart (4^(k+1) (z - c)^2 - 2
    times a random factor): the last Henrici disks are pairwise disjoint,
    every RootBall's radius covers a root found at 2048 bits, and
    mp.polyroots is never called."""
    c = GaussRat(int(center.real), int(center.imag))
    q = [GaussRat(int(z.real), int(z.imag)) for z in low + [lead]]
    # the pair's factor is 2 (2^(2k + 1) (z - c)^2 - 1), irreducible, and its
    # leading coefficient does not divide q's: q shares no factor with it
    assume(len(uni_gcd(q, univariate._derivative(q))) == 1)
    p = _prod(q, [4 ** (k + 1) * c * c - 2, -2 * 4 ** (k + 1) * c, 4 ** (k + 1)])
    with mock.patch.object(mp, "polyroots", wraps=mp.polyroots) as spy:
        balls, _, disks = _solve_with_disks(roots_with_multiplicity, p, prec)
    assert not spy.called
    assert len(balls) == len(p) - 1 and univariate._isolated(disks, len(p) - 1)
    with mp.workprec(2048):
        ref = mp.polyroots([_exact_mpc(c) for c in reversed(p)], maxsteps=50,
                           extraprec=2048, roots_init=[b.value for b in balls])
        for b in balls:
            z = b.value if b.exact is None else univariate._c2mpc(b.exact)
            assert min(abs(z - r) for r in ref) <= b.radius


@pytest.mark.parametrize("prec", [53, 256, 512])
def test_separated_roots_take_no_fallback(prec, monkeypatch):
    roots = [1, -2, 3 + 1j, 3 - 1j, 0.5j, -0.25 - 4j]
    starts = _spy_on_polyroots(monkeypatch)
    got = complex_roots(_product(roots), prec)
    assert starts == []
    assert _in_canonical_order(got)
    _assert_same_roots(got, [mp.mpc(r) for r in roots], prec)


def test_roots_two_to_the_minus_60_apart_overlap():
    """A double copy cannot hold 1 + 2^-60, so it has a double root at 1,
    where p(1) = 0: disks at 1 coincide.  Its two seeds there, about 1e-8
    from 1, are parted by the iteration, and its last disks are isolated."""
    with mp.workprec(256):
        cs = [mp.mpc(c) for c in _product([1, 1 + mp.mpf(2) ** -60, -2])]
        a, _ = univariate.gauss_ints(cs)
    at_seeds = []
    for z in (1, 1, -2):
        br, bi, cr, ci = univariate._horner(a, z, 0, 0)
        at_seeds.append((z, 0, 0, br * br + bi * bi, cr * cr + ci * ci))
    assert not univariate._isolated(at_seeds, 3)
    got, seeds, disks = _solve_with_disks(complex_roots, cs, 256)
    assert sum(abs(z - 1) < 2 ** -20 for z in seeds) == 2
    assert univariate._isolated(disks, 3)
    with mp.workprec(256):
        _assert_same_roots(got, [mp.mpc(1), 1 + mp.mpf(2) ** -60, mp.mpc(-2)], 256)


def test_disk_radii_round_up():
    """Radii sqrt(4.5) around 0 and 4 + i, sqrt(17) apart: the disks
    overlap by 0.12, which radii rounded down to 2 would miss."""
    assert not univariate._isolated([(0, 0, 0, 9, 2), (4, 1, 0, 9, 2)], 1)
    assert univariate._isolated([(0, 0, 0, 9, 2), (7, 0, 0, 9, 2)], 1)


def test_close_roots_are_isolated(monkeypatch):
    starts = _spy_on_polyroots(monkeypatch)
    with mp.workprec(256):
        roots = [mp.mpc(1), 1 + mp.mpf(2) ** -60, mp.mpc(-2)]
        cs = _product(roots)
    got, _, disks = _solve_with_disks(complex_roots, cs, 256)
    assert starts == [] and univariate._isolated(disks, 3)
    _assert_same_roots(got, roots, 256)


def test_parts_below_eps_are_dropped_as_polyroots_does(monkeypatch):
    """At 256 bits eps is 2^-255: a root 2^-300 (1 + i) becomes 0, and a
    part of size 2^-300 beside a part of size 1 becomes 0, on both paths."""
    with mp.workprec(256):
        t = mp.mpf(2) ** -300
        cs = _product([t * (1 + 1j), 1 + t * 1j, t + 2j, mp.mpc(-3)])
    want = [mp.mpc(-3), mp.mpc(0), mp.mpc(1), mp.mpc(0, 2)]
    starts = _spy_on_polyroots(monkeypatch)
    assert complex_roots(cs, 256) == want
    assert starts == []


@pytest.mark.parametrize("prec", [256, 512])
def test_a_part_far_below_the_other_keeps_its_own_bits(prec, monkeypatch):
    """1 + 2^-200 i: the imaginary part is above eps(prec), so it stays,
    and it comes back exact although it is 2^-200 of the root."""
    with mp.workprec(prec + 400):
        roots = [1 + mp.mpc(0, mp.mpf(2) ** -200), mp.mpc(-2), mp.mpc(0, 3)]
        cs = _product(roots)
    starts = _spy_on_polyroots(monkeypatch)
    got = complex_roots(cs, prec)
    assert starts == []
    assert got == sorted(roots, key=lambda z: (abs(z.imag), z.real, z.imag))


@pytest.mark.parametrize("prec", [256, 512])
@pytest.mark.parametrize("scale", [200, -200])
def test_huge_and_tiny_roots_converge_without_fallback(scale, prec, monkeypatch):
    """Roots near 2^200 or 2^-200 keep their relative accuracy: each
    comes back exactly, with no fallback.  (At 53 bits polyroots' cleanup
    makes a root below eps = 2^-52 zero, and so does the Newton path.)"""
    roots = [mp.mpc(u) * mp.mpf(2) ** scale for u in (1, -3, 1 + 2j, 1 - 2j, 0.5 - 1j)]
    with mp.workprec(prec + 2000):
        cs = _product(roots)
    starts = _spy_on_polyroots(monkeypatch)
    got = complex_roots(cs, prec)
    assert starts == []
    assert got == sorted(roots, key=lambda z: (abs(z.imag), z.real, z.imag))


@pytest.mark.parametrize("prec", [53, 256])
@pytest.mark.parametrize("roots", [
    [1, 1, 2],
    [1 + 2j, 1 + 2j, -3],
    [1, 1 + 2 ** -20, 1 - 2 ** -20, -2],  # dyadic: the coefficients are exact
], ids=["double", "complex-double", "cluster"])
def test_double_root_and_cluster(roots, prec, monkeypatch):
    """No ArithmeticError, and the roots of mpmath's own start, to about
    half the working bits (as far as a double root is determined); the
    cluster's disks are isolated, a double root's are not."""
    coeffs = _product(roots)
    starts = _spy_on_polyroots(monkeypatch)
    got, _, disks = _solve_with_disks(complex_roots, coeffs, prec)
    assert starts == []
    assert univariate._isolated(disks, len(roots)) == (len(set(roots)) == len(roots))
    half = 4 - prec // 2
    _assert_same_roots(got, _default_start_roots(coeffs, prec), prec, half)
    _assert_same_roots(got, [mp.mpc(r) for r in roots], prec, half)


@pytest.mark.parametrize("prec", [256, 512])
def test_real_seeds_reach_a_complex_pair(prec, monkeypatch):
    """A fiber polynomial of a near-tangential line-conic intersection: two
    roots 3.2e-37 apart, off the real axis.  Its double copy has real
    roots; from those seeds unchanged, the iteration stays on the real
    axis and never converges."""
    with mp.workprec(prec):
        coeffs = [mp.mpf("-2799.903044449283275517954122164797305503857741"
                         "348773789668665493568819756573434"),
                  mp.mpf("-105.8282201390401023599360663176499157969955544"
                         "171491809271457966740256173929191"),
                  mp.mpf(-1)]
    starts = _spy_on_polyroots(monkeypatch)
    got, _, disks = _solve_with_disks(complex_roots, coeffs, prec)
    assert starts == [] and univariate._isolated(disks, 2)
    _assert_same_roots(got, _default_start_roots(coeffs, prec), prec)
    with mp.workprec(prec):
        assert sorted(mp.sign(mp.im(z)) for z in got) == [-1, 1]
        assert abs(got[0] - got[1]) < mp.mpf("1e-36")


@pytest.mark.parametrize("prec", [53, 256, 512])
@pytest.mark.parametrize("scale", ["1e401", "1e-401"])
def test_unusable_double_copy_uses_the_default_start(scale, prec, monkeypatch):
    """Coefficients beyond double range: (z - 1)(z - 2) times 1e401 (every
    entry overflows) or 1e-401 (the leading entry underflows to 0): the
    iteration starts from mpmath's fixed start and isolates both roots."""
    s = mp.mpf(scale)
    with mp.workprec(600):  # products exact: a common factor only
        coeffs = [c * s for c in (2, -3, 1)]
    starts = _spy_on_polyroots(monkeypatch)
    got, seeds, disks = _solve_with_disks(complex_roots, coeffs, prec)
    assert starts == [] and list(seeds) == [1, 0.4 + 0.9j]
    assert univariate._isolated(disks, 2)
    _assert_same_roots(got, [mp.mpc(1), mp.mpc(2)], prec)


@pytest.mark.parametrize("prec", [53, 256, 512])
def test_zero_coefficients(prec):
    # high-order zeros are dropped; low-order zeros are roots at 0
    _assert_same_roots(complex_roots([2, -3, 1, 0, 0], prec),
                       [mp.mpc(1), mp.mpc(2)], prec)
    _assert_same_roots(complex_roots([0, 0, 2, -3, 1], prec),
                       [mp.mpc(0), mp.mpc(0), mp.mpc(1), mp.mpc(2)], prec)
    assert complex_roots([5, 0, 0], prec) == []


def test_failed_solve_raises_root_finding_error():
    """(z^2 - 2)^2 at 384 bits: its two double roots converge at about 1/3
    per step and do not reach the stop test of the ceiling's bits within
    the step cap; the error is an ArithmeticError of its own type, which
    the intersection code reads as a failed coordinate change."""
    with pytest.raises(RootFindingError, match="did not converge"):
        complex_roots([4, 0, -4, 0, 1], 384)
    assert issubclass(RootFindingError, ArithmeticError)
