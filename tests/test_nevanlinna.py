import itertools
import math
import random
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadrics.config import analysis_scope
from quadrics.nevanlinna import (CountingSample, DegenerateCurveError,
                                 DivisorContainsCurveError, ExpCurve, ExpSum,
                                 GrowthSample, InsufficientSpanError,
                                 NotAMorphismError, NotGeneralPositionError,
                                 SumComponentError,
                                 ahlfors_limit, characteristic, counting,
                                 defect_estimate, functoriality_check,
                                 main_theorem_check, order_estimate,
                                 three_quadrics_certificate)
from quadrics.polynomials import parse_poly
from quadrics.scalars import (GaussRat, coerce_scalar, parse_scalar_string,
                              scalar_to_complex)

from exact_reference import (reference_N_at, reference_arc_mean, reference_characteristic,
                             reference_eval_one, reference_log_value, reference_logabs_grid,
                             reference_logeval, reference_polish_zero,
                             reference_scaled, reference_windings)

EXP_LINE = ExpCurve.from_exponents([[0], [0, 1]])          # [1 : e^xi]
EXP_SQUARE = ExpCurve.from_exponents([[0], [0, 0, 1]])     # [1 : e^{xi^2}]


# ---------------------------------------------------------------------------
# Exponential-sum evaluation
# ---------------------------------------------------------------------------

_SMALL = st.builds(lambda a, b, d: coerce_scalar(GaussRat(Fraction(a, d), Fraction(b, d))),
                   st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 4))
_POLY = st.lists(_SMALL, max_size=4)
_TERM = st.tuples(st.lists(_SMALL, min_size=1, max_size=3), _POLY)
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                   st.floats(-9.0, 9.0, allow_nan=False))
_POINT = st.builds(complex, _COORD, _COORD)


def _bits(x):
    return np.asarray(x).tobytes()


def _tied(base, shifts):
    """Terms (c, P + i k): their exponents' real parts tie at every point,
    as Horner adds the constant coefficient last."""
    base = base or [coerce_scalar(0)]
    return [(c, [base[0] + GaussRat(0, k)] + base[1:]) for c, k in shifts]


_TIED_TERMS = st.builds(_tied, _POLY, st.lists(st.tuples(st.lists(_SMALL, min_size=1, max_size=2),
                                                         st.integers(-3, 3)),
                                               min_size=2, max_size=4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.lists(_TERM, min_size=1, max_size=4), _TIED_TERMS),
       st.lists(_POINT, min_size=2, max_size=9))
def test_one_kernel_matches_the_replaced_evaluators(terms, points):
    """logeval, logabs_grid and the single-point log value all read
    ExpSum._scaled; each equals, bit for bit, the evaluator it replaced,
    on multi-term sums with polynomial coefficients, exponents of degree
    up to 3 (values far beyond double range), terms whose exponents tie
    in the largest real part at every point, and points on the axes.

    Arrays hold at least two points: on a one-point array numpy's own
    sum over four or more terms is t0 + pairwise(t1, ...), not left to
    right, so there the replaced code differed from itself by rounding.
    The log of the reference value is compared only where that value is
    a normal double: a subnormal one has lost its low bits.
    """
    import quadrics.nevanlinna as nv

    es = ExpSum(terms)
    assume(not es.is_zero)
    xi = np.array(points)
    for got, want in zip(es.logeval(xi), reference_logeval(es, xi)):
        assert _bits(got) == _bits(want)
    assert _bits(es.logabs_grid(xi)) == _bits(reference_logabs_grid(es, xi))
    assert _bits(es.logabs_grid(xi.reshape(1, -1))) == _bits(
        reference_logabs_grid(es, xi.reshape(1, -1)))
    for z in points:
        got, want = nv._log_value(es, z), reference_log_value(es, z)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        try:
            value = reference_eval_one(es, z)
        except OverflowError:
            continue
        if sys.float_info.min <= abs(value) < math.inf:
            assert abs(got.real - math.log(abs(value))) < 1e-9


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.lists(_TERM, min_size=1, max_size=4), _TIED_TERMS),
       st.lists(_POINT, min_size=1, max_size=9))
def test_logeval_reads_the_derivative_off_the_values_exponentials(terms, points):
    """logeval's fourth value, log|g'| from each term's coefficient
    c' + c Q' times the e^(q - M) of g itself, agrees with logabs_grid of
    g.derivative() to rounding wherever |g'| is within e^600 of g's
    largest term e^M, and never lies below it; a g' that vanishes
    identically reads as e^M times the floor 1e-300."""
    es = ExpSum(terms)
    assume(not es.is_zero)
    xi = np.array(points)
    got = es.logeval(xi)[3]
    M = es._scaled(xi, False)[0]
    gp = es.derivative()
    if gp.is_zero:
        assert (got == M + np.log(1e-300)).all()
        return
    want = reference_logabs_grid(gp, xi)
    slack = 1e-9 * np.maximum(1.0, np.abs(want))
    near = want > M - 600
    assert (np.abs(got - want)[near] <= slack[near]).all()
    assert (got >= want - slack).all()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.lists(_TERM, min_size=1, max_size=4), _TIED_TERMS),
       st.lists(_POINT, min_size=1, max_size=5))
def test_the_point_tail_reads_the_derivative_as_the_array_tail(terms, points):
    """ExpSum._scaled at one point gives g' = e^M h' as on a one-point
    array, to rounding: within 1e-13 of the mass
    sum |c' + c Q'| e^(Re q - M) (1 + |Q|) of its terms, |Q| the sum of
    the moduli of the exponent's terms at the point, which bounds the
    rounding of q that e^q carries on; the two tails may put M an ulp
    apart."""
    es = ExpSum(terms)
    assume(not es.is_zero)
    deriv = {e: c for c, e in es.derivative().terms}

    def value(p, z):
        return sum(complex(scalar_to_complex(c)) * z ** k for k, c in enumerate(p))

    def modulus(p, z):
        return sum(abs(complex(scalar_to_complex(c))) * abs(z) ** k for k, c in enumerate(p))

    for z in points:
        M, _, hp = es._scaled(z, True)
        M_a, _, hp_a = es._scaled(np.array([z]), True)
        assert isinstance(hp, complex)
        mass = sum(abs(value(deriv.get(e, ()), z)) * math.exp(value(e, z).real - M)
                   * (1 + modulus(e, z)) for _, e in es.terms)
        assert abs(hp - np.ravel(hp_a)[0] * math.exp(np.ravel(M_a)[0] - M)) <= 1e-13 * mass


def test_a_derivative_beyond_the_double_range_is_refused_only_where_read():
    """10^308 e^{2 xi} has a double coefficient, but its derivative's,
    2 10^308, has none: T(r) of [1 : 10^308 e^{2 xi}] and g's own values
    are computed as before, and only logeval, which reads g', raises
    CoefficientRangeError."""
    from quadrics.nevanlinna import CoefficientRangeError
    big = ExpSum([([10 ** 308], [0, 2]), ([1], [0, 0, 1])])
    xi = np.array([0.5 + 0.5j, -1.0 + 0j])
    assert np.isfinite(big.logabs_grid(xi)).all()
    with pytest.raises(CoefficientRangeError):
        big.logeval(xi)
    # the second component wins on all of |xi| = 3 and at 0, so T is 0
    T, _ = characteristic(ExpCurve([ExpSum.constant(1), ExpSum([([10 ** 308], [0, 2])])]), 3.0)
    assert T == 0.0


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan])
_SIGNED_POINT = st.builds(complex, _SIGNED, _SIGNED)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.lists(_SIGNED_POINT, min_size=1, max_size=2),
                          st.lists(_SIGNED_POINT, max_size=2)), max_size=4),
       _SIGNED_POINT)
# at xi = -1 + i, (0j * xi).real is -0.0, so the first exponent's real
# part is -0.0 and the second's 0.0
@example(cache=[([1 + 0j], [complex(-0.0, 1.0)]), ([2 + 0j], [complex(0.0, 2.0)])],
         xi=complex(-1.0, 1.0))
@example(cache=[([1 + 0j], [complex(0.0, 1.0)]), ([2 + 0j], [complex(-0.0, 2.0)])],
         xi=complex(-1.0, 1.0))
def test_the_point_tail_matches_the_replaced_one(cache, xi):
    """ExpSum._scaled at one point, (M, h) bit for bit and type for type,
    against its tail before the one-pass sum (max, then sum of a list), on
    hand-set term caches with signed zeros and non-finite entries.  From
    exact terms Horner adds a constant coefficient of real part +0.0 last,
    so no exponent has real part -0.0 there; here 0.0 ties -0.0 in the
    largest real part, and M is the first of them, as max picks it."""
    es = ExpSum([])
    es._py_cache = tuple((tuple(c), tuple(e)) for c, e in cache)
    with np.errstate(all="ignore"):
        got, want = es._scaled(xi, False)[:2], reference_scaled(es, xi)
    assert [type(x) for x in got] == [type(x) for x in want]
    assert float(got[0]).hex() == float(want[0]).hex()
    assert (complex(got[1]).real.hex(), complex(got[1]).imag.hex()) == (
        complex(want[1]).real.hex(), complex(want[1]).imag.hex())


def test_the_empty_sum_is_zero_everywhere():
    import quadrics.nevanlinna as nv

    empty = ExpSum([])
    xi = np.array([0j, 1 + 2j, -3.0])
    logabs, phase, ok, logderiv = empty.logeval(xi)
    assert logabs.shape == phase.shape == ok.shape == logderiv.shape == (3,)
    assert np.all(logabs == -np.inf) and np.all(logderiv == -np.inf) and not ok.any()
    assert np.all(empty.logabs_grid(xi.reshape(3, 1)) == -np.inf)
    assert nv._log_value(empty, 1j) == complex(-math.inf, 0.0)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def test_characteristic_exponential_closed_form():
    for r in (10.0, 50.0, 200.0):
        T, err = characteristic(EXP_LINE, r)
        assert abs(T - r / math.pi) < 1e-6
        assert err < 1e-6


def test_characteristic_constant_curve():
    for exponents in ([[0], [3]], [[2], [2]]):
        T, _ = characteristic(ExpCurve.from_exponents(exponents), 10.0)
        assert T == 0.0


def test_characteristic_square_exponent():
    T, _ = characteristic(EXP_SQUARE, 20.0)
    assert abs(T / 400 - 1 / math.pi) < 1e-4 / math.pi


def test_characteristic_monotone():
    gs = GrowthSample.compute(EXP_LINE, np.logspace(0.2, 2, 12))
    for a, b, ea, eb in zip(gs.values, gs.values[1:], gs.errors, gs.errors[1:]):
        assert b >= a - (ea + eb)


def test_characteristic_scale_invariance():
    """Multiplying every component by e^Q leaves T unchanged."""
    common = ExpSum.exponential([Fraction(2), Fraction(-1, 3), Fraction(1, 7)])
    shifted = ExpCurve([c * common for c in EXP_LINE.components])
    for r in (5.0, 25.0):
        t0, e0 = characteristic(EXP_LINE, r)
        t1, e1 = characteristic(shifted, r)
        assert abs(t0 - t1) < 1e-8 + e0 + e1


def _fresh(curve):
    """A new curve with the same components: no analysis-scope entry of
    the original can answer for it."""
    return ExpCurve(curve.components)


def test_a_sum_component_has_no_characteristic():
    """T(r) needs single-term components: a sum component raises
    SumComponentError, from characteristic and from the image curve of a
    morphism that is not monomial."""
    line_sum = ExpCurve([EXP_LINE.components[0],
                         EXP_LINE.components[0] + EXP_LINE.components[1]])  # [1 : 1 + e^xi]
    with pytest.raises(SumComponentError):
        characteristic(line_sum, 2.0)
    with pytest.raises(SumComponentError):
        functoriality_check(EXP_LINE, [parse_poly("z0^2 + z1^2"), parse_poly("z1^2")],
                            [10.0, 20.0])


def _assert_exact(got, want):
    value, err = got
    assert abs(value - want) <= 1e-14 * abs(want)
    assert abs(value - want) <= err


def _modulus(text):
    return abs(scalar_to_complex(parse_scalar_string(text)))


@pytest.mark.parametrize("a", ["1", "-5/2i", "3/5+4/5i", "-7/3+1/9i"])
def test_closed_form_line_is_exact(a):
    """T([1 : e^{a xi}], r) = |a| r / pi, to 1e-14 relative and within
    the reported error."""
    curve = ExpCurve.from_json({"exponents": [["0"], ["0", a]]})
    for r in (1.0, 3.0, 10.0, 47.5, 100.0, 1000.0):
        _assert_exact(characteristic(curve, r), _modulus(a) * r / math.pi)


@pytest.mark.parametrize("d", ["1", "1/4+1/2i", "-3i"])
def test_closed_form_pure_quadratic_is_exact(d):
    """T([1 : e^{d xi^2}], r) = |d| r^2 / pi."""
    curve = ExpCurve.from_json({"exponents": [["0"], ["0", "0", d]]})
    for r in (1.0, 2.0, 20.0, 1000.0):
        _assert_exact(characteristic(curve, r), _modulus(d) * r * r / math.pi)


@pytest.mark.parametrize("alphas", [("0", "1", "1+1i"), ("1/3", "-2i", "2+1/2i")])
def test_closed_form_certificate_curves_are_exact(alphas):
    """[e^{a0 xi^2} : e^{a1 xi^2} : e^{a2 xi^2}] has T(r) = r^2 X, X the
    pairwise-distance sum over 2 pi, and the certificate's relative
    errors are at rounding level."""
    a = [parse_scalar_string(x) for x in alphas]
    X = sum(abs(scalar_to_complex(p) - scalar_to_complex(q))
            for p, q in itertools.combinations(a, 2)) / (2 * math.pi)
    curve = ExpCurve.from_json({"exponents": [["0", "0", x] for x in alphas]})
    for r in (1.0, 5.0, 20.0, 300.0):
        _assert_exact(characteristic(curve, r), r * r * X)
    cert = three_quadrics_certificate(a, quadrature_check=True)
    assert len(cert.quadrature_checks) == 4
    assert all(chk["relative_error"] <= 1e-13 for chk in cert.quadrature_checks)


MIXED = ExpCurve.from_json(                  # [1 : e^{(3/5+4i/5) xi} : e^{(4/5-3i/5) xi^2}]
    {"exponents": [["0"], ["0", "3/5+4/5i"], ["0", "0", "4/5-3/5i"]]})


@pytest.mark.parametrize("r", [2.0, 4.0, 8.0])
def test_closed_form_matches_the_mpmath_reference(r):
    """The closed form agrees with mpmath.quad at 50 digits between the
    ties that mpmath finds, within its reported error."""
    value, err = characteristic(MIXED, r)
    assert abs(value - reference_characteristic(MIXED, r)) <= err
    assert err < 1e-12


_TIE = Fraction(1, 2 ** 40)
# Tangential ties (a double root of a tie polynomial on the unit circle)
# and nearly coincident cuts, of one pair or of two pairs
_RIGGED_TIES = [
    ([[0], [-2, 1]], 2.0),                       # -2 + 2 cos t touches 0 at t = 0
    ([[0], [-2, 1]], 2.0 * (1 + 2.0 ** -40)),    # two cuts about 3e-6 apart
    ([[0], [-4, 0, 1]], 2.0),                    # -4 + 4 cos 2t touches 0 at 0 and pi
    ([[0], [0, 1], [_TIE, -1]], 3.0),            # cuts of (0,1) and (0,2) 2^-40 / 3 apart
    ([[0], [0, 1], [0, -1]], 2.0),               # all three pairs tie at t = +-pi/2
]


def _aberth_characteristic(curve, r):
    """T(r) and its error as ``characteristic`` computes them, with the
    cuts from the Aberth iteration at 53 bits (reference_arc_mean)."""
    import quadrics.nevanlinna as nv
    ell, W = nv._trig_branches(curve, [r])
    mean, err = reference_arc_mean(ell, W[0])
    center = nv._center_value(curve)
    return mean - center, err + nv._EPS * (abs(mean) + abs(center))


def _assert_eigen_cuts_within_error(curve, r):
    value, err = characteristic(curve, r)
    ref, ref_err = _aberth_characteristic(curve, r)
    assert abs(value - ref) <= min(err, ref_err), (value, ref, err, ref_err)


@pytest.mark.parametrize("exponents, r", _RIGGED_TIES)
def test_eigen_cuts_at_tangential_ties_and_close_cuts(exponents, r):
    """T(r) from the double companion eigenvalues lies within the printed
    error of T(r) from the Aberth cuts, and within its own, where a tie is
    tangential or two cuts nearly coincide."""
    _assert_eigen_cuts_within_error(ExpCurve.from_exponents(exponents), r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(_SMALL, min_size=1, max_size=4), min_size=2, max_size=4),
       st.sampled_from([1.0, 2.5, 7.0, 30.0]))
def test_eigen_cuts_stay_within_the_error_of_the_aberth_cuts(exponents, r):
    """Random curves of up to four components with exponents of degree up
    to 3: the same bound as at the rigged ties."""
    _assert_eigen_cuts_within_error(ExpCurve.from_exponents(exponents), r)


_GROWTH_CURVES = [
    # growth-lines' [1 : e^{a xi}], a on each half axis, |a| in [1, 1.004)
    *(ExpCurve.from_exponents([[0], [0, a]])
      for a in (Fraction(1003, 1000), Fraction(-1001, 1000), GaussRat(0, Fraction(1002, 1000)),
                GaussRat(0, Fraction(-1, 1)))),
    # growth-quadratic's [1 : e^{b xi} : e^{c xi^2}], a base pair and two of its images
    *(ExpCurve.from_exponents([[0], [0, b], [0, 0, c]])
      for b, c in ((GaussRat(Fraction(3, 5), Fraction(4, 5)), GaussRat(Fraction(4, 5), Fraction(-3, 5))),
                   (GaussRat(Fraction(-4, 5), Fraction(3, 5)), GaussRat(Fraction(-4, 5), Fraction(3, 5))),
                   (GaussRat(Fraction(3, 5), Fraction(-4, 5)), GaussRat(Fraction(4, 5), Fraction(3, 5))))),
]


def _assert_one_pass_is_each_radius_alone(curve, radii):
    import quadrics.nevanlinna as nv
    assert _bits(nv._characteristic(curve, radii)) == _bits(
        [characteristic(curve, r) for r in radii])


@pytest.mark.parametrize("exponents, r", _RIGGED_TIES)
def test_one_pass_over_the_radii_is_each_radius_alone_at_rigged_ties(exponents, r):
    """T(r) and its error from one pass over several radii, unsorted and
    repeated, equal bit for bit what each radius gives alone, where the
    rigged radius has a tangential tie or nearly coincident cuts."""
    _assert_one_pass_is_each_radius_alone(ExpCurve.from_exponents(exponents),
                                          [3 * r, r, 1.0, r, 1.5 * r])


@pytest.mark.parametrize("curve", _GROWTH_CURVES)
def test_one_pass_over_the_radii_is_each_radius_alone_on_the_growth_curves(curve):
    radii = [float(r) for r in np.logspace(1, 3, 10)][::-1] + [2.0, 4.0, 8.0, 20.0, 4.0, 10.0]
    _assert_one_pass_is_each_radius_alone(curve, radii)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(_SMALL, min_size=1, max_size=4), min_size=2, max_size=4),
       st.lists(st.sampled_from([1.0, 2.5, 7.0, 30.0]) | st.floats(1.0, 100.0),
                min_size=1, max_size=6))
def test_one_pass_over_the_radii_is_each_radius_alone(exponents, radii):
    """Random single-term curves of up to four components with exponents
    of degree up to 3, at random radii (repeats included)."""
    _assert_one_pass_is_each_radius_alone(ExpCurve.from_exponents(exponents), radii)


def test_one_pass_over_radii_with_different_cut_counts_is_each_radius_alone():
    """e^{a xi} and e^{b xi}, a and b adjacent doubles, are one branch in
    doubles at r = 1.25 and 2.5 (a r and b r round alike) and two branches
    tying twice at r = 1.5 and 3: radii with two numbers of cuts in one
    pass."""
    curve = ExpCurve.from_exponents([[0], [0, Fraction(2 - 2 ** -51)], [0, Fraction(2 - 2 ** -52)]])
    _assert_one_pass_is_each_radius_alone(curve, [1.5, 1.25, 3.0, 2.5, 1.25])


def test_a_growth_sample_fills_the_scope_in_one_pass(monkeypatch):
    """GrowthSample.compute computes every radius not yet stored in one
    _arc_mean pass and stores each under characteristic's key, so later
    calls at those radii take no pass and return the stored values."""
    passes = _count_arc_means(monkeypatch)
    curve = _fresh(EXP_SQUARE)
    with analysis_scope():
        stored = characteristic(curve, 20.0)
        sample = GrowthSample.compute(curve, [40.0, 10.0, 20.0, 10.0])
        assert len(passes) == 2 and passes[1][1].shape[0] == 2   # 10 and 40 only
        assert sample.radii == [10.0, 10.0, 20.0, 40.0]
        assert list(zip(sample.values, sample.errors))[2] == stored
        for r, v, e in zip(sample.radii, sample.values, sample.errors):
            assert characteristic(curve, r) == (v, e)
        assert len(passes) == 2
        for r, v, e in zip(sample.radii, sample.values, sample.errors):
            assert _bits(characteristic(_fresh(EXP_SQUARE), r)) == _bits((v, e))


def test_a_run_fails_as_its_first_failing_radius_would():
    """The least radius of a run decides its failure: here every tie
    polynomial's eigen-solve fails (a companion entry of 10^598), and at
    10^7 the branches overflow as well."""
    import quadrics.nevanlinna as nv
    curve = ExpCurve.from_exponents([[0], [0, 0, Fraction(1, 10 ** 300)], [0, 10 ** 300]])
    for radii, message in (([1e7, 10.0], "no finite double roots"), ([1e7], "unbounded")):
        with pytest.raises(nv.QuadratureFailureError, match=message):
            GrowthSample.compute(curve, radii)


def test_closed_form_overflow_raises():
    """A radius whose power overflows raises QuadratureFailureError, and
    so does one whose arc sums could overflow."""
    import quadrics.nevanlinna as nv

    with pytest.raises(nv.QuadratureFailureError, match="unbounded"):
        characteristic(EXP_SQUARE, 1e200)
    with pytest.raises(nv.QuadratureFailureError, match="unbounded"):
        characteristic(EXP_LINE, 1.7e308)


def test_nevanlinna_scalar_form_consistency():
    """T_0(g, r) and T([1:g], r) agree for the sup-norm convention."""
    # T_0 of e^xi computed directly from log^+ on the circle
    for r in (10.0, 40.0):
        thetas = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        t0 = float(np.mean(np.maximum(r * np.cos(thetas), 0.0)))
        T, _ = characteristic(EXP_LINE, r)
        assert abs(T - t0) < 1e-3


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_counting_exponential_lattice():
    cs = counting(EXP_LINE, parse_poly("z1 - z0"), 100.0)
    assert cs.n_at(100.0) == 1 + 2 * math.floor(100 / (2 * math.pi))
    K = math.floor(100 / (2 * math.pi))
    closed = math.log(100) + 2 * sum(math.log(100 / (2 * math.pi * k))
                                     for k in range(1, K + 1))
    assert abs(cs.N - closed) < 1e-6
    # step function: n(t) = 1 + 2 floor(t / 2 pi)
    for t in (1.0, 7.0, 40.0, 95.0):
        assert cs.n_at(t) == 1 + 2 * math.floor(t / (2 * math.pi))


def test_counting_missed_divisor():
    cs = counting(EXP_LINE, parse_poly("z0"), 100.0)
    assert cs.zeros == []
    assert cs.N == 0.0


def test_counting_divisor_containing_curve():
    f = ExpCurve.from_exponents([[0], [0, 1], [0, 2]])
    with pytest.raises(DivisorContainsCurveError):
        counting(f, parse_poly("z1^2 - z0*z2"), 10.0)


def test_counting_zero_positions_certified():
    cs = counting(EXP_LINE, parse_poly("z1 - z0"), 30.0)
    for z in cs.zeros:
        k = round(z.position.imag / (2 * math.pi))
        assert abs(z.position - 2j * math.pi * k) < 1e-9


def test_winding_residuals_are_integer_certificates():
    cs = counting(EXP_LINE, parse_poly("z1 - z0"), 50.0)
    assert cs.winding_residual < 1e-6


def test_counting_polynomial_coefficient_zeros():
    # (xi^2 + 1) e^xi has zeros at +/- i only
    g = ExpSum([([1, 0, 1], [0, 1])])
    curve = ExpCurve([ExpSum.constant(1), g])
    cs = counting(curve, parse_poly("z1"), 10.0)
    assert cs.n_at(10.0) == 2
    assert cs.n_at(0.5) == 0


def test_counting_multiple_zero_at_origin():
    """e^{xi^2} - 1 has a double zero at 0 and rings of four simple zeros.

    The batched winding evaluates |g'/g| at samples where g underflows
    near the double zero, where log|g'| - log|g| could be -inf - (-inf);
    no warning may come of it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs = counting(EXP_SQUARE, parse_poly("z1 - z0"), 5.0)
    assert cs.n_at(5.0) == 2 + 4 * math.floor(25 / (2 * math.pi))
    origin = [z for z in cs.zeros if abs(z.position) < 1e-5]
    assert origin and origin[0].multiplicity == 2


# Two-term divisors, whose zeros locate_zeros_in_box gives in closed form:
# (curve, divisor).  P - Q = a xi is linear, a on several directions, and
# -b/a = 1, -1, -2 and -3/2.
_TWO_TERM_CASES = {
    "line": (EXP_LINE, "z1 - z0"),
    "line_plus": (EXP_LINE, "z1 + z0"),
    "diagonal": (ExpCurve.from_exponents([[0], [0, GaussRat(1, 1)]]), "2*z1 + 3*z0"),
    "rotated": (ExpCurve.from_exponents([[0], [0, GaussRat(Fraction(3, 5), Fraction(-4, 5))]]),
                "z1 - z0"),
    "negative_imaginary": (ExpCurve.from_exponents([[0], [0, GaussRat(0, -1)]]), "z1 + 2*z0"),
}


@pytest.mark.parametrize("r", [10.0, 20.0])
@pytest.mark.parametrize("name", sorted(_TWO_TERM_CASES))
def test_two_term_closed_form_matches_the_quadtree(name, r):
    """The closed-form zeros of a two-term divisor and the quadtree's zeros
    on the same square: equal counts in the disk, and each closed-form
    zero within the two radii of a distinct quadtree zero."""
    from quadrics.nevanlinna import _ZeroSearch
    curve, divisor = _TWO_TERM_CASES[name]
    sample = counting(curve, parse_poly(divisor), r)
    assert sample.winding_residual == 0.0
    half = r * (1 + 1 / 64) + 1 / 32
    search = _ZeroSearch(curve.compose(parse_poly(divisor)), half * 1e-10)
    search.run(-half, half, -half, half)
    tree = [z for z in search.zeros if abs(z.position) <= r]
    assert len(sample.zeros) == len(tree) > 0
    matched = set()
    for z in sample.zeros:
        j = min(range(len(tree)), key=lambda i: abs(tree[i].position - z.position))
        assert abs(tree[j].position - z.position) <= z.radius + tree[j].radius
        assert z.multiplicity == tree[j].multiplicity == 1
        matched.add(j)
    assert len(matched) == len(tree)


@pytest.mark.parametrize("name", sorted(_TWO_TERM_CASES))
def test_two_term_radii_hold_the_zeros(name):
    """Each closed-form zero lies within its radius of the root
    (L + 2 pi i k - d_0) / d_1 of D - L - 2 pi i k, k read off the zero,
    with D = P - Q = d_0 + d_1 xi and L = log(-b/a), computed at 256 bits
    from the exact coefficients."""
    from quadrics.linalg import poly_sub
    from quadrics.nevanlinna import locate_zeros_in_box
    curve, divisor = _TWO_TERM_CASES[name]
    g = curve.compose(parse_poly(divisor))
    (a, P), (b, Q) = g.terms

    def exact(c):
        c = GaussRat(0) + c
        return mp.mpc(mp.mpf(c.re.numerator) / c.re.denominator,
                      mp.mpf(c.im.numerator) / c.im.denominator)
    zeros, _ = locate_zeros_in_box(g, 20.0)
    assert zeros
    with mp.workprec(256):
        L = mp.log(exact(-b[0] / a[0]))
        d0, d1 = (exact(c) for c in poly_sub(list(P), list(Q)))
        for z in zeros:
            k = int(mp.nint((d0 + d1 * z.position - L).imag / (2 * mp.pi)))
            assert abs((L + mp.mpc(0, 2 * mp.pi * k) - d0) / d1 - z.position) <= z.radius


def test_two_term_count_at_radius_ten_thousand():
    """[1 : e^xi] against z1 - z0 at r = 10^4: 2 floor(r / 2 pi) + 1 zeros,
    in closed form, well within a second."""
    import time
    r = 1e4
    t0 = time.perf_counter()
    sample = counting(ExpCurve.from_exponents([[0], [0, 1]]), parse_poly("z1 - z0"), r)
    assert time.perf_counter() - t0 < 1.0
    assert sample.n_at(r) == len(sample.zeros) == 2 * math.floor(r / (2 * math.pi)) + 1


def test_two_term_coefficients_beyond_the_double_range():
    """10^400 e^xi - 1 has its zeros at -400 log 10 + 2 pi i k; no double
    holds 10^400, and the closed form never needs one: the 123 with
    |2 pi k| <= sqrt(1000^2 - (400 log 10)^2) lie within r = 1000."""
    sample = counting(EXP_LINE, parse_poly("10^400*z1 - z0"), 1000.0)
    assert len(sample.zeros) == 123
    assert all(abs(z.position.real + 400 * math.log(10)) < 1e-9 for z in sample.zeros)


def test_a_zero_on_the_circle_is_undecided():
    """The zero 2 pi i of e^xi - 1 sits on |xi| = 2 pi to the last bit, so
    its disk meets the circle: no float comparison keeps or drops it."""
    from quadrics.nevanlinna import ZeroOnContourError
    with pytest.raises(ZeroOnContourError, match="meets"):
        counting(EXP_LINE, parse_poly("z1 - z0"), 2 * math.pi)
    assert counting(EXP_LINE, parse_poly("z1 - z0"), 2 * math.pi + 1e-9).n_at(7.0) == 3


@pytest.mark.parametrize("g, searched, at_origin", [
    (ExpSum([([1], [0, 1]), ([-1], [])]), False, [1]),               # e^xi - 1
    (ExpSum([([1], [1]), ([-1], [])]), False, []),                   # e - 1: no zero
    (ExpSum([([1], [0, 1]), ([-1], [0, 0, 1])]), True, [1]),         # e^xi - e^{xi^2}
    (ExpSum([([1], [0, 0, 1]), ([-1], [])]), True, [2]),             # e^{xi^2} - 1
    (ExpSum([([0, 1], [0, 1]), ([-1], [])]), True, []),              # xi e^xi - 1
    (ExpSum([([1], []), ([1], [0, 1]), ([1], [0, 0, 1])]), True, []),  # three terms
])
def test_only_two_constant_terms_skip_the_quadtree(g, searched, at_origin):
    """Two terms with constant coefficients and a linear exponent
    difference are solved in closed form; a quadratic exponent difference
    (e^xi - e^{xi^2}, as z1 - z2 on [1 : e^xi : e^{xi^2}], and
    e^{xi^2} - 1 with its double zero at 0), a coefficient that is not
    constant and three terms go to the quadtree, and the double zero
    keeps its multiplicity 2 there."""
    import quadrics.nevanlinna as nv
    runs = []

    class Counted(nv._ZeroSearch):
        def run(self, *box):
            runs.append(box)
            super().run(*box)

    with mock.patch.object(nv, "_ZeroSearch", Counted):
        zeros, residual = nv.locate_zeros_in_box(g, 3.0)
    assert bool(runs) == searched and (residual > 0) == searched
    assert [z.multiplicity for z in zeros if abs(z.position) < 1e-5] == at_origin


def test_zero_search_rejects_an_unconverged_polish():
    """e^{a xi} - 1, a = 250559/250000: Newton from the centre of this
    winding-1 cell runs all its steps and stops inside the cell at
    0.146 - 668.126i, where |g| is about 2; the cell's zero is
    2 pi i (-107) / a = -670.80i.  Given the centre as its moment the
    cell starts there, and the search must subdivide instead."""
    from quadrics.nevanlinna import _polish_zero, _ZeroSearch
    a = Fraction(250559, 250000)
    g = ExpSum([([1], [0, a]), ([-1], [])])
    cell = (-6.942962646484375, 1.98370361328125,
            -676.4429321289062, -667.5162658691406)
    half = 1000.0 * (1 + 1 / 64) + 1 / 32  # the box counting(curve, D, 1000) searches
    search = _ZeroSearch(g, half * 1e-10)
    centre = complex((cell[0] + cell[1]) / 2, (cell[2] + cell[3]) / 2)
    z, converged = _polish_zero(g, centre, search.tol * 1e-3)
    assert not converged and cell[0] <= z.real <= cell[1] and cell[2] <= z.imag <= cell[3]
    search._descend(*cell, 1, [centre], 8)
    assert len(search.zeros) == 1
    expected = 2j * math.pi * -107 / float(a)
    assert abs(search.zeros[0].position - expected) < 1e-9


def test_the_first_moment_lies_next_to_the_cells_zero():
    """On cells of e^{a xi} - 1, a = 250559/250000, of sides 0.5, 2 and 6,
    each around one zero 2 pi i k / a placed at the centre, next to a side
    or next to a corner, and on the cell above whose centre Newton does
    not converge, the first moment from _windings lies within 1e-3 of the
    cell side from the zero."""
    import quadrics.nevanlinna as nv
    a = Fraction(250559, 250000)
    g = ExpSum([([1], [0, a]), ([-1], [])])
    rows = [(-6.942962646484375, 1.98370361328125, -676.4429321289062, -667.5162658691406)]
    zeros = [-107]
    for k in (-107, -3, 0, 1, 40):
        z = 2j * math.pi * k / float(a)
        for side in (0.5, 2.0, 6.0):
            for fx, fy in ((0.5, 0.5), (0.1, 0.5), (0.9, 0.93), (0.03, 0.97), (0.5, 0.02)):
                x0, y0 = z.real - fx * side, z.imag - fy * side
                rows.append((x0, x0 + side, y0, y0 + side))
                zeros.append(k)
    w, _, sums = nv._windings(g, np.array(rows))
    assert (w == 1).all()
    for (x0, x1, y0, y1), k, m in zip(rows, zeros, sums[:, 0].tolist()):
        assert abs(m - 2j * math.pi * k / float(a)) <= 1e-3 * max(x1 - x0, y1 - y0)


@pytest.mark.parametrize("s1, outside", [
    (complex(math.nan, math.nan), True),
    (complex(0.5, 3.0), True),        # above the cell
    (complex(-0.25, 0.5), True),      # left of it
    (complex(0.3, -0.2), False),
    (complex(1.0, 1.0), False),       # its corner is in the cell
])
def test_a_winding_one_cell_starts_at_its_moment_when_it_lies_inside(s1, outside):
    """A winding-1 cell [0, 1] x [-1, 1] starts Newton at the moment it is
    given, in the closed cell or outside it, and polishes nothing when
    the moment is NaN; a cell whose polish fails splits."""
    import quadrics.nevanlinna as nv
    starts = []

    def polish(g, z0, tol):
        starts.append(z0)
        return z0, False

    search = nv._ZeroSearch(_EXP_MINUS_1, 1e-9)
    with mock.patch.object(nv, "_polish_zero", polish):
        assert search._leaf(0.0, 1.0, -1.0, 1.0, 1, [s1], 3) is None
    assert nv._in_cell(s1, 0.0, 1.0, -1.0, 1.0) != outside
    assert _bits(starts) == _bits([] if math.isnan(s1.real) else [s1])


def _leaf_log(log):
    """A _ZeroSearch._leaf that logs (w, cell, zeros or None) of each call."""
    import quadrics.nevanlinna as nv
    leaf = nv._ZeroSearch._leaf

    def logged(self, x0, x1, y0, y1, w, sums, depth):
        zeros = leaf(self, x0, x1, y0, y1, w, sums, depth)
        log.append((w, (x0, x1, y0, y1), zeros))
        return zeros
    return logged


def test_a_double_zero_never_passes_as_two_simple_zeros():
    """e^{xi^2} - 1 on a cell of winding 2 around its double zero 0: the
    power sums' two roots polish to "converged" points some 1e-9 apart,
    since Newton's steps there are rounding noise, and the pair is refused
    by its confirmation boxes.  The cell's descendants that still hold
    both zeros take no power sums, so the pair is judged once, and the
    cell splits down to one zero of multiplicity 2, as the search without
    power sums gives it."""
    import quadrics.nevanlinna as nv
    g = ExpSum([([1], [0, 0, 1]), ([-1], [])])
    cell = (-0.5, 0.5, -0.4, 0.6)
    w, _, sums = nv._windings(g, np.array([cell]))
    assert w.tolist() == [2]
    search, log, confirm, judged = nv._ZeroSearch(g, 3e-10), [], nv._ZeroSearch._confirm, []

    def logged_confirm(self, leaves):
        stands = confirm(self, leaves)
        judged.extend(ok for zeros, ok in zip(leaves, stands) if len(zeros) > 1)
        return stands

    with mock.patch.object(nv._ZeroSearch, "_leaf", _leaf_log(log)), \
            mock.patch.object(nv._ZeroSearch, "_confirm", logged_confirm):
        search._descend(*cell, 2, sums[0].tolist(), 0)
    assert judged == [False]
    assert [w for w, _, _ in log].count(2) > 20
    assert [z.multiplicity for z in search.zeros] == [2]
    assert abs(search.zeros[0].position) < 1e-7


@pytest.mark.parametrize("tol, whole", [(1e-9, False), (1e-10, True)])
def test_two_zeros_closer_than_twice_the_tolerance_split_their_cell(tol, whole):
    """(xi^2 - d^2)(1 + e^xi), d = 5e-10, has the simple zeros +-d, 1e-9
    apart, and +-pi i in the box.  With tol = 1e-9 no cell holding both
    is taken whole (their distance is not above 2 tol): the cells split
    until a cut parts them, and each is polished alone.  With tol = 1e-10
    the root cell is taken whole, its four zeros confirmed.  Either way
    the four zeros are counted once each."""
    import quadrics.nevanlinna as nv
    d = Fraction(1, 2 * 10 ** 9)
    c = [-d * d, 0, 1]
    g = ExpSum([(c, []), (c, [0, 1])])
    search, log = nv._ZeroSearch(g, tol), []
    with mock.patch.object(nv._ZeroSearch, "_leaf", _leaf_log(log)):
        search.run(-4.63, 5.37, -4.71, 5.29)  # no cut runs between +-d
    assert [z.multiplicity for z in search.zeros] == [1, 1, 1, 1]
    want = [-math.pi * 1j, -5e-10, 5e-10, math.pi * 1j]
    got = sorted((z.position for z in search.zeros), key=lambda z: (z.imag, z.real))
    assert all(abs(a - b) < 1e-15 for a, b in zip(got, want))
    both = [zeros for w, (x0, x1, y0, y1), zeros in log
            if x0 <= -5e-10 and 5e-10 <= x1 and y0 <= 0 <= y1]
    assert (both[0] is not None) == whole
    assert whole or (len(both) > 20 and all(zeros is None for zeros in both))


def test_a_failed_confirmation_box_splits_its_cell(monkeypatch):
    """1 + e^xi + e^{xi^2} on the centered square of half side 2.5: with
    every confirmation box made to fail, each cell taken from its power
    sums splits instead, and the search ends with the same zeros, in the
    same order and multiplicities, within rounding."""
    import quadrics.nevanlinna as nv
    g, half = _THREE_TERMS, 2.5
    tol = max(half * 1e-10, 1e-13)

    def search(log):
        s = nv._ZeroSearch(g, tol)
        with mock.patch.object(nv._ZeroSearch, "_leaf", _leaf_log(log)):
            s.run(-half, half, -half, half)
        return s.zeros

    taken, refused = [], []
    want = search(taken)
    windings = nv._windings

    def failing(g, boxes, *rest):
        w, residual, sums = windings(g, boxes, *rest)
        if sys._getframe(1).f_code.co_name == "_confirm":
            residual[0] = math.nan
        return w, residual, sums

    monkeypatch.setattr(nv, "_windings", failing)
    got = search(refused)
    whole = [cell for w, cell, zeros in taken if zeros is not None and len(zeros) > 1]
    assert whole
    for x0, x1, y0, y1 in whole:  # the search went on into the cell's quarters
        assert any(x0 <= a0 < a1 <= x1 and y0 <= b0 < b1 <= y1 and a1 - a0 < x1 - x0
                   for _, (a0, a1, b0, b1), _ in refused)
    assert [z.multiplicity for z in got] == [z.multiplicity for z in want]
    assert all(abs(a.position - b.position) <= 2.0 ** -50 * max(abs(b.position), 1.0)
               for a, b in zip(got, want))


def test_the_power_sums_lie_next_to_the_cells_zeros():
    """On square cells of e^{a xi} - 1, a = 250559/250000, holding 2 to
    _POWER_SUMS of its zeros 2 pi i k / a, placed at the centre, next to a
    side or next to a corner, s_p from _windings lies within 3e-3 R^p of
    the sum of the zeros' p-th powers, R the largest modulus on the cell
    (the worst of these 225 cells is 2.0e-3 R^p; measured against the
    side instead, an off-centre cell is off by 2.1e-2 side^6)."""
    import quadrics.nevanlinna as nv
    a = float(_A)
    g = ExpSum([([1], [0, _A]), ([-1], [])])
    rows, held = [], []
    for n in range(2, nv._POWER_SUMS + 1):
        side = n * 2 * math.pi / a
        for k0 in (-n - 3, -n, -(n // 2), 0, 4):
            for fx in (0.5, 0.1, 0.9):
                for fy in (0.5, 0.1, 0.9):
                    x0, y0 = -fx * side, 2 * math.pi * (k0 - fy) / a
                    rows.append((x0, x0 + side, y0, y0 + side))
                    held.append([2j * math.pi * k / a for k in range(k0, k0 + n)])
    w, _, sums = nv._windings(g, np.array(rows))
    assert w.tolist() == [len(zs) for zs in held]
    for (x0, x1, y0, y1), zs, row in zip(rows, held, sums.tolist()):
        R = max(abs(complex(x, y)) for x in (x0, x1) for y in (y0, y1))
        for p in range(1, len(zs) + 1):
            assert abs(row[p - 1] - sum(z ** p for z in zs)) <= 3e-3 * R ** p


@pytest.mark.parametrize("ulps", [1, -1])
def test_conjugate_zeros_keep_their_list_order_in_the_report(ulps):
    """A conjugate pair whose moduli differ by one unit in the last place,
    either way, ties on the report's sort key (|z| and Re z rounded to 40
    bits) and keeps its list order, whichever zero comes first; a zero
    farther out still sorts after both."""
    from quadrics.nevanlinna import CountedZero
    x, y = 0.03373651982644153, 1.8302772928127902
    z = complex(x, y)
    other = complex(x, -math.nextafter(y, ulps * math.inf))
    assert abs(other) == math.nextafter(abs(z), ulps * math.inf)
    far = complex(x, 1.9)
    for first, second in ((z, other), (other, z)):
        zeros = [CountedZero(far, 1, 1e-9), CountedZero(first, 1, 1e-9),
                 CountedZero(second, 1, 1e-9)]
        sample = CountingSample(parse_poly("z0 + z1"), 1, 3.0, zeros)
        listed = [complex(*zero["position"]) for zero in sample.to_json()["zeros"]]
        assert listed == [first, second, far]


def test_each_zero_of_a_three_term_sum_is_polished_once():
    """1 + e^{3 xi / 2} + e^{(1/4 + i/2) xi^2}, the divisor z0 + z1 + z2 of
    the quadratic golden curve, at r = 8: Newton runs once per zero, from
    each cell's first moment or from its power sums' roots, and no cell of
    winding 1 splits.  Eight cells of winding 2 to 4 are taken whole, with
    their zeros confirmed; the one of winding 6 falls back to a split
    after its second root's polish fails, and its two polishes are the
    only ones beyond one per zero."""
    import quadrics.nevanlinna as nv
    curve = ExpCurve.from_exponents([[0], [0, Fraction(3, 2)],
                                     [0, 0, GaussRat(Fraction(1, 4), Fraction(1, 2))]])
    polished, leaves = [], []
    polish, leaf = nv._polish_zero, nv._ZeroSearch._leaf

    def counted_polish(*args):
        polished.append(args[1])
        return polish(*args)

    def counted_leaf(self, x0, x1, y0, y1, w, sums, depth):
        zeros = leaf(self, x0, x1, y0, y1, w, sums, depth)
        leaves.append((w, zeros is not None))
        return zeros

    with mock.patch.object(nv, "_polish_zero", counted_polish), \
            mock.patch.object(nv._ZeroSearch, "_leaf", counted_leaf):
        sample = counting(curve, parse_poly("z0 + z1 + z2"), 8.0)
    assert len(sample.zeros) == 25 and len(polished) == 27
    assert all(z.multiplicity == 1 for z in sample.zeros)
    assert (1, False) not in leaves
    assert sorted(w for w, taken in leaves if taken and w > 1) == [2, 2, 2, 3, 4, 4, 4, 4]
    assert sorted(w for w, taken in leaves if not taken) == [6, 7, 8, 25]


# e^xi - 1: simple zeros at 2 pi i k
_EXP_MINUS_1 = ExpSum([([1], [0, 1]), ([-1], [])])
_THREE_TERMS = ExpSum([([1], []), ([1], [0, 1]), ([1], [0, 0, 1])])
_WINDING_BOXES = [
    (-1.0, 1.0, -1.0, 1.0),
    (-0.5, 0.75, 5.0, 7.0),
    (0.0, 1.0, 0.0, 1.0),        # corner on the zero 0: g underflows there
    (-3.0, 2.0, -20.0, 20.0),    # winding 7, phase sum 7.1e-15 off 14 pi
    (-1.0, 1.0, 2.0, 4.0),
    (-0.3, 0.4, 5.9, 6.6),
    (-10.0, 10.0, -10.0, 10.0),
    (0.1, 0.2, 0.1, 0.2),
    (-0.7, 1.3, 2 * math.pi, 8.0),  # bottom sides through the zero 2 pi i:
    (-1.0, 1.0, 2 * math.pi, 8.0),  # 51 rounds each
]


@pytest.mark.parametrize("samples_cap", [1 << 11, 200, 300, 1])
@pytest.mark.parametrize("max_refine", [60, 51, 50, 1])
def test_batched_winding_decides_each_box_as_alone(monkeypatch, samples_cap, max_refine):
    """Each box gets from a batch the (w, residual, power sums) or
    failure it gets alone, bit for bit, whatever the sample cap makes wait
    or share a round, and a box of winding w gets its first w power sums
    and NaN beyond (the 20 x 20 box, of winding 3, three of them).  The
    residual bound is lowered to 5e-15 so that the winding-7 box fails on
    it.  The 20 x 20 box needs two refinement rounds and the last two
    boxes 51, and each fails on a lower round limit; with a cap of 200
    samples the last box waits for the one before it, and waiting must
    not count as a round."""
    import quadrics.nevanlinna as nv
    monkeypatch.setattr(nv, "_MAX_RESIDUAL", 5e-15)
    monkeypatch.setattr(nv, "_BATCH_SAMPLES", samples_cap)
    g = _EXP_MINUS_1
    alone = [nv._windings(g, np.array([b]), max_refine) for b in _WINDING_BOXES]
    w, residual, sums = nv._windings(g, np.array(_WINDING_BOXES), max_refine)
    assert w.tolist() == [int(a[0][0]) for a in alone]
    assert _bits(residual) == _bits([a[1][0] for a in alone])
    assert _bits(sums) == _bits([a[2][0] for a in alone])
    failed = np.isnan(residual).tolist()
    assert failed == [False, False, True, True, False, False, max_refine == 1, False,
                      max_refine < 51, max_refine < 51]
    assert w.tolist() == [0 if f else k for f, k in zip(failed, [1, 1, 0, 0, 0, 1, 3, 0, 1, 1])]
    assert (np.isnan(sums) == (np.arange(nv._POWER_SUMS) >= w[:, None])).all()


_EDGE = st.sampled_from([0.0, 2 * math.pi, 2 * math.pi + 1e-9, 2 * math.pi - 1e-9, -2 * math.pi,
                         4 * math.pi + 1e-13, 1e-12, -1e-12])
_BOX = st.tuples(st.one_of(_EDGE, st.floats(-9.0, 9.0)), st.floats(0.01, 6.0),
                 st.one_of(_EDGE, st.floats(-20.0, 20.0)), st.floats(0.01, 8.0),
                 st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))


def _corner_box(x, w, y, h, at):
    """The box of sides w and h with (x, y) as its corner number at."""
    x0, y0 = x - w * at[0], y - h * at[1]
    return (x0, x0 + w, y0, y0 + h)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_BOX, min_size=1, max_size=6), st.sampled_from([1 << 11, 300, 150, 1]),
       st.sampled_from([60, 4, 1]), st.booleans())
def test_the_gathered_merge_matches_the_inserted_one(boxes, samples_cap, max_refine, three):
    """_windings, one gather per refinement round, against its np.insert
    merges (reference_windings): w, the residual and the first moment bit
    for bit, on boxes of e^xi - 1 or 1 + e^xi + e^{xi^2} with corners on
    or next to zeros of e^xi - 1 (where e^xi - 1 underflows, the box
    fails), with the sample cap lowered so that boxes wait, and with low
    round limits."""
    import quadrics.nevanlinna as nv
    g = _THREE_TERMS if three else _EXP_MINUS_1
    rows = np.array([_corner_box(*b) for b in boxes] + [(0.0, 1.0, 0.0, 1.0)])
    with mock.patch.object(nv, "_BATCH_SAMPLES", samples_cap):
        w, residual, sums = nv._windings(g, rows, max_refine)
        w_ref, residual_ref, sums_ref = reference_windings(g, rows, max_refine)
    assert w.tolist() == w_ref.tolist()
    assert _bits(residual) == _bits(residual_ref)
    assert _bits(sums) == _bits(sums_ref)
    assert three or np.isnan(residual[-1])  # e^xi - 1 underflows at the corner 0


_A = Fraction(250559, 250000)
_POLISH_CASES = [
    # e^{a xi} - 1 from next to its zeros 2 pi i k / a, and from the
    # centre of a cell where Newton does not converge
    *((ExpSum([([1], [0, _A]), ([-1], [])]), complex(0.3 * (-1) ** k, 2 * math.pi * k / 1.002 + 0.4))
      for k in range(-4, 5)),
    (ExpSum([([1], [0, _A]), ([-1], [])]), complex(-2.4796295166015625, -671.9796)),
    # 1 + e^{b xi} + e^{c xi^2} on a grid of starts
    *((ExpSum([([1], []), ([1], [0, b]), ([1], [0, 0, c])]), complex(x, y))
      for b, c in ((1, 1), (GaussRat(Fraction(3, 5), Fraction(4, 5)),
                            GaussRat(Fraction(4, 5), Fraction(-3, 5))))
      for x in (-2.0, -0.5, 1.0, 2.5) for y in (-1.5, 0.0, 2.0)),
]


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_polish_matches_the_reference_polish(tol):
    """_polish_zero against the same Newton iteration on the replaced
    single-point evaluator (reference_polish_zero), g and g' from one pass
    over g's terms: the point, part by part, and the converged flag, bit
    for bit.  Besides the starts next to zeros: at -800 on e^xi - 1 g'
    underflows against g (the d.real > 200 stop), at 0 g is exactly 0 (a
    zero step, converged), and at 10^200 the exponent xi^2 of
    1 + e^xi + e^{xi^2} is not finite."""
    from quadrics.nevanlinna import _polish_zero
    special = [(_EXP_MINUS_1, -800 + 0j), (_EXP_MINUS_1, 0j), (_THREE_TERMS, 1e200 + 0j)]
    got = []
    for g, z0 in _POLISH_CASES + special:
        (z, ok), (z_ref, ok_ref) = _polish_zero(g, z0, tol), reference_polish_zero(g, z0, tol)
        assert (z.real.hex(), z.imag.hex(), ok) == (z_ref.real.hex(), z_ref.imag.hex(), ok_ref)
        got.append((z, ok))
    assert got[-3] == (-800 + 0j, False) and got[-2] == (0j, True)
    assert math.isnan(got[-1][0].real) and not got[-1][1]
    assert sum(ok for _, ok in got) > len(_POLISH_CASES) // 2


def test_each_newton_step_evaluates_g_once():
    """In the zero search on 1 + e^xi + e^{xi^2} every Newton step of
    _polish_zero makes one ExpSum._scaled call, of g with g', as many as
    reference_polish_zero makes passes over g's terms (one _term_values
    call per step) from the same start, and locate_zeros_in_box never
    calls ExpSum.derivative."""
    import exact_reference
    import quadrics.nevanlinna as nv
    polishes, scaled, polish = [], nv.ExpSum._scaled, nv._polish_zero

    def counted_polish(g, z0, tol):
        polishes.append(((g, z0, tol), []))
        return polish(g, z0, tol)

    def counted_scaled(self, xi, derivative):
        if sys._getframe(1).f_code is polish.__code__:
            polishes[-1][1].append((self, derivative))
        return scaled(self, xi, derivative)

    def no_derivative(self):
        raise AssertionError("the zero search took g.derivative()")

    with mock.patch.object(nv, "_polish_zero", counted_polish), \
            mock.patch.object(nv.ExpSum, "_scaled", counted_scaled), \
            mock.patch.object(nv.ExpSum, "derivative", no_derivative):
        zeros, _ = nv.locate_zeros_in_box(_THREE_TERMS, 2.5)
    assert len(polishes) >= len(zeros) > 5
    passes, term_values = [], exact_reference._term_values

    def counted_term_values(es, xi):
        passes[-1] += 1
        return term_values(es, xi)

    with mock.patch.object(exact_reference, "_term_values", counted_term_values):
        for (g, z0, tol), calls in polishes:
            passes.append(0)
            reference_polish_zero(g, z0, tol)
            assert calls == [(g, True)] * passes[-1]
    assert sum(passes) > 2 * len(polishes)


# The quadtree on the centered square, as the depth-first,
# one-rectangle-at-a-time search from each cell's centre gave it: (sum, half side, zeros in list
# order, max residual).
_ZERO_ORDER_CASES = {
    # the root's centered cut runs through the zeros on the imaginary axis
    # and is retried at shift 1/16
    "exp_minus_1": (_EXP_MINUS_1, 20.0, (
        ("-0x1.41393b54000adp-56", "-0x1.2d97c7f3321d2p+4", 1),
        ("-0x1.ad9b4e0000000p-55", "-0x1.921fb54442d18p+3", 1),
        ("0x1.f4219631ffff5p-55", "-0x1.921fb54442d18p+2", 1),
        ("-0x1.4f30913000000p-56", "0x1.8000000000000p-117", 1),
        ("-0x1.70b5600001700p-56", "0x1.921fb54442d18p+2", 1),
        ("0x1.ea1f9a27fffd8p-55", "0x1.921fb54442d18p+3", 1),
        ("-0x1.bf2e580000a00p-55", "0x1.2d97c7f3321d2p+4", 1)),
        "0x1.0000000000000p-47"),
    # e^{xi^2} - 1: retried cuts at the root and 27 levels down, where the
    # double zero at the origin ends as a multiple-zero cell
    "exp_square_minus_1": (
        ExpSum([([1], [0, 0, 1]), ([-1], [])]), 3.0,
        (
            ("-0x1.40d931ff62706p+1", "-0x1.40d931ff62706p+1", 1),
            ("-0x1.c5bf891b4ef6ap+0", "-0x1.c5bf891b4ef6ap+0", 1),
            ("-0x1.7400000000000p-32", "-0x1.7400000000000p-32", 2),
            ("0x1.40d931ff62706p+1", "-0x1.40d931ff62705p+1", 1),
            ("0x1.c5bf891b4ef6bp+0", "-0x1.c5bf891b4ef6bp+0", 1),
            ("-0x1.c5bf891b4ef6bp+0", "0x1.c5bf891b4ef6bp+0", 1),
            ("-0x1.40d931ff62706p+1", "0x1.40d931ff62706p+1", 1),
            ("0x1.c5bf891b4ef6bp+0", "0x1.c5bf891b4ef6bp+0", 1),
            ("0x1.40d931ff62706p+1", "0x1.40d931ff62705p+1", 1)),
        "0x1.0000000000000p-48"),
    # 1 + e^xi + e^{xi^2}
    "three_terms": (
        ExpSum([([1], []), ([1], [0, 1]), ([1], [0, 0, 1])]), 2.5,
        (
            ("-0x1.136d181d80b11p+1", "-0x1.1544cdb88bae6p+1", 1),
            ("-0x1.3bb2797a870e8p+0", "-0x1.2d6e638c445fap+0", 1),
            ("0x1.cae4a2d1021a3p+0", "-0x1.29067fdb9c50ap+0", 1),
            ("-0x1.3bb2797a870e8p+0", "0x1.2d6e638c445fap+0", 1),
            ("-0x1.136d181d80b11p+1", "0x1.1544cdb88bae6p+1", 1),
            ("0x1.cae4a2d1021a3p+0", "0x1.29067fdb9c50ap+0", 1)),
        "0x1.0000000000000p-49"),
}


# The same zeros from the search that starts each winding-1 cell at its
# first moment and takes each cell of 2 to _POWER_SUMS zeros from its
# power sums: positions only, in the same list order.
_MOMENT_START_POSITIONS = {
    "exp_minus_1": (
        ("-0x1.e30a4900002b6p-58", "-0x1.2d97c7f3321d2p+4"),
        ("-0x1.9f93358000028p-55", "-0x1.921fb54442d18p+3"),
        ("-0x1.ab9ff0000005ap-58", "-0x1.921fb54442d18p+2"),
        ("0x1.159d3a0000000p-56", "0x1.b000000000000p-104"),
        ("0x1.052dfdffffff5p-55", "0x1.921fb54442d18p+2"),
        ("0x1.05a7b47fffd7dp-59", "0x1.921fb54442d18p+3"),
        ("0x1.b224d6bfffa94p-59", "0x1.2d97c7f3321d2p+4"),
    ),
    "exp_square_minus_1": (
        ("-0x1.40d931ff62706p+1", "-0x1.40d931ff62706p+1"),
        ("-0x1.c5bf891b4ef6bp+0", "-0x1.c5bf891b4ef6bp+0"),
        ("-0x1.7400000000000p-32", "-0x1.7400000000000p-32"),
        ("0x1.40d931ff62706p+1", "-0x1.40d931ff62706p+1"),
        ("0x1.c5bf891b4ef6bp+0", "-0x1.c5bf891b4ef6bp+0"),
        ("-0x1.c5bf891b4ef6ap+0", "0x1.c5bf891b4ef6bp+0"),
        ("-0x1.40d931ff62705p+1", "0x1.40d931ff62705p+1"),
        ("0x1.c5bf891b4ef6bp+0", "0x1.c5bf891b4ef6bp+0"),
        ("0x1.40d931ff62706p+1", "0x1.40d931ff62706p+1"),
    ),
    "three_terms": (
        ("-0x1.136d181d80b11p+1", "-0x1.1544cdb88bae6p+1"),
        ("-0x1.3bb2797a870e8p+0", "-0x1.2d6e638c445f9p+0"),
        ("0x1.cae4a2d1021a4p+0", "-0x1.29067fdb9c50ap+0"),
        ("-0x1.3bb2797a870e8p+0", "0x1.2d6e638c445f9p+0"),
        ("-0x1.136d181d80b11p+1", "0x1.1544cdb88bae6p+1"),
        ("0x1.cae4a2d1021a4p+0", "0x1.29067fdb9c50ap+0"),
    ),
}


@pytest.mark.parametrize("name", sorted(_ZERO_ORDER_CASES))
def test_zero_search_keeps_depth_first_order_bit_for_bit(name):
    """The level-batched search lists the zeros in depth-first order with
    the multiplicities and max residual of the depth-first search, bit for
    bit, so every N(r) sum adds in the same order.  Starting Newton at the
    first moment, and taking a cell of a few zeros from its power sums
    with each zero listed by its quadrant path, moves a position by
    rounding only: each is pinned, and lies within 2^-50 max(|z|, 1) of
    the depth-first search's.  The search
    runs directly, with the tolerance locate_zeros_in_box gives it, since
    that solves the two-term sums in closed form."""
    from quadrics.nevanlinna import _ZeroSearch
    g, half, want, residual = _ZERO_ORDER_CASES[name]
    search = _ZeroSearch(g, max(half * 1e-10, 1e-13))
    search.run(-half, half, -half, half)
    assert [(z.position.real.hex(), z.position.imag.hex()) for z in search.zeros] \
        == list(_MOMENT_START_POSITIONS[name])
    assert [z.multiplicity for z in search.zeros] == [m for _, _, m in want]
    for z, (re, im, _) in zip(search.zeros, want):
        old = complex(float.fromhex(re), float.fromhex(im))
        assert abs(z.position - old) <= 2.0 ** -50 * max(abs(old), 1.0)
    assert search.max_residual.hex() == residual


# ---------------------------------------------------------------------------
# Order and hull limits
# ---------------------------------------------------------------------------

def test_order_estimates():
    gs = GrowthSample.compute(EXP_LINE, np.logspace(1, 3, 12))
    order, degen = order_estimate(gs)
    assert abs(order - 1.0) < 0.05 and not degen

    gs2 = GrowthSample.compute(EXP_SQUARE, np.logspace(0.5, 2.5, 12))
    order2, _ = order_estimate(gs2)
    assert abs(order2 - 2.0) < 0.05

    const = ExpCurve.from_exponents([[0], [1]])
    gs3 = GrowthSample.compute(const, np.logspace(0, 2, 10))
    order3, degen3 = order_estimate(gs3)
    assert order3 == 0.0 and degen3


def test_order_requires_span():
    gs = GrowthSample.compute(EXP_LINE, np.logspace(1, 1.5, 10))
    with pytest.raises(InsufficientSpanError):
        order_estimate(gs)


def test_ahlfors_limit_values():
    assert abs(ahlfors_limit([0, 1]) - 1 / math.pi) < 1e-14
    assert ahlfors_limit([2 + 1j, 2 + 1j, 2 + 1j]) == 0.0
    assert abs(ahlfors_limit([0, 1, 2]) - 2 / math.pi) < 1e-14
    tri = ahlfors_limit([0, 1j, 1 + 1j])
    assert abs(tri - (2 + math.sqrt(2)) / (2 * math.pi)) < 1e-14


def test_ahlfors_consistency_with_characteristic():
    """For pure degree-2 exponents T(r)/r^2 approaches the hull limit."""
    curve = ExpCurve.from_exponents([[0, 0, 0], [0, 0, 1], [0, 0, 2]])
    limit = ahlfors_limit([0, 1, 2], lam=2)
    T, _ = characteristic(curve, 40.0)
    assert abs(T / 1600 - limit) / limit < 0.01


# ---------------------------------------------------------------------------
# Main theorems
# ---------------------------------------------------------------------------

RADII = list(np.logspace(1, 3, 18))


def test_first_main_theorem_slack_bounded():
    rep = main_theorem_check(EXP_LINE, [parse_poly("z1 - z0")], "first", RADII)
    assert rep.passed
    assert max(rep.slack) - min(rep.slack) < 0.5
    assert rep.fitted_C < 1.0


def test_second_main_theorem_p1():
    divs = [parse_poly("z0"), parse_poly("z1"), parse_poly("z0 - z1")]
    rep = main_theorem_check(EXP_LINE, divs, "second", RADII)
    assert rep.passed
    assert rep.fitted_C_two_sided < 3.0


def test_second_main_theorem_rejects_degenerate_curve():
    one = [1]
    f = ExpCurve([ExpSum([(one, [])]),
                  ExpSum([(one, [0, 1])]),
                  ExpSum([(one, []), (one, [0, 1])])])
    divs = [parse_poly(s) for s in ("z0", "z1", "z2", "z0 - z1")]
    with pytest.raises(DegenerateCurveError):
        main_theorem_check(f, divs, "second", [10.0, 100.0])


def test_second_main_theorem_general_position_gate():
    divs = [parse_poly("z0"), parse_poly("z1"), parse_poly("2*z1")]
    with pytest.raises(NotGeneralPositionError):
        main_theorem_check(EXP_LINE, divs, "second", [10.0, 100.0])


# ---------------------------------------------------------------------------
# Functoriality
# ---------------------------------------------------------------------------

def test_functoriality_diagonal_degree_two():
    rep = functoriality_check(EXP_LINE, [parse_poly("z0^2"), parse_poly("z1^2")],
                              list(np.logspace(1, 2, 10)), tolerance=0.1)
    assert rep.passed
    assert rep.variation < 0.1


def test_functoriality_nondiagonal_morphism():
    forms = [parse_poly("z0^2"), parse_poly("z1^2"), parse_poly("z0*z1")]
    curve3 = ExpCurve.from_exponents([[0], [0, 1]])
    rep = functoriality_check(curve3, forms, list(np.logspace(1, 2, 8)),
                              tolerance=0.1)
    assert rep.passed


def test_functoriality_rejects_non_morphism():
    p1 = parse_poly("z0^2 - z1*z2")
    p2 = parse_poly("z1^2 - z0*z2")
    f3 = ExpCurve.from_exponents([[0], [0, 1], [1, 2]])
    with pytest.raises(NotAMorphismError):
        functoriality_check(f3, [p1, p2, p1 + p2], [10.0, 20.0])


def test_functoriality_refuses_an_undecided_common_zero():
    """The three cubics share the nine points (cbrt2 w : cbrt2 w' : 1), w and
    w' cube roots of unity, where the third one's vanishing is undecided at
    every precision and no exact test of cubics is made: an uncertified
    morphism is refused before the image curve is formed."""
    forms = [parse_poly(f) for f in ("z0^3 - 2*z2^3", "z1^3 - 2*z2^3", "z0^3 - z1^3")]
    f3 = ExpCurve.from_exponents([[0], [0, 1], [1, 2]])
    with pytest.raises(NotAMorphismError, match="undecided"):
        functoriality_check(f3, forms, [10.0, 20.0])


@pytest.mark.parametrize("forms", [
    ("z0^2 - 2*z2^2", "z1^2 - 2*z2^2", "z0^2 - z1^2"),
    ("z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2", "z0^2 + 2*z1^2 - 4*z2^2")])
def test_functoriality_rejects_irrational_common_zeros_exactly(forms):
    """Three conics through (+-sqrt2 : +-sqrt2 : 1), and the triple-point
    net through (+-sqrt2 : +-1 : 1): the exact resultant of the three
    conics decides that they share a zero."""
    f3 = ExpCurve.from_exponents([[0], [0, 1], [1, 2]])
    with pytest.raises(NotAMorphismError, match="^components share a common zero$"):
        functoriality_check(f3, [parse_poly(f) for f in forms], [10.0, 20.0])


@pytest.mark.parametrize("forms", [["z0*z1", "z0*z2"], ["z0^2", "z1^2"]])
def test_functoriality_two_plane_forms_are_never_a_morphism(forms):
    # two ternary forms always share a zero; the first pair also shares
    # the component z0, which must not surface as CommonComponentError
    curve = ExpCurve.from_exponents([[0], [0, 1], [0, 0, 1]])
    with pytest.raises(NotAMorphismError):
        functoriality_check(curve, [parse_poly(f) for f in forms], [10.0, 20.0])


PLANE_CURVE = ExpCurve.from_exponents([[0], [0, 1], [0, 0, 1]])


def test_functoriality_four_plane_forms_skip_pairs_sharing_a_component():
    # (z0*z1, z0*z2) share z0 and (z0*z1, z1^2) share z1; z0*z1 and z2^2
    # meet at [1:0:0], where all four vanish
    forms = [parse_poly(f) for f in ("z0*z1", "z0*z2", "z1^2", "z2^2")]
    with pytest.raises(NotAMorphismError):
        functoriality_check(PLANE_CURVE, forms, [10.0, 20.0])


def test_functoriality_four_plane_forms_morphism_reports():
    forms = [parse_poly(f) for f in ("z0^2", "z1^2", "z2^2", "z0*z1")]
    rep = functoriality_check(PLANE_CURVE, forms, [10.0, 20.0])
    assert rep.radii == [10.0, 20.0] and len(rep.differences) == 2


def test_functoriality_every_pair_sharing_a_component_is_no_verdict():
    forms = [parse_poly(f) for f in ("z0*z1", "z0*z2", "z0^2", "z0*z1 + z0*z2")]
    with pytest.raises(ValueError, match="every pair"):
        functoriality_check(PLANE_CURVE, forms, [10.0, 20.0])


# ---------------------------------------------------------------------------
# Defects
# ---------------------------------------------------------------------------

def test_defect_missed_divisor_exact_one():
    d = defect_estimate(EXP_LINE, parse_poly("z0"), RADII)
    assert d.value == 1.0 and d.exact_one


def test_defect_saturated_divisor():
    radii = [r for r in RADII if r <= 500] + [500.0]
    d = defect_estimate(EXP_LINE, parse_poly("z1 - z0"), radii)
    assert abs(d.value) < 0.05


def test_defect_reducible_cubic():
    radii = [r for r in RADII if r <= 500] + [500.0]
    d = defect_estimate(EXP_LINE, parse_poly("z0*z1*(z1 - z0)"), radii)
    assert abs(d.value - 2 / 3) < 0.05


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------

def test_certificate_integer_alphas():
    cert = three_quadrics_certificate((0, 1, 2), quadrature_check=True)
    assert abs(cert.X - 2 / math.pi) < 1e-14
    assert abs(cert.lhs - 18 / math.pi) < 1e-13
    assert abs(cert.rhs - 16 / math.pi) < 1e-13
    assert cert.contradiction
    for chk in cert.quadrature_checks:
        assert chk["relative_error"] < 0.01


def test_certificate_equal_alphas_no_contradiction():
    cert = three_quadrics_certificate((2 + 1j, 2 + 1j, 2 + 1j))
    assert cert.X == 0.0
    assert not cert.contradiction


@pytest.mark.parametrize("alphas, contradiction", [
    (("1e-20", "0", "0"), True),
    (("1", "1", "1.000000000000001"), True),
    (("1+1i", "1+1i", "1+1i"), False),
    ((2 + 1j,) * 3, False),
])
def test_certificate_decides_the_contradiction_exactly(alphas, contradiction):
    """Distinct exact alphas contradict however close they are; equal ones
    never do.  Strings are parsed as the CLI parses --alphas."""
    a = [parse_scalar_string(x) if isinstance(x, str) else x for x in alphas]
    assert three_quadrics_certificate(a).contradiction is contradiction


def test_certificate_complex_alphas():
    cert = three_quadrics_certificate((0, 1j, 1 + 1j), quadrature_check=True)
    expected = (1 + 1 + math.sqrt(2)) / (2 * math.pi)
    assert abs(cert.X - expected) < 1e-12
    for chk in cert.quadrature_checks:
        assert chk["relative_error"] < 0.01


# ---------------------------------------------------------------------------
# Exact degeneracy bookkeeping
# ---------------------------------------------------------------------------

def test_linear_degeneracy_detection():
    one = [1]
    f = ExpCurve([ExpSum([(one, [])]),
                  ExpSum([(one, [0, 1])]),
                  ExpSum([(one, []), (one, [0, 1])])])
    assert f.is_linearly_degenerate() is True
    g = ExpCurve.from_exponents([[0], [0, 1], [0, 2]])
    assert g.is_linearly_degenerate() is False


def test_compose_groups_exponents_exactly():
    f = ExpCurve.from_exponents([[0], [0, 1], [0, 2]])
    g = f.compose(parse_poly("z1^2 - z0*z2"))
    assert g.is_zero
    h = f.compose(parse_poly("z1^2 - 2*z0*z2"))
    assert not h.is_zero


# ---------------------------------------------------------------------------
# T(r) values and counting samples stored in an analysis scope
# ---------------------------------------------------------------------------

def _count_arc_means(monkeypatch):
    """Record each closed-form T(r) pass: one _arc_mean call for each list
    of radii, so one for each new key of characteristic(curve, r)."""
    import quadrics.nevanlinna as nv

    passes = []
    arc_mean = nv._arc_mean
    monkeypatch.setattr(nv, "_arc_mean", lambda *args: passes.append(args) or arc_mean(*args))
    return passes


def test_curve_memo_keeps_radii_and_divisors_apart(monkeypatch):
    passes = _count_arc_means(monkeypatch)

    def fresh():
        return _fresh(EXP_LINE)

    curve = fresh()
    samples = {}
    with analysis_scope():
        for r in (10.0, 20.0):
            before = len(passes)
            value = characteristic(curve, r)
            assert len(passes) == before + 1       # a new key computes T(r)
            assert value == characteristic(fresh(), r)
            before = len(passes)
            assert characteristic(curve, r) is value
            assert len(passes) == before           # a stored key does not

        for text, r in (("z1 - z0", 10.0), ("z1 + z0", 10.0), ("z1 - z0", 20.0)):
            d = parse_poly(text)
            sample = counting(curve, d, r)
            assert sample.to_json() == counting(fresh(), d, r).to_json()
            assert counting(curve, parse_poly(text), r) is sample
            samples[text, r] = sample
    # e^xi = 1 and e^xi = -1 have disjoint zero sets; r = 20 has more zeros
    positions = {k: {z.position for z in s.zeros} for k, s in samples.items()}
    assert not positions["z1 - z0", 10.0] & positions["z1 + z0", 10.0]
    assert samples["z1 - z0", 20.0].n_at(20.0) > samples["z1 - z0", 10.0].n_at(10.0)


class _PassCounter(list):
    """A list that counts the passes over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_n_series_is_summed_once_per_radius(monkeypatch):
    """In one analysis scope the N series, the defect and the first main
    theorem read one counting sample at the same ten radii: its N(r) equal
    the reference loop bit for bit, and the zeros are passed over once per
    distinct radius and once for n(R0)."""
    import quadrics.nevanlinna as nv
    spies = []
    real = nv._counting

    def spy(*args):
        smp = real(*args)
        spies.append(_PassCounter(smp.zeros))
        return CountingSample(smp.divisor, smp.degree, smp.radius, spies[-1],
                              smp.winding_residual)

    monkeypatch.setattr(nv, "_counting", spy)
    curve, d = _fresh(EXP_LINE), parse_poly("z1 - z0")
    radii = [float(r) for r in np.logspace(0, 2, 10)]
    with analysis_scope():
        sample = counting(curve, d, radii[-1])
        series = [sample.N_at(r) for r in radii]
        defect = defect_estimate(curve, d, radii)
        report = main_theorem_check(curve, [d], "first", radii)
    assert len(spies) == 1 and spies[0].passes == len(radii) + 1
    assert _bits(series) == _bits([reference_N_at(list(spies[0]), r) for r in radii])
    assert _bits(report.N_sums) == _bits(series)
    Ts = [characteristic(curve, r)[0] for r in radii]
    assert _bits([v for _, v in defect.series]) == _bits(
        [1.0 - n / T for n, T in zip(series, Ts) if T > 1e-12])


def test_failed_calls_are_not_stored():
    f = ExpCurve.from_exponents([[0], [0, 1], [0, 2]])
    contains = parse_poly("z1^2 - z0*z2")
    with analysis_scope():
        for _ in range(2):
            with pytest.raises(DivisorContainsCurveError):
                counting(f, contains, 10.0)
            with pytest.raises(ValueError):
                characteristic(f, 0.0)
        assert counting(f, parse_poly("z1"), 10.0).zeros == []


def test_calls_outside_a_scope_keep_no_state(monkeypatch):
    passes = _count_arc_means(monkeypatch)
    curve = _fresh(EXP_LINE)
    first = characteristic(curve, 2.0)
    once = len(passes)
    assert characteristic(curve, 2.0) == first
    assert len(passes) == 2 * once
