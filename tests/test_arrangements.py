import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadrics.arrangements import (CommonComponentError, Configuration,
                                   DegenerateIntersectionError, NoValidSelectionError,
                                   NotInPencilError, NumLine,
                                   build_line_system, common_zero,
                                   common_zeros_of_quadratic_system,
                                   composite_morphism, contact_classification,
                                   contact_obstruction_check,
                                   cor31_hypothesis_check, genericity_check_s4,
                                   genericity_check_s6, intersection_points,
                                   pencil_membership,
                                   select_general_position, tangent_line,
                                   tangent_line_numeric, tangent_to_conic,
                                   NotExactPointError,
                                   SingularPointError, InfinitelyManySolutionsError)
from quadrics.config import DEFAULT_PRECISION, PrecisionConfig
from quadrics.polynomials import HomPoly, MpForms, ProjPointNum, ZeroPolynomialError, parse_poly
from quadrics.scalars import GaussRat
from quadrics.squares import pencil_rank1_members

from exact_reference import (has_common_component, lines_concurrent, lines_distinct,
                             point_distance, reference_condition4_verdict,
                             reference_newton_polish, reference_select_general_position)

P1 = parse_poly("z0^2 - z1*z2")
P2 = parse_poly("z1^2 - z0*z2")
P3 = parse_poly("z1^2 - z0*z2 - z0^2")
P4 = parse_poly("z0^2 - 2*z1*z2")


# ---------------------------------------------------------------------------
# Intersection points
# ---------------------------------------------------------------------------

def test_four_simple_points():
    recs = intersection_points(P1, P2)
    assert len(recs) == 4
    assert all(r.multiplicity == 1 for r in recs)
    assert sum(r.multiplicity for r in recs) == 4
    # derived points: [0:0:1], [1:1:1] and the two primitive cube-root points
    exact = {r.point.exact for r in recs if r.point.is_exact()}
    assert (Fraction(0), Fraction(0), Fraction(1)) in {
        tuple(e) for e in exact if e is not None}
    assert (Fraction(1), Fraction(1), Fraction(1)) in {
        tuple(e) for e in exact if e is not None}
    omega = mp.exp(2j * mp.pi / 3)
    numeric = [r.point for r in recs if not r.point.is_exact()]
    assert len(numeric) == 2
    for pt in numeric:
        target1 = ProjPointNum([omega, 1, omega ** 2])
        target2 = ProjPointNum([omega ** 2, 1, omega])
        assert point_distance(pt, target1) < 1e-10 or point_distance(pt, target2) < 1e-10


def test_multiplicity_four_single_point():
    recs = intersection_points(P2, P3)
    assert len(recs) == 1
    assert recs[0].multiplicity == 4
    assert recs[0].point.exact == (Fraction(0), Fraction(0), Fraction(1))


def test_two_tangential_points():
    recs = intersection_points(P1, P4)
    assert sorted(r.multiplicity for r in recs) == [2, 2]
    assert all(r.tangential for r in recs)
    pts = {tuple(r.point.exact) for r in recs}
    assert pts == {(Fraction(0), Fraction(0), Fraction(1)),
                   (Fraction(0), Fraction(1), Fraction(0))}


def test_common_component_raises():
    with pytest.raises(CommonComponentError):
        intersection_points(P1, P1)
    l = parse_poly("z0 - z1")
    with pytest.raises(CommonComponentError):
        intersection_points(l * P1, l * P2)


def test_bezout_on_random_pairs():
    rng = random.Random(77)
    basis = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    done = 0
    while done < 15:
        p = HomPoly({e: rng.randint(-6, 6) for e in basis})
        q = HomPoly({e: rng.randint(-6, 6) for e in basis})
        if p.degree != 2 or q.degree != 2:
            continue
        if has_common_component(p, q):
            continue
        recs = intersection_points(p, q)
        assert sum(r.multiplicity for r in recs) == 4
        done += 1


def _random_form(rng, d):
    """A random form of degree d >= 0 with coefficients in [-2, 2]."""
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    while True:
        p = HomPoly({e: rng.randint(-2, 2) for e in monos})
        if p.degree == d:
            return p


def _raises_common_component(p, q):
    try:
        intersection_points(p, q)
    except CommonComponentError as exc:
        assert exc.witness is not None
        return True
    return False


@pytest.mark.parametrize("d1, d2", [(1, 2), (2, 2), (3, 2)])
def test_common_component_agrees_with_reference(d1, d2):
    """intersection_points reads a shared component off its own
    elimination resultant; has_common_component is the reference.  Half
    of the seeded pairs are built with a common linear factor."""
    rng = random.Random(611 * d1 + d2)
    shared = 0
    for k in range(8):
        if k % 2:
            f = _random_form(rng, 1)
            p, q = f * _random_form(rng, d1 - 1), f * _random_form(rng, d2 - 1)
        else:
            p, q = _random_form(rng, d1), _random_form(rng, d2)
        expected = has_common_component(p, q)
        shared += expected
        assert _raises_common_component(p, q) == expected, (p, q)
    assert shared >= 4


@pytest.mark.parametrize("p, q, expected", [
    ("(z0 - z1)*(z0 + 2*z2)", "(z0 - z1)*(z1^2 - z0*z2)", True),
    ("(z0^2 - z1*z2)*(z0 + z1)", "(z0^2 - z1*z2)*(z2 - z0 + 3*z1)", True),
    ("z0^2 - z1*z2", "(z0^2 - z1*z2)*(z0 + z1 + z2)", True),
    # the identity change is not admissible: z1 has no z0 term
    ("z1", "z1*z2", True),
    ("z1", "z2^2 - z0*z1", False),
])
def test_common_component_on_constructed_pairs(p, q, expected):
    p, q = parse_poly(p), parse_poly(q)
    assert has_common_component(p, q) == expected
    assert _raises_common_component(p, q) == expected


# Records at the identity change (30 digits, multiplicity, tangential
# flag), unchanged since the numeric root matching solved the fibers that
# the first subresultant does not lift.
_ROOT2 = "0.707106781186547524400844362105"
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
CHAIN_CASES = [
    # two conics tangent at (0 : +-sqrt 2 : 1) along lines through
    # (1:0:0): sres_{1,1} = 0, so the double factor lifts by S_2
    ("z0^2 - z1^2 + 2*z2^2", "z0^2 - 3*z1^2 + 6*z2^2", {2: 2},
     [(("0.0", "1.0", "-" + _ROOT2), 2, True), (("0.0", "1.0", _ROOT2), 2, True)]),
    # a cubic through the same tangency points and two transversal ones:
    # the simple factor lifts by S_1, the double one by S_2
    ("z0^3 + z0^2*z2 + (z1^2 - 2*z2^2)*(2*z0 + z2)", "z0^2 - z1^2 + 2*z2^2", {1: 1, 2: 2},
     [(("0.0", "1.0", "-" + _ROOT2), 2, True), (("0.0", "1.0", _ROOT2), 2, True),
      (("0.426401432711220868596875464868", "-1.0", "-0.639602149066831302895313197302"), 1, False),
      (("0.426401432711220868596875464868", "1.0", "-0.639602149066831302895313197302"), 1, False)]),
]


def _resultant_parts(p, q):
    """The Yun factors of Res_{z0}(p, q) at (t : 1), which _fiber_lifts lifts."""
    from quadrics.polynomials import resultant
    from quadrics.univariate import dehomogenize, yun_squarefree
    return yun_squarefree(dehomogenize(resultant(p, q, 0), 1, 2)[0])


@pytest.mark.parametrize("p, q, ks, expected", CHAIN_CASES)
def test_fiber_lift_climbs_the_chain_where_s1_shares_a_root(monkeypatch, p, q, ks, expected):
    """A Yun factor of the resultant whose roots all kill sres_{1,1}
    lifts by the next subresultant whose leading coefficient is coprime
    to it, S_2 here, once the fiber is checked to hold one point."""
    import quadrics.arrangements as arr

    monkeypatch.setattr(arr, "_coordinate_changes", lambda: itertools.repeat(IDENTITY))
    p, q = parse_poly(p), parse_poly(q)
    lifts = arr._fiber_lifts(_resultant_parts(p, q), p, q, set(ks))
    assert {mult: k for mult, (k, _) in lifts.items()} == ks
    recs = intersection_points(p, q)
    got = [(tuple(x.split(" + ")[0].strip("(") for x in r.point.to_decimal_strings(30)),
            r.multiplicity, r.tangential) for r in recs]
    assert got == expected
    for r in recs:  # every coordinate is real
        assert all(x.endswith(" + 0.0j)") for x in r.point.to_decimal_strings(30))


def test_tangency_points_keep_their_lift():
    """z0^3 + z1^3 - 7 z2^3 and that plus (z0 + z1 + 3 z2)^2 z1 touch at
    (-w - 3 : w : 1), 9 w^2 + 27 w + 34 = 0.  There the Jacobian is
    nearly singular, so Newton's steps are noise (they moved the lift by
    about 1e-15); a point of multiplicity 2 keeps its subresultant lift,
    with radius 2^(-prec/4)."""
    p = parse_poly("z0^3 + z1^3 - 7*z2^3")
    q = p + parse_poly("(z0 + z1 + 3*z2)^2*z1")
    recs = [r for r in intersection_points(p, q) if r.multiplicity > 1 and not r.point.is_exact()]
    assert [(r.multiplicity, r.tangential) for r in recs] == [(2, True), (2, True)]
    with mp.workprec(DEFAULT_PRECISION.start_bits):
        assert all(r.point.radius == mp.mpf(2) ** (-DEFAULT_PRECISION.start_bits // 4)
                   for r in recs)
        ws = [(-27 + s * mp.sqrt(495) * 1j) / 18 for s in (1, -1)]
        want = [ProjPointNum((-w - 3, w, 1)) for w in ws]
        assert all(min(point_distance(r.point, x) for x in want) < 1e-60 for r in recs)


_PAIR_DEGREES = [(1, 2), (2, 2), (3, 2), (3, 3), (4, 3)]


def _integer_form(rng, d, scale):
    """A dense form of degree d, coefficients in [-4, 4], z0^d's nonzero;
    z0 enters as 2^scale z0, so the points' z0 are 2^-scale times those
    of the unscaled pair."""
    terms = {(a, b, d - a - b): rng.randint(-4, 4) for a in range(d + 1) for b in range(d + 1 - a)}
    terms[(d, 0, 0)] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return HomPoly({e: Fraction(2) ** (scale * e[0]) * c for e, c in terms.items() if c})


@given(st.sampled_from(_PAIR_DEGREES), st.sampled_from([0, 200, -200]), st.sampled_from([256, 512]),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_radius_covers_the_true_point(degrees, scale, bits, rng):
    """Each numeric simple point lies within its radius of the point that
    the mpc Newton polish (``reference_newton_polish``) reaches from it at
    1024 bits; with z0 scaled by 2^+-200, coordinate parts near 2^+-200."""
    p, q = (_integer_form(rng, d, scale) for d in degrees)
    assume(not has_common_component(p, q))
    recs = intersection_points(p, q, precision=PrecisionConfig(bits, bits))
    forms = MpForms((p, q) + p.gradient() + q.gradient())
    for r in recs:
        if r.multiplicity > 1 or r.point.is_exact():
            continue
        ref, ref_radius = reference_newton_polish(forms, r.point.coords, 1024)
        with mp.workprec(1024):
            assert ref_radius < mp.mpf(2) ** -900
            assert point_distance(r.point, ProjPointNum(ref)) <= r.point.radius


def test_two_points_per_fiber_reject_the_change(monkeypatch):
    """(z0^2 + z1^2 - 3 z2^2, z0^2 - z1^2 + z2^2) meet at (+-1 : +-sqrt 2 : 1):
    two points above each root of t^2 - 2, where S_2 = z0^2 - 1 is no
    square, so the identity change never lifts; another change does."""
    import quadrics.arrangements as arr
    from quadrics.polynomials import PrecisionExhaustedError

    p, q = parse_poly("z0^2 + z1^2 - 3*z2^2"), parse_poly("z0^2 - z1^2 + z2^2")
    recs = intersection_points(p, q)
    assert [r.multiplicity for r in recs] == [1, 1, 1, 1]
    assert all(abs(abs(r.point.coords[1] / r.point.coords[2]) - mp.sqrt(2)) < 1e-60
               for r in recs)
    assert arr._fiber_lifts(_resultant_parts(p, q), p, q, {2}) is None
    monkeypatch.setattr(arr, "_coordinate_changes", lambda: itertools.repeat(IDENTITY))
    with pytest.raises(PrecisionExhaustedError):
        intersection_points(p, q, precision=PrecisionConfig(64, 128))


@given(seed=st.integers(0, 2 ** 32 - 1), dg=st.sampled_from([1, 2]),
       da=st.sampled_from([1, 2]), db=st.sampled_from([0, 1, 2]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_shared_factor_is_the_gcd(seed, dg, da, db):
    """On g*a and g*b the error carries gcd(g*a, g*b) (sympy's, up to a
    constant), and its witness lies on g: exactly at an exact witness, and
    never certified off it at a numeric one."""
    import sympy
    from quadrics.polynomials import vanishes_at

    rng = random.Random(seed)
    g, a, b = _random_form(rng, dg), _random_form(rng, da), _random_form(rng, db)
    p, q = g * a, g * b
    with pytest.raises(CommonComponentError) as info:
        intersection_points(p, q)
    xs = sympy.symbols("z0 z1 z2")
    to_sympy = lambda f: sum(c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                             for e, c in f.terms.items())
    factor, expected = to_sympy(info.value.factor), sympy.gcd(to_sympy(p), to_sympy(q))
    ratio = sympy.cancel(factor / expected)
    assert ratio != 0 and ratio.free_symbols == set()
    w = info.value.witness
    assert w is not None
    for f in (info.value.factor, p, q):
        assert vanishes_at(f, w) if w.is_exact() else vanishes_at(f, w) is not False


def test_witness_of_the_first_probe_line_does_not_recurse():
    """A curve equal to the first probe line z0 + z1 + z2 (up to a scalar)
    shares it with a second curve; its witness comes from the next probe."""
    from quadrics.arrangements import common_component_witness
    p = parse_poly("-4*z0 - 4*z1 - 4*z2")
    q = parse_poly("(z0 + z1 + z2)*(z0 - z2)")
    with pytest.raises(CommonComponentError) as info:
        intersection_points(p, q)
    assert info.value.factor == parse_poly("z0 + z1 + z2")
    w = info.value.witness
    assert w.is_exact() and p.eval_exact(w.exact) == 0 and q.eval_exact(w.exact) == 0
    line = parse_poly("z0 + z1 + z2")
    assert common_component_witness(line, DEFAULT_PRECISION).exact == w.exact


def test_intersection_needs_one_resultant_per_change(monkeypatch):
    import quadrics.arrangements as arr

    calls = []
    resultant = arr.resultant

    def counted(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(arr, "resultant", counted)
    assert len(intersection_points(P1, P3)) == 4
    assert len(calls) == 1  # the identity change is admissible for this pair
    with pytest.raises(CommonComponentError):
        intersection_points(P1, P1 * parse_poly("z0 + z1"))


def test_a_400_digit_coefficient_gives_four_simple_points():
    """z0^2 + 10^400 z1^2 - z2^2 and z0 z1 - z2^2: the resultant has
    coefficients of 1,300 bits and more and a root cluster in t.  The solve
    on its monic ratios, rounded to the working precision, isolates the
    roots at the first precision; on the exact integers the root iteration
    hits its step cap under every coordinate change, up to the cap."""
    start = time.perf_counter()
    recs = intersection_points(parse_poly("z0^2 + 10^400*z1^2 - z2^2"),
                               parse_poly("z0*z1 - z2^2"))
    assert time.perf_counter() - start < 10
    assert [rec.multiplicity for rec in recs] == [1, 1, 1, 1]
    for (a, b) in itertools.combinations(recs, 2):
        assert not a.point.same_point(b.point)


def test_intersection_runs_yun_once_per_resultant(monkeypatch):
    """Two cubics meeting in 9 numeric points: root isolation and the
    fiber lifts share one squarefree decomposition of the resultant."""
    import quadrics.arrangements as arr
    import quadrics.univariate as uni

    yun, resultant, calls, results = uni.yun_squarefree, arr.resultant, [], []
    for module in (uni, arr):
        monkeypatch.setattr(module, "yun_squarefree", lambda p: calls.append(p) or yun(p))
    monkeypatch.setattr(arr, "resultant", lambda *a: results.append(resultant(*a)) or results[-1])
    p = parse_poly("z0^3 + 2*z1^3 - 3*z2^3 + z0*z1*z2")
    q = parse_poly("z0^3 - z1^2*z2 + 5*z2^2*z0 + 7*z0*z1*z2 + z1^3")
    assert len(intersection_points(p, q)) == 9
    assert len(calls) == len(results) == 1


def test_intersection_rounds_each_form_once_per_change(monkeypatch):
    """Two cubics meeting in 9 numeric points: MpForms scales to integers
    at most each term of p, q, their six partials (once per coordinate
    change) and of the two members of each subresultant chain that lifts
    fibers, never once per point."""
    import sys

    import quadrics.arrangements as arr
    import quadrics.polynomials as polys

    counts, chains = Counter(), []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: counts.update([name]) or real(*args))

    methods = {f.__code__ for f in vars(polys.MpForms).values() if hasattr(f, "__code__")}

    def integral(coeffs, *args):
        if sys._getframe(1).f_code in methods:
            counts["scaled"] += len(coeffs)
        return scalars_integral(coeffs, *args)

    scalars_integral = polys.integral
    monkeypatch.setattr(polys, "integral", integral)
    count(arr, "_try_intersection")
    monkeypatch.setattr(arr, "subresultant",
                        lambda *args: chains.append(polys.subresultant(*args)) or chains[-1])
    p = parse_poly("z0^3 + 2*z1^3 - 3*z2^3 + z0*z1*z2")
    q = parse_poly("z0^3 - z1^2*z2 + 5*z2^2*z0 + 7*z0*z1*z2 + z1^3")
    recs = intersection_points(p, q)
    assert len(recs) == 9 and not any(r.point.is_exact() for r in recs)
    forms = (p, q) + p.gradient() + q.gradient()
    bound = (counts["_try_intersection"] * sum(len(f.terms) for f in forms)
             + sum(len(m.terms) for chain in chains for m in chain[:2]))
    assert 0 < counts["scaled"] <= bound


def test_line_conic_intersections(example_net):
    _, q1, _ = example_net
    line = parse_poly("z0")
    recs = intersection_points(line, q1)
    pts = {tuple(r.point.exact) for r in recs}
    assert pts == {(Fraction(0), Fraction(0), Fraction(1)),
                   (Fraction(0), Fraction(1), Fraction(-25))}


# ---------------------------------------------------------------------------
# Tangent lines
# ---------------------------------------------------------------------------

def test_tangent_line_examples():
    assert tangent_line(P2, (0, 0, 1)) == parse_poly("z0")
    assert tangent_line(P1, (1, 1, 1)) == parse_poly("2*z0 - z1 - z2")


def test_tangent_line_singular_point():
    with pytest.raises(SingularPointError):
        tangent_line(parse_poly("z0^2"), (0, 1, 0))


def test_tangent_line_not_on_curve():
    from quadrics.arrangements import NotOnCurveError
    with pytest.raises(NotOnCurveError):
        tangent_line(P1, (1, 0, 0))


def test_tangent_line_requires_exact_point():
    pt = ProjPointNum([mp.mpf("0.70710678"), mp.mpf("0.5"), mp.mpf(1)], radius=mp.mpf("1e-8"))
    with pytest.raises(NotExactPointError):
        tangent_line(P1, pt)
    nl = tangent_line_numeric(P1, pt)
    assert nl.radius > 0


def test_tangent_to_conic_bounds_the_dual_value_by_its_gradient():
    """A numeric line is a point of the dual plane with the line's radius.
    Here the dual conic's gradient at the tangent sums to about 61 off
    the normalized coordinate, so a line that holds the true tangent
    within its radius gives |dual| above 50 * radius: tangency is
    undecided, not refuted."""
    q = parse_poly("-z0^2 + 4*z1^2 + 4*z2^2 + 4*z0*z1 - 3*z0*z2 + 2*z1*z2")
    tangent = tangent_line_numeric(q, (1, 0, 1))
    assert tangent.exact is not None and tangent_to_conic(tangent, q) is True
    assert tangent_to_conic(NumLine.from_exact(parse_poly("z1")), q) is False
    with mp.workprec(128):
        rho = mp.mpf("1e-6")
        for sign in (1, -1):
            shift = (sign * rho, 0, sign * rho)
            near = NumLine(tuple(c + d for c, d in zip(tangent.vec, shift)), rho)
            assert tangent_to_conic(near, q) is None
            far = NumLine(tuple(c + 1000 * d for c, d in zip(tangent.vec, shift)), rho)
            assert tangent_to_conic(far, q) is False


def test_numeric_lines_keep_their_representative_when_moduli_tie():
    """|v_0| and |v_2| of the line -z0 + 0.8 z1 + z2 tie; a perturbation
    of a point far below the radius must not switch the coordinate that
    fixes the phase, in from_points or in tangent_line_numeric."""
    with mp.workprec(128):
        eps = mp.mpf("1e-30")
        b = ProjPointNum([0, 1, mp.mpf("-0.8")], radius=mp.mpf("1e-20"))
        lines = [NumLine.from_points(ProjPointNum(a, radius=mp.mpf("1e-20")), b)
                 for a in ([1, 0, 1 + eps], [1 + eps, 0, 1])]
        assert max(abs(x - y) for x, y in zip(lines[0].vec, lines[1].vec)) < 1e-25
        assert abs(lines[0].vec[0] - 1) < 1e-25
        circle = parse_poly("z0^2 + z1^2 - 2*z2^2")   # gradient (2x, 2y, -4) at (x:y:1)
        grads = [tangent_line_numeric(circle, ProjPointNum(pt, radius=mp.mpf("1e-20"))).vec
                 for pt in ([2 + 2 * eps, 0, 1], [2 - 2 * eps, 0, 1])]
        assert max(abs(x - y) for x, y in zip(grads[0], grads[1])) < 1e-25


def test_a_line_through_an_exact_point_covers_the_true_line():
    """An exact point's coordinates are rounded at the working precision,
    so the radius of a line through it and a numeric point covers the
    true line, found at 1024 bits; double coordinates left it 3.1e-17 off
    under a radius of 2.5e-75.  An exact line's coefficients likewise."""
    from quadrics.arrangements import _unit_line
    exact = (Fraction(3, 11), Fraction(-9, 11), 1)
    with mp.workprec(256):
        b = ProjPointNum([mp.sqrt(2), mp.mpf(1) / 3, 1])
        line = NumLine.from_points(ProjPointNum.from_exact(exact), b)
    with mp.workprec(1024):
        a = [mp.mpf(x.numerator) / x.denominator for x in map(Fraction, exact)]
        true = _unit_line(_cross_vec(a, b.coords), mp.mpf(0))
        assert max(abs(x - y) for x, y in zip(line.vec, true.vec)) <= line.radius < 1e-60
    with mp.workprec(256):  # an exact line's coefficients beyond 2^53 as well
        big = NumLine.from_exact(parse_poly("(10^20 + 1)*z0 + 3*z1 - z2"))
        assert abs(big.vec[1] - mp.mpf(3) / (10 ** 20 + 1)) < mp.mpf(2) ** -250


def test_record_sort_key_ignores_parts_within_the_radius():
    """A conjugate pair of points whose second coordinate has an imaginary
    part of +-1e-79, far below the radius, is ordered by the third
    coordinate whatever that part's sign; exact points keep their key."""
    from quadrics.arrangements import IntersectionRecord, _record_sort_key

    def rec(tiny, im):
        pt = ProjPointNum([1, mp.mpc(-0.25, tiny), mp.mpc(-0.5, im)], radius=mp.mpf("1e-70"))
        return IntersectionRecord(pt, 1, False)

    with mp.workprec(320):
        for tiny in (mp.mpf("1e-79"), mp.mpf("-1e-79")):
            recs = sorted([rec(-tiny, 0.75), rec(tiny, -0.75)], key=_record_sort_key)
            assert [float(mp.im(r.point.coords[2])) for r in recs] == [-0.75, 0.75]
    exact = IntersectionRecord(ProjPointNum.from_exact((1, GaussRat(-1, 2), 3)), 1, False)
    assert _record_sort_key(exact) == tuple(
        float(x) for c in exact.point.coords for x in (mp.re(c), mp.im(c)))


@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([53, 113, 256, 512]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_record_sort_key_matches_the_replaced_key(seed, bits):
    """The key on raw parts equals the key on mpf parts, signs of zeros
    included, at the working precision of the sort: parts exactly at plus
    or minus the radius, one unit off it either way, zeros (from 0.0 and
    -0.0), parts of more than 53 bits (rounded to nearest), tiny, huge
    and random ones, radius zero too; and on normalized points."""
    from types import SimpleNamespace

    from quadrics.arrangements import IntersectionRecord, _record_sort_key
    from exact_reference import reference_record_sort_key

    def hexes(key):
        return [x.hex() for x in key]

    rng = random.Random(seed)
    with mp.workprec(bits):
        r = mp.mpf(rng.choice([0, 1e-70, 3e-20, 0.25, 1.0]))
        ulp = mp.ldexp(1, mp.frexp(r)[1] - bits) if r else mp.mpf(2) ** -1074

        def part():
            kind = rng.randrange(9)
            if kind < 4:
                return rng.choice([r, -r, r + ulp, -r - ulp, r - ulp, ulp - r])
            if kind == 4:
                return mp.mpf(rng.choice([0.0, -0.0]))
            if kind == 5:
                return mp.mpf(1) / 3 * rng.choice([1, -1, 1e-40, 7e30])
            if kind == 6:
                return mp.mpf(rng.choice([1e-300, -1e300, 2.0 ** -1074]))
            return mp.mpf(rng.uniform(-1, 1))

        coords = [mp.mpc(part(), part()) for _ in range(3)]
        rec = SimpleNamespace(point=SimpleNamespace(coords=coords, radius=r))
        assert hexes(_record_sort_key(rec)) == hexes(reference_record_sort_key(rec))
        if any(coords):
            real = IntersectionRecord(ProjPointNum(coords, radius=r), 1, False)
            assert hexes(_record_sort_key(real)) == hexes(reference_record_sort_key(real))


# ---------------------------------------------------------------------------
# Genericity reports
# ---------------------------------------------------------------------------

def test_s4_example_config_passes(example_net):
    q0, q1, q2 = example_net
    cfg = Configuration.from_polys([q0, q1, q2], family=(1, 2, 2))
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.1"].status == "pass"
    assert rep.conditions["s4.2"].status == "pass"
    assert rep.conditions["s4.3"].status == "not_applicable"


def test_s4_duplicate_component_fails():
    cfg = Configuration.from_polys([P1, P1, P2])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.2"].status == "fail"
    assert rep.conditions["s4.2"].witnesses  # a point on the shared component


def test_s4_cyclic_triple_triple_point(cyclic_triple):
    """[1:1:1] lies on all three quadrics; condition 2 must fail exactly,
    matching the brute-force triple-common-root oracle."""
    cfg = Configuration.from_polys(list(cyclic_triple))
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.1"].status == "pass"
    assert rep.conditions["s4.2"].status == "fail"
    wit = {tuple(w.exact) for w in rep.conditions["s4.2"].witnesses if w.is_exact()}
    assert (Fraction(1), Fraction(1), Fraction(1)) in wit
    # oracle: common roots of the three resultant pairs, scanned numerically
    assert _triple_point_oracle(*cyclic_triple)


def _triple_point_oracle(q1, q2, q3, samples=400):
    recs = intersection_points(q1, q2)
    for r in recs:
        v3 = q3.eval_mpc(r.point.coords)
        if abs(v3) < mp.mpf("1e-20"):
            return True
    return False


def test_s4_smoothness_fail():
    cfg = Configuration.from_polys([parse_poly("z0*z1"), P1, P2])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.1"].status == "fail"


def test_s4_rank_one_component_rejected_as_quadric():
    # a double line declared as a quadric is singular
    cfg = Configuration.from_polys([parse_poly("z0^2"), P1, P2], family=(2, 2, 2))
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.1"].status == "fail"


def test_genericity_scale_invariance(example_net):
    q0, q1, q2 = example_net
    cfg1 = Configuration.from_polys([q0, q1, q2], family=(1, 2, 2))
    cfg2 = Configuration.from_polys(
        [q0.scale(Fraction(7, 3)), q1.scale(-2), q2.scale(Fraction(1, 9))],
        family=(1, 2, 2))
    r1 = genericity_check_s4(cfg1)
    r2 = genericity_check_s4(cfg2)
    assert {k: v.status for k, v in r1.conditions.items()} == \
           {k: v.status for k, v in r2.conditions.items()}


# ---------------------------------------------------------------------------
# Line systems
# ---------------------------------------------------------------------------

def test_s6_generic_triple_all_pass(generic_triple):
    rep, ls = genericity_check_s6(*generic_triple)
    assert {k: v.status for k, v in rep.conditions.items()} == {
        "s6.1": "pass", "s6.2": "pass", "s6.3": "pass", "s6.4": "pass"}
    lines = ls.all_lines()
    assert len(lines) == 18
    distinct = sum(1 for a, b in itertools.combinations(lines, 2)
                   if lines_distinct(a.line, b.line) is True)
    assert distinct == 18 * 17 // 2


def test_s6_identical_quadrics_degenerate():
    with pytest.raises(DegenerateIntersectionError) as exc:
        genericity_check_s6(P1, P1, P2)
    assert exc.value.report is not None
    assert exc.value.report.conditions["s6.2"].status == "fail"


def test_s6_cyclic_triple_lines_built(cyclic_triple):
    """The cyclic triple passes the pairwise gate; its conics share the
    point (1 : 1 : 1), so s6.4 fails there, at the start precision."""
    rep, ls = genericity_check_s6(*cyclic_triple, precision=PrecisionConfig(192, 384))
    assert rep.conditions["s6.2"].status == "pass"
    assert len(ls.all_lines()) == 18
    assert ls.precision_bits == 192
    s64 = rep.conditions["s6.4"]
    assert (s64.status, s64.note) == ("fail", "the three conics meet at one point")
    assert [repr(w) for w in s64.witnesses] == ["[1:1:1]"]


def test_every_line_passes_through_its_points(generic_triple):
    _, ls = genericity_check_s6(*generic_triple)
    for g, lines in ls.groups.items():
        pts = ls.points[g]
        for li in lines:
            for idx in li.point_ids:
                assert li.line.passes_through(pts[idx]) is not False


def test_select_general_position(generic_triple):
    _, ls = genericity_check_s6(*generic_triple)
    sel = select_general_position(ls)
    assert len(sel) == 12
    per_group = {}
    for li in sel:
        per_group[li.group] = per_group.get(li.group, 0) + 1
    assert set(per_group.values()) == {4}
    # independent exhaustive concurrency oracle in floating point
    assert _concurrency_oracle([li.line.vec for li in sel])
    # determinism
    sel2 = select_general_position(ls)
    assert [(li.group, li.pairing, li.point_ids) for li in sel] == \
           [(li.group, li.pairing, li.point_ids) for li in sel2]


def _concurrency_oracle(vecs):
    """No 3 of the lines concurrent, checked with plain numpy floats."""
    arrs = [np.array([complex(c) for c in v]) for v in vecs]
    for a, b, c in itertools.combinations(arrs, 3):
        M = np.vstack([a, b, c])
        if abs(np.linalg.det(M)) < 1e-9:
            return False
    return True


def test_select_rejects_forced_concurrency():
    """Where s6.4 fails, here by (B), there is no selection to return."""
    _, ls = genericity_check_s6(*(parse_poly(t) for t in CONSTRUCTED_B))
    with pytest.raises(NoValidSelectionError, match="members of pencils"):
        select_general_position(ls)


def test_select_needs_smooth_conics(generic_triple):
    """A line pair meets the two conics in 4 simple points each, so its
    line system builds; s6.4's pencils need smooth conics, and the
    selection says so by name."""
    ls = build_line_system(parse_poly("z0^2 - z1^2"), *generic_triple[:2])
    with pytest.raises(DegenerateIntersectionError, match="singular quadric"):
        select_general_position(ls)


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------

def test_pencil_membership_derived():
    l1 = parse_poly("z0 - z1")        # through [0:0:1] and [1:1:1]
    l2 = parse_poly("z0 + z1 + z2")   # through the two cube-root points
    a, b = pencil_membership(l1, l2, P1, P2)
    assert (a, b) == (Fraction(1), Fraction(-1))
    assert l1 * l2 == P1.scale(a) + P2.scale(b)


def test_pencil_membership_trivial_split():
    q1 = parse_poly("z0*z1")
    a, b = pencil_membership(parse_poly("z0"), parse_poly("z1"), q1, P2)
    assert (a, b) == (Fraction(1), Fraction(0))


def test_pencil_membership_rejects_unrelated():
    with pytest.raises(NotInPencilError):
        pencil_membership(parse_poly("z0 + 5*z2"), parse_poly("z1 - 17*z2"), P1, P2)


def test_rank1_members_triple_root():
    members = pencil_rank1_members(P2, P3)
    assert len(members) == 1
    m = members[0]
    assert m.coefficients == (Fraction(1), Fraction(-1))
    assert m.root_form == parse_poly("z0")
    assert m.root_scale == 1


def test_rank1_members_diagonal():
    members = pencil_rank1_members(parse_poly("z0^2"), parse_poly("z1^2"))
    got = {(m.coefficients, str(m.root_form)) for m in members}
    assert got == {((Fraction(1), Fraction(0)), "z0"),
                   ((Fraction(0), Fraction(1)), "z1")}


def test_rank1_members_double_root_once():
    # the minors' gcd is (t - 1)^2: one member [1:1], reported once
    members = pencil_rank1_members(parse_poly("z0^2 + z0*z1"), parse_poly("z0^2 - z0*z1"))
    assert len(members) == 1
    assert members[0].coefficients == (Fraction(1), Fraction(1))
    assert members[0].combination == parse_poly("2*z0^2")


def test_rank1_members_none():
    assert pencil_rank1_members(P1, P2) == []


def test_contact_classification_examples():
    assert contact_classification(P1, P2) == "four-simple"
    assert contact_classification(P2, P3) == "one-point"
    assert contact_classification(P1, P4) == "two-tangential"


def test_classification_consistent_with_rank1_structure():
    """One-point contact forces the square of the common tangent into the
    pencil."""
    members = pencil_rank1_members(P2, P3)
    assert contact_classification(P2, P3) == "one-point"
    tangent_sq = {str(m.root_form) for m in members}
    recs = intersection_points(P2, P3)
    t = tangent_line(P2, recs[0].point)
    assert str(t) in tangent_sq


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

# three smooth conics through (+-sqrt 2 : +-1 : 1)
IRRATIONAL_NET = [parse_poly(f) for f in (
    "z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2", "z0^2 + 2*z1^2 - 4*z2^2")]


def test_composite_morphism_coordinate_squares():
    md = composite_morphism(parse_poly("z0^2"), parse_poly("z1^2"),
                            parse_poly("z2^2"), (1, 1, 1))
    assert md.is_morphism and md.certified


def test_composite_morphism_pencil_sum_fails():
    md = composite_morphism(P1, P2, P1 + P2, (1, 1, 1))
    assert not md.is_morphism
    assert md.witness is not None


def test_composite_morphism_example(example_net):
    q0, q1, q2 = example_net
    md = composite_morphism(q0, q1, q2, (1, 1, 1))
    assert md.is_morphism


def test_composite_morphism_irrational_common_zero_is_certified():
    """The three conics of the triple-point net meet at (+-sqrt2 : +-1 : 1):
    the exact resultant certifies that they are no morphism."""
    md = composite_morphism(*IRRATIONAL_NET, (1, 1, 1))
    assert not md.is_morphism and md.certified
    x, y, z = (complex(c) for c in md.witness.coords)
    assert abs(abs(x / z) - math.sqrt(2)) < 1e-12 and abs(abs(y / z) - 1) < 1e-12


def test_composite_morphism_shared_component_witness_lies_on_every_form():
    """z0*z1 and z0*z2 share z0, which meets the third form at (0 : 1 : +-i):
    the witness is one of those points, not a point of z0 off the circle."""
    forms = [parse_poly(f) for f in ("z0*z1", "z0*z2", "z1^2 + z2^2 - z0^2")]
    md = composite_morphism(*forms, (1, 1, 1))
    assert not md.is_morphism and md.certified
    x, y, z = (complex(c) for c in md.witness.coords)
    assert abs(x) < 1e-30 and abs(abs(z / y) - 1) < 1e-30 and abs((z / y).real) < 1e-30
    _, witnesses, _, shared = common_zero(forms, DEFAULT_PRECISION)
    assert shared and len(witnesses) == 2
    for w in witnesses:
        assert all(abs(complex(f.eval_mpc(w.coords))) < 1e-30 for f in forms)


def test_composite_morphism_degree_mismatch():
    from quadrics.arrangements import DegreeMismatchError
    with pytest.raises(DegreeMismatchError):
        composite_morphism(parse_poly("z0"), parse_poly("z1^2"), parse_poly("z2^2"), (1, 1, 1))


# ---------------------------------------------------------------------------
# Hypothesis counts and obstruction clauses
# ---------------------------------------------------------------------------

def test_cor31_three_transversal_quadrics(generic_triple):
    cfg = Configuration.from_polys(list(generic_triple))
    res = cor31_hypothesis_check(cfg)
    for r in res:
        assert r["distinct_points"] == 8
        assert r["pass"]


def test_cor31_two_lines_fail():
    cfg = Configuration.from_polys([parse_poly("z0"), parse_poly("z1")])
    res = cor31_hypothesis_check(cfg)
    for r in res:
        assert r["distinct_points"] == 1
        assert not r["pass"]


def test_cor31_example(example_net):
    q0, q1, q2 = example_net
    cfg = Configuration.from_polys([q0, q1, q2], family=(1, 2, 2))
    res = cor31_hypothesis_check(cfg)
    assert all(r["pass"] for r in res)


def test_contact_obstruction_example_passes(example_net):
    q0, q1, q2 = example_net
    cfg = Configuration.from_polys([q0, q1, q2], family=(1, 2, 2))
    rep = contact_obstruction_check(cfg)
    assert {k: v.status for k, v in rep.conditions.items()} == {
        "e": "pass", "f": "pass", "g": "pass"}


def test_contact_obstruction_tangential_pair_fails_e():
    cfg = Configuration.from_polys(
        [parse_poly("z0 + z1 + z2"), P2, P3], family=(1, 2, 2))
    rep = contact_obstruction_check(cfg)
    assert rep.conditions["e"].status == "fail"


def test_clause_g_fails_on_an_irrational_tangent():
    """The tangents to the unit circle at its points (1/2 : +-sqrt3/2 : 1) on
    the line 2 z0 = z2 touch the unit circle about (4, 0): the exact
    resultant decides clause g, which fails with no witness point."""
    cfg = Configuration.from_polys([parse_poly(f) for f in (
        "2*z0 - z2", "z0^2 + z1^2 - z2^2", "z0^2 - 8*z0*z2 + z1^2 + 15*z2^2")])
    g = contact_obstruction_check(cfg).conditions["g"]
    assert g.status == "fail"
    assert g.witnesses == []
    assert g.note == ("tangent at a contact point touches the other quadric; the tangent to "
                      "z0^2 + z1^2 - z2^2 at a point of 2*z0 - z2 that touches "
                      "z0^2 - 8*z0*z2 + z1^2 + 15*z2^2 is irrational: no witness point")


def test_contact_obstruction_engineered_span_fails_f():
    """Reverse-engineered instance: a quadric living in both contact
    pencils; the stacked coefficient matrix drops rank."""
    gamma = parse_poly("z0*z1 - z2^2")
    tp = parse_poly("z1")   # tangent of gamma at [1:0:0]
    tq = parse_poly("z0")   # tangent of gamma at [0:1:0]
    q2 = gamma - tp * tp
    q3 = gamma - tq * tq
    line = parse_poly("z2")  # through both contact points
    cfg = Configuration.from_polys([line, q2, q3], family=(1, 2, 2))
    rep = contact_obstruction_check(cfg)
    assert rep.conditions["f"].status == "fail"


# Clause f against an exact oracle.  On each (1,2,2) input below the line
# meets one conic in rational points and the other in quadratic-irrational
# ones, so exact and numeric tangents are paired.  The first is built that
# way; the others are the (1,2,2) items of perfbench's config-sweep at seed
# 611 (ids 13, 19, 41, 45, 48).
CONTACT_122 = {
    "rational_and_sqrt2": ["z2", "z0^2 - z1^2 + z0*z2 + 3*z1*z2 + 5*z2^2",
                           "z0^2 - 2*z1^2 + 2*z0*z2 - z1*z2 + 7*z2^2"],
    "sweep611_13": ["-3*z0 + 3*z1 + 4*z2",
                 "3*z0^2 - 2*z0*z1 - 2*z0*z2 + z1^2 - 3*z1*z2 + 3*z2^2",
                 "-z0^2 - 3*z0*z1 + 3*z0*z2 + 4*z1^2 + 3*z1*z2 + 2*z2^2"],
    "sweep611_19": ["-4*z0 - z1 + 2*z2",
                 "4*z0^2 - 4*z0*z1 + z0*z2 - 2*z1^2 + 4*z1*z2",
                 "2*z0^2 - 2*z0*z1 - 3*z0*z2 + z1*z2 + 2*z2^2"],
    "sweep611_41": ["3*z0 - z1 + 3*z2",
                 "4*z0^2 - 3*z0*z1 + 3*z0*z2 + 2*z1^2 - 3*z1*z2 - 4*z2^2",
                 "-2*z0^2 + z0*z1 - 4*z0*z2 + 4*z1^2 - 4*z1*z2 - 2*z2^2"],
    "sweep611_45": ["-4*z1",
                 "-3*z0^2 - z0*z1 + 2*z0*z2 - 3*z1^2 + 2*z1*z2 + z2^2",
                 "3*z0^2 + z0*z1 - 4*z0*z2 + 3*z1*z2 - 3*z2^2"],
    "sweep611_48": ["-z0 + 3*z1",
                 "4*z0^2 + 3*z0*z1 + 4*z0*z2 - 3*z1^2 - 2*z1*z2",
                 "-4*z0^2 + 3*z0*z1 - 2*z0*z2 - 4*z1^2 - 4*z1*z2 - 2*z2^2"],
}


def _sympy_contact_full_rank(texts):
    """For each point p' of V(L, Q2) and p'' of V(L, Q3), whether
    [Q2, T'^2, Q3, T''^2] has rank 4, T the tangent of its conic there.

    The points are exact in sympy, with coordinates in Q(sqrt(disc)); a
    rank is 4 iff some 4x4 minor expands to a nonzero number.
    """
    import sympy
    z = sympy.symbols("z0 z1 z2")
    s, t = sympy.symbols("s t")
    line, q2, q3 = (sympy.sympify(x.replace("^", "**")) for x in texts)
    P, R = sympy.Matrix([[line.coeff(v) for v in z]]).nullspace()

    def points(q):
        form = sympy.Poly(q.subs({v: s * a + t * b for v, a, b in zip(z, P, R)},
                                 simultaneous=True), s, t)
        A, B, C = (form.coeff_monomial(m) for m in (s ** 2, s * t, t ** 2))
        disc = B ** 2 - 4 * A * C
        assert disc != 0  # the line is not tangent to the conic
        roots = ([(-B + e * sympy.sqrt(disc), 2 * A) for e in (1, -1)] if A != 0
                 else [(1, 0), (-C, B)])
        pts = [[u * a + w * b for a, b in zip(P, R)] for u, w in roots]
        assert all(sympy.expand(f.subs(dict(zip(z, pt)), simultaneous=True)) == 0
                   for pt in pts for f in (line, q))
        return pts

    monomials = [z[0] ** 2, z[1] ** 2, z[2] ** 2, z[0] * z[1], z[0] * z[2], z[1] * z[2]]

    def row(f):
        poly = sympy.Poly(sympy.expand(f), *z)
        return [poly.coeff_monomial(m) for m in monomials]

    def tangent_square(q, pt):
        at = dict(zip(z, pt))
        return sum(sympy.diff(q, v).subs(at, simultaneous=True) * v for v in z) ** 2

    full = []
    for pa, pb in itertools.product(points(q2), points(q3)):
        M = sympy.Matrix([row(q2), row(tangent_square(q2, pa)),
                          row(q3), row(tangent_square(q3, pb))])
        full.append(any(sympy.expand(M[:, list(cols)].det()) != 0
                        for cols in itertools.combinations(range(6), 4)))
    return full


@pytest.mark.parametrize("name", sorted(CONTACT_122))
def test_contact_obstruction_f_matches_exact_rank(name):
    texts = CONTACT_122[name]
    cfg = Configuration.from_json({"family": [1, 2, 2], "components": texts})
    verdict = contact_obstruction_check(cfg).conditions["f"].status
    full = _sympy_contact_full_rank(texts)
    assert len(full) == 4
    # pass never meets a rank below 4, fail never meets rank 4 everywhere
    assert verdict != "pass" or all(full)
    assert verdict != "fail" or not all(full)
    assert verdict == "pass"


def test_contact_oracle_sees_the_engineered_span():
    # the oracle itself finds the drop of rank that fails clause f above
    texts = ["z2", "z0*z1 - z2^2 - z1^2", "z0*z1 - z2^2 - z0^2"]
    assert not all(_sympy_contact_full_rank(texts))


# ---------------------------------------------------------------------------
# Shared quadratic-system solver
# ---------------------------------------------------------------------------

def test_quadratic_system_coordinate_points():
    forms = [parse_poly("z0*z1"), parse_poly("z0*z2"), parse_poly("z1*z2")]
    sols = common_zeros_of_quadratic_system(forms)
    got = {tuple(s.exact) for s in sols}
    assert got == {(Fraction(1), Fraction(0), Fraction(0)),
                   (Fraction(0), Fraction(1), Fraction(0)),
                   (Fraction(0), Fraction(0), Fraction(1))}


def test_quadratic_system_positive_dimensional():
    with pytest.raises(InfinitelyManySolutionsError):
        common_zeros_of_quadratic_system(
            [parse_poly("z0^2"), parse_poly("z0*z1")][:1] * 2)


# ---------------------------------------------------------------------------
# Family-specific tangent conditions
# ---------------------------------------------------------------------------

def test_s4_condition4_generic_pass():
    cfg = Configuration.from_polys([
        parse_poly("z0^2 + 2*z1^2 - 3*z2^2 + z0*z1"),
        parse_poly("2*z0^2 - z1^2 + z2^2 + z1*z2"),
        parse_poly("z0 + z1 + z2"),
        parse_poly("z0 - 2*z1 + 3*z2")])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.4"].status == "pass"
    assert rep.conditions["s4.5"].status == "not_applicable"


def test_s4_condition4_engineered_failure():
    """q1 touches z0 at [0:0:1], q2 touches it at [0:1:0], and the two
    lines pass through exactly those contact points."""
    cfg = Configuration.from_polys([
        parse_poly("z1^2 + z0*z2"),
        parse_poly("z2^2 + z0*z1"),
        parse_poly("z1"),
        parse_poly("z2")])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.4"].status == "fail"


def test_s4_condition5_generic_pass():
    cfg = Configuration.from_polys([
        parse_poly("z0^2 + 2*z1^2 - 3*z2^2 + z0*z1"),
        parse_poly("z0 + z1 + z2"),
        parse_poly("z0 - 2*z1 + 3*z2"),
        parse_poly("5*z0 + z1 - z2")])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.5"].status == "pass"
    assert rep.conditions["s4.4"].status == "not_applicable"


def test_s4_condition5_engineered_failure():
    """Two lines meet on the conic, and the tangent there touches the
    conic at a point of the third line."""
    cfg = Configuration.from_polys([
        parse_poly("z0^2 - z1*z2"),
        parse_poly("z1"),
        parse_poly("z0 + z1"),
        parse_poly("z0 - z1")])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.5"].status == "fail"


def test_s41_fails_at_irrational_singular_points():
    """z1 (z0^2 - 2 z2^2 + z1^2) is singular at (+-sqrt2 : 0 : 1), where its
    three partials, all conics, meet: the exact resultant decides s4.1, with
    those two points as witnesses."""
    cfg = Configuration.from_polys([parse_poly("z0^2*z1 - 2*z1*z2^2 + z1^3"),
                                    parse_poly("z0 + 5*z1 + 7*z2")])
    s41 = genericity_check_s4(cfg).conditions["s4.1"]
    assert (s41.status, s41.note) == ("fail", "singular point")
    signs = set()
    for w in s41.witnesses:
        x, y, z = (complex(c) for c in w.coords)
        assert abs(abs(x / z) - math.sqrt(2)) < 1e-12 and abs(y) < 1e-12
        signs.add((x / z).real > 0)
    assert signs == {True, False}


def test_s4_smoothness_general_degree():
    nodal = parse_poly("z1^2*z2 - z0^3 - z0^2*z2")
    cfg = Configuration.from_polys([nodal, P1, parse_poly("z0 + z1 + z2")])
    rep = genericity_check_s4(cfg)
    assert rep.conditions["s4.1"].status == "fail"
    wit = [w for w in rep.conditions["s4.1"].witnesses if w.is_exact()]
    assert any(tuple(w.exact) == (Fraction(0), Fraction(0), Fraction(1)) for w in wit)

    fermat_cubic = parse_poly("z0^3 + z1^3 + z2^3")
    cfg2 = Configuration.from_polys([fermat_cubic, P1, parse_poly("z0 + 2*z1 + 5*z2")])
    rep2 = genericity_check_s4(cfg2)
    assert rep2.conditions["s4.1"].status == "pass"
    assert rep2.conditions["s4.2"].status == "pass"


# ---------------------------------------------------------------------------
# Analysis scope and the double-precision line filter
# ---------------------------------------------------------------------------

def _count_computations(monkeypatch):
    """Count calls of the uncached intersection, keyed by (p, q, precision)."""
    import quadrics.arrangements as arr
    calls = {}
    compute = arr._intersection_points

    def counted(p, q, precision):
        calls[(p, q, precision)] = calls.get((p, q, precision), 0) + 1
        return compute(p, q, precision)

    monkeypatch.setattr(arr, "_intersection_points", counted)
    return calls


def test_library_calls_outside_a_scope_compute_each_time(monkeypatch):
    calls = _count_computations(monkeypatch)
    a = intersection_points(P1, P2)
    b = intersection_points(P1, P2)
    assert sum(calls.values()) == 2
    assert list(map(repr, a)) == list(map(repr, b))
    assert a[0].point is not b[0].point


def test_scope_computes_each_intersection_once(monkeypatch):
    from quadrics.config import analysis_scope
    from quadrics.polynomials import quadric_form
    import quadrics.polynomials as poly
    calls = _count_computations(monkeypatch)
    forms = []
    compute_form = poly._quadric_form
    monkeypatch.setattr(poly, "_quadric_form",
                        lambda p: forms.append(p) or compute_form(p))
    shared = P1 * parse_poly("z0 + z1")
    with analysis_scope():
        a = intersection_points(P1, P2)
        b = intersection_points(P1, P2)
        errors = []
        for _ in range(2):
            with pytest.raises(CommonComponentError) as info:
                intersection_points(P1, shared)
            errors.append(info.value)
        assert quadric_form(P1) is quadric_form(P1)
        # each call gets fresh records: editing one leaves the memo intact
        a[0].multiplicity += 1
        assert intersection_points(P1, P2)[0].multiplicity == b[0].multiplicity
    # the witness search's own intersections are computed once too
    assert (P1, P2, DEFAULT_PRECISION) in calls and (P1, shared, DEFAULT_PRECISION) in calls
    assert set(calls.values()) == {1}
    assert forms == [P1]
    # the points are shared
    assert all(ra.point is rb.point for ra, rb in zip(a, b))
    # a fresh error each time, carrying the one witness
    assert errors[0] is not errors[1]
    assert errors[0].witness is errors[1].witness is not None
    # the memo ends with the scope
    intersection_points(P1, P2)
    assert calls[(P1, P2, DEFAULT_PRECISION)] == 2


# c1 = z0^2 - 2 z2^2 + (z1 - z2)^2 and c2 = z0^2 - 2 z2^2 + (z1 + z2)^2
# with l3 = z1 - z2 and l4 = z1 + z2, under an integer change of
# coordinates: the tangent z0 = sqrt2 z2 touches c1 on l3 and c2 on l4,
# so s4.4 must fail.
CONTACT_ON_LINES = {"family": [2, 2, 1, 1], "components": [
    "3*z0^2 - 8*z0*z1 - 6*z0*z2 + 21*z1^2 + 4*z1*z2 - z2^2",
    "-z0^2 + 12*z0*z1 - 6*z0*z2 - 3*z1^2 + 8*z1*z2 + 3*z2^2",
    "-2*z0 + 5*z1", "z1 + 2*z2"]}


def test_contact_on_an_irrational_tangent_fails_at_every_precision():
    """On CONTACT_ON_LINES the failing tangent is irrational: s4.4 fails at
    every start precision and ambient precision, with no witness point and
    a note that names the pair of conics."""
    cfg = Configuration.from_json(CONTACT_ON_LINES)
    for bits in (64, 256, 512):
        for ambient in (53, bits):
            with mp.workprec(ambient):
                s44 = genericity_check_s4(cfg, precision=PrecisionConfig(bits, 4096)
                                          ).conditions["s4.4"]
            assert s44.status == "fail"
            assert s44.witnesses == []
            assert s44.note.startswith("common tangent contact points lie on the two lines; "
                                       "the common tangent of components 0 and 1 ")
            assert "is irrational: no witness point" in s44.note


def _to_sympy(f, z):
    return sum(c * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2] for e, c in f.terms.items())


def _sympy_pencil_determinant(a, b, d1, d2):
    """The 6x6 determinant of a, b, d1 + t d2 and the partials of their
    Jacobian, built and expanded by sympy alone."""
    import sympy
    z, t = sympy.symbols("z0 z1 z2"), sympy.Symbol("t")
    forms = [_to_sympy(a, z), _to_sympy(b, z), _to_sympy(d1, z) + t * _to_sympy(d2, z)]
    jac = sympy.Matrix([[sympy.diff(f, v) for v in z] for f in forms]).det()
    rows = forms + [sympy.diff(jac, v) for v in z]
    monos = [z[0] ** 2, z[1] ** 2, z[2] ** 2, z[0] * z[1], z[0] * z[2], z[1] * z[2]]
    return sympy.expand(sympy.Matrix(
        [[sympy.Poly(sympy.expand(r), *z).coeff_monomial(m) for m in monos] for r in rows]).det())


def test_conics_share_a_zero_matches_the_sympy_determinant():
    """On seeded pencils, about half of them with all four conics forced
    through one rational point, the predicate holds exactly when sympy's
    determinant vanishes identically in t, and exactly on the forced ones.
    A point on a, b and d1 but off d2 is not enough."""
    from quadrics.arrangements import conics_share_a_zero
    rng = random.Random(3721)
    basis = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def conic(through=None):
        f = HomPoly({e: rng.randint(-6, 6) for e in basis[1:]} | {basis[0]: rng.randint(1, 6)})
        if through is None:
            return f
        # move the z0^2 coefficient so that f vanishes at the point (its z0 is nonzero)
        return f - HomPoly.monomial((2, 0, 0), f.eval_exact(through) / through[0] ** 2)

    for case in range(10):
        point = (Fraction(rng.randint(1, 4)), Fraction(rng.randint(-4, 4)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        forced = case % 2 == 0
        forms = [conic(point if forced else None) for _ in range(4)]
        if case % 4 == 1:  # through the point, all but d2
            forms = [conic(point) for _ in range(3)] + [conic()]
            assert forms[3].eval_exact(point) != 0
        det = _sympy_pencil_determinant(*forms)
        assert conics_share_a_zero(*forms) == (det == 0) == forced, case
    # d2 = 0: the resultant of three conics, zero on the irrational triple point
    triple = [parse_poly(s) for s in ("z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2",
                                      "z0^2 + 2*z1^2 - 4*z2^2")]
    assert conics_share_a_zero(*triple)
    assert not conics_share_a_zero(*triple[:2], parse_poly("z0^2 + 2*z1^2 - 5*z2^2"))
    assert not conics_share_a_zero(*(parse_poly(f"z{i}^2") for i in range(3)))


KERNEL_MODES = ("free", "all four", "all but d2", "d2 = 0", "d2 = 0 through the point",
                "shared component")


def _exact(rng, kind):
    if kind == "int":
        return Fraction(rng.randint(-5, 5))
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))


def _kernel_forms(rng, kind, mode):
    """a, b, d1, d2 of one mode: free conics; all four or all but d2 through
    one point (Gaussian for Gaussian coefficients); d2 = 0, free or with a,
    b and d1 through the point; a and b sharing a line."""
    point = (Fraction(rng.randint(1, 3)), _exact(rng, kind), _exact(rng, kind))

    def conic(through=False):
        f = HomPoly.quadratic_form([_exact(rng, kind) for _ in range(6)])
        # move the z0^2 coefficient so that f vanishes at the point
        return f - HomPoly.quadratic_form([f.eval_exact(point) / point[0] ** 2] + [0] * 5) \
            if through else f

    def line():
        return HomPoly.linear_form([_exact(rng, kind) for _ in range(3)])

    forms = {"free": lambda: [conic() for _ in range(4)],
             "all four": lambda: [conic(True) for _ in range(4)],
             "all but d2": lambda: [conic(True) for _ in range(3)] + [conic()],
             "d2 = 0": lambda: [conic() for _ in range(3)] + [HomPoly()],
             "d2 = 0 through the point": lambda: [conic(True) for _ in range(3)] + [HomPoly()],
             "shared component": lambda: [l * line() for l in [line()] * 2]
             + [conic(), conic()]}[mode]()
    return forms


def test_conics_share_a_zero_matches_the_reference():
    """The integer kernel against the rows on HomPoly that it replaced, on
    integer, Fraction and Gaussian coefficients: the answers agree, forms
    forced through one point (d2 included, or d2 = 0) or sharing a
    component meet, and a spy on ``echelon`` sees both exits: rank 6 of
    the constant matrix M(0), which answers False, and the elimination
    over Z[t]."""
    import quadrics.arrangements as ar
    from unittest import mock
    from exact_reference import reference_conics_share_a_zero
    paths = Counter()

    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["int", "fraction", "gauss"]),
           mode=st.sampled_from(KERNEL_MODES))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(seed, kind, mode):
        forms = _kernel_forms(random.Random(seed), kind, mode)
        assume(not any(f.is_zero for f in forms[:3]))
        with mock.patch.object(ar, "echelon", wraps=ar.echelon) as spy:
            meet = ar.conics_share_a_zero(*forms)
        assert meet == reference_conics_share_a_zero(*forms), (seed, kind, mode)
        if mode in ("all four", "d2 = 0 through the point", "shared component"):
            assert meet
        matrices = [call.args[0] for call in spy.call_args_list]
        assert all(len(x) <= 1 for row in matrices[0] for x in row)
        if len(matrices) == 1:
            assert not meet
        else:
            assert len(matrices) == 2
            assert all(len(x) <= 2 for row in matrices[1] for x in row)
        paths["M(0)" if len(matrices) == 1 else "Z[t]", meet] += 1

    check()
    assert paths["M(0)", False] and paths["Z[t]", True] and paths["Z[t]", False], paths


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["int", "fraction", "gauss"]),
       degree=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_at_contact_is_a_positive_multiple_of_the_composed_form(seed, kind, degree):
    """On a conic's adjugate and on its matrix, ``_at_contact`` is the
    reference ``compose`` form, squared for a line, times a positive
    integer."""
    from quadrics.arrangements import _at_contact
    from quadrics.polynomials import quadric_form
    from quadrics.scalars import coerce_scalar
    from exact_reference import reference_at_contact
    rng = random.Random(seed)
    conic = HomPoly.quadratic_form([_exact(rng, kind) for _ in range(6)])
    f = HomPoly({e: _exact(rng, kind) for e in itertools.product(range(degree + 1), repeat=3)
                 if sum(e) == degree})
    qf = quadric_form(conic)
    for adj in (qf.adjugate, qf.matrix):
        ref, got = reference_at_contact(f, adj), HomPoly.quadratic_form(_at_contact(f, adj))
        if ref.is_zero:
            assert got.is_zero
            continue
        e = next(iter(ref.terms))
        factor = coerce_scalar(got.terms[e] / ref.terms[e])
        assert isinstance(factor, Fraction) and factor > 0 and factor.denominator == 1
        assert got == ref.scale(factor)


UNIT_CIRCLES = ["z0^2 + z1^2 - z2^2", "z0^2 - 6*z0*z2 + z1^2 + 8*z2^2"]


def test_s43_on_two_unit_circles():
    """Unit circles at 0 and at (3, 0).  The outer tangents z1 = +-z2 touch
    them at (0, +-1) and (3, +-1), which all lie on C3 = z0^2 - 3 z0 z2 +
    z1^2 - z2^2: s4.3 fails with those four points as witnesses, in the
    tangents' order.  The inner tangents touch them at (2/3, -+sqrt5/3) and
    (7/3, +-sqrt5/3), which lie on C3 + 2 z2^2: s4.3 fails with no witness
    point and a note that names the pair.  C3 + z1 z2 holds both contact
    points of no common tangent: s4.3 passes."""
    c1, c2 = (parse_poly(s) for s in UNIT_CIRCLES)
    c3 = parse_poly("z0^2 - 3*z0*z2 + z1^2 - z2^2")

    def s43(third):
        return genericity_check_s4(Configuration.from_polys([c1, c2, third])).conditions["s4.3"]

    outer = s43(c3)
    assert outer.status == "fail"
    assert outer.note == "third quadric meets a common tangent in both contact points"
    # P then Q on z1 = z2, then on z1 = -z2, each scaled by ProjPointNum
    assert [tuple(w.exact) for w in outer.witnesses] == [
        (0, 1, 1), (1, Fraction(1, 3), Fraction(1, 3)),
        (0, 1, -1), (1, Fraction(-1, 3), Fraction(1, 3))]
    inner = s43(c3 + parse_poly("2*z2^2"))
    assert inner.status == "fail"
    assert inner.witnesses == []
    assert inner.note == ("third quadric meets a common tangent in both contact points; the "
                          "common tangent of components 0 and 1 is irrational: no witness point")
    assert s43(c3 + parse_poly("z1*z2")).status == "pass"


def test_a_passing_contact_clause_computes_no_common_tangent(monkeypatch):
    """s4.3 and s4.4 decide a pass from the resultant alone; the dual
    conics are intersected only to list a fail's witnesses."""
    import quadrics.arrangements as arr

    def refuse(*args):
        raise AssertionError("common tangents computed on a pass")

    monkeypatch.setattr(arr, "common_tangents", refuse)
    c1, c2 = (parse_poly(s) for s in UNIT_CIRCLES)
    c3 = parse_poly("z0^2 - 3*z0*z2 + z1^2 - z2^2 + z1*z2")
    assert genericity_check_s4(Configuration.from_polys([c1, c2, c3])
                               ).conditions["s4.3"].status == "pass"
    dd11 = Configuration.from_polys([parse_poly(s) for s in (
        "z0^2 + 2*z1^2 - 3*z2^2 + z0*z1", "2*z0^2 - z1^2 + z2^2 + z1*z2",
        "z0 + z1 + z2", "z0 - 2*z1 + 3*z2")])
    assert genericity_check_s4(dd11).conditions["s4.4"].status == "pass"


def test_s45_fails_on_the_irrational_tangents_from_the_pole():
    """The lines z1 and z0 + z1 - 2 z2 meet at (2 : 0 : 1), the pole of the
    third line 2 z0 - z2 for the unit circle: both tangents from it touch
    the circle on that line, at (1/2, +-sqrt3/2), so s4.5 fails with no
    witness point, and the note names the two lines."""
    cfg = Configuration.from_polys([parse_poly(s) for s in (
        "z0^2 + z1^2 - z2^2", "z1", "z0 + z1 - 2*z2", "2*z0 - z2")])
    s45 = genericity_check_s4(cfg).conditions["s4.5"]
    assert s45.status == "fail"
    assert s45.witnesses == []
    assert ("the tangent through the meet of z1 and z0 + z1 - 2*z2 is irrational: "
            "no witness point") in s45.note


def _reference_concurrent(l1, l2, l3):
    """lines_concurrent as decided by mpmath alone, with a first-order
    error bound: exact where all three lines are, else False where |det|
    exceeds the bound and None otherwise (the oracle of the ball version)."""
    from quadrics.linalg import det
    if all(l.exact is not None for l in (l1, l2, l3)):
        return det([l.exact.linear_coeffs() for l in (l1, l2, l3)]) == 0
    rows = [l.vec for l in (l1, l2, l3)]
    d = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
         - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
         + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    err = sum(l.radius for l in (l1, l2, l3)) * 6 + mp.mpf(2) ** (8 - mp.mp.prec)
    return False if abs(d) > err else None


def _reference_distinct(l1, l2):
    """lines_distinct as decided by mpmath alone (the same kind of oracle)."""
    if l1.exact is not None and l2.exact is not None:
        return l1.exact != l2.exact and l1.exact != -l2.exact
    v = (l1.vec[1] * l2.vec[2] - l1.vec[2] * l2.vec[1],
         l1.vec[2] * l2.vec[0] - l1.vec[0] * l2.vec[2],
         l1.vec[0] * l2.vec[1] - l1.vec[1] * l2.vec[0])
    err = (l1.radius + l2.radius) * 6 + mp.mpf(2) ** (8 - mp.mp.prec)
    return True if max(abs(c) for c in v) > err else None


def _agrees(got, ref):
    """The ball answer is the oracle's wherever the oracle decides: never
    the opposite, never undecided instead (it may decide more)."""
    return ref is None or got == ref


def _normalized_line(vec, radius):
    """A NumLine normalized the way NumLine.from_points normalizes."""
    from quadrics.arrangements import _unit_line
    return _unit_line(vec, radius * max(abs(c) for c in vec))


def _line_triple(rng):
    """Random lines: generic, through one point, or coincident, the last
    two perturbed by 1e-8 ... 1e-40; radii 0 or 1e-60 ... 1e-10, half of
    the time near the perturbation, where the mpmath test is closest to
    its error bound; sometimes one exact line."""
    def cvec():
        return [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]

    k = rng.randint(8, 40)
    near = rng.random() < 0.5

    def radius():
        if rng.random() < 0.3:
            return mp.mpf(0)
        e = min(max(k + rng.randint(0, 3), 10), 60) if near else rng.randint(10, 60)
        return mp.mpf(10) ** -e * rng.uniform(0.1, 1)

    kind = rng.choice(["generic", "concurrent", "coincident"])
    if kind == "generic":
        vecs = [cvec(), cvec(), cvec()]
    elif kind == "concurrent":
        point = cvec()
        vecs = [list(_cross_vec(point, cvec())) for _ in range(3)]
    else:
        base = cvec()
        vecs = [base, list(base), cvec()]
    if kind != "generic" and rng.random() < 0.8:
        eps = mp.mpf(10) ** -k
        vecs[1] = [c + eps * d for c, d in zip(vecs[1], cvec())]
    lines = [_normalized_line(v, radius()) for v in vecs]
    if rng.random() < 0.2:
        lines[2] = NumLine.from_exact(HomPoly.linear_form(
            [rng.randint(-5, 5) for _ in range(2)] + [rng.randint(1, 5)]))
    return lines


def _cross_vec(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([256, 512]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_double_filter_never_changes_a_line_predicate(seed, bits):
    """The ball predicates agree with the mpmath oracle wherever it decides."""
    rng = random.Random(seed)
    with mp.workprec(bits):
        lines = _line_triple(rng)
        assert _agrees(lines_concurrent(*lines), _reference_concurrent(*lines))
        for a, b in itertools.combinations(lines, 2):
            assert _agrees(lines_distinct(a, b), _reference_distinct(a, b))


def _line_and_point(rng):
    """A random point and a line: generic, or through the point and then
    perturbed by 1e-8 ... 1e-40; radii 0 or 1e-60 ... 1e-7, half of the
    time near the perturbation; sometimes both exact."""
    def cvec():
        return [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]

    k = rng.randint(8, 40)
    near = rng.random() < 0.5

    def radius():
        if rng.random() < 0.3:
            return mp.mpf(0)
        e = min(max(k + rng.randint(-1, 3), 7), 60) if near else rng.randint(10, 60)
        return mp.mpf(10) ** -e * rng.uniform(0.1, 1)

    if rng.random() < 0.2:
        pe = [rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)]
        le = [0, 0, 0]
        while not any(le):  # the zero form is not a line: draw again
            le = [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)]
            if rng.random() < 0.5:  # make the exact line pass through the point
                le[2] = Fraction(-(le[0] * pe[0] + le[1] * pe[1]), pe[2])
        return NumLine.from_exact(HomPoly.linear_form(le)), ProjPointNum.from_exact(pe)
    point = ProjPointNum(cvec(), radius())
    vec = cvec()
    if rng.random() < 0.6:
        vec = list(_cross_vec(point.coords, vec))
        if rng.random() < 0.8:
            vec = [c + mp.mpf(10) ** -k * d for c, d in zip(vec, cvec())]
    return _normalized_line(vec, radius()), point


@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([53, 256, 512]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_double_filter_never_changes_an_incidence(seed, bits):
    """NumLine.passes_through agrees with mpmath's test wherever it decides:
    exact when line and point are, else False where |l.p| exceeds a
    first-order error bound."""
    _check_incidence(seed, bits)


def test_the_zero_form_is_redrawn_and_rejected():
    """Seed 730300788 draws le0 = le1 = 0 and a line through its point, so
    le2 = 0 too: the generator draws that line again, and
    NumLine.from_exact rejects the zero form by name instead of dividing
    by its zero norm."""
    line, _ = _line_and_point(random.Random(730300788))
    assert line.exact is not None and not line.exact.is_zero
    for bits in (53, 256, 512):
        _check_incidence(730300788, bits)
    with pytest.raises(ZeroPolynomialError, match="not a line"):
        NumLine.from_exact(HomPoly.linear_form([0, 0, 0]))


def _check_incidence(seed, bits):
    rng = random.Random(seed)
    with mp.workprec(bits):
        line, point = _line_and_point(rng)
        if line.exact is not None and point.is_exact():
            ref = line.exact.eval_exact(point.exact) == 0
        else:
            val = abs(sum(c * x for c, x in zip(line.vec, point.coords)))
            err = 3 * (line.radius + point.radius) + mp.mpf(2) ** (8 - bits)
            ref = False if val > err else None
        assert _agrees(line.passes_through(point), ref)


def test_double_filter_settles_generic_incidences():
    """A point off a line is separated by the double pass alone."""
    from quadrics.linalg import dot
    rng = random.Random(7)
    with mp.workprec(256):
        for _ in range(50):
            point = ProjPointNum([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                  for _ in range(3)], mp.mpf(10) ** -30)
            line = _normalized_line([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                     for _ in range(3)], mp.mpf(10) ** -30)
            assert dot(line.balls(True), point.balls(True)).excludes_zero()
            assert line.passes_through(point) is False
        # a line through the point is left to the working precision
        line = _normalized_line(_cross_vec(point.coords, [mp.mpc(1), mp.mpc(2), mp.mpc(3)]),
                                mp.mpf(10) ** -70)
        assert not dot(line.balls(True), point.balls(True)).excludes_zero()
        assert line.passes_through(point) is None


def test_double_filter_settles_generic_lines():
    """Generic lines are separated by the double pass alone."""
    from quadrics.linalg import cross, dot
    rng = random.Random(7)
    with mp.workprec(256):
        for _ in range(50):
            lines = [_normalized_line([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                       for _ in range(3)], mp.mpf(10) ** -30)
                     for _ in range(3)]
            a, b, c = (l.balls(True) for l in lines)
            assert dot(a, cross(b, c)).excludes_zero()
            assert any(x.excludes_zero() for x in cross(a, b))
            assert lines_concurrent(*lines) is False
        # a concurrent triple is left to the working precision
        point = [mp.mpc(1), mp.mpc(2), mp.mpc(3)]
        lines = [_normalized_line(_cross_vec(point, [mp.mpc(rng.uniform(-1, 1))
                                                     for _ in range(3)]), mp.mpf(10) ** -70)
                 for _ in range(3)]
        a, b, c = (l.balls(True) for l in lines)
        assert not dot(a, cross(b, c)).excludes_zero()
        assert lines_concurrent(*lines) is None


# ---------------------------------------------------------------------------
# s6.4 from the pencils' cubics against sympy and the numeric 18-line test
# ---------------------------------------------------------------------------

# the members Q0 + Q1, Q0 + Q2 and Q1 - Q2 are line pairs through the four
# points (+-sqrt 2 : +-sqrt 3 : 1), so s = 1 = -t u: (B) fails
CONSTRUCTED_B = ["z0^2 + z0*z1 + z0*z2 + 2*z1^2 - z1*z2 + 3*z2^2",
                 "-4*z0^2 - z0*z1 - z0*z2 + z1*z2 - 3*z2^2",
                 "-4*z0^2 - z0*z1 - z0*z2 - 2*z1^2 + z1*z2 + 3*z2^2"]
# c01 has the irreducible factor 22 t^2 + 41 t + 16, and Q0 + Q2 is a line
# pair, one line through the two vertices at its roots: (A) fails at an
# irrational vertex
IRRATIONAL_VERTEX_A = ["z0^2 + 3*z0*z1 + z0*z2 + 2*z1*z2 + 2*z2^2",
                       "z0^2 + 3*z0*z1 + z0*z2 - 3*z1^2 - z1*z2 + z2^2",
                       "3*z0^2 - z0*z1 - z0*z2 - 6*z1^2 - 7*z1*z2 - 3*z2^2"]
# config-sweep seed 9191, item 0055: (A) at the rational vertex u = -3
SWEEP_9191_55 = ["4*z0*z1 + z1^2 + z1*z2 - 4*z2^2",
                 "-z0^2 + 4*z0*z1 + 3*z0*z2 - 4*z1^2 + 3*z1*z2 + 3*z2^2",
                 "3*z0*z1 + 2*z0*z2 - 3*z1^2 - 4*z1*z2 - 2*z2^2"]


def _gaussian(texts):
    """The conics after z1 -> i z1: Gaussian coefficients, the same pattern."""
    change = [HomPoly.linear_form([1, 0, 0]), HomPoly.linear_form([0, GaussRat(0, 1), 0]),
              HomPoly.linear_form([0, 0, 1])]
    return [parse_poly(t).compose(change) for t in texts]


def _sympy_matrix(q):
    import sympy
    z = sympy.symbols("z0 z1 z2")
    scalar = (lambda c: sympy.Rational(c.re.numerator, c.re.denominator)
              + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
              if isinstance(c, GaussRat) else sympy.Rational(c.numerator, c.denominator))
    f = sum(scalar(c) * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2] for e, c in q.terms.items())
    return sympy.hessian(f, z) / 2


def _sympy_pencil_notes(polys):
    """The notes of (A) and (B), each decided by sympy's resultants:
    Res_x(c_X, Res_y(c_Y, tr(N_Y(y) adj N_X(x)))) = 0 and
    Res_t(c01(t), Res_u(c12(u), c02(-t u))) = 0."""
    import sympy
    x, y = sympy.symbols("x y")
    M = [_sympy_matrix(q) for q in polys]
    pencil = {g: (lambda v, g=g: M[g[0]] + v * M[g[1]]) for g in ((0, 1), (0, 2), (1, 2))}
    notes = []
    for X, Y in itertools.permutations(pencil, 2):
        member = pencil[Y](y)
        inner = sympy.resultant(member.det(), (member * pencil[X](x).adjugate()).trace(), y)
        if sympy.expand(sympy.resultant(pencil[X](x).det(), inner, x)) == 0:
            notes.append(f"a vertex of pencil ({X[0]},{X[1]}) lies on a member of "
                         f"pencil ({Y[0]},{Y[1]}): no witness point")
    inner = sympy.resultant(pencil[(1, 2)](y).det(), pencil[(0, 2)](-x * y).det(), y)
    if sympy.expand(sympy.resultant(pencil[(0, 1)](x).det(), inner, x)) == 0:
        notes.append("members of pencils (0,1), (0,2) and (1,2) meet at one point: "
                     "no witness point")
    return notes


def _seeded_triples(count, gauss=False):
    """Random triples with coefficients in [-4, 4] (Gaussian: parts in
    [-2, 2]) that pass s6.1 and s6.2, from a fixed seed."""
    rng = random.Random(4242 + gauss)
    expos = [(i, j, 2 - i - j) for i in range(3) for j in range(3 - i)]
    draw = ((lambda: GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))) if gauss
            else (lambda: rng.randint(-4, 4)))
    out = []
    while len(out) < count:
        quads = [HomPoly({e: draw() for e in expos}) for _ in range(3)]
        try:
            genericity_check_s6(*quads)
        except (DegenerateIntersectionError, ZeroPolynomialError):
            continue
        out.append(quads)
    return out


def test_exact_s64_matches_sympy_resultants():
    """The exact rule's (A) and (B) against sympy's resultants on the same
    cubics: seeded integer triples, one seeded Gaussian triple, and inputs
    where (A) fails at a rational and at an irrational vertex and (B)
    fails, over Z and over Z[i]."""
    from quadrics.arrangements import _pencil_concurrencies
    cases = _seeded_triples(8) + _seeded_triples(1, gauss=True) + [_gaussian(CONSTRUCTED_B)] + [
        [parse_poly(t) for t in texts]
        for texts in (CONSTRUCTED_B, IRRATIONAL_VERTEX_A, SWEEP_9191_55)]
    notes = []
    for polys in cases:
        got = _pencil_concurrencies(polys)
        assert got == _sympy_pencil_notes(polys), [str(p) for p in polys]
        notes += got
    # both (A) and (B) fail somewhere
    assert any(n.startswith("a vertex") for n in notes)
    assert any(n.startswith("members") for n in notes)


def test_s64_fails_at_an_irrational_vertex():
    """(A) on IRRATIONAL_VERTEX_A: the vertices of pencil (0,1) that lie on
    a member of pencil (0,2) are those at the roots of 22 t^2 + 41 t + 16,
    irrational."""
    import sympy
    x, y = sympy.symbols("x y")
    polys = [parse_poly(t) for t in IRRATIONAL_VERTEX_A]
    M = [_sympy_matrix(q) for q in polys]
    c01 = (M[0] + x * M[1]).det()
    member = M[0] + y * M[2]
    inner = sympy.resultant(member.det(), (member * (M[0] + x * M[1]).adjugate()).trace(), y)
    assert sympy.factor_list(sympy.gcd(c01, inner))[1] == [(22 * x ** 2 + 41 * x + 16, 1)]
    s64 = genericity_check_s6(*polys)[0].conditions["s6.4"]
    assert s64.status == "fail" and s64.witnesses == []
    assert s64.note.startswith("a vertex of pencil (0,1) lies on a member of pencil (0,2)")


def test_exact_s64_fails_where_the_line_reference_fails():
    """config-sweep seed 9191, item 0026: the conics meet at (0 : 1 : 0),
    and the numeric 18-line test finds an extra line through it."""
    from quadrics.arrangements import _condition4_verdict
    _, ls = genericity_check_s6(*(parse_poly(t) for t in (
        "-2*z0^2 + z0*z1 - 4*z0*z2 + z2^2",
        "3*z0^2 + 2*z0*z1 + 4*z0*z2 - 2*z1*z2 - 3*z2^2",
        "-z0*z1 - 2*z0*z2 + 2*z1*z2 + z2^2")))
    with mp.workprec(ls.precision_bits):
        assert reference_condition4_verdict(ls).status == "fail"
    got = _condition4_verdict(ls)
    assert (got.status, [repr(w) for w in got.witnesses]) == ("fail", ["[0:1:0]"])


@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([256, 512]))
@settings(max_examples=30, deadline=None, derandomize=True)
@example(seed=4096, bits=256)  # z2 (z2 - z1 - 4 z0) is reducible
def test_exact_s64_agrees_with_the_line_reference(seed, bits):
    """On random integer quadric triples, at 256 and 512 bits, the exact
    s6.4 and the 12-line selection agree with the numeric 18-line test and
    its selection wherever the numeric test decides.  A triple with a
    singular conic is outside s6.4, and the exact test raises on it, as
    its docstring says."""
    from quadrics.arrangements import _condition4_verdict
    from quadrics.polynomials import quadric_form
    rng = random.Random(seed)
    expos = [(i, j, 2 - i - j) for i in range(3) for j in range(3 - i)]
    quads = [HomPoly({e: rng.randint(-4, 4) for e in expos}) for _ in range(3)]
    assume(not any(q.is_zero for q in quads))
    with mp.workprec(bits):
        try:
            ls = build_line_system(*quads, PrecisionConfig(bits, 4096))
        except (DegenerateIntersectionError, CommonComponentError):
            assume(False)
        if any(quadric_form(q).rank < 3 for q in quads):
            with pytest.raises(DegenerateIntersectionError, match="singular quadric"):
                _condition4_verdict(ls)
            return
        ref = reference_condition4_verdict(ls)
        assume(ref.status != "undecided")
        assert _condition4_verdict(ls).status == ref.status
        if ref.status == "pass":
            assert select_general_position(ls) == reference_select_general_position(ls)
        else:
            with pytest.raises(NoValidSelectionError):
                select_general_position(ls)
