import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadrics.polynomials import (MAX_COEFFICIENT_BITS, MAX_DEGREE, MAX_LITERAL_DIGITS, MAX_NESTING, Ball, DegenerateLeadingFormError,
                                  HomPoly, MpForms, NotHomogeneousError, PolySyntaxError,
                                  ProjPointNum, ZeroPolynomialError,
                                  ball_eval, coord_balls, gaussian_extension_eval,
                                  QUADRATIC_MONOMIALS, parse_poly, quadric_form, resultant,
                                  subresultant, vanishes_at)
from quadrics.linalg import adjugate, cross, det, dot, echelon
from quadrics.scalars import GaussRat

from exact_reference import (point_distance, poly_from_matrix, reference_add, reference_compose,
                             reference_exact_div, reference_mul, reference_neg,
                             reference_parse_poly, reference_pow)

z0, z1, z2 = (HomPoly.variable(i) for i in range(3))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_simple_conic():
    p = parse_poly("z0^2 - z1*z2")
    assert p.terms == {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-1)}
    assert p.degree == 2


def test_parse_example_quadric():
    p = parse_poly("z1^2 + z0*z1 + z0*z2 + (1/25)*z1*z2")
    assert p.coeff((0, 2, 0)) == 1
    assert p.coeff((1, 1, 0)) == 1
    assert p.coeff((1, 0, 1)) == 1
    assert p.coeff((0, 1, 1)) == Fraction(1, 25)
    assert p.degree == 2


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError) as exc:
        parse_poly("z0^2 + z1")
    assert exc.value.degrees == [1, 2]


def test_parse_syntax_error_position():
    with pytest.raises(PolySyntaxError):
        parse_poly("z0^2 + + z1^2")
    with pytest.raises(PolySyntaxError):
        parse_poly("z3")
    with pytest.raises(PolySyntaxError):
        parse_poly("z0^2 )")


def test_parse_negative_rational_literal():
    p = parse_poly("(-3/4)*z0*z1 + z2^2")
    assert p.coeff((1, 1, 0)) == Fraction(-3, 4)


def test_parse_of_printed_form_is_identity():
    p = parse_poly("2*z0^2 - (1/3)*z1*z2 + 7*z0*z2")
    assert parse_poly(str(p)) == p


@st.composite
def homogeneous_polys(draw):
    deg = draw(st.integers(min_value=1, max_value=3))
    exps = [e for e in _exponents(deg)]
    terms = {}
    for e in draw(st.sets(st.sampled_from(exps), min_size=1, max_size=5)):
        num = draw(st.integers(min_value=-40, max_value=40))
        den = draw(st.integers(min_value=1, max_value=12))
        if num:
            terms[e] = Fraction(num, den)
    return HomPoly(terms)


def _exponents(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


@given(homogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(p):
    if p.is_zero:
        assert str(p) == "0"
        return
    assert parse_poly(str(p)).terms == p.terms


def _outcome(parse, text, gaussian):
    """Terms in order with their coefficient types, or the exception's
    type, text and position."""
    try:
        p = parse(text, gaussian)
    except (PolySyntaxError, NotHomogeneousError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return list(p.terms.items()), [type(c) for c in p.terms.values()], p.degree


def _literal(rng):
    """An integer, a zero, a '(p/q)' (rarely with q = 0), a '(-n)' or a
    signed '-n'."""
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randint(0, 12))
    if kind == 1:
        return "0"
    if kind == 2:
        return f"({rng.randint(-9, 9)}/{rng.randint(0, 40) or rng.randint(0, 1)})"
    return f"(-{rng.randint(0, 9)})" if kind == 3 else f"-{rng.randint(0, 9)}"


def _grammar_expr(rng, gaussian, depth=0):
    """An expression of the grammar: a sum of products, with an optional
    leading minus, whose factors are variables, literals, 'i' when
    ``gaussian``, or parenthesized expressions, some raised to a small
    power; now and then an expression minus itself."""
    def factor():
        if depth < 3 and rng.random() < 0.3 - 0.1 * depth:
            inner = f"({_grammar_expr(rng, gaussian, depth + 1)})"
            return inner + f"^{rng.randint(0, 3)}" if rng.random() < 0.4 else inner
        if rng.random() < 0.35:
            return _literal(rng)
        return rng.choice(["z0", "z1", "z2", "i"] if gaussian else ["z0", "z1", "z2"])

    terms = ["*".join(factor() for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, max(1, 3 - depth)))]
    text = rng.choice(["", "-"]) + terms[0] + "".join(
        rng.choice([" + ", " - "]) + t for t in terms[1:])
    if rng.random() < 0.15:
        return rng.choice([f"{text} - ({text})", f"({text}) - {text}"])
    return text


def _form_text(rng, gaussian):
    """A form in the style of the benchmark's: '(c)*z0^2 + (c)*z0*z1 ...',
    some coefficients 'c + d*i' when ``gaussian``."""
    terms = []
    for a, b, c in _exponents(rng.randint(1, 4)):
        coeff = rng.randint(-4, 4)
        if gaussian and rng.random() < 0.5:
            coeff = f"{coeff} + {rng.randint(-2, 2)}*i"
        if coeff:
            mono = "*".join(f"z{i}^{k}" if k > 1 else f"z{i}"
                            for i, k in enumerate((a, b, c)) if k)
            terms.append(f"({coeff})*{mono}")
    return " + ".join(terms) or "0"


def _parser_input(rng, gaussian):
    """One to three grammar expressions or form texts joined by '+', '-'
    or '*', with a syntax error on top of some: a character put in, one
    taken out, or a bad tail."""
    parts = [_form_text(rng, gaussian) if rng.random() < 0.3 else _grammar_expr(rng, gaussian)
             for _ in range(rng.randint(1, 2))]
    text = rng.choice([" + ", " - ", "*", "*"]).join(parts)
    edit = rng.randrange(10)
    if edit == 0:
        k = rng.randint(0, len(text))
        text = text[:k] + rng.choice("+-*^()/ z01i$") + text[k:]
    elif edit == 1:
        k = rng.randrange(len(text))
        text = text[:k] + text[k + 1:]
    elif edit == 2:
        text += rng.choice([" )", " + z0 + 1", " *", " ^2", " + z3", "(", " (1/0)"])
    return text


@given(seed=st.integers(0, 2 ** 32 - 1), gaussian=st.booleans())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_one_pass_parser_matches_the_tree_parser(seed, gaussian):
    """The one-pass parser gives the tree parser's terms, in its order and
    with its coefficient types, or its exception with the same text and
    position: nested parentheses, powers of sums, unary minus, (p/q),
    (-n) and zero literals, cancellations, inhomogeneous sums, syntax and
    homogeneity errors together, and the benchmark's form texts."""
    text = _parser_input(random.Random(seed), gaussian)
    assert _outcome(parse_poly, text, gaussian) == _outcome(reference_parse_poly, text, gaussian)


@pytest.mark.parametrize("text", [
    "z0 + 1 )", "(z0 + 1) * (z1 + z2^2", "z0 + 1 + $", "z0^2 + z1 + (1/0)",
    "z0 + z0^2 + z1^3", "(z0 - z0)*z1 + 1", "z0 - z0 + 1", "-(z0 + z1)^2 + 3*z2^2",
    "i*z0 + (1/2)*z1 - i", "(-3/4)*z0*z1 + (0/5)*z2^2 + (-0)*z0^2", "((z0 + z1)^2)^0",
    "z0^2 +\u3000z1^2", "(z0 + 1)^99999999", "(1/2 3)",
    "(- 3/4)*z0", "(-z0)", "z0 * -3", "--z0", "z0 ++ z1", "",
])
def test_one_pass_parser_matches_the_tree_parser_on_edge_cases(text):
    for gaussian in (False, True):
        assert _outcome(parse_poly, text, gaussian) == _outcome(reference_parse_poly, text, gaussian)


def test_parse_builds_one_hompoly(monkeypatch):
    calls = []
    init = HomPoly.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomPoly, "__init__", counting)
    p = parse_poly("(z0 + 2*z1)^3 - (1/2)*z2*(z0 - z1)^2 + (-3)*z0*z1*z2")
    assert len(calls) == 1
    assert p.degree == 3


def test_long_sums_and_products_parse():
    """Sums and products run as loops: their length is not bounded by the
    stack."""
    p = parse_poly(" + ".join(["z0*z1"] * 1000) + " - z2^2")
    assert p.terms == {(1, 1, 0): Fraction(1000), (0, 0, 2): Fraction(-1)}
    product = "*".join(["z0"] * MAX_DEGREE + ["2"] * (1000 - MAX_DEGREE))
    assert parse_poly(product).terms == {(MAX_DEGREE, 0, 0): Fraction(2 ** (1000 - MAX_DEGREE))}


@pytest.mark.parametrize("text, position", [
    ("z0 + 12\u00b2", 7), ("\u00b2", 0), ("z0 + \u0663*z1", 5)])
def test_only_ascii_digits_are_digits(text, position):
    """A superscript two or an Arabic-Indic three is not a digit of the
    grammar: it is an unexpected character at its position, not a failed
    int() and not a silent 3."""
    for gaussian in (False, True):
        with pytest.raises(PolySyntaxError, match="unexpected character") as info:
            parse_poly(text, gaussian)
        assert info.value.position == position


def test_products_and_powers_are_bounded_in_degree():
    """Past MAX_DEGREE a power or a product is a syntax error at its '^' or
    '*', before it is expanded; constants have degree 0, and a power of an
    inhomogeneous base keeps its homogeneity error."""
    assert parse_poly(f"(z0 + z1)^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly("z0^32*z1^32").degree == MAX_DEGREE
    assert parse_poly("10^400*z0 + 7^99*z1").degree == 1
    assert parse_poly(f"0*(z0 + z1)^{MAX_DEGREE}*z2").is_zero
    for text, position, degree in [("z1 + (z0 + 2*z1 + 3*z2)^400", 23, 400),
                                   ("z0^32*z1^33", 5, 65), ("(z0*z1)^33", 7, 66),
                                   ("z0*z1^64", 2, 65)]:
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text)
        assert str(info.value) == (
            f"degree {degree} above {MAX_DEGREE} (at position {position})")
    with pytest.raises(NotHomogeneousError):
        parse_poly("(z0 + 1)^99999999")


def test_products_and_powers_are_bounded_in_coefficient_size():
    """Past MAX_COEFFICIENT_BITS, estimated as the sum of the factors' bit
    lengths or the base's times the exponent (up to twice the true
    size), a power or a product is a syntax error at its '^' or '*', before
    it is expanded; powers of the units 1, -1, i and -i are exempt."""
    assert MAX_COEFFICIENT_BITS == 65536
    assert parse_poly("(10^400*z0 + z1)^49").degree == 49
    assert parse_poly("2^32768*z0").terms == {(1, 0, 0): Fraction(2 ** 32768)}
    assert parse_poly("(-1)^99999999*z0") == -z0
    assert parse_poly("i^99999999*z0", gaussian=True).terms == {(1, 0, 0): GaussRat(0, -1)}
    for text, position, bits in [("3^4000000*z0", 1, 8000000),
                                 ("(10^400*z0 + z1)^64", 16, 85056),
                                 ("z0*(1/3)^40000", 8, 80000),
                                 ("(1 + i)^65537*z0", 7, 65537),
                                 ("2^32769*z0", 1, 65538),
                                 ("2^30000*2^30000*2^30000*z0", 15, 90002)]:
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text, gaussian=True)
        assert str(info.value) == (f"coefficients of about {bits} bits above "
                                   f"{MAX_COEFFICIENT_BITS} (at position {position})")


def test_integer_literals_are_bounded_in_length():
    """A literal of MAX_LITERAL_DIGITS digits parses; one digit more is a
    syntax error at its first digit, not CPython's int() limit."""
    assert MAX_LITERAL_DIGITS == 4300
    assert parse_poly("z0 + " + "7" * 4300 + "*z1").terms[(0, 1, 0)] == int("7" * 4300)
    for text, position, digits in [("z0 + " + "7" * 4301 + "*z1", 5, 4301),
                                   ("1" * 100000 + "*z2", 0, 100000),
                                   ("(1/" + "3" * 4301 + ")*z0", 3, 4301)]:
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text)
        assert str(info.value) == (f"integer literal of {digits} digits above "
                                   f"{MAX_LITERAL_DIGITS} (at position {position})")


def test_integer_literals_follow_a_lower_interpreter_limit():
    """Where the interpreter's int() digit limit is below
    MAX_LITERAL_DIGITS, the tokenizer uses that limit, so a literal past
    it is still a syntax error at its first digit."""
    import sys
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert parse_poly("z0 - " + "8" * 1000 + "*z2").terms[(0, 0, 1)] == -int("8" * 1000)
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("z0 - " + "8" * 1001 + "*z2")
        assert str(info.value) == "integer literal of 1001 digits above 1000 (at position 5)"
    finally:
        sys.set_int_max_str_digits(old)


def test_parentheses_nest_up_to_the_limit():
    assert parse_poly("(" * MAX_NESTING + "z0" + ")" * MAX_NESTING) == z0
    assert parse_poly("(" * (MAX_NESTING - 1) + "(-1/2)" + ")" * (MAX_NESTING - 1)) \
        == HomPoly.constant(Fraction(-1, 2))
    for depth in (MAX_NESTING + 1, 300, 5000):
        text = "z1 + " + "(" * depth + "z0" + ")" * depth
        with pytest.raises(PolySyntaxError, match="nested deeper than 100") as info:
            parse_poly(text)
        assert info.value.position == len("z1 + ") + MAX_NESTING


@st.composite
def _term_maps(draw):
    """Homogeneous polynomials with small integer, rational or Gaussian
    coefficients, so that sums and products cancel often."""
    d = draw(st.integers(0, 3))
    gauss = draw(st.booleans())
    terms = {}
    for e in draw(st.lists(st.sampled_from(_exponents(d)), max_size=6, unique=True)):
        c = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2])))
        terms[e] = GaussRat(c, draw(st.integers(-1, 1))) if gauss else c
    return HomPoly(terms)


def _same(p, q):
    assert list(p.terms.items()) == list(q.terms.items())
    assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]


@given(_term_maps(), _term_maps(), st.integers(0, 5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ring_operators_match_the_replaced_ones(p, q, n):
    """HomPoly's operators on the term-map kernels give the terms, their
    order and their types of the loops they took the place of."""
    if p.degree == q.degree or p.is_zero or q.is_zero:
        _same(p + q, reference_add(p, q))
        _same(p - q, reference_add(p, reference_neg(q)))
    _same(-p, reference_neg(p))
    _same(p * q, reference_mul(p, q))
    _same(p ** n, reference_pow(p, n))
    if not q.is_zero:
        _same((p * q).exact_div(q), reference_exact_div(p * q, q))


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def test_resultant_derived_example():
    p = parse_poly("z0^2 - z1*z2")
    q = parse_poly("z1^2 - z0*z2")
    r = resultant(p, q, 0)
    # hand expansion of the 3x3 Sylvester determinant
    assert r == parse_poly("z1^4 - z1*z2^3")


def test_resultant_matches_independent_implementation():
    import sympy

    x, y, z = sympy.symbols("x y z")
    rng = random.Random(5)
    for _ in range(10):
        pt = {e: rng.randint(-5, 5) for e in _exponents(2)}
        qt = {e: rng.randint(-5, 5) for e in _exponents(2)}
        p = HomPoly({e: c for e, c in pt.items() if c})
        q = HomPoly({e: c for e, c in qt.items() if c})
        if p.degree_in(0) < 2 or q.degree_in(0) < 2:
            continue
        mine = resultant(p, q, 0)
        sp = sum(c * x ** e[0] * y ** e[1] * z ** e[2] for e, c in p.terms.items())
        sq = sum(c * x ** e[0] * y ** e[1] * z ** e[2] for e, c in q.terms.items())
        theirs = sympy.expand(sympy.resultant(sp, sq, x))
        mine_sympy = sum(c * y ** e[1] * z ** e[2] for e, c in mine.terms.items())
        assert sympy.expand(mine_sympy - theirs) == 0


def _sympy_scalar(c):
    import sympy
    if isinstance(c, GaussRat):
        return _sympy_scalar(c.re) + sympy.I * _sympy_scalar(c.im)
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_form(p, xs):
    return sum(_sympy_scalar(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
               for e, c in p.terms.items())


def _random_form_through(rng, d, pt):
    """A random form of degree d in z0 alone as well, through pt if given."""
    while True:
        p = HomPoly({e: rng.randint(-3, 3) for e in _exponents(d)})
        if pt is not None and not p.is_zero:
            p = p - HomPoly.monomial((0, 0, d), p.eval_exact(pt))
        if p.degree == d and p.degree_in(0) == d:
            return p


@given(seed=st.integers(0, 2 ** 32 - 1),
       degrees=st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
                                (2, 4)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_subresultant_chain_matches_sympy(seed, degrees):
    """Every member S_k, k < min(m, n), of the chain equals the degree-k
    member of sympy's subresultant sequence, taken from the higher-degree
    input first (sign (-1)^((m-k)(n-k)) when p is the lower one); S_0 is
    the resultant.  At every rational root of the resultant where sres_{1,1}
    does not vanish, -sres_{1,0}/sres_{1,1} is the exact fiber point.
    Three in four pairs pass through a common point (a, b, 1), so t = b
    is such a root."""
    import sympy
    from quadrics.arrangements import _fiber_points_exact
    from quadrics.univariate import binary_form_roots

    rng = random.Random(seed)
    pt = (rng.randint(-3, 3), rng.randint(-3, 3), 1) if rng.random() < 0.75 else None
    p, q = (_random_form_through(rng, d, pt) for d in degrees)
    m, n = degrees
    xs = sympy.symbols("z0 z1 z2")
    high, low = sorted((_sympy_form(p, xs), _sympy_form(q, xs)),
                       key=lambda f: -sympy.degree(f, xs[0]))
    members = {int(sympy.degree(f, xs[0])): f for f in sympy.subresultants(high, low, xs[0])}
    assume(all(k in members for k in range(min(m, n))))
    for k in range(min(m, n)):
        chain = subresultant(p, q, 0, k)
        assert len(chain) == k + 1 and not chain[0].is_zero
        ours = sum(_sympy_form(c, xs) * xs[0] ** (k - j) for j, c in enumerate(chain))
        sign = (-1) ** ((m - k) * (n - k)) if m < n else 1
        assert sympy.expand(ours - sign * members[k]) == 0
    assert subresultant(p, q, 0, 0) == [resultant(p, q, 0)]
    s1, s0 = subresultant(p, q, 0, 1)
    rational = [exact for _, _, _, exact in binary_form_roots(resultant(p, q, 0), 1, 2, 64)[0]
                if exact is not None]
    assert pt is None or (pt[1], 1) in rational
    for exact in rational:
        at = (0,) + exact
        if s1.eval_exact(at) != 0:
            assert _fiber_points_exact(p, q, *exact) == -s0.eval_exact(at) / s1.eval_exact(at)


_COEFFICIENTS = {
    "integer": lambda rng: rng.randint(-3, 3),
    "rational": lambda rng: Fraction(rng.randint(-7, 7), rng.randint(2, 5)),
    "gaussian": lambda rng: GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                     rng.randint(-2, 2)),
}


@pytest.mark.parametrize("var", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(_COEFFICIENTS))
def test_resultant_and_subresultants_match_sympy_in_every_variable(kind, var):
    """The integer kernel against sympy, eliminating each variable: Res
    and every S_k, k < min(m, n), for degree pairs up to (4, 3) with
    integer, non-integer rational and Gaussian coefficients.  One
    coefficient in five is 0, so the leading coefficients in z_var are
    often forms, not constants."""
    import sympy
    rng, xs, compared = random.Random(f"{kind}-{var}"), sympy.symbols("z0 z1 z2"), 0
    for degrees in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]:
        p, q = (_sparse_form(rng, d, var, _COEFFICIENTS[kind]) for d in degrees)
        m, n = p.degree_in(var), q.degree_in(var)
        high, low = sorted((_sympy_form(p, xs), _sympy_form(q, xs)),
                           key=lambda f: -sympy.degree(f, xs[var]))
        members = {int(sympy.degree(f, xs[var])): f
                   for f in sympy.subresultants(high, low, xs[var])}

        def sign(k):  # sympy takes the higher-degree input first
            return (-1) ** ((m - k) * (n - k)) if m < n else 1
        res = _sympy_form(resultant(p, q, var), xs)
        assert sympy.expand(res - sign(0) * sympy.resultant(high, low, xs[var])) == 0
        for k in (k for k in range(min(m, n)) if k in members):
            chain = subresultant(p, q, var, k)
            ours = sum(_sympy_form(c, xs) * xs[var] ** (k - j) for j, c in enumerate(chain))
            assert sympy.expand(ours - sign(k) * members[k]) == 0
            compared += 1
    assert compared >= 12


def test_echelon_of_a_sylvester_matrix_with_dependent_first_columns():
    """The Sylvester matrix over Z[t] of (x^2 + t)(x - 1) and (x^2 + t)(x + 2)
    in x has rank 4 of 6 (their gcd has degree 2), so its first five columns
    are dependent: the echelon has four pivots and a zero last row, and
    every coefficient of S_0 and S_1 is 0."""
    p = [[1], [-1], [0, 1], [0, -1]]  # high to low in x, entries low to high in t
    q = [[1], [2], [0, 1], [0, 2]]
    rows = [[[]] * r + f + [[]] * (2 - r) for f in (p, q) for r in range(3)]
    A, pivots, _ = echelon(rows)
    assert pivots == [0, 1, 2, 3]
    assert A[-1] == A[-2] == [[]] * 6
    # the same pair as forms, x = z0 and t = z1 / z2
    fp, fq = ((z0 ** 2 + z1 * z2) * (z0 + c * z2) for c in (-1, 2))
    for k in (0, 1):
        assert all(c.is_zero for c in subresultant(fp, fq, 0, k))
    assert not subresultant(fp, fq, 0, 2)[0].is_zero


def _sparse_form(rng, d, var, draw):
    """A random form of degree d involving z_var, one coefficient in five 0."""
    while True:
        p = HomPoly({e: draw(rng) if rng.random() < 0.8 else 0 for e in _exponents(d)})
        if p.degree == d and p.degree_in(var) >= 1:
            return p


def test_identity_compose_returns_its_input():
    p = parse_poly("z0^2 - 3*z1*z2 + (1/2)*z2^2")
    assert p.compose([z0, z1, z2]) is p
    assert p.compose([z1, z0, z2]) == parse_poly("z1^2 - 3*z0*z2 + (1/2)*z2^2")


_RAT = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.data(), st.booleans(), st.integers(0, 11))
def test_compose_matches_the_fraction_reference(d, data, gauss, k):
    """The integer expansion equals the HomPoly expansion on Fraction
    terms, scalar types included, under the first 12 coordinate changes of
    an intersection, on forms of degree 1-4 with Fraction or Gaussian
    coefficients."""
    from quadrics.arrangements import _coordinate_changes
    U = next(itertools.islice(_coordinate_changes(), k, None))
    coeff = st.builds(GaussRat, _RAT, _RAT) if gauss else _RAT
    terms = {(i, j, d - i - j): data.draw(coeff)
             for i in range(d + 1) for j in range(d + 1 - i)
             if data.draw(st.booleans())}
    p = HomPoly(terms)
    args = [HomPoly.linear_form(row) for row in U]
    got, want = p.compose(args), reference_compose(p, args)
    assert got == want
    assert all(type(c) is type(want.terms[e]) for e, c in got.terms.items())


def test_subresultant_of_a_linear_input_is_that_input():
    """S_k for k = min(m, n) is the lower-degree input, p at equal degrees."""
    line, conic = parse_poly("2*z0 - z1 + 3*z2"), parse_poly("z0^2 - z1*z2")
    assert subresultant(line, conic, 0, 1) == [parse_poly("2"), parse_poly("-z1 + 3*z2")]
    assert subresultant(conic, line, 0, 1) == [parse_poly("2"), parse_poly("-z1 + 3*z2")]
    other = parse_poly("z0^2 + z2^2")
    assert subresultant(conic, other, 0, 2) == conic.coeffs_in(0)[::-1]
    with pytest.raises(DegenerateLeadingFormError):
        subresultant(parse_poly("z1"), conic, 0, 1)
    with pytest.raises(ValueError):
        subresultant(line, conic, 0, 2)


def test_resultant_degenerate_leading_form():
    with pytest.raises(DegenerateLeadingFormError):
        resultant(parse_poly("z0"), parse_poly("z1"), 2)


def test_resultant_common_factor_gives_zero():
    r = resultant(parse_poly("z0^2"), parse_poly("z0^2"), 0)
    assert r.is_zero


def test_resultant_zero_input():
    with pytest.raises(ZeroPolynomialError):
        resultant(HomPoly.zero(), parse_poly("z0"), 0)


def test_resultant_antisymmetry_and_common_root_equivalence():
    """res(p,q) = +/- res(q,p); vanishing at a projective root equals the
    existence of a common zero above it (brute-force root matching)."""
    rng = random.Random(11)
    for _ in range(12):
        # quadrics through a known common point have vanishing resultant there
        pt = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        p = _random_quadric_through(rng, pt)
        q = _random_quadric_through(rng, pt)
        if p.degree_in(0) < 2 or q.degree_in(0) < 2:
            continue
        rpq = resultant(p, q, 0)
        rqp = resultant(q, p, 0)
        assert rpq == rqp or rpq == -rqp
        assert rpq.eval_exact((0, pt[1], pt[2])) == 0
        # a generic direction with no common root gives a nonzero value,
        # confirmed by brute-force common-root search at high precision
        beta, gamma = 3, 7
        val = rpq.eval_exact((0, beta, gamma))
        shared = _brute_force_common_roots(p, q, beta, gamma)
        assert (val == 0) == shared


def _random_quadric_through(rng, pt):
    while True:
        terms = {e: rng.randint(-5, 5) for e in _exponents(2)}
        p = HomPoly({e: c for e, c in terms.items() if c})
        if p.is_zero or p.degree != 2:
            continue
        v = p.eval_exact(pt)
        # adjust the z0^2 coefficient to force the point onto the curve
        c = p.coeff((2, 0, 0)) - Fraction(v) / (pt[0] ** 2)
        q = HomPoly({**p.terms, (2, 0, 0): c})
        if q.degree == 2 and q.degree_in(0) == 2:
            return q


def _brute_force_common_roots(p, q, beta, gamma, prec=200):
    with mp.workprec(prec):
        pc = [f.eval_mpc((0, beta, gamma)) for f in p.coeffs_in(0)]
        qc = [f.eval_mpc((0, beta, gamma)) for f in q.coeffs_in(0)]
        rp = mp.polyroots([c for c in reversed(pc)], maxsteps=100, extraprec=prec)
        rq = mp.polyroots([c for c in reversed(qc)], maxsteps=100, extraprec=prec)
        return any(abs(a - b) < mp.mpf(10) ** (-20) for a in rp for b in rq)


# ---------------------------------------------------------------------------
# Quadric forms
# ---------------------------------------------------------------------------

def test_quadric_form_double_line():
    qf = quadric_form(parse_poly("z0^2"))
    assert qf.rank == 1
    assert qf.matrix[0][0] == 1 and qf.matrix[1][1] == 0


def test_quadric_form_smooth_conic():
    qf = quadric_form(parse_poly("z0^2 - z1*z2"))
    assert qf.rank == 3
    assert qf.det == Fraction(-1, 4)


def test_quadric_form_rank_two():
    assert quadric_form(parse_poly("z1*z2")).rank == 2


def test_quadric_form_wrong_degree():
    from quadrics.polynomials import WrongDegreeError
    with pytest.raises(WrongDegreeError):
        quadric_form(parse_poly("z0"))


def test_linear_coeffs_inverts_linear_form():
    v = [Fraction(3), Fraction(0), GaussRat(1, -2)]
    assert HomPoly.linear_form(v).linear_coeffs() == v
    assert parse_poly("z1 - 2*z2").linear_coeffs() == [0, 1, -2]


def test_quadric_form_reconstructs_polynomial():
    p = parse_poly("3*z0^2 - 2*z0*z1 + 5*z1*z2 - z2^2")
    c = p.quadratic_coeffs()
    assert c == [3, 0, -1, -2, 0, 5]
    assert HomPoly.quadratic_form(c) == p
    assert [HomPoly.monomial(e) for e in QUADRATIC_MONOMIALS] == [
        z0 * z0, z1 * z1, z2 * z2, z0 * z1, z0 * z2, z1 * z2]
    M = quadric_form(p).matrix
    assert [M[0][0], M[1][1], M[2][2]] == c[:3]
    assert [M[0][1], M[0][2], M[1][2]] == [x / 2 for x in c[3:]]
    assert all(M[i][j] == M[j][i] for i in range(3) for j in range(3))
    assert poly_from_matrix(M) == p


def _sum_of_squares(seed, n, gaussian):
    """sum c_k l_k^2 over n random linear forms l_k, with rational or
    Gaussian coefficients: a symmetric matrix of rank n unless the forms
    happen to be dependent."""
    rng = random.Random(seed)

    def scalar():
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return GaussRat(c, rng.randint(-3, 3)) if gaussian else c

    p = HomPoly.zero()
    for _ in range(n):
        line = HomPoly.linear_form([scalar() for _ in range(3)])
        p = p + (line * line).scale(scalar())
    return p


def _conic_over(seed, ring):
    """A conic over Z, Q or Z[i], of rank 1, 2 or 3 by the seed (dependent
    forms can make it lower)."""
    p = _sum_of_squares(seed, 1 + seed % 3, ring == "gaussian")
    return p.content_primitive()[1] if ring == "integer" and not p.is_zero else p


@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from(["integer", "rational", "gaussian"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_dual_conic_is_the_form_of_the_adjugate(seed, ring):
    """The dual conic built on the coefficient format equals the
    reference's form z^T adj(M) z, singular conics included, and the
    matrix gives the form back."""
    p = _conic_over(seed, ring)
    assume(p.degree == 2)
    qf = quadric_form(p)
    assert qf.dual == poly_from_matrix(adjugate(qf.matrix))
    assert poly_from_matrix(qf.matrix) == p
    assert HomPoly.quadratic_form(p.quadratic_coeffs()) == p


def _sympy_matrix(M):
    import sympy
    return sympy.Matrix([[_sympy_scalar(Fraction(x) if isinstance(x, int) else x) for x in row]
                         for row in M])


def _same_matrix(ours, theirs):
    import sympy
    assert (_sympy_matrix(ours) - theirs).applyfunc(sympy.expand) == sympy.zeros(3, 3)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]), gaussian=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_quadric_form_matches_sympy(seed, n, gaussian):
    """Matrix, rank, determinant, adjugate and dual conic of a form against
    sympy's Hessian, Matrix.rank, Matrix.det and Matrix.adjugate."""
    import sympy
    p = _sum_of_squares(seed, n, gaussian)
    assume(p.degree == 2)
    xs = sympy.symbols("z0 z1 z2")
    qf = quadric_form(p)
    M = sympy.hessian(_sympy_form(p, xs), xs) / 2
    _same_matrix(qf.matrix, M)
    assert qf.rank == M.rank()
    assert sympy.expand(_sympy_scalar(qf.det) - M.det()) == 0
    _same_matrix(qf.adjugate, M.adjugate())
    z = sympy.Matrix(xs)
    assert sympy.expand(_sympy_form(qf.dual, xs) - (z.T * M.adjugate() * z)[0]) == 0


@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_det_and_adjugate_match_sympy_on_integer_matrices(entries):
    """linalg.det and linalg.adjugate on integer 3x3 matrices that need not
    be symmetric, the kind of the coordinate changes."""
    M = [entries[0:3], entries[3:6], entries[6:9]]
    theirs = _sympy_matrix(M)
    assert _sympy_scalar(det(M)) == theirs.det()
    _same_matrix(adjugate(M), theirs.adjugate())


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6),
       st.integers(min_value=-6, max_value=6))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_unimodular_substitution(a, b, c):
    p = parse_poly("z0^2 - z1*z2 + 2*z0*z2")
    U = ((1, a, b), (0, 1, c), (0, 0, 1))
    args = [HomPoly.linear_form(row) for row in U]
    q = p.compose(args)
    assert quadric_form(q).rank == quadric_form(p).rank


def test_rank_one_iff_perfect_square():
    rng = random.Random(3)
    for _ in range(25):
        l = HomPoly.linear_form([rng.randint(-4, 4) for _ in range(3)])
        if l.is_zero:
            continue
        sq = l * l
        got = sq.as_square_of_linear()
        assert got is not None
        cc, ll = got
        assert (ll * ll).scale(cc) == sq
    # a rank-2 form is not a square
    assert parse_poly("z1*z2").as_square_of_linear() is None


# ---------------------------------------------------------------------------
# Certified evaluation
# ---------------------------------------------------------------------------

def test_eval_exact_point_on_conic():
    p = parse_poly("z0^2 - z1*z2")
    v, err = gaussian_extension_eval(p, (0, 0, 1))
    assert v == 0 and err == 0
    v, err = gaussian_extension_eval(p, (1, 1, 1))
    assert v == 0 and err == 0


def test_eval_example_quadric_at_coordinate_point(example_net):
    _, _, q2 = example_net
    v, err = gaussian_extension_eval(q2, (1, 0, 0))
    assert v == 0 and err == 0


def test_eval_numeric_point_with_radius():
    p = parse_poly("z0^2 - z1*z2")
    pt = ProjPointNum([mp.mpf("0.5"), mp.mpf("0.25"), mp.mpf(1)], radius=mp.mpf("1e-30"))
    v, err = gaussian_extension_eval(p, pt)
    assert err > 0
    assert abs(v) <= mp.mpf("1e-6")  # the point is exactly on the curve


_RAT = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@st.composite
def _forms(draw):
    """A form of degree 0-5 with Fraction or GaussRat coefficients, or 0."""
    d = draw(st.integers(0, 5))
    coeff = st.one_of(_RAT, st.builds(GaussRat, _RAT, _RAT))
    return HomPoly({e: draw(coeff) for e in draw(st.sets(st.sampled_from(_exponents(d))))})


@st.composite
def _coordinates(draw):
    """0, 1, a Python complex, or an mpc rounded at 53 to 1100 bits (so
    also finer than the evaluation, which takes it exactly)."""
    kind = draw(st.sampled_from(["int", "complex", "mpc"]))
    if kind == "int":
        return draw(st.sampled_from([0, 1]))
    re, im = draw(_RAT), draw(_RAT)
    if kind == "complex":
        return complex(re, im)
    with mp.workprec(draw(st.sampled_from([53, 256, 1100]))):
        return mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)


def _exact_coordinate(x):
    """A drawn coordinate as an exact Gaussian rational."""
    if isinstance(x, int):
        return Fraction(x)
    parts = x._mpc_ if isinstance(x, mp.mpc) else (mp.mpf(x.real)._mpf_, mp.mpf(x.imag)._mpf_)
    return GaussRat(*(Fraction(-m if sign else m) * Fraction(2) ** e for sign, m, e, _ in parts))


@given(st.lists(_forms(), min_size=1, max_size=4), st.lists(_coordinates(), min_size=3, max_size=3),
       st.sampled_from([53, 256, 1024]), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mp_forms_round_the_exact_value_once(forms, point, bits, rng):
    """Each value is the exact value of the form at the point (a Fraction
    sum) rounded once to the working precision, bit for bit in the real
    and imaginary parts, for all forms, for a subset in any order, and
    through HomPoly.eval_mpc: at least as accurate as a term-by-term sum."""
    which = rng.sample(range(len(forms)), rng.randint(1, len(forms)))
    exact = [_exact_coordinate(x) for x in point]
    want = []
    for f in forms:
        v = GaussRat(0) + f.eval_exact(exact)
        want.append(tuple(libmp.from_rational(x.numerator, x.denominator, bits, "n")
                          for x in (v.re, v.im)))
    with mp.workprec(bits):
        evaluator = MpForms(forms)
        got = [evaluator.values(point), evaluator.values(point, which),
               [f.eval_mpc(point) for f in forms]]
    for values, order in zip(got, [range(len(forms)), which, range(len(forms))]):
        assert [(v.real._mpf_, v.imag._mpf_) for v in values] == [want[j] for j in order]


_gauss_ints = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3))


@given(homogeneous_polys(),
       st.lists(_gauss_ints, min_size=3, max_size=3).filter(
           lambda v: any(x != 0 for x in v)),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_vanishes_at_is_exact_on_exact_points_and_never_true_on_numeric(
        p, coords, through_point):
    """Gaussian-integer coordinates are exact in binary, so the numeric
    point below is the exact point with its exactness forgotten."""
    if through_point:
        # subtract p(P) z_j^d / P_j^d, which moves V(p) through P
        j = next(i for i in range(3) if coords[i] != 0)
        e = tuple(p.degree if i == j else 0 for i in range(3))
        p = p - HomPoly.monomial(e, p.eval_exact(coords) / coords[j] ** p.degree)
    if p.is_zero:
        return
    exact = vanishes_at(p, ProjPointNum.from_exact(coords))
    assert exact is (p.eval_exact(coords) == 0)
    numeric = vanishes_at(p, ProjPointNum([complex(c) for c in coords]))
    assert numeric is not True
    if exact:
        assert numeric is None
    else:
        assert numeric in (False, None)


def test_zero_polynomial_degree_tag():
    assert HomPoly.zero().degree == -1
    assert (parse_poly("z0") - parse_poly("z0")).degree == -1


def test_gaussian_flag_parsing_and_arithmetic():
    p = parse_poly("z0^2 - i*z1*z2", gaussian=True)
    assert p.coeff((0, 1, 1)) == GaussRat(0, -1)
    with pytest.raises(PolySyntaxError):
        parse_poly("z0^2 - i*z1*z2")  # 'i' needs the flag
    q = parse_poly("z0^2 + z1^2", gaussian=True)
    got = q.as_square_of_linear()
    assert got is None  # rank 2: splits into two lines, not a square


def test_intersection_over_gaussian_rationals():
    from quadrics.arrangements import intersection_points
    a = parse_poly("z0^2 + z1^2")
    b = parse_poly("z0*z2 - z1^2")
    recs = intersection_points(a, b)
    assert sum(r.multiplicity for r in recs) == 4
    exact = {tuple(r.point.exact) for r in recs if r.point.is_exact()}
    assert (Fraction(1), GaussRat(0, -1), Fraction(-1)) in exact or \
           (Fraction(1), GaussRat(0, 1), Fraction(-1)) in exact


# ---------------------------------------------------------------------------
# same_point on balls
# ---------------------------------------------------------------------------

def _point_pair(rng):
    """A random point and a second one: the same point under another
    representative, moved by 1e-5 ... 1e-60 or not at all, or a generic
    point; coordinates of equal modulus now and then (the tie case of
    distance's dominant coordinate); radii 0 or 1e-61 ... 1e-4, half of
    the time near the shift."""
    def cplx():
        return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))

    coords = [cplx() for _ in range(3)]
    if rng.random() < 0.3:
        i, j = rng.sample(range(3), 2)
        coords[j] = coords[i] * mp.expjpi(rng.uniform(-1, 1))
    phase = mp.expjpi(rng.uniform(-1, 1)) * rng.uniform(0.5, 2)
    k = rng.randint(5, 60)
    shift = mp.mpf(10) ** -k if rng.random() < 0.8 else 0
    other = ([c * phase + shift * cplx() for c in coords] if rng.random() < 0.8
             else [cplx() for _ in range(3)])

    def radius():  # half of the time near the shift
        if rng.random() < 0.3:
            return 0
        e = k + rng.randint(-1, 1) if rng.random() < 0.5 else rng.randint(5, 60)
        return mp.mpf(10) ** -e * rng.uniform(0.1, 1)

    return ProjPointNum(coords, radius()), ProjPointNum(other, radius())


@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([53, 256, 512]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_same_point_filter_never_changes_an_answer(seed, bits):
    """same_point never calls two points different where mpmath finds
    representatives closer than the sum of their radii: a point of both
    balls then lies between them."""
    rng = random.Random(seed)
    with mp.workprec(bits):
        a, b = _point_pair(rng)
        if point_distance(a, b) + mp.mpf(2) ** (8 - bits) <= a.radius + b.radius:
            assert a.same_point(b) and b.same_point(a)


def test_same_point_filter_settles_distinct_points():
    rng = random.Random(7)
    with mp.workprec(256):
        for _ in range(50):
            a, b = (ProjPointNum([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                  for _ in range(3)], mp.mpf(10) ** -30) for _ in range(2))
            assert any(c.excludes_zero() for c in cross(a.balls(True), b.balls(True)))
            assert not a.same_point(b)
        # another representative of a, moved by 1e-20: the double pass
        # leaves it, the working precision separates it; moved by 1e-40,
        # within a's radius, it is not separated
        near = ProjPointNum([c * mp.mpc(0, 3) + mp.mpf(10) ** -20 for c in a.coords])
        assert not any(c.excludes_zero() for c in cross(a.balls(True), near.balls(True)))
        assert not near.same_point(a)
        nearer = ProjPointNum([c * mp.mpc(0, 3) + mp.mpf(10) ** -40 for c in a.coords])
        assert nearer.same_point(a) and a.same_point(nearer)


@pytest.mark.parametrize("sup", [mp.mpf("1e-3"), mp.mpf(2) ** -100])
def test_radius_scales_with_a_representative_scaled_up(sup):
    """A point given by a representative of sup norm below 1 keeps the
    radius of its sup-norm-1 representative: (1, 5e-4, 0) sup within
    1e-3 sup holds (1, 0, 0) sup, so z1 is not certified nonzero there and
    (1 : 0 : 0) is not certified different."""
    with mp.workprec(256):
        pt = ProjPointNum([sup, sup * mp.mpf("5e-4"), 0], radius=sup * mp.mpf("1e-3"))
        assert mp.mpf("1e-3") <= pt.radius <= mp.mpf("1e-3") * (1 + mp.mpf(2) ** -40)
        assert vanishes_at(parse_poly("z1"), pt) is None
        assert pt.same_point(ProjPointNum([sup, 0, 0]))
        assert pt.same_point(ProjPointNum.from_exact([1, 0, 0]))
        # a representative of sup norm above 1 keeps its radius
        assert ProjPointNum([3, 1, 0], radius=mp.mpf("1e-3")).radius == mp.mpf("1e-3")


def test_exact_points_enter_balls_exactly():
    """(1/3 : 1/5 : 1) against a 256-bit copy of it with radius 1e-70:
    not called different, and a numeric line through it is not certified
    off it, although its double copy is 1e-17 away."""
    from quadrics.arrangements import NumLine
    exact = ProjPointNum.from_exact([Fraction(1, 3), Fraction(1, 5), 1])
    with mp.workprec(256):
        copy = ProjPointNum([mp.mpf(1) / 3, mp.mpf(1) / 5, 1], mp.mpf(10) ** -70)
        assert exact.same_point(copy) and copy.same_point(exact)
        other = ProjPointNum([mp.mpf(1) / 3, mp.mpf(1) / 5 + mp.mpf(10) ** -60, 1],
                             mp.mpf(10) ** -70)
        assert not exact.same_point(other)
        vec = cross(copy.coords, [mp.mpc(1), mp.mpc(2), mp.mpc(7)])
        s = max(abs(c) for c in vec)
        line = NumLine(tuple(c / s for c in vec), mp.mpf(10) ** -70)
        assert line.passes_through(exact) is None
        assert line.passes_through(ProjPointNum.from_exact([1, 2, 7])) is None
        assert line.passes_through(ProjPointNum.from_exact([1, 2, 8])) is False


# ---------------------------------------------------------------------------
# Ball arithmetic
# ---------------------------------------------------------------------------

def _to_mpc(x):
    """An exact scalar or a number as an mpc at the working precision."""
    if isinstance(x, GaussRat):
        return mp.mpc(mp.mpf(x.re.numerator) / x.re.denominator,
                      mp.mpf(x.im.numerator) / x.im.denominator)
    if isinstance(x, (int, Fraction)):
        return mp.mpc(mp.mpf(x.numerator) / x.denominator)
    return mp.mpc(x)


def _ball_case(rng):
    """A random expression and nine inputs (midpoint, radius), all of
    radius 0 now and then.  Magnitudes
    are mostly near 1, sometimes far beyond the range of a double (1e320)
    or below it (1e-330), or large enough that products overflow (1e200);
    radii are mostly 1e-1 to 1e-60 of them, sometimes near 2^-3000."""
    def mid():
        e = rng.choice([0, 0, 0, rng.randint(-20, 20), rng.randint(-330, -300),
                        rng.randint(150, 200), rng.randint(300, 330)])
        return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf(10) ** e

    exact = rng.random() < 0.3  # then rounding is all the output radius holds

    def radius(m):
        if exact or rng.random() < 0.3:
            return 0
        if rng.random() < 0.2:  # far below the range of a double
            return abs(m) * mp.mpf(2) ** -rng.randint(2990, 3010)
        return abs(m) * mp.mpf(10) ** -rng.randint(1, 60)

    mids = [mid() for _ in range(9)]
    inputs = [(m, radius(m)) for m in mids]
    c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    c2 = GaussRat(Fraction(1, rng.randint(1, 7)), rng.randint(-3, 3))
    poly = HomPoly({(i, j, d - i - j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for d in [rng.randint(1, 4)] for i in range(d + 1)
                    for j in range(d + 1 - i)})
    exprs = [
        lambda v: dot(v[0:3], cross(v[3:6], v[6:9])),
        lambda v: cross(v[0:3], v[3:6]),
        lambda v: v[0] * v[1] * v[2],
        lambda v: v[0] + v[1] - v[2],
        lambda v: v[4],  # the conversion alone
        lambda v: poly.eval_ball(v[0:3]) if isinstance(v[0], Ball) else poly.eval_mpc(v[0:3]),
        # exact scalars enter as Balls, the reference as mpc
        lambda v: (v[0] * _exact_operand(c1, v[0]) - v[1] * v[2]
                   + _exact_operand(c2, v[0])),
    ]
    return rng.choice(exprs), inputs


def _unit(x):
    """A unit complex of angle about pi x: (1 - t^2 + 2 t i) / (1 + t^2),
    t = tan(pi x / 2), whose modulus is 1 to the working precision and
    which costs a division where expjpi at 16384 bits costs a series."""
    t = mp.mpf(math.tan(math.pi * x / 2))
    return mp.mpc(1 - t * t, 2 * t) / (1 + t * t)


def _input_ball(m, r, double):
    """The input as a Ball: as it is where the pass holds it exactly, else
    through coord_balls, which adds the rounding of the conversion."""
    mid = complex(m) if double else m
    if mp.mpc(mid) == m and (float(r) == r or not double):
        return Ball(mid, float(r) if double else mp.mpf(r))
    return coord_balls([m], r, None, double)[0]


def _exact_operand(c, like):
    if isinstance(like, Ball):
        return Ball.exact(c, not isinstance(like.mid, mp.mpc))
    return _to_mpc(c)


@given(seed=st.integers(0, 2 ** 32 - 1), double=st.booleans(),
       bits=st.sampled_from([53, 113, 256, 4096]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ball_operations_enclose_every_point_of_their_inputs(seed, double, bits):
    """At points inside the input balls, the value at 4x the precision lies
    inside the output ball, in both passes.  A double pass that overflows
    gives a ball that excludes nothing (or raises OverflowError, which
    ball_eval treats the same way).  Every radius the working pass forms
    is an mpf with at most 53 bits of mantissa, also at 4096 bits with
    radii near 2^-3000, far below the range of a double."""
    rng = random.Random(seed)
    # inputs the pass holds exactly (only the operations round) or must round
    with mp.workprec(rng.choice([53 if double else bits, 2 * bits])):
        expr, inputs = _ball_case(rng)
    with mp.workprec(bits):
        balls = [_input_ball(m, r, double) for m, r in inputs]
        try:
            out = expr(balls)
        except OverflowError:
            assert double
            return
        outs = out if isinstance(out, tuple) else (out,)
        for b in outs:
            if not double and all(b is not x for x in balls):
                assert isinstance(b.rad, mp.mpf) and b.rad._mpf_[3] <= 53
        for _ in range(3):
            with mp.workprec(4 * bits):
                pts = [m + r * rng.uniform(0, 1) * _unit(rng.uniform(-1, 1)) for m, r in inputs]
                truth = expr(pts)
                truths = truth if isinstance(truth, tuple) else (truth,)
                for b, t in zip(outs, truths):
                    if not (mp.isfinite(b.rad) and mp.isfinite(mp.fabs(b.mid))):
                        assert double and not b.excludes_zero()
                        continue
                    assert abs(t - _to_mpc(b.mid)) <= b.rad


def test_moduli_are_bounded_up_and_down_at_53_bits():
    """polynomials._mag brackets |z|, taken at twice the precision, from
    above and below within 2^-46, for parts of 53 to 4096 bits, zero
    parts, and parts 2^5000 apart."""
    from quadrics.polynomials import _mag
    rng = random.Random(3)
    for _ in range(2000):
        prec = rng.choice([53, 256, 4096])
        with mp.workprec(prec):
            def part():
                if rng.random() < 0.1:
                    return mp.mpf(0)
                return (mp.mpf(rng.uniform(-1, 1)) * (1 + mp.mpf(2) ** -rng.randint(1, prec))
                        * mp.mpf(2) ** rng.choice([0, rng.randint(-60, 60), rng.randint(-5000, 5000)]))
            z = mp.mpc(part(), part())
        with mp.workprec(2 * prec):
            t = abs(z)
            up, down = (mp.make_mpf(_mag(z._mpc_, rnd)) for rnd in "ud")
            assert down <= t <= up and up - down <= t * mp.mpf(2) ** -46
            assert up._mpf_[3] <= 53 and down._mpf_[3] <= 53


def test_ball_exact_scalars_beyond_a_double_go_to_the_working_pass():
    big = Fraction(10 ** 400, 3)
    with pytest.raises(OverflowError):
        Ball.exact(big, True)
    with mp.workprec(256):
        b = Ball.exact(big, False)
        assert abs(_to_mpc(big) - b.mid) <= b.rad and b.excludes_zero()
        point = ProjPointNum([1, 2, 3], mp.mpf(10) ** -70)
        value, err = gaussian_extension_eval(HomPoly({(1, 0, 0): big, (0, 1, 0): 1}), point)
        assert err < abs(value) * mp.mpf(10) ** -60


def test_ball_eval_settles_generic_values_in_doubles():
    """A value far from zero is settled by the double pass: ball_eval
    returns a double ball; a zero value goes on to the working precision."""
    with mp.workprec(256):
        p = parse_poly("z0^2 - z1*z2")
        off = ProjPointNum([mp.mpf("0.5"), mp.mpf("0.75"), mp.mpf(1)], mp.mpf(10) ** -70)
        assert isinstance(ball_eval(p.eval_ball, off).mid, complex)
        on = ProjPointNum([mp.mpf("0.5"), mp.mpf("0.25"), mp.mpf(1)], mp.mpf(10) ** -70)
        b = ball_eval(p.eval_ball, on)
        assert isinstance(b.mid, mp.mpc) and not b.excludes_zero()
        assert vanishes_at(p, off) is False and vanishes_at(p, on) is None
