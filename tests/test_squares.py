import itertools
import random
from fractions import Fraction

import mpmath as mp
import pytest

from quadrics.polynomials import HomPoly, parse_poly, pencil_matrix_entry_forms
from quadrics.scalars import scalar_to_complex
from quadrics.squares import (AllAlphaZeroError, MalformedRelationError,
                              MultiPoly, NotDiagonalError, SingularAError,
                              SquareCombination, _rank_one_minors, b4_solve,
                              b4_system, degeneracy_curve, example_verify,
                              expand_S, fermat_check, generate_R,
                              monomial_equivalence_reduce,
                              pencil_rank1_members, square_combination)
from quadrics.arrangements import (InfinitelyManySolutionsError,
                                   common_zeros_of_quadratic_system)

X = HomPoly.variable(0)
Y = HomPoly.variable(1)
Z = HomPoly.variable(2)


# ---------------------------------------------------------------------------
# Sign-product polynomials
# ---------------------------------------------------------------------------

def test_generate_R1():
    R1 = generate_R(1).poly
    y0 = MultiPoly.variable(2, 0)
    y1 = MultiPoly.variable(2, 1)
    assert R1 == y0 - y1


def test_generate_R2_matches_closed_form():
    R2 = generate_R(2).poly
    # x^2 + y^2 + z^2 - 2xy - 2xz - 2yz in the y variables
    e = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
         (1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): -2}
    assert R2.terms == {k: Fraction(v) for k, v in e.items()}


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_resubstitution_identity(j):
    sp = generate_R(j)
    assert sp.substituted() == sp.sign_product()
    assert sp.poly.degree == 2 ** (j - 1)


def test_R3_identity_against_sympy():
    import sympy

    xs = sympy.symbols("x0 x1 x2 x3")
    prod = sympy.prod([xs[0] + sum(s * v for s, v in zip(signs, xs[1:]))
                       for signs in itertools.product((1, -1), repeat=3)])
    expected = sympy.expand(prod)
    R3 = generate_R(3).poly
    got = sympy.expand(sum(
        c * sympy.prod([xs[i] ** (2 * e[i]) for i in range(4)])
        for e, c in R3.terms.items()))
    assert sympy.simplify(got - expected) == 0


def test_Rj_symmetric_in_tail_variables():
    for j in (2, 3):
        R = generate_R(j).poly
        for perm in itertools.permutations(range(1, j + 1)):
            permuted = {}
            for e, c in R.terms.items():
                ne = [e[0]] + [0] * j
                for k, p in enumerate(perm, start=1):
                    ne[p] = e[k]
                permuted[tuple(ne)] = c
            assert permuted == R.terms


# ---------------------------------------------------------------------------
# The quartic expansion S
# ---------------------------------------------------------------------------

def test_expand_S_x4_coefficient_random():
    rng = random.Random(42)
    for _ in range(10):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        S = expand_S(a, b, c)
        assert S.coeff((4, 0, 0)) == (a - 1) ** 4


def test_expand_S_x2y2_coefficient_random():
    rng = random.Random(43)
    for _ in range(10):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        S = expand_S(a, b, c)
        expected = 2 * (3 * a ** 2 * (b - 1) ** 2 - 2 * a * (b - 1) * (3 * b + 1)
                        + 3 * b ** 2 + 2 * b + 3)
        assert S.coeff((2, 2, 0)) == expected


def test_expand_S_y4_vanishing_forces_16():
    # when the y^4 coefficient vanishes (b = 1), the x^2 y^2 one equals 16
    S = expand_S(Fraction(5), Fraction(1), Fraction(-7))
    assert S.coeff((0, 4, 0)) == 0
    assert S.coeff((2, 2, 0)) == 16


def test_expand_S_all_ones():
    S = expand_S(1, 1, 1)
    expected = parse_poly(
        "16*z0^2*z1^2 + 16*z0^2*z2^2 + 16*z1^2*z2^2"
        " - 32*z0^2*z1*z2 - 32*z0*z1^2*z2 - 32*z0*z1*z2^2")
    assert S == expected


# ---------------------------------------------------------------------------
# Square combinations
# ---------------------------------------------------------------------------

def test_square_combination_example(example_net):
    q0, q1, q2 = example_net
    sols = square_combination(q0, q1, q2)
    target = next(s for s in sols
                  if s.coefficients == (Fraction(225), Fraction(100), Fraction(4)))
    assert target.root_form == parse_poly("15*z0 + 10*z1 + 2*z2")
    assert target.root_scale == 1
    assert target.residual((q0, q1, q2)).is_zero
    assert target.nonzero_count == 3


def test_square_combination_diagonal():
    sols = square_combination(X * X, Y * Y, Z * Z)
    got = {s.coefficients for s in sols}
    assert got == {(Fraction(1), Fraction(0), Fraction(0)),
                   (Fraction(0), Fraction(1), Fraction(0)),
                   (Fraction(0), Fraction(0), Fraction(1))}
    assert all(s.nonzero_count == 1 for s in sols)


def test_square_combination_sum_net():
    q1 = X * X + Y * Y
    q2 = Y * Y + Z * Z
    q3 = X * X + Z * Z
    sols = square_combination(q1, q2, q3)
    target = next(s for s in sols
                  if s.coefficients == (Fraction(-1), Fraction(1), Fraction(1)))
    assert target.combination == (Z * Z).scale(2)
    assert target.root_scale == 2
    assert target.root_form == parse_poly("z2")
    assert target.nonzero_count == 3


def test_square_combination_completeness_against_sympy(example_net):
    """Independent oracle: solve the 2x2-minor system with sympy on
    affine charts and compare the exact solution sets."""
    import sympy

    q0, q1, q2 = example_net
    a1, a2, a3 = sympy.symbols("a1 a2 a3")
    from quadrics.polynomials import quadric_form
    Ms = [quadric_form(q).matrix for q in (q0, q1, q2)]
    M = sympy.Matrix(3, 3, lambda i, j: (a1 * sympy.Rational(Ms[0][i][j])
                                         + a2 * sympy.Rational(Ms[1][i][j])
                                         + a3 * sympy.Rational(Ms[2][i][j])))
    eqs = []
    for r in itertools.combinations(range(3), 2):
        for c in itertools.combinations(range(3), 2):
            eqs.append(M[r[0], c[0]] * M[r[1], c[1]] - M[r[0], c[1]] * M[r[1], c[0]])
    found = set()
    for chart in ((a1, 1), (a2, 1), (a3, 1)):
        subbed = [sympy.expand(e.subs(chart[0], chart[1])) for e in eqs]
        free = [v for v in (a1, a2, a3) if v != chart[0]]
        for sol in sympy.solve(subbed, free, dict=True):
            vec = []
            for v in (a1, a2, a3):
                if v == chart[0]:
                    vec.append(sympy.Integer(1))
                else:
                    val = sol.get(v, v)
                    if val.free_symbols:
                        break
                    vec.append(val)
            else:
                lead = next(x for x in vec if x != 0)
                vec = tuple(sympy.nsimplify(x / lead) for x in vec)
                found.add(vec)
    mine = set()
    for s in square_combination(q0, q1, q2):
        lead = next(x for x in s.coefficients if x != 0)
        mine.add(tuple(sympy.Rational(x / lead) for x in s.coefficients))
    assert mine == found


def test_square_combination_infinitely_many():
    with pytest.raises(InfinitelyManySolutionsError):
        square_combination(X * X, X * Y, Y * Y)


def _numeric_residual(coefficients, quadrics, root):
    """Largest coefficient of sum(a_j Q_j) - L^2, L the numeric root."""
    acc = {}
    for aj, qj in zip(coefficients, quadrics):
        for e, c in qj.terms.items():
            acc[e] = acc.get(e, 0) + aj * scalar_to_complex(c)
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        e = tuple(int(k == i) + int(k == j) for k in range(3))
        acc[e] = acc.get(e, 0) - (1 if i == j else 2) * root[i] * root[j]
    return max(abs(v) for v in acc.values())


@pytest.mark.parametrize("text, t", [("z0^2 + 2*z1^2", 1 / (2 * mp.sqrt(2))),
                                     ("z0^2 - 2*z1^2", 1j / (2 * mp.sqrt(2)))])
def test_pencil_members_at_irrational_roots(text, t):
    """det(a*M1 + M2) = 0 at a = +-t, where a*q1 + z0*z1 has rank one."""
    quadrics = (parse_poly(text), parse_poly("z0*z1"))
    members = pencil_rank1_members(*quadrics)
    assert len(members) == 2
    for sign in (1, -1):
        m = next(m for m in members if abs(m.coefficients[0] - sign * t) < 1e-12)
        assert m.coefficients[1] == 1
        assert not m.exact and m.nonzero_count == 2 and m.residual(quadrics) is None
        assert _numeric_residual(m.coefficients, quadrics, m.root_numeric) < 1e-12


_NETS = [(parse_poly("z0^2"), parse_poly("z1^2 + z0*z1 + z0*z2 + (1/25)*z1*z2"),
          parse_poly("z2^2 + 50*z0*z1 - 10*z0*z2 + 9*z1*z2")),
         (X * X, Y * Y, Z * Z),
         (X * X + Y * Y, Y * Y + Z * Z, X * X + Z * Z)]
_B4_SYSTEMS = [((1, 0, 0), [[0, 1, 0], [0, 0, 1]], [[1, 1, Fraction(1, 25)], [50, -10, 9]]),
               ((1, 0, 0), [[0, 1, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0]])]


@pytest.mark.parametrize("forms", [_rank_one_minors(pencil_matrix_entry_forms(*net))
                                   for net in _NETS]
                         + [b4_system(*args)[4] for args in _B4_SYSTEMS],
                         ids=["example-net", "diagonal-net", "sum-net",
                              "b4-example", "b4-no-cross-terms"])
def test_common_zeros_are_exact_points(forms):
    sols = common_zeros_of_quadratic_system(forms)
    assert sols and all(p.is_exact() for p in sols)


# ---------------------------------------------------------------------------
# The adjugate-reduced system
# ---------------------------------------------------------------------------

def test_b4_example_solution():
    res = b4_solve((1, 0, 0), [[0, 1, 0], [0, 0, 1]],
                   [[1, 1, Fraction(1, 25)], [50, -10, 9]])
    pts = {r.point for r in res}
    assert (Fraction(15), Fraction(10), Fraction(2)) in pts
    target = next(r for r in res if r.point == (Fraction(15), Fraction(10), Fraction(2)))
    assert not target.has_zero_coordinate
    assert target.combination.coefficients == (Fraction(225), Fraction(100), Fraction(4))


def test_b4_direct_arithmetic():
    # the equations at [15:10:2]: 100+200 = 300 = 2*150, 100-40 = 60 = 2*30,
    # 4+36 = 40 = 2*20
    _, _, _, dA, eqs = b4_system((1, 0, 0), [[0, 1, 0], [0, 0, 1]],
                                 [[1, 1, Fraction(1, 25)], [50, -10, 9]])
    assert dA == 1
    for e in eqs:
        assert e.eval_exact((15, 10, 2)) == 0


def test_b4_zero_cross_terms_coordinate_points():
    res = b4_solve((1, 0, 0), [[0, 1, 0], [0, 0, 1]],
                   [[0, 0, 0], [0, 0, 0]])
    pts = {r.point for r in res}
    assert pts == {(Fraction(1), Fraction(0), Fraction(0)),
                   (Fraction(0), Fraction(1), Fraction(0)),
                   (Fraction(0), Fraction(0), Fraction(1))}
    assert all(r.has_zero_coordinate for r in res)


def test_b4_singular_A():
    with pytest.raises(SingularAError):
        b4_solve((1, 0, 0), [[1, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0]])


def test_b4_solutions_yield_square_combinations(example_net):
    """Every solution, pushed through the adjugate identity, produces a
    combination accepted by the net solver."""
    q0, q1, q2 = example_net
    res = b4_solve((1, 0, 0), [[0, 1, 0], [0, 0, 1]],
                   [[1, 1, Fraction(1, 25)], [50, -10, 9]])
    net = {s.coefficients for s in square_combination(q0, q1, q2)}
    for r in res:
        if not r.has_zero_coordinate:
            assert r.combination.residual((q0, q1, q2)).is_zero
            from quadrics.scalars import primitive_vector
            assert tuple(primitive_vector(r.combination.coefficients)) in net


# ---------------------------------------------------------------------------
# Degeneracy curves
# ---------------------------------------------------------------------------

def test_degeneracy_curve_full_case():
    quadrics = (X * X, Y * Y, Z * Z)
    dc = degeneracy_curve((1, 1, 1, 1), (1, 1, 1), quadrics)
    assert dc.case == "full"
    assert dc.q_degree == 4
    assert dc.poly.degree == 8
    assert not dc.is_identically_zero
    # oracle: evaluate at random points against the direct sign product
    rng = random.Random(9)
    R3 = __import__("quadrics.squares", fromlist=["generate_R"]).generate_R(3)
    for _ in range(100):
        pt = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(3))
        args = [q.eval_exact(pt) for q in (
            quadrics[0] + quadrics[1] + quadrics[2], *quadrics)]
        direct = sum(c * _powprod(args, e) for e, c in R3.poly.terms.items())
        assert dc.poly.eval_exact(pt) == direct


def _powprod(vals, exps):
    out = Fraction(1)
    for v, e in zip(vals, exps):
        out *= v ** e
    return out


def test_degeneracy_curve_reduced_case():
    dc = degeneracy_curve((0, 1, 1, 1), (1, 1, 1), (X * X, Y * Y, Z * Z))
    assert dc.case == "reduced"
    assert dc.q_degree == 2
    assert dc.poly.degree == 4


def test_degeneracy_curve_collapse_case():
    dc = degeneracy_curve((0, 1, 1, 0), (1, 1, 1), (X * X, Y * Y, Z * Z))
    assert dc.case == "collapse"
    assert dc.poly is None


def test_degeneracy_curve_errors():
    with pytest.raises(AllAlphaZeroError):
        degeneracy_curve((0, 0, 0, 0), (1, 1, 0), (X * X, Y * Y, Z * Z))
    with pytest.raises(ValueError):
        degeneracy_curve((1, 1, 1, 1), (1, 0, 0), (X * X, Y * Y, Z * Z))


# ---------------------------------------------------------------------------
# Monomial equivalence
# ---------------------------------------------------------------------------

def test_case1_matching_index():
    c = monomial_equivalence_reduce([((2, 2, 0), (0, 2, 2), 1)])
    assert c.kind == "pencil"
    assert c.indices == (0, 2)
    assert c.exponent == 2
    assert c.via == "case1"


def test_case2_combination():
    # differences (2,-1,-1) and (1,1,-2): no matching index, not proportional
    c = monomial_equivalence_reduce([((2, 1, 1), (0, 2, 2), 1),
                                     ((1, 1, 2), (0, 0, 4), 1)])
    assert c.kind == "pencil"
    assert c.via == "case2"


def test_proportional_differences_inconclusive():
    # differences (2,-1,-1) and (4,-2,-2) are proportional, no index matches
    c = monomial_equivalence_reduce([((2, 1, 1), (0, 2, 2), 1),
                                     ((4, 0, 0), (0, 2, 2), 1)])
    assert c.kind == "inconclusive"


def test_malformed_relation():
    with pytest.raises(MalformedRelationError):
        monomial_equivalence_reduce([((2, 2, 0), (1, 2, 2), 1)])


# ---------------------------------------------------------------------------
# Diagonal nets
# ---------------------------------------------------------------------------

def test_fermat_vandermonde_net():
    rep = fermat_check(parse_poly("z0^2 + z1^2 + z2^2"),
                       parse_poly("z0^2 + 2*z1^2 + 3*z2^2"),
                       parse_poly("z0^2 + 4*z1^2 + 9*z2^2"))
    assert rep["independent"]
    assert rep["smooth"] == [True, True, True]
    assert len(rep["square_combinations"]) == 3
    for s in rep["square_combinations"]:
        assert s.nonzero_count >= 1


def test_fermat_irrational_triple_point_fails():
    """The diagonal net through (+-sqrt2 : +-1 : 1) has a triple point there,
    decided by the exact resultant of the three conics."""
    rep = fermat_check(parse_poly("z0^2 + z1^2 - 3*z2^2"), parse_poly("z0^2 - z1^2 - z2^2"),
                       parse_poly("z0^2 + 2*z1^2 - 4*z2^2"))
    assert rep["condition_1_no_triple_point"] == "fail"


def test_fermat_dependent_rows():
    rep = fermat_check(parse_poly("z0^2 + z1^2 + z2^2"),
                       parse_poly("2*z0^2 + 2*z1^2 + 2*z2^2"),
                       parse_poly("z0^2 + 4*z1^2 + 9*z2^2"))
    assert not rep["independent"]


def test_fermat_zero_entry_not_smooth():
    rep = fermat_check(parse_poly("z0^2 + z1^2"),
                       parse_poly("z0^2 + 2*z1^2 + 3*z2^2"),
                       parse_poly("z0^2 + 4*z1^2 + 9*z2^2"))
    assert rep["smooth"][0] is False


def test_fermat_rejects_cross_terms():
    with pytest.raises(NotDiagonalError):
        fermat_check(parse_poly("z0^2 + z0*z1"), parse_poly("z1^2"), parse_poly("z2^2"))


# ---------------------------------------------------------------------------
# The worked example
# ---------------------------------------------------------------------------

def test_example_verify_and_fermat_check_intersect_each_pair_once(monkeypatch):
    """Each entry point runs in one analysis scope: 4 intersections for 4
    distinct pairs, and no memo left once it returns; inside an open scope
    it joins that scope, so a second call computes nothing."""
    import quadrics.arrangements as ar
    from quadrics.config import _SCOPE, analysis_scope
    pairs = []
    compute = ar._intersection_points
    monkeypatch.setattr(ar, "_intersection_points",
                        lambda p, q, precision: pairs.append((p, q)) or compute(p, q, precision))
    fermat = [parse_poly(s) for s in ("z0^2 + z1^2 + z2^2", "z0^2 + 2*z1^2 + 3*z2^2",
                                      "z0^2 + 4*z1^2 + 9*z2^2")]
    for run in (example_verify, lambda: fermat_check(*fermat)):
        pairs.clear()
        report = run()
        assert len(pairs) == len(set(pairs)) == 4
        assert _SCOPE.get() is None
        with analysis_scope():
            assert repr(run()) == repr(report)
            assert repr(run()) == repr(report)
        assert len(pairs) == 8


def test_example_verify_square_identity():
    rep = example_verify()
    assert rep["square_identity_exact"]
    assert rep["square_found"]


def test_example_verify_genericity_items():
    rep = example_verify()
    assert rep["item1_no_triple_point"] == "pass"
    assert rep["item2_no_tangency"] == "pass"
    assert rep["item3_tangent_incidence"] == "pass"
    assert rep["item4_tangent_tangency"] == "pass"


def test_example_verify_contact_solves_trivial():
    rep = example_verify()
    assert rep["item5_only_trivial"]
    assert rep["passed"]
