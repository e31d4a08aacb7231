"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from quadrics.arrangements import (Configuration, build_line_system,
                                   genericity_check_s4, genericity_check_s6,
                                   intersection_points, select_general_position)
from quadrics.nevanlinna import (ExpCurve, GrowthSample, characteristic,
                                 counting, defect_estimate,
                                 functoriality_check, main_theorem_check,
                                 order_estimate, three_quadrics_certificate)
from quadrics.polynomials import HomPoly, ProjPointNum, parse_poly
from quadrics.squares import (b4_solve, example_verify, expand_S, generate_R,
                              square_combination)

from exact_reference import has_common_component, lines_distinct, point_distance

QUAD_BASIS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_example_end_to_end():
    t0 = time.monotonic()
    rep = example_verify()
    dt = time.monotonic() - t0
    ok = (rep["square_identity_exact"] and rep["square_found"]
          and rep["item1_no_triple_point"] == "pass"
          and rep["item2_no_tangency"] == "pass"
          and rep["item3_tangent_incidence"] == "pass"
          and rep["item4_tangent_tangency"] == "pass"
          and rep["item5_only_trivial"] and dt < 5.0)
    _report(1, ok, f"square identity exact, items 1-5 pass, {dt:.2f}s < 5s")


def test_criterion_2_b4_solution():
    t0 = time.monotonic()
    res = b4_solve((1, 0, 0), [[0, 1, 0], [0, 0, 1]],
                   [[1, 1, Fraction(1, 25)], [50, -10, 9]])
    dt = time.monotonic() - t0
    pts = {r.point for r in res}
    ok = (Fraction(15), Fraction(10), Fraction(2)) in pts and dt < 1.0
    _report(2, ok, f"[15:10:2] found exactly, {dt:.2f}s < 1s")


def test_criterion_3_sign_product_identities():
    t0 = time.monotonic()
    R2 = generate_R(2).poly
    closed = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
              (1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): -2}
    ok = R2.terms == {k: Fraction(v) for k, v in closed.items()}
    rng = random.Random(8813)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        S = expand_S(a, b, c)
        ok = ok and S.coeff((4, 0, 0)) == (a - 1) ** 4
        ok = ok and S.coeff((2, 2, 0)) == 2 * (
            3 * a ** 2 * (b - 1) ** 2 - 2 * a * (b - 1) * (3 * b + 1)
            + 3 * b ** 2 + 2 * b + 3)
    S111 = expand_S(1, 1, 1)
    ok = ok and S111 == parse_poly(
        "16*z0^2*z1^2 + 16*z0^2*z2^2 + 16*z1^2*z2^2"
        " - 32*z0^2*z1*z2 - 32*z0*z1^2*z2 - 32*z0*z1*z2^2")
    dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    _report(3, ok, f"closed form exact, 100 random coefficient identities, {dt:.2f}s < 10s")


def test_criterion_4_intersection_oracle():
    t0 = time.monotonic()
    p = parse_poly("z0^2 - z1*z2")
    q = parse_poly("z1^2 - z0*z2")
    recs = intersection_points(p, q)
    omega = mp.exp(2j * mp.pi / 3)
    targets = [ProjPointNum.from_exact((0, 0, 1)),
               ProjPointNum.from_exact((1, 1, 1)),
               ProjPointNum([omega, 1, omega ** 2]),
               ProjPointNum([omega ** 2, 1, omega])]
    ok = len(recs) == 4 and all(r.multiplicity == 1 for r in recs)
    for t in targets:
        ok = ok and any(point_distance(r.point, t) < mp.mpf("1e-10") for r in recs)
    rng = random.Random(20240809)
    done = 0
    while done < 200:
        pp = HomPoly({e: rng.randint(-9, 9) for e in QUAD_BASIS})
        qq = HomPoly({e: rng.randint(-9, 9) for e in QUAD_BASIS})
        if pp.degree != 2 or qq.degree != 2 or has_common_component(pp, qq):
            continue
        total = sum(r.multiplicity for r in intersection_points(pp, qq))
        ok = ok and total == 4
        done += 1
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    _report(4, ok, f"4 derived points within 1e-10; 200 exact Bezout sums, {dt:.1f}s < 60s")


def _random_triple_passing_1_2(rng):
    """A quadric triple that is smooth, pairwise transversal, and without
    triple points (the full pairwise gate of the line-system section)."""
    while True:
        polys = []
        for _ in range(3):
            p = HomPoly({e: rng.randint(-4, 4) for e in QUAD_BASIS})
            polys.append(p)
        if any(p.degree != 2 for p in polys):
            continue
        cfg = Configuration.from_polys(polys)
        rep = genericity_check_s4(cfg)
        if rep.conditions["s4.1"].status == "pass" and \
           rep.conditions["s4.2"].status == "pass":
            return tuple(polys)


def test_criterion_5_line_system_property(generic_triple):
    ok = True
    rng = random.Random(5150)
    triples = [generic_triple] + [_random_triple_passing_1_2(rng) for _ in range(2)]
    selections = 0
    for triple in triples:
        ls = build_line_system(*triple)
        lines = ls.all_lines()
        ok = ok and len(lines) == 18
        distinct = sum(1 for a, b in itertools.combinations(lines, 2)
                       if lines_distinct(a.line, b.line) is True)
        ok = ok and distinct == 153
        rep, ls2 = genericity_check_s6(*triple)
        if rep.conditions["s6.4"].status == "pass":
            sel = select_general_position(ls2)
            ok = ok and len(sel) == 12
            # independent exhaustive 3-subset oracle in plain floats
            arrs = [np.array([complex(c) for c in li.line.vec]) for li in sel]
            for a, b, c in itertools.combinations(arrs, 3):
                if abs(np.linalg.det(np.vstack([a, b, c]))) < 1e-9:
                    ok = False
            selections += 1
    ok = ok and selections >= 1
    _report(5, ok, f"18 lines pairwise distinct on {len(triples)} gated triples; "
                   f"{selections} certified 12-line selections")


def test_criterion_6_characteristic_closed_forms():
    ok = True
    f = ExpCurve.from_exponents([[0], [0, 1]])
    for r in (10.0, 50.0, 200.0):
        T, _ = characteristic(f, r)
        ok = ok and abs(T - r / math.pi) < 1e-4
    f2 = ExpCurve.from_exponents([[0], [0, 0, 1]])
    T2, _ = characteristic(f2, 20.0)
    ok = ok and abs(T2 / 400 - 1 / math.pi) < 0.01 / math.pi
    gs = GrowthSample.compute(f, np.logspace(1, 3, 12))
    order1, _ = order_estimate(gs)
    ok = ok and abs(order1 - 1.0) <= 0.05
    gs2 = GrowthSample.compute(f2, np.logspace(0.5, 2.5, 12))
    order2, _ = order_estimate(gs2)
    ok = ok and abs(order2 - 2.0) <= 0.05
    _report(6, ok, f"T=r/pi to 1e-4, quadratic growth to 1%, orders "
                   f"{order1:.3f} and {order2:.3f}")


def test_criterion_7_counting_oracle():
    f = ExpCurve.from_exponents([[0], [0, 1]])
    cs = counting(f, parse_poly("z1 - z0"), 100.0)
    n = cs.n_at(100.0)
    expected = 1 + 2 * math.floor(100 / (2 * math.pi))
    K = math.floor(100 / (2 * math.pi))
    closed = math.log(100) + 2 * sum(math.log(100 / (2 * math.pi * k))
                                     for k in range(1, K + 1))
    ok = n == expected == 31 and abs(cs.N - closed) < 1e-6
    _report(7, ok, f"count {n} == 31 exact, |N(100) - closed form| = "
                   f"{abs(cs.N - closed):.2e} < 1e-6")


def test_criterion_8_main_theorem_numerics():
    f = ExpCurve.from_exponents([[0], [0, 1]])
    radii = list(np.logspace(1, 3, 18))
    fmt = main_theorem_check(f, [parse_poly("z1 - z0")], "first", radii)
    variation = max(fmt.slack) - min(fmt.slack)
    ok = variation < 0.5
    smt = main_theorem_check(f, [parse_poly("z0"), parse_poly("z1"),
                                 parse_poly("z0 - z1")], "second", radii)
    ok = ok and smt.fitted_C_two_sided < 3.0
    d = defect_estimate(f, parse_poly("z1 - z0"),
                        [r for r in radii if r <= 500] + [500.0])
    ok = ok and abs(d.value) < 0.05
    _report(8, ok, f"FMT slack variation {variation:.3f} < 0.5, SMT C "
                   f"{smt.fitted_C_two_sided:.3f} < 3, defect {d.value:.4f} within 0.05")


def test_criterion_9_functoriality():
    f = ExpCurve.from_exponents([[0], [0, 1]])
    rep = functoriality_check(f, [parse_poly("z0^2"), parse_poly("z1^2")],
                              list(np.logspace(1, 2, 10)), tolerance=0.1)
    ok = rep.passed and rep.variation < 0.1
    _report(9, ok, f"degree-2 variation {rep.variation:.2e} < 0.1")


def test_criterion_10_certificate():
    cert = three_quadrics_certificate((0, 1, 2), quadrature_check=True,
                                      r_check=20.0)
    ok = abs(cert.X - 2 / math.pi) < 1e-13
    ok = ok and cert.lhs > cert.rhs and cert.contradiction
    ok = ok and abs(cert.lhs - 9 * cert.X) < 1e-13
    ok = ok and abs(cert.rhs - 8 * cert.X) < 1e-13
    for chk in cert.quadrature_checks:
        ok = ok and chk["relative_error"] < 0.01
    flat = three_quadrics_certificate((5, 5, 5))
    ok = ok and not flat.contradiction
    _report(10, ok, "X = 2/pi, 9X > 8X, quadrature within 1%, equal case no contradiction")


def test_criterion_11_deformation_family():
    P1 = parse_poly("z0^2 - z1*z2")
    rng = random.Random(1234)
    P2 = HomPoly({e: rng.randint(-3, 3) for e in QUAD_BASIS})
    P3 = HomPoly({e: rng.randint(-3, 3) for e in QUAD_BASIS})
    deg4 = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
    F = HomPoly({e: rng.randint(-2, 2) for e in deg4})
    P = P1 * P2 * P3
    Q = parse_poly("z1^6") + P1 * F
    param = [parse_poly("z0*z1"), parse_poly("z0^2"), parse_poly("z1^2")]
    # restriction of P + t Q to the conic is exactly t * s^12
    ok = P.compose(param).is_zero
    ok = ok and Q.compose(param) == parse_poly("z0^12")
    for t in (1, -3):
        Rt = P + Q.scale(t)
        recs = intersection_points(Rt, P1)
        ok = ok and len(recs) == 1
        ok = ok and recs[0].multiplicity == 12
        ok = ok and recs[0].point.exact == (Fraction(0), Fraction(0), Fraction(1))
    _report(11, ok, "restriction identically t*s^12; intersection = {[0:0:1]} only")
