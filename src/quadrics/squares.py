"""Square-combination machinery for pencils and nets of quadrics.

Sign-product elimination polynomials R_j, solvers for rank-one members
of pencils and nets (linear combinations of quadrics that are squares of
linear forms), the adjugate-reduced biquadratic system for a line plus
two quadrics, degeneracy curves, monomial equivalence reduction, and the
built-in worked-example verifier.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp

from .arrangements import (CommonComponentError, Configuration, InfinitelyManySolutionsError,
                           NoSolutionError, _pairwise_data, _triple_points,
                           common_zeros_of_quadratic_system, contact_obstruction_check,
                           tangent_line_numeric)
from .config import DEFAULT_PRECISION, PrecisionConfig, analysis_scope
from .linalg import adjugate, det as exact_det, nullspace, rank
from .polynomials import (HomPoly, parse_poly,
                          pencil_matrix_entry_forms, quadric_form)
from .scalars import (GaussRat, Scalar, coerce_scalar, primitive_vector,
                      scalar_to_complex)
from .univariate import dehomogenize, roots_with_multiplicity, uni_gcd


class NotDiagonalError(ValueError):
    pass


class SingularAError(ValueError):
    """det(A) = 0: the adjugate-based reduction is invalid."""


class AllAlphaZeroError(ValueError):
    pass


class MalformedRelationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Generic sparse multivariate polynomials (only needed up to 5 variables)
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial over the rationals in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[tuple, Scalar] | None = None):
        self.n = n
        tmap = {}
        if terms:
            for e, c in terms.items():
                c = coerce_scalar(c)
                if c != 0:
                    tmap[tuple(e)] = c
        self.terms = tmap

    @staticmethod
    def variable(n, i):
        e = [0] * n
        e[i] = 1
        return MultiPoly(n, {tuple(e): 1})

    @staticmethod
    def constant(n, c):
        return MultiPoly(n, {tuple([0] * n): c})

    def __add__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return MultiPoly(self.n, res)

    def __sub__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) - c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return MultiPoly(self.n, res)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return MultiPoly(self.n, {e: c * other for e, c in self.terms.items()})
        res: Dict[tuple, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s == 0:
                    res.pop(e, None)
                else:
                    res[e] = s
        return MultiPoly(self.n, res)

    __rmul__ = __mul__

    @property
    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.n == other.n and self.terms == other.terms

    def compose_hompoly(self, args: Sequence[HomPoly]) -> HomPoly:
        """Evaluate at HomPoly arguments (one per variable)."""
        out = HomPoly.zero()
        cache: Dict[Tuple[int, int], HomPoly] = {}

        def powed(i, k):
            if k == 0:
                return HomPoly.constant(1)
            if (i, k) not in cache:
                cache[(i, k)] = args[i] ** k
            return cache[(i, k)]

        for e, c in self.terms.items():
            t = HomPoly.constant(c)
            for i, k in enumerate(e):
                if k:
                    t = t * powed(i, k)
            out = out + t
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        names = [f"y{i}" for i in range(self.n)]
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                            for i, k in enumerate(e) if k)
            cs = str(c)
            parts.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Sign-product polynomials R_j
# ---------------------------------------------------------------------------

@dataclass
class SignProductPoly:
    """R_j with R_j(x_0^2, ..., x_j^2) equal to the full sign product."""

    j: int
    poly: MultiPoly  # in y_0 .. y_j

    @property
    def degree(self) -> int:
        return 2 ** (self.j - 1)

    def sign_product(self) -> MultiPoly:
        """The defining product, expanded in x_0 .. x_j."""
        n = self.j + 1
        prod = MultiPoly.constant(n, 1)
        for signs in itertools.product((1, -1), repeat=self.j):
            f = MultiPoly.variable(n, 0)
            for i, s in enumerate(signs, start=1):
                f = f + MultiPoly.variable(n, i) * s
            prod = prod * f
        return prod

    def substituted(self) -> MultiPoly:
        """R_j(x_0^2, ..., x_j^2) expanded in the x variables."""
        n = self.j + 1
        out: Dict[tuple, Scalar] = {}
        for e, c in self.poly.terms.items():
            e2 = tuple(2 * k for k in e)
            out[e2] = out.get(e2, 0) + c
        return MultiPoly(n, out)


def generate_R(j: int) -> SignProductPoly:
    """Expand the sign product and rewrite even exponents as y variables."""
    if not 1 <= j <= 4:
        raise ValueError("j must be between 1 and 4")
    R = SignProductPoly(j, MultiPoly(j + 1, {}))
    terms: Dict[tuple, Scalar] = {}
    for e, c in R.sign_product().terms.items():
        if any(k % 2 for k in e):
            raise AssertionError("sign product must be even in every variable")
        terms[tuple(k // 2 for k in e)] = c
    R.poly = MultiPoly(j + 1, terms)
    return R


def expand_S(a, b, c) -> HomPoly:
    """R_3(a*x + b*y + c*z, x, y, z) fully expanded as a ternary quartic."""
    R3 = generate_R(3).poly
    x = HomPoly.variable(0)
    y = HomPoly.variable(1)
    z = HomPoly.variable(2)
    lead = x.scale(a) + y.scale(b) + z.scale(c)
    return R3.compose_hompoly([lead, x, y, z])


# ---------------------------------------------------------------------------
# Square combinations over pencils and nets of quadrics
# ---------------------------------------------------------------------------

@dataclass
class SquareCombination:
    """Coefficients a with sum(a_j Q_j) = scale * root_form^2 exactly.

    A pencil member at an irrational root (exact=False) has numeric
    coefficients and only the numeric root, L with sum(a_j Q_j) = L^2.
    """

    coefficients: tuple
    combination: Optional[HomPoly]
    root_scale: Optional[Scalar]
    root_form: Optional[HomPoly]
    root_numeric: tuple
    nonzero_count: int
    exact: bool = True

    def residual(self, quadrics) -> Optional[HomPoly]:
        if not self.exact:
            return None
        acc = HomPoly.zero()
        for aj, qj in zip(self.coefficients, quadrics):
            acc = acc + qj.scale(aj)
        return acc - (self.root_form * self.root_form).scale(self.root_scale)

    def to_json(self):
        from .scalars import format_scalar
        return {
            "coefficients": [format_scalar(c) if self.exact else mp.nstr(c, 20)
                             for c in self.coefficients],
            "combination": str(self.combination) if self.combination is not None else None,
            "root_scale": format_scalar(self.root_scale) if self.root_scale is not None else None,
            "root_form": str(self.root_form) if self.root_form is not None else None,
            "root_numeric": [mp.nstr(c, 20) for c in self.root_numeric],
            "nonzero_count": self.nonzero_count,
            "exact": self.exact,
        }


def _combination_from_exact(avec, quadrics) -> Optional[SquareCombination]:
    avec = primitive_vector(avec)
    comb = HomPoly.zero()
    for aj, qj in zip(avec, quadrics):
        comb = comb + qj.scale(aj)
    if comb.is_zero:
        return SquareCombination(tuple(avec), comb, Fraction(0), HomPoly.zero(),
                                 (mp.mpc(0), mp.mpc(0), mp.mpc(0)),
                                 sum(1 for x in avec if x != 0))
    sq = comb.as_square_of_linear()
    if sq is None:
        return None
    c, L = sq
    if not isinstance(c, GaussRat) and c < 0:
        avec = [-x for x in avec]
        comb = -comb
        c = -c
    vec = L.linear_coeffs()
    with mp.workprec(96):
        sc = mp.sqrt(mp.mpc(scalar_to_complex(c)))
        num = tuple(sc * mp.mpc(scalar_to_complex(v)) for v in vec)
    return SquareCombination(tuple(avec), comb, c, L, num,
                             sum(1 for x in avec if x != 0))


def _rank_one_minors(entries) -> List[HomPoly]:
    """The distinct nonzero 2x2 minors of a 3x3 matrix of linear forms;
    their common zeros are the members of rank <= 1.  Raises
    InfinitelyManySolutionsError when every minor vanishes."""
    minors = []
    for r1, r2 in itertools.combinations(range(3), 2):
        for c1, c2 in itertools.combinations(range(3), 2):
            m = entries[r1][c1] * entries[r2][c2] - entries[r1][c2] * entries[r2][c1]
            if not m.is_zero and m not in minors:
                minors.append(m)
    if not minors:
        raise InfinitelyManySolutionsError("every member has rank <= 1")
    return minors


def pencil_rank1_members(q1: HomPoly, q2: HomPoly,
                         precision: PrecisionConfig | None = None
                         ) -> List[SquareCombination]:
    """All [a:b] with rank(a*M1 + b*M2) = 1, with extracted square roots.

    Every root of the exact gcd of the pencil's 2x2 minors (a binary form
    of degree at most 2) is a rank-one member, since a*M1 + b*M2 never
    vanishes for independent q1, q2.  A Gaussian-rational root gives an
    exact member; any other root t gives the numeric member [t:1], both
    of whose coefficients are nonzero because the roots t = 0 and t = oo
    are split off exactly.
    """
    if rank([q1.quadratic_coeffs(), q2.quadratic_coeffs()]) < 2:
        raise ValueError("q1, q2 must be linearly independent")
    prec_cfg = precision or DEFAULT_PRECISION
    quadrics = (q1, q2)
    forms = [dehomogenize(m, 0, 1)
             for m in _rank_one_minors(pencil_matrix_entry_forms(q1, q2))]
    g = functools.reduce(uni_gcd, [p for p, _, _ in forms])
    members = []
    if all(m_zero for _, _, m_zero in forms):
        members.append(_combination_from_exact((0, 1), quadrics))
    if all(m_inf for _, m_inf, _ in forms):
        members.append(_combination_from_exact((1, 0), quadrics))
    M1, M2 = (quadric_form(q).matrix for q in quadrics)
    for ball in roots_with_multiplicity(g, prec_cfg.start_bits):
        if ball.exact is not None:
            members.append(_combination_from_exact((ball.exact, 1), quadrics))
            continue
        t = ball.value
        M = [[t * scalar_to_complex(x) + scalar_to_complex(y) for x, y in zip(r1, r2)]
             for r1, r2 in zip(M1, M2)]
        jj = max(range(3), key=lambda i: abs(M[i][i]))
        root = tuple(M[i][jj] / mp.sqrt(M[jj][jj]) for i in range(3))
        members.append(SquareCombination((t, mp.mpc(1)), None, None, None, root, 2,
                                         exact=False))
    return [m for m in members if m is not None]


def square_combination(q1: HomPoly, q2: HomPoly, q3: HomPoly,
                       precision: PrecisionConfig | None = None
                       ) -> List[SquareCombination]:
    """All [a1:a2:a3] with rank(a1 M1 + a2 M2 + a3 M3) <= 1.

    Solved from the vanishing of the 2x2 minors of the matrix net, whose
    common zeros are exact points; each solution carries the extracted
    square root with a fixed sign convention (positive real scale
    whenever the scale is real).
    """
    prec_cfg = precision or DEFAULT_PRECISION
    quadrics = (q1, q2, q3)
    for q in quadrics:
        if q.degree != 2:
            raise ValueError("inputs must be quadratic forms")
    if rank([q.quadratic_coeffs() for q in quadrics]) < 2:
        raise ValueError("quadrics must span at least a pencil")
    minors = _rank_one_minors(pencil_matrix_entry_forms(q1, q2, q3))
    out = []
    for pt in common_zeros_of_quadratic_system(minors, precision=prec_cfg):
        sc = _combination_from_exact(pt.exact, quadrics)
        if sc is not None:
            out.append(sc)
    if not out:
        raise NoSolutionError("the net contains no rank <= 1 member")
    out.sort(key=lambda s: str(s.coefficients))
    return out


# ---------------------------------------------------------------------------
# The adjugate-reduced biquadratic system for (line, quadric, quadric)
# ---------------------------------------------------------------------------

@dataclass
class B4Solution:
    point: tuple                 # exact primitive (kappa, lambda, mu)
    has_zero_coordinate: bool
    combination: SquareCombination


def b4_system(c: Sequence, a: Sequence[Sequence], b: Sequence[Sequence]):
    """Coefficient matrices A, B and the three biquadratic equations."""
    c = [coerce_scalar(x) for x in c]
    A = [[c[0] ** 2, c[1] ** 2, c[2] ** 2]] + [[coerce_scalar(x) for x in row] for row in a]
    B = [[2 * c[0] * c[1], 2 * c[0] * c[2], 2 * c[1] * c[2]]] + \
        [[coerce_scalar(x) for x in row] for row in b]
    dA = exact_det(A)
    if dA == 0:
        raise SingularAError("det(A) = 0; adjugate reduction invalid")
    Ahat = adjugate(A)
    C = [[sum(Ahat[i][k] * B[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    # (k^2, l^2, m^2) . C = 2 det(A) (kl, km, lm) as forms in (z0, z1, z2)
    eqs = [HomPoly.quadratic_form([C[i][j] for i in range(3)]
                                  + [-2 * dA if k == j else 0 for k in range(3)])
           for j in range(3)]
    return A, B, Ahat, dA, eqs


def b4_solve(c: Sequence, a: Sequence[Sequence], b: Sequence[Sequence],
             precision: PrecisionConfig | None = None) -> List[B4Solution]:
    """All projective solutions of the three biquadratic equations.

    Each solution is certified: (k^2, l^2, m^2) . adj(A) . (Q0, Q1, Q2)
    equals det(A) (k z0 + l z1 + m z2)^2, so it yields a square
    combination of the three quadrics.  Solutions with a zero coordinate
    are flagged separately.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    A, B, Ahat, dA, eqs = b4_system(c, a, b)
    # the quadrics Q_i: diagonal row A_i and cross row B_i
    quadrics = [HomPoly.quadratic_form(a + b) for a, b in zip(A, B)]
    out: List[B4Solution] = []
    for pt in common_zeros_of_quadratic_system(eqs, precision=prec_cfg):
        klm = primitive_vector(pt.exact)
        sqs = [x * x for x in klm]
        avec = [sum(sqs[i] * Ahat[i][j] for i in range(3)) for j in range(3)]
        comb = HomPoly.zero()
        for aj, qj in zip(avec, quadrics):
            comb = comb + qj.scale(aj)
        L = (HomPoly.variable(0).scale(klm[0]) + HomPoly.variable(1).scale(klm[1])
             + HomPoly.variable(2).scale(klm[2]))
        assert comb == (L * L).scale(dA), "square certificate failed"
        with mp.workprec(96):
            sc = mp.sqrt(mp.mpc(scalar_to_complex(dA)))
        num = tuple(sc * mp.mpc(scalar_to_complex(klm[i])) for i in range(3))
        scomb = SquareCombination(tuple(avec), comb, dA, L, num,
                                  sum(1 for x in avec if x != 0))
        out.append(B4Solution(tuple(klm), any(x == 0 for x in klm), scomb))
    out.sort(key=lambda s: str(s.point))
    return out


# ---------------------------------------------------------------------------
# Degeneracy curves
# ---------------------------------------------------------------------------

@dataclass
class DegeneracyCurve:
    poly: Optional[HomPoly]
    alphas: tuple
    a_coefficients: tuple
    case: str              # full | reduced | collapse
    q_degree: int          # degree as a polynomial in the quadrics
    note: str = ""

    @property
    def z_degree(self) -> int:
        return self.poly.degree if self.poly is not None and not self.poly.is_zero else -1

    @property
    def is_identically_zero(self) -> bool:
        return self.poly is not None and self.poly.is_zero


def degeneracy_curve(alphas: Sequence, as_: Sequence,
                     quadrics: Sequence[HomPoly]) -> DegeneracyCurve:
    """Curve trapping the image of a map avoiding the three quadrics.

    Full case (all alpha nonzero): substitute the square combination and
    the three quadrics into the j=3 sign-product polynomial; degree <= 8.
    Exactly one alpha zero: the j=2 polynomial on the remaining three,
    degree <= 4.  Two or more zeros: the linear relation already forces
    proportionality of two of the functions; reported as collapse.
    """
    al = [coerce_scalar(x) for x in alphas]
    if len(al) != 4:
        raise ValueError("four alpha coefficients expected")
    avec = [coerce_scalar(x) for x in as_]
    if sum(1 for x in avec if x != 0) < 2:
        raise ValueError("at least two combination coefficients must be nonzero")
    if all(x == 0 for x in al):
        raise AllAlphaZeroError("all alpha coefficients vanish")
    q1, q2, q3 = quadrics
    q0eff = q1.scale(avec[0]) + q2.scale(avec[1]) + q3.scale(avec[2])
    args_full = [q0eff, q1, q2, q3]
    zero_idx = [i for i, x in enumerate(al) if x == 0]
    if len(zero_idx) == 0:
        R3 = generate_R(3).poly
        scaled = [args_full[i].scale(al[i] ** 2) for i in range(4)]
        poly = R3.compose_hompoly(scaled)
        return DegeneracyCurve(poly, tuple(al), tuple(avec), "full", 4)
    if len(zero_idx) == 1:
        R2 = generate_R(2).poly
        live = [i for i in range(4) if i not in zero_idx]
        scaled = [args_full[i].scale(al[i] ** 2) for i in live]
        poly = R2.compose_hompoly(scaled)
        return DegeneracyCurve(poly, tuple(al), tuple(avec), "reduced", 2,
                               note=f"alpha_{zero_idx[0]} = 0: quadratic relation instead")
    live = [i for i in range(4) if i not in zero_idx]
    note = ("two or more alpha coefficients vanish: the linear relation "
            "directly forces proportionality"
            + (f" of q_{live[0]} and q_{live[1]}" if len(live) == 2 else ""))
    return DegeneracyCurve(None, tuple(al), tuple(avec), "collapse", 0, note=note)


# ---------------------------------------------------------------------------
# Monomial equivalence reduction
# ---------------------------------------------------------------------------

@dataclass
class ReductionConclusion:
    kind: str                      # pencil | inconclusive
    indices: Optional[Tuple[int, int]] = None
    exponent: Optional[int] = None
    via: str = ""
    note: str = ""


def monomial_equivalence_reduce(relations: List[Tuple[Sequence[int], Sequence[int], object]]
                                ) -> ReductionConclusion:
    """Reduce exponent-vector relations to a two-quadric pencil relation.

    Case 1 applies when a relation matches in some coordinate: that index
    cancels and the remaining exponents force sigma Q_u = tau Q_v.  Case 2
    combines two relations whose difference vectors are not rational
    multiples of each other.
    """
    if not relations:
        raise MalformedRelationError("no relations given")
    diffs = []
    for k, l, _ in relations:
        k = list(k)
        l = list(l)
        if len(k) != len(l) or len(k) != 3:
            raise MalformedRelationError("exponent vectors must have length 3")
        if sum(k) != sum(l):
            raise MalformedRelationError("coordinate sums differ")
        diffs.append([ki - li for ki, li in zip(k, l)])

    # case 1 on each relation
    for (k, l, _), d in zip(relations, diffs):
        if all(x == 0 for x in d):
            continue
        for j in range(3):
            if d[j] == 0:
                u, v = (i for i in range(3) if i != j)
                r = abs(d[u])
                return ReductionConclusion("pencil", (u, v), r, via="case1",
                                           note=f"index {j} cancels")

    # case 2 on pairs
    for (i1, d1), (i2, d2) in itertools.combinations(enumerate(diffs), 2):
        cross = [d1[a] * d2[b] - d1[b] * d2[a] for a, b in ((0, 1), (0, 2), (1, 2))]
        if all(x == 0 for x in cross):
            continue  # proportional
        for j in range(3):
            e = [d1[t] * d2[j] - d2[t] * d1[j] for t in range(3)]
            if e[j] != 0 or all(x == 0 for x in e):
                continue
            u, v = (i for i in range(3) if i != j)
            from math import gcd
            g = gcd(abs(e[u]), abs(e[v]))
            return ReductionConclusion("pencil", (u, v), abs(e[u]) // g, via="case2",
                                       note=f"combined relations {i1} and {i2}, index {j} cancels")
    return ReductionConclusion("inconclusive",
                               note="no matching index and all differences proportional")


# ---------------------------------------------------------------------------
# Fermat (diagonal) nets
# ---------------------------------------------------------------------------

def _diag_rows(quadrics) -> List[List[Scalar]]:
    rows = []
    for q in quadrics:
        if q.degree != 2:
            raise NotDiagonalError("degree-2 forms required")
        c = q.quadratic_coeffs()
        if any(x != 0 for x in c[3:]):
            raise NotDiagonalError(f"cross term in {q}")
        rows.append(c[:3])
    return rows


def tangent_incidence_check(quadric_indices, polys, pairs):
    """No tangent at an intersection point passes through another one.

    Tangents are taken to the listed smooth-quadric components at each of
    their intersection points with other components; incidence with every
    other pairwise intersection point is tested with certification.
    ``pairs`` maps (i, j) to the intersection records of polys[i] and
    polys[j], none sharing a component (see _pairwise_data).
    Returns (verdict, witnesses): verdict in pass/fail/undecided.
    """
    all_pts = [(pr, r.point) for pr, recs in pairs.items() for r in recs]
    witnesses = []
    undecided = False
    for qi in quadric_indices:
        for (i, j), recs in pairs.items():
            if qi not in (i, j):
                continue
            for rec in recs:
                tl = tangent_line_numeric(polys[qi], rec.point)
                for pr2, pt2 in all_pts:
                    if pt2.same_point(rec.point):
                        continue
                    on = tl.passes_through(pt2)
                    if on:
                        witnesses.append(pt2)
                    elif on is None:
                        undecided = True
    if witnesses:
        return "fail", witnesses
    if undecided:
        return "undecided", []
    return "pass", []


@analysis_scope()
def fermat_check(q1: HomPoly, q2: HomPoly, q3: HomPoly,
                 precision: PrecisionConfig | None = None) -> dict:
    """Verdicts for a net of diagonal quadrics.

    Checks linear independence of the coefficient rows, smoothness (no
    vanishing diagonal entry), the three genericity conditions (no triple
    point, no tangent through a further intersection point, no pairwise
    tangency), and reports the square combinations of the net (for an
    independent diagonal net these always exist: one per coordinate
    pair).  In one analysis scope, so each intersection is computed once.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    quadrics = (q1, q2, q3)
    rows = _diag_rows(quadrics)
    report: dict = {}
    indep = exact_det(rows) != 0
    report["independent"] = indep
    report["smooth"] = [all(x != 0 for x in row) for row in rows]

    polys = list(quadrics)
    pair_pts = _pairwise_data(polys, prec_cfg)
    if any(isinstance(recs, CommonComponentError) for recs in pair_pts.values()):
        report["condition_1_no_triple_point"] = "fail"
        report["condition_2_tangent_incidence"] = "fail"
        report["condition_3_no_tangency"] = "fail"
        report["square_combinations"] = []
        return report
    # condition 3: no pairwise tangency; condition 1: no triple point
    tangency = any(r.multiplicity >= 2 for recs in pair_pts.values() for r in recs)
    triple, undecided = _triple_points(polys, prec_cfg)
    report["condition_1_no_triple_point"] = (
        "fail" if triple else ("undecided" if undecided else "pass"))
    report["condition_3_no_tangency"] = "fail" if tangency else "pass"
    verdict2, _ = tangent_incidence_check(range(3), polys, pair_pts)
    report["condition_2_tangent_incidence"] = verdict2

    combos: List[SquareCombination] = []
    if indep:
        # vanish two of the three diagonal entries of sum a_j Q_j
        for u, v in itertools.combinations(range(3), 2):
            M = [[rows[r][u] for r in range(3)], [rows[r][v] for r in range(3)]]
            ker = nullspace(M)
            if len(ker) != 1:
                continue
            sc = _combination_from_exact(ker[0], quadrics)
            if sc is not None:
                combos.append(sc)
    try:
        general = square_combination(q1, q2, q3, precision=prec_cfg)
    except (NoSolutionError, InfinitelyManySolutionsError):
        general = []
    seen = {str(c.coefficients) for c in combos}
    for sc in general:
        if str(sc.coefficients) not in seen:
            combos.append(sc)
    combos.sort(key=lambda s: str(s.coefficients))
    report["square_combinations"] = combos
    return report


# ---------------------------------------------------------------------------
# Built-in worked example
# ---------------------------------------------------------------------------

EXAMPLE_LINE = "z0^2"
EXAMPLE_Q1 = "z1^2 + z0*z1 + z0*z2 + (1/25)*z1*z2"
EXAMPLE_Q2 = "z2^2 + 50*z0*z1 - 10*z0*z2 + 9*z1*z2"
EXAMPLE_COMBINATION = (225, 100, 4)
EXAMPLE_ROOT = "15*z0 + 10*z1 + 2*z2"


@analysis_scope()
def example_verify(precision: PrecisionConfig | None = None) -> dict:
    """End-to-end verification of the built-in line-plus-two-quadrics net.

    Confirms the exact square combination, the five genericity items
    (no triple point, no pairwise tangency, tangent incidence, tangent to
    the other quadric, and the four contact linear solves admitting only
    the trivial solution), and returns everything in one report.  One
    analysis scope: each intersection is computed once."""
    prec_cfg = precision or DEFAULT_PRECISION
    q0 = parse_poly(EXAMPLE_LINE)
    q1 = parse_poly(EXAMPLE_Q1)
    q2 = parse_poly(EXAMPLE_Q2)
    quadrics = (q0, q1, q2)
    report: dict = {}

    a0, a1, a2 = EXAMPLE_COMBINATION
    comb = q0.scale(a0) + q1.scale(a1) + q2.scale(a2)
    root = parse_poly(EXAMPLE_ROOT)
    report["square_identity_exact"] = (comb - root * root).is_zero

    sols = square_combination(q0, q1, q2, precision=prec_cfg)
    report["square_solutions"] = sols
    report["square_found"] = any(
        s.exact and tuple(s.coefficients) == (Fraction(225), Fraction(100), Fraction(4))
        for s in sols)

    line = parse_poly("z0")
    polys = [line, q1, q2]

    # item 1: no more than two components through any point
    pair_pts = _pairwise_data(polys, prec_cfg)
    triple, undecided = _triple_points(polys, prec_cfg)
    report["item1_no_triple_point"] = "fail" if triple else (
        "undecided" if undecided else "pass")

    # items 2, 4 and 5 are clauses e, g and f of the contact obstruction
    # report: no tangencies anywhere; no tangent at a point of the line
    # tangent to the other smooth quadric; only trivial solutions of the
    # contact linear systems
    contact = contact_obstruction_check(Configuration.from_polys(polys), prec_cfg).conditions
    report["item2_no_tangency"] = contact["e"].status

    # item 3: tangents at intersection points contain no further intersection point
    verdict3, wit3 = tangent_incidence_check((1, 2), polys, pair_pts)
    report["item3_tangent_incidence"] = verdict3

    report["item4_tangent_tangency"] = contact["g"].status
    report["item5_only_trivial"] = contact["f"].status == "pass"

    report["passed"] = all([
        report["square_identity_exact"], report["square_found"],
        report["item1_no_triple_point"] == "pass",
        report["item2_no_tangency"] == "pass",
        report["item3_tangent_incidence"] == "pass",
        report["item4_tangent_tangency"] == "pass",
        report["item5_only_trivial"],
    ])
    return report
