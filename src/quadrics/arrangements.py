"""Configuration analysis of plane curves.

Intersections with exact multiplicities, tangency data, genericity
verdicts, the 18-line system attached to a quadric triple, and pencil
computations.  Intersection points are located numerically (resultant
roots with certified radii), multiplicities come from the exact
squarefree decomposition of the eliminating resultant after a coordinate
change that puts one point per fiber.  A point is exact exactly when its
fiber root is (``univariate.numeric_roots_squarefree`` recognizes it):
a point with Gaussian-rational coordinates has a Gaussian-rational fiber
root, or t = 0 or oo, under every integer change.  An exact fiber's
point comes from an exact gcd; a numeric fiber's from the first
subresultant S_k of the chain whose leading coefficient does not vanish
there, z0 = -sres_{k,k-1}/(k sres_{k,k}), once the fiber is checked
exactly to hold one point.  Where the resultant vanishes identically,
the first nonzero member of the same chain is the shared component.

Numeric predicates are three valued: pass and fail are only ever
certified (margin excludes zero, or exact arithmetic), everything else is
undecided and escalates working precision up to the configured cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np
from mpmath import libmp

from .config import DEFAULT_PRECISION, PrecisionConfig, scoped
from .linalg import (adjugate, cross, det, dot, echelon, nullspace, poly_mul, poly_sub, rank,
                     solve, trim)
from .polynomials import (Ball, HomPoly, MpForms, PrecisionExhaustedError,
                          ProjPointNum, ZeroPolynomialError, _unit_vector,
                          ball_eval, coerce_point, coord_balls,
                          excludes_zero, gauss_div, gauss_ints, gauss_mul, quadric_form,
                          resultant, subresultant, vanishes_at)
from .scalars import integral, scalar_to_complex
from .univariate import RootFindingError, binary_form_roots, uni_gcd, yun_squarefree


class CommonComponentError(ValueError):
    """The two curves share a component: ``factor``, their primitive gcd,
    with ``witness`` a point on it; finite intersection undefined."""

    def __init__(self, message="curves share a common component", witness=None,
                 factor=None):
        super().__init__(message)
        self.witness = witness
        self.factor = factor


class DegenerateIntersectionError(ValueError):
    """A quadric triple fails the smooth/transversal gate."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoValidSelectionError(ValueError):
    """No 12 of the 18 lines are in general position: s6.4 fails."""


class NotInPencilError(ValueError):
    pass


class InfinitelyManySolutionsError(ValueError):
    pass


class NoSolutionError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class SingularPointError(ValueError):
    pass


class NotOnCurveError(ValueError):
    pass


class NotExactPointError(ValueError):
    """Tangent lines are exact objects; use tangent_line_numeric instead."""


class UnsupportedFamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------

def _sup(vec):
    return max(abs(c) for c in vec)


def _unit_line(v, radius) -> "NumLine":
    """The ``NumLine`` of coefficients v (not all zero; radius refers to v)
    normalized by ``_unit_vector``: its first coefficient within 2^-40 of
    the largest modulus is made real, so rounding-level changes never
    switch between tied coefficients."""
    coeffs, s, _ = _unit_vector(v, 1 - 2.0 ** -40)
    return NumLine(coeffs, radius / s)


@dataclass
class NumLine:
    """Projective line with numeric coefficient vector and error radius."""

    vec: tuple
    radius: mp.mpf
    exact: Optional[HomPoly] = None

    @staticmethod
    def from_points(a: ProjPointNum, b: ProjPointNum) -> "NumLine":
        if a.is_exact() and b.is_exact():
            return NumLine.from_exact(HomPoly.linear_form(cross(a.exact, b.exact)))
        v = cross(a.coords, b.coords)
        if not any(v):
            raise ValueError("coincident points do not span a line")
        # a and b have sup norm 1, to a rounding the factor 4 covers
        return _unit_line(v, (a.radius + b.radius) * 4 + mp.mpf(2) ** (8 - mp.mp.prec))

    @staticmethod
    def from_exact(line: HomPoly) -> "NumLine":
        if line.is_zero:
            raise ZeroPolynomialError("the zero form is not a line")
        _, prim = line.content_primitive()
        v = tuple(Ball.exact(c, False).mid for c in prim.linear_coeffs())
        s = _sup(v)
        return NumLine(tuple(c / s for c in v), mp.mpf(0), exact=prim)

    def passes_through(self, p: ProjPointNum) -> Optional[bool]:
        """Does the line pass through p?  vanishes_at's contract: exact when
        both are exact, else False where l.p certainly excludes zero and
        None otherwise."""
        if self.exact is not None and p.is_exact():
            return self.exact.eval_exact(p.exact) == 0
        return False if excludes_zero(ball_eval(dot, self, p)) else None

    def balls(self, double: bool):
        """The coefficients as Balls (``coord_balls``); doubles cached."""
        if double:
            return self._double_balls
        return coord_balls(self.vec, self.radius, self.exact and self.exact.linear_coeffs(), False)

    @cached_property
    def _double_balls(self):
        return coord_balls(self.vec, self.radius, self.exact and self.exact.linear_coeffs(), True)


# ---------------------------------------------------------------------------
# Intersection points
# ---------------------------------------------------------------------------

@dataclass
class IntersectionRecord:
    point: ProjPointNum
    multiplicity: int
    tangential: Optional[bool]


def _coordinate_changes():
    """Deterministic sequence of unimodular changes, identity first."""
    yield ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rng = random.Random(90210)
    while True:
        a, b, c, d, e, f = (rng.randint(-4, 4) for _ in range(6))
        U = ((1, a, b), (c, 1 + a * c, d), (e, f + c * e, 1 + b * e + d * f))
        # keep only genuinely invertible integer matrices
        if det(U) != 0:
            yield U


def _apply_matrix(U, vec):
    return tuple(sum(U[i][j] * vec[j] for j in range(3)) for i in range(3))


def common_component_witness(g: HomPoly, precision) -> Optional[ProjPointNum]:
    """A point of the shared component g, so of both curves: the first
    point where g meets the first probe line that does not divide it.
    That line and g share no component, so no CommonComponentError."""
    for lc in ((1, 1, 1), (1, 2, 3), (0, 1, 1), (1, 0, 2)):
        line = HomPoly.linear_form(lc)
        try:
            g.exact_div(line)  # raises unless the line is a component of g
        except ArithmeticError:
            return intersection_points(g, line, precision=precision)[0].point
    return None


def _shared_factor(p2: HomPoly, q2: HomPoly, U) -> HomPoly:
    """gcd(p, q), primitive, from p2 = p(U z) and q2 = q(U z) whose
    resultant in z0 vanishes identically: the first nonzero subresultant
    S_d divided by its leading coefficient sres_{d,d}, the factor free of
    z0 it has over the gcd (p2 and q2 have constant leading coefficients
    in z0), mapped back by the adjugate of U."""
    d = 1
    while (chain := subresultant(p2, q2, 0, d))[0].is_zero:
        d += 1
    sd = sum((HomPoly.monomial((d - j, 0, 0)) * c for j, c in enumerate(chain)), HomPoly.zero())
    g2 = sd.exact_div(chain[0])
    return g2.compose([HomPoly.linear_form(r) for r in adjugate(U)]).content_primitive()[1]


def _fiber_points_exact(p2: HomPoly, q2: HomPoly, beta, gamma):
    """The exact z0 value over an exact fiber; None unless the fiber holds
    exactly one point.

    The common roots in z0 are those of the gcd; one point means that the
    gcd's squarefree part is a single linear Yun factor c1 z0 + c0.
    """
    pc = [f.eval_exact((0, beta, gamma)) for f in p2.coeffs_in(0)]
    qc = [f.eval_exact((0, beta, gamma)) for f in q2.coeffs_in(0)]
    parts = yun_squarefree(uni_gcd(pc, qc))
    if len(parts) != 1 or len(parts[0][0]) != 2:
        return None
    c0, c1 = parts[0][0]
    return -Fraction(c0, c1) if isinstance(c1, int) else -c0 / c1


def _at_t(form: HomPoly) -> list:
    """A form in z1, z2 on the fiber (z1 : z2) = (t : 1), a polynomial in t."""
    coeffs = [0] * (form.degree_in(1) + 1)
    for e, c in form.terms.items():
        coeffs[e[1]] = c
    return trim(coeffs)


def _fiber_lifts(parts, p2, q2, mults):
    """{multiplicity: (k, MpForms of sres_{k,k} and sres_{k,k-1})} for the
    Yun factors f (``parts``, of rho(t, 1)) with multiplicities in
    ``mults``; None when a fiber above a root of such an f cannot be lifted.

    p2 and q2 keep constant leading coefficients in z0, so above a root t
    of f the fiber's gcd is S_k(t) for the least k with sres_{k,k}(t) != 0.
    That k is common to the roots of f when sres_{k,k} is coprime to f and
    f divides every sres_{j,j}, j < k.  The fiber holds one point,
    z0 = -sres_{k,k-1}/(k s) with s = sres_{k,k}, exactly when S_k = s
    (z0 - z0(t))^k, checked mod f coefficient by coefficient:
    (k s)^k sres_{k,j} = s C(k, j) (k s)^j sres_{k,k-1}^(k-j).  S_1 is
    computed once, S_k for k >= 2 only where S_1 does not lift; the two
    members giving z0 are scaled to integers once per k.
    """
    chain: Dict[int, List[HomPoly]] = {}
    forms: Dict[int, MpForms] = {}
    out = {}
    for f, mult in parts:
        if mult not in mults:
            continue
        k = 1
        while True:
            if k not in chain:
                chain[k] = subresultant(p2, q2, 0, k)
            shared = len(uni_gcd(f, _at_t(chain[k][0])))
            if shared == 1:
                break
            if shared < len(f):
                return None  # the roots of f need different k
            k += 1
        sres = [_at_t(c) for c in reversed(chain[k])]  # sres[j] = sres_{k,j}
        ks = [k * c for c in sres[k]]
        for j in range(k - 1):
            lhs = functools.reduce(poly_mul, [ks] * k, sres[j])
            rhs = functools.reduce(poly_mul, [ks] * j + [sres[k - 1]] * (k - j),
                                   [math.comb(k, j) * c for c in sres[k]])
            if len(uni_gcd(poly_sub(lhs, rhs), f)) < len(f):
                return None  # more than one point above a root of f
        if k not in forms:
            forms[k] = MpForms(chain[k][:2])
        out[mult] = (k, forms[k])
    return out


def _lifted_point(k: int, lift: MpForms, hi, lo, U):
    """U (z0, hi, lo), z0 = -sres_{k,k-1}/(k sres_{k,k}) at (0 : hi : lo),
    as three Gaussian integers (re, im) of one representative, exactly:
    (hi, lo) = (X1, X2) 2^E on one binary exponent, and the lifted point is
    (-S1, k S X1, k S X2) with S, S1 the two members' ``lift.sums`` at
    (0, X1, X2).  None when sres_{k,k} vanishes there."""
    (_, x1, x2), _ = gauss_ints((0, hi, lo))
    s, s1 = lift.sums(((0, 0), x1, x2))
    if s == (0, 0):
        return None
    ks = (k * s[0], k * s[1])
    vec = [(-s1[0], -s1[1]), gauss_mul(ks, x1), gauss_mul(ks, x2)]
    return tuple(zip(_apply_matrix(U, [x[0] for x in vec]), _apply_matrix(U, [x[1] for x in vec])))


def _norm(x) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _abs(x, shift: int, rnd: str):
    """|x| 2^shift for a Gaussian integer x, rounded to 53 bits up ("u")
    or down ("d"), an mpf tuple: the square root of |x|^2 / 4^k, its
    bits past the first 128 dropped, is bounded by isqrt and isqrt + 1."""
    n = _norm(x)
    if not n:
        return libmp.fzero
    k = max(n.bit_length() - 128, 0) // 2
    r = math.isqrt(n >> 2 * k) + (rnd == "u")
    return libmp.from_man_exp(r, k + shift, 53, rnd)


def _max(x, y):
    return x if libmp.mpf_cmp(x, y) >= 0 else y


def _newton_polish(forms: Optional[MpForms], degrees, w, prec):
    """The point with representative w (three Gaussian integers) on its
    best affine chart, rounded once to mpc at ``prec``, and its radius.

    The chart's coordinates are fixed-point Gaussian integers z = Z / 2^F,
    with prec + 32 bits below the smallest nonzero one (F >= prec + 32).
    With ``forms`` (p, q, p's three partials and q's; ``degrees`` are
    those of p and q), Newton's iteration for p = q = 0 runs on them: the
    residuals and the Jacobian are exact (``MpForms.sums``, L times the
    forms; L cancels from every test below), so the quantization of each
    iterate is the only rounding.  The singular test
    |det J| <= max |J_ij|^2 2^(16 - prec) and the stop test
    max |dz| < 2^(16 - prec) are decided on the integers; the radius is
    res / |det J| * ||J||_inf * 8 + 2^(16 - prec), res the larger
    residual, from magnitudes rounded up at 53 bits.  Without ``forms``
    (a multiple point, where Newton's steps are noise) or at a singular
    Jacobian, the point stays where it is with the radius 2^(-prec/4)."""
    norms = [_norm(x) for x in w]
    chart = max(range(3), key=norms.__getitem__)
    a, b = (i for i in range(3) if i != chart)
    F = prec + 32 + max([(norms[chart].bit_length() - n.bit_length()) // 2 + 1
                         for n in (norms[a], norms[b]) if n] + [0])
    z = [gauss_div(x, w[chart], F) for x in w]
    radius = None
    if forms is not None:
        # The exact rows are L 2^A times p's row and L 2^B times q's,
        # A = (deg p - 1) F and B = (deg q - 1) F.  With u = max(B - A, 0)
        # and v = max(A - B, 0), the singular test squared and multiplied
        # by L^4 4^(A + B) 4^(prec - 16 + u + v) reads
        # |det|^2 4^(prec - 16 + u + v) <= max(|J_p|^4 16^u, |J_q|^4 16^v)
        # in the exact entries, |J_p| and |J_q| the largest of each row.
        dp, dq = degrees
        A, B = (dp - 1) * F, (dq - 1) * F
        u, v = max(B - A, 0), max(A - B, 0)
        which = (0, 1, 2 + a, 2 + b, 5 + a, 5 + b)
        for _ in range(30):
            f, g, pa, pb, qa, qb = forms.sums(z, which)
            det = _sub(gauss_mul(pa, qb), gauss_mul(pb, qa))
            jp, jq = max(_norm(pa), _norm(pb)), max(_norm(qa), _norm(qb))
            if _norm(det) << 2 * (prec - 16 + u + v) <= max(jp * jp << 4 * u, jq * jq << 4 * v):
                det = None  # singular at working precision: a step is noise
                break
            dx = gauss_div(_sub(gauss_mul(f, qb), gauss_mul(g, pb)), det)
            dy = gauss_div(_sub(gauss_mul(g, pa), gauss_mul(f, qa)), det)
            z[a], z[b] = _sub(z[a], dx), _sub(z[b], dy)
            if max(_norm(dx), _norm(dy)) < 1 << 2 * (16 - prec + F):
                break
        if det is not None:
            f, g = forms.sums(z, (0, 1))
            res = _max(_abs(f, -dp * F, "u"), _abs(g, -dq * F, "u"))
            jn = _max(libmp.mpf_add(_abs(pa, -A, "u"), _abs(pb, -A, "u"), 53, "u"),
                      libmp.mpf_add(_abs(qa, -B, "u"), _abs(qb, -B, "u"), 53, "u"))
            core = libmp.mpf_div(libmp.mpf_mul(res, jn, 53, "u"), _abs(det, -A - B, "d"), 53, "u")
            radius = mp.make_mpf(libmp.mpf_add(libmp.mpf_shift(core, 3),
                                               libmp.from_man_exp(1, 16 - prec), 53, "u"))
    point = tuple(mp.make_mpc((libmp.from_man_exp(x, -F, prec, "n"),
                               libmp.from_man_exp(y, -F, prec, "n"))) for x, y in z)
    return point, mp.mpf(2) ** (-prec // 4) if radius is None else radius


def intersection_points(p: HomPoly, q: HomPoly, *,
                        precision: PrecisionConfig | None = None) -> List[IntersectionRecord]:
    """All common projective zeros with exact Bezout multiplicities.

    Inside an analysis scope each (p, q, precision) is computed once, a
    shared component included.  Every call returns fresh records, so
    editing them never reaches the memo.
    """
    precision = precision or DEFAULT_PRECISION
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("intersection with zero polynomial")
    if p.degree < 1 or q.degree < 1:
        raise ValueError("components must have positive degree")
    found = scoped(("intersection_points", p, q, precision),
                   lambda: _intersection_or_shared(p, q, precision))
    if isinstance(found, CommonComponentError):
        raise CommonComponentError(witness=found.witness, factor=found.factor)
    return [replace(rec) for rec in found]


def _intersection_or_shared(p, q, precision):
    """The records, or the CommonComponentError (with the shared factor and
    a witness on it) when the curves share a component."""
    try:
        return _intersection_points(p, q, precision)
    except CommonComponentError as exc:
        return CommonComponentError(
            witness=common_component_witness(exc.factor, precision), factor=exc.factor)


def _intersection_points(p, q, precision) -> List[IntersectionRecord]:
    target = p.degree * q.degree
    last_error = None
    for prec in precision.ladder():
        with mp.workprec(prec):
            changes = _coordinate_changes()
            for _ in range(12):
                U = next(changes)
                try:
                    found = _try_intersection(p, q, U, prec, target)
                except RootFindingError:
                    found = None  # a failed solve ends this change too
                if found is not None:
                    recs = [IntersectionRecord(pt, mult, _tangential(p, q, pt, mult))
                            for pt, mult in found]
                    recs.sort(key=_record_sort_key)
                    return recs
        last_error = f"no admissible coordinate change at {prec} bits"
    raise PrecisionExhaustedError(last_error or "intersection failed")


def _try_intersection(p, q, U, prec, target):
    """(point, multiplicity) pairs after the change U; None to try the
    next change.

    Each root t of the resultant Res_{z0} gives a fiber: exact roots are
    solved by an exact gcd, numeric ones lift by the subresultant chain
    (_fiber_lifts), exactly on Gaussian integers together with U
    (_lifted_point); each numeric simple point is then polished by Newton
    on p, q and their partials, scaled to integers once per change, and a
    multiple point keeps its lift.  A fiber with more than
    one point, a Yun factor whose roots need different subresultants, a
    wrong Bezout sum or two equal points rejects the change.

    Raises CommonComponentError, carrying the shared factor, when the
    curves share a component: once both curves keep their full degree in
    z0, their leading coefficients in z0 are constants, so Res_{z0}
    vanishes identically exactly when they have a common factor.
    """
    args = [HomPoly.linear_form(U[i]) for i in range(3)]
    p2 = p.compose(args)
    q2 = q.compose(args)
    if p2.degree_in(0) != p.degree or q2.degree_in(0) != q.degree:
        return None  # projection center sits on a curve
    rho = resultant(p2, q2, 0)
    if rho.is_zero:
        raise CommonComponentError(factor=_shared_factor(p2, q2, U))
    roots, parts = binary_form_roots(rho, 1, 2, prec)
    lifts = _fiber_lifts(parts, p2, q2, {mult for _, _, mult, exact in roots if exact is None})
    if lifts is None:
        return None
    found: List[Tuple[ProjPointNum, int]] = []
    polish = None
    for hi, lo, mult, exact in roots:
        if exact is not None:
            z0 = _fiber_points_exact(p2, q2, *exact)
            if z0 is None:
                return None
            pt = ProjPointNum.from_exact(_apply_matrix(U, (z0,) + exact))
        else:
            w = _lifted_point(*lifts[mult], hi, lo, U)
            if w is None:
                return None
            if mult == 1:
                polish = polish or MpForms((p, q) + p.gradient() + q.gradient())
            # a multiple point keeps its lift
            polished, prad = _newton_polish(polish if mult == 1 else None,
                                            (p.degree, q.degree), w, prec)
            pt = ProjPointNum(polished, prad)
        found.append((pt, mult))
    if sum(mult for _, mult in found) != target:
        return None
    # one point per fiber also means all points are pairwise distinct
    for (a, _), (b, _) in itertools.combinations(found, 2):
        if a.same_point(b):
            return None
    return found


def _record_sort_key(rec: IntersectionRecord):
    """Real and imaginary parts of each coordinate in turn; a part within
    the point's radius of zero counts as zero, so the sign of a
    rounding-level imaginary part never orders a conjugate pair."""
    r = rec.point.radius._mpf_
    # on the raw parts: an exact |x| <= r, and float(x) rounded to nearest
    # (to_float's own default rounds toward zero)
    return tuple(0.0 if libmp.mpf_cmp(libmp.mpf_abs(x), r) <= 0 else libmp.to_float(x, rnd="n")
                 for cc in rec.point.coords for x in cc._mpc_)


def _tangential(p, q, point, multiplicity):
    """A multiple point is tangential when both curves are smooth there;
    None when smoothness is not certified."""
    if multiplicity < 2:
        return False
    smooth = True
    for f in (p, q):
        on = [vanishes_at(f.derivative(i), point) for i in range(3)]
        if all(on):
            smooth = False
        elif False not in on and smooth:
            smooth = None
    return smooth


# ---------------------------------------------------------------------------
# Tangent lines
# ---------------------------------------------------------------------------

def tangent_line(p: HomPoly, pt) -> HomPoly:
    """Exact tangent line grad(p)(pt) . z at an exact point of V(p)."""
    point = coerce_point(pt)
    if not point.is_exact():
        raise NotExactPointError(
            "numeric points have no exact tangent; use tangent_line_numeric")
    coords = point.exact
    if p.eval_exact(coords) != 0:
        raise NotOnCurveError(f"{point!r} is not on the curve")
    grad = [p.derivative(i).eval_exact(coords) for i in range(3)]
    if all(g == 0 for g in grad):
        raise SingularPointError(f"gradient vanishes at {point!r}")
    return HomPoly.linear_form(grad).content_primitive()[1]


def tangent_line_numeric(p: HomPoly, pt) -> NumLine:
    point = coerce_point(pt)
    if point.is_exact():
        return NumLine.from_exact(tangent_line(p, point))
    # the gradient and the coefficient mass of the nine second derivatives,
    # once per curve in an analysis scope
    gradient, hess_mass = scoped(("tangent_forms", p), lambda: (MpForms(p.gradient()), sum(
        sum(abs(scalar_to_complex(c)) for c in p.derivative(i).derivative(j).terms.values())
        for i in range(3) for j in range(3))))
    grad = gradient.values(point.coords)
    if not any(grad):
        raise SingularPointError("numerically vanishing gradient")
    return _unit_line(grad, point.radius * hess_mass * 3 + mp.mpf(2) ** (8 - mp.mp.prec))


def tangent_to_conic(line: NumLine, q: HomPoly):
    """Is the line tangent to the smooth conic?  The line is a point of
    the dual plane, on the dual conic exactly when it is tangent."""
    dual = quadric_form(q).dual
    exact = line.exact.linear_coeffs() if line.exact is not None else None
    return vanishes_at(dual, ProjPointNum(line.vec, line.radius, exact=exact))


# ---------------------------------------------------------------------------
# Configuration and genericity reports
# ---------------------------------------------------------------------------

@dataclass
class Configuration:
    """Plane-curve configuration: components with declared degrees."""

    components: List[Tuple[HomPoly, int]]
    family: Tuple[int, ...]

    @staticmethod
    def from_polys(polys: Sequence[HomPoly], family: Sequence[int] | None = None) -> "Configuration":
        fam = tuple(family) if family is not None else tuple(p.degree for p in polys)
        if len(fam) != len(polys):
            raise ValueError(
                f"family {list(fam)} does not match {len(polys)} components")
        comps = []
        for p, d in zip(polys, fam):
            if p.is_zero:
                raise ValueError("zero component")
            if p.degree == 0:
                raise ValueError(f"constant component {p}")
            if p.degree == d:
                comps.append((p, d))
            elif d == 1 and (sq := p.as_square_of_linear()) is not None:
                comps.append((sq[1], 1))  # double line enters with multiplicity one
            else:
                raise ValueError(
                    f"component of degree {p.degree} declared degree {d}")
        return Configuration(comps, fam)

    @staticmethod
    def from_json(obj) -> "Configuration":
        from .polynomials import parse_poly
        if not isinstance(obj, dict):
            raise ValueError("a configuration must be a JSON object")
        texts, family = obj["components"], obj.get("family")
        if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
            raise ValueError("components must be a list of polynomial strings")
        if family is not None and not (isinstance(family, list) and all(
                isinstance(d, int) and not isinstance(d, bool) for d in family)):
            raise ValueError("family must be a list of integer degrees")
        return Configuration.from_polys([parse_poly(s) for s in texts], family)

    def polys(self) -> List[HomPoly]:
        return [p for p, _ in self.components]

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass
class ConditionVerdict:
    status: str  # pass | fail | undecided | not_applicable
    witnesses: List[ProjPointNum] = field(default_factory=list)
    note: str = ""

    def to_json(self):
        return {
            "verdict": self.status,
            "witnesses": [
                {"point": w.to_decimal_strings(), "radius": mp.nstr(w.radius, 6)}
                for w in self.witnesses
            ],
            "note": self.note,
        }


@dataclass
class GenericityReport:
    conditions: Dict[str, ConditionVerdict] = field(default_factory=dict)
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.status in ("pass", "not_applicable")
                   for v in self.conditions.values())

    @property
    def undecided(self) -> bool:
        return any(v.status == "undecided" for v in self.conditions.values())

    def to_json(self):
        return {
            "conditions": {k: v.to_json() for k, v in sorted(self.conditions.items())},
            "metadata": dict(self.metadata),
        }


def _unseparated(test: str, cases: Dict[str, List[ProjPointNum]], bits: int) -> str:
    """An undecided note: per thing tested, how many points it was not separated from
    zero at, and the precision reached (their largest radius, the evaluation bits)."""
    return "; ".join(
        f"{test}: {what}: {len(pts)} point(s) not separated from zero (radius up to "
        f"{mp.nstr(max(pt.radius for pt in pts), 3)}, {bits}-bit evaluation)"
        for what, pts in cases.items())


def _smoothness_verdict(p: HomPoly, prec_cfg: PrecisionConfig) -> ConditionVerdict:
    if p.degree == 1:
        return ConditionVerdict("pass")
    if p.degree == 2:
        r = quadric_form(p).rank
        if r == 3:
            return ConditionVerdict("pass")
        kind = "double line" if r == 1 else "two distinct lines"
        return ConditionVerdict("fail", note=f"singular quadric (rank {r}: {kind})")
    # general degree: the three partials must have no common zero
    nz = [g for g in p.gradient() if not g.is_zero]
    if len(nz) < 2:
        return ConditionVerdict("fail", note="cone or repeated factor")
    meet, witnesses, unsure, shared = common_zero(nz, prec_cfg)
    if meet:
        return ConditionVerdict("fail", witnesses=witnesses, note=(
            "partials share a component" if shared else "singular point"))
    if meet is None:
        return ConditionVerdict("undecided", note=_unseparated("singular-point test", {
            "the third partial at common zeros of the other two": unsure},
            max(prec_cfg.start_bits, mp.mp.prec)))
    return ConditionVerdict("pass")


def _on_all(forms, point) -> Optional[bool]:
    """Do all the forms vanish at the point?  False at the first form that
    excludes it; else None when some form leaves it unseparated; else True."""
    on = True
    for f in forms:
        v = vanishes_at(f, point)
        if v is False:
            return False
        if v is None:
            on = None
    return on


def common_zero(forms: Sequence[HomPoly], precision: PrecisionConfig):
    """Do the plane forms have a common zero?  (True, False or None; the
    witnesses of True; the points left unseparated under None; whether a
    pair sharing a component decided it).

    The common zeros lie among the points of the first pair, in index
    order, that shares no component, and each is tested against the other
    forms at the points' own precision.  With at most three forms the
    first pair decides even when it shares a component: that component
    meets the third form (Bezout), and the witnesses are where it does
    (the shared component's own witness when there is no third form, or
    when the third form contains it too).  Where points stay unseparated
    and the forms are three lines and conics, ``_lines_and_conics_meet``
    decides; the common zero of a True then lies among those points,
    which become its witnesses.  Raises ValueError when every pair shares
    a component.
    """
    for a, b in itertools.combinations(range(len(forms)), 2):
        try:
            recs = intersection_points(forms[a], forms[b], precision=precision)
            break
        except CommonComponentError as exc:
            if len(forms) <= 3:
                return True, _on_shared(exc, forms[2:], precision), [], True
    else:
        raise ValueError("every pair of components shares a component")
    rest = [f for n, f in enumerate(forms) if n not in (a, b)]
    witnesses, unsure = [], []
    with mp.workprec(max(precision.start_bits, mp.mp.prec)):
        for rec in recs:
            on = _on_all(rest, rec.point)
            if on:
                witnesses.append(rec.point)
            elif on is None:
                unsure.append(rec.point)
    exact = _lines_and_conics_meet(forms) if unsure and not witnesses else None
    if exact is not None:
        return exact, unsure if exact else [], [], False
    return (True if witnesses else None if unsure else False), witnesses, unsure, False


def _on_shared(exc: CommonComponentError, rest, precision) -> list:
    """Where the component shared by the first two forms meets the rest
    (at most one form); with no rest, or a rest that contains it too, the
    component's own witness."""
    try:
        if rest:
            return [rec.point for rec in intersection_points(exc.factor, rest[0],
                                                             precision=precision)]
    except CommonComponentError as inner:
        exc = inner
    return [exc.witness] if exc.witness else []


def _lines_and_conics_meet(forms) -> Optional[bool]:
    """Do three lines and conics share a zero?  Exact: their resultant
    vanishes, a line entering as its square, since Res(l^2, F, G) =
    Res(l, F, G)^2.  None for other forms."""
    if len(forms) != 3 or any(f.degree > 2 for f in forms):
        return None
    return conics_share_a_zero(*(f ** (3 - f.degree) for f in forms))


def _pairwise_data(polys, prec_cfg):
    """All pairwise intersection records; {(i, j): [records] or error}."""
    out = {}
    for i, j in itertools.combinations(range(len(polys)), 2):
        try:
            out[(i, j)] = intersection_points(polys[i], polys[j], precision=prec_cfg)
        except CommonComponentError as exc:
            out[(i, j)] = exc
    return out


def _triple_points(polys, precision):
    """Where three components meet: one ``common_zero`` per triple
    i < j < k, in that order.  Returns ([((i, j, k), witnesses)],
    [((i, j, k), unsure points)]), the unsure points being those of
    components i and j (the pair ``common_zero`` tests a triple on) that
    component k leaves unseparated.  Computed once per analysis scope."""
    def compute():
        found, unsure = [], []
        for ijk in itertools.combinations(range(len(polys)), 3):
            meet, witnesses, points, _ = common_zero([polys[n] for n in ijk], precision)
            if meet:
                found.append((ijk, witnesses))
            elif meet is None:
                unsure.append((ijk, points))
        return found, unsure
    return scoped(("triple points", tuple(polys), precision, mp.mp.prec), compute)


def _transversality_verdict(polys, precision) -> ConditionVerdict:
    witnesses = []
    notes = []
    for (i, j), val in _pairwise_data(polys, precision).items():
        if isinstance(val, CommonComponentError):
            if val.witness is not None:
                witnesses.append(val.witness)
            notes.append(f"components {i} and {j} share the component {val.factor}")
            continue
        for rec in val:
            if rec.multiplicity >= 2:
                witnesses.append(rec.point)
                notes.append(f"non-transversal contact of {i} and {j} "
                             f"(multiplicity {rec.multiplicity})")
    triples, unsure = _triple_points(polys, precision)
    for (i, j, k), points in triples:
        witnesses.extend(points)
        notes.append(f"components {i},{j},{k} meet at one point")
    if notes:
        keys = [repr(w) for w in witnesses]
        uniq = [w for n, w in enumerate(witnesses) if keys[n] not in keys[:n]]
        return ConditionVerdict("fail", witnesses=uniq, note="; ".join(sorted(set(notes))))
    if unsure:
        cases = {f"component {k} at points of components {i} and {j}": points
                 for (i, j, k), points in unsure}
        return ConditionVerdict("undecided", note=_unseparated(
            "triple-point test", cases, max(precision.start_bits, mp.mp.prec)))
    return ConditionVerdict("pass")


def common_tangents(q1: HomPoly, q2: HomPoly, prec_cfg) -> List[ProjPointNum]:
    """Common tangent lines of two smooth conics, as dual-plane points."""
    d1, d2 = quadric_form(q1).dual, quadric_form(q2).dual
    return [rec.point for rec in intersection_points(d1, d2, precision=prec_cfg)]


def _hessian(c) -> list:
    """The Hessian H of the conic of coefficients c: its gradient is H z."""
    return [[2 * c[0], c[3], c[4]], [c[3], 2 * c[1], c[5]], [c[4], c[5], 2 * c[2]]]


def _coeffs(S) -> list:
    """The coefficients of z^T S z on ``QUADRATIC_MONOMIALS``."""
    return [S[0][0], S[1][1], S[2][2], S[0][1] + S[1][0], S[0][2] + S[2][0], S[1][2] + S[2][1]]


def _jacobian_partials(ha, hb, hd) -> list:
    """The coefficients of dJ/dz_m of J = det[ha z, hb z, hd z], the sum of
    T_pqr z_p z_q z_r with T_pqr = ha[p] . (hb[q] x hd[r]) (H symmetric)."""
    crosses = [[cross(v, w) for w in hd] for v in hb]
    T = [[[dot(u, c) for c in row] for row in crosses] for u in ha]
    return [_coeffs([[T[m][x][y] + T[x][m][y] + T[x][y][m] for y in range(3)]
                     for x in range(3)]) for m in range(3)]


def conics_share_a_zero(a: HomPoly, b: HomPoly, d1, d2=HomPoly()) -> bool:
    """Is some common zero of the conics a and b a zero of the quadratic
    forms d1 and d2 (d2 may be zero)?  Exact.  A form is a HomPoly or its
    coefficients on ``QUADRATIC_MONOMIALS``, as ``_at_contact`` gives.

    Res(a, b, d1 + t d2) is det M / 512 up to sign (Cox, Little and
    O'Shea, Using Algebraic Geometry, ch. 3 §2): M's rows, linear in t, are
    the coefficients of the forms and of their Jacobian's partials, integer
    from the forms' Hessians over Z or Z[i].  If the resultant vanishes for
    every t, a common zero of a and b serves two t, so d1 and d2 vanish
    there: the answer is rank M < 6 over Q(t), False if M(0) has rank 6,
    else from one ``echelon`` over Z[t].  Where a and b share a component
    the answer is always True."""
    c = integral([x for f in (a, b, d1, d2)
                  for x in (f.quadratic_coeffs() if isinstance(f, HomPoly) else f)])[0]
    ha, hb, h1, h2 = (_hessian(c[k:k + 6]) for k in range(0, 24, 6))
    m0 = [_coeffs(h) for h in (ha, hb, h1)] + _jacobian_partials(ha, hb, h1)
    if len(echelon([[[x] if x else [] for x in row] for row in m0])[1]) == 6:
        return False
    m1 = [[0] * 6, [0] * 6, _coeffs(h2)] + _jacobian_partials(ha, hb, h2)
    M = [[trim([x, y]) for x, y in zip(r0, r1)] for r0, r1 in zip(m0, m1)]
    return len(echelon(M)[1]) < 6


def _pole(adj, ell) -> list:
    """adj . ell: where the tangent ell touches the conic of adjugate adj."""
    return [dot(row, ell) for row in adj]


def _at_contact(f: HomPoly, adj) -> list:
    """f(adj . l) on ``QUADRATIC_MONOMIALS``, f squared if a line, times a
    positive integer (callers read its zeros): l^T K^T H K l, K and H the
    integer adj and Hessian of f (g g^T for a line g).  With a conic's
    matrix for adj, f at the conic's tangent at the point l."""
    flat = integral([x for row in adj for x in row])[0]
    cols = [flat[i::3] for i in range(3)]
    c = integral(f.linear_coeffs() if f.degree == 1 else f.quadratic_coeffs())[0]
    H = [[x * y for y in c] for x in c] if f.degree == 1 else _hessian(c)
    hk = [[dot(row, col) for row in H] for col in cols]
    return _coeffs([[dot(u, v) for v in hk] for u in cols])


def genericity_check_s4(cfg: Configuration,
                        precision: PrecisionConfig | None = None) -> GenericityReport:
    """Genericity conditions for the supported configuration families.

    Smoothness and pairwise transversality (including the no-triple-point
    clause) apply to every family; the common-tangent conditions are
    family specific and reported not_applicable elsewhere.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    polys = cfg.polys()
    report = GenericityReport()
    report.metadata["family"] = str(list(cfg.family))
    report.metadata["s4.3-interpretation"] = (
        "third quadric must not contain both tangency points; the reading "
        "'neither point' is the stricter alternative and is not used")

    verdicts = [_smoothness_verdict(p, prec_cfg) for p in polys]
    bad = [v for v in verdicts if v.status == "fail"]
    und = [f"component {i}: {v.note}" for i, v in enumerate(verdicts)
           if v.status == "undecided"]
    if bad:
        wit = [w for v in bad for w in v.witnesses]
        report.conditions["s4.1"] = ConditionVerdict(
            "fail", witnesses=wit, note="; ".join(v.note for v in bad))
    elif und:
        report.conditions["s4.1"] = ConditionVerdict("undecided", note="; ".join(und))
    else:
        report.conditions["s4.1"] = ConditionVerdict("pass")

    report.conditions["s4.2"] = _transversality_verdict(polys, prec_cfg)

    k = cfg.k

    # (3): three quadrics
    if cfg.family == (2, 2, 2):
        report.conditions["s4.3"] = _condition3_222(polys, prec_cfg)
    else:
        report.conditions["s4.3"] = ConditionVerdict("not_applicable")

    # (4): two curves of degree >= 2 plus two lines
    if k == 4 and sum(1 for d in cfg.family if d == 1) == 2:
        report.conditions["s4.4"] = _condition4_dd11(cfg, prec_cfg)
    else:
        report.conditions["s4.4"] = ConditionVerdict("not_applicable")

    # (5): one curve of degree >= 2 plus three lines
    if k == 4 and sum(1 for d in cfg.family if d == 1) == 3:
        report.conditions["s4.5"] = _condition5_d111(cfg, prec_cfg)
    else:
        report.conditions["s4.5"] = ConditionVerdict("not_applicable")

    return report


def _tangent_contact_verdict(groups, fail_note, prec_cfg) -> ConditionVerdict:
    """Fails when a common tangent of two conics touches them at points P
    and Q lying on a given pair of curves.

    ``groups`` holds (the conics' label, conic for P, conic for Q,
    [(curve for P, curve for Q), ...]).  A tangent l is a zero of both
    dual conics and touches a conic at adj . l, so ``conics_share_a_zero``
    of the duals and ``_at_contact`` of the curves decides a curve pair.
    A fail lists P and Q of each exact tangent that meets the clause
    exactly, in the tangents' order, and names a failing curve pair with
    none, whose tangent is irrational.  Singular conics, or proportional
    duals (where every input fails), leave the verdict undecided.
    """
    witnesses = []
    notes = [fail_note]
    for label, c1, c2, curve_pairs in groups:
        qf1, qf2 = quadric_form(c1), quadric_form(c2)
        if qf1.rank != 3 or qf2.rank != 3:
            return ConditionVerdict("undecided", note="needs smooth quadrics")
        if rank([qf1.dual.quadratic_coeffs(), qf2.dual.quadratic_coeffs()]) < 2:
            return ConditionVerdict("undecided", note="degenerate dual intersection")
        hits = [(fP, fQ) for fP, fQ in curve_pairs if conics_share_a_zero(
            qf1.dual, qf2.dual, _at_contact(fP, qf1.adjugate), _at_contact(fQ, qf2.adjugate))]
        if not hits:
            continue
        witnessed = set()
        for ell in common_tangents(c1, c2, prec_cfg):
            if not ell.is_exact():
                continue
            P, Q = _pole(qf1.adjugate, ell.exact), _pole(qf2.adjugate, ell.exact)
            for n, (fP, fQ) in enumerate(hits):
                if fP.eval_exact(P) == 0 and fQ.eval_exact(Q) == 0:
                    witnesses.extend([ProjPointNum.from_exact(P), ProjPointNum.from_exact(Q)])
                    witnessed.add(n)
        notes.extend(f"the common tangent of {label}"
                     + (f" with contact points on {fP} and {fQ}" if fP != fQ else "")
                     + " is irrational: no witness point"
                     for n, (fP, fQ) in enumerate(hits) if n not in witnessed)
    if len(notes) > 1 or witnesses:
        return ConditionVerdict("fail", witnesses=witnesses, note="; ".join(notes))
    return ConditionVerdict("pass")


def _condition3_222(polys, prec_cfg) -> ConditionVerdict:
    """s4.3, which is also s6.3: computed once per analysis scope."""
    groups = [(f"components {i} and {j}", polys[i], polys[j],
               [(polys[3 - i - j], polys[3 - i - j])])
              for i, j in itertools.combinations(range(3), 2)]
    return scoped(("s4.3", tuple(polys), prec_cfg, mp.mp.prec),
                  lambda: _tangent_contact_verdict(groups, "third quadric meets a common "
                                                   "tangent in both contact points", prec_cfg))


def _condition4_dd11(cfg, prec_cfg) -> ConditionVerdict:
    polys = cfg.polys()
    (i1, c1), (i2, c2) = ((i, polys[i]) for i, (_, d) in enumerate(cfg.components) if d >= 2)
    if c1.degree != 2 or c2.degree != 2:
        return ConditionVerdict("undecided",
                                note="implemented for quadric components only")
    l3, l4 = (polys[i] for i, (_, d) in enumerate(cfg.components) if d == 1)
    return _tangent_contact_verdict(
        [(f"components {i1} and {i2}", c1, c2, [(l3, l4), (l4, l3)])],
        "common tangent contact points lie on the two lines", prec_cfg)


def _condition5_d111(cfg, prec_cfg) -> ConditionVerdict:
    """Fails when a tangent l through the meet X of two lines touches the
    conic on the third, l_c: then l . X = 0 = l . (adj . l_c), so l is
    X x (adj . l_c), and either l = 0 (X is the pole of l_c) or the dual
    conic vanishes at l.  Witnesses as in ``_tangent_contact_verdict``."""
    polys = cfg.polys()
    curve_idx = next(i for i, (_, d) in enumerate(cfg.components) if d >= 2)
    curve = polys[curve_idx]
    if curve.degree != 2:
        return ConditionVerdict("undecided",
                                note="implemented for a quadric component only")
    qf = quadric_form(curve)
    if qf.rank != 3:
        # a singular conic's tangents through a point have no contact point
        return ConditionVerdict("undecided", note="needs a smooth quadric")
    lines = [p for i, p in enumerate(polys) if i != curve_idx]
    witnesses = []
    notes = ["tangent through a line intersection touches the curve on the third line"]
    for a, b in itertools.combinations(range(3), 2):
        c = 3 - a - b
        X = cross(lines[a].linear_coeffs(), lines[b].linear_coeffs())
        if all(x == 0 for x in X):
            continue  # identical lines; condition 2 already failed
        ell = cross(X, _pole(qf.adjugate, lines[c].linear_coeffs()))
        if any(x != 0 for x in ell) and qf.dual.eval_exact(ell) != 0:
            continue
        # the tangents through X: the dual conic cut by the dual line X
        tangents = intersection_points(qf.dual, HomPoly.linear_form(X), precision=prec_cfg)
        poles = [_pole(qf.adjugate, rec.point.exact) for rec in tangents if rec.point.is_exact()]
        found = [ProjPointNum.from_exact(P) for P in poles if lines[c].eval_exact(P) == 0]
        if not found:
            notes.append(f"the tangent through the meet of {lines[a]} and {lines[b]} "
                         "is irrational: no witness point")
        witnesses.extend(found)
    if len(notes) > 1 or witnesses:
        return ConditionVerdict("fail", witnesses=witnesses, note="; ".join(notes))
    return ConditionVerdict("pass")


# ---------------------------------------------------------------------------
# Line systems of a quadric triple
# ---------------------------------------------------------------------------

PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
GROUPS = ((0, 1), (0, 2), (1, 2))  # the quadric pairs, in canonical order


@dataclass
class LineInfo:
    """One of the 18 lines: which pair of intersection points spans it."""

    group: Tuple[int, int]
    pairing: int
    point_ids: Tuple[int, int]
    line: NumLine

    def label(self) -> str:
        return f"L{self.group[0]}{self.group[1]}.{self.pairing}.{self.point_ids}"


@dataclass
class LineSystem:
    quadrics: Tuple[HomPoly, HomPoly, HomPoly]
    points: Dict[Tuple[int, int], List[ProjPointNum]]
    groups: Dict[Tuple[int, int], List[LineInfo]]
    precision: PrecisionConfig

    @property
    def precision_bits(self) -> int:
        return self.precision.start_bits

    def all_lines(self) -> List[LineInfo]:
        out = []
        for g in GROUPS:
            out.extend(self.groups[g])
        return out

    def to_json(self):
        return {
            "groups": {
                f"L{g[0] + 1}{g[1] + 1}": [
                    {
                        "pairing": li.pairing,
                        "points": list(li.point_ids),
                        "coefficients": [mp.nstr(c, 30) for c in li.line.vec],
                        "exact": str(li.line.exact) if li.line.exact is not None else None,
                    }
                    for li in lines
                ]
                for g, lines in self.groups.items()
            },
            "intersection_points": {
                f"{g[0] + 1},{g[1] + 1}": [
                    {"point": p.to_decimal_strings(), "radius": mp.nstr(p.radius, 6)}
                    for p in pts
                ]
                for g, pts in self.points.items()
            },
            "precision_bits": self.precision_bits,
        }


def build_line_system(q1: HomPoly, q2: HomPoly, q3: HomPoly,
                      precision: PrecisionConfig | None = None) -> LineSystem:
    """The 18 lines through pairwise intersection points, grouped by pair."""
    prec_cfg = precision or DEFAULT_PRECISION
    polys = [q1, q2, q3]
    points: Dict[Tuple[int, int], List[ProjPointNum]] = {}
    groups: Dict[Tuple[int, int], List[LineInfo]] = {}
    for i, j in GROUPS:
        recs = intersection_points(polys[i], polys[j], precision=prec_cfg)
        if len(recs) != 4 or any(r.multiplicity != 1 for r in recs):
            raise DegenerateIntersectionError(
                f"components {i} and {j} do not meet in 4 simple points")
        pts = [r.point for r in recs]
        points[(i, j)] = pts
        lines = []
        for pidx, pairing in enumerate(PAIRINGS):
            for (a, b) in pairing:
                lines.append(LineInfo((i, j), pidx, (a, b),
                                      NumLine.from_points(pts[a], pts[b])))
        groups[(i, j)] = lines
    return LineSystem((q1, q2, q3), points, groups, prec_cfg)


def genericity_check_s6(q1: HomPoly, q2: HomPoly, q3: HomPoly,
                        precision: PrecisionConfig | None = None
                        ) -> Tuple[GenericityReport, LineSystem]:
    """Line-system genericity of a quadric triple, and its line system,
    built once at the start precision.

    Conditions: smoothness, pairwise transversality (4 simple points per
    pair), the common-tangent condition, and the 18-line concurrency
    pattern: exactly 3 lines through each of the 12 pairwise intersection
    points, never 3 through any other point, decided exactly
    (``_condition4_verdict``).  Raises DegenerateIntersectionError
    (carrying the partial report) when the smooth/transversal gate fails.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    report = GenericityReport()
    ranks = [quadric_form(q).rank for q in (q1, q2, q3)]
    if all(r == 3 for r in ranks):
        report.conditions["s6.1"] = ConditionVerdict("pass")
    else:
        report.conditions["s6.1"] = ConditionVerdict(
            "fail", note=f"ranks {ranks}")
        raise DegenerateIntersectionError("singular quadric in triple", report)

    with mp.workprec(prec_cfg.start_bits):
        try:
            ls = build_line_system(q1, q2, q3, prec_cfg)
        except (DegenerateIntersectionError, CommonComponentError) as exc:
            report.conditions["s6.2"] = ConditionVerdict("fail", note=str(exc))
            raise DegenerateIntersectionError(str(exc), report)
    report.conditions["s6.2"] = ConditionVerdict("pass")
    report.conditions["s6.4"] = _condition4_verdict(ls)
    report.conditions["s6.3"] = _condition3_222([q1, q2, q3], prec_cfg)
    return report, ls


def _poly_sum(terms) -> list:
    out = []
    for t in terms:
        out = poly_sub(out, [-c for c in t])
    return out


def _adjugate_det(N):
    """adj N and det N of a 3x3 matrix over Z[x]: adj's columns are the
    rows' cross products, and det N = r0 . (r1 x r2)."""
    cols = [[poly_sub(poly_mul(a[i], b[j]), poly_mul(a[j], b[i]))
             for i, j in ((1, 2), (2, 0), (0, 1))]
            for a, b in ((N[1], N[2]), (N[2], N[0]), (N[0], N[1]))]
    adj = [[col[i] for col in cols] for i in range(3)]
    return adj, _poly_sum(poly_mul(x, y) for x, y in zip(N[0], cols[0]))


def _pencil_cubics(polys):
    """Per pencil (i, j) of GROUPS: the conics' matrices M_i and M_j as
    their Hessians over Z (Z[i] for Gaussian input), adj(M_i + x M_j) and
    the cubic det(M_i + x M_j), dense lists over Z[x]."""
    c = integral([x for q in polys for x in q.quadratic_coeffs()])[0]
    mats = [_hessian(c[k:k + 6]) for k in range(0, 18, 6)]
    return {(i, j): (mats[i], mats[j], *_adjugate_det(
        [[trim([x, y]) for x, y in zip(ri, rj)] for ri, rj in zip(mats[i], mats[j])]))
        for i, j in GROUPS}


def _pencil_concurrencies(polys) -> List[str]:
    """A note for each of (A) and (B) of ``_condition4_verdict`` that fails."""
    pencils = _pencil_cubics(polys)
    notes = []
    for X, Y in itertools.permutations(GROUPS, 2):
        _, _, adj, c_x = pencils[X]
        # F0 + y F1 = tr(N_Y(y) adj N_X(x)), both matrices symmetric
        f0, f1 = (_poly_sum([M[i][j] * c for c in adj[i][j]]
                            for i in range(3) for j in range(3)) for M in pencils[Y][:2])
        powers0, powers1 = [[1]], [[1]]
        for _ in range(3):
            powers0.append(poly_mul(powers0[-1], [-c for c in f0]))
            powers1.append(poly_mul(powers1[-1], f1))
        res = _poly_sum(poly_mul([c], poly_mul(powers0[k], powers1[3 - k]))
                        for k, c in enumerate(pencils[Y][3]))
        if len(uni_gcd(c_x, res)) > 1:
            notes.append(f"a vertex of pencil ({X[0]},{X[1]}) lies on a member of "
                         f"pencil ({Y[0]},{Y[1]}): no witness point")
    c01, c02, c12 = (pencils[g][3] for g in GROUPS)
    # Sylvester's matrix of c12(u) and c02(-t u) in u, entries over Z[t]
    rows = ([[c] if c else [] for c in reversed(c12)],
            [[0] * k + [(-1) ** k * c] if c else [] for k, c in reversed(list(enumerate(c02)))])
    sylvester = [[[]] * r + row + [[]] * (2 - r) for row in rows for r in range(3)]
    if len(uni_gcd(c01, echelon(sylvester)[0][5][5])) > 1:
        notes.append("members of pencils (0,1), (0,2) and (1,2) meet at one point: "
                     "no witness point")
    return notes


def _condition4_verdict(ls: LineSystem) -> ConditionVerdict:
    """s6.4: the 18 lines meet only three at a time, at the 12
    intersection points.  Exact, once per line system in an analysis
    scope.

    Let M0, M1, M2 be the conics' matrices, smooth (s6.1), each pair
    meeting in 4 simple points (s6.2), and c01(t) = det(M0 + t M1),
    c02(s) = det(M0 + s M2), c12(u) = det(M1 + u M2).  The 18 lines are
    the components of the 9 singular members of the three pencils, line
    pairs of rank 2 through the pencil's 4 base points, no three of them
    collinear; the roots are nonzero.  s6.4 fails iff

    - the three conics meet at one point (``_triple_points``).  It lies
      on every member, so lines of the other pencils pass through it
      besides its own three.  Conversely, a line of pencil X through a
      base point of pencil Y, or in members of both, meets the conic X
      and Y share where the other two conics vanish as well;
    - (A) a vertex of a member of pencil X = (i, j) lies on a member of
      pencil Y = (k, l), X != Y.  For symmetric N of rank 2, adj N is a
      multiple of v v^T with v its vertex, so tr(N_Y(y) adj N_X(x)) =
      F0(x) + y F1(x) vanishes at a root pair exactly then; eliminating y,
      gcd(c_X(x), sum_k c_Y,k (-F0)^k F1^(3-k)) != 1;
    - (B) three members, one per pencil, share a zero P.  If Q2(P) = 0, P
      is a triple point; otherwise s = -t u.  Conversely, if s = -t u,
      Q0 + s Q2 = (Q0 + t Q1) - t (Q1 + u Q2) passes through the 4 points
      where the other two members meet: gcd(c01(t), Res_u(c12(u),
      c02(-t u))) != 1, the resultant from one ``echelon`` over Z[t].

    Three concurrent lines not of one point come from one pencil (which
    takes three collinear base points), from two (two lines of one member
    meet at its vertex: (A); of two members, at a base point: a triple
    point) or from all three: (B) or a triple point.  Scaling a matrix
    rescales its pencils' parameters and keeps s = -t u, so integer
    multiples serve.  A triple point decides alone, with its witnesses;
    (A) and (B) are tested only without one, and give no witness point.
    Raises DegenerateIntersectionError when a conic is singular.
    """
    def decide():
        polys = list(ls.quadrics)
        if any(quadric_form(q).rank < 3 for q in polys):
            raise DegenerateIntersectionError("singular quadric in triple")
        found, _ = _triple_points(polys, ls.precision)
        if found:
            return ConditionVerdict("fail", witnesses=[w for _, pts in found for w in pts],
                                    note="the three conics meet at one point")
        notes = _pencil_concurrencies(polys)
        return ConditionVerdict("fail", note="; ".join(notes)) if notes else \
            ConditionVerdict("pass")
    return scoped(("s6.4", ls.quadrics, ls.precision), decide)


def select_general_position(ls: LineSystem) -> List[LineInfo]:
    """The 12-line selection in general position that drops pairing 0 of
    each pair.  When s6.4 passes (``_condition4_verdict``) no two of the
    18 lines coincide and three meet only at one of the 12 points, whose
    three own lines lie in the three pairings of its pair; dropping one
    pairing per pair leaves two of them, so every such selection is in
    general position, and the first in the canonical order is returned.
    Raises NoValidSelectionError when s6.4 fails."""
    verdict = _condition4_verdict(ls)
    if verdict.status != "pass":
        raise NoValidSelectionError(
            f"no 12-line selection is in general position: {verdict.note}")
    return [li for li in ls.all_lines() if li.pairing != 0]


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------

def pencil_membership(l1: HomPoly, l2: HomPoly, q1: HomPoly, q2: HomPoly):
    """Exact scalars (a, b) with l1*l2 = a*q1 + b*q2."""
    if l1.degree != 1 or l2.degree != 1:
        raise ValueError("l1, l2 must be linear forms")
    cols = [q1.quadratic_coeffs(), q2.quadratic_coeffs()]
    if rank(cols) < 2:
        raise ValueError("q1, q2 must be linearly independent")
    sol = solve([[cols[0][r], cols[1][r]] for r in range(6)], (l1 * l2).quadratic_coeffs())
    if sol is None:
        raise NotInPencilError("product of lines is not in the pencil")
    return sol[0], sol[1]


def contact_classification(q1: HomPoly, q2: HomPoly,
                           precision: PrecisionConfig | None = None) -> str:
    """four-simple | two-tangential | one-point | other."""
    mults = sorted(r.multiplicity for r in intersection_points(q1, q2, precision=precision))
    return {(1, 1, 1, 1): "four-simple", (2, 2): "two-tangential",
            (4,): "one-point"}.get(tuple(mults), "other")


# ---------------------------------------------------------------------------
# Morphisms and hypothesis counts
# ---------------------------------------------------------------------------

@dataclass
class MorphismDescriptor:
    components: tuple
    powers: tuple
    degree: int
    is_morphism: bool
    certified: bool
    witness: Optional[ProjPointNum]


def composite_morphism(p1: HomPoly, p2: HomPoly, p3: HomPoly,
                       powers: Tuple[int, int, int],
                       precision: PrecisionConfig | None = None) -> MorphismDescriptor:
    """Does [p1^a1 : p2^a2 : p3^a3] define a morphism of the plane?

    True exactly when the three forms have no common projective zero;
    powers only need to equalize the degrees.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    comps = (p1, p2, p3)
    for p in comps:
        if p.is_zero:
            raise ZeroPolynomialError("zero component")
    degs = {p.degree * a for p, a in zip(comps, powers)}
    if len(degs) != 1:
        raise DegreeMismatchError(f"component degrees {sorted(degs)} differ")
    meet, witnesses, _, _ = common_zero(comps, prec_cfg)
    return MorphismDescriptor(comps, tuple(powers), degs.pop(), not meet, meet is not None,
                              witness=witnesses[0] if witnesses else None)


def cor31_hypothesis_check(cfg: Configuration,
                           precision: PrecisionConfig | None = None):
    """Distinct points of each component's intersection with the others.

    Returns a list of dicts with the count and a pass flag (>= 3).
    """
    prec_cfg = precision or DEFAULT_PRECISION
    polys = cfg.polys()
    pairwise = _pairwise_data(polys, prec_cfg)
    out = []
    for i in range(len(polys)):
        pts: List[ProjPointNum] = []
        shared_component = False
        for (a, b), val in pairwise.items():
            if i not in (a, b):
                continue
            if isinstance(val, CommonComponentError):
                shared_component = True
                continue
            for rec in val:
                if not any(rec.point.same_point(p) for p in pts):
                    pts.append(rec.point)
        count = len(pts) if not shared_component else None
        out.append({
            "component": i,
            "distinct_points": count,
            "shared_component": shared_component,
            "pass": (count is not None and count >= 3),
            "points": pts,
        })
    return out


# ---------------------------------------------------------------------------
# Contact obstruction report
# ---------------------------------------------------------------------------

def _square_vector(line: NumLine):
    """The square of the line's form on ``QUADRATIC_MONOMIALS``."""
    v = line.vec
    return [v[0] * v[0], v[1] * v[1], v[2] * v[2],
            2 * v[0] * v[1], 2 * v[0] * v[2], 2 * v[1] * v[2]]


def _contact_span(q2: HomPoly, ta: NumLine, q3: HomPoly, tb: NumLine):
    """Rank of [Q2, Ta^2, Q3, Tb^2] on the quadratic monomials, and a detail.

    Exact when both tangents are: below rank 4 the detail is a form in
    both spans.  Otherwise the rank is 4, or None with the smallest
    singular value when the SVD does not separate it from rank < 4.
    """
    if ta.exact is not None and tb.exact is not None:
        sa, sb = ta.exact * ta.exact, tb.exact * tb.exact
        rows = [f.quadratic_coeffs() for f in (q2, sa, q3, sb)]
        r = rank(rows)
        if r == 4:
            return r, None
        al, be = nullspace([[rows[i][c] for i in range(4)] for c in range(6)])[0][:2]
        return r, str(q2.scale(al) + sa.scale(be))
    rows = [q2.quadratic_coeffs(), _square_vector(ta),
            q3.quadratic_coeffs(), _square_vector(tb)]
    A = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
    s = np.linalg.svd(A, compute_uv=False)
    # uncertified: this fixed cut alone decides a numeric rank 4 (pass)
    if s[-1] > 1e-9 * max(s[0], 1.0):
        return 4, None
    return None, float(s[-1])


def contact_obstruction_check(cfg: Configuration,
                              precision: PrecisionConfig | None = None):
    """Exclusion clauses for a line-plus-two-quadrics or quadric-triple
    configuration.

    Clause e: some pair of components is tangent somewhere.
    Clause g: a tangent at an intersection point with the first component
              is tangent to the other smooth quadric.
    Clause f: for a pair of contact candidates (p', p'') the spans
              {Q2, T'^2} and {Q3, T''^2} intersect nontrivially; reported
              as a potential obstruction with the candidate quadric.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    polys = cfg.polys()
    if cfg.k != 3:
        raise UnsupportedFamilyError("three components required")
    degs = [d for _, d in cfg.components]
    if sorted(degs) == [1, 2, 2]:
        first = degs.index(1)
    elif degs == [2, 2, 2]:
        first = 0
    else:
        raise UnsupportedFamilyError(f"family {tuple(degs)} not covered")
    others = [i for i in range(3) if i != first]
    g1 = polys[first]
    g2, g3 = polys[others[0]], polys[others[1]]

    report: Dict[str, ConditionVerdict] = {}

    # clause e: pairwise tangency; a shared component is tangential too
    pairs = _pairwise_data(polys, prec_cfg)
    shared = any(isinstance(recs, CommonComponentError) for recs in pairs.values())
    witnesses = [r.point for recs in pairs.values()
                 if not isinstance(recs, CommonComponentError)
                 for r in recs if r.multiplicity >= 2]
    tangential = shared or bool(witnesses)
    report["e"] = ConditionVerdict(
        "fail" if tangential else "pass", witnesses=witnesses,
        note="tangential contact present" if tangential else "")

    # (point, tangent of g2 or g3 there) at its intersections with the first
    # component; each tangent is exact when its point is
    t2, t3 = ([(r.point, tangent_line_numeric(quad, r.point))
               for r in intersection_points(g1, quad, precision=prec_cfg)] for quad in (g2, g3))

    # clause g, numerically first; where that finds no witness, an order
    # with an unseparated tangent is decided exactly: the tangent to quad at
    # P is M . P, which touches the other conic iff its dual vanishes there
    orders = [(quad, other, [(pt, tangent_to_conic(line, other)) for pt, line in ts])
              for ts, quad, other in ((t2, g2, g3), (t3, g3, g2))]
    g_wit = [pt for _, _, touch in orders for pt, t in touch if t]
    notes = ["tangent at a contact point touches the other quadric"]
    for quad, other, touch in ([] if g_wit else orders):
        if any(t is None for _, t in touch) and _lines_and_conics_meet(
                (g1, quad, HomPoly.quadratic_form(
                    _at_contact(quadric_form(other).dual, quadric_form(quad).matrix)))):
            notes.append(f"the tangent to {quad} at a point of {g1} that touches {other} "
                         "is irrational: no witness point")
    touches = bool(g_wit) or len(notes) > 1
    report["g"] = ConditionVerdict("fail" if touches else "pass", witnesses=g_wit,
                                   note="; ".join(notes) if touches else "")

    # clause f: span intersection test, exact on exact tangents
    f_entries = []
    failed = potential = False
    for (pa, ta), (pb, tb) in itertools.product(t2, t3):
        r, detail = _contact_span(g2, ta, g3, tb)
        if r is None:
            f_entries.append({"pair": (repr(pa), repr(pb)), "smallest_singular_value": detail,
                              "candidate": None})
            potential = True
        elif r < 4:
            f_entries.append({"pair": (repr(pa), repr(pb)), "rank": r, "candidate": detail})
            failed = True
    if failed:
        report["f"] = ConditionVerdict(
            "fail", note="span intersection nontrivial: obstruction candidate exists")
    elif potential:
        report["f"] = ConditionVerdict(
            "undecided", note="numeric span intersection: potential obstruction, "
                              "not a proof of failure")
    else:
        report["f"] = ConditionVerdict("pass")
    rep = GenericityReport(conditions=report)
    rep.metadata["f_entries"] = repr(f_entries)
    return rep


# ---------------------------------------------------------------------------
# Shared solver: common zeros of a system of ternary quadratic forms
# ---------------------------------------------------------------------------

def common_zeros_of_quadratic_system(forms: Sequence[HomPoly],
                                     precision: PrecisionConfig | None = None
                                     ) -> List[ProjPointNum]:
    """All projective common zeros of a system of forms of degree <= 2.

    Pairs of deterministic generic combinations are intersected and the
    candidates filtered through every form.  Persistent common components
    across combinations signal a positive-dimensional solution set, which
    is reported, not enumerated.  Every returned point is exact: a
    candidate is exact exactly when its fiber root is (see the module
    docstring), a candidate that some form excludes is dropped, and one
    that no form excludes and some form leaves undecided ends the solve
    with ``PrecisionExhaustedError``.
    """
    prec_cfg = precision or DEFAULT_PRECISION
    live = [f for f in forms if not f.is_zero]
    if not live:
        raise InfinitelyManySolutionsError("every form vanishes identically")
    if rank([f.quadratic_coeffs() for f in live]) == 1:
        raise InfinitelyManySolutionsError(
            "a single independent form has a curve of zeros")
    rng = random.Random(421731)
    failures = 0
    attempts = 0
    while attempts < 40:
        attempts += 1
        lam = [rng.randint(1, 99) for _ in live]
        mu = [rng.randint(1, 99) for _ in live]
        qa = HomPoly.zero()
        qb = HomPoly.zero()
        for l, m_, f in zip(lam, mu, live):
            qa = qa + f.scale(l)
            qb = qb + f.scale(m_)
        if qa.is_zero or qb.is_zero or qa.degree < 1 or qb.degree < 1:
            continue
        try:
            recs = intersection_points(qa, qb, precision=prec_cfg)
        except CommonComponentError:
            failures += 1
            if failures >= 8:
                raise InfinitelyManySolutionsError(
                    "generic combinations keep sharing components; "
                    "the solution set is positive dimensional")
            continue
        except (PrecisionExhaustedError, ZeroPolynomialError):
            continue
        sols = []
        for rec in recs:
            on = _on_all(live, rec.point)
            if on is not False:
                if on is None:
                    # every generic pair passes through a common zero, so
                    # no other pair can separate this candidate
                    raise PrecisionExhaustedError(
                        "a candidate common zero is excluded by no form, and some form is "
                        f"not separated from zero there ({mp.mp.prec}-bit evaluation, point "
                        f"radius {mp.nstr(rec.point.radius, 3)})")
                if not any(rec.point.same_point(s_) for s_ in sols):
                    sols.append(rec.point)
        return sols
    raise PrecisionExhaustedError("quadratic system solver exhausted attempts")
