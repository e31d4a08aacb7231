"""Numerical value-distribution engine for entire curves.

Curves are tuples of exponential sums  sum_m c_m(xi) e^{Q_m(xi)},  with
c_m and Q_m Gaussian-rational coefficient tuples, so degeneracy questions
(a divisor containing the curve, linear relations among components) are
decided exactly while growth and counting data are computed numerically.

The characteristic is the sup-norm circle mean of log|f| normalized at
the disk center:

    T(f, r) = (1/2pi) int max_j log|f_j(r e^{i t})| dt  -  max_j log|f_j(0)|

which vanishes for constant curves, is exactly scale invariant, and
reproduces the classical closed forms (T([1:e^xi], r) = r/pi) without an
O(1) offset.  T needs every component to be one term c e^{Q(xi)} with a
constant c; the integrand is then a maximum of trigonometric polynomials
in t, and T is summed in closed form on the arcs between its kinks.  Sum
components serve counting and the exact degeneracy tests only.
Zeros of a sum of one term, or of two terms with constant coefficients
whose exponents differ by a linear polynomial, come in closed form with a
proved radius each.  Other sums are counted by integer winding numbers
on a quadtree of rectangles, searched level by level so that each
refinement round evaluates g and g' on the contours of many cells at
once, then Newton polishing, each step reading g and g' off one
evaluation of g's terms.  The root cell is taken whole when it holds as
many zeros polished from the closed-form zeros of g's two-term pairs as
its winding, and any cell of 1 to _POWER_SUMS zeros when its contour's
power sums give zeros that polish to zeros in it; otherwise it splits
(small boxes confirm two or more zeros taken either way).

Inside an analysis scope each T(r) and counting sample is computed once
per curve, so the growth checks of one run share them; the T(r) of all
of a run's radii come from one pass over (radii x arcs) arrays.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .config import DEFAULT_PRECISION, scoped, scoped_many
from .linalg import nullspace, poly_mul, poly_sub, rank, trim
from .polynomials import HomPoly
from .scalars import (GaussRat, coerce_scalar, parse_scalar_string,
                      scalar_to_complex)
from .univariate import _c2mpc, _derivative, companion_eigenvalues, dehomogenize, uni_gcd


class QuadratureFailureError(ArithmeticError):
    pass


class DivisorContainsCurveError(ValueError):
    pass


class ZeroOnContourError(ArithmeticError):
    pass


class InsufficientSpanError(ValueError):
    pass


class DegenerateCurveError(ValueError):
    pass


class NotGeneralPositionError(ValueError):
    pass


class NotAMorphismError(ValueError):
    pass


class SumComponentError(ValueError):
    """T(r) was asked of a curve with a component that is not c e^{Q}."""


class CertificateRangeError(ArithmeticError):
    """X, 9X or 8X of the three-quadrics certificate is beyond the double
    range."""


class CoefficientRangeError(ArithmeticError):
    """A nonzero coefficient of a sum or exponent has no finite nonzero double."""


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------

class _Coeffs(tuple):
    coeffs = property(lambda self: self)  # the name perfbench's tracer reads


def _canonical(p: Sequence) -> tuple:
    return _Coeffs(trim([coerce_scalar(c) for c in p]))


def _plus(a: Sequence, b: Sequence) -> list:
    return poly_sub(list(a), [-c for c in b])


def _doubles(p: Sequence) -> tuple:
    """The coefficients of p as Python complex numbers, highest power
    first, for Horner; p[-1] != 0.  Raises CoefficientRangeError where a
    nonzero one over- or underflows."""
    try:
        out = tuple(complex(scalar_to_complex(c)) for c in reversed(p))
    except OverflowError:
        out = (0j,)
    if any(c and not z for c, z in zip(reversed(p), out)):
        raise CoefficientRangeError(
            "a coefficient of the exponential sum lies beyond the range of a double")
    return out


class ExpSum:
    """Finite sum of c_m(xi) * exp(Q_m(xi)) with exact polynomial data:
    ``terms`` pairs (c_m, Q_m) of canonical coefficient tuples, low to high,
    one per exponent, in the order in which each exponent first came with
    a nonzero coefficient (``_scaled`` sums the terms in that order)."""

    __slots__ = ("terms", "_py_cache", "_dp_cache")

    def __init__(self, terms: Sequence[Tuple[Sequence, Sequence]]):
        combined: Dict[tuple, list] = {}
        for coeff, expo in terms:
            if any(coeff):
                k = _canonical(expo)
                combined[k] = _plus(combined.get(k, []), coeff)
        self.terms = tuple((c, k) for k, v in combined.items() if (c := _canonical(v)))
        self._py_cache = self._dp_cache = None

    @staticmethod
    def constant(c) -> "ExpSum":
        return ExpSum([([c], [])])

    @staticmethod
    def exponential(expo_coeffs) -> "ExpSum":
        return ExpSum([([1], expo_coeffs)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        out = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                out.append((poly_mul(c1, c2), _plus(e1, e2)))
        return ExpSum(out)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum(list(self.terms) + list(other.terms))

    def __pow__(self, n: int) -> "ExpSum":
        out = ExpSum.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "ExpSum":
        return ExpSum([(_plus(_derivative(c), poly_mul(c, _derivative(e))), e)
                       for c, e in self.terms])

    # -- numeric evaluation -------------------------------------------------

    def _scaled(self, xi, derivative):
        """The value at xi as e^M * h, M the largest real part of an exponent,
        and, with derivative, the derivative as e^M * h' (else None).

        The one evaluator of the sum: xi is a Python complex or an ndarray,
        and the same Horner loops over the cached Python coefficients run
        on either, so a single point never becomes a 1-point array.  A
        point with finite exponents ends in plain Python floats: M is the
        first largest real part, as max picks it, and h the sum of the
        v e^(q - M) from the first term, left to right, through cmath.  An
        array, or a point with an exponent that is not finite, ends in
        numpy with the same operations in the same order.  On either tail
        h' sums each term's coefficient c' + c Q' at xi times the same
        e^(q - M), so g' costs one Horner loop per term and no
        exponential; those coefficients are cached on the first call that
        asks for g'.
        Factoring out e^M keeps h of moderate size where the value itself
        would overflow.  The empty sum gives M = -inf and h = h' = 0.
        """
        if self._py_cache is None:
            self._py_cache = tuple((_doubles(cp), _doubles(ep)) for cp, ep in self.terms)
        if derivative and self._dp_cache is None:
            self._dp_cache = tuple(  # c' + c Q' of each term
                _doubles(_canonical(_plus(_derivative(cp), poly_mul(cp, _derivative(ep)))))
                for cp, ep in self.terms)
        vals = []
        for cs, es in self._py_cache:
            q = 0j
            for c in es:
                q = q * xi + c
            v = 0j
            for c in cs:
                v = v * xi + c
            vals.append((v, q))
        if isinstance(xi, complex) and all(cmath.isfinite(q) for _, q in vals):
            M = max((q.real for _, q in vals), default=-math.inf)
            scales, zero = [cmath.exp(q - M) for _, q in vals], 0j
        else:
            M = -math.inf
            for _, q in vals:
                M = np.maximum(M, q.real)
            # 0j * xi gives the empty sum the shape of xi
            scales, zero = [np.exp(q - M) for _, q in vals], 0j * xi
        # left to right from the first term
        parts = [v * e for (v, _), e in zip(vals, scales)] or [zero]
        h = sum(parts[1:], parts[0])
        if not derivative:
            return M, h, None
        dparts = []
        for ds, e in zip(self._dp_cache, scales):
            d = 0j
            for c in ds:
                d = d * xi + c
            dparts.append(d * e)
        dparts = dparts or [zero]
        return M, h, sum(dparts[1:], dparts[0])

    def logeval(self, xi):
        """log|value|, phase, okmask and log|derivative| on a 1-d array of
        points, from one evaluation.

        okmask is False where the value underflows to zero.
        """
        M, h, hd = self._scaled(np.atleast_1d(np.asarray(xi, dtype=complex)), True)
        absh = np.abs(h)
        ok = absh > 1e-280
        logabs = np.where(ok, M + np.log(np.maximum(absh, 1e-300)), -np.inf)
        return logabs, np.angle(h), ok, M + np.log(np.maximum(np.abs(hd), 1e-300))

    def logabs_grid(self, xi):
        """log|value| on an ndarray (phase-free)."""
        M, h, _ = self._scaled(np.asarray(xi, dtype=complex), False)
        return M + np.log(np.maximum(np.abs(h), 1e-300))


def _log_value(es: ExpSum, xi: complex) -> complex:
    """Complex log of the value at one point: log|value| + i * phase."""
    M, h, _ = es._scaled(xi, False)
    if h == 0:
        return complex(-math.inf, 0.0)
    return complex(M + math.log(abs(h)), cmath.phase(h))


# ---------------------------------------------------------------------------
# Entire curves
# ---------------------------------------------------------------------------

class ExpCurve:
    """Entire curve with exponential-sum components.

    The standard constructor takes exponent polynomials (one list of
    coefficients per component, index = power of xi), producing the curve
    [e^{P_0} : ... : e^{P_n}].  Sum components serve counting and the
    degeneracy tests, not T(r).  A curve compares by identity, which is
    how an analysis scope keys what characteristic() and counting()
    computed on it.
    """

    def __init__(self, components: Sequence[ExpSum]):
        comps = tuple(components)
        if any(c.is_zero for c in comps):
            raise ValueError("zero component")
        if len(comps) < 2:
            raise ValueError("a curve needs at least two components")
        self.components = comps

    @staticmethod
    def from_exponents(exponents: Sequence[Sequence]) -> "ExpCurve":
        comps = [ExpSum.exponential([coerce_scalar(c) for c in ex]) for ex in exponents]
        return ExpCurve(comps)

    @staticmethod
    def from_json(obj) -> "ExpCurve":
        exps = []
        for row in obj["exponents"]:
            exps.append([parse_scalar_string(str(c)) for c in row])
        return ExpCurve.from_exponents(exps)

    @property
    def dim(self) -> int:
        return len(self.components) - 1

    def exponent_basis(self):
        keys = []
        for comp in self.components:
            for _, e in comp.terms:
                if e not in keys:
                    keys.append(e)
        return keys

    def component_matrix(self):
        """Coefficient matrix of components over the exponent basis.

        Entry (m, j) is the coefficient polynomial of basis exponent m in
        component j; only constant coefficient polynomials are supported
        for the exact degeneracy test.
        """
        keys = self.exponent_basis()
        M = []
        for k in keys:
            row = []
            for comp in self.components:
                val = Fraction(0)
                for c, e in comp.terms:
                    if e == k:
                        if len(c) > 1:
                            return None
                        val = c[0]
                row.append(val)
            M.append(row)
        return M

    def is_linearly_degenerate(self) -> Optional[bool]:
        """Exact test for a vanishing linear combination of components."""
        M = self.component_matrix()
        if M is None:
            return None
        return len(nullspace(M)) > 0

    def compose(self, p: HomPoly) -> ExpSum:
        """The exponential sum P(f_0, ..., f_n); requires <= 3 components."""
        comps = self.components
        out = ExpSum([])
        for e, c in p.terms.items():
            t = ExpSum.constant(c)
            for i, k in enumerate(e):
                if k:
                    if i >= len(comps):
                        raise ValueError("divisor uses more variables than the curve has")
                    t = t * (comps[i] ** k)
            out = out + t
        return out


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def _center_value(curve: ExpCurve) -> float:
    best = max(_log_value(c, 0j).real for c in curve.components)
    if best == -math.inf:
        raise ValueError("all components vanish at the origin; not an entire curve")
    return best


_EPS = 2.0 ** -52


def characteristic(curve: ExpCurve, r: float) -> Tuple[float, float]:
    """Sup-norm characteristic T(f, r) with an error bound.

    Every component must be c e^{Q(xi)} with a constant c; then the
    integrand max_j log|f_j(r e^{it})| is a maximum of trigonometric
    polynomials in t, and T is summed in closed form over the arcs
    between its kinks (_arc_mean).  Raises SumComponentError for any
    other component, and QuadratureFailureError when the integrand is
    not finite on the circle.  Inside an analysis scope each (curve, r)
    is computed once; GrowthSample.compute stores a run's radii under
    the same keys.
    """
    return scoped(("characteristic", curve, r), lambda: _characteristic(curve, [r])[0])


def _characteristic(curve: ExpCurve, radii: Sequence[float]) -> List[Tuple[float, float]]:
    """(T(r), error) at each radius, all radii in one _arc_mean pass; a
    failure is the one the first failing radius would raise alone."""
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    try:
        ell, W = _trig_branches(curve, radii)
        center = _center_value(curve)
    except OverflowError:
        # an exact coefficient or exponent beyond the double range
        raise QuadratureFailureError("integrand unbounded on the circle") from None
    means, errs = _arc_mean(ell, W)
    if len(W) < len(radii):
        raise QuadratureFailureError("integrand unbounded on the circle")
    return [(mean - center, err + _EPS * (abs(mean) + abs(center)))
            for mean, err in zip(means.tolist(), errs.tolist())]


def _trig_branches(curve: ExpCurve, radii: Sequence[float]):
    """(ell, W) with log|f_j(r_s e^{it})| = ell[j] + sum_k Re(W[s, j, k-1] e^{ikt}),
    for the radii r_s before the first at which a sum formed from the
    branches in _arc_mean could overflow.  Raises SumComponentError when
    a component is not one term with a constant coefficient."""
    if any(len(c.terms) != 1 or len(c.terms[0][0]) > 1 for c in curve.components):
        raise SumComponentError("T(r) needs every component to be c e^{Q} with a constant c")
    ell, qs = [], []
    for comp in curve.components:
        coeff, expo = comp.terms[0]
        q = [complex(scalar_to_complex(x)) for x in expo] or [0j]
        ell.append(math.log(abs(complex(scalar_to_complex(coeff[0])))) + q[0].real)
        qs.append(q[1:])
    K = max(map(len, qs))
    branches = []
    for r in radii:
        rows = []
        for q in qs:
            row, rk = [], 1.0
            for qk in q:
                rk *= r          # a float product overflows to inf, where r ** k raises
                row.append(qk * rk)
            rows.append(row + [0j] * (K - len(row)))
        # bounds every difference, antiderivative and arc sum of the branches;
        # Python float sums overflow to inf quietly
        size = sum(map(abs, ell)) + sum(abs(w.real) + abs(w.imag) for row in rows for w in row)
        if not math.isfinite(8 * math.pi * size):
            break
        branches.append(rows)
    return np.array(ell), np.array(branches, dtype=complex).reshape(len(branches), len(qs), K)


def _arc_mean(ell: np.ndarray, W: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(1/2pi) int max_j phi_j(t) dt and its error bound at each radius s,
    for the branches phi_j(t) = ell[j] + sum_k Re(W[s, j, k-1] e^{ikt}).

    Two branches tie where z^d (phi_i - phi_j)(z), z = e^{it}, vanishes,
    a polynomial of degree 2d in z; the argument of each of its roots, in
    double precision (its companion eigenvalues), is a cut (a root off the
    unit circle only adds a harmless one).  On each arc between cuts the
    branch that wins at the midpoint is integrated by its antiderivative
    ell t + sum_k Im(W_k e^{ikt}) / k.  The bound
    covers the rounding of the antiderivatives and, at each cut where the
    winner changes, the cut's angle error times the branch gap there
    (second order, since both branches agree at a true tie): the angle
    error is gap / |slope difference|, a Newton step towards the tie, and
    never more than the longer half arc beside the cut, since the two
    midpoints are won by different branches.  A failed eigen-solve raises
    QuadratureFailureError.

    The eigen-solves run one radius at a time; the arcs of all radii with
    the same number of cuts are summed on (radii x arcs) arrays, by the
    operations a radius alone would take, so each radius gets the same
    bits alone or in a batch."""
    R, m, K = W.shape
    k = np.arange(1, K + 1)
    cuts = [[-math.pi, math.pi] for _ in range(R)]
    for i, j in itertools.combinations(range(m), 2):
        dw = W[:, i] - W[:, j]
        degrees = ((dw != 0) * k).max(axis=1, initial=0)
        # z^K (phi_i - phi_j)(z), low to high: the tie polynomial of degree
        # 2d is its middle 2d + 1 coefficients
        poly = np.concatenate((np.conj(dw[:, ::-1]), np.full((R, 1), 2 * (ell[i] - ell[j])), dw),
                              axis=1)
        for s, d in enumerate(degrees.tolist()):
            if d == 0:
                continue                  # phi_i - phi_j is constant
            roots = companion_eigenvalues(poly[s, K - d:K + d + 1][::-1])
            if roots is None:
                raise QuadratureFailureError("a tie of two branches has no finite double roots")
            cuts[s] += [cmath.phase(z) for z in roots.tolist()]

    def powers(t):                        # e^{ikt}, k along a new last axis
        return np.exp(1j * (t[..., None] * k))

    means, errs = np.empty(R), np.empty(R)
    for n in set(map(len, cuts)):
        group = [s for s, c in enumerate(cuts) if len(c) == n]
        theta = np.sort(np.array([cuts[s] for s in group]), axis=1)
        length = np.diff(theta, axis=1)
        Wr = W[group]
        win = np.argmax(ell + (powers(theta[:, :-1] + length / 2) @ Wr.transpose(0, 2, 1)).real,
                        axis=2)
        g = np.arange(len(group))[:, None]
        E = powers(theta)
        Wb = Wr[g, win]
        Wk = Wb / k
        F = [ell[win] * theta[:, s] + (E[:, s] * Wk).imag.sum(axis=2)
             for s in (slice(None, -1), slice(1, None))]
        means[group] = [math.fsum(arcs) / (2 * math.pi) for arcs in (F[1] - F[0]).tolist()]
        mass = np.abs(Wb) @ (math.pi + 1 / k)   # sum_k |W_k| (|t| + 1/k), |t| <= pi
        rounding = 8 * _EPS * np.sum(np.abs(ell[win]) * math.pi + mass, axis=1) / math.pi
        # the cut at theta[s] lies between arc s - 1 (arc -1 across t = pi) and arc s
        a, b = np.roll(win, 1, axis=1), win
        Wa = Wr[g, a]
        Es = E[:, :-1]
        gap = np.abs(ell[a] - ell[b] + (Es * (Wa - Wb)).real.sum(axis=2))
        gap += 8 * _EPS * (np.abs(ell[a]) + np.abs(ell[b])
                           + np.abs(Wa).sum(axis=2) + np.abs(Wb).sum(axis=2))
        slope = np.abs((Es * 1j * k * (Wa - Wb)).real.sum(axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.fmin(gap / slope, np.maximum(np.roll(length, 1, axis=1), length) / 2)
        cut_err = np.sum(np.where(a != b, delta * gap, 0.0), axis=1) / (2 * math.pi)
        errs[group] = rounding + cut_err
    return means, errs


@dataclass
class GrowthSample:
    radii: List[float]
    values: List[float]
    errors: List[float]

    @staticmethod
    def compute(curve: ExpCurve, radii: Sequence[float]) -> "GrowthSample":
        """T(r) at the radii, sorted; every radius not yet stored in the
        analysis scope in one _characteristic pass."""
        rs = sorted(float(r) for r in radii)
        if rs and rs[0] < 1.0:
            raise ValueError("radii must be >= 1")
        Ts = scoped_many([("characteristic", curve, r) for r in rs],
                         lambda keys: _characteristic(curve, [key[2] for key in keys]))
        return GrowthSample(rs, [v for v, _ in Ts], [e for _, e in Ts])


def order_estimate(samples: GrowthSample) -> Tuple[float, bool]:
    """Slope of log T against log r over the top decade.

    Returns (order, degenerate); degenerate means T never grew beyond
    noise, as for constant curves.
    """
    rs = samples.radii
    if len(rs) < 8 or rs[-1] / rs[0] < 99.0:
        raise InsufficientSpanError("need >= 8 radii spanning >= 2 decades")
    top = [(math.log(r), math.log(t))
           for r, t in zip(rs, samples.values) if r >= rs[-1] / 10 and t > 1e-9]
    if len(top) < 3:
        return 0.0, True
    xs = np.array([x for x, _ in top])
    ys = np.array([y for _, y in top])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, False


def ahlfors_limit(leading: Sequence, lam: int = 1) -> float:
    """Convex-hull boundary length of the leading coefficients, over 2*pi.

    A degenerate hull (all points collinear) counts the segment twice, so
    two distinct points give 2|a - b| / (2*pi).
    """
    if lam < 1:
        raise ValueError("order must be >= 1")
    pts = []
    for a in leading:
        z = complex(scalar_to_complex(coerce_scalar(a))) if not isinstance(a, complex) else a
        if not any(abs(z - w) < 1e-15 for w in pts):
            pts.append(z)
    if len(pts) <= 1:
        return 0.0
    if len(pts) == 2:
        return 2 * abs(pts[0] - pts[1]) / (2 * math.pi)
    arr = sorted((p.real, p.imag) for p in pts)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(arr)
    upper = half(arr[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2:
        return 2 * math.dist(hull[0], hull[1]) / (2 * math.pi)
    per = sum(math.dist(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    return per / (2 * math.pi)


# ---------------------------------------------------------------------------
# Argument-principle zero counting
# ---------------------------------------------------------------------------

def _wrap_angle(d):
    return (d + math.pi) % (2 * math.pi) - math.pi


_PER_SIDE = 24


def _rect_boundaries(boxes):
    """Boundary samples of each row (x0, x1, y0, y1) of boxes, one row each.

    Counterclockwise from (x0, y0) and closed there.  Each side is
    linspace(start, stop, _PER_SIDE, endpoint=False) written out as
    k * step + start, so a row holds the samples the box gets alone.
    """
    x0, x1, y0, y1 = (c[:, None] for c in boxes.T)
    k = np.arange(_PER_SIDE, dtype=float)

    def side(a, b):
        return k * ((b - a) / _PER_SIDE) + a
    return np.concatenate([side(x0, x1) + 1j * y0, x1 + 1j * side(y0, y1),
                           side(x1, x0) + 1j * y1, x0 + 1j * side(y1, y0),
                           x0 + 1j * y0], axis=1)


# A batched winding admits no box while the boxes in work hold this many
# samples (so at most 21 boxes of 97), and past it a box waits its turn
# to refine, so heavily refined boxes cannot pile up.
_BATCH_SAMPLES = 2048
_MAX_RESIDUAL = 1e-5
# A box of winding 1 to this many gets its contour's power sums, and a
# quadtree cell of that many zeros is taken from them without a split.
_POWER_SUMS = 6


def _windings(g: ExpSum, boxes: np.ndarray,
              max_refine=60) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding of g around each row (x0, x1, y0, y1) of boxes, its
    residual and, for a winding w of 1 to _POWER_SUMS, the power sums of
    the zeros it encloses, from the samples.

    The residual is NaN where the box fails.  Row i of the third array holds,
    for a box of winding 1 <= w <= _POWER_SUMS, the power sums s_1 ... s_w,
    s_p = 1/(2 pi i) times the integral of xi^p g'/g over its boundary,
    which is the sum of the p-th powers of the zeros it encloses (Delves &
    Lyness 1967); s_1 of a box of winding 1 is its zero.  Each is summed
    over the segments of the samples that settled the winding, the p-th
    power of each midpoint times the segment's step of log|g| + i arg g,
    so it costs no evaluation and a box gets the same sums in a batch as
    alone.  Every other entry is NaN.

    Phase tracking with three refinement criteria per segment: the phase
    jump, the modulus jump, and the segment length against the local
    logarithmic derivative bound |g'/g| (which prevents a full unnoticed
    phase turn on stretches of constant modulus).  A box fails when g
    underflows on its boundary, when its refinement has not settled after
    max_refine rounds or passes 4 M samples, or when its phase sum lies
    more than _MAX_RESIDUAL from a multiple of 2 pi.  The boundaries of
    the boxes in work share one flat array, so each refinement round
    evaluates g and g' once for all of them, in one ``logeval`` call, and
    merges the new samples in by one gather; every box keeps the samples,
    rounds and phase sum it gets alone.
    """
    w_out, res_out = np.zeros(len(boxes), dtype=int), np.full(len(boxes), np.nan)
    sums_out = np.full((len(boxes), _POWER_SUMS), complex(math.nan, math.nan))
    # the samples of the boxes in work, box after box: point, log|g|,
    # phase and |g'/g|; per box its index in boxes, its sample count
    # (closing point included) and rounds, whether it stays in work and
    # whether it refines in this round
    pts, la, ph, spd = np.empty(0, dtype=complex), np.empty(0), np.empty(0), np.empty(0)
    ids = sizes = rounds = np.empty(0, dtype=int)
    stay = refine = np.empty(0, dtype=bool)
    idx = owner = np.empty(0, dtype=int)  # segments to halve, and their boxes
    n0, nxt = 4 * _PER_SIDE + 1, 0
    while stay.any() or nxt < len(boxes):
        held = int(sizes[stay].sum()) + idx.size
        room = (_BATCH_SAMPLES - held) // n0
        new = boxes[nxt:nxt + max(room, int(not stay.any()))]
        fresh = (pts[idx] + pts[idx + 1]) / 2
        if len(new):  # most rounds admit no box
            fresh = np.concatenate([fresh, _rect_boundaries(new).ravel()])
        la_n, ph_n, ok, lap = g.logeval(fresh)
        # |g'/g|: the a-priori bound on the phase speed along the contour;
        # where g underflowed the box fails below, so its la is not used
        spd_n = np.exp(np.minimum(lap - np.where(ok, la_n, 0.0), 700.0))
        # each midpoint goes after its segment's first sample and the new
        # boxes after all others; boxes that are done or underflowed leave
        sizes = np.concatenate([sizes + np.bincount(owner, minlength=ids.size),
                                np.full(len(new), n0)])
        drop = np.concatenate([~stay, np.zeros(len(new), dtype=bool)])
        drop[np.concatenate([owner, ids.size + np.arange(len(new)).repeat(n0)])[~ok]] = True
        # so one gather from [old samples, fresh]: the old samples fill, in
        # order, the slots that the midpoints leave free
        n, k = pts.size, idx.size
        mid = idx + np.arange(1, k + 1)
        slot = np.ones(n + k, dtype=bool)
        slot[mid] = False
        order = np.arange(n + fresh.size)
        order[:n + k][slot] = np.arange(n)
        order[mid] = np.arange(n, n + k)
        order = order[np.repeat(~drop, sizes)]
        pts, la, ph, spd = (np.concatenate(pair)[order] for pair in
                            ((pts, fresh), (la, la_n), (ph, ph_n), (spd, spd_n)))
        ids = np.concatenate([ids, np.arange(nxt, nxt + len(new))])[~drop]
        rounds = np.concatenate([rounds + refine, np.zeros(len(new), dtype=int)])[~drop]
        sizes, nxt = sizes[~drop], nxt + len(new)
        starts = np.cumsum(sizes) - sizes
        dphi, dla = _wrap_angle(ph[1:] - ph[:-1]), la[1:] - la[:-1]
        bad = ((np.abs(dphi) > 0.8) | (np.abs(dla) > 0.7)
               | (np.abs(pts[1:] - pts[:-1]) * np.maximum(spd[:-1], spd[1:]) > 0.6))
        bad[starts[1:] - 1] = False  # segments joining two boxes
        unsettled = np.logical_or.reduceat(bad, starts)
        live = rounds < max_refine
        for j in np.nonzero(live & ~unsettled)[0]:
            seg = slice(starts[j], starts[j] + sizes[j] - 1)
            total = float(dphi[seg].sum())
            w = round(total / (2 * math.pi))
            residual = abs(total - 2 * math.pi * w)
            if residual <= _MAX_RESIDUAL:
                w_out[ids[j]], res_out[ids[j]] = w, residual
                if 1 <= w <= _POWER_SUMS:
                    mids = (pts[seg] + pts[seg.start + 1:seg.stop + 1]) / 2
                    step, power = dla[seg] + 1j * dphi[seg], mids
                    for p in range(w):
                        sums_out[ids[j], p] = (power * step).sum() / (2j * math.pi)
                        power = power * mids
        stay = live & unsettled & (sizes <= 4_000_000)
        # the boxes in work refine in order while the samples before them
        # stay under the cap; the others wait, keeping their rounds
        work = sizes * stay
        refine = stay & (np.cumsum(work) - work < _BATCH_SAMPLES)
        idx = np.nonzero(bad & np.repeat(refine, sizes)[:-1])[0]
        owner = np.searchsorted(starts, idx, side="right") - 1
    return w_out, res_out, sums_out


def _winding_with_perturbation(g, x0, x1, y0, y1):
    side = max(x1 - x0, y1 - y0)
    eps = 0.0
    for k in range(8):
        w, res, sums = _windings(g, np.array([[x0 - eps, x1 + eps, y0 - eps, y1 + eps]]))
        if not np.isnan(res[0]):
            return (int(w[0]), float(res[0]), sums[0].tolist()), eps
        eps = side * (2.0 ** (-9 + k))
    raise ZeroOnContourError("persistent zero on contour after perturbation")


def _polish_zero(g: ExpSum, z0: complex, tol: float) -> Tuple[complex, bool]:
    """Newton from z0: (point, whether the last step was below tol).

    Each step g/g' = exp(log(e^M h) - log(e^M h')) comes from one
    ``_scaled`` evaluation of g and g' and is taken through the logs for
    overflow safety.  A zero g gives a zero step; the polish stops,
    unconverged, where g' vanishes against g (log|g/g'| > 200) or after
    60 steps."""
    z = z0
    for _ in range(60):
        M, h, hp = g._scaled(z, True)
        if h == 0:
            step = 0j
        elif hp == 0:
            return z, False
        else:
            d = complex((M + math.log(abs(h))) - (M + math.log(abs(hp))),
                        cmath.phase(h) - cmath.phase(hp))
            if d.real > 200:
                return z, False
            step = cmath.exp(d)
        z = z - step
        if abs(step) < tol:
            return z, True
    return z, False


@dataclass
class CountedZero:
    position: complex
    multiplicity: int
    radius: float  # localization radius


_CUT_SHIFTS = (0.0, 1 / 16, -1 / 16, 1 / 8, -1 / 8, 3 / 16, -3 / 16)


def _in_cell(z: complex, x0, x1, y0, y1) -> bool:
    """z lies in the closed cell, to 1e-12."""
    return x0 - 1e-12 <= z.real <= x1 + 1e-12 and y0 - 1e-12 <= z.imag <= y1 + 1e-12


def _least_distance(points: Sequence[complex]) -> float:
    """The least distance between two of points, inf for fewer than two:
    the two halves by real part, then the pairs across the middle within
    the least distance of either half, swept by imaginary part, so that
    points along any line take O(n log^2 n) steps."""
    def least(ps):  # sorted by real part
        if len(ps) < 4:
            return min((abs(a - b) for a, b in itertools.combinations(ps, 2)), default=math.inf)
        mid = len(ps) // 2
        xm, best = ps[mid].real, min(least(ps[:mid]), least(ps[mid:]))
        strip = sorted((z for z in ps if abs(z.real - xm) < best), key=lambda z: z.imag)
        for i, a in enumerate(strip):
            for b in strip[i + 1:]:
                if b.imag - a.imag >= best:
                    break
                best = min(best, abs(a - b))
        return best
    return least(sorted(points, key=lambda z: z.real))


def _merged(points: Sequence[complex], sep: float) -> List[complex]:
    """points in order of real part, then imaginary part, less each that
    lies within sep > 0 of one kept before it; the kept points are filed
    on a grid of side sep, so each is measured against the few in the
    nine cells about it."""
    kept, grid = [], {}
    for z in sorted(points, key=lambda z: (z.real, z.imag)):
        i, j = math.floor(z.real / sep), math.floor(z.imag / sep)
        if all(abs(z - a) >= sep for di in (-1, 0, 1) for dj in (-1, 0, 1)
               for a in grid.get((i + di, j + dj), ())):
            grid.setdefault((i, j), []).append(z)
            kept.append(z)
    return kept


def _pair_points(g: ExpSum, x0, x1, y0, y1, tol) -> List[complex]:
    """Zeros of g in the box, polished from the zeros of its two-term
    pairs and merged within 2 tol (``_merged``); none unless every
    coefficient of g is constant.

    The pair c_i e^{Q_i} + c_j e^{Q_j} vanishes where
    Q_i - Q_j = log(-c_j / c_i) + 2 pi i k, for each integer k one linear
    or quadratic equation when Q_i - Q_j has degree 1 or 2 (pairs of any
    other degree give no start).  In the box |xi| <= R, its half
    diagonal, so 2 pi |k| <= |log(-c_j / c_i)| + sum_m |d_m| R^m over the
    coefficients d_m of Q_i - Q_j.  A root is a start where the pair's
    modulus |c_i e^{Q_i}| is at least every other term's, which is where
    g is that pair plus smaller terms (Langer 1931; Polya 1920), and
    where it lies in the box or within half a step in k,
    pi / |Q_i' - Q_j'|, outside it: a zero just inside an edge can lie
    nearer the pair zero just outside.  Each start is polished once (``_polish_zero``), and the
    converged points in the box are kept.  The pair data are read from
    g.terms.
    """
    terms = g.terms
    if any(len(c) > 1 for c, _ in terms):
        return []
    logc = [cmath.log(complex(scalar_to_complex(c[0]))) for c, _ in terms]
    expos = [_doubles(Q) for _, Q in terms]  # highest power first
    R = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
    starts = []
    for i, j in itertools.combinations(range(len(terms)), 2):
        D = _canonical(poly_sub(list(terms[i][1]), list(terms[j][1])))
        if len(D) not in (2, 3):
            continue
        d = _doubles(D)[::-1]  # low to high
        L = logc[j] - logc[i] + 1j * math.pi
        # one more k than the box needs, for the roots just outside it
        K = int((abs(L) + sum(abs(c) * R ** m for m, c in enumerate(d))) / (2 * math.pi)) + 2
        c0 = d[0] - (L + 2j * math.pi * np.arange(-K, K + 1))
        with np.errstate(all="ignore"):
            if len(d) == 2:
                roots = -c0 / d[1]
            else:  # d_2 xi^2 + d_1 xi + c0 = 0, the larger root first
                s = np.sqrt(d[1] * d[1] - 4 * d[2] * c0)
                s = np.where((np.conj(d[1]) * s).real >= 0, s, -s)
                q = -(d[1] + s) / 2
                roots = np.concatenate([q / d[2], c0 / q])
            step = np.pi / np.abs(d[1] + (2 * d[2] * roots if len(d) == 3 else 0))
            roots = roots[np.isfinite(roots) & (x0 - step <= roots.real) & (roots.real <= x1 + step)
                          & (y0 - step <= roots.imag) & (roots.imag <= y1 + step)]
            # log of each term's modulus there; the pair's two are equal
            mod = np.empty((len(terms), roots.size))
            for m, (lc, e) in enumerate(zip(logc, expos)):
                q = 0j
                for c in e:
                    q = q * roots + c
                mod[m] = lc.real + np.real(q)
        others = np.delete(mod, [i, j], axis=0)
        starts += roots[(others <= mod[i]).all(axis=0)].tolist()
    found = []
    for start in starts:
        z, converged = _polish_zero(g, start, tol * 1e-3)
        if converged and x0 <= z.real <= x1 and y0 <= z.imag <= y1:
            found.append(z)
    return _merged(found, 2 * tol)


class _ZeroSearch:
    """Quadtree zero search with winding conservation, a level at a time.

    Cut lines are shifted away from zeros when a child contour fails or
    the children's windings do not add up to the parent's, so every zero
    lands in exactly one cell.  The children of all cells that split at
    one level are wound in one batch, those of the cells that retry with
    the next shifted cut in the next.  Each zero keeps its cell's path
    in the tree, and sorting by path gives the depth-first order.  The
    root is first taken whole from the zeros of g's two-term pairs
    (``run``).  A cell of winding 1 to _POWER_SUMS is taken from its
    contour's power sums (``_windings``) when the zeros they give polish
    to zeros in it, for winding 2 or more distinct ones that small boxes
    confirm (``_leaf``); otherwise it splits.  Where no pair reaches, in
    the core where all terms are comparable or for a coefficient that is
    not constant, the root's pair points fall short of its winding and
    the power sums and the splits find the zeros.
    """

    def __init__(self, g: ExpSum, tol: float):
        self.g = g
        self.tol = tol
        self.zeros: List[CountedZero] = []
        self.max_residual = 0.0

    def run(self, x0, x1, y0, y1):
        """Add the zeros of g in the box, perturbed off any zero on its
        contour.

        The root cell, of winding w >= 1, is taken whole when it holds
        exactly w pair points (``_pair_points``) that ``_confirm``'s boxes
        confirm for w >= 2.  They are converged Newton points in the cell,
        at least 2 tol apart, each with a box of winding 1 about it: the
        evidence a power-sum leaf stands on.  Where the starts came from
        plays no part in it, so the root taken this way is as much proved
        as a cell taken from its power sums.  Otherwise the root is
        searched as a quadtree (``_descend``); when its boxes refused the
        points, as at a multiple zero, it takes no power sums either,
        since they would give the same clustered points.
        """
        (w, residual, sums), eps = _winding_with_perturbation(self.g, x0, x1, y0, y1)
        self.max_residual = max(self.max_residual, residual)
        box = [x0 - eps, x1 + eps, y0 - eps, y1 + eps]
        if w:
            zeros = [CountedZero(z, 1, max(self.tol, 0.0))
                     for z in _pair_points(self.g, *box, self.tol)]
            if len(zeros) == w:
                if self._confirm([zeros])[0]:
                    found = sorted(_quadrant_keys(box, zeros, 0, 0), key=lambda f: f[0])
                    self.zeros.extend(z for _, z in found)
                    return
                sums = [complex(math.nan, math.nan)] * len(sums)
        self._descend(*box, w, sums, 0)

    def _leaf(self, x0, x1, y0, y1, w, sums, depth) -> Optional[List[CountedZero]]:
        """The cell's zeros when it needs no split, else None; sums[p - 1]
        is the p-th power sum of its contour (``_windings``), NaN where
        there is none.  (The root is first tried whole from its pair
        points, on the same evidence: ``run``.)

        A cell of winding 1 <= w <= _POWER_SUMS starts Newton at the w
        zeros whose power sums are s_1 ... s_w: s_1 itself for w = 1, the
        roots of the monic polynomial with those power sums (Newton's
        identities, ``companion_eigenvalues``) for w >= 2, none where a
        sum is not finite.  It returns the polished zeros when every
        polish converged inside the cell and, for w >= 2, their least
        distance d exceeds 2 tol; those stand only when ``_confirm``'s
        boxes of half side d/4 about them each wind exactly 1 (Delves &
        Lyness 1967; Kravanja & Van Barel 2000).  Newton's steps at a
        multiple zero are rounding noise, so without those boxes a double
        zero could pass as two converged simple ones.  Otherwise a cell
        below the tolerance, or 60 levels deep, is one zero of
        multiplicity w.
        """
        if 1 <= w <= _POWER_SUMS:
            if w == 1:
                starts = [sums[0]] if cmath.isfinite(sums[0]) else []
            else:
                coeffs = [1 + 0j]  # Newton's identities: xi^w + a_1 xi^(w-1) + ... + a_w
                for k in range(1, w + 1):
                    coeffs.append(-(sums[k - 1] + sum(coeffs[i] * sums[k - 1 - i]
                                                      for i in range(1, k))) / k)
                roots = companion_eigenvalues(np.array(coeffs))  # None for a NaN sum
                starts = [] if roots is None else roots.tolist()
            zeros = []
            for start in starts:
                z, converged = _polish_zero(self.g, start, self.tol * 1e-3)
                if not (converged and _in_cell(z, x0, x1, y0, y1)):
                    break
                zeros.append(z)
            if len(zeros) == w and (w == 1 or min(
                    abs(a - b) for a, b in itertools.combinations(zeros, 2)) > 2 * self.tol):
                return [CountedZero(z, 1, max(self.tol, 0.0)) for z in zeros]
        diam = max(x1 - x0, y1 - y0)
        if diam < self.tol or depth > 60:
            return [CountedZero(complex((x0 + x1) / 2, (y0 + y1) / 2), w, diam)]
        return None

    def _confirm(self, leaves) -> List[bool]:
        """Whether the zeros of each leaf stand: a list of one zero stands,
        and the simple zeros z_1 ... z_w of a cell taken from its power sums
        or its pair points stand when the disjoint boxes of half side d/4
        about them, d their least distance, each wind exactly 1.  The boxes
        of all the leaves are wound in one batch, and the residuals of the
        leaves that stand count."""
        rows, owner = [], []
        for n, zeros in enumerate(leaves):
            if len(zeros) > 1:
                ps = [z.position for z in zeros]
                h = _least_distance(ps) / 4
                rows += [(p.real - h, p.real + h, p.imag - h, p.imag + h) for p in ps]
                owner += [n] * len(ps)
        stands = [True] * len(leaves)
        if rows:
            w, res, _ = _windings(self.g, np.array(rows))
            for n, one in zip(owner, (~np.isnan(res) & (w == 1)).tolist()):
                stands[n] = stands[n] and one
            counted = np.array([stands[n] for n in owner])
            self.max_residual = max([self.max_residual] + res[counted].tolist())
        return stands

    def _descend(self, x0, x1, y0, y1, w, sums, depth):
        """Add the zeros of the cell of winding w and contour power sums
        sums, depth levels down.

        A level's cells are rows in depth-first order.  A cell's key is its
        path, child c at level L adding c * 4**(64 - L), so that the keys
        of all levels sort depth first.  The zeros of a cell taken whole
        get the paths that a split would give them (``_quadrant_keys``).
        """
        found = []     # (key, zero)
        failed = None  # (key, message) of the first failure, depth first
        boxes, ws, keys = np.array([[x0, x1, y0, y1]]), np.array([w]), [0]
        sums = np.array([sums], dtype=complex)
        level = 0
        while w and ws.size:
            split, leaves = [], []
            for i, (box, wb, sb) in enumerate(zip(boxes.tolist(), ws.tolist(), sums.tolist())):
                zeros = self._leaf(*box, wb, sb, depth + level)
                if zeros is None:
                    split.append(i)
                else:
                    leaves.append((i, zeros))
            for (i, zeros), stands in zip(leaves, self._confirm([zs for _, zs in leaves])):
                if stands:
                    found += _quadrant_keys(boxes[i].tolist(), zeros, keys[i], level)
                else:
                    split.append(i)
            split.sort()
            boxes, ws, keys = boxes[split], ws[split], [keys[i] for i in split]
            kid_boxes, kid_ws = np.zeros((len(split), 4, 4)), np.zeros((len(split), 4), dtype=int)
            kid_sums = np.zeros((len(split), 4, _POWER_SUMS), dtype=complex)
            todo = np.arange(len(split))
            for shift in _CUT_SHIFTS:  # retried cuts of the level share a batch
                if not todo.size:
                    break
                a0, a1, b0, b1 = boxes[todo].T
                xm = (a0 + a1) / 2 + shift * (a1 - a0)
                ym = (b0 + b1) / 2 + shift * (b1 - b0)
                kids = np.stack([a0, xm, b0, ym, xm, a1, b0, ym,
                                 a0, xm, ym, b1, xm, a1, ym, b1], axis=1).reshape(-1, 4, 4)
                kw, kr, ks = _windings(self.g, kids.reshape(-1, 4))
                kw, kr, ks = kw.reshape(-1, 4), kr.reshape(-1, 4), ks.reshape(-1, 4, _POWER_SUMS)
                # a cell's residuals count up to its first failed child
                counted = np.logical_and.accumulate(~np.isnan(kr), axis=1)
                self.max_residual = max([self.max_residual] + kr[counted].tolist())
                good = counted[:, -1] & (kw.sum(axis=1) == ws[todo])
                kid_boxes[todo[good]], kid_ws[todo[good]] = kids[good], kw[good]
                kid_sums[todo[good]] = ks[good]
                todo = todo[~good]
            for i in todo.tolist():
                (a0, a1, b0, b1), wb = boxes[i].tolist(), int(ws[i])
                diam = max(a1 - a0, b1 - b0)
                cx, cy = (a0 + a1) / 2, (b0 + b1) / 2
                # a multiple zero can sink the contour values below the
                # floating point cancellation floor before the cell reaches
                # the isolation tolerance; the parent winding (from a healthy
                # contour) is the multiplicity, the cell is the localization
                if wb > 1 and diam < 1e-6 * max(1.0, math.hypot(cx, cy)):
                    found.append((keys[i], CountedZero(complex(cx, cy), wb, diam)))
                elif failed is None or keys[i] < failed[0]:
                    failed = (keys[i], f"could not split cell around ({cx}, {cy}) cleanly")
            # a child that holds all of its refused parent's two or more
            # zeros takes no power sums and splits on: at a multiple zero
            # each level would polish the same clustered roots again
            kid_sums[(kid_ws == ws[:, None]) & (kid_ws > 1)] = complex(math.nan, math.nan)
            level += 1
            cell, c = np.nonzero(kid_ws)
            keys = [keys[i] + k * 4 ** (64 - level) for i, k in zip(cell.tolist(), c.tolist())]
            live = np.array([failed is None or k < failed[0] for k in keys], dtype=bool)
            # cells after a failure are never reached depth first
            boxes, ws = kid_boxes[cell, c][live], kid_ws[cell, c][live]
            sums = kid_sums[cell, c][live]
            keys = [k for k, keep in zip(keys, live) if keep]
        if failed is not None:
            raise ZeroOnContourError(failed[1])
        found.sort(key=lambda f: f[0])
        self.zeros.extend(z for _, z in found)


def _quadrant_keys(box, zeros, key, level) -> List[Tuple[int, CountedZero]]:
    """(key, zero) for the zeros of a cell at level with key: each zero's
    key adds the quadrants it falls in, child c at level L adding
    c * 4**(64 - L) as in ``_ZeroSearch._descend``, until the zeros lie
    apart, which is the order a split lists them in.  The cut is the
    split's first (``_CUT_SHIFTS``) that meets no zero's disk.

    That guesses at the split, which shifts its cut only when a child's
    winding fails or the children's windings do not add up: a zero on the
    cut does that, one off it by more than rounding does not.  A zero is
    known only to within its radius, so one whose disk the cut meets is
    taken to lie on it; a zero truly off the cut by less than its radius,
    or a shift made for a residual, can list the zeros of a cell taken
    whole in another order than a split would."""
    if len(zeros) == 1 or level >= 64:
        return [(key, z) for z in zeros]
    x0, x1, y0, y1 = box
    for shift in _CUT_SHIFTS:
        xm = (x0 + x1) / 2 + shift * (x1 - x0)
        ym = (y0 + y1) / 2 + shift * (y1 - y0)
        quads, on_cut = [[], [], [], []], False
        for z in zeros:
            dx, dy = z.position.real - xm, z.position.imag - ym
            on_cut = on_cut or min(abs(dx), abs(dy)) <= z.radius
            quads[(dx >= 0) + 2 * (dy >= 0)].append(z)
        if not on_cut:
            break
    kids = ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1))
    return [kz for c, quad in enumerate(quads) if quad
            for kz in _quadrant_keys(kids[c], quad, key + c * 4 ** (63 - level), level + 1)]


_CF_BITS = 128  # the working precision of the two-term closed form


def _up(x: mp.mpf) -> float:
    """The least double >= x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def _two_term_zeros(g: ExpSum, half_side: float) -> Optional[List[CountedZero]]:
    """The zeros of g = a e^P + b e^Q, a and b constants and P - Q of
    degree at most 1, in the centered square, in closed form; None for any
    other two-term sum, which is left to the quadtree.

    g = a e^Q (e^D - e^L), with D = P - Q = d_0 + d_1 xi and
    L = log(-b/a), vanishes exactly where D(xi) = L + 2 pi i k for an
    integer k, each zero simple.  In the square |xi| <= R, its half
    diagonal, so 2 pi |k| <= |d_0| + |d_1| R + |L|, and every k up to that
    bound is taken, in increasing order.  A constant D gives no zero:
    e^{d_0} is transcendental for d_0 != 0 (Lindemann), so it is never
    -b/a.

    xi_k = A + k B, A = (L - d_0) / d_1 and B = 2 pi i / d_1 in mpmath at
    128 bits, put on fixed-point Gaussian integers of 2^-F with 2^-F
    about 2^-128 |B|; each zero is one exact integer sum, rounded once to
    doubles.  Its radius is

        e_A + |k| e_B + 2^-52 (|Re xi_k| + |Im xi_k|) + 2^-1074,
        e_A = 2^-120 (1 + |L| + |d_0|) / |d_1| + 2^-F,
        e_B = 2^-120 2 pi / |d_1| + 2^-F:

    with mpmath's log, pi and complex division accurate to a few units in
    the last of 128 bits, the computed A and B are within
    2^-123 (1 + |L| + |d_0|) / |d_1| and 2^-123 2 pi / |d_1| of the true
    ones (the 1 covers the absolute error of L when -b/a is rounded next
    to 1), the fixed point moves each by 2^-F / sqrt 2 at most, and
    rounding to doubles moves each part by 2^-53 of it, or by 2^-1075
    below the normal range.  Every term is at least sqrt 2 times what it
    bounds, which covers the rounding of the radius's own float sum.
    """
    (a, P), (b, Q) = g.terms
    D = poly_sub(list(P), list(Q))
    if len(a) > 1 or len(b) > 1 or len(D) > 2:
        return None
    if len(D) < 2:
        return []
    out = []
    with mp.workprec(_CF_BITS):
        L = mp.log(_c2mpc(coerce_scalar(-b[0] / a[0])))
        d0, d1 = (_c2mpc(c) for c in D)
        K = int((abs(d0) + abs(d1) * mp.sqrt(2) * half_side + abs(L)) / (2 * mp.pi)) + 1
        A, B = (L - d0) / d1, mp.mpc(0, 2 * mp.pi) / d1
        F = max(_CF_BITS - mp.mag(B), 0)
        (Ar, Ai), (Br, Bi) = ((int(mp.nint(mp.ldexp(x, F))) for x in (z.real, z.imag))
                              for z in (A, B))
        e_A = _up(mp.ldexp((1 + abs(L) + abs(d0)) / abs(d1), -120) + mp.ldexp(1, -F))
        e_B = _up(mp.ldexp(2 * mp.pi / abs(d1), -120) + mp.ldexp(1, -F))
    S = 1 << F
    for k in range(-K, K + 1):
        z = complex((Ar + k * Br) / S, (Ai + k * Bi) / S)
        if max(abs(z.real), abs(z.imag)) <= half_side:
            radius = e_A + abs(k) * e_B + _EPS * (abs(z.real) + abs(z.imag)) + 2.0 ** -1074
            out.append(CountedZero(z, 1, radius))
    return out


def locate_zeros_in_box(g: ExpSum, half_side: float) -> Tuple[List[CountedZero], float]:
    """All zeros of g in the centered square: (zeros, max winding residual).

    A zero is kept when its computed position lies in the square.  A
    single term c(xi) e^{Q(xi)} has the roots of c, with exact
    multiplicities and certified radii (``roots_with_multiplicity``).  Two
    terms a e^P + b e^Q with constant a and b and P - Q of degree at most
    1 have their zeros in closed form (``_two_term_zeros``), one
    fixed-point sum per zero, its radius a proved bound on the rounding.
    Both are solved without a search, and their residual is 0.0.  A
    two-term sum with P - Q of degree 2 or more, a sum of three or more
    terms, and a sum with a coefficient that is not constant go to the
    quadtree (``_ZeroSearch``), whose zeros have the isolation tolerance
    (a multiple zero its cell's diameter) as radius and whose residual is
    the largest distance of a winding from a multiple of 2 pi.
    """
    if g.is_zero:
        raise ValueError("identically zero function")
    if len(g.terms) == 1:
        coeff, _ = g.terms[0]
        out = []
        if len(coeff) > 1:
            from .univariate import roots_with_multiplicity
            for ball in roots_with_multiplicity(coeff, 128):
                z = complex(ball.value)
                if max(abs(z.real), abs(z.imag)) <= half_side:
                    out.append(CountedZero(z, ball.multiplicity, float(ball.radius)))
        return out, 0.0
    if len(g.terms) == 2:
        zeros = _two_term_zeros(g, half_side)
        if zeros is not None:
            return zeros, 0.0
    search = _ZeroSearch(g, max(half_side * 1e-10, 1e-13))
    search.run(-half_side, half_side, -half_side, half_side)
    return search.zeros, search.max_residual


R0 = 1.0


def _round40(x: np.ndarray) -> np.ndarray:
    """x rounded to 40 significant bits."""
    m, e = np.frexp(x)
    return np.ldexp(np.round(m * 2.0 ** 40), e - 40)


@dataclass
class CountingSample:
    divisor: HomPoly
    degree: int
    radius: float
    zeros: List[CountedZero]
    winding_residual: float = 0.0
    _N: Dict[float, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def n_at(self, t: float) -> int:
        return sum(z.multiplicity for z in self.zeros if abs(z.position) <= t)

    @functools.cached_property
    def _n0(self) -> int:
        return self.n_at(R0)

    def N_at(self, r: float) -> float:
        """n(R0) log(r / R0) + sum of m log(r / |z|) over R0 < |z| <= r, in
        the zeros' order; one pass per radius and one for n(R0)."""
        if r < R0:
            raise ValueError("radius below the base radius")
        if r not in self._N:
            total = self._n0 * math.log(r / R0)
            for z in self.zeros:
                m = abs(z.position)
                if R0 < m <= r:
                    total += z.multiplicity * math.log(r / m)
            self._N[r] = total
        return self._N[r]

    @property
    def N(self) -> float:
        return self.N_at(self.radius)

    def to_json(self):
        """The sample as a report; zeros by |z|, then Re z, each rounded
        to 40 bits, so the conjugate zeros of a real sum, equal in both
        but for rounding, tie and keep their list order (a stable sort),
        the tree's."""
        pos = np.array([z.position for z in self.zeros], dtype=complex)
        order = np.lexsort((_round40(pos.real), _round40(np.abs(pos))))
        return {
            "divisor": str(self.divisor),
            "degree": self.degree,
            "radius": self.radius,
            "zeros": [{"position": [z.position.real, z.position.imag],
                       "multiplicity": z.multiplicity,
                       "radius": z.radius} for z in map(self.zeros.__getitem__, order.tolist())],
            "N": self.N,
            "winding_residual": self.winding_residual,
        }


def counting(curve: ExpCurve, divisor: HomPoly, r: float) -> CountingSample:
    """Zeros of the divisor composed with the curve, inside |xi| <= r.

    Exact containment of the curve in the divisor is detected
    symbolically first.  ``locate_zeros_in_box`` then finds the zeros in
    the circumscribing square: a composed sum of one term, or of two terms
    with constant coefficients whose exponents differ by a linear
    polynomial, in closed form with a proved radius per zero, any other
    sum by the quadtree.  The disk filter keeps moduli <= r, and a zero
    whose disk meets |xi| = r raises ZeroOnContourError, since it could
    lie on either side.  Inside an analysis scope each (curve, divisor, r)
    is computed once; callers must not modify the sample.
    """
    return scoped(("counting", curve, divisor, r),
                  lambda: _counting(curve, divisor, r))


def _counting(curve: ExpCurve, divisor: HomPoly, r: float) -> CountingSample:
    if r < R0:
        raise ValueError("radius below the base radius")
    g = curve.compose(divisor)
    if g.is_zero:
        raise DivisorContainsCurveError(
            f"the curve lies inside the divisor {divisor}")
    half = r * (1 + 1.0 / 64) + 1.0 / 32
    box_zeros, residual = locate_zeros_in_box(g, half)
    inside = []
    for z in box_zeros:
        m = abs(z.position)
        # abs rounds within a unit in the last place of r near the circle
        if abs(m - r) <= z.radius + _EPS * r:
            raise ZeroOnContourError(f"the disk of the zero at {z.position} meets |xi| = {r}")
        if m <= r:
            inside.append(z)
    return CountingSample(divisor, divisor.degree, r, inside, residual)


# ---------------------------------------------------------------------------
# Main theorems, functoriality, defects
# ---------------------------------------------------------------------------

def hyperplanes_general_position(forms: Sequence[HomPoly], dim: int) -> bool:
    """Any dim+1 of the linear forms must be linearly independent."""
    import itertools as it
    vecs = []
    for f in forms:
        if f.degree != 1:
            raise ValueError("hyperplanes must be linear forms")
        vecs.append(f.linear_coeffs()[:dim + 1])
    for sub in it.combinations(vecs, dim + 1):
        if rank([list(v) for v in sub]) < dim + 1:
            return False
    return True


@dataclass
class MainTheoremReport:
    kind: str
    radii: List[float]
    T: List[float]
    N_sums: List[float]
    slack: List[float]          # RHS - LHS per radius
    fitted_C: float             # max deficit / log r
    fitted_C_two_sided: float   # max |T - sum N| / log r (second kind)
    violating_fraction: float
    passed: bool

    def to_json(self):
        return {
            "kind": self.kind,
            "series": [{"r": r, "T": t, "N_sum": n, "slack": s}
                       for r, t, n, s in zip(self.radii, self.T, self.N_sums, self.slack)],
            "fitted_C": self.fitted_C,
            "fitted_C_two_sided": self.fitted_C_two_sided,
            "violating_fraction": self.violating_fraction,
            "passed": self.passed,
        }


# A radius violates the growth inequality when its slack is below
# -C_MAX log r; the check passes with at most EXCEPTIONAL_FRACTION of the
# radii violating it
C_MAX = 10.0
EXCEPTIONAL_FRACTION = 0.05


def main_theorem_check(curve: ExpCurve, divisors: Sequence[HomPoly],
                       kind: str, radii: Sequence[float]) -> MainTheoremReport:
    """Check the growth inequality of the first or second kind.

    first:  N(D, r) <= deg(D) T(r) + O(1) for each divisor.
    second: (q - n - 1) T(r) <= sum_j N(H_j, r) + O(log r) for hyperplanes
            in general position and a linearly nondegenerate curve.

    The verdict allows an exceptional fraction of radii (``EXCEPTIONAL_FRACTION``)
    beyond a log-coefficient cap (``C_MAX``).
    """
    rs = sorted(float(r) for r in radii)
    if not rs:
        raise ValueError("no radii")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    n = curve.dim
    if kind == "second":
        deg = curve.is_linearly_degenerate()
        if deg is None or deg:
            raise DegenerateCurveError(
                "curve components satisfy a linear relation")
        if not hyperplanes_general_position(divisors, n):
            raise NotGeneralPositionError("hyperplanes not in general position")

    samples = [counting(curve, d, rs[-1]) for d in divisors]
    Ts = [characteristic(curve, r)[0] for r in rs]
    N_sums = []
    slack = []
    for r, T in zip(rs, Ts):
        if kind == "first":
            # slack per divisor; keep the minimum over divisors
            s_min = None
            tot = 0.0
            for d, smp in zip(divisors, samples):
                Nv = smp.N_at(r)
                tot += Nv
                s = d.degree * T - Nv
                s_min = s if s_min is None else min(s_min, s)
            N_sums.append(tot)
            slack.append(s_min)
        else:
            tot = sum(smp.N_at(r) for smp in samples)
            q = len(divisors)
            N_sums.append(tot)
            slack.append(tot - (q - n - 1) * T)
    deficits = [max(0.0, -s) / math.log(r) for s, r in zip(slack, rs) if r > math.e]
    fitted_C = max(deficits) if deficits else 0.0
    if kind == "second":
        two_sided = [abs((len(divisors) - n - 1) * t - nn) / math.log(r)
                     for t, nn, r in zip(Ts, N_sums, rs) if r > math.e]
        fitted_two = max(two_sided) if two_sided else 0.0
    else:
        fitted_two = fitted_C
    violations = sum(1 for s, r in zip(slack, rs)
                     if r > math.e and s < -C_MAX * math.log(r))
    frac = violations / max(1, len(rs))
    passed = frac <= EXCEPTIONAL_FRACTION
    return MainTheoremReport(kind, rs, Ts, N_sums, slack, fitted_C, fitted_two,
                             frac, passed)


@dataclass
class FunctorialityReport:
    radii: List[float]
    differences: List[float]
    variation: float
    passed: bool


def functoriality_check(curve: ExpCurve, morphism: Sequence[HomPoly],
                        radii: Sequence[float],
                        tolerance: float = 0.5) -> FunctorialityReport:
    """T(R o f, r) - p T(f, r) must stay within a bounded band.

    Only monomial morphisms are accepted: a component of R o f that is a
    sum has no T(r) and raises SumComponentError.
    The morphism components must have one common degree p and no common
    zero (checked exactly on a line via the gcd; on the plane two forms
    always share a zero, and more go through ``arrangements.common_zero``,
    whose undecided answer is refused like a common zero).
    """
    degs = {m.degree for m in morphism}
    if len(degs) != 1:
        raise NotAMorphismError("components of different degrees")
    p = degs.pop()
    if curve.dim == 1:
        # domain is the projective line: components are binary forms and a
        # common zero is a nontrivial common factor
        if any(m.degree_in(2) > 0 for m in morphism):
            raise ValueError("morphism components on a line must avoid z2")
        ps, infs, zeros = zip(*(dehomogenize(m, 0, 1) for m in morphism))
        if len(functools.reduce(uni_gcd, ps)) > 1 or min(infs) > 0 or min(zeros) > 0:
            raise NotAMorphismError("components share a zero on the line")
    elif len(morphism) == 2:
        # two plane curves always meet (Bezout)
        raise NotAMorphismError("two components share a common zero")
    else:
        from .arrangements import common_zero
        meet = common_zero(morphism, DEFAULT_PRECISION)[0]
        if meet:
            raise NotAMorphismError("components share a common zero")
        if meet is None:
            raise NotAMorphismError("components may share a common zero: undecided")
    image = ExpCurve([curve.compose(m) for m in morphism])
    rs = sorted(float(r) for r in radii)
    diffs = []
    for r in rs:
        t_img = characteristic(image, r)[0]
        t_base = characteristic(curve, r)[0]
        diffs.append(t_img - p * t_base)
    top = [d for r, d in zip(rs, diffs) if r >= rs[-1] / 10]
    variation = (max(top) - min(top)) if top else 0.0
    return FunctorialityReport(rs, diffs, variation, variation < tolerance)


@dataclass
class DefectEstimate:
    divisor_degree: int
    value: float
    window_radii: List[float]
    series: List[Tuple[float, float]]
    exact_one: bool = False

    def to_json(self):
        return {
            "divisor_degree": self.divisor_degree,
            "defect": self.value,
            "series": [{"r": r, "value": v} for r, v in self.series],
            "window": self.window_radii,
            "exact_one": self.exact_one,
        }


def defect_estimate(curve: ExpCurve, divisor: HomPoly,
                    radii: Sequence[float]) -> DefectEstimate:
    """liminf proxy of 1 - N/(d T) over a trailing radius window."""
    rs = sorted(float(r) for r in radii)
    sample = counting(curve, divisor, rs[-1])
    d = divisor.degree
    series = []
    for r in rs:
        T = characteristic(curve, r)[0]
        if T <= 1e-12:
            continue
        series.append((r, 1.0 - sample.N_at(r) / (d * T)))
    if not sample.zeros:
        window = [r for r, _ in series]
        return DefectEstimate(d, 1.0, window, series, exact_one=True)
    cutoff = rs[-1] / math.sqrt(10)
    window_vals = [(r, v) for r, v in series if r >= cutoff]
    value = min(v for _, v in window_vals) if window_vals else min(v for _, v in series)
    return DefectEstimate(d, value, [r for r, _ in window_vals], series)


# ---------------------------------------------------------------------------
# The three-quadrics growth certificate
# ---------------------------------------------------------------------------

@dataclass
class ThreeQuadricsCertificate:
    alphas: tuple
    X: float
    lhs: float
    rhs: float
    contradiction: bool
    quadrature_checks: List[dict] = field(default_factory=list)

    def to_json(self):
        return {
            "alphas": [str(a) for a in self.alphas],
            "X": self.X,
            "lhs_9X": self.lhs,
            "rhs_8X": self.rhs,
            "contradiction": self.contradiction,
            "quadrature_checks": self.quadrature_checks,
        }


def three_quadrics_certificate(alphas: Sequence, quadrature_check: bool = False,
                               r_check: float = 20.0) -> ThreeQuadricsCertificate:
    """Growth-rate contradiction for three leading quadratic coefficients.

    X is the pairwise-distance sum over 2*pi; the derived inequality
    compares 9X against 8X, so any X > 0 is a contradiction and the only
    escape is all three coefficients equal.  That is decided on the exact
    coefficients (a Python complex is taken at its exact binary value).
    With quadrature_check the pairwise and triple characteristic limits
    are validated numerically against the convex-hull values.  X and the
    check curves are formed from the exact differences a_j - a_i (the
    triple curve from a_j - a0, which leaves T unchanged), so nearly equal
    alphas do not cancel in doubles.  Raises CertificateRangeError, after
    the checks, when 9X is beyond the double range.
    """
    exact = [coerce_scalar(GaussRat(Fraction(x.real), Fraction(x.imag)))
             if isinstance(x, complex) else coerce_scalar(x) for x in alphas]
    if len(exact) != 3:
        raise ValueError("three coefficients expected")
    pairs = ((0, 1), (0, 2), (1, 2))
    dist = []
    for i, j in pairs:
        try:
            dist.append(abs(scalar_to_complex(exact[j] - exact[i])))
        except OverflowError:                 # beyond the double range
            dist.append(math.inf)
    X = sum(dist) / (2 * math.pi)
    lhs = 9 * X
    rhs = 8 * X
    contradiction = not exact[0] == exact[1] == exact[2]
    checks: List[dict] = []
    if quadrature_check:
        zero = Fraction(0)
        for (i, j), d in zip(pairs, dist):
            curve = ExpCurve.from_exponents([[zero], [zero, zero, exact[j] - exact[i]]])
            T, _ = characteristic(curve, r_check)
            got = T / r_check ** 2
            target = 2 * d / (2 * math.pi)
            checks.append({
                "pair": [i, j],
                "limit_expected": target,
                "limit_quadrature": got,
                "relative_error": abs(got - target) / target if target else abs(got),
            })
        curve3 = ExpCurve.from_exponents([[zero, zero, x - exact[0]] for x in exact])
        T3, _ = characteristic(curve3, r_check)
        checks.append({
            "pair": [0, 1, 2],
            "limit_expected": X,
            "limit_quadrature": T3 / r_check ** 2,
            "relative_error": (abs(T3 / r_check ** 2 - X) / X) if X else abs(T3 / r_check ** 2),
        })
    if not math.isfinite(lhs):
        raise CertificateRangeError("X lies beyond the double range")
    return ThreeQuadricsCertificate(tuple(alphas), X, lhs, rhs, contradiction, checks)
