"""Univariate exact polynomials over the Gaussian rationals, with
squarefree decomposition and certified numeric root finding.

Binary homogeneous forms from resultants are routed through here: strip
the powers of each variable, dehomogenize, decompose by Yun's algorithm,
then solve each squarefree part (exact for degree <= 2, numeric
otherwise, with Gaussian-rational roots recognized and verified exactly).
Every numeric root has the rigorous radius  deg * |g(z)/g'(z)|, which
bounds the distance to the nearest true root, computed on its first read
at the root's own precision: a caller that never reads it never pays.

Every polynomial root the library finds comes from this module, and
every numeric one from ``complex_roots``, its single numeric entry point:
mpmath's Durand-Kerner iteration, started from the companion-matrix
eigenvalues of a double-precision copy of the polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .scalars import (GaussRat, Scalar, coerce_scalar, gauss_sqrt,
                      scalar_to_complex)


def _c2mpc(c) -> mp.mpc:
    if isinstance(c, GaussRat):
        return (mp.mpf(c.re.numerator) / c.re.denominator
                + mp.mpc(0, 1) * mp.mpf(c.im.numerator) / c.im.denominator)
    return mp.mpc(mp.mpf(c.numerator) / c.denominator)


class UniPoly:
    """Dense univariate polynomial, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [coerce_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dd = other.degree
        quot = [Fraction(0)] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlead
            quot[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            rem.pop()
        return UniPoly(quot), UniPoly(rem)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.coeffs[-1]
        return UniPoly([c / lc for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval_exact(self, x) -> Scalar:
        x = coerce_scalar(x)
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return coerce_scalar(acc)

    def eval_mpc(self, x) -> mp.mpc:
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + _c2mpc(c)
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic Euclidean gcd over the Gaussian rationals."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero else a


def yun_squarefree(p: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = uni_gcd(p, dp)
    if a.degree == 0:
        return [(p, 1)]
    b, _ = p.divmod(a)
    c, _ = dp.divmod(a)
    d = c - b.derivative()
    out: List[Tuple[UniPoly, int]] = []
    k = 1
    while b.degree > 0:
        w = uni_gcd(b, d)
        if w.degree > 0:
            out.append((w.monic(), k))
        b, _ = b.divmod(w)
        c, _ = d.divmod(w)
        d = c - b.derivative()
        k += 1
    return out


class RootBall:
    """A root of ``poly``: the exact value when recognized (radius 0), else
    a numeric value found at ``prec`` bits, whose certified radius
    (``_certify_radius``) is computed at ``prec`` bits on first read."""

    __slots__ = ("value", "multiplicity", "exact", "_poly", "_prec", "_radius")

    def __init__(self, value, multiplicity=1, exact=None, poly=None, prec=None):
        self.value = mp.mpc(value)
        self.multiplicity = multiplicity
        self.exact = coerce_scalar(exact) if exact is not None else None
        self._poly, self._prec = poly, prec
        self._radius = mp.mpf(0) if exact is not None else None

    @property
    def radius(self) -> mp.mpf:
        if self._radius is None:
            with mp.workprec(self._prec):
                self._radius = _certify_radius(self._poly, self.value)
        return self._radius

    def __repr__(self):
        if self.exact is not None:
            return f"RootBall(exact={self.exact}, m={self.multiplicity})"
        return (f"RootBall({mp.nstr(self.value, 10)} +- {mp.nstr(self.radius, 3)}, "
                f"m={self.multiplicity})")


def exact_roots_small(p: UniPoly) -> Optional[List[Scalar]]:
    """All roots exactly for degree 1 and, when the discriminant has a
    Gaussian-rational square root, degree 2.  None when not available."""
    if p.degree == 1:
        return [coerce_scalar(-p.coeffs[0] / p.coeffs[1])]
    if p.degree == 2:
        c, b, a = p.coeffs[0], p.coeffs[1], p.coeffs[2]
        disc = b * b - 4 * a * c
        s = gauss_sqrt(disc)
        if s is None:
            return None
        return [coerce_scalar((-b + s) / (2 * a)), coerce_scalar((-b - s) / (2 * a))]
    return None


class RootFindingError(ArithmeticError):
    """Durand-Kerner did not converge within its step limit."""


def complex_roots(coeffs: Sequence, prec: int) -> List[mp.mpc]:
    """Roots of a polynomial with complex coefficients (low to high) at
    working precision ``prec``, without radii; trailing zero coefficients
    are dropped first.  The library's only call of mpmath's polyroots.

    Its Durand-Kerner iteration (2 * ``prec`` bits, mpmath's own stopping
    test) starts from the companion-matrix eigenvalues of a double copy of
    the polynomial (``numpy.roots``), each moved by a distinct relative
    2^-40, and from mpmath's fixed start only when that copy is unusable:
    its leading entry underflowed to 0, an entry overflowed (LAPACK
    refuses it), or a seed is not finite.  Raises RootFindingError when
    the iteration does not converge."""
    cs = list(coeffs)
    while cs and abs(cs[-1]) == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    dbl = np.array([complex(c) for c in reversed(cs)])
    try:
        with np.errstate(all="ignore"):
            seeds = np.roots(dbl) if dbl[0] != 0 else None
    except np.linalg.LinAlgError:
        seeds = None
    if seeds is not None and np.isfinite(seeds).all():
        # From real seeds of a real polynomial the iteration stays real, so
        # it never reaches a complex pair that the double copy rounded onto
        # the real axis (a near-double root), and equal seeds never part.
        # A distinct offset of 2^-40 times each seed's modulus avoids both
        # (well above a seed's rounding, one quadratic step to undo); a
        # seed at 0, the exact root of a zero constant term, stays.
        spread = (0.4 + 0.9j) ** np.arange(1, len(seeds) + 1) * 2.0 ** -40
        seeds = [mp.mpc(z) for z in seeds + spread * np.abs(seeds)]
    else:
        seeds = None
    with mp.workprec(prec):
        try:
            roots = mp.polyroots([mp.mpc(c) for c in reversed(cs)], maxsteps=200,
                                 extraprec=prec, roots_init=seeds)
        except mp.libmp.libhyper.NoConvergence as exc:
            raise RootFindingError(f"root finding did not converge: {exc}")
        return [mp.mpc(r) for r in roots]


def _certify_radius(p: UniPoly, z: mp.mpc) -> mp.mpf:
    """deg * |p(z)/p'(z)| bounds the distance from z to the nearest root.

    A rounding cushion at the working precision is added so the bound
    stays valid for the finite-precision evaluation of p.
    """
    d = p.derivative()
    pv = p.eval_mpc(z)
    dv = d.eval_mpc(z)
    if abs(dv) == 0:
        return mp.mpf("inf")
    cushion = (max(mp.mpf(1), abs(z)) ** max(p.degree, 1)
               * mp.mpf(2) ** (10 - mp.mp.prec))
    return mp.mpf(p.degree) * (abs(pv) + cushion) / abs(dv)


def numeric_roots_squarefree(p: UniPoly, prec: int) -> List[RootBall]:
    """Roots of a squarefree polynomial at working precision ``prec``.

    Gaussian-rational roots are recognized from the numeric values and
    verified exactly; every other root's certified radius is computed
    when it is first read.
    """
    out: List[RootBall] = []
    ex = exact_roots_small(p) if p.degree in (1, 2) else None
    if ex is not None:
        for r in ex:
            out.append(RootBall(scalar_to_complex(r), 1, exact=r))
        return out
    if p.degree <= 0:
        return out
    from .scalars import reconstruct_gauss
    with mp.workprec(prec):
        for z in complex_roots([_c2mpc(c) for c in p.coeffs], prec):
            cand = reconstruct_gauss(float(mp.re(z)), float(mp.im(z)),
                                     max_den=10 ** 9, tol=1e-14)
            if cand is not None and p.eval_exact(cand) == 0:
                out.append(RootBall(scalar_to_complex(cand), 1, exact=cand))
                continue
            out.append(RootBall(z, 1, poly=p, prec=prec))
    return out


def roots_with_multiplicity(p: UniPoly, prec: int) -> List[RootBall]:
    """All roots with exact multiplicities via Yun decomposition."""
    out: List[RootBall] = []
    for factor, mult in yun_squarefree(p):
        for ball in numeric_roots_squarefree(factor, prec):
            ball.multiplicity = mult
            out.append(ball)
    return out


# ---------------------------------------------------------------------------
# Binary homogeneous forms (two active variables of a HomPoly)
# ---------------------------------------------------------------------------

def binary_to_unipoly(form, var_hi: int, var_lo: int) -> Tuple[UniPoly, int, int]:
    """Dehomogenize a binary form in (var_hi, var_lo).

    Returns (P, m_inf, m_zero): form = z_lo^m_inf * z_hi^m_zero * P
    homogenized, with P a polynomial in t = z_hi / z_lo and P(0) != 0.
    Roots of the form are [t:1] for roots t of P, plus [1:0] (t = oo) with
    multiplicity m_inf and [0:1] (t = 0) with multiplicity m_zero.
    """
    d = form.degree
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in form.terms.items():
        coeffs[e[var_hi]] = c
    lo = 0
    while lo <= d and coeffs[lo] == 0:
        lo += 1
    hi = d
    while hi >= 0 and coeffs[hi] == 0:
        hi -= 1
    # z_hi^lo divides; z_lo^(d-hi) divides
    p = UniPoly(coeffs[lo:hi + 1])
    return p, d - hi, lo


def binary_form_roots(form, var_hi: int, var_lo: int, prec: int):
    """Projective roots of a nonzero binary form with multiplicities.

    Yields (hi_value, lo_value, multiplicity, exact_pair_or_None).
    """
    p, mult_inf, mult_zero = binary_to_unipoly(form, var_hi, var_lo)
    out = []
    if mult_zero:
        out.append((mp.mpc(0), mp.mpc(1), mult_zero, (Fraction(0), Fraction(1))))
    if mult_inf:
        out.append((mp.mpc(1), mp.mpc(0), mult_inf, (Fraction(1), Fraction(0))))
    if p.degree >= 1:
        for ball in roots_with_multiplicity(p, prec):
            exact = (ball.exact, Fraction(1)) if ball.exact is not None else None
            out.append((ball.value, mp.mpc(1), ball.multiplicity, exact))
    return out

