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
Newton's iteration in doubling precision on exact Gaussian integers,
started from the companion-matrix eigenvalues of a double-precision copy
of the polynomial and accepted when the Newton disks of all roots are
pairwise disjoint; mpmath's Durand-Kerner iteration from the same start
where they are not (double roots, clusters)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .polynomials import gauss_ints, poly_exquo, poly_mul, poly_sub, round_div, trim
from .scalars import (GaussRat, Scalar, coerce_scalar, gauss_sqrt, integral,
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
        self.coeffs = tuple(trim([coerce_scalar(c) for c in coeffs]))

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
        return UniPoly(poly_sub(list(self.coeffs), [-c for c in other.coeffs]))

    def __sub__(self, other):
        return UniPoly(poly_sub(list(self.coeffs), list(other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return UniPoly([c * other for c in self.coeffs])
        return UniPoly(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

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


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _primitive(a: list) -> list:
    """a divided by the gcd of the integers its coefficients are made of."""
    if a and isinstance(a[-1], GaussRat):
        a, _ = integral(a, True)
        return [c / math.gcd(*(x.numerator for c in a for x in (c.re, c.im))) for c in a]
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _prem(a: list, b: list) -> list:
    """A multiple of a by a power of lc(b), reduced modulo b."""
    a, db, lead = a[:], len(b) - 1, b[-1]
    while len(a) > db:
        c = a.pop()
        a = [x * lead for x in a]
        for j in range(db):
            a[len(a) - db + j] -= c * b[j]
        trim(a)
    return a


def _gcd(a: list, b: list, reduce=_primitive) -> list:
    """gcd up to a unit, each remainder primitive (or reduced modulo _P)."""
    while b:
        a, b = b, reduce(_prem(a, b))
    return reduce(a)


def _monic(a: list) -> UniPoly:
    return UniPoly([Fraction(c, a[-1]) if isinstance(a[-1], int) else c / a[-1] for c in a])


# A prime 1 mod 4 and a square root of -1 modulo it: mod_prime is a ring
# map from the Gaussian rationals with denominators prime to _P.
_P = 2 ** 64 - 59
_I_P = next(r for g in range(2, 64) if (r := pow(g, (_P - 1) // 4, _P)) * r % _P == _P - 1)


def mod_prime(x) -> int:
    if isinstance(x, GaussRat):
        return (mod_prime(x.re) + _I_P * mod_prime(x.im)) % _P
    return x.numerator * pow(x.denominator, -1, _P) % _P


def _mod_p(a: list) -> list:
    return trim([c % _P for c in a])


def _residue(image: list, x) -> int:
    """The value at the scalar x of a polynomial given modulo _P."""
    x, acc = mod_prime(x), 0
    for c in reversed(image):
        acc = (acc * x + c) % _P
    return acc


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the Gaussian rationals, from integer multiples."""
    gauss = any(isinstance(c, GaussRat) for c in a.coeffs + b.coeffs)
    return _monic(_gcd(integral(a.coeffs, gauss)[0], integral(b.coeffs, gauss)[0]))


def yun_squarefree(p: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Squarefree decomposition: (monic squarefree factor, multiplicity),
    multiplicities rising, from an integer multiple f of p.  p is
    squarefree when _P does not divide lc(f) and f, f' are coprime modulo
    _P, as a square factor's image would divide both (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 6 and 14); otherwise each
    gcd(w, c), from w = f / c and c = gcd(f, f'), splits off the next
    multiplicity (Musser's form of Yun's algorithm)."""
    if p.degree <= 0:
        return []
    f, _ = integral(p.coeffs)
    image = trim([mod_prime(c) for c in f])
    if len(image) == len(f) and len(_gcd(image, _mod_p(_derivative(image)), _mod_p)) == 1:
        return [(_monic(f), 1)]
    c = _gcd(f, _derivative(f))
    w, out, k = poly_exquo(f, c), [], 1
    while len(c) > 1:
        y = _gcd(w, c)
        if len(w) > len(y):
            out.append((_monic(poly_exquo(w, y)), k))
        w, c, k = y, poly_exquo(c, y), k + 1
    return out + [(_monic(w), k)]


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


def _horner(a, x, y, f):
    """2^(n f) p(z) and 2^((n - 1) f) p'(z) at z = (x + i y) / 2^f, exact
    in Gaussian integers (Gauss's three products per multiplication)."""
    n = len(a) - 1
    br, bi = a[n]
    cr = ci = 0
    s, d = x + y, y - x
    for k in range(n - 1, -1, -1):
        k1 = x * (cr + ci)
        cr, ci = k1 - ci * s + br, k1 + cr * d + bi
        k1 = x * (br + bi)
        ar, ai = a[k]
        br, bi = k1 - bi * s + (ar << f * (n - k)), k1 + br * d + (ai << f * (n - k))
    return br, bi, cr, ci


def _newton_root(a, seed: complex, prec: int):
    """Newton's iteration for one root of p = sum a_k z^k from a double
    seed, on fixed-point Gaussian integers z = (x + i y) / 2^f: p(z) and
    p'(z) are exact, and the only rounding is the quantization of each new
    z.  The precision doubles from 53 bits up to prec + 64, counted from
    the seed's binary exponent e (and never coarser than 2^-(prec + 64)),
    so tiny and huge roots keep the same relative accuracy.  Stops once a
    correction |dz| is at most 2^e 2^(-top/2), top = prec + 64 + max(e, 0):
    the step's error, about |dz|^2 / 2^e for a root apart from the others,
    is then about 2^(e - top), the final quantum.  A root with one part
    2^32 times smaller than the other, or more, takes more bits until that
    part has prec + 64 of its own.

    Returns (x, y, f, disk) with disk = (x0, y0, f0, |P|^2, |P'|^2) at the
    last evaluation point z0 = (x0 + i y0) / 2^f0, P = 2^(n f0) p(z0) and
    P' = 2^((n - 1) f0) p'(z0); None when p' vanishes there or there is no
    convergence within the step cap."""
    e = max(math.frexp(seed.real)[1], math.frexp(seed.imag)[1])
    top = prec + 64 + max(e, 0)                     # relative bits at the end
    bits = 53
    f = max(bits - e, 0)
    x, y = round(math.ldexp(seed.real, f)), round(math.ldexp(seed.imag, f))
    steps = 8 + (top // 53).bit_length()            # the step cap
    while steps:
        steps -= 1
        br, bi, cr, ci = _horner(a, x, y, f)
        num, den = br * br + bi * bi, cr * cr + ci * ci
        if not den:
            return None
        # |dz|^2 = num / (den 4^f) <= 4^e 2^-top
        done = num << top <= den << 2 * (f + e)
        bits = top if done else min(2 * bits, top)
        g = max(bits - e, 0)
        # dz 2^g = P 2^(g - f) / P'
        qr, qi = (br * cr + bi * ci) << g - f, (bi * cr - br * ci) << g - f
        disk = (x, y, f, num, den)
        x, y = (x << g - f) - round_div(qr, den), (y << g - f) - round_div(qi, den)
        f = g
        if done:
            # a part that outlives polyroots' cleanup (at least eps(prec),
            # 2^(f + 1 - prec) units) with fewer than prec + 32 bits gets
            # prec + 64 of its own, up to 2 prec + 64 for z
            short = min((abs(v).bit_length() for v in (x, y) if abs(v) >> f + 1 - prec),
                        default=top)
            more = min(prec + 64 - short, 2 * prec + 64 + max(e, 0) - top)
            if short >= prec + 32 or more <= 0:
                return x, y, f, disk
            top += more
            steps += 2
    return None


def _isolated(disks, n: int) -> bool:
    """True when the disks D(z0, n |p(z0) / p'(z0)|), radii rounded up, are
    pairwise disjoint.  Each such disk holds a root of the degree-n p
    (Henrici, *Applied and Computational Complex Analysis*, vol. 1), so
    then each holds exactly one, and the n centers belong to n distinct
    simple roots."""
    g = max(d[2] for d in disks)
    balls = []
    for x, y, f, num, den in disks:
        q = -(-(n * n * num << 2 * (g - f)) // den)     # ceil(r^2 4^g)
        balls.append((x << g - f, y << g - f, math.isqrt(q - 1) + 1 if q else 0))
    return all((x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
               for (x1, y1, r1), (x2, y2, r2) in itertools.combinations(balls, 2))


def _newton_roots(cs, seeds, prec: int) -> Optional[List[mp.mpc]]:
    """The roots of the polynomial with mpc coefficients cs (low to high)
    by ``_newton_root`` from each seed, rounded once to ``prec`` bits,
    with a part below eps(prec) dropped as polyroots does; None unless
    every seed converges and the disks are isolated."""
    a, _ = gauss_ints(cs)  # one power of 2 off the coefficients moves no root
    found = [_newton_root(a, complex(s), prec) for s in seeds]
    if None in found or not _isolated([r[3] for r in found], len(a) - 1):
        return None
    out = []
    for x, y, f, _ in found:
        # polyroots' cleanup: z, or a part of it, below eps(prec) becomes 0
        # (f >= prec + 64, so eps is 2^(f + 1 - prec) units of 2^-f)
        eps = 1 << f + 1 - prec
        if x * x + y * y < eps * eps:
            x = y = 0
        elif abs(y) < eps:
            y = 0
        elif abs(x) < eps:
            x = 0
        out.append(mp.mpc(mp.mpf((x, -f)), mp.mpf((y, -f))))
    return out


def _canonical(z: mp.mpc):
    return abs(z.imag), z.real, z.imag


def complex_roots(coeffs: Sequence, prec: int) -> List[mp.mpc]:
    """Roots of a polynomial with complex coefficients (low to high) at
    working precision ``prec``, without radii, sorted by (|im|, re, im);
    trailing zero coefficients are dropped first.  The coefficients are
    rounded to ``prec`` bits.

    Each companion-matrix eigenvalue of a double copy of the polynomial
    (``numpy.roots``) seeds Newton's iteration in doubling precision on
    exact Gaussian integers (``_newton_root``); the refined roots are
    returned when their Newton disks are pairwise disjoint, so that each
    belongs to its own simple root.  Otherwise (an unusable double copy,
    a zero derivative, no convergence, or overlapping disks: double
    roots, clusters, a complex pair the double copy rounded onto the real
    axis) mpmath's Durand-Kerner iteration runs at 2 * ``prec`` bits with
    its own stopping test, the library's only call of polyroots.  It
    starts from the same eigenvalues, each moved by a distinct relative
    2^-40, or from mpmath's fixed start when the double copy is unusable:
    its leading entry underflowed to 0, an entry overflowed (LAPACK
    refuses it), or a seed is not finite.  Raises RootFindingError when
    that iteration does not converge."""
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
    with mp.workprec(prec):
        mcs = [mp.mpc(c) for c in cs]
        if seeds is not None and np.isfinite(seeds).all():
            roots = _newton_roots(mcs, seeds, prec)
            if roots is not None:
                return sorted(roots, key=_canonical)
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
        try:
            roots = mp.polyroots(mcs[::-1], maxsteps=200, extraprec=prec, roots_init=seeds)
        except mp.libmp.libhyper.NoConvergence as exc:
            raise RootFindingError(f"root finding did not converge: {exc}")
        return sorted(map(mp.mpc, roots), key=_canonical)


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
    verified exactly, after a candidate whose value modulo a prime is
    nonzero, so no root, is set aside; every other root's certified
    radius is computed when it is first read.
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
    image = [mod_prime(c) for c in integral(p.coeffs)[0]]
    with mp.workprec(prec):
        for z in complex_roots([_c2mpc(c) for c in p.coeffs], prec):
            # denominators at most 10^9 < _P
            cand = reconstruct_gauss(float(mp.re(z)), float(mp.im(z)),
                                     max_den=10 ** 9, tol=1e-14)
            if cand is not None and _residue(image, cand) == 0 and p.eval_exact(cand) == 0:
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
    coeffs = [0] * (form.degree + 1)
    for e, c in form.terms.items():
        coeffs[e[var_hi]] = c
    trim(coeffs)
    lo = next((i for i, c in enumerate(coeffs) if c), 0)
    # z_hi^lo divides; z_lo^(d - deg) divides
    return UniPoly(coeffs[lo:]), form.degree + 1 - len(coeffs), lo


def binary_form_roots(form, var_hi: int, var_lo: int, prec: int):
    """Projective roots of a nonzero binary form with multiplicities, and
    the squarefree decomposition they come from.

    Returns (roots, parts): roots are (hi_value, lo_value, multiplicity,
    exact_pair_or_None), parts is ``yun_squarefree`` of the dehomogenized
    form, once for every caller that needs both.
    """
    p, mult_inf, mult_zero = binary_to_unipoly(form, var_hi, var_lo)
    out = []
    if mult_zero:
        out.append((mp.mpc(0), mp.mpc(1), mult_zero, (Fraction(0), Fraction(1))))
    if mult_inf:
        out.append((mp.mpc(1), mp.mpc(0), mult_inf, (Fraction(1), Fraction(0))))
    parts = yun_squarefree(p)
    for factor, mult in parts:
        for ball in numeric_roots_squarefree(factor, prec):
            exact = (ball.exact, Fraction(1)) if ball.exact is not None else None
            out.append((ball.value, mp.mpc(1), mult, exact))
    return out, parts
