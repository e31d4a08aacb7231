"""Univariate polynomials over the Gaussian rationals: squarefree
decomposition and certified numeric root finding.

One exact format: dense coefficient lists, low to high, over Z (ints) or
Z[i] (GaussRats with integer parts), [] for zero.  A binary form from a
resultant is dehomogenized, split by Yun's algorithm into primitive
integer factors, and each factor solved from its monic ratios, rounded
once to the working precision.  One rule, in ``numeric_roots_squarefree``,
makes a root exact: the closest Gaussian rational with part denominators
bounded by the norm of the leading coefficient and by the root's radius,
kept when it lies within that radius and the polynomial vanishes there.

Every polynomial root the library finds comes from this module.  The
cuts of the closed-form characteristic are the companion-matrix
eigenvalues of a double copy of the polynomial; every other numeric root
comes from one iteration behind ``_solve``, Aberth-Ehrlich's in doubling
precision on exact Gaussian integers from those eigenvalues, accepted
when the Henrici disks deg * |g(z0)/g'(z0)| of all roots are pairwise
disjoint.  A numeric root's rigorous radius comes from its last disk,
widened for the coefficients' rounding: no evaluation of its own."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np
from mpmath import libmp

from .linalg import poly_exquo, trim
from .polynomials import gauss_ints, round_div
from .scalars import GaussRat, coerce_scalar, integral, reconstruct_gauss, scalar_to_complex


def _c2mpc(c) -> mp.mpc:
    if isinstance(c, GaussRat):
        return (mp.mpf(c.re.numerator) / c.re.denominator
                + mp.mpc(0, 1) * mp.mpf(c.im.numerator) / c.im.denominator)
    return mp.mpc(mp.mpf(c.numerator) / c.denominator)


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _primitive(a: list) -> list:
    """The primitive integer multiple of a: denominators cleared, then the
    content in Z (leading coefficient made positive) or in Z[i] divided
    out; the Gaussian content divides the norms' gcd, where Euclid starts."""
    if a and isinstance(a[-1], GaussRat):
        a, _ = integral(a, True)
        g = GaussRat(math.gcd(*(c.re.numerator ** 2 + c.im.numerator ** 2 for c in a)))
        for c in a:
            while c:
                q = g / c
                g, c = c, g - c * GaussRat(round(q.re), round(q.im))
        return [c / g for c in a]
    g = math.gcd(*a) if not a or a[-1] > 0 else -math.gcd(*a)
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


def uni_gcd(a: Sequence, b: Sequence) -> list:
    """The primitive integer gcd of two polynomials with exact coefficients."""
    gauss = any(isinstance(c, GaussRat) for c in (*a, *b))
    return _gcd(integral(a, gauss)[0], integral(b, gauss)[0])


def yun_squarefree(p: Sequence) -> List[Tuple[list, int]]:
    """Squarefree decomposition of p, exact coefficients low to high:
    (primitive integer squarefree factor, multiplicity), multiplicities
    rising, from the primitive integer multiple f of p, whose factors they
    are up to a unit (Gauss's lemma).  p is squarefree when _P does not
    divide lc(f) and f, f' are coprime modulo _P, as a square factor's
    image would divide both (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, ch. 6 and 14); otherwise each gcd(w, c), from w = f / c and
    c = gcd(f, f'), splits off the next multiplicity (Musser's form of
    Yun's algorithm)."""
    if len(p) <= 1:
        return []
    f = _primitive(integral(p)[0])
    image = trim([mod_prime(c) for c in f])
    if len(image) == len(f) and len(_gcd(image, _mod_p(_derivative(image)), _mod_p)) == 1:
        return [(f, 1)]
    c = _gcd(f, _derivative(f))
    w, out, k = poly_exquo(f, c), [], 1
    while len(c) > 1:
        y = _gcd(w, c)
        if len(w) > len(y):
            out.append((poly_exquo(w, y), k))
        w, c, k = y, poly_exquo(c, y), k + 1
    return out + [(w, k)]


class RootBall:
    """A root of a polynomial: the exact value when recognized (radius 0),
    else a numeric value and a ``radius`` that bounds its distance to a
    root (``_radius``)."""

    __slots__ = ("value", "multiplicity", "exact", "radius")

    def __init__(self, value, multiplicity=1, exact=None, radius=None):
        self.value = mp.mpc(value)
        self.multiplicity = multiplicity
        self.exact = coerce_scalar(exact) if exact is not None else None
        self.radius = mp.mpf(0) if exact is not None else radius

    def __repr__(self):
        if self.exact is not None:
            return f"RootBall(exact={self.exact}, m={self.multiplicity})"
        return (f"RootBall({mp.nstr(self.value, 10)} +- {mp.nstr(self.radius, 3)}, "
                f"m={self.multiplicity})")


class RootFindingError(ArithmeticError):
    """The root iteration did not converge within its step cap."""


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


_STEPS = 200  # the step cap of _aberth


def _aberth(a, seeds, prec: int):
    """The Aberth-Ehrlich iteration (Aberth 1973, Math. Comp. 27; Ehrlich
    1967, CACM 10) for all roots of p = sum a_k z^k, one per seed, on
    fixed-point Gaussian integers z_i = (x_i + i y_i) / 2^f_i: each step
    moves z_i by w = N / (1 - N S), N = p(z_i) / p'(z_i) exact (``_horner``)
    and S = sum_{j != i} 1 / (z_i - z_j) as accurate as w needs (w moves by
    w^2 dS), so the only rounding is the quantization of each new z_i.

    Each root keeps its own binary exponent e, so tiny and huge roots keep
    their relative accuracy: its precision doubles from 53 bits up to
    top = prec + 64 + max(e, 0), and it stops once |N| <= 2^e 2^(-top/2),
    when the next error, about |N|^2 / 2^e apart from other roots, is the
    final quantum.  A part 2^32 times smaller than the other takes bits
    until it has prec + 64 of its own, up to the ceiling 2 prec + 64 +
    max(e, 0).  When all have stopped and their disks (``_isolated``)
    overlap, all take the ceiling's bits and go on, and a cluster
    separates.  A multiple root, converging at about 1/3 per step, never
    does: it is returned from the ceiling, after some (prec + 32) / log2(3)
    steps for a double root.

    Returns (x, y, f, disk) per seed, disk = (x0, y0, f0, |P|^2, |P'|^2) at
    the last evaluation point z0 = (x0 + i y0) / 2^f0, P = 2^(n f0) p(z0),
    P' = 2^((n - 1) f0) p'(z0); raises RootFindingError past _STEPS steps."""
    n = len(a) - 1
    es = [max(math.frexp(s.real)[1], math.frexp(s.imag)[1]) for s in seeds]
    fs = [max(53 - e, 0) for e in es]
    xs = [round(math.ldexp(s.real, f)) for s, f in zip(seeds, fs)]
    ys = [round(math.ldexp(s.imag, f)) for s, f in zip(seeds, fs)]
    bitss, extra, disks, active = [53] * n, [0] * n, [None] * n, list(range(n))
    for _ in range(_STEPS):
        evals, hs = {}, [-1] * n  # S_i is needed to 2^-h_i where h_i >= 0
        for i in active:
            x, y, f = xs[i], ys[i], fs[i]
            e = es[i] = max(abs(x).bit_length(), abs(y).bit_length()) - f if x or y else es[i]
            top = prec + 64 + max(e, 0) + extra[i]
            br, bi, cr, ci = _horner(a, x, y, f)
            num, den = br * br + bi * bi, cr * cr + ci * ci
            disks[i] = (x, y, f, num, den)
            s = top - 2 * (f + e)  # stop: |N|^2 = num / (den 4^f) <= 4^e 2^-top
            done = num << s <= den if s >= 0 else num <= den << -s
            bits = top if done else min(2 * bitss[i], top)
            g = max(bits - e, f)
            if num:  # |N| < 2^lg, so |w|^2 dS stays within a quarter of 2^-g
                lg = (num.bit_length() - den.bit_length() + 2) // 2 - f if den else e + 1
                hs[i] = max(g + 2 * lg + n.bit_length() + 4, 0)
            evals[i] = (br, bi, cr, ci, done, top, bits, g)
        sr, si = [0] * n, [0] * n  # S_i 2^h_i
        for i, j in itertools.combinations(range(n), 2):
            H, F = max(hs[i], hs[j]), max(fs[i], fs[j])
            if H < 0:
                continue
            dx = (xs[i] << F - fs[i]) - (xs[j] << F - fs[j])
            dy = (ys[i] << F - fs[i]) - (ys[j] << F - fs[j])
            m = dx * dx + dy * dy
            if m:  # equal iterates, at an exact multiple root, repel nothing
                tr, ti = (dx << F + H) // m, (-dy << F + H) // m  # 2^H / (z_i - z_j)
                sr[i], si[i] = sr[i] + (tr >> H - hs[i]), si[i] + (ti >> H - hs[i])
                sr[j], si[j] = sr[j] - (tr >> H - hs[j]), si[j] - (ti >> H - hs[j])
        moving = []
        for i in active:
            br, bi, cr, ci, done, top, bits, g = evals[i]
            f, h = fs[i], hs[i]
            x, y = xs[i] << g - f, ys[i] << g - f
            if h >= 0:  # w 2^g = P 2^(g - f) / D, D = P' - P S 2^-f to a unit of P'
                dr = cr - (br * sr[i] - bi * si[i] >> f + h)
                di = ci - (br * si[i] + bi * sr[i] >> f + h)
                dd = dr * dr + di * di or 1  # D = 0 leaves z_i where it is
                x -= round_div((br * dr + bi * di) << g - f, dd)
                y -= round_div((bi * dr - br * di) << g - f, dd)
            xs[i], ys[i], fs[i], bitss[i] = x, y, g, bits
            if done:
                # a part above eps(prec), 2^(g + 1 - prec) units, but short gets bits
                short = min((abs(v).bit_length() for v in (x, y) if abs(v) >> g + 1 - prec),
                            default=top)
                more = min(prec + 64 - short, prec - extra[i])
                if short >= prec + 32 or more <= 0:
                    continue
                extra[i] += more
            moving.append(i)
        active = moving
        if not active:
            if min(extra) >= prec or _isolated(disks, n):
                return list(zip(xs, ys, fs, disks))
            extra, active = [prec] * n, list(range(n))
    raise RootFindingError(f"root finding did not converge in {_STEPS} steps")


def _isolated(disks, n: int) -> bool:
    """True when the disks D(z0, n |p(z0) / p'(z0)|), radii rounded up, are
    pairwise disjoint.  Each such disk holds a root of the degree-n p
    (Henrici, *Applied and Computational Complex Analysis*, vol. 1), so
    then each holds exactly one, and the n centers belong to n distinct
    simple roots."""
    g = max(d[2] for d in disks)
    balls = []
    for x, y, f, num, den in disks:
        q = -(-(n * n * num << 2 * (g - f)) // den) if num else 0  # ceil(r^2 4^g)
        balls.append((x << g - f, y << g - f, math.isqrt(q - 1) + 1 if q else 0))
    return all((x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
               for (x1, y1, r1), (x2, y2, r2) in itertools.combinations(balls, 2))


def _rounded(root, prec: int) -> mp.mpc:
    """An ``_aberth`` root rounded to ``prec`` bits, the working precision;
    a part below eps(prec), or all of it, becomes 0 (mpmath's cleanup)."""
    x, y, f, _ = root
    eps = 1 << f + 1 - prec  # f >= prec + 64: eps is 2^(f + 1 - prec) units of 2^-f
    if x * x + y * y < eps * eps:
        x = y = 0
    elif abs(y) < eps:
        y = 0
    elif abs(x) < eps:
        x = 0
    return mp.mpc(mp.mpf((x, -f)), mp.mpf((y, -f)))


def _radius(a, root, z: mp.mpc, prec: int) -> mp.mpf:
    """A bound on the distance from z, the ``_aberth`` root rounded, to a
    root of any polynomial whose coefficients are within a relative
    2^(2 - prec), part by part, of the a_k: the disk of ``_isolated`` at the
    last evaluation point z0, widened for that error, which moves p(z0) by
    at most 2^(3 - prec) sum |a_k| |z0|^k (a sum below n + 1 times its
    largest term) and p'(z0) likewise, plus |z - z0|; in log2 on doubles,
    and infinite where the error could cancel half of p'(z0)."""
    x, y, f, (x0, y0, f0, num, den) = root
    n, g = len(a) - 1, max(f, f0)
    lt = math.log2(max(abs(x0) + abs(y0), 1)) - f0  # log2 |z0|, or more
    terms = [(k, math.log2(abs(ar) + abs(ai)) + k * lt) for k, (ar, ai) in enumerate(a) if ar or ai]
    # The error terms e0, e1 stay although numeric_roots_squarefree has the
    # exact coefficients: it solves their monic ratios rounded to prec bits,
    # whose roots the iteration isolates within its bits.  On the exact
    # integers, the resultant of z0^2 + 10^400 z1^2 - z2^2 and z0 z1 - z2^2
    # (coefficients of 1,300 bits and more, a root cluster in t) hits the
    # step cap under every coordinate change at every precision to 4096 bits.
    le0 = 3 - prec + math.log2(n + 1) + max(t for _, t in terms)
    le1 = 3 - prec + math.log2(n + 1) + max(t + math.log2(k) - lt for k, t in terms if k)
    lp = math.log2(num) / 2 - n * f0 if num else -math.inf  # log2 |p(z0)|
    ld = math.log2(den) / 2 - (n - 1) * f0 if den else -math.inf  # log2 |p'(z0)|
    if le1 > ld - 1:
        return mp.inf
    dx = int(mp.ldexp(z.real, g)) - (x0 << g - f0)  # z 2^g is a Gaussian integer
    dy = int(mp.ldexp(z.imag, g)) - (y0 << g - f0)
    ldist = math.log2(dx * dx + dy * dy) / 2 - g if dx or dy else -math.inf
    # n (|p| + e0) / (|p'| - e1) + |z - z0|, and 2^-20 for the doubles' rounding
    lr = max(math.log2(n) + max(lp, le0) + 2 - ld, ldist) + 1 + 2.0 ** -20
    return mp.make_mpf(libmp.mpf_shift(libmp.from_float(2.0 ** (lr % 1)), math.floor(lr)))


def companion_eigenvalues(dbl: np.ndarray) -> Optional[np.ndarray]:
    """The companion-matrix eigenvalues of the double polynomial dbl, high
    to low (``numpy.roots``), or None where that fails or one is not finite:
    the exact roots of a polynomial within a small multiple of eps |dbl| of
    dbl (Edelman & Murakami 1995, Math. Comp. 64)."""
    try:
        with np.errstate(all="ignore"):
            z = np.roots(dbl)
    except np.linalg.LinAlgError:
        return None
    return z if np.isfinite(z).all() else None


def _solve(coeffs: Sequence, prec: int):
    """(a, [(z, root)]): the Gaussian-integer coefficients of a polynomial
    (complex, low to high, trailing zeros dropped) at ``prec`` bits and each
    root rounded, with its ``_aberth`` root, sorted by (|im|, re, im); the
    iteration starts from the double companion eigenvalues, or from
    mpmath's fixed start (0.4 + 0.9i)^k where they are unusable."""
    cs = list(coeffs)
    while cs and abs(cs[-1]) == 0:
        cs.pop()
    n = len(cs) - 1
    if n <= 0:
        return [], []
    dbl = np.array([complex(c) for c in reversed(cs)])
    seeds = companion_eigenvalues(dbl) if dbl[0] != 0 else None
    if seeds is None:
        seeds = (0.4 + 0.9j) ** np.arange(n)
    else:
        # real seeds of a real polynomial stay real, and miss a complex pair the
        # double copy rounded onto the real axis; a seed 0 (p(0) = 0) stays
        seeds = seeds + (0.4 + 0.9j) ** np.arange(1, n + 1) * 2.0 ** -40 * np.abs(seeds)
    a, _ = gauss_ints([mp.mpc(c) for c in cs])  # one power of 2 off moves no root
    found = [(_rounded(root, prec), root) for root in _aberth(a, seeds, prec)]
    return a, sorted(found, key=lambda zr: (abs(zr[0].imag), zr[0].real, zr[0].imag))


def _vanishes(f: list, c) -> bool:
    """f(c) == 0, f a list of Gaussian integers (re, im) low to high and c
    a Gaussian rational: Horner on Gaussian integers for d^n f((u + i v) / d),
    d the lcm of c's part denominators."""
    c = GaussRat(0) + c  # not coerce_scalar: both parts are read
    d = math.lcm(c.re.denominator, c.im.denominator)
    u, v, q = int(c.re * d), int(c.im * d), 1
    br, bi = f[-1]
    for ar, ai in reversed(f[:-1]):
        q *= d
        br, bi = br * u - bi * v + ar * q, br * v + bi * u + ai * q
    return br == 0 == bi


def _near_lattice(x: tuple, n: int, r: tuple) -> bool:
    """|x n - round(x n)| <= n r, exactly, for x and r > 0 raw finite mpf
    values (sign, mantissa, exponent, bits): x is within r of (1/n) Z."""
    _, man, e, _ = x
    if e >= 0:
        return True
    t, s = man * n, r[2] - e  # x n = t 2^e, with the sign of x dropped
    d = t & ((1 << -e) - 1)
    d = min(d, (1 << -e) - d)  # |x n - round(x n)| = d 2^e
    bound = n * r[1]
    return d <= bound << s if s >= 0 else d << -s <= bound


def numeric_roots_squarefree(p: Sequence, prec: int) -> List[RootBall]:
    """Roots of a squarefree polynomial p (exact coefficients, low to high)
    at working precision ``prec``, each with the radius of ``_radius``, which
    covers the rounding of p's monic ratios, or exact when it is a Gaussian
    rational within reach; any nonzero multiple of p gives the same.

    One recognizer: a Gaussian-rational root a / b of the primitive integer
    multiple F of p has b | lc(F) in Z[i], so each of its parts has a
    denominator dividing N(lc(F)) (the rational root theorem).  Within the
    radius R of a root z, with D = min(N(lc(F)), floor((2 R)^(-1/2))), the
    parts of z have that root's parts as their closest rationals with
    denominators at most D (``reconstruct_gauss``), since 2 D^2 R <= 1; the
    candidate c is taken iff |z - c| <= R and F(c) = 0 exactly.  A root's
    parts lie in (1 / N(lc(F))) Z, so a z with a part farther than R from
    that lattice (``_near_lattice``, on the exact mpf integers) has no root
    within R and skips the recognizer, as most numeric roots do.  So every
    Gaussian-rational root whose part denominators are at most
    (2 R)^(-1/2), about 2^(prec / 2 - 24) for a root of modulus near 1 apart
    from the others, comes back exact, and no other."""
    if len(p) <= 1:
        return []
    F = _primitive(integral(p)[0])
    f = [(int(c.re), int(c.im)) if isinstance(c, GaussRat) else (c, 0) for c in F]
    norm = f[-1][0] ** 2 + f[-1][1] ** 2
    monic = [Fraction(c, F[-1]) if isinstance(c, int) else coerce_scalar(c / F[-1]) for c in F]
    out: List[RootBall] = []
    with mp.workprec(prec):
        # the monic ratios, rounded once to the working precision (_radius)
        a, found = _solve([_c2mpc(c) for c in monic], prec)
        for z, root in found:
            radius, c = _radius(a, root, z, prec), None
            if mp.isfinite(radius) and all(_near_lattice(x, norm, radius._mpf_) for x in z._mpc_):
                r, re, im = (Fraction(*libmp.to_rational(x)) for x in (radius._mpf_,) + z._mpc_)
                den = min(norm, math.isqrt(int(1 / (2 * r))))
                if den:
                    c = reconstruct_gauss(re, im, den, r)
            if c is not None and _vanishes(f, c):
                out.append(RootBall(scalar_to_complex(c), 1, exact=c))
            else:
                out.append(RootBall(z, 1, radius=radius))
    return out


def roots_with_multiplicity(p: Sequence, prec: int) -> List[RootBall]:
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

def dehomogenize(form, var_hi: int, var_lo: int) -> Tuple[list, int, int]:
    """Dehomogenize a binary form in (var_hi, var_lo).

    Returns (P, m_inf, m_zero): form = z_lo^m_inf * z_hi^m_zero * P
    homogenized, with P a polynomial in t = z_hi / z_lo and P(0) != 0, the
    form's coefficients low to high.
    Roots of the form are [t:1] for roots t of P, plus [1:0] (t = oo) with
    multiplicity m_inf and [0:1] (t = 0) with multiplicity m_zero.
    """
    coeffs = [0] * (form.degree + 1)
    for e, c in form.terms.items():
        coeffs[e[var_hi]] = c
    trim(coeffs)
    lo = next((i for i, c in enumerate(coeffs) if c), 0)
    # z_hi^lo divides; z_lo^(d - deg) divides
    return coeffs[lo:], form.degree + 1 - len(coeffs), lo


def binary_form_roots(form, var_hi: int, var_lo: int, prec: int):
    """Projective roots of a nonzero binary form with multiplicities, and
    the squarefree decomposition they come from.

    Returns (roots, parts): roots are (hi_value, lo_value, multiplicity,
    exact_pair_or_None), parts is ``yun_squarefree`` of the dehomogenized
    form, once for every caller that needs both.
    """
    p, mult_inf, mult_zero = dehomogenize(form, var_hi, var_lo)
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
