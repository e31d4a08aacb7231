"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction``.  ``GaussRat`` adjoins the
imaginary unit with rational real and imaginary parts; it interoperates
with int and Fraction in arithmetic and comparisons.  Coefficients of
polynomials are kept canonical through :func:`coerce_scalar`, which
returns a Fraction whenever the imaginary part is zero.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

Rat = Fraction
Scalar = Union[int, Fraction, "GaussRat"]


class GaussRat:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _wrap(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRat(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = GaussRat(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussRat(0, 1)


def coerce_scalar(x) -> Scalar:
    """Canonical form: Fraction when real, GaussRat otherwise."""
    if isinstance(x, GaussRat):
        return x.re if x.im == 0 else x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_to_complex(x) -> complex:
    if isinstance(x, GaussRat):
        return complex(x)
    return complex(float(x), 0.0)


_DEC_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal or rational literal ('1.25', '-3', '2/5') exactly."""
    t = text.strip()
    if "/" in t:
        num, den = t.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    if not _DEC_RE.match(t):
        raise ValueError(f"not a decimal literal: {text!r}")
    return Fraction(t)


def parse_scalar_string(text: str) -> Scalar:
    """Parse 'a', 'bi', 'a+bi', 'a-bi' with decimal/rational parts."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty scalar string")
    if t in ("i", "+i"):
        return GaussRat(0, 1)
    if t == "-i":
        return GaussRat(0, -1)
    if t.endswith("i") or t.endswith("j"):
        body = t[:-1]
        # split into real and imaginary pieces at the last top-level +/-
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE/":
                re_part = parse_decimal(body[:k])
                im_str = body[k:]
                if im_str in ("+", "-"):
                    im_str += "1"
                return coerce_scalar(GaussRat(re_part, parse_decimal(im_str)))
        if body in ("", "+"):
            return GaussRat(0, 1)
        if body == "-":
            return GaussRat(0, -1)
        return coerce_scalar(GaussRat(0, parse_decimal(body)))
    return parse_decimal(t)


def format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x) -> str:
    x = coerce_scalar(x)
    if isinstance(x, Fraction):
        return format_rat(x)
    if x.re == 0:
        if x.im == 1:
            return "i"
        if x.im == -1:
            return "-i"
        return f"{format_rat(x.im)}i"
    sign = "+" if x.im >= 0 else "-"
    im = abs(x.im)
    im_str = "i" if im == 1 else f"{format_rat(im)}i"
    return f"{format_rat(x.re)}{sign}{im_str}"


def integral(coeffs: Sequence, gauss: bool = False) -> Tuple[list, int]:
    """(cs, L): the exact scalars ``coeffs`` times L, the lcm of their
    denominators, as Python ints, or as GaussRats when one of them is
    Gaussian or ``gauss`` is set."""
    gauss = gauss or any(isinstance(c, GaussRat) for c in coeffs)
    L = math.lcm(*(x.denominator for c in coeffs
                   for x in ((c.re, c.im) if isinstance(c, GaussRat) else (c,))))
    if gauss:
        return [GaussRat(0) + c * L for c in coeffs], L
    return [c.numerator * (L // c.denominator) for c in coeffs], L


def primitive_vector(vec) -> list:
    """Scale an exact vector to primitive integer coordinates.

    Denominators are cleared, the integer gcd divided out, and the sign
    fixed so the first nonzero entry has positive real part (positive
    imaginary part when the real part is zero).
    """
    xs = [coerce_scalar(x) for x in vec]
    if all(x == 0 for x in xs):
        return xs
    ys, _ = integral(xs, True)
    g = math.gcd(*(x.numerator for y in ys for x in (y.re, y.im)))
    lead = next(y for y in ys if y)
    if lead.re < 0 or (lead.re == 0 and lead.im < 0):
        g = -g
    return [coerce_scalar(y / g) for y in ys]


def reconstruct_gauss(re: Fraction, im: Fraction, max_den: int,
                      radius: Fraction) -> Optional[Scalar]:
    """The Gaussian rational c whose parts are the closest rationals to re
    and im with denominators at most max_den, when |re + i im - c| <=
    radius; else None.  Two distinct rationals with denominators at most
    max_den are 1 / max_den^2 apart or more, so when 2 max_den^2 radius <=
    1, no other such Gaussian rational lies within radius of re + i im."""
    c = GaussRat(re.limit_denominator(max_den), im.limit_denominator(max_den))
    dr, di = re - c.re, im - c.im
    return coerce_scalar(c) if dr * dr + di * di <= radius * radius else None
