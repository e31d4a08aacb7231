"""Exact homogeneous polynomials in z0, z1, z2 over the (Gaussian) rationals.

The substrate for everything else: sparse term maps keyed by exponent
triples, a one-pass parser for the polynomial grammar, Sylvester
resultants and subresultants from ``linalg``'s fraction-free echelon on
dense integer polynomials, the symmetric-matrix view of quadrics, and
certified numeric evaluation at projective points.

Grammar (whitespace insignificant)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'z0' | 'z1' | 'z2' | rational | '(' expr ')'
    rational := int | '(' int '/' uint ')'

A leading unary minus and, when ``gaussian=True``, the literal ``i`` are
accepted as strict extensions; everything the grammar produces parses,
with parentheses nested at most ``MAX_NESTING`` (100) deep and products
and powers of degree at most ``MAX_DEGREE`` (64) whose coefficients stay
within an estimated ``MAX_COEFFICIENT_BITS`` (65,536) bits, and integer
literals of at most ``MAX_LITERAL_DIGITS`` (4,300) digits, or of the
interpreter's ``sys.get_int_max_str_digits()`` where that is lower.  Past
those, the first '(' too many, the '*' or '^' whose value would pass the
degree or the size, or the first digit of the long literal is a
``PolySyntaxError``.  Digits are the ASCII ones; any other character
outside the grammar, another script's digits included, is a
``PolySyntaxError`` at its position.

``parse_poly`` tokenizes the text, then evaluates while it parses, in one
recursive-descent pass: sums and products are loops, so their length is
not bounded by the stack, and each rule's value is a plain term map
combined by the same kernels as ``HomPoly``'s operators (``_terms_add``,
``_terms_mul``, ``_terms_neg``, ``_terms_pow``).  So the one ``HomPoly``,
built at the end, has the terms, the term order (which ball evaluation
follows) and the coefficient types that the operators give.  Errors keep
their precedence: a bad character anywhere, then the first syntax error,
then the first homogeneity error in evaluation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
from mpmath import libmp

from .config import scoped
from .linalg import adjugate, cross, dot, echelon, trim
from .scalars import (GaussRat, Scalar, coerce_scalar, format_rat,
                      format_scalar, integral, scalar_to_complex)

Expo = Tuple[int, int, int]

VAR_NAMES = ("z0", "z1", "z2")

# The one order of a conic's six coefficients: z0^2, z1^2, z2^2, z0z1,
# z0z2, z1z2 (``HomPoly.quadratic_form`` and ``HomPoly.quadratic_coeffs``)
QUADRATIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


class PolySyntaxError(SyntaxError):
    """Raised on grammar violations; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneousError(ValueError):
    """Raised when a parsed polynomial mixes total degrees."""

    def __init__(self, degrees):
        super().__init__(f"inhomogeneous polynomial, monomial degrees {sorted(degrees)}")
        self.degrees = sorted(degrees)


class ZeroPolynomialError(ValueError):
    pass


class DegenerateLeadingFormError(ValueError):
    """Neither input involves the eliminated variable; change variable."""


class WrongDegreeError(ValueError):
    pass


class PrecisionExhaustedError(ArithmeticError):
    pass


def scalar_to_mp(x):
    """x rounded to the working precision as an mpf (an mpc if a GaussRat)."""
    if isinstance(x, GaussRat):
        return mp.mpc(scalar_to_mp(x.re), scalar_to_mp(x.im))
    return mp.mpf(x.numerator) / x.denominator


def gauss_mul(x, y):
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, halves up (b > 0)."""
    return (2 * a + b) // (2 * b)


def gauss_div(x, y, shift: int = 0):
    """The Gaussian integer nearest to x 2^shift / y, part by part."""
    n = y[0] * y[0] + y[1] * y[1]
    re, im = gauss_mul(x, (y[0], -y[1]))
    return round_div(re << shift, n), round_div(im << shift, n)


def gauss_ints(values) -> Tuple[List[Tuple[int, int]], int]:
    """(X, E): Gaussian integers X_k = values[k] 2^-E exactly, one binary
    exponent E for all, the least of a nonzero part (0 if there is none).
    A value that is not an mpc is first converted to one at the working
    precision (exactly for a float, a complex or a small int)."""
    parts = [(-m if sign else m, e) for v in values
             for sign, m, e, _ in (v if isinstance(v, mp.mpc) else mp.mpc(v))._mpc_]
    low = min((e for m, e in parts if m), default=0)
    ints = [m << e - low if m else 0 for m, e in parts]
    return list(zip(ints[::2], ints[1::2])), low


class MpForms:
    """Forms evaluated exactly on Gaussian integers.

    Each form is scaled once, at construction, to integer coefficients
    (``scalars.integral``, one lcm L for all the forms, a coefficient in
    Z[i] only where it is Gaussian).  ``sums`` gives L times each form at a
    point of three Gaussian integers, exactly: each power of a coordinate
    and each monomial is taken once per point.  ``values`` puts a numeric
    point on Gaussian integers with one binary exponent (``gauss_ints``)
    and rounds each exact value once to the working precision, so every
    value is correctly rounded."""

    __slots__ = ("_forms", "_monomials", "_degrees", "_scale")

    def __init__(self, polys: Sequence["HomPoly"]):
        ints, self._scale = integral([c for p in polys for c in p.terms.values()])
        ints = iter(ints)
        index: Dict[Expo, int] = {}
        self._forms = []
        for p in polys:
            terms = []
            for e in p.terms:
                c = next(ints)
                c = (c.re.numerator, c.im.numerator) if isinstance(c, GaussRat) else (c, 0)
                terms.append((index.setdefault(e, len(index)), c))
            self._forms.append(terms)
        self._monomials = list(index)
        self._degrees = [p.degree for p in polys]

    def sums(self, point, which: Optional[Sequence[int]] = None) -> List[Tuple[int, int]]:
        """L times the forms listed in ``which`` (all by default) at a point
        of three Gaussian integers (re, im), as exact Gaussian integers."""
        which = range(len(self._forms)) if which is None else which
        top = max([self._degrees[j] for j in which] + [0])
        powers = []
        for x in point:
            row = [(1, 0)]
            for _ in range(top):
                row.append(gauss_mul(row[-1], x))
            powers.append(row)
        monomials = [None] * len(self._monomials)
        out = []
        for j in which:
            sr = si = 0
            for m, (cr, ci) in self._forms[j]:
                mono = monomials[m]
                if mono is None:
                    mr, mi = 1, 0
                    for row, k in zip(powers, self._monomials[m]):
                        if k:
                            xr, xi = row[k]
                            mr, mi = mr * xr - mi * xi, mr * xi + mi * xr
                    mono = monomials[m] = mr, mi
                if ci:
                    tr, ti = gauss_mul((cr, ci), mono)
                    sr += tr
                    si += ti
                else:
                    sr += cr * mono[0]
                    si += cr * mono[1]
            out.append((sr, si))
        return out

    def values(self, point, which: Optional[Sequence[int]] = None) -> List:
        """The values of the forms listed in ``which`` (all by default) at
        a numeric point, each the exact value rounded once."""
        which = range(len(self._forms)) if which is None else which
        ints, low = gauss_ints(point)
        prec, L = mp.mp.prec, self._scale
        out = []
        for j, s in zip(which, self.sums(ints, which)):
            shift = self._degrees[j] * low
            # the value is s 2^shift / L
            out.append(mp.make_mpc(tuple(
                libmp.mpf_shift(libmp.from_rational(x, L, prec, "n"), shift) for x in s)))
        return out


def _grlex_key(e: Expo):
    return (sum(e), e)


def _term_mul(a: Dict[Expo, Scalar], b: Dict[Expo, Scalar]) -> Dict[Expo, Scalar]:
    """Product of two term maps, zero terms kept: the integer expansion of
    ``HomPoly.compose``, where a cancelled term keeps its slot and so fixes
    the order of the composed form's terms."""
    res: Dict[Expo, Scalar] = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            res[e] = res.get(e, 0) + c1 * c2
    return res


# The ring kernels on term maps {exponent: coefficient} without zero
# coefficients.  ``HomPoly``'s operators and the parser both call them, so
# a parsed form has the terms, in the order, that its operators give.  A
# key keeps its slot while its coefficient is nonzero; one that cancels
# leaves, and comes back at the end.

def _terms_add(res: Dict[Expo, Scalar], b: Dict[Expo, Scalar]) -> Dict[Expo, Scalar]:
    """res + b, written into res and returned."""
    for e, c in b.items():
        s = res.get(e, 0) + c
        if s == 0:
            res.pop(e, None)
        else:
            res[e] = s
    return res


def _terms_neg(a: Dict[Expo, Scalar]) -> Dict[Expo, Scalar]:
    return {e: -c for e, c in a.items()}


def _terms_mul(a: Dict[Expo, Scalar], b: Dict[Expo, Scalar]) -> Dict[Expo, Scalar]:
    res: Dict[Expo, Scalar] = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            s = res.get(e, 0) + c1 * c2
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
    return res


def _terms_pow(a: Dict[Expo, Scalar], n: int) -> Dict[Expo, Scalar]:
    """a^n by binary powering, the product with 1 first."""
    out: Dict[Expo, Scalar] = {(0, 0, 0): 1}
    while n:
        if n & 1:
            out = _terms_mul(out, a)
        n >>= 1
        if n:
            a = _terms_mul(a, a)
    return out


class HomPoly:
    """Immutable homogeneous polynomial, zero polynomial tagged degree -1."""

    __slots__ = ("terms", "degree", "_hash")

    def __init__(self, terms: Dict[Expo, Scalar] | None = None):
        tmap: Dict[Expo, Scalar] = {}
        if terms:
            for e, c in terms.items():
                c = coerce_scalar(c)
                if c != 0:
                    tmap[tuple(e)] = c
        if tmap:
            degs = {sum(e) for e in tmap}
            if len(degs) != 1:
                raise NotHomogeneousError(degs)
            deg = degs.pop()
        else:
            deg = -1
        object.__setattr__(self, "terms", tmap)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("HomPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "HomPoly":
        return HomPoly({})

    @staticmethod
    def constant(c) -> "HomPoly":
        return HomPoly({(0, 0, 0): c})

    @staticmethod
    def variable(i: int) -> "HomPoly":
        return HomPoly({tuple(int(j == i) for j in range(3)): 1})

    @staticmethod
    def monomial(e: Expo, c=1) -> "HomPoly":
        return HomPoly({tuple(e): c})

    @staticmethod
    def linear_form(coeffs: Sequence) -> "HomPoly":
        return HomPoly({(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1],
                        (0, 0, 1): coeffs[2]})

    def linear_coeffs(self) -> List[Scalar]:
        """Coefficients of z0, z1, z2: the inverse of ``linear_form``."""
        return [self.coeff((1, 0, 0)), self.coeff((0, 1, 0)), self.coeff((0, 0, 1))]

    @staticmethod
    def quadratic_form(coeffs: Sequence) -> "HomPoly":
        """The conic with the six coefficients on ``QUADRATIC_MONOMIALS``."""
        return HomPoly(dict(zip(QUADRATIC_MONOMIALS, coeffs)))

    def quadratic_coeffs(self) -> List[Scalar]:
        """Coefficients on ``QUADRATIC_MONOMIALS``: the inverse of ``quadratic_form``."""
        return [self.coeff(e) for e in QUADRATIC_MONOMIALS]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return HomPoly(_terms_add(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + -other if isinstance(other, HomPoly) else NotImplemented

    def __neg__(self):
        return HomPoly(_terms_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        if not isinstance(other, HomPoly):
            return NotImplemented
        return HomPoly(_terms_mul(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "HomPoly":
        c = coerce_scalar(c)
        if c == 0:
            return HomPoly.zero()
        return HomPoly({e: co * c for e, co in self.terms.items()})

    def __pow__(self, n: int) -> "HomPoly":
        if n < 0:
            raise ValueError("negative power")
        return HomPoly(_terms_pow(self.terms, n))

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def coeff(self, e: Expo) -> Scalar:
        return self.terms.get(tuple(e), Fraction(0))

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def coeffs_in(self, var: int) -> List["HomPoly"]:
        """Coefficients by power of ``var``, each a form in the other two."""
        d = self.degree_in(var)
        out: List[Dict[Expo, Scalar]] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[var]
            rest[var] = 0
            out[k][tuple(rest)] = c
        return [HomPoly(t) for t in out]

    def derivative(self, var: int) -> "HomPoly":
        res: Dict[Expo, Scalar] = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            e2 = list(e)
            e2[var] -= 1
            res[tuple(e2)] = c * e[var]
        return HomPoly(res)

    def gradient(self) -> Tuple["HomPoly", "HomPoly", "HomPoly"]:
        return (self.derivative(0), self.derivative(1), self.derivative(2))

    def eval_exact(self, point: Sequence) -> Scalar:
        total: Scalar = Fraction(0)
        pt = [coerce_scalar(x) for x in point]
        for e, c in self.terms.items():
            v = c
            for i in range(3):
                if e[i]:
                    v = v * pt[i] ** e[i]
            total = total + v
        return coerce_scalar(total)

    def eval_mpc(self, point):
        return MpForms([self]).values(point)[0]

    def eval_ball(self, z):
        """Value at a vector of Balls, term by term."""
        double = z[0].mid.__class__ is not mp.mpc
        total = Ball.exact(0, double)
        for e, c in self.terms.items():
            term = Ball.exact(c, double)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * z[i]
            total = total + term
        return total

    def compose(self, args: Sequence["HomPoly"]) -> "HomPoly":
        """Substitute args[i] for variable i; args must share one degree.
        The identity substitution (z0, z1, z2) returns self.  Expanded on
        integers: self times the lcm L of its denominators, the args times
        the lcm M of theirs (Gaussian integers where any is Gaussian), and
        one division by L M^deg at the end."""
        if self.is_zero:
            return HomPoly.zero()
        if all(a == HomPoly.variable(i) for i, a in enumerate(args)):
            return self
        degs = {a.degree for a in args if not a.is_zero}
        if len(degs) > 1:
            raise ValueError("substituted forms must have a common degree")
        cs, L = integral(list(self.terms.values()))
        flat, M = integral([c for a in args for c in a.terms.values()])
        flat = iter(flat)
        ints = [{e: next(flat) for e in a.terms} for a in args]
        powers = [[{(0, 0, 0): 1}] for _ in range(3)]
        for e in self.terms:
            for i in range(3):
                while len(powers[i]) <= e[i]:
                    powers[i].append(_term_mul(powers[i][-1], ints[i]))
        out: Dict[Expo, Scalar] = {}
        for e, c in zip(self.terms, cs):
            prod = _term_mul(_term_mul(powers[0][e[0]], powers[1][e[1]]), powers[2][e[2]])
            for m, v in prod.items():
                out[m] = out.get(m, 0) + c * v
        scale = L * M ** self.degree
        return HomPoly({m: Fraction(v, scale) if isinstance(v, int) else v / scale
                        for m, v in out.items()})

    def exact_div(self, divisor: "HomPoly") -> "HomPoly":
        """Exact quotient; raises if the division leaves a remainder."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return HomPoly.zero()
        rem = dict(self.terms)
        quot: Dict[Expo, Scalar] = {}
        dlead = max(divisor.terms, key=_grlex_key)
        dco = divisor.terms[dlead]
        while rem:
            rlead = max(rem, key=_grlex_key)
            q = tuple(rlead[i] - dlead[i] for i in range(3))
            if any(x < 0 for x in q):
                raise ArithmeticError("inexact polynomial division")
            c = rem[rlead] / dco
            quot[q] = c
            _terms_add(rem, {(e[0] + q[0], e[1] + q[1], e[2] + q[2]): -(c * co)
                             for e, co in divisor.terms.items()})
        return HomPoly(quot)

    def content_primitive(self) -> Tuple[Scalar, "HomPoly"]:
        """Scale to a primitive integer form, first nonzero coeff positive.

        Returns (c, prim) with self == c * prim.  For Gaussian coefficients
        the first coefficient (graded lex) is made positive real when its
        phase is a power of i, otherwise left as is.
        """
        if self.is_zero:
            return Fraction(1), self
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        lead = items[0][1]
        if any(isinstance(c, GaussRat) for _, c in items):
            return lead, HomPoly({e: c / lead for e, c in self.terms.items()})
        ints, den_lcm = integral([c for _, c in items])
        f = Fraction(math.gcd(*ints), den_lcm)
        if lead < 0:
            f = -f
        prim = HomPoly({e: c / f for e, c in self.terms.items()})
        return f, prim

    def as_square_of_linear(self) -> Optional[Tuple[Scalar, "HomPoly"]]:
        """If self == c * L^2 with L a primitive linear form, return (c, L)."""
        if self.degree != 2:
            return None
        qf = quadric_form(self)
        if qf.rank != 1:
            return None
        M = qf.matrix
        j = next(i for i in range(3) if M[i][i] != 0)
        col = [M[0][j], M[1][j], M[2][j]]
        L = HomPoly.linear_form(col)
        _, Lp = L.content_primitive()
        sq = Lp * Lp
        lead = max(sq.terms, key=_grlex_key)
        c = self.terms[lead] / sq.terms[lead]
        if sq.scale(c) != self:
            return None
        return coerce_scalar(c), Lp

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        parts: List[str] = []
        for k, (e, c) in enumerate(items):
            mono = "*".join(
                f"{VAR_NAMES[i]}^{e[i]}" if e[i] > 1 else VAR_NAMES[i]
                for i in range(3) if e[i] > 0
            )
            if isinstance(c, GaussRat):
                cs = f"({format_scalar(c)})"
                neg = False
            else:
                neg = c < 0
                a = abs(c)
                cs = format_rat(a) if a.denominator == 1 else f"({format_rat(a)})"
            if mono:
                body = mono if cs == "1" else f"{cs}*{mono}"
            else:
                body = cs
            if k == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"HomPoly({self})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The deepest nesting of parentheses a form may have.  The parser recurses
# once per level, so this bounds its stack; deeper input is a syntax error
# at the first '(' past the limit.
MAX_NESTING = 100

# The highest degree a product or a power may reach while parsing.  A
# form of degree d has up to (d + 1)(d + 2)/2 terms and a product costs the
# product of its factors' term counts, so expansion grows as d^4; the bound
# keeps one power within a fraction of a second.  A higher degree is a
# syntax error at its '*' or '^'.  A constant has degree 0 however large.
MAX_DEGREE = 64

# The largest coefficient size in bits, which MAX_DEGREE does not bound for
# constants (3^4000000 would take seconds): a power's size is its exponent
# times the bit length of its base's largest numerator or denominator part,
# unless the base is a unit, a product's the sum of its factors' sizes.
MAX_COEFFICIENT_BITS = 65536

# The most digits an integer literal may have: CPython's default limit on
# int() of a decimal string, whose own error names no position.  About
# 14,300 bits, within MAX_COEFFICIENT_BITS; a literal longer than this, or
# than the interpreter's limit where PYTHONINTMAXSTRDIGITS or
# sys.set_int_max_str_digits set it lower, is a syntax error at its first
# digit.
MAX_LITERAL_DIGITS = 4300

_UNIT_CONSTANTS = (1, -1, GaussRat(0, 1), GaussRat(0, -1))

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _bits(t: Dict[Expo, Scalar]) -> int:
    """Bit length of a term map's largest numerator or denominator part."""
    return max(max(abs(x.numerator), x.denominator) for c in t.values()
               for x in ((c.re, c.im) if isinstance(c, GaussRat) else (c,))).bit_length()


def _tokenize(text: str, gaussian: bool):
    """Token kinds, values and positions, closed by an 'end' token.  Kinds
    are 'var' (value: the variable's index), 'int', 'imag' and the
    operator characters."""
    kinds, values, positions = [], [], []
    i, n = 0, len(text)
    digits = min(MAX_LITERAL_DIGITS, sys.get_int_max_str_digits() or MAX_LITERAL_DIGITS)
    while i < n:
        ch = text[i]
        if ch in "+-*^()/":
            kinds.append(ch)
            values.append(None)
            positions.append(i)
            i += 1
        elif ch == "z" and text[i + 1:i + 2] in ("0", "1", "2"):
            kinds.append("var")
            values.append(int(text[i + 1]))
            positions.append(i)
            i += 2
        elif ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > digits:
                raise PolySyntaxError(f"integer literal of {j - i} digits above {digits}", i)
            kinds.append("int")
            values.append(int(text[i:j]))
            positions.append(i)
            i = j
        elif gaussian and ch == "i":
            kinds.append("imag")
            values.append(None)
            positions.append(i)
            i += 1
        else:
            raise PolySyntaxError(f"unexpected character {ch!r}", i)
    kinds.append("end")
    values.append(None)
    positions.append(n)
    return kinds, values, positions


class _Parser:
    """One recursive-descent pass over the tokens that evaluates as it
    parses: each rule returns its value as a term map with ``int``
    coefficients (``Fraction`` only for a '(p/q)' literal), combined by
    the ring kernels.  Sums and products run as loops; only parentheses
    recurse.  The first homogeneity error, in evaluation order, is kept
    in ``error`` and the parse goes on, so that a syntax error anywhere
    takes precedence over it."""

    __slots__ = ("kinds", "values", "positions", "k", "depth", "error")

    def __init__(self, text: str, gaussian: bool):
        self.kinds, self.values, self.positions = _tokenize(text, gaussian)
        self.k = 0
        self.depth = 0
        self.error = None

    def _expect(self, kind):
        k = self.k
        if self.kinds[k] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {self.kinds[k]!r}",
                                  self.positions[k])
        self.k = k + 1
        return self.values[k]

    def expr(self) -> Dict[Expo, Scalar]:
        """term (('+'|'-') term)*, with a unary minus on the first term."""
        kinds = self.kinds
        if kinds[self.k] == "-":
            self.k += 1
            acc = _terms_neg(self.term())
        else:
            acc = self.term()
        while True:
            op = kinds[self.k]
            if op != "+" and op != "-":
                return acc
            self.k += 1
            rhs = self.term()
            if op == "-":
                rhs = _terms_neg(rhs)
            if acc and rhs:
                da, db = sum(next(iter(acc))), sum(next(iter(rhs)))
                if da != db:
                    if self.error is None:
                        self.error = NotHomogeneousError({da, db})
                    acc = {}
                    continue
            acc = _terms_add(acc, rhs)

    def term(self) -> Dict[Expo, Scalar]:
        """factor ('*' factor)*"""
        acc = self.factor()
        kinds = self.kinds
        while kinds[self.k] == "*":
            at = self.k
            self.k += 1
            rhs = self.factor()
            if acc and rhs:
                self._check(sum(next(iter(acc))) + sum(next(iter(rhs))),
                            _bits(acc) + _bits(rhs), at)
            acc = _terms_mul(acc, rhs)
        return acc

    def factor(self) -> Dict[Expo, Scalar]:
        """base ('^' uint)?"""
        kinds, k = self.kinds, self.k
        kind = kinds[k]
        if kind == "var":
            self.k = k + 1
            t = {_UNITS[self.values[k]]: 1}
        elif kind == "int":
            self.k = k + 1
            v = self.values[k]
            t = {(0, 0, 0): v} if v else {}
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_NESTING}",
                                      self.positions[k])
            v = self._paren_literal()
            if v is None:
                self.k = k + 1
                self.depth += 1
                t = self.expr()
                self._expect(")")
                self.depth -= 1
            else:
                t = {(0, 0, 0): v} if v else {}
        elif kind == "-":  # a signed integer literal
            self.k = k + 1
            v = self._expect("int")
            t = {(0, 0, 0): -v} if v else {}
        elif kind == "imag":
            self.k = k + 1
            t = {(0, 0, 0): GaussRat(0, 1)}
        else:
            raise PolySyntaxError(f"unexpected token {kind!r}", self.positions[k])
        if kinds[self.k] == "^":
            at = self.k
            self.k += 1
            n = self._expect("int")
            if t:
                unit = len(t) == 1 and t.get((0, 0, 0)) in _UNIT_CONSTANTS
                self._check(sum(next(iter(t))) * n, 0 if unit else _bits(t) * n, at)
            t = _terms_pow(t, n)
        return t

    def _check(self, degree: int, bits: int, at: int):
        if degree > MAX_DEGREE:
            raise PolySyntaxError(f"degree {degree} above {MAX_DEGREE}", self.positions[at])
        if bits > MAX_COEFFICIENT_BITS:
            raise PolySyntaxError(f"coefficients of about {bits} bits above "
                                  f"{MAX_COEFFICIENT_BITS}", self.positions[at])

    def _paren_literal(self):
        """At a '(': the value of '(' ['-'] int ')' or '(' ['-'] int '/'
        uint ')', the parser moved past the ')'; None, the parser not
        moved, when the parentheses hold anything else."""
        kinds, start = self.kinds, self.k
        self.k += 1
        sign = 1
        if kinds[self.k] == "-":
            sign = -1
            self.k += 1
        if kinds[self.k] == "int":
            at = self.k
            num = sign * self._expect("int")
            if kinds[self.k] == "/":
                self.k += 1
                den = self._expect("int")
                if den == 0:
                    raise PolySyntaxError("zero denominator", self.positions[at])
                if kinds[self.k] == ")":
                    self.k += 1
                    return Fraction(num, den)
            elif kinds[self.k] == ")":
                self.k += 1
                return num
        self.k = start
        return None


def parse_poly(text: str, gaussian: bool = False) -> HomPoly:
    """Parse and expand in one pass; rejects inhomogeneous input."""
    parser = _Parser(text, gaussian)
    terms = parser.expr()
    k = parser.k
    if parser.kinds[k] != "end":
        raise PolySyntaxError(f"trailing input {parser.kinds[k]!r}", parser.positions[k])
    if parser.error is not None:
        raise parser.error
    return HomPoly(terms)


# ---------------------------------------------------------------------------
# Quadric forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadricForm:
    """Symmetric 3x3 matrix view of a degree-2 form: poly(z) = z^T M z,
    with the matrix's adjugate, rank and determinant and the dual conic
    z^T adj(M) z, whose zeros are the conic's tangent lines.  All are
    computed in one pass from the rows' cross products."""

    matrix: tuple
    adjugate: tuple
    rank: int
    det: Scalar
    dual: "HomPoly"


def quadric_form(p: HomPoly) -> QuadricForm:
    """Symmetric matrix, adjugate, exact rank, determinant and dual conic
    of a degree-2 form; computed once per form inside an analysis scope."""
    if p.degree != 2:
        raise WrongDegreeError(f"degree 2 required, got {p.degree}")
    return scoped(("quadric_form", p), lambda: _quadric_form(p))


def _quadric_form(p: HomPoly) -> QuadricForm:
    # the off-diagonal entries are half the cross coefficients
    c = p.quadratic_coeffs()
    h = [coerce_scalar(x / 2) for x in c[3:]]
    Mt = ((c[0], h[0], h[1]), (h[0], c[1], h[2]), (h[1], h[2], c[2]))
    adj = adjugate(Mt)
    # det(M) = r0 . (r1 x r2), and r1 x r2 is the adjugate's first column;
    # a nonzero adjugate is a nonzero 2x2 minor
    d = coerce_scalar(dot(Mt[0], [row[0] for row in adj]))
    rank = 3 if d != 0 else 2 if any(x != 0 for row in adj for x in row) else 1
    dual = HomPoly.quadratic_form([adj[0][0], adj[1][1], adj[2][2],
                                   2 * adj[0][1], 2 * adj[0][2], 2 * adj[1][2]])
    return QuadricForm(Mt, adj, rank, d, dual)


def pencil_matrix_entry_forms(q1: HomPoly, q2: HomPoly, q3: HomPoly | None = None):
    """Entries of a*M1 + b*M2 (+ c*M3) as linear forms in (a, b, c)."""
    mats = [quadric_form(q).matrix for q in (q1, q2, q3) if q is not None]
    return [[HomPoly.linear_form([M[i][j] for M in mats] + [0] * (3 - len(mats)))
             for j in range(3)] for i in range(3)]


# ---------------------------------------------------------------------------
# Sylvester resultant by the one fraction-free elimination, ``linalg.echelon``,
# on the one exact univariate format: dense lists over Z (ints) or Z[i]
# (GaussRats), low to high, [] for zero
# ---------------------------------------------------------------------------

def resultant(p: HomPoly, q: HomPoly, var: int) -> HomPoly:
    """Sylvester resultant eliminating ``var``: the subresultant S_0.

    The result is a homogeneous form in the other two variables; when both
    inputs have their full degree in ``var`` it has degree deg(p)*deg(q)
    and vanishes at (za:zb) exactly when p and q share a root above.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant of zero polynomial")
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m == 0 and n == 0:
        raise DegenerateLeadingFormError(
            f"neither input depends on {VAR_NAMES[var]}")
    if m == 0:
        return p ** n
    if n == 0:
        return q ** m
    return subresultant(p, q, var, 0)[0]


def subresultant(p: HomPoly, q: HomPoly, var: int, k: int) -> List[HomPoly]:
    """Coefficients [sres_{k,k}, ..., sres_{k,0}] of the k-th subresultant
    S_k of p and q in ``var``, forms in the other two variables.

    With m, n the degrees in ``var`` and k < min(m, n), sres_{k,j} is the
    determinant of the first m+n-2k-1 columns and the column of ``var``^j
    of the Sylvester matrix with n-k shifted rows of p and m-k of q.  With
    constant leading coefficients in ``var``, the first S_k with nonzero
    leading coefficient is the gcd up to a factor free of ``var`` (Collins
    1967, "Subresultants and reduced polynomial remainder sequences",
    J. ACM 14).  S_min(m, n) is the lower-degree input (p when m = n).
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("subresultant of zero polynomial")
    m = p.degree_in(var)
    n = q.degree_in(var)
    if min(m, n) < 1:
        raise DegenerateLeadingFormError(
            f"both inputs must depend on {VAR_NAMES[var]}")
    if not 0 <= k <= min(m, n):
        raise ValueError(f"subresultant index {k} outside 0..{min(m, n)}")
    if k == min(m, n):
        return (p if m <= n else q).coeffs_in(var)[::-1]
    # Each coefficient of p and q in ``var``, a form in z_hi and z_lo, as
    # a polynomial in t = z_hi / z_lo over Z (Z[i] for Gaussian input),
    # after scaling p and q by the lcm L of their denominators:
    # sres_k(Lp p, Lq q) = Lp^(n-k) Lq^(m-k) sres_k(p, q).
    hi, lo = (i for i in range(3) if i != var)
    gauss = any(isinstance(c, GaussRat) for f in (p, q) for c in f.terms.values())
    rows, scale = [], 1
    for f, d, count in ((p, m, n - k), (q, n, m - k)):
        ints, L = integral(list(f.terms.values()), gauss)
        cs = [[0] * (f.degree - j + 1) for j in range(d + 1)]
        for e, c in zip(f.terms, ints):
            cs[e[var]][e[hi]] = c
        cs = [trim(c) for c in reversed(cs)]
        rows += [[[]] * r + cs + [[]] * (count - 1 - r) for r in range(count)]
        scale *= L ** count
    # entry (row, column c) has degree c plus a constant of its row
    deg = (n - k) * (p.degree - m) + (m - k) * (q.degree - n) + (n - k) * (m - k)

    def form(c, d):  # descending powers of z_hi
        return HomPoly({tuple({var: 0, hi: a, lo: d - a}[i] for i in range(3)):
                        c[a] / scale if gauss else Fraction(c[a], scale)
                        for a in range(len(c) - 1, -1, -1) if c[a]})
    # the last echelon row: entry j is the determinant of the first n-1
    # columns and column n-1+j when those columns hold the pivots 0..n-2
    A, pivots, sign = echelon(rows)
    n = len(A)
    last = A[-1][n - 1:] if pivots[:n - 1] == list(range(n - 1)) else [[]] * (len(A[0]) - n + 1)
    return [form([-x for x in c] if sign < 0 else c, deg + j) for j, c in enumerate(last)]


# ---------------------------------------------------------------------------
# Balls, numeric projective points and certified evaluation
# ---------------------------------------------------------------------------

# A pass's constants.  The double pass has (eps, grow, tiny): eps bounds
# the rounding of one complex sum, product or conversion relative to its
# result's modulus (doubles round to nearest; for the product, Brent,
# Percival & Zimmermann 2007, Math. Comp. 76), grow the rounding of a
# radius (at most ten operations on nonnegative terms) and of abs(), and
# tiny the underflow of a double operation.  The working pass, on mpc
# midpoints at mp.mp.prec, has eps = 2^(2 - prec), whose exponent
# ``_mp_pass`` gives, for the same roundings in mpmath (to nearest, or
# toward zero on its fast paths).  Its radii and magnitudes are 53-bit
# mpfs formed by libmp operations rounded upward, and |mid| is rounded
# downward where ``excludes_zero`` compares a radius with it: the radius
# side rounds only outward, so it needs neither grow nor tiny (an mpf's
# exponent does not underflow).  Radii stay mpfs and never become floats,
# since a 4096-bit rung has radii near 2^-4000.
_DOUBLE_PASS = (2.0 ** -51, 1.0 + 2.0 ** -47, 2.0 ** -1020)


def _mp_pass(prec):
    return 2 - prec


def _pass_of(mid):
    return _mp_pass(mp.mp.prec) if mid.__class__ is mp.mpc else _DOUBLE_PASS


def _modulus(z):
    """|z| for a finite raw mpc z as (f, e), a float f and an int e with
    |z| within a relative 2^-51 of f 2^e, and f = 0 only for z = 0: each
    part aligned to 64 bits (truncation errs by 2^-63), then its float
    (2^-53) and their hypot (an ulp)."""
    (_, x, ex, bx), (_, y, ey, by) = z
    x, ex = (x >> (bx - 64), ex + bx - 64) if bx > 64 else (x << (64 - bx), ex + bx - 64)
    y, ey = (y >> (by - 64), ey + by - 64) if by > 64 else (y << (64 - by), ey + by - 64)
    if not y or (x and ex >= ey):
        return math.hypot(x, math.ldexp(y, ey - ex)), ex
    return math.hypot(math.ldexp(x, ex - ey), y), ey


_OUTWARD = {"u": 1 + 2.0 ** -48, "d": 1 - 2.0 ** -48}


def _mag(z, rnd="u"):
    """|z| for a finite raw mpc z as a raw 53-bit mpf, rounded up ("u")
    or down ("d"): ``_modulus`` widened by 2^-48 in that direction."""
    f, e = _modulus(z)
    if not f:
        return libmp.fzero
    m, k = math.frexp(f * _OUTWARD[rnd])
    man = int(m * 2.0 ** 53)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return 0, man, e + k - 53 + zeros, man.bit_length()


def _up(*terms):
    """The sum of raw mpfs >= 0, rounded up to 53 bits, as an mpf."""
    total = libmp.mpf_pos(terms[0], 53, "u")
    for t in terms[1:]:
        total = libmp.mpf_add(total, t, 53, "u")
    return mp.make_mpf(total)


def _mul_up(x, y):
    return libmp.mpf_mul(x, y, 53, "u")


class Ball:
    """A complex ball: the true value lies within ``rad`` of ``mid``, a
    Python complex and a float in the double pass, an mpc at the working
    precision and a 53-bit mpf in the working pass.  + - * add their own
    rounding to the radii they carry, so these operations are the one error
    proof of every numeric predicate (van der Hoeven 2010, "Ball
    arithmetic"; Rump 2010, Acta Numerica 19, sections 2-3): the midpoint
    is computed at the pass's precision, and the radius, from moduli of the
    midpoints, only needs to round outward, by the grow factor in the
    double pass and by upward rounding in the working pass.  A ball with a
    double that overflowed excludes nothing.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad):
        self.mid, self.rad = mid, rad

    @staticmethod
    def exact(x, double: bool) -> "Ball":
        """The exact scalar x; OverflowError beyond the range of a double."""
        if double:
            mid = scalar_to_complex(x)
            eps, grow, tiny = _pass_of(mid)
            return Ball(mid, 2 * eps * abs(mid) * grow + tiny)
        mid = mp.mpc(scalar_to_mp(x))
        return Ball(mid, _up(libmp.mpf_shift(_mag(mid._mpc_), 1 + _pass_of(mid))))

    def __add__(self, other):
        mid = self.mid + other.mid
        if mid.__class__ is mp.mpc:
            return Ball(mid, _up(self.rad._mpf_, other.rad._mpf_,
                                 libmp.mpf_shift(_mag(mid._mpc_), _pass_of(mid))))
        eps, grow, tiny = _pass_of(mid)
        return Ball(mid, (self.rad + other.rad + eps * abs(mid)) * grow + tiny)

    def __sub__(self, other):
        return self + Ball(-other.mid, other.rad)

    def __mul__(self, other):
        x, y, r, s = self.mid, other.mid, self.rad, other.rad
        if x.__class__ is mp.mpc:
            a, b, r, s = _mag(x._mpc_), _mag(y._mpc_), r._mpf_, s._mpf_
            return Ball(x * y, _up(_mul_up(a, s), _mul_up(b, r), _mul_up(r, s),
                                   libmp.mpf_shift(_mul_up(a, b), _pass_of(x))))
        a, b = abs(x), abs(y)
        eps, grow, tiny = _pass_of(x)
        return Ball(x * y, (a * s + b * r + r * s + a * b * eps) * grow + tiny)

    def excludes_zero(self) -> bool:
        if self.mid.__class__ is mp.mpc:
            return libmp.mpf_cmp(self.rad._mpf_, _mag(self.mid._mpc_, "d")) < 0
        m = abs(self.mid)
        return self.rad * _pass_of(self.mid)[1] < m < math.inf


def coord_balls(values, radius, exact, double: bool):
    """A coordinate vector as Balls: the exact coordinates where there are
    any (never their double copy), else each value within ``radius``, with
    the rounding of its conversion to the pass added."""
    if exact is not None:
        return tuple(Ball.exact(x, double) for x in exact)
    if double:
        r, mids = float(radius), [complex(c) for c in values]
        eps, grow, tiny = _pass_of(mids[0])
        return tuple(Ball(m, (r + eps * abs(m)) * grow + tiny) for m in mids)
    r = (radius if radius.__class__ is mp.mpf else mp.mpf(radius))._mpf_
    mids = [mp.mpc(c) for c in values]
    shift = _pass_of(mids[0])
    return tuple(Ball(m, _up(r, libmp.mpf_shift(_mag(m._mpc_), shift))) for m in mids)


def ball_eval(expr, *objs):
    """``expr`` on the double balls of ``objs`` (each with ``balls(double)``)
    and, where that does not exclude zero or a double overflows, again on
    balls at mp.mp.prec."""
    try:
        out = expr(*(o.balls(True) for o in objs))
        if excludes_zero(out):
            return out
    except OverflowError:
        pass
    return expr(*(o.balls(False) for o in objs))


def excludes_zero(out) -> bool:
    """Does the Ball, or a component of the vector of Balls, exclude zero?"""
    return any(b.excludes_zero() for b in (out if isinstance(out, tuple) else (out,)))


def _unit_vector(coords, phase_tol: float):
    """(coords times conj(c_j) / (|c_j| sup), sup, k) for mpc coords: sup norm
    1, c_j real, j the first coordinate above phase_tol times the largest
    modulus.  53-bit moduli (``_modulus``) pick j and the coordinates within
    2^-40 of the largest, whose full-precision maximum sup is that of c_k."""
    mods = [_modulus(c._mpc_) for c in coords]
    if not any(f for f, _ in mods):
        raise ValueError("zero vector is not a projective point")
    top_e = max(e for f, e in mods if f)
    mags = [math.ldexp(f, e - top_e) for f, e in mods]
    top = max(mags)
    j = next(i for i, m in enumerate(mags) if m > top * phase_tol)
    sup, k = max((abs(coords[i]), i) for i, m in enumerate(mags) if m >= top * (1 - 2.0 ** -40))
    cj = sup if j == k else abs(coords[j])
    scale = coords[j].conjugate() / (cj * sup)
    return tuple(mp.mpc(cj / sup) if i == j else c * scale for i, c in enumerate(coords)), sup, k


class ProjPointNum:
    """Projective point with mpc coordinates and an error radius.

    The coordinates are the representative of sup norm 1 whose first
    coordinate of modulus above 1e-30 of the largest is real and positive,
    and ``radius`` bounds the distance, coordinate by coordinate, from that
    representative to one of the true point.  The radius given to the
    constructor refers to the given coordinates, or to them divided by their
    sup norm where that is above 1; where it is below 1, the radius is
    divided by it, rounded up.  An intersection point's radius is the
    Newton-step estimate of ``arrangements._newton_polish``, not yet a
    proof.

    ``exact`` optionally carries Gaussian-rational coordinates; those are
    authoritative and the numeric data is derived from them.
    """

    __slots__ = ("coords", "radius", "exact", "_balls")

    def __init__(self, coords, radius=0, exact: Optional[tuple] = None):
        coords = [c if c.__class__ is mp.mpc else mp.mpc(c) for c in coords]
        self.coords, sup, k = _unit_vector(coords, 1e-30)
        self.radius = radius if radius.__class__ is mp.mpf else mp.mpf(radius)
        if self.radius and libmp.mpf_cmp(sup._mpf_, libmp.fone) < 0:
            self.radius = mp.make_mpf(libmp.mpf_div(self.radius._mpf_, _mag(coords[k]._mpc_, "d"),
                                                    53, "u"))
        if exact is not None:
            exact = tuple(coerce_scalar(x) for x in exact)
            j = next(i for i in range(len(exact)) if exact[i] != 0)
            exact = tuple(x / exact[j] for x in exact)
        self.exact = exact
        self._balls = {}

    @staticmethod
    def from_exact(coords) -> "ProjPointNum":
        """The exact point, its coordinates rounded to the working precision."""
        ex = tuple(coerce_scalar(c) for c in coords)
        return ProjPointNum([Ball.exact(c, False).mid for c in ex], 0, exact=ex)

    def is_exact(self) -> bool:
        return self.exact is not None

    def balls(self, double: bool):
        """The coordinates as Balls (``coord_balls``), built once per pass:
        the doubles, and the mpc Balls of each working precision."""
        key = None if double else mp.mp.prec
        out = self._balls.get(key)
        if out is None:
            out = self._balls[key] = coord_balls(self.coords, self.radius, self.exact, double)
        return out

    def same_point(self, other: "ProjPointNum") -> bool:
        """Not certainly different: equal exact points, or coordinate
        vectors whose cross product does not exclude zero."""
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return not excludes_zero(ball_eval(cross, self, other))

    def to_decimal_strings(self, digits=30):
        out = []
        for c in self.coords:
            out.append(mp.nstr(c, digits))
        return out

    def __repr__(self):
        if self.exact is not None:
            return "[" + ":".join(format_scalar(c) for c in self.exact) + "]"
        return "[" + ":".join(mp.nstr(c, 8) for c in self.coords) + "]"


def coerce_point(pt) -> ProjPointNum:
    if isinstance(pt, ProjPointNum):
        return pt
    return ProjPointNum.from_exact(pt)


def gaussian_extension_eval(p: HomPoly, point):
    """Certified evaluation of p at a projective point: (value, err), the
    Ball ``ball_eval`` gives for p at a representative of the point; at an
    exact point, the exact value rounded to the working precision."""
    pt = coerce_point(point)
    b = Ball.exact(p.eval_exact(pt.exact), False) if pt.is_exact() else ball_eval(p.eval_ball, pt)
    return b.mid, b.rad


def vanishes_at(p: HomPoly, point) -> Optional[bool]:
    """Does p vanish at the projective point?

    Decided exactly at an exact point.  At a numeric point the answer is
    False when p's Ball excludes zero and None otherwise: a numeric point
    never certifies a zero.
    """
    pt = coerce_point(point)
    if pt.is_exact():
        return p.eval_exact(pt.exact) == 0
    return False if Ball(*gaussian_extension_eval(p, pt)).excludes_zero() else None
