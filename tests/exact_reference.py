"""References that only the tests use: exact decisions, the distance of
two numeric points, the ``HomPoly.compose`` on Fraction term maps that
the integer expansion took the place of, the Newton polish on mpc values
that the exact-integer polish took the place of, the exponential-sum
evaluators that ExpSum._scaled took the place of and its own earlier
point tail, the zero polish on the replaced single-point evaluator, the
batched winding with the np.insert merges that one gather per round took
the place of, T(r) by mpmath quadrature, the 18-line test and the
12-line selection on numeric lines, one scalar Ball predicate at a time,
which the exact test on the pencils' cubics took the place of, and the
polynomial parser that built a tree of ``PolyExprAST`` nodes and
evaluated it through one ``HomPoly`` per node, with the ring operators
it evaluated on, which the one-pass parser and the term-map kernels took
the place of, the intersection records' sort key on mpf parts, and the
Gauss-Jordan elimination on Fractions with the ``rank``, ``nullspace``
and ``solve`` it served, which the one fraction-free echelon of
``linalg`` took the place of, and the quadratic form z^T M z of a
symmetric matrix, which ``HomPoly.quadratic_form`` took the place of,
and the resultant of three conics with its rows built on ``HomPoly``
gradients, cross products and partials, and the contact forms by
``HomPoly.compose``, which the integer rows from the conics' Hessians
took the place of, and the arc mean of T(r) on cuts from the Aberth
iteration, which the double companion eigenvalues took the place of,
with the N(r) loop that the per-radius memo took the place of."""

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath as mp
import numpy as np

from quadrics.arrangements import ConditionVerdict, LineInfo, NoValidSelectionError, NumLine
from quadrics.linalg import cross, det, dot, echelon, mat_copy, trim
from quadrics.polynomials import (DegenerateLeadingFormError, Expo, HomPoly, NotHomogeneousError,
                                  PolySyntaxError, ProjPointNum, _grlex_key, ball_eval,
                                  excludes_zero, resultant, scalar_to_mp)
from quadrics.scalars import GaussRat, Scalar, coerce_scalar, integral, scalar_to_complex


def has_common_component(p: HomPoly, q: HomPoly) -> bool:
    """Do p and q share a component?  True when a resultant in some
    variable that both depend on vanishes identically."""
    for var in range(3):
        if p.degree_in(var) > 0 and q.degree_in(var) > 0:
            try:
                if resultant(p, q, var).is_zero:
                    return True
            except DegenerateLeadingFormError:  # pragma: no cover
                continue
    return False


def reference_compose(p: HomPoly, args) -> HomPoly:
    """p(args) by HomPoly products and sums of the exact scalars, one
    cached power per variable and exponent."""
    if p.is_zero:
        return HomPoly.zero()
    out = HomPoly.zero()
    cache = {}

    def powed(i, k):
        if k == 0:
            return HomPoly.constant(1)
        if (i, k) not in cache:
            cache[(i, k)] = args[i] ** k
        return cache[(i, k)]

    for e, c in p.terms.items():
        t = HomPoly.constant(c)
        for i in range(3):
            if e[i]:
                t = t * powed(i, e[i])
        out = out + t
    return out


def point_distance(a, b):
    """Sup-norm distance of two ProjPointNum's normalized coordinates,
    phases aligned on a's dominant coordinate (2 where b's is zero)."""
    a, b = a.coords, b.coords
    j = max(range(len(a)), key=lambda i: abs(a[i]))
    if abs(b[j]) == 0:
        return mp.mpf(2)
    fa = a[j] / abs(a[j])
    fb = b[j] / abs(b[j])
    return max(abs(x / fa - y / fb) for x, y in zip(a, b))


def reference_newton_polish(forms, pt_vec, prec):
    """arrangements._newton_polish before the exact-integer polish, kept
    verbatim: Newton's iteration on mpc values of ``forms`` (p, q, p's
    three partials and q's) at ``prec`` on the best affine chart."""
    with mp.workprec(prec):
        v = [mp.mpc(c) for c in pt_vec]
        chart = max(range(3), key=lambda i: abs(v[i]))
        idx = [i for i in range(3) if i != chart]
        v = [c / v[chart] for c in v]
        which = (0, 1, 2 + idx[0], 2 + idx[1], 5 + idx[0], 5 + idx[1])
        for _ in range(30):
            fv, gv, pa, pb, qa, qb = forms.values(v, which)
            J = [[pa, pb], [qa, qb]]
            det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
            # singular at working precision, as at a multiple point: a step is noise
            if abs(det) <= max(abs(x) for row in J for x in row) ** 2 * mp.mpf(2) ** (16 - prec):
                det = mp.mpf(0)
                break
            dx = (fv * J[1][1] - gv * J[0][1]) / det
            dy = (gv * J[0][0] - fv * J[1][0]) / det
            v[idx[0]] -= dx
            v[idx[1]] -= dy
            if max(abs(dx), abs(dy)) < mp.mpf(2) ** (16 - prec):
                break
        res = max(abs(x) for x in forms.values(v, (0, 1)))
        Jn = max(sum(abs(x) for x in row) for row in J) if abs(det) else mp.mpf(1)
        radius = res / abs(det) * Jn * 8 + mp.mpf(2) ** (16 - prec) if abs(det) else mp.mpf(2) ** (-prec // 4)
        return tuple(v), radius


# ---------------------------------------------------------------------------
# The three ExpSum evaluators that ExpSum._scaled took the place of, kept
# verbatim as references: two numpy copies of the dominant-exponent
# formula, and a Python Horner loop for single points.
# ---------------------------------------------------------------------------

def _horner_terms(es):
    """Per term, coefficient and exponent as Python complex tuples,
    highest power first."""
    def conv(p):
        return tuple(complex(scalar_to_complex(c)) for c in reversed(p))
    return tuple((conv(cp), conv(ep)) for cp, ep in es.terms)


def _np_terms(es):
    py = _horner_terms(es)
    return [np.array(c or [0j]) for c, _ in py], [np.array(e or [0j]) for _, e in py]


def reference_logeval(es, xi):
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    coeffs, expos = _np_terms(es)
    Q = np.stack([np.polyval(e, xi) for e in expos])
    C = np.stack([np.polyval(c, xi) for c in coeffs])
    M = np.max(Q.real, axis=0)
    h = np.sum(C * np.exp(Q - M), axis=0)
    absh = np.abs(h)
    ok = absh > 1e-280
    logabs = np.where(ok, M + np.log(np.maximum(absh, 1e-300)), -np.inf)
    phase = np.angle(h)
    return logabs, phase, ok


def reference_logabs_grid(es, xi):
    xi = np.asarray(xi, dtype=complex)
    coeffs, expos = _np_terms(es)
    Q = np.stack([np.polyval(e, xi) for e in expos])
    C = np.stack([np.polyval(c, xi) for c in coeffs])
    M = np.max(Q.real, axis=0)
    h = np.abs(np.sum(C * np.exp(Q - M), axis=0))
    return M + np.log(np.maximum(h, 1e-300))


def _term_values(es, xi: complex):
    out = []
    for cs, es_ in _horner_terms(es):
        q = complex(0)
        for c in es_:
            q = q * xi + c
        cv = complex(0)
        for c in cs:
            cv = cv * xi + c
        out.append((cv, q))
    return out


def reference_eval_one(es, xi: complex) -> complex:
    total = 0j
    for cv, q in _term_values(es, xi):
        total += cv * cmath.exp(q)
    return total


def reference_log_value(es, xi: complex) -> complex:
    vals = _term_values(es, xi)
    best = max((q.real for _, q in vals), default=0.0)
    h = sum(cv * cmath.exp(q - best) for cv, q in vals)
    if h == 0:
        return complex(-math.inf, 0.0)
    return complex(best + math.log(abs(h)), cmath.phase(h))


# ---------------------------------------------------------------------------
# nevanlinna._windings with the four np.insert merges per refinement round
# that one gather index per round took the place of, kept verbatim but for
# the module constants, read from nevanlinna on each call so that a test
# can monkeypatch them, g' read off g's own evaluation (the fourth value
# of ExpSum.logeval), and the power sums of each box of winding 1 to
# _POWER_SUMS, summed from that box's own samples.
# ---------------------------------------------------------------------------

def reference_windings(g, boxes: np.ndarray, max_refine=60):
    import quadrics.nevanlinna as nv
    _PER_SIDE, _BATCH_SAMPLES = nv._PER_SIDE, nv._BATCH_SAMPLES
    w_out, res_out = np.zeros(len(boxes), dtype=int), np.full(len(boxes), np.nan)
    sums_out = np.full((len(boxes), nv._POWER_SUMS), complex(math.nan, math.nan))
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
        fresh = np.concatenate([(pts[idx] + pts[idx + 1]) / 2, nv._rect_boundaries(new).ravel()])
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
        kept = np.repeat(~drop, sizes)

        def merged(old, vals):
            return np.concatenate([np.insert(old, idx + 1, vals[:idx.size]),
                                   vals[idx.size:]])[kept]
        pts, la, ph, spd = merged(pts, fresh), merged(la, la_n), merged(ph, ph_n), merged(spd, spd_n)
        ids = np.concatenate([ids, np.arange(nxt, nxt + len(new))])[~drop]
        rounds = np.concatenate([rounds + refine, np.zeros(len(new), dtype=int)])[~drop]
        sizes, nxt = sizes[~drop], nxt + len(new)
        starts = np.cumsum(sizes) - sizes
        dphi = nv._wrap_angle(np.diff(ph))
        bad = ((np.abs(dphi) > 0.8) | (np.abs(np.diff(la)) > 0.7)
               | (np.abs(np.diff(pts)) * np.maximum(spd[:-1], spd[1:]) > 0.6))
        bad[starts[1:] - 1] = False  # segments joining two boxes
        unsettled = np.logical_or.reduceat(bad, starts)
        live = rounds < max_refine
        for j in np.nonzero(live & ~unsettled)[0]:
            total = float(np.sum(dphi[starts[j]:starts[j] + sizes[j] - 1]))
            w = round(total / (2 * math.pi))
            residual = abs(total - 2 * math.pi * w)
            if residual <= nv._MAX_RESIDUAL:
                w_out[ids[j]], res_out[ids[j]] = w, residual
                if 1 <= w <= nv._POWER_SUMS:
                    p = pts[starts[j]:starts[j] + sizes[j]]
                    step = (np.diff(la[starts[j]:starts[j] + sizes[j]])
                            + 1j * dphi[starts[j]:starts[j] + sizes[j] - 1])
                    mids = (p[:-1] + p[1:]) / 2
                    power = mids
                    for k in range(w):
                        sums_out[ids[j], k] = np.sum(power * step) / (2j * math.pi)
                        power = power * mids
        stay = live & unsettled & (sizes <= 4_000_000)
        # the boxes in work refine in order while the samples before them
        # stay under the cap; the others wait, keeping their rounds
        work = sizes * stay
        refine = stay & (np.cumsum(work) - work < _BATCH_SAMPLES)
        idx = np.nonzero(bad & np.repeat(refine, sizes)[:-1])[0]
        owner = np.searchsorted(starts, idx, side="right") - 1
    return w_out, res_out, sums_out


def reference_scaled(es, xi):
    """ExpSum._scaled before its one-pass point tail, kept verbatim: a
    point with finite exponents sums a list of parts with max and sum."""
    if es._py_cache is None:
        def conv(p):  # highest power first, for Horner
            return tuple(complex(scalar_to_complex(c)) for c in reversed(p))
        es._py_cache = tuple((conv(cp), conv(ep)) for cp, ep in es.terms)
    vals = []
    for cs, es_ in es._py_cache:
        q = 0j
        for c in es_:
            q = q * xi + c
        v = 0j
        for c in cs:
            v = v * xi + c
        vals.append((v, q))
    M = -math.inf
    if isinstance(xi, complex) and all(cmath.isfinite(q) for _, q in vals):
        M = max((q.real for _, q in vals), default=M)
        parts = [v * cmath.exp(q - M) for v, q in vals] or [0j]
    else:
        for _, q in vals:
            M = np.maximum(M, q.real)
        parts = [v * np.exp(q - M) for v, q in vals] or [0j * xi]
    return M, sum(parts[1:], parts[0])


def reference_polish_zero(g, z0: complex, tol: float):
    """nevanlinna._polish_zero with its Newton step g/g' read off one pass
    over g's terms (_term_values): g' sums each term's coefficient
    c' + c Q', taken from g.derivative() by exponent, at the point times
    the term's own e^(q - best), and both logs carry g's best:
    (point, whether the last step was below tol)."""
    deriv = {e: c for c, e in g.derivative().terms}
    dterms = [tuple(complex(scalar_to_complex(c)) for c in reversed(deriv.get(e, ())))
              for _, e in g.terms]
    z = z0
    for _ in range(60):
        vals = _term_values(g, z)
        best = max(q.real for _, q in vals)
        scales = [cmath.exp(q - best) for _, q in vals]
        h = sum(cv * s for (cv, _), s in zip(vals, scales))
        if h == 0:
            step = 0j
        else:
            hp = 0j
            for ds, s in zip(dterms, scales):
                dv = 0j
                for c in ds:
                    dv = dv * z + c
                hp += dv * s
            if hp == 0:
                return z, False
            d = (complex(best + math.log(abs(h)), cmath.phase(h))
                 - complex(best + math.log(abs(hp)), cmath.phase(hp)))
            if d.real > 200:
                return z, False
            step = cmath.exp(d)
        z = z - step
        if abs(step) < tol:
            return z, True
    return z, False


def reference_characteristic(curve, r, dps=50):
    """T(curve, r) for components c e^{Q(xi)} with constant c, by
    mp.quad at dps digits.  The integrand max_j phi_j(t),
    phi_j(t) = log|c_j| + Re Q_j(r e^{it}), is split at every tie of two
    branches: the arguments of the roots of z^d (phi_i - phi_j), z = e^{it},
    that mp.polyroots finds at the same precision."""
    with mp.workdps(dps):
        ell, w = [], []
        for comp in curve.components:
            (coeff, expo), = comp.terms
            q = [scalar_to_mp(x) for x in expo] or [mp.mpf(0)]
            ell.append(mp.log(abs(scalar_to_mp(coeff[0]))) + mp.re(q[0]))
            w.append([qk * mp.mpf(r) ** k for k, qk in enumerate(q[1:], 1)])
        size = max(map(len, w))
        w = [row + [mp.mpf(0)] * (size - len(row)) for row in w]

        def integrand(t):
            return max(e + sum(mp.re(wk * mp.expj(k * t)) for k, wk in enumerate(row, 1))
                       for e, row in zip(ell, w))

        cuts = [-mp.pi, mp.pi]
        for i, j in itertools.combinations(range(len(ell)), 2):
            dw = [a - b for a, b in zip(w[i], w[j])]
            d = max((k for k, x in enumerate(dw, 1) if x != 0), default=0)
            if d == 0:
                continue                       # phi_i - phi_j is constant
            coeffs = ([dw[k - 1] for k in range(d, 0, -1)] + [2 * (ell[i] - ell[j])]
                      + [mp.conj(dw[k - 1]) for k in range(1, d + 1)])
            cuts += [mp.arg(z) for z in mp.polyroots(coeffs, maxsteps=200, extraprec=mp.mp.prec)]
        mean = mp.quad(integrand, sorted(cuts)) / (2 * mp.pi)
        return float(mean - max(ell))


# ---------------------------------------------------------------------------
# The 18-line test and the 12-line selection on numeric lines, which the
# exact test on the pencils' cubics took the place of: every pair,
# incidence and triple through the scalar Ball predicates.
# ---------------------------------------------------------------------------

def lines_concurrent(l1: NumLine, l2: NumLine, l3: NumLine):
    """True/False/None for det of the three coefficient vectors, l1 . (l2 x l3)."""
    if all(l.exact is not None for l in (l1, l2, l3)):
        return det([l.exact.linear_coeffs() for l in (l1, l2, l3)]) == 0
    return False if excludes_zero(ball_eval(lambda a, b, c: dot(a, cross(b, c)),
                                            l1, l2, l3)) else None


def lines_distinct(l1: NumLine, l2: NumLine):
    if l1.exact is not None and l2.exact is not None:
        return l1.exact != l2.exact and l1.exact != -l2.exact
    return True if excludes_zero(ball_eval(cross, l1, l2)) else None


def _lines_meet_point(l1: NumLine, l2: NumLine) -> Optional[ProjPointNum]:
    if l1.exact is not None and l2.exact is not None:
        v = cross(l1.exact.linear_coeffs(), l2.exact.linear_coeffs())
        if all(x == 0 for x in v):
            return None
        return ProjPointNum.from_exact(v)
    v = cross(l1.vec, l2.vec)
    s = max(abs(c) for c in v)
    err = (l1.radius + l2.radius) * 6
    if s <= err * 4:
        return None
    return ProjPointNum(v, err / max(s, 1) * 4)


def reference_condition4_verdict(ls) -> ConditionVerdict:
    """Concurrency pattern of the 18 lines.

    A line passes through its two defining intersection points by
    construction, so each of the 12 points carries exactly its three
    own-group lines structurally; what needs certification is only the
    negative side: no further line through those points, no coincident
    lines, and no 3-fold concurrency elsewhere (triples consisting of the
    three own lines of one point are the allowed ones).
    """
    lines = ls.all_lines()
    unsure = []  # what stayed inseparable, in the order found
    witnesses = []
    notes = []

    for a, b in itertools.combinations(range(len(lines)), 2):
        d = lines_distinct(lines[a].line, lines[b].line)
        if d is False:
            notes.append(f"lines {lines[a].label()} and {lines[b].label()} coincide")
        elif d is None:
            unsure.append(f"lines {lines[a].label()} and {lines[b].label()} from coincident")

    # the three own lines of each intersection point, as index sets
    own = {(g, idx): frozenset(n for n, li in enumerate(lines)
                               if li.group == g and idx in li.point_ids)
           for g, pts in ls.points.items() for idx in range(len(pts))}

    for (g, idx), mine in own.items():
        p = ls.points[g][idx]
        for n, li in enumerate(lines):
            if n in mine:
                continue
            on = li.line.passes_through(p)
            if on:
                witnesses.append(p)
                notes.append(f"extra line {li.label()} through intersection "
                             f"point {idx} of pair {g}")
            elif on is None:
                unsure.append(f"line {li.label()} from intersection point {idx} of pair {g}")

    allowed = set(own.values())
    for abc in itertools.combinations(range(len(lines)), 3):
        if frozenset(abc) in allowed:
            continue  # the allowed 3-fold concurrency at an intersection point
        trip = tuple(lines[n] for n in abc)
        conc = lines_concurrent(*(li.line for li in trip))
        if conc is None:
            unsure.append("lines " + ", ".join(li.label() for li in trip) + " from concurrent")
        elif conc:
            pt = _lines_meet_point(trip[0].line, trip[1].line)
            if pt is not None:
                witnesses.append(pt)
            notes.append("3 lines concurrent: "
                         + ", ".join(li.label() for li in trip))
    if witnesses or notes:
        return ConditionVerdict("fail", witnesses=witnesses,
                                note="; ".join(sorted(set(notes))[:6]))
    if unsure:
        more = [f"{len(unsure) - 3} more"] if len(unsure) > 3 else []
        return ConditionVerdict("undecided", note=f"18-line test at {ls.precision_bits} "
                                f"bits: not separated: {'; '.join(unsure[:3] + more)}")
    return ConditionVerdict("pass")


def reference_select_general_position(ls):
    """First 12-line selection (canonical order) in general position.

    Drops one pairing per quadric pair; candidates are enumerated
    lexicographically over the dropped indices and certified by the
    exhaustive 3-subset concurrency test (after dropping a pairing no
    structural concurrency survives, so every triple must be certified
    non-concurrent).
    """
    with mp.workprec(max(ls.precision_bits, mp.mp.prec)):
        for drop in itertools.product(range(3), repeat=3):
            sel: List[LineInfo] = []
            for gi, g in enumerate(((0, 1), (0, 2), (1, 2))):
                sel.extend(li for li in ls.groups[g] if li.pairing != drop[gi])
            if all(lines_distinct(sel[a].line, sel[b].line) is True
                   for a, b in itertools.combinations(range(12), 2)) and \
                    all(lines_concurrent(sel[a].line, sel[b].line, sel[c].line) is False
                        for a, b, c in itertools.combinations(range(12), 3)):
                return sel
    raise NoValidSelectionError("no 12-line selection is in general position")


# ---------------------------------------------------------------------------
# The parser before the one-pass parser, kept verbatim (its entry point
# renamed reference_parse_poly): a token list, a tree of PolyExprAST
# nodes, and an evaluation through one HomPoly per node.
# ---------------------------------------------------------------------------

class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str, gaussian: bool):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("z0", i) or text.startswith("z1", i) or text.startswith("z2", i):
            toks.append(_Tok("var", int(text[i + 1]), i))
            i += 2
            continue
        if gaussian and ch == "i":
            toks.append(_Tok("imag", None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, n))
    return toks


@dataclass(frozen=True)
class PolyExprAST:
    """Parse tree node: ('+',l,r) ('-',l,r) ('*',l,r) ('^',l,int) ('var',i)
    ('rat',Fraction) ('imag',)."""

    kind: str
    args: tuple

    def evaluate(self) -> HomPoly:
        k = self.kind
        if k == "var":
            return HomPoly.variable(self.args[0])
        if k == "rat":
            return HomPoly.constant(self.args[0])
        if k == "imag":
            return HomPoly.constant(GaussRat(0, 1))
        if k == "neg":
            return -self.args[0].evaluate()
        if k == "^":
            return self.args[0].evaluate() ** self.args[1]
        a = self.args[0].evaluate()
        b = self.args[1].evaluate()
        if k == "+":
            return _add_mixed(a, b)
        if k == "-":
            return _add_mixed(a, -b)
        if k == "*":
            return a * b
        raise AssertionError(k)


def _add_mixed(a: HomPoly, b: HomPoly) -> HomPoly:
    if not a.is_zero and not b.is_zero and a.degree != b.degree:
        raise NotHomogeneousError({a.degree, b.degree})
    return a + b


class _Parser:
    def __init__(self, toks, gaussian):
        self.toks = toks
        self.k = 0
        self.gaussian = gaussian

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        t = self.toks[self.k]
        if kind is not None and t.kind != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {t.kind!r}", t.pos)
        self.k += 1
        return t

    def parse_expr(self) -> PolyExprAST:
        # unary minus on the leading term is a documented extension
        if self.peek().kind == "-":
            self.take()
            node = PolyExprAST("neg", (self.parse_term(),))
        else:
            node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            node = PolyExprAST(op, (node, rhs))
        return node

    def parse_term(self) -> PolyExprAST:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            node = PolyExprAST("*", (node, self.parse_factor()))
        return node

    def parse_factor(self) -> PolyExprAST:
        node = self.parse_base()
        if self.peek().kind == "^":
            self.take()
            t = self.take("int")
            node = PolyExprAST("^", (node, t.value))
        return node

    def parse_base(self) -> PolyExprAST:
        t = self.peek()
        if t.kind == "var":
            self.take()
            return PolyExprAST("var", (t.value,))
        if t.kind == "imag":
            self.take()
            return PolyExprAST("imag", ())
        if t.kind == "int":
            self.take()
            return PolyExprAST("rat", (Fraction(t.value),))
        if t.kind == "-":
            # signed integer literal
            pos = t.pos
            self.take()
            t2 = self.take("int")
            return PolyExprAST("rat", (Fraction(-t2.value),))
        if t.kind == "(":
            self.take()
            # parenthesized rational '( int / uint )' or a subexpression
            save = self.k
            inner = self._try_paren_rational()
            if inner is not None:
                return inner
            self.k = save
            node = self.parse_expr()
            self.take(")")
            return node
        raise PolySyntaxError(f"unexpected token {t.kind!r}", t.pos)

    def _try_paren_rational(self) -> Optional[PolyExprAST]:
        sign = 1
        t = self.peek()
        if t.kind == "-":
            self.take()
            sign = -1
        t = self.peek()
        if t.kind != "int":
            return None
        num = self.take().value
        if self.peek().kind == "/":
            self.take()
            den = self.take("int").value
            if den == 0:
                raise PolySyntaxError("zero denominator", t.pos)
            if self.peek().kind != ")":
                return None
            self.take(")")
            return PolyExprAST("rat", (Fraction(sign * num, den),))
        if self.peek().kind == ")" and sign == -1:
            self.take(")")
            return PolyExprAST("rat", (Fraction(-num),))
        return None


def parse_poly_ast(text: str, gaussian: bool = False) -> PolyExprAST:
    toks = _tokenize(text, gaussian)
    p = _Parser(toks, gaussian)
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise PolySyntaxError(f"trailing input {t.kind!r}", t.pos)
    return node


def reference_parse_poly(text: str, gaussian: bool = False) -> HomPoly:
    """Parse and expand; rejects inhomogeneous input."""
    return parse_poly_ast(text, gaussian).evaluate()


# ---------------------------------------------------------------------------
# HomPoly's ring operators and exact division before the term-map kernels,
# kept verbatim as functions (self and other spelled a and b, and the
# products of the power written as calls of reference_mul).
# ---------------------------------------------------------------------------

def reference_add(a: HomPoly, b: HomPoly) -> HomPoly:
    res = dict(a.terms)
    for e, c in b.terms.items():
        s = res.get(e, 0) + c
        if s == 0:
            res.pop(e, None)
        else:
            res[e] = s
    return HomPoly(res)


def reference_neg(a: HomPoly) -> HomPoly:
    return HomPoly({e: -c for e, c in a.terms.items()})


def reference_mul(a: HomPoly, b: HomPoly) -> HomPoly:
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = res.get(e, 0) + c1 * c2
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
    return HomPoly(res)


def reference_pow(a: HomPoly, n: int) -> HomPoly:
    out = HomPoly.constant(1)
    base = a
    while n:
        if n & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base)
        n >>= 1
    return out


def reference_exact_div(p: HomPoly, divisor: HomPoly) -> HomPoly:
    if divisor.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return HomPoly.zero()
    rem = dict(p.terms)
    quot: Dict = {}
    dlead = max(divisor.terms, key=_grlex_key)
    dco = divisor.terms[dlead]
    while rem:
        rlead = max(rem, key=_grlex_key)
        q = tuple(rlead[i] - dlead[i] for i in range(3))
        if any(x < 0 for x in q):
            raise ArithmeticError("inexact polynomial division")
        c = rem[rlead] / dco
        quot[q] = c
        for e, co in divisor.terms.items():
            t = (e[0] + q[0], e[1] + q[1], e[2] + q[2])
            s = rem.get(t, 0) - c * co
            if s == 0:
                rem.pop(t, None)
            else:
                rem[t] = s
    return HomPoly(quot)


def reference_record_sort_key(rec):
    """arrangements._record_sort_key before it read the raw parts, kept
    verbatim: mpf parts, an mpf abs at the working precision and float()."""
    pt = rec.point
    return tuple(0.0 if abs(x) <= pt.radius else float(x)
                 for cc in pt.coords for x in (mp.re(cc), mp.im(cc)))


def reference_rref(M) -> Tuple[List[List[Scalar]], List[int]]:
    """linalg.rref by Gauss-Jordan elimination on Fractions, kept verbatim."""
    A = mat_copy(M)
    if not A:
        return A, []
    rows, cols = len(A), len(A[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def reference_rank(M) -> int:
    return len(reference_rref(M)[1])


def reference_nullspace(M) -> List[List[Scalar]]:
    """linalg.nullspace on the Gauss-Jordan rref, kept verbatim."""
    if not M:
        return []
    A, pivots = reference_rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append([coerce_scalar(x) for x in v])
    return basis


def reference_solve(M, rhs) -> Optional[List[Scalar]]:
    """linalg.solve on the Gauss-Jordan rref of [M | rhs], kept verbatim."""
    if not M:
        return [] if all(b == 0 for b in rhs) else None
    cols = len(M[0])
    aug = [row + [b] for row, b in zip(mat_copy(M), rhs)]
    A, pivots = reference_rref(aug)
    for row in A:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = A[r][cols]
    return [coerce_scalar(v) for v in x]


def poly_from_matrix(M) -> HomPoly:
    """Quadratic form z^T M z from a symmetric 3x3 exact matrix."""
    terms: Dict[Expo, Scalar] = {}
    for i in range(3):
        for j in range(3):
            if M[i][j] == 0:
                continue
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + M[i][j]
    return HomPoly(terms)


def reference_conics_share_a_zero(a: HomPoly, b: HomPoly, d1: HomPoly,
                                  d2: HomPoly = HomPoly()) -> bool:
    """arrangements.conics_share_a_zero with its rows on HomPoly, kept
    verbatim: rank M < 6 over Q(t), one ``echelon`` over Z[t]."""
    j1, j2 = (dot(a.gradient(), cross(b.gradient(), d.gradient())) for d in (d1, d2))
    rows = [f.quadratic_coeffs() + g.quadratic_coeffs()
            for f, g in [(a, HomPoly()), (b, HomPoly()), (d1, d2)]
            + [(j1.derivative(k), j2.derivative(k)) for k in range(3)]]
    gauss = any(isinstance(x, GaussRat) for row in rows for x in row)
    M = [[trim([x, y]) for x, y in zip(r[:6], r[6:])]
         for r in (integral(row, gauss)[0] for row in rows)]
    return len(echelon(M)[1]) < 6


def reference_at_contact(f: HomPoly, adj) -> HomPoly:
    """arrangements._at_contact by ``HomPoly.compose``, kept verbatim:
    f(adj . l), squared if f is a line."""
    g = f.compose([HomPoly.linear_form(row) for row in adj])
    return g * g if g.degree == 1 else g


# ---------------------------------------------------------------------------
# The arc mean of the closed-form characteristic with its cuts from the
# Aberth iteration at 53 bits (the removed ``univariate.complex_roots``),
# which the double companion eigenvalues took the place of, and the N(r)
# loop that the per-radius memo of ``CountingSample`` took the place of;
# both kept verbatim but for the root call.
# ---------------------------------------------------------------------------

def _aberth_roots(coeffs, prec: int):
    from quadrics.univariate import _solve
    with mp.workprec(prec):
        return [z for z, _ in _solve(coeffs, prec)[1]]


def reference_arc_mean(ell: np.ndarray, W: np.ndarray) -> Tuple[float, float]:
    _EPS = 2.0 ** -52
    k = np.arange(1, W.shape[1] + 1)
    cuts = [-math.pi, math.pi]
    for i, j in itertools.combinations(range(len(ell)), 2):
        dw = W[i] - W[j]
        nonzero = np.nonzero(dw)[0]
        if nonzero.size == 0:
            continue                      # phi_i - phi_j is constant
        d = nonzero[-1] + 1
        poly = np.zeros(2 * d + 1, dtype=complex)
        poly[d + 1:] = dw[:d]
        poly[d - 1::-1] = np.conj(dw[:d])
        poly[d] = 2 * (ell[i] - ell[j])
        cuts += [cmath.phase(complex(z)) for z in _aberth_roots(poly, 53)]
    theta = np.sort(cuts)
    length = np.diff(theta)

    def powers(t):                        # e^{ikt}, one row per angle
        return np.exp(1j * np.outer(t, k))

    win = np.argmax(ell + (powers(theta[:-1] + length / 2) @ W.T).real, axis=1)
    E = powers(theta)
    Wk = W[win] / k
    F = [ell[win] * theta[s] + (E[s] * Wk).imag.sum(axis=1)
         for s in (slice(None, -1), slice(1, None))]
    mean = math.fsum(F[1] - F[0]) / (2 * math.pi)
    mass = np.abs(W[win]) @ (math.pi + 1 / k)   # sum_k |W_k| (|t| + 1/k), |t| <= pi
    rounding = 8 * _EPS * float(np.sum(np.abs(ell[win]) * math.pi + mass)) / math.pi
    # the cut at theta[s] lies between arc s - 1 (arc -1 across t = pi) and arc s
    a, b = np.roll(win, 1), win
    Es = E[:-1]
    gap = np.abs(ell[a] - ell[b] + (Es * (W[a] - W[b])).real.sum(axis=1))
    gap += 8 * _EPS * (np.abs(ell[a]) + np.abs(ell[b])
                       + np.abs(W[a]).sum(axis=1) + np.abs(W[b]).sum(axis=1))
    slope = np.abs((Es * 1j * k * (W[a] - W[b])).real.sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.fmin(gap / slope, np.maximum(np.roll(length, 1), length) / 2)
    cut_err = float(np.sum(np.where(a != b, delta * gap, 0.0))) / (2 * math.pi)
    return mean, rounding + cut_err


def reference_N_at(zeros, r: float, R0: float = 1.0) -> float:
    total = sum(z.multiplicity for z in zeros if abs(z.position) <= R0) * math.log(r / R0)
    for z in zeros:
        m = abs(z.position)
        if R0 < m <= r:
            total += z.multiplicity * math.log(r / m)
    return total
