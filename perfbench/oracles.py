"""Independent checks of each item's outcome, run after the timed phase.

Each check returns (status, detail) with status "ok", "undecided" or
"error".  An error is an exception, an exit code the item may not give,
a report that fails the schema, or a result that disagrees with a
computation that does not go through the library's numerics:

- config-sweep: s4.1 and s4.2 recomputed exactly with sympy, from the
  conic determinant, squarefree pairwise resultants and a Groebner test
  for triple points;
- intersect-pairs: Bezout sum d1*d2, and every point on both curves when
  the generated coefficients are evaluated at 256 bits;
- growth-lines: closed forms T(r) = |a| r / pi, n(r) and N(r);
- growth-quadratic: N(r) from Jensen's formula on a numpy circle grid,
  and the certificate's relative errors below 1%.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from workloads import argv_list, monomials

OK, UNDECIDED, ERROR = "ok", "undecided", "error"

# exit codes each subcommand may give on a well-formed generated input
ALLOWED_EXIT = {
    "check-config": {0, 1, 3},
    "lines": {0, 1, 3},
    "square": {0},
    "nevanlinna": {0},
    "demo-three-quadrics": {0},
}

_SCHEMA = None


def _validator(src_dir: str):
    global _SCHEMA
    if _SCHEMA is None:
        import jsonschema
        with open(os.path.join(src_dir, "quadrics", "report_schema.json")) as fh:
            _SCHEMA = jsonschema.Draft7Validator(json.load(fh))
    return _SCHEMA


def check_item(item: dict, outcomes: list, src_dir: str) -> Tuple[str, str, bool]:
    """(status, detail, wrong): wrong marks a result that a check refuted,
    as opposed to an item that raised or gave an exit code it may not."""
    if any(code == "raised" for code, _ in outcomes):
        return ERROR, next(msg for code, msg in outcomes if code == "raised"), False
    if item["kind"] == "pair":
        status, detail = check_pair(item, outcomes[0][1])
        return status, detail, status == ERROR
    docs = []
    undecided = False
    for (code, text), argv in zip(outcomes, argv_list(item, "")):
        cmd = argv[2]
        if code not in ALLOWED_EXIT[cmd]:
            return ERROR, f"{cmd}: exit code {code}", False
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return ERROR, f"{cmd}: report is not JSON", True
        errors = list(_validator(src_dir).iter_errors(doc))
        if errors:
            return ERROR, f"{cmd}: schema: {errors[0].message}", True
        undecided = undecided or code == 3
        docs.append(doc["report"])
    check = {"config": check_config, "lines": check_lines,
             "quadratic": check_quadratic, "demo": check_demo}[item["kind"]]
    status, detail = check(item, docs[0])
    if status == OK and undecided:
        return UNDECIDED, "exit 3", False
    return status, detail, status == ERROR


def zeros_found(item: dict, outcomes: list) -> int:
    """Zeros listed in the counting reports of a growth item."""
    if item["kind"] not in ("lines", "quadratic") or outcomes[0][0] != 0:
        return 0
    report = json.loads(outcomes[0][1])["report"]
    return sum(len(entry["zeros"]) for entry in report.get("counting", []))


# ---------------------------------------------------------------------------
# config-sweep
# ---------------------------------------------------------------------------

def _sympy_form(coeffs: Sequence[int], d: int, z):
    return sum(c * z[0] ** a * z[1] ** b * z[2] ** e
               for c, (a, b, e) in zip(coeffs, monomials(d)))


# fixed integer changes of coordinates with determinant 1
_CHANGES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 2, 3), (0, 1, 5), (0, 0, 1)),
    ((1, 0, 0), (3, 1, 0), (-2, 7, 1)),
    ((1, -3, 2), (4, -11, 7), (0, 0, 1)),
    ((1, 5, -7), (0, 1, 0), (6, 30, -41)),
    ((2, 7, 1), (1, 4, 1), (0, 0, 1)),
)


def _squarefree_binary(R, s, t) -> bool:
    import sympy as sp
    total = sp.Poly(R, s, t).total_degree()
    f = sp.Poly(R.subs(t, 1), s)
    if total - f.degree() > 1:  # multiple root at t = 0
        return False
    return sp.gcd(f, f.diff(s)).degree() == 0


def _transversal(p, q, z) -> bool:
    """True when p and q meet in d1*d2 distinct points."""
    import sympy as sp
    w = sp.symbols("w0:3")
    dp = sp.Poly(p, *z).total_degree()
    dq = sp.Poly(q, *z).total_degree()
    for U in _CHANGES:
        sub = {z[i]: sum(U[i][j] * w[j] for j in range(3)) for i in range(3)}
        p2, q2 = sp.expand(p.subs(sub, simultaneous=True)), sp.expand(q.subs(sub, simultaneous=True))
        if sp.degree(p2, w[0]) != dp or sp.degree(q2, w[0]) != dq:
            continue  # projection centre on a curve
        R = sp.expand(sp.resultant(p2, q2, w[0]))
        if R == 0:
            return False
        if _squarefree_binary(R, w[1], w[2]):
            return True
    # a tangency leaves a multiple root under every projection
    return False


def _common_zero(forms, z) -> bool:
    """Exact test for a common projective zero of the forms."""
    import sympy as sp
    if sp.groebner([f.subs(z[2], 1) for f in forms], z[0], z[1]).exprs != [1]:
        return True
    on_line = [sp.Poly(f.subs({z[2]: 0, z[1]: 1}), z[0]) for f in forms]
    g = on_line[0]
    for f in on_line[1:]:
        g = sp.gcd(g, f)
    if not g.is_zero and g.degree() >= 1:
        return True
    if all(f.is_zero for f in on_line):
        return True
    return all(f.subs({z[0]: 1, z[1]: 0, z[2]: 0}) == 0 for f in forms)


def oracle_s4(item: dict) -> Tuple[str, str]:
    """Exact s4.1 (smoothness) and s4.2 (transversality) verdicts."""
    import itertools

    import sympy as sp
    z = sp.symbols("z0:3")
    forms = [_sympy_form(c, d, z) for c, d in zip(item["coeffs"], item["family"])]
    s41 = "pass"
    for c, d in zip(item["coeffs"], item["family"]):
        if d == 2:
            # c holds z0^2, z0 z1, z0 z2, z1^2, z1 z2, z2^2
            a, f, g, b, h, e = (Fraction(x) for x in c)
            M = sp.Matrix([[a, f / 2, g / 2], [f / 2, b, h / 2], [g / 2, h / 2, e]])
            if M.det() == 0:
                s41 = "fail"
    s42 = "pass"
    for i, j in itertools.combinations(range(len(forms)), 2):
        if sp.Poly(sp.gcd(forms[i], forms[j]), *z).total_degree() > 0:
            s42 = "fail"
        elif not _transversal(forms[i], forms[j], z):
            s42 = "fail"
    if s42 == "pass":
        for trip in itertools.combinations(forms, 3):
            if _common_zero(list(trip), z):
                s42 = "fail"
                break
    return s41, s42


def check_config(item: dict, report: dict) -> Tuple[str, str]:
    conds = report.get("genericity", {}).get("conditions", {})
    got = {k: conds.get(k, {}).get("verdict") for k in ("s4.1", "s4.2")}
    want = dict(zip(("s4.1", "s4.2"), oracle_s4(item)))
    for k in ("s4.1", "s4.2"):
        if got[k] == "undecided":
            continue
        if got[k] != want[k]:
            return ERROR, f"{k}: report {got[k]}, exact {want[k]}"
    return OK, ""


# ---------------------------------------------------------------------------
# intersect-pairs
# ---------------------------------------------------------------------------

def check_pair(item: dict, records) -> Tuple[str, str]:
    import mpmath as mp
    d1, d2 = item["degrees"]
    total = sum(r.multiplicity for r in records)
    if total != d1 * d2:
        return ERROR, f"Bezout sum {total} != {d1 * d2}"
    def to_mpc(x):
        re, im = (x.re, x.im) if hasattr(x, "im") else (Fraction(x), Fraction(0))
        return mp.mpc(mp.mpf(re.numerator) / re.denominator,
                      mp.mpf(im.numerator) / im.denominator)

    with mp.workprec(256):
        for rec in records:
            exact = rec.point.exact
            pt = ([to_mpc(x) for x in exact] if exact is not None
                  else [mp.mpc(c) for c in rec.point.coords])
            scale = max(abs(c) for c in pt)
            pt = [c / scale for c in pt]
            for coeffs, d in zip(item["coeffs"], item["degrees"]):
                val = sum(c * pt[0] ** a * pt[1] ** b * pt[2] ** e
                          for c, (a, b, e) in zip(coeffs, monomials(d)))
                if abs(val) > mp.mpf(10) ** -20 * sum(abs(c) for c in coeffs):
                    return ERROR, f"point off a curve of degree {d}: residual {mp.nstr(abs(val), 5)}"
    return OK, ""


# ---------------------------------------------------------------------------
# growth-lines
# ---------------------------------------------------------------------------

def lines_closed_form(modulus: float, r: float) -> Tuple[float, int, float]:
    """T(r), n(r) and N(r) for [1 : e^{a xi}] and the divisor z1 - z0.

    The zeros are 2 pi i k / a; only k = 0 lies inside the base radius 1.
    """
    kmax = math.floor(r * modulus / (2 * math.pi))
    N = math.log(r) + 2 * sum(math.log(r * modulus / (2 * math.pi * k))
                              for k in range(1, kmax + 1))
    return modulus * r / math.pi, 2 * kmax + 1, N


def check_lines(item: dict, report: dict) -> Tuple[str, str]:
    modulus = math.hypot(float(Fraction(item["a"][0])), float(Fraction(item["a"][1])))
    for entry in report["characteristic"]:
        T, _, _ = lines_closed_form(modulus, entry["r"])
        if abs(entry["T"] - T) > 1e-6 * max(1.0, T):
            return ERROR, f"T({entry['r']}) = {entry['T']}, closed form {T}"
    cnt = report["counting"][0]
    _, n, _ = lines_closed_form(modulus, cnt["radius"])
    if len(cnt["zeros"]) != n:
        return ERROR, f"{len(cnt['zeros'])} zeros, closed form {n}"
    for entry in cnt["N_series"]:
        _, _, N = lines_closed_form(modulus, entry["r"])
        if abs(entry["N"] - N) > 1e-6 * max(1.0, N):
            return ERROR, f"N({entry['r']}) = {entry['N']}, closed form {N}"
    if not report["main_theorem"]["passed"]:
        return ERROR, "first main theorem reported as failing"
    return OK, ""


# ---------------------------------------------------------------------------
# growth-quadratic
# ---------------------------------------------------------------------------

def _gauss(pair) -> complex:
    return complex(float(Fraction(pair[0])), float(Fraction(pair[1])))


def jensen_N(b: complex, c: complex, weights: Sequence[int], r: float,
             nodes: int = 1 << 16) -> float:
    """N(r) of w0 + w1 e^{b xi} + w2 e^{c xi^2} from Jensen's formula.

    N(r) = J(r) - J(1) with J(s) the circle mean of log|g|; the periodic
    trapezoid rule on a fine grid, with the dominant exponent factored
    out so that nothing overflows.
    """
    def J(s):
        xi = s * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        Q = np.stack([np.zeros_like(xi), b * xi, c * xi * xi])
        w = np.array(weights, dtype=float)[:, None]
        Q = np.where(w != 0, Q, -np.inf + 0j)
        M = np.max(Q.real, axis=0)
        h = np.abs(np.sum(np.where(w != 0, w * np.exp(Q - M), 0), axis=0))
        return float(np.mean(M + np.log(np.maximum(h, 1e-300))))
    return J(r) - J(1.0)


_DIVISOR_WEIGHTS = {"z0": (1, 0, 0), "z1": (0, 1, 0), "z2": (0, 0, 1),
                    "z0 + z1 + z2": (1, 1, 1)}


def check_quadratic(item: dict, report: dict) -> Tuple[str, str]:
    b, c = _gauss(item["b"]), _gauss(item["c"])
    for entry in report["counting"]:
        weights = _DIVISOR_WEIGHTS[entry["divisor"]]
        for pt in entry["N_series"]:
            want = jensen_N(b, c, weights, pt["r"])
            if abs(pt["N"] - want) > 1e-3 * max(1.0, want):
                return ERROR, (f"N({pt['r']}) for {entry['divisor']} = {pt['N']}, "
                               f"Jensen {want}")
    if not report["main_theorem"]["passed"]:
        return ERROR, "second main theorem reported as failing"
    return OK, ""


def check_demo(item: dict, report: dict) -> Tuple[str, str]:
    for chk in report["quadrature_checks"]:
        if not chk["relative_error"] < 0.01:
            return ERROR, f"relative error {chk['relative_error']} for {chk['pair']}"
    if not report["contradiction"]:
        return ERROR, "distinct alphas gave no contradiction"
    return OK, ""
