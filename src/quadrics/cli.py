"""Command-line front end with JSON report emission.

Subcommands
    check-config  genericity verdicts for a configuration file
    lines         the 18-line system and the canonical 12-line selection
    square        square combinations of a quadric triple
    nevanlinna    growth, counting, order, defect and main-theorem runs
    demo-three-quadrics   the growth-contradiction certificate

Every report embeds a run manifest (command, input digest, precision,
version, timestamp); identical manifests and inputs produce byte
identical reports.  Set --timestamp (or SOURCE_DATE_EPOCH) for
reproducible output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import List, Optional

import mpmath as mp
import numpy as np

from . import __version__
from .arrangements import (Configuration, DegenerateIntersectionError,
                           InfinitelyManySolutionsError, NoSolutionError,
                           NoValidSelectionError, UnsupportedFamilyError,
                           contact_obstruction_check, cor31_hypothesis_check,
                           genericity_check_s4, genericity_check_s6,
                           select_general_position)
from .config import PrecisionConfig, analysis_scope
from .nevanlinna import (CertificateRangeError, CoefficientRangeError, DegenerateCurveError,
                         DivisorContainsCurveError, ExpCurve, GrowthSample,
                         InsufficientSpanError, NotGeneralPositionError,
                         QuadratureFailureError, ZeroOnContourError, counting,
                         defect_estimate, main_theorem_check, order_estimate,
                         three_quadrics_certificate)
from .polynomials import (HomPoly, NotHomogeneousError, PolySyntaxError,
                          PrecisionExhaustedError, parse_poly)
from .scalars import parse_scalar_string, scalar_to_complex
from .squares import square_combination
from .univariate import RootFindingError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3
EXIT_DEGENERATE = 4


def _digest(path: Optional[str]) -> str:
    """sha256 of the input file; "-" without one, or when it cannot be read
    (the subcommand's parse step then reports the error with exit 2)."""
    if path is None:
        return "-"
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "-"


def _command(argv: List[str]) -> str:
    """The run's arguments, less the --json-out destination: where a report
    is written does not change it."""
    out: List[str] = []
    it = iter(argv)
    for tok in it:
        if tok == "--json-out":
            next(it, None)
        elif not tok.startswith("--json-out="):
            out.append(tok)
    return " ".join(out)


def _manifest(args, input_path: Optional[str]) -> dict:
    ts = getattr(args, "timestamp", None)
    if ts is None:
        env = os.environ.get("SOURCE_DATE_EPOCH")
        ts = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                           time.gmtime(int(env) if env else time.time()))
    return {
        "command": _command(args.argv),
        "input_digest": _digest(input_path),
        "precision_bits": args.precision_bits,
        "precision_cap": args.precision_cap,
        "version": __version__,
        "timestamp": ts,
    }


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_LEAVES = {str: encode_basestring_ascii, float: _float, int: int.__repr__,
           bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _dumps(o, pad: str) -> str:
    """json.dumps(o, indent=2, sort_keys=True, default=str), each line break
    written as pad (a newline and o's indent): the pieces of _write,
    joined once."""
    out = []
    _write(o, pad, out)
    return "".join(out)


def _write(o, pad: str, out: list) -> None:
    """Append o's text to out piece by piece, so that no container's text
    is copied into its parent's: a list of uniform numeric rows by one
    template (_rows), leaves of exact type by the C helpers, anything else
    (a subclass, a non-str key, an object for ``default``) by json.dumps."""
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        out.append(leaf(o))
        return
    inner = pad + "  "
    if type(o) is dict and set(map(type, o)) <= {str}:
        items, ends = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(o.items())], "{}"
    elif type(o) is list or type(o) is tuple:
        rows = _rows(o, inner)
        if rows is not None:
            out += ("[", inner, rows, pad, "]")
            return
        items, ends = [("", v) for v in o], "[]"
    else:
        out.append(json.dumps(o, indent=2, sort_keys=True, default=str).replace("\n", pad))
        return
    if not items:
        out.append(ends)
        return
    sep = ends[0] + inner
    for head, value in items:
        out.append(sep + head)
        _write(value, inner, out)
        sep = "," + inner
    out.append(pad + ends[1])


def _rows(o, pad: str) -> Optional[str]:
    """The items of o, joined as _dumps joins them, when o holds two or
    more dicts of one str key set whose values are ints (not bools),
    finite floats, or lists of finite floats of one length per key: every
    row is written by one %-template, where %r is int.__repr__ or
    float.__repr__.  None for any other o."""
    first = o[0] if len(o) > 1 else None
    if type(first) is not dict or not first:
        return None
    for value in first.values():          # a dict of strings fails at its first value
        kind = type(value)
        if not (kind is int or kind is float
                or kind is list and value and set(map(type, value)) == {float}):
            return None
    keys = first.keys()
    if (set(map(type, first)) != {str} or set(map(type, o)) != {dict}
            or not all(map(keys.__eq__, map(dict.keys, o)))):
        return None
    inner = pad + "  "
    fields, columns = [], []
    for key in sorted(first):
        column = [row[key] for row in o]
        name = encode_basestring_ascii(key).replace("%", "%%") + ": "
        if type(first[key]) is list:
            width = len(first[key])
            if set(map(type, column)) != {list} or set(map(len, column)) != {width}:
                return None
            fields.append(name + "[" + ",".join([inner + "  %r"] * width) + inner + "]")
            columns += zip(*column)
        else:
            fields.append(name + "%r")
            columns.append(column)
    for column in columns:
        kinds = set(map(type, column))
        if kinds != {int} and (kinds != {float} or not all(map(math.isfinite, column))):
            return None
    template = "{" + inner + ("," + inner).join(fields) + pad + "}"
    return ("," + pad).join(map(template.__mod__, zip(*columns)))


def _emit(args, manifest: dict, report: dict) -> None:
    text = _dumps({"manifest": manifest, "report": report}, "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


# The most radii a 'logspace:a:b:n' list may ask for; n is checked before
# anything is allocated.
MAX_RADII = 10_000


def _parse_radii(text: str) -> List[float]:
    if text.startswith("logspace:"):
        _, a, b, n = text.split(":")
        count = int(n)
        if count > MAX_RADII:
            raise ValueError(f"at most {MAX_RADII} radii, not {count}: {text!r}")
        radii = [float(r) for r in np.logspace(float(a), float(b), count)]
    else:
        radii = [float(x) for x in text.split(",") if x.strip()]
    if not radii or not all(1.0 <= r < math.inf for r in radii):
        raise ValueError(f"radii must be finite numbers >= 1: {text!r}")
    return radii


# Every subcommand first builds its precision ladder and loads its input;
# any of these exceptions there means the input is malformed.
PARSE_ERRORS = (OSError, json.JSONDecodeError, PolySyntaxError,
                NotHomogeneousError, KeyError, ValueError)

# Exceptions of the run phase that have a documented exit code, most
# specific first: (types, exit code, report error text).  Anything else
# raised while computing is a defect and propagates.
RUN_ERRORS = (
    (NotGeneralPositionError, EXIT_PARSE, lambda exc: f"parse error: {exc}"),
    ((ZeroOnContourError, QuadratureFailureError, PrecisionExhaustedError,
      RootFindingError, CertificateRangeError, CoefficientRangeError),
     EXIT_UNDECIDED,
     lambda exc: f"undecided: {type(exc).__name__}: {exc}"),
    ((DivisorContainsCurveError, DegenerateCurveError), EXIT_DEGENERATE, str),
)


def _load_configuration(args) -> Configuration:
    with open(args.path) as fh:
        return Configuration.from_json(json.load(fh))


def _load_net(args) -> List[HomPoly]:
    """The three quadrics of a square run; a declared line enters the net
    as its square."""
    cfg = _load_configuration(args)
    if cfg.k != 3:
        raise ValueError("three components required")
    if any(d > 2 for _, d in cfg.components):
        raise ValueError(f"lines and quadrics required, not family {list(cfg.family)}")
    return [p * p if d == 1 else p for p, d in cfg.components]


def _load_growth_run(args):
    with open(args.path) as fh:
        curve = ExpCurve.from_json(json.load(fh))
    divisors = [parse_poly(d) for d in args.divisor]
    for flag, value in (("--main-theorem", args.main_theorem), ("--defect", args.defect)):
        if value and not divisors:
            raise ValueError(f"{flag} needs at least one --divisor")
    for d in divisors:
        if any(d.degree_in(i) for i in range(curve.dim + 1, 3)):
            raise ValueError(f"divisor {d} uses more variables than the curve has")
        if args.main_theorem == "second" and d.degree != 1:
            raise ValueError(f"the second main theorem needs hyperplanes, not {d}")
    return curve, divisors, _parse_radii(args.radii)


def _load_alphas(args):
    alphas = [parse_scalar_string(a) for a in args.alphas.split(",")]
    if len(alphas) != 3:
        raise ValueError(f"three coefficients expected, got {len(alphas)}")
    try:
        [scalar_to_complex(a) for a in alphas]
    except OverflowError:
        raise ValueError("a coefficient lies beyond the range of a double") from None
    r = args.r_check
    if r is not None and not (args.quadrature_check and r > 0 and 0 < r * r < math.inf):
        raise ValueError("--r-check needs --quadrature-check and a positive radius "
                         "whose square is a finite nonzero double")
    return alphas


def cmd_check_config(args, cfg: Configuration):
    prec = args.precision
    report = {}
    s4 = genericity_check_s4(cfg, prec)
    report["genericity"] = s4.to_json()
    all_pass = s4.passed

    if tuple(cfg.family) == (2, 2, 2):
        try:
            s6, ls = genericity_check_s6(*cfg.polys(), precision=prec)
            report["genericity"]["conditions"].update(
                {k: v.to_json() for k, v in s6.conditions.items()})
            report["line_system"] = ls.to_json()
            all_pass = all_pass and s6.passed
        except DegenerateIntersectionError as exc:
            if exc.report is not None:
                report["genericity"]["conditions"].update(
                    {k: v.to_json() for k, v in exc.report.conditions.items()})
            all_pass = False

    cor = cor31_hypothesis_check(cfg, prec)
    report["hypothesis_counts"] = [
        {"component": r["component"], "distinct_points": r["distinct_points"],
         "pass": r["pass"]} for r in cor]
    all_pass = all_pass and all(r["pass"] for r in cor)

    degs = sorted(d for _, d in cfg.components)
    s4_gate = all(s4.conditions[k].status == "pass" for k in ("s4.1", "s4.2"))
    if degs in ([1, 2, 2], [2, 2, 2]) and s4_gate:
        try:
            obs = contact_obstruction_check(cfg, prec)
            report["contact_obstruction"] = obs.to_json()
            all_pass = all_pass and obs.passed
        except UnsupportedFamilyError:
            pass

    report["passed"] = bool(all_pass)
    if all_pass:
        return report, EXIT_OK
    any_fail = any(
        v.get("verdict") == "fail"
        for v in report["genericity"]["conditions"].values()
    ) or not all(r["pass"] for r in report["hypothesis_counts"]) or any(
        v.get("verdict") == "fail"
        for v in report.get("contact_obstruction", {}).get("conditions", {}).values())
    return report, EXIT_FAIL if any_fail else EXIT_UNDECIDED


def cmd_lines(args, cfg: Configuration):
    if tuple(cfg.family) != (2, 2, 2):
        return {"error": "a (2,2,2) configuration is required"}, EXIT_PARSE
    try:
        report_obj, ls = genericity_check_s6(*cfg.polys(), precision=args.precision)
    except DegenerateIntersectionError as exc:
        return {"error": str(exc),
                "genericity": exc.report.to_json() if exc.report else None}, EXIT_FAIL
    report = {"genericity": report_obj.to_json(), "line_system": ls.to_json()}
    try:
        sel = select_general_position(ls)
        report["selected_12"] = [
            {"group": list(li.group), "pairing": li.pairing,
             "points": list(li.point_ids),
             "coefficients": [mp.nstr(c, 30) for c in li.line.vec]}
            for li in sel]
    except NoValidSelectionError as exc:
        report["selected_12"] = None
        report["selection_error"] = str(exc)
    if report_obj.undecided:
        return report, EXIT_UNDECIDED
    return report, EXIT_OK if report_obj.passed and report["selected_12"] else EXIT_FAIL


def cmd_square(args, polys: List[HomPoly]):
    try:
        sols = square_combination(*polys, precision=args.precision)
    except NoSolutionError as exc:
        return {"square_combinations": [], "note": str(exc)}, EXIT_OK
    except InfinitelyManySolutionsError as exc:
        return {"square_combinations": None,
                "infinitely_many": True, "note": str(exc)}, EXIT_OK
    return {"square_combinations": [s.to_json() for s in sols]}, EXIT_OK


def cmd_nevanlinna(args, growth_run):
    curve, divisors, radii = growth_run
    report: dict = {}
    growth = GrowthSample.compute(curve, radii)
    report["characteristic"] = [
        {"r": r, "T": t, "error": e}
        for r, t, e in zip(growth.radii, growth.values, growth.errors)]
    if args.order:
        try:
            order, degen = order_estimate(growth)
            report["order"] = {"value": order, "degenerate": degen}
        except InsufficientSpanError as exc:
            report["order"] = {"error": str(exc)}
    if divisors:
        report["counting"] = []
        for d in divisors:
            sample = counting(curve, d, max(radii))
            entry = sample.to_json()
            entry["N_series"] = [{"r": r, "N": sample.N_at(r)} for r in growth.radii]
            report["counting"].append(entry)
        if args.defect:
            report["defects"] = [
                defect_estimate(curve, d, radii).to_json() for d in divisors]
        if args.main_theorem:
            rep = main_theorem_check(curve, divisors, args.main_theorem, radii)
            report["main_theorem"] = rep.to_json()
    return report, EXIT_OK


def cmd_demo_three_quadrics(args, alphas):
    cert = three_quadrics_certificate(alphas, quadrature_check=args.quadrature_check,
                                      r_check=args.r_check or 20.0)
    return cert.to_json(), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadrics",
        description="plane quadric configurations and value-distribution numerics")
    ap.add_argument("--precision-bits", type=int, default=256)
    ap.add_argument("--precision-cap", type=int, default=4096)
    ap.add_argument("--json-out", type=str, default=None)
    ap.add_argument("--timestamp", type=str, default=None,
                    help="fixed manifest timestamp for reproducible reports")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-config", help="genericity verdicts for a configuration")
    p.add_argument("path")
    p.set_defaults(load=_load_configuration, run=cmd_check_config)

    p = sub.add_parser("lines", help="18-line system and 12-line selection")
    p.add_argument("path")
    p.set_defaults(load=_load_configuration, run=cmd_lines)

    p = sub.add_parser("square", help="square combinations of a quadric triple")
    p.add_argument("path")
    p.set_defaults(load=_load_net, run=cmd_square)

    p = sub.add_parser("nevanlinna", help="growth and counting numerics")
    p.add_argument("path", help="curve JSON file")
    p.add_argument("--divisor", action="append", default=[])
    p.add_argument("--radii", type=str, default="logspace:1:2:8")
    p.add_argument("--order", action="store_true")
    p.add_argument("--defect", action="store_true")
    p.add_argument("--main-theorem", choices=["first", "second"], default=None)
    p.set_defaults(load=_load_growth_run, run=cmd_nevanlinna)

    p = sub.add_parser("demo-three-quadrics", help="growth contradiction certificate")
    p.add_argument("--alphas", type=str, required=True,
                   help="comma separated complex numbers, e.g. '0,1,2' or '0,i,1+i'")
    p.add_argument("--quadrature-check", action="store_true")
    p.add_argument("--r-check", type=float, default=None)
    p.set_defaults(load=_load_alphas, run=cmd_demo_three_quadrics)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # One parser per process, built on first use and not at import: parsing
    # leaves no state on it, and building it costs more than a parse.
    args = _parser().parse_args(argv)
    args.argv = argv
    manifest = _manifest(args, getattr(args, "path", None))
    args.precision = None
    try:
        args.precision = PrecisionConfig(args.precision_bits, args.precision_cap)
        inputs = args.load(args)
    except PARSE_ERRORS as exc:
        if args.precision is None:
            # a rejected ladder is no precision the run used
            manifest["precision_bits"] = manifest["precision_cap"] = None
        report, code = {"error": f"parse error: {exc}"}, EXIT_PARSE
    else:
        try:
            # one command is one analysis scope: each intersection and
            # quadric form is computed once
            with analysis_scope():
                report, code = args.run(args, inputs)
        except Exception as exc:
            entry = next((e for e in RUN_ERRORS if isinstance(exc, e[0])), None)
            if entry is None:
                raise
            _, code, text_of = entry
            report = {"error": text_of(exc)}
    _emit(args, manifest, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
