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
import hashlib
import json
import os
import sys
import time
from typing import List, Optional

import mpmath as mp
import numpy as np

from . import __version__
from .arrangements import (Configuration, DegenerateIntersectionError,
                           NoValidSelectionError, UnsupportedFamilyError,
                           contact_obstruction_check, cor31_hypothesis_check,
                           genericity_check_s4, genericity_check_s6,
                           select_general_position)
from .config import PrecisionConfig
from .nevanlinna import (DegenerateCurveError, DivisorContainsCurveError,
                         ExpCurve, GrowthSample, NotGeneralPositionError,
                         QuadratureFailureError, ZeroOnContourError, counting,
                         defect_estimate, main_theorem_check, order_estimate,
                         three_quadrics_certificate)
from .polynomials import (NotHomogeneousError, PolySyntaxError, parse_poly)
from .scalars import parse_scalar_string
from .squares import square_combination

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
        "tolerance": getattr(args, "tolerance", None),
        "seed": args.seed,
        "version": __version__,
        "timestamp": ts,
    }


def _emit(args, manifest: dict, report: dict) -> None:
    doc = {"manifest": manifest, "report": report}
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_radii(text: str) -> List[float]:
    if text.startswith("logspace:"):
        _, a, b, n = text.split(":")
        radii = [float(r) for r in np.logspace(float(a), float(b), int(n))]
    else:
        radii = [float(x) for x in text.split(",") if x.strip()]
    if not radii or min(radii) < 1.0:
        raise ValueError(f"radii must be >= 1: {text!r}")
    return radii


def _precision(args) -> PrecisionConfig:
    return PrecisionConfig(args.precision_bits, args.precision_cap)


def _load_configuration(path: str) -> Configuration:
    with open(path) as fh:
        obj = json.load(fh)
    return Configuration.from_json(obj)


def cmd_check_config(args) -> int:
    manifest = _manifest(args, args.path)
    prec = _precision(args)
    try:
        cfg = _load_configuration(args.path)
    except (OSError, json.JSONDecodeError, PolySyntaxError,
            NotHomogeneousError, ValueError) as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    report = {}
    s4 = genericity_check_s4(cfg, prec)
    report["genericity"] = s4.to_json()
    all_pass = s4.passed
    undecided = s4.undecided

    if tuple(cfg.family) == (2, 2, 2):
        try:
            s6, ls = genericity_check_s6(*cfg.polys(), precision=prec)
            report["genericity"]["conditions"].update(
                {k: v.to_json() for k, v in s6.conditions.items()})
            if ls is not None:
                report["line_system"] = ls.to_json()
            all_pass = all_pass and s6.passed
            undecided = undecided or s6.undecided
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
    if degs in ([1, 2, 2], [2, 2, 2]) and len(degs) == 3 and s4_gate:
        try:
            obs = contact_obstruction_check(cfg, prec)
            report["contact_obstruction"] = obs.to_json()
            all_pass = all_pass and obs.passed
            undecided = undecided or obs.undecided
        except UnsupportedFamilyError:
            pass

    report["passed"] = bool(all_pass)
    _emit(args, manifest, report)
    if all_pass:
        return EXIT_OK
    any_fail = any(
        v.get("verdict") == "fail"
        for v in report["genericity"]["conditions"].values()
    ) or not all(r["pass"] for r in report["hypothesis_counts"]) or any(
        v.get("verdict") == "fail"
        for v in report.get("contact_obstruction", {}).get("conditions", {}).values())
    return EXIT_FAIL if any_fail else EXIT_UNDECIDED


def cmd_lines(args) -> int:
    manifest = _manifest(args, args.path)
    prec = _precision(args)
    try:
        cfg = _load_configuration(args.path)
    except (OSError, json.JSONDecodeError, PolySyntaxError,
            NotHomogeneousError, ValueError) as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    if tuple(cfg.family) != (2, 2, 2):
        _emit(args, manifest, {"error": "a (2,2,2) configuration is required"})
        return EXIT_PARSE
    try:
        report_obj, ls = genericity_check_s6(*cfg.polys(), precision=prec)
    except DegenerateIntersectionError as exc:
        _emit(args, manifest, {
            "error": str(exc),
            "genericity": exc.report.to_json() if exc.report else None})
        return EXIT_FAIL
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
    _emit(args, manifest, report)
    if report_obj.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK if report_obj.passed and report["selected_12"] else EXIT_FAIL


def cmd_square(args) -> int:
    manifest = _manifest(args, args.path)
    prec = _precision(args)
    try:
        cfg = _load_configuration(args.path)
        polys = cfg.polys()
        if len(polys) != 3:
            raise ValueError("three components required")
        # a declared line enters the net as its square
        polys = [p * p if d == 1 else p for p, d in cfg.components]
    except (OSError, json.JSONDecodeError, PolySyntaxError,
            NotHomogeneousError, ValueError) as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    from .arrangements import (InfinitelyManySolutionsError, NoSolutionError)
    try:
        sols = square_combination(polys[0], polys[1], polys[2], precision=prec)
        _emit(args, manifest, {"square_combinations": [s.to_json() for s in sols]})
        return EXIT_OK
    except NoSolutionError as exc:
        _emit(args, manifest, {"square_combinations": [], "note": str(exc)})
        return EXIT_OK
    except InfinitelyManySolutionsError as exc:
        _emit(args, manifest, {"square_combinations": None,
                               "infinitely_many": True, "note": str(exc)})
        return EXIT_OK


def _parse_divisors(args, curve: ExpCurve):
    divisors = [parse_poly(d) for d in (args.divisor or [])]
    for d in divisors:
        if any(d.degree_in(i) for i in range(curve.dim + 1, 3)):
            raise ValueError(f"divisor {d} uses more variables than the curve has")
        if args.main_theorem == "second" and d.degree != 1:
            raise ValueError(f"the second main theorem needs hyperplanes, not {d}")
    return divisors


def cmd_nevanlinna(args) -> int:
    manifest = _manifest(args, args.path)
    try:
        with open(args.path) as fh:
            curve = ExpCurve.from_json(json.load(fh))
        divisors = _parse_divisors(args, curve)
        radii = _parse_radii(args.radii)
    except (OSError, json.JSONDecodeError, PolySyntaxError,
            NotHomogeneousError, ValueError, KeyError) as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    report: dict = {}
    try:
        growth = GrowthSample.compute(curve, radii)
        report["characteristic"] = [
            {"r": r, "T": t, "error": e}
            for r, t, e in zip(growth.radii, growth.values, growth.errors)]
        if args.order:
            try:
                order, degen = order_estimate(growth)
                report["order"] = {"value": order, "degenerate": degen}
            except Exception as exc:
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
    except NotGeneralPositionError as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    except (ZeroOnContourError, QuadratureFailureError) as exc:
        _emit(args, manifest, {"error": f"undecided: {type(exc).__name__}: {exc}"})
        return EXIT_UNDECIDED
    except (DivisorContainsCurveError, DegenerateCurveError) as exc:
        _emit(args, manifest, {"error": str(exc)})
        return EXIT_DEGENERATE
    _emit(args, manifest, report)
    return EXIT_OK


def cmd_demo_three_quadrics(args) -> int:
    manifest = _manifest(args, None)
    try:
        alphas = [parse_scalar_string(a) for a in args.alphas.split(",")]
        if len(alphas) != 3:
            raise ValueError(f"three coefficients expected, got {len(alphas)}")
        if args.r_check <= 0:
            raise ValueError("--r-check must be positive")
    except ValueError as exc:
        _emit(args, manifest, {"error": f"parse error: {exc}"})
        return EXIT_PARSE
    cert = three_quadrics_certificate(alphas, quadrature_check=args.quadrature_check,
                                      r_check=args.r_check)
    _emit(args, manifest, cert.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadrics",
        description="plane quadric configurations and value-distribution numerics")
    ap.add_argument("--precision-bits", type=int, default=256)
    ap.add_argument("--precision-cap", type=int, default=4096)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", type=str, default=None)
    ap.add_argument("--timestamp", type=str, default=None,
                    help="fixed manifest timestamp for reproducible reports")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-config", help="genericity verdicts for a configuration")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_config)

    p = sub.add_parser("lines", help="18-line system and 12-line selection")
    p.add_argument("path")
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("square", help="square combinations of a quadric triple")
    p.add_argument("path")
    p.set_defaults(func=cmd_square)

    p = sub.add_parser("nevanlinna", help="growth and counting numerics")
    p.add_argument("path", help="curve JSON file")
    p.add_argument("--divisor", action="append", default=[])
    p.add_argument("--radii", type=str, default="logspace:1:2:8")
    p.add_argument("--order", action="store_true")
    p.add_argument("--defect", action="store_true")
    p.add_argument("--main-theorem", choices=["first", "second"], default=None)
    p.set_defaults(func=cmd_nevanlinna)

    p = sub.add_parser("demo-three-quadrics", help="growth contradiction certificate")
    p.add_argument("--alphas", type=str, required=True,
                   help="comma separated complex numbers, e.g. '0,1,2' or '0,i,1+i'")
    p.add_argument("--quadrature-check", action="store_true")
    p.add_argument("--r-check", type=float, default=20.0)
    p.set_defaults(func=cmd_demo_three_quadrics)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv = argv
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
