"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``quadrics`` modules from the
outside: each wrapped call appends one span (name, start, end, parent,
item id) to an in-memory list.  Nothing inside the library changes.
Spans nest strictly because the library is single threaded, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, qualified name) of every wrapped function, grouped by layer.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("arrangements", "intersection_points"),
    ("arrangements", "genericity_check_s4"),
    ("arrangements", "genericity_check_s6"),
    ("arrangements", "build_line_system"),
    ("arrangements", "select_general_position"),
    ("arrangements", "cor31_hypothesis_check"),
    ("arrangements", "contact_obstruction_check"),
    ("arrangements", "common_tangents"),
    ("arrangements", "common_zeros_of_quadratic_system"),
    ("squares", "square_combination"),
    ("polynomials", "resultant"),
    ("polynomials", "parse_poly"),
    ("polynomials", "gaussian_extension_eval"),
    ("polynomials", "HomPoly.compose"),
    ("univariate", "binary_form_roots"),
    ("univariate", "roots_with_multiplicity"),
    ("linalg", "mat_copy"),
    ("linalg", "rref"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "solve"),
    ("linalg", "det"),
    ("scalars", "reconstruct_gauss"),
    ("nevanlinna", "characteristic"),
    ("nevanlinna", "counting"),
    ("nevanlinna", "locate_zeros_in_box"),
    ("nevanlinna", "ExpSum.logeval"),
    ("nevanlinna", "ExpSum.logabs_grid"),
    ("nevanlinna", "ExpSum.derivative"),
)

MODULES = ("cli", "arrangements", "squares", "nevanlinna", "polynomials",
           "univariate", "linalg", "scalars")

# span fields
NAME, START, END, PARENT, ITEM, RAISED, NOTE = range(7)


def _xi_size(args, kwargs):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    return int(getattr(xi, "size", 1))


def _args_ref(args, kwargs):
    return args


# Extra data kept on a span, for the ratios that need more than a count:
# taken from the arguments when the call starts ...
ARG_NOTES: Dict[str, Callable] = {
    "nevanlinna.ExpSum.logeval": _xi_size,
    "nevanlinna.ExpSum.logabs_grid": _xi_size,
    "arrangements.intersection_points": _args_ref,
    "nevanlinna.counting": _args_ref,
    "nevanlinna.characteristic": _args_ref,
}
# ... or from the result when it returns.
RESULT_NOTES: Dict[str, Callable] = {
    "scalars.reconstruct_gauss": lambda result: result is not None,
}


class Tracer:
    """Collects spans from wrapped library functions."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.item: Optional[str] = None
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        arg_note, result_note = ARG_NOTES.get(name), RESULT_NOTES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, False,
                   arg_note(args, kwargs) if arg_note else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = clock()
                rec[RAISED] = True
                stack.pop()
                raise
            rec[END] = clock()
            stack.pop()
            if result_note is not None:
                rec[NOTE] = result_note(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED where it is defined and where it
        was imported by name into another ``quadrics`` module."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "quadrics" or k.startswith("quadrics.")]
        for modname, qual in WRAPPED:
            home = importlib.import_module(f"quadrics.{modname}")
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(home, qual)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "item": s[ITEM], "raised": s[RAISED]}) + "\n")


def self_times(spans: Sequence[list]) -> List[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _under(spans: Sequence[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _curve_key(curve) -> str:
    return repr([(tuple(cp.coeffs), tuple(ep.coeffs))
                 for comp in curve.components for cp, ep in comp.terms])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[list], wall_s: float) -> Dict[str, float]:
    """Per-function, per-module and derived metrics from one traced pass."""
    selfs = self_times(spans)
    calls = {f"{m}.{q}": 0 for m, q in WRAPPED}
    self_s = {f"{m}.{q}": 0.0 for m, q in WRAPPED}
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for mod in MODULES:
        out[f"{mod}.calls"] = sum(v for k, v in calls.items() if k.startswith(mod + "."))
        out[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))

    ip = "arrangements.intersection_points"
    ip_spans = [s for s in spans if s[NAME] == ip]
    pairs = {(s[NOTE][0], s[NOTE][1]) for s in ip_spans}
    out[f"{ip}.useful_ratio"] = _ratio(len(pairs), len(ip_spans))
    out[f"{ip}.errors"] = sum(1 for s in ip_spans if s[RAISED])
    res_under = sum(1 for i, s in enumerate(spans)
                    if s[NAME] == "polynomials.resultant" and _under(spans, i, ip))
    out["polynomials.resultant.per_intersection"] = _ratio(res_under, len(ip_spans))
    compose_under = sum(1 for i, s in enumerate(spans)
                        if s[NAME] == "polynomials.HomPoly.compose" and _under(spans, i, ip))
    out["arrangements.coordinate_changes"] = compose_under / 2

    rg = [s for s in spans if s[NAME] == "scalars.reconstruct_gauss"]
    out["scalars.reconstruct_gauss.hit_ratio"] = _ratio(
        sum(1 for s in rg if s[NOTE]), len(rg))

    cnt = [s for s in spans if s[NAME] == "nevanlinna.counting"]
    distinct = {(_curve_key(s[NOTE][0]), str(s[NOTE][1]), s[NOTE][2]) for s in cnt}
    out["nevanlinna.counting.useful_ratio"] = _ratio(len(distinct), len(cnt))
    ch = [s for s in spans if s[NAME] == "nevanlinna.characteristic"]
    distinct = {(_curve_key(s[NOTE][0]), s[NOTE][1]) for s in ch}
    out["nevanlinna.characteristic.useful_ratio"] = _ratio(len(distinct), len(ch))
    out["nevanlinna.contour_points"] = sum(
        s[NOTE] for s in spans if s[NAME] == "nevanlinna.ExpSum.logeval")
    out["nevanlinna.quadrature_nodes"] = sum(
        s[NOTE] for i, s in enumerate(spans)
        if s[NAME] == "nevanlinna.ExpSum.logabs_grid"
        and _under(spans, i, "nevanlinna.characteristic"))

    out["trace.wall_s"] = wall_s
    out["trace.bench_own_s"] = wall_s - sum(selfs)
    return out
