"""Seeded inputs for the four workloads and the call that runs one item.

Every input is drawn from ``--seed`` and from the run length; the library
only sees the generated files (CLI workloads) or polynomials parsed from
generated text (``intersect-pairs``).  Item counts per family, degree
pair or symmetry image are fixed, so the load does not change with the
seed.  Nothing is filtered or drawn again because of how the library
handles it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import signal
from fractions import Fraction
from typing import Dict, List, Sequence

WORKLOADS = ("config-sweep", "intersect-pairs", "growth-lines", "growth-quadratic")

# Item counts are for --seconds 20 and scale with it.  At 20 s a run
# times 10 to 30 s of work on one core of a shared 2-core Xeon VM (Python 3.11,
# pure-Python mpmath): config-sweep is the longest, because its item
# costs are heavy-tailed and fewer items spread too much between seeds.
BASE_SECONDS = 20.0

# (family, configurations, subcommands run on each)
CONFIG_MIX = (
    ((2, 2, 2), 20, ("check-config", "lines", "square")),
    ((1, 2, 2), 20, ("check-config", "square")),
    ((2, 2, 1, 1), 10, ("check-config",)),
    ((2, 1, 1, 1), 8, ("check-config",)),
    ((1, 1, 1, 1), 4, ("check-config",)),
)

# (degrees, distinct curve pairs)
PAIR_MIX = (((1, 2), 20), ((2, 2), 150), ((3, 2), 30), ((3, 3), 20), ((4, 3), 12))

COEFF_BAND = 4  # integer coefficients in [-4, 4]

# growth-lines: [1 : e^{a xi}] with a on the four half axes.  On an axis
# the kinks of max(0, Re(a xi)) sit on quadrature nodes, so the zero
# search does nearly all the work; each run visits every half axis once
# because the quadtree's cost depends on the direction.  |a| stays in a
# band where the zero count inside r = 1000 is fixed (319).
LINES_RADII = "logspace:1:3:10"
LINES_MODULUS = (Fraction(1), Fraction(1004, 1000))
LINES_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# growth-quadratic: [1 : e^{b xi} : e^{c xi^2}] against z0, z1, z2 and
# z0 + z1 + z2, and the three-quadrics certificate.  Each input is an
# image of a base input under a symmetry of the square quadrature grid
# and of the zero-search box (a quarter turn of xi, or a reflection), with
# a small modulus jitter, so the quadrature work stays fixed.  The zero
# search's cost differs between images, so each run takes all eight.
QUAD_RADII = "2,4,8"
QUAD_BASE = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)))
DEMO_BASES = (
    ((0, 0), (1, 1), (2, -1)),
    ((0, 0), (2, 0), (1, 2)),
    ((0, 1), (1, -1), (-2, 0)),
    ((1, 0), (-1, 1), (0, -2)),
)
JITTER = 1000  # modulus jitter: a factor 1 + k/10^6, 0 <= k < JITTER

def monomials(d: int):
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def form_text(coeffs: Sequence[int], d: int) -> str:
    terms = []
    for c, (a, b, e) in zip(coeffs, monomials(d)):
        if c:
            mono = "*".join(f"z{i}^{k}" if k > 1 else f"z{i}"
                            for i, k in enumerate((a, b, e)) if k)
            terms.append(f"({c})*{mono}")
    return " + ".join(terms)


def _draw_form(rng: random.Random, d: int) -> List[int]:
    n = len(monomials(d))
    while True:
        cs = [rng.randint(-COEFF_BAND, COEFF_BAND) for _ in range(n)]
        if any(cs):  # the zero polynomial is not a curve
            return cs


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _gauss_text(re: Fraction, im: Fraction) -> str:
    def dec(x: Fraction) -> str:
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if im == 0:
        return dec(re)
    sign = "+" if im > 0 else "-"
    return f"{dec(re)}{sign}{dec(abs(im))}i"


def _jitter(rng: random.Random) -> Fraction:
    return 1 + Fraction(rng.randrange(JITTER), 10 ** 6)


def _image(z, k: int, conj: bool, power: int):
    """Coefficient z of xi^power after xi -> i^k xi, then conjugation.

    For the certificate's alphas (power 1) this is xi -> e^{i k pi/4} xi
    on the xi^2 terms, which maps a grid of 8m nodes onto itself.
    """
    re, im = z
    for _ in range((k * power) % 4):
        re, im = -im, re
    return (re, -im) if conj else (re, im)


def generate(workload: str, seed: int, seconds: float) -> List[dict]:
    """The fixed, seeded item list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / BASE_SECONDS
    items: List[dict] = []
    if workload == "config-sweep":
        for family, n, commands in CONFIG_MIX:
            for _ in range(_count(n, scale)):
                coeffs = [_draw_form(rng, d) for d in family]
                items.append({"kind": "config", "family": list(family),
                              "coeffs": coeffs, "commands": list(commands)})
    elif workload == "intersect-pairs":
        seen = set()
        for (d1, d2), n in PAIR_MIX:
            for _ in range(_count(n, scale)):
                while True:  # distinct pairs, so no call repeats an earlier one
                    pair = (_draw_form(rng, d1), _draw_form(rng, d2))
                    key = json.dumps(pair)
                    if key not in seen:
                        seen.add(key)
                        break
                items.append({"kind": "pair", "degrees": [d1, d2], "coeffs": list(pair)})
    elif workload == "growth-lines":
        for _ in range(_count(1, scale)):
            for dx, dy in LINES_DIRECTIONS:
                lo, hi = LINES_MODULUS
                m = lo + (hi - lo) * Fraction(rng.randrange(1000), 1000)
                items.append({"kind": "lines", "a": [str(m * dx), str(m * dy)],
                              "radii": LINES_RADII})
    elif workload == "growth-quadratic":
        for _ in range(_count(1, scale)):
            for k, conj in [(k, c) for k in range(4) for c in (False, True)]:
                b = _image(QUAD_BASE[0], k, conj, 1)
                c = _image(QUAD_BASE[1], k, conj, 2)
                jb, jc = _jitter(rng), _jitter(rng)
                items.append({"kind": "quadratic",
                              "b": [str(b[0] * jb), str(b[1] * jb)],
                              "c": [str(c[0] * jc), str(c[1] * jc)],
                              "radii": QUAD_RADII})
            for base in DEMO_BASES:
                k, conj = rng.randrange(4), rng.random() < 0.5
                shift = (rng.randint(-2, 2), rng.randint(-2, 2))
                alphas = []
                for z in base:
                    re, im = _image(z, k, conj, 1)
                    alphas.append([str(re + shift[0]), str(im + shift[1])])
                items.append({"kind": "demo", "alphas": alphas})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = f"{i:04d}"
    return items


def digest(items: Sequence[dict]) -> str:
    return hashlib.sha256(json.dumps(list(items), sort_keys=True).encode()).hexdigest()


def strata(items: Sequence[dict]) -> Dict[str, int]:
    """Items per family, degree pair or job kind."""
    out: Dict[str, int] = {}
    for it in items:
        if it["kind"] == "config":
            key = "family " + ",".join(map(str, it["family"]))
        elif it["kind"] == "pair":
            key = "degrees " + ",".join(map(str, it["degrees"]))
        else:
            key = it["kind"]
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _exp_text(pair) -> str:
    return _gauss_text(Fraction(pair[0]), Fraction(pair[1]))


def argv_list(item: dict, path: str) -> List[List[str]]:
    """CLI argument vectors of one item (empty for library items)."""
    pre = ["--timestamp", "0"]
    if item["kind"] == "config":
        return [pre + [cmd, path] for cmd in item["commands"]]
    if item["kind"] == "lines":
        return [pre + ["nevanlinna", path, "--divisor", "z1 - z0", "--radii", item["radii"],
                       "--order", "--defect", "--main-theorem", "first"]]
    if item["kind"] == "quadratic":
        divs = []
        for d in ("z0", "z1", "z2", "z0 + z1 + z2"):
            divs += ["--divisor", d]
        return [pre + ["nevanlinna", path] + divs
                + ["--radii", item["radii"], "--main-theorem", "second"]]
    if item["kind"] == "demo":
        alphas = ",".join(_exp_text(a) for a in item["alphas"])
        return [pre + ["demo-three-quadrics", f"--alphas={alphas}", "--quadrature-check"]]
    return []


def write_inputs(items: Sequence[dict], directory: str) -> Dict[str, str]:
    """Write each item's input file; returns item id -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for it in items:
        if it["kind"] == "config":
            doc = {"family": it["family"],
                   "components": [form_text(c, d) for c, d in zip(it["coeffs"], it["family"])]}
        elif it["kind"] == "lines":
            doc = {"exponents": [["0"], ["0", _exp_text(it["a"])]]}
        elif it["kind"] == "quadratic":
            doc = {"exponents": [["0"], ["0", _exp_text(it["b"])],
                                 ["0", "0", _exp_text(it["c"])]]}
        else:
            continue
        path = os.path.join(directory, f"item_{it['id']}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths[it["id"]] = path
    return paths


def prepare(items: Sequence[dict], directory: str) -> Dict[str, object]:
    """Everything an item needs before timing: file paths or parsed curves."""
    from quadrics.polynomials import parse_poly
    paths = write_inputs(items, directory)
    ready: Dict[str, object] = {}
    for it in items:
        if it["kind"] == "pair":
            ready[it["id"]] = tuple(parse_poly(form_text(c, d))
                                    for c, d in zip(it["coeffs"], it["degrees"]))
        else:
            ready[it["id"]] = argv_list(it, paths.get(it["id"], ""))
    return ready


ITEM_LIMIT_S = 60  # an item still running after this counts as an error


class ItemTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no library handler
    for Exception swallows it."""


def _on_alarm(signum, frame):
    raise ItemTimeout(f"item ran longer than {ITEM_LIMIT_S} s")


def run_item(item: dict, ready) -> list:
    """Run one item; returns raw outcomes for the oracles.

    A CLI item gives one (exit code, report text) per subcommand; a
    library item gives (0, intersection records).  An exception or the
    time limit becomes ("raised", message) and ends the item.
    """
    import quadrics.arrangements as arrangements
    import quadrics.cli as cli
    out = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ITEM_LIMIT_S)
    try:
        if item["kind"] == "pair":
            p, q = ready
            out.append((0, arrangements.intersection_points(p, q)))
        else:
            for argv in ready:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                out.append((code, buf.getvalue()))
    except (Exception, ItemTimeout) as exc:  # counted as an error, not fatal
        out.append(("raised", f"{type(exc).__name__}: {exc}"))
    finally:
        signal.alarm(0)
    return out
