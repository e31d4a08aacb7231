import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrics
from quadrics.cli import main
from quadrics.nevanlinna import (ExpCurve, GrowthSample, QuadratureFailureError,
                                 ZeroOnContourError, counting, defect_estimate,
                                 main_theorem_check, order_estimate)
from quadrics.polynomials import parse_poly

EXAMPLE_CONFIG = {
    "family": [1, 2, 2],
    "components": [
        "z0^2",
        "z1^2 + z0*z1 + z0*z2 + (1/25)*z1*z2",
        "z2^2 + 50*z0*z1 - 10*z0*z2 + 9*z1*z2",
    ],
}

TRIPLE_CONFIG = {
    "family": [2, 2, 2],
    "components": [
        "z0^2 - 4*z0*z1 - 3*z0*z2 - 2*z1^2 + 4*z1*z2 + 2*z2^2",
        "-3*z0^2 + 4*z0*z1 - z0*z2 + z1^2 - 4*z1*z2 - 4*z2^2",
        "-3*z0^2 - 3*z0*z1 - z0*z2 + 2*z1^2 - 3*z1*z2 + 2*z2^2",
    ],
}

SHARED_CONFIG = {  # the first two components coincide
    "family": [2, 2, 2],
    "components": ["z0^2 - z1*z2", "z0^2 - z1*z2", "z1^2 - z0*z2"],
}

LINE_CURVE = {"exponents": [["0"], ["0", "1"]]}  # [1 : e^xi]
GROWTH_DIVISORS = ["z1 - z0", "z1 + z0"]
GROWTH_ARGS = ["--divisor", GROWTH_DIVISORS[0], "--divisor", GROWTH_DIVISORS[1],
               "--radii", "logspace:0:2:8", "--order", "--defect", "--main-theorem", "first"]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(["--timestamp", "T", "--json-out", str(out)] + args)
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_check_config_example_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", EXAMPLE_CONFIG)
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 0
    assert doc["report"]["passed"] is True
    conds = doc["report"]["genericity"]["conditions"]
    assert conds["s4.1"]["verdict"] == "pass"
    assert conds["s4.2"]["verdict"] == "pass"
    assert doc["manifest"]["version"]
    assert doc["manifest"]["input_digest"] != "-"


def test_check_config_duplicate_component_exit_one(tmp_path):
    bad = {"family": [2, 2, 2],
           "components": ["z0^2 - z1*z2", "z0^2 - z1*z2", "z1^2 - z0*z2"]}
    cfg = _write(tmp_path, "bad.json", bad)
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 1
    assert doc["report"]["genericity"]["conditions"]["s4.2"]["verdict"] == "fail"


def test_rational_triple_point_with_eleven_digit_coordinates_fails_exactly(tmp_path):
    """The conics pass through (12345678901 : 10987654321 : 11111111113),
    whose fiber roots have denominators far beyond 10^9: s4.2 fails on an
    exact witness, printed with its 30 digits correct, not undecided."""
    import mpmath as mp
    n = "123456790165432098769"
    cfg = _write(tmp_path, "triple.json", {"family": [2, 2, 2], "components": [
        f"{n}*z0*z1 - 135650052122251181221*z2^2",
        f"{n}*z0^2 + {n}*z1^2 - 273144335004386538842*z2^2",
        f"{n}*z0^2 - {n}*z1^2 + 11111111113*z0*z2 - 31687240061152275661*z2^2"]})
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 1
    s42 = doc["report"]["genericity"]["conditions"]["s4.2"]
    assert s42["verdict"] == "fail"
    with mp.workprec(256):
        want = [mp.nstr(mp.mpc(mp.mpf(x) / 12345678901), 30)
                for x in (12345678901, 10987654321, 11111111113)]
    assert {"point": want, "radius": "0.0"} in s42["witnesses"]


def test_check_config_parse_error_exit_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _ = _run(["check-config", str(cfg)], tmp_path)
    assert code == 2
    cfg2 = _write(tmp_path, "badpoly.json",
                  {"family": [2], "components": ["z0^2 + z1"]})
    code2, _ = _run(["check-config", cfg2], tmp_path)
    assert code2 == 2


def test_check_config_triple_emits_line_system(tmp_path):
    cfg = _write(tmp_path, "triple.json", TRIPLE_CONFIG)
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 0
    groups = doc["report"]["line_system"]["groups"]
    assert {k: len(v) for k, v in groups.items()} == {
        "L12": 6, "L13": 6, "L23": 6}


def test_lines_subcommand(tmp_path):
    cfg = _write(tmp_path, "triple.json", TRIPLE_CONFIG)
    code, doc = _run(["lines", cfg], tmp_path)
    assert code == 0
    assert len(doc["report"]["selected_12"]) == 12
    assert doc["report"]["genericity"]["conditions"]["s6.4"]["verdict"] == "pass"


def test_square_subcommand(tmp_path):
    cfg = _write(tmp_path, "cfg.json", EXAMPLE_CONFIG)
    code, doc = _run(["square", cfg], tmp_path)
    assert code == 0
    combos = doc["report"]["square_combinations"]
    assert any(s["coefficients"] == ["225", "100", "4"] for s in combos)
    target = next(s for s in combos if s["coefficients"] == ["225", "100", "4"])
    assert target["root_form"] == "15*z0 + 10*z1 + 2*z2"


def test_nevanlinna_subcommand(tmp_path):
    curve = _write(tmp_path, "curve.json", {"exponents": [["0"], ["0", "1"]]})
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1 - z0",
                      "--radii", "logspace:1:3:10", "--order", "--defect",
                      "--main-theorem", "first"], tmp_path)
    assert code == 0
    rep = doc["report"]
    assert abs(rep["order"]["value"] - 1.0) < 0.05
    assert rep["main_theorem"]["passed"]
    assert abs(rep["defects"][0]["defect"]) < 0.05


def test_nevanlinna_constant_curve_counts_no_zeros(tmp_path):
    """On [1 : e] the divisor z1 - z0 gives the constant e - 1, a two-term
    sum whose derivative is the empty sum; its zero search finds nothing."""
    curve = _write(tmp_path, "curve.json", {"exponents": [["0"], ["1"]]})
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1 - z0", "--radii", "2,4"],
                     tmp_path)
    assert code == 0
    assert doc["report"]["counting"][0]["zeros"] == []
    assert all(abs(row["T"]) < 1e-12 for row in doc["report"]["characteristic"])


def test_nevanlinna_degenerate_exit_four(tmp_path):
    curve = _write(tmp_path, "curve.json",
                   {"exponents": [["0"], ["0", "1"], ["0", "2"]]})
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1^2 - z0*z2",
                      "--radii", "10,20"], tmp_path)
    assert code == 4


def test_nevanlinna_parse_error(tmp_path):
    curve = tmp_path / "nope.json"
    curve.write_text("[")
    code, _ = _run(["nevanlinna", str(curve), "--radii", "10"], tmp_path)
    assert code == 2


def test_demo_three_quadrics(tmp_path):
    code, doc = _run(["demo-three-quadrics", "--alphas", "0,1,2",
                      "--quadrature-check"], tmp_path)
    assert code == 0
    rep = doc["report"]
    assert rep["contradiction"] is True
    assert rep["lhs_9X"] > rep["rhs_8X"]
    code2, doc2 = _run(["demo-three-quadrics", "--alphas", "1+1i,1+1i,1+1i"],
                       tmp_path, "out2.json")
    assert doc2["report"]["contradiction"] is False


def test_overflowing_alphas_exit_undecided(tmp_path, capsys):
    """Alphas whose difference lies beyond the double range make the
    check's integrand unbounded: exit 3 with a valid report."""
    import jsonschema
    code, doc = _run(["demo-three-quadrics", "--alphas", "1e308,-1e308,0",
                      "--quadrature-check"], tmp_path)
    assert code == 3
    assert doc["report"]["error"] == (
        "undecided: QuadratureFailureError: integrand unbounded on the circle")
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())


def test_certificate_x_from_exact_differences(tmp_path):
    """X sums the exact differences: 1e-15 twice, where the alphas rounded
    to doubles differ by 5 * 2^-52 = 1.11e-15."""
    code, doc = _run(["demo-three-quadrics", "--alphas", "1,1,1.000000000000001"], tmp_path)
    assert code == 0
    rep = doc["report"]
    want = 2e-15 / (2 * math.pi)
    assert abs(rep["X"] - want) <= 1e-15 * want
    assert rep["lhs_9X"] > rep["rhs_8X"] > 0
    json.dumps(doc, allow_nan=False)


def test_overflowing_x_exits_undecided(tmp_path, capsys):
    """Without the check, an X beyond the double range ends the run with
    exit 3 and a strict-JSON report instead of "X": Infinity."""
    import jsonschema
    code, doc = _run(["demo-three-quadrics", "--alphas", "1e308,-1e308,0"], tmp_path)
    assert code == 3
    assert doc["report"]["error"] == (
        "undecided: CertificateRangeError: X lies beyond the double range")
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    json.dumps(doc, allow_nan=False)


def test_divisor_coefficient_beyond_the_double_range_exits_undecided(tmp_path, capsys):
    """A divisor coefficient with no finite double, 10^400, cannot be
    evaluated: exit 3 with a named error and a valid report, no traceback."""
    import jsonschema
    curve = _write(tmp_path, "curve.json", {"exponents": [[0], [0, 1], [0, 0, 1]]})
    code, doc = _run(["nevanlinna", curve, "--divisor", "10^400*z1 - z0 + z2",
                      "--radii", "2,4"], tmp_path)
    assert code == 3
    assert doc["report"]["error"] == ("undecided: CoefficientRangeError: a coefficient of "
                                      "the exponential sum lies beyond the range of a double")
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    json.dumps(doc, allow_nan=False)


def test_triple_check_of_nearly_equal_alphas(tmp_path):
    """The triple check curve is built from a_j - a0, so it does not cancel
    in doubles: every check agrees with its convex-hull limit."""
    code, doc = _run(["demo-three-quadrics", "--alphas", "1,1,1.000000000000001",
                      "--quadrature-check"], tmp_path)
    assert code == 0
    checks = doc["report"]["quadrature_checks"]
    assert [c["pair"] for c in checks] == [[0, 1], [0, 2], [1, 2], [0, 1, 2]]
    assert max(c["relative_error"] for c in checks) < 1e-12
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("failure", ["raises", "not finite", "at the second radius"])
def test_failed_eigen_solve_exits_undecided(tmp_path, capsys, monkeypatch, failure):
    """An eigen-solve of a tie polynomial that fails, or that returns a
    root that is not finite, ends the run with exit 3 and a valid report,
    also where it fails at one radius of the run's one T(r) pass."""
    import jsonschema
    solves = []
    numpy_roots = np.roots

    def roots(p):
        solves.append(p)
        if failure == "at the second radius" and len(solves) != 2:
            return numpy_roots(p)
        if failure == "raises":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.full(len(p) - 1, complex("nan"))

    monkeypatch.setattr(np, "roots", roots)
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1 - z0", "--radii", "2,4"], tmp_path)
    assert code == 3
    assert len(solves) == (2 if failure == "at the second radius" else 1)
    assert doc["report"]["error"] == ("undecided: QuadratureFailureError: a tie of two "
                                      "branches has no finite double roots")
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())


class _Named:
    def __str__(self):
        return "named \u00e9"


_EMIT_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, "", '"\\/\b\f\n\r\t\x00\x1f',
                     "\u00e9\u2028\U0001f600"]),
    st.text(), st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(_Named), st.builds(complex, st.floats(-9, 9), st.floats(-9, 9)))
_ROW_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 1e-320, 1e300]))
_ROW_ODD = st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, None, "1"]),
                     st.builds(np.float64, st.floats()), st.lists(_ROW_FLOAT, max_size=3),
                     st.just([1, 2.0]))


@st.composite
def _emit_rows(draw):
    """Two or more dicts of one key set with int, float or float-list
    values of one length per key, and now and then one odd row or value:
    a bool, NaN, an infinity, a numpy float, a float list of another
    length, an empty dict or a dict with another key set."""
    keys = draw(st.lists(st.sampled_from(["r", "T", "error", "position", "%r", "a%%s", "\u00e9"])
                         | st.text(max_size=3), min_size=1, max_size=4, unique=True))
    values = {}
    for key in keys:
        width = draw(st.integers(0, 3))
        values[key] = draw(st.sampled_from([st.integers(), _ROW_FLOAT,
                                            st.lists(_ROW_FLOAT, min_size=width, max_size=width)]))
    rows = [{key: draw(value) for key, value in values.items()}
            for _ in range(draw(st.integers(2, 5)))]
    odd = draw(st.sampled_from(["none", "none", "value", "empty dict", "other keys"]))
    at = draw(st.integers(0, len(rows) - 1))
    if odd == "value":
        rows[at][draw(st.sampled_from(keys))] = draw(_ROW_ODD)
    elif odd == "empty dict":
        rows[at] = {}
    elif odd == "other keys":
        rows[at] = {key + "x": value for key, value in rows[at].items()}
    return rows


_EMIT_DOC = st.recursive(_EMIT_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3),
    st.dictionaries(st.floats(allow_nan=False), inner, max_size=3),
    st.dictionaries(st.booleans(), inner, max_size=2)),
    max_leaves=30)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_EMIT_DOC, _emit_rows())
def test_the_emitter_writes_what_json_dumps_writes(doc, rows):
    """The report emitter against json.dumps(indent=2, sort_keys=True,
    default=str): nested empties, tuples, NaN and infinities, -0.0,
    escapes and non-ASCII text, non-str keys, numpy leaves and objects
    written by str, lists of same-key numeric dicts that one template
    writes and lists that break that rule at one row or value; keys that
    do not sort raise TypeError, as there."""
    from quadrics.cli import _dumps
    for value in (doc, rows, {"doc": [doc], "rows": rows}):
        assert _dumps(value, "\n") == json.dumps(value, indent=2, sort_keys=True, default=str)
    for unsortable in ({1: 0, "a": 0}, {None: 0, True: 0}):
        with pytest.raises(TypeError):
            _dumps([doc, unsortable], "\n")


@pytest.mark.parametrize("rows, templated", [
    ([{"multiplicity": 1, "position": [0.0, -0.0], "radius": 1e-320},
      {"multiplicity": 2, "position": [1e300, 2.5], "radius": 0.1}], True),
    ([{"%r": 1, "a%%s": [2.0]}, {"%r": -3, "a%%s": [0.5]}], True),
    ([{"r": 1.0}], False),
    ([{"r": 1.0, "T": 2}, {"r": math.nan, "T": 3}], False),
    ([{"p": [0.0, 1.0]}, {"p": [0.0]}], False),
    ([{"p": [0.0, 1.0]}, {"p": [1, 2.0]}], False),
    ([{"p": [0.0]}, {"p": [-math.inf]}], False),
    ([{"m": 1}, {"m": True}], False),
    ([{"r": 1.0}, {"r": np.float64(2.0)}], False),
    ([{"r": 1.0}, {}], False),
    ([{"r": 1.0}, {"s": 1.0}], False),
    ([{"p": []}, {"p": []}], False),
    ([{"n": 1}, {"n": 2.0}], False),
    ([{"verdict": "pass", "r": 1.0}, {"verdict": "fail", "r": 2.0}], False),
])
def test_the_row_rule_writes_what_json_dumps_writes(rows, templated):
    """Each branch of the row rule: the rows one template writes, and a
    bool, NaN, infinity, numpy float, int in a float list, list of another
    length, empty list, mixed int and float column, empty dict, other key
    set or string value that sends a list back to the per-node path; at
    every depth the text is json.dumps's."""
    from quadrics.cli import _dumps, _rows
    assert (_rows(rows, "\n  ") is not None) == templated
    for value in (rows, {"a": {"b": rows}}, [rows, rows]):
        assert _dumps(value, "\n") == json.dumps(value, indent=2, sort_keys=True, default=str)


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(os.path.dirname(__file__),
                                                                "golden"))))
def test_the_emitter_rewrites_every_golden_file(name):
    from quadrics.cli import _dumps
    with open(os.path.join(os.path.dirname(__file__), "golden", name)) as fh:
        doc = json.load(fh)
    assert _dumps(doc, "\n") == json.dumps(doc, indent=2, sort_keys=True, default=str)


def test_reports_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", EXAMPLE_CONFIG)
    _, _ = _run(["check-config", cfg], tmp_path, "a.json")
    _, _ = _run(["check-config", cfg], tmp_path, "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# One configuration per incidence path of check-config:
# s4.4 and s4.5 with numeric contact points (pass) and with exact contact
# points on the lines (fail); the degree-3 smoothness test of s4.1; and
# an exact triple point for s4.2.
CHECK_CONFIG_GOLDENS = {
    "dd11": {"family": [2, 2, 1, 1],
             "components": ["z0^2 + z1^2 - z2^2", "z0^2 - 2*z1^2 + 3*z2^2 + z0*z1",
                            "z0 + 2*z1 + 5*z2", "3*z0 - z1 + 7*z2"]},
    "dd11_contact": {"family": [2, 2, 1, 1],
                     "components": ["z0^2 + z1^2 - z2^2",
                                    "z0^2 + z1^2 - 6*z0*z2 + 8*z2^2",
                                    "z0", "z0 - 3*z2"]},
    "d111": {"family": [2, 1, 1, 1],
             "components": ["z0^2 + 2*z1^2 - 3*z2^2 + z1*z2", "z0 + z1 + 3*z2",
                            "2*z0 - z1 + z2", "z0 + 4*z1 - 2*z2"]},
    "d111_contact": {"family": [2, 1, 1, 1],
                     "components": ["z0^2 + z1^2 - z2^2", "z1",
                                    "3*z0 + z1 - 5*z2", "5*z0 - 3*z2"]},
    "cubic": {"family": [3, 2, 1],
              "components": ["z0^3 + z1^3 + z2^3", "z0*z1 - z2^2 + z1*z2",
                             "z0 + 2*z1 - 3*z2"]},
    "concurrent": {"family": [1, 1, 1, 1],
                   "components": ["z0", "z1", "z0 + z1", "z2"]},
}
GOLDEN_CONFIGS = dict(example=EXAMPLE_CONFIG, triple=TRIPLE_CONFIG,
                      **CHECK_CONFIG_GOLDENS)


@pytest.mark.parametrize("command, name", [
    (command, name) for command in ("check-config", "lines", "square")
    for name in ("example", "triple")
] + [("check-config", name) for name in CHECK_CONFIG_GOLDENS])
def test_reports_match_golden_files(tmp_path, command, name):
    """Exit code and report object equal those stored under tests/golden,
    so report bytes are compared across commits, not only between two
    runs of the same code.  The triple's intersection points are numeric,
    so its reports carry point digits and radii.  A change that means to
    alter a report rewrites the file in the same commit."""
    config = GOLDEN_CONFIGS[name]
    with open(os.path.join(GOLDEN_DIR, f"{name}_{command}.json")) as fh:
        golden = json.load(fh)
    code, doc = _run([command, _write(tmp_path, "cfg.json", config)], tmp_path)
    assert code == golden["exit_code"]
    assert doc["report"] == golden["report"]


QUADRATIC_CURVE = {"exponents": [["0"], ["0", "3/2"], ["0", "0", "1/4+1/2i"]]}
GROWTH_GOLDENS = {
    "line_nevanlinna": ["nevanlinna", LINE_CURVE] + GROWTH_ARGS,
    "quadratic_nevanlinna": ["nevanlinna", QUADRATIC_CURVE,
                             "--divisor", "z0", "--divisor", "z1", "--divisor", "z2",
                             "--divisor", "z0 + z1 + z2", "--radii", "2,4",
                             "--main-theorem", "second"],
    "certificate_demo-three-quadrics": ["demo-three-quadrics", "--alphas", "0,1,1+1i",
                                        "--quadrature-check"],
}


@pytest.mark.parametrize("name", sorted(GROWTH_GOLDENS))
def test_growth_reports_match_golden_files(tmp_path, name):
    """T(r), zero positions, N series, theorem and certificate numbers
    equal those stored under tests/golden bit for bit, so a change to the
    exponential-sum evaluation or the quadrature shows here."""
    args = [_write(tmp_path, "curve.json", a) if isinstance(a, dict) else a
            for a in GROWTH_GOLDENS[name]]
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        golden = json.load(fh)
    code, doc = _run(args, tmp_path)
    assert code == golden["exit_code"]
    assert doc["report"] == golden["report"]


def test_reports_validate_against_schema(tmp_path):
    import jsonschema
    from pathlib import Path
    import quadrics

    schema = json.loads(
        (Path(quadrics.__file__).parent / "report_schema.json").read_text())
    cfg = _write(tmp_path, "cfg.json", EXAMPLE_CONFIG)
    triple = _write(tmp_path, "triple.json", TRIPLE_CONFIG)
    curve = _write(tmp_path, "curve.json", {"exponents": [["0"], ["0", "1"]]})
    runs = [
        (["check-config", cfg], "r1.json"),
        (["lines", triple], "r2.json"),
        (["square", cfg], "r3.json"),
        (["nevanlinna", curve, "--divisor", "z1 - z0", "--radii", "10,20"], "r4.json"),
        (["demo-three-quadrics", "--alphas", "0,1,2"], "r5.json"),
        (["--precision-bits", "8", "check-config", cfg], "r6.json"),
    ]
    for args, name in runs:
        _, doc = _run(args, tmp_path, name)
        jsonschema.validate(doc, schema)
    # a rejected ladder is not echoed as the run's precision
    code, doc = _run(runs[-1][0], tmp_path, "r6.json")
    assert code == 2
    assert doc["manifest"]["precision_bits"] is None
    assert doc["manifest"]["precision_cap"] is None


def test_manifest_command_is_the_callers_argv(tmp_path, capsys):
    argv = ["--timestamp", "T", "demo-three-quadrics", "--alphas", "0,1,2"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["command"] == " ".join(argv)
    # the report's destination is not part of the command
    out = tmp_path / "demo.json"
    assert main(["--json-out", str(out)] + argv) == 0
    assert json.loads(out.read_text())["manifest"]["command"] == " ".join(argv)


def _cli_process(args, **env):
    """Run the CLI in a fresh interpreter, with the environment variables
    env added: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(quadrics.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run([sys.executable, "-m", "quadrics.cli", "--timestamp", "T"] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args", [
    pytest.param(["check-config", "{missing}"], id="check-config-missing"),
    pytest.param(["lines", "{missing}"], id="lines-missing"),
    pytest.param(["square", "{missing}"], id="square-missing"),
    pytest.param(["nevanlinna", "{missing}"], id="nevanlinna-missing"),
    pytest.param(["nevanlinna", "{curve}", "--radii", "0.5"], id="nevanlinna-radius-below-one"),
    pytest.param(["nevanlinna", "{curve}", "--divisor", "z2"], id="nevanlinna-divisor-uses-z2"),
    pytest.param(["nevanlinna", "{curve}", "--divisor", "z0^2", "--main-theorem", "second"],
                 id="nevanlinna-second-theorem-conic"),
    pytest.param(["nevanlinna", "{curve}", "--divisor", "z0", "--divisor", "z0",
                  "--divisor", "z1", "--main-theorem", "second"],
                 id="nevanlinna-hyperplanes-not-general"),
    pytest.param(["demo-three-quadrics", "--alphas", "0,1"], id="demo-two-alphas"),
    pytest.param(["check-config", "{constant}"], id="check-config-constant-component"),
    pytest.param(["lines", "{constant}"], id="lines-constant-component"),
    pytest.param(["square", "{constant}"], id="square-constant-component"),
    pytest.param(["check-config", "{mismatch}"], id="check-config-family-mismatch"),
    pytest.param(["lines", "{mismatch}"], id="lines-family-mismatch"),
    pytest.param(["square", "{mismatch}"], id="square-family-mismatch"),
    pytest.param(["demo-three-quadrics", "--alphas", "0,1,2", "--r-check", "0"],
                 id="demo-radius-zero"),
    pytest.param(["square", "{cubics}"], id="square-three-cubics"),
    pytest.param(["square", "{sextic}"], id="square-sextic-and-conics"),
    pytest.param(["nevanlinna", "{curve}", "--main-theorem", "first"],
                 id="nevanlinna-main-theorem-without-divisor"),
    pytest.param(["nevanlinna", "{curve}", "--defect"], id="nevanlinna-defect-without-divisor"),
    pytest.param(["demo-three-quadrics", "--alphas", "0,1,2", "--r-check", "5"],
                 id="demo-radius-without-quadrature-check"),
    pytest.param(["demo-three-quadrics", "--alphas", "1e400,0,0"], id="demo-alpha-beyond-double"),
    pytest.param(["demo-three-quadrics", "--alphas", "1,1,1", "--quadrature-check",
                  "--r-check", "1e155"], id="demo-radius-square-beyond-double"),
    pytest.param(["demo-three-quadrics", "--alphas", "1,1,1", "--quadrature-check",
                  "--r-check", "inf"], id="demo-radius-infinite"),
    pytest.param(["demo-three-quadrics", "--alphas", "1,1,1", "--quadrature-check",
                  "--r-check", "1e-170"], id="demo-radius-square-underflows"),
    pytest.param(["nevanlinna", "{curve}", "--radii", "nan"], id="nevanlinna-radius-nan"),
    pytest.param(["nevanlinna", "{curve}", "--radii", "inf"], id="nevanlinna-radius-infinite"),
    pytest.param(["nevanlinna", "{curve}", "--radii", "logspace:1:400:8"],
                 id="nevanlinna-radii-beyond-double"),
    pytest.param(["--precision-bits", "0", "check-config", "{triple}"], id="precision-bits-0"),
    pytest.param(["--precision-bits", "8", "check-config", "{triple}"], id="precision-bits-8"),
    pytest.param(["--precision-cap", "128", "check-config", "{triple}"],
                 id="precision-cap-below-start"),
    pytest.param(["check-config", "{family_int}"], id="family-not-a-list"),
    pytest.param(["check-config", "{family_text}"], id="family-entry-not-an-integer"),
    pytest.param(["check-config", "{not_object}"], id="document-not-an-object"),
    pytest.param(["check-config", "{components_text}"], id="components-not-a-list"),
    pytest.param(["check-config", "{component_int}"], id="component-not-a-string"),
    pytest.param(["check-config", "{huge_constant}"], id="coefficient-past-the-bit-bound"),
])
def test_bad_input_exits_two_without_traceback(tmp_path, args):
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    missing = str(tmp_path / "no-such-file.json")
    triple = TRIPLE_CONFIG["components"]
    files = {
        "triple": TRIPLE_CONFIG,
        "constant": {"components": ["3"] + triple[1:]},
        "mismatch": {"family": [2, 2], "components": triple},
        "family_int": {"family": 2, "components": triple},
        "family_text": {"family": [2, 2, "2"], "components": triple},
        "not_object": triple,
        "components_text": {"components": triple[0]},
        "component_int": {"components": [3] + triple[1:]},
        "huge_constant": {"components": ["3^4000000*z0"] + triple[1:]},
        "cubics": {"family": [3, 3, 3],
                   "components": ["z0^3 + z1^3 - 7*z2^3", "z0^3 - z1*z2^2", "z1^3 + z0^2*z2"]},
        "sextic": {"family": [6, 2, 2], "components": ["z0^6 + z1^6 - z2^6"] + triple[1:]},
    }
    paths = {name: _write(tmp_path, f"{name}.json", obj) for name, obj in files.items()}
    args = [a.format(missing=missing, curve=curve, **paths) for a in args]
    code, out, err = _cli_process(args)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["report"]["error"].startswith("parse error")


@pytest.mark.parametrize("length, env, limit", [
    pytest.param(4301, {}, 4300, id="default-limit"),
    pytest.param(2000, {"PYTHONINTMAXSTRDIGITS": "1000"}, 1000, id="lower-interpreter-limit"),
])
def test_a_long_integer_literal_exits_two_at_its_position(tmp_path, length, env, limit):
    """An integer literal past polynomials.MAX_LITERAL_DIGITS, or past a
    lower digit limit set for the interpreter, is a syntax error at its
    first digit, not CPython's int() error."""
    triple = TRIPLE_CONFIG["components"]
    cfg = _write(tmp_path, "cfg.json", {"components": ["z0^2 + " + "9" * length + "*z1^2"]
                                        + triple[1:]})
    code, out, err = _cli_process(["check-config", cfg], **env)
    assert code == 2 and "Traceback" not in err
    assert json.loads(out)["report"]["error"] == (
        f"parse error: integer literal of {length} digits above {limit} (at position 7)")


@pytest.mark.parametrize("components, family, code, condition, note", [
    pytest.param(["-z2", "3*z0 - 2*z1 + 4*z2", "-2*z0 + 3*z1 - 3*z2", "-2*z0 - z1 - 4*z2"],
                 [1, 1, 1, 1], 0, "s4.4", None, id="four-lines"),
    pytest.param(["-z0^2 - z0*z1 + 4*z1^2", "-2*z0^2 + 4*z0*z1 - 3*z0*z2 + z1^2 + 2*z2^2",
                  "-2*z0 + z1 + 2*z2", "4*z0 + 3*z1 - 4*z2"],
                 [2, 2, 1, 1], 1, "s4.4", "needs smooth quadrics", id="line-pair-quadric"),
    pytest.param(["-2*z0^2 - 4*z0*z2 - 2*z2^2",
                  "4*z0^2 + 2*z0*z1 + 3*z0*z2 + 3*z1^2 + z1*z2 - 4*z2^2",
                  "4*z0 + z1 - 3*z2", "-2*z0 + 3*z1 - 4*z2"],
                 [2, 2, 1, 1], 1, "s4.4", "needs smooth quadrics", id="double-line-quadric"),
    pytest.param(["2*z0^2 + z0*z1 - z0*z2 + z1*z2 - 3*z2^2", "3*z0 - z1 - 3*z2",
                  "z0 + 3*z1 + 4*z2", "-2*z0 - 3*z1 - 4*z2"],
                 [2, 1, 1, 1], 1, "s4.5", "needs a smooth quadric", id="line-pair-and-three-lines"),
])
def test_check_config_gives_s4_verdicts_where_it_crashed(tmp_path, components, family,
                                                         code, condition, note):
    """An all-lines family, and a singular quadric beside two or three
    lines, once raised inside the s4.4 or s4.5 check; all now give
    verdicts: undecided where a contact point needs a smooth quadric."""
    cfg = _write(tmp_path, "cfg.json", {"family": family, "components": components})
    got, out, err = _cli_process(["check-config", cfg])
    assert "Traceback" not in err
    assert got == code
    conds = json.loads(out)["report"]["genericity"]["conditions"]
    if note is None:
        assert all(v["verdict"] in ("pass", "not_applicable") for v in conds.values())
    else:
        assert conds[condition]["verdict"] == "undecided"
        assert conds[condition]["note"] == note


def _seeded_config(seed, family):
    """Integer coefficients in [-4, 4], one nonzero form per entry."""
    rng = random.Random(seed)
    components = []
    for d in family:
        monos = [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
        while True:
            terms = [(rng.randint(-4, 4), e) for e in monos]
            if any(c for c, _ in terms):
                break
        components.append(" + ".join(
            f"({c})*" + "*".join(f"z{i}^{k}" for i, k in enumerate(e) if k)
            for c, e in terms if c))
    return {"family": list(family), "components": components}


@given(seed=st.integers(0, 10 ** 6),
       family=st.sampled_from([(1, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1)]))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_verdicts_never_flip_across_precision_ladders(tmp_path_factory, seed, family):
    """No check-config condition passes on one precision ladder and fails
    on another."""
    tmp_path = tmp_path_factory.mktemp("ladders")
    cfg = _write(tmp_path, "cfg.json", _seeded_config(seed, family))
    seen = {}
    for bits in (128, 256, 512):
        _, doc = _run(["--precision-bits", str(bits), "check-config", cfg], tmp_path)
        report = doc["report"]
        conds = dict(report["genericity"]["conditions"])
        conds.update({f"contact.{k}": v for k, v in
                      report.get("contact_obstruction", {}).get("conditions", {}).items()})
        for name, v in conds.items():
            seen.setdefault(name, set()).add(v["verdict"])
    assert not [name for name, v in seen.items() if {"pass", "fail"} <= v], seen


@pytest.mark.parametrize("name, exc", [
    ("locate_zeros_in_box", ZeroOnContourError),
    ("_characteristic", QuadratureFailureError),
])
def test_nevanlinna_numeric_failure_exits_undecided(tmp_path, monkeypatch, capsys, name, exc):
    import quadrics.nevanlinna as nv

    def fail(*args, **kwargs):
        raise exc("injected failure")

    monkeypatch.setattr(nv, name, fail)
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1 - z0", "--radii", "10,20"],
                     tmp_path)
    assert code == 3
    assert "injected failure" in doc["report"]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_nevanlinna_order_short_span_is_a_report_entry(tmp_path):
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", curve, "--order", "--radii", "1,2,3"], tmp_path)
    assert code == 0
    assert "2 decades" in doc["report"]["order"]["error"]


def test_nevanlinna_order_defect_propagates(tmp_path, monkeypatch):
    # only a too short span of radii is an order entry; a defect is not
    import quadrics.cli as cli

    def broken(growth):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(cli, "order_estimate", broken)
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    with pytest.raises(RuntimeError, match="injected defect"):
        _run(["nevanlinna", curve, "--order", "--radii", "1,2,3"], tmp_path)


@pytest.mark.parametrize("subcommand", ["check-config", "lines", "square"])
def test_precision_exhausted_exits_undecided(tmp_path, monkeypatch, capsys, subcommand):
    import quadrics.arrangements as ar
    from quadrics.polynomials import PrecisionExhaustedError

    def fail(*args, **kwargs):
        raise PrecisionExhaustedError("injected failure")

    monkeypatch.setattr(ar, "intersection_points", fail)
    cfg = _write(tmp_path, "cfg.json", TRIPLE_CONFIG)
    code, doc = _run([subcommand, cfg], tmp_path)
    assert code == 3
    assert doc["report"]["error"].startswith("undecided: PrecisionExhaustedError: ")
    assert "Traceback" not in capsys.readouterr().err


SHARED_LINE_CONFIG = {  # config-sweep seed 4101, item 0015: components 1 and 2 coincide
    "family": [1, 1, 1, 1],
    "components": ["4*z1", "-4*z0 - 4*z1 - 4*z2", "z0 + z1 + z2", "3*z0 + z1 + z2"],
}

IRRATIONAL_TRIPLE_CONFIG = {  # three smooth conics through (+-sqrt 2 : +-1 : 1)
    "family": [2, 2, 2],
    "components": ["z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2", "z0^2 + 2*z1^2 - 4*z2^2"],
}


def _schema():
    from pathlib import Path
    return json.loads((Path(quadrics.__file__).parent / "report_schema.json").read_text())


def test_shared_first_probe_line_fails_without_traceback(tmp_path, capsys):
    """A component equal to the first probe line of the witness search
    (up to a scalar) shares it with another: s4.2 fails, its note names the
    shared factor, and a witness on that line is reported, with exit 1."""
    import jsonschema
    cfg = _write(tmp_path, "cfg.json", SHARED_LINE_CONFIG)
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    s42 = doc["report"]["genericity"]["conditions"]["s4.2"]
    assert s42["verdict"] == "fail"
    assert "components 1 and 2 share the component z0 + z1 + z2" in s42["note"]
    line = parse_poly("z0 + z1 + z2")
    points = [[complex(c.replace(" ", "")) for c in w["point"]] for w in s42["witnesses"]]
    assert any(abs(complex(line.eval_mpc(pt))) == 0 for pt in points)


SHARED_CONIC_LINE_CONFIG = {  # config-sweep seed 5555, item 0028: the line lies on conic 1
    "family": [1, 2, 2],
    "components": ["(-4)*z0 + (4)*z2",
                   "(2)*z0^2 + (4)*z0*z1 + (1)*z0*z2 + (-4)*z1*z2 + (-3)*z2^2",
                   "(-1)*z0^2 + (-4)*z0*z1 + (1)*z0*z2 + (2)*z1^2 + (-1)*z1*z2 + (-1)*z2^2"],
}


def test_shared_component_meets_the_third_at_triple_points(tmp_path):
    """Components 0 and 1 share the line z0 = z2, which meets component 2
    at (r : 1 : r) and (1 : -r/2 : 1), r = 0.3722...: s4.2 notes the
    shared component and the triple point, with both points as
    witnesses, exit 1."""
    code, doc = _run(["check-config", _write(tmp_path, "cfg.json", SHARED_CONIC_LINE_CONFIG)],
                     tmp_path)
    assert code == 1
    s42 = doc["report"]["genericity"]["conditions"]["s4.2"]
    assert s42["verdict"] == "fail"
    assert s42["note"] == ("components 0 and 1 share the component z0 - z2; "
                           "components 0,1,2 meet at one point")
    points = [[complex(c.replace(" ", "")) for c in w["point"]] for w in s42["witnesses"]]
    r = 0.372281323269014329925305734109
    for want in ([r, 1, r], [1, -r / 2, 1]):
        assert any(all(abs(x - y) < 1e-12 for x, y in zip(pt, want)) for pt in points)


IRRATIONAL_TRIPLE_LINE_CONFIG = {  # two of those conics, and z1 = z2 through (+-sqrt 2 : 1 : 1)
    "family": [2, 2, 1],
    "components": ["z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2", "z1 - z2"],
}

# two of those conics and the smooth cubic (z1 - z2)(z1^2 + z0 z2) + (z0^2 - 2 z2^2)(z0 + z1)
# through (+-sqrt 2 : 1 : 1), meeting both conics transversally
IRRATIONAL_TRIPLE_CUBIC_CONFIG = {
    "family": [2, 2, 3],
    "components": ["z0^2 + z1^2 - 3*z2^2", "z0^2 - z1^2 - z2^2",
                   "z0^3 + z0^2*z1 + z0*z1*z2 - 3*z0*z2^2 + z1^3 - z1^2*z2 - 2*z1*z2^2"],
}


def test_undecided_verdicts_carry_a_note(tmp_path):
    """s4.2 stays undecided on two conics and a cubic through two of their
    irrational common points (a triple with a cubic is decided
    numerically only); the note names its test, what it could not
    separate and the precision reached."""
    code, doc = _run(["check-config", _write(tmp_path, "cubic.json",
                                             IRRATIONAL_TRIPLE_CUBIC_CONFIG)], tmp_path)
    conds = doc["report"]["genericity"]["conditions"]
    assert conds["s4.1"]["verdict"] == "pass"
    assert conds["s4.2"]["verdict"] == "undecided"
    assert conds["s4.2"]["note"].startswith(
        "triple-point test: component 2 at points of components 0 and 1: "
        "2 point(s) not separated from zero (radius up to ")
    # s4.2 evaluates at the intersection points' own precision, not the ambient 53 bits
    assert "256-bit evaluation)" in conds["s4.2"]["note"]
    assert "53-bit" not in conds["s4.2"]["note"]
    assert all(v["note"] for v in conds.values() if v["verdict"] == "undecided")


# s6.4 stayed undecided on these at 4096 bits while it was decided on the
# numeric lines: config-sweep seeds 9191 and 3101, items 0055 and 0017,
# where a vertex of pencil (1,2) lies on a member of pencil (0,2); and
# conics whose members Q0 + Q1, Q0 + Q2 and Q1 - Q2 are line pairs through
# (+-sqrt 2 : +-sqrt 3 : 1), one member of each pencil
S64_FAILS_BY_PENCILS = {
    "sweep-9191-0055": ["4*z0*z1 + z1^2 + z1*z2 - 4*z2^2",
                        "-z0^2 + 4*z0*z1 + 3*z0*z2 - 4*z1^2 + 3*z1*z2 + 3*z2^2",
                        "3*z0*z1 + 2*z0*z2 - 3*z1^2 - 4*z1*z2 - 2*z2^2"],
    "sweep-3101-0017": ["-2*z0^2 - z0*z1 + z0*z2 - 4*z1*z2 + 3*z2^2",
                        "4*z0^2 + 2*z0*z1 - 2*z1^2 - 2*z1*z2 - 4*z2^2",
                        "2*z0^2 + z0*z1 + 3*z1*z2 + 4*z2^2"],
    "constructed": ["z0^2 + z0*z1 + z0*z2 + 2*z1^2 - z1*z2 + 3*z2^2",
                    "2*z1^2 - 3*z0^2 - (z0^2 + z0*z1 + z0*z2 + 2*z1^2 - z1*z2 + 3*z2^2)",
                    "6*z2^2 - 3*z0^2 - (z0^2 + z0*z1 + z0*z2 + 2*z1^2 - z1*z2 + 3*z2^2)"],
}
S64_NOTES = {
    "sweep-9191-0055": "a vertex of pencil (1,2) lies on a member of pencil (0,2): "
                       "no witness point",
    "sweep-3101-0017": "a vertex of pencil (1,2) lies on a member of pencil (0,2): "
                       "no witness point",
    "constructed": "members of pencils (0,1), (0,2) and (1,2) meet at one point: "
                   "no witness point",
}


@pytest.mark.parametrize("command", ["check-config", "lines"])
@pytest.mark.parametrize("name", sorted(S64_FAILS_BY_PENCILS))
def test_s64_fails_exactly_on_the_pencils(tmp_path, name, command):
    """s6.4 fails by the pencils' cubics, with no witness point, and both
    commands exit 1 from the line system of the start precision."""
    cfg = _write(tmp_path, "cfg.json", {"family": [2, 2, 2],
                                        "components": S64_FAILS_BY_PENCILS[name]})
    code, doc = _run([command, cfg], tmp_path)
    assert code == 1
    s64 = doc["report"]["genericity"]["conditions"]["s6.4"]
    assert (s64["verdict"], s64["note"], s64["witnesses"]) == ("fail", S64_NOTES[name], [])
    assert doc["report"]["line_system"]["precision_bits"] == 256
    if command == "lines":
        assert doc["report"]["selected_12"] is None
        assert doc["report"]["selection_error"] == (
            f"no 12-line selection is in general position: {S64_NOTES[name]}")


SWEEP_5555_30 = {  # config-sweep seed 5555, item 0030: s4.2 fails
    "family": [2, 2, 2],
    "components": ["-z0^2 - 3*z0*z1 - z0*z2 + 3*z1^2 + z1*z2 + 2*z2^2",
                   "z0^2 + z0*z1 - 3*z0*z2 + 3*z1^2 - 4*z1*z2 + 2*z2^2",
                   "-z0^2 - 3*z0*z1 - z1^2 - 4*z1*z2 + z2^2"],
}


@pytest.mark.parametrize("config", [IRRATIONAL_TRIPLE_CONFIG, SWEEP_5555_30],
                         ids=["irrational-triple-point", "sweep-5555-0030"])
def test_lines_fails_at_a_triple_point_from_the_start_precision(tmp_path, config):
    code, doc = _run(["lines", _write(tmp_path, "cfg.json", config)], tmp_path)
    assert code == 1
    s64 = doc["report"]["genericity"]["conditions"]["s6.4"]
    assert (s64["verdict"], s64["note"]) == ("fail", "the three conics meet at one point")
    assert s64["witnesses"]
    assert doc["report"]["line_system"]["precision_bits"] == 256
    assert doc["report"]["selected_12"] is None


SINGULAR_CUBIC_CONFIG = {  # z1 (z0^2 - 2 z2^2 + z1^2), singular at (+-sqrt 2 : 0 : 1)
    "family": [3, 1],
    "components": ["z0^2*z1 - 2*z1*z2^2 + z1^3", "z0 + 5*z1 + 7*z2"],
}

# the tangents to the unit circle at (1/2 : +-sqrt 3/2 : 1), on the line, touch
# the unit circle about (4, 0)
IRRATIONAL_CLAUSE_G_CONFIG = {
    "family": [1, 2, 2],
    "components": ["2*z0 - z2", "z0^2 + z1^2 - z2^2", "z0^2 - 8*z0*z2 + z1^2 + 15*z2^2"],
}


@pytest.mark.parametrize("config, section, condition", [
    (SINGULAR_CUBIC_CONFIG, "genericity", "s4.1"),
    (IRRATIONAL_CLAUSE_G_CONFIG, "contact_obstruction", "g")])
def test_irrational_common_zeros_fail_exactly(tmp_path, config, section, condition):
    """s4.1 on a cubic whose partials are conics, and clause g, are decided
    by the exact resultant of three conics: exit 1, with no undecided
    verdict left."""
    code, doc = _run(["check-config", _write(tmp_path, "cfg.json", config)], tmp_path)
    assert code == 1
    assert doc["report"][section]["conditions"][condition]["verdict"] == "fail"
    assert "undecided" not in json.dumps(doc)


def test_line_through_irrational_common_points_fails_s42_exactly(tmp_path, capsys):
    """Two conics and the line z1 = z2 through two of their common points
    (+-sqrt 2 : 1 : 1): the resultant with the line squared decides the
    triple, so s4.2 fails with those two points as witnesses, exit 1; a
    line through none of them passes."""
    import jsonschema
    code, doc = _run(["check-config", _write(tmp_path, "cfg.json", IRRATIONAL_TRIPLE_LINE_CONFIG)],
                     tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    s42 = doc["report"]["genericity"]["conditions"]["s4.2"]
    assert s42["verdict"] == "fail"
    assert s42["note"] == "components 0,1,2 meet at one point"
    signs = set()
    for w in s42["witnesses"]:
        x, y, z = (complex(c.replace(" ", "")) for c in w["point"])
        assert abs(abs(x / z) - math.sqrt(2)) < 1e-12 and abs(y / z - 1) < 1e-12
        signs.add((x / z).real > 0)
    assert signs == {True, False}
    apart = dict(IRRATIONAL_TRIPLE_LINE_CONFIG,
                 components=IRRATIONAL_TRIPLE_LINE_CONFIG["components"][:2] + ["z1 - 2*z2"])
    code, doc = _run(["check-config", _write(tmp_path, "apart.json", apart)], tmp_path, "apart.out")
    assert doc["report"]["genericity"]["conditions"]["s4.2"]["verdict"] == "pass"


def test_irrational_triple_point_fails_s42_exactly(tmp_path, capsys):
    """Three conics through (+-sqrt 2 : +-1 : 1): no numeric point certifies
    the triple point, and their resultant does, so s4.2 fails with exit 1,
    witnessed by the four unseparated points."""
    import jsonschema
    code, doc = _run(["check-config", _write(tmp_path, "cfg.json", IRRATIONAL_TRIPLE_CONFIG)],
                     tmp_path)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    s42 = doc["report"]["genericity"]["conditions"]["s4.2"]
    assert s42["verdict"] == "fail"
    assert s42["note"] == "components 0,1,2 meet at one point"
    found = set()
    for w in s42["witnesses"]:
        x, y, z = (complex(c.replace(" ", "")) for c in w["point"])
        assert abs(abs(x / z) - math.sqrt(2)) < 1e-12 and abs(abs(y / z) - 1) < 1e-12
        found.add(((x / z).real > 0, (y / z).real > 0))
    assert len(found) == 4


def test_check_config_decides_each_triple_once(tmp_path, monkeypatch):
    """On the irrational triple point, s4.2 and s6.4 share one
    ``_triple_points`` computation: the exact resultant of three conics
    answers the command's 4 questions in 4 calls, where computing the
    triple points for each caller takes 2 computations and 5 calls, and
    the report's bytes are the same."""
    import quadrics.arrangements as ar
    path = _write(tmp_path, "cfg.json", IRRATIONAL_TRIPLE_CONFIG)
    share, store = ar.conics_share_a_zero, ar.scoped

    def run(memo):
        kernel, computed = [], []

        def scoped(key, compute):
            if key[0] != "triple points":
                return store(key, compute)
            counted = lambda: computed.append(key) or compute()  # noqa: E731
            return store(key, counted) if memo else counted()

        monkeypatch.setattr(ar, "conics_share_a_zero",
                            lambda *forms: kernel.append(forms) or share(*forms))
        monkeypatch.setattr(ar, "scoped", scoped)
        out = tmp_path / f"memo-{memo}.json"
        code = main(["--timestamp", "0", "--json-out", str(out), "check-config", path])
        return code, out.read_bytes(), len(computed), len(kernel)

    code, report, computed, calls = run(memo=True)
    assert (code, computed, calls) == (1, 1, 4)
    assert run(memo=False) == (1, report, 2, 5)


def test_failed_root_solve_exits_undecided(tmp_path, monkeypatch, capsys):
    """A root solve that does not converge ends its coordinate change;
    when every change fails, check-config is undecided (exit 3) and its
    report is still valid.  Elsewhere the same error is exit 3."""
    import jsonschema
    from pathlib import Path
    import quadrics.univariate as uv

    def fail(*args, **kwargs):
        raise uv.RootFindingError("injected failure")

    monkeypatch.setattr(uv, "_solve", fail)
    cfg = _write(tmp_path, "cfg.json", TRIPLE_CONFIG)
    code, doc = _run(["--precision-bits", "256", "--precision-cap", "512", "check-config", cfg],
                     tmp_path)
    assert code == 3
    assert doc["report"]["error"].startswith(
        "undecided: PrecisionExhaustedError: no admissible coordinate change")
    schema = json.loads((Path(quadrics.__file__).parent / "report_schema.json").read_text())
    jsonschema.validate(doc, schema)
    # a failed solve outside an intersection is undecided too
    monkeypatch.setattr("quadrics.cli.square_combination", fail)
    code, doc = _run(["square", cfg], tmp_path, "square.json")
    assert code == 3
    assert doc["report"]["error"] == "undecided: RootFindingError: injected failure"
    jsonschema.validate(doc, schema)
    assert "Traceback" not in capsys.readouterr().err


def test_net_with_irrational_rank_one_members_exits_undecided_at_once(tmp_path, monkeypatch,
                                                                   capsys):
    """The rank-one members of z0^2 + 2 z1^2, z0 z1, z2^2 sit at irrational
    points, which every generic pair of minor combinations passes
    through: the solver stops at its first candidate, after one
    intersection, with exit 3 and the precision in the error."""
    import jsonschema
    import quadrics.arrangements as arr

    calls = []
    intersect = arr.intersection_points
    monkeypatch.setattr(arr, "intersection_points",
                        lambda *a, **k: calls.append(a) or intersect(*a, **k))
    net = {"family": [2, 2, 2], "components": ["z0^2 + 2*z1^2", "z0*z1", "z2^2"]}
    code, doc = _run(["square", _write(tmp_path, "net.json", net)], tmp_path)
    assert code == 3
    assert len(calls) == 1
    assert "Traceback" not in capsys.readouterr().err
    jsonschema.validate(doc, _schema())
    assert doc["report"]["error"].startswith(
        "undecided: PrecisionExhaustedError: a candidate common zero is excluded by no form")
    assert "-bit evaluation" in doc["report"]["error"]


def test_nevanlinna_searches_zeros_once_per_divisor(tmp_path, monkeypatch):
    import quadrics.nevanlinna as nv

    calls = {"locate": 0, "derivative": 0}
    locate, derivative = nv.locate_zeros_in_box, nv.ExpSum.derivative

    def counted_locate(*args, **kwargs):
        calls["locate"] += 1
        return locate(*args, **kwargs)

    def counted_derivative(self):
        calls["derivative"] += 1
        return derivative(self)

    monkeypatch.setattr(nv, "locate_zeros_in_box", counted_locate)
    monkeypatch.setattr(nv.ExpSum, "derivative", counted_derivative)
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, _ = _run(["nevanlinna", curve] + GROWTH_ARGS, tmp_path)
    assert code == 0
    # both divisors give two-term sums, solved in closed form with no g'
    assert calls == {"locate": 2, "derivative": 0}


def test_nevanlinna_report_matches_fresh_curves(tmp_path):
    """Sections that share one curve's stored samples equal the same
    sections computed each on a newly built curve."""
    path = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", path] + GROWTH_ARGS, tmp_path)
    assert code == 0

    def fresh():
        return ExpCurve.from_json(LINE_CURVE)

    radii = [float(r) for r in np.logspace(0, 2, 8)]
    divisors = [parse_poly(d) for d in GROWTH_DIVISORS]
    growth = GrowthSample.compute(fresh(), radii)
    order, degenerate = order_estimate(growth)
    counts = []
    for d in divisors:
        sample = counting(fresh(), d, max(radii))
        entry = sample.to_json()
        entry["N_series"] = [{"r": r, "N": sample.N_at(r)} for r in growth.radii]
        counts.append(entry)
    expected = {
        "characteristic": [{"r": r, "T": t, "error": e}
                           for r, t, e in zip(growth.radii, growth.values, growth.errors)],
        "order": {"value": order, "degenerate": degenerate},
        "counting": counts,
        "defects": [defect_estimate(fresh(), d, radii).to_json() for d in divisors],
        "main_theorem": main_theorem_check(fresh(), divisors, "first", radii).to_json(),
    }
    assert doc["report"] == json.loads(json.dumps(expected, default=str))


def _count_intersections(monkeypatch):
    """(calls into intersection_points, computations by key)."""
    import quadrics.arrangements as ar
    calls, computed = [], {}
    public, compute = ar.intersection_points, ar._intersection_points

    def called(*args, **kwargs):
        calls.append(args)
        return public(*args, **kwargs)

    def counted(p, q, precision):
        computed[(p, q, precision)] = computed.get((p, q, precision), 0) + 1
        return compute(p, q, precision)

    monkeypatch.setattr(ar, "intersection_points", called)
    monkeypatch.setattr(ar, "_intersection_points", counted)
    return calls, computed


def test_check_config_computes_each_intersection_once(tmp_path, monkeypatch):
    calls, computed = _count_intersections(monkeypatch)
    code, _ = _run(["check-config", _write(tmp_path, "cfg.json", TRIPLE_CONFIG)], tmp_path)
    assert code == 0
    assert set(computed.values()) == {1}
    assert len(calls) > len(computed)  # s4.2, s6.2 and the Cor. 3.1 counts share pairs


def test_command_memo_ends_with_the_command(tmp_path, monkeypatch):
    from quadrics.arrangements import intersection_points
    from quadrics.config import _SCOPE
    _, computed = _count_intersections(monkeypatch)
    _run(["check-config", _write(tmp_path, "cfg.json", TRIPLE_CONFIG)], tmp_path)
    assert _SCOPE.get() is None
    p, q = (parse_poly(c) for c in TRIPLE_CONFIG["components"][:2])
    key = next(k for k in computed if k[:2] == (p, q))
    intersection_points(p, q, precision=key[2])
    intersection_points(p, q, precision=key[2])
    assert computed[key] == 3


@pytest.mark.parametrize("config", [EXAMPLE_CONFIG, TRIPLE_CONFIG, SHARED_CONFIG],
                         ids=["example", "triple", "shared-component"])
@pytest.mark.parametrize("command", ["check-config", "lines", "square"])
def test_commands_without_a_scope_match_main(tmp_path, config, command):
    from quadrics import cli
    from quadrics.config import PrecisionConfig
    path = _write(tmp_path, "cfg.json", config)
    code, doc = _run([command, path], tmp_path)
    args = cli.build_parser().parse_args([command, path])
    args.precision = PrecisionConfig(args.precision_bits, args.precision_cap)
    report, direct_code = args.run(args, args.load(args))
    assert direct_code == code
    assert json.loads(json.dumps(report, default=str)) == doc["report"]


BEYOND_DOUBLE_CONFIG = {  # a coefficient no double can hold
    "family": [2, 1, 1, 1],
    "components": ["z0^2 + z1^2 - 3*z2^2", "10^400*z0 + z1 - z2", "z0 - z1", "z1 + 2*z2"],
}


def test_coefficient_beyond_a_double_exits_without_traceback(tmp_path):
    """Exact scalars enter the ball arithmetic through mpmath, so a
    coefficient of 10^400 gives a documented exit code and a valid report."""
    import jsonschema
    cfg = _write(tmp_path, "cfg.json", BEYOND_DOUBLE_CONFIG)
    code, out, err = _cli_process(["check-config", cfg])
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    assert doc["report"]["genericity"]["conditions"]["s4.2"]["verdict"] == "pass"


def test_a_thousand_term_component_gives_the_verdict_of_its_short_form(tmp_path, capsys):
    """A sum of 1,000 copies of z0*z1 is valid input: the sum runs as a
    loop, so the verdict is that of 1000*z0*z1 - z2^2."""
    codes, reports = [], []
    for i, form in enumerate([" + ".join(["z0*z1"] * 1000) + " - z2^2", "1000*z0*z1 - z2^2"]):
        cfg = _write(tmp_path, f"cfg{i}.json", dict(EXAMPLE_CONFIG, components=(
            EXAMPLE_CONFIG["components"][:2] + [form])))
        code, doc = _run(["check-config", cfg], tmp_path, f"out{i}.json")
        codes.append(code)
        reports.append(doc["report"])
    assert codes[0] == codes[1] in (0, 1, 3)
    assert reports[0] == reports[1]
    assert "Traceback" not in capsys.readouterr().err


def test_deep_parentheses_exit_two(tmp_path, capsys):
    deep = "(" * 300 + "z0" + ")" * 300
    cfg = _write(tmp_path, "cfg.json", dict(EXAMPLE_CONFIG, components=(
        EXAMPLE_CONFIG["components"][:2] + [f"z1^2 - z2*{deep}"])))
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 2
    assert doc["report"]["error"] == (
        "parse error: parentheses nested deeper than 100 (at position 110)")
    assert "Traceback" not in capsys.readouterr().err


def test_a_high_power_exits_two_before_expanding(tmp_path, capsys):
    """A power past the degree bound is a parse error at its '^', so it
    costs no expansion (degree 100 took about a second, growing as d^4)."""
    form = "z1^2 - (z0 + 2*z1 + 3*z2)^400"
    cfg = _write(tmp_path, "cfg.json", dict(EXAMPLE_CONFIG, components=(
        EXAMPLE_CONFIG["components"][:2] + [form])))
    start = time.perf_counter()
    code, doc = _run(["check-config", cfg], tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert doc["report"]["error"] == (
        f"parse error: degree 400 above 64 (at position {form.index('^', 5)})")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("form, bad", [("z0 + 12\u00b2", "\u00b2"), ("z0 + \u0663*z1", "\u0663")])
def test_non_ascii_digits_exit_two_at_their_position(tmp_path, capsys, form, bad):
    cfg = _write(tmp_path, "cfg.json", {"family": [1], "components": [form]})
    code, doc = _run(["check-config", cfg], tmp_path)
    assert code == 2
    assert doc["report"]["error"] == (
        f"parse error: unexpected character {bad!r} (at position {form.index(bad)})")
    assert "Traceback" not in capsys.readouterr().err


def test_oversized_logspace_exits_two_before_allocating(tmp_path, monkeypatch, capsys):
    from quadrics import cli
    calls = []
    monkeypatch.setattr(cli.np, "logspace", lambda *a, **k: calls.append(a))
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", curve, "--radii", "logspace:1:2:100000000"], tmp_path)
    assert code == 2
    assert doc["report"]["error"] == (
        "parse error: at most 10000 radii, not 100000000: 'logspace:1:2:100000000'")
    assert calls == []
    assert "Traceback" not in capsys.readouterr().err


def test_main_builds_its_argument_parser_once(tmp_path, monkeypatch):
    """The parser is built on the first call of main, not at import, and
    reused: a parse leaves nothing on it for the next one."""
    from quadrics import cli
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert built == []
    curve = _write(tmp_path, "curve.json", LINE_CURVE)
    code, doc = _run(["nevanlinna", curve, "--divisor", "z1 - z0", "--radii", "2"], tmp_path)
    assert code == 0 and len(doc["report"]["counting"]) == 1
    code, doc = _run(["nevanlinna", curve, "--radii", "2"], tmp_path, "out2.json")
    assert code == 0 and "counting" not in doc["report"]
    assert built == [1]
    assert cli._parser().parse_args(["nevanlinna", curve]).divisor == []
