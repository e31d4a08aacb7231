"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.generate(workload, 7, 20)
    b = workloads.generate(workload, 7, 20)
    c = workloads.generate(workload, 8, 20)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(c)
    # the load per family, degree pair or job kind does not move with the seed
    assert workloads.strata(a) == workloads.strata(c)


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, "0000", False, note]


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("arrangements.intersection_points", 1.0, 6.0, 0, ("p", "q")),
        _span("polynomials.resultant", 2.0, 3.0, 1),
        _span("polynomials.resultant", 3.5, 4.0, 1),
        _span("squares.square_combination", 7.0, 9.0, 0),
        _span("linalg.rank", 7.5, 8.0, 4),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 1.5, 0.5])
    m = tracer.layer_metrics(spans, 12.0)
    assert m["polynomials.resultant.calls"] == 2
    assert m["polynomials.self_s"] == pytest.approx(1.5)
    assert m["polynomials.resultant.per_intersection"] == 2
    # the layers account for all traced time but the benchmark's own 2 s
    assert m["trace.bench_own_s"] == pytest.approx(2.0)


def test_corrupted_bezout_sum_is_an_error():
    from quadrics.arrangements import intersection_points
    from quadrics.polynomials import parse_poly
    item = {"kind": "pair", "degrees": [2, 2], "id": "0000",
            "coeffs": [[1, 0, 0, 1, 0, -1], [1, 2, 0, -1, 1, -3]]}
    p, q = (parse_poly(workloads.form_text(c, 2)) for c in item["coeffs"])
    records = intersection_points(p, q)
    assert oracles.check_item(item, [(0, records)], "src")[0] == oracles.OK
    records[0].multiplicity += 1
    status, detail, wrong = oracles.check_item(item, [(0, records)], "src")
    assert (status, wrong) == (oracles.ERROR, True)
    assert "Bezout" in detail
    res = {"statuses": {"0000": {"status": status}}, "wall_s": 1.0,
           "item_s": [1.0], "peak_rss_mb": 1.0}
    assert run.summarize(res)["error_frac"] == 1.0


def test_lines_closed_form_counts_zeros():
    # a = 1: zeros 2 pi i k with |k| <= 159 inside r = 1000
    T, n, N = oracles.lines_closed_form(1.0, 1000.0)
    assert n == 319
    assert T == pytest.approx(1000.0 / 3.141592653589793)
    assert N > 0


def test_benchmark_json_names_every_reported_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set(tracer.layer_metrics([], 1.0)) | {
        "trace.overhead_frac", "undecided_frac", "error_frac", "nevanlinna.zeros_found"}
    assert per_layer == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
