"""Tests of the benchmark's own helpers: python3 -m pytest bench"""
import json
import time
from pathlib import Path

import pytest

import run


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def _result(exit_code=0, wall_s=1.0, stderr="", wrong=None, kind="verify"):
    return run.Result(kind, [], exit_code, wall_s, 0, "", stderr, wrong=wrong)


def test_self_time_subtracts_covered_child_time_once():
    parent = _span("cli", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0), _span("b", 2.0, 5.0), _span("c", 8.0, 12.0)]
    # [1, 5] and [8, 10] are covered; overlap and the part past the end count once
    assert run.self_time(parent, children) == pytest.approx(4.0)
    assert run.self_time(parent, []) == pytest.approx(10.0)


def test_failure_ranks_slower_than_every_success():
    results = [_result(wall_s=w) for w in (1.0, 2.0, 3.0)] + [_result(exit_code=1, wall_s=0.1)]
    assert run.ranked_median(results) == pytest.approx(2.5)
    # the failure turning into a slow success leaves the median where it was
    fixed = results[:3] + [_result(wall_s=100.0)]
    assert run.ranked_median(fixed) == run.ranked_median(results)


def test_failed_frac_counts_exit_traceback_and_wrong_output():
    results = [
        _result(),
        _result(exit_code=3),
        _result(stderr="Traceback (most recent call last):\n"),
        _result(wrong="F(2,1) off"),
    ]
    assert run.failed_frac(results) == pytest.approx(0.75)


def test_nonzero_exit_of_a_real_cli_process_counts_as_failed(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    op = run.Op("verify", ["verify", "--case", "9,9", "--p", "0.5"], lambda res: None)
    res = runner.run(op, traced=False)
    assert res.exit_code == 2 and res.failed and res.wrong is None
    assert run.failed_frac([res, _result()]) == pytest.approx(0.5)


def test_layer_metrics_from_spans():
    spans = [
        _span("cli", 0.0, 10.0),
        _span("sdp.covariant", 1.0, 2.0, 0, iterations=7, status="optimal", gap=1e-10,
              value=0.75, blocks=5, rows=3, dim=2, certificate=True),
        _span("bench.certificate", 2.0, 2.5, 0),
        _span("oracle.solve_choi", 3.0, 6.0, 0, value=0.75 + 2e-9),
        _span("sdp.choi", 3.5, 5.5, 3, iterations=11, status="optimal", gap=1e-9,
              value=0.75, blocks=1, rows=40, dim=16, certificate=False),
    ]
    res = _result()
    res.spans, res.counters = spans, {"angular.cg_twice.calls": 42}
    m = run.layer_metrics([res])
    assert m["cli.self_s"] == pytest.approx(10.0 - 1.0 - 0.5 - 3.0)
    assert m["oracle.solve_choi.self_s"] == pytest.approx(1.0)
    assert m["sdp.covariant.s_per_iteration"] == pytest.approx(1.0 / 7)
    assert m["sdp.choi.iterations"] == 11 and m["oracle.choi_dim_max"] == 16
    assert m["sdp.certificate_fail"] == 1 and m["angular.cg_twice.calls"] == 42
    assert m["oracle.max_abs_diff"] == pytest.approx(2e-9)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.E2E_KIND)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in run.LAYER_METRICS
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "op_s"]


def test_inputs_repeat_for_a_seed_and_spread_over_p(tmp_path):
    ops = [run.workload_pass("validate", 5, k, False, tmp_path, 2) for k in range(4)]
    again = run.workload_pass("validate", 5, 0, True, tmp_path, 2)
    assert [op.argv[:5] for op in ops[0]] == [op.argv[:5] for op in again]
    ps = sorted(float(pass_ops[0].argv[-1]) for pass_ops in ops)
    assert 0.05 <= ps[0] and ps[-1] <= 0.95 and ps[-1] - ps[0] > 0.4


def test_traced_cli_records_a_span_per_layer_call(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    op = run.Op("verify", ["verify", "--case", "2,1", "--p", "0.5"], lambda res: None)
    res = runner.run(op, traced=True)
    assert res.exit_code == 0, res.stderr
    names = [s["name"] for s in res.spans]
    assert names[0] == "cli" and res.spans[0]["parent"] is None
    for layer in ("objective.build_objective", "objective.assemble", "sdp.covariant",
                  "oracle.build_omega", "oracle.twirl_objective", "oracle.solve_choi", "sdp.choi"):
        assert layer in names
    choi = res.spans[names.index("sdp.choi")]
    assert res.spans[choi["parent"]]["name"] == "oracle.solve_choi"
    m = run.layer_metrics([res])
    assert m["sdp.covariant.calls"] == 1 and m["sdp.certificate_fail"] == 0
    assert m["angular.cg_twice.calls"] > 0 and m["oracle.max_abs_diff"] < 1e-5
