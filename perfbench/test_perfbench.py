"""Tests for the benchmark's own helpers (not for the system it measures)."""

from __future__ import annotations

import json
import math
import os

import pytest

from perfbench import metrics, spread, tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ self times
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    spans = tracer.Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0
        traced_inner()

    traced_inner = spans.span("inner", inner)
    spans.span("outer", outer)()
    clock.now += 5.0  # outside every span
    spans.span("inner", inner)()

    snapshot = spans.snapshot()
    assert snapshot["spans"]["outer"] == [1, 9.0, 3.0]
    assert snapshot["spans"]["inner"] == [3, 9.0, 9.0]
    # Top-level spans only: 9 (outer, including its children) + 3.
    assert snapshot["covered_s"] == 12.0
    window = clock.now
    layers = tracer.layer_metrics(
        {"spans": {}, "counters": {}, "covered_s": snapshot["covered_s"],
         "engines": []}, window, {"spans": {}})
    assert layers["other_s"] == pytest.approx(5.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    spans = tracer.Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        spans.span("boom", boom)()
    assert spans.snapshot()["spans"]["boom"] == [1, 2.0, 2.0]
    assert spans.snapshot()["covered_s"] == 2.0


def test_diff_snapshots_is_the_window_between_two_snapshots():
    clock = FakeClock()
    spans = tracer.Tracer(clock=clock)
    work = spans.span("work", lambda: setattr(clock, "now", clock.now + 1.5))
    work()
    spans.count("cpu.runs", 4)
    before = spans.snapshot()
    work()
    spans.count("cpu.runs", 2)
    window = tracer.diff_snapshots(spans.snapshot(), before)
    assert window["spans"]["work"] == [1, 1.5, 1.5]
    assert window["counters"]["cpu.runs"] == 2
    assert window["covered_s"] == 1.5


def test_layer_metrics_ratios_and_per_pass_scaling():
    window = {
        "spans": {"cpu.run": [10, 4.0, 3.0], "lofat.hash": [5, 1.0, 1.0]},
        "counters": {"cpu.runs": 10, "cpu.compiled_runs": 5,
                     "lofat.cf_events": 40, "lofat.pairs_hashed": 10},
        "covered_s": 5.0, "engines": [],
    }
    setup = {"spans": {"dataflow.analyze": [1, 0.5, 0.25]}}
    layers = tracer.layer_metrics(window, 6.0, setup, passes=2)
    assert layers["cpu.run_self_s"] == 1.5
    assert layers["lofat.hash_s"] == 0.5
    assert layers["cpu.runs"] == 5
    assert layers["cpu.compiled_frac"] == 0.5
    assert layers["lofat.compression_ratio"] == 0.25
    assert layers["service.db_hit_rate"] == 0.0  # no lookups: no division
    assert layers["dataflow.analyze_s"] == 0.25  # set-up, not per pass
    assert layers["other_s"] == 0.5
    assert layers["trace.window_s"] == 3.0
    named = set(layers) | {"cpu.plan_compiles", "service.dedup_rate",
                           "service.replay_cache_hit_rate", "server.cpu_frac",
                           "loadgen.cpu_frac", "trace.overhead_frac"}
    assert named == set(metrics.PER_LAYER)


# ------------------------------------------------------ percentile rule
def test_p99_needs_ten_samples_beyond_it():
    thousand = [float(v) for v in range(1, 1001)]
    assert metrics.tail_quantile(thousand, 0.99) == 990.0
    assert metrics.tail_quantile(thousand[:999], 0.99) is None
    assert metrics.tail_quantile([1.0] * 5000, 0.99) is None  # all ties
    assert metrics.tail_quantile([], 0.5) is None
    assert metrics.tail_quantile([1.0, 2.0, 3.0], 0.5, min_beyond=1) == 2.0


def test_windowed_quantile_is_a_median_over_windows():
    steady = [float(v) for v in range(1, 1001)]
    burst = [v * 10 for v in steady]
    assert metrics.windowed_quantile([steady, steady, burst], 0.99) == 990.0
    # One window too small for its p99: nothing is reported.
    assert metrics.windowed_quantile([steady, steady[:500]], 0.99) is None
    assert metrics.windowed_quantile([], 0.5) is None
    assert metrics.windowed_quantile([[1.0, 2.0, 3.0]], 0.5, 0) == 2.0


def test_group_samples_keeps_order_and_folds_the_remainder():
    chunks = [[1.0] * 300, [2.0] * 300, [3.0] * 300, [4.0] * 300, [5.0] * 100]
    groups = metrics.group_samples(chunks, 500)
    assert [len(g) for g in groups] == [600, 700]
    assert groups[1][-1] == 5.0
    assert metrics.group_samples([[1.0]], 500) == [[1.0]]


def test_nearest_rank_and_median():
    assert metrics.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert metrics.nearest_rank([5.0], 0.99) == 5.0
    assert metrics.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# ---------------------------------------------------------- failed_frac
def test_outcomes_count_wrong_verdicts_and_errors():
    outcomes = metrics.Outcomes()
    assert outcomes.failed_frac == 0.0
    assert outcomes.record("accepted", "accepted")
    assert not outcomes.record("nonce_reused", "accepted", "round 7")
    assert not outcomes.record("accepted", None, "ERROR frame")
    assert outcomes.record("bad_signature", "bad_signature")
    assert (outcomes.attempted, outcomes.failed) == (4, 2)
    assert outcomes.failed_frac == 0.5
    assert outcomes.failures == [
        "expected nonce_reused, got accepted (round 7)",
        "expected accepted, got an error (ERROR frame)",
    ]
    total = metrics.Outcomes()
    total.record("accepted", "accepted")
    total.merge(outcomes)
    assert (total.attempted, total.failed) == (5, 2)


# --------------------------------------------------------- metric names
@pytest.mark.parametrize("name", ["setup_s", "cpu.run_self_s", "p-99",
                                  "verdicts.bad_signature", "A1"])
def test_valid_metric_names(name):
    assert metrics.validate_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "a/b", ".hidden",
                                  "_x", "x" * 65, "ümlaut", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        metrics.validate_name(name)


def test_result_line_shape_and_validation():
    line = metrics.result_line(True, 3, 0, {"setup_s": (1.25, "s")})
    assert json.loads(line) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}
    with pytest.raises(ValueError):
        metrics.result_line(True, 0, 0, {})
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, {"bad name": (1.0, "s")})
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, {"x": (math.nan, "s")})


def test_spread_is_interquartile_range_over_median():
    (middle, share), = spread.spreads({"m": [1.0, 2.0, 3.0, 4.0, 5.0]}).values()
    assert middle == 3.0
    assert share == pytest.approx((4.5 - 1.5) / 3.0)


# -------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        name: metrics.workload_why(name) for name in metrics.WORKLOADS}
    for workload in benchmark["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in benchmark["end_to_end"]} == {
        name: (unit, better, bound)
        for name, (unit, better, bound, _) in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in benchmark["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _) in metrics.PER_LAYER.items()}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        metrics.validate_name(metric["name"])
    assert max(m["bound"] for m in benchmark["end_to_end"]) == \
        metrics.END_TO_END["setup_s"][2]


# ------------------------------------------------------------- wrappers
def test_tracing_keeps_measurements_and_engine_and_uninstalls():
    from repro.attestation import crypto
    from repro.cpu.core import Cpu, CpuConfig
    from repro.schemes import get_scheme
    from repro.workloads import get_workload

    program = get_workload("crc32").build()
    config = CpuConfig(engine="compiled", collect_trace=False)
    scheme = get_scheme("lofat")
    original_run = Cpu.__dict__["run"]
    original_sign = crypto.sign_report

    def measure():
        cpu = Cpu(program, inputs=get_workload("crc32").inputs, config=config)
        session = scheme.open_session(program)
        cpu.attach_monitor(session.observe)
        cpu.run()
        measured = session.finalize()
        return cpu.engine_used, measured.measurement, measured.metadata_bytes

    untraced = measure()
    spans = tracer.Tracer()
    patcher = tracer.install(spans)
    try:
        assert Cpu.__dict__["run"] is not original_run
        traced = measure()
    finally:
        patcher.uninstall()
    assert traced == untraced
    assert untraced[0] == "compiled"
    snapshot = spans.snapshot()
    assert snapshot["engines"] == ["compiled"]
    assert snapshot["counters"]["cpu.runs"] == 1
    assert snapshot["counters"]["lofat.pairs_hashed"] > 0
    assert snapshot["spans"]["lofat.branch_filter"][0] > 0
    assert Cpu.__dict__["run"] is original_run
    assert crypto.sign_report is original_sign
