"""Tests for the analysis drivers (performance comparison, sweeps, tables)."""

import pytest

from repro.analysis.performance import compare_all_workloads, compare_workload
from repro.analysis.report import format_percent, format_table
from repro.analysis.sweep import (
    area_sweep,
    buffer_depth_sweep,
    granularity_sweep,
    hash_density_sweep,
)
from repro.schemes.cflat import CFlatCostModel
from repro.workloads import get_workload


class TestFormatTable:
    def test_basic_rendering(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_column_selection_and_title(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"], title="T")
        assert text.splitlines()[0] == "T"
        assert "b" not in text.splitlines()[1]

    def test_missing_values_render_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert text  # must not raise

    def test_float_formatting(self):
        text = format_table([{"x": 1.23456}])
        assert "1.235" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_format_percent(self):
        assert format_percent(0.0423) == "4.2%"


class TestWorkloadComparison:
    def test_lofat_has_zero_overhead(self):
        comparison = compare_workload(get_workload("figure4_loop"))
        assert comparison.lofat_overhead == 0.0
        assert comparison.lofat_cycles == comparison.baseline_cycles

    def test_cflat_overhead_positive_and_linear_in_events(self):
        cost = CFlatCostModel()
        comparison = compare_workload(get_workload("crc32"), cflat_cost=cost)
        expected = cost.per_event_cycles * comparison.control_flow_events
        assert comparison.cflat_cycles - comparison.baseline_cycles == expected
        assert comparison.cflat_overhead > 0

    def test_loop_event_discount_lowers_cflat_cycles(self):
        # crc32 is loop-heavy: its backward transfers are the discounted
        # events, so skipping their hash updates must show in E1's column.
        workload = get_workload("crc32")
        full = compare_workload(workload)
        discounted = compare_workload(
            workload, cflat_cost=CFlatCostModel(loop_event_discount=1.0))
        assert discounted.baseline_cycles == full.baseline_cycles
        assert discounted.cflat_cycles < full.cflat_cycles

    def test_row_structure(self):
        row = compare_workload(get_workload("auth_check")).as_row()
        for key in ("workload", "cycles", "cf_events", "lofat_overhead_%",
                    "cflat_overhead_%", "compression"):
            assert key in row

    def test_compare_all(self):
        comparisons = compare_all_workloads(
            [get_workload("auth_check"), get_workload("figure4_loop")])
        assert len(comparisons) == 2
        assert all(c.lofat_overhead == 0.0 for c in comparisons)

    def test_compression_ratio_bounds(self):
        comparison = compare_workload(get_workload("crc32"))
        assert 0.0 < comparison.compression_ratio <= 1.0

    def test_event_density(self):
        comparison = compare_workload(get_workload("figure4_loop"))
        assert 0.0 < comparison.event_density < 1.0


class TestSweeps:
    def test_area_sweep_contains_paper_point(self):
        rows = area_sweep(nesting_depths=(3,), path_bits=(16,))
        assert rows[0]["bram36"] == 49
        assert rows[0]["nested_loops"] == 3

    def test_area_sweep_monotone_in_depth(self):
        rows = area_sweep(nesting_depths=(1, 2, 3), path_bits=(16,))
        brams = [row["bram36"] for row in rows]
        assert brams == sorted(brams)

    def test_buffer_depth_sweep_reports_drops_only_for_tiny_buffers(self):
        rows = buffer_depth_sweep([get_workload("crc32")], buffer_depths=(1, 8))
        by_depth = {row["buffer_depth"]: row for row in rows}
        assert by_depth[8]["dropped_pairs"] == 0
        assert by_depth[1]["max_occupancy"] <= 1

    def test_granularity_sweep_rows(self):
        rows = granularity_sweep(get_workload("dispatcher"),
                                 indirect_bits=(2, 4), max_branches=(8, 16))
        assert len(rows) == 4
        assert all("loop_mem_kbits" in row for row in rows)
        # Larger path IDs cost exponentially more memory.
        small = next(r for r in rows if r["path_bits"] == 8 and r["indirect_bits"] == 2)
        large = next(r for r in rows if r["path_bits"] == 16 and r["indirect_bits"] == 2)
        assert large["loop_mem_kbits"] > small["loop_mem_kbits"]

    def test_hash_density_sweep(self):
        rows = hash_density_sweep([get_workload("figure4_loop"), get_workload("crc32")])
        assert len(rows) == 2
        for row in rows:
            assert row["dropped"] == 0
            assert 0 < row["density"] < 1
