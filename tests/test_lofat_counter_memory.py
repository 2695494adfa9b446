"""Unit tests for the path-indexed loop counter memory."""

import pytest

from repro.lofat.config import LoFatConfig
from repro.lofat.loop_counter_memory import LoopCounterMemory
from repro.lofat.path_encoder import PathEncoding


def enc(bits):
    """The counter-memory key of the path ``bits``."""
    return PathEncoding(bits=bits).path_id


class TestLoopCounterMemory:
    def test_first_occurrence_returns_true(self):
        memory = LoopCounterMemory()
        assert memory.record_path(enc("011")) is True

    def test_repeat_returns_false_and_increments(self):
        memory = LoopCounterMemory()
        memory.record_path(enc("011"))
        assert memory.record_path(enc("011")) is False
        assert memory.count_for(enc("011")) == 2

    def test_distinct_paths_tracked_separately(self):
        memory = LoopCounterMemory()
        memory.record_path(enc("011"))
        memory.record_path(enc("0011"))
        memory.record_path(enc("011"))
        assert memory.distinct_paths == 2
        assert memory.count_for(enc("011")) == 2
        assert memory.count_for(enc("0011")) == 1

    def test_first_seen_order_preserved(self):
        memory = LoopCounterMemory()
        for bits in ("0011", "011", "1", "011"):
            memory.record_path(enc(bits))
        assert [path_id for path_id, _ in memory.paths_in_first_seen_order()] == [
            enc("0011"), enc("011"), enc("1")]

    def test_total_iterations(self):
        memory = LoopCounterMemory()
        for bits in ("0", "1", "0", "0"):
            memory.record_path(enc(bits))
        assert memory.total_iterations == 4

    def test_counter_saturation(self):
        memory = LoopCounterMemory(LoFatConfig(counter_width_bits=2))
        for _ in range(10):
            memory.record_path(enc("1"))
        assert memory.count_for(enc("1")) == 3  # saturated at 2^2 - 1
        assert memory.saturations > 0

    def test_capacity_and_utilization(self):
        config = LoFatConfig(max_branches_per_path=8, max_indirect_branches_per_path=2)
        memory = LoopCounterMemory(config)
        assert memory.capacity == 256
        memory.record_path(enc("0"))
        memory.record_path(enc("1"))
        assert memory.utilization == pytest.approx(2 / 256)

    def test_paths_differing_only_in_leading_zeros_are_distinct(self):
        memory = LoopCounterMemory()
        memory.record_path(enc("011"))
        assert memory.record_path(enc("0011")) is True
        assert memory.record_path(enc("")) is True
        assert memory.distinct_paths == 3

    def test_unknown_path_count_is_zero(self):
        assert LoopCounterMemory().count_for(enc("1010")) == 0

    def test_clear(self):
        memory = LoopCounterMemory()
        memory.record_path(enc("01"))
        memory.clear()
        assert memory.distinct_paths == 0
        assert memory.total_iterations == 0
        assert memory.record_path(enc("01")) is True
