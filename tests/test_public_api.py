"""Tests for the package-level public API."""

import pytest

import repro
from repro import attest_workload, all_workloads
from repro.lofat import LoFatConfig


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_attest_workload_defaults(self):
        result, measurement = attest_workload("figure4_loop")
        assert result.exit_code == 0
        assert len(measurement.measurement) == 64
        assert len(measurement.metadata) == 1

    def test_attest_workload_with_custom_inputs(self):
        from repro.workloads.figure4 import reference_output

        result, _ = attest_workload("figure4_loop", inputs=[3])
        assert result.output == reference_output([3])
        result2, _ = attest_workload("figure4_loop", inputs=[5])
        assert result2.output == reference_output([5])
        assert result.output != result2.output

    def test_attest_workload_with_custom_config(self):
        _, plain = attest_workload("crc32")
        _, untracked = attest_workload("crc32", config=LoFatConfig(max_nested_loops=0))
        assert untracked.stats["pairs_hashed"] > plain.stats["pairs_hashed"]
        assert len(untracked.metadata) == 0

    def test_attest_workload_unknown_name(self):
        with pytest.raises(KeyError):
            attest_workload("does-not-exist")

    def test_all_workloads_count(self):
        assert len(all_workloads()) >= 14
