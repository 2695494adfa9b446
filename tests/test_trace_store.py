"""Tests for execution signatures and the content-addressed trace store."""

import os

import pytest

from repro.cpu.core import CpuConfig
from repro.service.tracestore import (
    CapturedExecution,
    TraceStore,
    TraceStoreError,
    cpu_config_digest,
    execution_signature,
    workload_build_signature,
)
from repro.service.worker import execute_capture_job
from repro.workloads import get_workload


class TestExecutionSignature:
    def test_deterministic(self):
        a = execution_signature("figure4_loop", (5,), None)
        b = execution_signature("figure4_loop", (5,), None)
        assert a == b

    def test_varies_with_inputs_attack_and_workload(self):
        base = execution_signature("figure4_loop", (5,), None)
        assert execution_signature("figure4_loop", (6,), None) != base
        assert execution_signature("figure4_loop", (5,), "loop_counter_corruption") != base
        assert execution_signature("crc32", (5,), None) != base

    def test_varies_with_cpu_config(self):
        base = execution_signature("figure4_loop", (5,), None)
        other = execution_signature(
            "figure4_loop", (5,), None,
            cpu_config=CpuConfig(div_latency=99))
        assert other != base

    def test_scheme_and_pipeline_independent(self):
        """The signature ignores fields that cannot change the execution."""
        base = execution_signature("figure4_loop", (5,), None)
        assert execution_signature(
            "figure4_loop", (5,), None,
            cpu_config=CpuConfig(engine="legacy", collect_trace=True,
                                 monitor_batch_size=7)) == base

    def test_cpu_config_digest_ignores_pipeline_fields(self):
        assert cpu_config_digest(CpuConfig()) == \
               cpu_config_digest(CpuConfig(engine="legacy"))
        assert cpu_config_digest(CpuConfig()) != \
               cpu_config_digest(CpuConfig(load_latency=3))

    def test_persisted_keys_pinned(self):
        """Stored captures and measurement-database entries are keyed by
        these digests: adding, removing or renaming a CpuConfig field that
        cannot change the execution must leave them byte-for-byte alone."""
        from repro.schemes import get_scheme

        assert cpu_config_digest(CpuConfig()) == (
            "3eaba42a9f52c4c4ac4536e2b3431b9e62082eee3726703845ed828ee2105c33")
        assert execution_signature("figure4_loop", (5,), None) == (
            "920266858c31269e209806b9358d011444c7354b70efd07361879a3a4cfd68d8")
        assert execution_signature(
            "figure4_loop", (5,), None,
            cpu_config=CpuConfig(div_latency=99)) == (
            "b936556ef4824d9e11d7fbc4ef463a9d809936b3c9543cc271f721d9db0eba06")
        assert get_scheme("lofat").config_digest() == (
            "646a09335554f367243180dd0d61aff85ddf891e5a8172c57bcc01c459141f74")

    def test_varies_with_build_signature(self):
        workload = get_workload("figure4_loop")
        build = workload_build_signature(workload)
        assert execution_signature(
            "figure4_loop", (5,), None, build_signature=build
        ) == execution_signature("figure4_loop", (5,), None)
        assert execution_signature(
            "figure4_loop", (5,), None, build_signature="deadbeef"
        ) != execution_signature("figure4_loop", (5,), None)


def _capture(signature="sig", workload="figure4_loop", inputs=(5,)):
    return execute_capture_job((signature, workload, inputs, None))


class TestMemoryStore:
    def test_put_get_roundtrip(self):
        store = TraceStore()
        response = _capture()
        store.put_bytes("sig", response.trace_bytes,
                        exit_code=response.exit_code, output=response.output,
                        instructions=response.instructions,
                        cycles=response.cycles)
        assert "sig" in store
        assert len(store) == 1
        capture = store.get("sig")
        assert isinstance(capture, CapturedExecution)
        assert capture.trace_bytes == response.trace_bytes
        assert capture.trace_digest == response.trace_digest
        assert capture.instructions == response.instructions
        assert len(capture.trace()) == response.instructions

    def test_miss_returns_none_and_counts(self):
        store = TraceStore()
        assert store.get("missing") is None
        assert store.counters() == (0, 1)

    def test_content_addressing_shares_blobs(self):
        store = TraceStore()
        response = _capture()
        store.put_bytes("sig-a", response.trace_bytes, 0, "", 1, 1)
        store.put_bytes("sig-b", response.trace_bytes, 0, "", 1, 1)
        assert len(store) == 2
        assert store.unique_traces == 1


class TestDiskStore:
    def test_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "traces")
        store = TraceStore(directory=directory)
        response = _capture()
        store.put_bytes("sig", response.trace_bytes,
                        exit_code=7, output="out",
                        instructions=response.instructions,
                        cycles=response.cycles)

        reopened = TraceStore(directory=directory)
        assert "sig" in reopened
        capture = reopened.get("sig")
        assert capture.trace_bytes == response.trace_bytes
        assert capture.exit_code == 7
        assert capture.output == "out"

    def test_blob_files_are_content_addressed(self, tmp_path):
        directory = str(tmp_path / "traces")
        store = TraceStore(directory=directory)
        response = _capture()
        store.put_bytes("sig", response.trace_bytes, 0, "", 1, 1)
        blob_path = os.path.join(directory, "blobs",
                                 response.trace_digest + ".lftr")
        assert os.path.exists(blob_path)

    def test_memory_spill_reloads_from_disk(self, tmp_path):
        directory = str(tmp_path / "traces")
        store = TraceStore(directory=directory, max_memory_blobs=1)
        first = _capture("a", inputs=(4,))
        second = _capture("b", inputs=(9,))
        store.put_bytes("a", first.trace_bytes, 0, "", 1, 1)
        store.put_bytes("b", second.trace_bytes, 0, "", 1, 1)
        assert store.stats()["memory_blobs"] == 1  # the first was evicted
        capture = store.get("a")  # reloaded from disk
        assert capture.trace_bytes == first.trace_bytes
        assert store.blob_loads == 1

    def test_corrupted_blob_is_detected(self, tmp_path):
        directory = str(tmp_path / "traces")
        store = TraceStore(directory=directory, max_memory_blobs=0)
        response = _capture()
        store.put_bytes("sig", response.trace_bytes, 0, "", 1, 1)
        blob_path = os.path.join(directory, "blobs",
                                 response.trace_digest + ".lftr")
        with open(blob_path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff")
        with pytest.raises(TraceStoreError):
            TraceStore(directory=directory).get("sig")

    def test_unsupported_index_version(self, tmp_path):
        directory = str(tmp_path / "traces")
        TraceStore(directory=directory)  # creates an empty index layout
        with open(os.path.join(directory, "index.json"), "w") as handle:
            handle.write('{"version": 99, "captures": {}}')
        with pytest.raises(TraceStoreError):
            TraceStore(directory=directory)


class TestAtomicIndex:
    """The signature index is written with the same temp-file + os.replace
    discipline as the measurement database: a killed capture run leaves the
    previous index, never a truncated one."""

    def test_index_survives_a_crash_during_replace(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "traces")
        store = TraceStore(directory=directory)
        first = _capture()
        store.put_bytes("sig-a", first.trace_bytes, 0, "", 1, 1)

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.put_bytes("sig-b", first.trace_bytes, 0, "", 1, 1)
        monkeypatch.undo()

        reopened = TraceStore(directory=directory)
        assert "sig-a" in reopened
        assert reopened.get("sig-a").trace_bytes == first.trace_bytes
        # No temp droppings next to the index.
        droppings = [name for name in os.listdir(directory)
                     if name.endswith(".tmp")]
        assert droppings == []
