"""Tests for execution signatures and the content-addressed trace store."""

import os
from collections import Counter

import pytest

from repro.cpu.core import CpuConfig
from repro.cpu.tracefile import trace_digest
from repro.service import tracestore
from repro.service.tracestore import (
    CapturedExecution,
    TraceStore,
    TraceStoreError,
    cpu_config_digest,
    execution_signature,
    parsed_trace,
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
            cpu_config=CpuConfig(engine="legacy", collect_trace=True)) == base

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


def _figure4_blobs(count):
    """``count`` distinct serialised figure4_loop captures (1..count turns)."""
    blobs = []
    for turns in range(1, count + 1):
        signature = execution_signature("figure4_loop", (turns,), None)
        response = execute_capture_job(
            (signature, "figure4_loop", (turns,), None))
        blobs.append(response.trace_bytes)
    return blobs


def _same_size_blobs(count):
    """``count`` distinct, equally long v2 blobs: one capture whose u64
    instruction counter (bytes 11..19) is bumped per copy."""
    base = bytearray(_figure4_blobs(1)[0])
    blobs = []
    for bump in range(count):
        blob = bytearray(base)
        blob[11:19] = (int.from_bytes(base[11:19], "little") + bump).to_bytes(
            8, "little")
        blobs.append(bytes(blob))
    return blobs


class TestParsedTraceMemo:
    """The process-wide parsed-trace memo is an LRU bounded by blob bytes."""

    @pytest.fixture
    def memo(self):
        memo = tracestore._PARSED_TRACES
        memo.clear()
        yield memo
        memo.clear()

    def test_overfilling_evicts_one_lru_entry_at_a_time(self, memo,
                                                        monkeypatch):
        blobs = _same_size_blobs(7)
        digests = [trace_digest(blob) for blob in blobs]
        monkeypatch.setattr(memo, "budget", 4 * len(blobs[0]))
        for blob in blobs[:4]:
            parsed_trace(blob)
        assert len(memo) == 4
        parsed_trace(blobs[0])  # touch: blob 1 is now least recently used
        for position, resident in ((4, {0, 2, 3, 4}), (5, {0, 3, 4, 5}),
                                   (6, {0, 4, 5, 6})):
            parsed_trace(blobs[position])
            assert {index for index, digest in enumerate(digests)
                    if digest in memo} == resident
        assert memo.resident_cost == 4 * len(blobs[0])

    def test_never_emptied_by_an_oversized_entry(self, memo, monkeypatch):
        blobs = _figure4_blobs(2)
        monkeypatch.setattr(memo, "budget", 1)
        for blob in blobs:
            trace = parsed_trace(blob)
            assert len(memo) == 1 and trace_digest(blob) in memo
            assert parsed_trace(blob) is trace

    def test_clear_empties_it(self, memo):
        parsed_trace(_figure4_blobs(1)[0])
        memo.clear()
        assert len(memo) == 0 and memo.resident_cost == 0

    def test_concurrent_use_keeps_the_byte_count(self, memo, monkeypatch):
        """Threads hitting and evicting concurrently (the server replays on
        executor threads) never lose an update to the byte count."""
        import sys
        import threading

        blobs = _same_size_blobs(6)
        size = len(blobs[0])
        monkeypatch.setattr(memo, "budget", 3 * size)
        calls, builds, evictions = (
            memo.hits + memo.misses, memo.builds, memo.evictions)
        failures = []

        def hammer(offset):
            try:
                for step in range(300):
                    blob = blobs[(offset + step * 5) % len(blobs)]
                    assert parsed_trace(blob) is not None
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert memo.resident_cost == len(memo) * size <= 3 * size
        # Counters are updated under the lock too: every call is counted
        # once, and every built entry is either resident or evicted.
        assert memo.hits + memo.misses - calls == 4 * 300
        assert memo.builds - builds == len(memo) + memo.evictions - evictions

    def test_capture_campaign_parses_each_unique_trace_once(self, memo,
                                                            monkeypatch):
        """More unique traces than the old 128-entry memo held: each one is
        still parsed exactly once across prover replays and references."""
        from repro.service.campaign import CampaignSpec, WorkloadSelection
        from repro.service.database import MeasurementDatabase
        from repro.service.runner import CampaignRunner
        from repro.service.worker import clear_replay_cache

        parses = Counter()
        real_loads = tracestore.loads_trace

        def counting_loads(data):
            parses[trace_digest(data)] += 1
            return real_loads(data)

        monkeypatch.setattr(tracestore, "loads_trace", counting_loads)
        clear_replay_cache()
        spec = CampaignSpec(
            name="memo",
            workloads=[WorkloadSelection(
                "figure4_loop", [[turns] for turns in range(1, 141)])],
            schemes=["lofat", "cflat"],
        )
        result = CampaignRunner(
            database=MeasurementDatabase(), trace_store=TraceStore(),
        ).run(spec, workers=1, pipeline="capture")
        clear_replay_cache()
        assert all(job.ok for job in result.results)
        assert len(parses) == 140
        assert set(parses.values()) == {1}
