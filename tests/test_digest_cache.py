"""The one process cache mechanism (:mod:`repro.cache`) and its users.

Covers the :class:`DigestCache` contract that the eviction and single-flight
tests of the individual caches (``test_compiled_engine.py``,
``test_trace_store.py``, ``test_decode_cache_regression.py``) do not: waiters
released by a failed build, a clear racing a build, the counters and the
registry.  Then pins the three names ``perfbench`` reaches into, and the
bound on the prover's stage-2 replay memo.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.cache import DigestCache, clear_caches
from repro.cpu.compile import COMPILE_CACHE
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.tracefile import trace_digest
from repro.dataflow import analyze_program
from repro.service import tracestore, worker
from repro.service.campaign import CampaignJob
from repro.service.tracestore import CapturedExecution, parsed_trace
from repro.service.worker import (
    clear_replay_cache,
    execute_attest_job,
    execute_capture_job,
)
from repro.workloads import get_workload


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestDigestCache:
    def test_counts_hits_misses_builds_and_evictions(self):
        cache = DigestCache(budget=2)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1
        cache.get_or_build("b", lambda: 3)
        cache.get_or_build("c", lambda: 4)
        assert (cache.hits, cache.misses, cache.builds, cache.evictions) == (
            1, 3, 3, 1)
        assert "a" not in cache and len(cache) == 2

    def test_cost_counts_against_the_budget(self):
        cache = DigestCache(budget=10)
        cache.get_or_build("a", lambda: "a", cost=4)
        cache.get_or_build("b", lambda: "b", cost=4)
        assert cache.resident_cost == 8
        cache.get_or_build("c", lambda: "c", cost=4)
        assert "a" not in cache and cache.resident_cost == 8
        cache.get_or_build("huge", lambda: "huge", cost=100)
        # The newest entry is never evicted, even over budget on its own.
        assert list(cache._entries) == ["huge"]
        assert cache.resident_cost == 100

    def test_failed_build_releases_waiting_callers(self):
        """Callers waiting on a build that raises wake up and retry: one of
        them builds, the others read its value, nothing is left in flight."""
        cache = DigestCache(budget=4)
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def build():
            calls.append(threading.get_ident())
            if len(calls) == 1:
                entered.set()
                release.wait(timeout=10)
                raise RuntimeError("synthetic build failure")
            return "built"

        outcomes = [None] * 4

        def caller(slot):
            try:
                outcomes[slot] = cache.get_or_build("key", build)
            except RuntimeError as exc:
                outcomes[slot] = exc

        threads = [threading.Thread(target=caller, args=(slot,), daemon=True)
                   for slot in range(len(outcomes))]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=10)
        _wait_until(lambda: cache.misses == len(threads))  # all are waiting
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

        failures = [o for o in outcomes if isinstance(o, RuntimeError)]
        assert len(failures) == 1
        assert outcomes.count("built") == len(threads) - 1
        assert len(calls) == 2 and cache.builds == 1
        assert not cache._building
        assert cache.get_or_build("key", build) == "built"

    def test_clear_during_a_build_discards_its_value(self):
        """A build that started before a clear describes what the clear
        dropped: its caller gets the value, the cache does not keep it."""
        cache = DigestCache(budget=4)
        entered = threading.Event()
        release = threading.Event()
        results = []

        def build():
            entered.set()
            release.wait(timeout=10)
            return "stale"

        thread = threading.Thread(
            target=lambda: results.append(cache.get_or_build("key", build)),
            daemon=True)
        thread.start()
        assert entered.wait(timeout=10)
        cache.clear()
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results == ["stale"]
        assert "key" not in cache
        assert cache.get_or_build("key", lambda: "fresh") == "fresh"

    def test_clear_caches_clears_every_live_instance(self):
        first, second = DigestCache(budget=4), DigestCache(budget=4)
        first.get_or_build("a", lambda: 1)
        second.get_or_build("b", lambda: 2)
        clear_caches()
        assert len(first) == 0 and len(second) == 0
        assert first.builds == 1  # counters survive a clear

    def test_registry_does_not_keep_caches_alive(self):
        from repro.cache import _CACHES

        cache = DigestCache(budget=1)
        assert cache in _CACHES
        ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert ref() is None


def _capture(blob: bytes) -> CapturedExecution:
    return CapturedExecution(
        signature="sig", trace_digest=trace_digest(blob), trace_bytes=blob,
        exit_code=0, output="", instructions=0, cycles=0)


def _same_size_blobs(count):
    """``count`` distinct, equally long figure4_loop traces: one capture
    whose u64 instruction counter (bytes 11..19) is bumped per copy."""
    base = bytearray(execute_capture_job(
        ("sig", "figure4_loop", (1,), None)).trace_bytes)
    start = int.from_bytes(base[11:19], "little")
    blobs = []
    for bump in range(count):
        blob = bytearray(base)
        blob[11:19] = (start + bump).to_bytes(8, "little")
        blobs.append(bytes(blob))
    return blobs


def _job():
    return CampaignJob(job_id="figure4_loop/lofat", workload="figure4_loop",
                       inputs=(1,), attack=None, scheme="lofat")


class TestBenchmarkNames:
    """``perfbench`` clears and reads these names between passes; a rename
    would leave a cache warm across passes without any error."""

    def test_parsed_traces_clear_empties_the_memo(self, monkeypatch):
        parses = []
        real_loads = tracestore.loads_trace
        monkeypatch.setattr(
            tracestore, "loads_trace",
            lambda data: parses.append(1) or real_loads(data))
        blob = _same_size_blobs(1)[0]
        tracestore._PARSED_TRACES.clear()
        parsed_trace(blob)
        parsed_trace(blob)
        assert trace_digest(blob) in tracestore._PARSED_TRACES
        assert len(parses) == 1
        tracestore._PARSED_TRACES.clear()
        assert len(tracestore._PARSED_TRACES) == 0
        parsed_trace(blob)
        assert len(parses) == 2

    def test_clear_replay_cache_leaves_plans_and_analyses_warm(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        config = CpuConfig()
        Cpu(program, inputs=list(workload.inputs), config=config).run()
        plan = COMPILE_CACHE.plan_for(program, config)
        analysis = analyze_program(program)
        capture = _capture(_same_size_blobs(1)[0])
        execute_attest_job((_job(), b"\x01" * 32, capture))
        assert len(worker._REPLAY_CACHE) >= 1

        compiles = COMPILE_CACHE.compiles
        clear_replay_cache()
        assert len(worker._REPLAY_CACHE) == 0
        assert COMPILE_CACHE.plan_for(program, config) is plan
        assert analyze_program(program) is analysis
        assert COMPILE_CACHE.compiles == compiles
        again = execute_attest_job((_job(), b"\x02" * 32, capture))
        assert (again.replay_cache_hits, again.replay_cache_misses) == (0, 1)

    def test_compiles_counts_one_per_plan_build(self):
        loop = get_workload("figure4_loop").build()
        pump = get_workload("syringe_pump").build()
        COMPILE_CACHE.clear()
        before = COMPILE_CACHE.compiles
        COMPILE_CACHE.plan_for(loop, CpuConfig())
        assert COMPILE_CACHE.compiles == before + 1
        COMPILE_CACHE.plan_for(loop, CpuConfig())
        assert COMPILE_CACHE.compiles == before + 1
        COMPILE_CACHE.plan_for(pump, CpuConfig())
        COMPILE_CACHE.plan_for(loop, CpuConfig(load_latency=3))
        assert COMPILE_CACHE.compiles == before + 3


class TestReplayMemoBound:
    @pytest.fixture(autouse=True)
    def _cold(self):
        clear_replay_cache()
        yield
        clear_replay_cache()

    def test_replaying_past_the_budget_stays_bounded(self):
        """A long-lived prover replaying ever new traces keeps at most the
        budget resident, and every response reports its own hit or miss."""
        cache = worker._REPLAY_CACHE
        blobs = _same_size_blobs(cache.budget + 8)
        job = _job()
        for index, blob in enumerate(blobs):
            response = execute_attest_job(
                (job, index.to_bytes(32, "little"), _capture(blob)))
            assert (response.replay_cache_hits,
                    response.replay_cache_misses) == (0, 1)
            assert len(cache) <= cache.budget
        assert len(cache) == cache.budget

        newest = execute_attest_job((job, b"\x03" * 32, _capture(blobs[-1])))
        assert (newest.replay_cache_hits, newest.replay_cache_misses) == (1, 0)
        oldest = execute_attest_job((job, b"\x04" * 32, _capture(blobs[0])))
        assert (oldest.replay_cache_hits, oldest.replay_cache_misses) == (0, 1)
        assert oldest.report.to_bytes() != newest.report.to_bytes()
