"""Compiled-program cache lifecycle: bounds, single-flight, every program.

The equivalence of the compiled engine itself is pinned in
``test_fastpath_equivalence.py``; this module covers the cache that makes
it cheap: plans are built once per (digest, cost key), concurrent builders
are single-flighted, every program gets a plan (unresolved indirect jumps
included), and the store stays bounded by evicting the least recently
used plan.
"""

import threading

import pytest

from repro.cpu import compile as compile_mod
from repro.cpu.compile import COMPILE_CACHE, CompiledProgramCache
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.workloads import get_workload


def _config(**overrides):
    return CpuConfig(collect_trace=False, **overrides)


@pytest.fixture
def cache():
    return CompiledProgramCache(budget=4)


class TestPlanReuse:
    def test_same_key_compiles_once(self, cache):
        program = get_workload("figure4_loop").build()
        first = cache.plan_for(program, _config())
        second = cache.plan_for(program, _config())
        assert first is not None
        assert second is first
        assert cache.compiles == 1

    def test_cost_key_separates_plans(self, cache):
        """Cycle costs are baked into the generated code as constants, so
        differing cost models must never share a plan."""
        program = get_workload("figure4_loop").build()
        base = cache.plan_for(program, _config())
        slow = cache.plan_for(program, _config(taken_branch_penalty=7))
        assert slow is not base
        assert cache.compiles == 2
        assert len(cache) == 2

    @pytest.mark.parametrize("workload_name", ["dispatcher", "state_machine"])
    def test_unresolved_indirect_program_compiles_once(self, cache,
                                                       workload_name):
        """An unresolved indirect jump no longer declines the program: it
        gets a cached plan, runs compiled, and matches the legacy oracle."""
        workload = get_workload(workload_name)
        program = workload.build()
        plan = cache.plan_for(program, _config())
        assert plan is not None
        assert cache.plan_for(program, _config()) is plan
        assert cache.compiles == 1

        def run(engine):
            cpu = Cpu(program, inputs=list(workload.inputs),
                      config=_config(engine=engine))
            capture = ControlFlowTrace()
            cpu.attach_monitor(capture.observe)
            result = cpu.run()
            return cpu.engine_used, (result.registers, result.cycles,
                                     result.output, capture.summary())

        engine_used, compiled = run("compiled")
        assert engine_used == "compiled"
        assert compiled == run("legacy")[1]

    def test_distinct_digests_get_distinct_plans(self, cache):
        loop = get_workload("figure4_loop").build()
        pump = get_workload("syringe_pump").build()
        assert cache.plan_for(loop, _config()) is not cache.plan_for(
            pump, _config())
        assert len(cache) == 2


class TestCacheBound:
    def test_lru_keeps_store_bounded(self, cache):
        program = get_workload("figure4_loop").build()
        keys = []
        for penalty in range(cache.budget):
            config = _config(taken_branch_penalty=penalty)
            cache.plan_for(program, config)
            keys.append((program.digest, cache.cost_key(config)))
        assert len(cache) == cache.budget
        cache.plan_for(program, _config(taken_branch_penalty=0))  # touch
        cache.plan_for(program, _config(taken_branch_penalty=99))
        # The insert over budget evicts only the least recently used plan.
        assert len(cache) == cache.budget
        assert keys[1] not in cache
        assert all(key in cache for key in keys[:1] + keys[2:])
        assert cache.compiles == cache.budget + 1
        assert cache.evictions == 1

    def test_clear_resets_plans_but_not_counter(self, cache):
        program = get_workload("figure4_loop").build()
        cache.plan_for(program, _config())
        cache.clear()
        assert len(cache) == 0
        cache.plan_for(program, _config())
        assert cache.compiles == 2


class TestSingleFlight:
    def test_concurrent_requests_compile_once(self, cache, monkeypatch):
        """N threads racing on one digest produce one build: the first
        becomes the builder, the rest wait on its event and read the
        shared plan."""
        program = get_workload("syringe_pump").build()
        real_build = compile_mod._build_plan
        entered = threading.Event()
        release = threading.Event()
        builds = []

        def slow_build(prog, costs):
            builds.append(threading.get_ident())
            entered.set()
            release.wait(timeout=10)
            return real_build(prog, costs)

        monkeypatch.setattr(compile_mod, "_build_plan", slow_build)

        plans = [None] * 6
        def worker(slot):
            plans[slot] = cache.plan_for(program, _config())

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(plans))]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=10)  # one builder is inside _build_plan
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

        assert len(builds) == 1
        assert cache.compiles == 1
        assert all(plan is plans[0] and plan is not None for plan in plans)

    def test_failed_build_releases_waiters(self, cache, monkeypatch):
        """A builder that raises must wake waiters and leave no stale
        in-flight entry, so the next request retries the build."""
        program = get_workload("figure4_loop").build()

        calls = []

        def exploding_build(prog, costs):
            calls.append(1)
            raise RuntimeError("synthetic compile failure")

        monkeypatch.setattr(compile_mod, "_build_plan", exploding_build)
        with pytest.raises(RuntimeError, match="synthetic compile failure"):
            cache.plan_for(program, _config())
        assert not cache._building  # no stale event left behind

        monkeypatch.undo()
        plan = cache.plan_for(program, _config())
        assert plan is not None
        assert len(calls) == 1


class TestProcessWideCache:
    def test_run_populates_shared_cache(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        config = CpuConfig(engine="compiled", collect_trace=False)
        key = (program.digest, CompiledProgramCache.cost_key(config))
        COMPILE_CACHE.clear()
        before = COMPILE_CACHE.compiles
        cpu = Cpu(program, inputs=list(workload.inputs), config=config)
        cpu.run()
        assert cpu.engine_used == "compiled"
        assert key in COMPILE_CACHE
        assert COMPILE_CACHE.compiles == before + 1
        # A second run on the same digest reuses the plan.
        Cpu(program, inputs=list(workload.inputs), config=config).run()
        assert COMPILE_CACHE.compiles == before + 1
