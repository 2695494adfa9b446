"""Tests for the campaign runner: fan-out, recombination, caching."""

import pytest

from repro.service import (
    CampaignRunner,
    CampaignSpec,
    ConfigVariant,
    MeasurementDatabase,
    WorkloadSelection,
    experiment_campaign,
)


@pytest.fixture
def small_spec():
    """A small but representative campaign: benign runs plus one attack."""
    return CampaignSpec(
        name="small",
        workloads=[
            WorkloadSelection("figure4_loop", input_sets=[[4], [8]]),
            WorkloadSelection("auth_check"),
        ],
        configs=[ConfigVariant(),
                 ConfigVariant("deep", {"max_nested_loops": 4})],
        attacks=["auth_flag_flip"],
    )


class TestSequentialExecution:
    def test_benign_accepted_attacks_rejected(self, small_spec):
        result = CampaignRunner().run(small_spec)
        assert result.ok
        benign = [r for r in result.results if not r.job.expects_detection]
        attacked = [r for r in result.results if r.job.expects_detection]
        assert benign and attacked
        assert all(r.accepted for r in benign)
        assert all(r.detected for r in attacked)

    def test_summary_shape(self, small_spec):
        result = CampaignRunner().run(small_spec)
        summary = result.summary()
        assert summary["jobs"] == len(small_spec.expand())
        assert summary["ok"] is True
        assert summary["attacks_detected"] == "2/2"
        assert summary["database"]["entries"] > 0
        assert result.jobs_per_second > 0

    def test_replay_mode_skips_database(self, small_spec):
        small_spec.verify_mode = "replay"
        database = MeasurementDatabase()
        result = CampaignRunner(database=database).run(small_spec)
        assert result.ok
        assert len(database) == 0
        assert all(r.cache_hit is None for r in result.results)

    def test_structural_mode(self):
        spec = CampaignSpec(name="structural",
                            workloads=[WorkloadSelection("figure4_loop")],
                            verify_mode="structural")
        result = CampaignRunner().run(spec)
        assert result.ok


class TestParallelExecution:
    def test_parallel_results_identical_to_sequential(self, small_spec):
        sequential = CampaignRunner().run(small_spec, workers=1)
        parallel = CampaignRunner().run(small_spec, workers=4)
        assert parallel.identities() == sequential.identities()
        assert parallel.workers == 4

    def test_parallel_full_attack_suite(self):
        spec = experiment_campaign("e5")
        sequential = CampaignRunner().run(spec, workers=1)
        parallel = CampaignRunner().run(spec, workers=2)
        assert parallel.identities() == sequential.identities()
        assert parallel.ok
        assert parallel.detected_count == 4

    def test_more_workers_than_jobs(self):
        spec = CampaignSpec(name="tiny",
                            workloads=[WorkloadSelection("figure4_loop")])
        result = CampaignRunner().run(spec, workers=16)
        assert result.ok
        assert len(result.results) == 1


class TestSchemeMatrixExecution:
    """One campaign sweeping all three schemes, end to end (the tentpole
    acceptance criterion)."""

    @pytest.fixture
    def matrix_spec(self):
        return CampaignSpec(
            name="matrix",
            workloads=[WorkloadSelection("figure4_loop"),
                       WorkloadSelection("auth_check")],
            schemes=["lofat", "cflat", "static"],
            attacks=["auth_flag_flip"],
        )

    def test_matrix_runs_end_to_end(self, matrix_spec):
        database = MeasurementDatabase()
        result = CampaignRunner(database=database).run(matrix_spec)
        assert result.ok
        by_scheme = {}
        for job_result in result.results:
            by_scheme.setdefault(job_result.job.scheme, []).append(job_result)
        assert set(by_scheme) == {"lofat", "cflat", "static"}
        # Control-flow schemes reject the attack; static accepts it (and
        # that acceptance is the expected outcome).
        for scheme in ("lofat", "cflat"):
            attacked = [r for r in by_scheme[scheme] if r.job.attack]
            assert attacked and all(r.detected and r.ok for r in attacked)
        static_attacked = [r for r in by_scheme["static"] if r.job.attack]
        assert static_attacked
        assert all(r.accepted and r.ok for r in static_attacked)
        # The measurement database holds scheme-separated references.
        assert len(database) > 0

    def test_matrix_parallel_identical_to_sequential(self, matrix_spec):
        sequential = CampaignRunner().run(matrix_spec, workers=1)
        parallel = CampaignRunner().run(matrix_spec, workers=4)
        assert parallel.identities() == sequential.identities()
        assert parallel.ok

    def test_matrix_replay_mode(self, matrix_spec):
        matrix_spec.verify_mode = "replay"
        assert CampaignRunner().run(matrix_spec).ok

    def test_e11_preset_runs(self):
        result = CampaignRunner().run(experiment_campaign("e11"), workers=2)
        assert result.ok
        assert {r.job.scheme for r in result.results} == \
               {"lofat", "cflat", "static"}

    def test_matrix_database_roundtrip_warm_run(self, matrix_spec, tmp_path):
        database = MeasurementDatabase()
        CampaignRunner(database=database).run(matrix_spec)
        path = str(tmp_path / "matrix.json")
        database.save(path)
        warm = CampaignRunner(database=MeasurementDatabase.load(path))
        second = warm.run(matrix_spec)
        assert second.ok
        assert all(r.cache_hit for r in second.results)


class TestMeasurementCaching:
    def test_repeat_campaign_hits_database(self, small_spec):
        database = MeasurementDatabase()
        runner = CampaignRunner(database=database)

        first = runner.run(small_spec)
        assert first.ok
        cold_entries = len(database)
        assert cold_entries > 0

        second = runner.run(small_spec)
        assert second.ok
        # No new reference executions: every verification was a lookup.
        assert len(database) == cold_entries
        assert all(r.cache_hit for r in second.results)

    def test_repeats_within_one_campaign_share_references(self):
        spec = CampaignSpec(name="repeats",
                            workloads=[WorkloadSelection("figure4_loop")],
                            repeats=3)
        database = MeasurementDatabase()
        result = CampaignRunner(database=database).run(spec)
        assert result.ok
        assert len(database) == 1
        assert [r.cache_hit for r in result.results] == [False, True, True]

    def test_shared_database_across_runners(self, small_spec):
        database = MeasurementDatabase()
        CampaignRunner(database=database).run(small_spec)
        second = CampaignRunner(database=database).run(small_spec)
        assert all(r.cache_hit for r in second.results)

    def test_database_stats_are_per_run(self, small_spec):
        runner = CampaignRunner()
        first = runner.run(small_spec)
        second = runner.run(small_spec)
        assert first.database_stats["misses"] > 0
        # The warm run reports its own counters, not lifetime totals.
        assert second.database_stats["misses"] == 0
        assert second.database_stats["hit_rate"] == 1.0
        assert second.database_stats["hits"] == len(second.results)


class TestCpuConfigForwarding:
    def test_runner_cpu_config_reaches_prover_workers(self):
        from repro.cpu.core import CpuConfig
        from repro.cpu.exceptions import OutOfFuelError
        spec = CampaignSpec(name="fuel",
                            workloads=[WorkloadSelection("figure4_loop")])
        # If the workers silently kept the default instruction budget, this
        # tight budget would go unnoticed on the prover side.
        config = CpuConfig(max_instructions=50)
        with pytest.raises(OutOfFuelError):
            CampaignRunner(cpu_config=config).run(spec)

        roomy = CpuConfig(max_instructions=500_000)
        result = CampaignRunner(cpu_config=roomy).run(spec, workers=2)
        assert result.ok


class TestJobResults:
    def test_job_rows_render(self, small_spec):
        from repro.analysis.campaign_report import (
            format_campaign_failures,
            format_campaign_summary,
            format_campaign_table,
        )
        from repro.cpu.core import CpuConfig

        result = CampaignRunner().run(small_spec)
        summary = format_campaign_summary(result)
        assert "attacks detected : 2/2" in summary
        assert "execution path   : compiled, capture/attest pipeline" in summary
        legacy = CampaignRunner(cpu_config=CpuConfig(engine="legacy")).run(
            small_spec, pipeline="live")
        assert "execution path   : legacy, live pipeline" in \
            format_campaign_summary(legacy)
        table = format_campaign_table(result, limit=3)
        assert "more jobs" in table
        assert format_campaign_failures(result) == "no unexpected job outcomes"

    def test_prover_numbers_reported(self, small_spec):
        result = CampaignRunner().run(small_spec)
        for job_result in result.results:
            assert job_result.instructions > 0
            assert job_result.cycles >= job_result.instructions
            assert job_result.measurement_hex


class TestWorkerProgramCache:
    """Regression: the per-worker program cache must key on the build, not
    just the workload name -- a re-registration under the same name (or a
    parameterized build) must never serve a stale Program."""

    def _register(self, name, return_value):
        from repro.workloads import WORKLOAD_REGISTRY
        from repro.workloads.common import Workload

        source = """
        _start:
            li a0, %d
            li a7, 93
            ecall
        """ % return_value
        WORKLOAD_REGISTRY[name] = lambda: Workload(
            name=name, description="cache regression probe", source=source)

    def test_reregistered_workload_is_reassembled(self):
        from repro.service.worker import _assembled_program
        from repro.workloads import WORKLOAD_REGISTRY

        name = "_worker_cache_probe"
        try:
            self._register(name, 1)
            first = _assembled_program(name)
            assert _assembled_program(name) is first  # cached within a build
            self._register(name, 2)
            second = _assembled_program(name)
            assert second is not first
            assert second.digest != first.digest
        finally:
            WORKLOAD_REGISTRY.pop(name, None)

    def test_campaign_picks_up_reregistered_workload(self):
        from repro.workloads import WORKLOAD_REGISTRY

        name = "_worker_cache_probe_campaign"
        try:
            self._register(name, 1)
            spec = CampaignSpec(
                name="probe",
                workloads=[WorkloadSelection(name)],
                verify_mode="replay",
            )
            assert CampaignRunner().run(spec).ok
            self._register(name, 2)  # same name, different binary
            assert CampaignRunner().run(spec).ok  # stale cache would reject
        finally:
            WORKLOAD_REGISTRY.pop(name, None)

    def test_parameterized_subclass_build_not_served_stale(self):
        from dataclasses import dataclass
        from repro.service.worker import _assembled_program
        from repro.workloads import WORKLOAD_REGISTRY
        from repro.workloads.common import Workload

        @dataclass
        class ScaledWorkload(Workload):
            scale: int = 1

            def build(self):
                from repro.isa.assembler import assemble
                return assemble(self.source % self.scale)

        name = "_worker_cache_probe_scaled"
        template = """
        _start:
            li a0, %d
            li a7, 93
            ecall
        """
        try:
            WORKLOAD_REGISTRY[name] = lambda: ScaledWorkload(
                name=name, description="", source=template, scale=1)
            first = _assembled_program(name)
            # Same name, same source template, different build parameter.
            WORKLOAD_REGISTRY[name] = lambda: ScaledWorkload(
                name=name, description="", source=template, scale=2)
            second = _assembled_program(name)
            assert second.digest != first.digest
        finally:
            WORKLOAD_REGISTRY.pop(name, None)
