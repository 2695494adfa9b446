"""Replayed attestation is bit-equivalent to live execution.

The acceptance bar of the capture-once / verify-many pipeline: for every
scheme, the verdicts, measurements and report bytes obtained by replaying a
stored control-flow trace must match a live execution exactly -- benign and
attacked, scheme level, worker level and campaign level.
"""

import pytest

from repro.attacks import ATTACK_REGISTRY, get_attack
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.cpu.tracefile import dumps_trace, loads_trace, trace_digest
from repro.schemes import get_scheme, scheme_names
from repro.service import CampaignRunner, CampaignSpec, WorkloadSelection
from repro.service.tracestore import CapturedExecution
from repro.service.worker import (
    clear_replay_cache,
    execute_attest_job,
    execute_capture_job,
    execute_prover_job,
)
from repro.workloads import get_workload

WORKLOADS = ["figure4_loop", "crc32", "bubble_sort", "dispatcher", "fibonacci"]


def capture_execution(workload_name, inputs=None, attack=None):
    """Capture one execution the way the stage-1 worker does."""
    workload = get_workload(workload_name)
    program = workload.build()
    run_inputs = list(workload.inputs) if inputs is None else list(inputs)
    cpu = Cpu(program, inputs=run_inputs,
              config=CpuConfig(collect_trace=False))
    trace = ControlFlowTrace()
    cpu.attach_monitor(trace.observe)
    if attack is not None:
        get_attack(attack).prover_hook(program)(cpu)
    result = cpu.run()
    return program, run_inputs, result, trace


class TestSchemeLevelEquivalence:
    @pytest.mark.parametrize("scheme_name", ["lofat", "cflat", "static"])
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    def test_replay_matches_live_measurement(self, scheme_name, workload_name):
        scheme = get_scheme(scheme_name)
        program, inputs, result, trace = capture_execution(workload_name)

        _, live = scheme.measure_execution(
            program, inputs, cpu_config=CpuConfig(collect_trace=False))
        replayed = scheme.replay_measurement(program, trace)

        assert replayed.measurement == live.measurement
        assert replayed.metadata.to_bytes() == live.metadata.to_bytes()
        assert replayed.stats.get("pairs_hashed") == \
               live.stats.get("pairs_hashed")
        assert replayed.stats.get("control_flow_events") == \
               live.stats.get("control_flow_events")

    @pytest.mark.parametrize("scheme_name", ["lofat", "cflat"])
    @pytest.mark.parametrize("attack_name", sorted(ATTACK_REGISTRY))
    def test_replay_matches_live_for_attacked_executions(
            self, scheme_name, attack_name):
        scenario = get_attack(attack_name)
        scheme = get_scheme(scheme_name)
        program, inputs, result, trace = capture_execution(
            scenario.workload_name, inputs=scenario.challenge_inputs,
            attack=attack_name)

        # Live measurement of the same attacked execution.
        session = scheme.open_session(program, None)
        cpu = Cpu(program, inputs=list(inputs),
                  config=CpuConfig(collect_trace=False))
        cpu.attach_monitor(session.observe)
        scenario.prover_hook(program)(cpu)
        cpu.run()
        live = session.finalize()

        replayed = scheme.replay_measurement(program, trace)
        assert replayed.measurement == live.measurement
        assert replayed.metadata.to_bytes() == live.metadata.to_bytes()

    def test_replay_survives_serialisation_roundtrip(self):
        scheme = get_scheme("lofat")
        program, inputs, _, trace = capture_execution("figure4_loop")
        direct = scheme.replay_measurement(program, trace)
        restored = loads_trace(dumps_trace(trace))
        roundtripped = scheme.replay_measurement(program, restored)
        assert roundtripped.measurement == direct.measurement
        assert roundtripped.metadata.to_bytes() == direct.metadata.to_bytes()

    def test_replay_batch_size_does_not_change_measurement(self):
        scheme = get_scheme("lofat")
        program, inputs, _, trace = capture_execution("syringe_pump")
        reference = scheme.replay_measurement(program, trace)
        records = trace.control_flow_records
        for batch_size in (1, 7, 1024):
            session = scheme.open_session(program)
            for start in range(0, len(records), batch_size):
                session.observe_batch(records[start:start + batch_size])
            session.finish_run(len(trace), trace.cycles)
            other = session.finalize()
            assert other.stats == reference.stats
            assert other.measurement == reference.measurement
            assert other.metadata.to_bytes() == reference.metadata.to_bytes()

    def test_non_replayable_trace_is_refused(self):
        from repro.schemes.base import SchemeError
        program, _, _, trace = capture_execution("figure4_loop")
        # What a hook redirect triggers: batched delivery hands off at one
        # pc and the step loop's next record starts at another.
        record = trace.control_flow_records[0]
        trace.sync_straight_line(record.pc + 4, 0)
        trace.observe(record)
        assert not trace.replayable
        with pytest.raises(SchemeError):
            get_scheme("lofat").replay_measurement(program, trace)

    def test_capture_finished_after_fuel_tail_stays_replayable(
            self, monkeypatch):
        """With the fuel limit at the run's exact length, a block whose worst
        case crosses it hands the compiled run to Cpu.step, which halts in
        time: the capture stays replayable and replays to the live
        measurement."""
        workload = get_workload("dispatcher")
        program = workload.build()
        inputs = list(workload.inputs)
        length = Cpu(program, inputs=inputs).run().instructions
        config = CpuConfig(max_instructions=length)

        handoffs = []
        finish_on_step = Cpu._finish_on_step

        def recording_finish_on_step(cpu, *args):
            handoffs.append(args)
            return finish_on_step(cpu, *args)

        monkeypatch.setattr(Cpu, "_finish_on_step", recording_finish_on_step)
        cpu = Cpu(program, inputs=inputs, config=config)
        trace = ControlFlowTrace()
        cpu.attach_monitor(trace.observe)
        result = cpu.run()
        assert handoffs and result.instructions == length
        assert trace.replayable

        scheme = get_scheme("lofat")
        _, live = scheme.measure_execution(program, inputs, cpu_config=config)
        replayed = scheme.replay_measurement(program, trace)
        assert replayed.measurement == live.measurement
        assert replayed.metadata.to_bytes() == live.metadata.to_bytes()


def _job(scheme, workload="figure4_loop", attack=None, inputs=(5,)):
    from repro.service.campaign import CampaignJob
    return CampaignJob(
        job_id="%s/%s" % (workload, scheme),
        workload=workload,
        inputs=tuple(inputs),
        attack=attack,
        scheme=scheme,
    )


class TestWorkerLevelEquivalence:
    """execute_attest_job (stage 2) == execute_prover_job (live) bytes."""

    @pytest.mark.parametrize("scheme_name", ["lofat", "cflat", "static"])
    def test_report_bytes_identical(self, scheme_name):
        clear_replay_cache()
        job = _job(scheme_name)
        nonce = b"\x07" * 32
        live = execute_prover_job((job, nonce))

        capture_response = execute_capture_job(
            ("sig", job.workload, job.inputs, None))
        capture = CapturedExecution(
            signature="sig",
            trace_digest=capture_response.trace_digest,
            trace_bytes=capture_response.trace_bytes,
            exit_code=capture_response.exit_code,
            output=capture_response.output,
            instructions=capture_response.instructions,
            cycles=capture_response.cycles,
            replayable=capture_response.replayable,
        )
        replayed = execute_attest_job((job, nonce, capture))

        assert replayed.replayed
        assert replayed.report.to_bytes() == live.report.to_bytes()
        assert replayed.instructions == live.instructions
        assert replayed.cycles == live.cycles
        assert replayed.pairs_hashed == live.pairs_hashed
        assert replayed.control_flow_events == live.control_flow_events

        # The second replay of the same (scheme, trace, config) is served by
        # the per-process replay cache and must still be byte-identical
        # (covers the metadata to_bytes/from_bytes round trip).
        cached = execute_attest_job((job, nonce, capture))
        assert cached.replay_cache_hits == 1
        assert cached.report.to_bytes() == live.report.to_bytes()

    @pytest.mark.parametrize("attack_name", sorted(ATTACK_REGISTRY))
    def test_attacked_report_bytes_identical(self, attack_name):
        clear_replay_cache()
        scenario = get_attack(attack_name)
        job = _job("lofat", workload=scenario.workload_name,
                   attack=attack_name,
                   inputs=tuple(int(v) for v in scenario.challenge_inputs))
        nonce = b"\x21" * 32
        live = execute_prover_job((job, nonce))

        capture_response = execute_capture_job(
            ("sig", job.workload, job.inputs, attack_name))
        capture = CapturedExecution(
            signature="sig",
            trace_digest=capture_response.trace_digest,
            trace_bytes=capture_response.trace_bytes,
            exit_code=capture_response.exit_code,
            output=capture_response.output,
            instructions=capture_response.instructions,
            cycles=capture_response.cycles,
            replayable=capture_response.replayable,
        )
        replayed = execute_attest_job((job, nonce, capture))
        assert replayed.report.to_bytes() == live.report.to_bytes()

    def test_missing_capture_falls_back_to_live(self):
        job = _job("lofat")
        nonce = b"\x01" * 32
        response = execute_attest_job((job, nonce, None))
        assert not response.replayed
        live = execute_prover_job((job, nonce))
        assert response.report.to_bytes() == live.report.to_bytes()


@pytest.fixture
def matrix_spec():
    return CampaignSpec(
        name="equivalence-matrix",
        workloads=[WorkloadSelection("figure4_loop", input_sets=[[4], [9]]),
                   WorkloadSelection("auth_check")],
        schemes=list(scheme_names()),
        attacks=["auth_flag_flip", "syringe_overdose"],
        repeats=2,
    )


class TestCampaignLevelEquivalence:
    """Two-stage campaigns recombine to the same results as live ones."""

    @pytest.mark.parametrize("verify_mode", ["database", "replay", "structural"])
    def test_identities_match_live_pipeline(self, matrix_spec, verify_mode):
        matrix_spec.verify_mode = verify_mode
        live = CampaignRunner().run(matrix_spec, pipeline="live")
        clear_replay_cache()
        captured = CampaignRunner().run(matrix_spec, pipeline="capture")
        if verify_mode != "structural":  # structural checks cannot see attacks
            assert live.ok and captured.ok
        assert captured.identities() == live.identities()
        assert all(result.replayed for result in captured.results)
        assert not any(result.replayed for result in live.results)

    def test_capture_dedupes_executions(self, matrix_spec):
        runner = CampaignRunner()
        result = runner.run(matrix_spec)
        stats = result.capture_stats
        jobs = len(matrix_spec.expand())
        assert stats["jobs"] == jobs
        # schemes x repeats collapse: 3 benign points + 2 attacked points.
        assert stats["unique_executions"] == 5
        assert stats["deduped_jobs"] == jobs - 5
        # Benign counterpart of the syringe attack (the auth attack's
        # challenge inputs are already covered by the benign auth job).
        assert stats["reference_executions"] == 1
        assert stats["replayed_jobs"] == jobs
        assert stats["live_jobs"] == 0

    def test_warm_store_skips_all_simulation(self, matrix_spec):
        runner = CampaignRunner()
        first = runner.run(matrix_spec)
        assert first.capture_stats["captured"] > 0
        second = runner.run(matrix_spec)
        assert second.ok
        assert second.capture_stats["captured"] == 0
        assert second.capture_stats["store_hits"] > 0
        assert second.identities() == first.identities()

    def test_worker_replay_cache_counters_are_aggregated(self, matrix_spec):
        clear_replay_cache()
        result = CampaignRunner().run(matrix_spec)
        stats = result.database_stats
        total = stats["worker_replay_hits"] + stats["worker_replay_misses"]
        assert total == len(result.results)
        # repeats=2: the second round of every (scheme, trace, config)
        # combination is a replay-cache hit.
        assert stats["worker_replay_hits"] >= len(result.results) // 2

    def test_parallel_two_stage_identical_to_sequential(self, matrix_spec):
        sequential = CampaignRunner().run(matrix_spec, workers=1)
        parallel = CampaignRunner().run(matrix_spec, workers=4)
        assert parallel.identities() == sequential.identities()

    def test_unknown_pipeline_rejected(self, matrix_spec):
        with pytest.raises(ValueError):
            CampaignRunner().run(matrix_spec, pipeline="warp")


class TestRedirectedCaptures:
    """A pre-hook redirect retires no record, so a capture of a redirected
    run cannot be replayed in batches; every engine must say so."""

    @pytest.fixture
    def redirect_attack(self):
        from repro.attacks.injector import (
            AttackScenario,
            ControlFlowRedirect,
            register_scenario,
            unregister_attack,
        )

        def corruptions(program):
            # The odd-iteration arm jumps back into the setup block, just
            # past the input read: the loop restarts from i = 0.
            return [ControlFlowRedirect(
                trigger_pc=program.symbols["else_block"],
                target=program.symbols["_start"] + 8)]

        name = register_scenario(AttackScenario(
            name="test_redirect_to_setup",
            description="else arm redirected into the setup block",
            attack_class=3,
            workload_name="figure4_loop",
            build_corruptions=corruptions,
            challenge_inputs=[6],
        ))
        yield name
        unregister_attack(name)

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_redirected_capture_is_not_replayable(self, redirect_attack,
                                                  engine):
        capture = execute_capture_job(
            ("s", "figure4_loop", (6,), redirect_attack),
            cpu_config=CpuConfig(engine=engine))
        assert capture.replayable is False

        spec = CampaignSpec(
            name="redirect", workloads=[WorkloadSelection("figure4_loop")],
            schemes=["lofat", "cflat"], attacks=[redirect_attack],
        )
        runner_config = CpuConfig(engine=engine)
        live = CampaignRunner(cpu_config=runner_config).run(
            spec, pipeline="live")
        clear_replay_cache()
        captured = CampaignRunner(cpu_config=runner_config).run(
            spec, pipeline="capture")
        assert captured.identities() == live.identities()


class TestTraceDigestStability:
    def test_capture_digest_deterministic(self):
        first = execute_capture_job(("s", "figure4_loop", (5,), None))
        second = execute_capture_job(("s", "figure4_loop", (5,), None))
        assert first.trace_bytes == second.trace_bytes
        assert first.trace_digest == second.trace_digest
        assert first.trace_digest == trace_digest(first.trace_bytes)

    def test_different_inputs_different_digest(self):
        a = execute_capture_job(("s", "figure4_loop", (5,), None))
        b = execute_capture_job(("s", "figure4_loop", (6,), None))
        assert a.trace_digest != b.trace_digest
