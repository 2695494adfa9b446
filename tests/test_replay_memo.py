"""One replay per execution: stage 2 and the references share one memo.

The prover's stage 2 (:func:`repro.service.worker.execute_attest_job`) and
the verifier's :func:`repro.service.database.compute_reference` replay
captures through :func:`repro.service.database.replay_capture`, keyed by
(scheme, trace digest, config digest).  A benign job's reference is then
the memo entry its own stage 2 left, so a sequential campaign replays each
(scheme, capture, config) once.  These tests pin that count, the bytes the
memo serves, the attack/benign separation and the multi-process identity.
"""

import pytest

from repro.schemes.base import AttestationScheme
from repro.service import (
    CampaignRunner,
    CampaignSpec,
    MeasurementDatabase,
    TraceStore,
    WorkloadSelection,
    family_campaign,
)
from repro.service.campaign import CampaignJob
from repro.service.database import compute_reference
from repro.service.tracestore import benign_capture
from repro.service.worker import clear_replay_cache, execute_attest_job
from repro.workloads import WORKLOAD_REGISTRY, all_workloads, get_workload

SEED = 20170618


@pytest.fixture
def replays(monkeypatch):
    """Counts every ``replay_measurement`` call, across schemes."""
    calls = []
    original = AttestationScheme.replay_measurement

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AttestationScheme, "replay_measurement", counted)
    clear_replay_cache()
    yield calls
    clear_replay_cache()


def _family_matrix_spec():
    """The campaign-replay job list: the seeded family matrix (6 input sets
    per member) plus every registry workload, under lofat, cflat and static.
    """
    registry = [WorkloadSelection(name=w.name) for w in all_workloads()
                if WORKLOAD_REGISTRY[w.name].__module__.startswith("repro.")]
    family = family_campaign(seed=SEED, input_sets=6)
    return CampaignSpec(
        name="replay_memo_s%d" % SEED,
        workloads=family.workloads + registry,
        schemes=["lofat", "cflat", "static"],
        verify_mode="database",
    )


def _cold_pass(spec, workers=1, pipeline="capture"):
    clear_replay_cache()
    runner = CampaignRunner(database=MeasurementDatabase(),
                            trace_store=TraceStore())
    return runner.run(spec, workers=workers, pipeline=pipeline)


@pytest.fixture(scope="module")
def matrix_spec():
    return _family_matrix_spec()


class TestOneReplayPerExecution:
    def test_cold_pass_replays_each_execution_once(self, matrix_spec,
                                                   replays):
        """426 replays, one per distinct (scheme, capture, config); the
        references add none (the memo used to be the prover's alone, and
        the references replayed 284 more)."""
        result = _cold_pass(matrix_spec)
        stats = result.database_stats
        assert result.ok and len(result) == 555
        assert len(replays) == 426
        assert stats["worker_replay_misses"] == 426
        assert stats["worker_replay_hits"] == 129
        assert (stats["hits"], stats["misses"]) == (86, 469)

    def test_identities_match_across_workers_and_pipelines(self, matrix_spec):
        sequential = _cold_pass(matrix_spec, workers=1)
        parallel = _cold_pass(matrix_spec, workers=2)
        live = _cold_pass(matrix_spec, pipeline="live")
        assert parallel.identities() == sequential.identities()
        assert live.identities() == sequential.identities()


class TestMemoServedReference:
    @pytest.mark.parametrize("scheme", ["lofat", "cflat"])
    @pytest.mark.parametrize("workload_name", ["figure4_loop", "crc32",
                                               "dispatcher"])
    def test_reference_from_memo_equals_uncached(self, scheme, workload_name,
                                                 replays):
        workload = get_workload(workload_name)
        program = workload.build()
        inputs = tuple(workload.inputs)
        runner = CampaignRunner()
        runner.capture(CampaignSpec(
            name="probe", workloads=[WorkloadSelection(workload_name)],
            schemes=[scheme]))
        capture = benign_capture(runner.trace_store, workload_name, inputs)
        job = CampaignJob(job_id="probe", workload=workload_name,
                          inputs=inputs, scheme=scheme)
        config = job.scheme_config()

        response = execute_attest_job((job, b"\x05" * 32, capture))
        assert len(replays) == 1
        served = compute_reference(program, inputs, scheme, config, capture)
        assert len(replays) == 1  # the reference reused stage 2's replay
        assert served == (response.report.measurement,
                          response.report.metadata.to_bytes())

        clear_replay_cache()
        uncached = compute_reference(program, inputs, scheme, config, capture)
        assert len(replays) == 2
        live = compute_reference(program, inputs, scheme, config)
        assert served == uncached == live
        assert isinstance(served[1], bytes)


class TestAttackReference:
    def test_attack_reference_is_the_benign_execution(self, replays):
        """An attacked job is verified against the benign execution on its
        inputs -- never against its own (memoised) replay."""
        spec = CampaignSpec(
            name="attack_reference",
            workloads=[WorkloadSelection("syringe_pump")],
            attacks=["syringe_overdose"],
            schemes=["lofat", "cflat"],
        )
        runner = CampaignRunner()
        result = runner.run(spec)
        assert result.ok
        program = get_workload("syringe_pump").build()
        attacked = [j for j in result.results if j.job.attack is not None]
        assert {j.job.scheme for j in attacked} == {"lofat", "cflat"}
        for job in attacked:
            config = job.job.scheme_config()
            reference = runner.database.lookup(
                program, job.job.inputs, config, job.job.scheme)
            benign = compute_reference(
                program, job.job.inputs, job.job.scheme, config)
            assert reference == benign
            assert reference[0].hex() != job.measurement_hex
            assert job.reason == "measurement_mismatch"
        # Only benign captures were replayed into references.
        benign_digests = {
            benign_capture(runner.trace_store, j.job.workload,
                           j.job.inputs).trace_digest
            for j in result.results}
        assert {key[1] for key in runner.database._trace_entries} \
            == benign_digests
