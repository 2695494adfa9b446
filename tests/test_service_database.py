"""Tests for the digest-keyed measurement database."""

import pytest

from repro.attestation import Prover, Verifier
from repro.lofat.config import LoFatConfig
from repro.lofat.engine import attest_execution
from repro.schemes import get_scheme
from repro.service import MeasurementDatabase
from repro.workloads import get_workload


@pytest.fixture
def figure4():
    workload = get_workload("figure4_loop")
    return workload, workload.build()


class TestKeying:
    def test_key_includes_program_inputs_and_config(self, figure4):
        _, program = figure4
        base = MeasurementDatabase.key_for(program, (5,), LoFatConfig())
        assert MeasurementDatabase.key_for(program, (5,), LoFatConfig()) == base
        assert MeasurementDatabase.key_for(program, (6,), LoFatConfig()) != base
        assert MeasurementDatabase.key_for(
            program, (5,), LoFatConfig(max_nested_loops=4)
        ) != base

    def test_key_distinguishes_programs(self, figure4):
        _, program = figure4
        other = get_workload("crc32").build()
        assert MeasurementDatabase.key_for(program, (), None) != \
               MeasurementDatabase.key_for(other, (), None)

    def test_config_digest_is_construction_independent(self):
        config_digest = get_scheme("lofat").config_digest
        assert config_digest(LoFatConfig()) == config_digest(LoFatConfig())
        assert config_digest(LoFatConfig()) != \
               config_digest(LoFatConfig(counter_width_bits=16))


class TestHitMissSemantics:
    def test_miss_then_hit(self, figure4):
        _, program = figure4
        database = MeasurementDatabase()
        assert database.lookup(program, (5,)) is None
        assert (database.hits, database.misses) == (0, 1)

        measurement, metadata, hit = database.lookup_or_compute(program, (5,))
        assert not hit
        assert len(database) == 1
        assert (database.hits, database.misses) == (0, 2)

        again, metadata2, hit2 = database.lookup_or_compute(program, (5,))
        assert hit2
        assert again == measurement and metadata2 == metadata
        assert (database.hits, database.misses) == (1, 2)
        assert database.hit_rate == pytest.approx(1 / 3)

    def test_computed_reference_matches_direct_attestation(self, figure4):
        workload, program = figure4
        database = MeasurementDatabase()
        measurement, metadata, _ = database.lookup_or_compute(
            program, (5,), LoFatConfig())
        _, direct = attest_execution(program, inputs=[5])
        assert measurement == direct.measurement
        assert metadata == direct.metadata.to_bytes()

    def test_different_config_is_a_different_entry(self, figure4):
        _, program = figure4
        database = MeasurementDatabase()
        database.lookup_or_compute(program, (5,), LoFatConfig())
        _, _, hit = database.lookup_or_compute(
            program, (5,), LoFatConfig(max_branches_per_path=8,
                                       max_indirect_branches_per_path=2))
        assert not hit
        assert len(database) == 2

    def test_store_and_reset_counters(self, figure4):
        _, program = figure4
        database = MeasurementDatabase()
        database.store(program, (9,), None, b"\x01" * 64, b"\x02")
        assert database.lookup(program, (9,)) == (b"\x01" * 64, b"\x02")
        database.reset_counters()
        assert (database.hits, database.misses) == (0, 0)
        assert len(database) == 1


class TestTraceKeys:
    """Entries keyed by (scheme, trace digest, config digest)."""

    def _capture(self, inputs=(5,)):
        from repro.service.worker import execute_capture_job
        from repro.service.tracestore import CapturedExecution
        response = execute_capture_job(("sig", "figure4_loop", inputs, None))
        return CapturedExecution(
            signature="sig", trace_digest=response.trace_digest,
            trace_bytes=response.trace_bytes, exit_code=response.exit_code,
            output=response.output, instructions=response.instructions,
            cycles=response.cycles, replayable=response.replayable)

    def test_store_and_lookup_trace(self):
        database = MeasurementDatabase()
        assert database.lookup_trace("lofat", "d" * 64) is None
        database.store_trace("lofat", "d" * 64, None, b"\x01" * 64, b"\x02")
        assert database.lookup_trace("lofat", "d" * 64) == (b"\x01" * 64, b"\x02")
        # Scheme separation: the same digest under another scheme misses.
        assert database.lookup_trace("cflat", "d" * 64) is None
        assert database.stats()["trace_entries"] == 1
        assert len(database) == 0  # trace entries are not primary entries

    def test_capture_backed_miss_replays_and_seeds_both_keys(self, figure4):
        _, program = figure4
        database = MeasurementDatabase()
        capture = self._capture()
        measurement, metadata, hit = database.lookup_or_compute(
            program, (5,), scheme="lofat", capture=capture)
        assert not hit
        # The replayed reference equals the live one.
        _, direct = attest_execution(program, inputs=[5])
        assert measurement == direct.measurement
        assert metadata == direct.metadata.to_bytes()
        # Stored under the trace key too: a different (program, inputs)
        # signature with the same trace digest skips the replay.
        assert database.lookup_trace(
            "lofat", capture.trace_digest) == (measurement, metadata)

    def test_trace_key_serves_as_cache_hit(self, figure4):
        """A primary-key miss served from the trace keyspace is a hit:
        no computation happened, and the accounting must say so."""
        _, program = figure4
        database = MeasurementDatabase()
        capture = self._capture()
        database.store_trace("lofat", capture.trace_digest, None,
                             b"\x05" * 64, b"\x06")
        measurement, metadata, hit = database.lookup_or_compute(
            program, (5,), scheme="lofat", capture=capture)
        assert hit
        assert (measurement, metadata) == (b"\x05" * 64, b"\x06")
        assert (database.hits, database.misses) == (1, 0)

    def test_capture_backed_references_for_all_schemes(self, figure4):
        from repro.schemes import get_scheme, scheme_names
        from repro.cpu.core import CpuConfig
        _, program = figure4
        database = MeasurementDatabase()
        capture = self._capture()
        for scheme in scheme_names():
            measurement, metadata, hit = database.lookup_or_compute(
                program, (5,), scheme=scheme, capture=capture)
            assert not hit
            live = get_scheme(scheme).reference_measurement(
                program, [5], cpu_config=CpuConfig(collect_trace=False))
            assert measurement == live.measurement
            assert metadata == live.metadata.to_bytes()


class TestPersistence:
    def test_roundtrip_across_all_schemes(self, figure4, tmp_path):
        """save/load across lofat, cflat and static, with config-digest
        stability: reloaded entries keep hitting under fresh key derivation."""
        from repro.schemes import get_scheme, scheme_names
        _, program = figure4
        database = MeasurementDatabase()
        expected = {}
        for scheme in scheme_names():
            measurement, metadata, hit = database.lookup_or_compute(
                program, (5,), scheme=scheme)
            assert not hit
            expected[scheme] = (measurement, metadata)
        path = str(tmp_path / "schemes.json")
        assert database.save(path) == len(scheme_names())

        restored = MeasurementDatabase.load(path)
        for scheme in scheme_names():
            # Config digests are derived canonically, so a fresh process
            # (modelled by the reload) computes the same keys.
            key = MeasurementDatabase.key_for(program, (5,), None, scheme)
            assert key[3] == get_scheme(scheme).config_digest(None)
            measurement, metadata, hit = restored.lookup_or_compute(
                program, (5,), scheme=scheme)
            assert hit
            assert (measurement, metadata) == expected[scheme]
        assert restored.hits == len(scheme_names())

    def test_trace_entries_roundtrip(self, tmp_path):
        database = MeasurementDatabase()
        database.store_trace("cflat", "ab" * 32, None, b"\x03" * 64, b"")
        path = str(tmp_path / "traces.json")
        database.save(path)
        restored = MeasurementDatabase.load(path)
        assert restored.lookup_trace("cflat", "ab" * 32) == (b"\x03" * 64, b"")
        assert restored.stats()["trace_entries"] == 1

    def test_files_without_trace_entries_still_load(self, figure4, tmp_path):
        """Databases persisted before the capture-once release stay loadable."""
        import json
        _, program = figure4
        database = MeasurementDatabase()
        database.lookup_or_compute(program, (5,))
        document = json.loads(database.to_json())
        assert "trace_entries" not in document  # none stored, none written
        restored = MeasurementDatabase.from_json(json.dumps(document))
        _, _, hit = restored.lookup_or_compute(program, (5,))
        assert hit

    def test_json_roundtrip(self, figure4, tmp_path):
        _, program = figure4
        database = MeasurementDatabase()
        for iterations in (3, 5, 8):
            database.lookup_or_compute(program, (iterations,))
        path = str(tmp_path / "measurements.json")
        assert database.save(path) == 3

        restored = MeasurementDatabase.load(path)
        assert len(restored) == 3
        _, _, hit = restored.lookup_or_compute(program, (5,))
        assert hit

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            MeasurementDatabase.from_json('{"version": 2, "entries": []}')


class TestVerifierIntegration:
    def test_seeded_verifier_accepts_database_mode(self, figure4):
        workload, program = figure4
        database = MeasurementDatabase()
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key(
            "prover-0", prover.keystore.export_for_verifier())

        measurement, metadata, _ = database.lookup_or_compute(program, (5,))

        report = prover.attest(verifier.challenge(workload.name, [5]))
        assert verifier.verify(
            report, expected=(measurement, metadata)).accepted

    def test_seeded_verifier_rejects_wrong_measurement(self, figure4):
        workload, program = figure4
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key(
            "prover-0", prover.keystore.export_for_verifier())

        report = prover.attest(verifier.challenge(workload.name, [5]))
        verdict = verifier.verify(report, expected=(b"\x00" * 64, b""))
        assert not verdict.accepted
        assert verdict.reason.value == "measurement_mismatch"


class TestAtomicPersistence:
    """A killed campaign/server must never leave a truncated database file."""

    def _populated(self, figure4):
        _, program = figure4
        database = MeasurementDatabase()
        database.lookup_or_compute(program, (5,))
        return database

    def test_save_replaces_atomically_and_leaves_no_temp_files(
            self, figure4, tmp_path):
        import os

        path = str(tmp_path / "measurements.json")
        database = self._populated(figure4)
        database.save(path)
        database.save(path)  # overwrite path, same discipline
        assert MeasurementDatabase.load(path).stats()["entries"] == 1
        assert os.listdir(str(tmp_path)) == ["measurements.json"]

    def test_failed_save_keeps_the_previous_file_intact(
            self, figure4, tmp_path, monkeypatch):
        import os

        path = str(tmp_path / "measurements.json")
        database = self._populated(figure4)
        database.save(path)
        before = open(path).read()

        # A crash at the final rename: the new content never lands, the
        # previous database must survive byte-for-byte and no temp file
        # may linger.
        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            database.save(path)
        monkeypatch.undo()
        assert open(path).read() == before
        assert os.listdir(str(tmp_path)) == ["measurements.json"]
        assert MeasurementDatabase.load(path).stats()["entries"] == 1
