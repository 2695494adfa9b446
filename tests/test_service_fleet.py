"""The multi-process verifier fleet (repro.service.fleet + loadgen).

Covers the three layers the fleet deployment adds:

* the database substrate -- :class:`DeltaLog` append/recovery semantics,
  the snapshot overlay a worker layers over the shared base, and the
  parent-side delta merge (overlap dedup, last-writer-wins, crash during
  the merged save leaving the old file intact);
* the process fleet itself -- :class:`FleetServer` lifecycle in both
  dispatcher modes, ready files, wire-shutdown teardown, clean drain and
  the merged database being byte-identical to a single-process server's;
* the load generator -- heavy-tailed device sampling, churn accounting,
  and the stale/duplicate injections being *rejected* by a live fleet.
"""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.dataflow import analyze_program
from repro.service.client import AttestationClient, SimulatedProver
from repro.service.database import (
    DeltaLog,
    MeasurementDatabase,
    iter_delta_records,
)
from repro.service.fleet import (
    FleetError,
    FleetServer,
    resolve_dispatcher,
    reuseport_available,
)
from repro.service.loadgen import (
    STALE_REJECT_REASONS,
    FleetLoadReport,
    FleetLoadSpec,
    run_fleet_load,
    sample_device,
)
from repro.workloads import get_workload

#: Dispatcher modes exercisable on this host.  ``reuseport`` needs the
#: socket option; ``handoff`` needs the fork start method.
AVAILABLE_MODES = [
    mode for mode, ok in (
        ("reuseport", reuseport_available()),
        ("handoff", "fork" in __import__("multiprocessing").get_all_start_methods()),
    ) if ok
]


# --------------------------------------------------------------- DeltaLog
class TestDeltaLog:
    def test_append_iter_roundtrip(self, tmp_path):
        path = str(tmp_path / "delta.jsonl")
        with DeltaLog(path) as log:
            log.append({"kind": "entry", "n": 1})
            log.append({"kind": "trace", "n": 2})
            assert log.records_written == 2
        assert list(iter_delta_records(path)) == [
            {"kind": "entry", "n": 1},
            {"kind": "trace", "n": 2},
        ]

    def test_torn_tail_is_tolerated(self, tmp_path):
        """A writer killed mid-append leaves a partial final line; the
        reader yields every complete record and stops."""
        path = str(tmp_path / "delta.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "entry", "n": 1}\n')
            handle.write('{"kind": "entry", "n"')  # torn mid-write
        assert list(iter_delta_records(path)) == [{"kind": "entry", "n": 1}]

    def test_corrupt_middle_line_raises(self, tmp_path):
        """Garbage *followed by more data* is corruption, not a crash tail."""
        path = str(tmp_path / "delta.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "entry", "n": 1}\n')
            handle.write("not json\n")
            handle.write('{"kind": "entry", "n": 3}\n')
        with pytest.raises(ValueError, match="not the tail"):
            list(iter_delta_records(path))

    def test_non_object_line_raises(self, tmp_path):
        path = str(tmp_path / "delta.jsonl")
        with open(path, "w") as handle:
            handle.write("[1, 2]\n")
            handle.write('{"kind": "entry"}\n')
        with pytest.raises(ValueError, match="not an object"):
            list(iter_delta_records(path))

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = str(tmp_path / "delta.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n\n\n')
        assert list(iter_delta_records(path)) == [{"n": 1}]


# ------------------------------------------------------- snapshot overlay
def _compute(database, program, inputs, scheme):
    measurement, metadata, _ = database.lookup_or_compute(
        program, tuple(inputs), scheme=scheme)
    return measurement, metadata


class TestSnapshotOverlay:
    @pytest.fixture(scope="class")
    def pump(self):
        workload = get_workload("syringe_pump")
        return workload.build(), tuple(workload.inputs)

    def test_lookup_falls_through_to_snapshot(self, pump):
        program, inputs = pump
        base = MeasurementDatabase()
        _compute(base, program, inputs, "lofat")
        overlay = MeasurementDatabase(snapshot=base)
        assert overlay.lookup(program, inputs, scheme="lofat") is not None
        # Served from the snapshot: nothing was copied into the overlay.
        assert len(overlay) == 0
        assert overlay.hits == 1

    def test_writes_stay_local_and_mirror_to_the_delta_log(self, pump, tmp_path):
        program, inputs = pump
        base = MeasurementDatabase()
        overlay = MeasurementDatabase(snapshot=base)
        log = DeltaLog(str(tmp_path / "delta.jsonl"))
        overlay.attach_delta_log(log)
        _compute(overlay, program, inputs, "lofat")
        log.close()
        assert len(overlay) == 1
        assert len(base) == 0  # the snapshot is never mutated
        records = list(iter_delta_records(log.path))
        assert [r["kind"] for r in records] == ["entry"]
        assert records[0]["scheme"] == "lofat"
        assert records[0]["program_digest"] == program.digest

    def test_stats_show_the_layering(self, pump, tmp_path):
        program, inputs = pump
        base = MeasurementDatabase()
        _compute(base, program, inputs, "lofat")
        overlay = MeasurementDatabase(snapshot=base)
        log = DeltaLog(str(tmp_path / "delta.jsonl"))
        overlay.attach_delta_log(log)
        _compute(overlay, program, inputs, "cflat")
        log.close()
        stats = overlay.stats()
        assert stats["snapshot_entries"] == 1
        assert stats["delta_records"] == 1
        assert stats["entries"] == 1


# ------------------------------------------------------------ delta merge
class TestDeltaMerge:
    @pytest.fixture(scope="class")
    def pump(self):
        workload = get_workload("syringe_pump")
        return workload.build(), tuple(workload.inputs)

    def test_concurrent_workers_with_overlap_merge_to_single_process_bytes(
            self, pump, tmp_path):
        """Two workers over one base, overlapping on cflat: the merged base
        serialises byte-identically to a single-process database that
        computed the same references -- the PR's storage acceptance pin."""
        program, inputs = pump

        single = MeasurementDatabase()
        for scheme in ("lofat", "cflat", "static"):
            _compute(single, program, inputs, scheme)

        base = MeasurementDatabase()
        logs = []
        for index, schemes in enumerate((("lofat", "cflat"),
                                         ("cflat", "static"))):
            worker = MeasurementDatabase(snapshot=base)
            log = DeltaLog(str(tmp_path / ("delta-%d.jsonl" % index)))
            worker.attach_delta_log(log)
            for scheme in schemes:
                _compute(worker, program, inputs, scheme)
            log.close()
            logs.append(log.path)

        applied = sum(base.merge_delta_log(path) for path in logs)
        assert applied == 4  # both cflat records applied; last writer wins
        assert len(base) == 3  # ...but the key space deduplicates them
        assert base.to_json() == single.to_json()

        merged_path = str(tmp_path / "merged.json")
        single_path = str(tmp_path / "single.json")
        base.save(merged_path)
        single.save(single_path)
        with open(merged_path, "rb") as merged, open(single_path, "rb") as one:
            assert merged.read() == one.read()

    def test_trace_records_merge(self, pump, tmp_path):
        program, inputs = pump
        worker = MeasurementDatabase()
        log = DeltaLog(str(tmp_path / "delta.jsonl"))
        worker.attach_delta_log(log)
        measurement, metadata = _compute(worker, program, inputs, "lofat")
        worker.store_trace("lofat", "t" * 64, None, measurement, metadata)
        log.close()
        base = MeasurementDatabase()
        assert base.merge_delta_log(log.path) == 2
        assert base.lookup_trace("lofat", "t" * 64) == (measurement, metadata)

    def test_policy_records_merge(self, pump, tmp_path):
        program, _ = pump
        policy = analyze_program(program).policy
        worker = MeasurementDatabase()
        log = DeltaLog(str(tmp_path / "delta.jsonl"))
        worker.attach_delta_log(log)
        worker.store_policy(policy)
        log.close()
        base = MeasurementDatabase()
        assert base.merge_delta_log(log.path) == 1
        merged = base.lookup_policy(program.digest)
        assert merged is not None
        assert merged.to_json() == policy.to_json()

    def test_unknown_record_kind_raises(self, tmp_path):
        path = str(tmp_path / "delta.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            MeasurementDatabase().merge_delta_log(path)

    def test_crash_during_merged_save_leaves_old_file_intact(
            self, pump, tmp_path, monkeypatch):
        """The merged save is atomic: a crash at the rename must not tear
        the database other readers (and the next fleet start) load."""
        program, inputs = pump
        db_path = str(tmp_path / "db.json")
        base = MeasurementDatabase()
        _compute(base, program, inputs, "lofat")
        base.save(db_path)
        before = open(db_path, "rb").read()

        worker = MeasurementDatabase(snapshot=base)
        log = DeltaLog(str(tmp_path / "delta.jsonl"))
        worker.attach_delta_log(log)
        _compute(worker, program, inputs, "cflat")
        log.close()
        assert base.merge_delta_log(log.path) == 1

        real_replace = os.replace

        def crash(*args, **kwargs):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            base.save(db_path)
        monkeypatch.setattr(os, "replace", real_replace)

        assert open(db_path, "rb").read() == before
        assert len(MeasurementDatabase.load(db_path)) == 1  # the old state


# ---------------------------------------------------------- process fleet
def _make_fleet(tmp_path, workers=2, dispatcher="auto", **kwargs):
    return FleetServer(
        host="127.0.0.1",
        port=0,
        workers=workers,
        dispatcher=dispatcher,
        state_dir=str(tmp_path / "state"),
        **kwargs,
    )


class TestFleetServer:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(FleetError, match="at least one worker"):
            FleetServer(workers=0)

    def test_unknown_dispatcher_rejected(self):
        with pytest.raises(FleetError, match="unknown dispatcher"):
            resolve_dispatcher("roundrobin")

    def test_auto_resolves_to_an_available_mode(self):
        assert resolve_dispatcher("auto") in ("reuseport", "handoff")

    @pytest.mark.parametrize("dispatcher", AVAILABLE_MODES)
    def test_fleet_serves_drains_and_merges(self, dispatcher, tmp_path):
        db_path = str(tmp_path / "measurements.json")
        fleet = _make_fleet(tmp_path, workers=2, dispatcher=dispatcher,
                            database_path=db_path,
                            ready_file=str(tmp_path / "fleet.ready"))
        fleet.start()
        try:
            # Every worker announced readiness; the fleet ready file names
            # the shared endpoint.
            with open(str(tmp_path / "fleet.ready")) as handle:
                host, _, port = handle.read().strip().partition(":")
            assert host == "127.0.0.1" and int(port) == fleet.port

            report = run_fleet_load(
                "127.0.0.1", fleet.port,
                devices=100, connections=4, reports=24,
                schemes=("lofat",), workloads=("syringe_pump",))
            assert report.ok, report.rejections
            assert report.reports == 24
        finally:
            summary = fleet.stop()

        assert summary.clean, summary.worker_exit_codes
        assert summary.worker_exit_codes == [0, 0]
        assert summary.dispatcher == dispatcher
        # Every worker wrote at least the shared reference into its delta
        # log; the merge deduplicates them into the one database entry.
        assert summary.delta_records >= 1
        assert summary.database_entries == 1
        assert summary.stats["reports_verified"] >= report.reports
        assert summary.stats["accepted"] >= report.accepted
        assert summary.stats["workers_reporting"] == 2

        saved = MeasurementDatabase.load(db_path)
        assert len(saved) == 1

    def test_merged_database_matches_single_process_server(self, tmp_path):
        """The fleet's saved database is byte-identical to the database a
        single-process server accumulates serving the same traffic --
        measurement entries and stored policies both."""
        db_path = str(tmp_path / "measurements.json")
        fleet = _make_fleet(tmp_path, workers=2, database_path=db_path)
        fleet.start()
        try:
            report = run_fleet_load(
                "127.0.0.1", fleet.port,
                devices=10, connections=4, reports=18,
                schemes=("lofat", "cflat", "static"),
                workloads=("syringe_pump",))
            assert report.ok, report.rejections
        finally:
            fleet.stop()

        from repro.service.server import AttestationServer

        single = MeasurementDatabase()

        async def single_process_traffic():
            server = AttestationServer(database=single)
            await server.start()
            try:
                prover = SimulatedProver(device_id="device-single")
                client = AttestationClient(
                    "127.0.0.1", server.port, "device-single", prover)
                await client.connect()
                for scheme in ("lofat", "cflat", "static"):
                    _, verdict = await client.attest_round(
                        "syringe_pump", None, scheme)
                    assert verdict.accepted
                await client.close()
            finally:
                await server.stop()
        asyncio.run(single_process_traffic())

        single_path = str(tmp_path / "single.json")
        single.save(single_path)
        with open(db_path, "rb") as merged, open(single_path, "rb") as one:
            assert merged.read() == one.read()

    def test_wire_shutdown_tears_the_whole_fleet_down(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=2, allow_shutdown=True)
        fleet.start()

        async def shutdown():
            client = AttestationClient(
                "127.0.0.1", fleet.port, "prover-admin")
            await client.connect()
            await client.shutdown_server()
        asyncio.run(shutdown())

        fleet.wait()  # returns via the stop flag, not worker death
        summary = fleet.stop()
        assert summary.clean, summary.worker_exit_codes

    def test_stop_is_idempotent(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=1)
        fleet.start()
        first = fleet.stop()
        assert fleet.stop() is first

    def test_double_start_rejected(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=1)
        fleet.start()
        try:
            with pytest.raises(FleetError, match="already started"):
                fleet.start()
        finally:
            fleet.stop()

    def test_workers_write_stats_files(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=2)
        fleet.start()
        try:
            report = run_fleet_load(
                "127.0.0.1", fleet.port, devices=5, connections=2,
                reports=8, schemes=("lofat",), workloads=("syringe_pump",))
            assert report.ok
        finally:
            summary = fleet.stop()
        stats_files = sorted(
            name for name in os.listdir(str(tmp_path / "state"))
            if name.startswith("stats-"))
        assert stats_files == ["stats-0.json", "stats-1.json"]
        for name in stats_files:
            with open(str(tmp_path / "state" / name)) as handle:
                payload = json.load(handle)
            assert payload["drained"] is True
            assert "server" in payload and "database" in payload
        assert len(summary.stats["per_worker"]) == 2


# ---------------------------------------------------------- load generator
class TestLoadGenerator:
    def test_sample_device_is_deterministic_and_in_range(self):
        population = 1_000_000
        first = [sample_device(random.Random(7), population)
                 for _ in range(50)]
        second = [sample_device(random.Random(7), population)
                  for _ in range(50)]
        assert first == second
        for device in first:
            rank = int(device.split("-")[1])
            assert 0 <= rank < population

    def test_sample_device_is_heavy_tailed(self):
        rng = random.Random(11)
        ranks = [int(sample_device(rng, 1_000_000).split("-")[1])
                 for _ in range(2000)]
        # A few hot devices dominate...
        assert ranks.count(0) > 50
        # ...while the deep tail still gets drawn.
        assert max(ranks) > 10_000

    def test_sample_device_reaches_every_device_of_a_small_population(self):
        rng = random.Random(3)
        for population in (2, 5):
            drawn = {sample_device(rng, population) for _ in range(500)}
            assert drawn == {"device-%07d" % rank
                             for rank in range(population)}

    def test_spec_validation(self):
        for field_name, value in (
            ("devices", 0), ("connections", 0), ("processes", 0),
            ("reports", 0), ("schemes", ()), ("workloads", ()),
            ("stale_fraction", 1.5), ("duplicate_fraction", -0.1),
        ):
            spec = FleetLoadSpec(**{field_name: value})
            with pytest.raises(ValueError):
                spec.validate()

    def test_report_merge_and_ok(self):
        left = FleetLoadReport(processes=1, connections=2, reports=10,
                               accepted=10, stale_injected=1,
                               stale_rejected=1, elapsed_seconds=1.0,
                               by_scheme={"lofat": 10})
        right = FleetLoadReport(processes=1, connections=2, reports=5,
                                accepted=5, elapsed_seconds=2.0,
                                by_scheme={"lofat": 3, "cflat": 2})
        left.merge(right)
        assert left.ok
        assert left.reports == 15 and left.accepted == 15
        assert left.by_scheme == {"lofat": 13, "cflat": 2}
        assert left.elapsed_seconds == 2.0
        assert left.reports_per_second == 7.5
        bad = FleetLoadReport(reports=1, accepted=0, rejected_unexpected=1)
        assert not bad.ok
        unrejected = FleetLoadReport(reports=1, accepted=1, stale_injected=1)
        assert not unrejected.ok

    def test_stale_and_duplicate_injections_are_rejected_by_a_live_fleet(
            self, tmp_path):
        """Every injected stale report (nonce withdrawn on disconnect) and
        duplicate report (nonce consumed) must be refused over the wire --
        the load generator doubling as a freshness check."""
        fleet = _make_fleet(tmp_path, workers=2, allow_shutdown=False)
        fleet.start()
        try:
            report = run_fleet_load(
                "127.0.0.1", fleet.port,
                devices=50, connections=3, reports=18,
                schemes=("lofat",), workloads=("syringe_pump",),
                stale_fraction=1.0, duplicate_fraction=0.5)
            assert report.ok, report.rejections
            assert report.stale_injected > 0
            assert report.stale_rejected == report.stale_injected
            assert report.duplicate_injected > 0
            assert report.duplicate_rejected == report.duplicate_injected
            # Stale retries travel on fresh connections the dispatcher may
            # route anywhere; the accounted reasons stay within the
            # freshness-preserving set by construction.
            assert STALE_REJECT_REASONS >= {
                "nonce_reused", "unknown_nonce", "unknown_program"}
        finally:
            fleet.stop()

    def test_reconnect_storms_churn_every_connection(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=1)
        fleet.start()
        try:
            report = run_fleet_load(
                "127.0.0.1", fleet.port,
                devices=20, connections=2, reports=30,
                schemes=("lofat",), workloads=("syringe_pump",),
                storms=2)
            assert report.ok, report.rejections
            assert report.storms_completed == 2
            assert report.reconnects >= report.storms_completed
            assert report.sessions > report.connections
        finally:
            fleet.stop()

    def test_multi_process_clients_aggregate(self, tmp_path):
        fleet = _make_fleet(tmp_path, workers=2)
        fleet.start()
        try:
            report = run_fleet_load(
                "127.0.0.1", fleet.port,
                devices=100, connections=4, processes=2, reports=24,
                schemes=("lofat",), workloads=("syringe_pump",))
            assert report.ok, report.rejections
            assert report.processes == 2
            assert report.connections == 4
            assert report.reports == 24
        finally:
            fleet.stop()
