"""Tests for trace serialisation and offline attestation replay."""

import pytest

from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace, ExecutionTrace
from repro.cpu.tracefile import (
    TraceFormatError,
    dumps_trace,
    loads_trace,
    open_trace,
    replay_trace,
    save_trace,
    trace_digest,
)
from repro.lofat.engine import LoFatEngine
from repro.workloads import get_workload


def run_workload(name):
    workload = get_workload(name)
    cpu = Cpu(workload.build(), inputs=list(workload.inputs),
              config=CpuConfig(collect_trace=True))
    engine = LoFatEngine()
    cpu.attach_monitor(engine.observe)
    result = cpu.run()
    return result, engine.finalize()


def capture_workload(name):
    """Compiled-engine (control-flow-only) capture of a workload execution."""
    workload = get_workload(name)
    cpu = Cpu(workload.build(), inputs=list(workload.inputs),
              config=CpuConfig(collect_trace=False))
    trace = ControlFlowTrace()
    cpu.attach_monitor(trace.observe)
    result = cpu.run()
    return result, trace


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["figure4_loop", "crc32", "dispatcher"])
    def test_serialisation_roundtrip_preserves_records(self, name):
        result, _ = run_workload(name)
        restored = loads_trace(dumps_trace(result.trace))
        assert len(restored) == len(result.trace)
        for original, copy in zip(result.trace, restored):
            assert copy.pc == original.pc
            assert copy.next_pc == original.next_pc
            assert copy.word == original.word
            assert copy.cycle == original.cycle
            assert copy.kind == original.kind
            assert copy.taken == original.taken
            assert copy.instruction.mnemonic == original.instruction.mnemonic

    def test_file_roundtrip(self, tmp_path):
        result, _ = run_workload("figure4_loop")
        path = str(tmp_path / "figure4.lftr")
        written = save_trace(result.trace, path)
        assert written > 0
        restored = open_trace(path)
        assert restored.control_flow_events == result.trace.control_flow_events

    def test_summary_preserved(self):
        result, _ = run_workload("bubble_sort")
        restored = loads_trace(dumps_trace(result.trace))
        assert restored.summary() == result.trace.summary()


class TestOfflineAttestation:
    @pytest.mark.parametrize("name", ["figure4_loop", "syringe_pump", "crc32"])
    def test_replay_produces_identical_measurement(self, name):
        """Offline attestation over a stored trace == live attestation."""
        result, live = run_workload(name)
        restored = loads_trace(dumps_trace(result.trace))
        offline_engine = LoFatEngine()
        count = replay_trace(restored, offline_engine.observe)
        offline = offline_engine.finalize()
        assert count == len(result.trace)
        assert offline.measurement == live.measurement
        assert offline.metadata.to_bytes() == live.metadata.to_bytes()

    def test_tampered_trace_changes_measurement(self):
        result, live = run_workload("figure4_loop")
        restored = loads_trace(dumps_trace(result.trace))
        # Redirect the destination of the first non-loop control-flow record:
        # an offline-tampered trace must not reproduce the live measurement.
        for record in restored:
            if record.is_control_flow:
                record.next_pc ^= 0x8
                break
        engine = LoFatEngine()
        replay_trace(restored, engine.observe)
        assert engine.finalize().measurement != live.measurement


class TestFormatV2:
    """Tracefile v2: control-flow-only captures with run counters."""

    @pytest.mark.parametrize("name", ["figure4_loop", "crc32", "dispatcher"])
    def test_fastpath_capture_roundtrips_byte_identically(self, name):
        result, trace = capture_workload(name)
        data = dumps_trace(trace)
        restored = loads_trace(data)
        assert isinstance(restored, ControlFlowTrace)
        # Byte-identical round trip: re-serialising reproduces the file.
        assert dumps_trace(restored) == data
        assert len(restored) == result.instructions
        assert restored.cycles == result.cycles
        assert restored.replayable
        assert restored.summary() == trace.summary()
        assert [r.src_dest for r in restored.control_flow_records] == \
               [r.src_dest for r in trace.control_flow_records]

    def test_version_negotiation(self):
        result, _ = run_workload("figure4_loop")
        _, capture = capture_workload("figure4_loop")
        v1 = dumps_trace(result.trace)
        v2 = dumps_trace(capture)
        assert v1[4:6] == b"\x01\x00"
        assert v2[4:6] == b"\x02\x00"
        assert isinstance(loads_trace(v1), ExecutionTrace)
        assert isinstance(loads_trace(v2), ControlFlowTrace)

    def test_v1_cannot_represent_cf_only_capture(self):
        _, capture = capture_workload("figure4_loop")
        with pytest.raises(TraceFormatError):
            dumps_trace(capture, version=1)

    def test_full_trace_can_be_compacted_to_v2(self):
        result, _ = run_workload("figure4_loop")
        data = dumps_trace(result.trace, version=2)
        restored = loads_trace(data)
        assert isinstance(restored, ControlFlowTrace)
        assert len(restored) == len(result.trace)
        assert restored.cycles == result.trace.cycles
        assert restored.control_flow_events == \
               result.trace.control_flow_events
        assert restored.summary() == result.trace.summary()

    def test_compacted_full_trace_equals_fastpath_capture(self):
        """v1-archived full traces convert to the same v2 bytes a live
        fast-path capture produces (the migration path for old archives)."""
        result, _ = run_workload("figure4_loop")
        _, capture = capture_workload("figure4_loop")
        assert dumps_trace(result.trace, version=2) == dumps_trace(capture)

    def test_replayable_flag_roundtrips(self):
        _, capture = capture_workload("figure4_loop")
        # A hook redirect: the step loop resumes away from where batched
        # delivery ended.
        record = capture.control_flow_records[0]
        capture.sync_straight_line(record.pc + 4, 0)
        capture.observe(record)
        restored = loads_trace(dumps_trace(capture))
        assert not restored.replayable

    def test_truncated_v2_counters(self):
        _, capture = capture_workload("figure4_loop")
        data = dumps_trace(capture)
        with pytest.raises(TraceFormatError):
            loads_trace(data[:12])  # header survives, counters cut off

    def test_trace_digest_is_content_address(self):
        _, capture = capture_workload("figure4_loop")
        data = dumps_trace(capture)
        assert trace_digest(data) == trace_digest(bytes(data))
        assert trace_digest(data) != trace_digest(data + b"\x00")

    def test_per_record_replay_of_cf_trace_is_refused(self):
        _, capture = capture_workload("figure4_loop")
        from repro.cpu.trace import TraceNotRecordedError
        with pytest.raises(TraceNotRecordedError):
            replay_trace(capture, lambda record: None)


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            loads_trace(b"XXXX" + bytes(6))

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError):
            loads_trace(b"LF")

    def test_truncated_records(self):
        result, _ = run_workload("figure4_loop")
        data = dumps_trace(result.trace)
        with pytest.raises(TraceFormatError):
            loads_trace(data[:-3])

    def test_unsupported_version(self):
        result, _ = run_workload("figure4_loop")
        data = bytearray(dumps_trace(result.trace))
        data[4] = 0xFF  # bump the version field
        with pytest.raises(TraceFormatError):
            loads_trace(bytes(data))


#: Byte layout of a record, and where the record array starts per version.
RECORD_SIZE = 22
V1_RECORDS_AT = 10
V2_RECORDS_AT = 27
KIND_AT, TAKEN_AT, WORD_AT = 20, 21, 12


def _v1_blob():
    result, _ = run_workload("figure4_loop")
    return dumps_trace(result.trace)


def _v2_blob():
    _, capture = capture_workload("figure4_loop")
    return dumps_trace(capture)


def _poke(blob, records_at, position, offset, value):
    """Overwrite bytes of record ``position`` at field ``offset``."""
    data = bytearray(blob)
    at = records_at + position * RECORD_SIZE + offset
    data[at:at + len(value)] = value
    return data


#: Record faults that name their position: (offset, value, message).
POSITIONED_FAULTS = {
    "taken": (TAKEN_AT, b"\x02", "record %d: invalid taken byte 2"),
    "undecodable": (WORD_AT, bytes(4), "record %d: undecodable"),
}


class TestRecordRejections:
    """Every record-level rejection, raised at a record other than 0."""

    POSITION = 3

    def test_blobs_have_enough_records(self):
        for blob, records_at in ((_v1_blob(), V1_RECORDS_AT),
                                 (_v2_blob(), V2_RECORDS_AT)):
            assert (len(blob) - records_at) // RECORD_SIZE > self.POSITION + 2

    @pytest.mark.parametrize("fault", sorted(POSITIONED_FAULTS))
    @pytest.mark.parametrize("version", [1, 2])
    def test_positioned_fault(self, fault, version):
        blob, records_at = ((_v1_blob(), V1_RECORDS_AT) if version == 1
                            else (_v2_blob(), V2_RECORDS_AT))
        offset, value, message = POSITIONED_FAULTS[fault]
        data = _poke(blob, records_at, self.POSITION, offset, value)
        with pytest.raises(TraceFormatError) as error:
            loads_trace(bytes(data))
        assert str(error.value).startswith(message % self.POSITION)

    @pytest.mark.parametrize("fault", sorted(POSITIONED_FAULTS))
    def test_fault_before_truncated_tail_wins(self, fault):
        offset, value, message = POSITIONED_FAULTS[fault]
        data = _poke(_v2_blob(), V2_RECORDS_AT, self.POSITION, offset, value)
        with pytest.raises(TraceFormatError) as error:
            loads_trace(bytes(data[:-5]))
        assert str(error.value).startswith(message % self.POSITION)

    def test_noncf_record_in_v2(self):
        data = _poke(_v2_blob(), V2_RECORDS_AT, self.POSITION, KIND_AT, b"\x00")
        with pytest.raises(TraceFormatError,
                           match="record %d: non-control-flow" % self.POSITION):
            loads_trace(bytes(data[:-5]))

    @pytest.mark.parametrize("version", [1, 2])
    def test_unknown_kind_code(self, version):
        blob, records_at = ((_v1_blob(), V1_RECORDS_AT) if version == 1
                            else (_v2_blob(), V2_RECORDS_AT))
        data = _poke(blob, records_at, self.POSITION, KIND_AT, b"\x09")
        # A later record's fault and a truncated tail must not mask it.
        data = _poke(data, records_at, self.POSITION + 1, TAKEN_AT, b"\x07")
        with pytest.raises(TraceFormatError,
                           match="^unknown branch-kind code: 9$"):
            loads_trace(bytes(data[:-5]))

    def test_first_of_two_faults_wins(self):
        data = _poke(_v2_blob(), V2_RECORDS_AT, self.POSITION + 1,
                     WORD_AT, bytes(4))
        data = _poke(data, V2_RECORDS_AT, self.POSITION, TAKEN_AT, b"\x05")
        with pytest.raises(TraceFormatError,
                           match="record %d: invalid taken" % self.POSITION):
            loads_trace(bytes(data))

    @pytest.mark.parametrize("version", [1, 2])
    def test_truncated_record(self, version):
        blob = _v1_blob() if version == 1 else _v2_blob()
        for cut in (1, RECORD_SIZE - 1, RECORD_SIZE, 3 * RECORD_SIZE + 4):
            with pytest.raises(TraceFormatError,
                               match="^truncated trace record$"):
                loads_trace(blob[:-cut])

    def test_count_beyond_the_file_is_truncation(self, tmp_path):
        data = bytearray(_v2_blob())
        data[6:10] = (0xFFFFFFFF).to_bytes(4, "little")  # record count
        path = tmp_path / "short.lftr"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="truncated trace record"):
            open_trace(str(path))

    @pytest.mark.parametrize("version", [1, 2])
    def test_trailing_bytes(self, version):
        blob = _v1_blob() if version == 1 else _v2_blob()
        with pytest.raises(TraceFormatError,
                           match="^3 trailing byte\\(s\\) after the trace$"):
            loads_trace(blob + b"abc")

    @pytest.mark.parametrize("version", [1, 2])
    def test_records_carry_decoded_instructions(self, version):
        from repro.isa.encoding import decode

        trace = loads_trace(_v1_blob() if version == 1 else _v2_blob())
        records = (trace.records if version == 1
                   else trace.control_flow_records)
        assert records
        for record in records:
            assert record.instruction == decode(record.word, address=record.pc)
            assert isinstance(record.taken, bool)
