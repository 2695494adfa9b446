"""Serialisation of execution traces (capture once, attest offline).

The LO-FAT hardware consumes the retired-instruction stream live, but for
development, debugging, regression archiving -- and, at campaign scale, the
capture-once / verify-many pipeline -- it is convenient to capture a trace
once and re-run the attestation engines over it offline -- exactly what the
authors did with their ModelSim dumps.  This module provides a compact,
versioned binary format for :class:`repro.cpu.trace.ExecutionTrace` (format
v1) and :class:`repro.cpu.trace.ControlFlowTrace` (format v2) plus a helper
that replays a stored full trace through any monitor (e.g. a
:class:`repro.lofat.engine.LoFatEngine`).

Format (little-endian):

* header: magic ``LFTR``, format version (u16), record count (u32)
* v2 only: flags (u8; bit 0 = replayable), total retired instructions (u64),
  final cycle (u64) -- the straight-line run counters a control-flow-only
  capture cannot derive from its records
* per record: index (u32), cycle (u32), pc (u32), word (u32), next_pc (u32),
  kind (u8), taken (u8)

Version negotiation happens in the reader: v1 archives deserialise to a full
:class:`ExecutionTrace` exactly as before, v2 files to a
:class:`ControlFlowTrace`.  v1 cannot represent a compiled-engine (control-flow
only) capture -- writing one as v1 is an error rather than a silent loss.

The decoded instruction is reconstructed from the stored instruction word, so
round-tripping a trace preserves everything the LO-FAT engine needs.

The reader parses the record array in one pass: it reads the bytes of all
``count`` records at once, unpacks them with ``struct.iter_unpack`` and
decodes each distinct ``(word, pc)`` once per call.  Records are checked in
file order and every rejection names the first faulty record, so a fault in
record *k* is reported even when the file is also truncated after it.
"""

from __future__ import annotations

import hashlib
import io
import struct
from typing import BinaryIO, Callable, Dict, Iterable, List, Tuple, Union

from repro.cpu.trace import (
    BranchKind,
    ControlFlowTrace,
    ExecutionTrace,
    TraceRecord,
)
from repro.isa.encoding import EncodingError, decode
from repro.isa.instructions import Instruction

#: File magic and current format version.
MAGIC = b"LFTR"
VERSION = 2
#: Versions this reader understands.
SUPPORTED_VERSIONS = (1, 2)

_HEADER = struct.Struct("<4sHI")
_V2_COUNTERS = struct.Struct("<BQQ")
_RECORD = struct.Struct("<IIIIIBB")

#: v2 flag bits.
_FLAG_REPLAYABLE = 0x01

#: Stable numeric codes for the branch kinds.
_KIND_TO_CODE = {
    BranchKind.NOT_CONTROL_FLOW: 0,
    BranchKind.CONDITIONAL: 1,
    BranchKind.DIRECT_JUMP: 2,
    BranchKind.DIRECT_CALL: 3,
    BranchKind.INDIRECT_JUMP: 4,
    BranchKind.INDIRECT_CALL: 5,
    BranchKind.RETURN: 6,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or has an unsupported version."""


def _pack_record(record: TraceRecord) -> bytes:
    return _RECORD.pack(
        record.index,
        record.cycle,
        record.pc,
        record.word,
        record.next_pc,
        _KIND_TO_CODE[record.kind],
        1 if record.taken else 0,
    )


def dump_trace(
    trace: Union[ExecutionTrace, ControlFlowTrace],
    stream: BinaryIO,
    version: int = None,
) -> int:
    """Write ``trace`` to a binary ``stream``; returns the number of bytes.

    The version is negotiated from the trace type by default: a full
    :class:`ExecutionTrace` keeps the v1 layout (existing archives and
    tooling stay byte-identical), a :class:`ControlFlowTrace` needs v2.
    Passing ``version`` explicitly forces a format; requesting v1 for a
    control-flow-only capture raises :class:`TraceFormatError` because v1
    has no way to carry the straight-line run counters.
    """
    cf_only = isinstance(trace, ControlFlowTrace)
    if version is None:
        version = 2 if cf_only else 1
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError("unsupported trace version: %d" % version)
    if version == 1:
        if cf_only:
            raise TraceFormatError(
                "format v1 cannot represent a control-flow-only capture "
                "(straight-line run counters would be lost); write v2"
            )
        written = stream.write(_HEADER.pack(MAGIC, 1, len(trace)))
        for record in trace:
            written += stream.write(_pack_record(record))
        return written

    if not cf_only:
        trace = ControlFlowTrace.from_trace(trace)
    records = trace.control_flow_records
    flags = _FLAG_REPLAYABLE if trace.replayable else 0
    written = stream.write(_HEADER.pack(MAGIC, 2, len(records)))
    # trace.instructions, not len(trace): __len__ cannot return a u64 whose
    # top bit is set (OverflowError), but the field is a full u64 on disk --
    # a parsed blob must always re-serialise (fuzzer-found asymmetry).
    written += stream.write(
        _V2_COUNTERS.pack(flags, trace.instructions, trace.cycles)
    )
    for record in records:
        written += stream.write(_pack_record(record))
    return written


def dumps_trace(
    trace: Union[ExecutionTrace, ControlFlowTrace], version: int = None
) -> bytes:
    """Serialise ``trace`` to bytes."""
    buffer = io.BytesIO()
    dump_trace(trace, buffer, version=version)
    return buffer.getvalue()


#: Largest single ``read`` of record bytes: the record count is an untrusted
#: u32, so a stream is read in bounded chunks rather than asked for up to
#: ~94 GB at once (a short file then ends the loop early).
_READ_CHUNK = 1 << 20


def _read_record_bytes(stream: BinaryIO, size: int) -> bytes:
    """Read up to ``size`` bytes (fewer only at end of stream)."""
    chunks = []
    while size > 0:
        chunk = stream.read(min(size, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _reject_record(position: int, kind_code: int, taken: int,
                   control_flow_only: bool) -> None:
    """Raise the :class:`TraceFormatError` for a record that fails a field
    check (same checks, in the same order, as the parse loop's fast test)."""
    if kind_code not in _CODE_TO_KIND:
        raise TraceFormatError("unknown branch-kind code: %d" % kind_code)
    if control_flow_only and kind_code == _KIND_TO_CODE[BranchKind.NOT_CONTROL_FLOW]:
        raise TraceFormatError(
            "record %d: non-control-flow record in a v2 (control-flow-only) trace"
            % position
        )
    raise TraceFormatError(
        "record %d: invalid taken byte %d (must be 0 or 1)" % (position, taken)
    )


def _read_records(
    stream: BinaryIO, count: int, control_flow_only: bool = False
) -> List[TraceRecord]:
    """Parse ``count`` records in one pass over one read of their bytes.

    Every complete record is checked in order before a short tail is
    reported, so the first faulty record wins over a truncation after it.
    Each distinct ``(word, pc)`` is decoded once per call; the memo is local
    so no process-wide state outlives the parse.
    """
    size = _RECORD.size
    data = _read_record_bytes(stream, count * size)
    complete = len(data) // size
    kinds = _CODE_TO_KIND
    noncf_code = (
        _KIND_TO_CODE[BranchKind.NOT_CONTROL_FLOW] if control_flow_only else None
    )
    decoded: Dict[Tuple[int, int], Instruction] = {}
    records: List[TraceRecord] = []
    append = records.append
    for index, cycle, pc, word, next_pc, kind_code, taken in _RECORD.iter_unpack(
        memoryview(data)[:complete * size]
    ):
        kind = kinds.get(kind_code)
        if kind is None or kind_code == noncf_code or taken > 1:
            _reject_record(len(records), kind_code, taken, control_flow_only)
        instruction = decoded.get((word, pc))
        if instruction is None:
            try:
                instruction = decode(word, address=pc)
            except EncodingError as exc:
                raise TraceFormatError(
                    "record %d: undecodable instruction word 0x%08x: %s"
                    % (len(records), word, exc)
                ) from exc
            decoded[(word, pc)] = instruction
        append(TraceRecord(index, cycle, pc, word, instruction, next_pc, kind,
                           taken == 1))
    if complete != count:
        raise TraceFormatError("truncated trace record")
    return records


def load_trace(stream: BinaryIO) -> Union[ExecutionTrace, ControlFlowTrace]:
    """Read a trace from a binary ``stream`` (negotiates the format version).

    Returns an :class:`ExecutionTrace` for v1 files and a
    :class:`ControlFlowTrace` for v2 files.
    """
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError("bad magic: %r" % magic)
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError("unsupported trace version: %d" % version)

    if version == 1:
        return ExecutionTrace(records=_read_records(stream, count))

    counters = stream.read(_V2_COUNTERS.size)
    if len(counters) != _V2_COUNTERS.size:
        raise TraceFormatError("truncated v2 trace counters")
    flags, instructions, cycles = _V2_COUNTERS.unpack(counters)
    if flags & ~_FLAG_REPLAYABLE:
        raise TraceFormatError("undefined v2 flag bits set: 0x%02x" % flags)
    return ControlFlowTrace(
        records=_read_records(stream, count, control_flow_only=True),
        instructions=instructions,
        cycles=cycles,
        replayable=bool(flags & _FLAG_REPLAYABLE),
    )


def loads_trace(data: bytes) -> Union[ExecutionTrace, ControlFlowTrace]:
    """Deserialise a trace from bytes.

    Unlike the stream reader :func:`load_trace` (which stops at the end of
    the trace so a trace can be embedded in a larger stream), this rejects
    trailing bytes: a standalone blob that keeps going after the declared
    record count is malformed, not a trace plus luggage.
    """
    stream = io.BytesIO(data)
    trace = load_trace(stream)
    trailing = len(data) - stream.tell()
    if trailing:
        raise TraceFormatError("%d trailing byte(s) after the trace" % trailing)
    return trace


def trace_digest(data: bytes) -> str:
    """Content address of a serialised trace (SHA3-256 over the bytes).

    This is the key the content-addressed trace store and the measurement
    database's trace-keyed entries use: two captures that produced the same
    serialised trace share one digest, whatever signature they were captured
    under.
    """
    return hashlib.sha3_256(data).hexdigest()


def save_trace(
    trace: Union[ExecutionTrace, ControlFlowTrace], path: str, version: int = None
) -> int:
    """Write ``trace`` to ``path``; returns the number of bytes written."""
    with open(path, "wb") as handle:
        return dump_trace(trace, handle, version=version)


def open_trace(path: str) -> Union[ExecutionTrace, ControlFlowTrace]:
    """Load a trace previously written by :func:`save_trace`."""
    with open(path, "rb") as handle:
        return load_trace(handle)


def replay_trace(
    trace: Union[ExecutionTrace, Iterable[TraceRecord]],
    monitor: Callable[[TraceRecord], None],
) -> int:
    """Feed every record of a *full* ``trace`` to ``monitor``; returns the count.

    This is the per-record offline-attestation path: replaying a stored full
    trace through a fresh :class:`repro.lofat.engine.LoFatEngine` yields
    exactly the same measurement and metadata as live observation did.  A
    :class:`ControlFlowTrace` cannot be replayed per record (the monitor
    would miss the straight-line instructions its loop-exit checks need);
    replay those through a scheme's
    :meth:`repro.schemes.base.AttestationScheme.replay_measurement`, which
    drives the batched observation path instead.
    """
    count = 0
    for record in trace:
        monitor(record)
        count += 1
    return count
