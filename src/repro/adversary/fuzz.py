"""Mutation fuzzing for the two untrusted parser surfaces.

The trust boundary of the reproduction has exactly two parsers that consume
attacker-controllable bytes: serialised trace blobs
(:mod:`repro.cpu.tracefile`, what the capture-once store and the measurement
database ingest) and wire frames (:mod:`repro.attestation.framing`, what the
verifier service reads off a socket).  The fail-closed property both must
uphold:

    every byte string either parses and re-serialises **byte-identically**,
    or raises the surface's documented error family
    (:class:`~repro.cpu.tracefile.TraceFormatError`,
    :class:`~repro.attestation.framing.FramingError`) -- never any other
    exception, never a silent wrong parse.

:func:`fuzz_tracefile` / :func:`fuzz_framing` drive seeded mutation streams
(byte flips, truncations, extensions, length-prefix lies, field splices)
against real serialised artefacts and check the property on every mutant.
:func:`build_regression_corpus` produces the deterministic always-replayed
corpus of previously-interesting mutants that lives in
``tests/data/adversary_corpus/``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.seeds import derive_rng, resolve_fuzz_examples, resolve_seed
from repro.attestation.framing import (
    MAX_FRAME_BYTES,
    FrameType,
    FramingError,
    decode_frame,
    encode_frame,
)
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.cpu.tracefile import (
    _HEADER,
    _V2_COUNTERS,
    TraceFormatError,
    dumps_trace,
    loads_trace,
)
from repro.isa.assembler import assemble

#: Default mutation count per surface (the acceptance floor); scaled up via
#: ``REPRO_FUZZ_EXAMPLES`` for deep opt-in runs.
DEFAULT_EXAMPLES = 1000

#: A tiny looping program whose trace seeds the tracefile fuzzer: short
#: enough to serialise in microseconds, control-flow-rich enough that v2
#: blobs have several records to splice.
_SEED_PROGRAM_SOURCE = """
    .text
_start:
    li   s0, 3
loop:
    addi s0, s0, -1
    bnez s0, loop
    call leaf
    li   a0, 7
    li   a7, 1
    ecall
    li   a0, 0
    li   a7, 93
    ecall
leaf:
    ret
"""

#: (offset, size) spans whose values the "lie" mutation rewrites: the
#: version and record-count fields of the trace header and the v2 counters.
_TRACE_LIE_SPANS = (
    (4, 2),                                   # version
    (6, 4),                                   # record count
    (_HEADER.size, 1),                        # v2 flags
    (_HEADER.size + 1, 8),                    # v2 instructions
    (_HEADER.size + 9, 8),                    # v2 cycles
)

#: (offset, size) spans for frames: the type byte and the length prefix.
_FRAME_LIE_SPANS = (
    (0, 1),                                   # frame type
    (1, 4),                                   # payload length
)


@dataclass
class FuzzFailure:
    """One mutant that violated the fail-closed property."""

    surface: str
    iteration: int
    description: str
    blob_hex: str


@dataclass
class FuzzReport:
    """Outcome of one seeded fuzzing run against one surface."""

    surface: str
    seed: int
    iterations: int
    outcomes: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        tally = ", ".join(
            "%s=%d" % (key, self.outcomes[key]) for key in sorted(self.outcomes)
        )
        verdict = "ok" if self.ok else "%d FAILURES" % len(self.failures)
        return "%-10s seed=%d iterations=%d  %s  [%s]" % (
            self.surface, self.seed, self.iterations, tally, verdict
        )


def _resolve_iterations(iterations: Optional[int]) -> int:
    if iterations is not None:
        return int(iterations)
    return resolve_fuzz_examples(DEFAULT_EXAMPLES)


def _trace_seed_blobs() -> List[bytes]:
    """Serialised traces the mutator starts from (v1, v2, edge shapes)."""
    program = assemble(_SEED_PROGRAM_SOURCE)
    result = Cpu(program, config=CpuConfig(collect_trace=True,
                                         max_instructions=10_000)).run()
    full = result.trace
    cf = ControlFlowTrace.from_trace(full)
    non_replayable = ControlFlowTrace(
        records=list(cf.control_flow_records),
        instructions=len(full),
        cycles=full.records[-1].cycle if full.records else 0,
        replayable=False,
    )
    empty = ControlFlowTrace(records=[], instructions=0, cycles=0, replayable=True)
    return [
        dumps_trace(full),                    # v1 full trace
        dumps_trace(cf),                      # v2 control-flow capture
        dumps_trace(non_replayable),          # v2 with replayable flag clear
        dumps_trace(empty),                   # v2 with zero records
    ]


def _frame_seed_blobs() -> List[bytes]:
    """Encoded frames the mutator starts from (all sizes, several types)."""
    hello = json.dumps({"versions": [1], "client": "fuzz"}).encode("ascii")
    report = bytes(range(256)) * 4
    return [
        encode_frame(FrameType.HELLO, hello),
        encode_frame(FrameType.CHALLENGE, b"\x01" * 48),
        encode_frame(FrameType.REPORT, report),
        encode_frame(FrameType.BYE, b""),
        encode_frame(FrameType.VERDICT, b"{}"),
    ]


def _mutate(rng, blob: bytes, pool: Sequence[bytes], lie_spans) -> bytes:
    """One mutation: flip / truncate / extend / splice / field lie."""
    if not blob:
        return bytes([rng.randrange(256)])
    data = bytearray(blob)
    op = rng.randrange(6)
    if op == 0:
        for _ in range(rng.randint(1, 4)):
            index = rng.randrange(len(data))
            data[index] ^= rng.randint(1, 255)
        return bytes(data)
    if op == 1:
        return bytes(data[: rng.randrange(len(data))])
    if op == 2:
        tail = bytes(rng.randrange(256) for _ in range(rng.randint(1, 9)))
        return bytes(data) + tail
    if op == 3:
        other = rng.choice(list(pool))
        cut = rng.randrange(len(data) + 1)
        graft = rng.randrange(len(other) + 1) if other else 0
        return bytes(data[:cut]) + bytes(other[graft:])
    if op == 4:
        offset, size = rng.choice(list(lie_spans))
        if offset + size <= len(data):
            value = rng.choice([0, 1, 0xFF, rng.getrandbits(8 * size)])
            data[offset:offset + size] = int(value).to_bytes(
                8, "little"
            )[:size]
        return bytes(data)
    other = rng.choice(list(pool))
    if other:
        size = rng.choice([1, 2, 4, 8])
        dst = rng.randrange(len(data))
        src = rng.randrange(len(other))
        data[dst:dst + size] = other[src:src + size]
    return bytes(data)


def _check_tracefile(blob: bytes) -> Tuple[str, Optional[str]]:
    """Classify one blob: ('reject'|'roundtrip'|'failure', problem)."""
    try:
        trace = loads_trace(blob)
    except TraceFormatError:
        return "reject", None
    except Exception as exc:  # noqa: BLE001 - the property under test
        return "failure", "uncaught %s: %s" % (type(exc).__name__, exc)
    try:
        round_trip = dumps_trace(trace)
    except Exception as exc:  # noqa: BLE001
        return "failure", "re-serialisation raised %s: %s" % (
            type(exc).__name__, exc,
        )
    if round_trip != blob:
        return "failure", "silent wrong parse: round-trip differs from input"
    return "roundtrip", None


def _check_framing(blob: bytes) -> Tuple[str, Optional[str]]:
    """Classify one frame blob the same way."""
    try:
        frame_type, payload, rest = decode_frame(blob)
    except FramingError:
        return "reject", None
    except Exception as exc:  # noqa: BLE001
        return "failure", "uncaught %s: %s" % (type(exc).__name__, exc)
    try:
        round_trip = encode_frame(frame_type, payload) + rest
    except Exception as exc:  # noqa: BLE001
        return "failure", "re-encode raised %s: %s" % (type(exc).__name__, exc)
    if round_trip != blob:
        return "failure", "silent wrong parse: round-trip differs from input"
    return "roundtrip", None


def _fuzz_surface(
    surface: str,
    seed: Optional[int],
    iterations: Optional[int],
    seed_blobs,
    lie_spans,
    check,
) -> FuzzReport:
    seed = resolve_seed(seed)
    iterations = _resolve_iterations(iterations)
    pool = seed_blobs()
    rng = derive_rng(seed, "fuzz", surface)
    outcomes: Counter = Counter()
    failures: List[FuzzFailure] = []
    for iteration in range(iterations):
        blob = _mutate(rng, rng.choice(pool), pool, lie_spans)
        outcome, problem = check(blob)
        outcomes[outcome] += 1
        if problem is not None:
            failures.append(
                FuzzFailure(
                    surface=surface,
                    iteration=iteration,
                    description=problem,
                    blob_hex=blob.hex(),
                )
            )
    return FuzzReport(
        surface=surface,
        seed=seed,
        iterations=iterations,
        outcomes=dict(outcomes),
        failures=failures,
    )


def fuzz_tracefile(
    seed: Optional[int] = None, iterations: Optional[int] = None
) -> FuzzReport:
    """Fuzz the tracefile parser; see the module docstring for the property."""
    return _fuzz_surface(
        "tracefile", seed, iterations, _trace_seed_blobs, _TRACE_LIE_SPANS,
        _check_tracefile,
    )


def fuzz_framing(
    seed: Optional[int] = None, iterations: Optional[int] = None
) -> FuzzReport:
    """Fuzz the wire-frame parser; see the module docstring for the property."""
    return _fuzz_surface(
        "framing", seed, iterations, _frame_seed_blobs, _FRAME_LIE_SPANS,
        _check_framing,
    )


# --------------------------------------------------------------------------
# Regression corpus: previously-interesting mutants, replayed deterministically
# --------------------------------------------------------------------------

@dataclass
class CorpusEntry:
    """One checked-in mutant and the behaviour the parser owes it."""

    name: str
    surface: str            # "tracefile" | "framing"
    expected: str           # "reject" | "roundtrip"
    blob: bytes


def _edit(blob: bytes, offset: int, value: bytes) -> bytes:
    data = bytearray(blob)
    data[offset:offset + len(value)] = value
    return bytes(data)


def build_regression_corpus() -> List[CorpusEntry]:
    """The deterministic corpus (no randomness: derived from fixed seeds).

    Each entry is a mutant class that either has bitten during development
    of the hardened parsers or pins a boundary the fuzzer found interesting.
    """
    blobs = _trace_seed_blobs()
    v1, v2, empty_v2 = blobs[0], blobs[1], blobs[3]
    record0 = _HEADER.size + _V2_COUNTERS.size  # first v2 record offset
    frame = encode_frame(FrameType.REPORT, b"payload-bytes")
    entries = [
        CorpusEntry("trace_v1_roundtrip", "tracefile", "roundtrip", v1),
        CorpusEntry("trace_v2_roundtrip", "tracefile", "roundtrip", v2),
        CorpusEntry("trace_v2_empty", "tracefile", "roundtrip", empty_v2),
        CorpusEntry(
            "trace_bad_magic", "tracefile", "reject", b"XXXX" + v2[4:]
        ),
        CorpusEntry(
            "trace_bad_version", "tracefile", "reject",
            _edit(v2, 4, (3).to_bytes(2, "little")),
        ),
        CorpusEntry(
            "trace_truncated_header", "tracefile", "reject", v2[:5]
        ),
        CorpusEntry(
            "trace_truncated_counters", "tracefile", "reject",
            v2[:_HEADER.size + 3],
        ),
        CorpusEntry(
            "trace_truncated_record", "tracefile", "reject", v2[:-3]
        ),
        CorpusEntry(
            "trace_unknown_kind", "tracefile", "reject",
            _edit(v2, record0 + 20, b"\x07"),
        ),
        CorpusEntry(
            "trace_taken_two", "tracefile", "reject",
            _edit(v2, record0 + 21, b"\x02"),
        ),
        CorpusEntry(
            "trace_undefined_flag", "tracefile", "reject",
            _edit(v2, _HEADER.size, bytes([v2[_HEADER.size] | 0x80])),
        ),
        CorpusEntry(
            "trace_trailing_byte", "tracefile", "reject", v2 + b"\x00"
        ),
        CorpusEntry(
            "trace_count_overclaim", "tracefile", "reject",
            _edit(
                v2, 6,
                (int.from_bytes(v2[6:10], "little") + 1).to_bytes(4, "little"),
            ),
        ),
        CorpusEntry(
            "trace_count_underclaim", "tracefile", "reject",
            _edit(
                v2, 6,
                (int.from_bytes(v2[6:10], "little") - 1).to_bytes(4, "little"),
            ),
        ),
        CorpusEntry(
            "trace_undecodable_word", "tracefile", "reject",
            _edit(v2, record0 + 12, b"\x00\x00\x00\x00"),
        ),
        CorpusEntry(
            "trace_v2_noncf_record", "tracefile", "reject",
            _edit(v2, record0 + 20, b"\x00"),
        ),
        # Fuzzer-found: an instruction count with the u64 top bit set parsed
        # fine but could not re-serialise (len() cannot return it).
        CorpusEntry(
            "trace_huge_instructions", "tracefile", "roundtrip",
            _edit(v2, _HEADER.size + 1, (2 ** 63 + 17).to_bytes(8, "little")),
        ),
        CorpusEntry("frame_roundtrip", "framing", "roundtrip", frame),
        CorpusEntry(
            "frame_with_rest", "framing", "roundtrip",
            frame + encode_frame(FrameType.BYE, b""),
        ),
        CorpusEntry(
            "frame_empty_payload", "framing", "roundtrip",
            encode_frame(FrameType.BYE, b""),
        ),
        CorpusEntry("frame_truncated_header", "framing", "reject", frame[:3]),
        CorpusEntry("frame_truncated_payload", "framing", "reject", frame[:-1]),
        CorpusEntry(
            "frame_oversized_length", "framing", "reject",
            bytes([FrameType.REPORT])
            + (MAX_FRAME_BYTES + 1).to_bytes(4, "little"),
        ),
        CorpusEntry(
            "frame_unknown_type", "framing", "reject",
            _edit(frame, 0, b"\xee"),
        ),
        CorpusEntry(
            "frame_short_length_rest", "framing", "roundtrip",
            _edit(frame, 1, (4).to_bytes(4, "little")),
        ),
    ]
    return entries


def check_corpus_entry(entry: CorpusEntry) -> Optional[str]:
    """Replay one corpus entry; returns a problem description or None."""
    check = _check_tracefile if entry.surface == "tracefile" else _check_framing
    outcome, problem = check(entry.blob)
    if problem is not None:
        return "%s: %s" % (entry.name, problem)
    if outcome != entry.expected:
        return "%s: expected %s, got %s" % (entry.name, entry.expected, outcome)
    return None


def write_corpus(directory: str) -> List[str]:
    """Write the regression corpus to ``directory`` (blobs + manifest)."""
    os.makedirs(directory, exist_ok=True)
    manifest = {}
    written = []
    for entry in build_regression_corpus():
        filename = entry.name + ".bin"
        with open(os.path.join(directory, filename), "wb") as handle:
            handle.write(entry.blob)
        manifest[entry.name] = {
            "surface": entry.surface,
            "expected": entry.expected,
            "file": filename,
        }
        written.append(filename)
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return written


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Load a corpus previously written by :func:`write_corpus`."""
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    entries = []
    for name in sorted(manifest):
        meta = manifest[name]
        with open(os.path.join(directory, meta["file"]), "rb") as handle:
            blob = handle.read()
        entries.append(
            CorpusEntry(
                name=name,
                surface=meta["surface"],
                expected=meta["expected"],
                blob=blob,
            )
        )
    return entries
