"""Trust-boundary fuzzing: tracefile blobs and wire frames fail closed.

The property (checked per mutation): every byte string either parses and
re-serialises byte-identically, or raises the surface's documented error
family -- never an uncaught exception, never a silent wrong parse.  The
checked-in regression corpus replays previously-interesting mutants with no
randomness; the seeded fuzzers add fresh mutation streams on top
(``REPRO_FUZZ_EXAMPLES`` scales them for deep opt-in runs).
"""

import io
import os

import pytest

from repro.adversary.fuzz import (
    DEFAULT_EXAMPLES,
    build_regression_corpus,
    check_corpus_entry,
    fuzz_framing,
    fuzz_tracefile,
    load_corpus,
)
from repro.adversary.seeds import ENV_FUZZ_EXAMPLES, resolve_fuzz_examples
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.cpu.tracefile import (
    TraceFormatError,
    dumps_trace,
    loads_trace,
)
from repro.isa.assembler import assemble

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "adversary_corpus")

SEED = 4242


def _v2_blob():
    program = assemble("""
        .text
    _start:
        li   s0, 2
    loop:
        addi s0, s0, -1
        bnez s0, loop
        li   a0, 0
        li   a7, 93
        ecall
    """)
    result = Cpu(program, config=CpuConfig(collect_trace=True,
                                         max_instructions=1000)).run()
    return dumps_trace(ControlFlowTrace.from_trace(result.trace))


class TestFuzzExamplesEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_FUZZ_EXAMPLES, raising=False)
        assert resolve_fuzz_examples(1000) == 1000

    def test_env_scales(self, monkeypatch):
        monkeypatch.setenv(ENV_FUZZ_EXAMPLES, "50")
        assert resolve_fuzz_examples(1000) == 50

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_FUZZ_EXAMPLES, "many")
        with pytest.raises(ValueError):
            resolve_fuzz_examples(1000)

    def test_nonpositive_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_FUZZ_EXAMPLES, "0")
        with pytest.raises(ValueError):
            resolve_fuzz_examples(1000)


class TestFuzzers:
    """The acceptance floor runs in tier-1: >= 1000 mutations per surface."""

    def test_tracefile_surface_fails_closed(self):
        report = fuzz_tracefile(seed=SEED)
        assert report.iterations >= 1000 or os.environ.get(ENV_FUZZ_EXAMPLES)
        assert report.ok, "\n".join(
            "%s #%d: %s (blob %s)" % (
                f.surface, f.iteration, f.description, f.blob_hex
            )
            for f in report.failures
        )
        assert report.outcomes.get("reject", 0) > 0
        assert report.outcomes.get("roundtrip", 0) > 0

    def test_framing_surface_fails_closed(self):
        report = fuzz_framing(seed=SEED)
        assert report.iterations >= 1000 or os.environ.get(ENV_FUZZ_EXAMPLES)
        assert report.ok, "\n".join(
            "%s #%d: %s (blob %s)" % (
                f.surface, f.iteration, f.description, f.blob_hex
            )
            for f in report.failures
        )
        assert report.outcomes.get("reject", 0) > 0
        assert report.outcomes.get("roundtrip", 0) > 0

    def test_fuzzing_is_deterministic_in_seed(self):
        first = fuzz_tracefile(seed=SEED, iterations=200)
        second = fuzz_tracefile(seed=SEED, iterations=200)
        assert first.outcomes == second.outcomes

    def test_report_summary_line_mentions_seed(self):
        report = fuzz_framing(seed=SEED, iterations=50)
        assert "seed=%d" % SEED in report.summary_line()

    def test_explicit_iterations_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FUZZ_EXAMPLES, "5")
        report = fuzz_framing(seed=SEED, iterations=25)
        assert report.iterations == 25
        monkeypatch.delenv(ENV_FUZZ_EXAMPLES)
        assert fuzz_framing(seed=SEED, iterations=None).iterations == \
            DEFAULT_EXAMPLES


class TestRegressionCorpus:
    """Satellite: previously-interesting mutants, replayed with no randomness."""

    def test_checked_in_corpus_matches_builder(self):
        built = {entry.name: entry for entry in build_regression_corpus()}
        loaded = {entry.name: entry for entry in load_corpus(CORPUS_DIR)}
        assert set(built) == set(loaded), (
            "corpus drift: regenerate with "
            "repro.adversary.fuzz.write_corpus('tests/data/adversary_corpus')"
        )
        for name, entry in built.items():
            assert loaded[name].blob == entry.blob, "blob drift in %s" % name
            assert loaded[name].expected == entry.expected
            assert loaded[name].surface == entry.surface

    def test_corpus_replays_clean(self):
        problems = [
            problem
            for problem in (
                check_corpus_entry(entry) for entry in load_corpus(CORPUS_DIR)
            )
            if problem
        ]
        assert problems == []

    def test_corpus_covers_both_surfaces_and_outcomes(self):
        entries = load_corpus(CORPUS_DIR)
        combos = {(entry.surface, entry.expected) for entry in entries}
        assert combos == {
            ("tracefile", "reject"), ("tracefile", "roundtrip"),
            ("framing", "reject"), ("framing", "roundtrip"),
        }


class TestTracefileHardening:
    """Unit pins for the parser hardening the fuzzer exercises statistically."""

    def test_taken_byte_must_be_boolean(self):
        blob = bytearray(_v2_blob())
        blob[-1] = 2  # last record's taken byte
        with pytest.raises(TraceFormatError, match="taken"):
            loads_trace(bytes(blob))

    def test_undefined_flag_bits_rejected(self):
        blob = bytearray(_v2_blob())
        blob[10] |= 0x80  # v2 flags byte, directly after the header
        with pytest.raises(TraceFormatError, match="flag"):
            loads_trace(bytes(blob))

    def test_trailing_bytes_rejected_by_loads(self):
        blob = _v2_blob()
        with pytest.raises(TraceFormatError, match="trailing"):
            loads_trace(blob + b"\x00")

    def test_stream_reader_still_allows_embedding(self):
        # load_trace (stream form) must keep stopping at the end of the
        # trace so a blob can be embedded in a larger stream.
        from repro.cpu.tracefile import load_trace

        blob = _v2_blob()
        stream = io.BytesIO(blob + b"extra")
        trace = load_trace(stream)
        assert stream.read() == b"extra"
        assert dumps_trace(trace) == blob

    def test_noncf_record_in_v2_rejected(self):
        blob = bytearray(_v2_blob())
        record0 = 4 + 2 + 4 + 17  # header + v2 counters
        blob[record0 + 20] = 0  # kind byte -> NOT_CONTROL_FLOW
        with pytest.raises(TraceFormatError, match="non-control-flow"):
            loads_trace(bytes(blob))

    def test_undecodable_word_wrapped_as_format_error(self):
        blob = bytearray(_v2_blob())
        record0 = 27
        blob[record0 + 12:record0 + 16] = b"\x00\x00\x00\x00"
        with pytest.raises(TraceFormatError, match="undecodable"):
            loads_trace(bytes(blob))

    def test_huge_instruction_count_round_trips(self):
        # Fuzzer-found: u64 counts with the top bit set parsed but could not
        # re-serialise (len() cannot return them).
        blob = bytearray(_v2_blob())
        blob[11:19] = (2 ** 63 + 17).to_bytes(8, "little")
        restored = loads_trace(bytes(blob))
        assert restored.instructions == 2 ** 63 + 17
        assert dumps_trace(restored) == bytes(blob)
