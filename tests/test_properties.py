"""Property-based tests (hypothesis) for core invariants.

Encoding round trips are covered in test_isa_encoding.py; this module focuses
on higher-level invariants of the LO-FAT pipeline:

* the measurement is a deterministic function of (program, input);
* the loop-compression bookkeeping never loses or invents control-flow events;
* the path encoder's output uniquely determines the event sequence that
  produced it (up to the configured truncation limit);
* the synthetic workload generator produces programs whose simulated output
  matches its Python reference model for arbitrary parameters.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import Cpu
from repro.cpu.trace import ControlFlowTrace
from repro.isa.assembler import assemble
from repro.lofat.config import LoFatConfig
from repro.lofat.loop_counter_memory import LoopCounterMemory
from repro.lofat.path_encoder import LoopPathEncoder, PathEncoding
from repro.lofat.target_cam import TargetCam
from repro.schemes import get_scheme
from repro.workloads import get_workload
from repro.workloads.generator import SyntheticWorkloadGenerator


def _lofat_with_capture(program, inputs):
    """LO-FAT-measure ``program`` with a control-flow capture attached."""
    capture = ControlFlowTrace()
    _, measurement = get_scheme("lofat").measure_execution(
        program, inputs, hooks=[lambda cpu: cpu.attach_monitor(capture.observe)])
    return capture, measurement

# ----------------------------------------------------------------- encoder

#: One loop event: a conditional outcome, a jump or an indirect target.
_EVENT = st.one_of(
    st.booleans().map(lambda taken: ("cond", taken)),
    st.just(("jump", None)),
    st.integers(min_value=0, max_value=0xFFFF).map(lambda t: ("indirect", t * 4)),
)


def _apply_events(encoder, events):
    for kind, value in events:
        if kind == "cond":
            encoder.on_conditional(value)
        elif kind == "jump":
            encoder.on_direct_jump()
        else:
            encoder.on_indirect(value)


class TestPathEncoderProperties:
    @given(events=st.lists(_EVENT, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_encoding_deterministic(self, events):
        a = LoopPathEncoder()
        b = LoopPathEncoder()
        _apply_events(a, events)
        _apply_events(b, events)
        assert a.finish() == b.finish()

    @given(events=st.lists(_EVENT, min_size=1, max_size=4),
           other=st.lists(_EVENT, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_distinct_short_event_sequences_have_distinct_encodings(self, events, other):
        """Below the truncation limit, different (cond/jump) sequences encode
        differently unless they are bit-equivalent by construction."""
        config = LoFatConfig()
        a = LoopPathEncoder(config)
        b = LoopPathEncoder(config)
        _apply_events(a, events)
        _apply_events(b, other)
        enc_a, enc_b = a.finish(), b.finish()
        if enc_a.bits == enc_b.bits:
            # Equal encodings are allowed only when the per-event bit strings
            # coincide (e.g. a taken conditional and a jump both encode '1').
            assert enc_a.width == enc_b.width
        else:
            assert enc_a.path_id != enc_b.path_id

    @given(events=st.lists(_EVENT, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_encoding_width_never_exceeds_limit(self, events):
        config = LoFatConfig(max_branches_per_path=16)
        encoder = LoopPathEncoder(config)
        _apply_events(encoder, events)
        encoding = encoder.finish()
        assert encoding.width <= config.max_branches_per_path
        assert encoding.branch_count == len(events)

    @given(bits=st.text(alphabet="01", max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_serialisation_roundtrip_uniqueness(self, bits):
        a = PathEncoding(bits=bits)
        b = PathEncoding(bits=bits)
        assert a.to_bytes() == b.to_bytes()
        assert a.path_id == b.path_id


def _reference_encoding(events, config):
    """The path encoding as a bit string, built chunk by chunk: each event's
    bits are appended only if they still fit in ``max_branches_per_path``."""
    cam = TargetCam(config.indirect_target_bits)
    bits, codes, truncated = "", [], False
    for kind, value in events:
        if kind == "cond":
            chunk = "1" if value else "0"
        elif kind == "jump":
            chunk = "1"
        else:
            code = cam.encode(value)
            codes.append(code)
            chunk = format(code, "0%db" % config.indirect_target_bits)
        if len(bits) + len(chunk) > config.max_branches_per_path:
            truncated = True
        else:
            bits += chunk
    return PathEncoding(bits=bits, indirect_codes=tuple(codes[:255]),
                        branch_count=len(events), truncated=truncated)


class TestIntegerPathState:
    @given(events=st.lists(_EVENT, max_size=24),
           limit=st.integers(min_value=1, max_value=20),
           code_bits=st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_string_reference(self, events, limit, code_bits):
        """The integer value/width state encodes exactly what the bit-string
        model does, truncation included, and its path ID is the encoding's."""
        config = LoFatConfig(max_branches_per_path=limit, indirect_target_bits=code_bits,
                             max_indirect_branches_per_path=0)
        encoder = LoopPathEncoder(config)
        _apply_events(encoder, events)
        path_id = encoder.path_id
        encoding = encoder.finish()
        assert encoding == _reference_encoding(events, config)
        assert path_id == encoding.path_id


class TestCounterMemoryProperties:
    @given(paths=st.lists(st.text(alphabet="01", min_size=1, max_size=8), min_size=1,
                          max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_total_iterations_equals_recorded_paths(self, paths):
        memory = LoopCounterMemory(LoFatConfig(counter_width_bits=16))
        for bits in paths:
            memory.record_path(PathEncoding(bits=bits).path_id)
        assert memory.total_iterations == len(paths)
        assert memory.distinct_paths == len(set(paths))

    @given(paths=st.lists(st.text(alphabet="01", min_size=1, max_size=8), min_size=1,
                          max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_first_seen_order_matches_input_order(self, paths):
        memory = LoopCounterMemory(LoFatConfig(counter_width_bits=16))
        for bits in paths:
            memory.record_path(PathEncoding(bits=bits).path_id)
        seen = []
        for bits in paths:
            if bits not in seen:
                seen.append(bits)
        assert [path_id for path_id, _ in memory.paths_in_first_seen_order()] == [
            PathEncoding(bits=bits).path_id for bits in seen]


class TestTargetCamProperties:
    @given(targets=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFC), max_size=64),
           bits=st.integers(min_value=2, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_codes_are_stable_and_bounded(self, targets, bits):
        cam = TargetCam(code_bits=bits)
        codes = {}
        for target in targets:
            code = cam.encode(target)
            assert 0 <= code < (1 << bits)
            if target in codes:
                assert codes[target] == code
            elif code != 0:
                codes[target] = code
        assert cam.occupancy <= cam.capacity
        # Distinct non-overflow codes never collide.
        assert len(set(codes.values())) == len(codes)


class TestMeasurementProperties:
    @given(iterations=st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_figure4_measurement_deterministic_per_input(self, iterations):
        workload = get_workload("figure4_loop")
        program = workload.build()
        _, a = get_scheme("lofat").measure_execution(program, [iterations])
        _, b = get_scheme("lofat").measure_execution(program, [iterations])
        assert a.measurement == b.measurement
        assert a.metadata.to_bytes() == b.metadata.to_bytes()

    @given(iterations=st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_event_conservation_invariant(self, iterations):
        """hashed pairs + compressed pairs == control-flow events, always."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        capture, measurement = _lofat_with_capture(program, [iterations])
        stats = measurement.stats
        assert (stats["pairs_hashed"] + stats["pairs_compressed"]
                == capture.control_flow_events)

    @given(iterations=st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_metadata_iterations_match_input(self, iterations):
        """The figure-4 loop reports exactly the requested iteration count."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        _, measurement = get_scheme("lofat").measure_execution(program, [iterations])
        loop_records = measurement.metadata.loops
        assert len(loop_records) == (1 if iterations >= 1 else 0)
        if loop_records:
            assert loop_records[0].iterations == iterations


class TestSyntheticGeneratorProperties:
    @given(branches=st.integers(min_value=1, max_value=10),
           filler=st.integers(min_value=0, max_value=4),
           iterations=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_programs_match_reference_model(self, branches, filler,
                                                      iterations, seed):
        generator = SyntheticWorkloadGenerator(
            branches_per_iteration=branches,
            filler_per_branch=filler,
            iterations=iterations,
            seed=seed,
        )
        workload = generator.workload()
        program = assemble(workload.source)
        cpu = Cpu(program)
        result = cpu.run()
        assert result.output == workload.expected_output

    @given(branches=st.integers(min_value=1, max_value=8),
           iterations=st.integers(min_value=2, max_value=10),
           seed=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_attestation_invariants_hold_on_random_programs(self, branches,
                                                            iterations, seed):
        generator = SyntheticWorkloadGenerator(
            branches_per_iteration=branches,
            filler_per_branch=1,
            iterations=iterations,
            seed=seed,
        )
        program = assemble(generator.source())
        capture, measurement = _lofat_with_capture(program, [])
        stats = measurement.stats
        assert (stats["pairs_hashed"] + stats["pairs_compressed"]
                == capture.control_flow_events)
        assert stats["hash_engine"]["dropped_pairs"] == 0
        for loop in measurement.metadata:
            assert sum(p.iterations for p in loop.paths) == loop.iterations
