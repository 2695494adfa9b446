"""Tests for the unified attestation-scheme API and its three backends."""

import hashlib

import pytest

from repro.attestation import Prover, Verifier
from repro.attestation.protocol import AttestationChallenge
from repro.schemes.cflat import CFlatCostModel, measure_trace
from repro.service.database import MeasurementDatabase
from repro.cpu.core import Cpu, CpuConfig
from repro.lofat.engine import LoFatEngine
from repro.schemes import (
    SCHEME_REGISTRY,
    AttestationScheme,
    DuplicateSchemeError,
    MeasurementSession,
    SchemeConfigError,
    SchemeNotFoundError,
    SchemeRegistry,
    VerdictReason,
    all_schemes,
    get_scheme,
    scheme_names,
)
from repro.workloads import get_workload


class TestRegistry:
    def test_first_class_backends_registered(self):
        assert scheme_names() == ["cflat", "lofat", "static"]
        assert all(isinstance(s, AttestationScheme) for s in all_schemes())

    def test_unknown_scheme_raises_keyerror(self):
        with pytest.raises(SchemeNotFoundError, match="unknown attestation scheme"):
            get_scheme("quantum")
        # SchemeNotFoundError is a KeyError so callers can catch either.
        with pytest.raises(KeyError):
            get_scheme("quantum")

    def test_duplicate_registration_rejected(self):
        registry = SchemeRegistry()

        class First(AttestationScheme):
            name = "dup"
            def configure(self, params=None): return None
            def open_session(self, program, config=None): raise NotImplementedError

        class Second(First):
            pass

        registry.register(First)
        with pytest.raises(DuplicateSchemeError, match="already registered"):
            registry.register(Second)
        # The process-wide registry rejects a re-registration of a builtin.
        with pytest.raises(DuplicateSchemeError):
            SCHEME_REGISTRY.register(type(get_scheme("lofat")))

    def test_nameless_scheme_rejected(self):
        registry = SchemeRegistry()

        class Nameless(AttestationScheme):
            def configure(self, params=None): return None
            def open_session(self, program, config=None): raise NotImplementedError

        with pytest.raises(Exception, match="declares no name"):
            registry.register(Nameless)

    def test_contains_and_len(self):
        assert "lofat" in SCHEME_REGISTRY
        assert "nope" not in SCHEME_REGISTRY
        assert len(SCHEME_REGISTRY) == 3


class TestConfiguration:
    def test_lofat_configure_validates(self):
        config = get_scheme("lofat").configure({"max_nested_loops": 5})
        assert config.max_nested_loops == 5
        with pytest.raises(SchemeConfigError):
            get_scheme("lofat").configure({"no_such_knob": 1})
        with pytest.raises(SchemeConfigError):
            get_scheme("lofat").configure({"counter_width_bits": 0})

    def test_cflat_configure_validates(self):
        model = get_scheme("cflat").configure({"world_switch_cycles": 0})
        assert model.world_switch_cycles == 0
        with pytest.raises(SchemeConfigError):
            get_scheme("cflat").configure({"world_switch_cycles": -1})
        with pytest.raises(SchemeConfigError):
            get_scheme("cflat").configure({"loop_event_discount": 2.0})
        with pytest.raises(SchemeConfigError):
            get_scheme("cflat").configure({"no_such_knob": 1})

    def test_static_rejects_any_parameter(self):
        get_scheme("static").configure({})
        with pytest.raises(SchemeConfigError, match="no parameters"):
            get_scheme("static").configure({"anything": 1})

    def test_config_digests_distinct_and_deterministic(self):
        # The three default configs serialise differently, so their digests
        # differ; cross-scheme separation in the measurement database comes
        # from the key's explicit scheme element, not from the digest.
        digests = {s.name: s.config_digest() for s in all_schemes()}
        assert len(set(digests.values())) == len(digests)
        assert get_scheme("lofat").config_digest() == \
               get_scheme("lofat").config_digest()

    def test_lofat_config_digest_matches_pre_scheme_format(self):
        """Persisted measurement databases from before the scheme redesign
        must keep hitting: the lofat digest material is unchanged."""
        import hashlib as _hashlib
        import json as _json
        from dataclasses import asdict as _asdict

        from repro.lofat.config import LoFatConfig
        legacy = _hashlib.sha3_256(
            _json.dumps(_asdict(LoFatConfig()), sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert get_scheme("lofat").config_digest(LoFatConfig()) == legacy


def _measure(scheme_name, workload_name="figure4_loop", inputs=None):
    workload = get_workload(workload_name)
    program = workload.build()
    scheme = get_scheme(scheme_name)
    result, measured = scheme.measure_execution(
        program, workload.inputs if inputs is None else inputs,
        config=scheme.default_config(),
        cpu_config=CpuConfig(collect_trace=True))
    return program, result, measured


class TestSessions:
    def test_lofat_session_is_the_engine(self):
        """The lofat scheme hands out the engine itself; its per-record
        (traced) and compiled measurements agree."""
        program, _, measured = _measure("lofat", inputs=[4])
        session = get_scheme("lofat").open_session(program)
        assert type(session) is LoFatEngine
        assert isinstance(session, MeasurementSession)
        _, compiled = get_scheme("lofat").measure_execution(program, [4])
        assert measured.scheme == compiled.scheme == "lofat"
        assert measured.measurement == compiled.measurement
        assert measured.metadata.to_bytes() == compiled.metadata.to_bytes()

    def test_cflat_session_matches_trace_measurement(self):
        """The streaming session computes exactly measure_trace's hash."""
        program, result, measured = _measure("cflat")
        assert measured.measurement == measure_trace(result.trace)
        assert measured.stats["control_flow_events"] == \
               result.trace.control_flow_events
        assert measured.stats["overhead_cycles"] == \
               CFlatCostModel().overhead_cycles(result.trace.control_flow_events)
        assert len(measured.metadata) == 0

    def test_static_session_matches_image_hash(self):
        program, _, measured = _measure("static")
        image = (program.code_base.to_bytes(4, "little") + program.code
                 + program.data_base.to_bytes(4, "little") + program.data)
        assert measured.measurement == hashlib.sha3_256(image).digest()
        assert len(measured.measurement) == 32

    def test_reference_measurement_matches_session(self):
        for name in scheme_names():
            workload = get_workload("figure4_loop")
            program = workload.build()
            scheme = get_scheme(name)
            reference = scheme.reference_measurement(
                program, inputs=list(workload.inputs))
            _, _, measured = _measure(name)
            assert reference.measurement == measured.measurement, name
            assert reference.metadata.to_bytes() == \
                   measured.metadata.to_bytes(), name

    def test_sessions_finalize_idempotently(self):
        for name in ("cflat", "static"):
            _, _, measured = _measure(name)
            assert measured.measurement  # already finalised in _measure


class TestCostModels:
    """The cost of attesting is the session's ``stats``, for every scheme."""

    def test_parallel_schemes_add_zero_cycles(self):
        workload = get_workload("figure4_loop")
        plain = Cpu(workload.build(), inputs=list(workload.inputs)).run()
        for name in ("lofat", "static"):
            _, result, measured = _measure(name)
            assert measured.stats["processor_stall_cycles"] == 0
            assert result.cycles == plain.cycles

    def test_cflat_cost_linear_in_events(self):
        _, few, cost_few = _measure("cflat", inputs=[2])
        _, many, cost_many = _measure("cflat", inputs=[40])
        stall_few = cost_few.stats["processor_stall_cycles"]
        stall_many = cost_many.stats["processor_stall_cycles"]
        assert stall_many > stall_few > 0
        per_event = CFlatCostModel().per_event_cycles
        assert stall_few == few.trace.control_flow_events * per_event
        assert cost_few.stats["attested_cycles"] == few.cycles + stall_few

    def test_cflat_loop_event_discount_takes_effect(self):
        """The discount knob must change the cost the session reports."""
        scheme = get_scheme("cflat")
        workload = get_workload("figure4_loop")
        program = workload.build()
        discounted_config = scheme.configure({"loop_event_discount": 1.0})

        _, result, full = _measure("cflat", inputs=[16])
        _, discounted = scheme.measure_execution(
            program, [16], config=discounted_config)
        assert discounted.measurement == full.measurement  # same hash
        assert discounted.stats["loop_events"] > 0
        assert discounted.stats["overhead_cycles"] < \
               full.stats["overhead_cycles"]

    def test_cflat_discounted_cost_is_engine_independent(self):
        """At ``loop_event_discount=0.5`` the session charges the same
        overhead on both engines, and it is the cost model applied to the
        backward (loop) events of a collected trace -- the session's stats
        are the one home of C-FLAT's cost."""
        scheme = get_scheme("cflat")
        model = scheme.configure({"loop_event_discount": 0.5})
        workload = get_workload("figure4_loop")
        program = workload.build()
        overhead = {}
        for engine in ("compiled", "legacy"):
            _, measured = scheme.measure_execution(
                program, workload.inputs, config=model,
                cpu_config=CpuConfig(engine=engine))
            overhead[engine] = measured.stats["overhead_cycles"]
        assert overhead["compiled"] == overhead["legacy"]

        trace = Cpu(program, inputs=list(workload.inputs),
                    config=CpuConfig(collect_trace=True)).run().trace
        loop_events = sum(
            1 for record in trace.control_flow_records if record.is_backward)
        assert loop_events > 0
        assert overhead["compiled"] == model.overhead_cycles(
            trace.control_flow_events, loop_events=loop_events)
        assert not hasattr(scheme, "cost_model")


@pytest.fixture
def protocol_parts():
    workload = get_workload("auth_check")
    program = workload.build()
    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
    return workload, program, prover, verifier


class TestSchemeProtocol:
    @pytest.mark.parametrize("scheme", ["lofat", "cflat", "static"])
    def test_end_to_end_accept(self, protocol_parts, scheme):
        workload, _, prover, verifier = protocol_parts
        challenge = verifier.challenge(workload.name, workload.inputs,
                                       scheme=scheme)
        report = prover.attest(challenge)
        assert report.scheme == scheme
        verdict = verifier.verify(report)
        assert verdict.accepted, (scheme, verdict.reason)

    @pytest.mark.parametrize("scheme", ["lofat", "cflat", "static"])
    def test_database_mode_per_scheme(self, protocol_parts, scheme):
        workload, program, prover, verifier = protocol_parts
        measurement, metadata, _ = MeasurementDatabase().lookup_or_compute(
            program, tuple(workload.inputs), scheme=scheme)
        challenge = verifier.challenge(workload.name, workload.inputs,
                                       scheme=scheme)
        report = prover.attest(challenge)
        assert verifier.verify(
            report, expected=(measurement, metadata)).accepted

    def test_database_references_do_not_cross_schemes(self, protocol_parts):
        """A lofat reference must not satisfy a cflat lookup."""
        workload, program, _, _ = protocol_parts
        database = MeasurementDatabase()
        database.lookup_or_compute(program, tuple(workload.inputs),
                                   scheme="lofat")
        assert database.lookup(program, tuple(workload.inputs),
                               scheme="lofat") is not None
        assert database.lookup(program, tuple(workload.inputs),
                               scheme="cflat") is None

    def test_scheme_mismatch_fails_closed(self, protocol_parts):
        """A report answering with a different scheme than challenged must be
        rejected with SCHEME_MISMATCH, not crash or fall through."""
        workload, _, prover, verifier = protocol_parts
        challenge = verifier.challenge(workload.name, workload.inputs,
                                       scheme="lofat")
        report = prover.attest(challenge)
        report.scheme = "static"
        verdict = verifier.verify(report)
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.SCHEME_MISMATCH

    def test_unknown_report_scheme_fails_closed(self, protocol_parts):
        workload, _, prover, verifier = protocol_parts
        challenge = verifier.challenge(workload.name, workload.inputs)
        report = prover.attest(challenge)
        report.scheme = "quantum"
        verdict = verifier.verify(report)
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.SCHEME_MISMATCH

    def test_report_for_other_program_fails_closed(self):
        """A report answering a challenge on A with a (validly measured) run
        of B must be rejected: program_id is not covered by the signature,
        so the verifier binds it to the challenge explicitly."""
        auth = get_workload("auth_check")
        fig4 = get_workload("figure4_loop")
        programs = {w.name: w.build() for w in (auth, fig4)}
        prover = Prover(programs)
        verifier = Verifier()
        for name, program in programs.items():
            verifier.register_program(name, program)
        verifier.register_device_key("prover-0",
                                     prover.keystore.export_for_verifier())
        challenge = verifier.challenge(auth.name, auth.inputs)
        report = prover.attest(AttestationChallenge(
            program_id=fig4.name, inputs=tuple(fig4.inputs),
            nonce=challenge.nonce))
        verdict = verifier.verify(report)
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.PROGRAM_MISMATCH

    def test_challenge_for_unknown_scheme_raises(self, protocol_parts):
        workload, _, _, verifier = protocol_parts
        with pytest.raises(KeyError):
            verifier.challenge(workload.name, workload.inputs, scheme="quantum")

    def test_cflat_detects_attack_static_does_not(self):
        """The paper's Figure 1 claim through the unified API: control-flow
        schemes reject the attacked run, static attestation cannot see it."""
        from repro.attacks import get_attack
        scenario = get_attack("auth_flag_flip")
        workload = get_workload(scenario.workload_name)
        program = workload.build()
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0",
                                     prover.keystore.export_for_verifier())
        prover.install_attack(scenario.prover_hook(program))
        verdicts = {}
        for scheme in ("lofat", "cflat", "static"):
            challenge = verifier.challenge(
                workload.name, scenario.challenge_inputs, scheme=scheme)
            verdicts[scheme] = verifier.verify(prover.attest(challenge))
        assert not verdicts["lofat"].accepted
        assert not verdicts["cflat"].accepted
        assert verdicts["static"].accepted
