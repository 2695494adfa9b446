"""Fail-closed property tests for StaticPolicy and the verifier pre-screen.

Two directions, both must fail closed:

* a loop bound *injected* into the program must be recovered by the
  analyzer, and lint must flag injected dead code — the static side cannot
  silently under-report;
* a policy bound *tightened* below the true trip count must make the
  verifier reject an otherwise benign attestation report with
  ``POLICY_VIOLATION`` — the enforcement side cannot silently accept.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attestation import Prover, Verifier
from repro.dataflow import (
    StaticPolicy,
    analyze_program,
    lint_program,
    new_findings,
)
from repro.dataflow.policy import LoopPolicy
from repro.isa.assembler import assemble
from repro.schemes import VerdictReason, get_scheme
from repro.workloads import get_workload

LOOP_TEMPLATE = """
_start:
    addi t0, x0, 0
    addi t1, x0, %d
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    addi a7, x0, 93
    ecall
"""


# ---------------------------------------------------------------- pure policy

class TestCheckLoopRecord:
    @given(
        entry=st.integers(min_value=0, max_value=0xFFFF),
        lo=st.integers(min_value=0, max_value=100),
        span=st.integers(min_value=0, max_value=100),
        iterations=st.integers(min_value=0, max_value=300),
    )
    def test_bound_semantics(self, entry, lo, span, iterations):
        policy = StaticPolicy(
            program_digest="d",
            loop_entries=frozenset({entry}),
            loop_bounds=(LoopPolicy(entry, lo, lo + span),),
            valid_pairs=frozenset(),
        )
        detail = policy.check_loop_record(entry, iterations)
        if lo <= iterations <= lo + span:
            assert detail is None
        else:
            assert detail is not None

    @given(entry=st.integers(min_value=4, max_value=0xFFFF))
    def test_unknown_entry_rejected_only_when_enforcing(self, entry):
        base = dict(
            program_digest="d",
            loop_entries=frozenset({0}),
            loop_bounds=(),
            valid_pairs=frozenset(),
        )
        strict = StaticPolicy(enforce_entries=True, **base)
        lenient = StaticPolicy(enforce_entries=False, **base)
        assert strict.check_loop_record(entry, 1) is not None
        assert lenient.check_loop_record(entry, 1) is None

    def test_with_bound_replaces_row(self):
        policy = StaticPolicy(
            program_digest="d",
            loop_entries=frozenset({8}),
            loop_bounds=(LoopPolicy(8, 0, 10),),
            valid_pairs=frozenset(),
        )
        tightened = policy.with_bound(8, 0, 3)
        assert tightened.bound_for(8) == LoopPolicy(8, 0, 3)
        assert tightened.check_loop_record(8, 10) is not None
        assert policy.check_loop_record(8, 10) is None


# ------------------------------------------------- analyzer vs injected facts

@given(n=st.integers(min_value=1, max_value=60))
@settings(max_examples=25, deadline=None)
def test_injected_trip_count_recovered(n):
    """The inferred bound tracks the literal loop bound in the source."""
    analysis = analyze_program(assemble(LOOP_TEMPLATE % n))
    loop = analysis.program.symbols["loop"]
    bound = analysis.loop_bounds[loop]
    # i counts 1..n; the back edge is taken while i < n.
    assert bound.max_back_edges == max(0, n - 1)

    true_iterations = max(0, n - 1)
    policy = analysis.policy
    assert policy.check_loop_record(loop, true_iterations) is None
    if true_iterations > 0:
        tightened = policy.with_bound(loop, 0, true_iterations - 1)
        assert tightened.check_loop_record(loop, true_iterations) is not None


@given(payload=st.integers(min_value=1, max_value=2047))
@settings(max_examples=25, deadline=None)
def test_injected_dead_code_flagged(payload):
    """Dead code spliced behind a jump surfaces as a *new* lint finding."""
    n = 12
    clean = analyze_program(assemble(LOOP_TEMPLATE % n))
    baseline = [f.to_json() for f in lint_program(clean)]

    injected_source = LOOP_TEMPLATE % n
    injected_source = injected_source.replace(
        "    addi a7, x0, 93",
        "    j    epilogue\n"
        "orphan:\n"
        "    addi a0, x0, %d\n" % payload +
        "epilogue:\n"
        "    addi a7, x0, 93",
    )
    analysis = analyze_program(assemble(injected_source))
    orphan = analysis.program.symbols["orphan"]
    assert orphan in analysis.unreachable_blocks
    fresh = new_findings(lint_program(analysis), baseline)
    assert any(f.kind == "dead-block" and f.address == orphan for f in fresh)


# ------------------------------------------------------- verifier integration

@pytest.fixture
def protocol():
    workload = get_workload("figure4_loop")
    program = workload.build()
    prover = Prover({workload.name: program}, device_id="device-1")
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key(
        "device-1", prover.keystore.export_for_verifier())
    return workload, program, prover, verifier


def _attest(workload, prover, verifier):
    challenge = verifier.challenge(workload.name, workload.inputs)
    return prover.attest(challenge)


class TestVerifierPolicyScreen:
    def test_default_policy_accepts_benign(self, protocol):
        workload, _, prover, verifier = protocol
        policy = verifier.install_policy(workload.name)
        assert verifier.installed_policy(workload.name) is policy
        report = _attest(workload, prover, verifier)
        verdict = verifier.verify(report, device_id="device-1")
        assert verdict.accepted, verdict

    def test_tightened_bound_rejects_benign_report(self, protocol):
        """The fail-closed direction: an over-tight policy must reject."""
        workload, program, prover, verifier = protocol
        scheme = get_scheme("lofat")
        _, measurement = scheme.measure_execution(
            program, list(workload.inputs))
        records = [r for r in measurement.metadata.loops if r.iterations > 0]
        assert records, "workload has no iterating loop records"
        target = records[0]

        policy = analyze_program(program).policy.with_bound(
            target.entry, 0, target.iterations - 1)
        verifier.install_policy(workload.name, policy)
        report = _attest(workload, prover, verifier)
        verdict = verifier.verify(report, device_id="device-1")
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.POLICY_VIOLATION

    def test_policy_screen_applies_whatever_the_reference(self, protocol):
        workload, program, prover, verifier = protocol
        scheme = get_scheme("lofat")
        _, measurement = scheme.measure_execution(
            program, list(workload.inputs))
        target = next(
            r for r in measurement.metadata.loops if r.iterations > 0)
        verifier.install_policy(
            workload.name,
            analyze_program(program).policy.with_bound(
                target.entry, 0, target.iterations - 1),
        )
        benign = (measurement.measurement, measurement.metadata.to_bytes())
        # Golden replay, a supplied (matching) reference, and the screen
        # alone all reject before any reference is consulted.
        for expected in (None, benign):
            report = _attest(workload, prover, verifier)
            verdict = verifier.verify(
                report, device_id="device-1", expected=expected)
            assert verdict.reason is VerdictReason.POLICY_VIOLATION
        report = _attest(workload, prover, verifier)
        verdict, challenge = verifier.screen(report, device_id="device-1")
        assert verdict.reason is VerdictReason.POLICY_VIOLATION
        assert challenge is None

    def test_install_policy_clears_memoised_verdicts(self, protocol):
        """A structural verdict cached before install must not leak through."""
        workload, program, prover, verifier = protocol
        report = _attest(workload, prover, verifier)
        assert verifier.screen(report, device_id="device-1")[0].accepted

        scheme = get_scheme("lofat")
        _, measurement = scheme.measure_execution(
            program, list(workload.inputs))
        target = next(
            r for r in measurement.metadata.loops if r.iterations > 0)
        verifier.install_policy(
            workload.name,
            analyze_program(program).policy.with_bound(
                target.entry, 0, target.iterations - 1),
        )
        second = _attest(workload, prover, verifier)
        verdict, _ = verifier.screen(second, device_id="device-1")
        assert verdict.reason is VerdictReason.POLICY_VIOLATION

    def test_install_policy_guards(self, protocol):
        workload, program, _, verifier = protocol
        with pytest.raises(KeyError):
            verifier.install_policy("no-such-program")
        foreign = StaticPolicy(
            program_digest="not-the-digest",
            loop_entries=frozenset(),
            loop_bounds=(),
            valid_pairs=frozenset(),
        )
        with pytest.raises(ValueError):
            verifier.install_policy(workload.name, foreign)
