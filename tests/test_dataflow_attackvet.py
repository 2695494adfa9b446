"""Static attack classification must agree with the execution oracle.

For candidates the static vetting claims to decide — PROVEN_DIVERGENT
redirects and PROVEN_INVISIBLE data-only corruptions — the claim is checked
against actual attacked runs under every scheme: a proven-divergent
redirect must change the (A, L) report key of every runtime scheme, and a
proven-invisible corruption must leave the key and the program output of
every scheme bit-identical.  This is the acceptance gate for replacing
execution-based vetting with static classification.
"""

import pytest

from repro.attacks.injector import ControlFlowRedirect, MemoryCorruption
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.exceptions import CpuError
from repro.dataflow import analyze_program
from repro.dataflow.attackvet import (
    PROVEN_DIVERGENT,
    PROVEN_INVISIBLE,
    UNKNOWN,
    classify_data_only,
    classify_redirect,
    predicted_detection,
)
from repro.schemes import get_scheme, scheme_names
from repro.workloads import get_workload

WORKLOADS = ("syringe_pump", "vulnerable_process")
RUNTIME_SCHEMES = ("lofat", "cflat")
FUEL = 400_000


def _measured_run(scheme_name, program, inputs, corruptions=()):
    """One bounded run under a scheme; None when the candidate crashes."""
    scheme = get_scheme(scheme_name)
    cpu = Cpu(
        program,
        inputs=list(inputs),
        config=CpuConfig(collect_trace=False, max_instructions=FUEL),
    )
    session = scheme.open_session(program)
    cpu.attach_monitor(session.observe)
    for corruption in corruptions:
        corruption.install(cpu)
    try:
        result = cpu.run()
    except CpuError:
        return None
    measurement = session.finalize()
    return result, (measurement.measurement, measurement.metadata.to_bytes())


def _setup(workload_name):
    workload = get_workload(workload_name)
    program = workload.build()
    analysis = analyze_program(program)
    profile = Cpu(
        program,
        inputs=list(workload.inputs),
        config=CpuConfig(collect_trace=True, max_instructions=FUEL),
    ).run()
    executed_pcs = sorted({r.pc for r in profile.trace.records})
    return workload, program, analysis, executed_pcs


def _divergent_redirects(analysis, executed_pcs, limit):
    """First ``limit`` statically proven-divergent (trigger, target) pairs."""
    block_starts = sorted(b.start for b in analysis.cfg.blocks)
    picked = []
    for trigger in executed_pcs:
        for target in block_starts:
            if target == trigger:
                continue
            verdict = classify_redirect(analysis, trigger, target)
            if verdict == PROVEN_DIVERGENT:
                picked.append((trigger, target))
                break
        if len(picked) >= limit:
            break
    return picked


def _invisible_address(program, analysis):
    """A word in the data region the analyzer proves no load observes."""
    size = CpuConfig().data_region_size
    for offset in range(size - 4, -1, -64):
        address = program.data_base + offset
        if classify_data_only(analysis, address, 4) == PROVEN_INVISIBLE:
            return address
    return None


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_proven_divergent_redirects_change_every_runtime_key(workload_name):
    workload, program, analysis, executed_pcs = _setup(workload_name)
    candidates = _divergent_redirects(analysis, executed_pcs, limit=4)
    assert candidates, "no statically decidable redirect found"

    agreed = 0
    for trigger, target in candidates:
        for scheme_name in RUNTIME_SCHEMES:
            benign = _measured_run(scheme_name, program, workload.inputs)
            assert benign is not None
            redirect = ControlFlowRedirect(trigger_pc=trigger, target=target)
            attacked = _measured_run(
                scheme_name, program, workload.inputs, [redirect])
            if attacked is None or not redirect.fired:
                continue  # crashed or never reached: oracle is silent
            assert attacked[1] != benign[1], (
                "%s: redirect 0x%x->0x%x proven divergent but %s key "
                "unchanged" % (workload_name, trigger, target, scheme_name)
            )
            assert predicted_detection(scheme_name, PROVEN_DIVERGENT) is True
            agreed += 1
    assert agreed, "no proven-divergent candidate could be executed"


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_proven_invisible_corruption_leaves_every_key_unchanged(workload_name):
    workload, program, analysis, executed_pcs = _setup(workload_name)
    address = _invisible_address(program, analysis)
    assert address is not None, "no provably unobserved data word found"
    trigger = executed_pcs[len(executed_pcs) // 2]

    for scheme_name in scheme_names():
        benign = _measured_run(scheme_name, program, workload.inputs)
        assert benign is not None
        corruption = MemoryCorruption(
            trigger_pc=trigger, address=address, value=0xDEADBEEF)
        attacked = _measured_run(
            scheme_name, program, workload.inputs, [corruption])
        assert attacked is not None
        assert corruption.fired
        assert attacked[1] == benign[1], (
            "%s: corruption at 0x%x proven invisible but %s key changed"
            % (workload_name, address, scheme_name)
        )
        assert attacked[0].output == benign[0].output
        assert predicted_detection(scheme_name, PROVEN_INVISIBLE) is False


def test_static_scheme_never_detects_runtime_attacks():
    """The static scheme's measurement ignores the run entirely."""
    workload, program, analysis, executed_pcs = _setup("syringe_pump")
    candidates = _divergent_redirects(analysis, executed_pcs, limit=1)
    assert candidates
    trigger, target = candidates[0]
    benign = _measured_run("static", program, workload.inputs)
    redirect = ControlFlowRedirect(trigger_pc=trigger, target=target)
    attacked = _measured_run("static", program, workload.inputs, [redirect])
    if attacked is not None and redirect.fired:
        assert attacked[1] == benign[1]
    assert predicted_detection("static", PROVEN_DIVERGENT) is False
    assert predicted_detection("static", UNKNOWN) is False


def test_predicted_detection_semantics():
    assert predicted_detection("lofat", PROVEN_DIVERGENT) is True
    assert predicted_detection("cflat", PROVEN_DIVERGENT) is True
    assert predicted_detection("lofat", PROVEN_INVISIBLE) is False
    assert predicted_detection("static", PROVEN_INVISIBLE) is False
    assert predicted_detection("lofat", UNKNOWN) is None
    assert predicted_detection("cflat", UNKNOWN) is None
