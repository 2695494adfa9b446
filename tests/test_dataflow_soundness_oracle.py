"""The soundness oracle: no statically proven fact may be violated dynamically.

Every program in the golden lang corpus, the full compiled family matrix and
the adversary generator's benign variants is executed on the reference CPU,
and the dynamic evidence is checked against the static claims:

* every executed control-flow ``(src, dest)`` pair is in ``valid_pairs``;
* no instruction of a proven-unreachable block retires;
* every LO-FAT loop record satisfies the StaticPolicy (entry set and
  trip-count interval);
* no statically dead register definition is read before redefinition.

A failure here is a bug in the abstract interpreter or the loop-bound
inference, never in the program under test.
"""

import pytest

from repro.adversary.generator import DEFAULT_WORKLOADS, generate_suite
from repro.cpu.core import CpuConfig
from repro.dataflow import analyze_program
from repro.dataflow.semantics import register_def, register_uses
from repro.isa.assembler import assemble
from repro.lang.corpus import build_corpus
from repro.lang.families import family_names, generate_family
from repro.schemes import get_scheme
from repro.workloads import get_workload

#: Deterministic seed for the family matrix and the adversary suites (the
#: corpus' own pinned seed keeps its inputs stable already).
ORACLE_SEED = 4711


def _corpus_targets():
    for entry in build_corpus():
        yield entry.name, assemble(entry.assembly), tuple(entry.inputs)


def _family_targets():
    for family in family_names():
        for workload in generate_family(family, seed=ORACLE_SEED):
            yield workload.name, workload.build(), tuple(workload.inputs)


def _check_soundness(name, program, inputs):
    analysis = analyze_program(program)
    policy = analysis.policy
    scheme = get_scheme("lofat")
    result, measurement = scheme.measure_execution(
        program, list(inputs), cpu_config=CpuConfig(collect_trace=True))

    valid_pairs = analysis.valid_pairs
    for pair in result.trace.executed_edges:
        assert pair in valid_pairs, (
            "%s: executed edge (0x%x, 0x%x) missing from valid_pairs"
            % (name, pair[0], pair[1])
        )

    executed = {record.pc for record in result.trace.records}
    for start in analysis.unreachable_blocks:
        block = analysis.cfg.block_starting_at(start)
        assert block is not None
        for instr in block.instructions:
            assert instr.address not in executed, (
                "%s: proven-unreachable block 0x%x executed" % (name, start)
            )

    for record in measurement.metadata.loops:
        detail = policy.check_loop_record(record.entry, record.iterations)
        assert detail is None, "%s: %s" % (name, detail)

    _check_dead_defs(name, analysis, result)


def _check_dead_defs(name, analysis, result):
    """A statically dead definition must never be read before redefinition."""
    dead = {(d.pc, d.register) for d in analysis.liveness.dead_defs}
    if not dead:
        return
    instruction_at = analysis.instruction_at
    #: register -> pc of the dead definition currently holding it (if any).
    pending = {}
    for record in result.trace.records:
        instr = instruction_at(record.pc)
        if instr is None:
            continue
        for register in register_uses(instr):
            assert register not in pending, (
                "%s: dead def of x%d at 0x%x read at 0x%x"
                % (name, register, pending[register], record.pc)
            )
        defined = register_def(instr)
        if defined is not None:
            if (record.pc, defined) in dead:
                pending[defined] = record.pc
            else:
                pending.pop(defined, None)


@pytest.mark.parametrize(
    "name,program,inputs",
    list(_corpus_targets()),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_corpus_soundness(name, program, inputs):
    _check_soundness(name, program, inputs)


def test_family_matrix_soundness():
    targets = list(_family_targets())
    assert len(targets) >= 20, "family matrix unexpectedly small"
    for name, program, inputs in targets:
        _check_soundness(name, program, inputs)


@pytest.mark.parametrize("workload_name", DEFAULT_WORKLOADS)
def test_adversary_benign_variants_soundness(workload_name):
    suite = generate_suite(workload_name, seed=ORACLE_SEED)
    program = get_workload(workload_name).build()
    assert suite.benign
    for variant in suite.benign:
        _check_soundness(variant.name, program, variant.inputs)
