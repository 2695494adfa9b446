"""Shared fixtures for the LO-FAT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.cpu.core import Cpu, CpuConfig
from repro.isa.assembler import assemble
from repro.lofat.engine import LoFatEngine
from repro.workloads import get_workload

#: A small counted loop: sums 0..4 and prints the result (10).
SIMPLE_LOOP_SOURCE = """
    .text
_start:
    li   a0, 5
    li   a1, 0
    li   t0, 0
loop:
    bge  t0, a0, done
    add  a1, a1, t0
    addi t0, t0, 1
    j    loop
done:
    mv   a0, a1
    li   a7, 1
    ecall
    li   a7, 93
    ecall
"""

#: A loop with an if/else inside (two distinct loop paths), like Figure 4.
TWO_PATH_LOOP_SOURCE = """
    .text
_start:
    li   a0, 6
    li   a1, 0
    li   t0, 0
loop:
    bge  t0, a0, done
    andi t1, t0, 1
    beqz t1, even
odd:
    addi a1, a1, 9
    j    next
even:
    addi a1, a1, 5
next:
    addi t0, t0, 1
    j    loop
done:
    mv   a0, a1
    li   a7, 1
    ecall
    li   a7, 93
    ecall
"""

#: A call/return pair plus straight-line code (no loops).
CALL_RETURN_SOURCE = """
    .text
_start:
    li   a0, 7
    call double
    li   a7, 1
    ecall
    li   a0, 0
    li   a7, 93
    ecall

double:
    slli a0, a0, 1
    ret
"""


@pytest.fixture
def simple_loop_program():
    """Assembled counted-loop program."""
    return assemble(SIMPLE_LOOP_SOURCE)


@pytest.fixture
def two_path_loop_program():
    """Assembled two-path loop program."""
    return assemble(TWO_PATH_LOOP_SOURCE)


@pytest.fixture
def call_return_program():
    """Assembled call/return program."""
    return assemble(CALL_RETURN_SOURCE)


def run_with_lofat(program, inputs=None, config=None):
    """Helper: run a program with a LO-FAT engine attached."""
    cpu = Cpu(program, inputs=list(inputs or []),
              config=CpuConfig(collect_trace=True))
    engine = LoFatEngine(config)
    cpu.attach_monitor(engine.observe)
    result = cpu.run()
    return result, engine.finalize()


@pytest.fixture
def lofat_runner():
    """Fixture exposing the :func:`run_with_lofat` helper."""
    return run_with_lofat


@pytest.fixture
def figure4_workload():
    """The Figure 4 workload instance."""
    return get_workload("figure4_loop")


@pytest.fixture
def syringe_workload():
    """The syringe-pump workload instance."""
    return get_workload("syringe_pump")
