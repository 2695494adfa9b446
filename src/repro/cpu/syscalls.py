"""A minimal ``ecall`` environment for program I/O.

Embedded workloads need a way to signal completion and to emit results so
tests can check functional correctness.  We use a small Linux-flavoured
convention: the syscall number is passed in ``a7`` and arguments in
``a0``/``a1``.

=======  ==========================  =========================================
 a7       name                        behaviour
=======  ==========================  =========================================
 93       exit                        stop execution, exit code in ``a0``
 1        print_int                   append ``str(signed(a0))`` to the output
 4        print_string                append the NUL-terminated string at a0
 11       print_char                  append ``chr(a0 & 0xff)``
 5        read_int                    pop the next value from the input queue
                                      into ``a0`` (0 when exhausted)
=======  ==========================  =========================================

The ``read_int`` call is how the verifier-chosen input ``i`` and the
adversary-chosen inputs ``I`` from the paper's protocol (Figure 2) reach the
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional
from collections import deque

from repro.cpu.memory import Memory
from repro.isa.registers import RegisterFile, to_signed

SYS_EXIT = 93
SYS_PRINT_INT = 1
SYS_PRINT_STRING = 4
SYS_READ_INT = 5
SYS_PRINT_CHAR = 11


@dataclass
class SyscallResult:
    """Outcome of one ``ecall``."""

    exited: bool = False
    exit_code: int = 0


class SyscallHandler:
    """Dispatches ``ecall`` instructions against a small host environment."""

    def __init__(self, inputs: Optional[List[int]] = None) -> None:
        self._inputs: Deque[int] = deque(inputs or [])
        self.output: List[str] = []
        self.exit_code: Optional[int] = None

    @property
    def output_text(self) -> str:
        """All program output concatenated."""
        return "".join(self.output)

    @property
    def printed_values(self) -> List[int]:
        """All integers printed via ``print_int``, in order."""
        values = []
        for chunk in self.output:
            try:
                values.append(int(chunk))
            except ValueError:
                continue
        return values

    def push_input(self, value: int) -> None:
        """Queue another input value for ``read_int``."""
        self._inputs.append(value)

    def handle(self, registers: RegisterFile, memory: Memory) -> SyscallResult:
        """Execute the syscall selected by ``a7``."""
        number = registers["a7"]
        if number == SYS_EXIT:
            self.exit_code = to_signed(registers["a0"])
            return SyscallResult(exited=True, exit_code=self.exit_code)
        if number == SYS_PRINT_INT:
            self.output.append(str(to_signed(registers["a0"])))
            return SyscallResult()
        if number == SYS_PRINT_CHAR:
            self.output.append(chr(registers["a0"] & 0xFF))
            return SyscallResult()
        if number == SYS_PRINT_STRING:
            self.output.append(memory.read_cstring(registers["a0"]))
            return SyscallResult()
        if number == SYS_READ_INT:
            value = self._inputs.popleft() if self._inputs else 0
            registers["a0"] = value & 0xFFFFFFFF
            return SyscallResult()
        # Unknown syscalls are treated as no-ops so that partially ported
        # firmware does not crash the simulation.
        return SyscallResult()
