"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts by tens of percent within
seconds (other tenants, frequency scaling), and wall-clock throughput
drifts with it.  The benchmark therefore runs a fixed pure-Python kernel
for a short slice between its passes and expresses every time-based
end-to-end metric in *reference seconds*: measured seconds scaled by the
kernel's current speed relative to :data:`REFERENCE_SPEED`.  Host drift
moves the kernel and the workload alike and cancels; a change to
``repro`` cannot move the kernel, which imports nothing from it.
"""

from __future__ import annotations

import hashlib
import struct
import time

#: Kernel rounds per second on the reference host (a 2-CPU x86-64 Linux
#: container under CPython 3.11); only sets the unit of a reference second.
REFERENCE_SPEED = 350.0
#: Seconds one speed measurement runs for.
SLICE_SECONDS = 0.15
_RECORD = struct.Struct("<IIIB")


def _kernel() -> bytes:
    """A fixed mix of the interpreter work the workloads do: allocation and
    dict/list traffic, record packing and parsing, and SHA-3 absorption."""
    table = {}
    for index in range(2000):
        table[index] = [index, str(index), (index, index + 1)]
    total = 0
    for key, value in table.items():
        total += value[2][1] - key
    blob = b"".join(_RECORD.pack(i, i * 4, total & 0xFF, i & 1)
                    for i in range(2000))
    hasher = hashlib.sha3_512()
    for src, dest, _, _ in _RECORD.iter_unpack(blob):
        hasher.update(src.to_bytes(4, "little") + dest.to_bytes(4, "little"))
    return hasher.digest()


def speed(seconds: float = SLICE_SECONDS) -> float:
    """Kernel rounds per second, measured for ``seconds``."""
    rounds = 0
    started = time.perf_counter()
    while True:
        _kernel()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return rounds / elapsed


def factor(before: float, after: float) -> float:
    """Reference seconds per measured second, from speeds around a span."""
    return (before + after) / 2 / REFERENCE_SPEED
