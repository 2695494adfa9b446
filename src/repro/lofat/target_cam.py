"""Indirect-branch target re-encoding CAM.

Indirect branches can target arbitrary 32-bit addresses, which cannot be
folded into a compact loop path ID directly.  LO-FAT therefore "re-encodes the
addresses using a smaller number of n bits, allowing a maximum number of
2^n - 1 possible targets for each loop.  Target addresses are encoded at
run-time and stored in a register file, which is implemented as 2 interleaved
CAMs to ensure low-latency constant-time access.  When a target address is
encountered that exceeds the configured limit, we report this in the encoding
to the verifier by an all-zero code." (paper §5.2)

:class:`TargetCam` models exactly that structure: a per-loop associative table
mapping full target addresses to small codes, with code 0 reserved for
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: The reserved all-zero code reported when the CAM is out of entries.
OVERFLOW_CODE = 0


@dataclass
class CamStats:
    """Lookup statistics (used by the ablation experiment E8)."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    overflows: int = 0

    @property
    def overflow_rate(self) -> float:
        """Fraction of lookups that had to fall back to the all-zero code."""
        if self.lookups == 0:
            return 0.0
        return self.overflows / self.lookups


class TargetCam:
    """A small content-addressable memory assigning n-bit codes to targets.

    Codes are assigned in order of first occurrence starting at 1; code 0 is
    the overflow indicator.  The capacity is ``2**n - 1`` entries, as in the
    paper.  The table is per-loop and cleared when its loop exits (the
    hardware re-uses the memory for subsequent loop executions).
    """

    def __init__(self, code_bits: int) -> None:
        if code_bits < 1:
            raise ValueError("code_bits must be >= 1")
        self.code_bits = code_bits
        self.capacity = (1 << code_bits) - 1
        self._codes: Dict[int, int] = {}
        self.stats = CamStats()

    def encode(self, target: int) -> int:
        """Return the n-bit code for ``target``, inserting it if there is room.

        Returns :data:`OVERFLOW_CODE` when the CAM is full and the target has
        not been seen before.
        """
        self.stats.lookups += 1
        code = self._codes.get(target)
        if code is not None:
            self.stats.hits += 1
            return code
        if len(self._codes) >= self.capacity:
            self.stats.overflows += 1
            return OVERFLOW_CODE
        code = len(self._codes) + 1
        self._codes[target] = code
        self.stats.inserts += 1
        return code

    def lookup(self, target: int) -> Optional[int]:
        """Return the code for ``target`` without inserting (None if absent)."""
        return self._codes.get(target)

    def targets_in_order(self) -> List[int]:
        """All stored targets, ordered by their assigned code."""
        return [t for t, _ in sorted(self._codes.items(), key=lambda item: item[1])]

    def clear(self) -> None:
        """Reset the table (loop exit / memory re-use)."""
        self._codes.clear()

    @property
    def occupancy(self) -> int:
        """Number of stored targets."""
        return len(self._codes)

    @property
    def is_full(self) -> bool:
        """True when no further target can be assigned a distinct code."""
        return len(self._codes) >= self.capacity

    def __len__(self) -> int:
        return len(self._codes)
