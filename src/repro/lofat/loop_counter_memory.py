"""Path-ID-indexed loop iteration counter memory.

"Once a loop path is completed, this unique path ID is used to index loop
counter memory, in which the number of iterations for each corresponding path
is saved.  A counter value of zero indicates the first time a particular path
is executed." (paper §5.1)

The hardware implements one such memory per simultaneously-tracked loop level
as block RAM with single-cycle access; functionally it is a mapping from integer
path IDs to saturating counters, which is what this class provides, plus the
occupancy statistics the area experiments report (the memory is "sparsely
utilized", §5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lofat.config import LoFatConfig


class LoopCounterMemory:
    """Per-loop path-indexed iteration counters with first-seen ordering.

    Keyed by the integer path ID (:attr:`PathEncoding.path_id`), which is
    unique per bit string; the dictionary's insertion order is the order
    of first occurrence.
    """

    def __init__(self, config: Optional[LoFatConfig] = None) -> None:
        self.config = config or LoFatConfig()
        self._counters: Dict[int, int] = {}
        self._max_counter = (1 << self.config.counter_width_bits) - 1
        self.saturations = 0

    def record_path(self, path_id: int) -> bool:
        """Record one completed traversal of the path ``path_id``.

        Returns True when this is the first time the path is observed (the
        hardware raises ``new_path ctrl`` towards the hash engine controller
        in that case).
        """
        count = self._counters.get(path_id)
        if count is None:
            self._counters[path_id] = 1
            return True
        if count >= self._max_counter:
            # Counter saturation: the hardware would report the saturated
            # value; we count occurrences so the experiments can show how
            # often the configured width is insufficient.
            self.saturations += 1
            self._counters[path_id] = self._max_counter
        else:
            self._counters[path_id] = count + 1
        return False

    def count_for(self, path_id: int) -> int:
        """Iteration count stored for a path (0 if never seen)."""
        return self._counters.get(path_id, 0)

    def paths_in_first_seen_order(self) -> List[Tuple[int, int]]:
        """(path ID, count) pairs in order of first occurrence."""
        return list(self._counters.items())

    @property
    def distinct_paths(self) -> int:
        """Number of distinct paths recorded."""
        return len(self._counters)

    @property
    def total_iterations(self) -> int:
        """Sum of all recorded iteration counts."""
        return sum(self._counters.values())

    @property
    def capacity(self) -> int:
        """Number of addressable path slots (2^l)."""
        return 1 << self.config.path_id_bits

    @property
    def utilization(self) -> float:
        """Fraction of the path-indexed memory actually used."""
        return self.distinct_paths / self.capacity

    def clear(self) -> None:
        """Reset the memory (loop exit / re-use for the next loop execution)."""
        self._counters.clear()
        self.saturations = 0
