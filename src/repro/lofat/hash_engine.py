"""The SHA-3 512 hash engine and its cycle-level absorb model.

LO-FAT computes a single cumulative SHA-3 512 measurement ``A`` over the
stream of 64-bit ``(Src, Dest)`` pairs selected by the branch filter / loop
monitor (paper §5.3).  Two aspects matter for the reproduction:

* **The digest value.**  We produce it with :func:`hashlib.sha3_512`, which is
  the same Keccak[1024] instance (576-bit rate) the open-source engine
  implements, so measurements are real SHA-3 digests.

* **The timing behaviour.**  The engine absorbs one 64-bit word per cycle into
  a padding buffer; after 9 words the 576-bit block is full and the buffer
  cannot accept input for 3 cycles while the permutation starts.  A small
  cache buffer in front of the engine therefore has to absorb bursts so that
  no pair is ever dropped and the processor never stalls.  The cycle model
  here reproduces exactly that bookkeeping and reports the buffer occupancy
  statistics used in experiments E2 and E6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lofat.config import LoFatConfig


@dataclass
class HashEngineStats:
    """Observable behaviour of the hash engine over one attested run."""

    #: Number of (Src, Dest) pairs absorbed into the measurement.
    pairs_absorbed: int = 0
    #: Number of pad-full stall windows encountered.
    pad_stalls: int = 0
    #: Total engine cycles spent stalled (pad full).
    stall_cycles: int = 0
    #: Maximum occupancy observed in the input cache buffer.
    max_buffer_occupancy: int = 0
    #: Number of pairs that arrived while the buffer was full.  LO-FAT is
    #: engineered so that this is always zero; a non-zero value means the
    #: configuration's buffer depth is insufficient for the workload.
    dropped_pairs: int = 0
    #: Engine cycle at which the last pair finished absorbing.
    last_absorb_cycle: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class HashEngine:
    """Cumulative SHA-3 512 measurement plus absorb-pipeline cycle model.

    The functional measurement and the cycle model are deliberately decoupled:
    the digest depends only on the *sequence* of absorbed pairs (so the
    verifier can recompute it without a cycle-accurate replay), while the
    cycle model tracks buffering behaviour for the performance experiments.
    """

    def __init__(self, config: Optional[LoFatConfig] = None) -> None:
        self.config = config or LoFatConfig()
        self._hasher = hashlib.sha3_512()
        self._absorbed: List[Tuple[int, int]] = []
        self.stats = HashEngineStats()
        self._finalized: Optional[bytes] = None
        # Cycle-model state.
        self._engine_cycle = 0
        self._words_in_block = 0
        self._buffer: List[int] = []  # arrival cycles of queued pairs

    # ----------------------------------------------------------- functional
    def absorb_pair(self, src: int, dest: int, arrival_cycle: Optional[int] = None) -> None:
        """Absorb one (Src, Dest) pair into the measurement.

        ``arrival_cycle`` is the processor cycle at which the pair was handed
        to the engine; when provided, the cycle model is advanced as well.
        """
        if self._finalized is not None:
            raise RuntimeError("hash engine already finalized")
        src &= 0xFFFFFFFF
        dest &= 0xFFFFFFFF
        self._hasher.update(src.to_bytes(4, "little") + dest.to_bytes(4, "little"))
        self._absorbed.append((src, dest))
        self.stats.pairs_absorbed += 1
        if arrival_cycle is not None:
            self._advance_cycle_model(arrival_cycle)

    def absorb_run(
        self,
        pairs: Sequence[Tuple[int, int]],
        arrivals: Optional[Iterable[int]] = None,
    ) -> None:
        """Absorb a run of (Src, Dest) pairs with a single hasher update.

        Byte-for-byte equivalent to calling :meth:`absorb_pair` once per
        pair -- the digest depends only on the absorbed byte sequence -- but
        the sponge is fed one concatenated buffer, which is what makes the
        batched observation path cheap.  ``arrivals`` optionally carries the
        per-pair engine arrival cycles; the cycle model is then advanced in
        one amortized pass over the run instead of one call per pair.
        """
        if self._finalized is not None:
            raise RuntimeError("hash engine already finalized")
        if not pairs:
            return
        chunk = bytearray()
        masked = []
        for src, dest in pairs:
            src &= 0xFFFFFFFF
            dest &= 0xFFFFFFFF
            chunk += src.to_bytes(4, "little") + dest.to_bytes(4, "little")
            masked.append((src, dest))
        self._hasher.update(bytes(chunk))
        self._absorbed.extend(masked)
        self.stats.pairs_absorbed += len(masked)
        if arrivals is not None:
            advance = self._advance_cycle_model
            for arrival in arrivals:
                advance(arrival)

    def absorb_chunk(
        self,
        chunk: bytes,
        pairs: Sequence[Tuple[int, int]],
        arrivals: Optional[Iterable[int]] = None,
    ) -> None:
        """Absorb a precomputed pair run (compiled-engine per-block path).

        ``chunk`` must be exactly the concatenated little-endian 4+4 byte
        encoding of ``pairs``, with both addresses already masked to 32
        bits -- the block compiler builds both once at compile time, so the
        hot path neither masks nor re-serializes anything.  Byte-for-byte
        equivalent to :meth:`absorb_run` over the same pairs.
        """
        if self._finalized is not None:
            raise RuntimeError("hash engine already finalized")
        if not pairs:
            return
        self._hasher.update(chunk)
        self._absorbed.extend(pairs)
        self.stats.pairs_absorbed += len(pairs)
        if arrivals is not None:
            advance = self._advance_cycle_model
            for arrival in arrivals:
                advance(arrival)

    def absorb_bytes(self, data: bytes) -> None:
        """Absorb raw bytes (used to append the loop metadata to the digest)."""
        if self._finalized is not None:
            raise RuntimeError("hash engine already finalized")
        self._hasher.update(data)

    def finalize(self) -> bytes:
        """Close the message and return the 64-byte SHA3-512 measurement.

        Any pairs still queued in the input cache buffer are drained first,
        so post-finalize statistics never report in-flight pairs as pending
        (``buffer_occupancy``) or understate the stall cycles they incur.
        """
        if self._finalized is None:
            self.flush_cycle_model()
            self._finalized = self._hasher.digest()
            # End-of-message: the permutation over the final (padded) block.
            self._engine_cycle += self.config.hash_permutation_cycles
        return self._finalized

    def statistics(self) -> dict:
        """Stats dictionary including the live buffer/cycle state."""
        stats = self.stats.as_dict()
        stats["buffer_occupancy"] = len(self._buffer)
        stats["engine_cycle"] = self._engine_cycle
        return stats

    @property
    def digest_hex(self) -> str:
        """Hex form of the finalized measurement."""
        return self.finalize().hex()

    @property
    def absorbed_pairs(self) -> List[Tuple[int, int]]:
        """The absorbed (Src, Dest) pairs, in order (copy)."""
        return list(self._absorbed)

    # ----------------------------------------------------------- cycle model
    def _advance_cycle_model(self, arrival_cycle: int) -> None:
        """Advance the absorb pipeline up to ``arrival_cycle`` and enqueue."""
        config = self.config
        # Drain whatever the engine could absorb before this arrival.
        self._drain_until(arrival_cycle)

        if len(self._buffer) >= config.hash_input_buffer_depth:
            # The real hardware cannot drop pairs; we record the event so the
            # experiments can show which buffer depth is sufficient.
            self.stats.dropped_pairs += 1
            return
        self._buffer.append(arrival_cycle)
        occupancy = len(self._buffer)
        if occupancy > self.stats.max_buffer_occupancy:
            self.stats.max_buffer_occupancy = occupancy

    def _drain_until(self, cycle: int) -> None:
        """Absorb queued pairs while engine time is behind ``cycle``."""
        config = self.config
        while self._buffer and self._engine_cycle < cycle:
            arrival = self._buffer[0]
            start = max(self._engine_cycle, arrival)
            if start >= cycle:
                break
            self._buffer.pop(0)
            self._engine_cycle = start + 1  # one word absorbed per cycle
            self._words_in_block += 1
            self.stats.last_absorb_cycle = self._engine_cycle
            if self._words_in_block == config.absorbs_per_block:
                # Padding buffer full: cannot absorb for the stall window.
                self._engine_cycle += config.hash_pad_stall_cycles
                self.stats.pad_stalls += 1
                self.stats.stall_cycles += config.hash_pad_stall_cycles
                self._words_in_block = 0

    def flush_cycle_model(self) -> None:
        """Drain any queued pairs (used at the end of the attested run)."""
        self._drain_until(float("inf"))

    @property
    def engine_cycle(self) -> int:
        """Current cycle of the engine-side clock domain."""
        return self._engine_cycle

    @property
    def buffer_occupancy(self) -> int:
        """Pairs currently waiting in the input cache buffer."""
        return len(self._buffer)


def measurement_over_pairs(pairs, metadata_bytes: bytes = b"") -> bytes:
    """Compute the LO-FAT measurement for a pair sequence (verifier helper).

    This is the verifier-side functional equivalent of the hash engine: a
    SHA3-512 over the concatenated little-endian 32-bit Src/Dest words,
    followed by the metadata bytes.
    """
    hasher = hashlib.sha3_512()
    for src, dest in pairs:
        hasher.update((src & 0xFFFFFFFF).to_bytes(4, "little"))
        hasher.update((dest & 0xFFFFFFFF).to_bytes(4, "little"))
    if metadata_bytes:
        hasher.update(metadata_bytes)
    return hasher.digest()
