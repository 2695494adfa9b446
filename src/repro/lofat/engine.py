"""The top-level LO-FAT engine.

:class:`LoFatEngine` wires the branch filter, loop monitor, hash engine and
metadata generator together exactly as Figure 3 of the paper does, and plugs
into the CPU model as a retired-instruction monitor.  Because it is a monitor,
it observes execution *in parallel* with the core and can never slow it down
-- which is the paper's central performance claim (zero processor overhead).

The engine is the ``lofat`` scheme's measurement session: every attested run
goes through :meth:`repro.schemes.AttestationScheme.measure_execution`,
which opens one engine per execution, attaches it to a fresh CPU and
finalizes it.  Typical use::

    from repro.schemes import get_scheme

    result, measured = get_scheme("lofat").measure_execution(program, [...])
    # measured.measurement  -> 64-byte SHA3-512 value A
    # measured.metadata     -> loop metadata L
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.cpu.trace import TraceRecord
from repro.lofat.branch_filter import BranchFilter
from repro.lofat.config import LoFatConfig
from repro.lofat.hash_engine import HashEngine
from repro.lofat.loop_monitor import LoopMonitor
from repro.lofat.metadata import LoopMetadata, MetadataGenerator


@dataclass
class SchemeMeasurement:
    """What one measurement session produced.

    Every attestation scheme reports through this one shape (re-exported as
    :class:`repro.schemes.SchemeMeasurement`), so reports, signatures and
    database entries are uniform: ``measurement`` is the scheme's digest
    ``A`` (64 bytes for the control-flow hashes, 32 for the static image
    hash), ``metadata`` is the auxiliary data ``L`` (empty for schemes
    without loop compression) and ``stats`` carries the scheme's
    operational numbers (for LO-FAT: compression, latency, buffering).
    """

    scheme: str
    measurement: bytes
    metadata: LoopMetadata = field(default_factory=LoopMetadata)
    stats: dict = field(default_factory=dict)

    @property
    def measurement_hex(self) -> str:
        """Hex rendering of ``A``."""
        return self.measurement.hex()

    @property
    def metadata_bytes(self) -> bytes:
        """The serialised metadata (what signatures and databases store)."""
        return self.metadata.to_bytes()

    @property
    def report_payload(self) -> bytes:
        """The byte string covered by the attestation signature: ``A || L``."""
        return self.measurement + self.metadata.to_bytes()


class LoFatEngine:
    """Hardware control-flow attestation engine (transaction-level model).

    One engine observes one execution; it speaks the
    :class:`repro.schemes.MeasurementSession` protocol, so the ``lofat``
    scheme hands it out as its session directly.
    """

    def __init__(self, config: Optional[LoFatConfig] = None,
                 record_filter_events: bool = False) -> None:
        self.config = config or LoFatConfig()
        self.hash_engine = HashEngine(self.config)
        self.metadata_generator = MetadataGenerator()
        self.loop_monitor = LoopMonitor(
            config=self.config,
            hash_pairs=self._hash_pairs,
            on_loop_exit=self.metadata_generator.on_loop_exit,
        )
        self.branch_filter = BranchFilter(
            config=self.config,
            loop_monitor=self.loop_monitor,
            hash_non_loop=self._hash_non_loop_branch,
            hash_non_loop_run=self._hash_non_loop_run,
            hash_non_loop_chunk=self._hash_non_loop_chunk,
            record_events=record_filter_events,
        )
        self._last_cycle = 0
        self._finalized: Optional[SchemeMeasurement] = None

    # ------------------------------------------------------------- wiring
    def _hash_non_loop_branch(self, record: TraceRecord) -> None:
        """``non_loops ctrl``: hash the pair of a branch outside any loop."""
        src, dest = record.src_dest
        self.hash_engine.absorb_pair(src, dest, arrival_cycle=record.cycle)

    def _hash_pairs(self, pairs: Sequence[Tuple[int, int]], cycle: int) -> None:
        """``new_path ctrl``: hash the buffered pairs of a new loop path.

        The pairs are already sitting in the branches memory (a BRAM), so the
        hash engine controller streams them out at one pair per cycle rather
        than presenting them all in the same cycle -- hence the staggered
        arrival times in the cycle model.  The whole run is absorbed with one
        sponge update.
        """
        self.hash_engine.absorb_run(pairs, arrivals=range(cycle, cycle + len(pairs)))

    def _hash_non_loop_run(self, records: Sequence[TraceRecord]) -> None:
        """Hash a straight run of non-loop branches in one absorb call."""
        self.hash_engine.absorb_run(
            [(record.pc, record.next_pc) for record in records],
            arrivals=[record.cycle for record in records],
        )

    def _hash_non_loop_chunk(self, chunk, pairs, records) -> None:
        """Hash a compiled block's precomputed pair chunk in one call."""
        self.hash_engine.absorb_chunk(
            chunk, pairs, arrivals=[record.cycle for record in records],
        )

    # -------------------------------------------------------------- input
    def observe(self, record: TraceRecord) -> None:
        """Observe one retired instruction (attach this to the CPU monitor)."""
        if self._finalized is not None:
            raise RuntimeError("LO-FAT engine already finalized")
        self._last_cycle = record.cycle
        self.branch_filter.observe(record)

    def observe_batch(self, records: Sequence[TraceRecord]) -> None:
        """Observe a batch of retired *control-flow* records.

        The fast execution pipeline delivers only control-flow-relevant
        records, in retirement order; the branch filter reconstructs the
        straight-line runs between them from each record's ``next_pc``.  The
        absorbed byte sequence -- and therefore the measurement ``A`` and
        metadata ``L`` -- is identical to per-record observation; only
        cycle-model bookkeeping (which overlaps execution in hardware) is
        coarser.
        """
        if self._finalized is not None:
            raise RuntimeError("LO-FAT engine already finalized")
        if not records:
            return
        self._last_cycle = records[-1].cycle
        self.branch_filter.observe_batch(records)

    def observe_block(self, records: Sequence[TraceRecord], chunk, pairs) -> None:
        """Observe one compiled block's control-flow records (compiled engine).

        ``records[:len(pairs)]`` are the block's chain-internal forward
        jumps with their pre-serialized hash chunk; the remainder is the
        terminator.  Measurement bytes and metadata are identical to
        :meth:`observe_batch` over the same records.
        """
        if self._finalized is not None:
            raise RuntimeError("LO-FAT engine already finalized")
        if not records:
            return
        self._last_cycle = records[-1].cycle
        self.branch_filter.observe_block(records, chunk, pairs)

    def sync_straight_line(self, next_pc: int, cycle: int) -> None:
        """Close loops left by an unobserved straight-line run (see
        :meth:`repro.lofat.branch_filter.BranchFilter.sync_straight_line`)."""
        if self._finalized is not None:
            return
        if cycle > self._last_cycle:
            self._last_cycle = cycle
        self.branch_filter.sync_straight_line(next_pc, cycle)

    def finish_run(self, instructions: int, cycle: int) -> None:
        """End-of-batch sync from the compiled engine.

        Batches carry control-flow records only; this delivers the final
        retirement count and cycle so the filter's ``instructions_observed``
        and the finalize-time loop-closing cycle match per-record
        observation exactly (covering the straight-line tail of the run).
        """
        if self._finalized is not None:
            return
        if cycle > self._last_cycle:
            self._last_cycle = cycle
        stats = self.branch_filter.stats
        stats.instructions_observed = max(stats.instructions_observed, instructions)

    # Allow the engine object itself to be used as the monitor callback.
    __call__ = observe

    # ------------------------------------------------------------ results
    def finalize(self) -> SchemeMeasurement:
        """Close the attested execution and produce ``(A, L)``.

        Idempotent: repeated calls return the same measurement.
        """
        if self._finalized is not None:
            return self._finalized
        self.branch_filter.finalize(self._last_cycle)
        self.hash_engine.flush_cycle_model()
        measurement = self.hash_engine.finalize()
        metadata = self.metadata_generator.finalize()
        self._finalized = SchemeMeasurement(
            scheme="lofat",
            measurement=measurement,
            metadata=metadata,
            stats=self.statistics(),
        )
        return self._finalized

    def statistics(self) -> dict:
        """All engine statistics in one dictionary (reports, experiments)."""
        filter_stats = self.branch_filter.stats
        monitor_stats = self.loop_monitor.stats
        hash_stats = self.hash_engine.stats
        total_events = filter_stats.control_flow_instructions
        hashed = hash_stats.pairs_absorbed
        return {
            "control_flow_events": total_events,
            "pairs_hashed": hashed,
            "pairs_compressed": monitor_stats.pairs_compressed,
            "compression_ratio": (
                hashed / total_events if total_events else 1.0
            ),
            "internal_latency_cycles": self.branch_filter.internal_latency_cycles,
            "processor_stall_cycles": 0,  # by construction: parallel observation
            "filter": filter_stats.as_dict(),
            "loops": monitor_stats.as_dict(),
            "hash_engine": hash_stats.as_dict(),
        }

