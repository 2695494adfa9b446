"""C-FLAT as a full measuring :class:`AttestationScheme` backend.

C-FLAT (Abera et al., CCS 2016) instruments every control-flow instruction of
the target program so that it traps into an attestation runtime inside a TEE
(TrustZone secure world), which updates a running hash with the (source,
destination) pair before resuming the program.  Its performance cost is
therefore *linear in the number of executed control-flow events*: each event
replaces a single branch with a trampoline, a world switch and a software
hash update.  LO-FAT's claim (paper §6.1) is that it provides the same
measurement without any of that cost because the recording happens in
parallel hardware.

This module carries both halves of the reproduction's C-FLAT model:

* the cost model (:class:`CFlatCostModel`, applied to an execution by
  :meth:`CFlatScheme.cost_model`) --
  ``attested_cycles = baseline_cycles + events * per_event_cycles``;
* the first-class measuring scheme (:class:`CFlatSession`,
  :class:`CFlatScheme`) that can be driven by a challenge, verified against
  the measurement database and swept in a campaign.  The session computes,
  while streaming, exactly the measurement :func:`measure_trace` computes
  from a recorded trace -- the cumulative SHA3-512 hash over every
  (Src, Dest) pair of every control-flow event -- and the equivalence is
  pinned by ``tests/test_schemes.py``.

The default cost constants are deliberately conservative (favourable to
C-FLAT); the experiments sweep them to show the conclusion is insensitive to
the exact values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.cpu.trace import ExecutionTrace, TraceNotRecordedError
from repro.schemes.base import (
    AttestationScheme,
    MeasurementSession,
    SchemeConfigError,
    SchemeCost,
    SchemeMeasurement,
)
from repro.schemes.registry import register_scheme


@dataclass
class CFlatCostModel:
    """Per-event cycle costs of the software attestation runtime.

    Attributes:
        trampoline_cycles: executing the rewritten branch stub (register
            spills, computing the original target).
        world_switch_cycles: entering and leaving the TEE (SMC/secure monitor
            round trip); set to 0 to model a same-world software monitor.
        hash_update_cycles: software hash absorb of one 64-bit (Src, Dest)
            pair (BLAKE2s-style software hashing on a small in-order core).
        loop_event_discount: fraction of loop-internal events whose hash
            update is skipped thanks to C-FLAT's own loop handling (the
            trampoline still executes); 0.0 means every event is hashed.
    """

    trampoline_cycles: int = 20
    world_switch_cycles: int = 50
    hash_update_cycles: int = 80
    loop_event_discount: float = 0.0

    @property
    def per_event_cycles(self) -> int:
        """Total extra cycles charged per control-flow event."""
        return self.trampoline_cycles + self.world_switch_cycles + self.hash_update_cycles

    def overhead_cycles(self, events: int, loop_events: int = 0) -> int:
        """Extra cycles for a run with ``events`` control-flow events."""
        full = self.trampoline_cycles + self.world_switch_cycles + self.hash_update_cycles
        discounted = self.trampoline_cycles + self.world_switch_cycles
        loop_events = min(loop_events, events)
        if self.loop_event_discount <= 0.0:
            return events * full
        skipped = int(loop_events * self.loop_event_discount)
        return (events - skipped) * full + skipped * discounted


def measure_trace(trace: ExecutionTrace) -> bytes:
    """The cumulative measurement C-FLAT computes over a recorded trace.

    The reference the streaming :class:`CFlatSession` must reproduce
    byte for byte: SHA3-512 over every control-flow (Src, Dest) pair.
    """
    hasher = hashlib.sha3_512()
    for record in trace.control_flow_records:
        src, dest = record.src_dest
        hasher.update(src.to_bytes(4, "little") + dest.to_bytes(4, "little"))
    return hasher.digest()


class CFlatSession(MeasurementSession):
    """Streaming C-FLAT measurement of one execution.

    Hashes each control-flow (Src, Dest) pair as the instruction retires;
    nothing is accumulated, so memory stays flat on arbitrarily long runs.
    Backward taken transfers are counted as loop events, which is what the
    cost model's ``loop_event_discount`` (C-FLAT's own loop handling)
    applies to.
    """

    def __init__(self, cost_model: Optional[CFlatCostModel] = None) -> None:
        self.cost_model = cost_model or CFlatCostModel()
        self._hasher = hashlib.sha3_512()
        self._events = 0
        self._loop_events = 0
        self._last_cycle = 0
        self._finalized: Optional[SchemeMeasurement] = None

    def observe(self, record) -> None:
        if self._finalized is not None:
            raise RuntimeError("C-FLAT session already finalized")
        self._last_cycle = record.cycle
        if record.is_control_flow:
            src, dest = record.src_dest
            self._hasher.update(
                src.to_bytes(4, "little") + dest.to_bytes(4, "little")
            )
            self._events += 1
            if record.is_backward:
                self._loop_events += 1

    def observe_batch(self, records) -> None:
        """Fold a batch of control-flow records in with one hash update.

        Byte-identical to per-record observation: the digest covers the same
        (Src, Dest) sequence, concatenated into a single sponge update.
        Both the CPU's live compiled engine and stored-trace replay
        (:meth:`repro.schemes.base.AttestationScheme.replay_measurement`)
        deliver through this hook.
        """
        if self._finalized is not None:
            raise RuntimeError("C-FLAT session already finalized")
        if not records:
            return
        self._last_cycle = records[-1].cycle
        chunk = bytearray()
        events = 0
        loop_events = 0
        for record in records:
            pc = record.pc
            next_pc = record.next_pc
            chunk += pc.to_bytes(4, "little") + next_pc.to_bytes(4, "little")
            events += 1
            if record.taken and next_pc <= pc:
                loop_events += 1
        self._hasher.update(bytes(chunk))
        self._events += events
        self._loop_events += loop_events

    def observe_block(self, records, chunk, pairs) -> None:
        """Per-block delivery from the compiled engine.

        The chain-internal jumps arrive with their pair bytes already
        serialized (and masked) at block-compile time: absorb the chunk
        directly.  Internal jumps are forward by construction, so none is a
        loop event; the terminator record(s) go through the batched path.
        """
        if self._finalized is not None:
            raise RuntimeError("C-FLAT session already finalized")
        n = len(pairs)
        if n and len(records) >= n:
            self._last_cycle = records[n - 1].cycle
            self._hasher.update(chunk)
            self._events += n
            self.observe_batch(records[n:])
        else:
            self.observe_batch(records)

    def finish_run(self, instructions, cycle) -> None:
        # Keeps the reported ``attested_cycles`` exact on the compiled engine: the
        # last *instruction* cycle, not the last control-flow cycle.
        if self._finalized is None and cycle > self._last_cycle:
            self._last_cycle = cycle

    def finalize(self) -> SchemeMeasurement:
        if self._finalized is not None:
            return self._finalized
        overhead = self.cost_model.overhead_cycles(
            self._events, loop_events=self._loop_events
        )
        self._finalized = SchemeMeasurement(
            scheme=CFlatScheme.name,
            measurement=self._hasher.digest(),
            stats={
                "control_flow_events": self._events,
                "loop_events": self._loop_events,
                "pairs_hashed": self._events,
                "compression_ratio": 1.0,
                "per_event_cycles": self.cost_model.per_event_cycles,
                "overhead_cycles": overhead,
                "attested_cycles": self._last_cycle + overhead,
                "processor_stall_cycles": overhead,
            },
        )
        return self._finalized


@register_scheme
class CFlatScheme(AttestationScheme):
    """Software control-flow attestation (Abera et al., CCS 2016)."""

    name = "cflat"
    description = ("software instrumentation: every control-flow event traps "
                   "into the TEE for a hash update, overhead linear in events")
    measurement_bytes = 64
    detects_runtime_attacks = True

    def configure(self, params: Optional[Mapping] = None) -> CFlatCostModel:
        if isinstance(params, CFlatCostModel):
            return params
        try:
            model = CFlatCostModel(**dict(params or {}))
        except TypeError as error:
            raise SchemeConfigError(
                "invalid cflat parameters: %s" % error
            ) from None
        if (model.trampoline_cycles < 0 or model.world_switch_cycles < 0
                or model.hash_update_cycles < 0):
            raise SchemeConfigError("cflat cycle costs must be >= 0")
        if not 0.0 <= model.loop_event_discount <= 1.0:
            raise SchemeConfigError("loop_event_discount must be in [0, 1]")
        return model

    def open_session(self, program, config=None) -> CFlatSession:
        return CFlatSession(config)

    def cost_model(self, trace, config=None) -> SchemeCost:
        model = config if isinstance(config, CFlatCostModel) else self.configure(config)
        events = trace.control_flow_events
        # The loop-event discount needs per-record data; on a streaming
        # trace (records dropped) fall back to the conservative zero, which
        # charges every event in full.
        try:
            loop_events = sum(
                1 for record in trace.control_flow_records if record.is_backward
            )
        except TraceNotRecordedError:
            loop_events = 0
        overhead = model.overhead_cycles(events, loop_events=loop_events)
        return SchemeCost(
            scheme=self.name,
            baseline_cycles=trace.cycles,
            attested_cycles=trace.cycles + overhead,
            control_flow_events=events,
        )
