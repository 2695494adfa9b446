"""The StaticPolicy artifact: statically proven program facts for verifiers.

A :class:`StaticPolicy` condenses the dataflow passes into the checkable
facts a verifier can enforce on an attestation report *before* any
simulation or replay:

* ``loop_entries`` — every natural-loop header; a loop record naming any
  other entry address is structurally impossible for a benign run.
* ``loop_bounds`` — per entry, an inclusive interval on the per-episode
  ``LoopRecord.iterations`` value the monitor can report.
* ``valid_pairs`` — every instruction-level ``(src, dest)`` control-flow
  pair a benign execution can emit (used by the adversary vetting pass and
  the soundness oracle; the measurement hash itself hides pairs from the
  verifier, so this set is not enforced on reports).
* ``unreachable_blocks`` — block starts proven unreachable from the entry.

The artifact round-trips through JSON so campaign tooling can persist it in
the measurement database and ship it to verifier processes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

POLICY_VERSION = 1


@dataclass(frozen=True)
class LoopPolicy:
    """Per-loop-entry constraints on reported iteration counts."""

    entry: int
    min_iterations: int
    max_iterations: int

    def permits(self, iterations: int) -> bool:
        return self.min_iterations <= iterations <= self.max_iterations


@dataclass(frozen=True)
class StaticPolicy:
    """Statically proven facts about one program, keyed by its digest."""

    program_digest: str
    loop_entries: FrozenSet[int]
    loop_bounds: Tuple[LoopPolicy, ...]
    valid_pairs: FrozenSet[Tuple[int, int]]
    unreachable_blocks: FrozenSet[int] = field(default_factory=frozenset)
    #: When False the entry-set check is advisory only (kept for programs
    #: whose dynamic loop discovery outruns the static loop forest).
    enforce_entries: bool = True

    def bound_for(self, entry: int) -> Optional[LoopPolicy]:
        for bound in self.loop_bounds:
            if bound.entry == entry:
                return bound
        return None

    def check_loop_record(self, entry: int, iterations: int) -> Optional[str]:
        """Return a rejection detail when a loop record is infeasible."""
        if self.enforce_entries and entry not in self.loop_entries:
            return (
                "loop entry %#x is not a statically known loop header" % entry
            )
        bound = self.bound_for(entry)
        if bound is not None and not bound.permits(iterations):
            return (
                "loop %#x reported %d iterations outside the proven "
                "interval [%d, %d]"
                % (entry, iterations, bound.min_iterations, bound.max_iterations)
            )
        return None

    # -- serialisation --------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "version": POLICY_VERSION,
            "program_digest": self.program_digest,
            "loop_entries": sorted(self.loop_entries),
            "loop_bounds": [
                {
                    "entry": bound.entry,
                    "min_iterations": bound.min_iterations,
                    "max_iterations": bound.max_iterations,
                }
                for bound in sorted(self.loop_bounds, key=lambda b: b.entry)
            ],
            "valid_pairs": [list(pair) for pair in sorted(self.valid_pairs)],
            "unreachable_blocks": sorted(self.unreachable_blocks),
            "enforce_entries": self.enforce_entries,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "StaticPolicy":
        version = payload.get("version", POLICY_VERSION)
        if version != POLICY_VERSION:
            raise ValueError("unsupported StaticPolicy version %r" % (version,))
        bounds = tuple(
            LoopPolicy(
                entry=int(row["entry"]),  # type: ignore[index]
                min_iterations=int(row["min_iterations"]),  # type: ignore[index]
                max_iterations=int(row["max_iterations"]),  # type: ignore[index]
            )
            for row in payload.get("loop_bounds", [])  # type: ignore[union-attr]
        )
        return cls(
            program_digest=str(payload["program_digest"]),
            loop_entries=frozenset(
                int(v) for v in payload.get("loop_entries", [])  # type: ignore[union-attr]
            ),
            loop_bounds=bounds,
            valid_pairs=frozenset(
                (int(pair[0]), int(pair[1]))
                for pair in payload.get("valid_pairs", [])  # type: ignore[union-attr]
            ),
            unreachable_blocks=frozenset(
                int(v) for v in payload.get("unreachable_blocks", [])  # type: ignore[union-attr]
            ),
            enforce_entries=bool(payload.get("enforce_entries", True)),
        )

    def policy_digest(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha3_256(canonical.encode("utf-8")).hexdigest()

    def with_bound(self, entry: int, min_iterations: int, max_iterations: int) -> "StaticPolicy":
        """A copy with one loop bound replaced (test/tooling helper)."""
        rows = [b for b in self.loop_bounds if b.entry != entry]
        rows.append(LoopPolicy(entry, min_iterations, max_iterations))
        return StaticPolicy(
            program_digest=self.program_digest,
            loop_entries=self.loop_entries | {entry},
            loop_bounds=tuple(sorted(rows, key=lambda b: b.entry)),
            valid_pairs=self.valid_pairs,
            unreachable_blocks=self.unreachable_blocks,
            enforce_entries=self.enforce_entries,
        )
