"""Auxiliary loop metadata ``L`` and its generator.

"Upon loop exit, the loop monitor requests the metadata generator to assemble
the loop auxiliary metadata based on the loops memory - this consists of the
unique loop path encodings, their number of iterations, and indirect branch
targets." (paper §4)

The metadata gives the verifier fine-grained insight into loop execution and
is what lets a single hash cover a run whose loops may iterate arbitrarily
often: the verifier reconstructs the hashed pair stream from the CFG, the
metadata and the program input.  ``L`` is serialised deterministically so it
can be covered by the attestation signature and so its size can be reported
(the paper notes the metadata length depends on the number of loops, paths per
loop and indirect targets, §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache import DigestCache
from repro.lofat.path_encoder import PathEncoding


def _take(blob: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    """Read ``count`` bytes or raise :class:`ValueError` on truncation."""
    block = blob[offset:offset + count]
    if len(block) != count:
        raise ValueError("truncated loop metadata")
    return block, offset + count


@dataclass(frozen=True)
class PathRecord:
    """One distinct path of one loop execution.

    Attributes:
        encoding: the path encoding (bits, indirect codes, truncation flag).
        iterations: how many times this exact path was executed.
        first_seen_index: position in order of first occurrence (0-based).
    """

    encoding: PathEncoding
    iterations: int
    first_seen_index: int

    def to_bytes(self) -> bytes:
        return (
            self.encoding.to_bytes()
            + self.iterations.to_bytes(4, "little")
            + self.first_seen_index.to_bytes(2, "little")
        )

    @classmethod
    def read_from(cls, blob: bytes, offset: int = 0) -> Tuple["PathRecord", int]:
        """Parse one record from ``blob`` at ``offset``; inverse of
        :meth:`to_bytes`, returning (record, next offset).  Raises
        :class:`ValueError` on truncated input."""
        encoding, offset = PathEncoding.read_from(blob, offset)
        block, offset = _take(blob, offset, 6)
        iterations = int.from_bytes(block[0:4], "little")
        first_seen = int.from_bytes(block[4:6], "little")
        return cls(encoding=encoding, iterations=iterations,
                   first_seen_index=first_seen), offset


@dataclass
class LoopRecord:
    """Metadata for one dynamic loop execution (entry to exit).

    Attributes:
        entry: address of the loop entry node (target of the back edge).
        exit_node: address of the loop exit node (block after the back edge).
        depth: nesting depth at which the loop executed (1 = outermost).
        iterations: total number of completed iterations (all paths).
        paths: distinct paths in order of first occurrence.
        indirect_targets: full 32-bit indirect-branch targets encountered in
            the loop, ordered by their assigned CAM code (code 1 first).
        exit_sequence: order in which this loop exited relative to other loops
            in the same run (0-based); gives the verifier the loop ordering.
    """

    entry: int
    exit_node: int
    depth: int
    iterations: int
    paths: List[PathRecord] = field(default_factory=list)
    indirect_targets: List[int] = field(default_factory=list)
    exit_sequence: int = 0

    @property
    def distinct_paths(self) -> int:
        """Number of distinct paths observed in this loop execution."""
        return len(self.paths)

    def to_bytes(self) -> bytes:
        blob = (
            self.entry.to_bytes(4, "little")
            + self.exit_node.to_bytes(4, "little")
            + self.depth.to_bytes(1, "little")
            + self.iterations.to_bytes(4, "little")
            + self.exit_sequence.to_bytes(2, "little")
            + len(self.paths).to_bytes(2, "little")
        )
        for path in self.paths:
            blob += path.to_bytes()
        blob += len(self.indirect_targets).to_bytes(1, "little")
        for target in self.indirect_targets:
            blob += (target & 0xFFFFFFFF).to_bytes(4, "little")
        return blob

    @classmethod
    def read_from(cls, blob: bytes, offset: int = 0) -> Tuple["LoopRecord", int]:
        """Parse one loop record from ``blob`` at ``offset``; inverse of
        :meth:`to_bytes`, returning (record, next offset).  Raises
        :class:`ValueError` on truncated input."""
        header, offset = _take(blob, offset, 17)
        entry = int.from_bytes(header[0:4], "little")
        exit_node = int.from_bytes(header[4:8], "little")
        depth = header[8]
        iterations = int.from_bytes(header[9:13], "little")
        exit_sequence = int.from_bytes(header[13:15], "little")
        path_count = int.from_bytes(header[15:17], "little")
        paths = []
        for _ in range(path_count):
            path, offset = PathRecord.read_from(blob, offset)
            paths.append(path)
        count_byte, offset = _take(blob, offset, 1)
        target_block, offset = _take(blob, offset, 4 * count_byte[0])
        targets = [
            int.from_bytes(target_block[4 * i:4 * i + 4], "little")
            for i in range(count_byte[0])
        ]
        return cls(entry=entry, exit_node=exit_node, depth=depth,
                   iterations=iterations, paths=paths,
                   indirect_targets=targets,
                   exit_sequence=exit_sequence), offset


@dataclass
class LoopMetadata:
    """The complete auxiliary metadata ``L`` of one attested execution."""

    loops: List[LoopRecord] = field(default_factory=list)

    def add(self, record: LoopRecord) -> None:
        record.exit_sequence = len(self.loops)
        self.loops.append(record)

    def to_bytes(self) -> bytes:
        """Deterministic serialisation (covered by the attestation signature)."""
        blob = len(self.loops).to_bytes(2, "little")
        for record in self.loops:
            blob += record.to_bytes()
        return blob

    @classmethod
    def read_from(cls, blob: bytes, offset: int = 0) -> Tuple["LoopMetadata", int]:
        """Parse the metadata at ``offset``; returns (metadata, next offset).
        Raises :class:`ValueError` on truncated input."""
        block, offset = _take(blob, offset, 2)
        count = int.from_bytes(block, "little")
        loops = []
        for _ in range(count):
            record, offset = LoopRecord.read_from(blob, offset)
            loops.append(record)
        return cls(loops=loops), offset

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LoopMetadata":
        """Deserialise ``L`` (inverse of :meth:`to_bytes`)."""
        metadata, offset = cls.read_from(blob, 0)
        if offset != len(blob):
            raise ValueError("trailing bytes after loop metadata")
        return metadata

    @property
    def size_bytes(self) -> int:
        """Length of the serialised metadata in bytes (reported in E7)."""
        return len(self.to_bytes())

    @property
    def total_iterations(self) -> int:
        """Total loop iterations across all loop executions."""
        return sum(record.iterations for record in self.loops)

    @property
    def total_distinct_paths(self) -> int:
        """Total distinct loop paths across all loop executions."""
        return sum(record.distinct_paths for record in self.loops)

    def loops_at_entry(self, entry: int) -> List[LoopRecord]:
        """All dynamic executions of the loop whose entry node is ``entry``."""
        return [record for record in self.loops if record.entry == entry]

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)

    def summary(self) -> dict:
        """Statistics used in reports and experiment output."""
        return {
            "loop_executions": len(self.loops),
            "total_iterations": self.total_iterations,
            "total_distinct_paths": self.total_distinct_paths,
            "size_bytes": self.size_bytes,
            "max_depth": max((r.depth for r in self.loops), default=0),
        }


def scan_loop_metadata(blob: bytes) -> None:
    """Validate the framing of a serialised ``L`` without building objects.

    Walks exactly the offsets :meth:`LoopMetadata.from_bytes` would and
    raises the same :class:`ValueError` on truncation or trailing bytes --
    but performs no object construction, which makes it an order of
    magnitude cheaper than a full parse.  Wire consumers that mostly need
    the *bytes* of ``L`` (signature payloads, byte comparison against a
    reference) validate with this scan and defer the full parse
    (:class:`LazyLoopMetadata`).
    """
    length = len(blob)

    def need(offset: int, count: int) -> int:
        end = offset + count
        if end > length:
            raise ValueError("truncated loop metadata")
        return end

    offset = need(0, 2)
    loop_count = int.from_bytes(blob[0:2], "little")
    for _ in range(loop_count):
        header_end = need(offset, 17)
        path_count = int.from_bytes(blob[header_end - 2:header_end], "little")
        offset = header_end
        for _ in range(path_count):
            # PathEncoding: width(2) + payload + code_count(1) + codes +
            # truncated(1), then PathRecord's iterations(4) + first_seen(2).
            offset = need(offset, 2)
            width = int.from_bytes(blob[offset - 2:offset], "little")
            offset = need(offset, (width + 7) // 8 or 1)
            offset = need(offset, 1)
            code_count = blob[offset - 1]
            offset = need(offset, code_count + 1 + 6)
        offset = need(offset, 1)
        target_count = blob[offset - 1]
        offset = need(offset, 4 * target_count)
    if offset != length:
        raise ValueError("trailing bytes after loop metadata")


#: Blobs that already passed :func:`scan_loop_metadata`, so re-validating a
#: repeated ``L`` is one lookup instead of an offset walk.  A standing
#: verifier sees the same benign metadata on every report of a workload; a
#: flood of distinct blobs evicts the least recently seen.
_SCANNED_BLOBS = DigestCache(budget=4096)


class LazyLoopMetadata(LoopMetadata):
    """``L`` validated eagerly, parsed into records only on first access.

    Deserialising a report re-built ``L``'s whole object graph even though
    the verifier's accept path needs only the serialised bytes (the
    signature payload and the byte comparison against the reference) -- the
    parse dominated the attestation server's per-report cost.  This variant
    keeps the raw bytes, validates their framing up front (so malformed
    metadata still raises ``ValueError`` at deserialisation time, the wire
    format's contract) and builds the records the first time something
    iterates them.

    Mutating (:meth:`add`) materialises the records and drops the cached
    serialisation, so ``to_bytes`` can never return stale bytes.
    """

    def __init__(self, blob: bytes) -> None:
        blob = bytes(blob)
        _SCANNED_BLOBS.get_or_build(blob, lambda: scan_loop_metadata(blob))
        self._blob: Optional[bytes] = blob
        self._records: Optional[List[LoopRecord]] = None

    @property
    def loops(self) -> List[LoopRecord]:
        if self._records is None:
            self._records = LoopMetadata.from_bytes(self._blob).loops
        return self._records

    def add(self, record: LoopRecord) -> None:
        super().add(record)
        self._blob = None

    def to_bytes(self) -> bytes:
        if self._blob is not None:
            return self._blob
        return super().to_bytes()


class MetadataGenerator:
    """Assembles :class:`LoopMetadata` from loop-exit reports.

    In hardware this is the "metadata generator" block fed by the loop monitor
    via the ``loop_end ctrl`` signals; here it simply collects
    :class:`LoopRecord` objects in loop-exit order.
    """

    def __init__(self) -> None:
        self.metadata = LoopMetadata()

    def on_loop_exit(self, record: LoopRecord) -> None:
        """Store the metadata of a finished loop execution."""
        self.metadata.add(record)

    def finalize(self) -> LoopMetadata:
        """Return the assembled metadata."""
        return self.metadata
