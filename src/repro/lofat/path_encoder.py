"""Loop path encoding (paper §5.1/§5.2, Figure 4).

Within a loop, LO-FAT does not hash every iteration.  Instead each *path*
through the loop body is given a compact unique encoding built, in execution
order, from:

* one bit per conditional branch: ``1`` if taken, ``0`` if not taken,
* one ``1`` bit per direct (unconditional) jump,
* an ``n``-bit code per indirect branch target, assigned by the per-loop
  :class:`repro.lofat.target_cam.TargetCam` (code 0 = "more targets than the
  configured limit").

For the example of Figure 4, the dashed path N2 -> N3 -> N5 -> N6 -> N2 is
encoded as ``011`` and the bold path N2 -> N3 -> N4 -> N6 -> N2 as ``0011``.
The experiment E4 reproduces exactly those strings.

:class:`LoopPathEncoder` accumulates the in-flight path as an integer (value
plus width), and its :attr:`~LoopPathEncoder.path_id` -- the string with a
leading ``1`` sentinel, read as binary -- indexes the loop counter memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lofat.config import LoFatConfig
from repro.lofat.target_cam import TargetCam

#: Most indirect codes one path records: L stores their count in one byte.
MAX_INDIRECT_CODES = 255


@dataclass(frozen=True)
class PathEncoding:
    """The finished encoding of one loop path.

    Attributes:
        bits: the encoding bit string in event order (first event leftmost).
        indirect_codes: the n-bit codes appended for indirect branches, in
            order of occurrence (also contained in ``bits``).
        branch_count: number of control-flow events folded into the encoding.
        truncated: True if the path had more branches than the configured
            maximum ``l`` and the tail was not encoded.
    """

    bits: str
    indirect_codes: Tuple[int, ...] = ()
    branch_count: int = 0
    truncated: bool = False

    @property
    def path_id(self) -> int:
        """Integer path ID (a leading 1 sentinel keeps e.g. '011' != '0011')."""
        return int("1" + self.bits, 2) if self.bits else 1

    @property
    def width(self) -> int:
        """Number of bits in the encoding."""
        return len(self.bits)

    def to_bytes(self) -> bytes:
        """Serialize for inclusion in the loop metadata L."""
        width = self.width
        payload = int(self.bits, 2) if self.bits else 0
        return (
            width.to_bytes(2, "little")
            + payload.to_bytes((width + 7) // 8 or 1, "little")
            + len(self.indirect_codes).to_bytes(1, "little")
            + bytes(code & 0xFF for code in self.indirect_codes)
            + (b"\x01" if self.truncated else b"\x00")
        )

    @classmethod
    def read_from(cls, blob: bytes, offset: int = 0) -> Tuple["PathEncoding", int]:
        """Parse one encoding from ``blob`` at ``offset``; return (encoding,
        next offset).  Inverse of :meth:`to_bytes` for the serialised fields;
        ``branch_count`` is not on the wire, so it reconstructs as the bit
        width (re-serialisation stays byte-exact either way).  Raises
        :class:`ValueError` on truncated input."""
        def take(count):
            nonlocal offset
            block = blob[offset:offset + count]
            if len(block) != count:
                raise ValueError("truncated path encoding")
            offset += count
            return block

        width = int.from_bytes(take(2), "little")
        payload = int.from_bytes(take((width + 7) // 8 or 1), "little")
        bits = format(payload, "0%db" % width) if width else ""
        code_count = take(1)[0]
        codes = tuple(take(code_count))
        truncated = take(1)[0] != 0
        return cls(
            bits=bits,
            indirect_codes=codes,
            branch_count=len(bits),
            truncated=truncated,
        ), offset

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PathEncoding":
        """Deserialize one encoding (inverse of :meth:`to_bytes`)."""
        encoding, offset = cls.read_from(blob, 0)
        if offset != len(blob):
            raise ValueError("trailing bytes after path encoding")
        return encoding

    def __str__(self) -> str:
        suffix = " (truncated)" if self.truncated else ""
        return self.bits + suffix


class LoopPathEncoder:
    """Accumulates the encoding of the currently executing loop path.

    One encoder instance exists per *active* loop (the loop monitor owns
    them).  The encoder also owns the loop's indirect-target CAM, because the
    target codes are local to a loop in the paper's design.

    The in-flight path is an integer value plus its width, so an append is
    O(1) and :attr:`path_id` needs no string; :meth:`finish` builds the
    :class:`PathEncoding` (the loop monitor asks only for new paths).
    """

    def __init__(self, config: Optional[LoFatConfig] = None) -> None:
        self.config = config or LoFatConfig()
        self.cam = TargetCam(self.config.indirect_target_bits)
        self._code_bits = self.config.indirect_target_bits
        self._max_bits = self.config.max_branches_per_path
        self.reset_path()

    # ------------------------------------------------------------- events
    def on_conditional(self, taken: bool) -> None:
        """Record a conditional branch outcome (1 = taken, 0 = not taken)."""
        self._append(1 if taken else 0, 1)

    def on_direct_jump(self) -> None:
        """Record a direct unconditional jump (always encoded as 1)."""
        self._append(1, 1)

    def on_indirect(self, target: int) -> int:
        """Record an indirect branch to ``target``; returns the assigned code."""
        code = self.cam.encode(target)
        self._append(code, self._code_bits)
        # L carries the code count in one byte.  Past 255 codes the path is
        # long truncated already (255 x n bits > l), so the rest are dropped.
        if len(self._indirect_codes) < MAX_INDIRECT_CODES:
            self._indirect_codes.append(code)
        return code

    def _append(self, value: int, width: int) -> None:
        self._branch_count += 1
        total = self._width + width
        if total > self._max_bits:
            # Path longer than the configured granularity: the hardware stops
            # refining the encoding; the verifier sees the truncation flag.
            self._truncated = True
            return
        self._value = (self._value << width) | value
        self._width = total

    # ------------------------------------------------------------ lifecycle
    def finish(self) -> PathEncoding:
        """Finish the current path and return its encoding (then reset)."""
        encoding = PathEncoding(
            bits=self.current_bits,
            indirect_codes=tuple(self._indirect_codes),
            branch_count=self._branch_count,
            truncated=self._truncated,
        )
        self.reset_path()
        return encoding

    def reset_path(self) -> None:
        """Clear per-iteration state (the CAM persists across iterations)."""
        self._value = 0
        self._width = 0
        self._indirect_codes = []
        self._branch_count = 0
        self._truncated = False

    def reset_loop(self) -> None:
        """Clear everything including the CAM (loop exit / memory re-use)."""
        self.reset_path()
        self.cam.clear()

    @property
    def path_id(self) -> int:
        """:attr:`PathEncoding.path_id` of the in-flight path."""
        return (1 << self._width) | self._value

    @property
    def current_bits(self) -> str:
        """The bits accumulated so far for the in-flight path."""
        return format(self._value, "0%db" % self._width) if self._width else ""

    @property
    def is_empty(self) -> bool:
        """True if no event has been recorded for the in-flight path."""
        return self._branch_count == 0
