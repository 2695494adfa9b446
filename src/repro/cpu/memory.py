"""Byte-addressable memory with region permissions.

The LO-FAT threat model assumes code memory is read-execute (``rx``) and data
memory is read-write (``rw``): the adversary may corrupt arbitrary writable
memory but cannot modify program code at run time.  The memory model enforces
exactly that separation; the attack injectors in :mod:`repro.attacks` corrupt
memory through the same interface the program uses, so they are subject to the
same W^X restriction the paper assumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.exceptions import MemoryProtectionError, MisalignedAccessError


class Permissions(enum.Flag):
    """Access permissions of a memory region."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()

    @classmethod
    def rx(cls) -> "Permissions":
        return cls.READ | cls.EXECUTE

    @classmethod
    def rw(cls) -> "Permissions":
        return cls.READ | cls.WRITE


@dataclass
class MemoryRegion:
    """A contiguous address range with fixed permissions."""

    name: str
    base: int
    size: int
    permissions: Permissions

    @property
    def end(self) -> int:
        """First address past the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` lies inside the region."""
        return self.base <= address < self.end


class Memory:
    """Byte-addressable memory with permission-checked accesses.

    Accesses must fall entirely within a single registered region.  Natural
    alignment is enforced for halfword and word accesses, matching the
    behaviour of the simple embedded cores the paper targets.

    Each region is backed by one contiguous :class:`bytearray` -- the hot
    load/store path is a bounds check plus a buffer slice, and the compiled
    execution engine (:mod:`repro.cpu.compile`) accesses region buffers
    directly through :meth:`region_buffer`.  Bytes written outside any
    region (possible only with ``enforce_protection=False`` or unchecked
    raw access) live in a sparse overflow dictionary.
    """

    def __init__(self, enforce_protection: bool = True) -> None:
        self._regions: List[MemoryRegion] = []
        #: Per-region fast-path descriptors, parallel to ``_regions``:
        #: (base, end, buffer, readable, writable, executable).
        self._fast: List[tuple] = []
        self._overflow: Dict[int, int] = {}
        self.enforce_protection = enforce_protection
        #: Bumped by every :meth:`load_image` that writes an executable
        #: region, so an engine that runs a plan compiled from the program
        #: image can tell, once per run, that code memory no longer holds
        #: that image.
        self.code_generation = 0

    # ------------------------------------------------------------- regions
    def add_region(self, region: MemoryRegion) -> None:
        """Register a region.  Overlapping regions are rejected."""
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    "region %r overlaps existing region %r" % (region.name, existing.name)
                )
        self._regions.append(region)
        permissions = region.permissions
        self._fast.append((
            region.base,
            region.base + region.size,
            bytearray(region.size),
            Permissions.READ in permissions,
            Permissions.WRITE in permissions,
            Permissions.EXECUTE in permissions,
        ))

    def region_for(self, address: int) -> Optional[MemoryRegion]:
        """Return the region containing ``address`` or None."""
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def region_buffer(self, name: str) -> Optional[tuple]:
        """The ``(base, size, bytearray)`` backing the named region.

        The buffer is the live backing store, not a copy: the compiled
        execution engine reads and writes it directly (with its own bounds
        and alignment guards), aliasing every access made through
        :meth:`load`/:meth:`store`.
        """
        for index, region in enumerate(self._regions):
            if region.name == name:
                entry = self._fast[index]
                return (entry[0], region.size, entry[2])
        return None

    @property
    def regions(self) -> List[MemoryRegion]:
        """All registered regions (copy)."""
        return list(self._regions)

    def _check_alignment(self, address: int, size: int) -> None:
        if size > 1 and address % size != 0:
            raise MisalignedAccessError(address, size)

    # ---------------------------------------------------------- raw bytes
    def _peek(self, address: int) -> int:
        """One byte, no checks (region byte or overflow byte or zero)."""
        for base, end, buffer, _r, _w, _x in self._fast:
            if base <= address < end:
                return buffer[address - base]
        return self._overflow.get(address, 0)

    def _poke(self, address: int, value: int) -> None:
        """Write one byte, no checks."""
        for base, end, buffer, _r, _w, _x in self._fast:
            if base <= address < end:
                buffer[address - base] = value
                return
        self._overflow[address] = value

    def load_bytes(self, address: int, size: int, check: bool = True) -> bytes:
        """Read ``size`` raw bytes (optionally skipping permission checks)."""
        end_address = address + size
        for base, end, buffer, readable, _w, _x in self._fast:
            if base <= address and end_address <= end:
                if check and self.enforce_protection and not readable:
                    raise MemoryProtectionError(address, "read")
                offset = address - base
                return bytes(buffer[offset:offset + size])
        if check and self.enforce_protection:
            raise MemoryProtectionError(address, "read")
        peek = self._peek
        return bytes(peek(address + i) for i in range(size))

    def store_bytes(self, address: int, data: bytes, check: bool = True) -> None:
        """Write raw bytes (optionally skipping permission checks)."""
        end_address = address + len(data)
        for base, end, buffer, _r, writable, _x in self._fast:
            if base <= address and end_address <= end:
                if check and self.enforce_protection and not writable:
                    raise MemoryProtectionError(address, "write")
                offset = address - base
                buffer[offset:offset + len(data)] = data
                return
        if check and self.enforce_protection:
            raise MemoryProtectionError(address, "write")
        poke = self._poke
        for i, value in enumerate(data):
            poke(address + i, value)

    def load_image(self, address: int, data: bytes) -> None:
        """Load an image (code or initialised data) ignoring permissions.

        Image loading models the boot-time flashing of the device, which is
        outside the software adversary's capabilities.
        """
        self.store_bytes(address, data, check=False)
        end_address = address + len(data)
        for base, end, _buffer, _r, _w, executable in self._fast:
            if executable and address < end and base < end_address:
                self.code_generation += 1
                return

    # -------------------------------------------------------------- typed
    def fetch_word(self, address: int) -> int:
        """Fetch a 32-bit instruction word (requires EXECUTE permission)."""
        if address % 4:
            raise MisalignedAccessError(address, 4)
        for base, end, buffer, _r, _w, executable in self._fast:
            if base <= address and address + 4 <= end:
                if not executable and self.enforce_protection:
                    raise MemoryProtectionError(address, "execute")
                offset = address - base
                return int.from_bytes(buffer[offset:offset + 4], "little")
        if self.enforce_protection:
            raise MemoryProtectionError(address, "execute")
        peek = self._peek
        return int.from_bytes(
            bytes(peek(address + i) for i in range(4)), "little")

    def load(self, address: int, size: int, signed: bool = False) -> int:
        """Load a ``size``-byte value (1, 2 or 4 bytes)."""
        if size > 1 and address % size:
            raise MisalignedAccessError(address, size)
        for base, end, buffer, readable, _w, _x in self._fast:
            if base <= address and address + size <= end:
                if not readable and self.enforce_protection:
                    raise MemoryProtectionError(address, "read")
                offset = address - base
                return int.from_bytes(
                    buffer[offset:offset + size], "little", signed=signed)
        if self.enforce_protection:
            raise MemoryProtectionError(address, "read")
        peek = self._peek
        return int.from_bytes(
            bytes(peek(address + i) for i in range(size)),
            "little", signed=signed)

    def store(self, address: int, value: int, size: int) -> None:
        """Store the low ``size`` bytes of ``value``."""
        if size > 1 and address % size:
            raise MisalignedAccessError(address, size)
        mask = (1 << (8 * size)) - 1
        data = (value & mask).to_bytes(size, "little")
        for base, end, buffer, _r, writable, _x in self._fast:
            if base <= address and address + size <= end:
                if not writable and self.enforce_protection:
                    raise MemoryProtectionError(address, "write")
                offset = address - base
                buffer[offset:offset + size] = data
                return
        if self.enforce_protection:
            raise MemoryProtectionError(address, "write")
        poke = self._poke
        for i, byte in enumerate(data):
            poke(address + i, byte)

    def load_word(self, address: int, signed: bool = False) -> int:
        """Convenience 32-bit load."""
        return self.load(address, 4, signed=signed)

    def store_word(self, address: int, value: int) -> None:
        """Convenience 32-bit store."""
        self.store(address, value, 4)

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string (used by the print-string syscall)."""
        for base, end, buffer, _r, _w, _x in self._fast:
            if base <= address < end:
                offset = address - base
                stop = min(offset + limit, end - base)
                terminator = buffer.find(0, offset, stop)
                if terminator < 0:
                    terminator = stop
                return buffer[offset:terminator].decode("latin-1")
        chars = []
        for index in range(limit):
            byte = self._overflow.get(address + index, 0)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)

    def snapshot(self) -> Dict[int, int]:
        """Copy of all populated (non-zero) bytes (tests / debugging)."""
        populated = dict(self._overflow)
        for base, _end, buffer, _r, _w, _x in self._fast:
            for offset, value in enumerate(buffer):
                if value:
                    populated[base + offset] = value
        return populated
