"""The content-addressed trace store behind capture-once / verify-many.

LO-FAT's own evaluation separated trace capture from attestation: the
authors dumped ModelSim instruction traces once and ran the hash/loop
pipeline over them offline.  This module is the campaign-scale version of
that split.  A campaign job matrix of ``schemes x workloads x configs x
attacks`` contains far fewer *distinct executions* than jobs -- the CPU
simulation depends only on the program build, the input vector, the injected
attack and the core-model parameters, never on the attestation scheme or its
configuration -- so each unique execution is simulated exactly once
(:mod:`repro.service.worker`, stage 1) and every (scheme, config) job replays
the stored control-flow trace through its scheme session (stage 2).

Two keyspaces:

* **Execution signature** (:func:`execution_signature`): the scheme-
  independent identity of one execution -- (program build signature, input
  vector, attack, CPU configuration).  This is what stage-1 capture dedup
  keys on.
* **Trace digest** (:func:`repro.cpu.tracefile.trace_digest`): the content
  address of the serialised trace.  Blobs are stored by digest, so two
  signatures that happen to produce identical traces share one blob, and the
  measurement database can key replayed references by digest.

The store holds serialised v2 tracefiles (control-flow records plus
straight-line run counters, see :mod:`repro.cpu.tracefile`) in memory, with
optional spill to a directory (``index.json`` plus ``blobs/<digest>.lftr``)
so captures survive process restarts and can be shared between ``repro trace
capture`` and ``repro trace attest`` invocations.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cache import DigestCache
from repro.cpu.tracefile import loads_trace, trace_digest
from repro.service.fsutil import atomic_write_text

#: CpuConfig fields that do not change the captured execution: the compiled
#: engine and the Cpu.step oracle are architecturally identical (pinned by
#: tests/test_fastpath_equivalence.py), and collect_trace is forced off
#: during capture.
_CPU_CONFIG_IGNORED_FIELDS = frozenset({"collect_trace", "engine"})

#: Process-wide memo of deserialised traces, keyed by content digest.  One
#: execution is replayed once per (scheme, config) sweep point and again
#: for its verifier reference, so memoising the parsed form makes every
#: replay after the first skip the parser.  Sessions never mutate the
#: records, so sharing them is safe (same argument as the CPU's
#: decoded-instruction cache).  The 4 MiB budget holds about 190,000
#: records -- several times one pass of a family-matrix campaign (about
#: 40,000 records over 142 traces) -- so a campaign parses each trace once.
#: Entries cost their serialised blob bytes (a v2 record is 22 bytes), so
#: the budget bounds the parsed records a long-lived server keeps resident.
_PARSED_TRACES = DigestCache(budget=4 << 20)


def parsed_trace(trace_bytes: bytes, digest: Optional[str] = None):
    """Deserialise ``trace_bytes``, memoised process-wide by content digest."""
    if digest is None:
        digest = trace_digest(trace_bytes)
    return _PARSED_TRACES.get_or_build(
        digest, lambda: loads_trace(trace_bytes), len(trace_bytes))


def workload_build_signature(workload) -> str:
    """Digest identifying what ``workload.build()`` would produce.

    For a plain :class:`repro.workloads.common.Workload` the assembly source
    is the sole input of ``build()``, so the signature covers exactly that.
    A subclass may parameterize ``build()`` on any instance attribute, so
    for subclasses every attribute is folded in via ``repr``; either way a
    registry re-registration under the same name never serves a stale
    cached :class:`Program`.  The failure mode is deliberately asymmetric:
    an attribute without a value-bearing repr (a callable, say) yields a
    fresh signature per registry instantiation, costing a cache miss and a
    reassembly -- never a wrong program.
    """
    from repro.workloads.common import Workload

    hasher = hashlib.sha3_256()
    hasher.update(type(workload).__qualname__.encode("utf-8"))
    hasher.update(b"\x00")
    if type(workload) is Workload:
        hasher.update(workload.source.encode("utf-8"))
    else:
        for key, value in sorted(vars(workload).items()):
            hasher.update(("%s=%r;" % (key, value)).encode("utf-8"))
    return hasher.hexdigest()


def cpu_config_digest(cpu_config=None) -> str:
    """Canonical digest of the core-model parameters that shape an execution.

    Fields that cannot change the retired-instruction stream or the cycle
    model (``engine``, ``collect_trace``) are excluded, so switching the
    execution engine never invalidates captures.
    """
    from repro.cpu.core import CpuConfig

    fields = asdict(cpu_config or CpuConfig())
    for name in _CPU_CONFIG_IGNORED_FIELDS:
        fields.pop(name, None)
    # A retired knob, always on when it existed: kept so persisted keys hold.
    fields["decoded_instruction_cache"] = True
    canonical = json.dumps(fields, sort_keys=True)
    return hashlib.sha3_256(canonical.encode("utf-8")).hexdigest()


def execution_signature(
    workload_name: str,
    inputs: Sequence[int],
    attack: Optional[str] = None,
    cpu_config=None,
    build_signature: Optional[str] = None,
    cpu_digest: Optional[str] = None,
) -> str:
    """The scheme-independent identity of one prover execution.

    Covers (program build signature, input vector, attack scenario, CPU
    configuration) -- everything that determines the retired-instruction
    stream -- and deliberately nothing scheme- or attestation-config
    related: an N-scheme x M-config sweep over one workload/input/attack
    point maps to a single signature.  ``build_signature``/``cpu_digest``
    short-circuit the registry lookup and config hashing when the caller
    already computed them (the runner's planning loop).
    """
    if build_signature is None:
        from repro.workloads import get_workload

        build_signature = workload_build_signature(get_workload(workload_name))
    if cpu_digest is None:
        cpu_digest = cpu_config_digest(cpu_config)
    hasher = hashlib.sha3_256()
    hasher.update(b"execution-signature:v1\x00")
    hasher.update(build_signature.encode("utf-8"))
    hasher.update(b"\x00")
    for value in inputs:
        hasher.update((int(value) & 0xFFFFFFFF).to_bytes(4, "little"))
    hasher.update(b"\x00")
    hasher.update((attack or "").encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(cpu_digest.encode("utf-8"))
    return hasher.hexdigest()


def benign_capture(
    trace_store: Optional["TraceStore"],
    workload_name: str,
    inputs: Sequence[int],
    cpu_config=None,
) -> Optional["CapturedExecution"]:
    """The stored capture of ``workload_name`` run without attack on
    ``inputs``, or None (also without a store): what a reference describes
    and what a benign prover replays."""
    if trace_store is None:
        return None
    return trace_store.get(execution_signature(
        workload_name, inputs, attack=None, cpu_config=cpu_config))


@dataclass(frozen=True)
class CapturedExecution:
    """One stored execution: the compact trace plus its architectural outputs.

    Everything stage 2 needs to produce a report without a CPU: the
    serialised control-flow trace (replayed through the scheme session) and
    the execution's observable outputs (echoed into the report and the
    operational numbers).  Picklable, so attest jobs can ship it to worker
    processes.
    """

    signature: str
    trace_digest: str
    trace_bytes: bytes
    exit_code: int
    output: str
    instructions: int
    cycles: int
    replayable: bool = True

    def trace(self):
        """Deserialise the stored control-flow trace (memoised per digest)."""
        return parsed_trace(self.trace_bytes, self.trace_digest)

    @property
    def size_bytes(self) -> int:
        return len(self.trace_bytes)


class TraceStoreError(ValueError):
    """Raised when a trace store directory is malformed."""


class TraceStore:
    """Signature-keyed store of captured executions, content-addressed blobs.

    The index maps execution signatures to capture metadata (trace digest,
    exit code, output, instruction/cycle totals); the blobs map trace
    digests to serialised v2 tracefiles.  With a ``directory``, both are
    persisted (``index.json``, ``blobs/<digest>.lftr``) and the in-memory
    blob tier becomes a bounded cache: once more than ``max_memory_blobs``
    disk-backed blobs are resident, the oldest are dropped and reloaded on
    demand -- campaigns bigger than memory spill to disk instead of growing
    without bound.  Without a directory everything stays in memory.
    """

    _INDEX_VERSION = 1

    def __init__(self, directory: Optional[str] = None,
                 max_memory_blobs: int = 256) -> None:
        self.directory = directory
        self.max_memory_blobs = max_memory_blobs
        self._index: Dict[str, dict] = {}
        self._blobs: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.blob_loads = 0
        if directory is not None:
            os.makedirs(os.path.join(directory, "blobs"), exist_ok=True)
            self._load_index()

    # ------------------------------------------------------------- plumbing
    def _index_path(self) -> str:
        return os.path.join(self.directory, "index.json")

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self.directory, "blobs", "%s.lftr" % digest)

    def _load_index(self) -> None:
        path = self._index_path()
        if not os.path.exists(path):
            return
        with open(path) as handle:
            document = json.load(handle)
        if document.get("version") != self._INDEX_VERSION:
            raise TraceStoreError(
                "unsupported trace store index version: %r"
                % document.get("version")
            )
        self._index = dict(document.get("captures", {}))

    def _save_index(self) -> None:
        # Atomic (temp file + os.replace, same discipline as
        # MeasurementDatabase.save): a killed capture run leaves the
        # previous index intact, never a truncated one.  Blobs are already
        # safe -- content-addressed and verified on load.
        payload = json.dumps(
            {"version": self._INDEX_VERSION, "captures": self._index},
            indent=2,
            sort_keys=True,
        )
        atomic_write_text(self._index_path(), payload + "\n")

    def _evict_memory_blobs(self) -> None:
        """Drop the oldest disk-backed blobs beyond the memory budget."""
        if self.directory is None:
            return
        while len(self._blobs) > self.max_memory_blobs:
            digest = next(iter(self._blobs))
            del self._blobs[digest]

    def _blob(self, digest: str) -> bytes:
        data = self._blobs.get(digest)
        if data is not None:
            return data
        if self.directory is None:
            raise KeyError("trace blob %s is not in the store" % digest)
        path = self._blob_path(digest)
        if not os.path.exists(path):
            raise TraceStoreError("trace blob missing from store: %s" % path)
        with open(path, "rb") as handle:
            data = handle.read()
        if trace_digest(data) != digest:
            raise TraceStoreError(
                "trace blob %s fails its content-address check" % path
            )
        self.blob_loads += 1
        self._blobs[digest] = data
        self._evict_memory_blobs()
        return data

    # --------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, signature: str) -> bool:
        return signature in self._index

    def get(self, signature: str) -> Optional[CapturedExecution]:
        """The stored capture for ``signature``, or None (counts hit/miss)."""
        meta = self._index.get(signature)
        if meta is None:
            self.misses += 1
            return None
        self.hits += 1
        return CapturedExecution(
            signature=signature,
            trace_digest=meta["trace_digest"],
            trace_bytes=self._blob(meta["trace_digest"]),
            exit_code=meta["exit_code"],
            output=meta["output"],
            instructions=meta["instructions"],
            cycles=meta["cycles"],
            replayable=meta.get("replayable", True),
        )

    def flush(self) -> None:
        """Persist the signature index (no-op for a memory-only store).

        Batch writers (the campaign runner's capture loop) pass
        ``flush=False`` to :meth:`put_bytes` and call this once at the end,
        so storing N captures writes the index once instead of N times.
        """
        if self.directory is not None:
            self._save_index()

    def put_bytes(
        self,
        signature: str,
        trace_bytes: bytes,
        exit_code: int,
        output: str,
        instructions: int,
        cycles: int,
        replayable: bool = True,
        flush: bool = True,
    ) -> CapturedExecution:
        """Store one captured execution (idempotent per signature)."""
        digest = trace_digest(trace_bytes)
        if digest not in self._blobs and (
            self.directory is None
            or not os.path.exists(self._blob_path(digest))
        ):
            self._blobs[digest] = trace_bytes
            if self.directory is not None:
                with open(self._blob_path(digest), "wb") as handle:
                    handle.write(trace_bytes)
            self._evict_memory_blobs()
        self._index[signature] = {
            "trace_digest": digest,
            "exit_code": int(exit_code),
            "output": output,
            "instructions": int(instructions),
            "cycles": int(cycles),
            "replayable": bool(replayable),
        }
        if flush and self.directory is not None:
            self._save_index()
        return CapturedExecution(
            signature=signature,
            trace_digest=digest,
            trace_bytes=trace_bytes,
            exit_code=exit_code,
            output=output,
            instructions=instructions,
            cycles=cycles,
            replayable=replayable,
        )

    # ------------------------------------------------------------ reporting
    @property
    def unique_traces(self) -> int:
        """Number of distinct trace blobs (content addresses) stored."""
        return len({meta["trace_digest"] for meta in self._index.values()})

    @property
    def stored_bytes(self) -> int:
        """Total size of the resident (in-memory) blob tier."""
        return sum(len(data) for data in self._blobs.values())

    def counters(self) -> Tuple[int, int]:
        """Snapshot of the lifetime (hits, misses) counters."""
        return (self.hits, self.misses)

    def stats(self) -> dict:
        return {
            "captures": len(self._index),
            "unique_traces": self.unique_traces,
            "memory_blobs": len(self._blobs),
            "memory_bytes": self.stored_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "blob_loads": self.blob_loads,
            "directory": self.directory,
        }
