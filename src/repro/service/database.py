"""The verifier-side measurement database.

The verifier's strongest check -- golden replay -- costs one full simulated
execution per report.  At campaign scale that dominates the service's work:
the same (scheme, program, input, configuration) tuple is verified over and
over across repeats, sweeps and attack/benign pairs.  This module caches the
expected measurement ``(A, serialized L)`` keyed by

    (scheme name, program digest, input vector, configuration digest)

so that every verification after the first is O(lookup).  Keying by *digest*
rather than registry name means the cache survives re-assembly, renaming and
process restarts (via :meth:`MeasurementDatabase.save` /
:meth:`MeasurementDatabase.load`), and can never confuse two different
binaries that share a name; including the scheme name means LO-FAT, C-FLAT
and static references for the same binary never collide either.

A second keyspace serves the capture-once / verify-many pipeline: entries
keyed by

    (scheme name, trace digest, configuration digest)

where the trace digest is the content address of a stored control-flow trace
(:func:`repro.cpu.tracefile.trace_digest`).  A reference computed by
*replaying* a capture lands under both keys, so any later job whose capture
serialises to the same bytes -- whatever workload/input signature it was
captured under -- reuses the measurement without another replay.  Both
keyspaces persist.

Every reference the runner and the server supply to the verifier follows
one sequence owned here: :meth:`MeasurementDatabase.lookup` (primary key,
then the benign capture's trace key; one hit or one miss per request),
:func:`compute_reference` on a miss, :meth:`MeasurementDatabase.store`
(both keys).  The runner runs it through ``lookup_or_compute``; the server
splits it across its event loop and executor.

Replays themselves have one home too: :func:`replay_capture`, a bounded
per-process memo keyed by (scheme, trace digest, configuration digest).
The prover's stage 2 (:func:`repro.service.worker.execute_attest_job`)
and :func:`compute_reference` both replay through it, so in a sequential
campaign a benign job's reference is the entry its own stage 2 left, and
each (scheme, capture, configuration) is replayed once per process.  A
job's reference still comes only from its *benign* capture: attacked
captures have their own digests and stay separate entries.

A third keyspace stores :class:`repro.dataflow.policy.StaticPolicy`
artifacts keyed by program digest, so verifier processes loading a shared
database also pick up the statically proven loop bounds and enforce them
without re-running the dataflow passes.

The fleet deployment (:mod:`repro.service.fleet`) splits the database the
way a read-mostly production store is split:

* a **shared snapshot** -- a fully populated ``MeasurementDatabase`` loaded
  once in the parent and inherited read-only by every worker process
  (copy-on-write under ``fork``; loaded from the saved file under spawn).
  Pass it as the ``snapshot`` argument: lookups fall through to it, writes
  never touch it, so warm verifies cross no lock and no process boundary.
* a per-worker **append-only delta log** (:class:`DeltaLog`): every write a
  worker makes on top of the snapshot is also appended, one JSON line per
  record, to a file only that worker writes.  On drain the parent replays
  every worker's log into the base database (:meth:`merge_delta_log`) and
  saves -- the merged file is byte-identical to what a single-process
  server computing the same references would have saved.

The database stores only public reference values -- the expected measurement
and metadata for known inputs, and statically derivable program facts -- so
persisting or sharing it does not weaken the protocol (freshness still comes
from the per-challenge nonce).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache import DigestCache
from repro.dataflow.policy import StaticPolicy
from repro.isa.assembler import Program
from repro.lofat.metadata import LazyLoopMetadata
from repro.schemes import get_scheme
from repro.service.fsutil import atomic_write_text

#: A database key: (scheme, program digest, inputs, config digest).
DatabaseKey = Tuple[str, str, Tuple[int, ...], str]

#: A trace-keyed entry: (scheme, trace digest, config digest).
TraceKey = Tuple[str, str, str]


#: The one replay memo: ``(A, serialized L, LazyLoopMetadata, stats)`` keyed
#: by (scheme, trace digest, config digest).  The prover's stage 2
#: (:func:`repro.service.worker.execute_attest_job`) and every reference
#: :func:`compute_reference` replays go through it, so one execution is
#: replayed once per process however many reports and references need its
#: measurement.  Caching the metadata object matters as much as caching the
#: measurement: re-parsing ``L`` from bytes -- or re-serialising it for
#: every report's ``to_bytes`` -- dominated the replay hot path.  The lazy
#: form carries the serialised bytes for free and parses records only if a
#: consumer iterates them; the object is shared across reports, which is
#: safe because metadata is read-only once a session finalizes.  The budget
#: holds a whole pass of a family-matrix campaign (426 distinct replays at
#: seed 20170618).
_REPLAY_CACHE = DigestCache(budget=1024)


def replay_capture(
    program: Program, capture, backend, config, config_digest: str
) -> Tuple[tuple, bool]:
    """Replay ``capture`` under the scheme ``backend`` once per process.

    Returns the memo entry ``(A, serialized L, LazyLoopMetadata, stats)``
    and whether this call ran the replay (False: served from the memo, or
    from a concurrent caller's replay of the same key).
    """
    replayed = []

    def replay():
        replayed.append(True)
        measured = backend.replay_measurement(
            program, capture.trace(), config=config)
        metadata_bytes = measured.metadata.to_bytes()
        return (measured.measurement, metadata_bytes,
                LazyLoopMetadata(metadata_bytes), measured.stats)

    entry = _REPLAY_CACHE.get_or_build(
        (backend.name, capture.trace_digest, config_digest), replay)
    return entry, bool(replayed)


def clear_replay_cache() -> None:
    """Drop this process's replay memo (tests and benchmarks)."""
    _REPLAY_CACHE.clear()


def compute_reference(
    program: Program,
    inputs: Tuple[int, ...],
    scheme: str = "lofat",
    config=None,
    capture=None,
    cpu_config=None,
    config_digest: Optional[str] = None,
) -> Tuple[bytes, bytes]:
    """Measure the expected ``(A, serialized L)`` of one benign execution.

    Replays ``capture`` (the benign execution's
    :class:`repro.service.tracestore.CapturedExecution`) through
    :func:`replay_capture` when it is replayable, else runs the scheme's
    ``reference_measurement``.  ``config_digest`` is the key's digest of
    ``config`` (hashed here when omitted).  Its only shared state is the
    thread-safe replay memo, so the server runs it on an executor thread.
    """
    backend = get_scheme(scheme)
    if _replays(backend, capture):
        if config_digest is None:
            config_digest = backend.config_digest(config)
        entry, _ = replay_capture(
            program, capture, backend, config, config_digest)
        return entry[0], entry[1]
    measured = backend.reference_measurement(
        program, list(inputs), config=config, cpu_config=cpu_config)
    return measured.measurement, measured.metadata.to_bytes()


def _replays(backend, capture) -> bool:
    """Whether ``backend``'s reference replays ``capture`` (static never does)."""
    return (capture is not None and capture.replayable
            and backend.reference_requires_execution)


class DeltaLog:
    """Append-only JSONL log of writes made on top of a database snapshot.

    One record per line, flushed per append, so the log on disk is always a
    complete prefix of the writes plus at most one truncated trailing line
    (the crash case).  :func:`iter_delta_records` tolerates exactly that: it
    yields every complete record and ignores a partial final line, but a
    malformed line *followed by more data* is corruption and raises.

    A log is single-writer by construction -- each fleet worker owns its own
    file -- which is what makes appends lock-free.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records_written = 0
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_delta_records(path: str) -> Iterator[dict]:
    """Yield the complete records of a delta log, tolerating a torn tail.

    A line that fails to parse is accepted (skipped) only when it is the
    final non-empty line of the file -- the signature of a writer killed
    mid-append.  Anywhere else it means the file was corrupted and the
    merge must not silently continue.
    """
    with open(path, encoding="utf-8") as handle:
        lines: List[str] = handle.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                return
            raise ValueError(
                "corrupt delta log %s: unparsable line %d is not the tail"
                % (path, index + 1)
            )
        if not isinstance(record, dict):
            raise ValueError(
                "corrupt delta log %s: line %d is not an object"
                % (path, index + 1)
            )
        yield record


class MeasurementDatabase:
    """Cache of expected measurements, keyed by (scheme, digest, inputs, config).

    ``lookup_or_compute`` is the service's main entry point: a hit returns
    the stored ``(A, L)`` immediately; a miss computes the reference through
    :func:`compute_reference` and stores it.  Hit/miss counters feed the
    campaign reports, the server's STATS frame and the E10 benchmark's
    cache-speedup measurement, and mean the same thing in all of them.

    ``snapshot`` layers this database over a read-mostly base: lookups fall
    through to the snapshot on a local miss, writes stay local (and are
    mirrored to an attached :class:`DeltaLog`), and the snapshot itself is
    never mutated.  That is the fleet-worker configuration -- see the module
    docstring for the lifecycle.
    """

    def __init__(self, snapshot: Optional["MeasurementDatabase"] = None) -> None:
        self._entries: Dict[DatabaseKey, Tuple[bytes, bytes]] = {}
        self._trace_entries: Dict[TraceKey, Tuple[bytes, bytes]] = {}
        self._policy_entries: Dict[str, StaticPolicy] = {}
        self._snapshot = snapshot
        self._delta_log: Optional[DeltaLog] = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------- snapshot/delta
    @property
    def snapshot(self) -> Optional["MeasurementDatabase"]:
        return self._snapshot

    def attach_delta_log(self, log: DeltaLog) -> None:
        """Mirror every subsequent write into ``log`` (fleet workers)."""
        self._delta_log = log

    def _get_entry(self, key: DatabaseKey) -> Optional[Tuple[bytes, bytes]]:
        entry = self._entries.get(key)
        if entry is None and self._snapshot is not None:
            entry = self._snapshot._entries.get(key)
        return entry

    def _get_trace_entry(self, key: TraceKey) -> Optional[Tuple[bytes, bytes]]:
        entry = self._trace_entries.get(key)
        if entry is None and self._snapshot is not None:
            entry = self._snapshot._trace_entries.get(key)
        return entry

    def _store_entry(self, key: DatabaseKey, entry: Tuple[bytes, bytes]) -> None:
        self._entries[key] = entry
        if self._delta_log is not None:
            self._delta_log.append({
                "kind": "entry",
                "scheme": key[0],
                "program_digest": key[1],
                "inputs": list(key[2]),
                "config_digest": key[3],
                "measurement": entry[0].hex(),
                "metadata": entry[1].hex(),
            })

    def _store_trace_entry(self, key: TraceKey, entry: Tuple[bytes, bytes]) -> None:
        self._trace_entries[key] = entry
        if self._delta_log is not None:
            self._delta_log.append({
                "kind": "trace",
                "scheme": key[0],
                "trace_digest": key[1],
                "config_digest": key[2],
                "measurement": entry[0].hex(),
                "metadata": entry[1].hex(),
            })

    def merge_delta_log(self, path: str) -> int:
        """Replay a worker's delta log into this database; returns the count.

        Records are applied in append order, so a later write to the same
        key wins -- the same last-writer-wins semantics dict assignment
        gives the single-process server.  Measurements are deterministic,
        so overlapping records from different workers carry identical
        values and the merge is order-independent across logs.
        """
        applied = 0
        for record in iter_delta_records(path):
            kind = record.get("kind")
            if kind == "entry":
                key = (
                    str(record["scheme"]),
                    str(record["program_digest"]),
                    tuple(int(v) for v in record["inputs"]),
                    str(record["config_digest"]),
                )
                self._entries[key] = (
                    bytes.fromhex(record["measurement"]),
                    bytes.fromhex(record["metadata"]),
                )
            elif kind == "trace":
                trace_key = (
                    str(record["scheme"]),
                    str(record["trace_digest"]),
                    str(record["config_digest"]),
                )
                self._trace_entries[trace_key] = (
                    bytes.fromhex(record["measurement"]),
                    bytes.fromhex(record["metadata"]),
                )
            elif kind == "policy":
                policy = StaticPolicy.from_json(record["policy"])
                self._policy_entries[policy.program_digest] = policy
            else:
                raise ValueError(
                    "corrupt delta log %s: unknown record kind %r" % (path, kind)
                )
            applied += 1
        return applied

    # ---------------------------------------------------------------- keys
    @staticmethod
    def key_for(
        program: Program,
        inputs: Tuple[int, ...],
        config=None,
        scheme: str = "lofat",
        config_digest: Optional[str] = None,
    ) -> DatabaseKey:
        """``config_digest`` short-circuits the canonical hashing when the
        caller already computed it (the campaign hot path memoises digests
        per sweep point)."""
        backend = get_scheme(scheme)
        return (
            backend.name,
            program.digest,
            tuple(int(v) for v in inputs),
            config_digest if config_digest is not None
            else backend.config_digest(config),
        )

    @staticmethod
    def trace_key_for(
        scheme: str,
        trace_digest: str,
        config=None,
        config_digest: Optional[str] = None,
    ) -> TraceKey:
        backend = get_scheme(scheme)
        return (
            backend.name,
            trace_digest,
            config_digest if config_digest is not None
            else backend.config_digest(config),
        )

    # -------------------------------------------------------------- access
    def lookup(
        self,
        program: Program,
        inputs: Tuple[int, ...],
        config=None,
        scheme: str = "lofat",
        config_digest: Optional[str] = None,
        resolve_capture: Optional[Callable[[], object]] = None,
    ) -> Optional[Tuple[bytes, bytes]]:
        """Return the stored ``(A, serialized L)`` or None (see :meth:`_probe`).

        ``config_digest`` short-circuits the canonical configuration hashing
        for callers that memoise it (the server, once per report).
        ``resolve_capture`` returns the benign capture of the execution, or
        None; it is called only after a primary-key miss.
        """
        return self._probe(
            self.key_for(program, inputs, config, scheme, config_digest),
            resolve_capture,
        )

    def store(
        self,
        program: Program,
        inputs: Tuple[int, ...],
        config,
        measurement: bytes,
        metadata_bytes: bytes,
        scheme: str = "lofat",
        capture=None,
        config_digest: Optional[str] = None,
    ) -> None:
        """Store a reference under its primary key and ``capture``'s trace key."""
        key = self.key_for(program, inputs, config, scheme, config_digest)
        self._remember(key, capture, (bytes(measurement), bytes(metadata_bytes)))

    def lookup_trace(
        self,
        scheme: str,
        trace_digest: str,
        config=None,
        config_digest: Optional[str] = None,
    ) -> Optional[Tuple[bytes, bytes]]:
        """Return the ``(A, serialized L)`` stored for a trace digest, or None.

        Counts hit/miss like :meth:`lookup`: trace-keyed lookups are part of
        the same cache accounting.
        """
        entry = self._get_trace_entry(
            self.trace_key_for(scheme, trace_digest, config, config_digest)
        )
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store_trace(
        self,
        scheme: str,
        trace_digest: str,
        config,
        measurement: bytes,
        metadata_bytes: bytes,
        config_digest: Optional[str] = None,
    ) -> None:
        key = self.trace_key_for(scheme, trace_digest, config, config_digest)
        self._store_trace_entry(key, (bytes(measurement), bytes(metadata_bytes)))

    def store_policy(self, policy: StaticPolicy) -> None:
        """Persist a StaticPolicy, keyed by its own program digest."""
        self._policy_entries[policy.program_digest] = policy
        if self._delta_log is not None:
            self._delta_log.append({"kind": "policy", "policy": policy.to_json()})

    def lookup_policy(self, program_digest: str) -> Optional[StaticPolicy]:
        """The stored StaticPolicy for a program digest, or None.

        Deliberately not counted in the hit/miss statistics: those measure
        measurement-reference reuse (the E10 cache-speedup benchmark), and
        policy lookups happen once per program registration, not per report.
        """
        policy = self._policy_entries.get(program_digest)
        if policy is None and self._snapshot is not None:
            policy = self._snapshot._policy_entries.get(program_digest)
        return policy

    def lookup_or_compute(
        self,
        program: Program,
        inputs: Tuple[int, ...],
        config=None,
        cpu_config=None,
        scheme: str = "lofat",
        capture=None,
        config_digest: Optional[str] = None,
    ) -> Tuple[bytes, bytes, bool]:
        """Return ``(A, serialized L, was_hit)``, computing the reference on miss.

        The whole reference sequence in one call; ``capture`` is the benign
        execution's capture, or None.
        """
        key = self.key_for(program, inputs, config, scheme, config_digest)
        entry = self._probe(key, lambda: capture)
        if entry is not None:
            return entry[0], entry[1], True
        entry = compute_reference(
            program, inputs, scheme, config, capture, cpu_config, key[3])
        self._remember(key, capture, entry)
        return entry[0], entry[1], False

    # -------------------------------------------- the reference sequence
    # Private, so no public method calls another (perfbench wraps each one).
    def _probe(
        self,
        key: DatabaseKey,
        resolve_capture: Optional[Callable[[], object]],
    ) -> Optional[Tuple[bytes, bytes]]:
        """Primary key, then (after a miss) the benign capture's trace key,
        whose hit backfills the primary key; counts one hit or one miss."""
        entry = self._get_entry(key)
        if entry is None and resolve_capture is not None:
            trace_key = self._trace_key(key, resolve_capture())
            if trace_key is not None:
                entry = self._get_trace_entry(trace_key)
                if entry is not None:
                    self._store_entry(key, entry)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def _remember(
        self, key: DatabaseKey, capture, entry: Tuple[bytes, bytes]
    ) -> None:
        """Store ``entry`` under ``key`` and under the capture's trace key."""
        trace_key = self._trace_key(key, capture)
        if trace_key is not None:
            self._store_trace_entry(trace_key, entry)
        self._store_entry(key, entry)

    @staticmethod
    def _trace_key(key: DatabaseKey, capture) -> Optional[TraceKey]:
        """The trace key of the capture ``key``'s reference replays, or None."""
        if not _replays(get_scheme(key[0]), capture):
            return None
        return (key[0], capture.trace_digest, key[3])

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        """Number of (scheme, program, inputs, config)-keyed entries.

        Trace-keyed entries are deliberately not counted here -- they are a
        derived index over the same measurements (see :meth:`stats`).
        """
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        stats = {
            "entries": len(self._entries),
            "trace_entries": len(self._trace_entries),
            "policy_entries": len(self._policy_entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }
        if self._snapshot is not None:
            stats["snapshot_entries"] = len(self._snapshot._entries)
            stats["snapshot_trace_entries"] = len(self._snapshot._trace_entries)
        if self._delta_log is not None:
            stats["delta_records"] = self._delta_log.records_written
        return stats

    def counters(self) -> Tuple[int, int]:
        """Snapshot of the lifetime (hits, misses) counters."""
        return (self.hits, self.misses)

    def stats_since(self, counters: Tuple[int, int]) -> dict:
        """Statistics relative to an earlier :meth:`counters` snapshot.

        The campaign runner uses this so each run reports its own hit/miss
        numbers even when one database serves many runs.
        """
        hits = self.hits - counters[0]
        misses = self.misses - counters[1]
        total = hits + misses
        return {
            "entries": len(self._entries),
            "trace_entries": len(self._trace_entries),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # ---------------------------------------------------------- persistence
    def to_json(self) -> str:
        entries = [
            {
                "scheme": scheme,
                "program_digest": program_digest,
                "inputs": list(inputs),
                "config_digest": cfg_digest,
                "measurement": measurement.hex(),
                "metadata": metadata.hex(),
            }
            for (scheme, program_digest, inputs, cfg_digest), (measurement, metadata)
            in sorted(self._entries.items())
        ]
        trace_entries = [
            {
                "scheme": scheme,
                "trace_digest": digest,
                "config_digest": cfg_digest,
                "measurement": measurement.hex(),
                "metadata": metadata.hex(),
            }
            for (scheme, digest, cfg_digest), (measurement, metadata)
            in sorted(self._trace_entries.items())
        ]
        document = {"version": 1, "entries": entries}
        if trace_entries:
            document["trace_entries"] = trace_entries
        if self._policy_entries:
            document["policy_entries"] = [
                self._policy_entries[digest].to_json()
                for digest in sorted(self._policy_entries)
            ]
        return json.dumps(document, indent=2)

    @classmethod
    def from_json(cls, payload: str) -> "MeasurementDatabase":
        """Parse a persisted database.

        Entries written before the scheme field existed default to
        ``"lofat"`` so old database files stay loadable; files without a
        ``trace_entries`` block (pre capture-once releases) load with an
        empty trace keyspace.
        """
        document = json.loads(payload)
        if document.get("version") != 1:
            raise ValueError("unsupported measurement database version")
        database = cls()
        for entry in document.get("entries", []):
            key = (
                str(entry.get("scheme", "lofat")),
                str(entry["program_digest"]),
                tuple(int(v) for v in entry["inputs"]),
                str(entry["config_digest"]),
            )
            database._entries[key] = (
                bytes.fromhex(entry["measurement"]),
                bytes.fromhex(entry["metadata"]),
            )
        for entry in document.get("trace_entries", []):
            trace_key = (
                str(entry.get("scheme", "lofat")),
                str(entry["trace_digest"]),
                str(entry["config_digest"]),
            )
            database._trace_entries[trace_key] = (
                bytes.fromhex(entry["measurement"]),
                bytes.fromhex(entry["metadata"]),
            )
        for entry in document.get("policy_entries", []):
            policy = StaticPolicy.from_json(entry)
            database._policy_entries[policy.program_digest] = policy
        return database

    def save(self, path: str) -> int:
        """Persist to ``path`` atomically; returns the number of entries written.

        Written through :func:`repro.service.fsutil.atomic_write_text`, so a
        campaign or server killed mid-save leaves either the previous
        database or the new one -- never a truncated JSON file that poisons
        the next load.
        """
        atomic_write_text(path, self.to_json() + "\n")
        return len(self._entries)

    @classmethod
    def load(cls, path: str) -> "MeasurementDatabase":
        with open(path) as handle:
            return cls.from_json(handle.read())
