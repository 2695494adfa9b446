"""Multi-process attestation verifier fleet.

E14 measured a single asyncio :class:`~repro.service.server.AttestationServer`
process saturating around ~3k reports/sec -- the GIL ceiling, not the
protocol's.  The verifier is a passive party that only checks hashes, so the
faithful production deployment is horizontal: N identical worker processes,
each running its own event loop, sharing one read-mostly measurement
database.  This module is that deployment.

Dispatcher modes
----------------

``reuseport``
    Every worker binds its own listening socket with ``SO_REUSEPORT`` to the
    same address; the kernel load-balances incoming connections across the
    listeners (hashed on the 4-tuple).  The parent holds a bound -- but not
    listening -- probe socket on the port for the fleet's lifetime, which
    pins an ephemeral ``port 0`` choice and keeps the reservation while
    workers restart.  This is the preferred mode wherever the option exists
    (Linux >= 3.9, BSDs).

``handoff``
    The parent binds and listens on one socket *before* forking; every
    worker inherits the file descriptor and accepts on it.  The kernel wakes
    one (or a few) blocked acceptors per connection -- classic pre-fork
    accept sharing.  This is the fallback when ``SO_REUSEPORT`` is missing;
    it requires the ``fork`` start method.

``auto`` picks ``reuseport`` when available, else ``handoff``.

Database lifecycle
------------------

The parent loads the measurement database once.  Each worker layers a fresh
:class:`~repro.service.database.MeasurementDatabase` over that base as a
read-only ``snapshot`` (process-inherited copy-on-write under ``fork``;
re-loaded from the saved file under spawn) and mirrors its own writes into a
private append-only :class:`~repro.service.database.DeltaLog` under the
state directory.  Warm verifies therefore touch no lock and cross no process
boundary.  On drain the parent replays every worker's delta log into the
base and saves it atomically -- byte-identical to what a single-process
server computing the same references would have written.

Drain semantics
---------------

``stop()`` SIGTERMs the workers; each worker stops accepting, finishes its
in-flight sessions (:meth:`AttestationServer.drain`), writes its stats file,
closes its delta log and exits 0.  A SHUTDOWN frame accepted by any worker
(``allow_shutdown``) touches a stop flag in the state directory, which the
supervising parent notices and turns into a fleet-wide drain -- so the wire
shutdown used by CI tears the whole fleet down cleanly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cpu.core import CpuConfig
from repro.service.database import DeltaLog, MeasurementDatabase
from repro.service.fsutil import atomic_write_text

DISPATCHER_MODES = ("auto", "reuseport", "handoff")

#: Listen backlog for the shared socket.  Reconnect storms arrive as a
#: synchronized burst of SYNs; a deep backlog absorbs them instead of
#: refusing connections.
LISTEN_BACKLOG = 512


class FleetError(RuntimeError):
    """Fleet deployment misconfiguration or worker failure."""


def reuseport_available() -> bool:
    """True when a socket accepts the SO_REUSEPORT option on this host."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def resolve_dispatcher(mode: str) -> str:
    """Resolve ``auto`` against the host; validate explicit choices."""
    if mode not in DISPATCHER_MODES:
        raise FleetError("unknown dispatcher mode: %r" % (mode,))
    if mode == "auto":
        return "reuseport" if reuseport_available() else "handoff"
    if mode == "reuseport" and not reuseport_available():
        raise FleetError("SO_REUSEPORT is not available on this host")
    return mode


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


@dataclass
class FleetSummary:
    """What the drain produced, aggregated across workers."""

    workers: int
    dispatcher: str
    clean: bool
    worker_exit_codes: List[int]
    delta_records: int
    merged_entries: int
    database_entries: int
    stats: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "dispatcher": self.dispatcher,
            "clean": self.clean,
            "worker_exit_codes": list(self.worker_exit_codes),
            "delta_records": self.delta_records,
            "merged_entries": self.merged_entries,
            "database_entries": self.database_entries,
            "stats": dict(self.stats),
        }


def _worker_ready_path(state_dir: str, index: int) -> str:
    return os.path.join(state_dir, "worker-%d.ready" % index)


def _worker_delta_path(state_dir: str, index: int) -> str:
    return os.path.join(state_dir, "delta-%d.jsonl" % index)


def _worker_stats_path(state_dir: str, index: int) -> str:
    return os.path.join(state_dir, "stats-%d.json" % index)


def _stop_flag_path(state_dir: str) -> str:
    return os.path.join(state_dir, "stop.requested")


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


def _fleet_worker_main(
    index: int,
    host: str,
    port: int,
    dispatcher: str,
    state_dir: str,
    listen_sock: Optional[socket.socket],
    base_database: Optional[MeasurementDatabase],
    database_path: Optional[str],
    trace_dir: Optional[str],
    cpu_config: Optional[CpuConfig],
    allow_shutdown: bool,
    session_limit: int,
) -> None:
    """Entry point of one fleet worker process.

    Exits 0 on a clean drain (SIGTERM or wire shutdown); any exception
    propagates and the nonzero exit code is what the parent reports.
    """
    import asyncio

    from repro.service.server import AttestationServer

    # The parent owns Ctrl-C: it turns SIGINT into an orderly SIGTERM drain,
    # so workers must not race it with their own KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    state = {"terminated": False}

    # Process-level SIGTERM handler from the first instruction: a drain
    # signal must never hit the default (fatal) action, whichever side of
    # the event loop's lifetime it lands on.  The loop installs its own
    # loop-safe handler over this one while serving.
    signal.signal(signal.SIGTERM, lambda *_: state.__setitem__("terminated", True))

    snapshot = base_database
    if snapshot is None and database_path is not None and os.path.exists(database_path):
        snapshot = MeasurementDatabase.load(database_path)
    database = MeasurementDatabase(snapshot=snapshot)
    delta = DeltaLog(_worker_delta_path(state_dir, index))
    database.attach_delta_log(delta)

    trace_store = None
    if trace_dir is not None:
        from repro.service.tracestore import TraceStore

        trace_store = TraceStore(trace_dir)

    if dispatcher == "reuseport":
        sock = _reuseport_socket(host, port)
        sock.listen(LISTEN_BACKLOG)
    else:
        assert listen_sock is not None
        sock = listen_sock

    server = AttestationServer(
        host=host,
        port=port,
        database=database,
        trace_store=trace_store,
        cpu_config=cpu_config,
        allow_shutdown=allow_shutdown,
        session_limit=session_limit,
        sock=sock,
        ready_file=_worker_ready_path(state_dir, index),
    )

    async def _serve() -> bool:
        loop = asyncio.get_running_loop()

        def _on_term() -> None:
            state["terminated"] = True
            if server._stopping is not None:
                server._stopping.set()

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_term)
        except (NotImplementedError, RuntimeError):
            signal.signal(signal.SIGTERM, lambda *_: _on_term())
        await server.start()
        if state["terminated"]:
            # SIGTERM landed in the start window, before the event existed.
            assert server._stopping is not None
            server._stopping.set()
        assert server._stopping is not None
        await server._stopping.wait()
        return await server.drain()

    try:
        drained = asyncio.run(_serve())
        # Draining is done; a late SIGTERM from the parent's fleet-wide
        # stop (the wire-shutdown race) must not kill the stats write.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if not state["terminated"]:
            # The stop came over the wire (SHUTDOWN frame): tell the parent
            # so it drains the sibling workers too.
            atomic_write_text(_stop_flag_path(state_dir), "worker-%d\n" % index)
        payload = {
            "worker": index,
            "drained": drained,
            "server": server.stats.as_dict(),
            "database": database.stats(),
        }
        atomic_write_text(
            _worker_stats_path(state_dir, index),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
    finally:
        delta.close()
    sys.exit(0)


class FleetServer:
    """Parent-side supervisor of an N-worker verifier fleet.

    The parent never runs an event loop: it binds (per the dispatcher
    mode), forks workers, waits for their ready files, then supervises --
    polling for the wire-shutdown stop flag and for worker death.  ``stop``
    drains the workers and merges their delta logs into the base database.

    Typical use::

        fleet = FleetServer(port=0, workers=4, database_path="db.json")
        fleet.start()                      # returns once all workers accept
        ...                                # traffic flows
        summary = fleet.stop()             # drain + merge + save
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        dispatcher: str = "auto",
        state_dir: Optional[str] = None,
        database_path: Optional[str] = None,
        trace_dir: Optional[str] = None,
        cpu_config: Optional[CpuConfig] = None,
        allow_shutdown: bool = False,
        session_limit: int = 4,
        ready_file: Optional[str] = None,
        ready_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise FleetError("a fleet needs at least one worker")
        self.host = host
        self.port = port
        self.workers = workers
        self.dispatcher = resolve_dispatcher(dispatcher)
        self.state_dir = state_dir
        self.database_path = database_path
        self.trace_dir = trace_dir
        self.cpu_config = cpu_config
        self.allow_shutdown = allow_shutdown
        self.session_limit = session_limit
        self.ready_file = ready_file
        self.ready_timeout = ready_timeout
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._parent_sock: Optional[socket.socket] = None
        self._base_database: Optional[MeasurementDatabase] = None
        self._summary: Optional[FleetSummary] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Bind, fork the workers and block until every worker is accepting."""
        if self._processes:
            raise FleetError("fleet already started")
        if self.state_dir is None:
            self.state_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        os.makedirs(self.state_dir, exist_ok=True)
        stop_flag = _stop_flag_path(self.state_dir)
        if os.path.exists(stop_flag):
            os.unlink(stop_flag)

        if self.database_path is not None and os.path.exists(self.database_path):
            self._base_database = MeasurementDatabase.load(self.database_path)
        else:
            self._base_database = MeasurementDatabase()

        ctx = _fork_context()
        if self.dispatcher == "handoff":
            if ctx is None:
                raise FleetError(
                    "handoff dispatch needs the fork start method "
                    "(workers inherit the listening socket)"
                )
            self._parent_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._parent_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._parent_sock.bind((self.host, self.port))
            self._parent_sock.listen(LISTEN_BACKLOG)
            self.port = self._parent_sock.getsockname()[1]
        else:
            # Bound-but-not-listening probe: resolves port 0 and keeps the
            # reservation for the fleet's lifetime without accepting.
            self._parent_sock = _reuseport_socket(self.host, self.port)
            self.port = self._parent_sock.getsockname()[1]

        spawn_ctx = ctx if ctx is not None else multiprocessing.get_context("spawn")
        inherited_db = self._base_database if ctx is not None else None
        for index in range(self.workers):
            ready = _worker_ready_path(self.state_dir, index)
            if os.path.exists(ready):
                os.unlink(ready)
            process = spawn_ctx.Process(
                target=_fleet_worker_main,
                name="fleet-worker-%d" % index,
                args=(
                    index,
                    self.host,
                    self.port,
                    self.dispatcher,
                    self.state_dir,
                    self._parent_sock if self.dispatcher == "handoff" else None,
                    inherited_db,
                    self.database_path,
                    self.trace_dir,
                    self.cpu_config,
                    self.allow_shutdown,
                    self.session_limit,
                ),
            )
            process.start()
            self._processes.append(process)

        deadline = time.monotonic() + self.ready_timeout
        pending = set(range(self.workers))
        while pending and time.monotonic() < deadline:
            for index in sorted(pending):
                process = self._processes[index]
                if not process.is_alive() and process.exitcode not in (None, 0):
                    self.stop()
                    raise FleetError(
                        "fleet worker %d died during startup (exit %s)"
                        % (index, process.exitcode)
                    )
                if os.path.exists(_worker_ready_path(self.state_dir, index)):
                    pending.discard(index)
            time.sleep(0.02)
        if pending:
            self.stop()
            raise FleetError(
                "fleet workers %s not ready within %.1fs"
                % (sorted(pending), self.ready_timeout)
            )
        if self.ready_file is not None:
            atomic_write_text(self.ready_file, "%s:%d\n" % (self.host, self.port))

    def wait(self, poll_interval: float = 0.05) -> None:
        """Block until a wire shutdown or every worker exits.

        Raises :class:`FleetError` if any worker dies with a nonzero exit
        code while the fleet is supposed to be serving.
        """
        assert self.state_dir is not None
        stop_flag = _stop_flag_path(self.state_dir)
        while True:
            if os.path.exists(stop_flag):
                return
            alive = 0
            for index, process in enumerate(self._processes):
                if process.is_alive():
                    alive += 1
                elif process.exitcode not in (0, None):
                    raise FleetError(
                        "fleet worker %d exited %s while serving"
                        % (index, process.exitcode)
                    )
            if alive == 0:
                return
            time.sleep(poll_interval)

    def stop(self, drain_timeout: float = 10.0) -> FleetSummary:
        """Drain the workers, merge their delta logs, save the database."""
        if self._summary is not None:
            return self._summary
        assert self.state_dir is not None
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + drain_timeout
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        exit_codes = [
            process.exitcode if process.exitcode is not None else -1
            for process in self._processes
        ]

        if self._parent_sock is not None:
            self._parent_sock.close()
            self._parent_sock = None

        base = self._base_database
        if base is None:
            base = MeasurementDatabase()
        delta_records = 0
        for index in range(len(self._processes)):
            delta_path = _worker_delta_path(self.state_dir, index)
            if os.path.exists(delta_path):
                delta_records += base.merge_delta_log(delta_path)
        database_entries = len(base)
        if self.database_path is not None:
            base.save(self.database_path)

        stats = self._aggregate_stats()
        self._summary = FleetSummary(
            workers=len(self._processes),
            dispatcher=self.dispatcher,
            clean=all(code == 0 for code in exit_codes),
            worker_exit_codes=exit_codes,
            delta_records=delta_records,
            merged_entries=delta_records,
            database_entries=database_entries,
            stats=stats,
        )
        return self._summary

    def run(self) -> FleetSummary:
        """``start`` + ``wait`` + ``stop`` -- the CLI serving loop."""
        self.start()
        try:
            self.wait()
        finally:
            summary = self.stop()
        return summary

    # ------------------------------------------------------------ reporting
    def _aggregate_stats(self) -> Dict[str, object]:
        """Sum the per-worker stats files into one fleet-wide view."""
        assert self.state_dir is not None
        totals: Dict[str, int] = {}
        by_scheme: Dict[str, int] = {}
        per_worker = []
        for index in range(len(self._processes)):
            path = _worker_stats_path(self.state_dir, index)
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            per_worker.append(payload)
            server_stats = payload.get("server", {})
            for key in (
                "connections",
                "frames",
                "challenges_issued",
                "reports_verified",
                "accepted",
                "rejected",
                "protocol_errors",
            ):
                value = server_stats.get(key)
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
            for scheme, count in (server_stats.get("by_scheme") or {}).items():
                if isinstance(count, int):
                    by_scheme[scheme] = by_scheme.get(scheme, 0) + count
        aggregated: Dict[str, object] = dict(totals)
        if by_scheme:
            aggregated["by_scheme"] = by_scheme
        aggregated["workers_reporting"] = len(per_worker)
        aggregated["per_worker"] = per_worker
        return aggregated
