"""E14 -- Attestation server throughput vs concurrent prover connections.

The verifier daemon (``repro serve``) runs as a real subprocess -- its own
Python interpreter, its own event loop -- and the fleet load generator
(:func:`repro.service.loadgen.run_fleet_load`) drives N concurrent
simulated provers against it over TCP, drawn from a population of as
many devices as connections, with each connection's share of the
reports as its mean session length.  Provers replay captured executions from a shared
:class:`TraceStore` (the capture-once pipeline over the wire) and
are *paced*: each round charges ``PACE_MS`` of simulated device latency,
standing in for the embedded core's execution and link time that an
unpaced replaying prover would answer thousands of times faster than.
That makes this a closed-loop load test, the shape real fleets have: the
server's throughput comes from how many in-flight devices it sustains
concurrently, and a single sequential prover cannot saturate it.
Connections churn: each session is a fresh device (TCP connect, HELLO and a
new prover) with a geometric length around its mean, so every point's rate
includes the per-session reconnect cost.

The claim under test: reports/sec scales with connection count, because
the server overlaps the devices' think time and round-trip latency across
sessions.  The acceptance bar is >= 2x from 1 to 8 concurrent provers.
The unpaced single-connection wire throughput is measured and reported
too, so the raw protocol cost stays visible next to the scaling curve.
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys

import pytest

from repro.analysis.report import format_table
from repro.service.client import AttestationClient
from repro.service.loadgen import run_fleet_load
from repro.service.tracestore import TraceStore, execution_signature
from repro.service.worker import execute_capture_job
from repro.workloads import get_workload

#: Connection counts of the scaling curve.
CONNECTION_COUNTS = (1, 2, 4, 8)
#: Total reports per curve point (split across the point's provers).
TOTAL_REPORTS = 96
#: Timing repetitions per point; best-of-N filters scheduler noise.
REPEATS = 3
#: Simulated device latency per attestation round (execution on the
#: embedded core plus its link), slept -- not burned -- by each prover.
PACE_MS = 2.0
#: The acceptance bar: reports/sec at 8 connections vs 1.
TARGET_SCALING = 2.0
#: The attested workload and scheme of the steady-state rounds.
WORKLOAD = "syringe_pump"
SCHEME = "lofat"


def _build_capture_store(directory: str) -> TraceStore:
    """Capture the benchmark workload once so provers replay, not simulate."""
    store = TraceStore(directory=directory)
    workload = get_workload(WORKLOAD)
    signature = execution_signature(WORKLOAD, tuple(workload.inputs))
    response = execute_capture_job(
        (signature, WORKLOAD, tuple(workload.inputs), None))
    store.put_bytes(
        signature, response.trace_bytes, response.exit_code,
        response.output, response.instructions, response.cycles,
        response.replayable)
    return store


def _start_server(trace_dir: str):
    """Start ``repro serve`` on an ephemeral port; returns (process, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--allow-shutdown", "--trace-dir", trace_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    line = process.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if match is None:
        process.kill()
        raise RuntimeError("server did not announce a port: %r" % line)
    return process, int(match.group(1))


def _fleet_load(port, trace_dir, connections: int, reports: int,
                pace_ms: float = PACE_MS, warmup: bool = False):
    """One fleet-load run: ``connections`` devices, each connection's share
    of ``reports`` as its mean session length."""
    return run_fleet_load(
        "127.0.0.1", port, trace_dir=trace_dir,
        devices=connections, connections=connections, reports=reports,
        session_rounds=max(1, reports // connections),
        schemes=(SCHEME,), workloads=(WORKLOAD,),
        warmup=warmup, pace_seconds=pace_ms / 1000.0)


def _measure_point(port, trace_dir, connections: int,
                   pace_ms: float = PACE_MS):
    """Best-of-N steady-state (reports/sec, sessions) for one connection
    count."""
    rounds = max(1, TOTAL_REPORTS // connections)
    best = (0.0, 0)
    for _ in range(REPEATS):
        load = _fleet_load(port, trace_dir, connections,
                           rounds * connections, pace_ms)
        assert load.ok, load.rejections
        assert load.replayed == load.reports  # no prover re-simulated
        best = max(best, (load.reports_per_second, load.sessions))
    return best


def test_e14_server_throughput_scales_with_connections(
        benchmark, report_writer, tmp_path):
    trace_dir = str(tmp_path / "traces")
    _build_capture_store(trace_dir)
    process, port = _start_server(trace_dir)
    try:
        # One warm pass: the server computes and caches the reference (from
        # the stored trace).
        warm = _fleet_load(port, trace_dir, connections=1, reports=3,
                         warmup=True)
        assert warm.ok

        # Raw wire throughput (no pacing, one connection): the protocol
        # floor the paced curve sits on.
        wire_rate, wire_sessions = _measure_point(
            port, trace_dir, connections=1, pace_ms=0.0)

        rates = {}
        rows = []
        for connections in CONNECTION_COUNTS:
            rate, sessions = _measure_point(port, trace_dir, connections)
            rates[connections] = rate
            rows.append({
                "connections": connections,
                "mean_session_rounds": max(1, TOTAL_REPORTS // connections),
                "sessions": sessions,
                "reports_per_sec": round(rate, 1),
                "scaling_vs_1": round(rate / rates[CONNECTION_COUNTS[0]], 2),
            })
        rows.append({
            "connections": "1 (unpaced wire)",
            "mean_session_rounds": TOTAL_REPORTS,
            "sessions": wire_sessions,
            "reports_per_sec": round(wire_rate, 1),
            "scaling_vs_1": "-",
        })

        # Timed kernel for the benchmark record: one 8-prover paced burst.
        benchmark(lambda: _fleet_load(port, trace_dir, connections=8,
                                      reports=32))

        # Clean shutdown over the wire (the CI smoke's exit path too).
        async def shutdown():
            client = AttestationClient("127.0.0.1", port, "prover-admin")
            await client.connect()
            await client.shutdown_server()
        asyncio.run(shutdown())
        assert process.wait(timeout=30) == 0

        table = format_table(
            rows,
            columns=["connections", "mean_session_rounds", "sessions",
                     "reports_per_sec", "scaling_vs_1"],
            title="E14: attestation server throughput vs concurrent provers "
                  "(%s/%s, trace-replay provers paced at %.1f ms/round)"
                  % (SCHEME, WORKLOAD, PACE_MS),
        )
        report_writer("e14_server_throughput", table)

        # The acceptance bar: >= 2x reports/sec from 1 to 8 connections.
        assert rates[8] >= TARGET_SCALING * rates[1], rows
        # The curve must be monotone within noise on the way up.
        assert rates[4] >= rates[2] * 0.95, rows
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
