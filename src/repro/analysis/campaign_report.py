"""Rendering of campaign results for the CLI and the E10 benchmark.

Sits in the analysis layer so the service stays presentation-free: the
runner returns structured :class:`repro.service.runner.CampaignResult`
objects, and this module turns them into the same plain-text tables the rest
of the experiments print (via :func:`repro.analysis.report.format_table`).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.report import format_table


def format_database_stats(stats: dict) -> str:
    """Measurement-database accounting for campaigns and ``repro serve``."""
    return ("%d entries (+%d trace-keyed), %d hits / %d misses "
            "(%.0f%% hit rate)"
            % (stats.get("entries", 0), stats.get("trace_entries", 0),
               stats.get("hits", 0), stats.get("misses", 0),
               100.0 * stats.get("hit_rate", 0.0)))


def format_campaign_summary(result) -> str:
    """A compact key/value block summarising one campaign run."""
    summary = result.summary()
    database = summary.pop("database", {})
    capture = summary.pop("capture", {})
    lines = ["Campaign %r (%s verification, %d worker%s)" % (
        summary.pop("campaign"),
        summary.pop("verify_mode"),
        summary["workers"],
        "" if summary["workers"] == 1 else "s",
    )]
    summary.pop("workers")
    pipeline = summary.pop("pipeline", "capture")
    lines.append("  execution path   : %s pipeline"
                 % ("capture/attest" if pipeline == "capture" else "live"))
    lines.append("  jobs             : %d" % summary.pop("jobs"))
    lines.append("  all as expected  : %s" % summary.pop("ok"))
    lines.append("  accepted reports : %d" % summary.pop("accepted"))
    lines.append("  attacks detected : %s" % summary.pop("attacks_detected"))
    expected_misses = summary.pop("expected_misses", 0)
    if expected_misses:
        lines.append("  expected misses  : %d (by scheme design, not failures)"
                     % expected_misses)
    if capture:
        lines.append(
            "  capture stage    : %.3f s -- %d unique execution%s for %d jobs "
            "(%d deduped), %d simulated, %d from store, %d reference"
            % (summary.get("capture_seconds", 0.0),
               capture.get("unique_executions", 0),
               "" if capture.get("unique_executions", 0) == 1 else "s",
               capture.get("jobs", 0),
               capture.get("deduped_jobs", 0),
               capture.get("captured", 0),
               capture.get("store_hits", 0),
               capture.get("reference_executions", 0)))
        lines.append(
            "  attest stage     : %.3f s -- %d replayed, %d live"
            % (summary.get("attest_seconds", 0.0),
               capture.get("replayed_jobs", 0),
               capture.get("live_jobs", 0)))
    summary.pop("capture_seconds", None)
    summary.pop("attest_seconds", None)
    lines.append("  prover fan-out   : %.3f s" % summary.pop("prover_seconds"))
    lines.append("  verification     : %.3f s" % summary.pop("verify_seconds"))
    lines.append("  total            : %.3f s (%.1f jobs/s)" % (
        summary.pop("total_seconds"), summary.pop("jobs_per_second")))
    if database:
        lines.append("  measurement db   : " + format_database_stats(database))
        worker_totals = (database.get("worker_replay_hits", 0),
                         database.get("worker_replay_misses", 0))
        if any(worker_totals):
            lines.append(
                "  prover replay db : %d hits / %d misses across worker "
                "processes" % worker_totals)
    return "\n".join(lines)


def format_campaign_table(result, limit: Optional[int] = None) -> str:
    """Per-job verdict table (optionally truncated to the first ``limit``)."""
    rows = [job.as_row() for job in result.results]
    shown = rows if limit is None else rows[:limit]
    table = format_table(
        shown,
        columns=["job", "scheme", "verdict", "reason", "ok", "outcome",
                 "cache", "source", "instructions", "cycles"],
        title="Campaign %r: per-job verdicts" % result.spec_name,
    )
    if limit is not None and len(rows) > limit:
        table += "\n... (%d more jobs)" % (len(rows) - limit)
    return table


def format_campaign_failures(result) -> str:
    """Human-readable list of jobs that did not behave as expected."""
    failures = result.failures
    if not failures:
        return "no unexpected job outcomes"
    lines = ["%d unexpected job outcome(s):" % len(failures)]
    for job_result in failures:
        expectation = ("expected rejection (attack %s)" % job_result.job.attack
                       if job_result.job.expects_detection
                       else "expected acceptance")
        lines.append("  %s: %s (%s) -- %s" % (
            job_result.job.job_id,
            "ACCEPTED" if job_result.accepted else "REJECTED",
            job_result.reason,
            expectation,
        ))
        if job_result.detail:
            lines.append("      %s" % job_result.detail)
    return "\n".join(lines)
