"""E1 -- Attestation overhead: LO-FAT vs C-FLAT (paper §6.1).

Regenerates the paper's central performance comparison for every workload:
LO-FAT adds zero processor cycles (it observes the pipeline in parallel),
while the C-FLAT software baseline adds a per-control-flow-event cost, i.e.
an overhead that grows linearly with the number of executed branches.
"""

from __future__ import annotations

from repro.analysis.performance import compare_all_workloads
from repro.analysis.report import format_table
from repro.schemes import get_scheme
from repro.schemes.cflat import CFlatCostModel
from repro.workloads import all_workloads, get_workload


def test_e1_overhead_comparison(benchmark, report_writer):
    # Timed kernel: one full attested execution of the syringe-pump firmware.
    workload = get_workload("syringe_pump")
    program = workload.build()
    lofat = get_scheme("lofat")
    benchmark(lambda: lofat.measure_execution(program, workload.inputs))

    comparisons = compare_all_workloads(all_workloads(), cflat_cost=CFlatCostModel())
    rows = [comparison.as_row() for comparison in comparisons]
    table = format_table(
        rows,
        columns=["workload", "instructions", "cycles", "cf_events",
                 "lofat_overhead_%", "cflat_overhead_%", "hashed_pairs",
                 "compression", "metadata_B"],
        title="E1: attestation overhead per workload (LO-FAT vs C-FLAT)",
    )
    report_writer("e1_overhead", table)

    # Shape checks mirroring the paper's claims.
    assert all(comparison.lofat_overhead == 0.0 for comparison in comparisons)
    assert all(comparison.cflat_overhead > 0.0 for comparison in comparisons)
    # C-FLAT's *absolute* overhead grows with the number of events.
    ordered = sorted(comparisons, key=lambda c: c.control_flow_events)
    overheads = [c.cflat_cycles - c.baseline_cycles for c in ordered]
    assert overheads == sorted(overheads)


def test_e1_cflat_overhead_scales_with_events(benchmark, report_writer):
    """The same program run longer: C-FLAT cost scales, LO-FAT stays at zero."""
    workload = get_workload("figure4_loop")
    program = workload.build()
    cost = CFlatCostModel()

    def run_point(iterations):
        from repro.analysis.performance import compare_workload
        return compare_workload(workload.with_inputs([iterations]), cflat_cost=cost)

    benchmark(lambda: run_point(16))

    rows = []
    for iterations in (4, 8, 16, 32, 64):
        comparison = run_point(iterations)
        rows.append({
            "loop_iterations": iterations,
            "cf_events": comparison.control_flow_events,
            "baseline_cycles": comparison.baseline_cycles,
            "lofat_extra_cycles": comparison.lofat_cycles - comparison.baseline_cycles,
            "cflat_extra_cycles": comparison.cflat_cycles - comparison.baseline_cycles,
            "cflat_overhead_%": 100.0 * comparison.cflat_overhead,
        })
    table = format_table(
        rows,
        title="E1b: overhead growth with control-flow event count (figure4 loop)",
    )
    report_writer("e1b_overhead_scaling", table)

    assert all(row["lofat_extra_cycles"] == 0 for row in rows)
    extras = [row["cflat_extra_cycles"] for row in rows]
    assert extras == sorted(extras) and extras[0] < extras[-1]
