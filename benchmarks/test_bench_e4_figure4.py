"""E4 -- Figure 4: loop path encodings and iteration counting.

The paper's Figure 4 derives the two valid path encodings of a
``while (cond1) { if (cond2) ... else ... }`` loop: ``011`` for the path
through the else branch and ``0011`` for the path through the then branch.
This bench runs the equivalent program and checks the engine reports exactly
those encodings together with per-path iteration counts, and that repeating
the loop adds no hash work (only counter increments).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.schemes import get_scheme
from repro.workloads import get_workload


def test_e4_figure4_path_encodings(benchmark, report_writer):
    workload = get_workload("figure4_loop")
    program = workload.build()
    iterations = 6
    lofat = get_scheme("lofat")

    result, measurement = benchmark(
        lambda: lofat.measure_execution(program, [iterations]))

    assert len(measurement.metadata) == 1
    loop = measurement.metadata.loops[0]
    rows = [{
        "path_encoding": path.encoding.bits,
        "first_seen": path.first_seen_index,
        "iterations": path.iterations,
        "indirect_codes": list(path.encoding.indirect_codes),
    } for path in loop.paths]
    table = format_table(
        rows,
        title=("E4: Figure-4 loop (entry %#x, exit %#x) path encodings for %d "
               "iterations" % (loop.entry, loop.exit_node, iterations)),
    )
    extra = ("measurement A = %s...\nmetadata bytes = %d, pairs hashed = %d, "
             "pairs compressed = %d"
             % (measurement.measurement_hex[:32], measurement.metadata.size_bytes,
                measurement.stats["pairs_hashed"], measurement.stats["pairs_compressed"]))
    report_writer("e4_figure4", table + "\n" + extra)

    encodings = {path.encoding.bits for path in loop.paths}
    assert "011" in encodings, "dashed path encoding of Figure 4 missing"
    assert "0011" in encodings, "bold path encoding of Figure 4 missing"
    assert loop.iterations == iterations

    # Doubling the iterations increases only counters, not hash input.
    _, longer = lofat.measure_execution(program, [iterations * 4])
    assert longer.stats["pairs_hashed"] == measurement.stats["pairs_hashed"]
    assert longer.metadata.loops[0].iterations == iterations * 4
