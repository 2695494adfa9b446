"""CFG + analyzer coverage on irregular control-flow shapes.

The golden lang corpus pins the common shapes; these sources are chosen to
be awkward instead: mutual recursion, recursion mixed with iteration, and
loops whose trip counts depend on input data in ways no interval argument
can bound (Collatz).  Each program is compiled with ``verify=True`` (the
code generator's own CFG prediction must agree with the ``repro.cfg``
analysis) and then executed, checking the dynamic trace against the
analyzer's static claims.
"""

import pytest

from repro.cpu.core import Cpu, CpuConfig
from repro.dataflow import analyze_program
from repro.lang.codegen import compile_source
from repro.schemes import get_scheme

MUTUAL_RECURSION = """\
// parity by mutual recursion: two functions calling each other
fn is_even(n) {
    if (n == 0) { return 1; }
    return is_odd(n - 1);
}
fn is_odd(n) {
    if (n == 0) { return 0; }
    return is_even(n - 1);
}
fn main() {
    var n = read();
    print(is_even(n));
    printc(10);
    return 0;
}
"""

COLLATZ = """\
// trip count defies interval reasoning entirely
fn main() {
    var n = read();
    var steps = 0;
    while (n != 1) {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = 3 * n + 1;
        }
        steps = steps + 1;
    }
    print(steps);
    printc(10);
    return 0;
}
"""

RECURSIVE_SUM_OF_LOOPS = """\
// recursion whose every level runs a data-dependent loop
fn rowsum(k) {
    if (k == 0) { return 0; }
    var acc = 0;
    var i = 0;
    while (i < k) {
        acc = acc + i;
        i = i + 1;
    }
    return acc + rowsum(k - 1);
}
fn main() {
    print(rowsum(read()));
    printc(10);
    return 0;
}
"""

CASES = [
    ("mutual_recursion", MUTUAL_RECURSION, [9], "0\n"),
    ("collatz", COLLATZ, [27], "111\n"),
    ("recursive_sum_of_loops", RECURSIVE_SUM_OF_LOOPS, [6], "35\n"),
]


def _run(program, inputs):
    return Cpu(
        program,
        inputs=list(inputs),
        config=CpuConfig(collect_trace=True, max_instructions=2_000_000),
    ).run()


@pytest.mark.parametrize("name,source,inputs,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_codegen_cfg_prediction_verified(name, source, inputs, expected):
    compiled = compile_source(source, name=name, verify=True)
    result = _run(compiled.program, inputs)
    assert result.output == expected


@pytest.mark.parametrize("name,source,inputs,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_dynamic_trace_within_static_claims(name, source, inputs, expected):
    compiled = compile_source(source, name=name, verify=True)
    analysis = analyze_program(compiled.program)
    policy = analysis.policy

    result, measurement = get_scheme("lofat").measure_execution(
        compiled.program, list(inputs),
        cpu_config=CpuConfig(collect_trace=True))
    valid_pairs = analysis.valid_pairs
    for pair in result.trace.executed_edges:
        assert pair in valid_pairs, (
            "%s: executed edge (0x%x, 0x%x) not statically valid"
            % (name, pair[0], pair[1])
        )
    for record in measurement.metadata.loops:
        assert policy.check_loop_record(record.entry, record.iterations) is None


def test_data_dependent_loops_are_unbounded():
    """No interval argument may claim a bound on Collatz-style loops."""
    for name, source in (("collatz", COLLATZ),
                         ("recursive_sum_of_loops", RECURSIVE_SUM_OF_LOOPS)):
        compiled = compile_source(source, name=name, verify=True)
        analysis = analyze_program(compiled.program)
        assert analysis.loop_bounds, name
        for header, bound in analysis.loop_bounds.items():
            assert bound.max_back_edges is None, (
                "%s: loop %#x claimed bound %r for a data-dependent loop"
                % (name, header, bound.max_back_edges)
            )


def test_mutual_recursion_cfg_shape():
    compiled = compile_source(MUTUAL_RECURSION, name="mutual", verify=True)
    analysis = analyze_program(compiled.program)
    entries = set(analysis.cfg.function_entries())
    assert compiled.functions["is_even"] in entries
    assert compiled.functions["is_odd"] in entries
    # Recursion is not iteration: no natural loop spans the call cycle.
    assert compiled.functions["is_even"] not in analysis.loop_bounds
    assert compiled.functions["is_odd"] not in analysis.loop_bounds
    # Deeper input, same static facts: trace stays within valid_pairs.
    for n in (0, 1, 13):
        result = _run(compiled.program, [n])
        assert result.output == ("1\n" if n % 2 == 0 else "0\n")
        for pair in result.trace.executed_edges:
            assert pair in analysis.valid_pairs
