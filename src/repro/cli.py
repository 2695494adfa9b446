"""Command-line interface for the LO-FAT reproduction.

Installed as the ``repro`` (and ``lofat-repro``) console script via setup.py,
the CLI exposes the most common interactions without writing any Python:

* ``repro list`` -- list the registered workloads and attack scenarios.
* ``repro schemes`` -- list the registered attestation schemes.
* ``repro run <workload> [--inputs 1 2 3]`` -- execute a workload on the
  core model (no attestation) and print its output and cycle count.
* ``repro attest <workload> [--scheme lofat]`` -- run the workload under an
  attestation scheme and print the measurement ``A`` and, for schemes with
  loop compression, a summary of the loop metadata ``L``.
* ``repro protocol <workload> [--scheme lofat]`` -- play the full
  challenge-response protocol and print the verifier's verdict.
* ``repro attack <scenario>`` -- run an attack scenario end to end and
  show that the verifier rejects the attacked execution.
* ``repro overhead`` -- print the E1 LO-FAT vs C-FLAT overhead table.
* ``repro area`` -- print the E3 FPGA resource estimate and sweep.
* ``repro campaign`` -- run an attestation campaign (schemes x workloads x
  configs x attacks) through the parallel campaign service, e.g.
  ``repro campaign --experiment all --workers 4`` or
  ``repro campaign --experiment e5 --scheme lofat,cflat,static``.  Jobs are
  deduplicated by execution signature and attested from stored traces
  (``--pipeline live`` forces one fused execution per job); ``--trace-dir``
  persists the capture store across invocations.
* ``repro trace capture`` -- stage 1 only: simulate every unique execution
  a campaign needs and persist the control-flow traces to ``--trace-dir``.
* ``repro trace attest`` -- run a campaign against a capture store
  populated earlier (the verify-many half: no simulation for executions
  already captured).
* ``repro compile <file>`` -- compile a workload-language source file
  (see ``docs/LANG.md``) to RV32 assembly, cross-checking the compiler's
  CFG/loop metadata against the verifier's analysis; ``--emit-asm`` prints
  the assembly, ``--run --inputs ...`` executes the program.
* ``repro analyze [targets...]`` -- run the static dataflow analyses
  (see ``docs/ANALYSIS.md``) over the lang corpus and the registered
  workloads (or named targets / ``.lang`` files): loop-bound report, lint
  findings, ``--json`` machine output, ``--baseline`` drift gating,
  ``--policy-out`` StaticPolicy artifacts and ``--selfcheck`` dynamic
  soundness validation.
* ``repro workloads`` -- generate the seeded compiled workload families
  (``--family nest,branchy``), optionally executing each member against
  its Python reference model (``--check``).  ``repro campaign --experiment
  family`` attests the whole matrix under every scheme.
* ``repro serve`` -- run the standing attestation verifier service: an
  asyncio TCP server speaking the length-prefixed challenge/report framing
  (see ``docs/SERVER.md``), verifying against a shared measurement
  database, e.g. ``repro serve --port 4711 --database measurements.json``.
* ``repro fleet-load`` -- drive simulated device traffic against a running
  server (or fleet) and print the throughput, e.g. ``repro fleet-load
  --port 4711 --connections 8 --reports 160 --devices 8 --scheme
  lofat,cflat,static``.  Exits nonzero if any benign report is rejected
  or any injected stale/duplicate report is accepted.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import List, Optional

from repro.analysis.campaign_report import (
    format_campaign_failures,
    format_campaign_summary,
    format_campaign_table,
    format_database_stats,
)
from repro.analysis.performance import compare_all_workloads
from repro.analysis.report import format_table
from repro.analysis.sweep import area_sweep
from repro.attacks import all_attacks, get_attack
from repro.attestation import Prover, Verifier
from repro.cpu.core import Cpu, CpuConfig, run_program
from repro.cpu.trace import ControlFlowTrace
from repro.lofat.area_model import AreaModel, VIRTEX7_XC7Z020
from repro.lofat.config import LoFatConfig
from repro.schemes import all_schemes, get_scheme, scheme_names
from repro.service import (
    CampaignRunner,
    CampaignSpec,
    MeasurementDatabase,
    TraceStore,
    adversary_campaign,
    all_experiments,
    experiment_campaign,
    family_campaign,
    full_campaign,
)
from repro.workloads import all_workloads, get_workload


def _cmd_list(args: argparse.Namespace) -> int:
    print("Workloads:")
    for workload in all_workloads():
        print("  %-20s %s" % (workload.name, workload.description))
    print("\nAttack scenarios:")
    for scenario in all_attacks():
        print("  %-26s class %d, targets %s"
              % (scenario.name, scenario.attack_class, scenario.workload_name))
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    print("Attestation schemes:")
    for scheme in all_schemes():
        print("  %-8s %s" % (scheme.name, scheme.description))
        print("  %-8s measurement %d bytes, detects runtime attacks: %s"
              % ("", scheme.measurement_bytes,
                 "yes" if scheme.detects_runtime_attacks else "no"))
    return 0


def _resolve_inputs(args: argparse.Namespace, workload) -> List[int]:
    return list(workload.inputs) if args.inputs is None else list(args.inputs)


def _cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    inputs = _resolve_inputs(args, workload)
    cpu = Cpu(workload.build(), inputs=inputs)
    capture = ControlFlowTrace()
    cpu.attach_monitor(capture.observe)
    result = cpu.run()
    print("output      : %s" % result.output)
    print("exit code   : %d" % result.exit_code)
    print("instructions: %d" % result.instructions)
    print("cycles      : %d" % result.cycles)
    print("cf events   : %d" % capture.control_flow_events)
    return result.exit_code


def _cmd_attest(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    inputs = _resolve_inputs(args, workload)
    scheme = get_scheme(args.scheme)
    result, measurement = scheme.measure_execution(workload.build(), inputs)

    overhead = int(measurement.stats.get("overhead_cycles", 0))
    cost = ("zero attestation overhead" if overhead == 0
            else "+%d cycles attestation overhead" % overhead)
    print("scheme        : %s" % scheme.name)
    print("output        : %s" % result.output)
    print("cycles        : %d (%s)" % (result.cycles, cost))
    print("measurement A : %s" % measurement.measurement_hex)
    print("pairs hashed  : %d / %d control-flow events"
          % (measurement.stats.get("pairs_hashed", 0),
             measurement.stats.get("control_flow_events", 0)))
    print("metadata L    : %d loop executions, %d bytes"
          % (len(measurement.metadata), measurement.metadata.size_bytes))
    for loop in measurement.metadata:
        paths = ", ".join("%s x%d" % (path.encoding.bits or "-", path.iterations)
                          for path in loop.paths)
        print("  loop @%#06x depth %d iterations %d: %s"
              % (loop.entry, loop.depth, loop.iterations, paths))
    return 0


def _make_protocol(workload):
    program = workload.build()
    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
    return program, prover, verifier


def _cmd_protocol(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    inputs = _resolve_inputs(args, workload)
    scheme = get_scheme(args.scheme)
    _, prover, verifier = _make_protocol(workload)
    challenge = verifier.challenge(workload.name, inputs, scheme=scheme.name)
    report = prover.attest(challenge)
    verdict = verifier.verify(report)
    print("scheme    : %s" % report.scheme)
    print("nonce     : %s" % challenge.nonce.hex())
    print("output    : %s" % report.output)
    print("report    : %d bytes (A=%d, L=%d, sig=%d)"
          % (report.size_bytes, len(report.measurement),
             report.metadata.size_bytes, len(report.signature)))
    print("verdict   : %s (%s)" % ("ACCEPTED" if verdict.accepted else "REJECTED",
                                   verdict.reason.value))
    return 0 if verdict.accepted else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.list or args.scenario is None:
        if not args.list and args.scenario is None:
            print("error: scenario name required (or use --list)", file=sys.stderr)
            return 2
        print("Registered attack scenarios:")
        for scenario in all_attacks():
            print("  %-32s class %d, %-12s targets %s"
                  % (scenario.name, scenario.attack_class,
                     scenario.category + ",", scenario.workload_name))
        return 0
    scenario = get_attack(args.scenario)
    workload = get_workload(scenario.workload_name)
    program, prover, verifier = _make_protocol(workload)

    benign = prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))
    benign_verdict = verifier.verify(benign)

    prover.install_attack(scenario.prover_hook(program))
    attacked = prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))
    attacked_verdict = verifier.verify(attacked)

    print("attack      : %s (class %d)" % (scenario.name, scenario.attack_class))
    print("description : %s" % scenario.description)
    print("benign run  : output=%r verdict=%s" % (benign.output, benign_verdict.reason.value))
    print("attacked run: output=%r verdict=%s" % (attacked.output, attacked_verdict.reason.value))
    print("detected    : %s" % (not attacked_verdict.accepted))
    return 0 if not attacked_verdict.accepted else 1


def _cmd_overhead(args: argparse.Namespace) -> int:
    comparisons = compare_all_workloads(all_workloads())
    print(format_table(
        [comparison.as_row() for comparison in comparisons],
        columns=["workload", "instructions", "cycles", "cf_events",
                 "lofat_overhead_%", "cflat_overhead_%", "hashed_pairs",
                 "compression", "metadata_B"],
        title="LO-FAT vs C-FLAT attestation overhead",
    ))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    estimate = AreaModel(LoFatConfig()).estimate()
    utilization = estimate.utilization(VIRTEX7_XC7Z020)
    print("Paper configuration point (n=4, l=16, depth 3):")
    print("  LUTs %d (%.1f%%), registers %d (%.1f%%), BRAM36 %d, %.0f MHz"
          % (estimate.luts, 100 * utilization["luts"],
             estimate.registers, 100 * utilization["registers"],
             estimate.bram36, estimate.max_clock_mhz))
    print()
    print(format_table(
        area_sweep(),
        columns=["nested_loops", "path_bits", "bram36", "loop_mem_kbits",
                 "luts", "registers"],
        title="Configuration sweep",
    ))
    return 0


def _load_campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    if args.spec is not None:
        with open(args.spec) as handle:
            spec = CampaignSpec.from_json(handle.read())
    elif args.experiment == "all":
        spec = full_campaign()
    elif args.experiment == "adversary":
        spec = adversary_campaign(seed=getattr(args, "seed", None))
    elif args.experiment == "family":
        spec = family_campaign(seed=getattr(args, "seed", None))
    else:
        spec = experiment_campaign(args.experiment)
    if args.repeats is not None:
        spec.repeats = args.repeats
    if args.verify_mode is not None:
        spec.verify_mode = args.verify_mode
    if args.scheme is not None:
        spec.schemes = [name.strip() for name in args.scheme.split(",")
                        if name.strip()]
    spec.validate()
    return spec


def _make_runner(args: argparse.Namespace, database=None) -> CampaignRunner:
    trace_store = None
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None:
        trace_store = TraceStore(directory=trace_dir)
    return CampaignRunner(
        database=database,
        trace_store=trace_store,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    # Spec, database and trace-store files are user input: report parse
    # problems as CLI errors rather than tracebacks.  Errors raised later,
    # from inside the runner, are genuine bugs and propagate.
    try:
        spec = _load_campaign_spec(args)
        database = None
        if args.database is not None and os.path.exists(args.database):
            database = MeasurementDatabase.load(args.database)
        runner = _make_runner(args, database)
    except (ValueError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    result = runner.run(spec, workers=args.workers,
                        pipeline=getattr(args, "pipeline", "capture"))

    if args.database is not None:
        try:
            runner.database.save(args.database)
        except OSError as error:
            print("error: cannot save measurement database: %s" % error,
                  file=sys.stderr)
            return 2
    print(format_campaign_summary(result))
    if args.show_jobs:
        print()
        print(format_campaign_table(result))
    if not result.ok:
        print()
        print(format_campaign_failures(result))
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Capture-once / verify-many trace-store operations."""
    if args.trace_command == "capture":
        try:
            spec = _load_campaign_spec(args)
            runner = _make_runner(args)
        except (ValueError, OSError) as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        stats = runner.capture(spec, workers=args.workers)
        store = stats.pop("store", {})
        print("Captured campaign %r into %s" % (spec.name, args.trace_dir))
        print("  jobs                : %d" % stats.get("jobs", 0))
        print("  unique executions   : %d (%d jobs deduped)"
              % (stats.get("unique_executions", 0),
                 stats.get("deduped_jobs", 0)))
        print("  reference captures  : %d" % stats.get("reference_executions", 0))
        print("  simulated this run  : %d (%d already in store)"
              % (stats.get("captured", 0), stats.get("store_hits", 0)))
        print("  capture time        : %.3f s" % stats.get("capture_seconds", 0.0))
        print("  store               : %d captures, %d unique traces"
              % (store.get("captures", 0), store.get("unique_traces", 0)))
        return 0
    # "attest": a full campaign run against the populated store.
    return _cmd_campaign(args)


def _cmd_adversary(args: argparse.Namespace) -> int:
    """Generate adversarial suites, check the detection matrix, fuzz parsers."""
    import json as _json

    from repro.adversary import (
        fuzz_framing,
        fuzz_tracefile,
        generate_suite,
        resolve_seed,
        run_oracle,
    )
    from repro.adversary.generator import DEFAULT_WORKLOADS
    from repro.workloads import WORKLOAD_REGISTRY

    seed = resolve_seed(args.seed)
    if args.workloads == "all":
        workloads = sorted(WORKLOAD_REGISTRY)
    elif args.workloads:
        workloads = [name.strip() for name in args.workloads.split(",")
                     if name.strip()]
    else:
        workloads = list(DEFAULT_WORKLOADS)
    schemes = ([name.strip() for name in args.scheme.split(",") if name.strip()]
               if args.scheme else ["lofat", "cflat", "static"])

    print("adversary seed: %d" % seed)
    suites = {name: generate_suite(name, seed=seed) for name in workloads}
    for name in workloads:
        suite = suites[name]
        counts = ", ".join("%s=%d" % item for item in sorted(suite.counts().items()))
        print("  %-20s %2d scenarios (%s)" % (name, suite.scenario_count, counts))

    if args.list:
        for name in workloads:
            suite = suites[name]
            for variant in suite.benign:
                print("  benign %-36s inputs=%s"
                      % (variant.name, list(variant.inputs)))
            for scenario in suite.attacks:
                print("  attack %-36s class %d %-15s cf_visible=%s"
                      % (scenario.name, scenario.attack_class,
                         scenario.category, scenario.control_flow_visible))
        return 0

    report = run_oracle(workloads, seed=seed, schemes=schemes, suites=suites)
    print()
    print(report.format_matrix())
    print("oracle: %d protocol runs, %d expected misses (asserted), "
          "%d failures" % (len(report.entries), len(report.expected_misses),
                           len(report.failures)))
    for entry in report.failures[:20]:
        print("  FAIL %s/%s %s (%s): expected %s, got %s (%s)"
              % (entry.workload, entry.scheme, entry.scenario, entry.family,
                 entry.expected, entry.actual, entry.reason))

    ok = report.ok
    fuzz_failures = []
    if not args.skip_fuzz:
        print()
        for fuzzer in (fuzz_tracefile, fuzz_framing):
            fuzz_report = fuzzer(seed=seed, iterations=args.fuzz_examples)
            print(fuzz_report.summary_line())
            fuzz_failures.extend(fuzz_report.failures)
            ok = ok and fuzz_report.ok

    if args.failures_file:
        payload = {
            "seed": seed,
            "oracle_failures": [
                {"workload": e.workload, "scheme": e.scheme,
                 "scenario": e.scenario, "family": e.family,
                 "expected": e.expected, "actual": e.actual,
                 "reason": e.reason}
                for e in report.failures
            ],
            "fuzz_failures": [
                {"surface": f.surface, "iteration": f.iteration,
                 "description": f.description, "blob_hex": f.blob_hex}
                for f in fuzz_failures
            ],
        }
        with open(args.failures_file, "w") as handle:
            _json.dump(payload, handle, indent=2)
            handle.write("\n")

    if not ok:
        print("\nreproduce with: repro adversary --seed %d" % seed,
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile a workload-language source file and report on the program."""
    from repro.lang import LangError, compile_source

    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    name = args.name or os.path.splitext(os.path.basename(args.file))[0]
    try:
        compiled = compile_source(source, name=name,
                                  verify=not args.no_verify)
    except LangError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    if args.emit_asm:
        print(compiled.assembly, end="")
        return 0

    print("program      : %s" % compiled.name)
    print("instructions : %d" % (len(compiled.program.code) // 4))
    print("basic blocks : %d" % len(compiled.block_leaders))
    print("functions    :")
    for fn_name, address in sorted(compiled.functions.items(),
                                   key=lambda item: item[1]):
        print("  %-16s @%#06x" % (fn_name, address))
    print("loops        : %d" % len(compiled.loops))
    for loop in compiled.loops:
        print("  %-20s @%#06x depth %d (in %s)"
              % (loop.header_label, loop.header, loop.depth, loop.function))
    if not args.no_verify:
        print("metadata     : verified against repro.cfg analysis")

    if args.run:
        result = run_program(compiled.program, inputs=list(args.inputs or []))
        print("output       : %r" % result.output)
        print("exit code    : %d" % result.exit_code)
        print("cycles       : %d" % result.cycles)
        return result.exit_code
    return 0


def _analyze_targets(args: argparse.Namespace):
    """Resolve the programs ``repro analyze`` covers.

    Yields ``(name, program, inputs)`` tuples: named targets may be workload
    registry names, lang-corpus entry names or ``.lang`` source paths; with
    no targets the whole lang corpus plus every registered workload is
    analyzed.
    """
    from repro.isa.assembler import assemble
    from repro.lang import compile_source
    from repro.lang.corpus import build_corpus

    corpus = {entry.name: entry for entry in build_corpus()}
    workload_names = {workload.name for workload in all_workloads()}
    if args.targets:
        for token in args.targets:
            if token in corpus:
                entry = corpus[token]
                yield token, assemble(entry.assembly), tuple(entry.inputs)
            elif token in workload_names:
                workload = get_workload(token)
                yield token, workload.build(), tuple(workload.inputs)
            elif os.path.exists(token):
                with open(token) as handle:
                    source = handle.read()
                name = os.path.splitext(os.path.basename(token))[0]
                compiled = compile_source(source, name=name)
                yield name, compiled.program, ()
            else:
                raise KeyError(token)
    else:
        for name in sorted(corpus):
            entry = corpus[name]
            yield name, assemble(entry.assembly), tuple(entry.inputs)
        for workload in all_workloads():
            yield workload.name, workload.build(), tuple(workload.inputs)


def _analyze_selfcheck(analysis, inputs) -> List[str]:
    """Execute once and compare the trace against the statically proven facts.

    Returns soundness violations (empty = every proven fact held).  This is
    the CLI face of the tier-1 soundness oracle: CI runs it over the corpus
    and the workloads on every push.
    """
    violations: List[str] = []
    result = run_program(analysis.program, inputs=list(inputs),
                         config=CpuConfig(collect_trace=True))
    valid_pairs = analysis.valid_pairs
    for pair in result.trace.executed_edges:
        if pair not in valid_pairs:
            violations.append(
                "executed edge (0x%x, 0x%x) is not in the proven valid-pair set"
                % pair
            )
            break
    executed = {record.pc for record in result.trace.records}
    for start in sorted(analysis.unreachable_blocks):
        block = analysis.cfg.block_starting_at(start)
        if block is not None and any(
            instr.address in executed for instr in block.instructions
        ):
            violations.append(
                "block 0x%x executed but was proven unreachable" % start
            )
    policy = analysis.policy
    scheme = get_scheme("lofat")
    _, measurement = scheme.measure_execution(
        analysis.program, list(inputs)
    )
    for record in measurement.metadata.loops:
        detail = policy.check_loop_record(record.entry, record.iterations)
        if detail is not None:
            violations.append("dynamic loop record violates the policy: " + detail)
    return violations


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis report (and policy artifacts) over programs."""
    import json as _json

    from repro.dataflow import analyze_program, lint_program, new_findings

    baseline = {}
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                document = _json.load(handle)
        except (OSError, ValueError) as error:
            print("error: cannot read baseline: %s" % error, file=sys.stderr)
            return 2
        for row in document.get("programs", []):
            baseline[row["name"]] = row.get("findings", [])

    try:
        targets = list(_analyze_targets(args))
    except KeyError as error:
        print("error: unknown analyze target %s (not a workload, corpus "
              "entry or file)" % error, file=sys.stderr)
        return 2
    except Exception as error:  # lang compile errors on file targets
        print("error: %s" % error, file=sys.stderr)
        return 2

    if args.policy_out:
        os.makedirs(args.policy_out, exist_ok=True)

    report = {"version": 1, "programs": []}
    failed = False
    for name, program, inputs in targets:
        analysis = analyze_program(program)
        findings = lint_program(analysis)
        policy = analysis.policy
        fresh = new_findings(findings, baseline.get(name, [])) if args.baseline \
            else []
        violations: List[str] = []
        if args.selfcheck and inputs is not None:
            violations = _analyze_selfcheck(analysis, inputs)
        entry = {
            "name": name,
            "digest": program.digest,
            "blocks": len(analysis.cfg.blocks),
            "unreachable_blocks": sorted(analysis.unreachable_blocks),
            "loops": len(analysis.loops),
            "loop_bounds": [
                {
                    "entry": header,
                    "max_back_edges": bound.max_back_edges,
                    "exact_back_edges": bound.exact_back_edges,
                }
                for header, bound in sorted(analysis.loop_bounds.items())
            ],
            "findings": [finding.to_json() for finding in findings],
            "policy_digest": policy.policy_digest(),
            "soundness_violations": violations,
        }
        if args.baseline:
            entry["new_findings"] = [finding.to_json() for finding in fresh]
        report["programs"].append(entry)
        if fresh or violations:
            failed = True
        if args.policy_out:
            path = os.path.join(args.policy_out, "%s.policy.json" % name)
            with open(path, "w") as handle:
                _json.dump(policy.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")

    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 1 if failed else 0

    for entry in report["programs"]:
        print("== %s (%s) ==" % (entry["name"], entry["digest"][:12]))
        print("  blocks %d (%d unreachable), loops %d"
              % (entry["blocks"], len(entry["unreachable_blocks"]),
                 entry["loops"]))
        for bound in entry["loop_bounds"]:
            if bound["max_back_edges"] is None:
                line = "unbounded (data-dependent)"
            else:
                line = "back-edges <= %d" % bound["max_back_edges"]
                if bound["exact_back_edges"] is not None:
                    line += " (exact %d)" % bound["exact_back_edges"]
            print("  loop @%#06x %s" % (bound["entry"], line))
        for finding in entry["findings"]:
            print("  %-20s %#06x  %s"
                  % (finding["kind"], finding["address"], finding["detail"]))
        for violation in entry["soundness_violations"]:
            print("  SOUNDNESS VIOLATION: %s" % violation)
        if entry.get("new_findings"):
            print("  %d finding(s) not in the baseline" % len(entry["new_findings"]))
    print("%d program(s) analyzed%s"
          % (len(report["programs"]),
             ", FAILURES above" if failed else ""))
    return 1 if failed else 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    """Generate (and optionally execute) the compiled workload families."""
    from repro.adversary.seeds import resolve_seed
    from repro.lang import families as _families

    if args.list_families:
        print("Workload families:")
        for name in _families.family_names():
            family = _families.get_family(name)
            print("  %-10s %2d members  %s"
                  % (name, len(family.grid), family.description))
        return 0

    seed = resolve_seed(args.seed)
    if args.family:
        names = [name.strip() for name in args.family.split(",") if name.strip()]
        for name in names:
            if name not in _families.FAMILY_REGISTRY:
                print("error: unknown family %r (known: %s)"
                      % (name, ", ".join(_families.family_names())),
                      file=sys.stderr)
                return 2
    else:
        names = _families.family_names()

    print("family seed: %d" % seed)
    workloads = []
    for name in names:
        workloads.extend(_families.generate_family(name, seed=seed))
    failures = 0
    for workload in workloads:
        line = "  %-24s inputs=%-24s" % (workload.name, workload.inputs)
        if args.check:
            result = run_program(workload.build(), inputs=workload.inputs)
            ok = result.output == workload.expected_output
            failures += 0 if ok else 1
            line += " %s" % ("ok" if ok else
                             "MISMATCH (got %r, want %r)"
                             % (result.output, workload.expected_output))
        else:
            line += " expect=%s" % workload.expected_output.strip()
        print(line)
    print("%d workloads across %d families%s"
          % (len(workloads), len(names),
             "" if not args.check else
             (", all outputs match the reference models" if not failures
              else ", %d MISMATCHES" % failures)))
    return 1 if failures else 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    """``repro serve --workers N``: the multi-process verifier fleet."""
    from repro.service.fleet import FleetError, FleetServer

    fleet = FleetServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        dispatcher=args.dispatcher,
        state_dir=args.state_dir,
        database_path=args.database,
        trace_dir=args.trace_dir,
        allow_shutdown=args.allow_shutdown,
        session_limit=args.session_limit,
        ready_file=args.ready_file,
    )
    try:
        fleet.start()
    except (FleetError, OSError) as error:
        print("error: cannot start fleet on %s:%d: %s"
              % (args.host, args.port, error), file=sys.stderr)
        fleet.stop()
        return 2
    # Same contract as the single-process line, plus the fleet shape; the
    # E18 benchmark and CI parse the host:port.
    print("fleet listening on %s:%d (%d workers, %s dispatch)"
          % (fleet.host, fleet.port, fleet.workers, fleet.dispatcher),
          flush=True)
    try:
        fleet.wait()
    except KeyboardInterrupt:
        pass
    except FleetError as error:
        print("error: %s" % error, file=sys.stderr)
        fleet.stop()
        return 1
    summary = fleet.stop()
    stats = summary.stats
    print("fleet served %s connections, %s reports (%s accepted, "
          "%s rejected, %s protocol errors); merged %d delta records "
          "into %d database entries"
          % (stats.get("connections", 0), stats.get("reports_verified", 0),
             stats.get("accepted", 0), stats.get("rejected", 0),
             stats.get("protocol_errors", 0), summary.delta_records,
             summary.database_entries))
    if not summary.clean:
        print("error: worker exit codes %s" % summary.worker_exit_codes,
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the standing attestation verifier service until stopped."""
    from repro.service.server import AttestationServer

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.workers > 1:
        return _cmd_serve_fleet(args)

    try:
        database = None
        if args.database is not None and os.path.exists(args.database):
            database = MeasurementDatabase.load(args.database)
        trace_store = None
        if args.trace_dir is not None:
            trace_store = TraceStore(directory=args.trace_dir)
    except (ValueError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    server = AttestationServer(
        host=args.host,
        port=args.port,
        database=database,
        trace_store=trace_store,
        allow_shutdown=args.allow_shutdown,
        session_limit=args.session_limit,
        ready_file=args.ready_file,
    )

    async def _serve() -> None:
        await server.start()
        # The bound port matters when --port 0 asked for an ephemeral one;
        # clients (and the E14 benchmark) parse this line.
        print("listening on %s:%d" % (server.host, server.port), flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        # Bind failures (port in use, privileged port) are usage errors,
        # not tracebacks.
        print("error: cannot serve on %s:%d: %s"
              % (args.host, args.port, error), file=sys.stderr)
        return 2
    if args.database is not None:
        try:
            server.database.save(args.database)
        except OSError as error:
            print("error: cannot save measurement database: %s" % error,
                  file=sys.stderr)
            return 2
    stats = server.stats.as_dict()
    print("served %d connections, %d reports (%d accepted, %d rejected, "
          "%d protocol errors)"
          % (stats["connections"], stats["reports_verified"],
             stats["accepted"], stats["rejected"], stats["protocol_errors"]))
    print("measurement db: " + format_database_stats(server.database.stats()))
    return 0


def _cmd_fleet_load(args: argparse.Namespace) -> int:
    """Drive the fleet load generator against a running verifier (fleet)."""
    from repro.service.client import AttestationClient, RemoteAttestationError
    from repro.service.loadgen import FleetLoadSpec, run_fleet_load

    schemes = tuple(n.strip() for n in args.scheme.split(",") if n.strip())
    workloads = tuple(n.strip() for n in args.workload.split(",") if n.strip())
    if not schemes or not workloads:
        print("error: --scheme and --workload need at least one name",
              file=sys.stderr)
        return 2
    for name in schemes:
        if name not in scheme_names():
            print("error: unknown scheme %r" % name, file=sys.stderr)
            return 2

    spec = FleetLoadSpec(
        devices=args.devices,
        connections=args.connections,
        processes=args.processes,
        reports=args.reports,
        schemes=schemes,
        workloads=workloads,
        seed=args.seed,
        session_rounds=args.session_rounds,
        storms=args.storms,
        stale_fraction=args.stale,
        duplicate_fraction=args.duplicate,
        pace_seconds=args.pace_ms / 1000.0,
        batch=args.batch,
    )
    try:
        spec.validate()
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    try:
        report = run_fleet_load(
            args.host, args.port, spec=spec,
            trace_dir=args.trace_dir,
        )
        if args.shutdown:
            async def _shutdown() -> None:
                client = AttestationClient(args.host, args.port, "fleet-admin")
                await client.connect()
                await client.shutdown_server()
            asyncio.run(_shutdown())
    except (ConnectionError, OSError) as error:
        print("error: cannot reach server at %s:%d: %s"
              % (args.host, args.port, error), file=sys.stderr)
        return 2
    except RemoteAttestationError as error:
        print("error: server rejected the session: %s" % error,
              file=sys.stderr)
        return 2

    print("device pool  : %d modeled, %d distinct attested"
          % (report.devices, report.distinct_devices))
    print("clients      : %d processes x %d connections"
          % (max(1, report.processes), report.connections))
    print("sessions     : %d (%d reconnects, %d storms)"
          % (report.sessions, report.reconnects, report.storms_completed))
    print("reports      : %d benign (%d accepted, %d unexpectedly rejected)"
          % (report.reports, report.accepted, report.rejected_unexpected))
    print("stale        : %d injected, %d rejected"
          % (report.stale_injected, report.stale_rejected))
    print("duplicate    : %d injected, %d rejected"
          % (report.duplicate_injected, report.duplicate_rejected))
    print("prover side  : %d trace replays, %d live executions"
          % (report.replayed, report.executed))
    for scheme, count in sorted(report.by_scheme.items()):
        print("  %-8s %d reports" % (scheme, count))
    print("elapsed      : %.3f s" % report.elapsed_seconds)
    print("throughput   : %.1f reports/s" % report.reports_per_second)
    if report.rejections:
        for scheme, workload, reason in report.rejections[:10]:
            print("rejected     : %s/%s (%s)" % (scheme, workload, reason),
                  file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LO-FAT hardware control-flow attestation reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list workloads and attack scenarios")
    subparsers.add_parser("schemes", help="list the registered attestation schemes")

    for name, help_text in (
        ("run", "run a workload without attestation"),
        ("attest", "run a workload under an attestation scheme and print (A, L)"),
        ("protocol", "play the full challenge-response protocol"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("workload", help="workload name (see 'list')")
        sub.add_argument("--inputs", type=int, nargs="*", default=None,
                         help="override the workload's default input values")
        if name in ("attest", "protocol"):
            sub.add_argument("--scheme", default="lofat", choices=scheme_names(),
                             help="attestation scheme (default: lofat)")

    attack = subparsers.add_parser("attack", help="demonstrate an attack scenario")
    attack.add_argument("scenario", nargs="?", default=None,
                        help="attack scenario name (see 'list' or --list)")
    attack.add_argument("--list", action="store_true",
                        help="list the registered attack scenarios and exit")

    subparsers.add_parser("overhead", help="print the LO-FAT vs C-FLAT overhead table")
    subparsers.add_parser("area", help="print the FPGA resource estimates")

    def add_campaign_options(target, full=True):
        source = target.add_mutually_exclusive_group()
        source.add_argument(
            "--experiment", default="all",
            choices=all_experiments() + ["all", "adversary", "family"],
            help="preset campaign: one benchmark experiment, 'all' (default), "
                 "'adversary' (seeded generated scenarios) or 'family' "
                 "(seeded compiled workload families)",
        )
        target.add_argument(
            "--seed", type=int, default=None, metavar="N",
            help="generation seed for '--experiment adversary/family' "
                 "(default: REPRO_SEED or the built-in seed)",
        )
        source.add_argument(
            "--spec", default=None, metavar="FILE",
            help="JSON campaign spec file (see repro.service.CampaignSpec)",
        )
        target.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="prover worker processes (1 = sequential, default)",
        )
        target.add_argument(
            "--repeats", type=int, default=None, metavar="N",
            help="override the spec's repeat count",
        )
        target.add_argument(
            "--verify-mode", default=None,
            choices=["database", "replay", "structural"],
            help="override the spec's verification mode",
        )
        target.add_argument(
            "--scheme", default=None, metavar="NAMES",
            help="override the spec's attestation schemes (comma-separated, "
                 "e.g. lofat,cflat,static)",
        )
        if full:
            target.add_argument(
                "--database", default=None, metavar="FILE",
                help="measurement database file to load before and save "
                     "after the run",
            )
            target.add_argument(
                "--show-jobs", action="store_true",
                help="print the per-job verdict table",
            )
            target.add_argument(
                "--pipeline", default="capture",
                choices=["capture", "live"],
                help="report production: 'capture' dedupes executions and "
                     "attests from stored traces (default); 'live' runs one "
                     "fused execution per job",
            )

    campaign = subparsers.add_parser(
        "campaign",
        help="run an attestation campaign through the parallel service",
    )
    add_campaign_options(campaign)
    campaign.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="persist the capture store in DIR (reused across invocations)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="capture-once / verify-many operations on a persistent "
             "trace store",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_capture = trace_sub.add_parser(
        "capture",
        help="simulate every unique execution of a campaign and persist "
             "the control-flow traces",
    )
    add_campaign_options(trace_capture, full=False)
    trace_capture.add_argument(
        "--trace-dir", required=True, metavar="DIR",
        help="directory of the persistent capture store",
    )
    trace_attest = trace_sub.add_parser(
        "attest",
        help="run a campaign against a previously captured trace store",
    )
    add_campaign_options(trace_attest)
    trace_attest.add_argument(
        "--trace-dir", required=True, metavar="DIR",
        help="directory of the persistent capture store",
    )

    adversary = subparsers.add_parser(
        "adversary",
        help="generate adversarial scenarios, check the detection matrix "
             "and fuzz the trust-boundary parsers (seeded)",
    )
    adversary.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="generation seed (default: REPRO_SEED or the built-in seed)",
    )
    adversary.add_argument(
        "--workloads", default=None, metavar="NAMES",
        help="comma-separated workload names, or 'all' "
             "(default: the attack-target workloads)",
    )
    adversary.add_argument(
        "--scheme", default=None, metavar="NAMES",
        help="comma-separated schemes to check (default: lofat,cflat,static)",
    )
    adversary.add_argument(
        "--list", action="store_true",
        help="only print the generated scenarios, skip oracle and fuzzing",
    )
    adversary.add_argument(
        "--fuzz-examples", type=int, default=None, metavar="N",
        help="mutations per parser surface "
             "(default: REPRO_FUZZ_EXAMPLES or 1000)",
    )
    adversary.add_argument(
        "--skip-fuzz", action="store_true",
        help="skip the parser fuzzing stage",
    )
    adversary.add_argument(
        "--failures-file", default=None, metavar="FILE",
        help="write oracle/fuzz failures as JSON (CI artifact)",
    )

    compile_cmd = subparsers.add_parser(
        "compile",
        help="compile a workload-language source file to RV32 assembly",
    )
    compile_cmd.add_argument("file", help="workload-language source file")
    compile_cmd.add_argument("--name", default=None,
                             help="program name (default: the file stem)")
    compile_cmd.add_argument("--emit-asm", action="store_true",
                             help="print the generated assembly and exit")
    compile_cmd.add_argument("--no-verify", action="store_true",
                             help="skip the codegen-metadata vs repro.cfg "
                                  "cross-check")
    compile_cmd.add_argument("--run", action="store_true",
                             help="execute the compiled program")
    compile_cmd.add_argument("--inputs", type=int, nargs="*", default=None,
                             help="input values for --run")

    analyze = subparsers.add_parser(
        "analyze",
        help="static dataflow analysis report over programs "
             "(loop bounds, lint findings, StaticPolicy artifacts)",
    )
    analyze.add_argument(
        "targets", nargs="*",
        help="workload names, lang-corpus entry names or .lang files "
             "(default: the whole lang corpus plus every workload)",
    )
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    analyze.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="previous --json report; exit 1 on lint findings not in it",
    )
    analyze.add_argument(
        "--policy-out", default=None, metavar="DIR",
        help="write one <name>.policy.json StaticPolicy artifact per program",
    )
    analyze.add_argument(
        "--selfcheck", action="store_true",
        help="execute each program once and fail on any statically proven "
             "fact the dynamic trace violates (the CI soundness gate)",
    )

    workloads_cmd = subparsers.add_parser(
        "workloads",
        help="generate the compiled workload families (seeded)",
    )
    workloads_cmd.add_argument(
        "--family", default=None, metavar="NAMES",
        help="comma-separated family names (default: all families)",
    )
    workloads_cmd.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="generation seed (default: REPRO_SEED or the built-in seed)",
    )
    workloads_cmd.add_argument(
        "--list-families", action="store_true",
        help="list the registered families and exit",
    )
    workloads_cmd.add_argument(
        "--check", action="store_true",
        help="execute every generated workload and compare its output "
             "against the family's Python reference model",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the standing attestation verifier service (asyncio TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=4711,
                       help="TCP port; 0 picks an ephemeral port and prints "
                            "it (default: 4711)")
    serve.add_argument("--database", default=None, metavar="FILE",
                       help="measurement database to load at startup and "
                            "save (atomically) at shutdown")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="capture store; cold references replay stored "
                            "benign traces instead of re-simulating")
    serve.add_argument("--session-limit", type=int, default=4, metavar="N",
                       help="concurrent reference sessions per scheme "
                            "(default: 4)")
    serve.add_argument("--allow-shutdown", action="store_true",
                       help="honour the wire SHUTDOWN frame (CI smoke runs)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="verifier worker processes; >1 runs the "
                            "multi-process fleet with a shared database "
                            "snapshot + per-worker delta logs (default: 1)")
    serve.add_argument("--dispatcher", default="auto",
                       choices=["auto", "reuseport", "handoff"],
                       help="fleet connection dispatch: kernel SO_REUSEPORT "
                            "balancing or pre-fork socket handoff "
                            "(default: auto)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="fleet state directory (ready flags, delta "
                            "logs, worker stats; default: a temp dir)")
    serve.add_argument("--ready-file", default=None, metavar="FILE",
                       help="atomically write 'host:port' here once the "
                            "server (or every fleet worker) is accepting -- "
                            "a deterministic readiness signal for scripts")

    fleet_load = subparsers.add_parser(
        "fleet-load",
        help="generate realistic fleet traffic (churn, heavy-tailed rates, "
             "reconnect storms, stale/duplicate reports) against a server",
    )
    fleet_load.add_argument("--host", default="127.0.0.1",
                            help="server address (default: 127.0.0.1)")
    fleet_load.add_argument("--port", type=int, default=4711,
                            help="server port (default: 4711)")
    fleet_load.add_argument("--devices", type=int, default=1_000_000,
                            metavar="N",
                            help="modeled device population; identities are "
                                 "drawn heavy-tailed from it "
                                 "(default: 1000000)")
    fleet_load.add_argument("--connections", type=int, default=8, metavar="N",
                            help="concurrent device connections "
                                 "(default: 8)")
    fleet_load.add_argument("--processes", type=int, default=1, metavar="N",
                            help="client OS processes driving the "
                                 "connections (default: 1)")
    fleet_load.add_argument("--reports", type=int, default=200, metavar="N",
                            help="benign reports to submit in total "
                                 "(default: 200)")
    fleet_load.add_argument("--scheme", default="lofat", metavar="NAMES",
                            help="comma-separated scheme names "
                                 "(default: lofat)")
    fleet_load.add_argument("--workload", default="syringe_pump",
                            metavar="NAMES",
                            help="comma-separated workloads "
                                 "(default: syringe_pump)")
    fleet_load.add_argument("--session-rounds", type=int, default=4,
                            metavar="R",
                            help="mean rounds per connection before the "
                                 "device churns (default: 4)")
    fleet_load.add_argument("--batch", type=int, default=1, metavar="B",
                            help="rounds pipelined per verification "
                                 "session (default: 1 = unbatched)")
    fleet_load.add_argument("--storms", type=int, default=0, metavar="N",
                            help="synchronized reconnect storms during the "
                                 "run (default: 0)")
    fleet_load.add_argument("--stale", type=float, default=0.0, metavar="P",
                            help="per-session probability of submitting a "
                                 "stale report on a fresh connection; every "
                                 "one must be rejected (default: 0)")
    fleet_load.add_argument("--duplicate", type=float, default=0.0,
                            metavar="P",
                            help="per-round probability of re-submitting "
                                 "the same signed report; every duplicate "
                                 "must be rejected (default: 0)")
    fleet_load.add_argument("--seed", type=int,
                            default=int(os.environ.get("REPRO_SEED",
                                                       "20170618")),
                            help="deterministic traffic seed "
                                 "(default: $REPRO_SEED or 20170618)")
    fleet_load.add_argument("--trace-dir", default=None, metavar="DIR",
                            help="replay stored captures instead of "
                                 "re-simulating prover executions")
    fleet_load.add_argument("--pace-ms", type=float, default=0.0,
                            metavar="MS",
                            help="simulated device latency per round "
                                 "(default 0 = unpaced wire throughput)")
    fleet_load.add_argument("--shutdown", action="store_true",
                            help="send a SHUTDOWN frame after the run "
                                 "(server must allow it)")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "schemes": _cmd_schemes,
    "run": _cmd_run,
    "attest": _cmd_attest,
    "protocol": _cmd_protocol,
    "attack": _cmd_attack,
    "overhead": _cmd_overhead,
    "area": _cmd_area,
    "campaign": _cmd_campaign,
    "adversary": _cmd_adversary,
    "compile": _cmd_compile,
    "analyze": _cmd_analyze,
    "workloads": _cmd_workloads,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "fleet-load": _cmd_fleet_load,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
