"""CFG-derived synthesis of benign variants and attack scenarios.

The generator walks a workload's control-flow graph and proposes candidate
perturbations in the paper's attack-class taxonomy, then *vets every
candidate empirically* before emitting it:

* a control-flow attack (edge bend, skipped node, loop tampering) is kept
  only if the attacked run terminates, the corruption actually fired, and
  the measurement ``(A, L)`` diverges from the benign reference under
  **both** runtime schemes (lofat and cflat) -- a bend that rejoins the
  benign event stream is indistinguishable from the benign run by
  construction and would poison the detection matrix;
* a data-only corruption is kept only if the measurement is *identical* to
  the benign reference under both runtime schemes -- that is what makes it
  the documented expected-miss case;
* a benign input variant is kept only if the program runs to completion on
  it within the vetting fuel budget.

Where the static analyzer (:mod:`repro.dataflow.attackvet`) can *prove* the
measurement outcome, the scheme-instrumented vetting runs are skipped: a
redirect proven divergent needs one plain run (termination / trigger /
output checks) instead of one instrumented run per runtime scheme, and a
data-only corruption proven invisible needs no extra run at all -- its
attacked execution is bit-identical to the benign profile already captured.
Candidates the analyzer cannot decide fall back to full execution vetting,
so the emitted population is byte-identical either way (tier-1 pins this).

Candidates that fail vetting are discarded, not patched: the RNG stream is
consumed identically either way, so generation is deterministic in the seed.

Emitted attacks are plain :class:`repro.attacks.injector.AttackScenario`
objects, compatible with the hand-written registry, the campaign runner and
the attestation prover's attack hook.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.injector import (
    AttackScenario,
    ControlFlowRedirect,
    MemoryCorruption,
)
from repro.adversary.seeds import derive_rng, resolve_seed
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.exceptions import CpuError
from repro.dataflow.attackvet import (
    PROVEN_DIVERGENT,
    PROVEN_INVISIBLE,
    classify_data_only,
    classify_redirect,
)
from repro.dataflow.program import analyze_program
from repro.schemes import get_scheme
from repro.workloads import Workload, get_workload

#: Instruction budget for vetting runs: large enough for every registered
#: workload's benign run, small enough that a runaway candidate (e.g. a
#: redirect that re-arms a countdown loop) is rejected quickly.
VET_FUEL = 400_000

#: Runtime schemes a control-flow attack must be visible to (and a data-only
#: corruption invisible to) before the generator emits it.
RUNTIME_SCHEMES = ("lofat", "cflat")


@dataclass
class GeneratorLimits:
    """Per-family quotas and the candidate-attempt budget."""

    benign_variants: int = 12
    edge_bends: int = 10
    skipped_nodes: int = 4
    loop_overcounts: int = 3
    loop_undercounts: int = 3
    data_only: int = 6
    #: Candidate attempts allowed per emitted scenario before giving up.
    attempts_per_quota: int = 40

    def scaled(self, factor: float) -> "GeneratorLimits":
        """A proportionally smaller/larger quota set (at least 1 each)."""
        return GeneratorLimits(
            benign_variants=max(1, int(self.benign_variants * factor)),
            edge_bends=max(1, int(self.edge_bends * factor)),
            skipped_nodes=max(1, int(self.skipped_nodes * factor)),
            loop_overcounts=max(1, int(self.loop_overcounts * factor)),
            loop_undercounts=max(1, int(self.loop_undercounts * factor)),
            data_only=max(1, int(self.data_only * factor)),
            attempts_per_quota=self.attempts_per_quota,
        )


@dataclass
class BenignVariant:
    """An input assignment on which the unattacked program must verify."""

    name: str
    workload_name: str
    inputs: Tuple[int, ...]
    kind: str  # "default" | "permutation" | "jitter" | "rotation"
    observed_output: str = ""


@dataclass
class GeneratedSuite:
    """Everything the generator produced for one workload at one seed."""

    workload_name: str
    seed: int
    benign: List[BenignVariant] = field(default_factory=list)
    attacks: List[AttackScenario] = field(default_factory=list)
    #: How many candidates the static pre-filter proved (and so vetted
    #: without scheme-instrumented runs) versus deferred to execution.
    static_vet: Dict[str, int] = field(default_factory=dict)

    @property
    def scenario_count(self) -> int:
        return len(self.benign) + len(self.attacks)

    def counts(self) -> Dict[str, int]:
        """Scenario counts per family (benign kinds and attack categories)."""
        tally: Counter = Counter()
        for variant in self.benign:
            tally["benign:" + variant.kind] += 1
        for scenario in self.attacks:
            tally[scenario.category] += 1
        return dict(tally)


def _measurement_key(measurement) -> Tuple[bytes, bytes]:
    return (measurement.measurement, measurement.metadata.to_bytes())


def _run_measured(scheme, program, inputs, corruptions=()):
    """One bounded run with ``corruptions`` installed under ``scheme``.

    Returns ``(result, (A, L))`` or ``None`` if the run raised a CPU error
    (out of fuel, memory protection, illegal instruction, misalignment --
    the candidate is simply not viable).
    """
    cpu = Cpu(
        program,
        inputs=list(inputs),
        config=CpuConfig(collect_trace=False, max_instructions=VET_FUEL),
    )
    session = scheme.open_session(program)
    cpu.attach_monitor(session.observe)
    for corruption in corruptions:
        corruption.install(cpu)
    try:
        result = cpu.run()
    except CpuError:
        return None
    return result, _measurement_key(session.finalize())


def _redirect_builder(trigger_pc: int, target: int, occurrence: int):
    def build(program):
        return [
            ControlFlowRedirect(
                trigger_pc=trigger_pc, target=target, occurrence=occurrence
            )
        ]
    return build


def _corruption_builder(trigger_pc: int, address: int, value: int, occurrence: int):
    def build(program):
        return [
            MemoryCorruption(
                trigger_pc=trigger_pc,
                address=address,
                value=value,
                occurrence=occurrence,
            )
        ]
    return build


class _WorkloadContext:
    """Benign references and execution profile shared by all candidates."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.program = workload.build()
        self.analysis = analyze_program(self.program)
        self.cfg = self.analysis.cfg
        self.loops = self.analysis.loops
        self.inputs = tuple(workload.inputs)
        #: How often the static pre-filter decided (or declined to decide) a
        #: candidate; purely observational, surfaced by ``repro adversary``.
        self.static_vet_counts: Counter = Counter()

        cpu = Cpu(
            self.program,
            inputs=list(self.inputs),
            config=CpuConfig(collect_trace=True, max_instructions=VET_FUEL),
        )
        result = cpu.run()
        self.benign_output = result.output
        #: How often each pc retired on the benign run (trigger candidates).
        self.pc_counts: Counter = Counter(
            record.pc for record in result.trace.records
        )

        self.schemes = {name: get_scheme(name) for name in RUNTIME_SCHEMES}
        self.references: Dict[str, Tuple[bytes, bytes]] = {}
        for name, scheme in self.schemes.items():
            measured = _run_measured(scheme, self.program, self.inputs)
            if measured is None:  # pragma: no cover - benign run must work
                raise RuntimeError(
                    "benign reference run failed for %r" % workload.name
                )
            self.references[name] = measured[1]

        self.block_starts = [block.start for block in self.cfg.blocks]

    def vet_control_flow(self, builder) -> Optional[Tuple[bool, str]]:
        """Vet a control-flow candidate; returns (changes_output, output) or None.

        The candidate must terminate, fire, and diverge from the benign
        reference under every runtime scheme.  When the analyzer proves the
        divergence, one plain run replaces the per-scheme instrumented runs.
        """
        redirect = self._single_redirect(builder)
        if redirect is not None:
            verdict = classify_redirect(
                self.analysis, redirect.trigger_pc, int(redirect.target)
            )
            if verdict == PROVEN_DIVERGENT:
                self.static_vet_counts["redirect_proven_divergent"] += 1
                return self._vet_plain_run(builder)
            self.static_vet_counts["redirect_unknown"] += 1
        observed_output = None
        for name, scheme in self.schemes.items():
            corruptions = builder(self.program)
            measured = _run_measured(scheme, self.program, self.inputs, corruptions)
            if measured is None:
                return None
            result, key = measured
            if not any(corruption.fired for corruption in corruptions):
                return None
            if key == self.references[name]:
                return None
            observed_output = result.output
        return (observed_output != self.benign_output, observed_output)

    def vet_data_only(self, builder) -> Optional[Tuple[bool, str]]:
        """Vet a data-only candidate; returns (changes_output, output) or None.

        The candidate must terminate, fire, and leave the measurement
        *identical* to the benign reference under every runtime scheme.
        When the analyzer proves the written bytes are never read, the
        attacked run is bit-identical to the benign profile, so no run at
        all is needed: firing follows from the benign pc counts and the
        output cannot change.
        """
        corruption = self._single_corruption(builder)
        if corruption is not None:
            verdict = classify_data_only(
                self.analysis, int(corruption.address), corruption.size
            )
            if verdict == PROVEN_INVISIBLE:
                self.static_vet_counts["data_proven_invisible"] += 1
                if self.pc_counts.get(corruption.trigger_pc, 0) < corruption.occurrence:
                    return None
                return (False, self.benign_output)
            self.static_vet_counts["data_unknown"] += 1
        observed_output = None
        for name, scheme in self.schemes.items():
            corruptions = builder(self.program)
            measured = _run_measured(scheme, self.program, self.inputs, corruptions)
            if measured is None:
                return None
            result, key = measured
            if not any(corruption.fired for corruption in corruptions):
                return None
            if key != self.references[name]:
                return None
            observed_output = result.output
        return (observed_output != self.benign_output, observed_output)

    # ---------------------------------------------------- static pre-filter
    def _single_redirect(self, builder) -> Optional[ControlFlowRedirect]:
        """The candidate's lone constant redirect, when that's its shape."""
        corruptions = builder(self.program)
        if len(corruptions) != 1:
            return None
        corruption = corruptions[0]
        if not isinstance(corruption, ControlFlowRedirect):
            return None
        if callable(corruption.target) or corruption.repeat:
            return None
        return corruption

    def _single_corruption(self, builder) -> Optional[MemoryCorruption]:
        """The candidate's lone constant word write into the mapped data
        region, when that's its shape (so the write itself cannot fault and
        the invisibility proof extends to the whole run)."""
        corruptions = builder(self.program)
        if len(corruptions) != 1:
            return None
        corruption = corruptions[0]
        if not isinstance(corruption, MemoryCorruption):
            return None
        if callable(corruption.address) or callable(corruption.value):
            return None
        if corruption.repeat:
            return None
        address = int(corruption.address)
        region_end = self.program.data_base + CpuConfig().data_region_size
        if address < self.program.data_base or address + corruption.size > region_end:
            return None
        return corruption

    def _vet_plain_run(self, builder) -> Optional[Tuple[bool, str]]:
        """Behavioural checks only: terminate, fire, observe the output."""
        corruptions = builder(self.program)
        cpu = Cpu(
            self.program,
            inputs=list(self.inputs),
            config=CpuConfig(collect_trace=False, max_instructions=VET_FUEL),
        )
        for corruption in corruptions:
            corruption.install(cpu)
        try:
            result = cpu.run()
        except CpuError:
            return None
        if not any(corruption.fired for corruption in corruptions):
            return None
        return (result.output != self.benign_output, result.output)

    def vet_benign(self, inputs: Sequence[int]) -> Optional[str]:
        """Vet a benign input variant; returns its output or None."""
        cpu = Cpu(
            self.program,
            inputs=list(inputs),
            config=CpuConfig(collect_trace=False, max_instructions=VET_FUEL),
        )
        try:
            result = cpu.run()
        except CpuError:
            return None
        return result.output


def _generate_benign(context: _WorkloadContext, rng, limits: GeneratorLimits):
    workload = context.workload
    variants: List[BenignVariant] = []
    seen = set()

    def add(kind: str, inputs: Sequence[int]) -> bool:
        key = tuple(int(value) for value in inputs)
        if key in seen:
            return False
        output = context.vet_benign(key)
        if output is None:
            return False
        seen.add(key)
        variants.append(
            BenignVariant(
                name="%s_benign_%s%02d" % (workload.name, kind, len(variants)),
                workload_name=workload.name,
                inputs=key,
                kind=kind,
                observed_output=output,
            )
        )
        return True

    add("default", context.inputs)
    base = list(context.inputs)
    attempts = limits.benign_variants * limits.attempts_per_quota
    while len(variants) < limits.benign_variants and attempts > 0:
        attempts -= 1
        choice = rng.randrange(3)
        if choice == 0 and len(base) >= 2:
            # Input permutation: same multiset of values, different schedule.
            shuffled = list(base)
            rng.shuffle(shuffled)
            add("permutation", shuffled)
        elif choice == 1 and base:
            # Rotation: an equivalent schedule of the same input stream.
            pivot = rng.randrange(1, len(base)) if len(base) > 1 else 0
            add("rotation", base[pivot:] + base[:pivot])
        else:
            # Value jitter: fresh small values (small keeps loop trip counts
            # and therefore vetting runs short).
            add("jitter", [rng.randint(0, 64) for _ in range(max(1, len(base)))])
    return variants


def _executed_blocks(context: _WorkloadContext, by_terminator: bool):
    blocks = []
    for block in context.cfg.blocks:
        pc = block.terminator_address if by_terminator else block.start
        if context.pc_counts.get(pc):
            blocks.append(block)
    return blocks


def _occurrence(rng, count: int) -> int:
    return rng.randint(1, min(count, 8))


def _generate_family(
    context,
    rng,
    quota: int,
    attempts_per_quota: int,
    propose,
    vet,
    describe,
    category: str,
    attack_class: int,
    control_flow_visible: bool,
    start_index: int,
    seed: int,
):
    """Propose/vet loop shared by every attack family."""
    scenarios: List[AttackScenario] = []
    signatures = set()
    attempts = quota * attempts_per_quota
    while len(scenarios) < quota and attempts > 0:
        attempts -= 1
        candidate = propose()
        if candidate is None:
            continue
        signature, builder_args = candidate
        if signature in signatures:
            continue
        builder = builder_args[0]
        verdict = vet(builder)
        if verdict is None:
            continue
        changes_output, _ = verdict
        signatures.add(signature)
        index = start_index + len(scenarios)
        scenarios.append(
            AttackScenario(
                name="adv_%s_%s%02d_s%d"
                % (context.workload.name, category, index, seed),
                description=describe(signature),
                attack_class=attack_class,
                workload_name=context.workload.name,
                build_corruptions=builder,
                challenge_inputs=list(context.inputs),
                changes_output=changes_output,
                control_flow_visible=control_flow_visible,
                category=category,
            )
        )
    return scenarios


def generate_suite(
    workload_name: str,
    seed: Optional[int] = None,
    limits: Optional[GeneratorLimits] = None,
) -> GeneratedSuite:
    """Generate the benign-variant and attack-scenario suite for a workload.

    Deterministic in ``(seed, workload_name, limits)``: the RNG stream is
    derived from the seed and the workload name only, and every candidate is
    vetted on the deterministic CPU model.
    """
    seed = resolve_seed(seed)
    limits = limits or GeneratorLimits()
    workload = get_workload(workload_name)
    context = _WorkloadContext(workload)
    rng = derive_rng(seed, "generator", workload.name)
    suite = GeneratedSuite(workload_name=workload.name, seed=seed)

    suite.benign = _generate_benign(context, rng, limits)

    block_starts = context.block_starts

    # --- class 3: edge bends (ROP/JOP-style pivots at a block terminator) ---
    bend_sources = _executed_blocks(context, by_terminator=True)

    def propose_bend():
        if not bend_sources:
            return None
        block = rng.choice(bend_sources)
        trigger = block.terminator_address
        legal = context.cfg.successor_starts(block.start)
        targets = [
            start
            for start in block_starts
            if start not in legal and start != block.start
        ]
        if not targets:
            return None
        target = rng.choice(targets)
        occurrence = _occurrence(rng, context.pc_counts[trigger])
        signature = ("bend", trigger, target, occurrence)
        return signature, (_redirect_builder(trigger, target, occurrence),)

    suite.attacks += _generate_family(
        context, rng, limits.edge_bends, limits.attempts_per_quota,
        propose_bend, context.vet_control_flow,
        lambda sig: (
            "Edge bend: pivot from the terminator at 0x%x (occurrence %d) to "
            "non-successor block 0x%x, modelling a code-pointer hijack."
            % (sig[1], sig[3], sig[2])
        ),
        category="edge_bend", attack_class=3, control_flow_visible=True,
        start_index=0, seed=seed,
    )

    # --- class 3: skipped nodes (shortcut from a block entry to a successor) ---
    skip_sources = [
        block for block in _executed_blocks(context, by_terminator=False)
        if block.size >= 2
    ]

    def propose_skip():
        if not skip_sources:
            return None
        block = rng.choice(skip_sources)
        successors = sorted(context.cfg.successor_starts(block.start))
        targets = [start for start in successors if start != block.start]
        if not targets:
            return None
        target = rng.choice(targets)
        occurrence = _occurrence(rng, context.pc_counts[block.start])
        signature = ("skip", block.start, target, occurrence)
        return signature, (_redirect_builder(block.start, target, occurrence),)

    suite.attacks += _generate_family(
        context, rng, limits.skipped_nodes, limits.attempts_per_quota,
        propose_skip, context.vet_control_flow,
        lambda sig: (
            "Skipped node: shortcut from block entry 0x%x (occurrence %d) "
            "straight to successor 0x%x, skipping the block's body."
            % (sig[1], sig[3], sig[2])
        ),
        category="skipped_node", attack_class=3, control_flow_visible=True,
        start_index=0, seed=seed,
    )

    # --- class 2: loop-iteration tampering --------------------------------
    executed_loops = [
        loop for loop in sorted(context.loops, key=lambda l: l.header)
        if context.pc_counts.get(loop.header, 0) >= 2
    ]

    def propose_overcount():
        if not executed_loops:
            return None
        loop = rng.choice(executed_loops)
        exits = [
            start for start in sorted(loop.exits) if context.pc_counts.get(start)
        ]
        if not exits:
            return None
        trigger = rng.choice(exits)
        body_entries = [
            start
            for start in sorted(context.cfg.successor_starts(loop.header))
            if start in loop.body
        ]
        target = rng.choice(body_entries) if body_entries else loop.header
        occurrence = _occurrence(rng, context.pc_counts[trigger])
        signature = ("overcount", trigger, target, occurrence, loop.header)
        return signature, (_redirect_builder(trigger, target, occurrence),)

    suite.attacks += _generate_family(
        context, rng, limits.loop_overcounts, limits.attempts_per_quota,
        propose_overcount, context.vet_control_flow,
        lambda sig: (
            "Loop over-count: on reaching loop exit 0x%x (occurrence %d), "
            "re-enter the body of the loop headed at 0x%x via 0x%x for an "
            "extra iteration." % (sig[1], sig[3], sig[4], sig[2])
        ),
        category="loop_overcount", attack_class=2, control_flow_visible=True,
        start_index=0, seed=seed,
    )

    def propose_undercount():
        if not executed_loops:
            return None
        loop = rng.choice(executed_loops)
        visits = context.pc_counts.get(loop.header, 0)
        if visits < 3:
            return None
        exits = sorted(loop.exits)
        if not exits:
            return None
        target = rng.choice(exits)
        occurrence = rng.randint(2, min(visits - 1, 8))
        signature = ("undercount", loop.header, target, occurrence)
        return signature, (_redirect_builder(loop.header, target, occurrence),)

    suite.attacks += _generate_family(
        context, rng, limits.loop_undercounts, limits.attempts_per_quota,
        propose_undercount, context.vet_control_flow,
        lambda sig: (
            "Loop under-count: break out of the loop headed at 0x%x on its "
            "%d-th header visit, jumping to exit 0x%x early."
            % (sig[1], sig[3], sig[2])
        ),
        category="loop_undercount", attack_class=2, control_flow_visible=True,
        start_index=0, seed=seed,
    )

    # --- class 1: data-only corruption (the documented expected miss) -----
    program = context.program
    data_words = len(program.data) // 4
    stack_top = program.data_base + CpuConfig().data_region_size
    address_pool = [program.data_base + 4 * i for i in range(data_words)]
    address_pool += [stack_top - 4 * k for k in range(1, 17)]
    executed_pcs = sorted(context.pc_counts)

    def propose_data_only():
        if not address_pool or not executed_pcs:
            return None
        trigger = rng.choice(executed_pcs)
        address = rng.choice(address_pool)
        value = rng.choice(
            [0, 1, rng.randint(0, 0x7FFFFFFF), rng.randint(0, 0xFF)]
        )
        occurrence = _occurrence(rng, min(context.pc_counts[trigger], 4))
        signature = ("data", trigger, address, value, occurrence)
        return signature, (
            _corruption_builder(trigger, address, value, occurrence),
        )

    suite.attacks += _generate_family(
        context, rng, limits.data_only, limits.attempts_per_quota,
        propose_data_only, context.vet_data_only,
        lambda sig: (
            "Data-only corruption: at pc 0x%x (occurrence %d) write 0x%x to "
            "0x%x; the control-flow event stream is unchanged, so runtime "
            "attestation is expected to miss it." % (sig[1], sig[4], sig[3], sig[2])
        ),
        category="data_only", attack_class=1, control_flow_visible=False,
        start_index=0, seed=seed,
    )

    suite.static_vet = dict(context.static_vet_counts)
    return suite


#: Workloads the adversary tooling targets by default: the three hand-written
#: attack targets (auth, pump, ROP victim) -- small, loop-rich, and already
#: the E5 subjects.
DEFAULT_WORKLOADS = ("auth_check", "syringe_pump", "vulnerable_process")
