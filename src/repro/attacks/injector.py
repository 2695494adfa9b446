"""Generic memory-corruption injection machinery.

An attack is modelled as a write to data memory triggered at a precise point
of the execution (a program counter value, optionally after a number of
occurrences).  This mirrors how a memory-corruption exploit behaves: the
vulnerable code itself performs the out-of-bounds write while executing, so
the corruption happens *between* legitimate instructions and is subject to
the platform's memory protection (code memory cannot be written).

:class:`AttackScenario` couples a corruption with the workload it targets and
with the paper's attack-class taxonomy so the security experiment (E5) can
iterate over all scenarios uniformly.

Two corruption primitives exist: :class:`MemoryCorruption` (a triggered data
write -- the exploit's *payload*) and :class:`ControlFlowRedirect` (a
triggered program-counter rewrite -- the exploit's *effect*, modelling what a
successful code-pointer overwrite does without needing a pointer spilled at a
known address).  The adversarial scenario generator
(:mod:`repro.adversary.generator`) synthesizes scenarios from both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cpu.core import Cpu
from repro.isa.assembler import Program

#: Resolves the target address of the corruption given the live CPU state
#: (e.g. "the saved return address slot relative to the current stack pointer").
AddressResolver = Callable[[Cpu], int]
#: Resolves the value to write given the live CPU state.
ValueResolver = Callable[[Cpu], int]


@dataclass
class MemoryCorruption:
    """A single triggered write into data memory.

    Attributes:
        trigger_pc: program counter at which the corruption fires (just before
            the instruction at this address executes).
        address: where to write -- an absolute address or a resolver callable.
        value: what to write -- an absolute value or a resolver callable.
        size: access size in bytes.
        occurrence: fire on the N-th time the trigger PC is reached (1-based).
        repeat: if True, fire on every occurrence from ``occurrence`` onwards.
    """

    trigger_pc: int
    address: object
    value: object
    size: int = 4
    occurrence: int = 1
    repeat: bool = False
    #: Number of times the corruption actually fired (filled during the run).
    fired: int = 0
    _seen: int = 0

    def install(self, cpu: Cpu) -> None:
        """Attach the corruption to ``cpu`` as a hook at ``trigger_pc``."""
        cpu.add_pc_hook(self.trigger_pc, self._hook)

    def _hook(self, cpu: Cpu) -> None:
        self._seen += 1
        if self._seen < self.occurrence:
            return
        if not self.repeat and self._seen > self.occurrence:
            return
        address = self.address(cpu) if callable(self.address) else int(self.address)
        value = self.value(cpu) if callable(self.value) else int(self.value)
        cpu.memory.store(address, value, self.size)
        self.fired += 1


@dataclass
class ControlFlowRedirect:
    """A single triggered program-counter rewrite.

    Models the *effect* of a successful code-pointer corruption: just before
    the instruction at ``trigger_pc`` would execute, the program counter is
    rewritten to ``target`` instead.  The trigger instruction itself never
    retires, so the benign control-flow event it would have produced is
    replaced by whatever executes at the target -- exactly the shape of a
    ROP/JOP pivot or a skipped-node shortcut.

    Attributes:
        trigger_pc: program counter at which the redirect fires (just before
            the instruction at this address executes).
        target: where execution continues -- an absolute address or a
            resolver callable receiving the live CPU.
        occurrence: fire on the N-th time the trigger PC is reached (1-based).
        repeat: if True, fire on every occurrence from ``occurrence`` onwards.
    """

    trigger_pc: int
    target: object
    occurrence: int = 1
    repeat: bool = False
    #: Number of times the redirect actually fired (filled during the run).
    fired: int = 0
    _seen: int = 0

    def install(self, cpu: Cpu) -> None:
        """Attach the redirect to ``cpu`` as a hook at ``trigger_pc``."""
        cpu.add_pc_hook(self.trigger_pc, self._hook)

    def _hook(self, cpu: Cpu) -> None:
        self._seen += 1
        if self._seen < self.occurrence:
            return
        if not self.repeat and self._seen > self.occurrence:
            return
        target = self.target(cpu) if callable(self.target) else int(self.target)
        cpu.pc = target
        self.fired += 1


@dataclass
class AttackScenario:
    """A named attack against a specific workload.

    Attributes:
        name: unique scenario identifier.
        description: what the attack does and why it matters.
        attack_class: 1 (non-control data), 2 (loop counter) or 3 (code pointer),
            matching Figure 1 of the paper.
        workload_name: the workload the attack targets.
        build_corruptions: given the assembled program, produce the list of
            memory corruptions to install.
        challenge_inputs: the verifier-chosen inputs ``i`` used when
            demonstrating the attack (they select an execution in which the
            corruption makes a difference).
        malicious_inputs: extra adversary-supplied inputs appended after the
            verifier-chosen ones (the ``I`` of the protocol), when the attack
            is input-driven rather than corruption-driven.
        changes_output: whether a successful attack changes the program output
            (used by tests to confirm the attack actually had an effect).
        control_flow_visible: whether the attack perturbs the control-flow
            event stream the attestation schemes measure.  Runtime schemes
            (lofat, cflat) are expected to detect visible attacks and to
            *miss* invisible ones (pure data-only corruption); the campaign
            layer labels the latter ``expected_miss``.
        category: free-form generator family tag ("manual" for hand-written
            scenarios; the adversary generator uses "edge_bend",
            "skipped_node", "loop_overcount", "loop_undercount", "data_only").
    """

    name: str
    description: str
    attack_class: int
    workload_name: str
    build_corruptions: Callable[[Program], List[MemoryCorruption]]
    challenge_inputs: List[int] = field(default_factory=list)
    malicious_inputs: List[int] = field(default_factory=list)
    changes_output: bool = True
    control_flow_visible: bool = True
    category: str = "manual"

    def install_on(self, cpu: Cpu, program: Program) -> List[MemoryCorruption]:
        """Install all corruptions of the scenario on a CPU."""
        corruptions = self.build_corruptions(program)
        for corruption in corruptions:
            corruption.install(cpu)
        return corruptions

    def prover_hook(self, program: Program) -> Callable[[Cpu], None]:
        """A hook suitable for :meth:`repro.attestation.prover.Prover.install_attack`."""
        def hook(cpu: Cpu) -> None:
            self.install_on(cpu, program)
        return hook


#: Registered attack scenarios, keyed by name.
ATTACK_REGISTRY: Dict[str, Callable[[], AttackScenario]] = {}


def register_attack(factory: Callable[[], AttackScenario]) -> Callable[[], AttackScenario]:
    """Register an attack scenario factory (usable as a decorator)."""
    scenario = factory()
    ATTACK_REGISTRY[scenario.name] = factory
    return factory


def get_attack(name: str) -> AttackScenario:
    """Instantiate the attack scenario registered under ``name``."""
    try:
        return ATTACK_REGISTRY[name]()
    except KeyError:
        raise KeyError(
            "unknown attack %r (known: %s)" % (name, ", ".join(sorted(ATTACK_REGISTRY)))
        ) from None


def all_attacks() -> List[AttackScenario]:
    """Instantiate every registered attack scenario (sorted by name)."""
    return [ATTACK_REGISTRY[name]() for name in sorted(ATTACK_REGISTRY)]


def register_scenario(scenario: AttackScenario, replace: bool = False) -> str:
    """Register a concrete (e.g. generated) scenario instance by name.

    Unlike :func:`register_attack`, which registers a zero-argument factory,
    this stores an already-built scenario (the generator produces scenario
    objects whose parameters were chosen at generation time).  Returns the
    scenario name so callers can collect what they registered.
    """
    if not replace and scenario.name in ATTACK_REGISTRY:
        raise ValueError("attack %r is already registered" % scenario.name)
    ATTACK_REGISTRY[scenario.name] = lambda: scenario
    return scenario.name


def unregister_attack(name: str) -> None:
    """Remove a registered attack scenario (no-op if absent)."""
    ATTACK_REGISTRY.pop(name, None)
