"""The prover device.

The prover P holds the program binary ``S``, the attestation hardware/runtime
and the hardware-protected signing key.  On receiving a challenge it executes
``S`` with the verifier-chosen input ``i`` (plus any locally-arriving,
possibly adversarial inputs ``I``), lets the challenge's attestation scheme
capture the execution through a :class:`repro.schemes.MeasurementSession`,
and returns the signed attestation report.

The scheme is picked *per challenge* from the registry
(:func:`repro.schemes.get_scheme`): one device answers LO-FAT, C-FLAT and
static challenges alike, each with its own configuration provisioned via
:meth:`Prover.configure_scheme`.

The :class:`Prover` also exposes hooks for the attack injectors so the
security experiments can model a compromised program *on the device* while
the attestation hardware itself stays trustworthy, exactly matching the
paper's adversary model (full control over data memory, no control over
the measurement state or the signing key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.attestation.crypto import SecureKeyStore, sign_report
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.cpu.core import Cpu, CpuConfig
from repro.isa.assembler import Program
from repro.lofat.config import LoFatConfig
from repro.schemes import get_scheme


@dataclass
class ProverRunInfo:
    """Operational data about the last attested execution (not signed)."""

    instructions: int = 0
    cycles: int = 0
    engine_stats: dict = field(default_factory=dict)
    scheme: str = "lofat"
    exit_code: int = 0
    output: str = ""


class Prover:
    """An embedded device with pluggable attestation backends."""

    def __init__(
        self,
        programs: Dict[str, Program],
        keystore: Optional[SecureKeyStore] = None,
        lofat_config: Optional[LoFatConfig] = None,
        cpu_config: Optional[CpuConfig] = None,
        device_id: str = "prover-0",
    ) -> None:
        self.programs = dict(programs)
        self.keystore = keystore or SecureKeyStore(device_id=device_id)
        self.lofat_config = lofat_config or LoFatConfig()
        self.cpu_config = cpu_config
        self.device_id = device_id
        #: Per-scheme configuration objects; schemes without an entry use
        #: their defaults.  The historical ``lofat_config`` argument seeds
        #: the ``lofat`` entry.
        self._scheme_configs: Dict[str, object] = {"lofat": self.lofat_config}
        #: Adversary-controlled inputs appended after the verifier's inputs
        #: (the ``I`` of the protocol figure).
        self.adversary_inputs: List[int] = []
        #: Attack hooks installed by a compromised environment; they receive
        #: the CPU before execution starts and may register memory-corruption
        #: triggers.  The attestation hardware is unaffected by them.
        self.attack_hooks: List[Callable[[Cpu], None]] = []
        self.last_run: Optional[ProverRunInfo] = None

    # -------------------------------------------------------------- device
    def add_program(self, program_id: str, program: Program) -> None:
        """Provision another attestable program."""
        self.programs[program_id] = program

    def configure_scheme(self, scheme: str, config=None) -> None:
        """Provision the configuration one attestation backend should use.

        ``config`` may be the scheme's configuration object or a raw
        parameter mapping (validated through the scheme's ``configure``).
        """
        backend = get_scheme(scheme)
        if config is None or isinstance(config, dict):
            config = backend.configure(config or {})
        self._scheme_configs[scheme] = config
        if scheme == "lofat":
            self.lofat_config = config

    def scheme_config(self, scheme: str):
        """The configuration this device uses for ``scheme``."""
        config = self._scheme_configs.get(scheme)
        if config is None:
            config = get_scheme(scheme).default_config()
            self._scheme_configs[scheme] = config
        return config

    def install_attack(self, hook: Callable[[Cpu], None]) -> None:
        """Install an adversarial hook (used by the security experiments)."""
        self.attack_hooks.append(hook)

    def clear_attacks(self) -> None:
        """Remove all adversarial hooks."""
        self.attack_hooks = []
        self.adversary_inputs = []

    # ------------------------------------------------------------ protocol
    def attest(self, challenge: AttestationChallenge) -> AttestationReport:
        """Execute the requested program under the challenge's scheme and sign."""
        if challenge.program_id not in self.programs:
            raise KeyError("unknown program id: %r" % challenge.program_id)
        program = self.programs[challenge.program_id]
        scheme = get_scheme(challenge.scheme)
        session = scheme.open_session(program, self.scheme_config(scheme.name))

        inputs = list(challenge.inputs) + list(self.adversary_inputs)
        cpu = Cpu(program, inputs=inputs, config=self.cpu_config)
        cpu.attach_monitor(session.observe)
        for hook in self.attack_hooks:
            hook(cpu)

        result = cpu.run()
        measurement = session.finalize()

        self.last_run = ProverRunInfo(
            instructions=result.instructions,
            cycles=result.cycles,
            engine_stats=measurement.stats,
            scheme=scheme.name,
            exit_code=result.exit_code,
            output=result.output,
        )

        payload = measurement.measurement + measurement.metadata.to_bytes()
        signature = sign_report(payload, challenge.nonce, self.keystore)
        return AttestationReport(
            program_id=challenge.program_id,
            measurement=measurement.measurement,
            metadata=measurement.metadata,
            nonce=challenge.nonce,
            signature=signature,
            exit_code=result.exit_code,
            output=result.output,
            scheme=scheme.name,
        )
