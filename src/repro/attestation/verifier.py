"""The verifier.

Per the protocol (paper §3), the verifier:

1. performs a one-time offline analysis of the program (CFG + loop
   information),
2. issues challenges containing the program input ``i``, a fresh nonce and
   the attestation scheme the prover must answer with,
3. on receiving the report, checks the signature, the nonce and that the
   report's scheme matches the challenged one (fail closed on mismatch), and
4. checks that the reported path ``P = (A, L)`` corresponds to a valid
   execution of the program's CFG under input ``i``.

Step 4 is implemented in three complementary modes:

* **Golden replay** (the default): the verifier, who owns the program binary
  and chose the input, re-measures the program through the challenged
  scheme's own :meth:`reference_measurement` (through
  :func:`repro.service.database.compute_reference`, the one reference
  computation the service's database misses also run) and compares the
  resulting ``(A, L)``.  This is the strongest check and mirrors how C-FLAT/LO-FAT
  verifiers are evaluated in practice (known-input attestation).
* **Measurement database**: the caller passes the expected ``(A,
  serialized L)`` it looked up (or computed) in the digest-keyed
  :class:`repro.service.MeasurementDatabase`, and the verifier compares
  against it; useful when the verifier wants O(1) verification cost
  online.  The verifier keeps no references of its own, so a reference is
  always bound to the program binary, input, scheme and configuration it
  was computed for; without one the report is rejected as
  ``NO_REFERENCE``.
* **Structural CFG checks**: independent of the input, the metadata ``L`` is
  validated against the static CFG (every reported loop entry must be the
  target of a backward edge; path encodings must be consistent with the loop
  body).  These checks catch malformed metadata and are also applied in the
  two modes above; schemes without loop metadata pass them trivially.

On top of the structural checks, an installed :class:`repro.dataflow.policy.
StaticPolicy` pre-screens reports against statically *proven* facts: a loop
record naming an entry outside the proven loop forest, or an iteration count
outside the proven trip-count interval, is rejected with
``POLICY_VIOLATION`` before any simulation or replay is spent on the report.
The offline analysis itself is shared with every other static consumer
through :func:`repro.dataflow.analyze_program`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.attestation.crypto import fresh_nonce, verify_signature
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.cpu.core import CpuConfig
from repro.dataflow.policy import StaticPolicy
from repro.dataflow.program import ProgramAnalysis, analyze_program
from repro.isa.assembler import Program
from repro.lofat.metadata import LoopMetadata
from repro.schemes import get_scheme
# Re-exported for backward compatibility: these historically lived here.
from repro.schemes.base import VerdictReason, VerificationResult  # noqa: F401

#: Growth bound for a verifier's memoised structural verdicts: benign
#: metadata repeats, attack metadata is mostly distinct, so the cache is
#: cleared wholesale when a flood of distinct L values fills it.
_STRUCTURAL_CACHE_MAX = 4096


class Verifier:
    """The remote verifier V (scheme-agnostic)."""

    def __init__(self, cpu_config: Optional[CpuConfig] = None) -> None:
        self.cpu_config = cpu_config
        #: Per-scheme configurations the verifier replays references with.
        self._scheme_configs: Dict[str, object] = {}
        self._programs: Dict[str, ProgramAnalysis] = {}
        self._verification_keys: Dict[str, bytes] = {}
        self._outstanding_nonces: Dict[bytes, AttestationChallenge] = {}
        self._used_nonces: set = set()
        #: Memoised structural verdicts keyed by (program_id, scheme,
        #: serialized L).  A standing verifier sees the same benign metadata
        #: thousands of times; the CFG checks are pure in the program
        #: analysis, the installed policy, the scheme's counter width and
        #: the metadata bytes, so each distinct L is checked once (the cache
        #: is cleared when a policy is installed, a scheme is reconfigured
        #: or an id is re-registered with a different binary).
        self._structural_cache: Dict[
            Tuple[str, str, bytes], VerificationResult] = {}
        #: Per-program StaticPolicy artifacts enforced before replay/lookup.
        self._policies: Dict[str, StaticPolicy] = {}

    # ------------------------------------------------------- provisioning
    def register_program(self, program_id: str, program: Program) -> ProgramAnalysis:
        """Offline pre-processing: build and store the program's analysis.

        Delegates to the shared :func:`repro.dataflow.analyze_program` entry
        point, which caches one analysis per program digest process-wide, so
        registering the same binary again (under any id, on any Verifier
        instance) is an O(lookup) operation and the dataflow passes are
        computed at most once per binary.  Re-registering an id with a
        different binary drops the memoised structural verdicts and the
        id's installed policy, both of which described the old image.
        """
        knowledge = analyze_program(program)
        previous = self._programs.get(program_id)
        if previous is not None and previous.program.digest != program.digest:
            self._structural_cache.clear()
            self._policies.pop(program_id, None)
        self._programs[program_id] = knowledge
        return knowledge

    def install_policy(
        self, program_id: str, policy: Optional[StaticPolicy] = None
    ) -> StaticPolicy:
        """Enforce a :class:`StaticPolicy` on ``program_id``'s reports.

        With ``policy=None`` the policy is derived from the registered
        program's own analysis (the common case); passing an explicit policy
        supports artifacts shipped from another process via the measurement
        database.  A policy whose ``program_digest`` disagrees with the
        registered binary is rejected — enforcing facts proven about a
        different image would be unsound in both directions.
        """
        knowledge = self._programs.get(program_id)
        if knowledge is None:
            raise KeyError("program %r is not registered" % program_id)
        if policy is None:
            policy = knowledge.policy
        elif policy.program_digest != knowledge.program.digest:
            raise ValueError(
                "policy digest %s does not match program %r (digest %s)"
                % (policy.program_digest, program_id, knowledge.program.digest)
            )
        self._policies[program_id] = policy
        # Memoised structural verdicts were computed under the old policy.
        self._structural_cache.clear()
        return policy

    def installed_policy(self, program_id: str) -> Optional[StaticPolicy]:
        """The policy currently enforced for ``program_id``, if any."""
        return self._policies.get(program_id)

    def register_device_key(self, device_id: str, verification_key: bytes) -> None:
        """Provision the verification key of a prover device."""
        self._verification_keys[device_id] = verification_key

    def clear_device_keys(self) -> None:
        """Drop all provisioned device keys (fail closed until re-provisioned).

        The attestation server bounds its wire-provisioned device table
        with this; reports from a dropped device are rejected with
        ``BAD_SIGNATURE`` until its key is registered again.
        """
        self._verification_keys.clear()

    def configure_scheme(self, scheme: str, config=None) -> None:
        """Provision the configuration used when replaying ``scheme`` references."""
        backend = get_scheme(scheme)
        if config is None or isinstance(config, dict):
            config = backend.configure(config or {})
        self._scheme_configs[scheme] = config
        # Memoised structural verdicts depend on the counter width.
        self._structural_cache.clear()

    def scheme_config(self, scheme: str):
        """The configuration this verifier replays ``scheme`` references with."""
        config = self._scheme_configs.get(scheme)
        if config is None:
            config = get_scheme(scheme).default_config()
            self._scheme_configs[scheme] = config
        return config

    # ----------------------------------------------------------- protocol
    def challenge(
        self, program_id: str, inputs: Sequence[int], scheme: str = "lofat"
    ) -> AttestationChallenge:
        """Create a fresh challenge for ``program_id`` with input ``inputs``.

        ``scheme`` names the attestation backend the prover must answer with
        (resolved against the registry so typos fail here, not at verify
        time).
        """
        if program_id not in self._programs:
            raise KeyError("program %r is not registered" % program_id)
        get_scheme(scheme)  # fail fast on unknown schemes
        nonce = fresh_nonce()
        challenge = AttestationChallenge(
            program_id=program_id, inputs=tuple(inputs), nonce=nonce,
            scheme=scheme,
        )
        self._outstanding_nonces[nonce] = challenge
        return challenge

    def outstanding_challenge(
        self, nonce: bytes
    ) -> Optional[AttestationChallenge]:
        """The challenge an unanswered ``nonce`` belongs to, or None.

        The attestation server uses this to find what a report answers for
        (and thus which reference to warm) without reaching into the nonce
        table; it does not consume the nonce.
        """
        return self._outstanding_nonces.get(nonce)

    def discard_challenge(self, nonce: bytes) -> bool:
        """Withdraw an outstanding challenge (fail closed).

        Connection-oriented verifiers call this when a prover disconnects
        with challenges unanswered: the nonce is moved to the used set, so a
        report answering it later is rejected as ``NONCE_REUSED`` rather
        than lingering verifiable forever.  Returns True when a challenge
        was actually withdrawn.
        """
        challenge = self._outstanding_nonces.pop(nonce, None)
        if challenge is None:
            return False
        self._used_nonces.add(nonce)
        return True

    def verify(
        self,
        report: AttestationReport,
        device_id: str = "prover-0",
        mode: str = "replay",
        expected: Optional[Tuple[bytes, bytes]] = None,
    ) -> VerificationResult:
        """Check an attestation report.

        ``mode`` selects how the measurement itself is validated:
        ``"replay"`` (golden replay), ``"database"`` (compare against the
        caller's ``expected`` ``(A, serialized L)``, typically a
        :class:`repro.service.MeasurementDatabase` entry for the challenged
        program, input, scheme and configuration; None rejects the report
        as ``NO_REFERENCE``) or ``"structural"`` (CFG checks only).
        """
        if report.program_id not in self._programs:
            return VerificationResult(False, VerdictReason.UNKNOWN_PROGRAM)

        challenge = self._outstanding_nonces.get(report.nonce)
        if challenge is None:
            reason = (
                VerdictReason.NONCE_REUSED
                if report.nonce in self._used_nonces
                else VerdictReason.UNKNOWN_NONCE
            )
            return VerificationResult(False, reason)

        # Fail closed on binding disagreements before any measurement
        # comparison: the report must answer for the challenged program (the
        # program id is not covered by the signature, so a compromised
        # prover could otherwise answer a challenge on A with a valid run of
        # B) and under the challenged scheme; a report naming a scheme this
        # verifier does not know is rejected too.
        if report.program_id != challenge.program_id:
            return VerificationResult(
                False, VerdictReason.PROGRAM_MISMATCH,
                "challenged program %r but report answers for %r"
                % (challenge.program_id, report.program_id),
            )
        if report.scheme != challenge.scheme:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "challenged scheme %r but report carries %r"
                % (challenge.scheme, report.scheme),
            )
        try:
            scheme = get_scheme(report.scheme)
        except KeyError:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "report names unknown scheme %r" % report.scheme,
            )

        key = self._verification_keys.get(device_id)
        if key is None or not verify_signature(
            report.payload, report.nonce, report.signature, key
        ):
            return VerificationResult(False, VerdictReason.BAD_SIGNATURE)

        # The nonce is consumed whether or not the path checks pass: replaying
        # the same report later must be rejected as stale.
        del self._outstanding_nonces[report.nonce]
        self._used_nonces.add(report.nonce)

        cache_key = (report.program_id, report.scheme,
                     report.metadata.to_bytes())
        structural = self._structural_cache.get(cache_key)
        if structural is None:
            structural = self._check_metadata_structure(
                report.program_id, report.metadata,
                self.scheme_config(report.scheme))
            if len(self._structural_cache) >= _STRUCTURAL_CACHE_MAX:
                self._structural_cache.clear()
            self._structural_cache[cache_key] = structural
        if not structural.accepted:
            return structural

        if mode == "structural":
            return VerificationResult(True, VerdictReason.ACCEPTED,
                                      "structural checks only")
        if mode == "database":
            if expected is None:
                return VerificationResult(False, VerdictReason.NO_REFERENCE)
            return scheme.verify(report, expected)

        # Golden replay: the same reference computation a database miss
        # runs, uncached.  Imported here because repro.service imports this
        # module.
        from repro.service.database import compute_reference

        return scheme.verify(report, compute_reference(
            self._programs[report.program_id].program, challenge.inputs,
            report.scheme, self.scheme_config(report.scheme),
            cpu_config=self.cpu_config,
        ))

    # -------------------------------------------------------------- internals
    def _check_metadata_structure(
        self, program_id: str, metadata: LoopMetadata, config
    ) -> VerificationResult:
        """Validate the loop metadata against the static CFG and policy.

        Schemes that report no loop metadata (C-FLAT as modelled here,
        static attestation) pass vacuously.  When a :class:`StaticPolicy`
        is installed for the program, each loop record is additionally
        screened against the proven loop-entry set and trip-count
        intervals — rejecting infeasible reports here costs a few set
        lookups instead of a full golden replay.

        A loop's per-path counts must add up to its iteration count, unless
        a path counter sits at the saturation value of ``config``'s
        ``counter_width_bits``: the hardware's counters stop there, so the
        sum may then fall short of (but never exceed) the iteration count.
        """
        width = getattr(config, "counter_width_bits", None)
        saturated = None if width is None else (1 << width) - 1
        knowledge = self._programs[program_id]
        instruction_addresses = knowledge.instruction_addresses
        policy = self._policies.get(program_id)
        try:
            records = list(metadata)
        except ValueError as error:
            # Lazily deserialised metadata surfaces parse failures here;
            # fail closed exactly like any other malformed L.
            return VerificationResult(
                False, VerdictReason.METADATA_CFG_VIOLATION,
                "loop metadata does not deserialise: %s" % error,
            )
        for record in records:
            if policy is not None:
                detail = policy.check_loop_record(record.entry, record.iterations)
                if detail is not None:
                    return VerificationResult(
                        False, VerdictReason.POLICY_VIOLATION, detail
                    )
            if record.entry not in instruction_addresses:
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop entry %#x is not a program address" % record.entry,
                )
            if record.entry not in knowledge.backward_edge_targets:
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop entry %#x is not the target of any backward edge"
                    % record.entry,
                )
            if record.iterations < len(record.paths):
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop at %#x reports fewer iterations than distinct paths"
                    % record.entry,
                )
            iteration_sum = sum(path.iterations for path in record.paths)
            if iteration_sum != record.iterations and not (
                iteration_sum < record.iterations
                and any(path.iterations == saturated for path in record.paths)
            ):
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop at %#x iteration counts are inconsistent" % record.entry,
                )
        return VerificationResult(True, VerdictReason.ACCEPTED)
