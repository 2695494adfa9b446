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

Steps 3 and 4 run as one fixed sequence, owned by :class:`Verifier`:

* **Admission** -- the program is registered, the nonce is outstanding
  (else ``UNKNOWN_NONCE``/``NONCE_REUSED``), the report answers for the
  challenged program and scheme, and the device signature verifies.  The
  nonce is consumed here, whatever the later steps decide.
* **Screen** -- the metadata ``L`` is validated against the static CFG
  (every reported loop entry must be the target of a backward edge; path
  counts must add up to the iteration count), and an installed
  :class:`repro.dataflow.policy.StaticPolicy` rejects loop records that
  contradict statically *proven* facts with ``POLICY_VIOLATION``.  Schemes
  without loop metadata pass vacuously.  Verdicts are memoised per distinct
  ``L``, and a report that fails here costs no reference.
* **Comparison** -- the report's ``(A, serialized L)`` against a reference
  the caller supplies (a :class:`repro.service.MeasurementDatabase` entry,
  say).  Without one, the verifier runs a golden replay: it owns the
  program binary and chose the input, so it re-measures the program
  through the challenged scheme's own :meth:`reference_measurement`.

:meth:`Verifier.screen` runs the first two steps and :meth:`Verifier.compare`
the third, so a caller can fetch its reference in between (the server awaits
it); :meth:`Verifier.verify` runs all three.  The offline analysis is shared
with every other static consumer through :func:`repro.dataflow.analyze_program`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.attestation.crypto import fresh_nonce, verify_signature
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.cache import DigestCache
from repro.cpu.core import CpuConfig
from repro.dataflow.policy import StaticPolicy
from repro.dataflow.program import ProgramAnalysis, analyze_program
from repro.isa.assembler import Program
from repro.lofat.metadata import LoopMetadata
from repro.schemes import VerdictReason, VerificationResult, get_scheme


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
        #: or an id is re-registered with a different binary).  Benign
        #: metadata repeats and attack metadata is mostly distinct, so a
        #: flood of distinct L values evicts the least recently seen.
        self._structural_cache = DigestCache(budget=4096)
        #: Per-program StaticPolicy artifacts the screen enforces.
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

        The attestation server uses this to tell whether a verdict consumed
        a report's nonce without reaching into the nonce table; it does not
        consume the nonce.
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
        expected: Optional[Tuple[bytes, bytes]] = None,
    ) -> VerificationResult:
        """Check a report: :meth:`screen`, then :meth:`compare` against
        ``expected`` (None: a golden replay)."""
        verdict, challenge = self.screen(report, device_id)
        if not verdict.accepted:
            return verdict
        return self.compare(report, challenge, expected)

    def screen(
        self, report: AttestationReport, device_id: str = "prover-0"
    ) -> Tuple[VerificationResult, Optional[AttestationChallenge]]:
        """Admission, then the structure/policy screen.

        Returns the verdict so far and, when the report passed, the
        challenge it answers.  A validly signed report consumes its nonce,
        whatever the screen decides.
        """
        if report.program_id not in self._programs:
            return VerificationResult(False, VerdictReason.UNKNOWN_PROGRAM), None

        challenge = self._outstanding_nonces.get(report.nonce)
        if challenge is None:
            reason = (
                VerdictReason.NONCE_REUSED
                if report.nonce in self._used_nonces
                else VerdictReason.UNKNOWN_NONCE
            )
            return VerificationResult(False, reason), None

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
            ), None
        if report.scheme != challenge.scheme:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "challenged scheme %r but report carries %r"
                % (challenge.scheme, report.scheme),
            ), None
        try:
            get_scheme(report.scheme)
        except KeyError:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "report names unknown scheme %r" % report.scheme,
            ), None

        key = self._verification_keys.get(device_id)
        if key is None or not verify_signature(
            report.payload, report.nonce, report.signature, key
        ):
            return VerificationResult(False, VerdictReason.BAD_SIGNATURE), None

        # The nonce is consumed whether or not the path checks pass: replaying
        # the same report later must be rejected as stale.
        del self._outstanding_nonces[report.nonce]
        self._used_nonces.add(report.nonce)

        cache_key = (report.program_id, report.scheme,
                     report.metadata.to_bytes())
        structural = self._structural_cache.get_or_build(
            cache_key, lambda: self._check_metadata_structure(
                report.program_id, report.metadata,
                self.scheme_config(report.scheme)))
        return structural, challenge if structural.accepted else None

    def compare(
        self,
        report: AttestationReport,
        challenge: AttestationChallenge,
        expected: Optional[Tuple[bytes, bytes]] = None,
    ) -> VerificationResult:
        """Judge a screened ``report`` against the caller's reference
        ``(A, serialized L)``, or, with None, against a golden replay of
        ``challenge`` (which raises :class:`MetadataLimitError` when the
        reference's ``L`` does not fit its encoding)."""
        scheme = get_scheme(report.scheme)
        if expected is None:
            reference = scheme.reference_measurement(
                self._programs[report.program_id].program,
                list(challenge.inputs),
                config=self.scheme_config(report.scheme),
                cpu_config=self.cpu_config,
            )
            expected = (reference.measurement, reference.metadata.to_bytes())
        return scheme.verify(report, expected)

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
