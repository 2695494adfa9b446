"""The oracle harness: generated scenarios vs. the detection matrix.

For every generated scenario the harness runs the *full* signed attestation
protocol -- challenge, attested execution on the prover, report verification
on the verifier -- under each scheme, and checks the paper's claims:

=================  ========  ========  ========
scenario family     lofat     cflat     static
=================  ========  ========  ========
benign variant      accept    accept    accept
edge bend           reject    reject    accept*
skipped node        reject    reject    accept*
loop over-count     reject    reject    accept*
loop under-count    reject    reject    accept*
data-only           accept*   accept*   accept*
=================  ========  ========  ========

``accept*`` entries are **expected misses**: static attestation cannot see
runtime attacks by design, and control-flow attestation cannot see a
corruption that never perturbs the measured event stream (the C-FLAT
lineage's documented blind spot).  The harness asserts the misses too -- an
expected miss that suddenly gets detected means the generator's
classification and the schemes disagree, which is exactly the kind of drift
the matrix exists to catch.

The expectation for an (attack, scheme) pair is *derived*, not hardcoded:
``reject`` iff the scheme claims runtime detection
(``detects_runtime_attacks``) and the scenario perturbs the measured stream
(``control_flow_visible``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.generator import (
    DEFAULT_WORKLOADS,
    GeneratedSuite,
    GeneratorLimits,
    generate_suite,
)
from repro.adversary.seeds import resolve_seed
from repro.attestation import Prover, Verifier
from repro.attacks.injector import AttackScenario
from repro.schemes import get_scheme

#: Scheme set the oracle checks by default: every registered scheme.
DEFAULT_SCHEMES = ("lofat", "cflat", "static")


def expected_accept(scheme_name: str, scenario: AttackScenario) -> bool:
    """Whether ``scheme_name`` is expected to accept an attacked run."""
    scheme = get_scheme(scheme_name)
    return not (scheme.detects_runtime_attacks and scenario.control_flow_visible)


@dataclass
class MatrixEntry:
    """One (scenario, scheme) protocol run and its verdict."""

    workload: str
    scheme: str
    scenario: str
    family: str                 # "benign:<kind>" or the attack category
    attack_class: Optional[int]
    expected: str               # "accept" | "reject"
    actual: str
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    @property
    def is_expected_miss(self) -> bool:
        """An attack the scheme accepts by design (and did accept)."""
        return (
            self.attack_class is not None
            and self.expected == "accept"
            and self.ok
        )


@dataclass
class OracleReport:
    """Everything one oracle run produced."""

    seed: int
    schemes: List[str]
    entries: List[MatrixEntry] = field(default_factory=list)
    suites: Dict[str, GeneratedSuite] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> List[MatrixEntry]:
        return [entry for entry in self.entries if not entry.ok]

    @property
    def expected_misses(self) -> List[MatrixEntry]:
        return [entry for entry in self.entries if entry.is_expected_miss]

    def scenario_counts(self) -> Dict[str, int]:
        """Generated scenario count per workload (benign + attacks)."""
        return {
            name: suite.scenario_count for name, suite in self.suites.items()
        }

    def matrix(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """(family, scheme) -> (entries that held, total entries)."""
        held: Counter = Counter()
        total: Counter = Counter()
        for entry in self.entries:
            key = (entry.family, entry.scheme)
            total[key] += 1
            if entry.ok:
                held[key] += 1
        return {key: (held[key], total[key]) for key in total}

    def format_matrix(self) -> str:
        """Human-readable matrix table (families x schemes)."""
        cells = self.matrix()
        families = sorted({family for family, _ in cells})
        lines = ["%-24s" % "family" + "".join("%14s" % s for s in self.schemes)]
        for family in families:
            row = "%-24s" % family
            for scheme in self.schemes:
                ok_count, total = cells.get((family, scheme), (0, 0))
                row += "%14s" % ("%d/%d" % (ok_count, total))
            lines.append(row)
        return "\n".join(lines)


def _verify_scenario(
    verifier: Verifier,
    prover: Prover,
    program_id: str,
    inputs: Sequence[int],
    scheme: str,
):
    challenge = verifier.challenge(program_id, inputs, scheme=scheme)
    report = prover.attest(challenge)
    return verifier.verify(report, device_id=prover.device_id)


def run_oracle(
    workloads: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    limits: Optional[GeneratorLimits] = None,
    suites: Optional[Dict[str, GeneratedSuite]] = None,
) -> OracleReport:
    """Generate suites and drive every scenario through every scheme.

    Every report is verified against the verifier's golden replay.
    ``suites`` lets a caller reuse already-generated suites (the tests
    generate once and share); otherwise suites are generated here from
    ``seed``.
    """
    seed = resolve_seed(seed)
    workload_names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    report = OracleReport(seed=seed, schemes=list(schemes))

    for workload_name in workload_names:
        if suites is not None and workload_name in suites:
            suite = suites[workload_name]
        else:
            suite = generate_suite(workload_name, seed=seed, limits=limits)
        report.suites[workload_name] = suite

        from repro.workloads import get_workload

        program = get_workload(workload_name).build()
        prover = Prover({workload_name: program})

        for scheme_name in schemes:
            verifier = Verifier()
            verifier.register_program(workload_name, program)
            verifier.register_device_key(
                prover.device_id, prover.keystore.export_for_verifier()
            )

            for variant in suite.benign:
                verdict = _verify_scenario(
                    verifier, prover, workload_name, variant.inputs,
                    scheme_name,
                )
                report.entries.append(
                    MatrixEntry(
                        workload=workload_name,
                        scheme=scheme_name,
                        scenario=variant.name,
                        family="benign:" + variant.kind,
                        attack_class=None,
                        expected="accept",
                        actual="accept" if verdict.accepted else "reject",
                        reason=verdict.reason.value,
                    )
                )

            for scenario in suite.attacks:
                prover.clear_attacks()
                prover.install_attack(scenario.prover_hook(program))
                try:
                    verdict = _verify_scenario(
                        verifier, prover, workload_name,
                        scenario.challenge_inputs, scheme_name,
                    )
                finally:
                    prover.clear_attacks()
                report.entries.append(
                    MatrixEntry(
                        workload=workload_name,
                        scheme=scheme_name,
                        scenario=scenario.name,
                        family=scenario.category,
                        attack_class=scenario.attack_class,
                        expected=(
                            "accept"
                            if expected_accept(scheme_name, scenario)
                            else "reject"
                        ),
                        actual="accept" if verdict.accepted else "reject",
                        reason=verdict.reason.value,
                    )
                )

    return report
