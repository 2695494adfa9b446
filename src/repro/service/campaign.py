"""Declarative attestation campaign specifications.

A *campaign* is the verifier-side unit of bulk work: a cross product of
schemes x workloads x configurations x attack injections (plus repeats) that
the :class:`repro.service.runner.CampaignRunner` executes end to end.  The
spec is declarative and JSON-serialisable so campaigns can be stored next to
the benchmarks, passed to the ``repro campaign`` CLI, or generated by the
experiment presets in :mod:`repro.service.presets`.

Since the :mod:`repro.schemes` redesign a single spec can sweep attestation
backends too: ``schemes=["lofat", "cflat", "static"]`` attests every selected
workload under all three, which is what produces the paper's
LO-FAT-vs-C-FLAT comparison as one run (experiment E11).

:meth:`CampaignSpec.expand` flattens the spec into a list of
:class:`CampaignJob` -- small, picklable, self-contained descriptions of one
prover execution -- which is what makes the fan-out across worker processes
possible: a job carries only registry names, input values and configuration
parameters, never live objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.attacks import ATTACK_REGISTRY, get_attack
from repro.lofat.config import LoFatConfig
from repro.schemes import get_scheme, scheme_names
from repro.workloads import WORKLOAD_REGISTRY, get_workload


class CampaignSpecError(ValueError):
    """Raised when a campaign specification is malformed."""


@lru_cache(maxsize=256)
def scheme_config_and_digest(
    scheme: str, params: Tuple[Tuple[str, object], ...]
) -> Tuple[object, str]:
    """Instantiate (and canonically digest) a scheme configuration, memoised.

    Campaign jobs carry their configuration as a hashable (field, value)
    tuple; every job of a sweep point shares the same tuple, so the
    validated configuration object and its digest are built once per
    process instead of once per job -- the config digest (a canonical JSON
    + SHA3 pass) shows up in campaign profiles otherwise.  The returned
    configuration object is shared: scheme configurations are read-only by
    contract (sessions and cost models never mutate them).
    """
    backend = get_scheme(scheme)
    config = backend.configure(dict(params))
    return config, backend.config_digest(config)


@dataclass(frozen=True)
class CampaignJob:
    """One prover execution of a campaign (picklable, hashable).

    Attributes:
        job_id: unique identifier within the campaign.
        workload: registry name of the attested workload.
        inputs: the verifier-chosen input vector ``i``.
        config_name: label of the configuration variant.
        lofat_params: :class:`LoFatConfig` overrides as a sorted tuple of
            (field, value) pairs; only populated for ``scheme == "lofat"``
            (kept flat so the job hashes and pickles).
        attack: attack scenario name, or None for a benign execution.
        repeat: repeat index (0-based) when the spec requests repeats.
        scheme: registry name of the attestation backend.
        scheme_params: the scheme's configuration overrides as a sorted
            tuple of (field, value) pairs (equals ``lofat_params`` for the
            ``lofat`` scheme).
    """

    job_id: str
    workload: str
    inputs: Tuple[int, ...]
    config_name: str = "default"
    lofat_params: Tuple[Tuple[str, object], ...] = ()
    attack: Optional[str] = None
    repeat: int = 0
    scheme: str = "lofat"
    scheme_params: Tuple[Tuple[str, object], ...] = ()

    def lofat_config(self) -> LoFatConfig:
        """Instantiate the LO-FAT configuration of this job."""
        return LoFatConfig(**dict(self.lofat_params))

    def scheme_config(self):
        """This job's scheme configuration (memoised per sweep point)."""
        return scheme_config_and_digest(self.scheme, self.scheme_params)[0]

    def scheme_config_digest(self) -> str:
        """Canonical digest of this job's scheme configuration (memoised)."""
        return scheme_config_and_digest(self.scheme, self.scheme_params)[1]

    @property
    def expects_detection(self) -> bool:
        """True when the verifier is expected to reject this execution.

        Scheme- and attack-aware: static attestation cannot observe
        run-time attacks (the paper's motivating gap), and no scheme here
        can observe an attack that never perturbs the measured control-flow
        event stream (``AttackScenario.control_flow_visible`` False -- the
        C-FLAT lineage's documented data-only blind spot).  Both cases are
        *expected* accepts, labelled ``expected_miss`` in reports.
        """
        if self.attack is None:
            return False
        if not get_scheme(self.scheme).detects_runtime_attacks:
            return False
        return get_attack(self.attack).control_flow_visible


@dataclass
class ConfigVariant:
    """A named configuration point of the campaign sweep.

    ``lofat_params`` configures the ``lofat`` scheme (kept as a dedicated
    field for backward compatibility with pre-scheme specs);
    ``scheme_params`` maps any other scheme name to its parameter overrides.
    Schemes without an entry run at their defaults.
    """

    name: str = "default"
    lofat_params: Dict[str, object] = field(default_factory=dict)
    scheme_params: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def params_for(self, scheme: str) -> Dict[str, object]:
        """The parameter overrides this variant applies to ``scheme``."""
        if scheme == "lofat":
            return dict(self.lofat_params)
        return dict(self.scheme_params.get(scheme, {}))

    def validate(self, schemes: Sequence[str] = ("lofat",)) -> None:
        for scheme in schemes:
            try:
                get_scheme(scheme).configure(self.params_for(scheme))
            except (KeyError, TypeError, ValueError) as error:
                if scheme == "lofat":
                    raise CampaignSpecError(
                        "config variant %r is not a valid LoFatConfig: %s"
                        % (self.name, error)
                    ) from None
                raise CampaignSpecError(
                    "config variant %r is not valid for scheme %r: %s"
                    % (self.name, scheme, error)
                ) from None
        for scheme in self.scheme_params:
            if scheme not in scheme_names():
                raise CampaignSpecError(
                    "config variant %r names unknown scheme %r"
                    % (self.name, scheme)
                )


@dataclass
class WorkloadSelection:
    """One workload plus the input vectors to attest it under.

    ``input_sets`` entries of None select the workload's registry default
    inputs; explicit lists override them.
    """

    name: str
    input_sets: List[Optional[List[int]]] = field(default_factory=lambda: [None])

    def resolved_input_sets(self) -> List[Tuple[int, ...]]:
        workload = get_workload(self.name)
        resolved = []
        for entry in self.input_sets:
            values = workload.inputs if entry is None else entry
            resolved.append(tuple(int(v) for v in values))
        return resolved


@dataclass
class CampaignSpec:
    """A declarative campaign: schemes x workloads x configs x attacks x repeats."""

    name: str
    description: str = ""
    workloads: List[WorkloadSelection] = field(default_factory=list)
    configs: List[ConfigVariant] = field(default_factory=lambda: [ConfigVariant()])
    attacks: List[str] = field(default_factory=list)
    include_benign: bool = True
    repeats: int = 1
    #: How the verifier validates measurements: "database" (measurement
    #: database backed, O(lookup) on repeats), "replay" (golden replay every
    #: time) or "structural" (CFG checks only).
    verify_mode: str = "database"
    #: Attestation schemes to sweep; every job population is repeated once
    #: per scheme.
    schemes: List[str] = field(default_factory=lambda: ["lofat"])

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check every referenced name and configuration; raise on problems."""
        if not self.name:
            raise CampaignSpecError("campaign name must be non-empty")
        if self.repeats < 1:
            raise CampaignSpecError("repeats must be >= 1")
        if self.verify_mode not in ("database", "replay", "structural"):
            raise CampaignSpecError(
                "unknown verify_mode %r (expected database/replay/structural)"
                % self.verify_mode
            )
        if not self.schemes:
            raise CampaignSpecError("campaign selects no attestation schemes")
        seen_schemes = set()
        for scheme in self.schemes:
            if scheme in seen_schemes:
                raise CampaignSpecError("duplicate scheme %r" % scheme)
            seen_schemes.add(scheme)
            try:
                get_scheme(scheme)
            except KeyError:
                raise CampaignSpecError(
                    "unknown scheme %r (known: %s)"
                    % (scheme, ", ".join(scheme_names()))
                ) from None
        if not self.workloads and not self.attacks:
            raise CampaignSpecError("campaign selects no workloads and no attacks")
        if not self.configs:
            raise CampaignSpecError("campaign needs at least one config variant")
        seen_configs = set()
        for variant in self.configs:
            if variant.name in seen_configs:
                raise CampaignSpecError("duplicate config variant %r" % variant.name)
            seen_configs.add(variant.name)
            variant.validate(self.schemes)
        for selection in self.workloads:
            if selection.name not in WORKLOAD_REGISTRY:
                raise CampaignSpecError(
                    "unknown workload %r (known: %s)"
                    % (selection.name, ", ".join(sorted(WORKLOAD_REGISTRY)))
                )
            if not selection.input_sets:
                raise CampaignSpecError(
                    "workload %r selects no input sets" % selection.name
                )
        for attack in self.attacks:
            if attack not in ATTACK_REGISTRY:
                raise CampaignSpecError(
                    "unknown attack %r (known: %s)"
                    % (attack, ", ".join(sorted(ATTACK_REGISTRY)))
                )

    # ------------------------------------------------------------- expansion
    def expand(self) -> List[CampaignJob]:
        """Flatten the spec into the ordered list of jobs to execute."""
        self.validate()
        jobs: List[CampaignJob] = []
        for scheme in self.schemes:
            for variant in self.configs:
                params = tuple(sorted(variant.params_for(scheme).items()))
                lofat_params = params if scheme == "lofat" else ()
                if self.include_benign:
                    for selection in self.workloads:
                        for index, inputs in enumerate(selection.resolved_input_sets()):
                            for repeat in range(self.repeats):
                                jobs.append(CampaignJob(
                                    job_id="%s/%s/%s/benign/i%d/r%d" % (
                                        selection.name, scheme, variant.name,
                                        index, repeat),
                                    workload=selection.name,
                                    inputs=inputs,
                                    config_name=variant.name,
                                    lofat_params=lofat_params,
                                    repeat=repeat,
                                    scheme=scheme,
                                    scheme_params=params,
                                ))
                for attack_name in self.attacks:
                    scenario = get_attack(attack_name)
                    inputs = tuple(int(v) for v in scenario.challenge_inputs)
                    for repeat in range(self.repeats):
                        jobs.append(CampaignJob(
                            job_id="%s/%s/%s/%s/r%d" % (
                                scenario.workload_name, scheme, variant.name,
                                attack_name, repeat),
                            workload=scenario.workload_name,
                            inputs=inputs,
                            config_name=variant.name,
                            lofat_params=lofat_params,
                            attack=attack_name,
                            repeat=repeat,
                            scheme=scheme,
                            scheme_params=params,
                        ))
        return jobs

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "schemes": list(self.schemes),
            "workloads": [
                {"name": s.name, "input_sets": s.input_sets}
                for s in self.workloads
            ],
            "configs": [
                {
                    "name": v.name,
                    "lofat": dict(v.lofat_params),
                    "params": {s: dict(p) for s, p in v.scheme_params.items()},
                }
                for v in self.configs
            ],
            "attacks": list(self.attacks),
            "include_benign": self.include_benign,
            "repeats": self.repeats,
            "verify_mode": self.verify_mode,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, document: Mapping) -> "CampaignSpec":
        """Parse a spec from a plain dictionary (inverse of :meth:`to_dict`).

        Workload entries may be bare names (``"crc32"``) or dictionaries with
        ``name`` and either ``inputs`` (one vector) or ``input_sets`` (many).
        Config entries may likewise be bare names (meaning no overrides) or
        dictionaries with ``name``, ``lofat`` parameters and per-scheme
        ``params``.  ``schemes`` defaults to ``["lofat"]``.
        """
        if not isinstance(document, Mapping):
            raise CampaignSpecError("campaign spec must be a mapping")
        unknown = set(document) - {
            "name", "description", "schemes", "workloads", "configs",
            "attacks", "include_benign", "repeats", "verify_mode",
        }
        if unknown:
            raise CampaignSpecError(
                "unknown campaign spec keys: %s" % ", ".join(sorted(unknown))
            )

        workloads = []
        for entry in document.get("workloads", []):
            if isinstance(entry, str):
                workloads.append(WorkloadSelection(name=entry))
            elif isinstance(entry, Mapping):
                if "name" not in entry:
                    raise CampaignSpecError("workload entry missing 'name'")
                if "inputs" in entry and "input_sets" in entry:
                    raise CampaignSpecError(
                        "workload %r: give either 'inputs' or 'input_sets', not both"
                        % entry["name"]
                    )
                if "inputs" in entry:
                    input_sets: List[Optional[List[int]]] = [list(entry["inputs"])]
                elif "input_sets" in entry:
                    input_sets = [
                        None if vector is None else list(vector)
                        for vector in entry["input_sets"]
                    ]
                else:
                    input_sets = [None]
                workloads.append(WorkloadSelection(
                    name=str(entry["name"]), input_sets=input_sets,
                ))
            else:
                raise CampaignSpecError(
                    "workload entries must be names or mappings, got %r" % (entry,)
                )

        configs = []
        for entry in document.get("configs", [{"name": "default"}]):
            if isinstance(entry, str):
                configs.append(ConfigVariant(name=entry))
            elif isinstance(entry, Mapping):
                configs.append(ConfigVariant(
                    name=str(entry.get("name", "default")),
                    lofat_params=dict(entry.get("lofat", {})),
                    scheme_params={
                        str(s): dict(p)
                        for s, p in dict(entry.get("params", {})).items()
                    },
                ))
            else:
                raise CampaignSpecError(
                    "config entries must be names or mappings, got %r" % (entry,)
                )

        spec = cls(
            name=str(document.get("name", "")),
            description=str(document.get("description", "")),
            workloads=workloads,
            configs=configs,
            attacks=[str(a) for a in document.get("attacks", [])],
            include_benign=bool(document.get("include_benign", True)),
            repeats=int(document.get("repeats", 1)),
            verify_mode=str(document.get("verify_mode", "database")),
            schemes=[str(s) for s in document.get("schemes", ["lofat"])],
        )
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, payload: str) -> "CampaignSpec":
        try:
            document = json.loads(payload)
        except json.JSONDecodeError as error:
            raise CampaignSpecError("invalid campaign JSON: %s" % error) from None
        return cls.from_dict(document)
