"""The adversarial oracle harness: generated scenarios vs. the detection matrix.

This is experiment E5 at generator scale: instead of the ~5 hand-written
attacks, the CFG-derived generator synthesizes benign variants and attacks
by class, and every generated scenario is driven through the *full* signed
attestation protocol under every scheme.  The matrix the paper claims:

* every benign variant verifies under every scheme;
* every control-flow-visible attack (edge bends, skipped nodes, loop
  over/under-counts) is rejected by lofat and cflat;
* static attestation accepts every runtime attack (expected miss, asserted);
* data-only corruption is accepted by *all* schemes (the C-FLAT lineage's
  documented blind spot -- expected miss, asserted).
"""

import pytest

from repro.adversary import GeneratorLimits, derive_rng, generate_suite, resolve_seed
from repro.adversary.generator import DEFAULT_WORKLOADS
from repro.adversary.oracle import expected_accept, run_oracle
from repro.adversary.seeds import DEFAULT_SEED, ENV_SEED
from repro.attacks import (
    ATTACK_REGISTRY,
    get_attack,
    register_scenario,
    unregister_attack,
)
from repro.attestation import Prover, Verifier
from repro.cli import main as cli_main
from repro.analysis.campaign_report import (
    format_campaign_failures,
    format_campaign_summary,
    format_campaign_table,
)
from repro.service.campaign import CampaignSpec, WorkloadSelection
from repro.service.presets import adversary_campaign
from repro.service.runner import CampaignRunner
from repro.workloads import get_workload

from adversary_suites import adversary_suites

#: One fixed seed for the whole module so the expensive artefacts (suites,
#: oracle run) are generated once and shared.
SEED = 20170618


@pytest.fixture(scope="module")
def suites():
    return adversary_suites(SEED)


@pytest.fixture(scope="module")
def oracle_report(suites):
    return run_oracle(DEFAULT_WORKLOADS, seed=SEED, suites=suites)


@pytest.fixture
def clean_registry():
    """Roll back any attack registrations a test performs."""
    before = set(ATTACK_REGISTRY)
    yield
    for name in set(ATTACK_REGISTRY) - before:
        unregister_attack(name)


class TestSeedPlumbing:
    def test_explicit_seed_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        assert resolve_seed(7) == 7

    def test_env_seed_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        assert resolve_seed() == 123

    def test_env_seed_accepts_hex(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "0x10")
        assert resolve_seed() == 16

    def test_default_seed(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        assert resolve_seed() == DEFAULT_SEED

    def test_invalid_env_seed_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "not-a-number")
        with pytest.raises(ValueError):
            resolve_seed()

    def test_derived_streams_are_deterministic_and_independent(self):
        a1 = derive_rng(1, "generator", "x").random()
        a2 = derive_rng(1, "generator", "x").random()
        b = derive_rng(1, "generator", "y").random()
        c = derive_rng(2, "generator", "x").random()
        assert a1 == a2
        assert a1 != b
        assert a1 != c


def _suite_fingerprint(suite):
    rows = [(v.name, v.kind, v.inputs) for v in suite.benign]
    for scenario in suite.attacks:
        corruptions = scenario.build_corruptions(
            get_workload(scenario.workload_name).build()
        )
        params = tuple(
            (type(c).__name__, c.trigger_pc, getattr(c, "target", None),
             getattr(c, "address", None), getattr(c, "value", None),
             c.occurrence)
            for c in corruptions
        )
        rows.append((scenario.name, scenario.category, params))
    return rows


class TestGenerator:
    def test_deterministic_in_seed(self):
        first = generate_suite("auth_check", seed=77)
        second = generate_suite("auth_check", seed=77)
        assert _suite_fingerprint(first) == _suite_fingerprint(second)

    def test_different_seeds_differ(self):
        first = generate_suite("auth_check", seed=77)
        second = generate_suite("auth_check", seed=78)
        assert _suite_fingerprint(first) != _suite_fingerprint(second)

    def test_scenario_floor_per_workload(self, suites):
        for name, suite in suites.items():
            assert suite.scenario_count >= 25, (
                "%s generated only %d scenarios" % (name, suite.scenario_count)
            )

    def test_all_attack_classes_covered(self, suites):
        classes = {
            scenario.attack_class
            for suite in suites.values()
            for scenario in suite.attacks
        }
        assert classes == {1, 2, 3}

    def test_loop_rich_workload_gets_loop_tampering(self, suites):
        counts = suites["syringe_pump"].counts()
        assert counts.get("loop_overcount", 0) >= 1
        assert counts.get("loop_undercount", 0) >= 1

    def test_benign_variants_include_default_inputs(self, suites):
        for name, suite in suites.items():
            default = suite.benign[0]
            assert default.kind == "default"
            assert list(default.inputs) == get_workload(name).inputs

    def test_data_only_scenarios_are_invisible_class_one(self, suites):
        for suite in suites.values():
            data_only = [s for s in suite.attacks if s.category == "data_only"]
            assert data_only, "no data-only scenarios for %s" % suite.workload_name
            for scenario in data_only:
                assert scenario.attack_class == 1
                assert not scenario.control_flow_visible

    def test_control_flow_families_are_visible(self, suites):
        for suite in suites.values():
            for scenario in suite.attacks:
                if scenario.category != "data_only":
                    assert scenario.control_flow_visible

    def test_generated_scenarios_register_and_resolve(self, suites, clean_registry):
        scenario = suites["auth_check"].attacks[0]
        name = register_scenario(scenario)
        assert get_attack(name) is scenario
        with pytest.raises(ValueError):
            register_scenario(scenario)
        unregister_attack(name)
        assert name not in ATTACK_REGISTRY

    def test_limits_scale_down(self):
        limits = GeneratorLimits().scaled(0.25)
        suite = generate_suite("vulnerable_process", seed=5, limits=limits)
        assert suite.scenario_count < 25  # genuinely smaller quotas
        assert suite.attacks


class TestGetAttackErrors:
    def test_unknown_attack_lists_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_attack("definitely_not_registered")
        message = str(excinfo.value)
        assert "definitely_not_registered" in message
        for name in sorted(ATTACK_REGISTRY):
            assert name in message


class TestOracleMatrix:
    def test_full_matrix_holds(self, oracle_report):
        assert oracle_report.ok, "\n".join(
            "%s/%s %s: expected %s, got %s (%s)"
            % (e.workload, e.scheme, e.scenario, e.expected, e.actual, e.reason)
            for e in oracle_report.failures
        )

    def test_every_scheme_saw_every_scenario(self, oracle_report, suites):
        per_scheme = {
            scheme: sum(
                1 for e in oracle_report.entries if e.scheme == scheme
            )
            for scheme in oracle_report.schemes
        }
        total = sum(suite.scenario_count for suite in suites.values())
        assert set(oracle_report.schemes) == {"lofat", "cflat", "static"}
        for scheme, count in per_scheme.items():
            assert count == total

    def test_benign_variants_all_verify(self, oracle_report):
        benign = [
            e for e in oracle_report.entries if e.family.startswith("benign:")
        ]
        assert benign
        assert all(e.actual == "accept" for e in benign)

    def test_claimed_catch_attacks_all_rejected(self, oracle_report):
        claimed = [
            e for e in oracle_report.entries
            if e.attack_class is not None and e.expected == "reject"
        ]
        assert claimed
        assert all(e.actual == "reject" for e in claimed)
        assert {e.scheme for e in claimed} == {"lofat", "cflat"}

    def test_expected_misses_are_asserted_as_misses(self, oracle_report):
        misses = oracle_report.expected_misses
        assert misses
        # Static accepts every attack; lofat/cflat accept only data-only.
        for entry in misses:
            assert entry.actual == "accept"
            if entry.scheme in ("lofat", "cflat"):
                assert entry.family == "data_only"
        static_families = {
            e.family for e in misses if e.scheme == "static"
        }
        assert "edge_bend" in static_families

    def test_expected_accept_derivation(self, suites):
        edge_bend = next(
            s for s in suites["auth_check"].attacks if s.category == "edge_bend"
        )
        data_only = next(
            s for s in suites["auth_check"].attacks if s.category == "data_only"
        )
        assert not expected_accept("lofat", edge_bend)
        assert not expected_accept("cflat", edge_bend)
        assert expected_accept("static", edge_bend)
        assert expected_accept("lofat", data_only)
        assert expected_accept("cflat", data_only)
        assert expected_accept("static", data_only)

    def test_matrix_formatting_mentions_all_families(self, oracle_report):
        table = oracle_report.format_matrix()
        for family in ("edge_bend", "data_only", "benign:default"):
            assert family in table


class TestExpectedMissSemantics:
    """Satellite: data-only attacks verify as benign and are labelled so."""

    def test_data_only_attack_verifies_under_runtime_schemes(self, suites):
        scenario = next(
            s for s in suites["syringe_pump"].attacks
            if s.category == "data_only"
        )
        workload = get_workload(scenario.workload_name)
        program = workload.build()
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key(
            "prover-0", prover.keystore.export_for_verifier()
        )
        prover.install_attack(scenario.prover_hook(program))
        try:
            for scheme in ("lofat", "cflat"):
                challenge = verifier.challenge(
                    workload.name, scenario.challenge_inputs, scheme=scheme
                )
                verdict = verifier.verify(prover.attest(challenge))
                assert verdict.accepted, (
                    "data-only attack rejected under %s: %s"
                    % (scheme, verdict.reason)
                )
        finally:
            prover.clear_attacks()

    def test_campaign_labels_expected_miss_not_detected(
        self, suites, clean_registry
    ):
        data_only = next(
            s for s in suites["auth_check"].attacks if s.category == "data_only"
        )
        edge_bend = next(
            s for s in suites["auth_check"].attacks if s.category == "edge_bend"
        )
        register_scenario(data_only)
        register_scenario(edge_bend)
        spec = CampaignSpec(
            name="expected_miss_check",
            workloads=[WorkloadSelection(name="auth_check")],
            schemes=["lofat", "static"],
            attacks=[data_only.name, edge_bend.name],
        )
        result = CampaignRunner().run(spec)
        assert result.ok
        outcomes = {
            (r.job.scheme, r.job.attack): r.outcome for r in result.results
        }
        assert outcomes[("lofat", data_only.name)] == "expected_miss"
        assert outcomes[("static", data_only.name)] == "expected_miss"
        assert outcomes[("lofat", edge_bend.name)] == "detected"
        assert outcomes[("static", edge_bend.name)] == "expected_miss"
        assert outcomes[("lofat", None)] == "benign_pass"

        summary = result.summary()
        assert summary["expected_misses"] == 3
        assert "expected misses" in format_campaign_summary(result)
        table = format_campaign_table(result)
        assert "outcome" in table
        assert "expected_miss" in table
        assert format_campaign_failures(result) == "no unexpected job outcomes"

    def test_handwritten_noncontrol_data_attack_still_detected(self):
        # The paper's point (and E5's): the *path-steering* class-1 attack is
        # exactly what control-flow attestation catches -- only corruption
        # that never perturbs the measured stream is the documented miss.
        scenario = get_attack("auth_flag_flip")
        assert scenario.attack_class == 1
        assert scenario.control_flow_visible


class TestAdversaryCampaignPreset:
    def test_preset_registers_and_expands(self, clean_registry):
        limits = GeneratorLimits().scaled(0.2)
        spec = adversary_campaign(
            seed=3, workloads=["auth_check"], limits=limits
        )
        assert spec.name == "adversary_s3"
        assert spec.schemes == ["lofat", "cflat", "static"]
        assert spec.attacks
        for name in spec.attacks:
            assert name in ATTACK_REGISTRY
            assert name.startswith("adv_auth_check_")
        jobs = spec.expand()
        data_only_jobs = [
            job for job in jobs
            if job.attack and "data_only" in job.attack
        ]
        assert data_only_jobs
        assert not any(job.expects_detection for job in data_only_jobs)
        static_jobs = [
            job for job in jobs if job.attack and job.scheme == "static"
        ]
        assert static_jobs
        assert not any(job.expects_detection for job in static_jobs)

    def test_preset_campaign_runs_clean(self, clean_registry):
        limits = GeneratorLimits().scaled(0.2)
        spec = adversary_campaign(
            seed=3, workloads=["vulnerable_process"], limits=limits
        )
        result = CampaignRunner().run(spec)
        assert result.ok
        outcomes = {r.outcome for r in result.results}
        assert "detected" in outcomes
        assert "expected_miss" in outcomes
        assert "missed" not in outcomes
        assert "unexpected_reject" not in outcomes


class TestAdversaryCli:
    def test_list_mode(self, capsys):
        assert cli_main(
            ["adversary", "--seed", "5", "--workloads", "vulnerable_process",
             "--list"]
        ) == 0
        out = capsys.readouterr().out
        assert "adversary seed: 5" in out
        assert "adv_vulnerable_process_" in out

    def test_oracle_and_fuzz_smoke(self, capsys, tmp_path):
        failures_file = tmp_path / "failures.json"
        code = cli_main(
            ["adversary", "--seed", "5", "--workloads", "vulnerable_process",
             "--fuzz-examples", "100", "--failures-file", str(failures_file)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 failures" in out
        assert failures_file.exists()

    def test_attack_list_flag(self, capsys):
        assert cli_main(["attack", "--list"]) == 0
        out = capsys.readouterr().out
        assert "auth_flag_flip" in out
        assert "return_address_overwrite" in out

    def test_campaign_seed_flag_parses(self, clean_registry, capsys):
        code = cli_main(
            ["campaign", "--experiment", "adversary", "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "adversary_s11" in out
        assert "expected misses" in out

    def test_seed_env_reaches_campaign(self, clean_registry, monkeypatch,
                                       capsys):
        monkeypatch.setenv(ENV_SEED, "12")
        code = cli_main(["campaign", "--experiment", "adversary"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "adversary_s12" in out
