"""Tests for campaign specification parsing, validation and expansion."""

import pickle

import pytest

from repro.lofat.config import LoFatConfig
from repro.service import (
    CampaignSpec,
    CampaignSpecError,
    ConfigVariant,
    WorkloadSelection,
    all_experiments,
    experiment_campaign,
    full_campaign,
)
from repro.workloads import get_workload


class TestSpecParsing:
    def test_bare_workload_names(self):
        spec = CampaignSpec.from_dict({
            "name": "demo", "workloads": ["crc32", "figure4_loop"],
        })
        assert [s.name for s in spec.workloads] == ["crc32", "figure4_loop"]
        assert spec.verify_mode == "database"
        assert spec.repeats == 1

    def test_workload_with_explicit_inputs(self):
        spec = CampaignSpec.from_dict({
            "name": "demo",
            "workloads": [{"name": "figure4_loop", "inputs": [7]}],
        })
        jobs = spec.expand()
        assert len(jobs) == 1
        assert jobs[0].inputs == (7,)

    def test_workload_with_input_sets(self):
        spec = CampaignSpec.from_dict({
            "name": "demo",
            "workloads": [{"name": "figure4_loop",
                           "input_sets": [[4], [8], None]}],
        })
        jobs = spec.expand()
        assert [job.inputs for job in jobs] == [
            (4,), (8,), tuple(get_workload("figure4_loop").inputs),
        ]

    def test_inputs_and_input_sets_are_mutually_exclusive(self):
        with pytest.raises(CampaignSpecError, match="not both"):
            CampaignSpec.from_dict({
                "name": "demo",
                "workloads": [{"name": "figure4_loop",
                               "inputs": [1], "input_sets": [[2]]}],
            })

    def test_config_variants_parsed(self):
        spec = CampaignSpec.from_dict({
            "name": "demo",
            "workloads": ["crc32"],
            "configs": [{"name": "wide", "lofat": {"max_nested_loops": 5}}],
        })
        job = spec.expand()[0]
        assert job.config_name == "wide"
        assert job.lofat_config().max_nested_loops == 5

    def test_json_roundtrip(self):
        spec = CampaignSpec(
            name="roundtrip",
            workloads=[WorkloadSelection("figure4_loop", input_sets=[[4], [8]])],
            configs=[ConfigVariant("deep", {"max_nested_loops": 4})],
            attacks=["syringe_overdose"],
            repeats=2,
            verify_mode="replay",
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert [j.job_id for j in restored.expand()] == \
               [j.job_id for j in spec.expand()]
        assert restored.verify_mode == "replay"

    def test_unknown_keys_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"name": "x", "workloads": ["crc32"],
                                    "worklods": []})

    def test_engine_key_rejected(self):
        """The execution engine is not a campaign knob: a document that
        still names one is rejected as an unknown key (fails closed)."""
        with pytest.raises(CampaignSpecError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({
                "name": "demo", "workloads": ["crc32"], "engine": "compiled",
            })
        spec = CampaignSpec.from_dict({"name": "demo", "workloads": ["crc32"]})
        assert "engine" not in spec.to_dict()

    def test_invalid_json_rejected(self):
        with pytest.raises(CampaignSpecError, match="invalid campaign JSON"):
            CampaignSpec.from_json("{nope")


class TestSchemeSweep:
    def test_schemes_default_to_lofat(self):
        spec = CampaignSpec.from_dict({"name": "demo", "workloads": ["crc32"]})
        assert spec.schemes == ["lofat"]
        assert all(job.scheme == "lofat" for job in spec.expand())

    def test_scheme_sweep_multiplies_jobs(self):
        spec = CampaignSpec(name="demo",
                            workloads=[WorkloadSelection("crc32")],
                            schemes=["lofat", "cflat", "static"])
        jobs = spec.expand()
        assert len(jobs) == 3
        assert {job.scheme for job in jobs} == {"lofat", "cflat", "static"}
        assert len({job.job_id for job in jobs}) == 3

    def test_unknown_scheme_rejected(self):
        spec = CampaignSpec(name="demo", workloads=[WorkloadSelection("crc32")],
                            schemes=["quantum"])
        with pytest.raises(CampaignSpecError, match="unknown scheme"):
            spec.validate()

    def test_duplicate_scheme_rejected(self):
        spec = CampaignSpec(name="demo", workloads=[WorkloadSelection("crc32")],
                            schemes=["lofat", "lofat"])
        with pytest.raises(CampaignSpecError, match="duplicate scheme"):
            spec.validate()

    def test_empty_schemes_rejected(self):
        spec = CampaignSpec(name="demo", workloads=[WorkloadSelection("crc32")],
                            schemes=[])
        with pytest.raises(CampaignSpecError, match="no attestation schemes"):
            spec.validate()

    def test_per_scheme_config_params(self):
        spec = CampaignSpec.from_dict({
            "name": "demo",
            "workloads": ["crc32"],
            "schemes": ["lofat", "cflat"],
            "configs": [{"name": "tuned",
                         "lofat": {"max_nested_loops": 5},
                         "params": {"cflat": {"world_switch_cycles": 0}}}],
        })
        jobs = {job.scheme: job for job in spec.expand()}
        assert jobs["lofat"].lofat_config().max_nested_loops == 5
        assert jobs["cflat"].scheme_config().world_switch_cycles == 0
        assert jobs["cflat"].lofat_params == ()

    def test_invalid_per_scheme_params_rejected(self):
        spec = CampaignSpec(
            name="demo",
            workloads=[WorkloadSelection("crc32")],
            schemes=["static"],
            configs=[ConfigVariant("bad", scheme_params={"static": {"x": 1}})],
        )
        with pytest.raises(CampaignSpecError, match="not valid for scheme"):
            spec.validate()

    def test_scheme_spec_json_roundtrip(self):
        spec = CampaignSpec(
            name="matrix",
            workloads=[WorkloadSelection("figure4_loop")],
            schemes=["lofat", "cflat", "static"],
            attacks=["auth_flag_flip"],
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored.schemes == spec.schemes
        assert [j.job_id for j in restored.expand()] == \
               [j.job_id for j in spec.expand()]

    def test_expects_detection_is_scheme_aware(self):
        spec = CampaignSpec(name="demo", attacks=["auth_flag_flip"],
                            include_benign=False,
                            schemes=["lofat", "cflat", "static"])
        expectations = {job.scheme: job.expects_detection
                        for job in spec.expand()}
        assert expectations == {"lofat": True, "cflat": True, "static": False}


class TestSpecValidation:
    def test_unknown_workload(self):
        spec = CampaignSpec(name="x", workloads=[WorkloadSelection("nope")])
        with pytest.raises(CampaignSpecError, match="unknown workload"):
            spec.validate()

    def test_unknown_attack(self):
        spec = CampaignSpec(name="x", attacks=["nope"])
        with pytest.raises(CampaignSpecError, match="unknown attack"):
            spec.validate()

    def test_invalid_lofat_params(self):
        spec = CampaignSpec(
            name="x",
            workloads=[WorkloadSelection("crc32")],
            configs=[ConfigVariant("bad", {"counter_width_bits": 0})],
        )
        with pytest.raises(CampaignSpecError, match="not a valid LoFatConfig"):
            spec.validate()

    def test_unknown_lofat_field(self):
        spec = CampaignSpec(
            name="x",
            workloads=[WorkloadSelection("crc32")],
            configs=[ConfigVariant("bad", {"no_such_knob": 1})],
        )
        with pytest.raises(CampaignSpecError):
            spec.validate()

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignSpecError, match="no workloads and no attacks"):
            CampaignSpec(name="x").validate()

    def test_duplicate_config_names_rejected(self):
        spec = CampaignSpec(
            name="x",
            workloads=[WorkloadSelection("crc32")],
            configs=[ConfigVariant("same"), ConfigVariant("same")],
        )
        with pytest.raises(CampaignSpecError, match="duplicate config"):
            spec.validate()

    def test_bad_verify_mode(self):
        spec = CampaignSpec(name="x", workloads=[WorkloadSelection("crc32")],
                            verify_mode="psychic")
        with pytest.raises(CampaignSpecError, match="verify_mode"):
            spec.validate()


class TestExpansion:
    def test_cross_product_counts(self):
        spec = CampaignSpec(
            name="x",
            workloads=[WorkloadSelection("figure4_loop", input_sets=[[4], [8]]),
                       WorkloadSelection("crc32")],
            configs=[ConfigVariant("a"), ConfigVariant("b", {"max_nested_loops": 4})],
            attacks=["syringe_overdose"],
            repeats=2,
        )
        jobs = spec.expand()
        # (2 + 1 input sets) benign x 2 configs x 2 repeats
        # + 1 attack x 2 configs x 2 repeats
        assert len(jobs) == 3 * 2 * 2 + 1 * 2 * 2
        assert len({job.job_id for job in jobs}) == len(jobs)

    def test_attack_jobs_use_scenario_workload_and_inputs(self):
        from repro.attacks import get_attack
        spec = CampaignSpec(name="x", attacks=["syringe_overdose"],
                            include_benign=False)
        (job,) = spec.expand()
        scenario = get_attack("syringe_overdose")
        assert job.workload == scenario.workload_name
        assert job.inputs == tuple(scenario.challenge_inputs)
        assert job.expects_detection

    def test_benign_jobs_do_not_expect_detection(self):
        spec = CampaignSpec(name="x", workloads=[WorkloadSelection("crc32")])
        (job,) = spec.expand()
        assert not job.expects_detection

    def test_jobs_are_picklable_and_hashable(self):
        spec = CampaignSpec(
            name="x",
            workloads=[WorkloadSelection("crc32")],
            configs=[ConfigVariant("deep", {"max_nested_loops": 4})],
        )
        (job,) = spec.expand()
        assert pickle.loads(pickle.dumps(job)) == job
        assert isinstance(job.lofat_config(), LoFatConfig)
        {job}  # hashable


class TestPresets:
    @pytest.mark.parametrize("experiment", all_experiments())
    def test_preset_expands(self, experiment):
        spec = experiment_campaign(experiment)
        jobs = spec.expand()
        assert jobs, "preset %s expanded to no jobs" % experiment
        assert len({job.job_id for job in jobs}) == len(jobs)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            experiment_campaign("e99")

    def test_full_campaign_covers_workloads_and_attacks(self):
        from repro.attacks import ATTACK_REGISTRY
        from repro.workloads import WORKLOAD_REGISTRY
        spec = full_campaign()
        jobs = spec.expand()
        benign_workloads = {j.workload for j in jobs if j.attack is None}
        assert benign_workloads == set(WORKLOAD_REGISTRY)
        assert {j.attack for j in jobs if j.attack} == set(ATTACK_REGISTRY)
        # Multiple swept configuration points ride along.
        assert len({j.config_name for j in jobs}) > 1
