import json

import pytest

from launchport.errors import RuleParseError
from launchport.repair import apply_action, default_repair_table, load_fingerprints
from launchport.simcluster import load_fault_rules, submit
from launchport.synthesis import render_for_spec
from launchport.templates import default_templates
from launchport.types import CATEGORIES, Framework, Strategy

from conftest import make_spec


def _run(profiles, templates, rules, cluster, framework, strategy, **overrides):
    profile = profiles.resolve(cluster)
    spec = make_spec(profile, framework, strategy, **overrides)
    template = next(
        t for t in templates
        if t.cluster == profile.id and t.framework is framework and t.strategy is strategy
    )
    rendered = render_for_spec(spec, template, profile)
    return submit(rendered, spec, profile, rules), rendered, spec, profile, template


class TestSubmit:
    def test_clean_run_transcript(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "perlmutter", Framework.PYTORCH, Strategy.DDP)
        assert result.exit_code == 0
        assert result.fault_fired is None
        assert result.stdout.endswith("allreduce ok\nallgather ok\n")
        assert "rank 0/8 ok" in result.stdout and "rank 7/8 ok" in result.stdout

    def test_topology_recorded(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "perlmutter", Framework.PYTORCH, Strategy.DDP)
        nodes, per_node, world, ranks = result.parsed_topology
        assert (nodes, per_node, world) == (2, 4, 8)
        assert ranks == tuple(range(8))

    def test_deltaai_multi_node_without_exports_fails(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "deltaai", Framework.PYTORCH, Strategy.DDP)
        assert result.exit_code != 0
        assert result.fault_fired == "ENV_NOT_PROPAGATED"
        assert "ModuleNotFoundError" in result.stderr

    def test_vista_stage3_apex_failure(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "vista", Framework.DEEPSPEED, Strategy.ZERO3)
        assert result.exit_code != 0
        assert result.fault_fired == "APEX_GH200_VISTA"
        assert "Apex" in result.stderr
        assert fault_rules.get("APEX_GH200_VISTA").unresolvable

    def test_first_match_in_document_order(self, profiles, templates, fault_rules):
        # deltaai stage-3 matches both the Apex rule and the env rule; the
        # Apex rule comes first in the bundle.
        result, *_ = _run(profiles, templates, fault_rules,
                          "deltaai", Framework.DEEPSPEED, Strategy.ZERO3)
        assert result.fault_fired == "APEX_GH200_DELTAAI"

    def test_determinism(self, profiles, templates, fault_rules):
        results = [
            _run(profiles, templates, fault_rules, "deltaai", Framework.PYTORCH, Strategy.DDP)[0]
            for _ in range(10)
        ]
        assert all(r == results[0] for r in results)

    def test_inconsistent_script_topology_fails(self, profiles, templates, fault_rules):
        result, rendered, spec, profile, template = _run(
            profiles, templates, fault_rules, "perlmutter", Framework.PYTORCH, Strategy.DDP,
        )
        # Same script submitted against a different requested topology.
        smaller = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1, gpus_per_node=4)
        mismatch = submit(rendered, smaller, profile, fault_rules)
        assert mismatch.exit_code != 0
        assert "topology" in mismatch.stderr

    def test_empty_rule_set_always_succeeds_topologically(self, profiles, templates):
        empty = load_fault_rules("[]")
        for cluster in ("deltaai", "vista", "stampede3"):
            result, *_ = _run(profiles, templates, empty,
                              cluster, Framework.PYTORCH, Strategy.DDP)
            assert result.exit_code == 0

    def test_topology_soundness_over_bundle(self, profiles, templates):
        """Fault-free submissions agree with the requested topology and
        produce a duplicate-free rank set for every verified template."""
        empty = load_fault_rules("[]")
        for template in templates:
            if not template.verified:
                continue
            profile = profiles.resolve(template.cluster)
            spec = make_spec(profile, template.framework, template.strategy,
                             launcher=template.launcher)
            rendered = render_for_spec(spec, template, profile)
            result = submit(rendered, spec, profile, empty)
            assert result.exit_code == 0, (template.id, result.stderr)
            nodes, per_node, world, ranks = result.parsed_topology
            assert world == spec.world_size
            assert ranks == tuple(range(world))
            assert len(set(ranks)) == world


class TestRuleLoading:
    def test_bundle_has_enough_rules(self, fault_rules):
        assert len(fault_rules) >= 10

    def test_exactly_three_unresolvable(self, fault_rules):
        assert sorted(fault_rules.unresolvable_ids()) == [
            "APEX_GH200_DELTAAI", "APEX_GH200_VISTA", "PBS_ACCELERATE_CONFLICT",
        ]

    def test_bundle_covers_documented_failure_catalog(self, fault_rules):
        ids = {r.id for r in fault_rules}
        assert {
            "ENV_NOT_PROPAGATED", "DRIVER_LIB_MISMATCH", "SYCL_COMPILER_CONFLICT",
            "PBS_ACCELERATE_CONFLICT", "GCC_CUDA_MISMATCH", "MISSING_DATASET_ARG",
            "HF_AUTH_MISSING", "BAD_CONFIG_PATH", "XPU_SCRIPT_UNSUPPORTED",
        } <= ids

    def test_unknown_cluster_id_rejected(self):
        rule = {
            "id": "X", "cluster": "frontier", "category": "env",
            "trigger": {}, "stderr": "boom",
        }
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps([rule]))
        assert "frontier" in str(exc.value)

    @pytest.mark.parametrize("category", CATEGORIES + ("unknown", "Env"))
    def test_rules_and_fingerprints_share_one_category_vocabulary(self, category):
        rule = {"id": "X", "cluster": "*", "category": category, "trigger": {}, "stderr": "b"}
        fingerprint = {"id": "X", "category": category, "pattern": {"literal": "b"}}
        for load, record in ((load_fault_rules, rule), (load_fingerprints, fingerprint)):
            if category in CATEGORIES:
                assert len(load(json.dumps([record]))) == 1
            else:
                with pytest.raises(RuleParseError) as exc:
                    load(json.dumps([record]))
                assert str(exc.value) == f"unknown category '{category}' (rule index 0)"

    def test_malformed_rule_reports_index(self):
        rules = [
            {"id": "OK", "cluster": "*", "category": "env", "trigger": {}, "stderr": "x"},
            {"id": "BAD", "cluster": "*", "category": "env", "stderr": "y"},
        ]
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps(rules))
        assert exc.value.index == 1

    def test_unknown_trigger_atom_rejected(self):
        rule = {
            "id": "X", "cluster": "*", "category": "env",
            "trigger": {"phase_of_moon": "full"}, "stderr": "boom",
        }
        with pytest.raises(RuleParseError):
            load_fault_rules(json.dumps([rule]))

    def test_unknown_repair_kind_rejected(self):
        rule = {
            "id": "X", "cluster": "*", "category": "env",
            "trigger": {}, "stderr": "boom", "clearable_by": ["reinstall_os"],
        }
        with pytest.raises(RuleParseError):
            load_fault_rules(json.dumps([rule]))

    def test_profile_known_faults_reference_bundled_rules(self, profiles, fault_rules):
        rule_ids = {r.id for r in fault_rules}
        for profile in profiles:
            for fault_id in profile.known_faults:
                assert fault_id in rule_ids, (profile.id, fault_id)


# Scenarios that make each clearable bundled rule fire (see test_repair for
# the loop-level view).
CLEARABLE_SCENARIOS = {
    "ENV_NOT_PROPAGATED": ("deltaai", Framework.PYTORCH, Strategy.DDP, {}),
    "DRIVER_LIB_MISMATCH": ("stampede3", Framework.PYTORCH, Strategy.DDP, {}),
    "SYCL_COMPILER_CONFLICT": ("aurora", Framework.PYTORCH, Strategy.DDP,
                               {"train_args": "--use-ipex"}),
    "GCC_CUDA_MISMATCH": ("perlmutter", Framework.DEEPSPEED, Strategy.ZERO3, {}),
    "XPU_SCRIPT_UNSUPPORTED": ("stampede3", Framework.PYTORCH, Strategy.DDP,
                               {"nodes": 1, "entry_script": "official_examples/run_clm.py"}),
    "MISSING_DATASET_ARG": ("lonestar6", Framework.PYTORCH, Strategy.DDP,
                            {"entry_script": "run_glue.py"}),
    "HF_AUTH_MISSING": ("anvil", Framework.PYTORCH, Strategy.DDP,
                        {"entry_script": "train_llama.py",
                         "train_args": "--model meta-llama/Llama-3.1-8B"}),
    "BAD_CONFIG_PATH": ("delta", Framework.DEEPSPEED, Strategy.ZERO3,
                        {"deepspeed_config": "/nonexistent/ds_config.json"}),
}


class TestFaultRepairClosure:
    @pytest.mark.parametrize("rule_id", sorted(CLEARABLE_SCENARIOS))
    def test_each_clearable_rule_fires_and_clears(self, profiles, fault_rules, rule_id):
        templates = default_templates()
        repair_table = default_repair_table()
        cluster, framework, strategy, overrides = CLEARABLE_SCENARIOS[rule_id]
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, framework, strategy, **overrides)
        template = next(
            t for t in templates
            if t.cluster == profile.id and t.framework is framework and t.strategy is strategy
        )
        rendered = render_for_spec(spec, template, profile)
        first = submit(rendered, spec, profile, fault_rules)
        assert first.fault_fired == rule_id

        rule = fault_rules.get(rule_id)
        fingerprint_id = rule_id if rule_id in repair_table.fingerprint_ids() else None
        assert fingerprint_id is not None
        actions = repair_table.actions_for(fingerprint_id)
        assert actions, rule_id
        # Any action of a clearable kind disarms the rule it repairs.
        for action in actions:
            assert action.kind in rule.clearable_by
            patched, patched_spec, _ = apply_action(
                action, rendered, spec, template, profile
            )
            after = submit(patched, patched_spec, profile, fault_rules)
            assert after.fault_fired != rule_id, (rule_id, action.kind)
