import json

import pytest
from hypothesis import example, given, strategies as st

from launchport.clusters import default_profiles
from launchport.errors import RuleParseError
from launchport.repair import apply_action, default_repair_table, diagnose, load_fingerprints
from launchport.simcluster import (
    _STDERR_FIELDS, ExecutionResult, FaultRule, FaultRuleSet, _instantiate_stderr, _passed,
    _stderr_plan, load_fault_rules, submit,
)
from launchport.synthesis import RenderedScript, render_for_spec
from launchport.templates import PLACEHOLDER_RE, default_templates
from launchport.types import CATEGORIES, Framework, Launcher, Strategy

from conftest import UNRESOLVABLE_CELLS, make_spec, matrix_specs


def _run(profiles, templates, rules, cluster, framework, strategy, **overrides):
    profile = profiles.resolve(cluster)
    spec = make_spec(profile, framework, strategy, **overrides)
    template = next(
        t for t in templates
        if t.cluster == profile.id and t.framework is framework and t.strategy is strategy
    )
    rendered = render_for_spec(spec, template, profile)
    return submit(rendered, spec, profile, rules), rendered, spec, profile, template


def _rule(rules, rule_id):
    return next(rule for rule in rules if rule.id == rule_id)


@st.composite
def _topologies(draw):
    """(nodes, per_node) with a world of -2 to 4096, zero and negative counts included."""
    world = draw(st.integers(-2, 4096))
    per_node = draw(st.sampled_from([d for d in range(1, 9) if world % d == 0]))
    return world // per_node, per_node


def _transcript(world):
    """The success transcript: one line per rank, then the two collectives."""
    return "".join(f"rank {i}/{world} ok\n" for i in range(world)) + "allreduce ok\nallgather ok\n"


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
        assert result.exit_code == 0
        assert result.stdout == _transcript(8)

    def test_deltaai_multi_node_without_exports_fails(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "deltaai", Framework.PYTORCH, Strategy.DDP)
        assert result.exit_code != 0
        assert result.fault_fired == "ENV_NOT_PROPAGATED"
        assert "ModuleNotFoundError" in result.stderr

    def test_a_comment_line_holds_no_needle(self, profiles, templates, fault_rules):
        # The script runs no comment line, so it neither exports PYTHONPATH nor
        # loads a module; a module command is read.
        for cluster, edited, fired in (
                ("deltaai", "# TODO export PYTHONPATH on every node\n{}", "ENV_NOT_PROPAGATED"),
                ("deltaai", "  #export LD_LIBRARY_PATH=/x\n{}", "ENV_NOT_PROPAGATED"),
                ("deltaai", "{}  # TODO export PYTHONPATH", "ENV_NOT_PROPAGATED"),
                ("stampede3", "# module load x\n{}", "DRIVER_LIB_MISMATCH"),
                ("stampede3", "module load x # not a comment line\n{}", None)):
            _, rendered, spec, profile, _ = _run(profiles, templates, fault_rules,
                                                  cluster, Framework.PYTORCH, Strategy.DDP)
            script = RenderedScript(edited.format(rendered.text), rendered.template_id)
            assert submit(script, spec, profile, fault_rules).fault_fired == fired, edited

    def test_vista_stage3_apex_failure(self, profiles, templates, fault_rules):
        result, *_ = _run(profiles, templates, fault_rules,
                          "vista", Framework.DEEPSPEED, Strategy.ZERO3)
        assert result.exit_code != 0
        assert result.fault_fired == "APEX_GH200_VISTA"
        assert "Apex" in result.stderr
        assert _rule(fault_rules, "APEX_GH200_VISTA").unresolvable

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

    def test_script_world_unequal_to_its_own_counts_fails(self, profiles):
        # A user template may state fixed counts that disagree with each other.
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2, gpus_per_node=4)
        text = "mpiexec -n 6 -ppn 4 python -u train.py"  # 6 ranks do not fill 4 per node
        result = submit(RenderedScript(text, "fixed"), spec, profile, load_fault_rules("[]"))
        assert (result.exit_code, result.stdout, result.fault_fired) == (1, "", None)
        assert result.stderr == (
            "launch topology error: world size 6 does not match 2 nodes x 4 processes per node")

    @pytest.mark.parametrize("nodes, per_node", [(1, 1), (1, 2), (2, 4), (512, 8)])
    def test_success_transcript_is_one_line_per_rank(self, profiles, nodes, per_node):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         nodes=nodes, gpus_per_node=per_node)
        result = submit(RenderedScript("python train.py", "plain"), spec, profile,
                        FaultRuleSet([]))
        world = nodes * per_node
        lines = [f"rank {i}/{world} ok" for i in range(world)] + ["allreduce ok", "allgather ok"]
        assert result == ExecutionResult(0, "\n".join(lines) + "\n", "", None)

    @given(topology=_topologies())
    @example(topology=(0, 4))
    @example(topology=(-1, 2))
    @example(topology=(1, 1))
    def test_success_transcript_for_every_world(self, profiles, topology):
        # make_spec builds the JobSpec by hand, so no count is checked.
        nodes, per_node = topology
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         nodes=nodes, gpus_per_node=per_node)
        result = submit(RenderedScript("python train.py", "plain"), spec, profile,
                        FaultRuleSet([]))
        world = nodes * per_node
        lines = [f"rank {i}/{world} ok" for i in range(world)] + ["allreduce ok", "allgather ok"]
        assert (result.exit_code, result.stdout) == (0, "\n".join(lines) + "\n")

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
            assert result.stdout == _transcript(spec.world_size), template.id


def _plain_pass(profiles, world):
    """A fault-free submission of a script that states no counts, for a
    hand-built job of ``world`` ranks on one node."""
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1, gpus_per_node=world)
    return submit(RenderedScript("python train.py", "plain"), spec, profile, FaultRuleSet([]))


class TestSharedPass:
    """A passing result is shared, read-only, per world size; failures are not."""

    @pytest.mark.parametrize("world", [-1, 0, 1, 64, 128, 129])
    def test_passing_stdout_is_the_transcript(self, profiles, world):
        result = _plain_pass(profiles, world)
        assert result == ExecutionResult(0, _transcript(world), "", None)

    @given(world=st.integers(-3, 2048))
    def test_passing_stdout_is_the_transcript_for_any_world(self, profiles, world):
        assert _plain_pass(profiles, world).stdout == _transcript(world)

    def test_two_passes_with_one_world_share_one_result(self, profiles, templates, fault_rules):
        first, rendered, spec, profile, _ = _run(profiles, templates, fault_rules,
                                                 "perlmutter", Framework.PYTORCH, Strategy.DDP)
        again = submit(rendered, spec, profile, fault_rules)
        # Another cluster, script and job, with the same world of 8 ranks.
        assert first.exit_code == 0 and first is again is _plain_pass(profiles, 8)
        assert _plain_pass(profiles, 4) is not first

    def test_failures_are_new_results_outside_the_memo(self, profiles, templates, fault_rules):
        fault, rendered, spec, profile, _ = _run(profiles, templates, fault_rules,
                                                 "deltaai", Framework.PYTORCH, Strategy.DDP)
        smaller = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1, gpus_per_node=4)
        mismatch = submit(rendered, smaller, profile, load_fault_rules("[]"))
        before = _passed.cache_info()
        fault_again = submit(rendered, spec, profile, fault_rules)
        mismatch_again = submit(rendered, smaller, profile, load_fault_rules("[]"))
        assert fault.fault_fired == "ENV_NOT_PROPAGATED" and "topology" in mismatch.stderr
        assert fault_again == fault and fault_again is not fault
        assert mismatch_again == mismatch and mismatch_again is not mismatch
        after = _passed.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize)

    def test_the_memo_keeps_128_worlds(self):
        assert _passed.cache_info().maxsize == 128


class TestRuleLoading:
    def test_bundle_has_enough_rules(self, fault_rules):
        assert len(fault_rules) >= 10

    def test_exactly_three_unresolvable(self, fault_rules):
        assert sorted(fault_rules.unresolvable_ids()) == [
            "APEX_GH200_DELTAAI", "APEX_GH200_VISTA", "PBS_ACCELERATE_CONFLICT",
        ]

    def test_the_unresolvable_grid_cells_follow_from_the_rules(self):
        # Acceptance criterion 2 expects these cells unresolved; conftest derives them.
        assert UNRESOLVABLE_CELLS == {("vista", "zero3"), ("aurora", "acc-ddp"),
                                      ("deltaai", "zero3")}

    def test_bundle_covers_documented_failure_catalog(self, fault_rules):
        ids = {r.id for r in fault_rules}
        assert {
            "ENV_NOT_PROPAGATED", "DRIVER_LIB_MISMATCH", "SYCL_COMPILER_CONFLICT",
            "PBS_ACCELERATE_CONFLICT", "GCC_CUDA_MISMATCH", "MISSING_DATASET_ARG",
            "HF_AUTH_MISSING", "BAD_CONFIG_PATH", "XPU_SCRIPT_UNSUPPORTED",
        } <= ids

    def test_unknown_cluster_id_rejected(self):
        rule = {
            "id": "X", "cluster": "frontier",
            "trigger": {}, "stderr": "boom",
        }
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps([rule]))
        assert "frontier" in str(exc.value)

    @pytest.mark.parametrize("category", CATEGORIES + ("unknown", "Env"))
    def test_rules_and_fingerprints_share_one_category_vocabulary(self, category):
        # Rules name no category (a rule that states one is refused as an unknown
        # field), so the fingerprints hold the only copy of the vocabulary.
        fingerprint = {"id": "X", "category": category, "pattern": {"literal": "b"}}
        if category in CATEGORIES:
            fingerprints = load_fingerprints(json.dumps([fingerprint]))
            failed = ExecutionResult(exit_code=1, stdout="", stderr="b")
            diagnosis = diagnose(failed, default_profiles().resolve("delta"), fingerprints)
            assert (diagnosis.fingerprint_id, diagnosis.category) == ("X", category)
        else:
            with pytest.raises(RuleParseError) as exc:
                load_fingerprints(json.dumps([fingerprint]))
            assert str(exc.value) == (
                "fingerprint: 'category' must be one of env, framework, user (rule index 0)")

    def test_malformed_rule_reports_index(self):
        rules = [
            {"id": "OK", "cluster": "*", "trigger": {}, "stderr": "x"},
            {"id": "BAD", "cluster": "*", "stderr": "y"},
        ]
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps(rules))
        assert exc.value.index == 1

    def test_unknown_trigger_atom_rejected(self):
        rule = {
            "id": "X", "cluster": "*", "trigger": {"phase_of_moon": "full"}, "stderr": "boom",
        }
        with pytest.raises(RuleParseError):
            load_fault_rules(json.dumps([rule]))

    @pytest.mark.parametrize("field", ["cluster", "cluster_is", "strategy_is", "launcher_is"])
    def test_empty_name_list_rejected(self, field):
        # A rule whose names admit nothing could never fire.
        ok = {"id": "OK", "cluster": "*", "trigger": {}, "stderr": "x"}
        rule = {"id": "X", "cluster": "*", "trigger": {}, "stderr": "b"}
        if field == "cluster":
            rule["cluster"] = []
            message = "rule: 'cluster' must be a string or a non-empty list of strings"
        else:
            rule["trigger"] = {field: []}
            message = f"trigger: '{field}' must be a string or a non-empty list of strings"
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps([ok, rule]))
        assert exc.value.index == 1
        assert str(exc.value) == f"{message} (rule index 1)"

    @pytest.mark.parametrize("trigger, message", [
        ({"strategy_is": "zero-3"}, "unknown strategy 'zero-3' in strategy_is"),
        ({"strategy_is": ["ddp", "DDP"]}, "unknown strategy 'DDP' in strategy_is"),
        ({"launcher_is": ["torchrunn"]}, "unknown launcher 'torchrunn' in launcher_is"),
        ({"strategy_is": "fsdp", "launcher_is": ["srun", "none"]},
         "unknown launcher 'none' in launcher_is"),
    ])
    def test_unknown_trigger_value_rejected(self, trigger, message):
        # A name that is no strategy or launcher value could never match a job.
        ok = {"id": "OK", "cluster": "*", "stderr": "x",
              "trigger": {"strategy_is": [s.value for s in Strategy],
                          "launcher_is": [launcher.value for launcher in Launcher]}}
        rule = {"id": "X", "cluster": "*", "trigger": trigger, "stderr": "b"}
        assert len(load_fault_rules(json.dumps([ok]))) == 1
        with pytest.raises(RuleParseError) as exc:
            load_fault_rules(json.dumps([ok, rule]))
        assert exc.value.index == 1
        assert str(exc.value) == f"{message} (rule index 1)"

    def test_unknown_repair_kind_rejected(self):
        for kind in ("reinstall_os", ["export_env"]):
            rule = {
                "id": "X", "cluster": "*", "trigger": {}, "stderr": "boom",
                "clearable_by": [kind],
            }
            with pytest.raises(RuleParseError, match="unknown repair kind"):
                load_fault_rules(json.dumps([rule]))


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

        rule = _rule(fault_rules, rule_id)
        actions = repair_table.get(rule_id)
        assert actions, rule_id
        # Any action of a clearable kind disarms the rule it repairs.
        for action in actions:
            assert action.kind in rule.clearable_by
            patched, patched_spec, _ = apply_action(
                action, rendered, spec, template, profile
            )
            after = submit(patched, patched_spec, profile, fault_rules)
            assert after.fault_fired != rule_id, (rule_id, action.kind)


def _reference_stderr(template, spec, profile):
    """Stderr as it was instantiated when every field's value sat in one dict."""
    values = {
        "cluster": profile.id,
        "nodes": str(spec.nodes),
        "gpus_per_node": str(spec.gpus_per_node),
        "world_size": str(spec.world_size),
        "entry_script": spec.entry_script,
        "gpu_type": profile.gpu_type,
        "scheduler": profile.scheduler.value,
        "master_port": str(spec.master_port),
    }
    return PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


class TestStderrFields:
    def test_every_bundled_rule_on_every_grid_cell(self, profiles, fault_rules):
        for _, spec, profile in matrix_specs(profiles):
            for rule in fault_rules:
                template = rule.stderr_template
                plan = _stderr_plan(template, 0)
                assert _instantiate_stderr(plan, spec, profile) == _reference_stderr(
                    template, spec, profile
                ), (rule.id, spec.cluster)

    @given(
        profile=st.sampled_from(list(default_profiles())),
        fields=st.lists(st.sampled_from(sorted(_STDERR_FIELDS))
                        | st.text(st.characters(blacklist_characters="{}"), max_size=3)),
        nodes=st.integers(1, 64),
        gpus=st.integers(1, 8),
        port=st.integers(1024, 65535),
        entry=st.text(min_size=1, max_size=8),
    )
    def test_drawn_templates_and_jobs(self, profile, fields, nodes, gpus, port, entry):
        # Free text holds no braces, so the only placeholders are the drawn fields.
        template = "".join(f"{{{f}}}" if f in _STDERR_FIELDS else f for f in fields)
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=nodes,
                         gpus_per_node=gpus, master_port=port, entry_script=entry)
        assert _instantiate_stderr(_stderr_plan(template, 0), spec, profile) == _reference_stderr(
            template, spec, profile
        )

    @given(
        profile=st.sampled_from(list(default_profiles())),
        stderr=st.lists(st.sampled_from(
            [f"{{{name}}}" for name in _STDERR_FIELDS]
            + ["{bogus}", "${cluster}", "${VAR}", "$(hostname)", "{Nodes}", "{", "}",
               "{{nodes}}", "}{", "{ nodes}", "$", " ", "\n"]
        ) | st.text(max_size=3)).map("".join),
        nodes=st.integers(1, 64),
        entry=st.sampled_from(["train.py", "{nodes}", "${x}", "{"]),
    )
    def test_drawn_stderr_through_a_rule_set(self, profile, stderr, nodes, entry):
        # The rule set splits the stderr once; submit joins the plan.
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=nodes,
                         entry_script=entry)
        rule = FaultRule("DRAWN", "*", {}, stderr)
        if set(PLACEHOLDER_RE.findall(stderr)) - set(_STDERR_FIELDS):
            with pytest.raises(RuleParseError, match="unknown stderr field"):
                FaultRuleSet([rule])
            return
        result = submit(RenderedScript("", "drawn"), spec, profile, FaultRuleSet([rule]))
        assert result.stderr == _reference_stderr(stderr, spec, profile)

    def test_hand_built_rule_with_unknown_field_is_refused(self):
        rules = [FaultRule("OK", "*", {}, "fine on {cluster}"),
                 FaultRule("X", "*", {}, "boom {bogus}")]
        with pytest.raises(RuleParseError) as exc:
            FaultRuleSet(rules)
        assert str(exc.value) == "unknown stderr field '{bogus}' (rule index 1)"
        assert exc.value.index == 1

    def test_rule_may_name_only_the_table_fields(self):
        doc = json.dumps([{
            "id": "X", "cluster": "*", "trigger": {},
            "stderr": "{gpu_type} on {cluster} {rank}",
        }])
        with pytest.raises(RuleParseError, match="unknown stderr field '{rank}'"):
            load_fault_rules(doc)


def _as_list(value):
    return [value] if isinstance(value, str) else [str(v) for v in value]


def _rule_applies(rule, text, spec, profile):
    """Whether ``rule`` fires, read from its JSON-shaped scope and trigger on each call."""
    if rule.cluster != "*" and profile.id not in _as_list(rule.cluster):
        return False
    trigger = rule.trigger
    if "cluster_is" in trigger and profile.id not in _as_list(trigger["cluster_is"]):
        return False
    if "strategy_is" in trigger and spec.strategy.value not in _as_list(trigger["strategy_is"]):
        return False
    if "launcher_is" in trigger and spec.launcher.value not in _as_list(trigger["launcher_is"]):
        return False
    if "nodes_gt" in trigger and not spec.nodes > int(trigger["nodes_gt"]):
        return False
    for needle in _as_list(trigger.get("script_contains", [])):
        if needle not in text:
            return False
    for needle in _as_list(trigger.get("script_lacks", [])):
        if needle in text:
            return False
    return True


def _first_applying(rules, text, spec, profile):
    """The id of the first rule in document order that applies, or None."""
    return next((rule.id for rule in rules if _rule_applies(rule, text, spec, profile)), None)


# Rules name only the first four clusters, so the other five are ids no rule names.
_NAMED = sorted(default_profiles().ids())[:4]
_NEEDLES = ["module load", "export", "ipex", "HF_TOKEN", "x"]


def _names(pool, min_size=1):
    """An id or a list of ids; the loader refuses an empty list of names."""
    return st.sampled_from(pool) | st.lists(st.sampled_from(pool), min_size=min_size,
                                            max_size=3)


_TRIGGERS = st.fixed_dictionaries({}, optional={
    "cluster_is": _names(_NAMED),
    "strategy_is": _names([s.value for s in Strategy]),
    "launcher_is": _names([launcher.value for launcher in Launcher]),
    "nodes_gt": st.integers(0, 3),
    "script_contains": _names(_NEEDLES, min_size=0),
    "script_lacks": _names(_NEEDLES, min_size=0),
})
_RULE_DOCS = st.lists(
    st.tuples(st.just("*") | _names(_NAMED), _TRIGGERS),
    max_size=8,
).map(lambda drawn: json.dumps([
    {"id": f"R{i}", "cluster": cluster, "trigger": trigger, "stderr": "boom"}
    for i, (cluster, trigger) in enumerate(drawn)
]))


class TestRuleIndex:
    @given(
        doc=_RULE_DOCS,
        cluster=st.sampled_from(sorted(default_profiles().ids())),
        strategy=st.sampled_from(list(Strategy)),
        launcher=st.sampled_from(list(Launcher)),
        nodes=st.integers(1, 3),
        text=st.lists(st.sampled_from(_NEEDLES + ["python train.py", "\n", " "]),
                      max_size=6).map("".join),
    )
    @example(  # a node count equal to nodes_gt does not exceed it
        doc=json.dumps([{"id": "R0", "cluster": "*", "trigger": {"nodes_gt": 2},
                         "stderr": "boom"}]),
        cluster="delta", strategy=Strategy.DDP, launcher=Launcher.SRUN, nodes=2, text="",
    )
    def test_index_fires_the_rule_a_document_order_walk_finds(
        self, doc, cluster, strategy, launcher, nodes, text
    ):
        profiles = default_profiles()
        rules = load_fault_rules(doc, known_clusters=set(profiles.ids()))
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, Framework.PYTORCH, strategy, launcher=launcher, nodes=nodes)
        rendered = RenderedScript(text, "drawn")
        assert submit(rendered, spec, profile, rules).fault_fired == _first_applying(
            rules, text, spec, profile
        )
