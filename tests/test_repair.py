import pytest

from launchport import intent
from launchport.errors import ContractViolationError, NoRepairAvailableError
from launchport.lint import error_count, lint
from launchport.pipeline import first_bindable
from launchport.repair import (
    CATEGORY_ENV,
    CATEGORY_FRAMEWORK,
    CATEGORY_UNKNOWN,
    CONFIDENCE_HIGH,
    CONFIDENCE_LOW,
    STATUS_SUCCESS,
    STATUS_UNRESOLVED,
    diagnose,
    parse_proposal,
    parse_proposals,
    propose,
    run_loop,
)
from launchport.simcluster import ExecutionResult
from launchport.synthesis import render_for_spec
from launchport.types import Framework, Strategy

from conftest import make_spec


def _failed(stderr):
    return ExecutionResult(exit_code=1, stdout="", stderr=stderr)


class TestDiagnose:
    def test_module_not_found_on_deltaai(self, profiles, fingerprints):
        res = _failed("ModuleNotFoundError: No module named 'torch'")
        d = diagnose(res, profiles.resolve("deltaai"), fingerprints)
        assert d.category == CATEGORY_ENV
        assert d.fingerprint_id == "ENV_NOT_PROPAGATED"
        assert d.confidence == CONFIDENCE_HIGH

    def test_apex_failure_on_gh200(self, profiles, fingerprints):
        res = _failed("RuntimeError: compilation of NVIDIA Apex failed on GH200")
        d = diagnose(res, profiles.resolve("vista"), fingerprints)
        assert d.category == CATEGORY_FRAMEWORK
        assert d.fingerprint_id == "APEX_GH200"
        assert d.confidence == CONFIDENCE_HIGH

    def test_unmatched_stderr_is_unknown(self, profiles, fingerprints):
        res = _failed("segfault in custom kernel xyz")
        d = diagnose(res, profiles.resolve("delta"), fingerprints)
        assert d.category == CATEGORY_UNKNOWN
        assert d.fingerprint_id is None
        assert d.confidence == CONFIDENCE_LOW

    def test_success_result_is_a_contract_violation(self, profiles, fingerprints):
        ok = ExecutionResult(exit_code=0, stdout="allgather ok\n", stderr="")
        with pytest.raises(ContractViolationError):
            diagnose(ok, profiles.resolve("delta"), fingerprints)

    def test_first_fingerprint_wins(self, profiles, fingerprints):
        # Contains both a module error and an Apex marker; the fingerprint
        # document puts ENV first.
        res = _failed(
            "ModuleNotFoundError: no apex\ncompilation of NVIDIA Apex failed"
        )
        d = diagnose(res, profiles.resolve("deltaai"), fingerprints)
        assert d.fingerprint_id == "ENV_NOT_PROPAGATED"


class TestPropose:
    def _diag(self, fingerprint_id, category=CATEGORY_ENV):
        from launchport.repair import Diagnosis
        return Diagnosis(category, fingerprint_id, "", CONFIDENCE_HIGH)

    def test_env_propagation_repairs(self, profiles, templates, repair_table):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        r = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
        actions = propose(self._diag("ENV_NOT_PROPAGATED"), r, spec, repair_table)
        assert [(a.kind, a.payload["name"]) for a in actions] == [
            ("export_env", "PYTHONPATH"),
            ("export_env", "LD_LIBRARY_PATH"),
        ]

    def test_compiler_module_repairs(self, profiles, templates, repair_table):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3)
        r = render_for_spec(spec, templates.get("perlmutter-zero3"), profile)
        actions = propose(self._diag("GCC_CUDA_MISMATCH"), r, spec, repair_table)
        assert [(a.kind, a.payload["module"]) for a in actions] == [
            ("add_module_load", "gcc/13.2.0"),
            ("add_module_load", "cuda/12.4"),
        ]

    def test_dataset_arg_repair(self, profiles, templates, repair_table):
        profile = profiles.resolve("lonestar6")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, entry_script="run_glue.py")
        r = render_for_spec(spec, templates.get("ls6-ddp"), profile)
        actions = propose(self._diag("MISSING_DATASET_ARG"), r, spec, repair_table)
        assert actions[0].kind == "add_arg"
        assert "--task_name" in actions[0].payload["args"]

    def test_unknown_without_bridge_has_no_repair(self, profiles, templates, repair_table):
        from launchport.repair import Diagnosis
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        r = render_for_spec(spec, templates.get("delta-ddp"), profile)
        d = Diagnosis(CATEGORY_UNKNOWN, None, "", CONFIDENCE_LOW)
        with pytest.raises(NoRepairAvailableError):
            propose(d, r, spec, repair_table)


class TestProposalParsing:
    def test_nightly_build_suggestion_becomes_pin(self):
        action = parse_proposal("switching to the latest nightly PyTorch build")
        assert action.kind == "pin_version"
        assert action.payload == {"package": "pytorch", "version": "nightly"}

    def test_nonsense_is_dropped(self):
        assert parse_proposal("reinstall the universe") is None

    def test_partial_parseability_preserves_order(self):
        actions = parse_proposals([
            "export PYTHONPATH inside the launch command",
            "sacrifice a goat to the scheduler",
            "module load gcc/13.2.0",
        ])
        assert [a.kind for a in actions] == ["export_env", "add_module_load"]

    def test_module_load_parsed(self):
        action = parse_proposal("run module load oneapi/2024.2.0 before launching")
        assert action.kind == "add_module_load"
        assert action.payload["module"] == "oneapi/2024.2.0"


class TestRunLoop:
    def test_clean_job_needs_no_iterations(self, profiles, templates, harness):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("perlmutter-ddp"), profile, harness)
        assert outcome.status == STATUS_SUCCESS
        assert outcome.iterations_used == 0
        assert outcome.history == ()

    def test_clean_loop_parses_its_script_once(self, profiles, templates, harness, monkeypatch):
        # Lint and the mock submission share the script's one parse.
        parsed = []
        parse = intent.parse_script

        def counting(script):
            parsed.append(script)
            return parse(script)

        monkeypatch.setattr(intent, "parse_script", counting)
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("perlmutter-ddp"), profile, harness)
        assert outcome.status == STATUS_SUCCESS
        assert outcome.lint_findings == ()
        assert parsed == [outcome.final_script.text]

    def test_env_propagation_repaired_quickly(self, profiles, templates, harness):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("deltaai-ddp"), profile, harness)
        assert outcome.status == STATUS_SUCCESS
        assert 1 <= outcome.iterations_used <= 2
        assert "export PYTHONPATH" in outcome.final_script.text
        # The export lands inside the remote launch command.
        assert "bash -c 'export PYTHONPATH=$PYTHONPATH; " in outcome.final_script.text

    def test_unresolvable_cell_reports_unresolved(self, profiles, templates, harness):
        profile = profiles.resolve("vista")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3)
        outcome = run_loop(spec, templates.get("vista-zero3"), profile, harness)
        assert outcome.status == STATUS_UNRESOLVED
        assert outcome.iterations_used <= 5
        assert len(outcome.history) >= 1
        assert outcome.history[0].diagnosis.fingerprint_id == "APEX_GH200"
        assert outcome.final_result.exit_code != 0

    def test_termination_bound_holds(self, profiles, templates, harness):
        for cluster, framework, strategy in (
            ("vista", Framework.DEEPSPEED, Strategy.ZERO3),
            ("deltaai", Framework.DEEPSPEED, Strategy.ZERO3),
            ("deltaai", Framework.PYTORCH, Strategy.DDP),
            ("perlmutter", Framework.PYTORCH, Strategy.DDP),
        ):
            profile = profiles.resolve(cluster)
            spec = make_spec(profile, framework, strategy)
            template = first_bindable(spec, templates)
            outcome = run_loop(spec, template, profile, harness, max_iter=5)
            assert outcome.iterations_used <= 5

    def test_action_not_retried_for_same_fingerprint(self, profiles, templates, harness):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3)
        outcome = run_loop(spec, templates.get("deltaai-deepspeed"), profile, harness)
        assert outcome.status == STATUS_UNRESOLVED
        signatures = [
            e.action.signature() for e in outcome.history if e.action is not None
        ]
        assert len(signatures) == len(set(signatures))

    def test_lint_errors_never_increase_across_repairs(self, profiles, templates, harness):
        cases = (
            ("deltaai", Framework.PYTORCH, Strategy.DDP, {}),
            ("stampede3", Framework.PYTORCH, Strategy.DDP, {}),
            ("perlmutter", Framework.DEEPSPEED, Strategy.ZERO3, {}),
            ("lonestar6", Framework.PYTORCH, Strategy.DDP, {"entry_script": "run_glue.py"}),
        )
        for cluster, framework, strategy, overrides in cases:
            profile = profiles.resolve(cluster)
            spec = make_spec(profile, framework, strategy, **overrides)
            template = first_bindable(spec, templates)
            before = error_count(
                lint(render_for_spec(spec, template, profile), spec, profile)
            )
            outcome = run_loop(spec, template, profile, harness)
            assert outcome.status == STATUS_SUCCESS
            after = error_count(
                lint(outcome.final_script, outcome.final_spec, profile)
            )
            assert after <= before

    def test_invalid_max_iter_rejected(self, profiles, templates, harness):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        with pytest.raises(ContractViolationError):
            run_loop(spec, templates.get("delta-ddp"), profile, harness, max_iter=0)


class _StubRepairBridge:
    """Offline stand-in for a remote repair service."""

    def __init__(self, category, proposals):
        self.category = category
        self.proposals = proposals
        self.calls = 0

    def enabled(self, capability):
        return capability == "repair"

    def remote_repair(self, context):
        self.calls += 1
        return self.category, self.proposals


class TestBridgeAssistedLoop:
    @pytest.fixture()
    def custom_rules(self, profiles):
        import json
        from launchport.simcluster import load_fault_rules

        rule = {
            "id": "UNKNOWN_CUSTOM",
            "cluster": "delta",
            "category": "env",
            "trigger": {"script_lacks": ["export CUSTOM_FLAG"]},
            "stderr": "weird custom failure xyz: initialization aborted",
            "clearable_by": ["export_env"],
        }
        return load_fault_rules(json.dumps([rule]))

    def test_unknown_failure_repaired_via_bridge(self, profiles, templates, custom_rules):
        from launchport.repair import SimHarness

        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        bridge = _StubRepairBridge("env", ["export CUSTOM_FLAG before launching"])
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, SimHarness(custom_rules),
            bridge=bridge,
        )
        assert bridge.calls == 1
        assert outcome.status == STATUS_SUCCESS
        assert outcome.iterations_used == 1
        assert "export CUSTOM_FLAG" in outcome.final_script.text
        diag = outcome.history[0].diagnosis
        assert diag.fingerprint_id is None
        assert diag.category == CATEGORY_ENV
        assert diag.confidence == CONFIDENCE_LOW

    def test_unknown_failure_without_bridge_stays_unresolved(
        self, profiles, templates, custom_rules
    ):
        from launchport.repair import SimHarness

        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, SimHarness(custom_rules),
        )
        assert outcome.status == STATUS_UNRESOLVED
        assert outcome.history[0].diagnosis.category == CATEGORY_UNKNOWN
