import json
import pickle
import re
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from launchport import intent, pipeline, repair, synthesis
from launchport.documents import bundled
from launchport.bridge import BridgeConfig, RemoteBridge, parse_proposal, parse_proposals
from launchport.errors import (
    BridgeProtocolError,
    BridgeUnavailableError,
    ContractViolationError,
    LaunchportError,
    NoRepairAvailableError,
    RuleParseError,
    UsageError,
)
from launchport.lint import error_count, lint
from launchport.pipeline import (
    MAX_ITERATIONS,
    STATUS_SUCCESS,
    STATUS_UNRESOLVED,
    run_loop,
    run_pipeline,
)
from launchport.repair import (
    CATEGORY_ENV,
    CATEGORY_FRAMEWORK,
    CATEGORY_UNKNOWN,
    RepairAction,
    apply_action,
    diagnose,
    load_fingerprints,
    load_repair_table,
    propose,
)
from launchport.simcluster import ExecutionResult, load_fault_rules, submit
from launchport.synthesis import RenderedScript, render_for_spec
from launchport.types import REPAIR_PAYLOAD_KEYS, Framework, Strategy

from conftest import FAULT_CORPUS, first_bindable, make_spec, pipeline_cases


_FP = '{"id": "fp", "category": "env", "pattern": %s}'


@pytest.mark.parametrize(
    "loader, text, index, message",
    [
        (load_fingerprints, "[%s, %s]" % (_FP % '{"literal": "x"}', _FP % "5"), 1,
         "fingerprint: 'pattern' must be an object"),
        (load_fingerprints, "[%s]" % (_FP % '{"regex": 5}'), 0,
         "pattern: 'regex' must be a string"),
        (load_fingerprints, "[%s]" % (_FP % '{"literal": "x", "regex": "x"}'), 0,
         "pattern must give exactly one of 'literal' or 'regex'"),
        (load_fingerprints, "[%s]" % (_FP % '{}'), 0,
         "pattern must give exactly one of 'literal' or 'regex'"),
        (load_repair_table, '{"fp": [], "other": 5}', 1,
         "actions for 'other' must be a list"),
        (load_repair_table, '{"fp": [{"kind": "export_env", "payload": {"name": "X"}}, 5]}', 1,
         "action for 'fp' must be an object"),
        (load_repair_table, '{"fp": [{"kind": "export_env", "payload": 5}]}', 0,
         "action for 'fp': 'payload' must be an object"),
        (load_repair_table, '{"fp": [{"kind": ["export_env"]}]}', 0,
         "action for 'fp': 'kind' must be one of export_env, add_module_load, pin_version, "
         "prepend_line, add_arg, set_param, switch_template"),
        (load_repair_table,
         '{"fp": [{"kind": "export_env", "payload": {"name": "X"}}, {"kind": "add_module_load"}]}',
         1, "add_module_load for 'fp' lacks 'module'"),
        (load_repair_table, '{"F": [{"kind": "set_param", "payload": {"param": [], "value": 1}}]}',
         0, "set_param for 'F': 'param' must be a string"),
        (load_repair_table,
         '{"F": [{"kind": "switch_template", "payload": {"template_id": ["delta-ddp"]}}]}',
         0, "switch_template for 'F': 'template_id' must be a string"),
        (load_repair_table,
         '{"F": [{"kind": "set_param", "payload": {"param": "nodes", "value": true}}]}',
         0, "set_param for 'F': 'value' must be a string or an integer"),
    ],
    ids=["pattern-5", "regex-5", "literal-and-regex", "neither", "action-list-5",
         "action-entry-5", "payload-5", "kind-list",
         "payload-key-missing", "param-list", "template-id-list", "value-bool"],
)
def test_malformed_inner_shapes_are_rule_parse_errors(loader, text, index, message):
    with pytest.raises(RuleParseError) as exc:
        loader(text)
    assert exc.value.index == index
    assert str(exc.value) == f"{message} (rule index {index})"


@pytest.mark.parametrize("kind", REPAIR_PAYLOAD_KEYS)
def test_each_payload_key_is_required_at_load(kind):
    keys = REPAIR_PAYLOAD_KEYS[kind]
    payload = {key: "a1" for key in keys}  # an export_env name is a shell name
    table = load_repair_table(json.dumps({"fp": [{"kind": kind, "payload": payload}]}))
    assert table["fp"][0].payload == payload
    for key in keys:
        short = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(RuleParseError, match=f"^{kind} for 'fp' lacks '{key}'"):
            load_repair_table(json.dumps({"fp": [{"kind": kind, "payload": short}]}))



@pytest.mark.parametrize("kind", REPAIR_PAYLOAD_KEYS)
def test_each_payload_key_is_required_when_built(kind):
    payload = {key: "a1" for key in REPAIR_PAYLOAD_KEYS[kind]}
    assert RepairAction(kind, payload).payload == payload
    for key in payload:
        short = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(ContractViolationError) as exc:
            RepairAction(kind, short)
        assert str(exc.value) == f"{kind} payload lacks '{key}'"


def test_a_hand_built_table_reaches_the_loop_only_with_whole_payloads(
    profiles, templates, fault_rules,
):
    # An export_env without its name used to be built and then fail in
    # apply_action with a KeyError; now it is refused when built.
    with pytest.raises(ContractViolationError, match="^export_env payload lacks 'name'$"):
        RepairAction("export_env", {})
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2, gpus_per_node=4)
    table = {"ENV_NOT_PROPAGATED": (RepairAction("export_env", {"name": "PYTHONPATH"}),)}
    winner = run_pipeline(spec, profile, templates, fault_rules, repair_table=table).winner
    assert [e.action for e in winner.outcome.history] == list(table["ENV_NOT_PROPAGATED"])


# The kinds whose payload text goes into the script as it is, each with a
# payload that passes the quoting rule.
_VERBATIM_PAYLOADS = {
    "export_env": {"name": "PYTHONPATH"},
    "add_module_load": {"module": "gcc/13.2.0"},
    "pin_version": {"package": "pytorch", "version": "2.4"},
    "prepend_line": {"line": "ulimit -n 4096"},
}
_QUOTING_BREAKERS = [(kind, key, text)
                     for kind in _VERBATIM_PAYLOADS for key in REPAIR_PAYLOAD_KEYS[kind]
                     for text in ("A'B", "A\nB")]
_QUOTING_IDS = [f"{kind}-{key}-{'newline' if chr(10) in text else 'quote'}"
                for kind, key, text in _QUOTING_BREAKERS]


def _quoting_message(kind, key, text):
    return (f"{kind} {key} may not hold a single quote or a newline, which would break the "
            f"quoted launch command; use double quotes, on one line (got {text!r})")


@pytest.mark.parametrize("kind, key, text", _QUOTING_BREAKERS, ids=_QUOTING_IDS)
def test_a_verbatim_payload_that_breaks_the_quoting_is_refused_at_load(kind, key, text):
    good = {"kind": kind, "payload": _VERBATIM_PAYLOADS[kind]}
    bad = {"kind": kind, "payload": {**_VERBATIM_PAYLOADS[kind], key: text}}
    with pytest.raises(RuleParseError) as exc:
        load_repair_table(json.dumps({"F": [good, bad]}))
    assert exc.value.index == 1
    assert str(exc.value) == f"{_quoting_message(kind, key, text)} (rule index 1)"


@pytest.mark.parametrize("kind, key, text", _QUOTING_BREAKERS, ids=_QUOTING_IDS)
def test_a_hand_built_verbatim_action_that_breaks_the_quoting_is_refused_when_built(
        kind, key, text):
    # Applied as it is, export_env would print bash -c 'export A'B=$A'B; ...'.
    with pytest.raises(UsageError) as exc:
        RepairAction(kind, {**_VERBATIM_PAYLOADS[kind], key: text})
    assert str(exc.value) == _quoting_message(kind, key, text)


# export_env names that are not shell names: each would go into the launch
# command as it is (bash -c 'export X; rm -rf ~=$X; rm -rf ~; ...').
_NOT_SHELL_NAMES = ["X; rm -rf ~", "A B", "1X", "", "X=1", "$HOME", "X-Y", "\u00c4", "X\t"]


@pytest.mark.parametrize("name", _NOT_SHELL_NAMES)
def test_an_export_env_name_that_is_not_a_shell_name_is_refused(name):
    message = ("export_env name must be a shell name: an ASCII letter or '_', then ASCII "
               f"letters, digits or '_' (got {name!r})")
    with pytest.raises(UsageError) as exc:
        RepairAction("export_env", {"name": name})
    assert str(exc.value) == message
    good = {"kind": "export_env", "payload": {"name": "PYTHONPATH"}}
    bad = {"kind": "export_env", "payload": {"name": name}}
    with pytest.raises(RuleParseError) as exc:
        load_repair_table(json.dumps({"F": [good, bad]}))
    assert (exc.value.index, str(exc.value)) == (1, f"{message} (rule index 1)")


def test_an_export_env_name_is_any_ascii_shell_name():
    for name in ("_", "PYTHONPATH", "LD_LIBRARY_PATH", "hf_token2", "_X9"):
        assert RepairAction("export_env", {"name": name}).payload["name"] == name
    with pytest.raises(UsageError, match=r"\(got 5\)$"):
        RepairAction("export_env", {"name": 5})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["master_port", "deepspeed_config", "nodes", "each_node_gpus",
                       "perlmutter-fsdp", "29500", "80", "{nodes}", "ds.json", "PYTHONPATH"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4,
)


@given(kind=st.sampled_from(sorted(REPAIR_PAYLOAD_KEYS)), data=st.data())
def test_a_loaded_payload_applies_or_raises_a_launchport_error(profiles, templates, kind, data):
    payload = {key: data.draw(_JSON_VALUES, label=key) for key in REPAIR_PAYLOAD_KEYS[kind]}
    try:
        table = load_repair_table(json.dumps({"F": [{"kind": kind, "payload": payload}]}))
    except RuleParseError:
        return
    [action] = table["F"]
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    template = templates.get("perlmutter-ddp")
    try:
        apply_action(action, render_for_spec(spec, template, profile), spec, template, profile,
                     templates)
    except LaunchportError:
        pass


@pytest.mark.parametrize("with_set", [True, False], ids=["unknown-id", "no-template-set"])
def test_switch_to_a_missing_template_is_unappliable(profiles, templates, with_set):
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    template = templates.get("perlmutter-ddp")
    script = render_for_spec(spec, template, profile)
    action = RepairAction("switch_template", {"template_id": "nonexistent-id"})
    with pytest.raises(NoRepairAvailableError, match="no template 'nonexistent-id'"):
        apply_action(action, script, spec, template, profile, templates if with_set else None)


@pytest.mark.parametrize("param", ["each_node_gpus", "nodes", "your_script", "world_size"])
def test_set_param_sets_only_a_job_field(profiles, templates, param):
    # A rebound template parameter would launch a job other than the spec the
    # script is verified against, and the next re-render would drop it.
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    template = templates.get("perlmutter-ddp")
    script = render_for_spec(spec, template, profile)
    action = RepairAction("set_param", {"param": param, "value": 9})
    with pytest.raises(NoRepairAvailableError) as exc:
        apply_action(action, script, spec, template, profile, templates)
    assert str(exc.value) == f"set_param sets no job field '{param}'"


def test_prepend_line_and_switch_template_apply(profiles, templates):
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    template, other = templates.get("perlmutter-ddp"), templates.get("perlmutter-fsdp")
    script = render_for_spec(spec, template, profile)
    prepend = RepairAction("prepend_line", {"line": "ulimit -n 4096"})
    assert apply_action(prepend, script, spec, template, profile) == (
        script.replace(text=f"ulimit -n 4096\n{script.text}"), spec, template)
    switch = RepairAction("switch_template", {"template_id": "perlmutter-fsdp"})
    assert apply_action(switch, script, spec, template, profile, templates) == (
        render_for_spec(spec, other, profile), spec, other)


@pytest.mark.parametrize("above", ["# was: srun bash -c 'python old.py'",
                                   "\t# bash -c 'python old.py'", "module load bash -c 'x'",
                                   "echo ready # then bash -c 'x'"],
                         ids=["comment", "indented-comment", "module-line", "trailing-comment"])
def test_export_env_goes_into_the_launch_command_the_script_runs(profiles, templates, above):
    # An export put into the "bash -c '" of a line the script does not run clears
    # a fault that searches the text for it, and leaves every node without it.
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    template = templates.get("deltaai-ddp")
    rendered = render_for_spec(spec, template, profile)
    script = RenderedScript(f"{above}\n{rendered.text}", template.id)
    action = RepairAction("export_env", {"name": "PYTHONPATH"})
    repaired, _, _ = apply_action(action, script, spec, template, profile)
    assert repaired.text == f"{above}\n" + rendered.text.replace(
        "bash -c '", "bash -c 'export PYTHONPATH=$PYTHONPATH; ", 1)
    assert [f.code for f in lint(script, spec, profile)] == ["ENV_PROPAGATION_RISK"]
    assert lint(repaired, spec, profile) == []


def test_a_hand_built_action_of_an_unknown_kind_is_refused_when_built():
    with pytest.raises(ContractViolationError) as exc:
        RepairAction("teleport", {})
    assert str(exc.value) == "unknown repair kind 'teleport'"


def test_a_loaded_repair_table_is_read_only():
    table = load_repair_table('{"F": [{"kind": "export_env", "payload": {"name": "X"}}]}')
    assert table == {"F": (RepairAction("export_env", {"name": "X"}),)}
    with pytest.raises(TypeError):
        table["G"] = ()


def _count_dumps(monkeypatch):
    """Record the first argument of every ``json.dumps`` call from now on."""
    dumped, dumps = [], json.dumps

    def counting(value, **kwargs):
        dumped.append(value)
        return dumps(value, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    return dumped


def test_signature_slot_leaves_equality_repr_and_pickling_alone(monkeypatch):
    dumped = _count_dumps(monkeypatch)
    action = RepairAction("export_env", {"name": "PYTHONPATH"}, "why")
    assert dumped == [{"name": "PYTHONPATH"}]  # serialised when built
    assert action.signature() is action.signature()
    assert len(dumped) == 1  # and never when read
    fresh = RepairAction("export_env", {"name": "PYTHONPATH"}, "why")
    assert action == fresh and repr(action) == repr(fresh)
    assert action.__reduce__() == fresh.__reduce__()
    with pytest.raises(TypeError):  # a dict field: unhashable, signed or not
        hash(action)
    unpickled = pickle.loads(pickle.dumps(action))
    assert unpickled == action and unpickled.signature() == action.signature()
    assert len(dumped) == 3  # fresh and the unpickled action are each built, so serialised


def test_a_bad_regex_is_a_rule_parse_error():
    with pytest.raises(RuleParseError, match=r"^bad regex: .* \(rule index 0\)$"):
        load_fingerprints("[%s]" % (_FP % '{"regex": "a("}'))


# The bundled fingerprints in document order, built here: a FingerprintSet keeps only
# each one's test and diagnosis.
_BUNDLED_FINGERPRINTS = [
    repair.Fingerprint(raw["id"], raw["category"], **raw["pattern"],
                       explanation=raw.get("explanation", ""))
    for raw in json.loads(bundled("fingerprints.json"))
]
_BUNDLED_REGEXES = [fp.regex for fp in _BUNDLED_FINGERPRINTS if fp.regex]


@given(
    regex=st.sampled_from(_BUNDLED_REGEXES) | st.lists(st.sampled_from(
        ["^", "$", "a", "b", ".", "a+", "\\n", "[ab]", "(?:a|b)", "b*", "\\s", "\\w"]
    ), max_size=6).map("".join),
    stderr=st.text() | st.text("ab \n", max_size=12),
)
def test_fingerprint_matches_as_a_multiline_search(profiles, regex, stderr):
    fingerprints = repair.FingerprintSet([repair.Fingerprint("F", CATEGORY_ENV, regex=regex)])
    diag = diagnose(_failed(stderr), profiles.resolve("delta"), fingerprints)
    assert (diag.fingerprint_id == "F") == (re.search(regex, stderr, re.M) is not None)


@pytest.mark.parametrize("pattern", [{}, {"literal": "x", "regex": "x"}])
def test_fingerprint_takes_exactly_one_pattern(pattern):
    with pytest.raises(ContractViolationError,
                       match="^pattern must give exactly one of 'literal' or 'regex'$"):
        repair.Fingerprint("F", CATEGORY_ENV, **pattern)


def _failed(stderr):
    return ExecutionResult(exit_code=1, stdout="", stderr=stderr)


def _reference_diagnosis(stderr, fingerprints):
    """The first matching fingerprint's diagnosis, built field by field on each call."""
    for fp in fingerprints:
        if fp.literal in stderr if fp.regex is None else re.search(fp.regex, stderr, re.M):
            return repair.Diagnosis(category=fp.category, fingerprint_id=fp.id,
                                    explanation=fp.explanation or f"matched fingerprint {fp.id}")
    return repair.Diagnosis(CATEGORY_UNKNOWN, None, "no matching fingerprint")


def test_each_fingerprint_s_diagnosis_is_built_once_and_shared(
        profiles, templates, fault_rules, fingerprints):
    stderrs = [fp.literal for fp in _BUNDLED_FINGERPRINTS if fp.literal is not None]
    for cluster, framework, strategy, overrides in FAULT_CORPUS.values():
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, framework, strategy, **overrides)
        script = render_for_spec(spec, first_bindable(spec, templates), profile)
        stderrs.append(submit(script, spec, profile, fault_rules).stderr)
    profile = profiles.resolve("delta")
    for stderr in stderrs:
        diag = diagnose(_failed(stderr), profile, fingerprints)
        assert diag == _reference_diagnosis(stderr, _BUNDLED_FINGERPRINTS)
        assert diag.fingerprint_id is not None, stderr
        assert diagnose(_failed(stderr), profile, fingerprints) is diag


_CODE_FINGERPRINTS = [
    repair.Fingerprint("TASK", CATEGORY_FRAMEWORK, regex=r"^usage: .*--task$",
                       explanation="the task argument is missing"),
    repair.Fingerprint("OFI", CATEGORY_ENV, literal="ofi provider"),
    repair.Fingerprint("XPU", CATEGORY_FRAMEWORK, literal="xpu", explanation="no xpu backend"),
]


@given(st.lists(st.sampled_from(
    ["usage: ", "--task", "ofi provider", "ofi", "xpu", "\n", " ", "x"]), max_size=8).map("".join))
def test_a_fingerprint_set_built_in_code_diagnoses_as_a_first_match_loop(profiles, stderr):
    diag = diagnose(_failed(stderr), profiles.resolve("delta"),
                    repair.FingerprintSet(_CODE_FINGERPRINTS))
    assert diag == _reference_diagnosis(stderr, _CODE_FINGERPRINTS)


class TestDiagnose:
    def test_module_not_found_on_deltaai(self, profiles, fingerprints):
        res = _failed("ModuleNotFoundError: No module named 'torch'")
        d = diagnose(res, profiles.resolve("deltaai"), fingerprints)
        assert d.category == CATEGORY_ENV
        assert d.fingerprint_id == "ENV_NOT_PROPAGATED"

    def test_apex_failure_on_gh200(self, profiles, fingerprints):
        res = _failed("RuntimeError: compilation of NVIDIA Apex failed on GH200")
        d = diagnose(res, profiles.resolve("vista"), fingerprints)
        assert d.category == CATEGORY_FRAMEWORK
        assert d.fingerprint_id == "APEX_GH200"

    def test_unmatched_stderr_is_unknown(self, profiles, fingerprints):
        res = _failed("segfault in custom kernel xyz")
        d = diagnose(res, profiles.resolve("delta"), fingerprints)
        assert d.category == CATEGORY_UNKNOWN
        assert d.fingerprint_id is None

    def test_without_spec_the_bridge_gets_an_empty_one(self, profiles, fingerprints):
        class Recording(_StubRepairBridge):
            def remote_repair(self, context):
                self.context = context
                return super().remote_repair(context)

        bridge = Recording("env", ["export CUSTOM_FLAG"])
        diag = diagnose(_failed("weird failure xyz"), profiles.resolve("delta"), fingerprints,
                        bridge=bridge)
        assert (bridge.context["spec"], bridge.context["script"]) == ({}, "")
        assert [a.payload for a in diag.remote_actions] == [{"name": "CUSTOM_FLAG"}]

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
        return Diagnosis(category, fingerprint_id, "")

    def test_env_propagation_repairs(self, repair_table):
        actions = propose(self._diag("ENV_NOT_PROPAGATED"), repair_table)
        assert [(a.kind, a.payload["name"]) for a in actions] == [
            ("export_env", "PYTHONPATH"),
            ("export_env", "LD_LIBRARY_PATH"),
        ]

    def test_compiler_module_repairs(self, repair_table):
        actions = propose(self._diag("GCC_CUDA_MISMATCH"), repair_table)
        assert [(a.kind, a.payload["module"]) for a in actions] == [
            ("add_module_load", "gcc/13.2.0"),
            ("add_module_load", "cuda/12.4"),
        ]

    def test_dataset_arg_repair(self, repair_table):
        actions = propose(self._diag("MISSING_DATASET_ARG"), repair_table)
        assert actions[0].kind == "add_arg"
        assert "--task_name" in actions[0].payload["args"]

    def test_unknown_without_bridge_has_no_repair(self, repair_table):
        from launchport.repair import Diagnosis
        assert propose(Diagnosis(CATEGORY_UNKNOWN, None, ""), repair_table) == []

    def test_a_fingerprint_the_table_does_not_list_has_no_repair(self, repair_table):
        assert "UNLISTED" not in repair_table
        assert propose(self._diag("UNLISTED"), repair_table) == []


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
    def test_clean_job_needs_no_iterations(self, profiles, templates, fault_rules):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("perlmutter-ddp"), profile, fault_rules)
        assert outcome.status == STATUS_SUCCESS
        assert outcome.iterations_used == 0
        assert outcome.history == ()

    def test_clean_loop_parses_its_script_once(self, profiles, templates, fault_rules, monkeypatch):
        # Lint and the mock submission share one read of the script's counts.
        parsed = []
        read = intent._launch

        def counting(script):
            parsed.append(script)
            return read(script)

        monkeypatch.setattr(intent, "_launch", counting)
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("perlmutter-ddp"), profile, fault_rules)
        assert outcome.status == STATUS_SUCCESS
        assert outcome.lint_findings == ()
        assert parsed == [outcome.final_script.text]

    def test_pipeline_reads_each_script_s_counts_once_per_render(
            self, profiles, templates, fault_rules, monkeypatch):
        # Over the grid, the fault corpus and an export_env repair on a template
        # with no `bash -c '`, lint and submit read only the counts, never the
        # full parse, each rendered script reads them once, and no text repair
        # reads them: its script carries its parent's.
        calls = {"parse_script": [], "_launch": [], "render": []}
        for name, calls_of in calls.items():
            function = getattr(synthesis if name == "render" else intent, name)

            def counting(*args, function=function, calls_of=calls_of):
                result = function(*args)
                calls_of.append(result._commands if isinstance(result, RenderedScript) else args[0])
                return result

            for module in [m for n, m in sys.modules.items() if n.startswith("launchport.")]:
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, counting)
        text_repairs = []  # (kind, whether the script has a launch command, reads)
        apply = repair.apply_action

        def applying(action, script, *args):
            before = len(calls["_launch"])
            applied = apply(action, script, *args)
            if action.kind in repair._TEXT_EDITS:
                text_repairs.append((action.kind, "bash -c '" in script.text,
                                     len(calls["_launch"]) - before))
            return applied

        monkeypatch.setattr(repair, "apply_action", applying)
        deltaai = profiles.resolve("deltaai")
        no_launch_command = make_spec(deltaai, Framework.DEEPSPEED, Strategy.DDP)
        for _, spec, profile in pipeline_cases(profiles) + [(None, no_launch_command, deltaai)]:
            run_pipeline(spec, profile, templates, fault_rules)
        assert calls["parse_script"] == []
        assert calls["render"] and Counter(calls["_launch"]) == Counter(calls["render"])
        assert {kind for kind, _, _ in text_repairs} == {"add_module_load", "pin_version",
                                                         "export_env"}
        assert ("export_env", False, 0) in text_repairs
        assert not any(reads for _, _, reads in text_repairs)

    def test_the_loop_lints_each_commands_and_spec_once(
            self, profiles, templates, fault_rules, monkeypatch):
        # The loop lints a repaired script only when its repair changed the spec
        # or built a script that does not carry its parent's read, the current
        # script only to compare its errors with such a script's, and nothing at
        # exit; the outcome lints its final script when its findings are read.
        events, outcomes = [], []  # per loop, in order: ("apply" | "lint" | "submit", ...)

        def counting(r, spec, profile):
            events[-1].append(("lint", r, spec))
            return lint(r, spec, profile)

        def submitting(r, spec, *args):
            events[-1].append(("submit", r, spec))
            return submit(r, spec, *args)

        def applying(action, script, spec, *args):
            new_script, new_spec, new_t = apply(action, script, spec, *args)
            events[-1].append(("apply", new_script, new_spec, script, spec, action.kind))
            return new_script, new_spec, new_t

        def looping(*args, **kwargs):
            events.append([])
            try:
                outcomes.append((loop(*args, **kwargs), args[2]))
            except LaunchportError:  # a template the job cannot bind: nothing linted
                assert events.pop() == []
                raise
            return outcomes[-1][0]

        loop, apply = pipeline.run_loop, repair.apply_action
        monkeypatch.setattr(pipeline, "lint", counting)
        monkeypatch.setattr(pipeline, "submit", submitting)
        monkeypatch.setattr(repair, "apply_action", applying)
        monkeypatch.setattr(pipeline, "run_loop", looping)
        for _, spec, profile in pipeline_cases(profiles):
            run_pipeline(spec, profile, templates, fault_rules)
        assert outcomes and len(events) == len(outcomes)
        carried_kinds = set()
        for loop_events in events:
            linted = [(e[1]._commands, e[2]) for e in loop_events if e[0] == "lint"]
            assert len(linted) == len(set(linted))
            for i, event in enumerate(loop_events):
                if event[0] == "apply":
                    _, new_script, new_spec, script, spec, kind = event
                    if kind in ("add_module_load", "pin_version", "export_env"):
                        # These repairs carry the read, and keep the spec.
                        assert new_script._topology is script._topology, kind
                        assert new_spec is spec
                        carried_kinds.add(kind)
                if event[0] != "lint":
                    continue
                # A lint reads a repaired script that can change the errors, or,
                # right after such a lint, the script it repairs: never one at exit.
                before = loop_events[i - 1]
                if before[0] == "lint":
                    before = loop_events[i - 2]
                    assert before[0] == "apply" and event[1:] == before[3:5]
                else:
                    assert before[0] == "apply"
                    _, new_script, new_spec, script, spec, _ = before
                    assert event[1:] == (new_script, new_spec)
                    assert new_script._topology is not script._topology or new_spec is not spec
        assert carried_kinds == {"add_module_load", "pin_version", "export_env"}
        for outcome, profile in outcomes:
            assert outcome.profile is profile
            assert outcome.lint_findings == tuple(
                lint(outcome.final_script, outcome.final_spec, profile))

    def test_env_propagation_repaired_quickly(self, profiles, templates, fault_rules):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("deltaai-ddp"), profile, fault_rules)
        assert outcome.status == STATUS_SUCCESS
        assert 1 <= outcome.iterations_used <= 2
        assert "export PYTHONPATH" in outcome.final_script.text
        # The export lands inside the remote launch command.
        assert "bash -c 'export PYTHONPATH=$PYTHONPATH; " in outcome.final_script.text

    def test_unresolvable_cell_reports_unresolved(self, profiles, templates, fault_rules):
        profile = profiles.resolve("vista")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3)
        outcome = run_loop(spec, templates.get("vista-zero3"), profile, fault_rules)
        assert outcome.status == STATUS_UNRESOLVED
        assert outcome.iterations_used <= 5
        assert len(outcome.history) >= 1
        assert outcome.history[0].diagnosis.fingerprint_id == "APEX_GH200"
        assert outcome.final_result.exit_code != 0

    def test_termination_bound_holds(self, profiles, templates, fault_rules):
        for cluster, framework, strategy in (
            ("vista", Framework.DEEPSPEED, Strategy.ZERO3),
            ("deltaai", Framework.DEEPSPEED, Strategy.ZERO3),
            ("deltaai", Framework.PYTORCH, Strategy.DDP),
            ("perlmutter", Framework.PYTORCH, Strategy.DDP),
        ):
            profile = profiles.resolve(cluster)
            spec = make_spec(profile, framework, strategy)
            template = first_bindable(spec, templates)
            outcome = run_loop(spec, template, profile, fault_rules, max_iter=5)
            assert outcome.iterations_used <= 5

    def test_action_not_retried_for_same_fingerprint(self, profiles, templates, fault_rules):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3)
        outcome = run_loop(spec, templates.get("deltaai-deepspeed"), profile, fault_rules)
        assert outcome.status == STATUS_UNRESOLVED
        signatures = [
            e.action.signature() for e in outcome.history if e.action is not None
        ]
        assert len(signatures) == len(set(signatures))

    @pytest.mark.parametrize("twin, retried", [
        ({"param": "master_port", "value": 29501}, False),
        ({"value": 29501, "param": "master_port"}, False),
        ({"param": "master_port", "value": "29501"}, True),
    ], ids=["rationale", "key-order", "value-type"])
    def test_already_tried_means_same_kind_and_sorted_payload(
        self, profiles, templates, fault_rules, twin, retried
    ):
        first = {"kind": "set_param", "payload": {"param": "master_port", "value": 29501},
                 "rationale": "first"}
        second = {"kind": "set_param", "payload": twin, "rationale": "second"}
        fix = {"kind": "export_env", "payload": {"name": "PYTHONPATH"}}
        table = load_repair_table(json.dumps({"ENV_NOT_PROPAGATED": [first, second, fix]}))
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("deltaai-ddp"), profile, fault_rules,
                           repair_table=table)
        assert outcome.status == STATUS_SUCCESS
        expected = [first, second, fix] if retried else [first, fix]
        assert [e.action for e in outcome.history] == [
            RepairAction(a["kind"], a["payload"], a.get("rationale", "")) for a in expected]

    def test_each_action_is_serialised_once(self, profiles, templates, fault_rules, monkeypatch):
        # Each iteration reconsiders the actions before the one it applies.
        names = ["FOO", "BAR", "PYTHONPATH"]
        document = json.dumps({"ENV_NOT_PROPAGATED": [
            {"kind": "export_env", "payload": {"name": name}} for name in names]})
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        dumped = _count_dumps(monkeypatch)
        table = load_repair_table(document)  # each action is serialised here, when built
        for _ in range(2):
            outcome = run_loop(spec, templates.get("deltaai-ddp"), profile, fault_rules,
                               repair_table=table)
            assert outcome.status == STATUS_SUCCESS and outcome.iterations_used == 3
        assert dumped == [{"name": name} for name in names]

    def test_lint_errors_never_increase_across_repairs(self, profiles, templates, fault_rules):
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
            outcome = run_loop(spec, template, profile, fault_rules)
            assert outcome.status == STATUS_SUCCESS
            after = error_count(
                lint(outcome.final_script, outcome.final_spec, profile)
            )
            assert after <= before

    def test_repair_that_adds_lint_errors_is_skipped(
            self, profiles, templates, fault_rules, monkeypatch):
        # The first action would put more GPUs on a node than deltaai has.
        table = load_repair_table(json.dumps({"ENV_NOT_PROPAGATED": [
            {"kind": "prepend_line", "payload": {"line": "torchrun --nproc_per_node=9 train.py"}},
            {"kind": "export_env", "payload": {"name": "PYTHONPATH"}},
        ]}))
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        template = templates.get("deltaai-ddp")
        linted = []

        def counting(r, spec, profile):
            linted.append(r.text)
            return lint(r, spec, profile)

        monkeypatch.setattr(pipeline, "lint", counting)
        outcome = run_loop(spec, template, profile, fault_rules, repair_table=table)
        assert outcome.status == STATUS_SUCCESS
        assert outcome.iterations_used == 1
        assert [e.action.kind for e in outcome.history] == ["export_env"]
        assert "export PYTHONPATH" in outcome.final_script.text
        assert error_count(outcome.lint_findings) == 0
        # The repair with errors is compared with the first script, linted only then.
        first = render_for_spec(spec, template, profile).text
        assert len(linted) == 3 and linted[1] == first and linted[2] == outcome.final_script.text

    @pytest.mark.parametrize("action", [
        {"kind": "add_arg", "payload": {"args": "--run-name 'vit base'"}},
        {"kind": "set_param",
         "payload": {"param": "deepspeed_config", "value": "ds.json\nrm -rf ~"}},
        {"kind": "set_param", "payload": {"param": "deepspeed_config", "value": "it's.json"}},
    ], ids=["add_arg", "set_param-newline", "set_param-deepspeed_config"])
    def test_repair_that_brings_a_quote_or_newline_is_skipped(
            self, profiles, templates, fault_rules, action):
        # The script carries the payload inside bash -c '...'.
        table = load_repair_table(json.dumps({"ENV_NOT_PROPAGATED": [
            action, {"kind": "export_env", "payload": {"name": "PYTHONPATH"}},
        ]}))
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(spec, templates.get("deltaai-ddp"), profile, fault_rules,
                           repair_table=table)
        assert outcome.status == STATUS_SUCCESS
        assert [e.action.kind for e in outcome.history] == ["export_env"]
        assert outcome.final_spec == spec

    def test_invalid_max_iter_rejected(self, profiles, templates, fault_rules):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        with pytest.raises(ContractViolationError):
            run_loop(spec, templates.get("delta-ddp"), profile, fault_rules, max_iter=0)


_BUNDLED_RULES = json.loads(bundled("fault_rules.json"))
# Text that rendered scripts contain or lack, for drawn trigger atoms.
_SCRIPT_WORDS = ["export ", "PYTHONPATH", "module load", "torchrun", "srun", "mpiexec",
                 "deepspeed", "accelerate", "--use-ipex", "ds_config.json", "train_gpt2.py",
                 "MASTER_PORT", "CUSTOM_FLAG", "pip install"]


@st.composite
def _rule_documents(draw):
    """Bundled rules, some left out and reordered, among rules triggered by script text.

    A drawn rule copies a bundled rule's stderr and repair kinds, so the
    bundled fingerprints and repair table apply to it.
    """
    rules = draw(st.permutations(_BUNDLED_RULES))[: draw(st.integers(0, len(_BUNDLED_RULES)))]
    for i in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(_BUNDLED_RULES))
        atom = draw(st.sampled_from(["script_contains", "script_lacks"]))
        words = draw(st.lists(st.sampled_from(_SCRIPT_WORDS), min_size=1, max_size=2))
        rules.append({**base, "id": f"DRAWN_{i}", "cluster": "*", "trigger": {atom: words}})
    return json.dumps(draw(st.permutations(rules)))


@given(data=st.data())
def test_loop_halts_within_bound_for_drawn_rule_sets(
    profiles, templates, fingerprints, repair_table, data
):
    name, spec, profile = data.draw(st.sampled_from(pipeline_cases(profiles)), label="case")
    rules = load_fault_rules(data.draw(_rule_documents(), label="rules"))
    max_iter = data.draw(st.integers(1, MAX_ITERATIONS), label="max_iter")
    submitted = []
    applied = []  # the last action apply_action returned from before each resubmission
    last_applicable = [None]

    errors = []  # the lint error count of each submitted script

    def recording_submit(*args):
        if submitted:
            applied.append(last_applicable[0])
        submitted.append(real_submit(*args))
        errors.append(error_count(lint(*args[:3])))
        return submitted[-1]

    def recording_apply(action, *args):
        result = real_apply(action, *args)
        last_applicable[0] = action
        return result

    real_submit, real_apply = pipeline.submit, repair.apply_action
    with mock.patch.object(pipeline, "submit", recording_submit), \
            mock.patch.object(repair, "apply_action", recording_apply):
        outcome = run_loop(
            spec, first_bindable(spec, templates), profile, rules, max_iter,
            fingerprints=fingerprints, repair_table=repair_table,
        )
    assert outcome.iterations_used == len(applied) == len(submitted) - 1 <= max_iter
    assert [entry.action for entry in outcome.history if entry.action] == applied
    assert outcome.succeeded == (submitted[-1].exit_code == 0)
    assert outcome.status == (STATUS_SUCCESS if outcome.succeeded else STATUS_UNRESOLVED)
    failed = [result for result in submitted if result.exit_code != 0]
    assert [entry.result for entry in outcome.history] == failed
    assert outcome.final_result is submitted[-1]
    assert [entry.action is not None for entry in outcome.history] == (
        [True] * outcome.iterations_used + ([] if outcome.succeeded else [False]))
    assert errors == sorted(errors, reverse=True)  # no applied action adds an error
    assert outcome.lint_findings == tuple(
        lint(outcome.final_script, outcome.final_spec, profile))


def test_a_loop_whose_repairs_never_clear_the_fault_stops_at_max_iter(profiles, templates):
    rules = load_fault_rules(json.dumps([{
        "id": "STUBBORN", "cluster": "delta", "trigger": {"script_lacks": ["never added"]},
        "stderr": "stubborn failure", "clearable_by": ["prepend_line"]}]))
    fingerprints = repair.FingerprintSet(
        [repair.Fingerprint("STUBBORN", CATEGORY_ENV, literal="stubborn failure")])
    actions = [RepairAction("prepend_line", {"line": f"echo try {i}"}) for i in range(6)]
    table = {"STUBBORN": tuple(actions)}
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    outcome = run_loop(spec, templates.get("delta-ddp"), profile, rules,
                       fingerprints=fingerprints, repair_table=table)
    assert outcome.status == STATUS_UNRESOLVED
    assert outcome.iterations_used == MAX_ITERATIONS == 5
    assert [entry.action for entry in outcome.history] == actions[:5] + [None]
    assert outcome.final_script.text.startswith(
        "".join(f"echo try {i}\n" for i in reversed(range(5))))
    assert outcome.final_result is outcome.history[-1].result


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
            "trigger": {"script_lacks": ["export CUSTOM_FLAG"]},
            "stderr": "weird custom failure xyz: initialization aborted",
            "clearable_by": ["export_env"],
        }
        return load_fault_rules(json.dumps([rule]))

    def test_unknown_failure_repaired_via_bridge(self, profiles, templates, custom_rules):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        bridge = _StubRepairBridge("env", ["export CUSTOM_FLAG before launching"])
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules,
            bridge=bridge,
        )
        assert bridge.calls == 1
        assert outcome.status == STATUS_SUCCESS
        assert outcome.iterations_used == 1
        assert "export CUSTOM_FLAG" in outcome.final_script.text
        diag = outcome.history[0].diagnosis
        assert diag.fingerprint_id is None
        assert diag.category == CATEGORY_ENV

    @pytest.mark.parametrize("max_iter", [1, 5])
    def test_last_failure_is_diagnosed_at_either_exit(
        self, profiles, templates, custom_rules, max_iter
    ):
        # The bridge's fix does not clear the fault.  With max_iter=1 the loop
        # stops at the bound; with 5 it stops when no untried action is left.
        # Either way the last failure is diagnosed and recorded without an action.
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        bridge = _StubRepairBridge("env", ["export OTHER_FLAG"])
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules, max_iter,
            bridge=bridge,
        )
        assert outcome.status == STATUS_UNRESOLVED
        assert outcome.iterations_used == 1
        assert bridge.calls == 2
        assert [e.action and e.action.payload for e in outcome.history] == [
            {"name": "OTHER_FLAG"}, None,
        ]
        assert all(e.diagnosis.category == CATEGORY_ENV for e in outcome.history)
        assert outcome.final_result is outcome.history[-1].result

    @pytest.mark.parametrize("port", ["abc", "99999", "80", "29400x"])
    def test_unusable_port_proposal_is_skipped(self, profiles, templates, custom_rules, port):
        # The remote answer proposes a port that cannot be applied before the
        # fix that clears the fault; the loop skips it instead of raising.
        answer = {"category": "env",
                  "proposals": [f"set master_port to {port}", "export CUSTOM_FLAG"]}
        bridge = RemoteBridge(
            BridgeConfig(endpoint="http://bridge.test/v1", capabilities=frozenset({"repair"})),
            transport=lambda *args: json.dumps({"ok": True, "result": answer}).encode(),
        )
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules, bridge=bridge,
        )
        assert outcome.status == STATUS_SUCCESS
        assert [e.action and e.action.kind for e in outcome.history] == ["export_env"]
        assert outcome.final_spec.master_port == spec.master_port

    def test_a_proposal_to_rebind_a_parameter_is_skipped(self, profiles, templates, custom_rules):
        answer = {"category": "env", "proposals": ["set nodes to 4", "export CUSTOM_FLAG"]}
        bridge = RemoteBridge(
            BridgeConfig(endpoint="http://bridge.test/v1", capabilities=frozenset({"repair"})),
            transport=lambda *args: json.dumps({"ok": True, "result": answer}).encode(),
        )
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        template = templates.get("delta-ddp")
        outcome = run_loop(spec, template, profile, custom_rules, bridge=bridge)
        assert outcome.status == STATUS_SUCCESS
        assert [a.kind for a in outcome.history[0].diagnosis.remote_actions] == [
            "set_param", "export_env"]
        assert [e.action and e.action.kind for e in outcome.history] == ["export_env"]
        assert outcome.final_spec == spec
        assert outcome.final_script == render_for_spec(
            spec, template, profile).with_export("CUSTOM_FLAG")

    def test_port_proposal_in_range_is_applied(self, profiles, templates, custom_rules):
        answer = {"category": "env",
                  "proposals": ["set master_port to 29611", "export CUSTOM_FLAG"]}
        bridge = RemoteBridge(
            BridgeConfig(endpoint="http://bridge.test/v1", capabilities=frozenset({"repair"})),
            transport=lambda *args: json.dumps({"ok": True, "result": answer}).encode(),
        )
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules, bridge=bridge,
        )
        assert outcome.status == STATUS_SUCCESS
        assert outcome.final_spec.master_port == 29611
        assert "29611" in outcome.final_script.text

    @pytest.mark.parametrize("error", [BridgeUnavailableError, BridgeProtocolError])
    def test_failing_bridge_falls_back_to_unknown(self, profiles, templates, custom_rules,
                                                  error):
        class FailingBridge(_StubRepairBridge):
            def remote_repair(self, context):
                super().remote_repair(context)
                raise error("repair endpoint failed")

        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        script = render_for_spec(spec, templates.get("delta-ddp"), profile)
        res = submit(script, spec, profile, custom_rules)
        bridge = FailingBridge("env", ["export CUSTOM_FLAG"])
        diag = diagnose(res, profile, load_fingerprints("[]"), bridge, script.text, spec)
        assert bridge.calls == 1
        assert (diag.category, diag.fingerprint_id) == (CATEGORY_UNKNOWN, None)
        assert diag.explanation == "no matching fingerprint"
        assert diag.remote_actions == ()
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules, bridge=bridge,
        )
        assert bridge.calls == 2
        assert outcome.status == STATUS_UNRESOLVED
        assert [e.action for e in outcome.history] == [None]
        assert outcome.history[0].diagnosis == diag

    def test_unknown_failure_without_bridge_stays_unresolved(
        self, profiles, templates, custom_rules
    ):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        outcome = run_loop(
            spec, templates.get("delta-ddp"), profile, custom_rules,
        )
        assert outcome.status == STATUS_UNRESOLVED
        assert outcome.history[0].diagnosis.category == CATEGORY_UNKNOWN
