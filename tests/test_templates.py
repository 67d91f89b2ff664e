import json
import re

import pytest
from hypothesis import given, strategies as st

from launchport.errors import TemplateConflictError, TemplateInvalidError
from launchport.templates import (
    ParamDecl,
    Template,
    TemplateSet,
    PLACEHOLDER_RE,
    load_repository,
)
from launchport.types import Framework, Launcher, Strategy

from conftest import placeholders

AURORA_BODY = (
    "sort -u $PBS_NODEFILE > hostfiles.txt && mpiexec -n {world_size} "
    "-ppn {each_node_gpus} -hostfile hostfiles.txt -genv MASTER_ADDR "
    "$(head -n 1 hostfiles.txt) -genv MASTER_PORT {master_port} python -u {your_script}"
)


class TestPlaceholders:
    def test_first_occurrence_order(self):
        assert placeholders(AURORA_BODY) == [
            "world_size", "each_node_gpus", "master_port", "your_script",
        ]

    def test_shell_variables_are_not_placeholders(self):
        assert placeholders("echo ${SLURM_PROCID}") == []
        assert placeholders("echo $SLURM_PROCID") == []
        assert placeholders("echo $(hostname)") == []

    def test_deduplicated(self):
        assert placeholders("{a} {a} {b}") == ["a", "b"]

    def test_name_grammar(self):
        assert placeholders("{Nodes} {NODES} {1x} {_x}") == []
        assert placeholders("{n1_x}") == ["n1_x"]


# The placeholder pattern as first written: a lookbehind, then the brace.
_LOOKBEHIND_FIRST_RE = re.compile(r"(?<!\$)\{([a-z][a-z0-9_]*)\}")


def _stream(pattern, text):
    return [(m.span(), m.group(1)) for m in pattern.finditer(text)]


@given(st.text() | st.lists(st.sampled_from(["$", "{", "}", "a", "n1_x", "_", "Z", "9", " "]))
       .map("".join))
def test_literal_first_pattern_finds_what_the_lookbehind_first_one_did(text):
    assert _stream(PLACEHOLDER_RE, text) == _stream(_LOOKBEHIND_FIRST_RE, text)


def _template(**overrides):
    fields = dict(
        id="testbox-ddp",
        cluster="testbox",
        framework=Framework.PYTORCH,
        strategy=Strategy.DDP,
        launcher=Launcher.TORCHRUN,
        body="torchrun --nnodes={nodes} {your_script}",
        params=(
            ParamDecl("nodes", "integer"),
            ParamDecl("your_script", "path"),
        ),
    )
    fields.update(overrides)
    return Template(**fields)


class TestValidation:
    def test_undeclared_placeholder_rejected(self):
        t = _template(body="{nodes}", params=())
        with pytest.raises(TemplateInvalidError) as exc:
            TemplateSet([t])
        assert "nodes" in str(exc.value)
        assert "testbox-ddp" in str(exc.value)

    def test_required_param_missing_from_body_rejected(self):
        t = _template(body="torchrun {your_script}")
        with pytest.raises(TemplateInvalidError) as exc:
            TemplateSet([t])
        assert "nodes" in str(exc.value)

    def test_unknown_param_kind_rejected(self):
        t = _template(params=(ParamDecl("nodes", "float"), ParamDecl("your_script", "path")))
        with pytest.raises(TemplateInvalidError):
            TemplateSet([t])

    @pytest.mark.parametrize("name, kind, default", [
        ("master_port", "port", "abc"),
        ("master_port", "port", "29400"),
        ("master_port", "port", True),
        ("master_port", "port", 29400.0),
        ("master_port", "port", 80),
        ("master_port", "port", 65536),
        ("master_port", "text", "abc"),
        ("nodes", "integer", "two"),
        ("nodes", "integer", False),
    ])
    def test_bad_numeric_default_rejected(self, name, kind, default):
        t = _template(
            body="torchrun --nnodes={nodes} --master_port={master_port} {your_script}",
            params=(
                ParamDecl("nodes", "integer"),
                ParamDecl("your_script", "path"),
                ParamDecl("master_port", "port"),
            ),
        )
        params = tuple(
            ParamDecl(name, kind, default=default) if p.name == name else p
            for p in t.params
        )
        with pytest.raises(TemplateInvalidError) as exc:
            TemplateSet([_template(body=t.body, params=params)])
        assert name in str(exc.value)

    @pytest.mark.parametrize("kind, default, shown", [
        ("path", ["a", 1], "['a', 1]"),
        ("path", True, "True"),
        ("text", 5, "5"),
        ("text", {"a": "b"}, "{'a': 'b'}"),
    ])
    def test_non_string_text_default_rejected(self, kind, default, shown):
        # JSON text, so the document is the one a user would write.
        record = {"id": "t", "cluster": "delta", "framework": "pytorch", "strategy": "ddp",
                  "launcher": "torchrun", "body": "torchrun {your_script}",
                  "params": [{"name": "your_script", "kind": kind, "default": default}]}
        with pytest.raises(TemplateInvalidError) as exc:
            load_repository(json.dumps([record]))
        assert str(exc.value) == (
            f"template 't': param 'your_script' needs a string default, got {shown}")

    def test_string_text_default_accepted(self):
        t = _template(params=(ParamDecl("nodes", "integer"),
                              ParamDecl("your_script", "path", default="train.py")))
        assert TemplateSet([t]).get("testbox-ddp").params[1].default == "train.py"

    def test_duplicate_param_names_rejected(self):
        t = _template(params=(ParamDecl("nodes", "integer"), ParamDecl("your_script", "path"),
                              ParamDecl("nodes", "integer")))
        with pytest.raises(TemplateInvalidError) as exc:
            TemplateSet([t])
        assert str(exc.value) == "template 'testbox-ddp': duplicate param declarations"

    @pytest.mark.parametrize("default", [1024, 29400, 65535])
    def test_port_default_in_range_accepted(self, default):
        t = _template(
            body="torchrun --master_port={master_port} {your_script}",
            params=(ParamDecl("your_script", "path"),
                    ParamDecl("master_port", "port", default=default)),
        )
        assert len(TemplateSet([t])) == 1


class TestBundle:
    def test_bundle_size(self, templates):
        assert len(templates) == 35

    def test_ls6_ddp_body_verbatim(self, templates):
        body = templates.get("ls6-ddp").body
        assert body.startswith("srun -N {nodes} -n {nodes} bash -c")
        assert "--node_rank=$SLURM_PROCID" in body

    def test_deltaai_deepspeed_body_verbatim(self, templates):
        body = templates.get("deltaai-deepspeed").body
        assert body.startswith("scontrol show hostnames $SLURM_NODELIST")
        assert "--launcher impi {your_script} {deepspeed_config}" in body

    def test_aurora_ddp_body_verbatim(self, templates):
        assert templates.get("aurora-ddp").body == AURORA_BODY

    def test_placeholders_equal_required_params(self, templates):
        for t in templates:
            assert set(placeholders(t.body)) == {p.name for p in t.params if p.required}, t.id

    def test_key_tuples_unique(self, templates):
        keys = [t.key for t in templates]
        assert len(keys) == len(set(keys))

    def test_gh200_stage3_entries_ship_unverified(self, templates):
        assert not templates.get("vista-zero3").verified
        assert not templates.get("deltaai-deepspeed").verified
        verified = [t for t in templates if t.verified]
        assert len(verified) == 33

    def test_aurora_carries_no_accelerate_entry(self, templates):
        aurora = [t for t in templates if t.cluster == "aurora"]
        assert len(aurora) == 3
        assert all(t.framework is not Framework.ACCELERATE for t in aurora)


class TestLoadAndSerialize:
    def test_empty_document(self):
        assert len(load_repository("[]")) == 0

    def test_duplicate_id_rejected(self):
        record = {"id": "x-1", "cluster": "testbox", "framework": "pytorch", "strategy": "ddp",
                  "launcher": "torchrun", "body": "torchrun {your_script}",
                  "params": [{"name": "your_script", "kind": "path"}]}
        with pytest.raises(TemplateInvalidError) as exc:
            load_repository(json.dumps([record, dict(record, strategy="fsdp")]))
        assert str(exc.value) == "template 'x-1': duplicate template id"

    def test_duplicate_key_tuple_conflict(self):
        record = {
            "id": "x-1",
            "cluster": "testbox",
            "framework": "pytorch",
            "strategy": "ddp",
            "launcher": "torchrun",
            "body": "torchrun {your_script}",
            "params": [{"name": "your_script", "kind": "path"}],
        }
        clone = dict(record, id="x-2")
        with pytest.raises(TemplateConflictError):
            load_repository(json.dumps([record, clone]))


class TestAddTemplate:
    def test_add_extends_without_mutating(self, templates):
        t = _template()
        extended = TemplateSet([*templates, t])
        assert len(extended) == len(templates) + 1
        assert "testbox-ddp" not in templates
        assert "testbox-ddp" in extended

    def test_add_missing_cell(self, templates):
        # A set lacking the vista/pytorch/fsdp/torchrun cell accepts it.
        smaller = TemplateSet([t for t in templates if t.id != "vista-fsdp"])
        restored = TemplateSet([*smaller, templates.get("vista-fsdp")])
        assert len(restored) == len(templates)

    def test_readding_existing_key_conflicts(self, templates):
        existing = templates.get("ls6-ddp")
        clone = _template(
            id="ls6-ddp-clone",
            cluster=existing.cluster,
            framework=existing.framework,
            strategy=existing.strategy,
            launcher=existing.launcher,
            body=existing.body,
            params=existing.params,
        )
        with pytest.raises(TemplateConflictError):
            TemplateSet([*templates, clone])

    def test_readding_existing_id_rejected(self, templates):
        clone = _template(id="ls6-ddp")
        with pytest.raises(TemplateInvalidError) as exc:
            TemplateSet([*templates, clone])
        assert str(exc.value) == "template 'ls6-ddp': duplicate template id"

    def test_add_invalid_template_rejected(self, templates):
        bad = _template(body="torchrun {your_script}")  # required 'nodes' not in body
        with pytest.raises(TemplateInvalidError):
            TemplateSet([*templates, bad])
