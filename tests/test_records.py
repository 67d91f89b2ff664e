"""The value classes: constructor signatures, immutability, ==, hash and repr.

Each class is a plain slotted class with a hand-written ``__init__``.  These
tests hold it to what its ``@dataclass`` declaration gave: the same
positional order and keyword defaults, ``AttributeError`` on assignment or
deletion of a frozen record, ``==`` and ``hash`` over the field tuple and
``repr`` as ``Name(field=value, ...)``.
"""

import copy
import importlib
import inspect
import pickle

import pytest

from launchport.clusters import default_profiles
from launchport.errors import UnboundParameterError
from launchport.intent import JobSpec, PartialJobSpec
from launchport.types import Framework, Launcher, Scheduler, Strategy

REQUIRED = inspect.Parameter.empty

# Each class's fields as its dataclass declared them, which its constructor
# takes first: (name, default), REQUIRED where there is none.
SIGNATURES = {
    "clusters.ClusterProfile": (
        ("id", REQUIRED), ("aliases", REQUIRED), ("scheduler", REQUIRED),
        ("default_launcher", REQUIRED), ("gpus_per_node", REQUIRED), ("gpu_type", REQUIRED),
        ("env_propagation", REQUIRED)),
    "intent.PartialJobSpec": (
        ("cluster", None), ("framework", None), ("strategy", None), ("launcher", None),
        ("nodes", None), ("gpus_per_node", None), ("total_gpus", None), ("master_port", None),
        ("entry_script", None), ("train_args", ""), ("deepspeed_config", None)),
    "intent.JobSpec": (
        ("cluster", REQUIRED), ("framework", REQUIRED), ("strategy", REQUIRED),
        ("launcher", REQUIRED), ("nodes", REQUIRED), ("gpus_per_node", REQUIRED),
        ("entry_script", REQUIRED), ("train_args", ""), ("master_port", 29500),
        ("master_port_explicit", False), ("deepspeed_config", None)),
    "templates.ParamDecl": (
        ("name", REQUIRED), ("kind", "text"), ("required", True), ("default", None)),
    "templates.Template": (
        ("id", REQUIRED), ("cluster", REQUIRED), ("framework", REQUIRED), ("strategy", REQUIRED),
        ("launcher", REQUIRED), ("body", REQUIRED), ("params", REQUIRED), ("verified", False),
        ("notes", "")),
    "synthesis.RenderedScript": (
        ("text", REQUIRED), ("template_id", REQUIRED)),
    "lint.Finding": (("code", REQUIRED), ("message", REQUIRED)),
    "simcluster.FaultRule": (
        ("id", REQUIRED), ("cluster", REQUIRED), ("trigger", REQUIRED),
        ("stderr_template", REQUIRED), ("clearable_by", ())),
    "simcluster.ExecutionResult": (
        ("exit_code", REQUIRED), ("stdout", REQUIRED), ("stderr", REQUIRED),
        ("fault_fired", None)),
    "repair.RepairAction": (("kind", REQUIRED), ("payload", REQUIRED), ("rationale", "")),
    "repair.Diagnosis": (
        ("category", REQUIRED), ("fingerprint_id", REQUIRED), ("explanation", REQUIRED),
        ("remote_actions", ())),
    "repair.Fingerprint": (
        ("id", REQUIRED), ("category", REQUIRED), ("literal", None), ("regex", None),
        ("explanation", "")),
    "pipeline.HistoryEntry": (("diagnosis", REQUIRED), ("action", REQUIRED), ("result", REQUIRED)),
    "pipeline.LoopOutcome": (
        ("final_script", REQUIRED), ("history", REQUIRED), ("final_spec", REQUIRED),
        ("final_result", REQUIRED), ("profile", REQUIRED)),
    "retrieval.RankedCandidate": (
        ("template_id", REQUIRED), ("score", REQUIRED), ("breakdown", REQUIRED),
        ("exact", REQUIRED)),
    "pipeline.Attempt": (("candidate", REQUIRED), ("outcome", None), ("skip_reason", None)),
    "pipeline.PipelineResult": (
        ("spec", REQUIRED), ("candidates", REQUIRED), ("attempts", REQUIRED)),
    "bridge.BridgeConfig": (
        ("endpoint", None), ("api_key_env", None), ("timeout_ms", 2000), ("retries", 1),
        ("capabilities", frozenset())),
}
MUTABLE = {"intent.PartialJobSpec"}

# Constructor parameters after the fields that are not fields (a dataclass's
# keyword-only InitVar), as (name, default): read by __init__ and never kept,
# so ==, hash, repr and replace do not see them, and never given by position.
INIT_ONLY = {"synthesis.RenderedScript": (("_carried", None),)}


def _class(name):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"launchport.{module}"), cls)


def _samples() -> dict[str, tuple]:
    """Two field tuples per class, differing in their first field."""
    spec = JobSpec("delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN, 2, 4, "train.py")
    script = _class("synthesis.RenderedScript")("srun -N 2 train.py", "delta-ddp")
    profile = default_profiles().resolve("delta")
    result = _class("simcluster.ExecutionResult")(1, "", "boom", "ENV_NOT_PROPAGATED")
    action = _class("repair.RepairAction")("export_env", {"name": "PYTHONPATH"}, "why")
    diagnosis = _class("repair.Diagnosis")("env", "ENV_NOT_PROPAGATED", "cause", (action,))
    candidate = _class("retrieval.RankedCandidate")("delta-ddp", 1.0, {"cluster": 0.3}, True)
    first = {
        "clusters.ClusterProfile": ("delta", ("ncsa-delta",), Scheduler.SLURM, Launcher.TORCHRUN,
                                    4, "A100", True),
        "intent.PartialJobSpec": ("delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN,
                                  2, 4, 8, 29501, "train.py", "--epochs 3", "ds.json"),
        "intent.JobSpec": ("delta", Framework.DEEPSPEED, Strategy.ZERO3, Launcher.DEEPSPEED,
                           2, 4, "train.py", "--epochs 3", 29501, True, "ds.json"),
        "templates.ParamDecl": ("nodes", "integer", False, 2),
        "templates.Template": ("delta-ddp", "delta", Framework.PYTORCH, Strategy.DDP,
                               Launcher.TORCHRUN, "srun {nodes}",
                               (_class("templates.ParamDecl")("nodes", "integer"),), True, "n"),
        "synthesis.RenderedScript": ("srun -N 2 train.py", "delta-ddp"),
        "lint.Finding": ("TOPOLOGY_MISMATCH", "nodes differ"),
        "simcluster.FaultRule": ("ENV_NOT_PROPAGATED", ("deltaai",), {"cluster_is": "deltaai"},
                                 "ModuleNotFoundError", ("export_env",)),
        "simcluster.ExecutionResult": (1, "rank 0/8 ok\n", "boom", "F"),
        # Keys for both kinds, since the second sample changes only the kind.
        "repair.RepairAction": ("export_env", {"name": "PYTHONPATH", "args": "--fast"}, "why"),
        "repair.Diagnosis": ("env", "ENV_NOT_PROPAGATED", "cause", (action,)),
        "repair.Fingerprint": ("ENV_NOT_PROPAGATED", "env", "No module", None, "cause"),
        "pipeline.HistoryEntry": (diagnosis, action, result),
        "pipeline.LoopOutcome": (script, (), spec, result, profile),
        "retrieval.RankedCandidate": ("delta-ddp", 1.0, {"cluster": 0.3}, True),
        "pipeline.Attempt": (candidate, None, "skipped"),
        "pipeline.PipelineResult": (spec, (candidate,), ()),
        "bridge.BridgeConfig": ("http://localhost:8080/v1", "KEY", 1500, 2,
                                frozenset({"extract"})),
    }
    second = {
        "clusters.ClusterProfile": "deltaai", "intent.PartialJobSpec": "vista",
        "intent.JobSpec": "vista", "templates.ParamDecl": "world_size",
        "templates.Template": "delta-fsdp",
        "synthesis.RenderedScript": "srun -N 3 train.py", "lint.Finding": "ENV_PROPAGATION_RISK",
        "simcluster.FaultRule": "OTHER", "simcluster.ExecutionResult": 0,
        "repair.RepairAction": "add_arg", "repair.Diagnosis": "user",
        "repair.Fingerprint": "OTHER",
        "pipeline.HistoryEntry": _class("repair.Diagnosis")("user", None, "cause"),
        "pipeline.LoopOutcome": _class("synthesis.RenderedScript")(
            "srun -N 3 train.py", "delta-ddp"),
        "retrieval.RankedCandidate": "delta-fsdp",
        "pipeline.Attempt": _class("retrieval.RankedCandidate")("delta-fsdp", 0.5, {}, False),
        "pipeline.PipelineResult": JobSpec("vista", Framework.PYTORCH, Strategy.DDP,
                                           Launcher.TORCHRUN, 2, 1, "train.py"),
        "bridge.BridgeConfig": "http://localhost:9090/v1",
    }
    return {name: (values, (second[name],) + values[1:]) for name, values in first.items()}


SAMPLES = _samples()


def _reference_repr(cls, names, values) -> str:
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    return f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_the_dataclass_one(name):
    params = inspect.signature(_class(name)).parameters.values()
    assert tuple((p.name, p.default) for p in params) == SIGNATURES[name] + INIT_ONLY.get(name, ())
    fields, init_only = len(SIGNATURES[name]), len(INIT_ONLY.get(name, ()))
    assert [p.kind for p in params] == ([inspect.Parameter.POSITIONAL_OR_KEYWORD] * fields
                                        + [inspect.Parameter.KEYWORD_ONLY] * init_only)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_eq_hash_and_repr_follow_the_field_tuple(name):
    cls = _class(name)
    names = [field for field, _ in SIGNATURES[name]]
    values, other_values = SAMPLES[name]
    record, twin, other = cls(*values), cls(**dict(zip(names, values))), cls(*other_values)

    assert tuple(getattr(record, field) for field in names) == values
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != values and record.__eq__(values) is NotImplemented
    assert repr(record) == _reference_repr(cls, names, values)
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


@pytest.mark.parametrize("name", sorted(SIGNATURES.keys() - MUTABLE))
def test_frozen_record_rejects_assignment_and_deletion(name):
    names = [field for field, _ in SIGNATURES[name]]
    values, other_values = SAMPLES[name]
    record = _class(name)(*values)
    for field, new in zip(names, other_values[:1] + values[1:]):
        with pytest.raises(AttributeError):
            setattr(record, field, new)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, field) for field in names) == values


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_replace_and_copy_build_through_the_constructor(name):
    cls = _class(name)
    first = SIGNATURES[name][0][0]
    values, other_values = SAMPLES[name]
    record = cls(*values)
    assert record.replace(**{first: other_values[0]}) == cls(*other_values)
    assert record.replace() == record and record.replace() is not record
    assert copy.copy(record) == record
    with pytest.raises(TypeError):
        record.replace(unknown=1)


def test_records_pickle():
    for name in ("intent.JobSpec", "intent.PartialJobSpec", "pipeline.LoopOutcome"):
        record = _class(name)(*SAMPLES[name][0])
        assert pickle.loads(pickle.dumps(record)) == record


def test_replace_runs_the_constructor_checks():
    script = _class("synthesis.RenderedScript")(*SAMPLES["synthesis.RenderedScript"][0])
    with pytest.raises(UnboundParameterError):
        script.replace(text="srun -N {nodes} train.py")
    profile = _class("clusters.ClusterProfile")(*SAMPLES["clusters.ClusterProfile"][0])
    with pytest.raises(Exception, match="gpus_per_node must be >= 1"):
        profile.replace(gpus_per_node=0)


def test_partial_spec_stays_mutable_and_checked():
    partial = PartialJobSpec(cluster="delta")
    partial.nodes = 2
    partial.cluster = None
    assert partial == PartialJobSpec(nodes=2)
    for bad in ({"nodes": 0}, {"gpus_per_node": -1}, {"total_gpus": 0},
                {"master_port": 80}, {"master_port": 65536}):
        with pytest.raises(ValueError):
            PartialJobSpec(**bad)
        # Assignment is unchecked; merging builds a new spec, which checks.
        overlay = PartialJobSpec()
        for field, value in bad.items():
            setattr(overlay, field, value)
        with pytest.raises(ValueError):
            PartialJobSpec(cluster="delta").merged_with(overlay)
