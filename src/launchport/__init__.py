"""launchport: portable launch scripts for distributed deep learning.

Turn a plain-language or structured description of a training job into a
verified, cluster-specific launch script, and automatically diagnose and
repair failing scripts through a bounded verify/debug loop.  A
deterministic mock-cluster harness stands in for real execution, so the
whole pipeline runs offline.
"""

from .clusters import ClusterProfile, ProfileSet, default_profiles, load_profiles
from .intent import (
    JobSpec,
    PartialJobSpec,
    RuleBasedExtractor,
    extract,
    finalize,
    missing_fields,
    parse_script,
)
from .lint import Finding, lint
from .pipeline import PipelineResult, run_pipeline
from .repair import (
    Diagnosis,
    LoopOutcome,
    RepairAction,
    diagnose,
    propose,
    run_loop,
)
from .retrieval import RankedCandidate, candidates, select
from .simcluster import ExecutionResult, FaultRule, default_fault_rules, load_fault_rules, submit
from .synthesis import RenderedScript, bind, render, wrap_batch
from .templates import (
    ParamDecl,
    Template,
    TemplateSet,
    default_templates,
    load_repository,
)
from .types import Framework, Launcher, Scheduler, Strategy

__version__ = "0.1.0"

__all__ = [
    "ClusterProfile",
    "Diagnosis",
    "ExecutionResult",
    "FaultRule",
    "Finding",
    "Framework",
    "JobSpec",
    "Launcher",
    "LoopOutcome",
    "ParamDecl",
    "PartialJobSpec",
    "PipelineResult",
    "ProfileSet",
    "RankedCandidate",
    "RenderedScript",
    "RepairAction",
    "RuleBasedExtractor",
    "Scheduler",
    "Strategy",
    "Template",
    "TemplateSet",
    "bind",
    "candidates",
    "default_fault_rules",
    "default_profiles",
    "default_templates",
    "diagnose",
    "extract",
    "finalize",
    "lint",
    "load_fault_rules",
    "load_profiles",
    "load_repository",
    "missing_fields",
    "parse_script",
    "propose",
    "render",
    "run_loop",
    "run_pipeline",
    "select",
    "submit",
    "wrap_batch",
]
