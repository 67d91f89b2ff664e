"""launchport: portable launch scripts for distributed deep learning.

Turn a plain-language or structured description of a training job into a
verified, cluster-specific launch script, and automatically diagnose and
repair failing scripts through a bounded verify/debug loop.  A
deterministic mock-cluster harness stands in for real execution, so the
whole pipeline runs offline.

Importing the package loads none of its modules: each name in ``__all__``
is imported from its module on first access (PEP 562) and then kept here.
"""

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_HOMES = {
    "ClusterProfile": "clusters",
    "Diagnosis": "repair",
    "ExecutionResult": "simcluster",
    "FaultRule": "simcluster",
    "Finding": "lint",
    "Framework": "types",
    "JobSpec": "intent",
    "Launcher": "types",
    "LoopOutcome": "pipeline",
    "ParamDecl": "templates",
    "PartialJobSpec": "intent",
    "PipelineResult": "pipeline",
    "ProfileSet": "clusters",
    "RankedCandidate": "retrieval",
    "RenderedScript": "synthesis",
    "RepairAction": "repair",
    "RuleBasedExtractor": "prose",
    "Scheduler": "types",
    "Strategy": "types",
    "Template": "templates",
    "TemplateSet": "templates",
    "bind": "synthesis",
    "candidates": "retrieval",
    "default_fault_rules": "simcluster",
    "default_profiles": "clusters",
    "default_templates": "templates",
    "diagnose": "repair",
    "extract": "prose",
    "finalize": "intent",
    "load_fault_rules": "simcluster",
    "load_profiles": "clusters",
    "load_repository": "templates",
    "missing_fields": "intent",
    "parse_script": "intent",
    "propose": "repair",
    "render": "synthesis",
    "run_loop": "pipeline",
    "run_pipeline": "pipeline",
    "select": "retrieval",
    "submit": "simcluster",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
